/**
 * @file
 * Critical-path analyzer and bench regression comparator tests.
 *
 * The analyzer is exercised two ways: on hand-built synthetic event
 * DAGs where every slice's attribution is known in advance, and on a
 * real traced READ across the two-node fixture, where the cross-node
 * span linkage (op-id propagation through the wire) is what is under
 * test. The bench_diff section drives the comparator on synthetic
 * reports, including the injected-regression case the check.sh gate is
 * contractually required to catch.
 */
#include <gtest/gtest.h>

#include <optional>

#include "cluster_fixture.h"
#include "obs/bench_diff.h"
#include "obs/bench_report.h"
#include "obs/critical_path.h"
#include "obs/trace.h"
#include "rmem/engine.h"

namespace remora {
namespace {

using test::TwoNodeCluster;
using test::runToCompletion;

/** Recorder is process-wide: reset around every test in this binary. */
class CriticalPathTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::TraceRecorder::instance().disable();
        obs::TraceRecorder::instance().clear();
    }

    void
    TearDown() override
    {
        obs::TraceRecorder::instance().disable();
        obs::TraceRecorder::instance().clear();
    }
};

// ----------------------------------------------------------------------
// Synthetic DAGs: attribution known in advance
// ----------------------------------------------------------------------

obs::TraceEvent
asyncBeginEv(uint64_t id, sim::Time ts, const char *node, const char *name,
             uint64_t parent = 0)
{
    obs::TraceEvent ev;
    ev.phase = obs::TracePhase::kAsyncBegin;
    ev.ts = ts;
    ev.id = id;
    ev.op = id;
    ev.parent = parent;
    ev.node = node;
    ev.comp = "test";
    ev.name = name;
    return ev;
}

obs::TraceEvent
asyncEndEv(uint64_t id, sim::Time ts, const char *node, const char *name)
{
    obs::TraceEvent ev;
    ev.phase = obs::TracePhase::kAsyncEnd;
    ev.ts = ts;
    ev.id = id;
    ev.op = id;
    ev.node = node;
    ev.comp = "test";
    ev.name = name;
    return ev;
}

obs::TraceEvent
spanEv(uint64_t op, sim::Time ts, sim::Duration dur, const char *node)
{
    obs::TraceEvent ev;
    ev.phase = obs::TracePhase::kSpan;
    ev.ts = ts;
    ev.dur = dur;
    ev.op = op;
    ev.node = node;
    ev.comp = "test";
    ev.name = "work";
    return ev;
}

obs::TraceEvent
arrivalEv(uint64_t op, sim::Time ts, const char *node)
{
    obs::TraceEvent ev;
    ev.phase = obs::TracePhase::kInstant;
    ev.ts = ts;
    ev.op = op;
    ev.node = node;
    ev.comp = "net";
    ev.name = std::string(obs::kCellArrivalEvent);
    return ev;
}

TEST_F(CriticalPathTest, SyntheticDagAttributesEveryPhase)
{
    // Window [0,100] on initiator A with one hop to B:
    //   [ 0,20)  span on A                -> software A      20
    //   [20,30)  gap up to the arrival    -> wire B          10
    //   [30,35)  interrupt latency (5)    -> controller B     5
    //   [35,40)  gap after the interrupt  -> queueing B       5
    //   [40,70)  span on B                -> software B      30
    //   [70,100) tail gap, no arrival     -> queueing A      30
    std::vector<obs::TraceEvent> events = {
        asyncBeginEv(1, 0, "A", "op"),
        spanEv(1, 0, 20, "A"),
        arrivalEv(1, 30, "B"),
        spanEv(1, 40, 30, "B"),
        asyncEndEv(1, 100, "A", "op"),
    };
    obs::CriticalPathParams params;
    params.interruptLatency = 5;
    auto paths = obs::CriticalPathAnalyzer(params).analyze(events);

    ASSERT_EQ(paths.size(), 1u);
    const obs::OpCriticalPath &p = paths[0];
    EXPECT_EQ(p.id, 1u);
    EXPECT_EQ(p.name, "op");
    EXPECT_EQ(p.initiator, "A");
    EXPECT_EQ(p.latency(), 100);
    EXPECT_EQ(p.totals.software, 50);
    EXPECT_EQ(p.totals.wire, 10);
    EXPECT_EQ(p.totals.controller, 5);
    EXPECT_EQ(p.totals.queueing, 35);
    EXPECT_EQ(p.totals.total(), p.latency());

    // Per-node attribution.
    ASSERT_TRUE(p.perNode.count("A"));
    ASSERT_TRUE(p.perNode.count("B"));
    EXPECT_EQ(p.perNode.at("A").software, 20);
    EXPECT_EQ(p.perNode.at("A").queueing, 30);
    EXPECT_EQ(p.perNode.at("B").software, 30);
    EXPECT_EQ(p.perNode.at("B").wire, 10);
    EXPECT_EQ(p.perNode.at("B").controller, 5);
    EXPECT_EQ(p.perNode.at("B").queueing, 5);

    // The slice timeline is gap-free over the window.
    sim::Duration covered = 0;
    for (const auto &s : p.slices) {
        covered += s.duration();
    }
    EXPECT_EQ(covered, p.latency());
}

TEST_F(CriticalPathTest, OverlappingSpansCountOnce)
{
    std::vector<obs::TraceEvent> events = {
        asyncBeginEv(1, 0, "A", "op"),
        spanEv(1, 0, 50, "A"),
        spanEv(1, 30, 30, "A"), // overlaps [30,50), extends to 60
        asyncEndEv(1, 60, "A", "op"),
    };
    auto paths = obs::CriticalPathAnalyzer().analyze(events);
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(paths[0].totals.software, 60);
    EXPECT_EQ(paths[0].totals.queueing, 0);
    EXPECT_EQ(paths[0].totals.total(), 60);
}

TEST_F(CriticalPathTest, GapWithNoArrivalIsQueueingOnNextNode)
{
    // The op waits 40 units before its only span runs on B: a pure
    // dispatch delay, charged as queueing where the work eventually ran.
    std::vector<obs::TraceEvent> events = {
        asyncBeginEv(1, 0, "A", "op"),
        spanEv(1, 40, 10, "B"),
        asyncEndEv(1, 50, "A", "op"),
    };
    auto paths = obs::CriticalPathAnalyzer().analyze(events);
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(paths[0].totals.queueing, 40);
    EXPECT_EQ(paths[0].totals.software, 10);
    EXPECT_EQ(paths[0].perNode.at("B").queueing, 40);
}

TEST_F(CriticalPathTest, IncompleteOpsAreSkipped)
{
    std::vector<obs::TraceEvent> events = {
        asyncBeginEv(1, 0, "A", "op"),
        spanEv(1, 0, 20, "A"),
        // no asyncEnd: still in flight at export
        asyncBeginEv(2, 10, "A", "done"),
        asyncEndEv(2, 30, "A", "done"),
    };
    auto paths = obs::CriticalPathAnalyzer().analyze(events);
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(paths[0].id, 2u);
}

TEST_F(CriticalPathTest, SummarizeGroupsByName)
{
    std::vector<obs::TraceEvent> events = {
        asyncBeginEv(1, 0, "A", "op"),   asyncEndEv(1, 40, "A", "op"),
        asyncBeginEv(2, 100, "A", "op"), asyncEndEv(2, 160, "A", "op"),
        asyncBeginEv(3, 200, "A", "other"),
        asyncEndEv(3, 210, "A", "other"),
    };
    auto paths = obs::CriticalPathAnalyzer().analyze(events);
    auto summary = obs::CriticalPathAnalyzer::summarize(paths);
    ASSERT_EQ(summary.size(), 2u);
    EXPECT_EQ(summary.at("op").count, 2u);
    EXPECT_EQ(summary.at("op").minLatency, 40);
    EXPECT_EQ(summary.at("op").maxLatency, 60);
    EXPECT_EQ(summary.at("other").count, 1u);

    std::string text = obs::CriticalPathAnalyzer::renderText(paths);
    EXPECT_NE(text.find("op"), std::string::npos);
    EXPECT_NE(text.find("other"), std::string::npos);
    std::string json = obs::CriticalPathAnalyzer::toJson(paths);
    EXPECT_NE(json.find("\"summary\""), std::string::npos);
}

// ----------------------------------------------------------------------
// Cross-node linkage: a real traced READ on the two-node fixture
// ----------------------------------------------------------------------

TEST_F(CriticalPathTest, TracedReadLinksAcrossNodes)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Vaddr base = server.space().allocRegion(4096);
    auto seg = c.engineB.exportSegment(server, base, 4096, rmem::Rights::kAll,
                                       rmem::NotifyPolicy::kNever, "data");
    ASSERT_TRUE(seg.ok());
    mem::Process &client = c.nodeA.spawnProcess("client");
    mem::Vaddr lbase = client.space().allocRegion(4096);
    auto local = c.engineA.exportSegment(client, lbase, 4096,
                                         rmem::Rights::kAll,
                                         rmem::NotifyPolicy::kNever, "local");
    ASSERT_TRUE(local.ok());
    c.sim.run(); // drain export costs before tracing

    auto &rec = obs::TraceRecorder::instance();
    rec.enable(c.sim);

    // An umbrella op makes the read's asyncBegin record a parent link
    // (the read task starts eagerly, inside the scope).
    uint64_t umbrella = rec.newAsyncId();
    rec.asyncBegin(umbrella, "nodeA", "test", "umbrella");
    std::optional<obs::OpScope> scope;
    scope.emplace(umbrella);
    auto task = c.engineA.read(seg.value(), 0,
                               local.value().descriptor, 0, 40);
    scope.reset();
    rmem::ReadOutcome out = runToCompletion(c.sim, task);
    ASSERT_TRUE(out.status.ok());
    rec.asyncEnd(umbrella, "nodeA", "test", "umbrella");
    rec.disable();

    auto paths = obs::CriticalPathAnalyzer().analyze(rec.events());
    const obs::OpCriticalPath *read = nullptr;
    for (const auto &p : paths) {
        if (p.name == "read") {
            ASSERT_EQ(read, nullptr) << "expected exactly one read op";
            read = &p;
        }
    }
    ASSERT_NE(read, nullptr);

    // Parent link to the umbrella op, established at eager start.
    EXPECT_EQ(read->parent, umbrella);
    EXPECT_EQ(read->initiator, "nodeA");

    // The DAG crosses nodes: both appear in the per-node breakdown, and
    // the server side did real attributed work.
    ASSERT_TRUE(read->perNode.count("nodeA"));
    ASSERT_TRUE(read->perNode.count("nodeB"));
    EXPECT_GT(read->perNode.at("nodeB").software, 0);

    // Both directions were on the wire, both NICs interrupted.
    EXPECT_GT(read->totals.wire, 0);
    EXPECT_GT(read->totals.controller, 0);

    // The attributed timeline is exhaustive: phases sum to latency.
    EXPECT_EQ(read->totals.total(), read->latency());

    // The arrival anchors themselves carried the op id on both nodes.
    int arrivals[2] = {0, 0};
    for (const auto &ev : rec.events()) {
        if (ev.phase == obs::TracePhase::kInstant &&
            ev.name == obs::kCellArrivalEvent && ev.op == read->id) {
            ++arrivals[ev.node == "nodeA" ? 0 : 1];
        }
    }
    EXPECT_EQ(arrivals[0], 1); // response landing at the client
    EXPECT_EQ(arrivals[1], 1); // request landing at the server
}

// ----------------------------------------------------------------------
// bench_diff: the regression comparator
// ----------------------------------------------------------------------

/** A minimal report with one latency metric and one check. */
std::string
reportJson(double latencyUs, bool checkOk = true)
{
    obs::BenchReport r("synthetic");
    r.metric("op.latency_us", latencyUs, "us");
    r.metric("op.throughput_mbps", 120.0, "Mb/s");
    r.check("shape_holds", checkOk);
    return r.toJson();
}

TEST(BenchDiff, WithinTolerancePasses)
{
    auto result = obs::diffReportText(reportJson(100.0), reportJson(103.0));
    EXPECT_TRUE(result.pass()) << result.render();
    ASSERT_EQ(result.entries.size(), 2u);
    EXPECT_NEAR(result.entries[0].deltaPct, 3.0, 1e-9);
}

TEST(BenchDiff, TwentyPercentRegressionFails)
{
    // The contract of scripts/check.sh --bench: a 20% latency
    // regression must fail at the default 5% tolerance.
    auto result = obs::diffReportText(reportJson(100.0), reportJson(120.0));
    EXPECT_FALSE(result.pass());
    std::string rendered = result.render();
    EXPECT_NE(rendered.find("op.latency_us"), std::string::npos);
    EXPECT_NE(rendered.find("+20.0%"), std::string::npos);
}

TEST(BenchDiff, ImprovementsAlsoFailTwoSided)
{
    // A surprise 20% speedup wants the baseline refreshed, not ignored.
    auto result = obs::diffReportText(reportJson(100.0), reportJson(80.0));
    EXPECT_FALSE(result.pass());
}

TEST(BenchDiff, PerMetricToleranceOverrides)
{
    obs::BenchDiffOptions opts;
    opts.tolerances["op.latency_us"] = 25.0;
    auto result =
        obs::diffReportText(reportJson(100.0), reportJson(120.0), opts);
    EXPECT_TRUE(result.pass()) << result.render();
}

TEST(BenchDiff, DirectedMetricPassesImprovementFailsRegression)
{
    // latency is "lower is better": a 20% drop is a win the gate must
    // let through, while the same move up stays a failure.
    obs::BenchDiffOptions opts;
    opts.directions["op.latency_us"] = -1;
    auto faster = obs::diffReportText(reportJson(100.0), reportJson(80.0),
                                      opts);
    EXPECT_TRUE(faster.pass()) << faster.render();
    auto slower = obs::diffReportText(reportJson(100.0), reportJson(120.0),
                                      opts);
    EXPECT_FALSE(slower.pass());
    ASSERT_EQ(slower.entries.size(), 2u);
    EXPECT_EQ(slower.entries[0].direction, -1);
    EXPECT_NE(slower.render().find("lower is better"), std::string::npos);
}

TEST(BenchDiff, HigherIsBetterFailsOnlyOnDrop)
{
    // Throughput marked "up": the two-sided rule would flag a 20% gain;
    // the direction hint keeps it green and reserves failure for drops.
    std::string base = reportJson(100.0);
    obs::BenchReport up("synthetic");
    up.metric("op.latency_us", 100.0, "us");
    up.metric("op.throughput_mbps", 144.0, "Mb/s");
    up.check("shape_holds", true);
    obs::BenchReport down("synthetic");
    down.metric("op.latency_us", 100.0, "us");
    down.metric("op.throughput_mbps", 96.0, "Mb/s");
    down.check("shape_holds", true);

    obs::BenchDiffOptions opts;
    opts.directions["op.throughput_mbps"] = 1;
    EXPECT_TRUE(obs::diffReportText(base, up.toJson(), opts).pass());
    EXPECT_FALSE(obs::diffReportText(base, down.toJson(), opts).pass());

    // Within-tolerance drop still passes: direction narrows which side
    // fails, it does not tighten the tolerance itself.
    obs::BenchReport dip("synthetic");
    dip.metric("op.latency_us", 100.0, "us");
    dip.metric("op.throughput_mbps", 116.0, "Mb/s");
    dip.check("shape_holds", true);
    EXPECT_TRUE(obs::diffReportText(base, dip.toJson(), opts).pass());
}

TEST(BenchDiff, MissingMetricIsStructuralFailure)
{
    obs::BenchReport cand("synthetic");
    cand.metric("op.throughput_mbps", 120.0, "Mb/s");
    cand.check("shape_holds", true);
    auto result = obs::diffReportText(reportJson(100.0), cand.toJson());
    EXPECT_FALSE(result.pass());
    ASSERT_FALSE(result.errors.empty());
    EXPECT_NE(result.errors[0].find("op.latency_us"), std::string::npos);
}

TEST(BenchDiff, FlippedCheckIsStructuralFailure)
{
    auto result = obs::diffReportText(reportJson(100.0),
                                      reportJson(100.0, false));
    EXPECT_FALSE(result.pass());
}

TEST(BenchDiff, NewCandidateMetricsAreNotedNotFailed)
{
    obs::BenchReport cand("synthetic");
    cand.metric("op.latency_us", 100.0, "us");
    cand.metric("op.throughput_mbps", 120.0, "Mb/s");
    cand.metric("op.p999_us", 180.0, "us"); // new in the candidate
    cand.check("shape_holds", true);
    auto result = obs::diffReportText(reportJson(100.0), cand.toJson());
    EXPECT_TRUE(result.pass()) << result.render();
    ASSERT_EQ(result.fresh.size(), 1u);
    EXPECT_EQ(result.fresh[0], "op.p999_us");
}

TEST(BenchDiff, UnparsableReportFails)
{
    auto result = obs::diffReportText("{not json", reportJson(100.0));
    EXPECT_FALSE(result.pass());
    ASSERT_FALSE(result.errors.empty());
    EXPECT_NE(result.errors[0].find("unparsable"), std::string::npos);
}

TEST(BenchDiff, BenchNameMismatchFails)
{
    obs::BenchReport other("different");
    other.metric("op.latency_us", 100.0, "us");
    auto result = obs::diffReportText(reportJson(100.0), other.toJson());
    EXPECT_FALSE(result.pass());
}

TEST(BenchDiff, GateFlagNamingNoBaselinedMetricIsReported)
{
    // A renamed metric must not quietly drop off its exact gate: every
    // override name has to match a metric of some baseline.
    obs::BenchReport other("other");
    other.metric("sim.events", 42.0, "events");
    std::vector<std::string> baselines = {reportJson(100.0), other.toJson(),
                                          "{not json"};
    obs::BenchDiffOptions opts;
    opts.tolerances["sim.events"] = 0.0;
    opts.directions["op.throughput_mbps"] = 1;
    EXPECT_TRUE(obs::unknownGateMetrics(opts, baselines).empty());

    opts.tolerances["sim.event_count"] = 0.0;
    opts.directions["op.latency_ms"] = -1;
    opts.directions["sim.event_count"] = 1;
    EXPECT_EQ(obs::unknownGateMetrics(opts, baselines),
              (std::vector<std::string>{"op.latency_ms", "sim.event_count"}));
}

} // namespace
} // namespace remora
