/**
 * @file
 * Tests for the observability layer: TraceRecorder span semantics and
 * Chrome export, MetricRegistry dumps and histogram JSON,
 * Logger ring/level plumbing, and an end-to-end READ trace check.
 */
#include <gtest/gtest.h>

#include "cluster_fixture.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/logger.h"
#include "sim/stats.h"

namespace remora::test {
namespace {

/** The recorder is process-wide: reset it around every trace test. */
class TraceTest : public ::testing::Test
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

/** Advance the simulated clock to @p when. */
void
advanceTo(sim::Simulator &sim, sim::Time when)
{
    sim.scheduleAt(when, [] {});
    sim.run();
}

TEST_F(TraceTest, DisabledRecorderIsFreeAndSafe)
{
    auto &tr = obs::TraceRecorder::instance();
    EXPECT_FALSE(obs::TraceRecorder::on());
    obs::SpanId span = tr.beginSpan("n", "c", "ignored");
    EXPECT_EQ(span, obs::kNoSpan);
    tr.endSpan(span); // must be a no-op, not a crash
    tr.instant("n", "c", "ignored");
    EXPECT_EQ(tr.eventCount(), 0u);
}

TEST_F(TraceTest, SpanNestingAndSimTimeOrdering)
{
    sim::Simulator sim;
    auto &tr = obs::TraceRecorder::instance();
    tr.enable(sim);

    obs::SpanId outer = tr.beginSpan("node1", "rmem", "outer");
    advanceTo(sim, 100);
    obs::SpanId inner = tr.beginSpan("node1", "rmem", "inner", "k=v");
    advanceTo(sim, 250);
    tr.endSpan(inner);
    advanceTo(sim, 400);
    tr.endSpan(outer);
    tr.disable();

    ASSERT_EQ(tr.eventCount(), 2u);
    const obs::TraceEvent &o = tr.events()[0];
    const obs::TraceEvent &i = tr.events()[1];
    EXPECT_EQ(o.name, "outer");
    EXPECT_EQ(o.ts, 0);
    EXPECT_EQ(o.dur, 400);
    EXPECT_EQ(i.name, "inner");
    EXPECT_EQ(i.ts, 100);
    EXPECT_EQ(i.dur, 150);
    EXPECT_EQ(i.detail, "k=v");
    // The inner span is entirely contained in the outer one.
    EXPECT_GE(i.ts, o.ts);
    EXPECT_LE(i.ts + i.dur, o.ts + o.dur);
}

TEST_F(TraceTest, AsyncPairsAndInstants)
{
    sim::Simulator sim;
    auto &tr = obs::TraceRecorder::instance();
    tr.enable(sim);

    uint64_t id = tr.newAsyncId();
    tr.asyncBegin(id, "client", "rmem", "read");
    advanceTo(sim, 50);
    tr.instant("server", "net", "hop");
    advanceTo(sim, 90);
    tr.asyncEnd(id, "client", "rmem", "read");
    tr.disable();

    ASSERT_EQ(tr.eventCount(), 3u);
    EXPECT_EQ(tr.events()[0].phase, obs::TracePhase::kAsyncBegin);
    EXPECT_EQ(tr.events()[1].phase, obs::TracePhase::kInstant);
    EXPECT_EQ(tr.events()[2].phase, obs::TracePhase::kAsyncEnd);
    EXPECT_EQ(tr.events()[0].id, tr.events()[2].id);

    std::string json = tr.toChromeJson();
    EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    // Nodes become processes via metadata records.
    EXPECT_NE(json.find("process_name"), std::string::npos);
    EXPECT_NE(json.find("client"), std::string::npos);
    EXPECT_NE(json.find("server"), std::string::npos);
}

TEST_F(TraceTest, CapacityBoundsEventsAndCountsDrops)
{
    sim::Simulator sim;
    auto &tr = obs::TraceRecorder::instance();
    tr.setCapacity(4);
    tr.enable(sim);
    for (int i = 0; i < 10; ++i) {
        tr.instant("n", "c", "tick");
    }
    tr.disable();
    EXPECT_EQ(tr.eventCount(), 4u);
    EXPECT_EQ(tr.dropped(), 6u);
    tr.clear();
    tr.setCapacity(1u << 20);
    EXPECT_EQ(tr.dropped(), 0u);
}

TEST_F(TraceTest, OpScopeStampsSpansAndInstants)
{
    sim::Simulator sim;
    auto &tr = obs::TraceRecorder::instance();
    tr.enable(sim);

    uint64_t outer = tr.newAsyncId();
    uint64_t inner = tr.newAsyncId();
    EXPECT_EQ(obs::TraceRecorder::currentOp(), 0u);
    {
        obs::OpScope scope(outer);
        EXPECT_EQ(obs::TraceRecorder::currentOp(), outer);
        obs::SpanId span = tr.beginSpan("n", "c", "work");
        tr.instant("n", "c", "point");
        {
            // A child op begun under the outer scope records it as its
            // parent; the nested scope then saves and restores like a
            // stack variable.
            tr.asyncBegin(inner, "n", "c", "child");
            obs::OpScope nested(inner);
            EXPECT_EQ(obs::TraceRecorder::currentOp(), inner);
        }
        EXPECT_EQ(obs::TraceRecorder::currentOp(), outer);
        tr.endSpan(span);
    }
    EXPECT_EQ(obs::TraceRecorder::currentOp(), 0u);
    tr.instant("n", "c", "outside");
    tr.disable();

    ASSERT_EQ(tr.eventCount(), 4u);
    EXPECT_EQ(tr.events()[0].op, outer); // span, stamped by the scope
    EXPECT_EQ(tr.events()[1].op, outer); // instant, likewise
    EXPECT_EQ(tr.events()[2].op, inner); // the child op itself...
    EXPECT_EQ(tr.events()[2].parent, outer); // ...with its parent link
    EXPECT_EQ(tr.events()[3].op, 0u); // outside any scope
}

TEST_F(TraceTest, ChromeExportCarriesOpArgsAndSortIndices)
{
    sim::Simulator sim;
    auto &tr = obs::TraceRecorder::instance();
    tr.enable(sim);

    uint64_t id = tr.newAsyncId();
    tr.asyncBegin(id, "client", "rmem", "read");
    {
        obs::OpScope scope(id);
        tr.instant("client", "net", "hop");
    }
    tr.asyncEnd(id, "client", "rmem", "read");
    tr.disable();

    std::string json = tr.toChromeJson();
    // Stable ordering metadata so Perfetto lays nodes/components out
    // deterministically across runs.
    EXPECT_NE(json.find("process_sort_index"), std::string::npos);
    EXPECT_NE(json.find("thread_sort_index"), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    // The op id rides along as args so the DAG is reconstructible from
    // the export alone.
    EXPECT_NE(json.find("\"op\":" + std::to_string(id)), std::string::npos);
}

TEST(MetricRegistryTest, TextDumpAndNestedJson)
{
    sim::Counter writes;
    writes.inc(3);
    sim::Accumulator lat;
    lat.sample(1.0);
    lat.sample(3.0);
    sim::Histogram h(0.0, 1.0, 4);
    h.sample(0.5);
    h.sample(2.5);

    obs::MetricRegistry reg;
    reg.add("node1.rmem.writes_issued", writes);
    reg.add("node1.rmem.write.latency_us", lat);
    reg.add("node1.rmem.write.hist_us", h);
    reg.addGauge("node1.cpu.busy_us", [] { return 42.5; });
    EXPECT_EQ(reg.size(), 4u);

    std::string text = reg.dump();
    EXPECT_NE(text.find("node1.rmem.writes_issued"), std::string::npos);
    EXPECT_NE(text.find("node1.cpu.busy_us"), std::string::npos);

    std::string json = reg.dumpJson();
    // Dotted names become nested objects.
    EXPECT_NE(json.find("\"node1\":"), std::string::npos);
    EXPECT_NE(json.find("\"rmem\":"), std::string::npos);
    EXPECT_NE(json.find("\"writes_issued\":3"), std::string::npos);
    EXPECT_NE(json.find("\"mean\":2"), std::string::npos);
    EXPECT_NE(json.find("\"buckets\":"), std::string::npos);
    EXPECT_NE(json.find("42.5"), std::string::npos);
    // The dotted names themselves must NOT appear as JSON keys.
    EXPECT_EQ(json.find("\"node1.rmem"), std::string::npos);
}

TEST(MetricRegistryTest, RemovePrefixDropsOnlyThatSubtree)
{
    sim::Counter a, b;
    obs::MetricRegistry reg;
    reg.add("x.a", a);
    reg.add("x.b", b);
    reg.add("y.a", a);
    reg.removePrefix("x.");
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_NE(reg.dump().find("y.a"), std::string::npos);
}

TEST(MetricRegistryTest, DumpsSortedNameValueLines)
{
    sim::Counter c;
    c.inc(3);
    sim::Accumulator a;
    a.sample(1.0);
    obs::MetricRegistry reg;
    reg.add("zeta.counter", c);
    reg.add("alpha.accum", a);
    std::string dump = reg.dump();
    size_t alphaPos = dump.find("alpha.accum");
    size_t zetaPos = dump.find("zeta.counter 3");
    EXPECT_NE(alphaPos, std::string::npos);
    EXPECT_NE(zetaPos, std::string::npos);
    EXPECT_LT(alphaPos, zetaPos);
}

TEST(MetricRegistryTest, HistogramJsonRoundTrip)
{
    sim::Histogram h(0.0, 10.0, 3);
    h.sample(5.0);
    h.sample(15.0);
    h.sample(15.0);
    h.sample(-1.0); // underflow
    h.sample(99.0); // overflow

    obs::MetricRegistry reg;
    reg.add("op.latency", h);
    std::string json = reg.dumpJson();
    // The dotted name nests: {"op":{"latency":{...}}}.
    EXPECT_NE(json.find("\"op\":{\"latency\":{"), std::string::npos);
    EXPECT_NE(json.find("\"count\":5"), std::string::npos);
    EXPECT_NE(json.find("\"underflow\":1"), std::string::npos);
    EXPECT_NE(json.find("\"overflow\":1"), std::string::npos);
    EXPECT_NE(json.find("\"buckets\":"), std::string::npos);
    // Quantiles agree with the histogram's own interpolation.
    EXPECT_NE(json.find("\"p50\""), std::string::npos);
}

TEST(LoggerTest, ParseLevelNamesAndRing)
{
    sim::LogLevel lvl;
    EXPECT_TRUE(sim::Logger::parseLevel("trace", &lvl));
    EXPECT_EQ(lvl, sim::LogLevel::kTrace);
    EXPECT_TRUE(sim::Logger::parseLevel("WARN", &lvl));
    EXPECT_EQ(lvl, sim::LogLevel::kWarn);
    EXPECT_FALSE(sim::Logger::parseLevel("loud", &lvl));
    EXPECT_FALSE(sim::Logger::parseLevel(nullptr, &lvl));

    // Ring capture is independent of the emit level.
    sim::Logger::setLevel(sim::LogLevel::kError);
    sim::Logger::setRingLevel(sim::LogLevel::kInfo);
    sim::Logger::clearRecent();
    REMORA_LOG(kInfo, "test", "captured " << 123);
    auto recent = sim::Logger::recent();
    ASSERT_EQ(recent.size(), 1u);
    EXPECT_NE(recent[0].find("captured 123"), std::string::npos);

    sim::Logger::setRingCapacity(2);
    REMORA_LOG(kInfo, "test", "one");
    REMORA_LOG(kInfo, "test", "two");
    REMORA_LOG(kInfo, "test", "three");
    recent = sim::Logger::recent();
    ASSERT_EQ(recent.size(), 2u);
    EXPECT_NE(recent[0].find("two"), std::string::npos);
    EXPECT_NE(recent[1].find("three"), std::string::npos);

    sim::Logger::clearRecent();
    sim::Logger::setRingCapacity(64);
    sim::Logger::setLevel(sim::LogLevel::kWarn);
}

/** Find the first event matching (phase, comp, name); -1 when absent. */
int
findEvent(const std::vector<obs::TraceEvent> &evs, obs::TracePhase phase,
          const std::string &comp, const std::string &name)
{
    for (size_t i = 0; i < evs.size(); ++i) {
        if (evs[i].phase == phase && evs[i].comp == comp &&
            evs[i].name == name) {
            return static_cast<int>(i);
        }
    }
    return -1;
}

TEST_F(TraceTest, RemoteReadEmitsTheFullSpanSequence)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("srv");
    mem::Process &client = c.nodeA.spawnProcess("cli");

    mem::Vaddr base = server.space().allocRegion(4096);
    auto remote = c.engineB.exportSegment(server, base, 4096,
                                          rmem::Rights::kAll,
                                          rmem::NotifyPolicy::kNever, "r");
    ASSERT_TRUE(remote.ok());
    mem::Vaddr lbase = client.space().allocRegion(4096);
    auto local = c.engineA.exportSegment(client, lbase, 4096,
                                         rmem::Rights::kAll,
                                         rmem::NotifyPolicy::kNever, "l");
    ASSERT_TRUE(local.ok());
    c.sim.run();

    auto &tr = obs::TraceRecorder::instance();
    tr.enable(c.sim);
    auto task = c.engineA.read(remote.value(), 0,
                               local.value().descriptor, 0, 40);
    auto result = runToCompletion(c.sim, task);
    ASSERT_TRUE(result.status.ok());
    c.sim.run();
    tr.disable();

    const auto &evs = tr.events();
    // The full life of a READ, across three layers and both nodes:
    int readBegin =
        findEvent(evs, obs::TracePhase::kAsyncBegin, "rmem", "read");
    int txFrame = findEvent(evs, obs::TracePhase::kSpan, "net", "tx_frame");
    int rxIrq = findEvent(evs, obs::TracePhase::kInstant, "net", "rx_irq");
    int serve = findEvent(evs, obs::TracePhase::kSpan, "rmem", "serve_read");
    int deposit =
        findEvent(evs, obs::TracePhase::kSpan, "rmem", "deposit_read");
    int readEnd = findEvent(evs, obs::TracePhase::kAsyncEnd, "rmem", "read");

    ASSERT_GE(readBegin, 0);
    ASSERT_GE(txFrame, 0);
    ASSERT_GE(rxIrq, 0);
    ASSERT_GE(serve, 0);
    ASSERT_GE(deposit, 0);
    ASSERT_GE(readEnd, 0);

    // The request is issued on the client, served on the server, and
    // the result deposited back on the client.
    EXPECT_EQ(evs[static_cast<size_t>(readBegin)].node, "nodeA");
    EXPECT_EQ(evs[static_cast<size_t>(serve)].node, "nodeB");
    EXPECT_EQ(evs[static_cast<size_t>(deposit)].node, "nodeA");

    // Causal ordering in simulated time.
    sim::Time tBegin = evs[static_cast<size_t>(readBegin)].ts;
    sim::Time tServe = evs[static_cast<size_t>(serve)].ts;
    sim::Time tDeposit = evs[static_cast<size_t>(deposit)].ts;
    sim::Time tEnd = evs[static_cast<size_t>(readEnd)].ts;
    EXPECT_LE(tBegin, tServe);
    EXPECT_LE(tServe, tDeposit);
    EXPECT_LE(tDeposit, tEnd);

    // Phase metrics recorded the same operation.
    const rmem::OpPhaseStats &rd = c.engineA.metrics().read;
    EXPECT_EQ(rd.totalUs.count(), 1u);
    EXPECT_GT(rd.totalUs.mean(), 0.0);
    EXPECT_GT(rd.wireUs.mean(), 0.0);
    EXPECT_GT(rd.controllerUs.mean(), 0.0);
    // software + wire + controller == total (clamped decomposition).
    EXPECT_NEAR(rd.softwareUs.mean() + rd.wireUs.mean() +
                    rd.controllerUs.mean(),
                rd.totalUs.mean(), 0.01);

    // And the export names both nodes as processes.
    std::string json = tr.toChromeJson();
    EXPECT_NE(json.find("nodeA"), std::string::npos);
    EXPECT_NE(json.find("nodeB"), std::string::npos);
}

} // namespace
} // namespace remora::test
