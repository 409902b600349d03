/**
 * @file
 * Reproduction of Table 2: performance of the remote memory operations.
 *
 *   paper (DECstation 5000/200 + FORE TCA-100, switchless ATM):
 *     read latency          45 us      (single cell, 10 4-byte words)
 *     write latency         30 us
 *     CAS latency           38 us
 *     block-write throughput 35.4 Mb/s (4 KB blocks)
 *     notification overhead 260 us
 *
 * Methodology mirrors the paper: two directly-connected nodes, an
 * otherwise idle cluster, single-cell operations moving 40 bytes, and
 * a streaming block-write for throughput. "Latency" is initiation to
 * completion: for writes, data deposited in remote memory; for reads
 * and CAS, result deposited in local memory.
 */
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "obs/critical_path.h"
#include "obs/trace.h"
#include "util/strings.h"

using namespace remora;

namespace {

/** Exported scratch segments on both nodes. */
struct Harness
{
    bench::TwoNode cluster;
    mem::Process &serverProc;
    mem::Process &clientProc;
    rmem::ImportedSegment remote; // exported by server
    rmem::SegmentId localSeg;     // exported by client (read deposits)

    Harness()
        : serverProc(cluster.nodeB.spawnProcess("server")),
          clientProc(cluster.nodeA.spawnProcess("client"))
    {
        mem::Vaddr base = serverProc.space().allocRegion(1 << 20);
        auto h = cluster.engineB.exportSegment(
            serverProc, base, 1 << 20, rmem::Rights::kAll,
            rmem::NotifyPolicy::kConditional, "bench.remote");
        REMORA_ASSERT(h.ok());
        remote = h.value();

        mem::Vaddr lbase = clientProc.space().allocRegion(1 << 16);
        auto l = cluster.engineA.exportSegment(
            clientProc, lbase, 1 << 16, rmem::Rights::kAll,
            rmem::NotifyPolicy::kConditional, "bench.local");
        REMORA_ASSERT(l.ok());
        localSeg = l.value().descriptor;
        cluster.sim.run(); // drain setup costs
    }
};

/** Single-cell write latency: initiation to remote-memory deposit. */
double
measureWriteUs(Harness &h, int iters)
{
    double total = 0;
    for (int i = 0; i < iters; ++i) {
        sim::Time t0 = h.cluster.sim.now();
        auto task = h.cluster.engineA.write(h.remote, 0,
                                            std::vector<uint8_t>(40, 0x5a));
        bench::run(h.cluster.sim, task);
        h.cluster.sim.run();
        // The deposit is the last CPU work the idle server performed.
        total += sim::toUsec(h.cluster.nodeB.cpu().busyUntil() - t0);
    }
    return total / iters;
}

/** Single-cell read latency: initiation to local deposit. */
double
measureReadUs(Harness &h, int iters)
{
    double total = 0;
    for (int i = 0; i < iters; ++i) {
        sim::Time t0 = h.cluster.sim.now();
        auto task = h.cluster.engineA.read(h.remote, 0, h.localSeg, 0, 40);
        bench::run(h.cluster.sim, task);
        total += sim::toUsec(h.cluster.sim.now() - t0);
        h.cluster.sim.run();
    }
    return total / iters;
}

/** CAS latency: initiation to result deposit. */
double
measureCasUs(Harness &h, int iters)
{
    double total = 0;
    for (int i = 0; i < iters; ++i) {
        sim::Time t0 = h.cluster.sim.now();
        auto task = h.cluster.engineA.cas(h.remote, 0, 0, 0, h.localSeg, 0);
        bench::run(h.cluster.sim, task);
        total += sim::toUsec(h.cluster.sim.now() - t0);
        h.cluster.sim.run();
    }
    return total / iters;
}

/** Streaming 4 KB block writes: payload bits over busy time. */
double
measureThroughputMbps(Harness &h, int blocks)
{
    auto streamer = [](Harness *hh, int n) -> sim::Task<void> {
        for (int i = 0; i < n; ++i) {
            auto s = co_await hh->cluster.engineA.write(
                hh->remote, static_cast<uint32_t>((i % 64) * 4096),
                std::vector<uint8_t>(4096, 0xcc));
            REMORA_ASSERT(s.ok());
        }
    };
    sim::Time t0 = h.cluster.sim.now();
    auto task = streamer(&h, blocks);
    bench::run(h.cluster.sim, task);
    h.cluster.sim.run();
    sim::Time t1 = h.cluster.nodeB.cpu().busyUntil();
    double seconds = static_cast<double>(t1 - t0) / 1e9;
    double bits = static_cast<double>(blocks) * 4096 * 8;
    return bits / seconds / 1e6;
}

/** Notification overhead: notified write minus plain write latency. */
double
measureNotifyOverheadUs(Harness &h, double plainWriteUs, int iters)
{
    double total = 0;
    auto *ch = h.cluster.engineB.channel(h.remote.descriptor);
    REMORA_ASSERT(ch != nullptr);
    for (int i = 0; i < iters; ++i) {
        auto waiter = ch->next(); // blocked server-side reader
        sim::Time t0 = h.cluster.sim.now();
        auto task = h.cluster.engineA.write(
            h.remote, 0, std::vector<uint8_t>(40, 0x11), /*notify=*/true);
        bench::run(h.cluster.sim, task);
        while (!waiter.done() && h.cluster.sim.step()) {
        }
        REMORA_ASSERT(waiter.done());
        total += sim::toUsec(h.cluster.sim.now() - t0) - plainWriteUs;
        h.cluster.sim.run();
    }
    return total / iters;
}

/** Analyzer-vs-engine agreement for one op kind (see checkAgreement). */
struct AgreementRow
{
    const char *name;
    obs::PhaseTotals analyzer; /**< Mean per op, ns. */
    double count = 0;
    const rmem::OpPhaseStats *engine;
};

/**
 * Empirical critical-path decomposition: rerun the three latency loops
 * on a fresh harness with the trace recorder on, walk the cross-node
 * DAG, and check the result against the engine's model-derived phase
 * accumulators. The analyzer splits queueing out of software (the
 * model cannot), so software compares as analyzer software + queueing.
 */
std::vector<AgreementRow>
measureCriticalPaths(Harness &h, int iters)
{
    auto &rec = obs::TraceRecorder::instance();
    rec.enable(h.cluster.sim);
    measureWriteUs(h, iters);
    measureReadUs(h, iters);
    measureCasUs(h, iters);
    rec.disable();

    obs::CriticalPathAnalyzer analyzer;
    auto paths = analyzer.analyze(rec.events());
    std::printf("Critical-path decomposition (traced, mean us/op):\n");
    std::fputs(obs::CriticalPathAnalyzer::renderText(paths).c_str(), stdout);

    auto summary = obs::CriticalPathAnalyzer::summarize(paths);
    std::vector<AgreementRow> rows = {
        {"write", {}, 0, &h.cluster.engineA.metrics().write},
        {"read", {}, 0, &h.cluster.engineA.metrics().read},
        {"cas", {}, 0, &h.cluster.engineA.metrics().cas},
    };
    for (auto &row : rows) {
        auto it = summary.find(row.name);
        if (it == summary.end() || it->second.count == 0) {
            continue;
        }
        row.count = static_cast<double>(it->second.count);
        row.analyzer = it->second.totals;
    }
    rec.clear();
    return rows;
}

/**
 * |analyzer - engine| for each phase, relative to the engine's total
 * latency; the bench gate requires agreement within 1%.
 */
bool
checkAgreement(const AgreementRow &row)
{
    if (row.count == 0) {
        return false;
    }
    double totalUs = row.engine->totalUs.mean();
    if (totalUs <= 0) {
        return false;
    }
    auto meanUs = [&row](sim::Duration d) {
        return sim::toUsec(d) / row.count;
    };
    double swQ = meanUs(row.analyzer.software) + meanUs(row.analyzer.queueing);
    double worst = std::max(
        {std::abs(swQ - row.engine->softwareUs.mean()),
         std::abs(meanUs(row.analyzer.wire) - row.engine->wireUs.mean()),
         std::abs(meanUs(row.analyzer.controller) -
                  row.engine->controllerUs.mean()),
         std::abs(meanUs(row.analyzer.total()) - totalUs)});
    return worst / totalUs <= 0.01;
}

} // namespace

int
main()
{
    bench::banner("Table 2: Performance Summary of Remote Memory Operations");

    Harness h;
    constexpr int kIters = 50;

    double writeUs = measureWriteUs(h, kIters);
    double readUs = measureReadUs(h, kIters);
    double casUs = measureCasUs(h, kIters);
    double mbps = measureThroughputMbps(h, 200);
    double notifyUs = measureNotifyOverheadUs(h, writeUs, kIters);

    util::TextTable table({"Metric", "Paper", "Measured", "Deviation"});
    table.addRow({"Read latency (us)", "45", bench::fmt(readUs),
                  bench::deviation(readUs, 45)});
    table.addRow({"Write latency (us)", "30", bench::fmt(writeUs),
                  bench::deviation(writeUs, 30)});
    table.addRow({"CAS latency (us)", "38", bench::fmt(casUs),
                  bench::deviation(casUs, 38)});
    table.addRow({"Throughput, 4KB blocks (Mb/s)", "35.4", bench::fmt(mbps),
                  bench::deviation(mbps, 35.4)});
    table.addRow({"Notification overhead (us)", "260", bench::fmt(notifyUs),
                  bench::deviation(notifyUs, 260)});
    std::printf("%s\n", table.render().c_str());

    std::printf("Shape checks: read > CAS > write: %s;"
                " remote write vs 2us local: %.0fx\n",
                (readUs > casUs && casUs > writeUs) ? "yes" : "NO",
                writeUs / 2.0);

    // Phase breakdown from the engine's own op metrics: the paper's
    // latency decomposition into controller / wire / software time.
    const rmem::EngineMetrics &em = h.cluster.engineA.metrics();
    std::printf("\nEngine phase decomposition (per successful op, mean):\n");
    auto phases = [](const char *label, const rmem::OpPhaseStats &op) {
        std::printf("  %-6s total %6.1f us = software %6.1f + wire %5.1f "
                    "+ controller %5.1f (n=%llu)\n",
                    label, op.totalUs.mean(), op.softwareUs.mean(),
                    op.wireUs.mean(), op.controllerUs.mean(),
                    static_cast<unsigned long long>(op.totalUs.count()));
    };
    phases("write", em.write);
    phases("read", em.read);
    phases("cas", em.cas);

    // Traced rerun on a fresh harness (so the engine accumulators cover
    // exactly the traced ops): empirical decomposition vs the model.
    std::printf("\n");
    Harness traced;
    auto agreement = measureCriticalPaths(traced, kIters);

    bench::BenchReport report("table2_rmem_ops");
    report.metric("read.latency_us", readUs, "us", 45);
    report.metric("write.latency_us", writeUs, "us", 30);
    report.metric("cas.latency_us", casUs, "us", 38);
    report.metric("block_write.throughput_mbps", mbps, "Mb/s", 35.4);
    report.metric("notification.overhead_us", notifyUs, "us", 260);
    auto phaseMetrics = [&report](const std::string &key,
                                  const rmem::OpPhaseStats &op) {
        report.metric(key + ".phase.total_us", op.totalUs.mean(), "us");
        report.metric(key + ".phase.software_us", op.softwareUs.mean(),
                      "us");
        report.metric(key + ".phase.wire_us", op.wireUs.mean(), "us");
        report.metric(key + ".phase.controller_us", op.controllerUs.mean(),
                      "us");
        if (op.latencyUs.total() > 0) {
            report.metric(key + ".phase.p99_us", op.latencyUs.quantile(0.99),
                          "us");
        }
    };
    phaseMetrics("write", em.write);
    phaseMetrics("read", em.read);
    phaseMetrics("cas", em.cas);
    report.percentiles("write.latency", em.write.latencyUs, "us");
    report.percentiles("read.latency", em.read.latencyUs, "us");
    report.percentiles("cas.latency", em.cas.latencyUs, "us");
    for (const auto &row : agreement) {
        auto meanUs = [&row](sim::Duration d) {
            return row.count ? sim::toUsec(d) / row.count : 0.0;
        };
        std::string key = std::string(row.name) + ".critpath";
        report.metric(key + ".software_us", meanUs(row.analyzer.software),
                      "us");
        report.metric(key + ".wire_us", meanUs(row.analyzer.wire), "us");
        report.metric(key + ".controller_us",
                      meanUs(row.analyzer.controller), "us");
        report.metric(key + ".queueing_us", meanUs(row.analyzer.queueing),
                      "us");
        report.check(key + ".agrees_with_engine", checkAgreement(row));
    }
    report.check("read_gt_cas_gt_write",
                 readUs > casUs && casUs > writeUs);
    report.check("phases_sum_to_total",
                 std::abs(em.read.softwareUs.mean() +
                          em.read.wireUs.mean() +
                          em.read.controllerUs.mean() -
                          em.read.totalUs.mean()) < 0.5);
    report.note("two directly-connected nodes, idle cluster, 40-byte "
                "single-cell operations, 4KB streaming block writes");
    report.metric("sim.events",
                  static_cast<double>(h.cluster.sim.eventsProcessed() +
                                      traced.cluster.sim.eventsProcessed()),
                  "events");
    report.write();
    return 0;
}
