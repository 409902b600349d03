/**
 * @file
 * Reproduction of Figure 3: breakdown of server CPU activity per
 * operation, HY vs DX, and the paper's headline claim:
 *
 *   "On the average, we see that the pure data transfer scheme imposes
 *    less than half the server load imposed by control and data
 *    transfer schemes."
 *
 * For each operation the server CPU's per-category accounting is reset,
 * the operation is driven from the client, and the consumed CPU time is
 * read back split into the paper's four components: data reception,
 * control transfer, procedure invocation (+ the procedure body), and
 * data reply. Under DX the server CPU runs *only* the kernel emulation
 * of incoming/outgoing remote memory operations — reception and reply.
 *
 * The headline average weights the per-op loads by the Table 1a
 * operation mix (rows that map onto the twelve figure operations).
 */
#include <cstdio>

#include "bench_dfs_common.h"
#include "trace/mix.h"
#include "util/strings.h"

using namespace remora;

namespace {

struct Breakdown
{
    double dataRecvMs = 0;
    double controlMs = 0;
    double procMs = 0;
    double dataReplyMs = 0;

    double
    total() const
    {
        return dataRecvMs + controlMs + procMs + dataReplyMs;
    }
};

/** Run @p op via @p backend and capture the server CPU breakdown. */
Breakdown
measure(bench::DfsHarness &h, dfs::FileServiceBackend &backend,
        const bench::FigureOp &op, int iters)
{
    auto &cpu = h.cluster.nodeB.cpu();
    Breakdown b;
    for (int i = 0; i < iters; ++i) {
        cpu.resetAccounting();
        h.runOp(backend, op);
        b.dataRecvMs +=
            sim::toMsec(cpu.busyIn(sim::CpuCategory::kDataReceive));
        b.controlMs +=
            sim::toMsec(cpu.busyIn(sim::CpuCategory::kControlTransfer));
        b.procMs += sim::toMsec(cpu.busyIn(sim::CpuCategory::kProcInvoke) +
                                cpu.busyIn(sim::CpuCategory::kProcExec));
        b.dataReplyMs +=
            sim::toMsec(cpu.busyIn(sim::CpuCategory::kDataReply));
    }
    b.dataRecvMs /= iters;
    b.controlMs /= iters;
    b.procMs /= iters;
    b.dataReplyMs /= iters;
    return b;
}

/** Table 1a weight for a figure operation (readdir/read/write sizes
 * split their class weight evenly across the figure's variants). */
double
mixWeight(const bench::FigureOp &op)
{
    using trace::OpClass;
    switch (op.proc) {
      case dfs::NfsProc::kGetAttr:
        return trace::paperMixPercent(OpClass::kGetAttr);
      case dfs::NfsProc::kLookup:
        return trace::paperMixPercent(OpClass::kLookup);
      case dfs::NfsProc::kReadLink:
        return trace::paperMixPercent(OpClass::kReadLink);
      case dfs::NfsProc::kRead:
        return trace::paperMixPercent(OpClass::kRead) / 3.0;
      case dfs::NfsProc::kReadDir:
        return trace::paperMixPercent(OpClass::kReadDir) / 3.0;
      case dfs::NfsProc::kWrite:
        return trace::paperMixPercent(OpClass::kWrite) / 3.0;
      default:
        return 0.0;
    }
}

} // namespace

int
main()
{
    bench::banner("Figure 3: Breakdown of Server Activity");

    bench::DfsHarness h;
    constexpr int kIters = 10;

    util::TextTable table({"Operation", "Scheme", "recv (ms)", "ctl (ms)",
                           "proc (ms)", "reply (ms)", "total (ms)"});

    double wHy = 0, wDx = 0, wSum = 0;
    bool dxAlwaysLighter = true;
    bool dxHasNoControl = true;
    bench::BenchReport report("fig3_server_load");

    for (const bench::FigureOp &op : bench::figureOps()) {
        Breakdown hy = measure(h, h.hy, op, kIters);
        Breakdown dx = measure(h, h.dx, op, kIters);
        report.metric(std::string(op.label) + ".hy.total_ms", hy.total(),
                      "ms");
        report.metric(std::string(op.label) + ".hy.control_ms", hy.controlMs,
                      "ms");
        report.metric(std::string(op.label) + ".dx.total_ms", dx.total(),
                      "ms");

        table.addRow({op.label, "HY", bench::fmt(hy.dataRecvMs, 3),
                      bench::fmt(hy.controlMs, 3), bench::fmt(hy.procMs, 3),
                      bench::fmt(hy.dataReplyMs, 3),
                      bench::fmt(hy.total(), 3)});
        table.addRow({"", "DX", bench::fmt(dx.dataRecvMs, 3),
                      bench::fmt(dx.controlMs, 3), bench::fmt(dx.procMs, 3),
                      bench::fmt(dx.dataReplyMs, 3),
                      bench::fmt(dx.total(), 3)});

        dxAlwaysLighter = dxAlwaysLighter && (dx.total() < hy.total());
        dxHasNoControl =
            dxHasNoControl && dx.controlMs == 0 && dx.procMs == 0;

        double w = mixWeight(op);
        wHy += w * hy.total();
        wDx += w * dx.total();
        wSum += w;
    }
    std::printf("%s\n", table.render().c_str());

    double avgHy = wHy / wSum;
    double avgDx = wDx / wSum;
    std::printf("Shape checks:\n");
    std::printf("  DX server load lower on every operation: %s\n",
                dxAlwaysLighter ? "yes" : "NO");
    std::printf("  DX involves no control transfer or procedure "
                "execution on the server: %s\n",
                dxHasNoControl ? "yes" : "NO");
    std::printf("  mix-weighted server load: HY %.3f ms/op, DX %.3f ms/op "
                "-> DX/HY = %.2f\n",
                avgHy, avgDx, avgDx / avgHy);
    std::printf("  paper: \"less than half the server load\": %s\n",
                (avgDx / avgHy) < 0.5 ? "yes" : "NO");

    report.metric("mix_weighted.hy_ms_per_op", avgHy, "ms");
    report.metric("mix_weighted.dx_ms_per_op", avgDx, "ms");
    report.metric("mix_weighted.dx_over_hy", avgDx / avgHy, "x");
    report.check("dx_lighter_on_every_op", dxAlwaysLighter);
    report.check("dx_no_control_or_proc", dxHasNoControl);
    report.check("dx_less_than_half_hy_load", (avgDx / avgHy) < 0.5);
    report.note("per-op server CPU split into the paper's four "
                "components; average weighted by the Table 1a mix");
    report.metric("sim.events",
                  static_cast<double>(h.cluster.sim.eventsProcessed()),
                  "events");
    report.write();
    return 0;
}
