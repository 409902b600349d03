/**
 * @file
 * Reproduction of Figure 2: request processing latency seen by the
 * client, for twelve file operations, under the two structures §5.2
 * compares:
 *
 *   HY — Hybrid-1 (RPC-like): write-with-notification request, warm
 *        server procedure execution, return write(s);
 *   DX — pure data transfer: the clerk reads (or writes) the server's
 *        exported cache areas directly, no server process involvement.
 *
 * The paper's conditions are reproduced: 100% server cache hit rate,
 * client<->clerk communication cost excluded (backends are driven
 * directly), warm-cache NFS service times on the HY path.
 *
 * Expected shapes (the paper's argument): DX beats HY on every
 * operation, and the advantage shrinks as the transfer grows, because
 * a single control transfer amortizes over more data.
 */
#include <cstdio>

#include "bench_dfs_common.h"
#include "util/strings.h"

using namespace remora;

int
main()
{
    bench::banner("Figure 2: Request Processing Latency Seen by Client");

    bench::DfsHarness h;
    constexpr int kIters = 10;

    util::TextTable table({"Operation", "HY (ms)", "DX (ms)", "HY/DX",
                           "server proc (ms)"});
    bench::BenchReport report("fig2_client_latency");
    bool dxAlwaysWins = true;
    double firstRatio = 0, lastRatio = 0;

    for (const bench::FigureOp &op : bench::figureOps()) {
        double hyMs = 0, dxMs = 0;
        for (int i = 0; i < kIters; ++i) {
            hyMs += sim::toMsec(h.runOp(h.hy, op));
            dxMs += sim::toMsec(h.runOp(h.dx, op));
        }
        hyMs /= kIters;
        dxMs /= kIters;
        dxAlwaysWins = dxAlwaysWins && (dxMs < hyMs);

        double ratio = hyMs / dxMs;
        if (firstRatio == 0) {
            firstRatio = ratio;
        }
        lastRatio = ratio;

        double procMs =
            sim::toMsec(h.server.serviceTimes().timeFor(op.proc, op.bytes));
        table.addRow({op.label, bench::fmt(hyMs, 3), bench::fmt(dxMs, 3),
                      bench::fmt(ratio, 1), bench::fmt(procMs, 3)});
        std::string key = op.label;
        report.metric(key + ".hy_ms", hyMs, "ms");
        report.metric(key + ".dx_ms", dxMs, "ms");
        report.metric(key + ".hy_over_dx", ratio, "x");
    }
    std::printf("%s\n", table.render().c_str());

    std::printf("Shape checks:\n");
    std::printf("  DX faster than HY on every operation: %s\n",
                dxAlwaysWins ? "yes" : "NO");
    std::printf("  advantage shrinks as transfers grow "
                "(GetAttr ratio %.1fx vs WriteFile(1K) ratio %.1fx): %s\n",
                firstRatio, lastRatio,
                firstRatio > lastRatio ? "yes" : "NO");
    std::printf("  DX cache misses during run: %llu (must be 0)\n",
                static_cast<unsigned long long>(h.dx.misses()));

    report.check("dx_faster_on_every_op", dxAlwaysWins);
    report.check("advantage_shrinks_with_size", firstRatio > lastRatio);
    report.check("dx_cache_misses_zero", h.dx.misses() == 0);
    report.note("100% server cache hit rate; client<->clerk local RPC "
                "excluded; warm-cache NFS service times on the HY path");
    report.metric("sim.events",
                  static_cast<double>(h.cluster.sim.eventsProcessed()),
                  "events");
    report.write();
    return h.dx.misses() == 0 ? 0 : 1;
}
