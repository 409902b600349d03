/**
 * @file
 * Ablation A6: three transports, one file service.
 *
 * The paper compares pure data transfer (DX) against Hybrid-1, its
 * remote-memory reconstruction of a fast RPC. This ablation adds the
 * *conventional* request/response RPC transport — with the full
 * six-step thread model of §2 — as a third column, quantifying how
 * much of RPC's cost Hybrid-1 already eliminates and how much only
 * pure data transfer can remove.
 *
 * Expected ordering per operation, for both latency and server load:
 *   DX < Hybrid-1 < conventional RPC.
 */
#include <cstdio>

#include "bench_dfs_common.h"
#include "rpc/transport.h"
#include "util/strings.h"

using namespace remora;

namespace {

struct TransportHarness
{
    bench::DfsHarness base;
    rpc::RpcTransport clientRpc;
    rpc::RpcTransport serverRpc;
    dfs::RpcBackend rpc;

    TransportHarness()
        : clientRpc(base.cluster.engineA.wire()),
          serverRpc(base.cluster.engineB.wire()), rpc(clientRpc, 2)
    {
        base.server.attachRpcTransport(serverRpc);
    }
};

} // namespace

int
main()
{
    bench::banner("Ablation A6: DX vs Hybrid-1 vs conventional RPC");

    TransportHarness h;
    constexpr int kIters = 10;

    util::TextTable table({"Operation", "DX lat (ms)", "HY lat (ms)",
                           "RPC lat (ms)", "DX load (ms)", "HY load (ms)",
                           "RPC load (ms)"});

    auto &cpu = h.base.cluster.nodeB.cpu();
    bench::BenchReport report("ablation_transport");
    bool latencyOrdered = true;
    bool loadOrdered = true;

    for (const bench::FigureOp &op : bench::figureOps()) {
        double lat[3] = {0, 0, 0};
        double load[3] = {0, 0, 0};
        dfs::FileServiceBackend *backends[3] = {&h.base.dx, &h.base.hy,
                                                &h.rpc};
        for (int b = 0; b < 3; ++b) {
            for (int i = 0; i < kIters; ++i) {
                cpu.resetAccounting();
                lat[b] += sim::toMsec(h.base.runOp(*backends[b], op));
                load[b] += sim::toMsec(cpu.totalBusy());
            }
            lat[b] /= kIters;
            load[b] /= kIters;
        }
        latencyOrdered =
            latencyOrdered && lat[0] < lat[1] && lat[1] < lat[2];
        loadOrdered = loadOrdered && load[0] < load[1] && load[1] < load[2];
        table.addRow({op.label, bench::fmt(lat[0], 3), bench::fmt(lat[1], 3),
                      bench::fmt(lat[2], 3), bench::fmt(load[0], 3),
                      bench::fmt(load[1], 3), bench::fmt(load[2], 3)});
        std::string key = op.label;
        report.metric(key + ".dx.latency_ms", lat[0], "ms");
        report.metric(key + ".hy.latency_ms", lat[1], "ms");
        report.metric(key + ".rpc.latency_ms", lat[2], "ms");
        report.metric(key + ".dx.server_load_ms", load[0], "ms");
        report.metric(key + ".hy.server_load_ms", load[1], "ms");
        report.metric(key + ".rpc.server_load_ms", load[2], "ms");
    }
    std::printf("%s\n", table.render().c_str());

    std::printf("Shape checks:\n");
    std::printf("  latency ordering DX < HY < RPC on every op: %s\n",
                latencyOrdered ? "yes" : "NO");
    std::printf("  server load ordering DX < HY < RPC on every op: %s\n",
                loadOrdered ? "yes" : "NO");

    report.check("latency_dx_lt_hy_lt_rpc", latencyOrdered);
    report.check("load_dx_lt_hy_lt_rpc", loadOrdered);
    report.metric("sim.events",
                  static_cast<double>(h.base.cluster.sim.eventsProcessed()),
                  "events");
    report.write();
    return 0;
}
