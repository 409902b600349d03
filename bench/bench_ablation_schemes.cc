/**
 * @file
 * Ablation A7: the three clerk/server data-movement alternatives of
 * §5.1, head to head.
 *
 *   Write Requests Only — the server eagerly remote-writes updated
 *       records into subscribed clerk caches; a fresh clerk serves
 *       reads from local memory (zero wire traffic at read time);
 *   Read Requests Only  — the clerk fetches from the server's exported
 *       areas on demand (the DX scheme of Figures 2/3);
 *   Hybrid-1            — write-with-notification + return writes.
 *
 * Workload: K repeated reads over a small hot set of 8 KB blocks —
 * the read-mostly regime the paper's departmental server lived in.
 * Reported per read: client latency, server CPU, and cells on the
 * wire; plus the eager scheme's one-time push cost, which is the fee
 * it pays to make reads free.
 */
#include <cstdio>
#include <set>

#include "bench_common.h"
#include "dfs/backend.h"
#include "dfs/push_cache.h"
#include "dfs/server.h"
#include "util/strings.h"

using namespace remora;

namespace {

struct Harness
{
    bench::TwoNode cluster;
    dfs::FileStore store;
    dfs::FileServer server;
    mem::Process &clerkProc;
    dfs::ClerkPushCache pushed;
    rpc::Hybrid1Client hyClient;
    dfs::HyBackend hy;
    dfs::DxBackend dx;
    std::vector<dfs::FileHandle> files;

    /** Roomy enough that the 8 hot blocks never collide direct-mapped. */
    static dfs::PushCacheGeometry
    pushGeometry()
    {
        dfs::PushCacheGeometry geo;
        geo.attrBuckets = 512;
        geo.dataSlots = 128;
        return geo;
    }

    Harness()
        : server(cluster.engineB, store),
          clerkProc(cluster.nodeA.spawnProcess("clerk")),
          pushed(cluster.engineA, clerkProc, pushGeometry()),
          hyClient(cluster.engineA, clerkProc, server.hybridHandle(),
                   server.allocClientSlot()),
          hy(hyClient),
          dx(cluster.engineA, clerkProc, server.areaHandles(),
             dfs::CacheGeometry{}, &hyClient)
    {
        // Keep only files whose block lands in a distinct push-cache
        // slot: the push cache is direct-mapped, so slot-sharing files
        // would evict each other (real deployments size the cache to
        // the hot set; see tests/test_dfs_push.cc for eviction).
        std::set<uint32_t> usedSlots;
        for (int i = 0; files.size() < 8; ++i) {
            auto f = store.createFile(store.root(),
                                      "hot" + std::to_string(i), 8192);
            REMORA_ASSERT(f.ok());
            uint32_t slot = dfs::dataSlot(f.value().key(), 0,
                                          pushGeometry().dataSlots);
            if (usedSlots.insert(slot).second) {
                files.push_back(f.value());
            } else {
                REMORA_ASSERT(store.remove(store.root(),
                                           "hot" + std::to_string(i))
                                  .ok());
            }
        }
        server.subscribe(pushed.handle(), pushed.geometry());
        server.warmCaches(); // also fires the eager pushes
        server.start();
        cluster.sim.run();
    }
};

struct SchemeResult
{
    double latencyUs = 0;
    double serverUs = 0;
    double cells = 0;
};

} // namespace

int
main()
{
    bench::banner("Ablation A7: §5.1 transfer schemes — eager push vs "
                  "read-pull vs Hybrid-1");

    Harness h;
    constexpr int kRounds = 20;
    auto &serverCpu = h.cluster.nodeB.cpu();

    // One-time cost of eager distribution (already paid during warm).
    double pushCells = 0;
    for (const auto &link : h.cluster.network.links()) {
        pushCells += static_cast<double>(link->cellsSent());
    }
    uint64_t pushCount = h.server.pushesIssued();

    auto measure = [&](auto &&readOnce) {
        SchemeResult r;
        serverCpu.resetAccounting();
        uint64_t cells0 = 0;
        for (const auto &link : h.cluster.network.links()) {
            cells0 += link->cellsSent();
        }
        sim::Time t0 = h.cluster.sim.now();
        int reads = 0;
        for (int round = 0; round < kRounds; ++round) {
            for (const dfs::FileHandle &fh : h.files) {
                readOnce(fh);
                ++reads;
            }
        }
        h.cluster.sim.run();
        uint64_t cells1 = 0;
        for (const auto &link : h.cluster.network.links()) {
            cells1 += link->cellsSent();
        }
        r.latencyUs = sim::toUsec(h.cluster.sim.now() - t0) / reads;
        r.serverUs = sim::toUsec(serverCpu.totalBusy()) / reads;
        r.cells = static_cast<double>(cells1 - cells0) / reads;
        return r;
    };

    SchemeResult push = measure([&](dfs::FileHandle fh) {
        std::vector<uint8_t> out;
        bool hit = h.pushed.findBlock(fh, 0, out);
        REMORA_ASSERT(hit && out.size() == 8192);
        // Local memory read: charge the copy the clerk performs.
        h.cluster.nodeA.cpu().post(
            h.cluster.engineA.costs().copyCost(out.size()),
            sim::CpuCategory::kOther);
        h.cluster.sim.run();
    });

    SchemeResult pull = measure([&](dfs::FileHandle fh) {
        auto t = h.dx.read(fh, 0, 8192);
        auto r = bench::run(h.cluster.sim, t);
        REMORA_ASSERT(r.ok());
    });

    SchemeResult hybrid = measure([&](dfs::FileHandle fh) {
        auto t = h.hy.read(fh, 0, 8192);
        auto r = bench::run(h.cluster.sim, t);
        REMORA_ASSERT(r.ok());
    });

    util::TextTable table({"Scheme", "Read latency (us)",
                           "Server CPU/read (us)", "Cells/read"});
    table.addRow({"Write Requests Only (eager push)",
                  bench::fmt(push.latencyUs), bench::fmt(push.serverUs),
                  bench::fmt(push.cells)});
    table.addRow({"Read Requests Only (DX pull)",
                  bench::fmt(pull.latencyUs), bench::fmt(pull.serverUs),
                  bench::fmt(pull.cells)});
    table.addRow({"Hybrid-1", bench::fmt(hybrid.latencyUs),
                  bench::fmt(hybrid.serverUs), bench::fmt(hybrid.cells)});
    std::printf("%s\n", table.render().c_str());

    std::printf("one-time eager distribution: %llu pushes, %.0f cells "
                "(amortized over all future reads)\n",
                static_cast<unsigned long long>(pushCount), pushCells);
    std::printf("Shape checks:\n");
    std::printf("  read-time ordering push < pull < hybrid (latency): %s\n",
                (push.latencyUs < pull.latencyUs &&
                 pull.latencyUs < hybrid.latencyUs)
                    ? "yes"
                    : "NO");
    std::printf("  eager push makes reads free of server load and wire "
                "traffic: %s\n",
                (push.serverUs == 0 && push.cells == 0) ? "yes" : "NO");

    bench::BenchReport report("ablation_schemes");
    report.metric("push.read_latency_us", push.latencyUs, "us");
    report.metric("push.server_cpu_us", push.serverUs, "us");
    report.metric("push.cells_per_read", push.cells, "cells");
    report.metric("pull.read_latency_us", pull.latencyUs, "us");
    report.metric("pull.server_cpu_us", pull.serverUs, "us");
    report.metric("pull.cells_per_read", pull.cells, "cells");
    report.metric("hybrid.read_latency_us", hybrid.latencyUs, "us");
    report.metric("hybrid.server_cpu_us", hybrid.serverUs, "us");
    report.metric("hybrid.cells_per_read", hybrid.cells, "cells");
    report.metric("eager.pushes", static_cast<double>(pushCount), "pushes");
    report.metric("eager.cells", pushCells, "cells");
    report.check("latency_push_lt_pull_lt_hybrid",
                 push.latencyUs < pull.latencyUs &&
                     pull.latencyUs < hybrid.latencyUs);
    report.check("push_reads_free",
                 push.serverUs == 0 && push.cells == 0);
    report.metric("sim.events",
                  static_cast<double>(h.cluster.sim.eventsProcessed()),
                  "events");
    report.write();
    return 0;
}
