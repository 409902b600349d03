/**
 * @file
 * Reproduction of Table 3: name server performance.
 *
 *   paper (user-visible elapsed times, kernel-mediated):
 *     Export (ADDNAME)            665 us
 *     Import (LOOKUP), cached     196 us
 *     Import (LOOKUP), uncached   264 us
 *     Revoke (DELETENAME)         307 us
 *     LOOKUP with notification    524 us
 *
 * Two directly-linked nodes, a name clerk booted on each. The paper's
 * observation that "the difference in time (68 us) to perform a lookup
 * when the data is available locally and when it is not is comparable
 * to the cost of a remote read operation (45 us)" is checked explicitly.
 */
#include <cstdio>

#include "bench_common.h"
#include "names/clerk.h"
#include "util/strings.h"

using namespace remora;

namespace {

struct Harness
{
    bench::TwoNode cluster;
    names::NameClerk clerkA;
    names::NameClerk clerkB;
    mem::Process &userA;

    Harness()
        : clerkA(cluster.engineA), clerkB(cluster.engineB),
          userA(cluster.nodeA.spawnProcess("userA"))
    {
        clerkA.addPeer(2);
        clerkB.addPeer(1);
        cluster.sim.run();
    }
};

struct Results
{
    double exportUs = 0;
    double importCachedUs = 0;
    double importUncachedUs = 0;
    double revokeUs = 0;
    double notifyLookupUs = 0;
};

sim::Task<Results>
measure(Harness *h, int iters)
{
    Results r;
    auto &sim = h->cluster.sim;

    for (int i = 0; i < iters; ++i) {
        std::string name = "segment-" + std::to_string(i);
        mem::Vaddr base = h->userA.space().allocRegion(8192);

        // Export on node A.
        sim::Time t0 = sim.now();
        auto exported = co_await h->clerkA.exportByName(
            &h->userA, base, 8192, rmem::Rights::kAll,
            rmem::NotifyPolicy::kConditional, name);
        REMORA_ASSERT(exported.ok());
        r.exportUs += sim::toUsec(sim.now() - t0);

        // Uncached import from node B (first touch: remote read).
        t0 = sim.now();
        auto imp1 = co_await h->clerkB.import(name, 1);
        REMORA_ASSERT(imp1.ok());
        r.importUncachedUs += sim::toUsec(sim.now() - t0);

        // Cached import (clerk's import cache hit).
        t0 = sim.now();
        auto imp2 = co_await h->clerkB.import(name, 1);
        REMORA_ASSERT(imp2.ok());
        r.importCachedUs += sim::toUsec(sim.now() - t0);

        // Lookup via control transfer (remote write with notification,
        // remote clerk looks up and writes the answer back).
        t0 = sim.now();
        auto imp3 = co_await h->clerkB.import(
            name, 1, /*forceRemote=*/true,
            names::ProbePolicy::kControlOnly);
        REMORA_ASSERT(imp3.ok());
        r.notifyLookupUs += sim::toUsec(sim.now() - t0);

        // Revoke on node A.
        t0 = sim.now();
        auto revoked = co_await h->clerkA.revoke(name);
        REMORA_ASSERT(revoked.ok());
        r.revokeUs += sim::toUsec(sim.now() - t0);
    }

    r.exportUs /= iters;
    r.importCachedUs /= iters;
    r.importUncachedUs /= iters;
    r.revokeUs /= iters;
    r.notifyLookupUs /= iters;
    co_return r;
}

} // namespace

int
main()
{
    bench::banner("Table 3: Name Server Performance");

    Harness h;
    auto task = measure(&h, 20);
    Results r = bench::run(h.cluster.sim, task);

    util::TextTable table(
        {"Operation", "Paper (us)", "Measured (us)", "Deviation"});
    table.addRow({"Export (ADDNAME)", "665", bench::fmt(r.exportUs),
                  bench::deviation(r.exportUs, 665)});
    table.addRow({"Import (LOOKUP) cached", "196",
                  bench::fmt(r.importCachedUs),
                  bench::deviation(r.importCachedUs, 196)});
    table.addRow({"Import (LOOKUP) uncached", "264",
                  bench::fmt(r.importUncachedUs),
                  bench::deviation(r.importUncachedUs, 264)});
    table.addRow({"Revoke (DELETENAME)", "307", bench::fmt(r.revokeUs),
                  bench::deviation(r.revokeUs, 307)});
    table.addRow({"LOOKUP with notification", "524",
                  bench::fmt(r.notifyLookupUs),
                  bench::deviation(r.notifyLookupUs, 524)});
    std::printf("%s\n", table.render().c_str());

    double delta = r.importUncachedUs - r.importCachedUs;
    std::printf("uncached - cached = %.1f us (paper: 68 us, \"comparable "
                "to the cost of a remote read operation\", 45 us)\n",
                delta);
    std::printf("remote probes issued: %llu, control transfers: %llu\n",
                static_cast<unsigned long long>(
                    h.clerkB.stats().remoteReads.value()),
                static_cast<unsigned long long>(
                    h.clerkB.stats().controlTransfers.value()));

    bench::BenchReport report("table3_nameserver");
    report.metric("export.latency_us", r.exportUs, "us", 665);
    report.metric("import_cached.latency_us", r.importCachedUs, "us", 196);
    report.metric("import_uncached.latency_us", r.importUncachedUs, "us",
                  264);
    report.metric("revoke.latency_us", r.revokeUs, "us", 307);
    report.metric("lookup_notify.latency_us", r.notifyLookupUs, "us", 524);
    report.metric("uncached_minus_cached_us", delta, "us", 68);
    report.check("uncached_slower_than_cached", delta > 0);
    report.check("notify_lookup_slowest_lookup",
                 r.notifyLookupUs > r.importUncachedUs);
    report.metric("sim.events",
                  static_cast<double>(h.cluster.sim.eventsProcessed()),
                  "events");
    report.write();
    return 0;
}
