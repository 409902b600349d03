/**
 * @file
 * Ablation A1: remote-read probing vs control transfer for name lookup.
 *
 * Section 4.2 weighs three options for a lookup whose first probe
 * misses: (1) keep probing hash buckets with remote reads, (2) hand the
 * lookup to the remote clerk via control transfer, (3) probe a few
 * times and then transfer control. The paper concludes: "Control
 * transfer is a viable option in our case only if we expect seven or
 * more collisions to occur in the hash table."
 *
 * This bench measures the marginal cost of one probe (a 64-byte remote
 * read plus the flag/name comparison) and the full cost of one
 * control-transfer lookup, projects the probing cost out to 12
 * collisions, and reports the crossover.
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

} // namespace

int
main()
{
    bench::banner(
        "Ablation A1: probe-with-remote-reads vs control-transfer lookup");

    Harness h;
    auto &sim = h.cluster.sim;
    constexpr int kIters = 20;

    auto job = [](Harness *hh, int iters) -> sim::Task<std::array<double, 3>> {
        auto &s = hh->cluster.sim;
        double cachedUs = 0, uncachedUs = 0, ctUs = 0;
        for (int i = 0; i < iters; ++i) {
            std::string name = "probe-seg-" + std::to_string(i);
            mem::Vaddr base = hh->userA.space().allocRegion(4096);
            auto exp = co_await hh->clerkA.exportByName(
                &hh->userA, base, 4096, rmem::Rights::kAll,
                rmem::NotifyPolicy::kConditional, name);
            REMORA_ASSERT(exp.ok());

            sim::Time t0 = s.now();
            auto u = co_await hh->clerkB.import(name, 1);
            REMORA_ASSERT(u.ok());
            uncachedUs += sim::toUsec(s.now() - t0);

            t0 = s.now();
            auto c = co_await hh->clerkB.import(name, 1);
            REMORA_ASSERT(c.ok());
            cachedUs += sim::toUsec(s.now() - t0);

            t0 = s.now();
            auto ct = co_await hh->clerkB.import(
                name, 1, true, names::ProbePolicy::kControlOnly);
            REMORA_ASSERT(ct.ok());
            ctUs += sim::toUsec(s.now() - t0);
        }
        co_return std::array<double, 3>{cachedUs / iters,
                                        uncachedUs / iters, ctUs / iters};
    };

    auto task = job(&h, kIters);
    auto [cachedUs, uncachedUs, ctUs] = bench::run(sim, task);

    // One probe's marginal cost: the uncached import resolved on its
    // first probe, so its delta over the cached import is one probe.
    double probeUnitUs = uncachedUs - cachedUs;
    double ctExtraUs = ctUs - cachedUs;

    util::TextTable table({"Collisions before hit", "Probing (us)",
                           "Control transfer (us)", "Winner"});
    int crossover = -1;
    for (int d = 0; d <= 12; ++d) {
        double probeUs = cachedUs + (d + 1) * probeUnitUs;
        bool ctWins = ctUs < probeUs;
        if (ctWins && crossover < 0) {
            crossover = d;
        }
        table.addRow({std::to_string(d), bench::fmt(probeUs),
                      bench::fmt(ctUs), ctWins ? "control" : "probe"});
    }
    std::printf("%s\n", table.render().c_str());

    std::printf("per-probe marginal cost: %.1f us; control-transfer "
                "premium over a cached lookup: %.1f us\n",
                probeUnitUs, ctExtraUs);
    std::printf("crossover at %d collisions (paper: \"seven or more\")\n",
                crossover);
    std::printf("Shape check: crossover in [5, 9]: %s\n",
                (crossover >= 5 && crossover <= 9) ? "yes" : "NO");

    bench::BenchReport report("ablation_probe_policy");
    report.metric("lookup_cached_us", cachedUs, "us");
    report.metric("lookup_uncached_us", uncachedUs, "us");
    report.metric("lookup_control_us", ctUs, "us");
    report.metric("probe_marginal_us", probeUnitUs, "us");
    report.metric("control_premium_us", ctExtraUs, "us");
    report.metric("crossover_collisions", crossover, "collisions", 7);
    report.check("crossover_in_5_to_9", crossover >= 5 && crossover <= 9);
    report.metric("sim.events", static_cast<double>(sim.eventsProcessed()),
                  "events");
    report.write();
    return 0;
}
