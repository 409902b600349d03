/**
 * @file
 * Ablation A9: switchless vs. switched cluster.
 *
 * Table 2 was measured "between two hosts connected directly without a
 * switch; we expect next-generation switches to introduce only small
 * additional latency." This ablation quantifies that expectation: the
 * same single-cell operations through an output-queued switch, sweeping
 * the fabric's per-cell forwarding latency.
 */
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "util/strings.h"

using namespace remora;

namespace {

struct Numbers
{
    double writeUs;
    double readUs;
    double casUs;
    uint64_t events;
};

Numbers
measure(bool switched, sim::Duration fabricLatency)
{
    sim::Simulator sim;
    net::Network network(sim, net::LinkParams{});
    mem::Node a(sim, 1, "client"), b(sim, 2, "server");
    rmem::RmemEngine ea(a), eb(b);
    network.addHost(1, a.nic());
    network.addHost(2, b.nic());
    if (switched) {
        network.wireSwitched(fabricLatency);
    } else {
        network.wireDirect();
    }

    mem::Process &server = b.spawnProcess("server");
    mem::Process &client = a.spawnProcess("client");
    mem::Vaddr base = server.space().allocRegion(1 << 16);
    auto seg = eb.exportSegment(server, base, 1 << 16, rmem::Rights::kAll,
                                rmem::NotifyPolicy::kNever, "sw");
    REMORA_ASSERT(seg.ok());
    mem::Vaddr lbase = client.space().allocRegion(1 << 16);
    auto local = ea.exportSegment(client, lbase, 1 << 16, rmem::Rights::kAll,
                                  rmem::NotifyPolicy::kNever, "sw.l");
    REMORA_ASSERT(local.ok());
    sim.run();

    Numbers n{};
    constexpr int kIters = 30;
    for (int i = 0; i < kIters; ++i) {
        sim::Time t0 = sim.now();
        auto w = ea.write(seg.value(), 0, std::vector<uint8_t>(40, 1));
        bench::run(sim, w);
        sim.run();
        n.writeUs += sim::toUsec(b.cpu().busyUntil() - t0);

        t0 = sim.now();
        auto r = ea.read(seg.value(), 0, local.value().descriptor, 0, 40);
        bench::run(sim, r);
        n.readUs += sim::toUsec(sim.now() - t0);
        sim.run();

        t0 = sim.now();
        auto c = ea.cas(seg.value(), 0, 0, 0, local.value().descriptor, 0);
        bench::run(sim, c);
        n.casUs += sim::toUsec(sim.now() - t0);
        sim.run();
    }
    n.writeUs /= kIters;
    n.readUs /= kIters;
    n.casUs /= kIters;
    n.events = sim.eventsProcessed();
    return n;
}

} // namespace

int
main()
{
    bench::banner("Ablation A9: switchless testbed vs switched cluster");

    Numbers direct = measure(false, 0);
    util::TextTable table({"Topology", "Write (us)", "Read (us)",
                           "CAS (us)"});
    table.addRow({"direct (the paper's testbed)", bench::fmt(direct.writeUs),
                  bench::fmt(direct.readUs), bench::fmt(direct.casUs)});

    bench::BenchReport report("ablation_switch");
    report.metric("direct.write_us", direct.writeUs, "us");
    report.metric("direct.read_us", direct.readUs, "us");
    report.metric("direct.cas_us", direct.casUs, "us");

    double worstReadPenalty = 0;
    uint64_t events = direct.events;
    for (double fabricUs : {1.0, 2.0, 5.0, 10.0}) {
        Numbers sw = measure(true, sim::usec(fabricUs));
        char label[64];
        std::snprintf(label, sizeof(label), "switched, %.0f us fabric",
                      fabricUs);
        table.addRow({label, bench::fmt(sw.writeUs), bench::fmt(sw.readUs),
                      bench::fmt(sw.casUs)});
        if (fabricUs <= 2.0) {
            worstReadPenalty =
                std::max(worstReadPenalty, sw.readUs - direct.readUs);
        }
        std::string key =
            "switched_" + std::to_string(static_cast<int>(fabricUs)) + "us";
        report.metric(key + ".write_us", sw.writeUs, "us");
        report.metric(key + ".read_us", sw.readUs, "us");
        report.metric(key + ".cas_us", sw.casUs, "us");
        events += sw.events;
    }
    std::printf("%s\n", table.render().c_str());

    std::printf("Shape check: a fast fabric (<=2 us) stays a modest "
                "fraction of the op (<30%% on reads): %s\n",
                worstReadPenalty < 0.3 * direct.readUs ? "yes" : "NO");

    report.metric("worst_read_penalty_us_fast_fabric", worstReadPenalty,
                  "us");
    report.check("fast_fabric_lt_30pct_read",
                 worstReadPenalty < 0.3 * direct.readUs);
    report.metric("sim.events", static_cast<double>(events), "events");
    report.write();
    std::printf("(store-and-forward adds one cell serialization plus "
                "propagation per hop, and reads cross the fabric twice:\n"
                " the floor is ~10 us round-trip regardless of fabric "
                "speed — 'only small additional latency' relative to the "
                "45 us read)\n");
    return 0;
}
