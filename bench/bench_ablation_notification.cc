/**
 * @file
 * Ablation A2: completion discovery — notification vs polling.
 *
 * The model deliberately makes control transfer optional: a reader can
 * learn that data arrived either by taking a notification (costing the
 * full fd/select dispatch path) or by spinning on the destination
 * memory word ("the reader has no way of knowing that the read
 * returned data except by repeatedly checking the destination memory
 * location", §3.1.1). This bench quantifies the trade-off the paper's
 * whole structure exploits:
 *
 *  - polling discovers completion almost immediately but burns client
 *    CPU while it spins;
 *  - notification frees the CPU but adds the ~260 us dispatch latency.
 */
#include <cstdio>

#include "bench_common.h"
#include "util/strings.h"

using namespace remora;

namespace {

struct Harness
{
    bench::TwoNode cluster;
    mem::Process &server;
    mem::Process &client;
    rmem::ImportedSegment remote;
    rmem::SegmentId localSeg;
    mem::Vaddr localBase;

    Harness()
        : server(cluster.nodeB.spawnProcess("server")),
          client(cluster.nodeA.spawnProcess("client"))
    {
        mem::Vaddr base = server.space().allocRegion(65536);
        auto h = cluster.engineB.exportSegment(
            server, base, 65536, rmem::Rights::kAll,
            rmem::NotifyPolicy::kNever, "src");
        REMORA_ASSERT(h.ok());
        remote = h.value();
        // Pre-fill source data.
        std::vector<uint8_t> content(65536, 0x3c);
        REMORA_ASSERT(server.space().write(base, content).ok());

        localBase = client.space().allocRegion(65536);
        auto l = cluster.engineA.exportSegment(
            client, localBase, 65536, rmem::Rights::kAll,
            rmem::NotifyPolicy::kConditional, "dst");
        REMORA_ASSERT(l.ok());
        localSeg = l.value().descriptor;
        cluster.sim.run();
    }
};

struct Sample
{
    double latencyUs;
    double clientCpuUs;
};

/** Read with notify: completion known when the channel fires. */
Sample
notified(Harness &h, uint32_t bytes)
{
    auto &sim = h.cluster.sim;
    auto *ch = h.cluster.engineA.channel(h.localSeg);
    auto waiter = ch->next();
    sim::Duration cpu0 = h.cluster.nodeA.cpu().totalBusy();
    sim::Time t0 = sim.now();
    auto rd = h.cluster.engineA.read(h.remote, 0, h.localSeg, 0, bytes, true);
    bench::run(sim, rd);
    while (!waiter.done() && sim.step()) {
    }
    REMORA_ASSERT(waiter.done());
    Sample s{sim::toUsec(sim.now() - t0),
             sim::toUsec(h.cluster.nodeA.cpu().totalBusy() - cpu0)};
    sim.run();
    return s;
}

/** Read + user-level spin on the destination word. */
Sample
polled(Harness &h, uint32_t bytes)
{
    auto &sim = h.cluster.sim;
    // Reset the flag word, then spin until the last word flips.
    mem::Vaddr flagVa = h.localBase + bytes - 4;
    REMORA_ASSERT(h.client.space().writeWord(flagVa, 0).ok());

    sim::Duration cpu0 = h.cluster.nodeA.cpu().totalBusy();
    sim::Time t0 = sim.now();

    auto job = [](Harness *hh, uint32_t n,
                  mem::Vaddr flag) -> sim::Task<void> {
        auto rd = hh->cluster.engineA.read(hh->remote, 0, hh->localSeg, 0, n);
        for (;;) {
            auto w = hh->client.space().readWord(flag);
            REMORA_ASSERT(w.ok());
            if (w.value() != 0) {
                break;
            }
            // The spin itself holds the CPU at user level but is
            // preempted by the kernel's receive path, so it is not
            // charged against the CpuResource (which is FCFS); the
            // notional CPU burned is the whole wait, reported below.
            co_await sim::delay(hh->cluster.engineA.node().simulator(),
                                sim::usec(2));
        }
        co_await rd; // reclaim the read task
    };
    auto task = job(&h, bytes, flagVa);
    bench::run(sim, task);
    (void)cpu0;
    // Spinning occupies the client CPU for the entire wait.
    Sample s{sim::toUsec(sim.now() - t0), sim::toUsec(sim.now() - t0)};
    sim.run();
    return s;
}

} // namespace

int
main()
{
    bench::banner("Ablation A2: notification vs polling for completion");

    Harness h;
    constexpr int kIters = 20;

    util::TextTable table({"Read size", "Poll lat (us)", "Notify lat (us)",
                           "Poll CPU (us)", "Notify CPU (us)",
                           "Notify premium (us)"});
    bench::BenchReport report("ablation_notification");
    for (uint32_t bytes : {40u, 1024u, 8192u}) {
        Sample p{}, n{};
        for (int i = 0; i < kIters; ++i) {
            Sample ps = polled(h, bytes);
            Sample ns = notified(h, bytes);
            p.latencyUs += ps.latencyUs;
            p.clientCpuUs += ps.clientCpuUs;
            n.latencyUs += ns.latencyUs;
            n.clientCpuUs += ns.clientCpuUs;
        }
        p.latencyUs /= kIters;
        p.clientCpuUs /= kIters;
        n.latencyUs /= kIters;
        n.clientCpuUs /= kIters;
        table.addRow({std::to_string(bytes), bench::fmt(p.latencyUs),
                      bench::fmt(n.latencyUs), bench::fmt(p.clientCpuUs),
                      bench::fmt(n.clientCpuUs),
                      bench::fmt(n.latencyUs - p.latencyUs)});
        std::string key = "read_" + std::to_string(bytes) + "b";
        report.metric(key + ".poll.latency_us", p.latencyUs, "us");
        report.metric(key + ".notify.latency_us", n.latencyUs, "us");
        report.metric(key + ".poll.client_cpu_us", p.clientCpuUs, "us");
        report.metric(key + ".notify.client_cpu_us", n.clientCpuUs, "us");
        report.metric(key + ".notify_premium_us",
                      n.latencyUs - p.latencyUs, "us", 260);
        report.check(key + "_notify_slower", n.latencyUs > p.latencyUs);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Shape check: the notification premium tracks Table 2's "
                "260 us overhead at every size.\n");
    report.metric("sim.events",
                  static_cast<double>(h.cluster.sim.eventsProcessed()),
                  "events");
    report.write();
    return 0;
}
