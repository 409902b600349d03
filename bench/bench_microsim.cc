/**
 * @file
 * Ablation A4: engine microbenchmarks (wall-clock).
 *
 * Unlike the table/figure benches — which report *simulated* 1994-era
 * time — these measure the simulator's own execution speed: event
 * queue throughput, schedule+cancel churn through the tombstone path,
 * CRC rates, AAL5 segmentation/reassembly, protocol codec, marshaling,
 * PCG draws, and end-to-end simulated remote writes per host second.
 * Useful for keeping the simulator fast enough for the scaling
 * experiments.
 *
 * Every case runs a fixed amount of work three times and reports the
 * fastest pass, so the rates are host-dependent but the work is not.
 * The rates carry a wide, higher-is-better tolerance in the bench gate;
 * the deterministic counts (tombstones left by the churn case, events
 * per simulated remote write) are held exactly.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "net/aal5.h"
#include "rmem/protocol.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "util/bytes.h"
#include "util/crc.h"

#include "bench_common.h"

using namespace remora;

namespace {

/** Results land here so the optimizer cannot drop the timed work. */
volatile uint64_t gSink = 0;

/** Fastest of three passes of @p body, in seconds. */
double
bestOfThree(const std::function<void()> &body)
{
    double best = 0;
    for (int pass = 0; pass < 3; ++pass) {
        auto t0 = std::chrono::steady_clock::now();
        body();
        double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
        best = pass == 0 ? s : std::min(best, s);
    }
    return std::max(best, 1e-9);
}

/** 1024 events spread over distinct instants, scheduled then drained. */
double
eventQueueRate()
{
    constexpr int kRounds = 200;
    double s = bestOfThree([] {
        for (int r = 0; r < kRounds; ++r) {
            sim::Simulator sim;
            uint64_t sink = 0;
            for (int i = 0; i < 1024; ++i) {
                sim.schedule(i * 10, [&sink] { ++sink; });
            }
            sim.run();
            gSink = gSink + sink;
        }
    });
    return kRounds * 1024.0 / s;
}

/**
 * Timeout-guard churn: every event arms a guard far in the future and
 * cancels the previous one, so tombstones pile up behind a small live
 * set — the shape of the rmem/rpc timeout paths — until the simulator
 * compacts them away (once they exceed its floor of 64 and outnumber
 * the live entries). churn.tombstones is the count left uncompacted at
 * 200 us.
 */
double
churnRate(size_t *tombstones)
{
    constexpr int kEvents = 100000;
    double s = bestOfThree([tombstones] {
        sim::Simulator sim;
        sim::Random rng(11);
        sim::EventId guard = 0;
        uint64_t fired = 0;
        std::function<void(int)> tick = [&](int left) {
            ++fired;
            sim.cancel(guard);
            guard = sim.schedule(sim::msec(5), [&fired] { fired += 1000; });
            if (left > 0) {
                sim.schedule(rng.uniformRange(1, 50),
                             [&tick, left] { tick(left - 1); });
            }
        };
        sim.schedule(0, [&tick] { tick(kEvents); });
        sim.run(sim::usec(200));
        *tombstones = sim.pendingEvents() - sim.livePendingEvents();
        sim.run();
        gSink = gSink + fired;
    });
    // Each tick is one executed event plus one schedule+cancel pair.
    return 2.0 * kEvents / s;
}

/** MB/s of util::crc32Ieee over @p bytes-long frames. */
double
crcRate(size_t bytes)
{
    std::vector<uint8_t> data(bytes, 0xa5);
    size_t iters = std::max<size_t>(64, (16u << 20) / bytes);
    double s = bestOfThree([&] {
        uint32_t acc = 0;
        for (size_t i = 0; i < iters; ++i) {
            data[i % bytes] ^= static_cast<uint8_t>(acc);
            acc ^= util::crc32Ieee(data);
        }
        gSink = gSink + acc;
    });
    return static_cast<double>(iters * bytes) / s / 1e6;
}

/** MB/s of AAL5 segmentation plus reassembly of @p bytes frames. */
double
aal5Rate(size_t bytes)
{
    std::vector<uint8_t> frame(bytes, 0x42);
    size_t iters = std::max<size_t>(64, (4u << 20) / bytes);
    double s = bestOfThree([&] {
        for (size_t i = 0; i < iters; ++i) {
            auto cells = net::aal5Segment(1, 2, frame);
            net::Aal5Reassembler reasm;
            std::optional<net::Aal5Reassembler::Frame> out;
            for (const auto &cell : cells) {
                out = reasm.feed(cell);
            }
            gSink = gSink + (out.has_value() ? 1 : 0);
        }
    });
    return static_cast<double>(iters * bytes) / s / 1e6;
}

/** Encode+decode round trips per second of a small WRITE request. */
double
codecRate()
{
    constexpr int kIters = 100000;
    rmem::WriteReq req;
    req.descriptor = 3;
    req.generation = 7;
    req.offset = 1024;
    req.data.assign(40, 0x11);
    double s = bestOfThree([&] {
        for (int i = 0; i < kIters; ++i) {
            auto bytes = rmem::encodeMessage(rmem::Message(req));
            auto decoded = rmem::decodeMessage(bytes);
            gSink = gSink + (decoded.ok() ? 1 : 0);
        }
    });
    return kIters / s;
}

/** Marshal+unmarshal round trips per second of a mixed record. */
double
marshalRate()
{
    constexpr int kIters = 100000;
    double s = bestOfThree([] {
        for (int i = 0; i < kIters; ++i) {
            util::Encoder m;
            m.u32(42);
            m.u64(0xdeadbeefcafef00dull);
            m.opaque(std::string("the quick brown fox"));
            m.opaque(std::vector<uint8_t>(128, 9));
            auto buf = m.take();
            util::Decoder u(buf);
            uint32_t word = 0;
            uint64_t wide = 0;
            std::string text;
            std::vector<uint8_t> blob;
            u.u32(word);
            u.u64(wide);
            u.opaque(text);
            u.opaque(blob);
            gSink = gSink + word + wide + text.size() + blob.size();
        }
    });
    return kIters / s;
}

/** PCG32 draws per second. */
double
pcgRate()
{
    constexpr int kIters = 10000000;
    double s = bestOfThree([] {
        sim::Random rng(7);
        uint64_t acc = 0;
        for (int i = 0; i < kIters; ++i) {
            acc += rng.nextU32();
        }
        gSink = gSink + acc;
    });
    return kIters / s;
}

/** Simulated 40-byte remote writes per host second, and events each. */
double
remoteWriteRate(double *eventsPerOp)
{
    constexpr int kIters = 5000;
    uint64_t events = 0;
    double s = bestOfThree([&events] {
        bench::TwoNode cluster;
        mem::Process &server = cluster.nodeB.spawnProcess("server");
        mem::Vaddr base = server.space().allocRegion(4096);
        auto seg = cluster.engineB.exportSegment(
            server, base, 4096, rmem::Rights::kAll,
            rmem::NotifyPolicy::kNever, "bench");
        cluster.sim.run();
        uint64_t e0 = cluster.sim.eventsProcessed();
        for (int i = 0; i < kIters; ++i) {
            auto task = cluster.engineA.write(
                seg.value(), 0, std::vector<uint8_t>(40, 0x7e));
            bench::run(cluster.sim, task);
            cluster.sim.run();
        }
        events = cluster.sim.eventsProcessed() - e0;
    });
    *eventsPerOp = static_cast<double>(events) / kIters;
    return kIters / s;
}

} // namespace

int
main()
{
    bench::banner("A4: engine microbenchmarks (host wall-clock)");

    bench::BenchReport report("microsim");
    util::TextTable table({"case", "rate", "unit"});
    auto row = [&](const std::string &name, double value,
                   const std::string &unit) {
        table.addRow({name, bench::fmt(value, 1), unit});
        report.metric(name, value, unit);
    };

    size_t tombstones = 0;
    double eventsPerWrite = 0;
    row("event_queue.events_per_sec", eventQueueRate(), "1/s");
    row("churn.events_per_sec", churnRate(&tombstones), "1/s");
    for (size_t bytes : {64u, 4096u, 65536u}) {
        row("crc_" + std::to_string(bytes) + ".mb_per_sec", crcRate(bytes),
            "MB/s");
    }
    for (size_t bytes : {40u, 4096u, 32768u}) {
        row("aal5_" + std::to_string(bytes) + ".mb_per_sec", aal5Rate(bytes),
            "MB/s");
    }
    row("codec.ops_per_sec", codecRate(), "1/s");
    row("marshal.ops_per_sec", marshalRate(), "1/s");
    row("pcg.draws_per_sec", pcgRate(), "1/s");
    row("remote_write.ops_per_sec", remoteWriteRate(&eventsPerWrite), "1/s");
    std::printf("%s", table.render().c_str());

    std::printf("\nchurn: %zu tombstones pending at 200 us; remote write: "
                "%.1f events per op\n",
                tombstones, eventsPerWrite);
    report.metric("churn.tombstones", static_cast<double>(tombstones),
                  "count");
    report.metric("remote_write.events_per_op", eventsPerWrite, "count");
    report.check("churn_leaves_tombstones", tombstones > 0);
    report.note("rates are the fastest of three passes of fixed work");
    report.write();
    return 0;
}
