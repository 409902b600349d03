/**
 * @file
 * Fault-injection and recovery tests: the deterministic injector
 * itself, the wire's at-most-once reliability layer under loss and
 * corruption, AAL5 error attribution and tail resync, RPC over the
 * reliable wire and its late replies, and the DFS read window
 * degrading across an outage instead of surfacing a timeout.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "cluster_fixture.h"
#include "net/aal5.h"
#include "net/fault.h"
#include "obs/trace.h"
#include "rpc/transport.h"
#include "util/crc.h"

namespace remora {
namespace {

using test::runToCompletion;
using test::TwoNodeCluster;

// ----------------------------------------------------------------------
// FaultInjector: deterministic, seeded, per-link decision streams
// ----------------------------------------------------------------------

std::vector<net::FaultInjector::Action>
drawDecisions(sim::Simulator &sim, net::FaultInjector &inj, int cells)
{
    std::vector<net::FaultInjector::Action> actions;
    for (int i = 0; i < cells; ++i) {
        net::Cell cell;
        cell.vpi = 2;
        cell.vci = 1;
        cell.payload.fill(static_cast<uint8_t>(i));
        auto d = inj.decide(cell, sim.now() + sim::usec(2u * i + 2),
                            sim::usec(2));
        actions.push_back(d.action);
    }
    return actions;
}

TEST(FaultInjector, SameSeedSameLinkReplaysIdentically)
{
    net::FaultPlan plan;
    plan.seed = 7;
    plan.dropRate = 0.3;
    plan.corruptRate = 0.1;
    plan.delayRate = 0.2;

    sim::Simulator simA;
    net::FaultInjector a(simA, plan, "n1->n2");
    auto actionsA = drawDecisions(simA, a, 400);

    sim::Simulator simB;
    net::FaultInjector b(simB, plan, "n1->n2");
    auto actionsB = drawDecisions(simB, b, 400);

    EXPECT_EQ(actionsA, actionsB);
    EXPECT_EQ(a.drops(), b.drops());
    EXPECT_EQ(a.corrupts(), b.corrupts());
    EXPECT_EQ(a.delays(), b.delays());
    EXPECT_GT(a.drops(), 0u);
    // Every fault decision was folded into the determinism digest, and
    // identically so.
    EXPECT_EQ(simA.digest().value(), simB.digest().value());
}

TEST(FaultInjector, LinkNameDecorrelatesTheTwoDirections)
{
    net::FaultPlan plan;
    plan.seed = 7;
    plan.dropRate = 0.3;

    sim::Simulator simA;
    net::FaultInjector fwd(simA, plan, "n1->n2");
    auto fwdActions = drawDecisions(simA, fwd, 400);

    sim::Simulator simB;
    net::FaultInjector rev(simB, plan, "n2->n1");
    auto revActions = drawDecisions(simB, rev, 400);

    EXPECT_NE(fwdActions, revActions);
}

TEST(FaultInjector, PauseWindowDefersDeliveryPastItsEnd)
{
    net::FaultPlan plan;
    plan.pauses.push_back({sim::usec(100), sim::usec(200)});

    sim::Simulator sim;
    net::FaultInjector inj(sim, plan, "L");
    uint64_t deferred = 0;
    for (int i = 0; i < 150; ++i) {
        net::Cell cell;
        sim::Time nominal = sim::usec(2u * i); // 0 .. 298 us
        auto d = inj.decide(cell, nominal, sim::usec(2));
        ASSERT_EQ(d.action, net::FaultInjector::Action::kDeliver);
        if (nominal >= sim::usec(100) && nominal < sim::usec(200)) {
            ++deferred;
            EXPECT_GE(nominal + d.extraDelay, sim::usec(200))
                << "cell inside the outage window delivered early";
        } else {
            EXPECT_EQ(d.extraDelay, 0);
        }
    }
    EXPECT_EQ(inj.pausedDeliveries(), deferred);
    EXPECT_EQ(deferred, 50u);
}

// ----------------------------------------------------------------------
// Drops at the link layer: flow control must survive the loss
// ----------------------------------------------------------------------

TEST(FaultCluster, TotalLossNeitherLeaksCreditsNorWedgesTheLink)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Vaddr base = server.space().allocRegion(4096);
    auto seg = c.engineB.exportSegment(server, base, 4096,
                                       rmem::Rights::kAll,
                                       rmem::NotifyPolicy::kNever, "s");
    ASSERT_TRUE(seg.ok());
    c.sim.run();

    net::FaultPlan plan;
    plan.seed = 3;
    plan.dropRate = 1.0;
    c.network.installFaults(plan);

    // Far more cells than the link has credits: if a dropped cell's
    // credit leaked, the pump would wedge partway through.
    constexpr int kWrites = 64;
    uint64_t served0 = c.engineB.stats().requestsServed.value();
    for (int i = 0; i < kWrites; ++i) {
        auto w = c.engineA.write(seg.value(), 0,
                                 std::vector<uint8_t>(40, 1));
        runToCompletion(c.sim, w); // local completion only
    }
    c.sim.run();

    EXPECT_EQ(c.network.totalFaultDrops(), static_cast<uint64_t>(kWrites));
    EXPECT_EQ(c.engineB.stats().requestsServed.value(), served0);
    EXPECT_EQ(c.sim.blockedTaskCount(), 0u);
}

// ----------------------------------------------------------------------
// Wire reliability: every write survives drops, applied exactly once
// ----------------------------------------------------------------------

TEST(FaultCluster, ReliableWireDeliversEveryWriteExactlyOnceUnderDrops)
{
    auto runScenario = [](uint64_t faultSeed) -> uint64_t {
        TwoNodeCluster c;
        c.engineA.wire().enableReliability();
        c.engineB.wire().enableReliability();
        mem::Process &server = c.nodeB.spawnProcess("server");
        mem::Vaddr base = server.space().allocRegion(8192);
        auto seg = c.engineB.exportSegment(server, base, 8192,
                                           rmem::Rights::kAll,
                                           rmem::NotifyPolicy::kConditional,
                                           "s");
        EXPECT_TRUE(seg.ok());
        c.sim.run();

        net::FaultPlan plan;
        plan.seed = faultSeed;
        plan.dropRate = 0.15;
        c.network.installFaults(plan);

        constexpr int kWrites = 24;
        uint64_t served0 = c.engineB.stats().requestsServed.value();
        std::vector<std::vector<uint8_t>> expected;
        for (int i = 0; i < kWrites; ++i) {
            std::vector<uint8_t> data(64 + 8u * static_cast<unsigned>(i));
            for (size_t j = 0; j < data.size(); ++j) {
                data[j] = static_cast<uint8_t>(i * 37 + j);
            }
            expected.push_back(data);
            auto w = c.engineA.write(seg.value(),
                                     static_cast<uint32_t>(i) * 256, data,
                                     /*notify=*/true);
            runToCompletion(c.sim, w);
        }
        c.sim.run(); // drain retransmissions until everything is acked

        // Exactly-once apply: each WRITE reached the engine once, no
        // retransmitted duplicate re-executed, every notification
        // posted exactly once.
        EXPECT_EQ(c.engineB.stats().requestsServed.value() - served0,
                  static_cast<uint64_t>(kWrites));
        auto *ch = c.engineB.channel(seg.value().descriptor);
        EXPECT_NE(ch, nullptr);
        if (ch != nullptr) {
            rmem::Notification n;
            int notifications = 0;
            while (ch->tryNext(n)) {
                ++notifications;
            }
            EXPECT_EQ(notifications, kWrites);
        }

        // Zero lost user-visible operations: final memory is exact.
        for (int i = 0; i < kWrites; ++i) {
            std::vector<uint8_t> got(expected[i].size());
            EXPECT_TRUE(
                server.space()
                    .read(base + static_cast<uint64_t>(i) * 256, got)
                    .ok());
            EXPECT_EQ(got, expected[i]) << "write " << i;
        }

        // Loss actually happened and was actually repaired.
        EXPECT_GT(c.network.totalFaultDrops(), 0u);
        EXPECT_GT(c.engineA.wire().retransmits(), 0u);
        EXPECT_GT(c.engineB.wire().acksSent(), 0u);
        EXPECT_EQ(c.engineA.wire().sendFailures(), 0u);
        EXPECT_EQ(c.sim.blockedTaskCount(), 0u);
        return c.sim.digest().value();
    };

    // The faulty run replays bit-identically under the same seed.
    uint64_t once = runScenario(42);
    uint64_t twice = runScenario(42);
    EXPECT_EQ(once, twice);
    EXPECT_NE(runScenario(43), once);
}

TEST(FaultCluster, CorruptionIsDetectedAndRepairedByRetransmission)
{
    TwoNodeCluster c;
    c.engineA.wire().enableReliability();
    c.engineB.wire().enableReliability();
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Vaddr base = server.space().allocRegion(16384);
    auto seg = c.engineB.exportSegment(server, base, 16384,
                                       rmem::Rights::kAll,
                                       rmem::NotifyPolicy::kConditional,
                                       "s");
    ASSERT_TRUE(seg.ok());
    c.sim.run();

    // 3% per cell: a ~12-cell frame still gets hit about every third
    // transmission, but head-of-line recovery within the retransmit
    // budget is a near-certainty (0.31^12 per envelope).
    net::FaultPlan plan;
    plan.seed = 17;
    plan.corruptRate = 0.03;
    c.network.installFaults(plan);

    constexpr int kWrites = 20;
    std::vector<uint8_t> data(500);
    for (size_t j = 0; j < data.size(); ++j) {
        data[j] = static_cast<uint8_t>(j * 3 + 1);
    }
    for (int i = 0; i < kWrites; ++i) {
        auto w = c.engineA.write(seg.value(),
                                 static_cast<uint32_t>(i) * 512, data,
                                 /*notify=*/true);
        runToCompletion(c.sim, w);
    }
    c.sim.run();

    // Consuming the notifications is what gives the verification reads
    // below their happens-before edge over the remote deposits.
    auto *ch = c.engineB.channel(seg.value().descriptor);
    ASSERT_NE(ch, nullptr);
    rmem::Notification n;
    int notifications = 0;
    while (ch->tryNext(n)) {
        ++notifications;
    }
    EXPECT_EQ(notifications, kWrites);

    for (int i = 0; i < kWrites; ++i) {
        std::vector<uint8_t> got(data.size());
        ASSERT_TRUE(server.space()
                        .read(base + static_cast<uint64_t>(i) * 512, got)
                        .ok());
        EXPECT_EQ(got, data) << "write " << i;
    }
    // Some layer saw the damage: the frame CRC, the envelope CRC
    // (raw cells AAL5 never covers), or the decoder.
    const auto &wireB = c.engineB.wire();
    const auto &wireA = c.engineA.wire();
    uint64_t detected = wireB.reassembler().crcErrors() +
                        wireA.reassembler().crcErrors() +
                        wireB.corruptEnvelopes() + wireA.corruptEnvelopes() +
                        wireB.decodeErrors() + wireA.decodeErrors();
    EXPECT_GT(detected, 0u);
    EXPECT_GT(c.engineA.wire().retransmits(), 0u);
    EXPECT_EQ(c.sim.blockedTaskCount(), 0u);
}

TEST(FaultCluster, AbandonmentRecordsOneTraceInstantAndNoEvent)
{
    struct Run
    {
        uint64_t sendFailures = 0;
        uint64_t events = 0;
        uint64_t digest = 0;
        int abandons = 0;
    };
    // One write across a link that drops every cell: the wire retries
    // until maxAttempts, then abandons the envelope.
    auto run = [](bool traced) {
        TwoNodeCluster c;
        auto &tr = obs::TraceRecorder::instance();
        if (traced) {
            tr.enable(c.sim);
        }
        c.engineA.wire().enableReliability();
        c.engineB.wire().enableReliability();
        mem::Process &server = c.nodeB.spawnProcess("server");
        mem::Vaddr base = server.space().allocRegion(4096);
        auto seg = c.engineB.exportSegment(server, base, 4096,
                                           rmem::Rights::kAll,
                                           rmem::NotifyPolicy::kNever, "s");
        EXPECT_TRUE(seg.ok());
        c.sim.run();
        net::FaultPlan plan;
        plan.seed = 5;
        plan.dropRate = 1.0;
        c.network.installFaults(plan);
        auto w = c.engineA.write(seg.value(), 0,
                                 std::vector<uint8_t>(40, 1));
        runToCompletion(c.sim, w);
        c.sim.run();

        Run r;
        r.sendFailures = c.engineA.wire().sendFailures();
        r.events = c.sim.eventsProcessed();
        r.digest = c.sim.digest().value();
        for (const obs::TraceEvent &ev : tr.events()) {
            if (ev.phase == obs::TracePhase::kInstant &&
                ev.name == "abandon") {
                ++r.abandons;
                EXPECT_EQ(ev.node, "nodeA");
                EXPECT_NE(ev.detail.find("dst=2 "), std::string::npos)
                    << ev.detail;
                EXPECT_NE(ev.detail.find(" attempts=12"), std::string::npos)
                    << ev.detail;
            }
        }
        tr.disable();
        tr.clear();
        return r;
    };
    Run plain = run(false);
    Run traced = run(true);
    EXPECT_EQ(plain.sendFailures, 1u);
    EXPECT_EQ(plain.abandons, 0);
    EXPECT_EQ(traced.sendFailures, 1u);
    EXPECT_EQ(traced.abandons, 1);
    // The instant is trace data only: no event, no digest record.
    EXPECT_EQ(traced.events, plain.events);
    EXPECT_EQ(traced.digest, plain.digest);
}

// ----------------------------------------------------------------------
// AAL5 error attribution and tail resync
// ----------------------------------------------------------------------

TEST(Aal5Fault, LengthOnlyCorruptionCountsLengthErrorNotCrc)
{
    std::vector<uint8_t> frame(100);
    for (size_t i = 0; i < frame.size(); ++i) {
        frame[i] = static_cast<uint8_t>(i);
    }
    auto cells = net::aal5Segment(2, 1, frame);

    // Rebuild the CS-PDU, forge LEN to an impossible value, then
    // recompute the CRC so only the length check can object (the CRC
    // covers LEN, so a bare LEN flip would trip the CRC first).
    std::vector<uint8_t> pdu;
    for (const auto &cell : cells) {
        pdu.insert(pdu.end(), cell.payload.begin(), cell.payload.end());
    }
    pdu[pdu.size() - 6] = 0xff; // LEN low byte (little-endian)
    pdu[pdu.size() - 5] = 0xff; // LEN high byte
    uint32_t crc = util::crc32Ieee(
        std::span<const uint8_t>(pdu.data(), pdu.size() - 4));
    for (int i = 0; i < 4; ++i) {
        pdu[pdu.size() - 4 + static_cast<size_t>(i)] =
            static_cast<uint8_t>(crc >> (8 * i));
    }
    for (size_t i = 0; i < cells.size(); ++i) {
        std::copy_n(pdu.data() + i * net::Cell::kPayloadBytes,
                    net::Cell::kPayloadBytes, cells[i].payload.begin());
    }

    net::Aal5Reassembler reasm;
    std::optional<net::Aal5Reassembler::Frame> out;
    for (const auto &cell : cells) {
        out = reasm.feed(cell);
    }
    EXPECT_FALSE(out.has_value());
    EXPECT_EQ(reasm.lengthErrors(), 1u);
    EXPECT_EQ(reasm.crcErrors(), 0u);
}

TEST(Aal5Fault, LostEndCellResyncsOntoTheFollowingFrame)
{
    std::vector<uint8_t> frameA(300, 0xaa);
    std::vector<uint8_t> frameB(200);
    for (size_t i = 0; i < frameB.size(); ++i) {
        frameB[i] = static_cast<uint8_t>(i * 7);
    }
    auto cellsA = net::aal5Segment(2, 1, frameA);
    auto cellsB = net::aal5Segment(2, 1, frameB);

    net::Aal5Reassembler reasm;
    std::optional<net::Aal5Reassembler::Frame> out;
    // Frame A loses its end cell: B's cells pile onto A's partial.
    for (size_t i = 0; i + 1 < cellsA.size(); ++i) {
        out = reasm.feed(cellsA[i]);
        EXPECT_FALSE(out.has_value());
    }
    for (const auto &cell : cellsB) {
        out = reasm.feed(cell);
    }
    // The glue fails CRC (counted) but the tail — frame B — is
    // recovered intact instead of being poisoned.
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->payload, frameB);
    EXPECT_EQ(reasm.crcErrors(), 1u);
    EXPECT_EQ(reasm.framesResynced(), 1u);

    // The stream stays usable afterwards.
    std::vector<uint8_t> frameC(64, 0x5c);
    for (const auto &cell : net::aal5Segment(2, 1, frameC)) {
        out = reasm.feed(cell);
    }
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->payload, frameC);
}

TEST(Aal5Fault, MidFrameLossStaysLostWithoutFalseResync)
{
    std::vector<uint8_t> frameA(300, 0x11);
    std::vector<uint8_t> frameB(200, 0x22);
    auto cellsA = net::aal5Segment(2, 1, frameA);
    auto cellsB = net::aal5Segment(2, 1, frameB);

    net::Aal5Reassembler reasm;
    std::optional<net::Aal5Reassembler::Frame> out;
    // Drop a MIDDLE cell of frame A: its trailer (and end flag) still
    // arrive, so this is a genuine CRC failure, not a glue.
    for (size_t i = 0; i < cellsA.size(); ++i) {
        if (i == 2) {
            continue;
        }
        out = reasm.feed(cellsA[i]);
    }
    EXPECT_FALSE(out.has_value());
    EXPECT_EQ(reasm.crcErrors(), 1u);
    EXPECT_EQ(reasm.framesResynced(), 0u);

    // Frame B reassembles cleanly behind the loss.
    for (const auto &cell : cellsB) {
        out = reasm.feed(cell);
    }
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->payload, frameB);
}

// ----------------------------------------------------------------------
// RPC over a lossy wire, and late replies
// ----------------------------------------------------------------------

struct RpcFaultFixture
{
    TwoNodeCluster cluster;
    rpc::RpcTransport client;
    rpc::RpcTransport server;
    int handlerRuns = 0;

    RpcFaultFixture()
        : client(cluster.engineA.wire()), server(cluster.engineB.wire())
    {
        server.registerProc(
            7, [this](net::NodeId, std::vector<uint8_t> args)
                -> sim::Task<std::vector<uint8_t>> {
                ++handlerRuns;
                co_await cluster.nodeB.cpu().use(
                    sim::usec(50), sim::CpuCategory::kProcExec);
                std::reverse(args.begin(), args.end());
                co_return args;
            });
    }
};

TEST(RpcFault, RetriedCallsSurviveLossAndExecuteExactlyOnce)
{
    // The wire is the one at-most-once layer: it retransmits lost cells
    // and delivers each request once, so RPC needs no retry of its own.
    RpcFaultFixture f;
    f.cluster.engineA.wire().enableReliability();
    f.cluster.engineB.wire().enableReliability();
    net::FaultPlan plan;
    plan.seed = 99;
    plan.dropRate = 0.4;
    f.cluster.network.installFaults(plan);

    constexpr int kCalls = 8;
    for (int i = 0; i < kCalls; ++i) {
        auto t = f.client.call(2, 7, {1, 2, static_cast<uint8_t>(i)});
        auto reply = runToCompletion(f.cluster.sim, t);
        ASSERT_TRUE(reply.ok())
            << "call " << i << ": " << reply.status().toString();
        EXPECT_EQ(reply.value().front(), static_cast<uint8_t>(i));
    }
    f.cluster.sim.run();

    EXPECT_EQ(f.handlerRuns, kCalls);
    EXPECT_GT(f.cluster.network.totalFaultDrops(), 0u);
    EXPECT_EQ(f.cluster.engineA.wire().sendFailures(), 0u);
    EXPECT_EQ(f.cluster.engineB.wire().sendFailures(), 0u);
    EXPECT_EQ(f.cluster.sim.blockedTaskCount(), 0u);
}

TEST(RpcFault, LateReplyIsCountedNotSilentlyDropped)
{
    RpcFaultFixture f;
    auto t = f.client.call(2, 7, {1}, sim::usec(200));
    auto reply = runToCompletion(f.cluster.sim, t);
    EXPECT_EQ(reply.status().code(), util::ErrorCode::kTimeout);
    EXPECT_EQ(f.client.stats().lateReplies.value(), 0u);
    f.cluster.sim.run(); // the reply still arrives — late
    EXPECT_EQ(f.client.stats().lateReplies.value(), 1u);
    EXPECT_EQ(f.client.stats().timeouts.value(), 1u);
}

TEST(RpcFault, TimeoutVersusReplyOrderingIsSaneUnderPerturbation)
{
    // Sweep the timeout through the reply's arrival neighbourhood under
    // several same-instant perturbation seeds. Whatever order the tie
    // resolves in, exactly one outcome happens, the counters agree with
    // it, and a late reply is always accounted for.
    for (uint64_t perturb : {0ull, 1ull, 2ull}) {
        for (sim::Duration timeout = sim::usec(1000);
             timeout <= sim::usec(1500); timeout += sim::usec(25)) {
            RpcFaultFixture f;
            f.cluster.sim.setPerturbation(perturb);
            auto t = f.client.call(2, 7, {5}, timeout);
            auto reply = runToCompletion(f.cluster.sim, t);
            f.cluster.sim.run();
            const auto &st = f.client.stats();
            if (reply.ok()) {
                EXPECT_EQ(st.timeouts.value(), 0u)
                    << "perturb=" << perturb << " timeout=" << timeout;
                EXPECT_EQ(st.lateReplies.value(), 0u);
            } else {
                EXPECT_EQ(st.timeouts.value(), 1u)
                    << "perturb=" << perturb << " timeout=" << timeout;
                EXPECT_EQ(st.lateReplies.value(), 1u);
            }
            EXPECT_EQ(f.cluster.sim.blockedTaskCount(), 0u);
        }
    }
}

} // namespace
} // namespace remora
