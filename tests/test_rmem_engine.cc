/**
 * @file
 * Remote-memory engine tests: the meta-instructions end to end across
 * two simulated nodes, including every protection rejection path.
 */
#include <gtest/gtest.h>

#include "cluster_fixture.h"
#include "rmem/engine.h"
#include "util/hash.h"

namespace remora {
namespace {

using test::TwoNodeCluster;
using test::runToCompletion;

/** Export a fresh segment on the given engine and return the handle. */
rmem::ImportedSegment
makeSegment(rmem::RmemEngine &engine, mem::Process &proc, uint32_t size,
            rmem::Rights rights = rmem::Rights::kAll,
            rmem::NotifyPolicy policy = rmem::NotifyPolicy::kConditional)
{
    mem::Vaddr base = proc.space().allocRegion(size);
    auto h = engine.exportSegment(proc, base, size, rights, policy, "seg");
    EXPECT_TRUE(h.ok()) << h.status().toString();
    return h.value();
}

TEST(RmemEngine, RemoteWriteDepositsData)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Vaddr base = server.space().allocRegion(4096);
    auto seg = c.engineB.exportSegment(server, base, 4096, rmem::Rights::kAll,
                                       rmem::NotifyPolicy::kNever, "data");
    ASSERT_TRUE(seg.ok());

    std::vector<uint8_t> payload = {1, 2, 3, 4, 5, 6, 7, 8};
    auto task = c.engineA.write(seg.value(), 100, payload);
    util::Status s = runToCompletion(c.sim, task);
    EXPECT_TRUE(s.ok()) << s.toString();
    c.sim.run();

    std::vector<uint8_t> check(payload.size());
    ASSERT_TRUE(server.space().read(base + 100, check).ok());
    EXPECT_EQ(check, payload);
}

TEST(RmemEngine, RemoteReadFetchesData)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Vaddr base = server.space().allocRegion(4096);
    std::vector<uint8_t> content(64);
    for (size_t i = 0; i < content.size(); ++i) {
        content[i] = static_cast<uint8_t>(i * 3);
    }
    ASSERT_TRUE(server.space().write(base + 40, content).ok());
    auto seg = c.engineB.exportSegment(server, base, 4096, rmem::Rights::kAll,
                                       rmem::NotifyPolicy::kNever, "data");
    ASSERT_TRUE(seg.ok());

    mem::Process &client = c.nodeA.spawnProcess("client");
    auto local = makeSegment(c.engineA, client, 4096);

    auto task = c.engineA.read(seg.value(), 40, local.descriptor, 8,
                               static_cast<uint32_t>(content.size()));
    rmem::ReadOutcome out = runToCompletion(c.sim, task);
    ASSERT_TRUE(out.status.ok()) << out.status.toString();
    EXPECT_EQ(out.data, content);

    // The data must also have been deposited in the local segment.
    std::vector<uint8_t> deposited(content.size());
    auto *desc = c.engineA.descriptor(local.descriptor);
    ASSERT_NE(desc, nullptr);
    ASSERT_TRUE(client.space().read(desc->base + 8, deposited).ok());
    EXPECT_EQ(deposited, content);
}

TEST(RmemEngine, CasSwapsExactlyOnMatch)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Vaddr base = server.space().allocRegion(4096);
    ASSERT_TRUE(server.space().writeWord(base + 16, 0xAABBCCDD).ok());
    auto seg = c.engineB.exportSegment(server, base, 4096, rmem::Rights::kAll,
                                       rmem::NotifyPolicy::kNever, "sync");
    ASSERT_TRUE(seg.ok());

    mem::Process &client = c.nodeA.spawnProcess("client");
    auto local = makeSegment(c.engineA, client, 4096);

    // Mismatched comparand: no swap.
    auto miss = c.engineA.cas(seg.value(), 16, 0x11111111, 0x22222222,
                              local.descriptor, 0);
    rmem::CasOutcome out = runToCompletion(c.sim, miss);
    ASSERT_TRUE(out.status.ok());
    EXPECT_FALSE(out.success);
    EXPECT_EQ(out.observed, 0xAABBCCDDu);

    // Matching comparand: swap.
    auto hit = c.engineA.cas(seg.value(), 16, 0xAABBCCDD, 0x22222222,
                             local.descriptor, 4);
    out = runToCompletion(c.sim, hit);
    ASSERT_TRUE(out.status.ok());
    EXPECT_TRUE(out.success);
    c.sim.run();
    EXPECT_EQ(server.space().readWord(base + 16).value(), 0x22222222u);

    // The success word must be deposited locally (1 after the hit).
    auto *desc = c.engineA.descriptor(local.descriptor);
    EXPECT_EQ(client.space().readWord(desc->base + 4).value(), 1u);
    EXPECT_EQ(client.space().readWord(desc->base + 0).value(), 0u);
}

TEST(RmemEngine, BlockWriteRoundTrip)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Vaddr base = server.space().allocRegion(64 * 1024);
    auto seg = c.engineB.exportSegment(server, base, 64 * 1024,
                                       rmem::Rights::kAll,
                                       rmem::NotifyPolicy::kNever, "blk");
    ASSERT_TRUE(seg.ok());

    std::vector<uint8_t> block(8192);
    for (size_t i = 0; i < block.size(); ++i) {
        block[i] = static_cast<uint8_t>(i ^ (i >> 8));
    }
    auto task = c.engineA.write(seg.value(), 4096, block);
    util::Status s = runToCompletion(c.sim, task);
    ASSERT_TRUE(s.ok());
    c.sim.run();

    std::vector<uint8_t> check(block.size());
    ASSERT_TRUE(server.space().read(base + 4096, check).ok());
    EXPECT_EQ(check, block);
}

TEST(RmemEngine, ChunkedWriteBeyondFrameLimit)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    uint32_t size = 256 * 1024;
    mem::Vaddr base = server.space().allocRegion(size);
    auto seg = c.engineB.exportSegment(server, base, size, rmem::Rights::kAll,
                                       rmem::NotifyPolicy::kNever, "big");
    ASSERT_TRUE(seg.ok());

    std::vector<uint8_t> data(150000);
    for (size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<uint8_t>(util::mix64(i));
    }
    auto task = c.engineA.write(seg.value(), 0, data);
    util::Status s = runToCompletion(c.sim, task);
    ASSERT_TRUE(s.ok());
    c.sim.run();

    std::vector<uint8_t> check(data.size());
    ASSERT_TRUE(server.space().read(base, check).ok());
    EXPECT_EQ(check, data);
}

// ----------------------------------------------------------------------
// Protection: every rejection path NAKs
// ----------------------------------------------------------------------

TEST(RmemProtection, WriteWithoutRightIsRejectedLocally)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    auto seg = makeSegment(c.engineB, server, 4096, rmem::Rights::kRead);

    auto task = c.engineA.write(seg, 0, {1, 2, 3});
    util::Status s = runToCompletion(c.sim, task);
    EXPECT_EQ(s.code(), util::ErrorCode::kAccessDenied);
}

TEST(RmemProtection, ForgedRightsAreRejectedRemotely)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    auto seg = makeSegment(c.engineB, server, 4096, rmem::Rights::kRead);

    // Forge a handle claiming write rights; the *remote* kernel must
    // still reject it — protection is enforced at the destination.
    rmem::ImportedSegment forged = seg;
    forged.rights = rmem::Rights::kAll;
    auto task = c.engineA.write(forged, 0, {9, 9, 9});
    util::Status s = runToCompletion(c.sim, task);
    EXPECT_TRUE(s.ok()); // local completion: accepted by the network
    c.sim.run();
    EXPECT_EQ(c.engineA.nakCount(), 1u);
    EXPECT_EQ(c.engineB.stats().naksSent.value(), 1u);
}

TEST(RmemProtection, StaleGenerationIsRejected)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Process &client = c.nodeA.spawnProcess("client");
    auto local = makeSegment(c.engineA, client, 4096);

    mem::Vaddr base = server.space().allocRegion(4096);
    auto h1 = c.engineB.exportSegment(server, base, 4096, rmem::Rights::kAll,
                                      rmem::NotifyPolicy::kNever, "v1");
    ASSERT_TRUE(h1.ok());
    rmem::ImportedSegment stale = h1.value();

    // Revoke and re-export: same slot, new generation.
    ASSERT_TRUE(c.engineB.revokeSegment(stale.descriptor).ok());
    auto h2 = c.engineB.exportSegment(server, base, 4096, rmem::Rights::kAll,
                                      rmem::NotifyPolicy::kNever, "v2");
    ASSERT_TRUE(h2.ok());
    ASSERT_EQ(h2.value().descriptor, stale.descriptor);
    ASSERT_NE(h2.value().generation, stale.generation);

    auto task = c.engineA.read(stale, 0, local.descriptor, 0, 16);
    rmem::ReadOutcome out = runToCompletion(c.sim, task);
    EXPECT_EQ(out.status.code(), util::ErrorCode::kStaleGeneration);
}

TEST(RmemProtection, OutOfBoundsIsRejected)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Process &client = c.nodeA.spawnProcess("client");
    auto local = makeSegment(c.engineA, client, 4096);
    auto seg = makeSegment(c.engineB, server, 128);

    // Local bounds check on the importer side.
    auto w = c.engineA.write(seg, 120, std::vector<uint8_t>(16));
    EXPECT_EQ(runToCompletion(c.sim, w).code(),
              util::ErrorCode::kOutOfBounds);

    // Forged size: the destination kernel still enforces bounds.
    rmem::ImportedSegment forged = seg;
    forged.size = 1 << 20;
    auto r = c.engineA.read(forged, 4000, local.descriptor, 0, 64);
    rmem::ReadOutcome out = runToCompletion(c.sim, r);
    EXPECT_EQ(out.status.code(), util::ErrorCode::kOutOfBounds);
}

TEST(RmemProtection, WriteInhibitBlocksWritesOnly)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Process &client = c.nodeA.spawnProcess("client");
    auto local = makeSegment(c.engineA, client, 4096);
    auto seg = makeSegment(c.engineB, server, 4096);

    ASSERT_TRUE(c.engineB.setWriteInhibit(seg.descriptor, true).ok());

    auto w = c.engineA.write(seg, 0, {1});
    EXPECT_TRUE(runToCompletion(c.sim, w).ok()); // local accept
    c.sim.run();
    EXPECT_EQ(c.engineA.nakCount(), 1u); // remote write-inhibit NAK

    // Reads still work while write-inhibited.
    auto r = c.engineA.read(seg, 0, local.descriptor, 0, 8);
    EXPECT_TRUE(runToCompletion(c.sim, r).status.ok());

    // Lifting the inhibit restores writes.
    ASSERT_TRUE(c.engineB.setWriteInhibit(seg.descriptor, false).ok());
    auto w2 = c.engineA.write(seg, 0, {1});
    EXPECT_TRUE(runToCompletion(c.sim, w2).ok());
    c.sim.run();
    EXPECT_EQ(c.engineA.nakCount(), 1u); // unchanged
}

TEST(RmemProtection, BadDescriptorIsRejected)
{
    TwoNodeCluster c;
    mem::Process &client = c.nodeA.spawnProcess("client");
    auto local = makeSegment(c.engineA, client, 4096);

    rmem::ImportedSegment bogus;
    bogus.node = 2;
    bogus.descriptor = 77;
    bogus.generation = 1;
    bogus.size = 4096;
    bogus.rights = rmem::Rights::kAll;

    auto r = c.engineA.read(bogus, 0, local.descriptor, 0, 8);
    rmem::ReadOutcome out = runToCompletion(c.sim, r);
    EXPECT_EQ(out.status.code(), util::ErrorCode::kBadDescriptor);
}

TEST(RmemEngine, ReadTimeoutFiresWhenPeerSilent)
{
    TwoNodeCluster c;
    mem::Process &client = c.nodeA.spawnProcess("client");
    auto local = makeSegment(c.engineA, client, 4096);

    // Node 3 does not exist; with direct wiring the cells go to node 2,
    // whose engine NAKs unknown descriptors — so instead aim at a
    // valid node but drop the engine's handler to simulate silence.
    c.engineB.wire().setRmemHandler([](net::NodeId, rmem::Message &&) {});

    rmem::ImportedSegment seg;
    seg.node = 2;
    seg.descriptor = 0;
    seg.generation = 1;
    seg.size = 4096;
    seg.rights = rmem::Rights::kAll;

    auto r = c.engineA.read(seg, 0, local.descriptor, 0, 8, false,
                            sim::msec(5));
    rmem::ReadOutcome out = runToCompletion(c.sim, r);
    EXPECT_EQ(out.status.code(), util::ErrorCode::kTimeout);
    EXPECT_EQ(c.engineA.stats().timeouts.value(), 1u);
}

// ----------------------------------------------------------------------
// Revocation between the serving stages, and late or rejected replies
// ----------------------------------------------------------------------

TEST(RmemRevoke, ScalarWriteRevokedMidCopyNaksOnceAndLandsNothing)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Vaddr base = server.space().allocRegion(8192);
    auto seg = c.engineB.exportSegment(server, base, 8192, rmem::Rights::kAll,
                                       rmem::NotifyPolicy::kNever, "victim");
    ASSERT_TRUE(seg.ok());

    auto w = c.engineA.write(seg.value(), 0, std::vector<uint8_t>(4096, 0x5a));
    test::runToStageTwo(c.sim, c.engineB);
    ASSERT_TRUE(c.engineB.revokeSegment(seg.value().descriptor).ok());
    EXPECT_TRUE(runToCompletion(c.sim, w).ok()); // local completion
    c.sim.run();

    EXPECT_EQ(c.engineB.stats().naksSent.value(), 1u);
    EXPECT_EQ(c.engineA.nakCount(), 1u);
    std::vector<uint8_t> check(4096, 0xff);
    ASSERT_TRUE(server.space().read(base, check).ok());
    EXPECT_EQ(check, std::vector<uint8_t>(4096, 0));
}

TEST(RmemRevoke, ScalarReadRevokedMidCopyResolvesWithTheNakError)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Vaddr base = server.space().allocRegion(8192);
    ASSERT_TRUE(
        server.space().write(base, std::vector<uint8_t>(4096, 0x42)).ok());
    auto seg = c.engineB.exportSegment(server, base, 8192, rmem::Rights::kAll,
                                       rmem::NotifyPolicy::kNever, "victim");
    ASSERT_TRUE(seg.ok());
    mem::Process &client = c.nodeA.spawnProcess("client");
    auto local = makeSegment(c.engineA, client, 8192);

    auto r = c.engineA.read(seg.value(), 0, local.descriptor, 0, 4096, false,
                            sim::msec(50));
    test::runToStageTwo(c.sim, c.engineB);
    ASSERT_TRUE(c.engineB.revokeSegment(seg.value().descriptor).ok());
    rmem::ReadOutcome out = runToCompletion(c.sim, r);
    EXPECT_EQ(out.status.code(), util::ErrorCode::kBadDescriptor);
    EXPECT_TRUE(out.data.empty());

    // The NAK retired the pending entry and cancelled its timeout guard:
    // draining past the timeout instant fires nothing.
    c.sim.run();
    EXPECT_EQ(c.engineA.stats().naksReceived.value(), 1u);
    EXPECT_EQ(c.engineA.stats().timeouts.value(), 0u);
    EXPECT_EQ(c.sim.livePendingEvents(), 0u);
    auto *desc = c.engineA.descriptor(local.descriptor);
    ASSERT_NE(desc, nullptr);
    std::vector<uint8_t> deposited(4096, 0xff);
    ASSERT_TRUE(client.space().read(desc->base, deposited).ok());
    EXPECT_EQ(deposited, std::vector<uint8_t>(4096, 0));
}

TEST(RmemRevoke, ScalarCasAgainstStaleGenerationResolvesWithTheNakError)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Process &client = c.nodeA.spawnProcess("client");
    auto local = makeSegment(c.engineA, client, 4096);
    mem::Vaddr base = server.space().allocRegion(4096);
    auto h1 = c.engineB.exportSegment(server, base, 4096, rmem::Rights::kAll,
                                      rmem::NotifyPolicy::kNever, "v1");
    ASSERT_TRUE(h1.ok());
    ASSERT_TRUE(c.engineB.revokeSegment(h1.value().descriptor).ok());
    auto h2 = c.engineB.exportSegment(server, base, 4096, rmem::Rights::kAll,
                                      rmem::NotifyPolicy::kNever, "v2");
    ASSERT_TRUE(h2.ok());
    ASSERT_EQ(h2.value().descriptor, h1.value().descriptor);

    auto task = c.engineA.cas(h1.value(), 0, 0, 7, local.descriptor, 0,
                              sim::msec(50));
    rmem::CasOutcome out = runToCompletion(c.sim, task);
    EXPECT_EQ(out.status.code(), util::ErrorCode::kStaleGeneration);
    EXPECT_FALSE(out.success);
    c.sim.run();
    EXPECT_EQ(c.engineA.stats().timeouts.value(), 0u);
    EXPECT_EQ(server.space().readWord(base).value(), 0u);
}

TEST(RmemRevoke, CasTimeoutResolvesTimeoutAndDropsTheLateResponse)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    mem::Process &client = c.nodeA.spawnProcess("client");
    auto local = makeSegment(c.engineA, client, 4096);
    auto seg = makeSegment(c.engineB, server, 4096);

    // A guard far shorter than the round trip: the CAS is still served,
    // but its response arrives after the initiator gave up.
    uint64_t sentB = c.engineB.wire().messagesSent();
    auto task = c.engineA.cas(seg, 8, 0, 0xfeed, local.descriptor, 4,
                              sim::usec(1));
    rmem::CasOutcome out = runToCompletion(c.sim, task);
    EXPECT_EQ(out.status.code(), util::ErrorCode::kTimeout);
    EXPECT_FALSE(out.success);
    c.sim.run();

    EXPECT_EQ(c.engineA.stats().timeouts.value(), 1u);
    EXPECT_EQ(c.engineB.stats().requestsServed.value(), 1u);
    EXPECT_EQ(c.engineB.wire().messagesSent() - sentB, 1u); // the CasResp
    auto *srv = c.engineB.descriptor(seg.descriptor);
    ASSERT_NE(srv, nullptr);
    EXPECT_EQ(server.space().readWord(srv->base + 8).value(), 0xfeedu);
    // Dropped: the success word never lands locally.
    auto *desc = c.engineA.descriptor(local.descriptor);
    ASSERT_NE(desc, nullptr);
    EXPECT_EQ(client.space().readWord(desc->base + 4).value(), 0u);
}

TEST(RmemNotification, ConditionalPolicyFollowsNotifyBit)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    auto seg = makeSegment(c.engineB, server, 4096, rmem::Rights::kAll,
                           rmem::NotifyPolicy::kConditional);
    auto *ch = c.engineB.channel(seg.descriptor);
    ASSERT_NE(ch, nullptr);

    auto w1 = c.engineA.write(seg, 0, {1, 2, 3}, /*notify=*/false);
    runToCompletion(c.sim, w1);
    c.sim.run();
    EXPECT_FALSE(ch->readable());

    auto w2 = c.engineA.write(seg, 8, {4, 5, 6}, /*notify=*/true);
    runToCompletion(c.sim, w2);
    c.sim.run();
    ASSERT_TRUE(ch->readable());
    rmem::Notification n;
    ASSERT_TRUE(ch->tryNext(n));
    EXPECT_EQ(n.srcNode, 1);
    EXPECT_EQ(n.kind, rmem::NotifyKind::kWrite);
    EXPECT_EQ(n.offset, 8u);
    EXPECT_EQ(n.count, 3u);
}

TEST(RmemNotification, ScalarReadNotifyCountsTheReaderSideNotification)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    auto seg = makeSegment(c.engineB, server, 4096, rmem::Rights::kAll,
                           rmem::NotifyPolicy::kNever);
    mem::Process &client = c.nodeA.spawnProcess("client");
    auto local = makeSegment(c.engineA, client, 4096, rmem::Rights::kAll,
                             rmem::NotifyPolicy::kConditional);

    auto r = c.engineA.read(seg, 0, local.descriptor, 0, 32, /*notify=*/true);
    ASSERT_TRUE(runToCompletion(c.sim, r).status.ok());
    c.sim.run();

    // The deposit posts one reader-side notification through a scalar
    // post: counted like any other, and no vectored doorbell.
    EXPECT_TRUE(c.engineA.channel(local.descriptor)->readable());
    EXPECT_EQ(c.engineA.stats().notificationsPosted.value(), 1u);
    EXPECT_EQ(c.engineA.stats().vectorDoorbells.value(), 0u);
    EXPECT_EQ(c.engineB.stats().notificationsPosted.value(), 0u);
}

TEST(RmemNotification, AlwaysAndNeverPolicies)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    auto always = makeSegment(c.engineB, server, 4096, rmem::Rights::kAll,
                              rmem::NotifyPolicy::kAlways);
    auto never = makeSegment(c.engineB, server, 4096, rmem::Rights::kAll,
                             rmem::NotifyPolicy::kNever);

    auto w1 = c.engineA.write(always, 0, {1}, false);
    runToCompletion(c.sim, w1);
    auto w2 = c.engineA.write(never, 0, {1}, true);
    runToCompletion(c.sim, w2);
    c.sim.run();

    EXPECT_TRUE(c.engineB.channel(always.descriptor)->readable());
    EXPECT_FALSE(c.engineB.channel(never.descriptor)->readable());
}

TEST(RmemNotification, BlockedReaderWakesOnDelivery)
{
    TwoNodeCluster c;
    mem::Process &server = c.nodeB.spawnProcess("server");
    auto seg = makeSegment(c.engineB, server, 4096, rmem::Rights::kAll,
                           rmem::NotifyPolicy::kConditional);
    auto *ch = c.engineB.channel(seg.descriptor);

    auto waiter = ch->next();
    EXPECT_FALSE(waiter.done());

    auto w = c.engineA.write(seg, 0, {7}, true);
    runToCompletion(c.sim, w);
    c.sim.run();

    ASSERT_TRUE(waiter.done());
    rmem::Notification n = waiter.result();
    EXPECT_EQ(n.kind, rmem::NotifyKind::kWrite);
}

} // namespace
} // namespace remora
