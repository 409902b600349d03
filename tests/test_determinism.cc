/**
 * @file
 * The dynamic half of the correctness-tooling layer: prove that a full
 * cluster workload — name service, DFS over DX, conventional RPC, raw
 * remote-memory ops — replays bit-identically by running it twice and
 * comparing sim::DeterminismDigest values. remora-lint statically bans
 * the nondeterminism sources that would break this; this test is the
 * runtime witness that the ban (and the event ordering underneath)
 * actually holds.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "cluster_fixture.h"
#include "dfs/backend.h"
#include "dfs/file_store.h"
#include "dfs/server.h"
#include "names/clerk.h"
#include "rpc/hybrid1.h"
#include "rpc/transport.h"
#include "sim/determinism.h"
#include "sim/random.h"

namespace remora {
namespace {

using test::runToCompletion;

/** Digest and activity count of one finished workload run. */
struct RunResult
{
    uint64_t digest = 0;
    uint64_t records = 0;
    uint64_t events = 0;
};

/**
 * One full cluster workload: two nodes, name-service bootstrap, DFS
 * traffic through the DX backend, an RPC echo stream, and raw rmem
 * write/read traffic with sizes drawn from a seeded sim::Random.
 *
 * @param extraWrites Extra tail writes, to show distinct workloads
 *        produce distinct digests.
 * @param perturbSeed Schedule-perturbation seed; nullopt leaves the
 *        simulator untouched (vs. an explicit setPerturbation(0)).
 */
RunResult
runClusterWorkload(int extraWrites,
                   std::optional<uint64_t> perturbSeed = std::nullopt)
{
    test::TwoNodeCluster c;
    if (perturbSeed) {
        c.sim.setPerturbation(*perturbSeed);
    }
    names::NameClerk namesA(c.engineA), namesB(c.engineB);
    namesA.addPeer(2);
    namesB.addPeer(1);

    dfs::FileStore store;
    auto file = store.createFile(store.root(), "replay.dat", 16384);
    EXPECT_TRUE(file.ok());
    dfs::FileServer server(c.engineA, store);
    server.warmCaches();
    server.start();

    rpc::RpcTransport clientRpc(c.engineB.wire());
    rpc::RpcTransport serverRpc(c.engineA.wire());
    serverRpc.registerProc(
        7, [](net::NodeId,
              std::vector<uint8_t> args) -> sim::Task<std::vector<uint8_t>> {
            co_return args;
        });

    // Publish a segment by name from the server, import it from the
    // client, and push rmem + RPC + DFS traffic over the shared wire.
    mem::Process &pub = c.nodeA.spawnProcess("publisher");
    mem::Vaddr base = pub.space().allocRegion(8192);
    auto exp = namesA.exportByName(&pub, base, 8192, rmem::Rights::kAll,
                                   rmem::NotifyPolicy::kConditional,
                                   "replay.seg");
    auto handle = runToCompletion(c.sim, exp);
    EXPECT_TRUE(handle.ok());

    mem::Process &clerkProc = c.nodeB.spawnProcess("clerk");
    dfs::DxBackend dx(c.engineB, clerkProc, server.areaHandles());

    auto driver = [](test::TwoNodeCluster *cl, names::NameClerk *names,
                     dfs::DxBackend *backend, rpc::RpcTransport *rpc,
                     dfs::FileHandle fh, int extra) -> sim::Task<void> {
        sim::Random rng(0x5eed);
        auto imported = co_await names->import("replay.seg", 1);
        REMORA_ASSERT(imported.ok());

        for (int i = 0; i < 8; ++i) {
            uint32_t len = 64 + rng.uniformInt(512);
            std::vector<uint8_t> data(len,
                                      static_cast<uint8_t>(rng.nextU32()));
            auto ws = co_await cl->engineB.write(imported.value(),
                                                 4 * i, data, i % 2 == 0);
            REMORA_ASSERT(ws.ok());

            auto echo = co_await rpc->call(1, 7, std::move(data));
            REMORA_ASSERT(echo.ok());

            auto rd = co_await backend->read(fh, 512 * i, 1024);
            REMORA_ASSERT(rd.ok());
        }
        std::vector<uint8_t> tail(256, 0x7e);
        auto w = co_await backend->write(fh, 0, tail);
        REMORA_ASSERT(w.ok());
        for (int i = 0; i < extra; ++i) {
            auto ew = co_await backend->write(fh, 1024 * (i + 1), tail);
            REMORA_ASSERT(ew.ok());
        }
        co_return;
    };
    auto t = driver(&c, &namesB, &dx, &clientRpc, file.value(), extraWrites);
    runToCompletion(c.sim, t);
    c.sim.run();

    RunResult r;
    r.digest = c.sim.digest().value();
    r.records = c.sim.digest().records();
    r.events = c.sim.eventsProcessed();
    return r;
}

TEST(Determinism, ClusterWorkloadReplaysBitIdentically)
{
    RunResult first = runClusterWorkload(0);
    RunResult second = runClusterWorkload(0);
    // The strong property: not merely the same op results, but the same
    // digest over every scheduled/executed event and every component
    // milestone, i.e. bit-identical replay.
    EXPECT_EQ(first.digest, second.digest);
    EXPECT_EQ(first.records, second.records);
    EXPECT_EQ(first.events, second.events);
    // The workload must be substantial enough to mean something.
    EXPECT_GT(first.events, 1000u);
    EXPECT_GT(first.records, 2000u);
}

TEST(Determinism, DistinctWorkloadsProduceDistinctDigests)
{
    // Sanity that the digest has discriminating power: one extra write
    // at the tail must perturb it.
    EXPECT_NE(runClusterWorkload(0).digest, runClusterWorkload(2).digest);
}

TEST(Determinism, DigestFoldsScheduleExecuteAndCancel)
{
    sim::Simulator a;
    sim::Simulator b;
    EXPECT_EQ(a.digest().value(), b.digest().value());

    auto id1 = a.schedule(5, [] {});
    (void)b.schedule(5, [] {});
    // Same (when, id) schedule record on both sides.
    EXPECT_EQ(a.digest().value(), b.digest().value());

    // A cancellation is activity: it must leave a mark even though the
    // event never executes.
    a.cancel(id1);
    EXPECT_NE(a.digest().value(), b.digest().value());

    // Cancelling an id that is already gone folds nothing.
    uint64_t afterCancel = a.digest().value();
    a.cancel(id1);
    EXPECT_EQ(afterCancel, a.digest().value());

    a.run();
    b.run();
    EXPECT_NE(a.digest().value(), b.digest().value());
}

TEST(Determinism, NoteDigestCoversComponentMilestones)
{
    sim::Simulator s;
    uint64_t before = s.digest().value();
    s.noteDigest("test.kind", uint64_t{42});
    EXPECT_NE(before, s.digest().value());

    // Kind and actor both discriminate.
    sim::Simulator s2;
    s2.noteDigest("test.kind", uint64_t{43});
    EXPECT_NE(s.digest().value(), s2.digest().value());

    sim::Simulator s3;
    s3.noteDigest("test.kino", uint64_t{42});
    EXPECT_NE(s.digest().value(), s3.digest().value());

    // The string-actor overload discriminates on content too.
    sim::Simulator s4, s5;
    s4.noteDigest("names.import", std::string_view("alpha"));
    s5.noteDigest("names.import", std::string_view("beta"));
    EXPECT_NE(s4.digest().value(), s5.digest().value());
}

// ----------------------------------------------------------------------
// Schedule perturbation (the race detector's schedule driver)
// ----------------------------------------------------------------------

TEST(Determinism, PerturbationSeedZeroMatchesUnperturbedBitForBit)
{
    // setPerturbation(0) must be indistinguishable from never calling
    // it: same digest, same record count, same event count. This is
    // what lets check.sh fold seed 0 into the regular gate.
    RunResult untouched = runClusterWorkload(0);
    RunResult zeroSeed = runClusterWorkload(0, uint64_t{0});
    EXPECT_EQ(untouched.digest, zeroSeed.digest);
    EXPECT_EQ(untouched.records, zeroSeed.records);
    EXPECT_EQ(untouched.events, zeroSeed.events);
}

TEST(Determinism, PerturbedRunReplaysBitIdentically)
{
    // Perturbation trades *which* legal schedule runs, not determinism:
    // the same seed must replay bit-for-bit.
    RunResult first = runClusterWorkload(0, uint64_t{3});
    RunResult second = runClusterWorkload(0, uint64_t{3});
    EXPECT_EQ(first.digest, second.digest);
    EXPECT_EQ(first.records, second.records);
    EXPECT_EQ(first.events, second.events);
}

TEST(Determinism, DistinctSeedsProduceDistinctDigests)
{
    // The seed is folded into the digest (and reorders same-timestamp
    // events), so perturbed runs are distinguishable from the baseline.
    EXPECT_NE(runClusterWorkload(0).digest,
              runClusterWorkload(0, uint64_t{3}).digest);
}

TEST(Determinism, PerturbationReordersSameTimestampEvents)
{
    // Directly at the simulator: events scheduled for the same instant
    // run in insertion order by default; some seed must permute them
    // (each seed keys an order-preserving hash of the event id, so a
    // handful of seeds is enough to see a swap).
    auto orderUnder = [](uint64_t seed) {
        sim::Simulator s;
        if (seed != 0) {
            s.setPerturbation(seed);
        }
        std::string order;
        for (char tag : {'a', 'b', 'c', 'd', 'e', 'f'}) {
            s.schedule(10, [&order, tag] { order.push_back(tag); });
        }
        s.run();
        return order;
    };
    EXPECT_EQ(orderUnder(0), "abcdef");
    bool permuted = false;
    for (uint64_t seed = 1; seed <= 8 && !permuted; ++seed) {
        std::string o = orderUnder(seed);
        // Every event still runs exactly once...
        std::string sorted = o;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(sorted, "abcdef");
        // ...possibly in a different order.
        permuted = o != "abcdef";
    }
    EXPECT_TRUE(permuted) << "no seed in 1..8 reordered the tie";
}

TEST(Determinism, FnvReferenceValues)
{
    // FNV-1a 64 known-answer: empty input is the offset basis, and
    // "a" folds to the published constant.
    sim::DeterminismDigest d;
    EXPECT_EQ(d.value(), 14695981039346656037ull);
    d.mix("a");
    EXPECT_EQ(d.value(), 0xaf63dc4c8601ec8cull);

    sim::DeterminismDigest e;
    e.mixByte('a');
    EXPECT_EQ(e.value(), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(e.records(), 1u);
    e.reset();
    EXPECT_EQ(e.value(), sim::DeterminismDigest::kOffset);
    EXPECT_EQ(e.records(), 0u);
}

/** Digest, counts and completion order of one dual-backend run. */
struct DriveResult
{
    RunResult run;
    uint64_t resumedInPlace = 0;
    std::vector<std::pair<sim::Time, int>> order;
};

/**
 * Concurrent Hybrid-1 and DX file traffic against one server, driven
 * to quiescence either by run(), where CPU-wait resumptions may run in
 * place, or one step() at a time, where they never do.
 */
DriveResult
runDualBackendWorkload(bool stepwise)
{
    test::TwoNodeCluster c;
    dfs::FileStore store;
    auto file = store.createFile(store.root(), "both.dat", 16384);
    EXPECT_TRUE(file.ok());
    dfs::FileServer server(c.engineA, store);
    server.warmCaches();
    server.start();
    mem::Process &clerkProc = c.nodeB.spawnProcess("clerk");
    rpc::Hybrid1Client hyClient(c.engineB, clerkProc, server.hybridHandle(),
                                server.allocClientSlot());
    dfs::HyBackend hy(hyClient);
    dfs::DxBackend dx(c.engineB, clerkProc, server.areaHandles(),
                      dfs::CacheGeometry{}, &hyClient);

    DriveResult r;
    auto driver = [](sim::Simulator *sim, dfs::FileServiceBackend *backend,
                     dfs::FileHandle fh, int tag,
                     std::vector<std::pair<sim::Time, int>> *log)
        -> sim::Task<void> {
        for (int i = 0; i < 6; ++i) {
            auto attr = co_await backend->getattr(fh);
            REMORA_ASSERT(attr.ok());
            auto rd = co_await backend->read(fh, 1024 * i, 1024);
            REMORA_ASSERT(rd.ok());
            std::vector<uint8_t> data(512, static_cast<uint8_t>(i));
            auto w = co_await backend->write(fh, 2048 * i, data);
            REMORA_ASSERT(w.ok());
            log->emplace_back(sim->now(), tag * 100 + i);
        }
    };
    auto a = driver(&c.sim, &hy, file.value(), 1, &r.order);
    auto b = driver(&c.sim, &dx, file.value(), 2, &r.order);
    if (stepwise) {
        while (c.sim.step()) {
        }
    } else {
        c.sim.run();
    }
    EXPECT_TRUE(a.done() && b.done());
    r.run.digest = c.sim.digest().value();
    r.run.records = c.sim.digest().records();
    r.run.events = c.sim.eventsProcessed();
    r.resumedInPlace = c.sim.resumedInPlace();
    return r;
}

TEST(Determinism, ResumeInPlaceMatchesQueuedResumption)
{
    // The in-place hand-over of a CPU wait stands for exactly the event
    // schedule(0) would have queued: same digest, same event count,
    // same order of completions.
    DriveResult inPlace = runDualBackendWorkload(false);
    DriveResult queued = runDualBackendWorkload(true);
    EXPECT_GT(inPlace.resumedInPlace, 0u);
    EXPECT_EQ(queued.resumedInPlace, 0u);
    EXPECT_EQ(inPlace.run.digest, queued.run.digest);
    EXPECT_EQ(inPlace.run.records, queued.run.records);
    EXPECT_EQ(inPlace.run.events, queued.run.events);
    EXPECT_EQ(inPlace.order, queued.order);
    EXPECT_EQ(inPlace.order.size(), 12u);
}

TEST(Determinism, WordFoldSeesRecordOrder)
{
    // Swapping two records must move the digest: the word fold is not
    // a commutative combination of its inputs.
    sim::DeterminismDigest ab, ba;
    ab.mixTagged(5, sim::DeterminismDigest::kTagSched, 1);
    ab.mixTagged(7, sim::DeterminismDigest::kTagSched, 2);
    ba.mixTagged(7, sim::DeterminismDigest::kTagSched, 2);
    ba.mixTagged(5, sim::DeterminismDigest::kTagSched, 1);
    EXPECT_NE(ab.value(), ba.value());
    EXPECT_EQ(ab.records(), 2u);
    EXPECT_EQ(ba.records(), 2u);

    sim::DeterminismDigest u, v;
    u.mixU64(1);
    u.mixU64(2);
    v.mixU64(2);
    v.mixU64(1);
    EXPECT_NE(u.value(), v.value());
}

TEST(Determinism, WordFoldSeesEveryField)
{
    using D = sim::DeterminismDigest;
    auto one = [](int64_t time, uint8_t tag, uint64_t actor) {
        D d;
        d.mixTagged(time, tag, actor);
        return d.value();
    };
    // Time and actor trade places.
    EXPECT_NE(one(3, D::kTagExec, 9), one(9, D::kTagExec, 3));
    // Only the tag differs, for each pair of tags.
    EXPECT_NE(one(3, D::kTagSched, 9), one(3, D::kTagExec, 9));
    EXPECT_NE(one(3, D::kTagExec, 9), one(3, D::kTagCancel, 9));
    EXPECT_NE(one(3, D::kTagSched, 9), one(3, D::kTagCancel, 9));
    // A tag does not alias a time: the tag sits in its own byte.
    EXPECT_NE(one(0, D::kTagCancel, 9), one(1, D::kTagExec, 9));
    // A one-bit change anywhere in a word moves the digest.
    for (int bit = 0; bit < 56; ++bit) {
        EXPECT_NE(one(int64_t{1} << bit, D::kTagExec, 0),
                  one(0, D::kTagExec, 0));
    }
    for (int bit = 0; bit < 64; ++bit) {
        EXPECT_NE(one(0, D::kTagExec, uint64_t{1} << bit),
                  one(0, D::kTagExec, 0));
    }
}

} // namespace
} // namespace remora
