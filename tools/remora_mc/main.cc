/**
 * @file
 * remora_mc: systematic schedule exploration over cluster workloads.
 *
 * Each registered workload is a deterministic thunk that builds a small
 * cluster on a fresh simulator and drives it to quiescence; the
 * ScheduleExplorer re-executes it once per same-instant tie-break
 * schedule (DFS with sleep-set reduction) and checks every terminal
 * state for deadlocks, lost wakeups, and blocked-forever coroutines.
 *
 * The clean registry (rpc, notify, sync, dfs-token) is the check.sh
 * --mc gate: bounded exploration must report zero findings. The seeded
 * workloads (deadlock, lost-wakeup) carry planted bugs and demonstrate
 * detection plus prefix shrinking:
 *
 *     remora_mc                      # explore the clean registry
 *     remora_mc deadlock lost-wakeup # demo the seeded bugs
 *     remora_mc --json sync          # machine-readable output
 *
 * Exit status is the total finding count clamped to 1 — except for
 * seeded workloads listed on the command line, whose findings are
 * expected and reported but do not fail the run. A clean workload
 * that records no scheduling decision fails the run too: it checked
 * only one schedule, so exploring it proved nothing.
 *
 * Two seed sweeps replay one fixed workload per seed instead of
 * exploring schedules; each prints one line per seed and a summary,
 * and exits nonzero on any failure:
 *
 *     remora_mc race     # check.sh --race: armed race detector,
 *                        # perturbation seeds 0-7
 *     remora_mc faults   # check.sh --faults: 5% cell drop on both
 *                        # link directions, fault seeds 0-7
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "dfs/token.h"
#include "mem/node.h"
#include "names/clerk.h"
#include "net/fault.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "rmem/engine.h"
#include "rmem/notification.h"
#include "rmem/race_detector.h"
#include "rmem/sync.h"
#include "rpc/hybrid1.h"
#include "rpc/transport.h"
#include "sim/explorer.h"
#include "sim/task.h"
#include "util/bytes.h"
#include "util/json.h"
#include "util/panic.h"

namespace remora {
namespace {

// ----------------------------------------------------------------------
// Shared cluster scaffolding
// ----------------------------------------------------------------------

/**
 * N switched nodes with engines (two are wired back to back), built
 * fresh per explored schedule or swept seed. Node i is named
 * node<first + i - 1>: node1, node2, ... by default.
 */
struct World
{
    sim::Simulator &sim;
    net::Network network;
    std::vector<std::unique_ptr<mem::Node>> nodes;
    std::vector<std::unique_ptr<rmem::RmemEngine>> engines;

    World(sim::Simulator &s, uint32_t n, char first = '1')
        : sim(s), network(s, net::LinkParams{})
    {
        for (uint32_t i = 1; i <= n; ++i) {
            nodes.push_back(std::make_unique<mem::Node>(
                s, i, std::string("node") + static_cast<char>(first + i - 1)));
            engines.push_back(
                std::make_unique<rmem::RmemEngine>(*nodes.back()));
            network.addHost(i, nodes.back()->nic());
        }
        if (n == 2) {
            network.wireDirect();
        } else {
            network.wireSwitched();
        }
    }

    rmem::ImportedSegment
    exportOn(uint32_t nodeIdx, const std::string &name, uint32_t size = 4096,
             rmem::NotifyPolicy policy = rmem::NotifyPolicy::kNever)
    {
        mem::Process &p = nodes[nodeIdx]->spawnProcess(name);
        mem::Vaddr base = p.space().allocRegion(size);
        auto h = engines[nodeIdx]->exportSegment(p, base, size,
                                                 rmem::Rights::kAll, policy,
                                                 name);
        REMORA_ASSERT(h.ok());
        return h.value();
    }
};

// ----------------------------------------------------------------------
// Clean workloads (the gate: zero findings expected)
// ----------------------------------------------------------------------

/** One Hybrid-1 client's echo calls. */
sim::Task<void>
rpcCalls(rpc::Hybrid1Client *c, uint8_t tag)
{
    for (uint8_t i = 0; i < 2; ++i) {
        std::vector<uint8_t> args{tag, i};
        auto reply = co_await c->call(args);
        REMORA_ASSERT(reply.ok());
        REMORA_ASSERT(reply.value()[0] == tag);
    }
}

/** A started Hybrid-1 echo server in a fresh process on node 1. */
std::unique_ptr<rpc::Hybrid1Server>
startEchoServer(World &w)
{
    mem::Process &serverProc = w.nodes[0]->spawnProcess("rpc-server");
    auto server =
        std::make_unique<rpc::Hybrid1Server>(*w.engines[0], serverProc);
    server->setHandler(
        [](net::NodeId,
           std::vector<uint8_t> args) -> sim::Task<std::vector<uint8_t>> {
            co_return args;
        });
    server->start();
    return server;
}

/** Hybrid-1 echo: two clients race their notified request writes. */
void
rpcWorkload(sim::Simulator &s)
{
    World w(s, 3);
    auto server = startEchoServer(w);
    mem::Process &p1 = w.nodes[1]->spawnProcess("rpc-client1");
    mem::Process &p2 = w.nodes[2]->spawnProcess("rpc-client2");
    rpc::Hybrid1Client c1(*w.engines[1], p1, server->requestSegmentHandle(),
                          server->allocSlot());
    rpc::Hybrid1Client c2(*w.engines[2], p2, server->requestSegmentHandle(),
                          server->allocSlot());
    auto t1 = rpcCalls(&c1, 0x11);
    auto t2 = rpcCalls(&c2, 0x22);
    s.run();
    REMORA_ASSERT(t1.done() && t2.done());
}

/** Consume @p want notifications off a channel. */
sim::Task<void>
notifyReader(rmem::NotificationChannel *ch, int want)
{
    for (int i = 0; i < want; ++i) {
        rmem::Notification n = co_await ch->next();
        REMORA_ASSERT(n.count == 3);
    }
}

/** Two racing notified writes consumed by a blocking channel reader. */
void
notifyWorkload(sim::Simulator &s)
{
    World w(s, 3);
    auto seg = w.exportOn(0, "mc.notify", 4096,
                          rmem::NotifyPolicy::kConditional);
    rmem::NotificationChannel *ch = w.engines[0]->channel(seg.descriptor);
    REMORA_ASSERT(ch != nullptr);
    auto reader = notifyReader(ch, 2);
    auto w1 = w.engines[1]->write(seg, 64, {1, 2, 3}, true);
    auto w2 = w.engines[2]->write(seg, 128, {4, 5, 6}, true);
    s.run();
    REMORA_ASSERT(reader.done());
    REMORA_ASSERT(w1.done() && w1.result().ok());
    REMORA_ASSERT(w2.done() && w2.result().ok());
}

/**
 * Two racing vectored writes, each carrying notify sub-ops that
 * coalesce behind one doorbell, against a blocking channel reader.
 * Every interleaving must deliver all four records (no lost wakeup
 * from the batched post) and ring exactly one doorbell per batch.
 */
void
vectorNotifyWorkload(sim::Simulator &s)
{
    World w(s, 3);
    auto seg = w.exportOn(0, "mc.vector", 4096,
                          rmem::NotifyPolicy::kConditional);
    rmem::NotificationChannel *ch = w.engines[0]->channel(seg.descriptor);
    REMORA_ASSERT(ch != nullptr);
    auto reader = notifyReader(ch, 4);
    auto makeBatch = [&seg](uint32_t base) {
        std::vector<rmem::BatchBuilder::Write> ops;
        ops.push_back({seg, base, {1, 2, 3}, true});
        ops.push_back({seg, base + 64, {4, 5, 6}, true});
        return ops;
    };
    auto w1 = w.engines[1]->writev(makeBatch(0));
    auto w2 = w.engines[2]->writev(makeBatch(256));
    s.run();
    REMORA_ASSERT(reader.done());
    REMORA_ASSERT(w1.done() && w1.result().ok());
    REMORA_ASSERT(w2.done() && w2.result().ok());
    REMORA_ASSERT(w.engines[0]->stats().vectorDoorbells.value() == 2);
    REMORA_ASSERT(w.engines[0]->stats().notificationsPosted.value() == 4);
}

/** Two nodes contending one remote spin-lock word. */
void
syncWorkload(sim::Simulator &s)
{
    World w(s, 2);
    auto page = w.exportOn(0, "mc.locks");
    auto scratch = w.exportOn(1, "mc.scratch");
    rmem::SpinLock la(*w.engines[1], page, 0, scratch.descriptor, 0, 0x201);
    rmem::SpinLock lb(*w.engines[1], page, 0, scratch.descriptor, 4, 0x202);
    auto hold = [](rmem::SpinLock *lock, sim::Simulator *sp) -> sim::Task<void> {
        auto a = co_await lock->acquire();
        REMORA_ASSERT(a.ok());
        co_await sim::delay(*sp, sim::usec(40));
        auto r = co_await lock->release();
        REMORA_ASSERT(r.ok());
    };
    auto w1 = hold(&la, &s);
    auto w2 = hold(&lb, &s);
    s.run();
    REMORA_ASSERT(w1.done() && w2.done());
}

/** Token coherence with a revocation (the rare control transfer). */
void
dfsTokenWorkload(sim::Simulator &s)
{
    World w(s, 3);
    mem::Process &serverProc = w.nodes[0]->spawnProcess("tok-server");
    dfs::TokenArea area(*w.engines[0], serverProc);
    mem::Process &p1 = w.nodes[1]->spawnProcess("tok-clerk1");
    mem::Process &p2 = w.nodes[2]->spawnProcess("tok-clerk2");
    dfs::TokenClient c1(*w.engines[1], p1, area.handle());
    dfs::TokenClient c2(*w.engines[2], p2, area.handle());
    auto useToken = [](dfs::TokenClient *c, sim::Simulator *sp,
                       sim::Duration dwell) -> sim::Task<void> {
        auto st = co_await c->acquire(42);
        REMORA_ASSERT(st.ok());
        c->beginUse(42);
        co_await sim::delay(*sp, dwell);
        c->endUse(42);
    };
    auto w1 = useToken(&c1, &s, sim::usec(80));
    auto w2 = useToken(&c2, &s, sim::usec(40));
    s.run();
    REMORA_ASSERT(w1.done() && w2.done());
}

/**
 * Notified writes across a dropping link: the reliable wire must
 * deliver every one exactly once and wake the reader under any
 * schedule, with retransmission timers racing delivery and acks.
 */
void
lossyWriteWorkload(sim::Simulator &s)
{
    World w(s, 2);
    w.engines[0]->wire().enableReliability();
    w.engines[1]->wire().enableReliability();
    auto seg = w.exportOn(0, "mc.lossy", 4096,
                          rmem::NotifyPolicy::kConditional);
    net::FaultPlan plan;
    plan.seed = 7;
    plan.dropRate = 0.25;
    w.network.installFaults(plan);
    rmem::NotificationChannel *ch = w.engines[0]->channel(seg.descriptor);
    REMORA_ASSERT(ch != nullptr);
    auto reader = notifyReader(ch, 3);
    auto w1 = w.engines[1]->write(seg, 0, {1, 2, 3}, true);
    auto w2 = w.engines[1]->write(seg, 64, {4, 5, 6}, true);
    auto w3 = w.engines[1]->write(seg, 128, {7, 8, 9}, true);
    s.run();
    REMORA_ASSERT(reader.done());
    REMORA_ASSERT(w1.done() && w1.result().ok());
    REMORA_ASSERT(w2.done() && w2.result().ok());
    REMORA_ASSERT(w3.done() && w3.result().ok());
    REMORA_ASSERT(w.engines[1]->wire().sendFailures() == 0);
}

/** One RPC call; the reply must echo the tag. */
sim::Task<void>
lossyRpcCall(rpc::RpcTransport *c, uint8_t tag)
{
    std::vector<uint8_t> args(1, tag);
    auto r = co_await c->call(1, 3, args);
    REMORA_ASSERT(r.ok());
    REMORA_ASSERT(r.value()[0] == tag);
}

/**
 * RPC across dropping links over the reliable wire, the one
 * at-most-once layer: two clients on separate nodes call one server,
 * so their requests meet at the server and contend for its CPU. Every
 * call completes, and the handler runs exactly once per call no matter
 * how retransmissions, acks and replies interleave.
 */
void
lossyRpcWorkload(sim::Simulator &s)
{
    World w(s, 3);
    for (auto &engine : w.engines) {
        engine->wire().enableReliability();
    }
    rpc::RpcTransport server(w.engines[0]->wire());
    rpc::RpcTransport client1(w.engines[1]->wire());
    rpc::RpcTransport client2(w.engines[2]->wire());
    int handlerRuns = 0;
    server.registerProc(
        3, [&handlerRuns](net::NodeId, std::vector<uint8_t> args)
               -> sim::Task<std::vector<uint8_t>> {
            ++handlerRuns;
            co_return args;
        });
    net::FaultPlan plan;
    plan.seed = 11;
    plan.dropRate = 0.35;
    w.network.installFaults(plan);
    auto t1 = lossyRpcCall(&client1, 0x51);
    auto t2 = lossyRpcCall(&client2, 0x52);
    s.run();
    REMORA_ASSERT(t1.done() && t2.done());
    REMORA_ASSERT(handlerRuns == 2);
    for (auto &engine : w.engines) {
        REMORA_ASSERT(engine->wire().sendFailures() == 0);
    }
}

// ----------------------------------------------------------------------
// Seeded workloads (planted bugs the explorer must find)
// ----------------------------------------------------------------------

/** Acquire @p first, dwell, then acquire @p second. */
sim::Task<void>
lockOrderWorker(rmem::SpinLock *first, rmem::SpinLock *second,
                sim::Simulator *s)
{
    auto a = co_await first->acquire();
    REMORA_ASSERT(a.ok());
    co_await sim::delay(*s, sim::usec(200));
    // The planted cross-order deadlock remora-mc must rediscover.
    // NOLINTNEXTLINE(remora-lock-across-suspension)
    auto b = co_await second->acquire();
    REMORA_ASSERT(b.ok());
    auto rb = co_await second->release();
    REMORA_ASSERT(rb.ok());
    auto ra = co_await first->release();
    REMORA_ASSERT(ra.ok());
}

/** Cross-order acquisition of two lock words: a 2-party wait cycle. */
void
deadlockWorkload(sim::Simulator &s)
{
    World w(s, 2);
    auto page = w.exportOn(0, "mc.locks");
    auto scratch = w.exportOn(1, "mc.scratch");
    rmem::SpinLock l0a(*w.engines[1], page, 0, scratch.descriptor, 0, 0x101);
    rmem::SpinLock l64a(*w.engines[1], page, 64, scratch.descriptor, 0, 0x101);
    rmem::SpinLock l64b(*w.engines[1], page, 64, scratch.descriptor, 4, 0x102);
    rmem::SpinLock l0b(*w.engines[1], page, 0, scratch.descriptor, 4, 0x102);
    auto w1 = lockOrderWorker(&l0a, &l64a, &s);
    auto w2 = lockOrderWorker(&l64b, &l0b, &s);
    s.run();
}

/** A post and a single poll race: one order strands the token. */
void
lostWakeupWorkload(sim::Simulator &s)
{
    mem::Node node(s, 1, "node");
    rmem::CostModel costs;
    rmem::NotificationChannel ch(node.cpu(), costs);
    ch.setHangLabel("mc.token");
    s.schedule(sim::usec(10), [&ch] {
        rmem::Notification n;
        n.srcNode = 2;
        ch.post(n);
    });
    s.schedule(sim::usec(10), [&ch] {
        rmem::Notification out;
        (void)ch.tryNext(out);
    });
    s.run();
}

// ----------------------------------------------------------------------
// Seed sweeps (the check.sh --race and --faults gates)
// ----------------------------------------------------------------------

/** Each sweep runs perturbation or fault seeds 0 .. kSweepSeeds - 1. */
constexpr uint64_t kSweepSeeds = 8;
/** Share of cells the fault sweep drops on each link direction. */
constexpr double kFaultDropRate = 0.05;

/** Locked read-modify-write increments of a shared counter. */
sim::Task<void>
counterWorker(rmem::RmemEngine *eng, rmem::SpinLock *lock,
              rmem::ImportedSegment page, rmem::SegmentId scratch,
              int iters)
{
    for (int k = 0; k < iters; ++k) {
        auto s = co_await lock->acquire();
        REMORA_ASSERT(s.ok());
        rmem::ReadOutcome cur = co_await eng->read(page, 64, scratch, 16, 4);
        REMORA_ASSERT(cur.status.ok());
        uint32_t v = util::ByteReader(cur.data).getU32();
        util::ByteWriter w(4);
        w.putU32(v + 1);
        auto ws = co_await eng->write(
            page, 64,
            std::vector<uint8_t>(w.bytes().begin(), w.bytes().end()));
        REMORA_ASSERT(ws.ok());
        auto r = co_await lock->release();
        REMORA_ASSERT(r.ok());
    }
}

/** Import the named segment and stream writes at it (sole writer). */
sim::Task<void>
namesWorker(names::NameClerk *clerk, rmem::RmemEngine *eng)
{
    auto imported = co_await clerk->import("probe.seg", 1);
    REMORA_ASSERT(imported.ok());
    for (int i = 0; i < 6; ++i) {
        std::vector<uint8_t> data(96, static_cast<uint8_t>(0x40 + i));
        auto ws = co_await eng->write(imported.value(), 128 * i, data);
        REMORA_ASSERT(ws.ok());
    }
}

/** Hybrid-1 echo round trips. */
sim::Task<void>
raceRpcCalls(rpc::Hybrid1Client *client)
{
    for (uint8_t i = 0; i < 4; ++i) {
        std::vector<uint8_t> args{i, 2, 3};
        auto reply = co_await client->call(args);
        REMORA_ASSERT(reply.ok());
        REMORA_ASSERT(reply.value()[0] == i);
    }
}

/**
 * One race-sweep seed under the armed detector: name-service
 * publish/import (notification and CT sequence-word edges), a
 * CAS-guarded spin-lock counter (sync-word and CAS-pair edges) and
 * Hybrid-1 RPC round trips (request notification + reply sequence
 * word) on one perturbed event queue. Prints
 *
 *     seed=<N> digest=0x<16 hex> races=<M> checked=<K>
 *
 * and returns M. A lost happens-before edge surfaces as a false
 * positive here; the digest shows each seed ran a distinct schedule
 * and that a rerun of the seed replays it bit-identically.
 */
uint64_t
raceSeed(uint64_t seed)
{
    auto &det = rmem::RaceDetector::instance();
    det.reset();
    uint64_t races0 = det.raceCount();
    uint64_t checked0 = det.accessesChecked();

    sim::Simulator sim;
    sim.setPerturbation(seed);
    World w(sim, 3);

    // Name service on nodes 1 and 2; node 1 publishes, node 2 imports.
    names::NameClerk names1(*w.engines[0]);
    names::NameClerk names2(*w.engines[1]);
    names1.addPeer(2);
    names2.addPeer(1);
    mem::Process &pub = w.nodes[0]->spawnProcess("publisher");
    mem::Vaddr pubBase = pub.space().allocRegion(4096);
    auto exp = names1.exportByName(&pub, pubBase, 4096, rmem::Rights::kAll,
                                   rmem::NotifyPolicy::kNever, "probe.seg");

    // Spin-lock counter page on node 1; nodes 2 and 3 contend.
    rmem::ImportedSegment page = w.exportOn(0, "probe.page");
    struct Contender
    {
        std::unique_ptr<rmem::SpinLock> lock;
        rmem::SegmentId scratch = 0;
        sim::Task<void> task{};
    };
    std::vector<Contender> contenders(2);
    for (size_t i = 0; i < 2; ++i) {
        contenders[i].scratch = w.exportOn(i + 1, "probe.scratch").descriptor;
        contenders[i].lock = std::make_unique<rmem::SpinLock>(
            *w.engines[i + 1], page, 0, contenders[i].scratch, 0,
            static_cast<uint32_t>(0x200 + i));
    }

    // Hybrid-1 RPC: server on node 1, client on node 3.
    auto server = startEchoServer(w);
    mem::Process &clientProc = w.nodes[2]->spawnProcess("rpc-client");
    rpc::Hybrid1Client client(*w.engines[2], clientProc,
                              server->requestSegmentHandle(),
                              server->allocSlot());

    // Drive everything to completion on one event queue.
    auto names = namesWorker(&names2, &*w.engines[1]);
    for (size_t i = 0; i < 2; ++i) {
        contenders[i].task =
            counterWorker(&*w.engines[i + 1], contenders[i].lock.get(), page,
                          contenders[i].scratch, 4);
    }
    auto rpcs = raceRpcCalls(&client);
    sim.run();
    REMORA_ASSERT(exp.done() && exp.result().ok());
    REMORA_ASSERT(names.done());
    REMORA_ASSERT(contenders[0].task.done() && contenders[1].task.done());
    REMORA_ASSERT(rpcs.done());

    uint64_t races = det.raceCount() - races0;
    std::printf("seed=%llu digest=0x%016llx races=%llu checked=%llu\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(sim.digest().value()),
                static_cast<unsigned long long>(races),
                static_cast<unsigned long long>(det.accessesChecked() -
                                                checked0));
    for (const auto &r : det.reports()) {
        std::fprintf(stderr, "%s\n", r.format().c_str());
    }
    return races;
}

/** `remora_mc race`: every seed, then `race seeds=<N> races=<M>`. */
int
raceSweep()
{
    // Non-fatal: count, report, and exit nonzero. Armed before any
    // segment is exported so every export registers.
    auto &det = rmem::RaceDetector::instance();
    det.arm({});
    uint64_t races = 0;
    for (uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
        races += raceSeed(seed);
    }
    det.disarm();
    std::printf("race seeds=%llu races=%llu\n",
                static_cast<unsigned long long>(kSweepSeeds),
                static_cast<unsigned long long>(races));
    return races == 0 ? 0 : 1;
}

/** READ @p expect.size() bytes at @p off and compare. */
sim::Task<void>
readBack(rmem::RmemEngine *eng, rmem::ImportedSegment seg,
         rmem::SegmentId scratch, uint32_t off, std::vector<uint8_t> expect,
         uint64_t *mismatches)
{
    rmem::ReadOutcome out = co_await eng->read(
        seg, off, scratch, 0, static_cast<uint16_t>(expect.size()));
    if (!out.status.ok() || out.data != expect) {
        ++*mismatches;
    }
}

/** The fault sweep's running tallies. */
struct FaultTotals
{
    uint64_t drops = 0;
    /** User-visible losses: missing bytes, notifications or reads. */
    uint64_t undelivered = 0;
    /** Any loss, wire abandonment or coroutine blocked at quiescence. */
    bool failed = false;
};

/**
 * One fault-sweep seed over the paper's two-node testbed, kFaultDropRate
 * of the cells dropped on both link directions and the reliable wire
 * on: notified WRITEs and remote READs whose sizes straddle the
 * raw-cell / AAL5-frame boundary, so both encodings cross the lossy
 * link. After quiescence it audits end-to-end delivery (server memory
 * bytes, notification count, read-back contents) and prints
 *
 *     seed=<N> digest=0x<16 hex> drops=<M> retransmits=<K> undelivered=<U>
 *
 * and adds its tallies to @p totals. The nodes keep the names nodeA
 * and nodeB: installFaults() folds each link's name into its injector
 * seed.
 */
void
faultSeed(uint64_t seed, FaultTotals &totals)
{
    sim::Simulator sim;
    World w(sim, 2, 'A');
    rmem::RmemEngine &engineA = *w.engines[0];
    rmem::RmemEngine &engineB = *w.engines[1];
    engineA.wire().enableReliability();
    engineB.wire().enableReliability();

    mem::Process &server = w.nodes[1]->spawnProcess("server");
    mem::Vaddr base = server.space().allocRegion(32768);
    auto seg = engineB.exportSegment(server, base, 32768, rmem::Rights::kAll,
                                     rmem::NotifyPolicy::kConditional,
                                     "probe.mem");
    REMORA_ASSERT(seg.ok());
    rmem::SegmentId scratch = w.exportOn(0, "probe.scratch").descriptor;
    sim.run();

    net::FaultPlan plan;
    plan.seed = seed;
    plan.dropRate = kFaultDropRate;
    w.network.installFaults(plan);

    // Notified writes, sizes from one raw cell up to multi-cell frames.
    constexpr int kWrites = 24;
    std::vector<std::vector<uint8_t>> expected;
    std::vector<sim::Task<util::Status>> writes;
    for (int i = 0; i < kWrites; ++i) {
        std::vector<uint8_t> data(16 + (i * 53) % 480);
        for (size_t j = 0; j < data.size(); ++j) {
            data[j] = static_cast<uint8_t>(i * 17 + j);
        }
        expected.push_back(data);
        writes.push_back(engineA.write(
            seg.value(), static_cast<uint32_t>(i) * 1024, data,
            /*notify=*/true));
    }
    sim.run();

    // Read a sample back through the same lossy link.
    uint64_t readMismatches = 0;
    std::vector<sim::Task<void>> reads;
    for (int i = 0; i < kWrites; i += 3) {
        std::vector<uint8_t> expect(expected[i].begin(),
                                    expected[i].begin() + 16);
        reads.push_back(readBack(&engineA, seg.value(), scratch,
                                 static_cast<uint32_t>(i) * 1024,
                                 std::move(expect), &readMismatches));
    }
    sim.run();

    uint64_t undelivered = readMismatches;
    for (auto &r : reads) {
        if (!r.done()) {
            ++undelivered; // read wedged: never completed
        }
    }
    for (int i = 0; i < kWrites; ++i) {
        if (!writes[i].done() || !writes[i].result().ok()) {
            ++undelivered;
            continue;
        }
        std::vector<uint8_t> got(expected[i].size());
        if (!server.space()
                 .read(base + static_cast<uint64_t>(i) * 1024, got)
                 .ok() ||
            got != expected[i]) {
            ++undelivered;
        }
    }
    auto *ch = engineB.channel(seg.value().descriptor);
    REMORA_ASSERT(ch != nullptr);
    rmem::Notification n;
    int notifications = 0;
    while (ch->tryNext(n)) {
        ++notifications;
    }
    if (notifications < kWrites) {
        undelivered += static_cast<uint64_t>(kWrites - notifications);
    }

    uint64_t abandoned =
        engineA.wire().sendFailures() + engineB.wire().sendFailures();
    if (abandoned > 0) {
        std::fprintf(stderr,
                     "remora_mc faults: wire abandoned %llu envelope(s)\n",
                     static_cast<unsigned long long>(abandoned));
    }
    if (sim.blockedTaskCount() > 0) {
        std::fprintf(stderr,
                     "remora_mc faults: %zu coroutine(s) blocked at "
                     "quiescence\n",
                     sim.blockedTaskCount());
    }

    std::printf("seed=%llu digest=0x%016llx drops=%llu retransmits=%llu "
                "undelivered=%llu\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(sim.digest().value()),
                static_cast<unsigned long long>(
                    w.network.totalFaultDrops()),
                static_cast<unsigned long long>(
                    engineA.wire().retransmits() +
                    engineB.wire().retransmits()),
                static_cast<unsigned long long>(undelivered));
    totals.drops += w.network.totalFaultDrops();
    totals.undelivered += undelivered;
    totals.failed = totals.failed || undelivered > 0 || abandoned > 0 ||
                    sim.blockedTaskCount() > 0;
}

/**
 * `remora_mc faults`: every seed, then
 * `faults seeds=<N> drops=<M> undelivered=<U>`.
 */
int
faultSweep()
{
    FaultTotals totals;
    for (uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
        faultSeed(seed, totals);
    }
    std::printf("faults seeds=%llu drops=%llu undelivered=%llu\n",
                static_cast<unsigned long long>(kSweepSeeds),
                static_cast<unsigned long long>(totals.drops),
                static_cast<unsigned long long>(totals.undelivered));
    return totals.failed ? 1 : 0;
}

// ----------------------------------------------------------------------
// Registry and driver
// ----------------------------------------------------------------------

struct WorkloadEntry
{
    const char *name;
    sim::ScheduleExplorer::Workload fn;
    bool seeded; ///< Carries a planted bug; findings are the point.
};

const std::vector<WorkloadEntry> &
registry()
{
    static const std::vector<WorkloadEntry> r = {
        {"rpc", rpcWorkload, false},
        {"notify", notifyWorkload, false},
        {"vector-notify", vectorNotifyWorkload, false},
        {"sync", syncWorkload, false},
        {"dfs-token", dfsTokenWorkload, false},
        {"lossy-write", lossyWriteWorkload, false},
        {"lossy-rpc", lossyRpcWorkload, false},
        {"deadlock", deadlockWorkload, true},
        {"lost-wakeup", lostWakeupWorkload, true},
    };
    return r;
}

std::string
choiceList(const std::vector<uint32_t> &v)
{
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
        if (i != 0) {
            out += ",";
        }
        out += std::to_string(v[i]);
    }
    return out + "]";
}

struct Options
{
    sim::ExplorerOptions explorer;
    bool json = false;
    bool metrics = false;
    std::vector<std::string> workloads;
};

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--list] [--json] [--metrics] [--max-schedules N]\n"
        "          [--step-budget N] [--no-reduction] [--no-shrink]\n"
        "          [workload...]\n"
        "       %s race | faults\n"
        "default workloads: every clean registry entry\n",
        argv0, argv0);
    return 2;
}

int
run(const Options &opts)
{
    // Explorers are kept alive to the end: the metric registry borrows
    // their counters ("mc.<workload>.*").
    std::vector<std::unique_ptr<sim::ScheduleExplorer>> explorers;
    auto &metrics = obs::MetricRegistry::global();
    uint64_t unexpected = 0;
    uint64_t undecided = 0;
    uint64_t totalSchedules = 0;
    uint64_t totalFindings = 0;
    std::string jsonOut = "{\"workloads\":[";
    bool firstJson = true;

    for (const std::string &name : opts.workloads) {
        const WorkloadEntry *entry = nullptr;
        for (const WorkloadEntry &e : registry()) {
            if (name == e.name) {
                entry = &e;
            }
        }
        if (entry == nullptr) {
            std::fprintf(stderr, "remora_mc: unknown workload '%s'\n",
                         name.c_str());
            return 2;
        }
        explorers.push_back(std::make_unique<sim::ScheduleExplorer>(
            entry->fn, opts.explorer));
        sim::ScheduleExplorer &ex = *explorers.back();
        sim::ExploreResult res = ex.explore();

        std::string prefix = "mc." + name + ".";
        metrics.add(prefix + "schedules", ex.schedulesRun());
        metrics.add(prefix + "decisions", ex.decisionsHit());
        metrics.add(prefix + "findings", ex.findingsFound());
        metrics.add(prefix + "sleep_skips", ex.sleepSkips());
        metrics.add(prefix + "shrink_runs", ex.shrinkRuns());

        totalSchedules += res.schedules;
        totalFindings += res.findings.size();
        if (!entry->seeded) {
            unexpected += res.findings.size();
            if (res.decisions == 0) {
                ++undecided;
                std::fprintf(stderr,
                             "remora_mc: clean workload '%s' recorded no "
                             "scheduling decision; it checks one schedule "
                             "only\n",
                             name.c_str());
            }
        }

        if (opts.json) {
            if (!firstJson) {
                jsonOut += ",";
            }
            firstJson = false;
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "{\"name\":\"%s\",\"schedules\":%llu,"
                          "\"decisions\":%llu,\"sleep_skips\":%llu,"
                          "\"max_depth\":%llu,\"exhausted\":%s,"
                          "\"capped\":%s,\"digest\":\"0x%016llx\","
                          "\"findings\":[",
                          name.c_str(),
                          static_cast<unsigned long long>(res.schedules),
                          static_cast<unsigned long long>(res.decisions),
                          static_cast<unsigned long long>(res.sleepSkips),
                          static_cast<unsigned long long>(res.maxDepth),
                          res.exhausted ? "true" : "false",
                          res.capped ? "true" : "false",
                          static_cast<unsigned long long>(res.firstDigest));
            jsonOut += buf;
            for (size_t i = 0; i < res.findings.size(); ++i) {
                const sim::ExplorerFinding &f = res.findings[i];
                if (i != 0) {
                    jsonOut += ",";
                }
                jsonOut += "{\"kind\":\"";
                jsonOut += sim::HangReport::kindName(f.report.kind);
                jsonOut += "\",\"schedule\":" + std::to_string(f.schedule);
                jsonOut +=
                    ",\"detail\":\"" + util::jsonEscape(f.report.detail) + "\"";
                jsonOut += ",\"parties\":[";
                for (size_t p = 0; p < f.report.parties.size(); ++p) {
                    if (p != 0) {
                        jsonOut += ",";
                    }
                    jsonOut +=
                        "\"" + util::jsonEscape(f.report.parties[p]) + "\"";
                }
                jsonOut += "],\"choices\":" + choiceList(f.choices);
                jsonOut += ",\"shrunk\":" + choiceList(f.shrunk) + "}";
            }
            jsonOut += "]}";
        } else {
            std::printf("workload=%s schedules=%llu decisions=%llu "
                        "prunes=%llu findings=%zu digest=0x%016llx%s%s\n",
                        name.c_str(),
                        static_cast<unsigned long long>(res.schedules),
                        static_cast<unsigned long long>(res.decisions),
                        static_cast<unsigned long long>(res.sleepSkips),
                        res.findings.size(),
                        static_cast<unsigned long long>(res.firstDigest),
                        res.capped ? " capped" : "",
                        res.exhausted ? " exhausted" : "");
            for (const sim::ExplorerFinding &f : res.findings) {
                std::printf("finding workload=%s schedule=%llu "
                            "shrunk=%s of %zu choices\n",
                            name.c_str(),
                            static_cast<unsigned long long>(f.schedule),
                            choiceList(f.shrunk).c_str(), f.choices.size());
                std::printf("%s", f.report.format().c_str());
            }
        }
    }

    if (opts.json) {
        jsonOut += "],\"total_schedules\":" + std::to_string(totalSchedules);
        jsonOut += ",\"total_findings\":" + std::to_string(totalFindings);
        jsonOut += ",\"unexpected_findings\":" + std::to_string(unexpected);
        jsonOut += "}";
        std::printf("%s\n", jsonOut.c_str());
    } else {
        std::printf("mc workloads=%zu schedules=%llu findings=%llu "
                    "unexpected=%llu\n",
                    opts.workloads.size(),
                    static_cast<unsigned long long>(totalSchedules),
                    static_cast<unsigned long long>(totalFindings),
                    static_cast<unsigned long long>(unexpected));
    }
    if (opts.metrics) {
        std::printf("%s", metrics.dump().c_str());
    }
    return unexpected == 0 && undecided == 0 ? 0 : 1;
}

} // namespace
} // namespace remora

int
main(int argc, char **argv)
{
    if (argc == 2 && std::strcmp(argv[1], "race") == 0) {
        return remora::raceSweep();
    }
    if (argc == 2 && std::strcmp(argv[1], "faults") == 0) {
        return remora::faultSweep();
    }
    remora::Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto numArg = [&](uint64_t &out) {
            if (i + 1 >= argc) {
                return false;
            }
            out = std::strtoull(argv[++i], nullptr, 0);
            return true;
        };
        if (arg == "--list") {
            for (const auto &e : remora::registry()) {
                std::printf("%s%s\n", e.name, e.seeded ? " (seeded bug)" : "");
            }
            return 0;
        } else if (arg == "--json") {
            opts.json = true;
        } else if (arg == "--metrics") {
            opts.metrics = true;
        } else if (arg == "--no-reduction") {
            opts.explorer.reduction = false;
        } else if (arg == "--no-shrink") {
            opts.explorer.shrink = false;
        } else if (arg == "--max-schedules") {
            if (!numArg(opts.explorer.maxSchedules)) {
                return remora::usage(argv[0]);
            }
        } else if (arg == "--step-budget") {
            if (!numArg(opts.explorer.stepBudget)) {
                return remora::usage(argv[0]);
            }
        } else if (!arg.empty() && arg[0] == '-') {
            return remora::usage(argv[0]);
        } else {
            opts.workloads.push_back(arg);
        }
    }
    if (opts.workloads.empty()) {
        for (const auto &e : remora::registry()) {
            if (!e.seeded) {
                opts.workloads.push_back(e.name);
            }
        }
    }
    return remora::run(opts);
}
