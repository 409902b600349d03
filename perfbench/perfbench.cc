/**
 * @file
 * The Remora benchmark program, remora_perfbench.
 *
 * Eight simulated clients run the Table-1a NFS operation mix
 * (trace::WorkloadGen) closed loop, with zero think time, against one
 * dfs::FileServer on a switched cluster, through the public
 * dfs::FileServiceBackend API. The hot working set is 8 files x 16 KB,
 * warm in the server's cache areas (the paper's 100%-hit condition).
 * Every layer is measured from outside, through its public counters.
 *
 * Workloads:
 *   dx_mix        DxBackend (Hybrid-1 as the miss fallback), lossless.
 *   hy_mix        HyBackend (Hybrid-1 write-with-notify + return write).
 *   dx_mix_lossy  dx_mix with the reliable wire on every node and 5%
 *                 cell drop on every link.
 *
 * Usage:
 *   remora_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *   remora_perfbench --selftest
 *
 * --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
 * prints the per-layer metrics of a traced run. Either way the last
 * stdout line is one JSON object {correct, attempted, failed, metrics}.
 * --seconds sizes a fixed amount of simulated work (see Workload), so a
 * faster simulator finishes the same work sooner and every
 * simulated-time metric stays comparable across builds.
 *
 * Two diagnostic overrides reproduce the documented baseline facts
 * (run.py never passes them): --window-ms sets the per-replica (and
 * traced) window, --drop-rate the cell drop rate of dx_mix_lossy (0
 * keeps the reliable wire on with no loss).
 *
 * --selftest replays bench_scaling_clients' n8 rows (client seeds
 * 1000+i, a 2 s window, a 200 ms drain) and prints them as JSON.
 */
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "dfs/backend.h"
#include "dfs/server.h"
#include "net/network.h"
#include "obs/critical_path.h"
#include "obs/trace.h"
#include "rmem/engine.h"
#include "sim/logger.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "trace/workload.h"
#include "util/crc.h"
#include "util/hash.h"
#include "util/panic.h"

using namespace remora;

namespace {

using HostClock = std::chrono::steady_clock;

double
secondsBetween(HostClock::time_point a, HostClock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
toSec(sim::Duration d)
{
    return static_cast<double>(d) / static_cast<double>(sim::kSecond);
}

constexpr size_t kClients = 8;
constexpr uint64_t kFileBytes = 16384;
constexpr uint32_t kMaxTransfer = 8192;
constexpr size_t kCellBytes = 53;
constexpr size_t kCellPayload = 48;

/**
 * A named workload and how much simulated work one run does. A run is
 * a number of independent clusters (replicas), each seeded from the
 * workload seed, each measured over the same simulated window; their
 * ops are pooled. --seconds sets the replica count, so one run's work
 * depends only on --seconds and never on the host's speed.
 */
struct Workload
{
    const char *name;
    bool dx;
    bool lossy;
    /** Measured simulated window of one replica. */
    sim::Duration window;
    /** Replicas per --seconds unit (about 0.8 host s of work each
     *  second on the reference machine). */
    double replicasPerSecond;
    /** Measured simulated window of the traced run. */
    sim::Duration tracedWindow;
    /** Simulated time after the window for in-flight ops to finish. */
    sim::Duration drain;
    /** Cell drop rate on every link (lossy workloads only). */
    double dropRate = 0;
};

const std::array<Workload, 3> kWorkloads = {{
    {"dx_mix", true, false, 2 * sim::kSecond, 0.65, sim::kSecond,
     sim::msec(200)},
    {"hy_mix", false, false, 4 * sim::kSecond, 1.1, 2 * sim::kSecond,
     sim::msec(200)},
    {"dx_mix_lossy", true, true, sim::kSecond, 3.0, 4 * sim::kSecond,
     3 * sim::kSecond, 0.05},
}};

constexpr sim::Duration kWarmup = sim::msec(200);
/** Simulated length of the slices host time is calibrated over. */
constexpr sim::Duration kSlice = sim::msec(20);
/** Host seconds of one calibrationRound() on the reference machine (a
 *  4-vCPU shared Xeon VM) in its fast state. */
constexpr double kCalibrationRefSeconds = 160e-6;
constexpr int kSetupRepeats = 7;

/** Op classes the benchmark reports, in output order. */
enum class Kind : uint8_t
{
    kGetAttr,
    kLookup,
    kRead,
    kWrite,
    kReadDir,
    kNull,
    kStatFs,
    kCount,
};

constexpr std::array<const char *, static_cast<size_t>(Kind::kCount)>
    kKindNames = {"getattr", "lookup", "read",  "write",
                  "readdir", "null",   "statfs"};

Kind
kindOf(trace::OpClass cls)
{
    switch (cls) {
      case trace::OpClass::kGetAttr:
      case trace::OpClass::kOther:
        return Kind::kGetAttr;
      case trace::OpClass::kLookup:
        return Kind::kLookup;
      case trace::OpClass::kRead:
        return Kind::kRead;
      case trace::OpClass::kNullPing:
        return Kind::kNull;
      case trace::OpClass::kReadLink:
      case trace::OpClass::kStatFs:
        return Kind::kStatFs;
      case trace::OpClass::kReadDir:
        return Kind::kReadDir;
      case trace::OpClass::kWrite:
        return Kind::kWrite;
      default:
        return Kind::kCount;
    }
}

enum class Outcome : uint8_t
{
    kOk,
    kError,
    kMismatch,
};

/** Per-client tallies (ops started inside the measured window). */
struct ClientTally
{
    uint64_t attempted = 0;
    uint64_t ok = 0;
    uint64_t errors = 0;
    uint64_t mismatches = 0;
    /** An op is in flight; it started inside the window. */
    bool inFlight = false;
    bool inFlightMeasured = false;
    std::vector<sim::Duration> latencies;
    /** bench_scaling_clients' definitions: every op that finished. */
    uint64_t finished = 0;
    sim::Duration finishedLatency = 0;
    /** Ok ops that also finished inside the window (host_ops_per_s). */
    uint64_t okInWindow = 0;
};

/** One simulated client: its backend, op stream and expected file. */
struct Client
{
    size_t index = 0;
    mem::Process *proc = nullptr;
    std::unique_ptr<rpc::Hybrid1Client> hy;
    std::unique_ptr<dfs::FileServiceBackend> backend;
    dfs::DxBackend *dx = nullptr;
    std::unique_ptr<trace::WorkloadGen> gen;
    /** The one file this client reads, writes and stats. */
    dfs::FileHandle file;
    /** Expected contents of @ref file and which bytes are known. */
    std::vector<uint8_t> expect;
    std::vector<bool> known;
    uint32_t writeSeq = 0;
    std::string nodeName;
    ClientTally tally;
};

/** Server, clients, network and files: one closed-loop cluster. */
struct Cluster
{
    sim::Simulator sim;
    net::Network network{sim, net::LinkParams{}};
    mem::Node serverNode{sim, 1, "server"};
    rmem::RmemEngine serverEngine{serverNode};
    std::vector<std::unique_ptr<mem::Node>> clientNodes;
    std::vector<std::unique_ptr<rmem::RmemEngine>> clientEngines;
    dfs::FileStore store;
    rpc::Hybrid1Params hp;
    std::unique_ptr<dfs::FileServer> server;
    std::vector<dfs::FileHandle> files;
    std::vector<std::unique_ptr<Client>> clients;
    std::vector<sim::Task<void>> loops;
    /** bench_scaling_clients' targets: ops pick among all files. */
    bool sharedTargets = false;

    /**
     * Build the cluster, create and warm the files, start the server
     * and bind every client. Mirrors bench_scaling_clients' order, so
     * the same client seeds give the same simulation.
     */
    Cluster(const Workload &w, uint64_t faultSeed, uint64_t streamSeedBase)
    {
        network.addHost(1, serverNode.nic());
        for (size_t i = 0; i < kClients; ++i) {
            auto id = static_cast<net::NodeId>(i + 2);
            clientNodes.push_back(std::make_unique<mem::Node>(
                sim, id, "client" + std::to_string(id)));
            clientEngines.push_back(
                std::make_unique<rmem::RmemEngine>(*clientNodes.back()));
            network.addHost(id, clientNodes.back()->nic());
        }
        network.wireSwitched();
        if (w.lossy) {
            serverEngine.wire().enableReliability();
            for (auto &e : clientEngines) {
                e->wire().enableReliability();
            }
            net::FaultPlan plan;
            plan.seed = faultSeed;
            plan.dropRate = w.dropRate;
            network.installFaults(plan);
        }

        hp.slots = static_cast<uint32_t>(kClients) + 1;
        hp.pollInterval = sim::usec(4);
        server = std::make_unique<dfs::FileServer>(
            serverEngine, store, dfs::CacheGeometry{}, dfs::ServiceTimes{},
            hp);
        for (int i = 0; i < 8; ++i) {
            auto f = store.createFile(store.root(), "hot" + std::to_string(i),
                                      kFileBytes);
            REMORA_ASSERT(f.ok());
            files.push_back(f.value());
        }
        uint32_t collisions = server->warmCaches();
        if (collisions != 0) {
            REMORA_FATAL("perfbench: hot set collides in the server cache");
        }
        server->start();
        sim.run();

        serverNode.cpu().resetAccounting();
        for (size_t i = 0; i < kClients; ++i) {
            auto c = std::make_unique<Client>();
            c->index = i;
            c->nodeName = clientNodes[i]->name();
            c->proc = &clientNodes[i]->spawnProcess("clerk" + std::to_string(i));
            c->hy = std::make_unique<rpc::Hybrid1Client>(
                *clientEngines[i], *c->proc, server->hybridHandle(),
                server->allocClientSlot(), hp);
            c->gen = std::make_unique<trace::WorkloadGen>(streamSeedBase + i);
            if (w.dx) {
                auto dx = std::make_unique<dfs::DxBackend>(
                    *clientEngines[i], *c->proc, server->areaHandles(),
                    dfs::CacheGeometry{}, c->hy.get());
                c->dx = dx.get();
                c->backend = std::move(dx);
            } else {
                c->backend = std::make_unique<dfs::HyBackend>(*c->hy);
            }
            c->file = files[i % files.size()];
            auto bytes = store.read(c->file, 0, kFileBytes);
            REMORA_ASSERT(bytes.ok());
            c->expect = bytes.value();
            c->known.assign(c->expect.size(), true);
            clients.push_back(std::move(c));
        }
    }

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    /** Every host interface's transmitted cells. */
    uint64_t
    cellsSent()
    {
        uint64_t n = serverNode.nic().cellsTx();
        for (auto &node : clientNodes) {
            n += node->nic().cellsTx();
        }
        return n;
    }

    /** Visit every engine, server first. */
    template <typename Fn>
    void
    forEachEngine(Fn fn)
    {
        fn(serverEngine);
        for (auto &e : clientEngines) {
            fn(*e);
        }
    }
};

/** A write payload stamped with the client, the sequence and position. */
std::vector<uint8_t>
stampedPayload(size_t client, uint32_t seq, uint32_t len)
{
    std::vector<uint8_t> out(len);
    for (uint32_t pos = 0; pos < len; pos += 8) {
        uint64_t word = (static_cast<uint64_t>(client + 1) << 56) ^
                        (static_cast<uint64_t>(seq) << 20) ^ (pos / 8);
        for (uint32_t b = 0; b < 8 && pos + b < len; ++b) {
            out[pos + b] = static_cast<uint8_t>(word >> (8 * b));
        }
    }
    return out;
}

/** True when @p got matches every known expected byte. */
bool
matchesExpected(const Client &c, const std::vector<uint8_t> &got,
                uint32_t want)
{
    if (got.size() != want) {
        return false;
    }
    for (uint32_t i = 0; i < want; ++i) {
        if (c.known[i] && got[i] != c.expect[i]) {
            return false;
        }
    }
    return true;
}

/**
 * Issue one drawn op through the client's backend and check its result
 * against the store's ground truth and the client's own writes.
 */
sim::Task<Outcome>
issueOp(Client *c, Cluster *cl, trace::Op op)
{
    dfs::FileServiceBackend &be = *c->backend;
    dfs::FileStore &store = cl->store;
    if (cl->sharedTargets) {
        // Other clients write these files too, so only errors count.
        c->file = cl->files[op.fileIdx % cl->files.size()];
        c->known.assign(c->known.size(), false);
    }
    switch (kindOf(op.cls)) {
      case Kind::kGetAttr: {
        auto r = co_await be.getattr(c->file);
        if (!r.ok()) {
            co_return Outcome::kError;
        }
        auto truth = store.getattr(c->file);
        bool same = truth.ok() && r.value().type == truth.value().type &&
                    r.value().size == truth.value().size &&
                    r.value().fileid == truth.value().fileid;
        co_return same ? Outcome::kOk : Outcome::kMismatch;
      }
      case Kind::kLookup: {
        auto r = co_await be.lookup(store.root(), "hot0");
        if (!r.ok()) {
            co_return Outcome::kError;
        }
        auto truth = store.lookup(store.root(), "hot0");
        co_return truth.ok() && r.value().fh == truth.value()
            ? Outcome::kOk
            : Outcome::kMismatch;
      }
      case Kind::kRead: {
        uint32_t n = std::min(op.bytes, kMaxTransfer);
        auto r = co_await be.read(c->file, 0, n);
        if (!r.ok()) {
            co_return Outcome::kError;
        }
        co_return matchesExpected(*c, r.value(), n) ? Outcome::kOk
                                                    : Outcome::kMismatch;
      }
      case Kind::kNull: {
        auto s = co_await be.null();
        co_return s.ok() ? Outcome::kOk : Outcome::kError;
      }
      case Kind::kStatFs: {
        auto r = co_await be.statfs();
        if (!r.ok()) {
            co_return Outcome::kError;
        }
        co_return r.value().blockSize == dfs::kBlockBytes &&
                r.value().totalFiles == store.statfs().totalFiles
            ? Outcome::kOk
            : Outcome::kMismatch;
      }
      case Kind::kReadDir: {
        auto r = co_await be.readdir(store.root(), op.bytes);
        if (!r.ok()) {
            co_return Outcome::kError;
        }
        auto truth = store.readdir(store.root());
        if (!truth.ok() || r.value().empty()) {
            co_return Outcome::kMismatch;
        }
        for (const dfs::DirEntry &e : r.value()) {
            bool found = false;
            for (const dfs::DirEntry &t : truth.value()) {
                found = found || (t.name == e.name && t.fileid == e.fileid);
            }
            if (!found) {
                co_return Outcome::kMismatch;
            }
        }
        co_return Outcome::kOk;
      }
      case Kind::kWrite: {
        uint32_t n = std::min(op.bytes, kMaxTransfer);
        std::vector<uint8_t> data = stampedPayload(c->index, ++c->writeSeq, n);
        // Until the write answers, its bytes may or may not have landed.
        for (uint32_t i = 0; i < n; ++i) {
            c->known[i] = false;
        }
        auto s = co_await be.write(c->file, 0, data);
        if (!s.ok()) {
            co_return Outcome::kError;
        }
        std::copy(data.begin(), data.end(), c->expect.begin());
        for (uint32_t i = 0; i < n; ++i) {
            c->known[i] = true;
        }
        co_return Outcome::kOk;
      }
      default:
        co_return Outcome::kError;
    }
}

/**
 * Closed-loop client: issue the next op as soon as the previous one
 * answers, until @p stopAt. Ops started at or after @p measureFrom are
 * the measured ones.
 */
sim::Task<void>
clientLoop(Client *c, Cluster *cl, sim::Time measureFrom, sim::Time stopAt)
{
    sim::Simulator &sim = cl->sim;
    ClientTally &t = c->tally;
    while (sim.now() < stopAt) {
        trace::Op op = c->gen->next();
        Kind kind = kindOf(op.cls);
        sim::Time t0 = sim.now();
        bool measured = t0 >= measureFrom;
        t.attempted += measured ? 1 : 0;
        t.inFlight = true;
        t.inFlightMeasured = measured;
        obs::SpanId span = obs::kNoSpan;
        if (obs::TraceRecorder::on() && kind != Kind::kCount) {
            span = obs::TraceRecorder::instance().beginSpan(
                c->nodeName, "bench", kKindNames[static_cast<size_t>(kind)]);
        }
        Outcome out = co_await issueOp(c, cl, op);
        if (span != obs::kNoSpan) {
            obs::TraceRecorder::instance().endSpan(span);
        }
        sim::Duration lat = sim.now() - t0;
        t.inFlight = false;
        ++t.finished;
        t.finishedLatency += lat;
        if (!measured) {
            continue;
        }
        switch (out) {
          case Outcome::kOk:
            ++t.ok;
            t.latencies.push_back(lat);
            t.okInWindow += sim.now() <= stopAt ? 1 : 0;
            break;
          case Outcome::kError:
            ++t.errors;
            break;
          case Outcome::kMismatch:
            ++t.mismatches;
            break;
        }
    }
}

/** Snapshot of every cumulative counter the benchmark reads. */
struct Counters
{
    uint64_t events = 0;
    uint64_t digestRecords = 0;
    uint64_t cellsSent = 0;
    uint64_t faultDrops = 0;
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t vectors = 0;
    uint64_t vectorSubOps = 0;
    uint64_t timeouts = 0;
    uint64_t naks = 0;
    uint64_t msgs = 0;
    uint64_t wireBytes = 0;
    uint64_t retransmits = 0;
    uint64_t sendFailures = 0;
    uint64_t acks = 0;
    uint64_t fragments = 0;
    uint64_t hyCalls = 0;
    uint64_t dxMisses = 0;
    uint64_t windowShrinks = 0;

    static Counters
    read(Cluster &cl)
    {
        Counters k;
        k.events = cl.sim.eventsProcessed();
        k.digestRecords = cl.sim.digest().records();
        k.cellsSent = cl.cellsSent();
        k.faultDrops = cl.network.totalFaultDrops();
        cl.forEachEngine([&k](rmem::RmemEngine &e) {
            const rmem::EngineStats &s = e.stats();
            k.reads += s.readsIssued.value();
            k.writes += s.writesIssued.value();
            k.vectors += s.vectorsIssued.value();
            k.vectorSubOps += s.vectorSubOps.value();
            k.timeouts += s.timeouts.value();
            k.naks += e.nakCount();
            rmem::Wire &w = e.wire();
            k.msgs += w.messagesSent();
            k.wireBytes += w.bytesSent();
            k.retransmits += w.retransmits();
            k.sendFailures += w.sendFailures();
            k.acks += w.acksSent();
            k.fragments += w.fragmentsSent();
        });
        k.hyCalls = cl.server->stats().callsServed.value();
        for (auto &c : cl.clients) {
            if (c->dx != nullptr) {
                k.dxMisses += c->dx->misses();
                k.windowShrinks += c->dx->windowShrinks();
            }
        }
        return k;
    }

    Counters
    operator-(const Counters &o) const
    {
        Counters d;
        d.events = events - o.events;
        d.digestRecords = digestRecords - o.digestRecords;
        d.cellsSent = cellsSent - o.cellsSent;
        d.faultDrops = faultDrops - o.faultDrops;
        d.reads = reads - o.reads;
        d.writes = writes - o.writes;
        d.vectors = vectors - o.vectors;
        d.vectorSubOps = vectorSubOps - o.vectorSubOps;
        d.timeouts = timeouts - o.timeouts;
        d.naks = naks - o.naks;
        d.msgs = msgs - o.msgs;
        d.wireBytes = wireBytes - o.wireBytes;
        d.retransmits = retransmits - o.retransmits;
        d.sendFailures = sendFailures - o.sendFailures;
        d.acks = acks - o.acks;
        d.fragments = fragments - o.fragments;
        d.hyCalls = hyCalls - o.hyCalls;
        d.dxMisses = dxMisses - o.dxMisses;
        d.windowShrinks = windowShrinks - o.windowShrinks;
        return d;
    }
};

/** How the simulator is advanced through the measured window. */
struct Stepping
{
    /** Sample the pending-event queue every this much simulated time
     *  (0 = run straight through without sampling). */
    sim::Duration sampleEvery = 0;
    uint64_t samples = 0;
    size_t peakPending = 0;
    double pendingSum = 0;
    double cancelledFracSum = 0;

    void
    advance(sim::Simulator &sim, sim::Time until)
    {
        if (sampleEvery == 0) {
            sim.run(until);
            return;
        }
        for (sim::Time t = sim.now(); t < until;) {
            t = std::min(until, t + sampleEvery);
            sim.run(t);
            size_t pending = sim.pendingEvents();
            size_t live = sim.livePendingEvents();
            ++samples;
            peakPending = std::max(peakPending, pending);
            pendingSum += static_cast<double>(pending);
            if (pending > 0) {
                cancelledFracSum += static_cast<double>(pending - live) /
                                    static_cast<double>(pending);
            }
        }
    }
};

/** Everything one replica measured. */
struct ReplicaResult
{
    sim::Duration window = 0;
    uint64_t attempted = 0;
    uint64_t ok = 0;
    uint64_t errors = 0;
    uint64_t mismatches = 0;
    uint64_t outstanding = 0;
    size_t blockedTasks = 0;
    /** Clients whose file at the end lacks one of their writes. */
    uint64_t lostWrites = 0;
    /** The reliable wire abandoned at least one envelope. */
    bool wireGaveUp = false;
    std::vector<sim::Duration> latencies;
    sim::Duration serverBusy = 0;
    std::array<sim::Duration,
               static_cast<size_t>(sim::CpuCategory::kNumCategories)>
        serverBusyIn{};
    Counters delta;
    /** Host seconds spent simulating the window (not the drain), and
     *  the ok ops that finished in it. */
    double windowHostSeconds = 0;
    uint64_t okInWindow = 0;
    /** windowHostSeconds with each slice scaled to the reference host
     *  speed (see calibrationRound). */
    double windowCalibratedSeconds = 0;
    /** Counter deltas over the window alone (no drain). */
    Counters windowDelta;
    uint64_t finished = 0;
    sim::Duration finishedLatency = 0;
    size_t maxLinkQueue = 0;

    /** Every answer was right, and every lost write is one the wire
     *  reported giving up on. */
    bool
    correct() const
    {
        return mismatches == 0 && (lostWrites == 0 || wireGaveUp);
    }

    uint64_t
    failed() const
    {
        return errors + mismatches + outstanding + lostWrites;
    }
};

/**
 * One round of host-speed calibration: 1500 steps of a small event loop
 * built from sim::Simulator's container mix (a binary heap of (time, id)
 * and an id-keyed hash map of std::function callbacks), in the
 * benchmark's own code so that no change to src/ moves it. The shared
 * host runs in a fast or a slow state for seconds at a time (the slow
 * one costs the simulator about 1.6x per event); this loop slows with
 * it in the same proportion, to within about 7%.
 *
 * @return Host seconds the round took.
 */
double
calibrationRound()
{
    using Entry = std::pair<uint64_t, uint64_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    std::unordered_map<uint64_t, std::function<void()>> callbacks;
    uint64_t x = 0x9e3779b97f4a7c15ull, now = 0, id = 0, acc = 0;
    auto h0 = HostClock::now();
    auto push = [&](uint64_t v) {
        x = util::mix64(x);
        heap.push({now + 1 + (x & 4095), ++id});
        callbacks.emplace(id, [&acc, v] { acc += v; });
    };
    for (uint64_t q = 0; q < 64; ++q) {
        push(q);
    }
    for (uint64_t q = 0; q < 1500; ++q) {
        auto [t, i] = heap.top();
        heap.pop();
        now = t;
        auto it = callbacks.find(i);
        if (it != callbacks.end()) {
            it->second();
            callbacks.erase(it);
        }
        push(q);
    }
    double secs = secondsBetween(h0, HostClock::now());
    volatile uint64_t sink = acc;
    (void)sink;
    return secs;
}

/** Run one cluster's warm-up, window and drain, and collect its counts. */
ReplicaResult
runReplica(Cluster &cl, sim::Duration warmup,
           sim::Duration window, sim::Duration drain, Stepping &stepping)
{
    sim::Simulator &sim = cl.sim;
    sim::Time start = sim.now();
    sim::Time measureFrom = start + warmup;
    sim::Time stopAt = measureFrom + window;
    for (auto &c : cl.clients) {
        cl.loops.push_back(
            clientLoop(c.get(), &cl, measureFrom, stopAt));
    }
    stepping.advance(sim, measureFrom);
    if (warmup > 0) {
        cl.serverNode.cpu().resetAccounting();
    }
    Counters before = Counters::read(cl);

    ReplicaResult r;
    r.window = window;
    for (sim::Time t = measureFrom; t < stopAt;) {
        sim::Time next = std::min(stopAt, t + kSlice);
        double speed = kCalibrationRefSeconds / calibrationRound();
        auto h0 = HostClock::now();
        stepping.advance(sim, next);
        double host = secondsBetween(h0, HostClock::now());
        r.windowHostSeconds += host;
        r.windowCalibratedSeconds += host * speed;
        t = next;
    }
    r.windowDelta = Counters::read(cl) - before;
    stepping.advance(sim, stopAt + drain);
    for (auto &loop : cl.loops) {
        loop.detach();
    }
    cl.loops.clear();

    r.delta = Counters::read(cl) - before;
    r.serverBusy = cl.serverNode.cpu().totalBusy();
    for (size_t k = 0; k < r.serverBusyIn.size(); ++k) {
        r.serverBusyIn[k] =
            cl.serverNode.cpu().busyIn(static_cast<sim::CpuCategory>(k));
    }
    r.blockedTasks = sim.blockedTaskCount();
    for (const auto &link : cl.network.links()) {
        r.maxLinkQueue = std::max(r.maxLinkQueue, link->maxQueueDepth());
    }
    for (auto &c : cl.clients) {
        const ClientTally &t = c->tally;
        // An op still in flight after the drain is a failed one; a
        // warm-up op wedged that long is counted as attempted too.
        r.attempted += t.attempted + (t.inFlight && !t.inFlightMeasured);
        r.ok += t.ok;
        r.errors += t.errors;
        r.mismatches += t.mismatches;
        r.outstanding += t.inFlight ? 1 : 0;
        r.finished += t.finished;
        r.okInWindow += t.okInWindow;
        r.finishedLatency += t.finishedLatency;
        r.latencies.insert(r.latencies.end(), t.latencies.begin(),
                           t.latencies.end());
    }

    // DX writes sit dirty in the server's data area until scavenged;
    // apply them, then every client's file must hold what it wrote. A
    // write the wire gave up on is lost without its issuer hearing of
    // it; that counts as a failed op. Any other loss is a wrong answer.
    cl.server->scavengeDirtyBlocks();
    for (auto &c : cl.clients) {
        auto bytes = cl.store.read(c->file, 0, kFileBytes);
        if (!bytes.ok() ||
            !matchesExpected(*c, bytes.value(),
                             static_cast<uint32_t>(kFileBytes))) {
            ++r.lostWrites;
        }
    }
    r.wireGaveUp = Counters::read(cl).sendFailures > 0;
    return r;
}

/** Op-stream seed of client 0 for workload seed @p seed; client i uses
 *  this plus i, and replica r shifts it by 64 r. */
uint64_t
streamSeedBase(uint64_t seed)
{
    return util::mix64(seed * 0x9e3779b97f4a7c15ull + 0x5eed);
}

/** FaultPlan seed of replica @p replica for workload seed @p seed. */
uint64_t
faultSeedFor(uint64_t seed, int replica)
{
    return util::mix64(seed ^ (0xfa17ull << 32) ^
                       static_cast<uint64_t>(replica));
}

/**
 * Quantile @p q of @p sorted, estimated as the mean of the samples
 * ranked within @p halfWidth of it. Saturated closed loops put latencies
 * on a lattice (hy_mix: 64 us steps, 4% of the samples on the median's
 * step), where a single order statistic lands on the same lattice point
 * for every seed; the band mean still moves with the data.
 */
double
bandQuantile(const std::vector<double> &sorted, double q, double halfWidth)
{
    if (sorted.empty()) {
        return 0;
    }
    auto n = static_cast<double>(sorted.size());
    auto lo = static_cast<size_t>(std::max(0.0, (q - halfWidth) * n));
    auto hi = static_cast<size_t>(std::ceil(std::min(1.0, q + halfWidth) * n));
    lo = std::min(lo, sorted.size() - 1);
    hi = std::clamp(hi, lo + 1, sorted.size());
    double sum = 0;
    for (size_t i = lo; i < hi; ++i) {
        sum += sorted[i];
    }
    return sum / static_cast<double>(hi - lo);
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    if (v.empty()) {
        return 0;
    }
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
perOp(double x, uint64_t ops)
{
    return ops ? x / static_cast<double>(ops) : 0.0;
}

/** Ordered metric list printed as the result's "metrics" object. */
struct MetricSet
{
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries;

    void
    add(std::string name, double value, std::string unit)
    {
        if (!std::isfinite(value)) {
            value = 0;
        }
        entries.push_back({std::move(name), value, std::move(unit)});
    }
};

/** Print the human table and the final JSON result line. */
void
printResult(const Workload &w, bool correct, uint64_t attempted,
            uint64_t failed, const MetricSet &m)
{
    std::printf("workload %s: attempted=%llu failed=%llu correct=%s\n",
                w.name, static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                correct ? "true" : "false");
    for (const auto &e : m.entries) {
        std::printf("  %-40s %16.6f %s\n", e.name.c_str(), e.value,
                    e.unit.c_str());
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    char buf[96];
    for (size_t i = 0; i < m.entries.size(); ++i) {
        const auto &e = m.entries[i];
        std::snprintf(buf, sizeof(buf), "%.17g", e.value);
        json += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " + buf +
                ", \"unit\": \"" + e.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// ----------------------------------------------------------------------
// Untraced run: end-to-end metrics
// ----------------------------------------------------------------------

int
runEndToEnd(const Workload &w, uint64_t seed, double seconds)
{
    int replicas = std::max(1, static_cast<int>(std::lround(
                                   w.replicasPerSecond * seconds)));
    std::vector<double> setups;
    std::vector<ReplicaResult> results;
    for (int rep = 0; rep < std::max(replicas, kSetupRepeats); ++rep) {
        double speed = kCalibrationRefSeconds / calibrationRound();
        auto h0 = HostClock::now();
        Cluster cl(w, faultSeedFor(seed, rep),
                   streamSeedBase(seed) + 64 * static_cast<uint64_t>(rep));
        setups.push_back(secondsBetween(h0, HostClock::now()) * speed);
        if (rep < replicas) {
            Stepping stepping;
            results.push_back(
                runReplica(cl, kWarmup, w.window, w.drain, stepping));
        }
    }
    double setup = median(setups);

    uint64_t attempted = 0, ok = 0, errors = 0, mismatches = 0,
             outstanding = 0, lost = 0, failed = 0;
    size_t blocked = 0;
    bool correct = true;
    double simSeconds = 0, serverBusyUs = 0, cellBytes = 0;
    double hostSeconds = 0;
    double calibratedSeconds = 0;
    uint64_t okInWindow = 0;
    std::vector<double> lat;
    for (const ReplicaResult &r : results) {
        attempted += r.attempted;
        ok += r.ok;
        errors += r.errors;
        mismatches += r.mismatches;
        outstanding += r.outstanding;
        blocked += r.blockedTasks;
        lost += r.lostWrites;
        failed += r.failed();
        correct = correct && r.correct();
        simSeconds += toSec(r.window);
        serverBusyUs += sim::toUsec(r.serverBusy);
        cellBytes += static_cast<double>(r.delta.cellsSent * kCellBytes);
        for (sim::Duration d : r.latencies) {
            lat.push_back(sim::toUsec(d));
        }
        hostSeconds += r.windowHostSeconds;
        calibratedSeconds += r.windowCalibratedSeconds;
        okInWindow += r.okInWindow;
    }
    std::sort(lat.begin(), lat.end());
    std::printf("host: %.1f ok ops per host s as timed, %.1f calibrated; "
                "host speed %.3f of the reference state\n",
                static_cast<double>(okInWindow) / hostSeconds,
                static_cast<double>(okInWindow) / calibratedSeconds,
                calibratedSeconds / hostSeconds);
    std::printf("setup: %zu clusters, median %.6f s; %d replica(s) x %.3f "
                "simulated s\n",
                setups.size(), setup, replicas, toSec(w.window));
    std::printf("ops: ok=%llu errors=%llu mismatches=%llu outstanding=%llu "
                "lost_writes=%llu blocked_tasks=%zu latency_samples=%zu\n",
                static_cast<unsigned long long>(ok),
                static_cast<unsigned long long>(errors),
                static_cast<unsigned long long>(mismatches),
                static_cast<unsigned long long>(outstanding),
                static_cast<unsigned long long>(lost), blocked, lat.size());

    MetricSet m;
    m.add("sim_ops_per_s", static_cast<double>(ok) / simSeconds, "1/s");
    m.add("latency_p50_us", bandQuantile(lat, 0.5, 0.05), "us");
    m.add("latency_p99_us", bandQuantile(lat, 0.99, 0.001), "us");
    m.add("server_cpu_us_per_op", perOp(serverBusyUs, ok), "us");
    m.add("net_bytes_per_op", perOp(cellBytes, ok), "B");
    m.add("ok_frac", perOp(static_cast<double>(attempted - failed), attempted),
          "frac");
    m.add("host_ops_per_s",
          static_cast<double>(okInWindow) / calibratedSeconds, "1/s");
    m.add("setup_s", setup, "s");
    m.add("peak_rss_mb", peakRssMb(), "MB");
    printResult(w, correct, attempted, failed, m);
    return 0;
}

// ----------------------------------------------------------------------
// Traced run: per-layer metrics
// ----------------------------------------------------------------------

/** Host ns per scheduleAt+step pair at a standing depth of @p depth. */
double
probeEventNs(size_t depth, double *recordsPerEvent)
{
    sim::Simulator sim;
    sim::Random rng(42);
    auto horizon = static_cast<int64_t>(std::max<size_t>(depth, 1) * 100);
    for (size_t i = 0; i < depth; ++i) {
        sim.scheduleAt(rng.uniformRange(1, horizon), [] {});
    }
    constexpr int kIters = 400000;
    uint64_t rec0 = sim.digest().records();
    auto h0 = HostClock::now();
    for (int i = 0; i < kIters; ++i) {
        sim.scheduleAt(sim.now() + rng.uniformRange(1, horizon), [] {});
        sim.step();
    }
    double ns = secondsBetween(h0, HostClock::now()) * 1e9 / kIters;
    *recordsPerEvent =
        static_cast<double>(sim.digest().records() - rec0) / kIters;
    return ns;
}

/** Host ns per digest record (mixRecord folds three records). */
double
probeDigestNs()
{
    sim::DeterminismDigest d;
    constexpr int kIters = 1000000;
    auto h0 = HostClock::now();
    for (int i = 0; i < kIters; ++i) {
        d.mixRecord(i, "exec", static_cast<uint64_t>(i) * 7);
    }
    double ns = secondsBetween(h0, HostClock::now()) * 1e9;
    if (d.value() == 0) {
        std::printf("digest probe: %llu\n",
                    static_cast<unsigned long long>(d.value()));
    }
    return ns / static_cast<double>(d.records());
}

/** Host ns per KB of util::crc32Ieee over @p frameBytes-sized frames. */
double
probeCrcNsPerKb(size_t frameBytes)
{
    frameBytes = std::max<size_t>(frameBytes, kCellPayload);
    std::vector<uint8_t> buf(frameBytes);
    for (size_t i = 0; i < buf.size(); ++i) {
        buf[i] = static_cast<uint8_t>(util::mix64(i));
    }
    size_t iters = std::max<size_t>(64, (32u << 20) / frameBytes);
    uint32_t acc = 0;
    auto h0 = HostClock::now();
    for (size_t i = 0; i < iters; ++i) {
        buf[i % frameBytes] ^= static_cast<uint8_t>(acc);
        acc ^= util::crc32Ieee(buf);
    }
    double ns = secondsBetween(h0, HostClock::now()) * 1e9;
    if (acc == 0x12345678u) {
        std::printf("crc probe: %u\n", acc);
    }
    return ns / (static_cast<double>(iters * frameBytes) / 1024.0);
}

/** Pooled mean of one engine op class across every engine. */
struct PooledMean
{
    double sum = 0;
    uint64_t count = 0;

    void
    add(const sim::Accumulator &a)
    {
        sum += a.sum();
        count += a.count();
    }

    double mean() const { return count ? sum / static_cast<double>(count) : 0; }
};

int
runTraced(const Workload &w, uint64_t seed)
{
    sim::Duration window = w.tracedWindow;
    uint64_t streams = streamSeedBase(seed);
    uint64_t faults = faultSeedFor(seed, 0);
    Stepping untracedStep;
    untracedStep.sampleEvery = sim::usec(20);
    Stepping tracedStep = untracedStep;

    // Reference pass: the same cluster and window, tracing off.
    ReplicaResult ref;
    {
        Cluster cl(w, faults, streams);
        ref = runReplica(cl, kWarmup, window, w.drain, untracedStep);
    }

    auto &rec = obs::TraceRecorder::instance();
    rec.clear();
    rec.setCapacity(4u << 20);
    Cluster cl(w, faults, streams);
    rec.enable(cl.sim);
    ReplicaResult r = runReplica(cl, kWarmup, window, w.drain, tracedStep);
    rec.disable();

    bool correct = r.correct() && ref.correct();
    uint64_t failed = r.failed();
    // The traced pass must simulate exactly what the untraced one did.
    bool sameSim = r.ok == ref.ok && r.delta.events == ref.delta.events;
    if (!sameSim) {
        std::printf("FAIL: tracing changed the simulation (ok %llu vs %llu)\n",
                    static_cast<unsigned long long>(r.ok),
                    static_cast<unsigned long long>(ref.ok));
        correct = false;
    }
    const Counters &k = ref.delta;
    uint64_t ops = ref.ok;
    uint64_t windowOps = ref.okInWindow;

    // Critical paths of every rmem op, checked against the engines.
    // The engines time successful ops only; an op that failed ends its
    // trace with the error as detail, so leave those out here too.
    std::set<uint64_t> failedOps;
    for (const obs::TraceEvent &e : rec.events()) {
        if (e.phase == obs::TracePhase::kAsyncEnd && e.comp == "rmem" &&
            !e.detail.empty()) {
            failedOps.insert(e.id);
        }
    }
    obs::CriticalPathAnalyzer analyzer;
    auto paths = analyzer.analyze(rec.events());
    std::erase_if(paths, [&failedOps](const obs::OpCriticalPath &p) {
        return failedOps.count(p.id) != 0;
    });
    auto summary = obs::CriticalPathAnalyzer::summarize(paths);
    std::map<std::string, PooledMean> engineTotal;
    cl.forEachEngine([&engineTotal](rmem::RmemEngine &e) {
        const rmem::EngineMetrics &em = e.metrics();
        engineTotal["read"].add(em.read.totalUs);
        engineTotal["write"].add(em.write.totalUs);
        engineTotal["cas"].add(em.cas.totalUs);
        engineTotal["vector"].add(em.vector.totalUs);
    });
    obs::PhaseTotals rmemTotals;
    size_t rmemOps = 0;
    double worstAgreement = 0;
    for (const auto &[name, pm] : engineTotal) {
        auto it = summary.find(name);
        size_t n = it == summary.end() ? 0 : it->second.count;
        if (pm.count == 0 && n == 0) {
            continue;
        }
        double analyzerUs =
            n ? sim::toUsec(it->second.totals.total()) /
                    static_cast<double>(n)
              : 0;
        double gap = std::abs(analyzerUs - pm.mean()) /
                     std::max(pm.mean(), 1e-9);
        std::printf("critpath %-7s n=%zu/%llu analyzer %.3f us engine %.3f us "
                    "(%.4f%%)\n",
                    name.c_str(), n, static_cast<unsigned long long>(pm.count),
                    analyzerUs, pm.mean(), 100 * gap);
        worstAgreement = std::max(worstAgreement, gap);
        if (n != pm.count) {
            worstAgreement = std::max(worstAgreement, 1.0);
        }
        if (it != summary.end()) {
            rmemTotals += it->second.totals;
            rmemOps += n;
        }
    }
    for (const obs::OpCriticalPath &p : paths) {
        if (p.totals.total() != p.latency()) {
            worstAgreement = std::max(worstAgreement, 1.0);
        }
    }
    if (worstAgreement > 0.01 || rec.dropped() > 0) {
        std::printf("FAIL: critical paths disagree with the engines "
                    "(worst %.4f, dropped %llu)\n",
                    worstAgreement,
                    static_cast<unsigned long long>(rec.dropped()));
        correct = false;
    }

    // DFS op latency from the benchmark's own spans.
    std::array<std::vector<double>, static_cast<size_t>(Kind::kCount)> spans;
    for (const obs::TraceEvent &e : rec.events()) {
        if (e.phase != obs::TracePhase::kSpan || e.comp != "bench" ||
            e.dur < 0) {
            continue;
        }
        for (size_t i = 0; i < kKindNames.size(); ++i) {
            if (e.name == kKindNames[i]) {
                spans[i].push_back(sim::toUsec(e.dur));
            }
        }
    }

    std::printf("dfs span samples:");
    for (size_t i = 0; i < spans.size(); ++i) {
        std::printf(" %s=%zu", kKindNames[i], spans[i].size());
    }
    std::printf("\n");

    // Host time over the window alone: traced vs untraced, and the split
    // by probe. Like host_ops_per_s, every host time here is scaled to
    // the reference host speed measured next to it.
    const Counters &kw = ref.windowDelta;
    double hostNsPerOp =
        perOp(ref.windowCalibratedSeconds * 1e9, windowOps);
    double overhead =
        r.windowCalibratedSeconds / ref.windowCalibratedSeconds - 1.0;
    double eventsPerOp = perOp(static_cast<double>(kw.events), windowOps);
    double meanPending =
        untracedStep.samples
            ? untracedStep.pendingSum / static_cast<double>(untracedStep.samples)
            : 0;
    double schedRecordsPerEvent = 0;
    auto speed = [] { return kCalibrationRefSeconds / calibrationRound(); };
    double eventNs = speed() * probeEventNs(static_cast<size_t>(meanPending),
                                            &schedRecordsPerEvent);
    double digestNs = speed() * probeDigestNs();
    double frameBytes = perOp(static_cast<double>(kw.wireBytes), kw.msgs);
    double crcNsPerKb =
        speed() * probeCrcNsPerKb(static_cast<size_t>(frameBytes));
    // Frames are CRC'd once when sent and once when reassembled.
    double crcKbPerOp = perOp(2.0 * static_cast<double>(kw.cellsSent) *
                                  kCellPayload / 1024.0,
                              windowOps);
    double schedNs = eventsPerOp * eventNs;
    double extraRecords = std::max(
        0.0, perOp(static_cast<double>(kw.digestRecords), windowOps) -
                 eventsPerOp * schedRecordsPerEvent);
    double digestOpNs = extraRecords * digestNs;
    double crcNs = crcKbPerOp * crcNsPerKb;

    double simSeconds = toSec(ref.window);
    std::printf("traced window %.3f s: %llu ok ops, %zu trace events, "
                "%zu rmem critical paths, blocked_tasks=%zu, peak rss "
                "%.1f MB\n",
                simSeconds, static_cast<unsigned long long>(r.ok),
                rec.eventCount(), rmemOps, r.blockedTasks, peakRssMb());

    MetricSet m;
    m.add("sim.events_per_op", eventsPerOp, "count");
    m.add("sim.peak_pending_events",
          static_cast<double>(untracedStep.peakPending), "count");
    m.add("sim.cancelled_pending_frac",
          untracedStep.samples ? untracedStep.cancelledFracSum /
                                     static_cast<double>(untracedStep.samples)
                               : 0,
          "frac");
    m.add("sim.host_ns_per_event", eventNs, "ns");
    m.add("sim.digest_ns_per_record", digestNs, "ns");
    m.add("sim.blocked_tasks", static_cast<double>(ref.blockedTasks), "count");
    m.add("util.crc_ns_per_kb", crcNsPerKb, "ns");
    m.add("net.cells_per_op", perOp(static_cast<double>(k.cellsSent), ops),
          "count");
    m.add("net.link.max_queue_cells", static_cast<double>(ref.maxLinkQueue),
          "count");
    m.add("net.fault_drops_per_op",
          perOp(static_cast<double>(k.faultDrops), ops), "count");
    m.add("mem.server_cpu.busy_us_per_op",
          perOp(sim::toUsec(ref.serverBusy), ops), "us");
    static constexpr std::array<const char *, 6> kCpuNames = {
        "data_receive", "control_transfer", "proc_invoke",
        "data_reply",   "proc_exec",        "other"};
    for (size_t i = 0; i < kCpuNames.size(); ++i) {
        m.add(std::string("mem.server_cpu.") + kCpuNames[i] + "_frac",
              static_cast<double>(ref.serverBusyIn[i]) /
                  static_cast<double>(std::max<sim::Duration>(ref.serverBusy,
                                                              1)),
              "frac");
    }
    PooledMean opMean;
    for (const auto &[name, pm] : engineTotal) {
        opMean.sum += pm.sum;
        opMean.count += pm.count;
    }
    m.add("rmem.reads_per_op", perOp(static_cast<double>(k.reads), ops),
          "count");
    m.add("rmem.writes_per_op", perOp(static_cast<double>(k.writes), ops),
          "count");
    m.add("rmem.vectors_per_op", perOp(static_cast<double>(k.vectors), ops),
          "count");
    m.add("rmem.vector_subops_per_vector",
          perOp(static_cast<double>(k.vectorSubOps), k.vectors), "count");
    m.add("rmem.op.mean_us", opMean.mean(), "us");
    m.add("rmem.vector.mean_us", engineTotal["vector"].mean(), "us");
    m.add("rmem.timeouts", static_cast<double>(k.timeouts), "count");
    m.add("rmem.naks", static_cast<double>(k.naks), "count");
    m.add("rmem.wire.msgs_per_op", perOp(static_cast<double>(k.msgs), ops),
          "count");
    m.add("rmem.wire.retransmits_per_msg",
          perOp(static_cast<double>(k.retransmits), k.msgs), "count");
    m.add("rmem.wire.send_failures", static_cast<double>(k.sendFailures),
          "count");
    m.add("rmem.wire.acks_per_msg",
          perOp(static_cast<double>(k.acks), k.msgs), "count");
    m.add("rmem.wire.fragments_per_msg",
          perOp(static_cast<double>(k.fragments), k.msgs), "count");
    m.add("rpc.hy_calls_per_op", perOp(static_cast<double>(k.hyCalls), ops),
          "count");
    for (size_t i = 0; i < spans.size(); ++i) {
        // DX's null is a no-op with nothing to time.
        if (static_cast<Kind>(i) == Kind::kNull) {
            continue;
        }
        // A class may have a few dozen samples on a cost lattice (every
        // 8 KB DX write costs the same), so report the mean of the
        // middle half, which still moves with the data.
        std::sort(spans[i].begin(), spans[i].end());
        m.add(std::string("dfs.") + kKindNames[i] + ".midmean_us",
              bandQuantile(spans[i], 0.5, 0.25), "us");
    }
    m.add("dfs.dx.fallback_frac", perOp(static_cast<double>(k.dxMisses), ops),
          "frac");
    m.add("dfs.dx.window_shrinks", static_cast<double>(k.windowShrinks),
          "count");
    // The phases as shares of the mean rmem critical path (a phase can
    // be structurally absent: a non-blocking write's path ends at its
    // issuer, so hy_mix has no wire or controller time).
    double pathNs = static_cast<double>(std::max<sim::Duration>(
        rmemTotals.total(), 1));
    m.add("obs.critpath.total_us",
          sim::toUsec(rmemTotals.total()) /
              static_cast<double>(std::max<size_t>(rmemOps, 1)),
          "us");
    m.add("obs.critpath.software_frac",
          static_cast<double>(rmemTotals.software) / pathNs, "frac");
    m.add("obs.critpath.wire_frac",
          static_cast<double>(rmemTotals.wire) / pathNs, "frac");
    m.add("obs.critpath.controller_frac",
          static_cast<double>(rmemTotals.controller) / pathNs, "frac");
    m.add("obs.critpath.queueing_frac",
          static_cast<double>(rmemTotals.queueing) / pathNs, "frac");
    m.add("obs.critpath.worst_disagreement_frac", worstAgreement, "frac");
    m.add("obs.trace_overhead_frac", overhead, "frac");
    m.add("host.ns_per_op", hostNsPerOp, "ns");
    m.add("host.sched_ns_per_op", schedNs, "ns");
    m.add("host.digest_ns_per_op", digestOpNs, "ns");
    m.add("host.crc_ns_per_op", crcNs, "ns");
    m.add("host.residual_ns_per_op",
          hostNsPerOp - schedNs - digestOpNs - crcNs, "ns");
    printResult(w, correct, r.attempted, failed, m);
    rec.clear();
    return 0;
}

// ----------------------------------------------------------------------
// Self-test: bench_scaling_clients' n8 rows
// ----------------------------------------------------------------------

int
runSelfTest()
{
    std::printf("{");
    const char *sep = "";
    for (const Workload &w : {kWorkloads[0], kWorkloads[1]}) {
        constexpr sim::Duration kWindow = 2 * sim::kSecond;
        Cluster cl(w, 1, 1000);
        cl.sharedTargets = true;
        Stepping stepping;
        ReplicaResult r =
            runReplica(cl, 0, kWindow, sim::msec(200), stepping);
        double secs = toSec(kWindow);
        double ops = static_cast<double>(r.finished) / secs;
        double util = static_cast<double>(r.serverBusy) /
                      static_cast<double>(kWindow);
        double latMs =
            r.finished ? sim::toMsec(r.finishedLatency /
                                     static_cast<sim::Duration>(r.finished))
                       : 0;
        // Clients overwrite each other's files here, so only errors and
        // wedged ops count as failures.
        const char *key = w.dx ? "dx" : "hy";
        std::printf("%s\"n8.%s.ops_per_sec\": %.17g, \"n8.%s.server_util\": "
                    "%.17g, \"n8.%s.mean_latency_ms\": %.17g, "
                    "\"n8.%s.failed\": %llu",
                    sep, key, ops, key, util, key, latMs, key,
                    static_cast<unsigned long long>(r.errors + r.outstanding));
        sep = ", ";
    }
    std::printf("}\n");
    return 0;
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: remora_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n"
                 "           [--window-ms MS] [--drop-rate P (dx_mix_lossy)]\n"
                 "       remora_perfbench --selftest\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    // dx_mix_lossy's wire logs thousands of abandonment warnings a run;
    // its counters carry the same facts without the stderr traffic.
    sim::Logger::setLevel(sim::LogLevel::kError);
    std::string workload;
    long long seed = -1;
    double seconds = -1;
    int traced = -1;
    double windowMs = -1;
    double dropRate = -1;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--selftest") {
            return runSelfTest();
        }
        if (i + 1 >= argc) {
            usage();
        }
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            workload = v;
        } else if (a == "--seed") {
            seed = std::strtoll(v.c_str(), &end, 10);
        } else if (a == "--seconds") {
            seconds = std::strtod(v.c_str(), &end);
        } else if (a == "--trace") {
            traced = static_cast<int>(std::strtol(v.c_str(), &end, 10));
        } else if (a == "--window-ms") {
            windowMs = std::strtod(v.c_str(), &end);
        } else if (a == "--drop-rate") {
            dropRate = std::strtod(v.c_str(), &end);
        } else {
            usage();
        }
        if (end != nullptr && *end != '\0') {
            usage();
        }
    }
    const Workload *found = nullptr;
    for (const Workload &cand : kWorkloads) {
        if (workload == cand.name) {
            found = &cand;
        }
    }
    if (found == nullptr || seed < 0 || !(seconds > 0) ||
        (traced != 0 && traced != 1) || windowMs == 0 ||
        (dropRate >= 0 && !found->lossy) || dropRate > 1) {
        usage();
    }
    Workload w = *found;
    if (windowMs > 0) {
        w.window = sim::msec(windowMs);
        w.tracedWindow = w.window;
    }
    if (dropRate >= 0) {
        w.dropRate = dropRate;
    }
    auto s = static_cast<uint64_t>(seed);
    return traced ? runTraced(w, s) : runEndToEnd(w, s, seconds);
}
