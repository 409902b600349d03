/**
 * @file
 * The discrete-event simulation engine.
 *
 * A Simulator owns a time-ordered event queue and the current simulated
 * clock. Components schedule callbacks at future instants; run() pops
 * events in (time, insertion) order until the queue drains or a limit is
 * reached. Events scheduled for the same instant execute in insertion
 * order, which makes causality deterministic and test output stable.
 *
 * Same-instant ordering is *pluggable*: whenever more than one event is
 * ready at the minimal timestamp, the ready set is offered to the
 * installed SchedulePolicy, which picks the one to run. Three policies
 * ship with the engine:
 *
 *  - insertion order (the default, policy-less fast path);
 *  - PerturbPolicy (setPerturbation / REMORA_PERTURB): a seeded
 *    pseudo-random tie-break that exercises orderings the model does
 *    not enforce while staying fully deterministic per seed;
 *  - RecordReplayPolicy: records the sequence of choice indices taken
 *    at decision points, or replays a recorded choice vector — the
 *    primitive the schedule explorer (sim/explorer.h) is built on.
 *
 * Every consulted choice is folded into the DeterminismDigest, so a
 * replayed choice vector reproduces a run bit-identically.
 *
 * Events carry a dependency hint (DepHint) captured from the ambient
 * hint at schedule time: which channel, sync word, or segment range the
 * event's causal chain is acting on. Hints never affect execution; the
 * explorer uses them to prune commuting interleavings (sleep sets).
 *
 * The simulator also owns a WaitGraph (sim/waitgraph.h) fed by the
 * sync/notification layers, distinguishing "queue drained because all
 * done" from "drained with coroutines blocked forever", and halting
 * schedules that deadlock while still generating backoff-timer events.
 */
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "sim/determinism.h"
#include "sim/time.h"
#include "sim/waitgraph.h"

namespace remora::sim {

/**
 * Opaque handle identifying a scheduled event, usable for cancellation:
 * (generation << 32) | slot. Generations start at 1, so a handle is
 * never 0 and callers may use 0 as "no event".
 */
using EventId = uint64_t;

class Simulator;

/**
 * What an event's causal chain is operating on, for commutativity
 * pruning. kNone means "unknown" and is conservatively dependent with
 * everything. Channel hints are keyed by channel identity; memory hints
 * (sync words, segment ranges) by packed (node, segment) plus a byte
 * range, so a sync word and a data write to the same word conflict.
 */
struct DepHint
{
    enum class Kind : uint8_t
    {
        kNone = 0,
        kChannel,
        kSyncWord,
        kSegRange,
    };

    Kind kind = Kind::kNone;
    uint64_t key = 0;
    uint32_t lo = 0;
    uint32_t hi = 0;

    /** Hint for a notification-channel operation. */
    static DepHint
    channel(uint64_t key)
    {
        return DepHint{Kind::kChannel, key, 0, 0};
    }

    /** Hint for a sync-word access (the aligned 4-byte word at offset). */
    static DepHint
    syncWord(uint64_t key, uint32_t offset)
    {
        return DepHint{Kind::kSyncWord, key, offset, offset + 4};
    }

    /** Hint for a data access to [lo, hi) of a segment. */
    static DepHint
    segRange(uint64_t key, uint32_t lo, uint32_t hi)
    {
        return DepHint{Kind::kSegRange, key, lo, hi};
    }

    /** True when the hint names a specific object. */
    bool known() const { return kind != Kind::kNone; }

    /**
     * May the two hinted operations fail to commute? Unknown hints are
     * always dependent; channel ops conflict on the same channel; memory
     * ops conflict when their byte ranges overlap in the same segment.
     */
    static bool
    dependent(const DepHint &a, const DepHint &b)
    {
        if (a.kind == Kind::kNone || b.kind == Kind::kNone) {
            return true;
        }
        bool achan = a.kind == Kind::kChannel;
        bool bchan = b.kind == Kind::kChannel;
        if (achan != bchan) {
            return false;
        }
        if (achan) {
            return a.key == b.key;
        }
        return a.key == b.key && a.lo < b.hi && b.lo < a.hi;
    }
};

/** One runnable alternative offered to a SchedulePolicy. */
struct ReadyChoice
{
    /** The event's insertion sequence number: stable across replays of
     *  the same workload, unlike the slot-recycling EventId handle. */
    uint64_t id = 0;
    DepHint hint;
};

/**
 * Same-instant tie-break strategy. choose() is consulted only when two
 * or more events are ready at the minimal timestamp (a *decision
 * point*); the ready set is ordered by insertion (id ascending).
 */
class SchedulePolicy
{
  public:
    virtual ~SchedulePolicy() = default;

    /** Pick the index of the event to run next. */
    virtual size_t choose(Simulator &sim,
                          const std::vector<ReadyChoice> &ready) = 0;
};

/**
 * The seeded pseudo-random tie-break behind setPerturbation: runs the
 * ready event with the smallest splitmix64-mixed key, reproducing the
 * historical perturbed total order exactly.
 */
class PerturbPolicy final : public SchedulePolicy
{
  public:
    explicit PerturbPolicy(uint64_t seed) : seed_(seed) {}

    size_t choose(Simulator &sim,
                  const std::vector<ReadyChoice> &ready) override;

  private:
    uint64_t seed_;
};

/**
 * Replay a recorded choice vector, then fall through to a fallback
 * chooser (insertion order when none given). Records every choice it
 * makes, so a partial prefix extends into a full replayable vector.
 */
class RecordReplayPolicy final : public SchedulePolicy
{
  public:
    /** Chooser for decision points beyond the prefix. */
    using Fallback =
        std::function<size_t(const std::vector<ReadyChoice> &, size_t depth)>;

    explicit RecordReplayPolicy(std::vector<uint32_t> prefix = {},
                                Fallback fallback = {})
        : prefix_(std::move(prefix)), fallback_(std::move(fallback))
    {}

    size_t choose(Simulator &sim,
                  const std::vector<ReadyChoice> &ready) override;

    /** Every choice made so far (prefix + fallback choices). */
    const std::vector<uint32_t> &recorded() const { return recorded_; }

    /** Decision points consumed so far. */
    size_t depth() const { return depth_; }

  private:
    std::vector<uint32_t> prefix_;
    Fallback fallback_;
    std::vector<uint32_t> recorded_;
    size_t depth_ = 0;
};

/** Discrete-event scheduler and simulated clock. */
class Simulator
{
  public:
    /** Type of all event callbacks. */
    using Callback = std::function<void()>;

    /** Applies the REMORA_PERTURB environment seed when set. */
    Simulator();
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Time now() const { return now_; }

    /**
     * Schedule @p fn to run @p delay after now.
     *
     * The event inherits the ambient dependency hint (see HintScope).
     *
     * @param delay Non-negative delay; zero means "later this instant".
     * @param fn Callback to invoke.
     * @return Handle usable with cancel().
     */
    EventId schedule(Duration delay, Callback fn);

    /**
     * Schedule @p fn at absolute time @p when (>= now).
     *
     * @return Handle usable with cancel().
     */
    EventId scheduleAt(Time when, Callback fn);

    /**
     * Cancel a previously scheduled event.
     *
     * Cancelling an event that already ran (or was already cancelled) is
     * a harmless no-op, which lets timeout guards race completion safely
     * — even when the handle's slot now holds a newer event. The
     * callback, and whatever it captured, is destroyed at once.
     */
    void cancel(EventId id);

    /**
     * Run the next pending event, if any.
     *
     * @return True if an event ran; false when the queue is empty, the
     *         step budget is exhausted, or a deadlock halted the run.
     */
    bool step();

    /**
     * Resume @p h as a new event at the current instant. The CPU wait's
     * completion calls this as its last action.
     *
     * Inside run(), when no live event is ready at now(), the step
     * budget is not reached and no deadlock halt applies, the event
     * that schedule(0) would queue is necessarily the next one to run.
     * It then runs in place: it takes the next sequence number, folds
     * the same schedule and execute records and counts as one executed
     * event, so the digest, eventsProcessed() and run()'s count equal
     * those of the queued path. Otherwise, and always under a bare
     * step(), which must run exactly one event, it is queued with
     * schedule(0).
     */
    void resumeNow(std::coroutine_handle<> h);

    /** resumeNow() calls that ran in place (diagnostic; they are
     *  counted in eventsProcessed() like any other event). */
    uint64_t resumedInPlace() const { return resumedInPlace_; }

    /**
     * Run events until the queue drains, simulated time would exceed
     * @p limit, the step budget runs out, or a detected deadlock halts
     * execution.
     *
     * Events at exactly @p limit still run. The clock does not advance
     * past the last executed event.
     *
     * @return Number of events executed by this call.
     */
    uint64_t run(Time limit = kTimeMax);

    /** Total events executed over the simulator's lifetime. */
    uint64_t eventsProcessed() const { return processed_; }

    /**
     * Entries in the event heap: live events plus cancelled ones whose
     * tombstones have not been compacted away yet. Once tombstones
     * exceed a floor of 64 and outnumber the live entries, cancel()
     * drops them all, so right after any cancel() this is at most
     * 2 * livePendingEvents() + 64.
     */
    size_t pendingEvents() const { return heap_.size(); }

    /** Pending events that are still live (not cancelled). */
    size_t livePendingEvents() const { return live_; }

    /**
     * Fold a component-level (now, kind, actor) record into the
     * determinism digest. Layers call this at protocol milestones
     * (op issued, cell delivered, request served) so the digest covers
     * semantic activity as well as raw event-queue churn.
     */
    void
    noteDigest(std::string_view kind, uint64_t actor)
    {
        digest_.mixRecord(now_, kind, actor);
    }

    /** As above, for string-identified actors (names, files). */
    void
    noteDigest(std::string_view kind, std::string_view actor)
    {
        digest_.mixU64(static_cast<uint64_t>(now_));
        digest_.mix(kind);
        digest_.mix(actor);
    }

    /**
     * The running digest of all activity: every schedule/cancel/execute
     * plus every noteDigest record and every policy choice. Two runs of
     * the same workload must produce equal values; see
     * tests/test_determinism.cc.
     */
    const DeterminismDigest &digest() const { return digest_; }

    /**
     * Set the schedule-perturbation seed. Zero (the default) restores
     * exact insertion-order tie-breaking — bit-identical to a simulator
     * that never called this. A non-zero seed reorders same-timestamp
     * events pseudo-randomly (deterministically per seed) and folds a
     * "perturb" record into the digest so perturbed and unperturbed
     * runs can never be confused.
     *
     * Must be called before any event is scheduled, so a run's whole
     * schedule is governed by one seed.
     */
    void setPerturbation(uint64_t seed);

    /** The active perturbation seed (0 = insertion order). */
    uint64_t perturbation() const { return perturbSeed_; }

    /**
     * Install @p policy (borrowed, not owned) as the same-instant
     * tie-break; replaces any perturbation policy. nullptr restores
     * insertion order.
     */
    void setPolicy(SchedulePolicy *policy);

    /** The active policy (nullptr = insertion order). */
    SchedulePolicy *policy() const { return policy_; }

    /**
     * Policy consultations so far: ready sets of two or more events
     * offered to an installed policy. Always 0 without a policy, since
     * insertion order then runs the heap top without gathering ties.
     */
    uint64_t decisionPoints() const { return decisions_; }

    /**
     * Cap the number of further step()s this simulator will execute
     * (0 = unlimited). Exploration uses this to cut off runaway or
     * livelocked schedules.
     */
    void setStepBudget(uint64_t steps);

    /** True when the step budget stopped execution with events pending. */
    bool budgetExhausted() const { return budgetHit_; }

    /**
     * When true (the default), step() refuses to run once the wait-for
     * graph records a deadlock cycle — spinning lock acquisitions keep
     * the queue busy forever otherwise.
     */
    void setHaltOnDeadlock(bool halt) { haltOnDeadlock_ = halt; }

    /** True when a detected deadlock stopped execution. */
    bool deadlockHalted() const;

    /** The wait-for graph fed by the sync and notification layers. */
    WaitGraph &waitGraph() { return graph_; }
    const WaitGraph &waitGraph() const { return graph_; }

    /**
     * Coroutines parked with no wakeup pending, excluding daemon
     * service loops. A drained queue with this non-zero means "blocked
     * forever", not "all done" — tests assert zero at teardown.
     */
    size_t blockedTaskCount() const { return graph_.blockedCount(); }

    /**
     * True when the run genuinely completed: no live events pending and
     * no coroutine blocked forever.
     */
    bool
    allDone() const
    {
        return live_ == 0 && blockedTaskCount() == 0;
    }

    /** The ambient dependency hint inherited by scheduled events. */
    const DepHint &currentHint() const { return currentHint_; }

    /**
     * Override the ambient dependency hint for a scope. Events
     * scheduled inside the scope — and, transitively, events scheduled
     * while *they* execute — carry @p hint. Use only in non-coroutine
     * callback contexts: a scope held across co_await would leak the
     * hint to unrelated events.
     */
    class HintScope
    {
      public:
        HintScope(Simulator &sim, const DepHint &hint)
            : sim_(sim), prev_(sim.currentHint_)
        {
            sim.currentHint_ = hint;
        }
        HintScope(const HintScope &) = delete;
        HintScope &operator=(const HintScope &) = delete;
        ~HintScope() { sim_.currentHint_ = prev_; }

      private:
        Simulator &sim_;
        DepHint prev_;
    };

  private:
    /**
     * Heap entry. It is live while slots_[slot].seq == seq; a cancelled
     * event leaves its entry behind as a tombstone.
     */
    struct Entry
    {
        Time when;
        uint64_t seq;
        uint32_t slot;
        // Ordered min-first by (when, seq): insertion order per instant.
        bool
        before(const Entry &o) const
        {
            return when != o.when ? when < o.when : seq < o.seq;
        }
    };

    /** One pending-event slot, recycled through freeSlots_. */
    struct Slot
    {
        uint64_t seq = 0; ///< Occupant's insertion sequence; 0 = free.
        uint32_t generation = 1; ///< Bumped on every release.
        Callback fn;
        DepHint hint;
    };

    bool isLive(const Entry &e) const { return slots_[e.slot].seq == e.seq; }

    /** 4-ary min-heap over heap_, ordered by Entry::before. */
    void heapPush(Entry e);
    Entry heapPop();
    void siftDown(size_t i, Entry e);

    /** Pop tombstones off the heap top; true if a live event remains. */
    bool dropDeadTop();

    /** Drop every tombstone and rebuild the heap in O(n). */
    void compact();

    /** Free @p slot, staling its handles; returns its callback. */
    Callback take(uint32_t slot);

    /** Run the live event @p e (already popped from the heap). */
    void execute(Entry e);

    Time now_ = 0;
    uint64_t nextSeq_ = 1;
    size_t live_ = 0;
    uint64_t processed_ = 0;
    uint64_t resumedInPlace_ = 0;
    uint64_t perturbSeed_ = 0;
    uint64_t decisions_ = 0;
    uint64_t stepBudgetEnd_ = 0; ///< processed_ ceiling; 0 = unlimited.
    size_t dead_ = 0; ///< Tombstones in heap_.
    bool budgetHit_ = false;
    bool haltOnDeadlock_ = true;
    bool inRun_ = false; ///< run() is executing; resumeNow() may go in place.
    DeterminismDigest digest_;
    std::vector<Entry> heap_;
    std::vector<Slot> slots_;
    std::vector<uint32_t> freeSlots_;
    SchedulePolicy *policy_ = nullptr;
    std::unique_ptr<PerturbPolicy> ownedPerturb_;
    DepHint currentHint_;
    WaitGraph graph_;
    // Scratch buffers reused across policy decision points.
    std::vector<Entry> batch_;
    std::vector<ReadyChoice> ready_;
};

} // namespace remora::sim
