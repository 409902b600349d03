#include "sim/simulator.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "util/panic.h"

namespace remora::sim {

namespace {

/** Children per node of the event heap. */
constexpr size_t kHeapArity = 4;

/** Tombstones tolerated before cancel() considers compacting. */
constexpr size_t kCompactFloor = 64;

/** splitmix64: a well-mixed 64-bit permutation for tie-break keys. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** REMORA_PERTURB, parsed once per process (0 when unset/invalid). */
uint64_t
envPerturbSeed()
{
    static const uint64_t seed = [] {
        const char *e = std::getenv("REMORA_PERTURB");
        return e != nullptr ? std::strtoull(e, nullptr, 0) : 0ull;
    }();
    return seed;
}

} // namespace

size_t
PerturbPolicy::choose(Simulator &, const std::vector<ReadyChoice> &ready)
{
    // Same key function the perturbed heap historically ordered by, so
    // a seeded run's total order (and digest) is unchanged: among the
    // ready set, the minimal (mixed key, id) runs first.
    size_t best = 0;
    uint64_t bestKey = mix64(seed_ ^ (ready[0].id * 0x9e3779b97f4a7c15ull));
    for (size_t i = 1; i < ready.size(); ++i) {
        uint64_t key = mix64(seed_ ^ (ready[i].id * 0x9e3779b97f4a7c15ull));
        if (key < bestKey ||
            (key == bestKey && ready[i].id < ready[best].id)) {
            best = i;
            bestKey = key;
        }
    }
    return best;
}

size_t
RecordReplayPolicy::choose(Simulator &, const std::vector<ReadyChoice> &ready)
{
    size_t idx;
    if (depth_ < prefix_.size()) {
        idx = prefix_[depth_];
        if (idx >= ready.size()) {
            // A prefix recorded against this workload always stays in
            // range; going out of range means the workload is not
            // deterministic between runs.
            REMORA_FATAL("RecordReplayPolicy: choice prefix diverged from "
                         "the workload (nondeterministic workload?)");
        }
    } else if (fallback_) {
        idx = fallback_(ready, depth_);
        REMORA_ASSERT(idx < ready.size());
    } else {
        idx = 0;
    }
    recorded_.push_back(static_cast<uint32_t>(idx));
    ++depth_;
    return idx;
}

Simulator::Simulator()
{
    uint64_t seed = envPerturbSeed();
    if (seed != 0) {
        setPerturbation(seed);
    }
}

void
Simulator::setPerturbation(uint64_t seed)
{
    // A run's whole schedule is governed by one seed; switching with
    // events pending would make the digest meaningless.
    REMORA_ASSERT(heap_.empty());
    if (seed == perturbSeed_) {
        return;
    }
    perturbSeed_ = seed;
    if (seed != 0) {
        // Perturbed runs are replayable per seed, but must never alias
        // an unperturbed run's digest.
        digest_.mixRecord(now_, "perturb", seed);
        ownedPerturb_ = std::make_unique<PerturbPolicy>(seed);
        policy_ = ownedPerturb_.get();
    } else {
        if (policy_ == ownedPerturb_.get()) {
            policy_ = nullptr;
        }
        ownedPerturb_.reset();
    }
}

void
Simulator::setPolicy(SchedulePolicy *policy)
{
    policy_ = policy;
    if (policy != nullptr) {
        ownedPerturb_.reset();
    }
}

void
Simulator::setStepBudget(uint64_t steps)
{
    stepBudgetEnd_ = steps == 0 ? 0 : processed_ + steps;
    budgetHit_ = false;
}

bool
Simulator::deadlockHalted() const
{
    return haltOnDeadlock_ && !graph_.deadlocks().empty();
}

EventId
Simulator::schedule(Duration delay, Callback fn)
{
    REMORA_ASSERT(delay >= 0);
    return scheduleAt(now_ + delay, std::move(fn));
}

EventId
Simulator::scheduleAt(Time when, Callback fn)
{
    REMORA_ASSERT(when >= now_);
    uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        REMORA_ASSERT(slots_.size() < UINT32_MAX);
        slot = static_cast<uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    uint64_t seq = nextSeq_++;
    Slot &s = slots_[slot];
    s.seq = seq;
    s.fn = std::move(fn);
    s.hint = currentHint_;
    ++live_;
    heapPush(Entry{when, seq, slot});
    digest_.mixTagged(when, DeterminismDigest::kTagSched, seq);
    return static_cast<uint64_t>(s.generation) << 32 | slot;
}

Simulator::Callback
Simulator::take(uint32_t slot)
{
    Slot &s = slots_[slot];
    Callback fn = std::exchange(s.fn, nullptr);
    s.seq = 0;
    // Skip 0 on wrap-around so a handle is never 0.
    if (++s.generation == 0) {
        s.generation = 1;
    }
    freeSlots_.push_back(slot);
    --live_;
    return fn;
}

void
Simulator::heapPush(Entry e)
{
    heap_.push_back(e);
    size_t i = heap_.size() - 1;
    while (i > 0) {
        size_t parent = (i - 1) / kHeapArity;
        if (!e.before(heap_[parent])) {
            break;
        }
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = e;
}

void
Simulator::siftDown(size_t i, Entry e)
{
    // Fill the hole at i with e, pulling the first child up while it
    // precedes e.
    size_t n = heap_.size();
    for (;;) {
        size_t first = i * kHeapArity + 1;
        if (first >= n) {
            break;
        }
        size_t best = first;
        size_t end = std::min(first + kHeapArity, n);
        for (size_t c = first + 1; c < end; ++c) {
            if (heap_[c].before(heap_[best])) {
                best = c;
            }
        }
        if (!heap_[best].before(e)) {
            break;
        }
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = e;
}

Simulator::Entry
Simulator::heapPop()
{
    Entry top = heap_.front();
    Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        siftDown(0, last);
    }
    return top;
}

bool
Simulator::dropDeadTop()
{
    while (!heap_.empty() && !isLive(heap_.front())) {
        heapPop();
        --dead_;
    }
    return !heap_.empty();
}

void
Simulator::compact()
{
    // Keys never change, so the rebuilt heap pops in the same order.
    std::erase_if(heap_, [this](const Entry &e) { return !isLive(e); });
    dead_ = 0;
    if (heap_.size() > 1) {
        // Floyd's build: sift every parent down, last parent first.
        for (size_t i = (heap_.size() - 2) / kHeapArity + 1; i-- > 0;) {
            siftDown(i, heap_[i]);
        }
    }
}

void
Simulator::cancel(EventId id)
{
    // The heap entry stays behind as a tombstone: step() skips entries
    // whose slot no longer holds their seq, and compact() drops them
    // all once they outnumber the live entries.
    auto slot = static_cast<uint32_t>(id);
    auto generation = static_cast<uint32_t>(id >> 32);
    if (slot >= slots_.size() || slots_[slot].seq == 0 ||
        slots_[slot].generation != generation) {
        return;
    }
    digest_.mixTagged(now_, DeterminismDigest::kTagCancel, slots_[slot].seq);
    // Counted before take(): the returned callback dies at the end of
    // that statement, once the bookkeeping is consistent, and a
    // capture's destructor may itself schedule or cancel.
    ++dead_;
    take(slot);
    if (dead_ > kCompactFloor && dead_ > live_) {
        compact();
    }
}

void
Simulator::execute(Entry e)
{
    DepHint hint = slots_[e.slot].hint;
    Callback fn = take(e.slot);
    REMORA_ASSERT(e.when >= now_);
    now_ = e.when;
    ++processed_;
    digest_.mixTagged(now_, DeterminismDigest::kTagExec, e.seq);
    // The executing event's hint becomes ambient so events it schedules
    // inherit their causal chain's hint (until a HintScope overrides).
    DepHint prev = std::exchange(currentHint_, hint);
    fn();
    currentHint_ = prev;
}

void
Simulator::resumeNow(std::coroutine_handle<> h)
{
    // run() would pick the queued resumption next exactly when nothing
    // live is ready at this instant (it would hold the largest seq
    // here) and its next step() would not refuse to run.
    bool next = inRun_ && !deadlockHalted() &&
                (stepBudgetEnd_ == 0 || processed_ < stepBudgetEnd_) &&
                (!dropDeadTop() || heap_.front().when > now_);
    if (!next) {
        schedule(0, [h] { h.resume(); });
        return;
    }
    uint64_t seq = nextSeq_++;
    digest_.mixTagged(now_, DeterminismDigest::kTagSched, seq);
    ++processed_;
    ++resumedInPlace_;
    digest_.mixTagged(now_, DeterminismDigest::kTagExec, seq);
    // The queued event would have carried the ambient hint and had
    // execute() restore it afterwards.
    DepHint prev = currentHint_;
    h.resume();
    currentHint_ = prev;
}

bool
Simulator::step()
{
    if (!dropDeadTop() || deadlockHalted()) {
        return false;
    }
    if (stepBudgetEnd_ != 0 && processed_ >= stepBudgetEnd_) {
        budgetHit_ = true;
        return false;
    }

    if (policy_ == nullptr) {
        // Insertion order always picks the heap top.
        execute(heapPop());
        return true;
    }

    // Gather the full ready set at the minimal timestamp. The heap
    // orders by (when, seq), so the batch comes out in insertion order.
    Time when = heap_.front().when;
    batch_.clear();
    while (!heap_.empty() && heap_.front().when == when) {
        Entry e = heapPop();
        if (isLive(e)) {
            batch_.push_back(e);
        } else {
            --dead_;
        }
    }
    size_t chosen = 0;
    if (batch_.size() > 1) {
        ++decisions_;
        ready_.clear();
        for (const Entry &e : batch_) {
            ready_.push_back(ReadyChoice{e.seq, slots_[e.slot].hint});
        }
        chosen = policy_->choose(*this, ready_);
        REMORA_ASSERT(chosen < batch_.size());
        // Every consulted choice lands in the digest, so a replayed
        // choice vector reproduces the run bit-identically.
        digest_.mixRecord(when, "choice", chosen);
    }
    for (size_t i = 0; i < batch_.size(); ++i) {
        if (i != chosen) {
            heapPush(batch_[i]);
        }
    }
    execute(batch_[chosen]);
    return true;
}

uint64_t
Simulator::run(Time limit)
{
    // Counted from processed_, so resumptions run in place by
    // resumeNow() count like the events they stand for.
    uint64_t start = processed_;
    bool outer = std::exchange(inRun_, true);
    while (dropDeadTop() && heap_.front().when <= limit && step()) {
    }
    inRun_ = outer;
    return processed_ - start;
}

} // namespace remora::sim
