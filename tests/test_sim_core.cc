/**
 * @file
 * Unit tests for the simulation engine: event ordering, cancellation,
 * coroutine tasks, one-shot promises, and the CPU resource model.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/cpu.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace remora::sim {
namespace {

// ----------------------------------------------------------------------
// Simulator / event queue
// ----------------------------------------------------------------------

TEST(Simulator, ExecutesInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(30, [&] { order.push_back(3); });
    sim.schedule(10, [&] { order.push_back(1); });
    sim.schedule(20, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, SameInstantRunsInInsertionOrder)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        sim.schedule(100, [&order, i] { order.push_back(i); });
    }
    sim.run();
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
    }
}

TEST(Simulator, ZeroDelayRunsLaterSameInstant)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(0, [&] {
        order.push_back(1);
        sim.schedule(0, [&] { order.push_back(2); });
    });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(sim.now(), 0);
}

TEST(Simulator, CancelPreventsExecution)
{
    Simulator sim;
    bool ran = false;
    EventId id = sim.schedule(10, [&] { ran = true; });
    sim.cancel(id);
    sim.run();
    EXPECT_FALSE(ran);
    // Double-cancel and cancel-after-run are harmless.
    sim.cancel(id);
}

TEST(Simulator, CancelIsSelective)
{
    Simulator sim;
    int count = 0;
    sim.schedule(10, [&] { ++count; });
    EventId id = sim.schedule(10, [&] { ++count; });
    sim.schedule(10, [&] { ++count; });
    sim.cancel(id);
    sim.run();
    EXPECT_EQ(count, 2);
}

TEST(Simulator, RunRespectsLimit)
{
    Simulator sim;
    int count = 0;
    sim.schedule(10, [&] { ++count; });
    sim.schedule(20, [&] { ++count; });
    sim.schedule(30, [&] { ++count; });
    uint64_t ran = sim.run(20);
    EXPECT_EQ(ran, 2u);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(sim.now(), 20);
    sim.run();
    EXPECT_EQ(count, 3);
}

TEST(Simulator, StepRunsExactlyOne)
{
    Simulator sim;
    int count = 0;
    sim.schedule(5, [&] { ++count; });
    sim.schedule(6, [&] { ++count; });
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(sim.step());
    EXPECT_FALSE(sim.step());
    EXPECT_EQ(count, 2);
}

TEST(Simulator, EventsCanScheduleEvents)
{
    Simulator sim;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 100) {
            sim.schedule(1, recurse);
        }
    };
    sim.schedule(1, recurse);
    sim.run();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(sim.now(), 100);
    EXPECT_EQ(sim.eventsProcessed(), 100u);
}

TEST(Simulator, StaleHandleDoesNotCancelSlotReuser)
{
    Simulator sim;
    EventId a = sim.schedule(1, [] {});
    sim.run();
    // A's slot is free again, so B lands in it under a new generation.
    bool ranB = false;
    EventId b = sim.schedule(1, [&] { ranB = true; });
    EXPECT_NE(a, b);
    EXPECT_EQ(a & 0xffffffffu, b & 0xffffffffu);
    sim.cancel(a);
    EXPECT_EQ(sim.livePendingEvents(), 1u);
    sim.run();
    EXPECT_TRUE(ranB);
}

TEST(Simulator, HandlesAreNeverZero)
{
    Simulator sim;
    for (int i = 0; i < 4; ++i) {
        EXPECT_NE(sim.schedule(i, [] {}), 0u);
    }
    sim.run();
    EXPECT_NE(sim.schedule(0, [] {}), 0u);
}

TEST(Simulator, CancelDestroysCapturesAtOnce)
{
    Simulator sim;
    auto token = std::make_shared<int>(7);
    EventId id = sim.schedule(10, [token] { (void)token; });
    EXPECT_EQ(token.use_count(), 2);
    sim.cancel(id);
    EXPECT_EQ(token.use_count(), 1);
    sim.run();
    EXPECT_EQ(sim.eventsProcessed(), 0u);
}

TEST(Simulator, PendingCountsTombstonesLiveDoesNot)
{
    Simulator sim;
    std::vector<EventId> ids;
    for (int i = 0; i < 6; ++i) {
        ids.push_back(sim.schedule(10 + i, [] {}));
    }
    sim.cancel(ids[1]);
    sim.cancel(ids[4]);
    EXPECT_EQ(sim.pendingEvents(), 6u);
    EXPECT_EQ(sim.livePendingEvents(), 4u);
    EXPECT_FALSE(sim.allDone());
    sim.run();
    EXPECT_EQ(sim.pendingEvents(), 0u);
    EXPECT_EQ(sim.livePendingEvents(), 0u);
    EXPECT_EQ(sim.eventsProcessed(), 4u);
    EXPECT_TRUE(sim.allDone());
}

/** Many same-instant ties, cancellations and re-entrant schedules. */
std::vector<int>
tieHeavyOrder(SchedulePolicy *policy)
{
    Simulator sim;
    sim.setPolicy(policy);
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 40; ++i) {
        ids.push_back(sim.schedule(i % 3, [&sim, &order, i] {
            order.push_back(i);
            if (i % 5 == 0) {
                sim.schedule(0, [&order, i] { order.push_back(100 + i); });
            }
        }));
    }
    for (size_t i = 0; i < ids.size(); i += 7) {
        sim.cancel(ids[i]);
    }
    sim.run();
    return order;
}

TEST(Simulator, NoPolicyOrderEqualsAlwaysFirstChoice)
{
    RecordReplayPolicy firstChoice;
    std::vector<int> plain = tieHeavyOrder(nullptr);
    std::vector<int> replayed = tieHeavyOrder(&firstChoice);
    EXPECT_EQ(plain, replayed);
    // 34 survivors of the cancels plus 6 same-instant follow-ups.
    EXPECT_EQ(plain.size(), 40u);
    // The policy was consulted, and always took insertion order.
    ASSERT_GT(firstChoice.recorded().size(), 0u);
    for (uint32_t c : firstChoice.recorded()) {
        EXPECT_EQ(c, 0u);
    }
}

// ----------------------------------------------------------------------
// Tombstone compaction
// ----------------------------------------------------------------------

/** Tombstones the simulator tolerates before it compacts. */
constexpr size_t kCompactFloor = 64;

TEST(Simulator, RandomScheduleCancelMixMatchesOrderedModel)
{
    // Far-future schedules that are mostly cancelled (as rmem timeout
    // guards are), same-instant follow-ups and cancels from inside
    // events, checked against a reference model ordered by (when,
    // insertion). The cancels cross the compaction threshold many
    // times; the run order must not notice.
    Simulator sim;
    Random rng(11);
    std::set<std::pair<Time, size_t>> model;
    std::vector<EventId> handles;
    std::vector<Time> whenOf;
    std::vector<size_t> ran;
    std::vector<size_t> expected;
    size_t compactions = 0;

    auto cancelRandom = [&](int n) {
        for (int k = 0; k < n; ++k) {
            // Mostly recent handles, which are likely still pending.
            auto span = static_cast<uint32_t>(
                rng.uniformInt(4) == 0 ? handles.size()
                                       : std::min<size_t>(handles.size(), 64));
            size_t id = handles.size() - 1 - rng.uniformInt(span);
            size_t before = sim.pendingEvents();
            // A handle that already ran or was cancelled is a no-op.
            sim.cancel(handles[id]);
            model.erase({whenOf[id], id});
            if (sim.pendingEvents() < before) {
                ++compactions;
            }
            EXPECT_EQ(sim.livePendingEvents(), model.size());
            EXPECT_LE(sim.pendingEvents(),
                      2 * sim.livePendingEvents() + kCompactFloor);
        }
    };
    std::function<void(Duration)> add = [&](Duration delay) {
        size_t id = handles.size();
        whenOf.push_back(sim.now() + delay);
        model.emplace(sim.now() + delay, id);
        handles.push_back(sim.schedule(delay, [&, id] {
            ran.push_back(id);
            ASSERT_FALSE(model.empty());
            expected.push_back(model.begin()->second);
            model.erase(model.begin());
            if (handles.size() < 6000) {
                if (rng.uniformInt(4) == 0) {
                    add(0);
                }
                if (rng.uniformInt(2) == 0) {
                    add(1 + rng.uniformInt(5000));
                }
                add(1000 + rng.uniformInt(20000));
            }
            cancelRandom(1 + static_cast<int>(rng.uniformInt(3)));
        }));
    };

    for (int i = 0; i < 400; ++i) {
        add(1 + rng.uniformInt(10000));
    }
    cancelRandom(300);
    uint64_t count = sim.run();

    EXPECT_EQ(ran, expected);
    EXPECT_EQ(count, ran.size());
    EXPECT_EQ(sim.eventsProcessed(), ran.size());
    EXPECT_TRUE(model.empty());
    EXPECT_GT(ran.size(), 1000u);
    EXPECT_GT(compactions, 5u);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Simulator, CompactedTombstoneHandleStaysANoOp)
{
    Simulator sim;
    int ran = 0;
    std::vector<EventId> ids;
    for (int i = 0; i < 200; ++i) {
        ids.push_back(sim.schedule(1000 + i, [&ran] { ++ran; }));
    }
    for (int i = 0; i < 150; ++i) {
        sim.cancel(ids[i]);
    }
    // The 101st cancel left 101 tombstones to 99 live entries: one
    // compaction, then 49 more tombstones.
    EXPECT_EQ(sim.livePendingEvents(), 50u);
    EXPECT_EQ(sim.pendingEvents(), 99u);

    // New events take over the freed slots.
    for (int i = 0; i < 150; ++i) {
        sim.schedule(500 + i, [&ran] { ++ran; });
    }
    uint64_t digest = sim.digest().value();
    size_t pending = sim.pendingEvents();
    for (int i = 0; i < 150; ++i) {
        sim.cancel(ids[i]);
    }
    EXPECT_EQ(sim.digest().value(), digest);
    EXPECT_EQ(sim.pendingEvents(), pending);
    EXPECT_EQ(sim.livePendingEvents(), 200u);
    sim.run();
    EXPECT_EQ(ran, 200);
    EXPECT_TRUE(sim.allDone());
}

// ----------------------------------------------------------------------
// Task coroutines
// ----------------------------------------------------------------------

Task<int>
immediateTask()
{
    co_return 42;
}

Task<int>
delayedTask(Simulator *sim, Duration d)
{
    co_await delay(*sim, d);
    co_return 7;
}

TEST(Task, EagerStartCompletesImmediately)
{
    auto t = immediateTask();
    EXPECT_TRUE(t.done());
    EXPECT_EQ(t.result(), 42);
}

TEST(Task, DelaySuspendsUntilSimTime)
{
    Simulator sim;
    auto t = delayedTask(&sim, usec(10));
    EXPECT_FALSE(t.done());
    sim.run();
    EXPECT_TRUE(t.done());
    EXPECT_EQ(t.result(), 7);
    EXPECT_EQ(sim.now(), usec(10));
}

Task<int>
nestedTask(Simulator *sim)
{
    int a = co_await delayedTask(sim, usec(5));
    int b = co_await delayedTask(sim, usec(5));
    co_return a + b;
}

TEST(Task, AwaitingSubTasksComposes)
{
    Simulator sim;
    auto t = nestedTask(&sim);
    sim.run();
    ASSERT_TRUE(t.done());
    EXPECT_EQ(t.result(), 14);
    EXPECT_EQ(sim.now(), usec(10));
}

Task<void>
throwingTask(Simulator *sim)
{
    co_await delay(*sim, 1);
    throw std::runtime_error("boom");
}

Task<bool>
catchingTask(Simulator *sim)
{
    try {
        co_await throwingTask(sim);
    } catch (const std::runtime_error &e) {
        co_return std::string(e.what()) == "boom";
    }
    co_return false;
}

TEST(Task, ExceptionsPropagateThroughAwait)
{
    Simulator sim;
    auto t = catchingTask(&sim);
    sim.run();
    ASSERT_TRUE(t.done());
    EXPECT_TRUE(t.result());
}

TEST(Task, DetachedTaskRunsToCompletion)
{
    Simulator sim;
    int done = 0;
    {
        auto t = [](Simulator *s, int *flag) -> Task<void> {
            co_await delay(*s, usec(3));
            *flag = 1;
        }(&sim, &done);
        t.detach();
    }
    EXPECT_EQ(done, 0);
    sim.run();
    EXPECT_EQ(done, 1);
}

TEST(Task, MoveTransfersOwnership)
{
    Simulator sim;
    auto t1 = delayedTask(&sim, usec(1));
    Task<int> t2 = std::move(t1);
    sim.run();
    ASSERT_TRUE(t2.done());
    EXPECT_EQ(t2.result(), 7);
}

// ----------------------------------------------------------------------
// Promise / Future
// ----------------------------------------------------------------------

TEST(Future, SetBeforeAwaitResolvesImmediately)
{
    Simulator sim;
    Promise<int> p(sim);
    p.set(5);
    auto t = [](Future<int> f) -> Task<int> { co_return co_await f; }(
        p.future());
    sim.run();
    ASSERT_TRUE(t.done());
    EXPECT_EQ(t.result(), 5);
}

TEST(Future, SetAfterAwaitWakesWaiter)
{
    Simulator sim;
    Promise<int> p(sim);
    auto t = [](Future<int> f) -> Task<int> { co_return co_await f; }(
        p.future());
    sim.run();
    EXPECT_FALSE(t.done());
    p.set(9);
    sim.run();
    ASSERT_TRUE(t.done());
    EXPECT_EQ(t.result(), 9);
}

TEST(Future, VoidSpecialization)
{
    Simulator sim;
    Promise<void> p(sim);
    bool resumed = false;
    auto t = [](Future<void> f, bool *flag) -> Task<void> {
        co_await f;
        *flag = true;
    }(p.future(), &resumed);
    sim.run();
    EXPECT_FALSE(resumed);
    p.set();
    sim.run();
    EXPECT_TRUE(resumed);
    EXPECT_TRUE(t.done());
}

TEST(Future, ExceptionDelivery)
{
    Simulator sim;
    Promise<int> p(sim);
    auto t = [](Future<int> f) -> Task<bool> {
        try {
            co_await f;
        } catch (const std::runtime_error &) {
            co_return true;
        }
        co_return false;
    }(p.future());
    p.setException(std::make_exception_ptr(std::runtime_error("x")));
    sim.run();
    ASSERT_TRUE(t.done());
    EXPECT_TRUE(t.result());
}

// ----------------------------------------------------------------------
// CpuResource
// ----------------------------------------------------------------------

TEST(Cpu, SerializesWorkFcfs)
{
    Simulator sim;
    CpuResource cpu(sim, "cpu");
    std::vector<Time> completions;
    cpu.post(usec(10), CpuCategory::kOther,
             [&] { completions.push_back(sim.now()); });
    cpu.post(usec(5), CpuCategory::kOther,
             [&] { completions.push_back(sim.now()); });
    sim.run();
    ASSERT_EQ(completions.size(), 2u);
    EXPECT_EQ(completions[0], usec(10));
    EXPECT_EQ(completions[1], usec(15));
    EXPECT_EQ(cpu.totalBusy(), usec(15));
}

TEST(Cpu, IdleGapsDoNotAccumulateBusyTime)
{
    Simulator sim;
    CpuResource cpu(sim, "cpu");
    cpu.post(usec(10), CpuCategory::kOther);
    sim.run();
    // Let simulated time pass idle.
    sim.schedule(usec(100), [] {});
    sim.run();
    cpu.post(usec(10), CpuCategory::kOther);
    sim.run();
    EXPECT_EQ(cpu.totalBusy(), usec(20));
    // First burst ended at 10us, the idle marker fired at 110us, and the
    // second burst runs 110-120us; only 20us of busy time accrued.
    EXPECT_EQ(cpu.busyUntil(), usec(110) + usec(10));
}

TEST(Cpu, CategoriesAccumulateIndependently)
{
    Simulator sim;
    CpuResource cpu(sim, "cpu");
    cpu.post(usec(3), CpuCategory::kDataReceive);
    cpu.post(usec(5), CpuCategory::kControlTransfer);
    cpu.post(usec(7), CpuCategory::kDataReceive);
    sim.run();
    EXPECT_EQ(cpu.busyIn(CpuCategory::kDataReceive), usec(10));
    EXPECT_EQ(cpu.busyIn(CpuCategory::kControlTransfer), usec(5));
    EXPECT_EQ(cpu.busyIn(CpuCategory::kProcExec), 0);
    EXPECT_EQ(cpu.totalBusy(), usec(15));
}

TEST(Cpu, ResetAccountingClearsCounters)
{
    Simulator sim;
    CpuResource cpu(sim, "cpu");
    cpu.post(usec(5), CpuCategory::kProcExec);
    sim.run();
    cpu.resetAccounting();
    EXPECT_EQ(cpu.totalBusy(), 0);
    EXPECT_EQ(cpu.busyIn(CpuCategory::kProcExec), 0);
}

TEST(Cpu, CoroutineUseAwaitsCompletion)
{
    Simulator sim;
    CpuResource cpu(sim, "cpu");
    auto t = [](Simulator *s, CpuResource *c) -> Task<Time> {
        co_await c->use(usec(25), CpuCategory::kProcExec);
        co_return s->now();
    }(&sim, &cpu);
    sim.run();
    ASSERT_TRUE(t.done());
    EXPECT_EQ(t.result(), usec(25));
}

TEST(Cpu, UseResumesBehindEventsQueuedForItsCompletionInstant)
{
    // The work is posted at 0 and completes at 10 us. An event queued
    // for 10 us while the work runs must still run before the awaiting
    // coroutine resumes: the completion queues the resumption behind
    // it, as a Promise wakeup would.
    Simulator sim;
    CpuResource cpu(sim, "cpu");
    std::vector<std::string> order;
    auto t = [](CpuResource *c, std::vector<std::string> *log) -> Task<void> {
        co_await c->use(usec(10), CpuCategory::kOther);
        log->push_back("resumed");
    }(&cpu, &order);
    sim.scheduleAt(usec(10), [&order] { order.push_back("event"); });
    sim.run();
    ASSERT_TRUE(t.done());
    EXPECT_EQ(order, (std::vector<std::string>{"event", "resumed"}));
}

TEST(Cpu, UseResumesInPlaceWhenNothingElseIsReady)
{
    Simulator sim;
    CpuResource cpu(sim, "cpu");
    auto t = [](Simulator *s, CpuResource *c) -> Task<Time> {
        co_await c->use(usec(10), CpuCategory::kOther);
        co_return s->now();
    }(&sim, &cpu);
    EXPECT_EQ(sim.run(), 2u);
    ASSERT_TRUE(t.done());
    EXPECT_EQ(t.result(), usec(10));
    // The completion and the resumption both count as events, but the
    // resumption never went through the heap.
    EXPECT_EQ(sim.eventsProcessed(), 2u);
    EXPECT_EQ(sim.resumedInPlace(), 1u);
}

TEST(Cpu, UseDefersBehindAnEventQueuedForTheSameInstant)
{
    Simulator sim;
    CpuResource cpu(sim, "cpu");
    std::vector<std::string> order;
    auto t = [](CpuResource *c, std::vector<std::string> *log) -> Task<void> {
        co_await c->use(usec(10), CpuCategory::kOther);
        log->push_back("resumed");
    }(&cpu, &order);
    sim.scheduleAt(usec(10), [&order] { order.push_back("event"); });
    EXPECT_EQ(sim.run(), 3u);
    ASSERT_TRUE(t.done());
    EXPECT_EQ(order, (std::vector<std::string>{"event", "resumed"}));
    EXPECT_EQ(sim.resumedInPlace(), 0u);
}

/** Awaiter that parks its coroutine and hands the handle out. */
struct ParkHandle
{
    std::coroutine_handle<> *out;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const { *out = h; }
    void await_resume() const noexcept {}
};

Task<void>
parkThenLog(std::coroutine_handle<> *out, std::vector<std::string> *log)
{
    co_await ParkHandle{out};
    log->push_back("resumed");
}

TEST(Simulator, ResumeNowRespectsTheStepBudget)
{
    Simulator sim;
    std::coroutine_handle<> h;
    std::vector<std::string> order;
    auto t = parkThenLog(&h, &order);
    sim.schedule(10, [&sim, &h] { sim.resumeNow(h); });
    sim.setStepBudget(1);
    // The budget covers the waking event only, so the resumption is
    // queued and the next step refuses it.
    EXPECT_EQ(sim.run(), 1u);
    EXPECT_TRUE(sim.budgetExhausted());
    EXPECT_FALSE(t.done());
    EXPECT_EQ(sim.livePendingEvents(), 1u);
    EXPECT_EQ(sim.resumedInPlace(), 0u);

    sim.setStepBudget(0);
    EXPECT_EQ(sim.run(), 1u);
    EXPECT_TRUE(t.done());
    EXPECT_EQ(order, std::vector<std::string>{"resumed"});
}

TEST(Simulator, ResumeNowRespectsADeadlockHalt)
{
    Simulator sim;
    std::coroutine_handle<> h;
    std::vector<std::string> order;
    auto t = parkThenLog(&h, &order);
    sim.schedule(10, [&sim, &h] {
        // A two-party lock cycle appears while this event runs.
        WaitGraph &g = sim.waitGraph();
        g.acquired(1, 100, "lock a");
        g.acquired(2, 200, "lock b");
        g.waiting(1, 200, "lock b", sim.now());
        g.waiting(2, 100, "lock a", sim.now());
        sim.resumeNow(h);
    });
    EXPECT_EQ(sim.run(), 1u);
    EXPECT_TRUE(sim.deadlockHalted());
    EXPECT_FALSE(t.done());
    EXPECT_EQ(sim.livePendingEvents(), 1u);
    EXPECT_EQ(sim.resumedInPlace(), 0u);

    sim.setHaltOnDeadlock(false);
    EXPECT_EQ(sim.run(), 1u);
    EXPECT_TRUE(t.done());
}

TEST(Simulator, BareStepNeverResumesInPlace)
{
    // step() runs exactly one logical event: the CPU completion, then
    // the resumption, each on its own step.
    Simulator sim;
    CpuResource cpu(sim, "cpu");
    auto t = [](CpuResource *c) -> Task<void> {
        co_await c->use(usec(10), CpuCategory::kOther);
    }(&cpu);
    EXPECT_TRUE(sim.step());
    EXPECT_FALSE(t.done());
    EXPECT_EQ(sim.eventsProcessed(), 1u);
    EXPECT_TRUE(sim.step());
    EXPECT_TRUE(t.done());
    EXPECT_EQ(sim.eventsProcessed(), 2u);
    EXPECT_FALSE(sim.step());
    EXPECT_EQ(sim.resumedInPlace(), 0u);
}

TEST(Cpu, PendingUseIsNotABlockedTask)
{
    // A CPU wait always has its wakeup queued, so it never counts as
    // blocked; a Future wait with no producer still does.
    Simulator sim;
    CpuResource cpu(sim, "cpu");
    auto cpuWait = [](CpuResource *c) -> Task<void> {
        co_await c->use(usec(10), CpuCategory::kOther);
    }(&cpu);
    EXPECT_EQ(sim.blockedTaskCount(), 0u);

    Promise<void> never(sim);
    auto futureWait = [](Future<void> f) -> Task<void> {
        co_await f;
    }(never.future());
    EXPECT_EQ(sim.blockedTaskCount(), 1u);

    sim.run();
    EXPECT_TRUE(cpuWait.done());
    EXPECT_FALSE(futureWait.done());
    EXPECT_EQ(sim.blockedTaskCount(), 1u);

    never.set();
    sim.run();
    EXPECT_TRUE(futureWait.done());
    EXPECT_EQ(sim.blockedTaskCount(), 0u);
}

TEST(Cpu, CoroutineUsersResumeFcfsWithExactAccounting)
{
    Simulator sim;
    CpuResource cpu(sim, "cpu");
    std::vector<std::pair<int, Time>> resumed;
    auto user = [](CpuResource *c, int id, Duration cost, CpuCategory cat,
                   std::vector<std::pair<int, Time>> *log) -> Task<void> {
        co_await c->use(cost, cat);
        log->emplace_back(id, c->simulator().now());
    };
    auto a = user(&cpu, 0, usec(10), CpuCategory::kDataReceive, &resumed);
    auto b = user(&cpu, 1, usec(5), CpuCategory::kProcExec, &resumed);
    sim.run();
    ASSERT_TRUE(a.done() && b.done());
    ASSERT_EQ(resumed.size(), 2u);
    EXPECT_EQ(resumed[0], std::make_pair(0, usec(10)));
    EXPECT_EQ(resumed[1], std::make_pair(1, usec(15)));
    EXPECT_EQ(cpu.busyIn(CpuCategory::kDataReceive), usec(10));
    EXPECT_EQ(cpu.busyIn(CpuCategory::kProcExec), usec(5));
    EXPECT_EQ(cpu.totalBusy(), usec(15));
}

TEST(Cpu, UtilizationOverWindow)
{
    Simulator sim;
    CpuResource cpu(sim, "cpu");
    cpu.post(usec(50), CpuCategory::kOther);
    sim.schedule(usec(100), [] {});
    sim.run();
    EXPECT_NEAR(cpu.utilizationSince(0), 0.5, 1e-9);
}

TEST(Cpu, CategoryNamesAreStable)
{
    EXPECT_STREQ(cpuCategoryName(CpuCategory::kDataReceive), "data_receive");
    EXPECT_STREQ(cpuCategoryName(CpuCategory::kControlTransfer),
                 "control_transfer");
    EXPECT_STREQ(cpuCategoryName(CpuCategory::kDataReply), "data_reply");
}

// Parameterized: N tasks contending for the CPU finish in FIFO order
// and the total busy time is exact.
class CpuContention : public ::testing::TestWithParam<int>
{};

TEST_P(CpuContention, FifoAndExactAccounting)
{
    int n = GetParam();
    Simulator sim;
    CpuResource cpu(sim, "cpu");
    std::vector<int> finish;
    for (int i = 0; i < n; ++i) {
        cpu.post(usec(2), CpuCategory::kOther,
                 [&finish, i] { finish.push_back(i); });
    }
    sim.run();
    ASSERT_EQ(finish.size(), static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        EXPECT_EQ(finish[static_cast<size_t>(i)], i);
    }
    EXPECT_EQ(cpu.totalBusy(), usec(2) * n);
}

INSTANTIATE_TEST_SUITE_P(Counts, CpuContention,
                         ::testing::Values(1, 2, 16, 128));

} // namespace
} // namespace remora::sim
