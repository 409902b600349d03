/**
 * @file
 * A serializing CPU resource with per-category busy-time accounting.
 *
 * Every simulated node has exactly one CPU. All work a node performs —
 * trap handling, protection checks, programmed I/O to the network FIFOs,
 * data copies, context switches, server procedure bodies — is charged to
 * its CpuResource, which serializes requests in arrival order (a simple
 * FCFS processor model). The paper's "server load" metric (Figure 3) is
 * exactly this accounting, split by category.
 */
#pragma once

#include <coroutine>
#include <cstdint>
#include <string>

#include "sim/simulator.h"
#include "sim/time.h"

namespace remora::sim {

/**
 * Accounting categories for CPU time, matching the paper's Figure 3
 * breakdown of server activity plus a general bucket.
 */
enum class CpuCategory : uint8_t
{
    /** Receiving data from the network (PIO drain, validation, copies). */
    kDataReceive = 0,
    /** Control transfer: notification dispatch, context switches. */
    kControlTransfer,
    /** Procedure invocation overhead (dispatch, stubs). */
    kProcInvoke,
    /** Sending data to the network (format, PIO fill). */
    kDataReply,
    /** Executing application/service procedure bodies. */
    kProcExec,
    /** Everything else (kernel bookkeeping, timers). */
    kOther,
    kNumCategories,
};

/** Human-readable name of a CPU accounting category. */
const char *cpuCategoryName(CpuCategory cat);

/** FCFS processor model with busy-time accounting. */
class CpuResource
{
  public:
    /**
     * @param sim Owning simulator.
     * @param name Diagnostic name (e.g. "server.cpu").
     */
    CpuResource(Simulator &sim, std::string name);

    /**
     * Consume @p cost of CPU time, then invoke @p fn.
     *
     * The work starts when all previously posted work has finished (or
     * immediately if the CPU is idle) and runs non-preemptively.
     *
     * @param cost CPU time consumed; must be >= 0.
     * @param cat Accounting bucket the time is charged to.
     * @param fn Invoked at completion time; may be empty.
     */
    void post(Duration cost, CpuCategory cat, Simulator::Callback fn = {});

    /**
     * Awaitable returned by use(). Awaiting it posts the work; its
     * completion resumes the coroutine as a new event at the same
     * instant, behind whatever is already queued there — the order the
     * completion-then-wakeup of a Promise gives, which the simulated
     * results depend on (Simulator::resumeNow runs it in place when
     * nothing is queued ahead). No frame or one-shot state is
     * allocated, and since a wakeup is always pending the wait is never
     * a blocked task.
     */
    class [[nodiscard]] Use
    {
      public:
        bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<> h) const;
        void await_resume() const noexcept {}

      private:
        friend class CpuResource;
        Use(CpuResource &cpu, Duration cost, CpuCategory cat)
            : cpu_(cpu), cost_(cost), cat_(cat)
        {}

        CpuResource &cpu_;
        Duration cost_;
        CpuCategory cat_;
    };

    /**
     * Coroutine flavour of post(): `co_await cpu.use(cost, cat)` resumes
     * once the CPU time has been consumed. The work is posted when the
     * result is awaited.
     */
    Use use(Duration cost, CpuCategory cat) { return Use(*this, cost, cat); }

    /** Simulated instant at which currently queued work completes. */
    Time busyUntil() const { return busyUntil_; }

    /** Total CPU time consumed since construction / last reset. */
    Duration totalBusy() const { return totalBusy_; }

    /** CPU time consumed in @p cat since construction / last reset. */
    Duration busyIn(CpuCategory cat) const;

    /** Utilization over [since, now]: busy time / wall time. */
    double utilizationSince(Time since) const;

    /** Clear the accounting counters (busyUntil is unaffected). */
    void resetAccounting();

    /** Diagnostic name. */
    const std::string &name() const { return name_; }

    /** Owning simulator. */
    Simulator &simulator() { return sim_; }

  private:
    Simulator &sim_;
    std::string name_;
    Time busyUntil_ = 0;
    Duration totalBusy_ = 0;
    Duration byCategory_[static_cast<size_t>(CpuCategory::kNumCategories)] = {};
};

} // namespace remora::sim
