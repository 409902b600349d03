/**
 * @file
 * Stateless model checking over simulator schedules.
 *
 * The deterministic simulator makes every run a pure function of its
 * same-instant tie-break choices: re-execute the workload with a
 * different choice at some decision point and you get a different —
 * equally legal — interleaving. ScheduleExplorer turns that into a
 * verifier: it replays a workload thunk from scratch once per schedule,
 * drives the Simulator through a RecordReplay-style policy, and
 * enumerates the tree of choice vectors depth-first.
 *
 * Exhaustive enumeration is tamed with a sleep-set (DPOR-lite)
 * reduction keyed on the dependency hints events carry (sim::DepHint):
 * after exploring transition t from a node, t joins the node's sleep
 * set; descendants inherit the sleeping transitions that are
 * *independent* of the transition taken (different channel, different
 * sync word, non-overlapping segment ranges) and never re-explore
 * them, because swapping two commuting events cannot reach a new
 * state. Unknown hints are conservatively dependent, so the reduction
 * is sound: it prunes only provably-equivalent interleavings.
 *
 * Each schedule ends in one of: quiescence (checked for lost wakeups
 * and blocked-forever coroutines via the WaitGraph), a deadlock halt,
 * or step-budget exhaustion. Findings are deduped by signature and
 * shrunk to the minimal failing choice prefix — the shortest prefix
 * that still reproduces the finding with default choices beyond it.
 *
 * The workload thunk must be deterministic (same choices -> same run)
 * and must drive the simulator itself (build the cluster, call
 * sim.run()); the explorer never steps the simulator after the thunk
 * returns, so the thunk's stack objects cannot be used after free.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "sim/stats.h"
#include "sim/waitgraph.h"

namespace remora::sim {

/** Exploration bounds and knobs. */
struct ExplorerOptions
{
    /** Stop after this many schedules even if the tree is unfinished. */
    uint64_t maxSchedules = 1000;
    /** Per-schedule step cap (cuts off livelocked interleavings). */
    uint64_t stepBudget = 500000;
    /** Sleep-set reduction; off = brute-force DFS over all choices. */
    bool reduction = true;
    /** Shrink each finding to its minimal failing choice prefix. */
    bool shrink = true;
    /** Extra replays allowed per finding while shrinking. */
    uint64_t maxShrinkRuns = 128;
    /** Stop recording findings past this many (dedup continues). */
    size_t maxFindings = 8;
};

/** One deduped finding with its reproducer. */
struct ExplorerFinding
{
    HangReport report;
    /** 0-based index of the schedule that first hit it. */
    uint64_t schedule = 0;
    /** Full choice vector of that schedule. */
    std::vector<uint32_t> choices;
    /** Minimal failing prefix (equals choices when shrinking is off). */
    std::vector<uint32_t> shrunk;
    /** Digest of the failing schedule, for replay verification. */
    uint64_t digest = 0;
};

/** Outcome of an explore() call. */
struct ExploreResult
{
    /** Schedules executed. */
    uint64_t schedules = 0;
    /** Decision points hit, summed over all schedules. */
    uint64_t decisions = 0;
    /** Alternatives pruned by the sleep-set reduction. */
    uint64_t sleepSkips = 0;
    /** Deepest decision stack reached. */
    uint64_t maxDepth = 0;
    /** True when the whole (reduced) tree was explored. */
    bool exhausted = false;
    /** True when maxSchedules stopped exploration early. */
    bool capped = false;
    /** Digest of schedule 0 (the default, all-first-choice run). */
    uint64_t firstDigest = 0;
    std::vector<ExplorerFinding> findings;
};

/** The stateless model checker. */
class ScheduleExplorer
{
  public:
    /**
     * A deterministic workload: builds its world on @p sim, drives it
     * (sim.run() / fixture helpers) and tears it down before returning.
     */
    using Workload = std::function<void(Simulator &sim)>;

    explicit ScheduleExplorer(Workload workload, ExplorerOptions opts = {});

    /** Enumerate schedules depth-first; see ExploreResult. */
    ExploreResult explore();

    /** One replayed schedule. */
    struct RunOutcome
    {
        /** Choices taken (prefix plus default tail). */
        std::vector<uint32_t> choices;
        /** Findings of this single schedule (not deduped). */
        std::vector<HangReport> reports;
        uint64_t digest = 0;
        uint64_t steps = 0;
        /** True when the event queue fully drained. */
        bool quiescent = false;
    };

    /**
     * Execute the workload once under @p prefix (insertion order beyond
     * it) — the replay path for reproducing and verifying findings.
     */
    RunOutcome runOnce(const std::vector<uint32_t> &prefix);

    // Cumulative counters, for registration under "mc." in a registry.
    const Counter &schedulesRun() const { return schedules_; }
    const Counter &decisionsHit() const { return decisions_; }
    const Counter &findingsFound() const { return findings_; }
    const Counter &sleepSkips() const { return sleepSkips_; }
    const Counter &shrinkRuns() const { return shrinkRuns_; }

  private:
    /** One decision point on the DFS stack. */
    struct Node
    {
        /** Ready set at this point, insertion order (run-invariant). */
        std::vector<uint64_t> altIds;
        /** Index currently being explored. */
        size_t chosen = 0;
        /** Explored + inherited-sleeping alternatives. */
        std::set<uint64_t> sleep;
        /** Alternatives actually executed from this node. */
        size_t explored = 0;
    };

    class Policy;

    /** Run the workload once under the DFS stack (extending it). */
    RunOutcome executeStack();

    /** Collect this run's findings from the simulator's end state. */
    static void collectReports(Simulator &sim, RunOutcome &out);

    /** Advance the stack to the next unexplored branch. */
    bool advance();

    /** Minimal prefix of @p full still reproducing signature @p sig. */
    std::vector<uint32_t> shrinkPrefix(const std::vector<uint32_t> &full,
                                       const std::string &sig);

    Workload workload_;
    ExplorerOptions opts_;
    std::vector<Node> stack_;
    Counter schedules_;
    Counter decisions_;
    Counter findings_;
    Counter sleepSkips_;
    Counter shrinkRuns_;
};

} // namespace remora::sim
