/**
 * @file
 * Deterministic per-link fault injection.
 *
 * The paper's §3.7 assumes the cluster never loses a cell; this module
 * deliberately breaks that assumption so the recovery machinery layered
 * above (wire sequencing/retransmission, DFS window degrade)
 * can be exercised and measured. A FaultInjector sits inside a Link's
 * transmit pump and, drawing from its own seeded PCG stream, may
 *
 *  - drop a cell in flight (the consumed credit still returns, as if
 *    the receiver had drained it — the loss is invisible to flow
 *    control, exactly like a cell dying in a switch fabric),
 *  - corrupt a payload bit (CRC-visible: AAL5 frames fail reassembly,
 *    reliability envelopes fail their inner checksum),
 *  - reorder (hold a cell a few cell-times so successors overtake it),
 *  - delay (add bounded extra propagation latency), or
 *  - pause delivery inside configured [from, until) windows, modelling
 *    a receiver that stalls and then resumes.
 *
 * Every decision is folded into the simulator's DeterminismDigest, so a
 * faulty run replays bit-identically under the same plan seed and the
 * race/mc/determinism gates keep working under loss. The injected-event
 * stream depends only on the injector's own PCG sequence and the order
 * cells reach the link, both of which are schedule-deterministic.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/cell.h"
#include "obs/metrics.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace remora::net {

/** What to inject, with what probability. All rates are per cell. */
struct FaultPlan
{
    /** Base seed; each injector folds its link name in, so the two
     *  directions of a wire draw independent streams. */
    uint64_t seed = 1;
    /** Probability a cell is dropped in flight. */
    double dropRate = 0.0;
    /** Probability one payload bit is flipped. */
    double corruptRate = 0.0;
    /** Probability a cell is held so later cells overtake it. */
    double reorderRate = 0.0;
    /** Probability a cell picks up extra delivery latency. */
    double delayRate = 0.0;
    /** Upper bound on the extra latency a delayed cell picks up. */
    sim::Duration maxDelay = sim::usec(50);

    /** Delivery blackout window: cells landing inside are deferred. */
    struct Pause
    {
        sim::Time from = 0;
        sim::Time until = 0;
    };
    std::vector<Pause> pauses;

    /** True when the plan can perturb anything at all. */
    bool
    enabled() const
    {
        return dropRate > 0.0 || corruptRate > 0.0 || reorderRate > 0.0 ||
               delayRate > 0.0 || !pauses.empty();
    }
};

/** Per-link fault source; installed via Link::setFaultInjector. */
class FaultInjector
{
  public:
    /** Fate of one cell. */
    enum class Action : uint8_t
    {
        kDeliver,
        kDrop,
    };

    /** Outcome of decide(): deliver (possibly late) or drop. */
    struct Decision
    {
        Action action = Action::kDeliver;
        sim::Duration extraDelay = 0;
    };

    /**
     * @param simulator Owning simulator (digest folding).
     * @param plan Rates and windows to apply.
     * @param linkName Name of the carrying link; folded into the seed.
     */
    FaultInjector(sim::Simulator &simulator, const FaultPlan &plan,
                  std::string linkName);

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /**
     * Decide the fate of @p cell. @p nominalArrival is when the cell
     * would reach the sink unperturbed (extraDelay adds to it, and the
     * pause windows compare against it). Corruption mutates the cell
     * payload in place. @p cellTime scales the reorder hold so "a few
     * cells overtake" holds at any bandwidth.
     */
    Decision decide(Cell &cell, sim::Time nominalArrival,
                    sim::Duration cellTime);

    /** Cells dropped in flight. */
    uint64_t drops() const { return drops_.value(); }

    /** Cells with a payload bit flipped. */
    uint64_t corrupts() const { return corrupts_.value(); }

    /** Cells held for overtake. */
    uint64_t reorders() const { return reorders_.value(); }

    /** Cells given extra latency. */
    uint64_t delays() const { return delays_.value(); }

    /** Cells deferred past a pause window. */
    uint64_t pausedDeliveries() const { return paused_.value(); }

    /** Cells examined. */
    uint64_t decisions() const { return decisions_; }

    /** Register "<prefix>.drops" etc. */
    void registerStats(obs::MetricRegistry &reg,
                       const std::string &prefix) const;

    /** The plan in force. */
    const FaultPlan &plan() const { return plan_; }

    /** Name of the link this injector perturbs. */
    const std::string &linkName() const { return linkName_; }

  private:
    sim::Simulator &sim_;
    FaultPlan plan_;
    std::string linkName_;
    uint64_t linkHash_;
    sim::Random rng_;
    uint64_t decisions_ = 0;
    sim::Counter drops_;
    sim::Counter corrupts_;
    sim::Counter reorders_;
    sim::Counter delays_;
    sim::Counter paused_;
};

} // namespace remora::net
