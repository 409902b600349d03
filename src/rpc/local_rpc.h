/**
 * @file
 * Local (same-machine, cross-address-space) RPC cost model.
 *
 * In the paper's structure, clients never cross the machine boundary:
 * they talk to their server clerk through local RPC, whose protection
 * firewalls survive ("control transfers are primarily intra-node
 * cross-domain calls, which have been shown to be amenable to
 * high-performance implementation", citing LRPC and L3/L4). We model a
 * local call as two cross-domain transitions with a calibrated cost
 * each; the actual procedure body is the caller's coroutine.
 */
#pragma once

#include "sim/cpu.h"
#include "sim/time.h"

namespace remora::rpc {

/** Costs of one local cross-domain call. */
struct LocalRpcCosts
{
    /** Caller domain -> callee domain transition (trap, stack switch). */
    sim::Duration callPath = sim::usec(60);
    /** Callee -> caller return transition. */
    sim::Duration returnPath = sim::usec(60);
};

/** A local RPC binding between two domains on one node. */
class LocalRpc
{
  public:
    /**
     * @param cpu The node's CPU.
     * @param costs Transition costs.
     */
    explicit LocalRpc(sim::CpuResource &cpu, const LocalRpcCosts &costs = {})
        : cpu_(cpu), costs_(costs)
    {}

    /**
     * Cross into the callee's domain. Await before running the callee's
     * body; pair with returnToCaller() after it.
     */
    sim::CpuResource::Use
    enterCallee()
    {
        return cpu_.use(costs_.callPath, sim::CpuCategory::kProcInvoke);
    }

    /** Cross back into the caller's domain. */
    sim::CpuResource::Use
    returnToCaller()
    {
        return cpu_.use(costs_.returnPath, sim::CpuCategory::kProcInvoke);
    }

    /** Round-trip transition cost (no body). */
    sim::Duration
    roundTripCost() const
    {
        return costs_.callPath + costs_.returnPath;
    }

  private:
    sim::CpuResource &cpu_;
    LocalRpcCosts costs_;
};

} // namespace remora::rpc
