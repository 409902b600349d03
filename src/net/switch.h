/**
 * @file
 * Output-queued ATM cell switch.
 *
 * The paper's testbed was switchless (two hosts back to back) but the
 * design targets "a modest number of high-performance workstations" on a
 * switched LAN, and notes that "loading at switches is a potential
 * performance problem". The Switch lets multi-node experiments (name
 * service across N machines, DFS client scaling) run over a realistic
 * store-and-forward fabric:
 *
 *  - Cells route on their VPI (destination node id) through a routing
 *    table populated by the Network builder.
 *  - Forwarding costs a fixed fabric latency, then the cell joins the
 *    output link's queue (output queuing; the link provides per-output
 *    serialization and downstream credit). The cell is handed to the
 *    output link on arrival, ready one fabric latency later
 *    (Link::sendAt), so the fabric crossing costs no event of its own.
 *  - Input ports return upstream credit as soon as a cell is forwarded
 *    into the fabric, so input never blocks (buffering concentrates at
 *    outputs, observable via Link::maxQueueDepth()).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/cell.h"
#include "net/link.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace remora::net {

/** N-port output-queued cell switch with VPI routing. */
class Switch
{
  public:
    /**
     * @param simulator Owning simulator.
     * @param fabricLatency Per-cell forwarding latency through the
     *        fabric (paper: "only small additional latency").
     * @param name Diagnostic name.
     */
    Switch(sim::Simulator &simulator, sim::Duration fabricLatency,
           std::string name);

    /**
     * Add a port whose output side transmits on @p outputLink.
     *
     * @return The port index, used in route().
     */
    size_t addPort(Link &outputLink);

    /** The cell sink for traffic arriving *into* port @p port. */
    CellSink &inputSink(size_t port);

    /** Route destination node id @p dst to output port @p port. */
    void route(NodeId dst, size_t port);

    /** Cells forwarded since construction. */
    uint64_t cellsForwarded() const { return forwarded_.value(); }

    /** Cells that arrived with no route (counted, then dropped loudly). */
    uint64_t routeMisses() const { return routeMisses_.value(); }

    /** Register fabric counters under "<prefix>.cells_forwarded" etc. */
    void registerStats(obs::MetricRegistry &reg,
                       const std::string &prefix) const;

  private:
    /** Look up the route and enqueue on the output link. */
    void forward(const Cell &cell);

    struct InSink : CellSink
    {
        Switch *parent = nullptr;
        void acceptCell(const Cell &cell) override;
    };

    struct PortState
    {
        Link *output = nullptr;
        InSink input;
    };

    sim::Simulator &sim_;
    sim::Duration fabricLatency_;
    std::string name_;
    std::vector<std::unique_ptr<PortState>> ports_;
    std::unordered_map<NodeId, size_t> routes_;
    sim::Counter forwarded_;
    sim::Counter routeMisses_;
};

} // namespace remora::net
