/**
 * @file
 * Shared test fixtures: canned clusters and coroutine helpers.
 */
#pragma once

#include <gtest/gtest.h>

#include "mem/node.h"
#include "net/network.h"
#include "rmem/engine.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace remora::test {

/** Two directly-linked nodes, as on the paper's measurement testbed. */
struct TwoNodeCluster
{
    sim::Simulator sim;
    net::Network network;
    mem::Node nodeA;
    mem::Node nodeB;
    rmem::RmemEngine engineA;
    rmem::RmemEngine engineB;

    explicit TwoNodeCluster(const rmem::CostModel &costs = {})
        : network(sim, net::LinkParams{}),
          nodeA(sim, 1, "nodeA"), nodeB(sim, 2, "nodeB"),
          engineA(nodeA, costs), engineB(nodeB, costs)
    {
        network.addHost(1, nodeA.nic());
        network.addHost(2, nodeB.nic());
        network.wireDirect();
    }

    ~TwoNodeCluster()
    {
        // "Queue drained" must mean "all done", not "blocked forever":
        // a park at quiescence waited for a wakeup that never came.
        // With live events still pending the run merely stopped early,
        // so parked coroutines are legitimate.
        if (sim.livePendingEvents() == 0) {
            EXPECT_EQ(sim.blockedTaskCount(), 0u)
                << "coroutine(s) blocked forever at cluster teardown";
        }
    }
};

/** N nodes on a switch. */
struct SwitchedCluster
{
    sim::Simulator sim;
    net::Network network;
    std::vector<std::unique_ptr<mem::Node>> nodes;
    std::vector<std::unique_ptr<rmem::RmemEngine>> engines;

    explicit SwitchedCluster(size_t n, const rmem::CostModel &costs = {})
        : network(sim, net::LinkParams{})
    {
        for (size_t i = 0; i < n; ++i) {
            auto id = static_cast<net::NodeId>(i + 1);
            nodes.push_back(std::make_unique<mem::Node>(
                sim, id, "node" + std::to_string(id)));
            engines.push_back(
                std::make_unique<rmem::RmemEngine>(*nodes.back(), costs));
            network.addHost(id, nodes.back()->nic());
        }
        network.wireSwitched();
    }

    ~SwitchedCluster()
    {
        if (sim.livePendingEvents() == 0) {
            EXPECT_EQ(sim.blockedTaskCount(), 0u)
                << "coroutine(s) blocked forever at cluster teardown";
        }
    }
};

/** Drive the simulator until @p task completes (or the queue drains). */
template <typename T>
T
runToCompletion(sim::Simulator &sim, sim::Task<T> &task)
{
    while (!task.done() && sim.step()) {
    }
    EXPECT_TRUE(task.done()) << "task did not complete; event queue drained";
    return task.result();
}

/** void specialization driver. */
inline void
runToCompletion(sim::Simulator &sim, sim::Task<void> &task)
{
    while (!task.done() && sim.step()) {
    }
    EXPECT_TRUE(task.done()) << "task did not complete; event queue drained";
    task.result();
}

/**
 * Step until @p server has dispatched one more request and that
 * request's stage-1 event (demux + validation) has run and queued its
 * stage-2 copy: the window in which a revoke lands mid-copy. Relies on
 * nothing else queueing work on the server's CPU meanwhile.
 */
inline void
runToStageTwo(sim::Simulator &sim, rmem::RmemEngine &server)
{
    uint64_t served = server.stats().requestsServed.value();
    while (server.stats().requestsServed.value() == served && sim.step()) {
    }
    sim::Time stageOneEnd = server.node().cpu().busyUntil();
    while (server.node().cpu().busyUntil() == stageOneEnd && sim.step()) {
    }
}

} // namespace remora::test
