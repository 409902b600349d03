/**
 * @file
 * Unidirectional, credit-flow-controlled point-to-point link.
 *
 * The paper's design assumptions (§3) rely on "hardware flow-control ...
 * that can guarantee that data packets are delivered reliably"; a cell
 * drop inside the cluster is treated as catastrophic. The Link therefore
 * never drops: cells queue at the sender until the receiver has both
 * wire time and buffer credit for them.
 *
 *  - Transmission is serialized at the configured bandwidth (one cell
 *    occupies the wire for 53*8/bandwidth seconds).
 *  - Each cell consumes one credit; the receiver returns credits as it
 *    drains its bounded FIFO, and the credit signal takes a propagation
 *    delay to travel back.
 *
 * Both are computed, not stepped. A returned credit is *booked* at its
 * arrival instant and absorbed by the next pump() at or after it; only
 * a link stalled on credit schedules a wake, at the earliest booked
 * instant. A cell holding a credit is *committed* at once: its start is
 * max(ready, wire free, now) and only its delivery is scheduled. The
 * start and delivery instants equal those of a link stepped one event
 * per credit and per wire-free instant.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <utility>

#include "net/cell.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace remora::net {

class FaultInjector;
class Link;

/** Receiving endpoint of a Link. */
class CellSink
{
  public:
    virtual ~CellSink() = default;

    /**
     * Deliver one cell. The link guarantees it held a credit, so the
     * sink must have buffer space.
     */
    virtual void acceptCell(const Cell &cell) = 0;

    /** Called by Link::connect so the sink can return credits. */
    void attachUpstream(Link *link) { upstream_ = link; }

  protected:
    /** The link feeding this sink; used for credit returns. */
    Link *upstream_ = nullptr;
};

/** Physical parameters of a link. */
struct LinkParams
{
    /** Wire bandwidth in megabits per second (FORE testbed: 140). */
    double bandwidthMbps = 140.0;
    /** One-way propagation delay. */
    sim::Duration propagation = sim::usec(1);
    /**
     * Receiver buffer credit (cells in flight + buffered). Must not
     * exceed the receiving FIFO's capacity.
     */
    size_t credits = 64;
};

/** One direction of a wire between two devices. */
class Link
{
  public:
    /**
     * @param simulator Owning simulator.
     * @param params Physical parameters.
     * @param name Diagnostic name, e.g. "client->server".
     */
    Link(sim::Simulator &simulator, const LinkParams &params,
         std::string name);

    Link(const Link &) = delete;
    Link &operator=(const Link &) = delete;

    /** Attach the receiving endpoint; must happen before any send. */
    void connect(CellSink &sink);

    /**
     * Queue one cell for transmission now. Never drops; the cell waits
     * for wire availability and receiver credit.
     */
    void send(const Cell &cell) { sendAt(cell, sim_.now()); }

    /**
     * Queue one cell that becomes ready to transmit at @p readyAt
     * (>= now; the switch hands a cell over on arrival, ready once it
     * has crossed the fabric). Cells must be handed over in readyAt
     * order.
     */
    void sendAt(const Cell &cell, sim::Time readyAt);

    /**
     * Return @p n credits from the receiver side (it drained cells from
     * its buffer). The credit takes one propagation delay to reach the
     * sender.
     */
    void returnCredit(size_t n = 1);

    /** Wire time for one cell at this link's bandwidth. */
    sim::Duration cellTime() const { return cellTime_; }

    /** One-way propagation delay. */
    sim::Duration propagation() const { return params_.propagation; }

    /**
     * Cells committed to the wire since construction, counting those
     * whose transmission has not started yet.
     */
    uint64_t cellsSent() const { return cellsSent_.value(); }

    /** Largest sender-side queue depth observed. */
    size_t maxQueueDepth() const { return maxQueue_; }

    /**
     * Cells currently waiting for wire or credit: ready, and either
     * uncommitted or committed with a start still in the future.
     */
    size_t queueDepth() const;

    /**
     * Register cell/queue metrics under "<prefix>.cells_sent" etc.
     */
    void registerStats(obs::MetricRegistry &reg,
                       const std::string &prefix) const;

    /**
     * Install (or clear, with nullptr) a fault injector consulted for
     * every cell leaving the wire. The link does not own it. With an
     * injector installed the "never drops" guarantee above no longer
     * holds — recovery belongs to the layers on top.
     */
    void setFaultInjector(FaultInjector *injector) { faults_ = injector; }

    /** The installed fault injector, if any. */
    FaultInjector *faultInjector() const { return faults_; }

    /** Diagnostic name. */
    const std::string &name() const { return name_; }

  private:
    /** A cell waiting for credit. */
    struct Queued
    {
        Cell cell;
        sim::Time readyAt;
    };

    /** Ready and start instants of a committed cell. */
    struct Committed
    {
        sim::Time readyAt;
        sim::Time start;
    };

    /** Absorb arrived credits, then commit queued cells while they last. */
    void pump();

    /** Fix @p cell's wire slot and schedule its delivery. */
    void commit(Cell cell, sim::Time readyAt);

    /** Book @p n credits arriving at @p at. */
    void bookCredit(sim::Time at, size_t n);

    /** A stalled link wakes at the earliest booked credit. */
    void armCreditWake();

    sim::Simulator &sim_;
    LinkParams params_;
    std::string name_;
    CellSink *sink_ = nullptr;
    FaultInjector *faults_ = nullptr;
    sim::Duration cellTime_;
    /** Cells without credit, in arrival order. */
    std::deque<Queued> queue_;
    /** Committed cells that may still be waiting for the wire. */
    std::deque<Committed> committed_;
    /** Credits on their way back: (arrival instant, count), sorted. */
    std::deque<std::pair<sim::Time, size_t>> booked_;
    size_t credits_;
    sim::Time wireFreeAt_ = 0;
    /** Pending credit wake (0 when none) and its instant. */
    sim::EventId wake_ = 0;
    sim::Time wakeAt_ = 0;
    sim::Counter cellsSent_;
    size_t maxQueue_ = 0;
};

} // namespace remora::net
