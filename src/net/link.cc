#include "net/link.h"

#include <algorithm>
#include <iterator>

#include "net/fault.h"
#include "util/panic.h"

namespace remora::net {

Link::Link(sim::Simulator &simulator, const LinkParams &params,
           std::string name)
    : sim_(simulator), params_(params), name_(std::move(name)),
      credits_(params.credits)
{
    REMORA_ASSERT(params.bandwidthMbps > 0.0);
    REMORA_ASSERT(params.credits > 0);
    double bitsPerCell = Cell::kCellBytes * 8.0;
    double secs = bitsPerCell / (params.bandwidthMbps * 1e6);
    cellTime_ = static_cast<sim::Duration>(secs * 1e9 + 0.5);
}

void
Link::connect(CellSink &sink)
{
    REMORA_ASSERT(sink_ == nullptr);
    sink_ = &sink;
    sink.attachUpstream(this);
}

void
Link::sendAt(const Cell &cell, sim::Time readyAt)
{
    REMORA_ASSERT(sink_ != nullptr);
    REMORA_ASSERT(readyAt >= sim_.now());
    queue_.push_back(Queued{cell, readyAt});
    pump();
}

void
Link::returnCredit(size_t n)
{
    // The credit indication travels back along the wire.
    bookCredit(sim_.now() + params_.propagation, n);
    if (!queue_.empty()) {
        armCreditWake();
    }
}

size_t
Link::queueDepth() const
{
    sim::Time now = sim_.now();
    size_t n = 0;
    for (const Committed &c : committed_) {
        n += c.readyAt <= now && c.start > now ? 1 : 0;
    }
    for (const Queued &q : queue_) {
        n += q.readyAt <= now ? 1 : 0;
    }
    return n;
}

void
Link::registerStats(obs::MetricRegistry &reg, const std::string &prefix) const
{
    reg.add(prefix + ".cells_sent", cellsSent_);
    reg.addGauge(prefix + ".queue_depth",
                 [this] { return static_cast<double>(queueDepth()); });
    reg.addGauge(prefix + ".max_queue_depth",
                 [this] { return static_cast<double>(maxQueue_); });
}

void
Link::pump()
{
    sim::Time now = sim_.now();
    while (!booked_.empty() && booked_.front().first <= now) {
        credits_ += booked_.front().second;
        booked_.pop_front();
    }
    while (!queue_.empty() && credits_ > 0) {
        --credits_;
        Queued q = queue_.front();
        queue_.pop_front();
        commit(q.cell, q.readyAt);
    }
    if (!queue_.empty()) {
        armCreditWake();
    }
}

void
Link::commit(Cell cell, sim::Time readyAt)
{
    sim::Time now = sim_.now();
    sim::Time start = std::max({readyAt, wireFreeAt_, now});
    wireFreeAt_ = start + cellTime_;
    cellsSent_.inc();

    // Queue depth as the cell joined the queue at readyAt: itself plus
    // every earlier cell whose transmission starts after that instant.
    // Starts strictly increase, so the earlier cells form a suffix.
    sim::Time horizon = std::min(readyAt, now);
    while (!committed_.empty() && committed_.front().start <= horizon) {
        committed_.pop_front();
    }
    auto firstAhead = std::upper_bound(
        committed_.begin(), committed_.end(), readyAt,
        [](sim::Time t, const Committed &c) { return t < c.start; });
    size_t ahead = static_cast<size_t>(committed_.end() - firstAhead);
    maxQueue_ = std::max(maxQueue_, ahead + 1);
    committed_.push_back(Committed{readyAt, start});

    // The cell is fully received one serialization + propagation after
    // transmission starts.
    sim::Time deliverAt = wireFreeAt_ + params_.propagation;
    if (faults_ != nullptr) {
        FaultInjector::Decision d = faults_->decide(cell, deliverAt, cellTime_);
        if (d.action == FaultInjector::Action::kDrop) {
            // The cell dies in flight. Its credit still comes back one
            // propagation delay after it started, as if the receiver had
            // drained it — flow control cannot see the loss.
            bookCredit(start + params_.propagation, 1);
            return;
        }
        deliverAt += d.extraDelay;
    }
    sim_.scheduleAt(deliverAt, [this, cell] { sink_->acceptCell(cell); });
}

void
Link::bookCredit(sim::Time at, size_t n)
{
    // Receiver returns arrive in time order; only a dropped cell's
    // credit, booked at its (future) start, can land out of order.
    auto it = booked_.end();
    while (it != booked_.begin() && std::prev(it)->first > at) {
        --it;
    }
    booked_.insert(it, {at, n});
}

void
Link::armCreditWake()
{
    if (booked_.empty()) {
        return;
    }
    sim::Time at = booked_.front().first;
    if (wake_ != 0) {
        if (wakeAt_ <= at) {
            return;
        }
        // A credit booked later arrives earlier: move the wake to it.
        sim_.cancel(wake_);
    }
    wakeAt_ = at;
    wake_ = sim_.scheduleAt(at, [this] {
        wake_ = 0;
        pump();
    });
}

} // namespace remora::net
