#include "net/switch.h"

#include "obs/trace.h"
#include "util/panic.h"

namespace remora::net {

Switch::Switch(sim::Simulator &simulator, sim::Duration fabricLatency,
               std::string name)
    : sim_(simulator), fabricLatency_(fabricLatency), name_(std::move(name))
{}

size_t
Switch::addPort(Link &outputLink)
{
    auto port = std::make_unique<PortState>();
    port->output = &outputLink;
    port->input.parent = this;
    ports_.push_back(std::move(port));
    return ports_.size() - 1;
}

CellSink &
Switch::inputSink(size_t port)
{
    REMORA_ASSERT(port < ports_.size());
    return ports_[port]->input;
}

void
Switch::route(NodeId dst, size_t port)
{
    REMORA_ASSERT(port < ports_.size());
    routes_[dst] = port;
}

void
Switch::InSink::acceptCell(const Cell &cell)
{
    // Input buffering is released immediately: return the credit to the
    // upstream link and push the cell through the fabric.
    if (upstream_ != nullptr) {
        upstream_->returnCredit();
    }
    parent->forward(cell);
}

void
Switch::forward(const Cell &cell)
{
    auto it = routes_.find(cell.vpi);
    if (it == routes_.end()) {
        routeMisses_.inc();
        REMORA_PANIC("switch " + name_ + ": no route for node " +
                     std::to_string(cell.vpi));
    }
    Link *out = ports_[it->second]->output;
    forwarded_.inc();
    if (obs::TraceRecorder::on()) {
        obs::TraceRecorder::instance().instant(
            name_, "net", "hop",
            "dst=" + std::to_string(cell.vpi) +
                " src=" + std::to_string(cell.vci));
    }
    out->sendAt(cell, sim_.now() + fabricLatency_);
}

void
Switch::registerStats(obs::MetricRegistry &reg,
                      const std::string &prefix) const
{
    reg.add(prefix + ".cells_forwarded", forwarded_);
    reg.add(prefix + ".route_misses", routeMisses_);
}

} // namespace remora::net
