#include "rpc/transport.h"

#include <utility>

#include "obs/trace.h"
#include "sim/logger.h"
#include "util/bytes.h"
#include "util/panic.h"

namespace remora::rpc {

namespace {

/** Response status octet values. */
constexpr uint8_t kStatusOk = 0;
constexpr uint8_t kStatusBadProc = 1;

/**
 * Call and reply bodies share one XDR layout: a word (the procedure
 * number of a call, the status of a reply), then opaque bytes (the
 * arguments or results).
 */
struct Envelope
{
    uint32_t word = 0;
    std::vector<uint8_t> bytes;

    template <class IO, util::FieldsOf<Envelope> R>
    friend void
    fields(IO &io, R &e)
    {
        io.u32(e.word);
        io.opaque(e.bytes);
    }
};

} // namespace

RpcTransport::RpcTransport(rmem::Wire &wire, const ThreadModelCosts &costs)
    : wire_(wire), costs_(costs)
{
    wire_.setRpcHandler([this](net::NodeId src, rmem::Message &&msg) {
        onMessage(src, std::move(msg));
    });
}

void
RpcTransport::registerProc(uint32_t proc, Handler handler)
{
    procs_[proc] = std::move(handler);
}

sim::Task<util::Result<std::vector<uint8_t>>>
RpcTransport::call(net::NodeId dst, uint32_t proc, std::vector<uint8_t> args,
                   sim::Duration timeout)
{
    stats_.callsIssued.inc();
    auto &cpu = wire_.node().cpu();
    auto &sim = wire_.node().simulator();
    sim.noteDigest("rpc.call", static_cast<uint64_t>(dst) << 32 | proc);

    // Runs eagerly at call time, so asyncBegin sees the caller's
    // ambient OpScope and records it as this op's parent.
    uint64_t opId = 0;
    if (obs::TraceRecorder::on()) {
        auto &rec = obs::TraceRecorder::instance();
        opId = rec.newAsyncId();
        rec.asyncBegin(opId, wire_.node().name(), "rpc", "call",
                       "proc=" + std::to_string(proc) + " dst=" +
                           std::to_string(dst));
    }

    // Step 1: block the client thread and reschedule its processor.
    obs::SpanId blockSpan = obs::kNoSpan;
    if (opId != 0) {
        blockSpan = obs::TraceRecorder::instance().beginSpanFor(
            opId, wire_.node().name(), "rpc", "client_block");
    }
    co_await cpu.use(costs_.clientBlock, sim::CpuCategory::kControlTransfer);
    obs::TraceRecorder::instance().endSpan(blockSpan);

    uint32_t xid = nextXid_++;
    auto [it, inserted] = pending_.try_emplace(
        xid, PendingCall{sim::Promise<util::Result<std::vector<uint8_t>>>(sim),
                         0, opId});
    REMORA_ASSERT(inserted);
    auto fut = it->second.done.future();
    if (timeout > 0) {
        it->second.timeoutEvent = sim.schedule(timeout, [this, xid] {
            auto pit = pending_.find(xid);
            if (pit == pending_.end()) {
                return;
            }
            PendingCall p = std::move(pit->second);
            pending_.erase(pit);
            stats_.timeouts.inc();
            p.done.set(
                util::Status(util::ErrorCode::kTimeout, "RPC timed out"));
        });
    }

    rmem::RpcMsg msg;
    msg.xid = xid;
    msg.isResponse = false;
    msg.body = util::encode(Envelope{proc, std::move(args)});
    wire_.send(dst, rmem::Message(std::move(msg)),
               sim::CpuCategory::kDataReply, opId);
    co_return co_await fut;
}

void
RpcTransport::onMessage(net::NodeId src, rmem::Message &&msg)
{
    auto &rpc = std::get<rmem::RpcMsg>(msg);
    if (rpc.isResponse) {
        completeCall(rpc.xid, std::move(rpc.body));
    } else {
        serve(src, rpc.xid, std::move(rpc.body)).detach();
    }
}

sim::Task<void>
RpcTransport::serve(net::NodeId src, uint32_t xid, std::vector<uint8_t> body)
{
    stats_.callsServed.inc();
    auto &cpu = wire_.node().cpu();

    // Body runs eagerly under route()'s OpScope; capture the op now,
    // before the first suspension loses the ambient context.
    uint64_t op = obs::TraceRecorder::currentOp();
    obs::SpanId serveSpan = obs::kNoSpan;
    if (obs::TraceRecorder::on() && op != 0) {
        serveSpan = obs::TraceRecorder::instance().beginSpanFor(
            op, wire_.node().name(), "rpc", "serve",
            "xid=" + std::to_string(xid));
    }

    // Step 2: request-packet processing in the destination OS. The
    // kernel socket path copies the payload twice (mbuf chain, then
    // into the server's address space) — the "sometimes repeated
    // copying of data between the client or server memory and the
    // network" of §2.
    co_await cpu.use(costs_.serverPacket +
                         2 * wire_.costs().copyCost(body.size()),
                     sim::CpuCategory::kControlTransfer);
    // Step 3: schedule, dispatch, and execute the server thread.
    co_await cpu.use(costs_.serverDispatch,
                     sim::CpuCategory::kControlTransfer);

    Envelope request;
    bool wellFormed = util::decode(body, request);
    Envelope reply{kStatusBadProc, {}};
    auto it = procs_.find(request.word);
    if (it == procs_.end() || !wellFormed) {
        stats_.badProc.inc();
    } else {
        // Copy the handler out of procs_ before suspending: a
        // registerProc() during the awaited dispatch cost can rehash
        // the map and invalidate the iterator.
        Handler handler = it->second;
        // Stub invocation overhead around the handler body.
        co_await cpu.use(costs_.procInvoke, sim::CpuCategory::kProcInvoke);
        reply.bytes = co_await handler(src, std::move(request.bytes));
        reply.word = kStatusOk;
    }

    rmem::RpcMsg msg;
    msg.xid = xid;
    msg.isResponse = true;
    msg.body = util::encode(reply);

    // Step 4: reschedule the server's processor on return, plus the
    // socket-layer copies of the reply on the way out.
    co_await cpu.use(costs_.serverReturn +
                         2 * wire_.costs().copyCost(msg.body.size()),
                     sim::CpuCategory::kControlTransfer);
    obs::TraceRecorder::instance().endSpan(serveSpan);
    wire_.send(src, rmem::Message(std::move(msg)),
               sim::CpuCategory::kDataReply, op);
}

void
RpcTransport::completeCall(uint32_t xid, std::vector<uint8_t> body)
{
    auto it = pending_.find(xid);
    if (it == pending_.end()) {
        // The call already timed out; count the drop instead of
        // hiding it.
        stats_.lateReplies.inc();
        wire_.node().simulator().noteDigest("rpc.late_reply", xid);
        if (obs::TraceRecorder::on()) {
            obs::TraceRecorder::instance().instant(
                wire_.node().name(), "rpc", "late_reply",
                "xid=" + std::to_string(xid));
        }
        return;
    }
    PendingCall p = std::move(it->second);
    pending_.erase(it);
    if (p.timeoutEvent != 0) {
        wire_.node().simulator().cancel(p.timeoutEvent);
    }

    // Steps 5 + 6: reply-packet processing, then schedule and resume
    // the original client thread.
    auto &cpu = wire_.node().cpu();
    obs::SpanId resumeSpan = obs::kNoSpan;
    if (obs::TraceRecorder::on() && p.traceOp != 0) {
        resumeSpan = obs::TraceRecorder::instance().beginSpanFor(
            p.traceOp, wire_.node().name(), "rpc", "client_resume");
    }
    std::string nodeName = wire_.node().name();
    cpu.post(costs_.clientPacket + costs_.clientResume,
             sim::CpuCategory::kControlTransfer,
             [p = std::move(p), body = std::move(body), resumeSpan,
              nodeName = std::move(nodeName)]() mutable {
                 auto &rec = obs::TraceRecorder::instance();
                 rec.endSpan(resumeSpan);
                 if (p.traceOp != 0) {
                     rec.asyncEnd(p.traceOp, nodeName, "rpc", "call");
                 }
                 Envelope reply;
                 if (!util::decode(body, reply) ||
                     reply.word != kStatusOk) {
                     p.done.set(util::Status(util::ErrorCode::kInternal,
                                             "RPC failed remotely"));
                 } else {
                     p.done.set(std::move(reply.bytes));
                 }
             });
}

void
RpcTransport::registerStats(obs::MetricRegistry &reg,
                            const std::string &prefix) const
{
    reg.add(prefix + ".calls_issued", stats_.callsIssued);
    reg.add(prefix + ".calls_served", stats_.callsServed);
    reg.add(prefix + ".timeouts", stats_.timeouts);
    reg.add(prefix + ".bad_proc", stats_.badProc);
    reg.add(prefix + ".late_replies", stats_.lateReplies);
}

} // namespace remora::rpc
