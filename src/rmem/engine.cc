#include "rmem/engine.h"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>

#include "net/aal5.h"
#include "obs/trace.h"
#include "rmem/race_detector.h"
#include "sim/logger.h"
#include "util/panic.h"

namespace remora::rmem {

/** Shared progress of one served vectored request. */
struct RmemEngine::VectorServeState
{
    net::NodeId src = 0;
    ReqId reqId = 0;
    bool wantResponse = false;
    uint64_t op = 0;
    obs::SpanId span = obs::kNoSpan;
    std::vector<VectorSubResult> results;
    /** Valid sub-ops whose stage-2 event has not completed yet. */
    size_t remaining = 0;
    /**
     * Notifications queued per destination segment, flushed as one
     * doorbell per channel when the last sub-op completes. Keyed by
     * slot id (deterministic order; re-resolved at flush so a segment
     * revoked mid-batch cannot dangle).
     */
    std::map<SegmentId, std::vector<Notification>> notify;
};

namespace {

/** Pages a [offset, offset+count) range touches (for translate cost). */
sim::Duration
translateCost(const CostModel &costs, uint64_t offset, uint64_t count)
{
    if (count == 0) {
        return costs.translatePageCost;
    }
    uint64_t first = offset / mem::kPageBytes;
    uint64_t last = (offset + count - 1) / mem::kPageBytes;
    return static_cast<sim::Duration>(last - first + 1) *
           costs.translatePageCost;
}

} // namespace

RmemEngine::RmemEngine(mem::Node &node, const CostModel &costs)
    : node_(node), costs_(costs), wire_(node, costs),
      table_(node.cpu(), costs_)
{
    wire_.setRmemHandler(
        [this](net::NodeId src, Message &&msg) { onMessage(src, std::move(msg)); });
}

// ----------------------------------------------------------------------
// Export-side kernel calls
// ----------------------------------------------------------------------

util::Result<ImportedSegment>
RmemEngine::exportSegment(mem::Process &owner, mem::Vaddr base, uint32_t size,
                          Rights rights, NotifyPolicy policy,
                          const std::string &name)
{
    if (size == 0) {
        return util::Status(util::ErrorCode::kInvalidArgument,
                            "zero-size segment");
    }
    if (!owner.space().isMapped(base, size)) {
        return util::Status(util::ErrorCode::kOutOfBounds,
                            "segment range not mapped");
    }
    util::Status pinned = owner.space().pin(base, size);
    if (!pinned.ok()) {
        return pinned;
    }
    auto slot = table_.allocate(owner.pid(), base, size, rights, policy, name);
    if (!slot.ok()) {
        owner.space().unpin(base, size);
        return slot.status();
    }
    // Kernel-call CPU cost: trap, table setup, page pinning.
    node_.cpu().post(costs_.trapOverhead + costs_.validateCost +
                         translateCost(costs_, 0, size),
                     sim::CpuCategory::kOther);
    const SegmentDescriptor *d = table_.get(slot.value());
    REMORA_ASSERT(d != nullptr);
    d->channel->setTraceNode(node_.name());
    d->channel->setHangLabel(node_.name() + ":" + name + " notify fd");
    if (RaceDetector::on()) {
        // Shadow the segment, attribute the channel's consumers to
        // this node, and let the detector see the exporter's own
        // loads/stores through the space's access observer. The
        // observer stays cheap when the detector is later disarmed.
        RaceDetector::instance().registerSegment(
            node_.id(), slot.value(), owner.pid(), base, size, name);
        d->channel->setRaceContext(node_.id());
        if (!owner.space().hasAccessObserver()) {
            mem::Node *nodePtr = &node_;
            mem::Pid pid = owner.pid();
            owner.space().setAccessObserver(
                [nodePtr, pid](bool write, mem::Vaddr va, size_t len) {
                    if (!RaceDetector::on()) {
                        return;
                    }
                    RaceDetector::instance().onLocalAccess(
                        nodePtr->id(), pid, write, va, len,
                        nodePtr->simulator().now());
                });
        }
    }
    return ImportedSegment{node_.id(), slot.value(), d->generation, size,
                           rights};
}

util::Status
RmemEngine::revokeSegment(SegmentId id)
{
    SegmentDescriptor *d = table_.get(id);
    if (d == nullptr) {
        return util::Status(util::ErrorCode::kBadDescriptor,
                            "revoke of invalid segment");
    }
    if (mem::Process *owner = ownerOf(*d)) {
        owner->space().unpin(d->base, d->size);
    }
    if (RaceDetector::on()) {
        RaceDetector::instance().unregisterSegment(node_.id(), id);
    }
    node_.cpu().post(costs_.trapOverhead + costs_.validateCost,
                     sim::CpuCategory::kOther);
    return table_.release(id);
}

util::Status
RmemEngine::setWriteInhibit(SegmentId id, bool inhibit)
{
    SegmentDescriptor *d = table_.get(id);
    if (d == nullptr) {
        return util::Status(util::ErrorCode::kBadDescriptor, "no segment");
    }
    d->writeInhibited = inhibit;
    return {};
}

util::Status
RmemEngine::setNotifyPolicy(SegmentId id, NotifyPolicy policy)
{
    SegmentDescriptor *d = table_.get(id);
    if (d == nullptr) {
        return util::Status(util::ErrorCode::kBadDescriptor, "no segment");
    }
    d->policy = policy;
    return {};
}

NotificationChannel *
RmemEngine::channel(SegmentId id)
{
    SegmentDescriptor *d = table_.get(id);
    return d ? d->channel.get() : nullptr;
}

SegmentDescriptor *
RmemEngine::descriptor(SegmentId id)
{
    return table_.get(id);
}

util::Result<ImportedSegment>
RmemEngine::localHandle(SegmentId id) const
{
    const SegmentDescriptor *d = table_.get(id);
    if (d == nullptr) {
        return util::Status(util::ErrorCode::kBadDescriptor, "no segment");
    }
    return ImportedSegment{node_.id(), id, d->generation, d->size, d->rights};
}

// ----------------------------------------------------------------------
// Meta-instructions (initiator side)
// ----------------------------------------------------------------------

sim::Task<util::Status>
RmemEngine::write(ImportedSegment dst, uint32_t offset,
                  std::vector<uint8_t> data, bool notify)
{
    stats_.writesIssued.inc();
    node_.simulator().noteDigest("rmem.write", dst.node << 8 | dst.descriptor);
    if (!hasRights(dst.rights, Rights::kWrite)) {
        co_return util::Status(util::ErrorCode::kAccessDenied,
                               "import lacks write right");
    }
    if (static_cast<uint64_t>(offset) + data.size() > dst.size) {
        co_return util::Status(util::ErrorCode::kOutOfBounds,
                               "write outside imported segment");
    }

    sim::Time start = node_.simulator().now();
    uint64_t opId = 0;
    if (obs::TraceRecorder::on()) {
        auto &rec = obs::TraceRecorder::instance();
        opId = rec.newAsyncId();
        rec.asyncBegin(opId, node_.name(), "rmem", "write",
                       "bytes=" + std::to_string(data.size()) + " dst=" +
                           std::to_string(dst.node));
    }

    // Sender-side emulation: trap + rights verification. Op passed
    // explicitly: the coroutine resumes outside any ambient scope.
    obs::SpanId issueSpan = obs::kNoSpan;
    if (opId != 0) {
        issueSpan = obs::TraceRecorder::instance().beginSpanFor(
            opId, node_.name(), "rmem", "issue");
    }
    co_await node_.cpu().use(costs_.trapOverhead + costs_.validateCost,
                             sim::CpuCategory::kOther);
    obs::TraceRecorder::instance().endSpan(issueSpan);

    size_t pos = 0;
    do {
        size_t chunk = std::min(data.size() - pos, kBlockDataMax);
        WriteReq req;
        req.descriptor = dst.descriptor;
        req.generation = dst.generation;
        req.offset = offset + static_cast<uint32_t>(pos);
        req.notify = notify && (pos + chunk == data.size());
        req.data.assign(data.begin() + static_cast<ptrdiff_t>(pos),
                        data.begin() + static_cast<ptrdiff_t>(pos + chunk));
        auto accepted = wire_.send(dst.node, Message(std::move(req)),
                                   sim::CpuCategory::kDataReply, opId);
        pos += chunk;
        if (pos >= data.size()) {
            // Local completion: data accepted by the network.
            co_await accepted;
            break;
        }
    } while (true);
    // Local completion never waits on the wire or the remote NIC, so
    // the whole latency is software.
    recordOp(metrics_.write, start, 0, 0);
    if (opId != 0) {
        obs::TraceRecorder::instance().asyncEnd(opId, node_.name(), "rmem",
                                                "write");
    }
    co_return util::Status();
}

sim::Task<ReadOutcome>
RmemEngine::read(ImportedSegment src, uint32_t srcOff, SegmentId dstSeg,
                 uint32_t dstOff, uint32_t count, bool notify,
                 sim::Duration timeout)
{
    stats_.readsIssued.inc();
    node_.simulator().noteDigest("rmem.read", src.node << 8 | src.descriptor);
    if (!hasRights(src.rights, Rights::kRead)) {
        co_return ReadOutcome{util::Status(util::ErrorCode::kAccessDenied,
                                           "import lacks read right"),
                              {}};
    }
    if (static_cast<uint64_t>(srcOff) + count > src.size) {
        co_return ReadOutcome{util::Status(util::ErrorCode::kOutOfBounds,
                                           "read outside imported segment"),
                              {}};
    }
    SegmentDescriptor *dst = table_.get(dstSeg);
    if (dst == nullptr) {
        co_return ReadOutcome{util::Status(util::ErrorCode::kBadDescriptor,
                                           "bad local destination segment"),
                              {}};
    }
    if (static_cast<uint64_t>(dstOff) + count > dst->size) {
        co_return ReadOutcome{
            util::Status(util::ErrorCode::kOutOfBounds,
                         "destination outside local segment"),
            {}};
    }

    sim::Time start = node_.simulator().now();
    uint64_t opId = 0;
    if (obs::TraceRecorder::on()) {
        auto &rec = obs::TraceRecorder::instance();
        opId = rec.newAsyncId();
        rec.asyncBegin(opId, node_.name(), "rmem", "read",
                       "count=" + std::to_string(count) + " src=" +
                           std::to_string(src.node));
    }
    // Model-derived phase estimates, accumulated per chunk.
    sim::Duration wireTime = 0;
    sim::Duration controllerTime = 0;

    obs::SpanId issueSpan = obs::kNoSpan;
    if (opId != 0) {
        issueSpan = obs::TraceRecorder::instance().beginSpanFor(
            opId, node_.name(), "rmem", "issue");
    }
    co_await node_.cpu().use(costs_.trapOverhead + costs_.validateCost,
                             sim::CpuCategory::kOther);
    obs::TraceRecorder::instance().endSpan(issueSpan);

    ReadOutcome total{util::Status(), {}};
    total.data.reserve(count);
    mem::Pid dstPid = dst->ownerPid;
    mem::Vaddr dstBase = dst->base;

    uint32_t pos = 0;
    while (pos < count || (count == 0 && pos == 0)) {
        uint32_t chunk = static_cast<uint32_t>(
            std::min<uint64_t>(count - pos, kBlockDataMax));
        ReqId id = allocReqId();
        bool lastChunk = (pos + chunk >= count);

        auto [it, inserted] = pendingReads_.try_emplace(
            id, PendingRead{dstPid, dstBase + dstOff + pos,
                            sim::Promise<ReadOutcome>(node_.simulator()),
                            0, notify && lastChunk, dstSeg});
        REMORA_ASSERT(inserted);
        auto fut = it->second.done.future();
        if (timeout > 0) {
            it->second.timeoutEvent =
                node_.simulator().schedule(timeout, [this, id] {
                    auto pit = pendingReads_.find(id);
                    if (pit == pendingReads_.end()) {
                        return;
                    }
                    PendingRead p = std::move(pit->second);
                    pendingReads_.erase(pit);
                    stats_.timeouts.inc();
                    p.done.set(ReadOutcome{
                        util::Status(util::ErrorCode::kTimeout,
                                     "remote read timed out"),
                        {}});
                });
        }

        ReadReq req;
        req.srcDescriptor = src.descriptor;
        req.generation = src.generation;
        req.srcOffset = srcOff + pos;
        req.dstDescriptor = dstSeg;
        req.dstOffset = dstOff + pos;
        req.count = static_cast<uint16_t>(chunk);
        req.reqId = id;
        req.notify = notify && lastChunk;
        wire_.send(src.node, Message(req), sim::CpuCategory::kDataReply,
                   opId);

        // One request cell out; the response is one raw cell when it
        // fits, otherwise an AAL5 frame. Each chunk also pays a server
        // RX interrupt and a local RX interrupt (the controller phase).
        size_t respBytes = chunk + 6;
        wireTime += modelWireTime(1, respBytes <= net::Cell::kPayloadBytes
                                         ? 1
                                         : net::aal5CellCount(respBytes));
        controllerTime += 2 * node_.nic().interruptLatency();

        ReadOutcome part = co_await fut;
        if (!part.status.ok()) {
            if (opId != 0) {
                obs::TraceRecorder::instance().asyncEnd(
                    opId, node_.name(), "rmem", "read",
                    part.status.message());
            }
            co_return ReadOutcome{part.status, std::move(total.data)};
        }
        total.data.insert(total.data.end(), part.data.begin(),
                          part.data.end());
        pos += chunk;
        if (count == 0) {
            break;
        }
    }
    recordOp(metrics_.read, start, wireTime, controllerTime);
    if (opId != 0) {
        obs::TraceRecorder::instance().asyncEnd(opId, node_.name(), "rmem",
                                                "read");
    }
    co_return total;
}

sim::Task<CasOutcome>
RmemEngine::cas(ImportedSegment dst, uint32_t offset, uint32_t oldValue,
                uint32_t newValue, SegmentId resultSeg, uint32_t resultOff,
                sim::Duration timeout)
{
    stats_.casIssued.inc();
    node_.simulator().noteDigest("rmem.cas", dst.node << 8 | dst.descriptor);
    if (!hasRights(dst.rights, Rights::kCas)) {
        co_return CasOutcome{util::Status(util::ErrorCode::kAccessDenied,
                                          "import lacks CAS right"),
                             false, 0};
    }
    if (offset % 4 != 0 ||
        static_cast<uint64_t>(offset) + 4 > dst.size) {
        co_return CasOutcome{util::Status(util::ErrorCode::kOutOfBounds,
                                          "CAS target invalid"),
                             false, 0};
    }
    SegmentDescriptor *result = table_.get(resultSeg);
    if (result == nullptr || resultOff % 4 != 0 ||
        static_cast<uint64_t>(resultOff) + 4 > result->size) {
        co_return CasOutcome{util::Status(util::ErrorCode::kInvalidArgument,
                                          "CAS result location invalid"),
                             false, 0};
    }

    sim::Time start = node_.simulator().now();
    uint64_t opId = 0;
    if (obs::TraceRecorder::on()) {
        auto &rec = obs::TraceRecorder::instance();
        opId = rec.newAsyncId();
        rec.asyncBegin(opId, node_.name(), "rmem", "cas",
                       "dst=" + std::to_string(dst.node));
    }

    obs::SpanId issueSpan = obs::kNoSpan;
    if (opId != 0) {
        issueSpan = obs::TraceRecorder::instance().beginSpanFor(
            opId, node_.name(), "rmem", "issue");
    }
    co_await node_.cpu().use(costs_.trapOverhead + costs_.validateCost,
                             sim::CpuCategory::kOther);
    obs::TraceRecorder::instance().endSpan(issueSpan);

    ReqId id = allocReqId();
    auto [it, inserted] = pendingCas_.try_emplace(
        id, PendingCas{result->ownerPid, result->base + resultOff,
                       sim::Promise<CasOutcome>(node_.simulator()), 0});
    REMORA_ASSERT(inserted);
    auto fut = it->second.done.future();
    if (timeout > 0) {
        it->second.timeoutEvent =
            node_.simulator().schedule(timeout, [this, id] {
                auto pit = pendingCas_.find(id);
                if (pit == pendingCas_.end()) {
                    return;
                }
                PendingCas p = std::move(pit->second);
                pendingCas_.erase(pit);
                stats_.timeouts.inc();
                p.done.set(CasOutcome{util::Status(util::ErrorCode::kTimeout,
                                                   "remote CAS timed out"),
                                      false, 0});
            });
    }

    CasReq req;
    req.descriptor = dst.descriptor;
    req.generation = dst.generation;
    req.offset = offset;
    req.oldValue = oldValue;
    req.newValue = newValue;
    req.resultDescriptor = resultSeg;
    req.resultOffset = resultOff;
    req.reqId = id;
    wire_.send(dst.node, Message(req), sim::CpuCategory::kDataReply, opId);

    CasOutcome out = co_await fut;
    if (out.status.ok()) {
        // Single-cell exchange: one request, one response, two NIC
        // interrupts on the critical path.
        recordOp(metrics_.cas, start, modelWireTime(1, 1),
                 2 * node_.nic().interruptLatency());
    }
    if (opId != 0) {
        obs::TraceRecorder::instance().asyncEnd(opId, node_.name(), "rmem",
                                                "cas", out.status.message());
    }
    co_return out;
}

// ----------------------------------------------------------------------
// Vectored meta-instructions (initiator side)
// ----------------------------------------------------------------------

sim::Task<VectorOutcome>
RmemEngine::issueVector(VectorBatch batch, sim::Duration timeout)
{
    size_t n = batch.ops.size();
    if (n == 0) {
        co_return VectorOutcome{util::Status(), {}};
    }
    stats_.vectorsIssued.inc();
    stats_.vectorSubOps.inc(n);
    node_.simulator().noteDigest(
        "rmem.vector", (static_cast<uint64_t>(batch.target) << 8) | n);
    if (n > kMaxVectorOps || batch.local.size() != n) {
        co_return VectorOutcome{
            util::Status(util::ErrorCode::kInvalidArgument,
                         "malformed vector batch"),
            {}};
    }

    VectorReq req;
    req.ops = std::move(batch.ops);
    if (encodedVectorSize(req) > kBlockDataMax ||
        encodedVectorRespSize(req) > kBlockDataMax) {
        co_return VectorOutcome{
            util::Status(util::ErrorCode::kResource,
                         "vector batch exceeds frame budget"),
            {}};
    }

    // Resolve local deposit coordinates up front, like scalar read():
    // the destination process/address is fixed at issue time.
    bool wantResponse = false;
    std::vector<VectorDeposit> deposits(n);
    for (size_t i = 0; i < n; ++i) {
        const VectorSubOp &sub = req.ops[i];
        if (sub.kind == VecOpKind::kWrite) {
            continue;
        }
        wantResponse = true;
        const VectorLocalDeposit &loc = batch.local[i];
        SegmentDescriptor *dst = table_.get(loc.dstSeg);
        uint32_t bytes = sub.kind == VecOpKind::kRead ? sub.count : 4;
        if (dst == nullptr ||
            static_cast<uint64_t>(loc.dstOff) + bytes > dst->size ||
            (sub.kind == VecOpKind::kCas && loc.dstOff % 4 != 0)) {
            co_return VectorOutcome{
                util::Status(util::ErrorCode::kInvalidArgument,
                             "vector deposit location invalid"),
                {}};
        }
        deposits[i] =
            VectorDeposit{true,       sub.kind,   dst->ownerPid,
                          dst->base + loc.dstOff, loc.notify, loc.dstSeg};
    }

    sim::Time start = node_.simulator().now();
    uint64_t opId = 0;
    if (obs::TraceRecorder::on()) {
        auto &rec = obs::TraceRecorder::instance();
        opId = rec.newAsyncId();
        rec.asyncBegin(opId, node_.name(), "rmem", "vector",
                       "ops=" + std::to_string(n) + " dst=" +
                           std::to_string(batch.target));
    }

    // ONE trap + header + validation for the batch; every sub-op after
    // the first pays only its marginal issue cost. This is the entire
    // amortization the vectored path exists for.
    obs::SpanId issueSpan = obs::kNoSpan;
    if (opId != 0) {
        issueSpan = obs::TraceRecorder::instance().beginSpanFor(
            opId, node_.name(), "rmem", "issue");
    }
    co_await node_.cpu().use(costs_.trapOverhead + costs_.validateCost +
                                 static_cast<sim::Duration>(n) *
                                     costs_.vectorSubOpIssueCost,
                             sim::CpuCategory::kOther);
    obs::TraceRecorder::instance().endSpan(issueSpan);

    size_t reqBytes = encodedVectorSize(req);
    size_t respBytes = encodedVectorRespSize(req);

    if (!wantResponse) {
        // Pure-write batch: local completion when the frame is accepted
        // by the network; target-side failures NAK like scalar writes.
        req.reqId = 0;
        auto accepted = wire_.send(batch.target, Message(std::move(req)),
                                   sim::CpuCategory::kDataReply, opId);
        co_await accepted;
        recordOp(metrics_.vector, start, 0, 0);
        if (opId != 0) {
            obs::TraceRecorder::instance().asyncEnd(opId, node_.name(),
                                                    "rmem", "vector");
        }
        co_return VectorOutcome{util::Status(), {}};
    }

    ReqId id = allocReqId();
    req.reqId = id;
    auto [it, inserted] = pendingVectors_.try_emplace(
        id, PendingVector{std::move(deposits),
                          sim::Promise<VectorOutcome>(node_.simulator()),
                          0});
    REMORA_ASSERT(inserted);
    auto fut = it->second.done.future();
    if (timeout > 0) {
        it->second.timeoutEvent =
            node_.simulator().schedule(timeout, [this, id] {
                auto pit = pendingVectors_.find(id);
                if (pit == pendingVectors_.end()) {
                    return;
                }
                PendingVector p = std::move(pit->second);
                pendingVectors_.erase(pit);
                stats_.timeouts.inc();
                p.done.set(VectorOutcome{
                    util::Status(util::ErrorCode::kTimeout,
                                 "vectored op timed out"),
                    {}});
            });
    }

    wire_.send(batch.target, Message(std::move(req)),
               sim::CpuCategory::kDataReply, opId);
    // One request frame out, one response frame back, two NIC
    // interrupts on the critical path — for the whole batch.
    sim::Duration wireTime = modelWireTime(
        reqBytes <= net::Cell::kPayloadBytes ? 1
                                             : net::aal5CellCount(reqBytes),
        respBytes <= net::Cell::kPayloadBytes
            ? 1
            : net::aal5CellCount(respBytes));
    sim::Duration controllerTime = 2 * node_.nic().interruptLatency();

    VectorOutcome out = co_await fut;
    if (out.status.ok()) {
        recordOp(metrics_.vector, start, wireTime, controllerTime);
    }
    if (opId != 0) {
        obs::TraceRecorder::instance().asyncEnd(
            opId, node_.name(), "rmem", "vector", out.status.message());
    }
    co_return out;
}

sim::Task<util::Status>
RmemEngine::writev(std::vector<BatchBuilder::Write> ops)
{
    BatchBuilder b(*this);
    for (BatchBuilder::Write &op : ops) {
        util::Status s = b.addWrite(std::move(op));
        if (!s.ok()) {
            co_return s;
        }
    }
    VectorOutcome out = co_await b.issue();
    co_return out.status;
}

sim::Task<VectorOutcome>
RmemEngine::readv(std::vector<BatchBuilder::Read> ops, sim::Duration timeout)
{
    BatchBuilder b(*this);
    for (const BatchBuilder::Read &op : ops) {
        util::Status s = b.addRead(op);
        if (!s.ok()) {
            co_return VectorOutcome{s, {}};
        }
    }
    VectorOutcome out = co_await b.issue(timeout);
    co_return out;
}

sim::Task<VectorOutcome>
RmemEngine::casv(std::vector<BatchBuilder::Cas> ops, sim::Duration timeout)
{
    BatchBuilder b(*this);
    for (const BatchBuilder::Cas &op : ops) {
        util::Status s = b.addCas(op);
        if (!s.ok()) {
            co_return VectorOutcome{s, {}};
        }
    }
    VectorOutcome out = co_await b.issue(timeout);
    co_return out;
}

// ----------------------------------------------------------------------
// Serving side
// ----------------------------------------------------------------------

void
RmemEngine::onMessage(net::NodeId src, Message &&msg)
{
    struct Visitor
    {
        RmemEngine *eng;
        net::NodeId src;
        void operator()(WriteReq &m) { eng->serveWrite(src, std::move(m)); }
        void operator()(ReadReq &m) { eng->serveRead(src, std::move(m)); }
        void operator()(ReadResp &m) { eng->completeRead(src, std::move(m)); }
        void operator()(CasReq &m) { eng->serveCas(src, std::move(m)); }
        void operator()(CasResp &m) { eng->completeCas(src, std::move(m)); }
        void operator()(Nak &m) { eng->handleNak(src, m); }
        void operator()(VectorReq &m) { eng->serveVector(src, std::move(m)); }
        void operator()(VectorResp &m)
        {
            eng->completeVector(src, std::move(m));
        }
        void operator()(RpcMsg &) {
            REMORA_PANIC("RPC message routed to rmem engine");
        }
        void operator()(SeqMsg &) {
            REMORA_PANIC("reliability envelope leaked past the wire");
        }
        void operator()(AckMsg &) {
            REMORA_PANIC("reliability ack leaked past the wire");
        }
    };
    std::visit(Visitor{this, src}, msg);
}

void
RmemEngine::serveWrite(net::NodeId src, WriteReq &&req)
{
    stats_.requestsServed.inc();
    // Span from dispatch to the copy's completion (or the NAK).
    obs::SpanId span = obs::kNoSpan;
    if (obs::TraceRecorder::on()) {
        span = obs::TraceRecorder::instance().beginSpan(
            node_.name(), "rmem", "serve_write",
            "bytes=" + std::to_string(req.data.size()) + " from=" +
                std::to_string(src));
    }
    // The dispatch runs under route()'s OpScope; deferred stages must
    // carry the op themselves and re-establish it, so the NAK/notify/
    // reply sends they make still join the initiator's DAG.
    uint64_t op = obs::TraceRecorder::currentOp();
    auto &cpu = node_.cpu();
    // The whole serve chain (validation, copy, notify) operates on this
    // byte range; later stages inherit the hint through their events.
    sim::Simulator::HintScope hintScope(
        node_.simulator(),
        sim::DepHint::segRange(
            (static_cast<uint64_t>(node_.id()) << 8) | req.descriptor,
            req.offset, req.offset + static_cast<uint32_t>(req.data.size())));
    // Stage 1: demux + validation.
    cpu.post(costs_.msgHandleCost + costs_.validateCost,
             sim::CpuCategory::kDataReceive,
             [this, src, span, op, req = std::move(req)]() mutable {
                 obs::OpScope opScope(op);
                 auto v = table_.validate(req.descriptor, req.generation,
                                          req.offset, req.data.size(),
                                          Rights::kWrite);
                 if (!v.ok()) {
                     sendNak(src, 0, v.status().code(),
                             req.data.size() <= kSmallWriteMax
                                 ? MsgType::kWriteSmall
                                 : MsgType::kWriteBlock);
                     obs::TraceRecorder::instance().endSpan(span);
                     return;
                 }
                 // Stage 2: translation + copy into the owner's space.
                 auto &cpu2 = node_.cpu();
                 sim::Duration cost =
                     translateCost(costs_, req.offset, req.data.size()) +
                     costs_.copyCost(req.data.size());
                 cpu2.post(cost, sim::CpuCategory::kDataReceive,
                           [this, src, span, op,
                            req = std::move(req)]() mutable {
                               obs::OpScope copyScope(op);
                               // Re-validate: the segment may have been
                               // revoked while the copy was in flight.
                               auto v2 = table_.validate(
                                   req.descriptor, req.generation, req.offset,
                                   req.data.size(), Rights::kWrite);
                               if (!v2.ok()) {
                                   sendNak(src, 0, v2.status().code(),
                                           MsgType::kWriteBlock);
                                   obs::TraceRecorder::instance().endSpan(
                                       span);
                                   return;
                               }
                               SegmentDescriptor *d = v2.value();
                               mem::Process *owner = ownerOf(*d);
                               if (owner == nullptr) {
                                   sendNak(src, 0,
                                           util::ErrorCode::kBadDescriptor,
                                           MsgType::kWriteBlock);
                                   obs::TraceRecorder::instance().endSpan(
                                       span);
                                   return;
                               }
                               // The applied store belongs to the
                               // *initiating* node's happens-before
                               // timeline, as does the notify release.
                               RaceDetector::ScopedActor raceScope(
                                   src, "rmem serve_write from node ", src);
                               util::Status ws = owner->space().write(
                                   d->base + req.offset, req.data);
                               REMORA_ASSERT(ws.ok());
                               maybeNotify(
                                   *d, req.notify,
                                   Notification{src, NotifyKind::kWrite,
                                                req.offset,
                                                static_cast<uint32_t>(
                                                    req.data.size())});
                               obs::TraceRecorder::instance().endSpan(span);
                           });
             });
}

void
RmemEngine::serveRead(net::NodeId src, ReadReq &&req)
{
    stats_.requestsServed.inc();
    obs::SpanId span = obs::kNoSpan;
    if (obs::TraceRecorder::on()) {
        span = obs::TraceRecorder::instance().beginSpan(
            node_.name(), "rmem", "serve_read",
            "count=" + std::to_string(req.count) + " from=" +
                std::to_string(src));
    }
    uint64_t op = obs::TraceRecorder::currentOp();
    auto &cpu = node_.cpu();
    sim::Simulator::HintScope hintScope(
        node_.simulator(),
        sim::DepHint::segRange(
            (static_cast<uint64_t>(node_.id()) << 8) | req.srcDescriptor,
            req.srcOffset, req.srcOffset + req.count));
    cpu.post(costs_.msgHandleCost + costs_.validateCost,
             sim::CpuCategory::kDataReceive,
             [this, src, span, op, req]() mutable {
                 obs::OpScope opScope(op);
                 auto v = table_.validate(req.srcDescriptor, req.generation,
                                          req.srcOffset, req.count,
                                          Rights::kRead);
                 if (!v.ok()) {
                     sendNak(src, req.reqId, v.status().code(),
                             MsgType::kReadReq);
                     obs::TraceRecorder::instance().endSpan(span);
                     return;
                 }
                 // Read-out: translation + copy, then the reply transfer.
                 sim::Duration cost =
                     translateCost(costs_, req.srcOffset, req.count) +
                     costs_.copyCost(req.count);
                 node_.cpu().post(
                     cost, sim::CpuCategory::kDataReply,
                     [this, src, span, op, req]() mutable {
                         obs::OpScope replyScope(op);
                         auto v2 = table_.validate(req.srcDescriptor,
                                                   req.generation,
                                                   req.srcOffset, req.count,
                                                   Rights::kRead);
                         if (!v2.ok()) {
                             sendNak(src, req.reqId, v2.status().code(),
                                     MsgType::kReadReq);
                             obs::TraceRecorder::instance().endSpan(span);
                             return;
                         }
                         SegmentDescriptor *d = v2.value();
                         mem::Process *owner = ownerOf(*d);
                         if (owner == nullptr) {
                             sendNak(src, req.reqId,
                                     util::ErrorCode::kBadDescriptor,
                                     MsgType::kReadReq);
                             obs::TraceRecorder::instance().endSpan(span);
                             return;
                         }
                         ReadResp resp;
                         resp.reqId = req.reqId;
                         resp.status = util::ErrorCode::kOk;
                         resp.data.resize(req.count);
                         // The copy-out reads on behalf of the importer.
                         RaceDetector::ScopedActor raceScope(
                             src, "rmem serve_read from node ", src);
                         util::Status rs = owner->space().read(
                             d->base + req.srcOffset, resp.data);
                         REMORA_ASSERT(rs.ok());
                         wire_.send(src, Message(std::move(resp)),
                                    sim::CpuCategory::kDataReply);
                         // Exporter-side notification only under the
                         // always-notify policy; the request's notify bit
                         // asks for *reader*-side notification (§3.1.1).
                         if (d->policy == NotifyPolicy::kAlways) {
                             maybeNotify(*d, false,
                                         Notification{src, NotifyKind::kRead,
                                                      req.srcOffset,
                                                      req.count});
                         }
                         obs::TraceRecorder::instance().endSpan(span);
                     });
             });
}

void
RmemEngine::serveCas(net::NodeId src, CasReq &&req)
{
    stats_.requestsServed.inc();
    obs::SpanId span = obs::kNoSpan;
    if (obs::TraceRecorder::on()) {
        span = obs::TraceRecorder::instance().beginSpan(
            node_.name(), "rmem", "serve_cas",
            "from=" + std::to_string(src));
    }
    uint64_t op = obs::TraceRecorder::currentOp();
    auto &cpu = node_.cpu();
    sim::Simulator::HintScope hintScope(
        node_.simulator(),
        sim::DepHint::syncWord(
            (static_cast<uint64_t>(node_.id()) << 8) | req.descriptor,
            req.offset));
    cpu.post(
        costs_.msgHandleCost + costs_.validateCost + costs_.casExecCost,
        sim::CpuCategory::kDataReceive, [this, src, span, op, req]() mutable {
            obs::OpScope opScope(op);
            auto v = table_.validate(req.descriptor, req.generation,
                                     req.offset, 4, Rights::kCas);
            if (!v.ok() || req.offset % 4 != 0) {
                sendNak(src, req.reqId,
                        v.ok() ? util::ErrorCode::kInvalidArgument
                               : v.status().code(),
                        MsgType::kCasReq);
                obs::TraceRecorder::instance().endSpan(span);
                return;
            }
            SegmentDescriptor *d = v.value();
            mem::Process *owner = ownerOf(*d);
            if (owner == nullptr) {
                sendNak(src, req.reqId, util::ErrorCode::kBadDescriptor,
                        MsgType::kCasReq);
                obs::TraceRecorder::instance().endSpan(span);
                return;
            }
            // A CAS target is by definition a synchronization word:
            // the read below acquires its clock and a successful swap
            // releases, so CAS-success pairs chain happens-before.
            if (RaceDetector::on()) {
                RaceDetector::instance().markSyncWord(
                    node_.id(), req.descriptor, req.offset);
            }
            RaceDetector::ScopedActor raceScope(
                src, "rmem serve_cas from node ", src);
            auto word = owner->space().readWord(d->base + req.offset);
            REMORA_ASSERT(word.ok());
            CasResp resp;
            resp.reqId = req.reqId;
            resp.observed = word.value();
            resp.success = (word.value() == req.oldValue);
            if (resp.success) {
                util::Status ws = owner->space().writeWord(
                    d->base + req.offset, req.newValue);
                REMORA_ASSERT(ws.ok());
            }
            wire_.send(src, Message(resp), sim::CpuCategory::kDataReply);
            maybeNotify(*d, req.notify,
                        Notification{src, NotifyKind::kCas, req.offset, 4});
            obs::TraceRecorder::instance().endSpan(span);
        });
}

void
RmemEngine::serveVector(net::NodeId src, VectorReq &&req)
{
    size_t n = req.ops.size();
    stats_.requestsServed.inc();
    stats_.vectorServed.inc();
    stats_.vectorSubOpsServed.inc(n);
    obs::SpanId span = obs::kNoSpan;
    if (obs::TraceRecorder::on()) {
        span = obs::TraceRecorder::instance().beginSpan(
            node_.name(), "rmem", "serve_vector",
            "ops=" + std::to_string(n) + " from=" + std::to_string(src));
    }
    auto st = std::make_shared<VectorServeState>();
    st->src = src;
    st->reqId = req.reqId;
    st->wantResponse = (req.reqId != 0);
    st->op = obs::TraceRecorder::currentOp();
    st->span = span;
    st->results.resize(n);

    // Stage 1: ONE demux charge for the frame, one validateCost per
    // *distinct* (slot, generation, rights) key — the validation-cache
    // amortization — plus the per-sub-op marginal serve cost.
    sim::Duration stage1Cost =
        costs_.msgHandleCost +
        static_cast<sim::Duration>(distinctValidationKeys(req.ops)) *
            costs_.validateCost +
        static_cast<sim::Duration>(n) * costs_.vectorSubOpServeCost;
    node_.cpu().post(stage1Cost, sim::CpuCategory::kDataReceive,
                     [this, st, req = std::move(req)]() mutable {
                         obs::OpScope opScope(st->op);
                         executeVector(st, std::move(req));
                     });
}

void
RmemEngine::executeVector(const std::shared_ptr<VectorServeState> &st,
                          VectorReq &&req)
{
    size_t n = req.ops.size();
    ValidationCache cache(table_);
    std::vector<SegmentDescriptor *> descs(n, nullptr);
    for (size_t i = 0; i < n; ++i) {
        const VectorSubOp &sub = req.ops[i];
        st->results[i].kind = sub.kind;
        uint64_t count = sub.kind == VecOpKind::kWrite ? sub.data.size()
                         : sub.kind == VecOpKind::kRead ? sub.count
                                                        : 4;
        auto v = cache.validate(sub.descriptor, sub.generation, sub.offset,
                                count, vecOpRights(sub.kind));
        if (!v.ok()) {
            st->results[i].status = v.status().code();
        } else if (sub.kind == VecOpKind::kCas && sub.offset % 4 != 0) {
            st->results[i].status = util::ErrorCode::kInvalidArgument;
        } else {
            descs[i] = v.value();
            ++st->remaining;
        }
    }
    stats_.vectorValidateHits.inc(cache.hits());
    if (st->remaining == 0) {
        // Nothing executable. Response-carrying batches report per-sub-op
        // status; a pure-write batch NAKs once like a scalar bad write.
        if (st->wantResponse) {
            finishVector(st);
        } else {
            sendNak(st->src, 0, st->results.empty()
                                    ? util::ErrorCode::kInvalidArgument
                                    : st->results.front().status,
                    MsgType::kVectorOp);
            obs::TraceRecorder::instance().endSpan(st->span);
        }
        return;
    }
    // Stage 2: one deferred event per valid sub-op, each carrying its
    // own byte-range DepHint so the explorer sees sub-op granularity.
    for (size_t i = 0; i < n; ++i) {
        if (descs[i] == nullptr) {
            continue;
        }
        VectorSubOp sub = std::move(req.ops[i]);
        uint64_t segKey =
            (static_cast<uint64_t>(node_.id()) << 8) | sub.descriptor;
        sim::Duration cost = 0;
        sim::CpuCategory cat = sim::CpuCategory::kDataReceive;
        std::optional<sim::Simulator::HintScope> hint;
        switch (sub.kind) {
          case VecOpKind::kWrite:
            cost = translateCost(costs_, sub.offset, sub.data.size()) +
                   costs_.copyCost(sub.data.size());
            cat = sim::CpuCategory::kDataReceive;
            hint.emplace(node_.simulator(),
                         sim::DepHint::segRange(
                             segKey, sub.offset,
                             sub.offset +
                                 static_cast<uint32_t>(sub.data.size())));
            break;
          case VecOpKind::kRead:
            cost = translateCost(costs_, sub.offset, sub.count) +
                   costs_.copyCost(sub.count);
            cat = sim::CpuCategory::kDataReply;
            hint.emplace(node_.simulator(),
                         sim::DepHint::segRange(segKey, sub.offset,
                                                sub.offset + sub.count));
            break;
          case VecOpKind::kCas:
            cost = translateCost(costs_, sub.offset, 4) + costs_.casExecCost;
            cat = sim::CpuCategory::kDataReceive;
            hint.emplace(node_.simulator(),
                         sim::DepHint::syncWord(segKey, sub.offset));
            break;
        }
        node_.cpu().post(cost, cat,
                         [this, st, i, sub = std::move(sub)]() mutable {
                             obs::OpScope opScope(st->op);
                             executeVectorSubOp(st, i, std::move(sub));
                         });
    }
}

void
RmemEngine::executeVectorSubOp(const std::shared_ptr<VectorServeState> &st,
                               size_t index, VectorSubOp &&sub)
{
    VectorSubResult &res = st->results[index];
    // Re-validate: the slot may have been revoked while the sub-op's
    // copy was in flight (mirrors the scalar two-stage serve).
    uint64_t count = sub.kind == VecOpKind::kWrite ? sub.data.size()
                     : sub.kind == VecOpKind::kRead ? sub.count
                                                    : 4;
    auto v = table_.validate(sub.descriptor, sub.generation, sub.offset,
                             count, vecOpRights(sub.kind));
    SegmentDescriptor *d = v.ok() ? v.value() : nullptr;
    mem::Process *owner = d != nullptr ? ownerOf(*d) : nullptr;
    if (owner == nullptr) {
        res.status = v.ok() ? util::ErrorCode::kBadDescriptor
                            : v.status().code();
        if (--st->remaining == 0) {
            finishVector(st);
        }
        return;
    }
    // Every sub-op store/load belongs to the initiating node's timeline
    // — the race detector sees per-sub-op byte-range accesses.
    RaceDetector::ScopedActor raceScope(
        st->src, "rmem serve_vector sub-op from node ", st->src);
    switch (sub.kind) {
      case VecOpKind::kWrite: {
        util::Status ws = owner->space().write(d->base + sub.offset,
                                               sub.data);
        REMORA_ASSERT(ws.ok());
        bool fire = d->policy == NotifyPolicy::kAlways ||
                    (d->policy == NotifyPolicy::kConditional && sub.notify);
        if (fire && d->channel) {
            st->notify[sub.descriptor].push_back(Notification{
                st->src, NotifyKind::kWrite, sub.offset,
                static_cast<uint32_t>(sub.data.size()), st->op});
        }
        break;
      }
      case VecOpKind::kRead: {
        res.data.resize(sub.count);
        util::Status rs = owner->space().read(d->base + sub.offset,
                                              res.data);
        REMORA_ASSERT(rs.ok());
        // Exporter-side notification only under always-notify; the
        // sub-op's notify bit asks for reader-side notification.
        if (d->policy == NotifyPolicy::kAlways && d->channel) {
            st->notify[sub.descriptor].push_back(
                Notification{st->src, NotifyKind::kRead, sub.offset,
                             sub.count, st->op});
        }
        break;
      }
      case VecOpKind::kCas: {
        if (RaceDetector::on()) {
            RaceDetector::instance().markSyncWord(node_.id(),
                                                  sub.descriptor,
                                                  sub.offset);
        }
        auto word = owner->space().readWord(d->base + sub.offset);
        REMORA_ASSERT(word.ok());
        res.observed = word.value();
        res.success = (word.value() == sub.oldValue);
        if (res.success) {
            util::Status ws = owner->space().writeWord(d->base + sub.offset,
                                                       sub.newValue);
            REMORA_ASSERT(ws.ok());
        }
        bool fire = d->policy == NotifyPolicy::kAlways ||
                    (d->policy == NotifyPolicy::kConditional && sub.notify);
        if (fire && d->channel) {
            st->notify[sub.descriptor].push_back(Notification{
                st->src, NotifyKind::kCas, sub.offset, 4, st->op});
        }
        break;
      }
    }
    if (obs::TraceRecorder::on()) {
        obs::TraceRecorder::instance().instant(
            node_.name(), "rmem", "vector_sub",
            "idx=" + std::to_string(index) + " kind=" +
                std::to_string(static_cast<int>(sub.kind)));
    }
    if (--st->remaining == 0) {
        finishVector(st);
    }
}

void
RmemEngine::finishVector(const std::shared_ptr<VectorServeState> &st)
{
    // Doorbell coalescing: all notify-marked sub-ops that landed in the
    // same segment's channel post as ONE batch — one dispatch charge,
    // one release edge — instead of one doorbell per sub-op. Channels
    // are re-resolved by slot here so a mid-batch revoke cannot leave a
    // dangling channel pointer.
    if (!st->notify.empty()) {
        RaceDetector::ScopedActor raceScope(
            st->src, "rmem vector notify from node ", st->src);
        for (auto &[segId, recs] : st->notify) {
            SegmentDescriptor *d = table_.get(segId);
            if (d == nullptr || !d->channel) {
                continue;
            }
            stats_.notificationsPosted.inc(recs.size());
            stats_.vectorDoorbells.inc();
            if (obs::TraceRecorder::on()) {
                obs::TraceRecorder::instance().instant(
                    node_.name(), "rmem", "notify_batch",
                    "records=" + std::to_string(recs.size()));
            }
            d->channel->postBatch(recs);
        }
        st->notify.clear();
    }
    if (st->wantResponse) {
        obs::OpScope opScope(st->op);
        VectorResp resp;
        resp.reqId = st->reqId;
        resp.results = std::move(st->results);
        wire_.send(st->src, Message(std::move(resp)),
                   sim::CpuCategory::kDataReply);
    }
    obs::TraceRecorder::instance().endSpan(st->span);
}

void
RmemEngine::completeRead(net::NodeId src, ReadResp &&resp)
{
    auto it = pendingReads_.find(resp.reqId);
    if (it == pendingReads_.end()) {
        return; // timed out or duplicate; drop silently
    }
    PendingRead p = std::move(it->second);
    pendingReads_.erase(it);
    if (p.timeoutEvent != 0) {
        node_.simulator().cancel(p.timeoutEvent);
    }
    // Deposit: demux + copy into the reader's address space.
    obs::SpanId span = obs::kNoSpan;
    if (obs::TraceRecorder::on()) {
        span = obs::TraceRecorder::instance().beginSpan(
            node_.name(), "rmem", "deposit_read",
            "bytes=" + std::to_string(resp.data.size()));
    }
    uint64_t op = obs::TraceRecorder::currentOp();
    sim::Duration cost =
        costs_.msgHandleCost + costs_.copyCost(resp.data.size());
    node_.cpu().post(
        cost, sim::CpuCategory::kDataReceive,
        [this, src, span, op, p = std::move(p),
         data = std::move(resp.data)]() mutable {
            obs::OpScope opScope(op);
            mem::Process *proc = node_.findProcess(p.dstPid);
            if (proc != nullptr) {
                RaceDetector::ScopedActor raceScope(
                    node_.id(), "rmem deposit_read on node ", node_.id());
                util::Status ws = proc->space().write(p.dstVa, data);
                REMORA_ASSERT(ws.ok());
            }
            if (p.notify) {
                if (NotificationChannel *ch = channel(p.dstSeg)) {
                    ch->post(Notification{src, NotifyKind::kRead, 0,
                                          static_cast<uint32_t>(data.size())});
                }
            }
            obs::TraceRecorder::instance().endSpan(span);
            p.done.set(ReadOutcome{util::Status(), std::move(data)});
        });
}

void
RmemEngine::completeCas(net::NodeId src, CasResp &&resp)
{
    (void)src;
    auto it = pendingCas_.find(resp.reqId);
    if (it == pendingCas_.end()) {
        return;
    }
    PendingCas p = std::move(it->second);
    pendingCas_.erase(it);
    if (p.timeoutEvent != 0) {
        node_.simulator().cancel(p.timeoutEvent);
    }
    obs::SpanId span = obs::kNoSpan;
    if (obs::TraceRecorder::on()) {
        span = obs::TraceRecorder::instance().beginSpan(
            node_.name(), "rmem", "deposit_cas",
            resp.success ? "success" : "failure");
    }
    uint64_t op = obs::TraceRecorder::currentOp();
    node_.cpu().post(
        costs_.msgHandleCost + costs_.copyWordCost,
        sim::CpuCategory::kDataReceive,
        [this, span, op, p = std::move(p), resp]() mutable {
            obs::OpScope opScope(op);
            mem::Process *proc = node_.findProcess(p.resultPid);
            if (proc != nullptr) {
                util::Status ws = proc->space().writeWord(
                    p.resultVa, resp.success ? 1u : 0u);
                REMORA_ASSERT(ws.ok());
            }
            obs::TraceRecorder::instance().endSpan(span);
            p.done.set(
                CasOutcome{util::Status(), resp.success, resp.observed});
        });
}

void
RmemEngine::completeVector(net::NodeId src, VectorResp &&resp)
{
    auto it = pendingVectors_.find(resp.reqId);
    if (it == pendingVectors_.end()) {
        return; // timed out or duplicate; drop silently
    }
    PendingVector p = std::move(it->second);
    pendingVectors_.erase(it);
    if (p.timeoutEvent != 0) {
        node_.simulator().cancel(p.timeoutEvent);
    }
    if (resp.results.size() != p.deposits.size()) {
        p.done.set(VectorOutcome{
            util::Status(util::ErrorCode::kMalformed,
                         "vector response arity mismatch"),
            std::move(resp.results)});
        return;
    }
    obs::SpanId span = obs::kNoSpan;
    if (obs::TraceRecorder::on()) {
        span = obs::TraceRecorder::instance().beginSpan(
            node_.name(), "rmem", "deposit_vector",
            "results=" + std::to_string(resp.results.size()));
    }
    uint64_t op = obs::TraceRecorder::currentOp();
    // ONE deposit event for the whole batch: demux once, then copy each
    // successful READ payload / CAS result word into place.
    sim::Duration cost = costs_.msgHandleCost;
    for (size_t i = 0; i < resp.results.size(); ++i) {
        const VectorSubResult &r = resp.results[i];
        if (!p.deposits[i].active || r.status != util::ErrorCode::kOk) {
            continue;
        }
        cost += r.kind == VecOpKind::kRead ? costs_.copyCost(r.data.size())
                                           : costs_.copyWordCost;
    }
    node_.cpu().post(
        cost, sim::CpuCategory::kDataReceive,
        [this, src, span, op, p = std::move(p),
         results = std::move(resp.results)]() mutable {
            obs::OpScope opScope(op);
            RaceDetector::ScopedActor raceScope(
                node_.id(), "rmem deposit_vector on node ", node_.id());
            // Reader-side notifications coalesce per destination
            // segment, exactly like the serving side's doorbells.
            std::map<SegmentId, std::vector<Notification>> notify;
            for (size_t i = 0; i < results.size(); ++i) {
                const VectorDeposit &dep = p.deposits[i];
                const VectorSubResult &r = results[i];
                if (!dep.active || r.status != util::ErrorCode::kOk) {
                    continue;
                }
                mem::Process *proc = node_.findProcess(dep.pid);
                if (proc == nullptr) {
                    continue;
                }
                if (r.kind == VecOpKind::kRead) {
                    util::Status ws = proc->space().write(dep.va, r.data);
                    REMORA_ASSERT(ws.ok());
                    if (dep.notify) {
                        notify[dep.dstSeg].push_back(Notification{
                            src, NotifyKind::kRead, 0,
                            static_cast<uint32_t>(r.data.size()), op});
                    }
                } else if (r.kind == VecOpKind::kCas) {
                    util::Status ws = proc->space().writeWord(
                        dep.va, r.success ? 1u : 0u);
                    REMORA_ASSERT(ws.ok());
                }
            }
            for (auto &[segId, recs] : notify) {
                if (NotificationChannel *ch = channel(segId)) {
                    stats_.notificationsPosted.inc(recs.size());
                    stats_.vectorDoorbells.inc();
                    ch->postBatch(recs);
                }
            }
            obs::TraceRecorder::instance().endSpan(span);
            p.done.set(VectorOutcome{util::Status(), std::move(results)});
        });
}

void
RmemEngine::handleNak(net::NodeId src, const Nak &nak)
{
    stats_.naksReceived.inc();
    if (obs::TraceRecorder::on()) {
        obs::TraceRecorder::instance().instant(
            node_.name(), "rmem", "nak_rx",
            std::string(util::errorCodeName(nak.error)) + " from=" +
                std::to_string(src));
    }
    if (auto it = pendingReads_.find(nak.reqId); it != pendingReads_.end()) {
        PendingRead p = std::move(it->second);
        pendingReads_.erase(it);
        if (p.timeoutEvent != 0) {
            node_.simulator().cancel(p.timeoutEvent);
        }
        p.done.set(ReadOutcome{
            util::Status(nak.error, "remote rejected read"), {}});
        return;
    }
    if (auto it = pendingCas_.find(nak.reqId); it != pendingCas_.end()) {
        PendingCas p = std::move(it->second);
        pendingCas_.erase(it);
        if (p.timeoutEvent != 0) {
            node_.simulator().cancel(p.timeoutEvent);
        }
        p.done.set(CasOutcome{util::Status(nak.error, "remote rejected CAS"),
                              false, 0});
        return;
    }
    if (auto it = pendingVectors_.find(nak.reqId);
        it != pendingVectors_.end()) {
        PendingVector p = std::move(it->second);
        pendingVectors_.erase(it);
        if (p.timeoutEvent != 0) {
            node_.simulator().cancel(p.timeoutEvent);
        }
        p.done.set(VectorOutcome{
            util::Status(nak.error, "remote rejected vectored op"), {}});
        return;
    }
    // NAK for a write or an already-resolved request: counted above.
    REMORA_LOG(kDebug, "rmem",
               node_.name() << ": NAK " << util::errorCodeName(nak.error));
}

void
RmemEngine::sendNak(net::NodeId dst, ReqId reqId, util::ErrorCode error,
                    MsgType originalType)
{
    stats_.naksSent.inc();
    if (obs::TraceRecorder::on()) {
        obs::TraceRecorder::instance().instant(
            node_.name(), "rmem", "nak_tx",
            std::string(util::errorCodeName(error)) + " dst=" +
                std::to_string(dst));
    }
    Nak nak;
    nak.reqId = reqId;
    nak.error = error;
    nak.originalType = originalType;
    wire_.send(dst, Message(nak), sim::CpuCategory::kDataReply);
}

void
RmemEngine::maybeNotify(SegmentDescriptor &d, bool requestNotify,
                        const Notification &n)
{
    bool fire = false;
    switch (d.policy) {
      case NotifyPolicy::kAlways:
        fire = true;
        break;
      case NotifyPolicy::kNever:
        fire = false;
        break;
      case NotifyPolicy::kConditional:
        fire = requestNotify;
        break;
    }
    if (fire && d.channel) {
        stats_.notificationsPosted.inc();
        if (obs::TraceRecorder::on()) {
            obs::TraceRecorder::instance().instant(
                node_.name(), "rmem", "notify",
                "offset=" + std::to_string(n.offset) + " len=" +
                    std::to_string(n.count));
        }
        d.channel->post(n);
    }
}

ReqId
RmemEngine::allocReqId()
{
    for (;;) {
        ReqId id = nextReqId_++;
        if (id == 0) {
            continue; // zero is reserved for id-less NAKs
        }
        if (pendingReads_.find(id) == pendingReads_.end() &&
            pendingCas_.find(id) == pendingCas_.end() &&
            pendingVectors_.find(id) == pendingVectors_.end()) {
            return id;
        }
    }
}

mem::Process *
RmemEngine::ownerOf(const SegmentDescriptor &d)
{
    return node_.findProcess(d.ownerPid);
}

sim::Duration
RmemEngine::modelWireTime(size_t cellsOut, size_t cellsBack) const
{
    net::Link *l = node_.nic().txLink();
    if (l == nullptr) {
        return 0;
    }
    // Symmetric-cluster assumption: the return path has the same rate
    // and propagation as the local TX link.
    sim::Duration t = static_cast<sim::Duration>(cellsOut + cellsBack) *
                      l->cellTime();
    if (cellsOut > 0) {
        t += l->propagation();
    }
    if (cellsBack > 0) {
        t += l->propagation();
    }
    return t;
}

void
RmemEngine::recordOp(OpPhaseStats &op, sim::Time start,
                     sim::Duration wireTime, sim::Duration controllerTime)
{
    sim::Duration total = node_.simulator().now() - start;
    double totalUs = sim::toUsec(total);
    op.latencyUs.sample(totalUs);
    op.totalUs.sample(totalUs);
    // Software is whatever the modeled wire and controller phases do
    // not account for; clamp against model over-estimates.
    sim::Duration software =
        std::max<sim::Duration>(0, total - wireTime - controllerTime);
    op.softwareUs.sample(sim::toUsec(software));
    op.wireUs.sample(sim::toUsec(wireTime));
    op.controllerUs.sample(sim::toUsec(controllerTime));
}

void
RmemEngine::registerStats(obs::MetricRegistry &reg,
                          const std::string &prefix) const
{
    reg.add(prefix + ".writes_issued", stats_.writesIssued);
    reg.add(prefix + ".reads_issued", stats_.readsIssued);
    reg.add(prefix + ".cas_issued", stats_.casIssued);
    reg.add(prefix + ".requests_served", stats_.requestsServed);
    reg.add(prefix + ".naks_sent", stats_.naksSent);
    reg.add(prefix + ".naks_received", stats_.naksReceived);
    reg.add(prefix + ".notifications_posted", stats_.notificationsPosted);
    reg.add(prefix + ".timeouts", stats_.timeouts);
    reg.add(prefix + ".vector.issued", stats_.vectorsIssued);
    reg.add(prefix + ".vector.sub_ops", stats_.vectorSubOps);
    reg.add(prefix + ".vector.served", stats_.vectorServed);
    reg.add(prefix + ".vector.sub_ops_served", stats_.vectorSubOpsServed);
    reg.add(prefix + ".vector.doorbells", stats_.vectorDoorbells);
    reg.add(prefix + ".vector.validate_hits", stats_.vectorValidateHits);
    auto addOp = [&reg, &prefix](const char *name, const OpPhaseStats &op) {
        std::string base = prefix + "." + name;
        reg.add(base + ".latency_us", op.latencyUs);
        reg.add(base + ".total_us", op.totalUs);
        reg.add(base + ".software_us", op.softwareUs);
        reg.add(base + ".wire_us", op.wireUs);
        reg.add(base + ".controller_us", op.controllerUs);
    };
    addOp("write", metrics_.write);
    addOp("read", metrics_.read);
    addOp("cas", metrics_.cas);
    addOp("vector", metrics_.vector);
    wire_.registerStats(reg, prefix + ".wire");
}

} // namespace remora::rmem
