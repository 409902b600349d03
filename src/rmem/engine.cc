#include "rmem/engine.h"

#include <algorithm>
#include <array>
#include <type_traits>
#include <utility>

#include "net/aal5.h"
#include "obs/trace.h"
#include "rmem/race_detector.h"
#include "sim/logger.h"
#include "util/panic.h"

namespace remora::rmem {

/** A scalar request in service: a batch of one, carried by its events. */
struct RmemEngine::ScalarServe
{
    net::NodeId src = 0;
    /** Zero for writes: their NAKs carry no id. */
    ReqId reqId = 0;
    /** The type the request arrived as, echoed by any NAK it draws. */
    MsgType type = MsgType::kNak;
    uint64_t op = 0;
    obs::SpanId span = obs::kNoSpan;
    VectorSubOp sub;
};

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

// Per-framing labels, indexed by VecOpKind (serving side) or by the
// index of Pending::done (initiator side: read, CAS, vector).
constexpr const char *kServeName[] = {"serve_write", "serve_read",
                                      "serve_cas"};
constexpr const char *kServeSite[] = {"rmem serve_write from node ",
                                      "rmem serve_read from node ",
                                      "rmem serve_cas from node "};
constexpr const char *kDepositName[] = {"deposit_read", "deposit_cas",
                                        "deposit_vector"};
constexpr const char *kDepositSite[] = {"rmem deposit_read on node ",
                                        "rmem deposit_cas on node ",
                                        "rmem deposit_vector on node "};
constexpr const char *kNakText[] = {"remote rejected read",
                                    "remote rejected CAS",
                                    "remote rejected vectored op"};
constexpr const char *kTimeoutText[] = {"remote read timed out",
                                        "remote CAS timed out",
                                        "vectored op timed out"};

// Per scalar kind, indexed by VecOpKind.
constexpr const char *kDigestName[] = {"rmem.write", "rmem.read",
                                       "rmem.cas"};

/** Cells a message of @p bytes occupies: one raw cell, or AAL5. */
size_t
cellsFor(size_t bytes)
{
    return bytes <= net::Cell::kPayloadBytes ? 1 : net::aal5CellCount(bytes);
}

/**
 * Gather @p ops into @p b through @p add and issue them as one batch:
 * the one body of writev, readv and casv.
 */
template <typename Op>
sim::Task<VectorOutcome>
issueBatch(BatchBuilder b, std::vector<Op> ops,
           util::Status (BatchBuilder::*add)(Op), sim::Duration timeout)
{
    for (Op &op : ops) {
        util::Status s = (b.*add)(std::move(op));
        if (!s.ok()) {
            co_return VectorOutcome{s, {}};
        }
    }
    VectorOutcome out = co_await b.issue(timeout);
    co_return out;
}

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

/**
 * Validate a sub-op through @p v (the descriptor table, or a batch's
 * ValidationCache); a CAS target must also be word-aligned.
 */
template <typename Validator>
util::Result<SegmentDescriptor *>
validateSubOp(Validator &v, const VectorSubOp &sub)
{
    auto r = v.validate(sub.descriptor, sub.generation, sub.offset,
                        subOpBytes(sub), vecOpRights(sub.kind));
    if (r.ok() && sub.kind == VecOpKind::kCas && sub.offset % 4 != 0) {
        return util::Status(util::ErrorCode::kInvalidArgument,
                            "CAS target not word-aligned");
    }
    return r;
}

/** The sub-op's dependency hint: its byte range, or its sync word. */
sim::DepHint
subOpHint(net::NodeId node, const VectorSubOp &sub)
{
    uint64_t segKey = (static_cast<uint64_t>(node) << 8) | sub.descriptor;
    if (sub.kind == VecOpKind::kCas) {
        return sim::DepHint::syncWord(segKey, sub.offset);
    }
    auto end = sub.offset + static_cast<uint32_t>(subOpBytes(sub));
    return sim::DepHint::segRange(segKey, sub.offset, end);
}

/** Stage-2 charge: translation plus the copy, or the CAS execution. */
sim::Duration
stageTwoCost(const CostModel &costs, const VectorSubOp &sub)
{
    uint64_t bytes = subOpBytes(sub);
    return translateCost(costs, sub.offset, bytes) +
           (sub.kind == VecOpKind::kCas ? costs.casExecCost
                                        : costs.copyCost(bytes));
}

/** A READ's copy-out is reply work; everything else is receive work. */
sim::CpuCategory
stageTwoCategory(const VectorSubOp &sub)
{
    return sub.kind == VecOpKind::kRead ? sim::CpuCategory::kDataReply
                                        : sim::CpuCategory::kDataReceive;
}

/**
 * The notify decision for an applied sub-op, scalar or vectored: the
 * segment's policy combined with the request's notify bit. A READ's bit
 * asks for *reader*-side notification (§3.1.1), so the exporter hears
 * of a read only under always-notify.
 */
bool
wantsNotify(const SegmentDescriptor &d, const VectorSubOp &sub)
{
    bool bit = sub.notify && sub.kind != VecOpKind::kRead;
    return d.channel && (d.policy == NotifyPolicy::kAlways ||
                         (d.policy == NotifyPolicy::kConditional && bit));
}

/** The exporter-side record announcing an applied sub-op. */
Notification
subOpNotification(net::NodeId src, const VectorSubOp &sub, uint64_t op)
{
    return Notification{src, static_cast<NotifyKind>(sub.kind), sub.offset,
                        static_cast<uint32_t>(subOpBytes(sub)), op};
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

util::Status
RmemEngine::admitScalar(VecOpKind kind, const ImportedSegment &seg,
                        uint32_t offset, uint64_t bytes)
{
    sim::Counter *issued[] = {&stats_.writesIssued, &stats_.readsIssued,
                              &stats_.casIssued};
    issued[static_cast<size_t>(kind)]->inc();
    node_.simulator().noteDigest(kDigestName[static_cast<size_t>(kind)],
                                 seg.node << 8 | seg.descriptor);
    return checkImport(seg, kind, offset, bytes);
}

template <typename Detail>
sim::Task<RmemEngine::IssuedOp>
RmemEngine::beginIssue(const char *name, OpPhaseStats *phases,
                       size_t subOps, Detail detail)
{
    IssuedOp op{name, phases, node_.simulator().now(), 0};
    obs::SpanId issueSpan = obs::kNoSpan;
    if (obs::TraceRecorder::on()) {
        auto &rec = obs::TraceRecorder::instance();
        op.traceId = rec.newAsyncId();
        rec.asyncBegin(op.traceId, node_.name(), "rmem", name, detail());
        // Op passed explicitly: the coroutine resumes outside any
        // ambient scope.
        issueSpan = rec.beginSpanFor(op.traceId, node_.name(), "rmem",
                                     "issue");
    }
    // Sender-side emulation: trap + rights verification. A vector pays
    // it ONCE for the batch, and every sub-op only its marginal issue
    // cost: the entire amortization the vectored path exists for.
    co_await node_.cpu().use(costs_.trapOverhead + costs_.validateCost +
                                 static_cast<sim::Duration>(subOps) *
                                     costs_.vectorSubOpIssueCost,
                             sim::CpuCategory::kOther);
    obs::TraceRecorder::instance().endSpan(issueSpan);
    co_return op;
}

void
RmemEngine::endIssue(const IssuedOp &op, const util::Status &status,
                     sim::Duration wireTime, sim::Duration controllerTime)
{
    if (status.ok()) {
        OpPhaseStats &ph = *op.phases;
        sim::Duration total = node_.simulator().now() - op.start;
        double totalUs = sim::toUsec(total);
        ph.latencyUs.sample(totalUs);
        ph.totalUs.sample(totalUs);
        // Software is whatever the modeled wire and controller phases
        // do not account for; clamp against model over-estimates.
        sim::Duration software =
            std::max<sim::Duration>(0, total - wireTime - controllerTime);
        ph.softwareUs.sample(sim::toUsec(software));
        ph.wireUs.sample(sim::toUsec(wireTime));
        ph.controllerUs.sample(sim::toUsec(controllerTime));
    }
    if (op.traceId != 0) {
        obs::TraceRecorder::instance().asyncEnd(op.traceId, node_.name(),
                                                "rmem", op.name,
                                                status.message());
    }
}

sim::Task<util::Status>
RmemEngine::write(ImportedSegment dst, uint32_t offset,
                  std::vector<uint8_t> data, bool notify)
{
    util::Status admitted =
        admitScalar(VecOpKind::kWrite, dst, offset, data.size());
    if (!admitted.ok()) {
        co_return admitted;
    }
    IssuedOp op = co_await beginIssue(
        "write", &metrics_.write, 0, [bytes = data.size(), peer = dst.node] {
            return "bytes=" + std::to_string(bytes) +
                   " dst=" + std::to_string(peer);
        });

    // One WriteReq per kBlockDataMax chunk; the last carries the notify.
    for (size_t pos = 0;;) {
        size_t chunk = std::min(data.size() - pos, kBlockDataMax);
        bool last = pos + chunk == data.size();
        auto from = data.begin() + static_cast<ptrdiff_t>(pos);
        auto accepted = wire_.send(
            dst.node,
            Message(WriteReq{
                dst.descriptor, dst.generation,
                offset + static_cast<uint32_t>(pos), notify && last,
                std::vector<uint8_t>(from,
                                     from + static_cast<ptrdiff_t>(chunk))}),
            sim::CpuCategory::kDataReply, op.traceId);
        pos += chunk;
        if (last) {
            // Local completion: data accepted by the network.
            co_await accepted;
            break;
        }
    }
    // Local completion never waits on the wire or the remote NIC, so
    // the whole latency is software.
    endIssue(op, {}, 0, 0);
    co_return util::Status();
}

sim::Task<ReadOutcome>
RmemEngine::read(ImportedSegment src, uint32_t srcOff, SegmentId dstSeg,
                 uint32_t dstOff, uint32_t count, bool notify,
                 sim::Duration timeout)
{
    util::Status admitted = admitScalar(VecOpKind::kRead, src, srcOff, count);
    if (!admitted.ok()) {
        co_return ReadOutcome{admitted, {}};
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
    IssuedOp op = co_await beginIssue(
        "read", &metrics_.read, 0, [count, peer = src.node] {
            return "count=" + std::to_string(count) +
                   " src=" + std::to_string(peer);
        });
    // Model-derived phase estimates, accumulated per chunk.
    sim::Duration wireTime = 0;
    sim::Duration controllerTime = 0;

    ReadOutcome total{util::Status(), {}};
    total.data.reserve(count);
    mem::Pid dstPid = dst->ownerPid;
    mem::Vaddr dstBase = dst->base;

    uint32_t pos = 0;
    while (pos < count || (count == 0 && pos == 0)) {
        uint32_t chunk = static_cast<uint32_t>(
            std::min<uint64_t>(count - pos, kBlockDataMax));
        bool lastChunk = (pos + chunk >= count);
        sim::Promise<ReadOutcome> done(node_.simulator());
        auto fut = done.future();
        ReqId id = addPending(
            Pending{done,
                    {true, VecOpKind::kRead, dstPid, dstBase + dstOff + pos,
                     notify && lastChunk, dstSeg},
                    {}},
            timeout);

        wire_.send(src.node,
                   Message(ReadReq{src.descriptor, src.generation,
                                   srcOff + pos, dstSeg, dstOff + pos,
                                   static_cast<uint16_t>(chunk), id,
                                   notify && lastChunk}),
                   sim::CpuCategory::kDataReply, op.traceId);

        // One request cell out; the response is one raw cell when it
        // fits, otherwise an AAL5 frame. Each chunk also pays a server
        // RX interrupt and a local RX interrupt (the controller phase).
        wireTime += modelWireTime(1, cellsFor(chunk + 6));
        controllerTime += 2 * node_.nic().interruptLatency();

        ReadOutcome part = co_await fut;
        if (!part.status.ok()) {
            endIssue(op, part.status, wireTime, controllerTime);
            co_return ReadOutcome{part.status, std::move(total.data)};
        }
        total.data.insert(total.data.end(), part.data.begin(),
                          part.data.end());
        pos += chunk;
        if (count == 0) {
            break;
        }
    }
    endIssue(op, total.status, wireTime, controllerTime);
    co_return total;
}

sim::Task<CasOutcome>
RmemEngine::cas(ImportedSegment dst, uint32_t offset, uint32_t oldValue,
                uint32_t newValue, SegmentId resultSeg, uint32_t resultOff,
                sim::Duration timeout)
{
    util::Status admitted = admitScalar(VecOpKind::kCas, dst, offset, 4);
    if (!admitted.ok()) {
        co_return CasOutcome{admitted, false, 0};
    }
    SegmentDescriptor *result = table_.get(resultSeg);
    if (result == nullptr || resultOff % 4 != 0 ||
        static_cast<uint64_t>(resultOff) + 4 > result->size) {
        co_return CasOutcome{util::Status(util::ErrorCode::kInvalidArgument,
                                          "CAS result location invalid"),
                             false, 0};
    }
    IssuedOp op =
        co_await beginIssue("cas", &metrics_.cas, 0, [peer = dst.node] {
            return "dst=" + std::to_string(peer);
        });

    sim::Promise<CasOutcome> done(node_.simulator());
    auto fut = done.future();
    ReqId id = addPending(Pending{done,
                                  {true, VecOpKind::kCas, result->ownerPid,
                                   result->base + resultOff},
                                  {}},
                          timeout);

    wire_.send(dst.node,
               Message(CasReq{dst.descriptor, dst.generation, offset,
                              oldValue, newValue, resultSeg, resultOff, id}),
               sim::CpuCategory::kDataReply, op.traceId);

    CasOutcome out = co_await fut;
    // Single-cell exchange: one request, one response, two NIC
    // interrupts on the critical path.
    endIssue(op, out.status, modelWireTime(1, 1),
             2 * node_.nic().interruptLatency());
    co_return out;
}

// ----------------------------------------------------------------------
// Vectored meta-instructions (initiator side)
// ----------------------------------------------------------------------

SegmentDescriptor *
RmemEngine::landingSpot(const VectorSubOp &sub, const VectorLocalDeposit &loc)
{
    SegmentDescriptor *dst = table_.get(loc.dstSeg);
    if (dst == nullptr ||
        static_cast<uint64_t>(loc.dstOff) + subOpBytes(sub) > dst->size ||
        (sub.kind == VecOpKind::kCas && loc.dstOff % 4 != 0)) {
        return nullptr;
    }
    return dst;
}

sim::Task<VectorOutcome>
RmemEngine::issueVector(VectorBatch batch, sim::Duration timeout)
{
    size_t n = batch.ops.size();
    stats_.vectorsIssued.inc();
    stats_.vectorSubOps.inc(n);
    node_.simulator().noteDigest(
        "rmem.vector", (static_cast<uint64_t>(batch.target) << 8) | n);
    VectorReq req;
    req.ops = std::move(batch.ops);
    // BatchBuilder admitted every sub-op: the batch is non-empty, within
    // the op cap and both frame budgets, with one landing spot per op.
    REMORA_ASSERT(n > 0 && n <= kMaxVectorOps && batch.local.size() == n);
    REMORA_ASSERT(encodedVectorSize(req) <= kBlockDataMax &&
                  encodedVectorRespSize(req) <= kBlockDataMax);

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
        SegmentDescriptor *dst = landingSpot(sub, loc);
        REMORA_ASSERT(dst != nullptr); // BatchBuilder checked it at add
        deposits[i] =
            VectorDeposit{true,       sub.kind,   dst->ownerPid,
                          dst->base + loc.dstOff, loc.notify, loc.dstSeg};
    }
    IssuedOp op = co_await beginIssue(
        "vector", &metrics_.vector, n, [n, peer = batch.target] {
            return "ops=" + std::to_string(n) +
                   " dst=" + std::to_string(peer);
        });

    VectorOutcome out{util::Status(), {}};
    sim::Duration wireTime = 0;
    sim::Duration controllerTime = 0;
    if (!wantResponse) {
        // Pure-write batch: local completion when the frame is accepted
        // by the network; target-side failures NAK like scalar writes.
        req.reqId = 0;
        auto accepted = wire_.send(batch.target, Message(std::move(req)),
                                   sim::CpuCategory::kDataReply, op.traceId);
        co_await accepted;
    } else {
        // One request frame out, one response frame back, two NIC
        // interrupts on the critical path — for the whole batch.
        wireTime = modelWireTime(cellsFor(encodedVectorSize(req)),
                                 cellsFor(encodedVectorRespSize(req)));
        controllerTime = 2 * node_.nic().interruptLatency();
        sim::Promise<VectorOutcome> done(node_.simulator());
        auto fut = done.future();
        req.reqId =
            addPending(Pending{done, {}, std::move(deposits)}, timeout);
        wire_.send(batch.target, Message(std::move(req)),
                   sim::CpuCategory::kDataReply, op.traceId);
        out = co_await fut;
    }
    endIssue(op, out.status, wireTime, controllerTime);
    co_return out;
}

sim::Task<util::Status>
RmemEngine::writev(std::vector<BatchBuilder::Write> ops)
{
    VectorOutcome out = co_await issueBatch(
        BatchBuilder(*this), std::move(ops), &BatchBuilder::addWrite, 0);
    co_return out.status;
}

sim::Task<VectorOutcome>
RmemEngine::readv(std::vector<BatchBuilder::Read> ops, sim::Duration timeout)
{
    return issueBatch(BatchBuilder(*this), std::move(ops),
                      &BatchBuilder::addRead, timeout);
}

sim::Task<VectorOutcome>
RmemEngine::casv(std::vector<BatchBuilder::Cas> ops, sim::Duration timeout)
{
    return issueBatch(BatchBuilder(*this), std::move(ops),
                      &BatchBuilder::addCas, timeout);
}

// ----------------------------------------------------------------------
// Serving side
// ----------------------------------------------------------------------

void
RmemEngine::onMessage(net::NodeId src, Message &&msg)
{
    // A scalar request becomes a sub-op and a scalar reply a result list
    // of one; the message type alone picks the framing.
    struct Visitor
    {
        RmemEngine *eng;
        net::NodeId src;
        void operator()(WriteReq &m)
        {
            MsgType type = m.data.size() <= kSmallWriteMax
                               ? MsgType::kWriteSmall
                               : MsgType::kWriteBlock;
            eng->serveScalar(src, type, 0,
                             VectorSubOp{VecOpKind::kWrite, m.descriptor,
                                         m.generation, m.offset, m.notify,
                                         std::move(m.data)});
        }
        void operator()(ReadReq &m)
        {
            eng->serveScalar(src, MsgType::kReadReq, m.reqId,
                             VectorSubOp{VecOpKind::kRead, m.srcDescriptor,
                                         m.generation, m.srcOffset, m.notify,
                                         {}, m.count});
        }
        void operator()(CasReq &m)
        {
            eng->serveScalar(src, MsgType::kCasReq, m.reqId,
                             VectorSubOp{VecOpKind::kCas, m.descriptor,
                                         m.generation, m.offset, m.notify,
                                         {}, 0, m.oldValue, m.newValue});
        }
        void operator()(ReadResp &m)
        {
            eng->complete(src, m.reqId,
                          std::array{VectorSubResult{
                              m.status, VecOpKind::kRead, std::move(m.data)}});
        }
        void operator()(CasResp &m)
        {
            eng->complete(src, m.reqId,
                          std::array{VectorSubResult{util::ErrorCode::kOk,
                                                     VecOpKind::kCas,
                                                     {},
                                                     m.success,
                                                     m.observed}});
        }
        void operator()(Nak &m) { eng->handleNak(src, m); }
        void operator()(VectorReq &m) { eng->serveVector(src, std::move(m)); }
        void operator()(VectorResp &m)
        {
            eng->complete(src, m.reqId, std::move(m.results));
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
RmemEngine::serveScalar(net::NodeId src, MsgType type, ReqId reqId,
                        VectorSubOp &&sub)
{
    stats_.requestsServed.inc();
    // Span from dispatch to the reply, the copy's completion or the NAK.
    obs::SpanId span = obs::kNoSpan;
    if (obs::TraceRecorder::on()) {
        std::string args = "from=" + std::to_string(src);
        if (sub.kind != VecOpKind::kCas) {
            args = (sub.kind == VecOpKind::kWrite ? "bytes=" : "count=") +
                   std::to_string(subOpBytes(sub)) + " " + args;
        }
        span = obs::TraceRecorder::instance().beginSpan(
            node_.name(), "rmem", kServeName[static_cast<size_t>(sub.kind)],
            args);
    }
    // The dispatch runs under route()'s OpScope; deferred stages must
    // carry the op themselves and re-establish it, so the NAK/notify/
    // reply sends they make still join the initiator's DAG.
    ScalarServe s{src, reqId, type, obs::TraceRecorder::currentOp(),
                  span, std::move(sub)};
    // The whole serve chain (validation, copy, notify) operates on this
    // byte range or word; the second stage inherits the hint through
    // its event.
    sim::Simulator::HintScope hintScope(node_.simulator(),
                                        subOpHint(node_.id(), s.sub));
    // Stage 1: demux + validation. A CAS is one word's work and executes
    // in this same event, so it pays its execution cost here.
    bool cas = s.sub.kind == VecOpKind::kCas;
    node_.cpu().post(
        costs_.msgHandleCost + costs_.validateCost +
            (cas ? costs_.casExecCost : 0),
        sim::CpuCategory::kDataReceive, [this, s = std::move(s)]() mutable {
            obs::OpScope opScope(s.op);
            if (s.sub.kind == VecOpKind::kCas) {
                finishScalar(s);
                return;
            }
            auto v = validateSubOp(table_, s.sub);
            if (!v.ok()) {
                sendNak(s.src, s.reqId, v.status().code(), s.type);
                obs::TraceRecorder::instance().endSpan(s.span);
                return;
            }
            // Stage 2: translation + copy (then the reply, for a READ).
            sim::Duration cost = stageTwoCost(costs_, s.sub);
            sim::CpuCategory cat = stageTwoCategory(s.sub);
            node_.cpu().post(cost, cat, [this, s = std::move(s)]() mutable {
                obs::OpScope copyScope(s.op);
                finishScalar(s);
            });
        });
}

void
RmemEngine::finishScalar(ScalarServe &s)
{
    VectorSubResult res;
    SegmentDescriptor *d = executeSubOp(
        s.src, kServeSite[static_cast<size_t>(s.sub.kind)], s.sub, res);
    if (d == nullptr) {
        sendNak(s.src, s.reqId, res.status, s.type);
        obs::TraceRecorder::instance().endSpan(s.span);
        return;
    }
    // A scalar READ/CAS replies first, then posts the exporter-side
    // notification; the CPU is FCFS, so this order is observable.
    if (s.sub.kind == VecOpKind::kRead) {
        wire_.send(s.src,
                   Message(ReadResp{s.reqId, util::ErrorCode::kOk,
                                    std::move(res.data)}),
                   sim::CpuCategory::kDataReply);
    } else if (s.sub.kind == VecOpKind::kCas) {
        wire_.send(s.src, Message(CasResp{s.reqId, res.success, res.observed}),
                   sim::CpuCategory::kDataReply);
    }
    if (wantsNotify(*d, s.sub)) {
        // The post releases on behalf of the initiating node.
        RaceDetector::ScopedActor raceScope(
            s.src, kServeSite[static_cast<size_t>(s.sub.kind)], s.src);
        postNotification(*d->channel, subOpNotification(s.src, s.sub, s.op));
    }
    obs::TraceRecorder::instance().endSpan(s.span);
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
    for (size_t i = 0; i < n; ++i) {
        st->results[i].kind = req.ops[i].kind;
        auto v = validateSubOp(cache, req.ops[i]);
        if (!v.ok()) {
            st->results[i].status = v.status().code();
        } else {
            ++st->remaining;
        }
    }
    stats_.vectorValidateHits.inc(cache.hits());
    if (st->remaining == 0) {
        finishVector(st); // nothing executable
        return;
    }
    // Stage 2: one deferred event per valid sub-op, each carrying its
    // own byte-range DepHint so the explorer sees sub-op granularity.
    for (size_t i = 0; i < n; ++i) {
        if (st->results[i].status != util::ErrorCode::kOk) {
            continue;
        }
        VectorSubOp &sub = req.ops[i];
        sim::Simulator::HintScope hint(node_.simulator(),
                                       subOpHint(node_.id(), sub));
        sim::Duration cost = stageTwoCost(costs_, sub);
        sim::CpuCategory cat = stageTwoCategory(sub);
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
    // Every sub-op store/load belongs to the initiating node's timeline
    // — the race detector sees per-sub-op byte-range accesses.
    SegmentDescriptor *d =
        executeSubOp(st->src, "rmem serve_vector sub-op from node ", sub,
                     st->results[index]);
    if (d != nullptr) {
        if (wantsNotify(*d, sub)) {
            st->notify[sub.descriptor].push_back(
                subOpNotification(st->src, sub, st->op));
        }
        if (obs::TraceRecorder::on()) {
            obs::TraceRecorder::instance().instant(
                node_.name(), "rmem", "vector_sub",
                "idx=" + std::to_string(index) + " kind=" +
                    std::to_string(static_cast<int>(sub.kind)));
        }
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
    // one release edge — instead of one doorbell per sub-op.
    if (!st->notify.empty()) {
        RaceDetector::ScopedActor raceScope(
            st->src, "rmem vector notify from node ", st->src);
        ringDoorbells(st->notify);
        st->notify.clear();
    }
    if (st->wantResponse) {
        obs::OpScope opScope(st->op);
        VectorResp resp;
        resp.reqId = st->reqId;
        resp.results = std::move(st->results);
        wire_.send(st->src, Message(std::move(resp)),
                   sim::CpuCategory::kDataReply);
    } else {
        // Response-carrying batches report per-sub-op status; a
        // pure-write batch with any failed sub-op, at whichever stage,
        // NAKs once with the first failure, like a scalar bad write.
        auto failed = std::find_if(
            st->results.begin(), st->results.end(),
            [](const VectorSubResult &r) {
                return r.status != util::ErrorCode::kOk;
            });
        if (failed != st->results.end()) {
            sendNak(st->src, 0, failed->status, MsgType::kVectorOp);
        }
    }
    obs::TraceRecorder::instance().endSpan(st->span);
}

SegmentDescriptor *
RmemEngine::executeSubOp(net::NodeId src, std::string_view raceSite,
                         const VectorSubOp &sub, VectorSubResult &res)
{
    auto v = validateSubOp(table_, sub);
    SegmentDescriptor *d = v.ok() ? v.value() : nullptr;
    mem::Process *owner = d != nullptr ? ownerOf(*d) : nullptr;
    if (owner == nullptr) {
        res.status = v.ok() ? util::ErrorCode::kBadDescriptor
                            : v.status().code();
        return nullptr;
    }
    // The applied access belongs to the *initiating* node's
    // happens-before timeline.
    RaceDetector::ScopedActor raceScope(src, raceSite, src);
    mem::Vaddr va = d->base + sub.offset;
    switch (sub.kind) {
      case VecOpKind::kWrite: {
        util::Status ws = owner->space().write(va, sub.data);
        REMORA_ASSERT(ws.ok());
        break;
      }
      case VecOpKind::kRead: {
        res.data.resize(sub.count);
        util::Status rs = owner->space().read(va, res.data);
        REMORA_ASSERT(rs.ok());
        break;
      }
      case VecOpKind::kCas: {
        // A CAS target is by definition a synchronization word: the
        // read below acquires its clock and a successful swap releases,
        // so CAS-success pairs chain happens-before.
        if (RaceDetector::on()) {
            RaceDetector::instance().markSyncWord(node_.id(), sub.descriptor,
                                                  sub.offset);
        }
        auto word = owner->space().readWord(va);
        REMORA_ASSERT(word.ok());
        res.observed = word.value();
        res.success = (word.value() == sub.oldValue);
        if (res.success) {
            util::Status ws = owner->space().writeWord(va, sub.newValue);
            REMORA_ASSERT(ws.ok());
        }
        break;
      }
    }
    return d;
}

template <typename Results>
void
RmemEngine::complete(net::NodeId src, ReqId reqId, Results results)
{
    constexpr bool vectored =
        std::is_same_v<Results, std::vector<VectorSubResult>>;
    // Pending::done's index: read, CAS, vector.
    size_t framing = vectored ? 2
                     : results[0].kind == VecOpKind::kRead ? 0
                                                            : 1;
    auto it = pending_.find(reqId);
    if (it == pending_.end() || it->second.done.index() != framing) {
        return; // timed out, duplicate or stray; drop silently
    }
    Pending p = takePending(it);
    std::span<const VectorDeposit> deps = p.deposits();
    if (results.size() != deps.size()) {
        failPending(p, util::Status(util::ErrorCode::kMalformed,
                                    "vector response arity mismatch"));
        return;
    }
    obs::SpanId span = obs::kNoSpan;
    if (obs::TraceRecorder::on()) {
        std::string detail;
        if (vectored) {
            detail = "results=" + std::to_string(results.size());
        } else if (framing == 0) {
            detail = "bytes=" + std::to_string(results[0].data.size());
        } else {
            detail = results[0].success ? "success" : "failure";
        }
        span = obs::TraceRecorder::instance().beginSpan(
            node_.name(), "rmem", kDepositName[framing], detail);
    }
    uint64_t op = obs::TraceRecorder::currentOp();
    // ONE deposit event per response: demux once, then copy each
    // successful READ payload / CAS result word into place.
    sim::Duration cost = costs_.msgHandleCost;
    for (size_t i = 0; i < results.size(); ++i) {
        const VectorSubResult &r = results[i];
        if (deps[i].active && r.status == util::ErrorCode::kOk) {
            cost += r.kind == VecOpKind::kRead ? costs_.copyCost(r.data.size())
                                               : costs_.copyWordCost;
        }
    }
    node_.cpu().post(
        cost, sim::CpuCategory::kDataReceive,
        [this, src, span, op, framing, p = std::move(p),
         results = std::move(results)]() mutable {
            obs::OpScope opScope(op);
            RaceDetector::ScopedActor raceScope(
                node_.id(), kDepositSite[framing], node_.id());
            // Reader-side notifications: a vector coalesces them per
            // destination segment, exactly like the serving side's
            // doorbells; a scalar READ posts its one.
            std::map<SegmentId, std::vector<Notification>> notify;
            std::span<const VectorDeposit> spots = p.deposits();
            for (size_t i = 0; i < results.size(); ++i) {
                const VectorDeposit &dep = spots[i];
                const VectorSubResult &r = results[i];
                mem::Process *proc =
                    dep.active && r.status == util::ErrorCode::kOk
                        ? node_.findProcess(dep.pid)
                        : nullptr;
                if (proc == nullptr) {
                    continue;
                }
                if (r.kind == VecOpKind::kCas) {
                    util::Status ws =
                        proc->space().writeWord(dep.va, r.success ? 1u : 0u);
                    REMORA_ASSERT(ws.ok());
                } else if (r.kind == VecOpKind::kRead) {
                    util::Status ws = proc->space().write(dep.va, r.data);
                    REMORA_ASSERT(ws.ok());
                    Notification n{src, NotifyKind::kRead, 0,
                                   static_cast<uint32_t>(r.data.size()), op};
                    if (!dep.notify) {
                        continue;
                    } else if (vectored) {
                        notify[dep.dstSeg].push_back(n);
                    } else if (NotificationChannel *ch =
                                   channel(dep.dstSeg)) {
                        postNotification(*ch, n);
                    }
                }
            }
            ringDoorbells(notify);
            obs::TraceRecorder::instance().endSpan(span);
            if constexpr (vectored) {
                std::get<2>(p.done).set(
                    VectorOutcome{util::Status(), std::move(results)});
            } else {
                VectorSubResult &r = results[0];
                util::Status status =
                    r.status == util::ErrorCode::kOk
                        ? util::Status()
                        : util::Status(r.status, kNakText[framing]);
                if (framing == 0) {
                    std::get<0>(p.done).set(
                        ReadOutcome{status, std::move(r.data)});
                } else {
                    std::get<1>(p.done).set(
                        CasOutcome{status, r.success, r.observed});
                }
            }
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
    if (auto it = pending_.find(nak.reqId); it != pending_.end()) {
        Pending p = takePending(it);
        failPending(p, util::Status(nak.error, kNakText[p.done.index()]));
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
RmemEngine::postNotification(NotificationChannel &ch, const Notification &n)
{
    stats_.notificationsPosted.inc();
    if (obs::TraceRecorder::on()) {
        obs::TraceRecorder::instance().instant(
            node_.name(), "rmem", "notify",
            "offset=" + std::to_string(n.offset) + " len=" +
                std::to_string(n.count));
    }
    ch.post(n);
}

void
RmemEngine::ringDoorbells(
    const std::map<SegmentId, std::vector<Notification>> &notify)
{
    // Channels are re-resolved by slot here, so a segment revoked while
    // its records were queued cannot leave a dangling channel pointer.
    for (const auto &[segId, recs] : notify) {
        NotificationChannel *ch = channel(segId);
        if (ch == nullptr) {
            continue;
        }
        stats_.notificationsPosted.inc(recs.size());
        stats_.vectorDoorbells.inc();
        if (obs::TraceRecorder::on()) {
            obs::TraceRecorder::instance().instant(
                node_.name(), "rmem", "notify_batch",
                "records=" + std::to_string(recs.size()));
        }
        ch->postBatch(recs);
    }
}

ReqId
RmemEngine::addPending(Pending p, sim::Duration timeout)
{
    ReqId id = allocReqId();
    auto [it, inserted] = pending_.try_emplace(id, std::move(p));
    REMORA_ASSERT(inserted);
    if (timeout > 0) {
        it->second.timeoutEvent =
            node_.simulator().schedule(timeout, [this, id] {
                auto pit = pending_.find(id);
                if (pit == pending_.end()) {
                    return;
                }
                Pending expired = takePending(pit);
                stats_.timeouts.inc();
                failPending(expired,
                            util::Status(util::ErrorCode::kTimeout,
                                         kTimeoutText[expired.done.index()]));
            });
    }
    return id;
}

RmemEngine::Pending
RmemEngine::takePending(PendingTable::iterator it)
{
    Pending p = std::move(it->second);
    pending_.erase(it);
    // A guard that already fired is a stale handle: cancel is a no-op.
    if (p.timeoutEvent != 0) {
        node_.simulator().cancel(p.timeoutEvent);
    }
    return p;
}

void
RmemEngine::failPending(Pending &p, util::Status status)
{
    std::visit(
        [&status]<typename T>(sim::Promise<T> &done) {
            T out{};
            out.status = std::move(status);
            done.set(std::move(out));
        },
        p.done);
}

ReqId
RmemEngine::allocReqId()
{
    for (;;) {
        ReqId id = nextReqId_++;
        if (id == 0) {
            continue; // zero is reserved for id-less NAKs
        }
        if (pending_.find(id) == pending_.end()) {
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
