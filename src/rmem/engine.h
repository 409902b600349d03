/**
 * @file
 * The remote-memory kernel emulation engine: the paper's core.
 *
 * One RmemEngine per node plays the role of the in-kernel co-processor
 * emulation: it implements the three non-privileged meta-instructions
 * (WRITE, READ, CAS) on the initiating side, and validates + executes
 * incoming requests on the serving side, entirely without involving the
 * remote *process* — only the remote kernel's data path runs, which is
 * what "pure data transfer" means in the paper.
 *
 * Initiator semantics follow §3.1.1:
 *  - write() resolves when the data has been accepted by the network
 *    (no delivery acknowledgement; reliability is the network's job);
 *  - read() is issued without blocking the node, and the returned task
 *    resolves when the data has been deposited in the local destination
 *    segment (or a NAK/timeout arrives);
 *  - cas() resolves when the success/failure word has been deposited.
 *
 * Target-side semantics:
 *  - every request is validated against the descriptor table (slot,
 *    generation, rights, bounds, write-inhibit) — protection is
 *    enforced, failures NAK;
 *  - data lands in (or is read from) the owning process's address
 *    space through its page table;
 *  - notification fires only when the segment's policy combined with
 *    the request's notify bit asks for control transfer.
 *
 * Scalar and vectored requests share one path on each side. Issued,
 * each passes one import check (checkImport) and one issue skeleton
 * (beginIssue/endIssue: trace op, trap charge, phase record). Served, a
 * scalar READ/WRITE/CAS is a sub-op batch of one through the same
 * executor, notify decision, pending table and deposit function. Only
 * the framing differs (encoding, charges, reply and notification
 * order, NAK versus per-sub-op status); DESIGN.md §13 "One issue path"
 * and "One serve path" list what stays per framing and why.
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

#include "mem/node.h"
#include "obs/metrics.h"
#include "rmem/cost_model.h"
#include "rmem/descriptor.h"
#include "rmem/protocol.h"
#include "rmem/segment.h"
#include "rmem/vector_op.h"
#include "rmem/wire.h"
#include "sim/stats.h"
#include "sim/task.h"
#include "util/status.h"

namespace remora::rmem {

/** Result of a completed read meta-instruction. */
struct ReadOutcome
{
    util::Status status;
    /** The data, also deposited at the local destination. */
    std::vector<uint8_t> data;
};

/** Result of a completed CAS meta-instruction. */
struct CasOutcome
{
    util::Status status;
    /** True when the swap took effect. */
    bool success = false;
    /** Value observed at the remote location before the swap. */
    uint32_t observed = 0;
};

/** Engine statistics. */
struct EngineStats
{
    sim::Counter writesIssued;
    sim::Counter readsIssued;
    sim::Counter casIssued;
    sim::Counter requestsServed;
    sim::Counter naksSent;
    sim::Counter naksReceived;
    sim::Counter notificationsPosted;
    sim::Counter timeouts;
    /** Vectored meta-instructions issued (batches, not sub-ops). */
    sim::Counter vectorsIssued;
    /** Sub-ops carried by issued vectored meta-instructions. */
    sim::Counter vectorSubOps;
    /** Vectored requests served (batches). */
    sim::Counter vectorServed;
    /** Sub-ops executed on the serving side. */
    sim::Counter vectorSubOpsServed;
    /** Coalesced doorbells posted (one per channel per served batch). */
    sim::Counter vectorDoorbells;
    /** Serving-side validations elided by the per-batch cache. */
    sim::Counter vectorValidateHits;
};

/**
 * Latency decomposition of one meta-instruction class, reproducing
 * Table 2's phase breakdown. The wire and controller phases are derived
 * from the topology model (cell serialization + propagation, NIC
 * interrupt latencies on the critical path); software is the remainder
 * — kernel emulation, PIO, validation, and copies.
 */
struct OpPhaseStats
{
    /** End-to-end latency, 5 us buckets up to 400 us. */
    sim::Histogram latencyUs{0.0, 5.0, 80};
    sim::Accumulator totalUs;
    sim::Accumulator softwareUs;
    sim::Accumulator wireUs;
    sim::Accumulator controllerUs;
};

/** Per-meta-instruction phase stats (successful ops only). */
struct EngineMetrics
{
    /** WRITE latency is to local completion, so it is all software. */
    OpPhaseStats write;
    OpPhaseStats read;
    OpPhaseStats cas;
    /** Vectored meta-instructions (whole-batch latency). */
    OpPhaseStats vector;
};

/** Per-node remote-memory kernel layer. */
class RmemEngine
{
  public:
    /**
     * @param node The node this kernel runs on.
     * @param costs Cost model (shared across the cluster for fairness).
     */
    explicit RmemEngine(mem::Node &node, const CostModel &costs = {});

    RmemEngine(const RmemEngine &) = delete;
    RmemEngine &operator=(const RmemEngine &) = delete;

    // ------------------------------------------------------------------
    // Export-side kernel calls
    // ------------------------------------------------------------------

    /**
     * Export [base, base+size) of @p owner's space for remote access.
     *
     * Pins the pages (remote access bypasses the owner) and assigns a
     * descriptor slot and a fresh generation.
     *
     * @return Handle describing the export, or kResource / kOutOfBounds.
     */
    util::Result<ImportedSegment> exportSegment(mem::Process &owner,
                                                mem::Vaddr base,
                                                uint32_t size, Rights rights,
                                                NotifyPolicy policy,
                                                const std::string &name);

    /**
     * Revoke an exported segment: unpin, invalidate the slot, bump the
     * generation so outstanding imports go stale.
     */
    util::Status revokeSegment(SegmentId id);

    /** Toggle the write-inhibit flag used for synchronization (§3.1.1). */
    util::Status setWriteInhibit(SegmentId id, bool inhibit);

    /** Change the notification policy of a live segment. */
    util::Status setNotifyPolicy(SegmentId id, NotifyPolicy policy);

    /** The segment's notification channel; nullptr for invalid ids. */
    NotificationChannel *channel(SegmentId id);

    /** Kernel descriptor state; nullptr for invalid ids. */
    SegmentDescriptor *descriptor(SegmentId id);

    /**
     * An ImportedSegment handle for a locally exported segment (what
     * the name service hands to importers on other nodes).
     */
    util::Result<ImportedSegment> localHandle(SegmentId id) const;

    // ------------------------------------------------------------------
    // Meta-instructions (initiator side)
    // ------------------------------------------------------------------

    /**
     * WRITE: deposit @p data at @p offset within remote segment @p dst.
     *
     * Resolves with kOk once the data is accepted by the network (the
     * paper's local-completion guarantee); protection failures at the
     * destination arrive later as NAKs and are *not* reported here —
     * they surface via nakCount() and, if the importer cares, through
     * reads that observe missing data. Data larger than one frame is
     * fragmented transparently.
     *
     * @param dst Imported remote segment (needs kWrite).
     * @param offset Byte offset within the segment.
     * @param data Bytes to write.
     * @param notify Request control transfer at the destination.
     */
    sim::Task<util::Status> write(ImportedSegment dst, uint32_t offset,
                                  std::vector<uint8_t> data,
                                  bool notify = false);

    /**
     * READ: fetch @p count bytes at @p srcOff of remote @p src into the
     * local segment @p dstSeg at @p dstOff.
     *
     * @param src Imported remote segment (needs kRead).
     * @param srcOff Byte offset within the remote segment.
     * @param dstSeg Locally exported destination segment.
     * @param dstOff Offset within the local segment.
     * @param count Bytes to fetch (chunked transparently if large).
     * @param notify Request local notification when the data lands.
     * @param timeout Zero = wait forever; otherwise resolve kTimeout.
     */
    sim::Task<ReadOutcome> read(ImportedSegment src, uint32_t srcOff,
                                SegmentId dstSeg, uint32_t dstOff,
                                uint32_t count, bool notify = false,
                                sim::Duration timeout = 0);

    /**
     * CAS: atomically compare-and-swap the word at @p offset of remote
     * @p dst; the success word is deposited at (resultSeg, resultOff).
     *
     * @param dst Imported remote segment (needs kCas).
     * @param offset Word-aligned byte offset of the target word.
     * @param oldValue Comparand.
     * @param newValue Value stored on successful comparison.
     * @param resultSeg Locally exported segment for the result word.
     * @param resultOff Word-aligned offset for the result word.
     * @param timeout Zero = wait forever.
     */
    sim::Task<CasOutcome> cas(ImportedSegment dst, uint32_t offset,
                              uint32_t oldValue, uint32_t newValue,
                              SegmentId resultSeg, uint32_t resultOff,
                              sim::Duration timeout = 0);

    // ------------------------------------------------------------------
    // Vectored meta-instructions (initiator side)
    // ------------------------------------------------------------------

    // Each issues its ops through one BatchBuilder, the general form.

    /** Vectored WRITE: all ops in one frame, local completion. */
    sim::Task<util::Status> writev(std::vector<BatchBuilder::Write> ops);

    /** Vectored READ: one request, one response, N deposits. */
    sim::Task<VectorOutcome> readv(std::vector<BatchBuilder::Read> ops,
                                   sim::Duration timeout = 0);

    /** Vectored CAS: one request, one response, N result words. */
    sim::Task<VectorOutcome> casv(std::vector<BatchBuilder::Cas> ops,
                                  sim::Duration timeout = 0);

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /** The wire (shared with the RPC baseline). */
    Wire &wire() { return wire_; }

    /** The owning node. */
    mem::Node &node() { return node_; }

    /** The cost model in force. */
    const CostModel &costs() const { return costs_; }

    /** Counters. */
    const EngineStats &stats() const { return stats_; }

    /** Per-op latency/phase decomposition. */
    const EngineMetrics &metrics() const { return metrics_; }

    /** NAKs received for writes (fire-and-forget failures). */
    uint64_t nakCount() const { return stats_.naksReceived.value(); }

    /**
     * Register this engine's counters, per-op phase stats, and the
     * underlying Wire's counters under @p prefix (e.g. "nodeA.rmem").
     */
    void registerStats(obs::MetricRegistry &reg,
                       const std::string &prefix) const;

  private:
    friend class BatchBuilder;

    /**
     * Issue a batch BatchBuilder admitted (non-empty, every sub-op past
     * checkImport and the frame budgets) as ONE vectored meta-
     * instruction: one wire message and, for READ/CAS batches, one
     * response frame. A pure-write batch completes locally like write().
     */
    sim::Task<VectorOutcome> issueVector(VectorBatch batch,
                                         sim::Duration timeout);

    /**
     * The local segment a READ/CAS sub-op's result lands in, or null
     * when @p loc is no valid landing spot for it (unknown segment, out
     * of bounds, or a misaligned CAS word).
     */
    SegmentDescriptor *landingSpot(const VectorSubOp &sub,
                                   const VectorLocalDeposit &loc);

    /** One meta-instruction in flight on the initiator side. */
    struct IssuedOp
    {
        /** Trace name ("write", "read", "cas", "vector") and stats. */
        const char *name = nullptr;
        OpPhaseStats *phases = nullptr;
        sim::Time start = 0;
        /** Async trace op; 0 when tracing is off. */
        uint64_t traceId = 0;
    };

    /** Count and digest a scalar op, then run its checkImport. */
    util::Status admitScalar(VecOpKind kind, const ImportedSegment &seg,
                             uint32_t offset, uint64_t bytes);

    /**
     * Open the issue skeleton: open the async trace op (@p detail is
     * rendered only while tracing) and charge the trap + validation,
     * plus @p subOps marginal sub-op costs, inside its "issue" span.
     */
    template <typename Detail>
    sim::Task<IssuedOp> beginIssue(const char *name, OpPhaseStats *phases,
                                   size_t subOps, Detail detail);

    /**
     * Close it: record a successful op's latency and modeled phases,
     * then end its trace op (with the failure text, if any).
     */
    void endIssue(const IssuedOp &op, const util::Status &status,
                  sim::Duration wireTime, sim::Duration controllerTime);

    /** Resolved local landing spot of one READ/CAS sub-op. */
    struct VectorDeposit
    {
        bool active = false;
        VecOpKind kind = VecOpKind::kWrite;
        mem::Pid pid = 0;
        mem::Vaddr va = 0;
        bool notify = false;
        SegmentId dstSeg = 0;
    };
    /**
     * One outstanding READ, CAS or response-carrying vector, keyed by
     * ReqId. The promise's type names the framing (read, CAS, vector,
     * in that index order). A scalar request is a batch of one whose
     * landing spot is held inline; a vector's are in `many`.
     */
    struct Pending
    {
        std::variant<sim::Promise<ReadOutcome>, sim::Promise<CasOutcome>,
                     sim::Promise<VectorOutcome>>
            done;
        VectorDeposit one;
        std::vector<VectorDeposit> many;
        sim::EventId timeoutEvent = 0;

        /** One landing spot per sub-op, in issue order. */
        std::span<const VectorDeposit> deposits() const
        {
            return many.empty() ? std::span<const VectorDeposit>(&one, 1)
                                : std::span<const VectorDeposit>(many);
        }
    };
    using PendingTable = std::unordered_map<ReqId, Pending>;
    /** A scalar request in service: a batch of one, held inline. */
    struct ScalarServe;
    /** Shared progress of one served vectored request (engine.cc). */
    struct VectorServeState;

    /** Dispatch for incoming remote-memory messages. */
    void onMessage(net::NodeId src, Message &&msg);

    /** Serve a scalar WRITE/READ/CAS (arrived as @p type) as one sub-op. */
    void serveScalar(net::NodeId src, MsgType type, ReqId reqId,
                     VectorSubOp &&sub);

    /** A scalar's last stage: execute, then reply or NAK, then notify. */
    void finishScalar(ScalarServe &s);

    void serveVector(net::NodeId src, VectorReq &&req);

    /** Stage 1 of a served vector: per-batch validation + dispatch. */
    void executeVector(const std::shared_ptr<VectorServeState> &st,
                       VectorReq &&req);

    /** Stage 2: one sub-op's execution and notify queueing. */
    void executeVectorSubOp(const std::shared_ptr<VectorServeState> &st,
                            size_t index, VectorSubOp &&sub);

    /** Last sub-op done: coalesced doorbells + response + span close. */
    void finishVector(const std::shared_ptr<VectorServeState> &st);

    /**
     * The one sub-op executor, scalar or vectored: re-validate (the
     * slot may have been revoked since stage 1), look up the owner, and
     * apply to the owner's space under the initiating node's race
     * actor (labelled @p raceSite). Fills @p res; returns the segment's
     * descriptor, or nullptr with res.status set.
     */
    SegmentDescriptor *executeSubOp(net::NodeId src,
                                    std::string_view raceSite,
                                    const VectorSubOp &sub,
                                    VectorSubResult &res);

    /**
     * Initiator side: deposit a response's results locally and resolve
     * its request. A ReadResp or CasResp arrives as a one-element array,
     * a VectorResp as its result list.
     */
    template <typename Results>
    void complete(net::NodeId src, ReqId reqId, Results results);

    void handleNak(net::NodeId src, const Nak &nak);

    /** Send a NAK for a rejected request. */
    void sendNak(net::NodeId dst, ReqId reqId, util::ErrorCode error,
                 MsgType originalType);

    /** Post one notification on @p ch, counted and traced. */
    void postNotification(NotificationChannel &ch, const Notification &n);

    /** Post each segment's queued records as one counted doorbell. */
    void ringDoorbells(
        const std::map<SegmentId, std::vector<Notification>> &notify);

    /** Register a pending request under a fresh id, arming its timeout. */
    ReqId addPending(Pending p, sim::Duration timeout);

    /** Remove a pending request and cancel its timeout guard. */
    Pending takePending(PendingTable::iterator it);

    /** Resolve a pending request with a failure status. */
    static void failPending(Pending &p, util::Status status);

    /** Allocate a request id not currently pending. */
    ReqId allocReqId();

    /** The owning process of a descriptor, or nullptr if it died. */
    mem::Process *ownerOf(const SegmentDescriptor &d);

    /**
     * Modeled wire time of an exchange: @p cellsOut request cells and
     * @p cellsBack response cells serialized at the local link's rate,
     * plus one propagation delay per direction used. Zero when no link
     * is attached.
     */
    sim::Duration modelWireTime(size_t cellsOut, size_t cellsBack) const;

    mem::Node &node_;
    CostModel costs_;
    Wire wire_;
    DescriptorTable table_;
    PendingTable pending_;
    ReqId nextReqId_ = 1;
    EngineStats stats_;
    EngineMetrics metrics_;
};

} // namespace remora::rmem
