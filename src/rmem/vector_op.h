/**
 * @file
 * Vectored meta-instructions: N sub-ops in one wire message.
 *
 * A kVectorOp message carries up to kMaxVectorOps READ/WRITE/CAS
 * sub-ops addressed to segments of a single target node, all inside one
 * AAL5 frame. The initiator charges one trap + header + validation and
 * a small per-sub-op marginal cost; the serving kernel validates each
 * distinct (slot, generation, rights) key once (ValidationCache) and
 * coalesces the notify bits that target the same channel into a single
 * doorbell (NotificationChannel::postBatch). This amortizes exactly the
 * per-op software overhead the paper identifies as the binding
 * constraint — the wire was never the bottleneck.
 *
 * Wire format (first octet = kVectorOp, then):
 *
 *   u16 reqId      0 when no response is expected (pure-write batch)
 *   u8  opCount
 *   per sub-op:
 *     u8  kind (low 2 bits) | 0x80 notify
 *     u8  descriptor
 *     u16 generation
 *     u32 offset
 *     WRITE: u16 len, len data bytes
 *     READ : u16 count
 *     CAS  : u32 oldValue, u32 newValue
 *
 * The response (kVectorResp) carries per-sub-op status plus READ data /
 * CAS outcome; pure-write batches get no response (local completion,
 * like scalar WRITE), and an all-invalid pure-write batch NAKs once.
 */
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "rmem/segment.h"
#include "sim/task.h"
#include "util/status.h"

namespace remora::rmem {

class DescriptorTable;
struct SegmentDescriptor;
class RmemEngine;

/** Sub-op discriminator inside a vectored message. */
enum class VecOpKind : uint8_t
{
    kWrite = 0,
    kRead = 1,
    kCas = 2,
};

/** Most sub-ops one kVectorOp message may carry. */
inline constexpr size_t kMaxVectorOps = 64;

/** Frame header of kVectorOp and kVectorResp: type, reqId, opCount. */
inline constexpr size_t kVectorHeaderBytes = 4;

/** One sub-op as it travels on the wire. */
struct VectorSubOp
{
    VecOpKind kind = VecOpKind::kWrite;
    /** Target-node segment slot. */
    SegmentId descriptor = 0;
    Generation generation = 0;
    uint32_t offset = 0;
    /**
     * WRITE/CAS: request target-side control transfer. READ: request
     * reader-side notification when the data is deposited locally.
     */
    bool notify = false;
    /** WRITE payload. */
    std::vector<uint8_t> data;
    /** READ byte count. */
    uint16_t count = 0;
    /** CAS comparand / replacement. */
    uint32_t oldValue = 0;
    uint32_t newValue = 0;
};

/** The kVectorOp wire message. */
struct VectorReq
{
    uint16_t reqId = 0;
    std::vector<VectorSubOp> ops;
};

/** Per-sub-op outcome inside a kVectorResp. */
struct VectorSubResult
{
    util::ErrorCode status = util::ErrorCode::kOk;
    VecOpKind kind = VecOpKind::kWrite;
    /** READ payload (status kOk only). */
    std::vector<uint8_t> data;
    /** CAS outcome. */
    bool success = false;
    uint32_t observed = 0;
};

/** The kVectorResp wire message. */
struct VectorResp
{
    uint16_t reqId = 0;
    std::vector<VectorSubResult> results;
};

/** Initiator-side deposit coordinates of one READ/CAS sub-op. */
struct VectorLocalDeposit
{
    /** Local destination segment / offset. */
    SegmentId dstSeg = 0;
    uint32_t dstOff = 0;
    /** Post a reader-side notification when the deposit completes. */
    bool notify = false;
};

/** A fully-assembled batch, as BatchBuilder hands it to the engine. */
struct VectorBatch
{
    net::NodeId target = 0;
    std::vector<VectorSubOp> ops;
    /** Parallel to ops: where READ data / CAS results land locally. */
    std::vector<VectorLocalDeposit> local;
};

/** Result of a completed vectored meta-instruction. */
struct VectorOutcome
{
    /** Transport-level status (timeout / NAK); per-sub-op in results. */
    util::Status status;
    /** One entry per sub-op, in issue order (empty for pure writes). */
    std::vector<VectorSubResult> results;
};

/** Rights a sub-op of @p kind needs at the target. */
Rights vecOpRights(VecOpKind kind);

/** Bytes a sub-op touches at the target (4 for a CAS word). */
uint64_t subOpBytes(const VectorSubOp &sub);

/**
 * The one import check of every meta-instruction, scalar or batched:
 * @p seg must grant the rights a @p kind op needs, [offset, offset +
 * bytes) must lie inside it, and a CAS target must be word-aligned.
 * Fails with kAccessDenied or kOutOfBounds and the kind's own text.
 */
util::Status checkImport(const ImportedSegment &seg, VecOpKind kind,
                         uint32_t offset, uint64_t bytes);

/** Encoded wire size of a VectorReq (for frame budgeting). */
size_t encodedVectorSize(const VectorReq &req);

/** Worst-case encoded wire size of the response to @p req. */
size_t encodedVectorRespSize(const VectorReq &req);

// ----------------------------------------------------------------------
// Serving-side validation cache
// ----------------------------------------------------------------------

/**
 * Per-batch validation cache: N sub-ops naming the same (slot,
 * generation, rights) triple validate once. The full descriptor-table
 * walk still runs for every sub-op (bounds and write-inhibit are
 * per-sub-op properties and revocation must never be missed); what the
 * cache elides is the modeled *cost* — the engine charges validateCost
 * per miss, not per sub-op, exactly as a hardware translation cache
 * would elide the table walk's cycles.
 */
class ValidationCache
{
  public:
    explicit ValidationCache(DescriptorTable &table) : table_(table) {}

    /** Validate one sub-op; counts a hit when the key was seen before. */
    util::Result<SegmentDescriptor *> validate(SegmentId id,
                                               Generation generation,
                                               uint64_t offset, uint64_t count,
                                               Rights needed);

    /** Sub-ops whose key had already validated successfully. */
    uint64_t hits() const { return hits_; }

    /** Distinct keys walked (each charged one validateCost). */
    uint64_t misses() const { return misses_; }

  private:
    DescriptorTable &table_;
    /** (slot | generation<<8 | rights<<24) -> validated descriptor. */
    std::unordered_map<uint32_t, SegmentDescriptor *> seen_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

/**
 * Count of distinct (slot, generation, rights-needed) keys in @p ops:
 * the number of validateCost charges the serving side pays.
 */
size_t distinctValidationKeys(const std::vector<VectorSubOp> &ops);

// ----------------------------------------------------------------------
// BatchBuilder
// ----------------------------------------------------------------------

/**
 * Opt-in builder upper layers use to gather sub-ops for one target
 * node. Every check (checkImport, the local landing spot, then op cap,
 * single target and frame budgets) runs at add time so a bad op is
 * rejected before anything is counted or hits the wire; issue() hands
 * the admitted batch to the engine's one vectored issue path.
 */
class BatchBuilder
{
  public:
    /** Parameters of one batched WRITE. */
    struct Write
    {
        ImportedSegment dst;
        uint32_t offset = 0;
        std::vector<uint8_t> data;
        bool notify = false;
    };

    /** Parameters of one batched READ. */
    struct Read
    {
        ImportedSegment src;
        uint32_t srcOff = 0;
        /** Locally exported destination segment / offset. */
        SegmentId dstSeg = 0;
        uint32_t dstOff = 0;
        uint16_t count = 0;
        bool notify = false;
    };

    /** Parameters of one batched CAS. */
    struct Cas
    {
        ImportedSegment dst;
        uint32_t offset = 0;
        uint32_t oldValue = 0;
        uint32_t newValue = 0;
        /** Locally exported segment/offset for the result word. */
        SegmentId resultSeg = 0;
        uint32_t resultOff = 0;
    };

    explicit BatchBuilder(RmemEngine &engine) : engine_(engine) {}

    /** Append one WRITE sub-op (checked against the import handle). */
    util::Status addWrite(Write op);

    /** Append one READ sub-op. */
    util::Status addRead(Read op);

    /** Append one CAS sub-op. */
    util::Status addCas(Cas op);

    /** Sub-ops gathered so far. */
    size_t size() const { return batch_.ops.size(); }

    bool empty() const { return batch_.ops.empty(); }

    /** True when the batch holds a READ or CAS (a response will come). */
    bool wantsResponse() const;

    /** Current encoded request size in bytes. */
    size_t wireBytes() const { return wireBytes_; }

    /**
     * Issue the gathered batch as one vectored meta-instruction and
     * reset the builder for reuse. An empty batch resolves immediately.
     *
     * @param timeout Zero = wait forever (response-carrying batches).
     */
    sim::Task<VectorOutcome> issue(sim::Duration timeout = 0);

  private:
    /**
     * The add* tail: check @p sub against its import @p seg and its
     * local landing spot, keep the batch single-target and within the
     * op cap and both frame budgets, then append it.
     */
    util::Status add(const ImportedSegment &seg, VectorSubOp sub,
                     VectorLocalDeposit local);

    RmemEngine &engine_;
    VectorBatch batch_;
    /** Encoded request and worst-case response bytes so far. */
    size_t wireBytes_ = kVectorHeaderBytes;
    size_t respBytes_ = kVectorHeaderBytes;
};

} // namespace remora::rmem
