#include "rmem/vector_op.h"

#include <algorithm>
#include <utility>

#include "rmem/descriptor.h"
#include "rmem/engine.h"
#include "rmem/protocol.h"

namespace remora::rmem {

namespace {

/** Wire bytes of one encoded sub-op (8-byte common header + tail). */
size_t
subOpWireBytes(const VectorSubOp &op)
{
    return 8 + (op.kind == VecOpKind::kWrite  ? 2 + op.data.size()
                : op.kind == VecOpKind::kRead ? 2
                                              : 8);
}

/** Worst-case response bytes one sub-op contributes (status first). */
size_t
subOpRespBytes(const VectorSubOp &op)
{
    return 2 + (op.kind == VecOpKind::kWrite  ? 0
                : op.kind == VecOpKind::kRead ? 2 + op.count
                                              : 5);
}

/** A (slot, generation, rights-needed) validation key. */
uint32_t
validationKey(SegmentId id, Generation generation, Rights needed)
{
    return static_cast<uint32_t>(id) |
           (static_cast<uint32_t>(generation) << 8) |
           (static_cast<uint32_t>(needed) << 24);
}

uint32_t
validationKey(const VectorSubOp &op)
{
    return validationKey(op.descriptor, op.generation, vecOpRights(op.kind));
}

} // namespace

Rights
vecOpRights(VecOpKind kind)
{
    constexpr Rights kNeeded[] = {Rights::kWrite, Rights::kRead, Rights::kCas};
    return kNeeded[static_cast<size_t>(kind)];
}

uint64_t
subOpBytes(const VectorSubOp &sub)
{
    return sub.kind == VecOpKind::kWrite  ? sub.data.size()
           : sub.kind == VecOpKind::kRead ? sub.count
                                          : 4;
}

util::Status
checkImport(const ImportedSegment &seg, VecOpKind kind, uint32_t offset,
            uint64_t bytes)
{
    // Indexed by VecOpKind.
    constexpr const char *kRightText[] = {"import lacks write right",
                                          "import lacks read right",
                                          "import lacks CAS right"};
    constexpr const char *kBoundsText[] = {"write outside imported segment",
                                           "read outside imported segment",
                                           "CAS target invalid"};
    auto k = static_cast<size_t>(kind);
    if (!hasRights(seg.rights, vecOpRights(kind))) {
        return util::Status(util::ErrorCode::kAccessDenied, kRightText[k]);
    }
    if ((kind == VecOpKind::kCas && offset % 4 != 0) ||
        offset + bytes > seg.size) {
        return util::Status(util::ErrorCode::kOutOfBounds, kBoundsText[k]);
    }
    return {};
}

size_t
encodedVectorSize(const VectorReq &req)
{
    size_t bytes = kVectorHeaderBytes;
    for (const VectorSubOp &op : req.ops) {
        bytes += subOpWireBytes(op);
    }
    return bytes;
}

size_t
encodedVectorRespSize(const VectorReq &req)
{
    size_t bytes = kVectorHeaderBytes;
    for (const VectorSubOp &op : req.ops) {
        bytes += subOpRespBytes(op);
    }
    return bytes;
}

// ----------------------------------------------------------------------
// ValidationCache
// ----------------------------------------------------------------------

util::Result<SegmentDescriptor *>
ValidationCache::validate(SegmentId id, Generation generation,
                          uint64_t offset, uint64_t count, Rights needed)
{
    uint32_t key = validationKey(id, generation, needed);
    auto it = seen_.find(key);
    if (it != seen_.end()) {
        ++hits_;
    } else {
        ++misses_;
    }
    // The walk always runs for semantics (bounds, write-inhibit, and
    // revocation are per-sub-op concerns); the hit/miss split drives
    // the engine's validateCost accounting only.
    auto v = table_.validate(id, generation, offset, count, needed);
    if (it == seen_.end()) {
        seen_.emplace(key, v.ok() ? v.value() : nullptr);
    }
    return v;
}

size_t
distinctValidationKeys(const std::vector<VectorSubOp> &ops)
{
    // Tiny batches: a quadratic scan beats hashing and allocates nothing.
    size_t distinct = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
        uint32_t key = validationKey(ops[i]);
        bool seen = false;
        for (size_t j = 0; j < i && !seen; ++j) {
            seen = (validationKey(ops[j]) == key);
        }
        if (!seen) {
            ++distinct;
        }
    }
    return distinct;
}

// ----------------------------------------------------------------------
// BatchBuilder
// ----------------------------------------------------------------------

util::Status
BatchBuilder::add(const ImportedSegment &seg, VectorSubOp sub,
                  VectorLocalDeposit local)
{
    util::Status imported =
        checkImport(seg, sub.kind, sub.offset, subOpBytes(sub));
    if (!imported.ok()) {
        return imported;
    }
    if (sub.kind != VecOpKind::kWrite &&
        engine_.landingSpot(sub, local) == nullptr) {
        return util::Status(util::ErrorCode::kInvalidArgument,
                            "vector deposit location invalid");
    }
    if (batch_.ops.size() >= kMaxVectorOps) {
        return util::Status(util::ErrorCode::kResource, "vector batch full");
    }
    if (!batch_.ops.empty() && seg.node != batch_.target) {
        return util::Status(util::ErrorCode::kInvalidArgument,
                            "vector batch spans target nodes");
    }
    size_t reqBytes = subOpWireBytes(sub);
    if (wireBytes_ + reqBytes > kBlockDataMax) {
        return util::Status(util::ErrorCode::kResource,
                            "vector batch exceeds frame budget");
    }
    size_t respBytes = subOpRespBytes(sub);
    if (respBytes_ + respBytes > kBlockDataMax) {
        return util::Status(util::ErrorCode::kResource,
                            "vector response exceeds frame budget");
    }
    batch_.target = seg.node;
    wireBytes_ += reqBytes;
    respBytes_ += respBytes;
    batch_.ops.push_back(std::move(sub));
    batch_.local.push_back(local);
    return {};
}

util::Status
BatchBuilder::addWrite(Write op)
{
    return add(op.dst,
               VectorSubOp{VecOpKind::kWrite, op.dst.descriptor,
                           op.dst.generation, op.offset, op.notify,
                           std::move(op.data)},
               VectorLocalDeposit{});
}

util::Status
BatchBuilder::addRead(Read op)
{
    return add(op.src,
               VectorSubOp{VecOpKind::kRead, op.src.descriptor,
                           op.src.generation, op.srcOff, op.notify, {},
                           op.count},
               VectorLocalDeposit{op.dstSeg, op.dstOff, op.notify});
}

util::Status
BatchBuilder::addCas(Cas op)
{
    return add(op.dst,
               VectorSubOp{VecOpKind::kCas, op.dst.descriptor,
                           op.dst.generation, op.offset, false, {}, 0,
                           op.oldValue, op.newValue},
               VectorLocalDeposit{op.resultSeg, op.resultOff, false});
}

bool
BatchBuilder::wantsResponse() const
{
    return std::any_of(batch_.ops.begin(), batch_.ops.end(),
                       [](const VectorSubOp &op) {
                           return op.kind != VecOpKind::kWrite;
                       });
}

sim::Task<VectorOutcome>
BatchBuilder::issue(sim::Duration timeout)
{
    if (batch_.ops.empty()) {
        co_return VectorOutcome{util::Status(), {}};
    }
    VectorBatch batch = std::move(batch_);
    batch_ = VectorBatch{};
    wireBytes_ = respBytes_ = kVectorHeaderBytes;
    VectorOutcome out =
        co_await engine_.issueVector(std::move(batch), timeout);
    co_return out;
}

} // namespace remora::rmem
