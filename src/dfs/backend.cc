#include "dfs/backend.h"

#include <algorithm>
#include <optional>
#include <span>

#include "util/panic.h"

namespace remora::dfs {

namespace {

/** Deadline for DX remote reads (silence means the server is gone). */
constexpr sim::Duration kDxReadTimeout = sim::msec(100);

/** Scratch deposit slots: big enough for a header + unaligned block. */
constexpr uint32_t kScratchSlotBytes = 20480;
constexpr uint32_t kScratchSlots = 4;

} // namespace

// ----------------------------------------------------------------------
// DxBackend
// ----------------------------------------------------------------------

DxBackend::DxBackend(rmem::RmemEngine &engine, mem::Process &clerkProcess,
                     const ServerAreaHandles &areas,
                     const CacheGeometry &geometry,
                     rpc::Hybrid1Client *fallback)
    : engine_(engine), process_(clerkProcess), areas_(areas), geo_(geometry)
{
    if (fallback != nullptr) {
        fallback_.emplace(*fallback);
    }
    uint32_t bytes = kScratchSlots * kScratchSlotBytes;
    scratchBase_ = process_.space().allocRegion(bytes);
    auto h = engine_.exportSegment(process_, scratchBase_, bytes,
                                   rmem::Rights::kRead,
                                   rmem::NotifyPolicy::kNever, "dx.scratch");
    if (!h.ok()) {
        REMORA_FATAL("dx backend: cannot export scratch: " +
                     h.status().toString());
    }
    scratchSeg_ = h.value().descriptor;
}

uint32_t
DxBackend::scratchSlot()
{
    return (scratchCursor_++ % kScratchSlots) * kScratchSlotBytes;
}

sim::Task<util::Result<std::vector<uint8_t>>>
DxBackend::fetch(rmem::ImportedSegment area, uint64_t areaOff,
                 uint32_t count)
{
    REMORA_ASSERT(count <= kScratchSlotBytes);
    uint32_t slot = scratchSlot();
    rmem::ReadOutcome out = co_await engine_.read(
        area, static_cast<uint32_t>(areaOff), scratchSeg_, slot, count,
        false, kDxReadTimeout);
    if (!out.status.ok()) {
        co_return out.status;
    }
    co_return std::move(out.data);
}

sim::Task<util::Status>
DxBackend::null()
{
    // Pure data transfer has no server ping: nothing to do.
    co_return util::Status();
}

template <typename T, typename Decode, typename Fallback>
sim::Task<util::Result<T>>
DxBackend::probe(rmem::ImportedSegment area, uint64_t areaOff,
                 uint32_t count, Decode decode, Fallback fallback,
                 const char *missText)
{
    auto bytes = co_await fetch(area, areaOff, count);
    if (bytes.ok()) {
        if (std::optional<T> hit = decode(bytes.value())) {
            co_return std::move(*hit);
        }
    } else if (bytes.status().code() == util::ErrorCode::kTimeout) {
        co_return bytes.status();
    }
    ++misses_;
    if (fallback_) {
        co_return co_await fallback(*fallback_);
    }
    co_return util::Status(util::ErrorCode::kNotFound, missText);
}

sim::Task<util::Result<FileAttr>>
DxBackend::getattr(FileHandle fh)
{
    uint32_t bucket = attrBucket(fh.key(), geo_.attrBuckets);
    return probe<FileAttr>(
        areas_.attr, static_cast<uint64_t>(bucket) * kAttrRecBytes,
        kAttrRecBytes,
        [key = fh.key()](const std::vector<uint8_t> &bytes)
            -> std::optional<FileAttr> {
            AttrRecord rec = AttrRecord::decode(bytes);
            if (rec.flag == kSlotValid && rec.fhKey == key) {
                return rec.attr;
            }
            return std::nullopt;
        },
        [fh](HyBackend &fb) { return fb.getattr(fh); },
        "attr not in server cache");
}

sim::Task<util::Result<LookupReply>>
DxBackend::lookup(FileHandle dir, std::string name)
{
    uint32_t bucket = nameBucket(dir.key(), name, geo_.nameBuckets);
    auto decode = [key = dir.key(), name](const std::vector<uint8_t> &bytes)
        -> std::optional<LookupReply> {
        NameLookupRecord rec = NameLookupRecord::decode(bytes);
        if (rec.flag == kSlotValid && rec.dirKey == key && rec.name == name) {
            return LookupReply{FileHandle::fromKey(rec.childKey),
                               rec.childAttr};
        }
        return std::nullopt;
    };
    return probe<LookupReply>(
        areas_.name, static_cast<uint64_t>(bucket) * kNameRecBytes,
        kNameRecBytes, std::move(decode),
        [dir, name = std::move(name)](HyBackend &fb) mutable {
            return fb.lookup(dir, std::move(name));
        },
        "name not in server cache");
}

sim::Task<util::Result<std::vector<uint8_t>>>
DxBackend::read(FileHandle fh, uint64_t offset, uint32_t count)
{
    // Plan the per-block fetches covering [offset, offset+count).
    struct BlockFetch
    {
        uint64_t blockNo;
        uint32_t blockOff;
        uint32_t chunk;
        uint64_t slotOff;
    };
    std::vector<BlockFetch> plan;
    for (uint64_t pos = offset, end = offset + count; pos < end;) {
        uint64_t blockNo = pos / kBlockBytes;
        uint32_t blockOff = static_cast<uint32_t>(pos % kBlockBytes);
        uint32_t chunk = static_cast<uint32_t>(
            std::min<uint64_t>(end - pos, kBlockBytes - blockOff));
        uint32_t slot = dataSlot(fh.key(), blockNo, geo_.dataSlots);
        plan.push_back(BlockFetch{
            blockNo, blockOff, chunk,
            static_cast<uint64_t>(slot) * kDataSlotBytes});
        pos += chunk;
    }

    std::vector<uint8_t> out;
    out.reserve(count);
    // Fetch in windows of up to kScratchSlots blocks: ONE vectored READ
    // per window (one trap, one round trip, one deposit interrupt)
    // where the scalar loop paid one of each per block. Each block's
    // header+payload lands in its own scratch slot.
    //
    // Under loss a big window is fragile — one dropped cell times out
    // the whole batch — so a timeout halves the window and retries the
    // same range rather than surfacing the error: smaller frames have
    // proportionally better odds of arriving intact. At window 1 a
    // bounded number of retries remains before the timeout propagates.
    size_t windowCap = kScratchSlots;
    int retriesAtMin = 0;
    constexpr int kMaxRetriesAtMin = 3;
    for (size_t base = 0; base < plan.size();) {
        size_t window = std::min<size_t>(windowCap, plan.size() - base);
        std::vector<rmem::BatchBuilder::Read> ops;
        ops.reserve(window);
        for (size_t i = 0; i < window; ++i) {
            const BlockFetch &b = plan[base + i];
            rmem::BatchBuilder::Read op;
            op.src = areas_.data;
            op.srcOff = static_cast<uint32_t>(b.slotOff);
            op.dstSeg = scratchSeg_;
            op.dstOff = static_cast<uint32_t>(i * kScratchSlotBytes);
            op.count = static_cast<uint16_t>(kDataHeaderBytes + b.blockOff +
                                             b.chunk);
            ops.push_back(std::move(op));
        }
        auto outcome =
            co_await engine_.readv(std::move(ops), kDxReadTimeout);
        if (!outcome.status.ok()) {
            bool retryable =
                outcome.status.code() == util::ErrorCode::kTimeout &&
                (windowCap > 1 || retriesAtMin < kMaxRetriesAtMin);
            if (retryable) {
                if (windowCap > 1) {
                    windowCap /= 2;
                } else {
                    ++retriesAtMin;
                }
                ++windowShrinks_;
                continue; // retry the same range with a smaller window
            }
            co_return outcome.status;
        }
        REMORA_ASSERT(outcome.results.size() == window);
        for (size_t i = 0; i < window; ++i) {
            const BlockFetch &b = plan[base + i];
            const rmem::VectorSubResult &res = outcome.results[i];
            if (res.status != util::ErrorCode::kOk) {
                co_return util::Status(res.status,
                                       "block fetch rejected at server");
            }
            DataSlotHeader hdr = DataSlotHeader::decode(res.data);
            if (hdr.flag != kSlotValid || hdr.fhKey != fh.key() ||
                hdr.blockNo != b.blockNo) {
                ++misses_;
                if (fallback_) {
                    // One call for the whole read, which ends the loop.
                    // NOLINTNEXTLINE(remora-scalar-op-loop)
                    co_return co_await fallback_->read(fh, offset, count);
                }
                co_return util::Status(util::ErrorCode::kNotFound,
                                       "block not in server cache");
            }
            if (b.blockOff >= hdr.validBytes) {
                co_return out; // past end of file
            }
            uint32_t take = std::min(b.chunk, hdr.validBytes - b.blockOff);
            auto data = std::span<const uint8_t>(res.data)
                            .subspan(kDataHeaderBytes + b.blockOff, take);
            out.insert(out.end(), data.begin(), data.end());
            if (take < b.chunk) {
                co_return out; // short block: end of file
            }
        }
        base += window;
    }
    co_return out;
}

sim::Task<util::Status>
DxBackend::write(FileHandle fh, uint64_t offset, std::vector<uint8_t> data)
{
    // Plan every block's sub-ops up front, then ship them as vectored
    // WRITE batches: one trap and one frame cover many blocks where the
    // scalar loop paid per block. Sub-op order inside a batch is
    // preserved by the serving CPU's FIFO, so the data-first / tag-last
    // discipline holds exactly as it did for sequential scalar writes —
    // a concurrent reader never sees a valid tag over missing bytes.
    struct BlockPut
    {
        uint64_t blockNo;
        uint32_t blockOff;
        uint32_t chunk;
        uint64_t slotOff;
        uint64_t pos;
        uint32_t validBytes;
    };
    std::vector<BlockPut> puts;
    for (uint64_t pos = 0; pos < data.size();) {
        uint64_t abs = offset + pos;
        uint64_t blockNo = abs / kBlockBytes;
        uint32_t blockOff = static_cast<uint32_t>(abs % kBlockBytes);
        uint32_t chunk = static_cast<uint32_t>(std::min<uint64_t>(
            data.size() - pos, kBlockBytes - blockOff));
        uint32_t slot = dataSlot(fh.key(), blockNo, geo_.dataSlots);
        puts.push_back(BlockPut{blockNo, blockOff, chunk,
                                static_cast<uint64_t>(slot) * kDataSlotBytes,
                                pos, blockOff + chunk});
        pos += chunk;
    }

    // A write covering only part of its block must not shrink the
    // block's valid range: stamping validBytes = blockOff + chunk over
    // a fully-valid cached block would truncate it, and the next read
    // would mistake the cut for end-of-file. Fetch those blocks'
    // current headers first and keep the larger extent. Full-block
    // writes define the whole range themselves and skip the round
    // trip, so the streaming path pays nothing.
    std::vector<size_t> partials;
    for (size_t i = 0; i < puts.size(); ++i) {
        if (puts[i].blockOff > 0 || puts[i].chunk < kBlockBytes) {
            partials.push_back(i);
        }
    }
    if (!partials.empty()) {
        rmem::VectorOutcome hdrs;
        for (int attempt = 0;; ++attempt) {
            std::vector<rmem::BatchBuilder::Read> ops;
            ops.reserve(partials.size());
            for (size_t k = 0; k < partials.size(); ++k) {
                rmem::BatchBuilder::Read op;
                op.src = areas_.data;
                op.srcOff = static_cast<uint32_t>(puts[partials[k]].slotOff);
                op.dstSeg = scratchSeg_;
                op.dstOff = static_cast<uint32_t>(k * kScratchSlotBytes);
                op.count = kDataHeaderBytes;
                ops.push_back(std::move(op));
            }
            hdrs = co_await engine_.readv(std::move(ops), kDxReadTimeout);
            if (hdrs.status.ok()) {
                break;
            }
            if (hdrs.status.code() != util::ErrorCode::kTimeout ||
                attempt >= 2) {
                co_return hdrs.status;
            }
        }
        REMORA_ASSERT(hdrs.results.size() == partials.size());
        for (size_t k = 0; k < partials.size(); ++k) {
            BlockPut &p = puts[partials[k]];
            const rmem::VectorSubResult &res = hdrs.results[k];
            if (res.status != util::ErrorCode::kOk) {
                co_return util::Status(res.status,
                                       "header fetch rejected at server");
            }
            DataSlotHeader old = DataSlotHeader::decode(res.data);
            if (old.flag == kSlotValid && old.fhKey == fh.key() &&
                old.blockNo == p.blockNo) {
                p.validBytes = std::max(p.validBytes, old.validBytes);
            } else if (p.blockOff > 0) {
                // The slot holds some other block, so the bytes below
                // blockOff aren't ours to vouch for; depositing anyway
                // would mark a foreign prefix valid under our key. Let
                // the server do the read-modify-write instead.
                ++misses_;
                if (fallback_) {
                    // One call for the whole write, which ends the loop.
                    // NOLINTNEXTLINE(remora-scalar-op-loop)
                    co_return co_await fallback_->write(fh, offset,
                                                        std::move(data));
                }
                co_return util::Status(
                    util::ErrorCode::kNotFound,
                    "partial write to block not in server cache");
            }
        }
    }

    std::vector<rmem::BatchBuilder::Write> subs;
    for (const BlockPut &p : puts) {
        uint64_t blockNo = p.blockNo;
        uint32_t blockOff = p.blockOff;
        uint32_t chunk = p.chunk;
        uint64_t slotOff = p.slotOff;

        DataSlotHeader hdr;
        hdr.flag = kSlotValid;
        hdr.dirty = 1;
        hdr.fhKey = fh.key();
        hdr.blockNo = blockNo;
        hdr.validBytes = p.validBytes;
        std::vector<uint8_t> hdrBuf(kDataHeaderBytes);
        hdr.encode(hdrBuf);

        auto chunkSpan =
            std::span<const uint8_t>(data).subspan(p.pos, chunk);
        if (blockOff == 0) {
            // Header and data are contiguous: one sub-op.
            std::vector<uint8_t> buf;
            buf.reserve(kDataHeaderBytes + chunk);
            buf.insert(buf.end(), hdrBuf.begin(), hdrBuf.end());
            buf.insert(buf.end(), chunkSpan.begin(), chunkSpan.end());
            subs.push_back(rmem::BatchBuilder::Write{
                areas_.data, static_cast<uint32_t>(slotOff),
                std::move(buf), false});
        } else {
            // Data first, tag last.
            subs.push_back(rmem::BatchBuilder::Write{
                areas_.data,
                static_cast<uint32_t>(slotOff + kDataHeaderBytes +
                                      blockOff),
                std::vector<uint8_t>(chunkSpan.begin(), chunkSpan.end()),
                false});
            subs.push_back(rmem::BatchBuilder::Write{
                areas_.data, static_cast<uint32_t>(slotOff),
                std::move(hdrBuf), false});
        }
    }

    rmem::BatchBuilder batch(engine_);
    for (rmem::BatchBuilder::Write &sub : subs) {
        rmem::BatchBuilder::Write retry = sub; // kept for flush-and-retry
        util::Status s = batch.addWrite(std::move(sub));
        if (s.code() == util::ErrorCode::kResource && !batch.empty()) {
            // Frame budget reached: flush what we have and retry.
            auto outcome = co_await batch.issue();
            if (!outcome.status.ok()) {
                co_return outcome.status;
            }
            s = batch.addWrite(std::move(retry));
        }
        if (!s.ok()) {
            co_return s;
        }
    }
    if (!batch.empty()) {
        auto outcome = co_await batch.issue();
        if (!outcome.status.ok()) {
            co_return outcome.status;
        }
    }
    co_return util::Status();
}

sim::Task<util::Result<std::string>>
DxBackend::readlink(FileHandle fh)
{
    uint32_t slot = linkSlot(fh.key(), geo_.linkSlots);
    return probe<std::string>(
        areas_.link, static_cast<uint64_t>(slot) * kLinkRecBytes,
        kLinkRecBytes,
        [key = fh.key()](const std::vector<uint8_t> &bytes)
            -> std::optional<std::string> {
            LinkRecord rec = LinkRecord::decode(bytes);
            if (rec.flag == kSlotValid && rec.fhKey == key) {
                return std::move(rec.target);
            }
            return std::nullopt;
        },
        [fh](HyBackend &fb) { return fb.readlink(fh); },
        "symlink not in server cache");
}

sim::Task<util::Result<std::vector<DirEntry>>>
DxBackend::readdir(FileHandle fh, uint32_t maxBytes)
{
    uint32_t slot = dirSlot(fh.key(), geo_.dirSlots);
    uint32_t want = std::min(maxBytes, kDirSlotBytes - kDirHeaderBytes);
    return probe<std::vector<DirEntry>>(
        areas_.dir, static_cast<uint64_t>(slot) * kDirSlotBytes,
        kDirHeaderBytes + want,
        [key = fh.key(), want](const std::vector<uint8_t> &bytes)
            -> std::optional<std::vector<DirEntry>> {
            DirSlotHeader hdr = DirSlotHeader::decode(bytes);
            if (hdr.flag == kSlotValid && hdr.dirKey == key) {
                return unpackDirEntries(std::span<const uint8_t>(bytes)
                                            .subspan(kDirHeaderBytes),
                                        std::min(hdr.bytes, want));
            }
            return std::nullopt;
        },
        [fh, maxBytes](HyBackend &fb) { return fb.readdir(fh, maxBytes); },
        "directory not in server cache");
}

sim::Task<util::Result<FsStat>>
DxBackend::statfs()
{
    return probe<FsStat>(
        areas_.stat, 0, kStatRecBytes,
        [](const std::vector<uint8_t> &bytes) -> std::optional<FsStat> {
            StatRecord rec = StatRecord::decode(bytes);
            if (rec.flag == kSlotValid) {
                return rec.stat;
            }
            return std::nullopt;
        },
        [](HyBackend &fb) { return fb.statfs(); },
        "statistics not in server cache");
}

// ----------------------------------------------------------------------
// MarshaledBackend
// ----------------------------------------------------------------------

template <typename Reply, typename Args>
sim::Task<util::Result<Reply>>
MarshaledBackend::invoke(Args args)
{
    auto reply = co_await call(encodeCall(args));
    if (!reply.ok()) {
        co_return reply.status();
    }
    co_return decodeReply<Reply>(reply.value());
}

sim::Task<util::Status>
MarshaledBackend::null()
{
    auto reply = co_await invoke<NullReply>(NullArgs{});
    co_return reply.status();
}

sim::Task<util::Result<FileAttr>>
MarshaledBackend::getattr(FileHandle fh)
{
    return invoke<FileAttr>(GetAttrArgs{fh});
}

sim::Task<util::Result<LookupReply>>
MarshaledBackend::lookup(FileHandle dir, std::string name)
{
    return invoke<LookupReply>(LookupArgs{dir, std::move(name)});
}

sim::Task<util::Result<std::vector<uint8_t>>>
MarshaledBackend::read(FileHandle fh, uint64_t offset, uint32_t count)
{
    auto reply = co_await invoke<ReadReply>(ReadArgs{fh, offset, count});
    if (!reply.ok()) {
        co_return reply.status();
    }
    co_return std::move(reply.value().data);
}

sim::Task<util::Status>
MarshaledBackend::write(FileHandle fh, uint64_t offset,
                        std::vector<uint8_t> data)
{
    // A named argument: GCC destroys temporaries in a co_await operand
    // twice.
    WriteArgs args{fh, offset, std::move(data)};
    auto reply = co_await invoke<FileAttr>(std::move(args));
    co_return reply.status();
}

sim::Task<util::Result<std::string>>
MarshaledBackend::readlink(FileHandle fh)
{
    return invoke<std::string>(ReadLinkArgs{fh});
}

sim::Task<util::Result<std::vector<DirEntry>>>
MarshaledBackend::readdir(FileHandle fh, uint32_t maxBytes)
{
    return invoke<std::vector<DirEntry>>(ReadDirArgs{fh, maxBytes});
}

sim::Task<util::Result<FsStat>>
MarshaledBackend::statfs()
{
    return invoke<FsStat>(StatFsArgs{});
}

} // namespace remora::dfs
