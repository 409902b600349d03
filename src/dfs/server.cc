#include "dfs/server.h"

#include <algorithm>

#include "obs/trace.h"
#include "sim/logger.h"
#include "util/panic.h"

namespace remora::dfs {

namespace {

/** Export one cache area and return its handle. */
rmem::ImportedSegment
exportArea(rmem::RmemEngine &engine, mem::Process &proc, mem::Vaddr base,
           uint32_t bytes, const char *name)
{
    auto h = engine.exportSegment(
        proc, base, bytes,
        rmem::Rights::kRead | rmem::Rights::kWrite | rmem::Rights::kCas,
        rmem::NotifyPolicy::kConditional, name);
    if (!h.ok()) {
        REMORA_FATAL(std::string("file server: cannot export area ") + name +
                     ": " + h.status().toString());
    }
    return h.value();
}

} // namespace

FileServer::FileServer(rmem::RmemEngine &engine, FileStore &store,
                       const CacheGeometry &geometry,
                       const ServiceTimes &times,
                       const rpc::Hybrid1Params &hybridParams)
    : engine_(engine), store_(store), geo_(geometry), times_(times),
      process_(engine.node().spawnProcess("file-server")),
      hybrid_(engine, process_, hybridParams)
{
    auto allocArea = [&](CacheArea area, uint32_t bytes, const char *name,
                         rmem::ImportedSegment *handle) {
        size_t i = static_cast<size_t>(area);
        areaBase_[i] = process_.space().allocRegion(bytes);
        areaBytes_[i] = bytes;
        *handle = exportArea(engine_, process_, areaBase_[i], bytes, name);
    };
    allocArea(CacheArea::kData, geo_.dataSlots * kDataSlotBytes, "dfs.data",
              &handles_.data);
    allocArea(CacheArea::kName, geo_.nameBuckets * kNameRecBytes, "dfs.name",
              &handles_.name);
    allocArea(CacheArea::kAttr, geo_.attrBuckets * kAttrRecBytes, "dfs.attr",
              &handles_.attr);
    allocArea(CacheArea::kDir, geo_.dirSlots * kDirSlotBytes, "dfs.dir",
              &handles_.dir);
    allocArea(CacheArea::kLink, geo_.linkSlots * kLinkRecBytes, "dfs.link",
              &handles_.link);
    allocArea(CacheArea::kStat, kStatRecBytes, "dfs.stat", &handles_.stat);

    hybrid_.setHandler([this](net::NodeId src, std::vector<uint8_t> body) {
        return handleBody(src, std::move(body));
    });
}

void
FileServer::start()
{
    hybrid_.start();
}

void
FileServer::registerStats(obs::MetricRegistry &reg,
                          const std::string &prefix) const
{
    reg.add(prefix + ".calls_served", stats_.callsServed);
    reg.add(prefix + ".cache_inserts", stats_.cacheInserts);
    reg.add(prefix + ".cache_evictions", stats_.cacheEvictions);
    reg.add(prefix + ".dirty_blocks_applied", stats_.dirtyBlocksApplied);
    reg.addGauge(prefix + ".pushes_issued",
                 [this] { return static_cast<double>(pushes_); });
}

void
FileServer::attachRpcTransport(rpc::RpcTransport &transport)
{
    // One umbrella procedure; the body's own proc word dispatches.
    transport.registerProc(
        1, [this](net::NodeId src, std::vector<uint8_t> body) {
            return handleBody(src, std::move(body));
        });
}

// ----------------------------------------------------------------------
// Dispatch
// ----------------------------------------------------------------------

sim::Task<std::vector<uint8_t>>
FileServer::handleBody(net::NodeId src, std::vector<uint8_t> body)
{
    (void)src;
    stats_.callsServed.inc();
    util::Decoder args(body);
    NfsProc proc = NfsProc::kNull;
    args.u32(proc);
    engine_.node().simulator().noteDigest(
        "dfs.serve",
        static_cast<uint64_t>(src) << 32 | static_cast<uint32_t>(proc));
    // Explicit span: the procedure body suspends on the CPU resource.
    obs::SpanId span = obs::kNoSpan;
    if (obs::TraceRecorder::on()) {
        span = obs::TraceRecorder::instance().beginSpan(
            engine_.node().name(), "dfs", nfsProcName(proc),
            "from=" + std::to_string(src));
    }
    auto &cpu = engine_.node().cpu();
    auto attrsOf = [this](FileHandle fh) {
        auto attr = store_.getattr(fh);
        return attr.ok() ? attr.value() : FileAttr{};
    };
    // A procedure runs only on arguments that decode in full; a body
    // that does not leaves the reply empty.
    auto parse = [&args](auto &a) {
        fields(args, a);
        return args.ok();
    };

    std::vector<uint8_t> reply;
    switch (proc) {
      case NfsProc::kNull:
        if (NullArgs a; parse(a)) {
            co_await cpu.use(times_.timeFor(proc, 0),
                             sim::CpuCategory::kProcExec);
            reply = encodeReply<NullReply>(NullReply{});
        }
        break;
      case NfsProc::kGetAttr:
        if (GetAttrArgs a; parse(a)) {
            co_await cpu.use(times_.timeFor(proc, 0),
                             sim::CpuCategory::kProcExec);
            reply = encodeReply(store_.getattr(a.fh));
        }
        break;
      case NfsProc::kLookup:
        if (LookupArgs a; parse(a)) {
            co_await cpu.use(times_.timeFor(proc, 0),
                             sim::CpuCategory::kProcExec);
            auto child = store_.lookup(a.dir, a.name);
            reply = child.ok() ? encodeReply<LookupReply>(LookupReply{
                                     child.value(), attrsOf(child.value())})
                               : encodeReply<LookupReply>(child.status());
        }
        break;
      case NfsProc::kReadLink:
        if (ReadLinkArgs a; parse(a)) {
            co_await cpu.use(times_.timeFor(proc, 0),
                             sim::CpuCategory::kProcExec);
            reply = encodeReply(store_.readlink(a.fh));
        }
        break;
      case NfsProc::kRead:
        if (ReadArgs a; parse(a)) {
            co_await cpu.use(times_.timeFor(proc, a.count),
                             sim::CpuCategory::kProcExec);
            auto data = store_.read(a.fh, a.offset, a.count);
            reply = data.ok() ? encodeReply<ReadReply>(
                                    ReadReply{attrsOf(a.fh), data.take()})
                              : encodeReply<ReadReply>(data.status());
        }
        break;
      case NfsProc::kWrite:
        if (WriteArgs a; parse(a)) {
            co_await cpu.use(times_.timeFor(proc, a.data.size()),
                             sim::CpuCategory::kProcExec);
            util::Status ws = store_.write(a.fh, a.offset, a.data);
            if (!ws.ok()) {
                reply = encodeReply<FileAttr>(ws);
                break;
            }
            // Keep the exported caches coherent with the new contents.
            cacheAttr(a.fh);
            for (uint64_t b = a.offset / kBlockBytes;
                 b <= (a.offset + std::max<size_t>(a.data.size(), 1) - 1) /
                          kBlockBytes;
                 ++b) {
                cacheBlock(a.fh, b);
            }
            reply = encodeReply<FileAttr>(attrsOf(a.fh));
        }
        break;
      case NfsProc::kReadDir:
        if (ReadDirArgs a; parse(a)) {
            auto entries = store_.readdir(a.fh);
            if (!entries.ok()) {
                co_await cpu.use(times_.timeFor(proc, 0),
                                 sim::CpuCategory::kProcExec);
                reply = encodeReply(entries);
                break;
            }
            // Trim to the requested byte budget, whole entries only.
            std::vector<uint8_t> packed = packDirEntries(entries.value());
            co_await cpu.use(
                times_.timeFor(proc, std::min<uint64_t>(packed.size(),
                                                        a.maxBytes)),
                sim::CpuCategory::kProcExec);
            reply = encodeReply<std::vector<DirEntry>>(
                unpackDirEntries(packed, a.maxBytes));
        }
        break;
      case NfsProc::kStatFs:
        if (StatFsArgs a; parse(a)) {
            co_await cpu.use(times_.timeFor(proc, 0),
                             sim::CpuCategory::kProcExec);
            reply = encodeReply<FsStat>(store_.statfs());
        }
        break;
      default:
        reply = encodeReply<NullReply>(
            util::Status(util::ErrorCode::kInvalidArgument));
        break;
    }
    if (reply.empty()) {
        reply = encodeReply<NullReply>(
            util::Status(util::ErrorCode::kMalformed));
    }
    obs::TraceRecorder::instance().endSpan(span);
    co_return reply;
}

// ----------------------------------------------------------------------
// Cache-area maintenance
// ----------------------------------------------------------------------

void
FileServer::storeBytes(CacheArea area, uint64_t offset,
                       std::span<const uint8_t> bytes)
{
    size_t i = static_cast<size_t>(area);
    REMORA_ASSERT(offset + bytes.size() <= areaBytes_[i]);
    util::Status s = process_.space().write(areaBase_[i] + offset, bytes);
    REMORA_ASSERT(s.ok());
}

void
FileServer::loadBytes(CacheArea area, uint64_t offset,
                      std::span<uint8_t> out) const
{
    size_t i = static_cast<size_t>(area);
    REMORA_ASSERT(offset + out.size() <= areaBytes_[i]);
    util::Status s = process_.space().read(areaBase_[i] + offset, out);
    REMORA_ASSERT(s.ok());
}

template <typename Rec, typename Tag>
std::vector<uint8_t>
FileServer::insertRecord(CacheArea area, uint64_t offset, const Rec &rec,
                         Tag tag)
{
    std::vector<uint8_t> buf(Rec::kBytes);
    loadBytes(area, offset, buf);
    Rec prev = Rec::decode(buf);
    stats_.cacheInserts.inc();
    if (prev.flag == kSlotValid && tag(prev) != tag(rec)) {
        stats_.cacheEvictions.inc();
    }
    rec.encode(buf);
    storeBytes(area, offset, buf);
    return buf;
}

void
FileServer::cacheAttr(FileHandle fh)
{
    auto attr = store_.getattr(fh);
    if (!attr.ok()) {
        return;
    }
    uint32_t bucket = attrBucket(fh.key(), geo_.attrBuckets);
    AttrRecord rec;
    rec.flag = kSlotValid;
    rec.fhKey = fh.key();
    rec.attr = attr.value();
    std::vector<uint8_t> buf =
        insertRecord(CacheArea::kAttr,
                     static_cast<uint64_t>(bucket) * kAttrRecBytes, rec,
                     [](const AttrRecord &r) { return r.fhKey; });
    pushAttrToSubscribers(fh, buf);
}

void
FileServer::cacheName(FileHandle dir, const std::string &name)
{
    auto child = store_.lookup(dir, name);
    if (!child.ok() || name.size() > 79) {
        return;
    }
    auto attr = store_.getattr(child.value());
    uint32_t bucket = nameBucket(dir.key(), name, geo_.nameBuckets);
    NameLookupRecord rec;
    rec.flag = kSlotValid;
    rec.dirKey = dir.key();
    rec.childKey = child.value().key();
    rec.childAttr = attr.ok() ? attr.value() : FileAttr{};
    rec.name = name;
    insertRecord(CacheArea::kName,
                 static_cast<uint64_t>(bucket) * kNameRecBytes, rec,
                 [](const NameLookupRecord &r) {
                     return r.dirKey ^ util::fnv1a(r.name);
                 });
}

void
FileServer::cacheBlock(FileHandle fh, uint64_t blockNo)
{
    auto data = store_.read(fh, blockNo * kBlockBytes, kBlockBytes);
    if (!data.ok()) {
        return;
    }
    uint32_t slot = dataSlot(fh.key(), blockNo, geo_.dataSlots);
    uint64_t off = static_cast<uint64_t>(slot) * kDataSlotBytes;
    DataSlotHeader hdr;
    hdr.flag = kSlotValid;
    hdr.dirty = 0;
    hdr.fhKey = fh.key();
    hdr.blockNo = blockNo;
    hdr.validBytes = static_cast<uint32_t>(data.value().size());
    std::vector<uint8_t> buf =
        insertRecord(CacheArea::kData, off, hdr, [](const DataSlotHeader &h) {
            return h.fhKey ^ h.blockNo;
        });
    if (!data.value().empty()) {
        storeBytes(CacheArea::kData, off + kDataHeaderBytes, data.value());
    }
    if (!subscribers_.empty()) {
        std::vector<uint8_t> slotBytes;
        slotBytes.reserve(kDataHeaderBytes + data.value().size());
        slotBytes.insert(slotBytes.end(), buf.begin(), buf.end());
        slotBytes.insert(slotBytes.end(), data.value().begin(),
                         data.value().end());
        pushBlockToSubscribers(fh, blockNo, slotBytes);
    }
}

void
FileServer::cacheDir(FileHandle dir)
{
    auto entries = store_.readdir(dir);
    if (!entries.ok()) {
        return;
    }
    std::vector<uint8_t> packed = packDirEntries(entries.value());
    if (packed.size() > kDirSlotBytes - kDirHeaderBytes) {
        packed.resize(kDirSlotBytes - kDirHeaderBytes);
    }
    uint32_t slot = dirSlot(dir.key(), geo_.dirSlots);
    uint64_t off = static_cast<uint64_t>(slot) * kDirSlotBytes;
    DirSlotHeader hdr;
    hdr.flag = kSlotValid;
    hdr.dirKey = dir.key();
    hdr.bytes = static_cast<uint32_t>(packed.size());
    hdr.entryCount = static_cast<uint32_t>(entries.value().size());
    insertRecord(CacheArea::kDir, off, hdr,
                 [](const DirSlotHeader &h) { return h.dirKey; });
    if (!packed.empty()) {
        storeBytes(CacheArea::kDir, off + kDirHeaderBytes, packed);
    }
}

void
FileServer::cacheLink(FileHandle fh)
{
    auto target = store_.readlink(fh);
    if (!target.ok() || target.value().size() > 107) {
        return;
    }
    uint32_t slot = linkSlot(fh.key(), geo_.linkSlots);
    LinkRecord rec;
    rec.flag = kSlotValid;
    rec.fhKey = fh.key();
    rec.target = target.value();
    insertRecord(CacheArea::kLink,
                 static_cast<uint64_t>(slot) * kLinkRecBytes, rec,
                 [](const LinkRecord &r) { return r.fhKey; });
}

void
FileServer::cacheStat()
{
    StatRecord rec;
    rec.flag = kSlotValid;
    rec.stat = store_.statfs();
    std::vector<uint8_t> buf(kStatRecBytes);
    rec.encode(buf);
    storeBytes(CacheArea::kStat, 0, buf);
}

uint32_t
FileServer::warmCaches()
{
    uint64_t before = stats_.cacheEvictions.value();
    for (FileHandle fh : store_.allHandles()) {
        auto attr = store_.getattr(fh);
        if (!attr.ok()) {
            continue;
        }
        cacheAttr(fh);
        switch (attr.value().type) {
          case FileType::kRegular: {
            uint64_t blocks =
                (attr.value().size + kBlockBytes - 1) / kBlockBytes;
            for (uint64_t b = 0; b < std::max<uint64_t>(blocks, 1); ++b) {
                cacheBlock(fh, b);
            }
            break;
          }
          case FileType::kDirectory: {
            cacheDir(fh);
            auto entries = store_.readdir(fh);
            if (entries.ok()) {
                for (const DirEntry &e : entries.value()) {
                    cacheName(fh, e.name);
                }
            }
            break;
          }
          case FileType::kSymlink: {
            cacheLink(fh);
            break;
          }
        }
    }
    cacheStat();
    return static_cast<uint32_t>(stats_.cacheEvictions.value() - before);
}

uint64_t
FileServer::scavengeDirtyBlocks()
{
    uint64_t applied = 0;
    for (uint32_t slot = 0; slot < geo_.dataSlots; ++slot) {
        uint64_t off = static_cast<uint64_t>(slot) * kDataSlotBytes;
        std::vector<uint8_t> hdrBuf(kDataHeaderBytes);
        loadBytes(CacheArea::kData, off, hdrBuf);
        DataSlotHeader hdr = DataSlotHeader::decode(hdrBuf);
        if (hdr.flag != kSlotValid || hdr.dirty == 0) {
            continue;
        }
        std::vector<uint8_t> data(hdr.validBytes);
        loadBytes(CacheArea::kData, off + kDataHeaderBytes, data);
        FileHandle fh = FileHandle::fromKey(hdr.fhKey);
        util::Status ws =
            store_.write(fh, hdr.blockNo * kBlockBytes, data);
        if (ws.ok()) {
            ++applied;
            stats_.dirtyBlocksApplied.inc();
        }
        hdr.dirty = 0;
        hdr.encode(hdrBuf);
        storeBytes(CacheArea::kData, off, hdrBuf);
        // Batched, amortized CPU cost; no per-operation control transfer.
        engine_.node().cpu().post(
            engine_.costs().copyCost(hdr.validBytes),
            sim::CpuCategory::kOther);
    }
    return applied;
}

void
FileServer::subscribe(const rmem::ImportedSegment &clerkCache,
                      const PushCacheGeometry &geometry)
{
    REMORA_ASSERT(clerkCache.size >=
                  ClerkPushCache::segmentBytes(geometry));
    subscribers_.push_back(Subscriber{clerkCache, geometry});
}

void
FileServer::pushAttrToSubscribers(FileHandle fh,
                                  std::span<const uint8_t> record)
{
    for (const Subscriber &sub : subscribers_) {
        uint32_t bucket = attrBucket(fh.key(), sub.geo.attrBuckets);
        uint64_t off = static_cast<uint64_t>(bucket) * kAttrRecBytes;
        ++pushes_;
        // Fire-and-forget remote write: no notification, no reply.
        engine_
            .write(sub.seg, static_cast<uint32_t>(off),
                   std::vector<uint8_t>(record.begin(), record.end()))
            .detach();
    }
}

void
FileServer::pushBlockToSubscribers(FileHandle fh, uint64_t blockNo,
                                   std::span<const uint8_t> slotBytes)
{
    for (const Subscriber &sub : subscribers_) {
        uint32_t slot = dataSlot(fh.key(), blockNo, sub.geo.dataSlots);
        uint64_t off =
            static_cast<uint64_t>(sub.geo.attrBuckets) * kAttrRecBytes +
            static_cast<uint64_t>(slot) * kDataSlotBytes;
        ++pushes_;
        engine_
            .write(sub.seg, static_cast<uint32_t>(off),
                   std::vector<uint8_t>(slotBytes.begin(), slotBytes.end()))
            .detach();
    }
}

void
FileServer::startScavenger(sim::Duration interval)
{
    engine_.node().simulator().schedule(interval, [this, interval] {
        scavengeDirtyBlocks();
        startScavenger(interval);
    });
}

} // namespace remora::dfs
