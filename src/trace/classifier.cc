#include "trace/classifier.h"

#include <string>
#include <vector>

#include "dfs/nfs_proto.h"

namespace remora::trace {

namespace {

/** RPC communication identifier (xid), present on call and reply. */
constexpr uint64_t kXidBytes = 4;

/** Encoded bytes of @p v (semantic data carried inside a reply). */
template <class T>
uint64_t
wireBytes(const T &v)
{
    util::Encoder e;
    fields(e, v);
    return e.size();
}

/** Bytes of the call body for Args with empty variable-length fields. */
template <class Args>
uint64_t
callBytes()
{
    static const uint64_t bytes = dfs::encodeCall(Args{}).size();
    return bytes;
}

/** Bytes of a successful reply body with empty variable-length fields. */
template <class T>
uint64_t
replyBytes()
{
    static const uint64_t bytes =
        dfs::encodeReply(util::Result<T>(T{})).size();
    return bytes;
}

/** XDR carries variable-length bytes rounded up to whole words. */
uint64_t
xdrPadded(uint64_t len)
{
    return (len + 3) / 4 * 4;
}

} // namespace

Traffic
classifyOp(OpClass cls, const OpShape &shape)
{
    // Fixed parts are measured on the service's own encoders; only the
    // variable-length bytes (names, targets, payloads) are added here.
    static const uint64_t attr = wireBytes(dfs::FileAttr{});
    static const uint64_t stat = wireBytes(dfs::FsStat{});
    const uint64_t xids = 2 * kXidBytes;

    uint64_t req = 0;
    uint64_t resp = 0;
    uint64_t data = 0;

    switch (cls) {
      case OpClass::kGetAttr:
        req = callBytes<dfs::GetAttrArgs>();
        resp = replyBytes<dfs::FileAttr>();
        data = attr;
        break;
      case OpClass::kLookup:
        req = callBytes<dfs::LookupArgs>() + xdrPadded(shape.nameLen);
        resp = replyBytes<dfs::LookupReply>();
        data = shape.nameLen + attr;
        break;
      case OpClass::kRead:
        req = callBytes<dfs::ReadArgs>();
        resp = replyBytes<dfs::ReadReply>() + xdrPadded(shape.payloadBytes);
        data = shape.payloadBytes + attr;
        break;
      case OpClass::kNullPing:
        req = callBytes<dfs::NullArgs>();
        resp = replyBytes<dfs::NullReply>();
        data = 0;
        break;
      case OpClass::kReadLink:
        req = callBytes<dfs::ReadLinkArgs>();
        resp = replyBytes<std::string>() + xdrPadded(shape.targetLen);
        data = shape.targetLen;
        break;
      case OpClass::kReadDir: {
        req = callBytes<dfs::ReadDirArgs>();
        // Packed entries average 9 bytes + name per entry; marshaled
        // entries carry a fileid, a length word, and name padding.
        uint64_t perPacked = 9 + shape.nameLen;
        uint64_t entries =
            perPacked ? shape.payloadBytes / perPacked : 0;
        static const uint64_t perEntry = wireBytes(dfs::DirEntry{});
        resp = replyBytes<std::vector<dfs::DirEntry>>() +
               entries * (perEntry + xdrPadded(shape.nameLen));
        data = shape.payloadBytes;
        break;
      }
      case OpClass::kStatFs:
        req = callBytes<dfs::StatFsArgs>();
        resp = replyBytes<dfs::FsStat>();
        data = stat;
        break;
      case OpClass::kWrite:
        req = callBytes<dfs::WriteArgs>() + xdrPadded(shape.payloadBytes);
        resp = replyBytes<dfs::FileAttr>();
        data = shape.payloadBytes + attr;
        break;
      case OpClass::kOther:
        // Miscellaneous mutating ops (setattr, create, remove, ...):
        // handle + a small argument block in, attributes back.
        req = callBytes<dfs::GetAttrArgs>() + 32;
        resp = replyBytes<dfs::FileAttr>();
        data = attr + 16;
        break;
      case OpClass::kNumClasses:
        break;
    }

    uint64_t total = req + resp + xids;
    Traffic t;
    t.dataBytes = data;
    t.controlBytes = total > data ? total - data : 0;
    return t;
}

} // namespace remora::trace
