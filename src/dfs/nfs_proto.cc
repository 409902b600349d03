#include "dfs/nfs_proto.h"

#include <algorithm>

namespace remora::dfs {

namespace {

/** A directory-cache entry: fileid, then the name after a u8 count. */
template <class IO, util::FieldsOf<DirEntry> R>
void
packedFields(IO &io, R &e)
{
    io.u64(e.fileid);
    io.bytes8(e.name);
}

} // namespace

const char *
nfsProcName(NfsProc proc)
{
    switch (proc) {
      case NfsProc::kNull: return "null";
      case NfsProc::kGetAttr: return "getattr";
      case NfsProc::kLookup: return "lookup";
      case NfsProc::kReadLink: return "readlink";
      case NfsProc::kRead: return "read";
      case NfsProc::kWrite: return "write";
      case NfsProc::kReadDir: return "readdir";
      case NfsProc::kStatFs: return "statfs";
    }
    return "unknown";
}

std::vector<uint8_t>
packDirEntries(const std::vector<DirEntry> &entries)
{
    util::Encoder e;
    for (const DirEntry &entry : entries) {
        packedFields(e, entry);
    }
    return e.take();
}

std::vector<DirEntry>
unpackDirEntries(std::span<const uint8_t> bytes, size_t maxBytes)
{
    util::Decoder d(bytes.first(std::min(bytes.size(), maxBytes)));
    std::vector<DirEntry> out;
    while (d.remaining() >= 9) {
        DirEntry e;
        packedFields(d, e);
        if (!d.ok()) {
            break; // a name cut off by the byte budget
        }
        out.push_back(std::move(e));
    }
    return out;
}

} // namespace remora::dfs
