/**
 * @file
 * The NFS-shaped operation vocabulary and its XDR marshaling.
 *
 * The file service "presents an interface similar to NFS, i.e., it
 * implements operations like those shown earlier in Table 1a" (§5.2).
 * Each procedure's arguments and results are one struct with one field
 * list, run by the client to encode a call and by the server to decode
 * it (and the other way round for replies). Every access path (Hybrid-1
 * backend, conventional-RPC backend, server dispatch) and the traffic
 * classifier use these encoders, so the classifier measures the exact
 * bytes the service sends.
 *
 * Wire fidelity note: a file handle is marshaled as 32 opaque bytes,
 * matching NFS v2, even though only 8 are meaningful here — Table 1b's
 * control-byte accounting depends on the real handle size.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dfs/file_store.h"
#include "util/bytes.h"
#include "util/status.h"

namespace remora::dfs {

/** Procedure numbers of the file service. */
enum class NfsProc : uint32_t
{
    kNull = 0,
    kGetAttr = 1,
    kLookup = 4,
    kReadLink = 5,
    kRead = 6,
    kWrite = 8,
    kReadDir = 16,
    kStatFs = 17,
};

/** Human-readable name of a procedure. */
const char *nfsProcName(NfsProc proc);

/** Marshaled size of a file handle on the wire (NFS v2: 32 bytes). */
inline constexpr size_t kWireFileHandleBytes = 32;

/** A file handle: inode, generation, zeros to 32 opaque bytes. */
template <class IO, util::FieldsOf<FileHandle> R>
void
fields(IO &io, R &fh)
{
    io.u32(fh.inode);
    io.u32(fh.generation);
    io.pad(kWireFileHandleBytes - 8);
}

/** A marshaled directory entry: fileid, then the name as XDR string. */
template <class IO, util::FieldsOf<DirEntry> R>
void
fields(IO &io, R &e)
{
    io.u64(e.fileid);
    io.opaque(e.name);
}

/** READDIR results: an entry count, then the entries. */
template <class IO, util::FieldsOf<std::vector<DirEntry>> R>
void
fields(IO &io, R &entries)
{
    io.count32(entries);
    for (auto &e : entries) {
        fields(io, e);
    }
}

/** READLINK results: the target as an XDR string. */
template <class IO, util::FieldsOf<std::string> R>
void
fields(IO &io, R &s)
{
    io.opaque(s);
}

/**
 * Flatten directory entries into the compact layout stored in the
 * server's directory cache area: [fileid u64][len u8][name bytes]...
 */
std::vector<uint8_t> packDirEntries(const std::vector<DirEntry> &entries);

/**
 * Parse the compact directory layout (inverse of packDirEntries),
 * whole entries within the first @p maxBytes only.
 */
std::vector<DirEntry> unpackDirEntries(std::span<const uint8_t> bytes,
                                       size_t maxBytes);

// ----------------------------------------------------------------------
// Arguments: a call body is [proc u32][args...], shared by Hybrid-1 and
// the conventional RPC transport so both carry identical bytes.
// ----------------------------------------------------------------------

/** NULL ping: no arguments. */
struct NullArgs
{
    static constexpr NfsProc kProc = NfsProc::kNull;

    template <class IO, util::FieldsOf<NullArgs> R>
    friend void fields(IO &, R &)
    {}
};

/** A call that names one file: GETATTR, READLINK, STATFS. */
template <NfsProc P>
struct FileArgs
{
    static constexpr NfsProc kProc = P;
    FileHandle fh;

    template <class IO, util::FieldsOf<FileArgs> R>
    friend void
    fields(IO &io, R &a)
    {
        fields(io, a.fh);
    }
};

using GetAttrArgs = FileArgs<NfsProc::kGetAttr>;
using ReadLinkArgs = FileArgs<NfsProc::kReadLink>;
using StatFsArgs = FileArgs<NfsProc::kStatFs>;

/** LOOKUP(dir, name). */
struct LookupArgs
{
    static constexpr NfsProc kProc = NfsProc::kLookup;
    FileHandle dir;
    std::string name;

    template <class IO, util::FieldsOf<LookupArgs> R>
    friend void
    fields(IO &io, R &a)
    {
        fields(io, a.dir);
        io.opaque(a.name);
    }
};

/** READ(fh, offset, count). */
struct ReadArgs
{
    static constexpr NfsProc kProc = NfsProc::kRead;
    FileHandle fh;
    uint64_t offset = 0;
    uint32_t count = 0;

    template <class IO, util::FieldsOf<ReadArgs> R>
    friend void
    fields(IO &io, R &a)
    {
        fields(io, a.fh);
        io.u64(a.offset);
        io.u32(a.count);
    }
};

/** WRITE(fh, offset, data). */
struct WriteArgs
{
    static constexpr NfsProc kProc = NfsProc::kWrite;
    FileHandle fh;
    uint64_t offset = 0;
    std::vector<uint8_t> data;

    template <class IO, util::FieldsOf<WriteArgs> R>
    friend void
    fields(IO &io, R &a)
    {
        fields(io, a.fh);
        io.u64(a.offset);
        io.opaque(a.data);
    }
};

/** READDIR(fh, maxBytes). */
struct ReadDirArgs
{
    static constexpr NfsProc kProc = NfsProc::kReadDir;
    FileHandle fh;
    uint32_t maxBytes = 0;

    template <class IO, util::FieldsOf<ReadDirArgs> R>
    friend void
    fields(IO &io, R &a)
    {
        fields(io, a.fh);
        io.u32(a.maxBytes);
    }
};

/** The call body for @p args: its procedure number, then its fields. */
template <class Args>
std::vector<uint8_t>
encodeCall(const Args &args)
{
    util::Encoder e;
    e.u32(Args::kProc);
    fields(e, args);
    return e.take();
}

// ----------------------------------------------------------------------
// Results: a reply body is [status u32], then on success the results.
// GETATTR and WRITE return FileAttr, READLINK the target string,
// READDIR the entries, STATFS the FsStat.
// ----------------------------------------------------------------------

/** NULL's results: none. */
struct NullReply
{
    template <class IO, util::FieldsOf<NullReply> R>
    friend void fields(IO &, R &)
    {}
};

/** Lookup result: handle plus attributes, like NFS diropres. */
struct LookupReply
{
    FileHandle fh;
    FileAttr attr;

    template <class IO, util::FieldsOf<LookupReply> R>
    friend void
    fields(IO &io, R &r)
    {
        fields(io, r.fh);
        fields(io, r.attr);
    }
};

/** READ results: post-op attributes, then the data. */
struct ReadReply
{
    FileAttr attr;
    std::vector<uint8_t> data;

    template <class IO, util::FieldsOf<ReadReply> R>
    friend void
    fields(IO &io, R &r)
    {
        fields(io, r.attr);
        io.opaque(r.data);
    }
};

/** The reply body for @p results: status word, then its fields. */
template <class T>
std::vector<uint8_t>
encodeReply(const util::Result<T> &results)
{
    util::Encoder e;
    e.u32(results.status().code());
    if (results.ok()) {
        fields(e, results.value());
    }
    return e.take();
}

/** Parse a reply body: the server's failure, or the results. */
template <class T>
util::Result<T>
decodeReply(std::span<const uint8_t> body)
{
    util::Decoder d(body);
    uint32_t code = 0;
    d.u32(code);
    if (!d.ok()) {
        return util::Status(util::ErrorCode::kMalformed, "short reply");
    }
    if (code != 0) {
        return util::Status(static_cast<util::ErrorCode>(code),
                            "server-side failure");
    }
    T results{};
    fields(d, results);
    if (!d.ok()) {
        return util::Status(util::ErrorCode::kMalformed, "short reply");
    }
    return results;
}

} // namespace remora::dfs
