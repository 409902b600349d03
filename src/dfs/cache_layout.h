/**
 * @file
 * Layout of the server's exported cache areas (§5.1).
 *
 * "Our system model organizes the cache into different distinct areas,
 * each containing different types of information ... This organization
 * allows the client-side server clerk to probe server data structures"
 * — the areas below are exported segments whose internal layout is a
 * cluster-wide convention, so a clerk can compute exactly where a datum
 * lives on the server and fetch it with one remote read:
 *
 *  - file data      : direct-mapped slots of one 8 KB block + header
 *  - name lookup    : (directory, name) -> child handle + attributes
 *  - file attributes: handle -> attributes
 *  - directory entries: whole-directory entry lists (the paper notes
 *    the departmental server's entire directory contents fit in
 *    ~2.5 MB, so caching them all is feasible)
 *  - symbolic links : handle -> target (the extra ~40 KB noted in §5.1)
 *  - fs statistics  : one small record
 *
 * Every record leads with a flag word that the writer updates last
 * (insert) or first (invalidate); single-word atomicity (§3.4) then
 * guarantees remote readers a consistent view. Areas are direct-mapped
 * caches: a tag mismatch at the clerk is a miss, answered by falling
 * back to control transfer.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "dfs/file_store.h"
#include "util/bytes.h"
#include "util/hash.h"

namespace remora::dfs {

/** Sizing of the server's cache areas. */
struct CacheGeometry
{
    uint32_t attrBuckets = 1024;
    uint32_t nameBuckets = 2048;
    uint32_t dataSlots = 256;
    uint32_t dirSlots = 128;
    uint32_t linkSlots = 256;
};

/** Record flag-word states shared by all areas. */
inline constexpr uint32_t kSlotEmpty = 0;
inline constexpr uint32_t kSlotValid = 1;

/** Bytes per attribute record. */
inline constexpr uint32_t kAttrRecBytes = 80;
/** Bytes per name-lookup record. */
inline constexpr uint32_t kNameRecBytes = 160;
/** Bytes of the data-slot header preceding each cached block. */
inline constexpr uint32_t kDataHeaderBytes = 32;
/** Bytes per data slot (header + one block). */
inline constexpr uint32_t kDataSlotBytes = kDataHeaderBytes + kBlockBytes;
/** Bytes per directory slot (header + packed entries). */
inline constexpr uint32_t kDirSlotBytes = 4096;
/** Bytes of the directory-slot header. */
inline constexpr uint32_t kDirHeaderBytes = 32;
/** Bytes per symlink record. */
inline constexpr uint32_t kLinkRecBytes = 128;
/** Bytes of the statistics record. */
inline constexpr uint32_t kStatRecBytes = 64;

// ----------------------------------------------------------------------
// Bucket functions — identical on server and every clerk.
// ----------------------------------------------------------------------

/** Attribute-area bucket of a file handle key. */
inline uint32_t
attrBucket(uint64_t fhKey, uint32_t buckets)
{
    return static_cast<uint32_t>(util::mix64(fhKey) % buckets);
}

/** Name-area bucket of (directory key, component name). */
inline uint32_t
nameBucket(uint64_t dirKey, const std::string &name, uint32_t buckets)
{
    return static_cast<uint32_t>(
        util::mix64(dirKey ^ util::fnv1a(name)) % buckets);
}

/** Data-area slot of (file handle key, block number). */
inline uint32_t
dataSlot(uint64_t fhKey, uint64_t blockNo, uint32_t slots)
{
    return static_cast<uint32_t>(
        util::mix64(fhKey ^ (blockNo * 0x9e3779b97f4a7c15ull)) % slots);
}

/** Directory-area slot of a directory key. */
inline uint32_t
dirSlot(uint64_t dirKey, uint32_t slots)
{
    return static_cast<uint32_t>(util::mix64(dirKey ^ 0xd1b54a32d192ed03ull) %
                                 slots);
}

/** Symlink-area slot of a file handle key. */
inline uint32_t
linkSlot(uint64_t fhKey, uint32_t slots)
{
    return static_cast<uint32_t>(util::mix64(fhKey ^ 0x2545f4914f6cdd1dull) %
                                 slots);
}

// ----------------------------------------------------------------------
// Records. Each encodes into exactly its record size (zero-padded past
// the fields below) and decodes from at least that many bytes.
// ----------------------------------------------------------------------

/** Attribute record: flag, handle tag, attributes. */
struct AttrRecord : util::FixedRecord<AttrRecord, kAttrRecBytes>
{
    uint32_t flag = kSlotEmpty;
    uint64_t fhKey = 0;
    FileAttr attr;

    template <class IO, util::FieldsOf<AttrRecord> R>
    friend void
    fields(IO &io, R &r)
    {
        io.u32(r.flag);
        io.pad(4);
        io.u64(r.fhKey);
        fields(io, r.attr);
    }
};

/** Name-lookup record: flag, (dir, name) tag, child handle + attrs. */
struct NameLookupRecord : util::FixedRecord<NameLookupRecord, kNameRecBytes>
{
    uint32_t flag = kSlotEmpty;
    uint64_t dirKey = 0;
    uint64_t childKey = 0;
    FileAttr childAttr;
    std::string name; // <= 79 chars

    template <class IO, util::FieldsOf<NameLookupRecord> R>
    friend void
    fields(IO &io, R &r)
    {
        io.u32(r.flag);
        io.pad(4);
        io.u64(r.dirKey);
        io.u64(r.childKey);
        fields(io, r.childAttr);
        io.bytes8(r.name, 79);
    }
};

/** Data-slot header: flag, dirty, (handle, block) tag, valid bytes. */
struct DataSlotHeader : util::FixedRecord<DataSlotHeader, kDataHeaderBytes>
{
    uint32_t flag = kSlotEmpty;
    uint32_t dirty = 0;
    uint64_t fhKey = 0;
    uint64_t blockNo = 0;
    uint32_t validBytes = 0;

    template <class IO, util::FieldsOf<DataSlotHeader> R>
    friend void
    fields(IO &io, R &h)
    {
        io.u32(h.flag);
        io.u32(h.dirty);
        io.u64(h.fhKey);
        io.u64(h.blockNo);
        io.u32(h.validBytes);
    }
};

/** Directory-slot header: flag, dir tag, packed-entry byte count. */
struct DirSlotHeader : util::FixedRecord<DirSlotHeader, kDirHeaderBytes>
{
    uint32_t flag = kSlotEmpty;
    uint64_t dirKey = 0;
    uint32_t bytes = 0;
    uint32_t entryCount = 0;

    template <class IO, util::FieldsOf<DirSlotHeader> R>
    friend void
    fields(IO &io, R &h)
    {
        io.u32(h.flag);
        io.pad(4);
        io.u64(h.dirKey);
        io.u32(h.bytes);
        io.u32(h.entryCount);
    }
};

/** Symlink record: flag, handle tag, target path. */
struct LinkRecord : util::FixedRecord<LinkRecord, kLinkRecBytes>
{
    uint32_t flag = kSlotEmpty;
    uint64_t fhKey = 0;
    std::string target; // <= 107 chars

    template <class IO, util::FieldsOf<LinkRecord> R>
    friend void
    fields(IO &io, R &r)
    {
        io.u32(r.flag);
        io.u64(r.fhKey);
        io.bytes32(r.target, 107);
    }
};

/** Statistics record. */
struct StatRecord : util::FixedRecord<StatRecord, kStatRecBytes>
{
    uint32_t flag = kSlotEmpty;
    FsStat stat;

    template <class IO, util::FieldsOf<StatRecord> R>
    friend void
    fields(IO &io, R &r)
    {
        io.u32(r.flag);
        io.pad(4);
        fields(io, r.stat);
    }
};

} // namespace remora::dfs
