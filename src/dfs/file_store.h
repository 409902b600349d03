/**
 * @file
 * The server's local filesystem substrate.
 *
 * An in-memory Unix-style filesystem (inodes, directories, symbolic
 * links, regular files in 8 KB blocks) standing in for the Ultrix UFS
 * volume behind the paper's departmental NFS server. The distributed
 * file service (server, clerks, both transfer schemes) runs on top of
 * this store; the workload generator builds trees in it shaped like the
 * paper's exported partitions (fonts, source trees, /usr binaries).
 */
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/status.h"

namespace remora::dfs {

/** Block size of the store (NFS v2 transfer unit). */
inline constexpr uint32_t kBlockBytes = 8192;

/** File types. */
enum class FileType : uint32_t
{
    kRegular = 1,
    kDirectory = 2,
    kSymlink = 3,
};

/** An opaque file handle: inode number + inode generation. */
struct FileHandle
{
    uint32_t inode = 0;
    uint32_t generation = 0;

    /** Dense encoding used as a hash/cache key. */
    uint64_t
    key() const
    {
        return (static_cast<uint64_t>(inode) << 32) | generation;
    }

    /** Rebuild from key(). */
    static FileHandle
    fromKey(uint64_t k)
    {
        return FileHandle{static_cast<uint32_t>(k >> 32),
                          static_cast<uint32_t>(k)};
    }

    bool
    operator==(const FileHandle &o) const
    {
        return inode == o.inode && generation == o.generation;
    }
};

/**
 * File attributes (the getattr payload). Its 56-byte layout is the same
 * in NFS replies and in the exported cache records.
 */
struct FileAttr
{
    FileType type = FileType::kRegular;
    uint32_t mode = 0644;
    uint32_t nlink = 1;
    uint32_t uid = 0;
    uint32_t gid = 0;
    uint64_t size = 0;
    uint64_t bytesUsed = 0;
    uint64_t fileid = 0;
    uint32_t atime = 0;
    uint32_t mtime = 0;
    uint32_t ctime = 0;

    template <class IO, util::FieldsOf<FileAttr> R>
    friend void
    fields(IO &io, R &a)
    {
        io.u32(a.type);
        io.u32(a.mode);
        io.u32(a.nlink);
        io.u32(a.uid);
        io.u32(a.gid);
        io.u64(a.size);
        io.u64(a.bytesUsed);
        io.u64(a.fileid);
        io.u32(a.atime);
        io.u32(a.mtime);
        io.u32(a.ctime);
    }
};

/** One directory entry. */
struct DirEntry
{
    uint64_t fileid = 0;
    std::string name;
};

/** Filesystem-wide statistics (the statfs payload and cache record). */
struct FsStat
{
    uint64_t totalBytes = 0;
    uint64_t freeBytes = 0;
    uint64_t totalFiles = 0;
    uint32_t blockSize = kBlockBytes;

    template <class IO, util::FieldsOf<FsStat> R>
    friend void
    fields(IO &io, R &s)
    {
        io.u64(s.totalBytes);
        io.u64(s.freeBytes);
        io.u64(s.totalFiles);
        io.u32(s.blockSize);
    }
};

/** In-memory inode-based filesystem. */
class FileStore
{
  public:
    /** Create a store with an empty root directory. */
    FileStore();

    /** Handle of the root directory. */
    FileHandle root() const { return root_; }

    // ------------------------------------------------------------------
    // The NFS-shaped operation set
    // ------------------------------------------------------------------

    /** Resolve @p name within directory @p dir. */
    util::Result<FileHandle> lookup(FileHandle dir,
                                    const std::string &name) const;

    /** Attributes of @p fh. */
    util::Result<FileAttr> getattr(FileHandle fh) const;

    /** Read up to @p count bytes at @p offset (short read at EOF). */
    util::Result<std::vector<uint8_t>> read(FileHandle fh, uint64_t offset,
                                            uint32_t count) const;

    /** Write @p data at @p offset, extending the file as needed. */
    util::Status write(FileHandle fh, uint64_t offset,
                       std::span<const uint8_t> data);

    /** Target of symbolic link @p fh. */
    util::Result<std::string> readlink(FileHandle fh) const;

    /** All entries of directory @p fh (including "." and ".."). */
    util::Result<std::vector<DirEntry>> readdir(FileHandle fh) const;

    /** Filesystem statistics. */
    FsStat statfs() const;

    // ------------------------------------------------------------------
    // Tree construction (server-local administration)
    // ------------------------------------------------------------------

    /** Create a subdirectory. */
    util::Result<FileHandle> mkdir(FileHandle parent,
                                   const std::string &name);

    /** Create a regular file of @p size bytes of deterministic content. */
    util::Result<FileHandle> createFile(FileHandle parent,
                                        const std::string &name,
                                        uint64_t size);

    /** Create a symbolic link to @p target. */
    util::Result<FileHandle> symlink(FileHandle parent,
                                     const std::string &name,
                                     const std::string &target);

    /** Remove a directory entry (file data freed when unreferenced). */
    util::Status remove(FileHandle parent, const std::string &name);

    /** Number of live inodes. */
    size_t inodeCount() const { return liveInodes_; }

    /** Every live file handle (used by cache warming). */
    std::vector<FileHandle> allHandles() const;

  private:
    struct Inode
    {
        bool live = false;
        uint32_t generation = 0;
        FileAttr attr;
        std::vector<uint8_t> data;               // regular files
        std::map<std::string, uint32_t> entries; // directories
        std::string target;                      // symlinks
    };

    /** Checked inode access. */
    const Inode *find(FileHandle fh) const;
    Inode *find(FileHandle fh);

    /** Allocate a fresh inode. */
    uint32_t allocInode(FileType type);

    /** Insert a directory entry (parent must be a live directory). */
    util::Status link(FileHandle parent, const std::string &name,
                      uint32_t ino);

    std::vector<Inode> inodes_;
    FileHandle root_;
    size_t liveInodes_ = 0;
    uint64_t bytesStored_ = 0;
    uint32_t clock_ = 1000000; // synthetic epoch for timestamps
};

} // namespace remora::dfs
