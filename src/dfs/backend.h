/**
 * @file
 * Clerk-to-server transfer backends: the two schemes §5.2 compares
 * (plus the conventional RPC transport as a third baseline).
 *
 *  - DxBackend ("DX"): pure data transfer. The clerk computes where the
 *    datum lives in the server's exported cache areas and fetches it
 *    with remote reads (writes go back with remote writes). The server
 *    *process* never runs; only its kernel data path does. A miss
 *    "transfers control to the remote process" through an internal
 *    HyBackend.
 *  - HyBackend ("HY"): Hybrid-1. One remote write with notification
 *    carries the marshaled call; the woken server thread executes the
 *    procedure and remote-writes the reply.
 *  - RpcBackend: the conventional request/response RPC transport with
 *    the full six-step thread model (ablation baseline).
 *
 * Every control transfer is the same operation: encode an NFS call,
 * send it, decode the reply. MarshaledBackend implements the eight ops
 * that way once, over one call(body) primitive; HyBackend and
 * RpcBackend differ only in how call() moves the body. All of them
 * answer from the same FileStore, so differences in latency and server
 * load are pure communication structure.
 */
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dfs/cache_layout.h"
#include "dfs/file_store.h"
#include "dfs/nfs_proto.h"
#include "dfs/server.h"
#include "rpc/hybrid1.h"
#include "rpc/transport.h"
#include "sim/task.h"
#include "util/status.h"

namespace remora::dfs {

/** Abstract clerk-to-server access path. */
class FileServiceBackend
{
  public:
    virtual ~FileServiceBackend() = default;

    /** NULL ping (reachability / baseline cost). */
    virtual sim::Task<util::Status> null() = 0;

    /** Attributes of @p fh. */
    virtual sim::Task<util::Result<FileAttr>> getattr(FileHandle fh) = 0;

    /** Resolve @p name under @p dir. */
    virtual sim::Task<util::Result<LookupReply>> lookup(
        FileHandle dir, std::string name) = 0;

    /** Read @p count bytes at @p offset. */
    virtual sim::Task<util::Result<std::vector<uint8_t>>> read(
        FileHandle fh, uint64_t offset, uint32_t count) = 0;

    /** Write @p data at @p offset. */
    virtual sim::Task<util::Status> write(FileHandle fh, uint64_t offset,
                                          std::vector<uint8_t> data) = 0;

    /** Target of symlink @p fh. */
    virtual sim::Task<util::Result<std::string>> readlink(FileHandle fh) = 0;

    /** Up to @p maxBytes of packed entries of directory @p fh. */
    virtual sim::Task<util::Result<std::vector<DirEntry>>> readdir(
        FileHandle fh, uint32_t maxBytes) = 0;

    /** Filesystem statistics. */
    virtual sim::Task<util::Result<FsStat>> statfs() = 0;

    /** Diagnostic name ("dx", "hy", "rpc"). */
    virtual const char *name() const = 0;
};

/**
 * A backend whose every op is one marshaled call: encode the NFS call
 * body, hand it to call(), decode the reply.
 */
class MarshaledBackend : public FileServiceBackend
{
  public:
    sim::Task<util::Status> null() override;
    sim::Task<util::Result<FileAttr>> getattr(FileHandle fh) override;
    sim::Task<util::Result<LookupReply>> lookup(
        FileHandle dir, std::string name) override;
    sim::Task<util::Result<std::vector<uint8_t>>> read(
        FileHandle fh, uint64_t offset, uint32_t count) override;
    sim::Task<util::Status> write(FileHandle fh, uint64_t offset,
                                  std::vector<uint8_t> data) override;
    sim::Task<util::Result<std::string>> readlink(FileHandle fh) override;
    sim::Task<util::Result<std::vector<DirEntry>>> readdir(
        FileHandle fh, uint32_t maxBytes) override;
    sim::Task<util::Result<FsStat>> statfs() override;

  protected:
    /** Issue one marshaled call and return its reply body. */
    virtual sim::Task<util::Result<std::vector<uint8_t>>> call(
        std::vector<uint8_t> body) = 0;

  private:
    /** Encode @p args as a call, issue it, decode the Reply. */
    template <typename Reply, typename Args>
    sim::Task<util::Result<Reply>> invoke(Args args);
};

/** Hybrid-1 backend: marshaled calls over write-with-notification. */
class HyBackend : public MarshaledBackend
{
  public:
    /**
     * @param client A bound Hybrid-1 client endpoint.
     */
    explicit HyBackend(rpc::Hybrid1Client &client) : client_(client) {}

    const char *name() const override { return "hy"; }

  protected:
    sim::Task<util::Result<std::vector<uint8_t>>> call(
        std::vector<uint8_t> body) override
    {
        return client_.call(std::move(body));
    }

  private:
    rpc::Hybrid1Client &client_;
};

/** Conventional-RPC backend (six-step thread model baseline). */
class RpcBackend : public MarshaledBackend
{
  public:
    /**
     * @param transport The client node's RPC transport.
     * @param server The server's node id.
     */
    RpcBackend(rpc::RpcTransport &transport, net::NodeId server)
        : transport_(transport), server_(server)
    {}

    const char *name() const override { return "rpc"; }

  protected:
    sim::Task<util::Result<std::vector<uint8_t>>> call(
        std::vector<uint8_t> body) override
    {
        return transport_.call(server_, 1, std::move(body));
    }

  private:
    rpc::RpcTransport &transport_;
    net::NodeId server_;
};

/** Pure-data-transfer backend over the server's exported cache areas. */
class DxBackend : public FileServiceBackend
{
  public:
    /**
     * @param engine The client node's remote-memory engine.
     * @param clerkProcess The clerk process (scratch memory owner).
     * @param areas Handles to the server's cache areas.
     * @param geometry Must match the server's.
     * @param fallback Optional control-transfer path used on cache
     *        misses (§5.2: "control is transferred to the remote
     *        process" when the probe misses); may be nullptr, in which
     *        case misses surface as kNotFound.
     */
    DxBackend(rmem::RmemEngine &engine, mem::Process &clerkProcess,
              const ServerAreaHandles &areas,
              const CacheGeometry &geometry = {},
              rpc::Hybrid1Client *fallback = nullptr);

    sim::Task<util::Status> null() override;
    sim::Task<util::Result<FileAttr>> getattr(FileHandle fh) override;
    sim::Task<util::Result<LookupReply>> lookup(
        FileHandle dir, std::string name) override;
    sim::Task<util::Result<std::vector<uint8_t>>> read(
        FileHandle fh, uint64_t offset, uint32_t count) override;
    sim::Task<util::Status> write(FileHandle fh, uint64_t offset,
                                  std::vector<uint8_t> data) override;
    sim::Task<util::Result<std::string>> readlink(FileHandle fh) override;
    sim::Task<util::Result<std::vector<DirEntry>>> readdir(
        FileHandle fh, uint32_t maxBytes) override;
    sim::Task<util::Result<FsStat>> statfs() override;
    const char *name() const override { return "dx"; }

    /** Remote cache misses observed (fell back or failed). */
    uint64_t misses() const { return misses_; }

    /** Vectored-READ timeouts absorbed by halving (or, at window 1,
     *  re-issuing) the read window instead of surfacing the error. */
    uint64_t windowShrinks() const { return windowShrinks_; }

  private:
    /** Remote-read @p count bytes at @p areaOff of @p area (by value:
     *  the handle is copied into the coroutine frame, so it stays valid
     *  across the remote-read suspension). */
    sim::Task<util::Result<std::vector<uint8_t>>>
    fetch(rmem::ImportedSegment area, uint64_t areaOff, uint32_t count);

    /**
     * Probe one server-cache record: fetch it, and answer with what
     * @p decode finds there (nullopt when the slot holds another key).
     * A timeout passes through. A miss is counted and goes to
     * @p fallback (called with the fallback backend) when one is
     * configured; otherwise it fails kNotFound with @p missText.
     */
    template <typename T, typename Decode, typename Fallback>
    sim::Task<util::Result<T>> probe(rmem::ImportedSegment area,
                                     uint64_t areaOff, uint32_t count,
                                     Decode decode, Fallback fallback,
                                     const char *missText);

    /** Next scratch deposit slot (rotates for concurrent ops). */
    uint32_t scratchSlot();

    rmem::RmemEngine &engine_;
    mem::Process &process_;
    ServerAreaHandles areas_;
    CacheGeometry geo_;
    /** Answers every miss; empty when no fallback was given. */
    std::optional<HyBackend> fallback_;
    mem::Vaddr scratchBase_ = 0;
    rmem::SegmentId scratchSeg_ = 0;
    uint32_t scratchCursor_ = 0;
    uint64_t misses_ = 0;
    uint64_t windowShrinks_ = 0;
};

} // namespace remora::dfs
