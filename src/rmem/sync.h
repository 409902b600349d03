/**
 * @file
 * Higher-level synchronization built on the communication model.
 *
 * Section 3.4 lists the model's synchronization options: hints with no
 * synchronization, the single-word atomicity guarantee, CAS ("this
 * primitive is sufficiently powerful to build higher level
 * synchronization primitives"), and RPC-like semantics via control
 * transfer. Section 3.7 sketches failure detection: "a service that
 * required fault tolerance could implement a periodic remote read
 * request of a known (or monotonically increasing) value. Failure to
 * read the value within a timeout period can be used to raise an
 * exception."
 *
 * This header provides both as reusable library pieces:
 *
 *  - SpinLock: a distributed mutex over a word of a remote segment,
 *    acquired with remote CAS (exponential backoff) and released with a
 *    plain remote write (safe by single-word atomicity);
 *  - Heartbeat: the §3.7 failure detector — a publisher bumps a counter
 *    word in its exported segment; monitors on other nodes periodically
 *    remote-read it and report failure when it stops advancing or stops
 *    answering.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "rmem/engine.h"
#include "sim/task.h"
#include "util/status.h"

namespace remora::rmem {

/** Tuning for SpinLock acquisition. */
struct SpinLockParams
{
    /** First retry delay after a failed CAS. */
    sim::Duration initialBackoff = sim::usec(50);
    /** Backoff cap. */
    sim::Duration maxBackoff = sim::usec(800);
    /** Give up after this long (0 = forever). */
    sim::Duration acquireTimeout = 0;
};

/**
 * A distributed spinlock over one word of a remote segment.
 *
 * The lock word holds 0 when free and the holder's tag when taken.
 * Multiple SpinLock instances (on any node) may target the same word.
 */
class SpinLock
{
  public:
    /**
     * @param engine This node's remote-memory engine.
     * @param segment The segment holding the lock word (needs kCas and
     *        kWrite rights).
     * @param offset Word-aligned offset of the lock word.
     * @param resultSeg Local segment for CAS result deposits.
     * @param resultOff Word-aligned offset within @p resultSeg.
     * @param ownerTag Non-zero tag identifying this holder.
     * @param params Backoff tuning.
     */
    SpinLock(RmemEngine &engine, const ImportedSegment &segment,
             uint32_t offset, SegmentId resultSeg, uint32_t resultOff,
             uint32_t ownerTag, const SpinLockParams &params = {});

    /**
     * Acquire the lock: CAS(0 -> ownerTag) with exponential backoff.
     *
     * @return kOk on acquisition; kTimeout if acquireTimeout elapsed.
     */
    sim::Task<util::Status> acquire();

    /**
     * Try once without spinning.
     *
     * @return kOk if acquired, kResource if the lock was held.
     */
    sim::Task<util::Status> tryAcquire();

    /** Release the lock (must be held by this tag). */
    sim::Task<util::Status> release();

    /** CAS attempts that lost the race so far. */
    uint64_t contentionCount() const { return contention_; }

  private:
    /** Wait-graph report label for this lock word. */
    std::string waitSite() const;

    RmemEngine &engine_;
    ImportedSegment segment_;
    uint32_t offset_;
    SegmentId resultSeg_;
    uint32_t resultOff_;
    uint32_t ownerTag_;
    SpinLockParams params_;
    uint64_t contention_ = 0;
};

/** Publishing half: bumps a monotonically increasing counter word. */
class HeartbeatPublisher
{
  public:
    /**
     * @param engine This node's engine.
     * @param owner Process whose memory backs the counter segment.
     */
    HeartbeatPublisher(RmemEngine &engine, mem::Process &owner);

    /** Handle monitors import to read the counter. */
    ImportedSegment handle() const { return handle_; }

    /** Start bumping (runs forever). */
    void start();

    /** Stop bumping (simulates a crash or graceful shutdown). */
    void stop() { running_ = false; }

    /** Current counter value. */
    uint32_t beats() const { return beats_; }

  private:
    sim::Task<void> publishLoop();

    RmemEngine &engine_;
    mem::Process &owner_;
    mem::Vaddr base_ = 0;
    ImportedSegment handle_;
    uint32_t beats_ = 0;
    bool running_ = false;
};

/** Monitoring half: probes a remote counter, reports failures. */
class HeartbeatMonitor
{
  public:
    /** Invoked once when the peer is declared failed. */
    using FailureCallback = std::function<void(net::NodeId)>;

    /**
     * @param engine This node's engine.
     * @param owner Process providing the probe scratch memory.
     * @param peer The publisher's counter segment.
     * @param onFailure Failure upcall.
     */
    HeartbeatMonitor(RmemEngine &engine, mem::Process &owner,
                     const ImportedSegment &peer, FailureCallback onFailure);

    /** Start probing (runs until failure is declared or stop()). */
    void start();

    /** Stop probing without declaring failure. */
    void stop() { running_ = false; }

    /** True once the peer has been declared failed. */
    bool peerFailed() const { return failed_; }

    /** Probes issued so far. */
    uint64_t probes() const { return probes_; }

  private:
    sim::Task<void> probeLoop();

    RmemEngine &engine_;
    ImportedSegment peer_;
    FailureCallback onFailure_;
    SegmentId scratchSeg_ = 0;
    bool running_ = false;
    bool failed_ = false;
    uint64_t probes_ = 0;
};

} // namespace remora::rmem
