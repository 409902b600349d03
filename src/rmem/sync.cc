#include "rmem/sync.h"

#include <algorithm>
#include <string>

#include "rmem/race_detector.h"
#include "util/bytes.h"
#include "util/panic.h"

namespace remora::rmem {

// ----------------------------------------------------------------------
// SpinLock
// ----------------------------------------------------------------------

SpinLock::SpinLock(RmemEngine &engine, const ImportedSegment &segment,
                   uint32_t offset, SegmentId resultSeg, uint32_t resultOff,
                   uint32_t ownerTag, const SpinLockParams &params)
    : engine_(engine), segment_(segment), offset_(offset),
      resultSeg_(resultSeg), resultOff_(resultOff), ownerTag_(ownerTag),
      params_(params)
{
    REMORA_ASSERT(ownerTag != 0);
    REMORA_ASSERT(offset % 4 == 0);
    if (RaceDetector::on()) {
        // Lock word: CAS acquire pairs with release()'s plain write of
        // zero, which also covers the word — the detector's sync-word
        // machinery makes both ends release/acquire edges.
        RaceDetector::instance().markSyncWord(segment_.node,
                                              segment_.descriptor, offset_);
    }
}

std::string
SpinLock::waitSite() const
{
    return "spinlock node=" + std::to_string(segment_.node) +
           " seg=" + std::to_string(segment_.descriptor) +
           " off=" + std::to_string(offset_);
}

sim::Task<util::Status>
SpinLock::acquire()
{
    auto &sim = engine_.node().simulator();
    auto &graph = sim.waitGraph();
    sim::WaitGraph::Resource word = sim::WaitGraph::packResource(
        segment_.node, segment_.descriptor, offset_);
    sim::Time deadline = params_.acquireTimeout > 0
                             ? sim.now() + params_.acquireTimeout
                             : sim::kTimeMax;
    sim::Duration backoff = params_.initialBackoff;
    for (;;) {
        CasOutcome out = co_await engine_.cas(segment_, offset_, 0,
                                              ownerTag_, resultSeg_,
                                              resultOff_);
        if (!out.status.ok()) {
            graph.waitDone(ownerTag_);
            co_return out.status;
        }
        if (out.success) {
            graph.waitDone(ownerTag_);
            graph.acquired(ownerTag_, word, waitSite());
            co_return util::Status();
        }
        ++contention_;
        // A failed CAS is a wait-for edge: the cycle check runs here,
        // catching cross-lock deadlocks even though the backoff timers
        // keep the event queue from ever draining.
        graph.waiting(ownerTag_, word, waitSite(), sim.now());
        if (sim.now() >= deadline) {
            graph.waitDone(ownerTag_);
            co_return util::Status(util::ErrorCode::kTimeout,
                                   "lock acquisition timed out");
        }
        co_await sim::delay(sim, backoff);
        backoff = std::min(backoff * 2, params_.maxBackoff);
    }
}

sim::Task<util::Status>
SpinLock::tryAcquire()
{
    CasOutcome out = co_await engine_.cas(segment_, offset_, 0, ownerTag_,
                                          resultSeg_, resultOff_);
    if (!out.status.ok()) {
        co_return out.status;
    }
    if (!out.success) {
        ++contention_;
        co_return util::Status(util::ErrorCode::kResource, "lock held");
    }
    auto &graph = engine_.node().simulator().waitGraph();
    graph.acquired(ownerTag_,
                   sim::WaitGraph::packResource(segment_.node,
                                                segment_.descriptor, offset_),
                   waitSite());
    co_return util::Status();
}

sim::Task<util::Status>
SpinLock::release()
{
    engine_.node().simulator().waitGraph().released(
        ownerTag_, sim::WaitGraph::packResource(segment_.node,
                                                segment_.descriptor,
                                                offset_));
    // A plain remote write of zero: single-word atomicity (§3.4) makes
    // this a safe unlock as long as the caller actually held the lock.
    util::Status s = co_await engine_.write(segment_, offset_,
                                            std::vector<uint8_t>(4, 0));
    co_return s;
}

// ----------------------------------------------------------------------
// Heartbeat
// ----------------------------------------------------------------------

namespace {

/** Publisher bump period. */
constexpr sim::Duration kPublishPeriod = sim::msec(10);
/** Monitor probe period. */
constexpr sim::Duration kProbePeriod = sim::msec(25);
/** Per-probe read deadline. */
constexpr sim::Duration kProbeTimeout = sim::msec(10);
/**
 * Declare failure after this many consecutive probes that either timed
 * out or observed no counter progress.
 */
constexpr uint32_t kMissesAllowed = 3;

} // namespace

HeartbeatPublisher::HeartbeatPublisher(RmemEngine &engine,
                                       mem::Process &owner)
    : engine_(engine), owner_(owner)
{
    base_ = owner_.space().allocRegion(mem::kPageBytes);
    auto h = engine_.exportSegment(owner_, base_, 64, Rights::kRead,
                                   NotifyPolicy::kNever, "heartbeat");
    if (!h.ok()) {
        REMORA_FATAL("heartbeat publisher: export failed: " +
                     h.status().toString());
    }
    handle_ = h.value();
    if (RaceDetector::on()) {
        // The beat counter is a monotonic published word: local stores
        // release, monitors' remote reads acquire. Without this the
        // publisher's stores race with every probe by construction.
        RaceDetector::instance().markSyncWord(handle_.node,
                                              handle_.descriptor, 0);
    }
}

void
HeartbeatPublisher::start()
{
    REMORA_ASSERT(!running_);
    running_ = true;
    publishLoop().detach();
}

sim::Task<void>
HeartbeatPublisher::publishLoop()
{
    auto &sim = engine_.node().simulator();
    while (running_) {
        ++beats_;
        // A purely local store; remote monitors read it directly. The
        // single-word guarantee keeps readers consistent.
        util::Status s = owner_.space().writeWord(base_, beats_);
        REMORA_ASSERT(s.ok());
        co_await sim::delay(sim, kPublishPeriod);
    }
}

HeartbeatMonitor::HeartbeatMonitor(RmemEngine &engine, mem::Process &owner,
                                   const ImportedSegment &peer,
                                   FailureCallback onFailure)
    : engine_(engine), peer_(peer),
      onFailure_(std::move(onFailure))
{
    mem::Vaddr scratch = owner.space().allocRegion(mem::kPageBytes);
    auto h = engine_.exportSegment(owner, scratch, 64, Rights::kRead,
                                   NotifyPolicy::kNever, "hb.scratch");
    if (!h.ok()) {
        REMORA_FATAL("heartbeat monitor: scratch export failed: " +
                     h.status().toString());
    }
    scratchSeg_ = h.value().descriptor;
}

void
HeartbeatMonitor::start()
{
    REMORA_ASSERT(!running_);
    running_ = true;
    probeLoop().detach();
}

sim::Task<void>
HeartbeatMonitor::probeLoop()
{
    auto &sim = engine_.node().simulator();
    uint32_t lastSeen = 0;
    uint32_t misses = 0;
    while (running_ && !failed_) {
        co_await sim::delay(sim, kProbePeriod);
        if (!running_) {
            break;
        }
        ++probes_;
        ReadOutcome out = co_await engine_.read(
            peer_, 0, scratchSeg_, 0, 4, false, kProbeTimeout);
        bool progress = false;
        if (out.status.ok() && out.data.size() == 4) {
            util::ByteReader r(out.data);
            uint32_t beat = r.getU32();
            progress = beat > lastSeen;
            lastSeen = std::max(lastSeen, beat);
        }
        if (progress) {
            misses = 0;
        } else if (++misses >= kMissesAllowed) {
            failed_ = true;
            if (onFailure_) {
                onFailure_(peer_.node);
            }
        }
    }
}

} // namespace remora::rmem
