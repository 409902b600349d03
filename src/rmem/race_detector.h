/**
 * @file
 * Happens-before data-race detection for exported segment memory.
 *
 * The paper's model deliberately strips synchronization from the data
 * path: importers fire non-blocking WRITE/READ/CAS at exported segments
 * and correctness rests on manual ordering (valid bits written last,
 * CAS-guarded slot claims, notification-driven handoff). This detector
 * checks those orderings the way TSan-style vector-clock checkers do:
 * every access to an exported segment — remote requests applied by the
 * engine *and* the exporter's own loads/stores, seen through the
 * mem::AddressSpace access observer — is checked against a shadow map
 * of the segment, and two accesses to overlapping bytes conflict when
 * at least one is a write and neither happens-before the other.
 *
 * Happens-before edges come from the model's real ordering primitives
 * only; nothing is implicit:
 *
 *  - Notification delivery: NotificationChannel::post() releases the
 *    posting actor's clock into the channel; handler dispatch and
 *    next()/tryNext() consumption acquire it (rmem/notification.cc).
 *  - CAS pairs and sync objects: designated *sync words* (lock words,
 *    sequence/valid words, heartbeat counters — marked by the sync
 *    objects, hybrid1 RPC, the name clerk and the dfs token area, and
 *    automatically for any CAS target). A write covering a sync word
 *    releases the writer's clock into the word; a read covering it
 *    acquires. Sync words are excluded from data checking, exactly
 *    like the relaxed/atomic split in a real detector. A successful
 *    CAS performs the read (acquire) and the write (release), so
 *    CAS-success pairs chain; a failed CAS only acquires.
 *  - RPC request/reply in rpc/hybrid1.cc rides on the two above: the
 *    request is ordered by its notification, the reply by the sync
 *    sequence word the client spins on.
 *
 * Actor granularity is the node: each node's kernel applies remote
 * requests and runs local code one event at a time, which matches the
 * paper's one-CPU-per-host model. The engine attributes exporter-side
 * applied accesses to the *initiating* node via ScopedActor.
 *
 * Arming: tests call arm()/disarm() programmatically (non-fatal,
 * inspect reports()); the REMORA_RACE=1 environment arms the detector
 * fatally for whole-suite gating — the first race aborts the process
 * with the formatted report, which ctest surfaces as a failure.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mem/node.h"
#include "net/cell.h"
#include "rmem/segment.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace remora::obs {
class MetricRegistry;
}

namespace remora::rmem {

/**
 * An actor is one logical thread of the happens-before order. Node ids
 * are used directly (the model executes one event at a time per node).
 */
using ActorId = uint32_t;

/** A classic vector clock: per-actor logical epochs. */
class VectorClock
{
  public:
    /** The actor's epoch; 0 when the actor has never been seen. */
    uint64_t get(ActorId a) const;

    /** Set the actor's epoch (used by bump; exposed for tests). */
    void set(ActorId a, uint64_t epoch);

    /** Advance the actor's own epoch by one. */
    void bump(ActorId a) { set(a, get(a) + 1); }

    /** Pointwise maximum with @p o (the join / acquire operation). */
    void join(const VectorClock &o);

    /** True when this clock has seen @p a's @p epoch (epoch <= get(a)). */
    bool covers(ActorId a, uint64_t epoch) const { return get(a) >= epoch; }

    /** Pointwise <=: true when this clock happens-before-or-equals @p o. */
    bool leq(const VectorClock &o) const;

    /** Neither orders the other: the clocks are concurrent. */
    bool concurrentWith(const VectorClock &o) const
    {
        return !leq(o) && !o.leq(*this);
    }

    /** Number of actors with non-zero epochs. */
    size_t size() const { return c_.size(); }

    /** Render as "{1:4 2:7}" for reports. */
    std::string str() const;

  private:
    std::map<ActorId, uint64_t> c_;
};

/** One recorded access, kept in shadow state and quoted in reports. */
struct AccessInfo
{
    ActorId actor = 0; ///< 0 means "no access recorded".
    uint64_t epoch = 0;
    sim::Time when = 0;
    bool write = false;
    /** Access site, e.g. "rmem serve_write from node 2". */
    std::string site;
    /** The accessing actor's clock at access time, rendered. */
    std::string clock;
};

/** Shadow state of one byte range: last write + last read per actor. */
struct ShadowState
{
    AccessInfo lastWrite;
    /** Reads since the last write, one slot per actor. */
    std::map<ActorId, AccessInfo> reads;
};

/**
 * An interval map from segment offsets to ShadowState, splitting ranges
 * at access boundaries so differently-accessed bytes keep independent
 * state. Public so tests/test_race_detector.cc can unit-test splitting.
 */
class ShadowRangeMap
{
  public:
    /**
     * Cover [lo, hi) exactly — splitting existing ranges at lo/hi and
     * materialising fresh state for gaps — and call @p fn on each
     * covered piece in offset order.
     */
    void forRange(uint32_t lo, uint32_t hi,
                  const std::function<void(uint32_t lo, uint32_t hi,
                                           ShadowState &st)> &fn);

    /** Drop all shadow state in [lo, hi) (sync-word designation). */
    void erase(uint32_t lo, uint32_t hi);

    /** Number of distinct ranges currently held. */
    size_t rangeCount() const { return m_.size(); }

    /** The (lo, hi) bounds of every range, in order (for tests). */
    std::vector<std::pair<uint32_t, uint32_t>> ranges() const;

  private:
    struct Piece
    {
        uint32_t hi;
        ShadowState st;
    };

    /** Split the range containing @p x (if any) so @p x is a boundary. */
    void splitAt(uint32_t x);

    std::map<uint32_t, Piece> m_; // key = range lo
};

/** A detected pair of conflicting, unordered accesses. */
struct RaceReport
{
    net::NodeId node = 0;   ///< Exporting node.
    SegmentId segment = 0;  ///< Descriptor slot on that node.
    std::string segmentName;
    uint32_t lo = 0;        ///< Conflicting byte range [lo, hi)...
    uint32_t hi = 0;        ///< ...as offsets into the segment.
    AccessInfo prior;       ///< The access already in shadow state.
    AccessInfo current;     ///< The access that collided with it.

    /** Multi-line human-readable rendering (also used by fatal mode). */
    std::string format() const;
};

/** Detector tuning; see arm(). */
struct RaceDetectorOptions
{
    /** Abort (REMORA_FATAL) on the first race — the ctest gate mode. */
    bool fatal = false;
    /**
     * Shadow granularity in bytes (power of two). Checked ranges are
     * widened to this grain, trading precision for shadow-map size;
     * 1 is exact byte-level checking.
     */
    uint32_t granularity = 1;
    /** Stop *recording* reports past this many (counting continues). */
    size_t maxReports = 64;
};

/**
 * The process-wide happens-before checker. Disarmed it costs one
 * static bool test per hook; armed it shadows registered segments.
 */
class RaceDetector
{
  public:
    /** The process-wide instance. */
    static RaceDetector &instance();

    /**
     * Fast armed check — every hook guards with this. Arms from the
     * environment (REMORA_RACE=1, fatal mode) on first use.
     */
    static bool on();

    /** Reset all state and arm with @p opts. */
    void arm(const RaceDetectorOptions &opts = {});

    /** Disarm and drop all state. */
    void disarm();

    /** Drop clocks/shadows/reports but stay armed (per-seed loops). */
    void reset();

    const RaceDetectorOptions &options() const { return opts_; }

    // ---- Topology (called by the rmem engine) ----------------------

    /** A segment was exported; begin shadowing [base, base+size). */
    void registerSegment(net::NodeId node, SegmentId seg, mem::Pid pid,
                         mem::Vaddr base, uint32_t size,
                         const std::string &name);

    /** The segment was revoked; drop its shadow state. */
    void unregisterSegment(net::NodeId node, SegmentId seg);

    /**
     * Designate the aligned 4-byte word at @p offset a *sync word*:
     * excluded from data checking, it instead carries release/acquire
     * clocks (see file comment). Existing shadow data state for the
     * word is discarded. CAS targets are marked automatically.
     */
    void markSyncWord(net::NodeId node, SegmentId seg, uint32_t offset);

    // ---- Access events ---------------------------------------------

    /**
     * A load/store hit an address space with registered segments.
     * Attributed to the current ScopedActor, or to @p node. Ranges
     * outside any registered segment are ignored.
     */
    void onLocalAccess(net::NodeId node, mem::Pid pid, bool write,
                       mem::Vaddr va, size_t len, sim::Time now);

    // ---- Happens-before edges --------------------------------------

    /** Release @p actor's clock into the channel keyed by @p token. */
    void releaseToken(const void *token, ActorId actor);

    /** Acquire the clock stored under @p token into @p actor. */
    void acquireToken(const void *token, ActorId actor);

    /**
     * Order everything so far before everything after: joins every
     * actor/sync/token clock into every actor. Test scaffolding for
     * "setup is complete; only check the traffic that follows".
     */
    void fence();

    /**
     * Attribute accesses inside the scope to @p actor with @p site,
     * followed by @p node in decimal when given, as the report label.
     * The engine wraps exporter-side application of remote requests so
     * they attribute to the *initiating* node. Cheap no-op when the
     * detector is disarmed: the label is only built when it is armed.
     */
    class ScopedActor
    {
      public:
        ScopedActor(ActorId actor, std::string_view site,
                    std::optional<uint64_t> node = std::nullopt);
        ScopedActor(const ScopedActor &) = delete;
        ScopedActor &operator=(const ScopedActor &) = delete;
        ~ScopedActor();

      private:
        bool active_;
    };

    /** The ScopedActor override, or @p fallback when none is active. */
    ActorId currentActor(ActorId fallback) const;

    // ---- Results ---------------------------------------------------

    /** Recorded reports (capped at options().maxReports). */
    const std::vector<RaceReport> &reports() const { return reports_; }

    /** Total conflicting range-pairs found (not capped). */
    uint64_t raceCount() const { return races_.value(); }

    /** Data-range checks performed (overhead/coverage indicator). */
    uint64_t accessesChecked() const { return accesses_.value(); }

    /** Register the detector's counters under "<prefix>.". */
    void registerStats(obs::MetricRegistry &reg,
                       const std::string &prefix) const;

  private:
    RaceDetector() = default;

    struct SegInfo
    {
        net::NodeId node = 0;
        SegmentId seg = 0;
        mem::Pid pid = 0;
        mem::Vaddr base = 0;
        uint32_t size = 0;
        std::string name;
        ShadowRangeMap shadow;
        std::set<uint32_t> syncWords;
        std::map<uint32_t, VectorClock> syncClocks;
    };

    static uint32_t segKey(net::NodeId node, SegmentId seg)
    {
        return (static_cast<uint32_t>(node) << 8) | seg;
    }

    VectorClock &actorClock(ActorId a);
    void access(SegInfo &si, uint32_t lo, uint32_t hi, bool write,
                ActorId actor, sim::Time now, const std::string &site);
    void report(const SegInfo &si, uint32_t lo, uint32_t hi,
                const AccessInfo &prior, const AccessInfo &current);
    void clearState();

    bool armed_ = false;
    /** An explicit arm()/disarm() happened; blocks later env arming. */
    bool configured_ = false;
    RaceDetectorOptions opts_;
    std::map<uint32_t, SegInfo> segments_;
    /** (node, pid) -> base va -> segment key, for local-access lookup. */
    std::map<std::pair<uint32_t, uint32_t>, std::map<mem::Vaddr, uint32_t>>
        byVa_;
    std::map<ActorId, VectorClock> clocks_;
    /** Union taken at the last fence(); seeds actors seen after it. */
    VectorClock fenceClock_;
    std::map<const void *, VectorClock> tokens_;
    std::vector<std::pair<ActorId, std::string>> actorStack_;
    std::vector<RaceReport> reports_;
    sim::Counter races_;
    sim::Counter accesses_;
    sim::Counter acquires_;
    sim::Counter releases_;
};

} // namespace remora::rmem
