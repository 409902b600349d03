#include "rmem/race_detector.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/panic.h"

namespace remora::rmem {

// ---------------------------------------------------------------- clocks

uint64_t
VectorClock::get(ActorId a) const
{
    auto it = c_.find(a);
    return it != c_.end() ? it->second : 0;
}

void
VectorClock::set(ActorId a, uint64_t epoch)
{
    c_[a] = epoch;
}

void
VectorClock::join(const VectorClock &o)
{
    for (const auto &[a, e] : o.c_) {
        uint64_t &mine = c_[a];
        mine = std::max(mine, e);
    }
}

bool
VectorClock::leq(const VectorClock &o) const
{
    for (const auto &[a, e] : c_) {
        if (e > o.get(a)) {
            return false;
        }
    }
    return true;
}

std::string
VectorClock::str() const
{
    std::ostringstream out;
    out << "{";
    bool first = true;
    for (const auto &[a, e] : c_) {
        if (!first) {
            out << " ";
        }
        first = false;
        out << a << ":" << e;
    }
    out << "}";
    return out.str();
}

// ---------------------------------------------------------------- shadow

void
ShadowRangeMap::splitAt(uint32_t x)
{
    auto it = m_.upper_bound(x);
    if (it == m_.begin()) {
        return;
    }
    --it;
    if (it->first < x && x < it->second.hi) {
        Piece right{it->second.hi, it->second.st};
        it->second.hi = x;
        m_.emplace(x, std::move(right));
    }
}

void
ShadowRangeMap::forRange(
    uint32_t lo, uint32_t hi,
    const std::function<void(uint32_t, uint32_t, ShadowState &)> &fn)
{
    if (lo >= hi) {
        return;
    }
    splitAt(lo);
    splitAt(hi);
    uint32_t cur = lo;
    auto it = m_.lower_bound(lo);
    while (cur < hi) {
        if (it == m_.end() || it->first >= hi) {
            // Trailing gap: fresh state up to hi.
            auto [nit, ok] = m_.emplace(cur, Piece{hi, {}});
            REMORA_ASSERT(ok);
            fn(cur, hi, nit->second.st);
            return;
        }
        if (it->first > cur) {
            // Gap before the next existing range.
            auto [nit, ok] = m_.emplace(cur, Piece{it->first, {}});
            REMORA_ASSERT(ok);
            fn(cur, nit->second.hi, nit->second.st);
            cur = nit->second.hi;
            continue;
        }
        fn(cur, it->second.hi, it->second.st);
        cur = it->second.hi;
        ++it;
    }
}

void
ShadowRangeMap::erase(uint32_t lo, uint32_t hi)
{
    if (lo >= hi) {
        return;
    }
    splitAt(lo);
    splitAt(hi);
    auto first = m_.lower_bound(lo);
    auto last = m_.lower_bound(hi);
    m_.erase(first, last);
}

std::vector<std::pair<uint32_t, uint32_t>>
ShadowRangeMap::ranges() const
{
    std::vector<std::pair<uint32_t, uint32_t>> out;
    out.reserve(m_.size());
    for (const auto &[lo, piece] : m_) {
        out.emplace_back(lo, piece.hi);
    }
    return out;
}

// ---------------------------------------------------------------- report

std::string
RaceReport::format() const
{
    std::ostringstream out;
    out << "data race on node " << node << " segment " << int{segment};
    if (!segmentName.empty()) {
        out << " (\"" << segmentName << "\")";
    }
    out << " bytes [" << lo << ", " << hi << ")\n";
    auto side = [&out](const char *label, const AccessInfo &a) {
        out << "  " << label << ": " << (a.write ? "write" : "read")
            << " by actor " << a.actor << " epoch " << a.epoch << " at t="
            << a.when << "\n    site:  " << a.site << "\n    clock: "
            << a.clock << "\n";
    };
    side("prior  ", prior);
    side("current", current);
    return out.str();
}

// -------------------------------------------------------------- detector

RaceDetector &
RaceDetector::instance()
{
    static RaceDetector det;
    return det;
}

bool
RaceDetector::on()
{
    // REMORA_RACE=1 arms fatally for whole-suite gating; checked once.
    // An explicit arm()/disarm() beforehand wins: the race-detector
    // test suite arms non-fatal to *inspect* reports from known-racy
    // fixtures and must keep doing so under the env-armed ctest gate.
    static const bool envArm = [] {
        const char *e = std::getenv("REMORA_RACE");
        if (e != nullptr && e[0] != '\0' && e[0] != '0' &&
            !instance().configured_) {
            RaceDetectorOptions opts;
            opts.fatal = true;
            instance().arm(opts);
            return true;
        }
        return false;
    }();
    (void)envArm;
    return instance().armed_;
}

void
RaceDetector::arm(const RaceDetectorOptions &opts)
{
    REMORA_ASSERT(opts.granularity != 0 &&
                  (opts.granularity & (opts.granularity - 1)) == 0);
    clearState();
    opts_ = opts;
    armed_ = true;
    configured_ = true;
    races_.reset();
    accesses_.reset();
    acquires_.reset();
    releases_.reset();
    auto &reg = obs::MetricRegistry::global();
    reg.removePrefix("race.");
    registerStats(reg, "race");
}

void
RaceDetector::disarm()
{
    armed_ = false;
    configured_ = true;
    clearState();
}

void
RaceDetector::reset()
{
    clearState();
}

void
RaceDetector::clearState()
{
    segments_.clear();
    byVa_.clear();
    clocks_.clear();
    tokens_.clear();
    actorStack_.clear();
    reports_.clear();
    fenceClock_ = VectorClock();
}

void
RaceDetector::registerStats(obs::MetricRegistry &reg,
                            const std::string &prefix) const
{
    reg.add(prefix + ".races", races_);
    reg.add(prefix + ".accesses_checked", accesses_);
    reg.add(prefix + ".acquires", acquires_);
    reg.add(prefix + ".releases", releases_);
}

void
RaceDetector::registerSegment(net::NodeId node, SegmentId seg, mem::Pid pid,
                              mem::Vaddr base, uint32_t size,
                              const std::string &name)
{
    uint32_t key = segKey(node, seg);
    SegInfo &si = segments_[key];
    si = SegInfo{};
    si.node = node;
    si.seg = seg;
    si.pid = pid;
    si.base = base;
    si.size = size;
    si.name = name;
    byVa_[{node, pid}][base] = key;
}

void
RaceDetector::unregisterSegment(net::NodeId node, SegmentId seg)
{
    auto it = segments_.find(segKey(node, seg));
    if (it == segments_.end()) {
        return;
    }
    auto bit = byVa_.find({it->second.node, it->second.pid});
    if (bit != byVa_.end()) {
        bit->second.erase(it->second.base);
        if (bit->second.empty()) {
            byVa_.erase(bit);
        }
    }
    segments_.erase(it);
}

void
RaceDetector::markSyncWord(net::NodeId node, SegmentId seg, uint32_t offset)
{
    REMORA_ASSERT(offset % 4 == 0);
    auto it = segments_.find(segKey(node, seg));
    if (it == segments_.end()) {
        return; // segment not registered (e.g. armed mid-run)
    }
    SegInfo &si = it->second;
    if (si.syncWords.insert(offset).second) {
        // A word changing roles forgets its data history: plain
        // accesses before the designation are no longer checked
        // against accesses after it.
        si.shadow.erase(offset, offset + 4);
    }
}

VectorClock &
RaceDetector::actorClock(ActorId a)
{
    VectorClock &c = clocks_[a];
    if (c.get(a) == 0) {
        // A newly seen actor starts after the last fence, so fenced
        // setup is ordered before it even though it had no clock yet.
        c.join(fenceClock_);
        c.set(a, 1); // epoch 0 is "before everything"
    }
    return c;
}

RaceDetector::ScopedActor::ScopedActor(ActorId actor, std::string_view site,
                                       std::optional<uint64_t> node)
    : active_(RaceDetector::on())
{
    if (active_) {
        std::string label(site);
        if (node) {
            label += std::to_string(*node);
        }
        instance().actorStack_.emplace_back(actor, std::move(label));
    }
}

RaceDetector::ScopedActor::~ScopedActor()
{
    if (active_) {
        instance().actorStack_.pop_back();
    }
}

ActorId
RaceDetector::currentActor(ActorId fallback) const
{
    return actorStack_.empty() ? fallback : actorStack_.back().first;
}

void
RaceDetector::onLocalAccess(net::NodeId node, mem::Pid pid, bool write,
                            mem::Vaddr va, size_t len, sim::Time now)
{
    auto bit = byVa_.find({node, pid});
    if (bit == byVa_.end()) {
        return;
    }
    ActorId actor = currentActor(node);
    std::string site;
    if (!actorStack_.empty()) {
        site = actorStack_.back().second;
    } else {
        site = "local access (node " + std::to_string(node) + ", pid " +
               std::to_string(pid) + ")";
    }
    // A space can export several segments; check each one the range
    // overlaps (segments per process are few, so a scan is fine).
    for (const auto &[base, key] : bit->second) {
        auto sit = segments_.find(key);
        if (sit == segments_.end()) {
            continue;
        }
        SegInfo &si = sit->second;
        mem::Vaddr end = va + len;
        if (end <= si.base || va >= si.base + si.size) {
            continue;
        }
        uint32_t lo = static_cast<uint32_t>(std::max(va, si.base) - si.base);
        uint32_t hi = static_cast<uint32_t>(
            std::min<mem::Vaddr>(end, si.base + si.size) - si.base);
        access(si, lo, hi, write, actor, now, site);
    }
}

void
RaceDetector::access(SegInfo &si, uint32_t lo, uint32_t hi, bool write,
                     ActorId actor, sim::Time now, const std::string &site)
{
    VectorClock &clock = actorClock(actor);

    // 1. Reads covering a sync word acquire its release clock *before*
    //    the data bytes are checked, so a spinning reader that just saw
    //    the publish is ordered after the publisher's earlier stores.
    if (!write) {
        for (auto wit = si.syncWords.lower_bound(lo & ~3u);
             wit != si.syncWords.end() && *wit < hi; ++wit) {
            if (*wit + 4 > lo) {
                auto cit = si.syncClocks.find(*wit);
                if (cit != si.syncClocks.end()) {
                    clock.join(cit->second);
                    acquires_.inc();
                }
            }
        }
    }

    // 2. Check and record the data bytes, widened to the configured
    //    granularity and with sync words carved out.
    uint64_t epoch = clock.get(actor);
    uint32_t grain = opts_.granularity;
    uint32_t glo = (lo / grain) * grain;
    uint32_t ghi = std::min(((hi + grain - 1) / grain) * grain, si.size);
    AccessInfo self{actor, epoch, now, write, site, clock.str()};
    uint32_t cur = glo;
    auto wit = si.syncWords.lower_bound(glo >= 3 ? glo - 3 : 0);
    while (cur < ghi) {
        uint32_t pieceEnd = ghi;
        // Skip over / stop at the next sync word.
        while (wit != si.syncWords.end() && *wit + 4 <= cur) {
            ++wit;
        }
        if (wit != si.syncWords.end() && *wit < ghi) {
            if (*wit <= cur) {
                cur = *wit + 4;
                ++wit;
                continue;
            }
            pieceEnd = *wit;
        }
        if (cur >= pieceEnd) {
            break;
        }
        accesses_.inc();
        si.shadow.forRange(
            cur, pieceEnd,
            [&](uint32_t rlo, uint32_t rhi, ShadowState &st) {
                const AccessInfo &w = st.lastWrite;
                if (w.actor != 0 && w.actor != actor &&
                    !clock.covers(w.actor, w.epoch)) {
                    report(si, rlo, rhi, w, self);
                }
                if (write) {
                    for (const auto &[ra, rd] : st.reads) {
                        if (ra != actor && !clock.covers(ra, rd.epoch)) {
                            report(si, rlo, rhi, rd, self);
                        }
                    }
                    st.lastWrite = self;
                    st.reads.clear();
                } else {
                    st.reads[actor] = self;
                }
            });
        cur = pieceEnd;
    }

    // 3. Writes covering a sync word release the writer's clock into
    //    it *after* the data bytes above were recorded at this epoch,
    //    so the release covers this very store (valid-bit-last publish
    //    with body and flag in one write still works).
    if (write) {
        for (auto sit = si.syncWords.lower_bound(lo & ~3u);
             sit != si.syncWords.end() && *sit < hi; ++sit) {
            if (*sit + 4 > lo) {
                si.syncClocks[*sit].join(clock);
                releases_.inc();
            }
        }
    }

    // 4. Every access gets its own epoch.
    clock.bump(actor);
}

void
RaceDetector::report(const SegInfo &si, uint32_t lo, uint32_t hi,
                     const AccessInfo &prior, const AccessInfo &current)
{
    // Adjacent shadow pieces hit by one access produce one report.
    if (!reports_.empty()) {
        RaceReport &last = reports_.back();
        if (last.node == si.node && last.segment == si.seg &&
            last.hi == lo && last.prior.actor == prior.actor &&
            last.prior.epoch == prior.epoch &&
            last.current.epoch == current.epoch &&
            last.current.actor == current.actor) {
            last.hi = hi;
            return;
        }
    }
    races_.inc();
    RaceReport r;
    r.node = si.node;
    r.segment = si.seg;
    r.segmentName = si.name;
    r.lo = lo;
    r.hi = hi;
    r.prior = prior;
    r.current = current;
    if (obs::TraceRecorder::on()) {
        obs::TraceRecorder::instance().instant(
            "node" + std::to_string(si.node), "race", "data-race",
            r.format());
    }
    if (opts_.fatal) {
        REMORA_FATAL(r.format());
    }
    if (reports_.size() < opts_.maxReports) {
        reports_.push_back(std::move(r));
    }
}

void
RaceDetector::releaseToken(const void *token, ActorId actor)
{
    VectorClock &clock = actorClock(actor);
    tokens_[token].join(clock);
    releases_.inc();
    clock.bump(actor);
}

void
RaceDetector::acquireToken(const void *token, ActorId actor)
{
    auto it = tokens_.find(token);
    if (it == tokens_.end()) {
        return;
    }
    actorClock(actor).join(it->second);
    acquires_.inc();
}

void
RaceDetector::fence()
{
    VectorClock all;
    for (auto &[a, c] : clocks_) {
        all.join(c);
    }
    for (auto &[t, c] : tokens_) {
        all.join(c);
    }
    for (auto &[k, si] : segments_) {
        for (auto &[w, c] : si.syncClocks) {
            all.join(c);
        }
    }
    fenceClock_.join(all); // seeds actors first seen after the fence
    for (auto &[a, c] : clocks_) {
        c.join(all);
        c.bump(a);
    }
    for (auto &[t, c] : tokens_) {
        c.join(all);
    }
    for (auto &[k, si] : segments_) {
        for (auto &[w, c] : si.syncClocks) {
            c.join(all);
        }
    }
}

} // namespace remora::rmem
