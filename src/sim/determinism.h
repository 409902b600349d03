/**
 * @file
 * The determinism digest: a running hash of everything the simulator
 * does, so two runs of the same workload can be proven bit-identical.
 *
 * The static side of this property is enforced by remora-lint (no
 * wall-clock, no platform randomness, no coroutine parameters that
 * dangle across suspension); the digest is the dynamic backstop. The
 * Simulator folds every scheduled, executed, and cancelled event into
 * the hash as it happens (as integer-tagged records keyed by the
 * event's insertion sequence number), and components fold in their own
 * (time, kind, actor) records at protocol-level milestones via
 * Simulator::noteDigest(). Any divergence between two runs — a
 * reordered wakeup, an extra retry, a different random draw — yields a
 * different digest, so a test can assert replay equality with one
 * integer compare instead of diffing traces.
 */
#pragma once

#include <cstdint>
#include <string_view>

namespace remora::sim {

/**
 * Running 64-bit accumulator over simulation activity.
 *
 * Strings and single bytes fold byte by byte with FNV-1a. 64-bit words
 * (times, actors, sequence numbers) fold a whole word at a time with
 * one multiply-based mixer, so a per-event record costs two dependent
 * multiplies.
 */
class DeterminismDigest
{
  public:
    /** FNV-1a 64-bit offset basis / prime. */
    static constexpr uint64_t kOffset = 14695981039346656037ull;
    static constexpr uint64_t kPrime = 1099511628211ull;

    /** Fold one byte. */
    void
    mixByte(uint8_t b)
    {
        hash_ = (hash_ ^ b) * kPrime;
        ++records_;
    }

    /** Fold a 64-bit value as one word. */
    void
    mixU64(uint64_t v)
    {
        foldWord(v);
        ++records_;
    }

    /** Fold a string (kind tags, actor names). */
    void
    mix(std::string_view s)
    {
        for (char c : s) {
            hash_ = (hash_ ^ static_cast<uint8_t>(c)) * kPrime;
        }
        ++records_;
    }

    /** Tags of the simulator's per-event records (mixTagged). */
    static constexpr uint8_t kTagSched = 1;
    static constexpr uint8_t kTagExec = 2;
    static constexpr uint8_t kTagCancel = 3;

    /**
     * Fold one (time, tag, actor) record: the integer-tagged form of
     * mixRecord for the scheduler's per-event records, which would
     * otherwise hash a kind string per event. Two words: the time
     * rotated left by a byte with the tag in the freed low byte (exact
     * for any time below 2^56 ns, about 833 days), then the actor.
     * Counts as one record.
     */
    void
    mixTagged(int64_t time, uint8_t tag, uint64_t actor)
    {
        uint64_t t = static_cast<uint64_t>(time);
        foldWord(((t << 8) | (t >> 56)) ^ tag);
        foldWord(actor);
        ++records_;
    }

    /** Fold one (time, kind, actor) record. */
    void
    mixRecord(int64_t time, std::string_view kind, uint64_t actor)
    {
        mixU64(static_cast<uint64_t>(time));
        mix(kind);
        mixU64(actor);
    }

    /** The digest so far. */
    uint64_t value() const { return hash_; }

    /** Number of records folded in (diagnostic; not part of the hash). */
    uint64_t records() const { return records_; }

    /** Restart from the offset basis. */
    void
    reset()
    {
        hash_ = kOffset;
        records_ = 0;
    }

  private:
    /**
     * Fold one word: a 64x64->128 multiply of (hash ^ word) by an odd
     * constant, with the high half xored into the low half. The
     * multiply carries each input bit up into the high half and the
     * fold brings it back down, so one step mixes the whole word; and
     * since the step is not linear in xor, folding a then b differs
     * from folding b then a.
     */
    void
    foldWord(uint64_t w)
    {
        unsigned __int128 p =
            static_cast<unsigned __int128>(hash_ ^ w) * kWordMul;
        hash_ = static_cast<uint64_t>(p) ^ static_cast<uint64_t>(p >> 64);
    }

    /** 2^64 / golden ratio, odd. */
    static constexpr uint64_t kWordMul = 0x9e3779b97f4a7c15ull;

    uint64_t hash_ = kOffset;
    uint64_t records_ = 0;
};

} // namespace remora::sim
