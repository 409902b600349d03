/**
 * @file
 * Endian-explicit byte cursors, and the field-list codec built on them,
 * used for all wire formats and shared-segment records.
 *
 * Every on-wire structure in remora (ATM cells, remote-memory protocol
 * headers, RPC marshaling, records one node writes into a segment and
 * another parses) is encoded through these cursors rather than by
 * casting structs, so layouts are identical on every host and every
 * field width is explicit. Wire order is little-endian (the DECstation
 * R3000 ran little-endian Ultrix; the paper's heterogeneity section
 * treats byte-swap on PIO as the accommodation for other orders).
 *
 * A record's layout is written once, as a field list:
 *
 *     template <class IO, util::FieldsOf<Rec> R>
 *     void fields(IO &io, R &r) { io.u32(r.seq); io.pad(2); ... }
 *
 * Run with an Encoder (R is const Rec) it appends each field; run with
 * a Decoder (R is Rec) it reads each field back into place. `check(c)`
 * asserts c on encode and marks the input malformed on decode; after
 * the first failed check or short read a Decoder reads nothing more,
 * so how many bytes it consumed stays where the failure was found.
 * Encoder and Decoder are concrete classes whose field operations are
 * inline templates (no virtual calls): every message on the simulated
 * wire runs through them.
 */
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "util/panic.h"

namespace remora::util {

/** Growable encode cursor appending little-endian fields to a buffer. */
class ByteWriter
{
  public:
    ByteWriter() = default;

    /** Start with reserved capacity to avoid reallocation in hot paths. */
    explicit ByteWriter(size_t reserve) { buf_.reserve(reserve); }

    /** Append a single octet. */
    void putU8(uint8_t v) { buf_.push_back(v); }

    /** Append a 16-bit value, little-endian. */
    void putU16(uint16_t v);

    /** Append a 32-bit value, little-endian. */
    void putU32(uint32_t v);

    /** Append a 64-bit value, little-endian. */
    void putU64(uint64_t v);

    /** Append raw bytes verbatim. */
    void putBytes(std::span<const uint8_t> data);

    /** Append @p count zero octets (padding). */
    void putZeros(size_t count);

    /** Number of bytes encoded so far. */
    size_t size() const { return buf_.size(); }

    /** View of the encoded bytes; invalidated by further puts. */
    std::span<const uint8_t> bytes() const { return buf_; }

    /** Move the encoded buffer out, leaving this writer empty. */
    std::vector<uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<uint8_t> buf_;
};

/**
 * Decode cursor over a byte span.
 *
 * Reads past the end set an overflow flag and return zeros rather than
 * touching out-of-bounds memory; callers check ok() once after decoding
 * a unit (mirroring how the kernel emulation validates a whole request).
 */
class ByteReader
{
  public:
    /** Read from @p data, which must outlive the reader. */
    explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

    /** Decode one octet. */
    uint8_t getU8();

    /** Decode a little-endian 16-bit value. */
    uint16_t getU16();

    /** Decode a little-endian 32-bit value. */
    uint32_t getU32();

    /** Decode a little-endian 64-bit value. */
    uint64_t getU64();

    /** View (without copying) @p count bytes and advance. */
    std::span<const uint8_t> viewBytes(size_t count);

    /** Skip @p count bytes. */
    void skip(size_t count);

    /** Bytes not yet consumed. */
    size_t remaining() const { return data_.size() - pos_; }

    /** The next octet without consuming it (0 at the end). */
    uint8_t peekU8() const { return pos_ < data_.size() ? data_[pos_] : 0; }

    /** True while no decode has run past the end of the buffer. */
    bool ok() const { return !overflow_; }

  private:
    /** Check that @p count more bytes exist; set overflow otherwise. */
    bool ensure(size_t count);

    std::span<const uint8_t> data_;
    size_t pos_ = 0;
    bool overflow_ = false;
};

/** R is T or const T: one field list serves encode (const) and decode. */
template <class R, class T>
concept FieldsOf = std::same_as<std::remove_const_t<R>, T>;

/** Runs a field list forward: appends each field. */
class Encoder
{
  public:
    explicit Encoder(size_t reserve = 64) : w_(reserve) {}

    /** Integers, enums and bools, each at an explicit width. */
    void u8(auto v) { w_.putU8(static_cast<uint8_t>(v)); }
    void u16(auto v) { w_.putU16(static_cast<uint16_t>(v)); }
    void u32(auto v) { w_.putU32(static_cast<uint32_t>(v)); }
    void u64(auto v) { w_.putU64(static_cast<uint64_t>(v)); }

    void
    u24(auto v)
    {
        auto x = static_cast<uint32_t>(v);
        REMORA_ASSERT(x < (1u << 24));
        w_.putU8(static_cast<uint8_t>(x));
        w_.putU16(static_cast<uint16_t>(x >> 8));
    }

    /** One octet: @p v in the bits of @p mask, @p flag as @p flagBit. */
    void
    bits(auto v, uint8_t mask, bool flag, uint8_t flagBit)
    {
        w_.putU8(static_cast<uint8_t>((static_cast<uint8_t>(v) & mask) |
                                      (flag ? flagBit : 0)));
    }

    /** @p n zero octets; decoding skips them. */
    void pad(size_t n) { w_.putZeros(n); }

    /** Bytes (string or vector) after an 8/16/32-bit count <= @p max. */
    void bytes8(const auto &b, size_t max = 0xff) { counted(b, 1, max); }
    void bytes16(const auto &b, size_t max = 0xffff) { counted(b, 2, max); }
    void bytes32(const auto &b, size_t max = ~0u) { counted(b, 4, max); }

    /** XDR opaque or string: a u32 count, the bytes, zeros to 4-align. */
    void
    opaque(const auto &b)
    {
        counted(b, 4, ~0u);
        pad((4 - b.size() % 4) % 4);
    }

    /** Text in a fixed @p width field, NUL-padded. */
    void
    text(const std::string &s, size_t width)
    {
        REMORA_ASSERT(s.size() <= width);
        raw({reinterpret_cast<const uint8_t *>(s.data()), s.size()});
        pad(width - s.size());
    }

    /** An element count; decoding resizes the container to it. */
    void count8(const auto &v) { count(v.size(), 1, 0xff); }
    void count32(const auto &v) { count(v.size(), 4, ~0u); }

    /** A record invariant: asserted here, policed by the Decoder. */
    void check(bool c, const char * = nullptr) { REMORA_ASSERT(c); }

    /** Bytes that follow the record, sized by one of its fields. */
    void raw(std::span<const uint8_t> b) { w_.putBytes(b); }

    size_t size() const { return w_.size(); }
    std::vector<uint8_t> take() { return w_.take(); }

    /** Copy the encoding into the first @p bytes of @p out, zero-filled. */
    void
    fill(std::span<uint8_t> out, size_t bytes) const
    {
        auto data = w_.bytes();
        REMORA_ASSERT(data.size() <= bytes && bytes <= out.size());
        std::copy(data.begin(), data.end(), out.begin());
        std::fill(out.begin() + data.size(), out.begin() + bytes, 0);
    }

  private:
    void
    count(size_t n, int width, size_t max)
    {
        REMORA_ASSERT(n <= max);
        width == 1 ? u8(n) : width == 2 ? u16(n) : u32(n);
    }

    void
    counted(const auto &b, int width, size_t max)
    {
        count(b.size(), width, max);
        raw({reinterpret_cast<const uint8_t *>(b.data()), b.size()});
    }

    ByteWriter w_;
};

/**
 * Runs a field list backward: reads each field into place. After a
 * short read or failed check it reads nothing more.
 */
class Decoder
{
  public:
    /** Read from @p data, which must outlive the decoder. */
    explicit Decoder(std::span<const uint8_t> data) : r_(data) {}

    // After a failure every read yields zero and consumes nothing.
    template <class T> void u8(T &v) { v = T(ok() ? r_.getU8() : 0); }
    template <class T> void u16(T &v) { v = T(ok() ? r_.getU16() : 0); }
    template <class T> void u32(T &v) { v = T(ok() ? r_.getU32() : 0); }
    template <class T> void u64(T &v) { v = T(ok() ? r_.getU64() : 0); }

    template <class T>
    void
    u24(T &v)
    {
        uint32_t low = 0;
        uint32_t high = 0;
        u8(low);
        u16(high);
        v = T(low | high << 8);
    }

    template <class T>
    void
    bits(T &v, uint8_t mask, bool &flag, uint8_t flagBit)
    {
        uint8_t b = 0;
        u8(b);
        v = T(b & mask);
        flag = (b & flagBit) != 0;
    }

    void
    pad(size_t n)
    {
        if (ok()) {
            r_.skip(n);
        }
    }

    void bytes8(auto &b, size_t max = 0xff) { counted(b, 1, max); }
    void bytes16(auto &b, size_t max = 0xffff) { counted(b, 2, max); }
    void bytes32(auto &b, size_t max = ~0u) { counted(b, 4, max); }

    void
    opaque(auto &b)
    {
        counted(b, 4, ~0u);
        pad((4 - b.size() % 4) % 4);
    }

    void
    text(std::string &s, size_t width)
    {
        auto view = ok() ? r_.viewBytes(width) : std::span<const uint8_t>();
        s.assign(view.begin(), std::find(view.begin(), view.end(), 0));
    }

    void count8(auto &v) { v.resize(count(1, 0xff)); }

    /** A u32 count above the bytes left is malformed (no huge resize). */
    void
    count32(auto &v)
    {
        uint32_t n = count(4, ~0u);
        check(n <= remaining());
        v.resize(ok() ? n : 0);
    }

    /** Mark the input malformed (once) when @p c fails; @p why says how. */
    void
    check(bool c, const char *why = nullptr)
    {
        if (!c && ok()) {
            failed_ = true;
            why_ = why;
        }
    }

    /** True while every read stayed in bounds and every check held. */
    bool ok() const { return !failed_ && r_.ok(); }

    /** The failed check's explanation, if it gave one. */
    const char *why() const { return why_; }

    /** The next octet without consuming it (0 at the end). */
    uint8_t peekU8() const { return r_.peekU8(); }

    size_t remaining() const { return r_.remaining(); }

  private:
    uint32_t
    count(int width, size_t max)
    {
        uint32_t n = 0;
        width == 1 ? u8(n) : width == 2 ? u16(n) : u32(n);
        check(n <= max);
        return ok() ? n : 0;
    }

    void
    counted(auto &b, int width, size_t max)
    {
        uint32_t n = count(width, max);
        auto view = ok() ? r_.viewBytes(n) : std::span<const uint8_t>();
        if (ok()) {
            b.assign(view.begin(), view.end());
        }
    }

    ByteReader r_;
    bool failed_ = false;
    const char *why_ = nullptr;
};

/** Encode @p rec with its field list. */
template <class Rec>
std::vector<uint8_t>
encode(const Rec &rec)
{
    Encoder e;
    fields(e, rec);
    return e.take();
}

/** Decode @p in into @p rec with its field list; false when malformed. */
template <class Rec>
bool
decode(std::span<const uint8_t> in, Rec &rec)
{
    Decoder d(in);
    fields(d, rec);
    return d.ok();
}

/**
 * A fixed-size record in a shared segment: encode() writes exactly
 * kSize bytes (zero-padded past the fields), decode() reads the first
 * kSize. Rec supplies the field list.
 */
template <class Rec, size_t kSize>
struct FixedRecord
{
    static constexpr size_t kBytes = kSize;

    void
    encode(std::span<uint8_t> out) const
    {
        Encoder e(kSize);
        fields(e, static_cast<const Rec &>(*this));
        e.fill(out, kSize);
    }

    static Rec
    decode(std::span<const uint8_t> in)
    {
        REMORA_ASSERT(in.size() >= kSize);
        Rec rec;
        util::decode(in.first(kSize), rec);
        return rec;
    }
};

} // namespace remora::util
