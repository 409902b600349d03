/**
 * @file
 * Unit tests for the util layer: CRCs, byte cursors, hashing, status,
 * formatting, and the panic/fatal termination paths.
 */
#include <gtest/gtest.h>

#include "sim/logger.h"
#include "util/bytes.h"
#include "util/crc.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/panic.h"
#include "util/status.h"
#include "util/strings.h"

namespace remora::util {
namespace {

// ----------------------------------------------------------------------
// CRC
// ----------------------------------------------------------------------

TEST(Crc32, MatchesIeeeCheckValue)
{
    // The canonical CRC-32 check: crc("123456789") == 0xCBF43926.
    const char *s = "123456789";
    std::span<const uint8_t> data(reinterpret_cast<const uint8_t *>(s), 9);
    EXPECT_EQ(crc32Ieee(data), 0xCBF43926u);
}

TEST(Crc32, EmptyInputIsZero)
{
    EXPECT_EQ(crc32Ieee({}), 0u);
}

TEST(Crc32, IncrementalEqualsOneShot)
{
    std::vector<uint8_t> data(1000);
    for (size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<uint8_t>(i * 7 + 3);
    }
    Crc32 inc;
    // Feed in ragged chunks.
    size_t pos = 0;
    size_t chunks[] = {1, 7, 48, 300, 644};
    for (size_t c : chunks) {
        size_t n = std::min(c, data.size() - pos);
        inc.update(std::span<const uint8_t>(data.data() + pos, n));
        pos += n;
    }
    ASSERT_EQ(pos, data.size());
    EXPECT_EQ(inc.value(), crc32Ieee(data));
}

/** Bit-at-a-time reflected IEEE CRC-32: the reference for the tables. */
uint32_t
bitwiseCrc32(const uint8_t *p, size_t n)
{
    uint32_t crc = 0xffffffffu;
    for (size_t i = 0; i < n; ++i) {
        crc ^= p[i];
        for (int bit = 0; bit < 8; ++bit) {
            crc = (crc & 1u) ? (crc >> 1) ^ 0xedb88320u : crc >> 1;
        }
    }
    return ~crc;
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment)
{
    std::vector<uint8_t> buf(64 + 8);
    for (size_t i = 0; i < buf.size(); ++i) {
        buf[i] = static_cast<uint8_t>(mix64(i));
    }
    for (size_t off = 0; off < 8; ++off) {
        for (size_t len = 0; len <= 64; ++len) {
            std::span<const uint8_t> data(buf.data() + off, len);
            EXPECT_EQ(crc32Ieee(data), bitwiseCrc32(data.data(), len))
                << "offset " << off << " length " << len;
        }
    }
}

TEST(Crc32, UpdateSplitAtEveryPointEqualsOneShot)
{
    std::vector<uint8_t> data(100);
    for (size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<uint8_t>(mix64(i + 1000));
    }
    uint32_t want = bitwiseCrc32(data.data(), data.size());
    ASSERT_EQ(crc32Ieee(data), want);
    for (size_t cut = 0; cut <= data.size(); ++cut) {
        Crc32 c;
        c.update(std::span<const uint8_t>(data.data(), cut));
        c.update(std::span<const uint8_t>(data.data() + cut,
                                          data.size() - cut));
        EXPECT_EQ(c.value(), want) << "split at " << cut;
    }
}

TEST(Crc32, ResetRestartsState)
{
    Crc32 c;
    c.update(std::vector<uint8_t>{1, 2, 3});
    c.reset();
    EXPECT_EQ(c.value(), crc32Ieee({}));
}

TEST(Crc8Hec, DetectsSingleBitCorruption)
{
    uint8_t header[4] = {0x12, 0x34, 0x56, 0x78};
    uint8_t hec = crc8Hec(header);
    for (int byte = 0; byte < 4; ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            uint8_t corrupted[4] = {header[0], header[1], header[2],
                                    header[3]};
            corrupted[byte] ^= static_cast<uint8_t>(1 << bit);
            EXPECT_NE(crc8Hec(corrupted), hec)
                << "flip of byte " << byte << " bit " << bit
                << " went undetected";
        }
    }
}

TEST(Crc8Hec, AppliesItuCoset)
{
    // All-zero header: table CRC is 0, so the coset constant shows.
    uint8_t zeros[4] = {};
    EXPECT_EQ(crc8Hec(zeros), 0x55);
}

// ----------------------------------------------------------------------
// Byte cursors
// ----------------------------------------------------------------------

TEST(Bytes, ScalarRoundTrip)
{
    ByteWriter w;
    w.putU8(0xab);
    w.putU16(0x1234);
    w.putU32(0xdeadbeef);
    w.putU64(0x0123456789abcdefull);
    auto buf = w.take();
    EXPECT_EQ(buf.size(), 1u + 2 + 4 + 8);

    ByteReader r(buf);
    EXPECT_EQ(r.getU8(), 0xab);
    EXPECT_EQ(r.getU16(), 0x1234);
    EXPECT_EQ(r.getU32(), 0xdeadbeefu);
    EXPECT_EQ(r.getU64(), 0x0123456789abcdefull);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, LittleEndianOnTheWire)
{
    ByteWriter w;
    w.putU32(0x11223344);
    auto buf = w.take();
    EXPECT_EQ(buf[0], 0x44);
    EXPECT_EQ(buf[1], 0x33);
    EXPECT_EQ(buf[2], 0x22);
    EXPECT_EQ(buf[3], 0x11);
}

TEST(Bytes, OverflowSetsFlagAndReturnsZero)
{
    std::vector<uint8_t> two = {0xff, 0xff};
    ByteReader r(two);
    EXPECT_EQ(r.getU32(), 0u);
    EXPECT_FALSE(r.ok());
    // Further reads stay zero and harmless.
    EXPECT_EQ(r.getU8(), 0u);
    EXPECT_EQ(r.getU64(), 0u);
}

TEST(Bytes, StringRoundTripWithPadding)
{
    for (const std::string &s :
         {std::string(""), std::string("a"), std::string("abcd"),
          std::string("hello world"), std::string(300, 'x')}) {
        Encoder w;
        w.opaque(s);
        EXPECT_EQ(w.size() % 4, 0u) << "XDR padding violated for len "
                                    << s.size();
        auto buf = w.take();
        Decoder r(buf);
        std::string back;
        r.opaque(back);
        EXPECT_EQ(back, s);
        EXPECT_TRUE(r.ok());
        EXPECT_EQ(r.remaining(), 0u);
    }
}

TEST(Bytes, ViewAndSkip)
{
    ByteWriter w;
    w.putBytes(std::vector<uint8_t>{1, 2, 3, 4, 5, 6});
    auto buf = w.take();
    ByteReader r(buf);
    r.skip(2);
    auto view = r.viewBytes(3);
    ASSERT_EQ(view.size(), 3u);
    EXPECT_EQ(view[0], 3);
    EXPECT_EQ(view[2], 5);
    EXPECT_EQ(r.remaining(), 1u);
}

class BytesRoundTrip : public ::testing::TestWithParam<size_t>
{};

TEST_P(BytesRoundTrip, ArbitraryPayloads)
{
    size_t n = GetParam();
    std::vector<uint8_t> payload(n);
    for (size_t i = 0; i < n; ++i) {
        payload[i] = static_cast<uint8_t>(mix64(i) >> 32);
    }
    ByteWriter w;
    w.putU32(static_cast<uint32_t>(n));
    w.putBytes(payload);
    auto buf = w.take();
    ByteReader r(buf);
    EXPECT_EQ(r.getU32(), n);
    auto view = r.viewBytes(n);
    std::vector<uint8_t> out(view.begin(), view.end());
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(out, payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BytesRoundTrip,
                         ::testing::Values(0, 1, 3, 40, 48, 53, 1024, 8192,
                                           65535));

// ----------------------------------------------------------------------
// Hashing
// ----------------------------------------------------------------------

TEST(Hash, Fnv1aKnownValue)
{
    // FNV-1a 64-bit of empty input is the offset basis.
    EXPECT_EQ(fnv1a(std::string_view("")), 0xcbf29ce484222325ull);
    // And it is stable (the cluster-wide hash contract).
    EXPECT_EQ(fnv1a(std::string_view("remora")),
              fnv1a(std::string_view("remora")));
    EXPECT_NE(fnv1a(std::string_view("remora")),
              fnv1a(std::string_view("remorb")));
}

TEST(Hash, SpanAndStringAgree)
{
    std::string s = "segment-name";
    std::span<const uint8_t> bytes(
        reinterpret_cast<const uint8_t *>(s.data()), s.size());
    EXPECT_EQ(fnv1a(bytes), fnv1a(std::string_view(s)));
}

TEST(Hash, Mix64Scatters)
{
    // Adjacent inputs must land far apart (avalanche sanity).
    uint64_t a = mix64(1), b = mix64(2);
    EXPECT_NE(a, b);
    int differing = __builtin_popcountll(a ^ b);
    EXPECT_GT(differing, 16);
}

// ----------------------------------------------------------------------
// Status / Result
// ----------------------------------------------------------------------

TEST(Status, DefaultIsOk)
{
    Status s;
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::kOk);
    EXPECT_EQ(s.toString(), "ok");
}

TEST(Status, ErrorCarriesCodeAndMessage)
{
    Status s(ErrorCode::kStaleGeneration, "gen 4 != 5");
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::kStaleGeneration);
    EXPECT_EQ(s.toString(), "stale_generation: gen 4 != 5");
}

TEST(Result, ValueAndTake)
{
    Result<std::string> r(std::string("payload"));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), "payload");
    EXPECT_EQ(r.take(), "payload");
}

TEST(Result, ErrorPropagates)
{
    Result<int> r{Status(ErrorCode::kNotFound, "nope")};
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kNotFound);
}

TEST(Status, EveryCodeHasAName)
{
    for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
        EXPECT_STRNE(errorCodeName(static_cast<ErrorCode>(c)), "unknown");
    }
}

// ----------------------------------------------------------------------
// Formatting
// ----------------------------------------------------------------------

TEST(Strings, FormatDuration)
{
    EXPECT_EQ(formatDuration(500), "500 ns");
    EXPECT_EQ(formatDuration(45000), "45.0 us");
    EXPECT_EQ(formatDuration(2500000), "2.50 ms");
    EXPECT_EQ(formatDuration(3000000000ll), "3.000 s");
}

TEST(Strings, FormatBytes)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(4096), "4.0 KB");
    EXPECT_EQ(formatBytes(5ull * 1024 * 1024), "5.0 MB");
}

TEST(Strings, FormatCount)
{
    EXPECT_EQ(formatCount(0), "0");
    EXPECT_EQ(formatCount(999), "999");
    EXPECT_EQ(formatCount(28860744), "28,860,744");
}

TEST(Strings, TextTableAlignsColumns)
{
    TextTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"longer-name", "22"});
    std::string out = t.render();
    // Header, separator, two rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
    // Numeric column right-aligns: "22" ends both data lines.
    EXPECT_NE(out.find(" 1\n"), std::string::npos);
    EXPECT_NE(out.find("22\n"), std::string::npos);
}

// ----------------------------------------------------------------------
// JSON parsing
// ----------------------------------------------------------------------

TEST(JsonValue, ParsesEveryValueKind)
{
    auto r = JsonValue::parse(
        R"({"n":null,"t":true,"f":false,"num":-12.5e1,"s":"hi",)"
        R"("a":[1,2,3],"o":{"k":"v"}})");
    ASSERT_TRUE(r.ok()) << r.status().toString();
    const JsonValue &v = r.value();
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.size(), 7u);
    EXPECT_TRUE(v.find("n")->isNull());
    EXPECT_TRUE(v.find("t")->asBool());
    EXPECT_FALSE(v.find("f")->asBool());
    EXPECT_DOUBLE_EQ(v.find("num")->asNumber(), -125.0);
    EXPECT_EQ(v.find("s")->asString(), "hi");
    ASSERT_TRUE(v.find("a")->isArray());
    ASSERT_EQ(v.find("a")->size(), 3u);
    EXPECT_DOUBLE_EQ(v.find("a")->items()[2].asNumber(), 3.0);
    EXPECT_EQ(v.find("o")->find("k")->asString(), "v");
    EXPECT_EQ(v.find("absent"), nullptr);
    // Document order is preserved for walkers that care.
    EXPECT_EQ(v.members()[0].first, "n");
    EXPECT_EQ(v.members()[6].first, "o");
}

TEST(JsonValue, DecodesEscapes)
{
    auto r = JsonValue::parse(R"("a\"b\\c\n\tAé")");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().asString(), "a\"b\\c\n\tA\xc3\xa9");

    // Surrogate pair: U+1F600 as 😀.
    auto pair = JsonValue::parse(R"("😀")");
    ASSERT_TRUE(pair.ok());
    EXPECT_EQ(pair.value().asString(), "\xf0\x9f\x98\x80");
}

TEST(JsonValue, RejectsMalformedInputWithOffset)
{
    for (const char *bad :
         {"", "{", "[1,]", "{\"k\":}", "tru", "1.2.3", "\"unterminated",
          "{\"a\":1} trailing", "[1 2]", "{\"k\" 1}"}) {
        auto r = JsonValue::parse(bad);
        EXPECT_FALSE(r.ok()) << "accepted: " << bad;
        EXPECT_NE(r.status().toString().find("offset"), std::string::npos)
            << r.status().toString();
    }
}

TEST(JsonValue, RoundTripsJsonWriterOutput)
{
    JsonWriter w;
    w.beginObject()
        .kv("name", "bench \"quoted\"")
        .key("values")
        .beginArray()
        .value(1.5)
        .value(true)
        .endArray()
        .endObject();
    auto r = JsonValue::parse(w.str());
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(r.value().find("name")->asString(), "bench \"quoted\"");
    EXPECT_DOUBLE_EQ(r.value().find("values")->items()[0].asNumber(), 1.5);
    EXPECT_TRUE(r.value().find("values")->items()[1].asBool());
}

// ----------------------------------------------------------------------
// Panic / fatal termination paths
// ----------------------------------------------------------------------

/** A hook that panics: only the reentrancy guard stops the recursion. */
void
reentrantHook()
{
    REMORA_PANIC("hook reentered");
}

TEST(PanicDeathTest, AssertFailurePrintsConditionText)
{
    EXPECT_DEATH(REMORA_ASSERT(2 + 2 == 5),
                 "remora panic: .*test_util.cc.*assertion failed: "
                 "2 \\+ 2 == 5");
}

TEST(PanicDeathTest, PassingAssertIsSilent)
{
    REMORA_ASSERT(2 + 2 == 4);
}

TEST(PanicDeathTest, PanicAborts)
{
    EXPECT_DEATH(REMORA_PANIC("invariant broken"),
                 "remora panic: .*invariant broken");
}

TEST(PanicDeathTest, FatalExitsWithStatusOne)
{
    // fatal() is a configuration error, not a bug: clean exit(1), no
    // core, but the same message shape on stderr.
    EXPECT_EXIT(REMORA_FATAL("impossible topology"),
                ::testing::ExitedWithCode(1),
                "remora fatal: .*impossible topology");
}

TEST(PanicDeathTest, HookFiresAtMostOnce)
{
    // A hook that itself panics would recurse forever without the
    // single-fire guard; the guarded path prints the inner message once
    // and still aborts.
    EXPECT_DEATH(
        {
            setPanicHook(reentrantHook);
            REMORA_PANIC("outer failure");
        },
        "hook reentered");
}

TEST(PanicDeathTest, LogRingFlushesOnPanic)
{
    // Messages captured at ring level (even below the emit level) must
    // appear in the panic output via the Logger-installed hook.
    EXPECT_DEATH(
        {
            sim::Logger::setRingCapacity(16);
            sim::Logger::setRingLevel(sim::LogLevel::kDebug);
            REMORA_LOG(kDebug, "test", "breadcrumb " << 42);
            REMORA_PANIC("with breadcrumbs");
        },
        "breadcrumb 42");
}

} // namespace
} // namespace remora::util
