/**
 * @file
 * Golden bytes: the exact encoding of every remote-memory framing,
 * every cache-area record, the name-registry record, every NFS call and
 * reply body and the Hybrid-1 request/reply headers.
 *
 * Round trips cannot see a layout changed on both sides at once; these
 * literals can. Each case checks the encoder's output against a
 * literal and feeds the literal to the decoder. A failure here means a
 * byte on the wire or in an exported segment moved, which changes what
 * the paper's single-cell budgets and Table 1b byte counts measure.
 */
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "cluster_fixture.h"
#include "dfs/backend.h"
#include "dfs/cache_layout.h"
#include "dfs/server.h"
#include "names/name_record.h"
#include "rmem/protocol.h"
#include "rpc/hybrid1.h"

namespace remora {
namespace {

using test::runToCompletion;
using test::TwoNodeCluster;

std::string
hex(std::span<const uint8_t> bytes)
{
    static const char *digits = "0123456789abcdef";
    std::string out;
    for (uint8_t b : bytes) {
        out.push_back(digits[b >> 4]);
        out.push_back(digits[b & 0x0f]);
    }
    return out;
}

/** Parse hex digits, skipping anything else (spaces, separators). */
std::vector<uint8_t>
unhex(std::string_view text)
{
    std::vector<uint8_t> out;
    int high = -1;
    for (char c : text) {
        int v = c >= '0' && c <= '9'   ? c - '0'
                : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                       : -1;
        if (v < 0) {
            continue;
        }
        if (high < 0) {
            high = v;
        } else {
            out.push_back(static_cast<uint8_t>(high << 4 | v));
            high = -1;
        }
    }
    return out;
}

/** Compare @p bytes with the literal @p golden (spaces ignored). */
void
expectGolden(std::span<const uint8_t> bytes, std::string_view golden,
             const char *what)
{
    EXPECT_EQ(hex(bytes), hex(unhex(golden))) << what;
}

// ----------------------------------------------------------------------
// Remote-memory framings
// ----------------------------------------------------------------------

/** Encode @p msg, pin it, then decode the literal and re-encode it. */
void
expectFraming(const rmem::Message &msg, std::string_view golden,
              const char *what)
{
    expectGolden(rmem::encodeMessage(msg), golden, what);
    std::vector<uint8_t> bytes = unhex(golden);
    size_t consumed = 0;
    auto decoded = rmem::decodeMessage(bytes, &consumed);
    ASSERT_TRUE(decoded.ok()) << what << ": " << decoded.status().toString();
    EXPECT_EQ(consumed, bytes.size()) << what;
    EXPECT_EQ(rmem::messageType(decoded.value()), rmem::messageType(msg))
        << what;
    expectGolden(rmem::encodeMessage(decoded.value()), golden, what);
}

TEST(GoldenBytes, WriteFramings)
{
    rmem::WriteReq small;
    small.descriptor = 12;
    small.generation = 999;
    small.offset = 0x00abcdef;
    small.notify = true;
    small.data = {1, 2, 3, 4, 5};
    expectFraming(rmem::Message(small),
                  "11 0c e703 efcdab 05 0102030405", "write_small");

    rmem::WriteReq block;
    block.descriptor = 200;
    block.generation = 0xfffe;
    block.offset = 0x01000000;
    block.notify = true;
    block.data = {0x5c, 0x5d, 0x5e};
    expectFraming(rmem::Message(block),
                  "12 c8 feff 00000001 0300 5c5d5e", "write_block");

    rmem::WriteReq big;
    big.descriptor = 1;
    big.generation = 2;
    big.offset = 3;
    big.data.assign(41, 0xab);
    expectFraming(rmem::Message(big),
                  "02 01 0200 03000000 2900"
                  "abababababababababababababababababababab"
                  "abababababababababababababababababababab"
                  "ab",
                  "write_block by size");
}

TEST(GoldenBytes, ReadAndCasFramings)
{
    rmem::ReadReq rr;
    rr.srcDescriptor = 3;
    rr.generation = 17;
    rr.srcOffset = 0xdeadbe00;
    rr.dstDescriptor = 5;
    rr.dstOffset = 0x00c0ffee;
    rr.count = 4096;
    rr.reqId = 0xabcd;
    rr.notify = true;
    expectFraming(rmem::Message(rr),
                  "13 03 1100 00beadde 05 eeffc000 0010 cdab", "read_req");

    rmem::ReadResp resp;
    resp.reqId = 0x1234;
    resp.status = util::ErrorCode::kNotFound;
    resp.data = {9, 8, 7};
    expectFraming(rmem::Message(resp), "04 3412 06 0300 090807",
                  "read_resp");

    rmem::CasReq cas;
    cas.descriptor = 9;
    cas.generation = 0x0102;
    cas.offset = 0x40;
    cas.oldValue = 0x11111111;
    cas.newValue = 0x22222222;
    cas.resultDescriptor = 4;
    cas.resultOffset = 0x80;
    cas.reqId = 0x5566;
    cas.notify = true;
    expectFraming(rmem::Message(cas),
                  "15 09 0201 40000000 11111111 22222222 04 80000000 6655",
                  "cas_req");

    rmem::CasResp cr;
    cr.reqId = 0x5566;
    cr.success = true;
    cr.observed = 0xcafef00d;
    expectFraming(rmem::Message(cr), "06 6655 01 0df0feca", "cas_resp");
}

TEST(GoldenBytes, NakRpcSeqAckFramings)
{
    rmem::Nak nak;
    nak.reqId = 0x0102;
    nak.error = util::ErrorCode::kStaleGeneration;
    nak.originalType = rmem::MsgType::kCasReq;
    expectFraming(rmem::Message(nak), "07 0201 02 05", "nak");

    rmem::RpcMsg call;
    call.xid = 0x01020304;
    call.isResponse = false;
    call.body = {0xaa, 0xbb};
    expectFraming(rmem::Message(call), "08 04030201 02000000 aabb",
                  "rpc call");
    rmem::RpcMsg reply = call;
    reply.isResponse = true;
    expectFraming(rmem::Message(reply), "28 04030201 02000000 aabb",
                  "rpc reply");

    rmem::SeqMsg seq;
    seq.seq = 77;
    seq.innerCrc = 0x89abcdef;
    seq.lastFrag = 0;
    seq.inner = {0x01, 0x02, 0x03};
    expectFraming(rmem::Message(seq),
                  "0b 4d000000 efcdab89 00 03000000 010203", "seq_data");

    rmem::AckMsg ack;
    ack.cumSeq = 77;
    expectFraming(rmem::Message(ack), "0c 4d000000 fc5f3a48", "ack");
}

TEST(GoldenBytes, VectorFramingsCarryAllThreeKinds)
{
    rmem::VectorReq req;
    req.reqId = 0x1234;
    rmem::VectorSubOp w;
    w.kind = rmem::VecOpKind::kWrite;
    w.descriptor = 3;
    w.generation = 4;
    w.offset = 0x10;
    w.notify = true;
    w.data = {1, 2, 3};
    rmem::VectorSubOp r;
    r.kind = rmem::VecOpKind::kRead;
    r.descriptor = 5;
    r.generation = 6;
    r.offset = 0x20;
    r.count = 48;
    rmem::VectorSubOp c;
    c.kind = rmem::VecOpKind::kCas;
    c.descriptor = 7;
    c.generation = 8;
    c.offset = 0x30;
    c.oldValue = 1;
    c.newValue = 2;
    req.ops = {w, r, c};
    expectFraming(rmem::Message(req),
                  "09 3412 03"
                  " 80 03 0400 10000000 0300 010203"
                  " 01 05 0600 20000000 3000"
                  " 02 07 0800 30000000 01000000 02000000",
                  "vector_op");

    rmem::VectorResp resp;
    resp.reqId = 0x1234;
    rmem::VectorSubResult wr;
    wr.kind = rmem::VecOpKind::kWrite;
    wr.status = util::ErrorCode::kAccessDenied;
    rmem::VectorSubResult rd;
    rd.kind = rmem::VecOpKind::kRead;
    rd.data = {4, 5};
    rmem::VectorSubResult cs;
    cs.kind = rmem::VecOpKind::kCas;
    cs.success = true;
    cs.observed = 9;
    resp.results = {wr, rd, cs};
    expectFraming(rmem::Message(resp),
                  "0a 3412 03 04 00 00 01 0200 0405 00 82 09000000",
                  "vector_resp");
}

/** Decode @p golden, expect kMalformed after exactly @p consumed bytes. */
void
expectMalformed(std::string_view golden, size_t consumed, const char *what)
{
    std::vector<uint8_t> bytes = unhex(golden);
    size_t got = 12345;
    auto decoded = rmem::decodeMessage(bytes, &got);
    ASSERT_FALSE(decoded.ok()) << what;
    EXPECT_EQ(decoded.status().code(), util::ErrorCode::kMalformed) << what;
    EXPECT_EQ(got, consumed) << what;
}

TEST(GoldenBytes, MalformedConsumedIsPinned)
{
    expectMalformed("0f 010203", 1, "unknown type");
    expectMalformed("", 0, "empty input");
    // A vector sub-op kind of 3 stops the decode right after the kind byte.
    expectMalformed("09 3412 01 03 05 0600 20000000 3000", 5,
                    "vector kind byte > 2");
    expectMalformed("0a 3412 01 00 03", 6, "vector result kind byte > 2");
    expectMalformed("09 3412 00", 4, "vector with no sub-ops");
    // The guard covers cumSeq; a flipped bit is refused after both words.
    expectMalformed("0c 4d000000 fc5f3a49", 9, "bad ack guard");
    // Truncation consumes the whole input.
    expectMalformed("13 03 1100 00beadde 05", 9, "truncated read_req");
    expectMalformed("01 0c e703 efcdab 05 0102", 10, "short small write");
}

// ----------------------------------------------------------------------
// Cache-area records and the name-registry record
// ----------------------------------------------------------------------

/** Encode @p rec over a dirty buffer, pin it, decode and re-encode. */
template <typename Rec>
void
expectRecord(const Rec &rec, uint32_t bytes, std::string_view golden,
             const char *what)
{
    std::vector<uint8_t> buf(bytes, 0xee);
    rec.encode(buf);
    expectGolden(buf, golden, what);
    std::vector<uint8_t> lit = unhex(golden);
    ASSERT_EQ(lit.size(), bytes) << what;
    Rec back = Rec::decode(lit);
    std::vector<uint8_t> again(bytes, 0xee);
    back.encode(again);
    expectGolden(again, golden, what);
}

dfs::FileAttr
sampleAttr()
{
    dfs::FileAttr a;
    a.type = dfs::FileType::kDirectory;
    a.mode = 0755;
    a.nlink = 2;
    a.uid = 100;
    a.gid = 20;
    a.size = 0x0102030405;
    a.bytesUsed = 8192;
    a.fileid = 42;
    a.atime = 7;
    a.mtime = 8;
    a.ctime = 9;
    return a;
}

/** The 56-byte attribute block every layout below embeds. */
constexpr std::string_view kAttrHex =
    "02000000 ed010000 02000000 64000000 14000000"
    " 0504030201000000 0020000000000000 2a00000000000000"
    " 07000000 08000000 09000000";

TEST(GoldenBytes, CacheRecords)
{
    dfs::AttrRecord attr;
    attr.flag = dfs::kSlotValid;
    attr.fhKey = 0x1122334455667788ull;
    attr.attr = sampleAttr();
    expectRecord(attr, dfs::kAttrRecBytes,
                 std::string("01000000 00000000 8877665544332211") +
                     std::string(kAttrHex) + " 0000000000000000",
                 "attr record");

    dfs::NameLookupRecord name;
    name.flag = dfs::kSlotValid;
    name.dirKey = 11;
    name.childKey = 22;
    name.childAttr = sampleAttr();
    name.name = "report.txt";
    expectRecord(name, dfs::kNameRecBytes,
                 std::string("01000000 00000000 0b00000000000000"
                             " 1600000000000000") +
                     std::string(kAttrHex) + " 0a 7265706f72742e747874" +
                     std::string(2 * (160 - 91), '0'),
                 "name lookup record");

    dfs::DataSlotHeader data;
    data.flag = dfs::kSlotValid;
    data.dirty = 1;
    data.fhKey = 0x0000000500000001ull;
    data.blockNo = 3;
    data.validBytes = 8000;
    expectRecord(data, dfs::kDataHeaderBytes,
                 "01000000 01000000 0100000005000000 0300000000000000"
                 " 401f0000 00000000",
                 "data slot header");

    dfs::DirSlotHeader dir;
    dir.flag = dfs::kSlotValid;
    dir.dirKey = 0x77;
    dir.bytes = 300;
    dir.entryCount = 12;
    expectRecord(dir, dfs::kDirHeaderBytes,
                 "01000000 00000000 7700000000000000 2c010000 0c000000"
                 " 0000000000000000",
                 "dir slot header");

    dfs::LinkRecord link;
    link.flag = dfs::kSlotValid;
    link.fhKey = 0x99;
    link.target = "docs/a";
    expectRecord(link, dfs::kLinkRecBytes,
                 "01000000 9900000000000000 06000000 646f63732f61" +
                     std::string(2 * (128 - 22), '0'),
                 "link record");

    dfs::StatRecord stat;
    stat.flag = dfs::kSlotValid;
    stat.stat.totalBytes = 1000;
    stat.stat.freeBytes = 600;
    stat.stat.totalFiles = 42;
    stat.stat.blockSize = 8192;
    expectRecord(stat, dfs::kStatRecBytes,
                 "01000000 00000000 e803000000000000 5802000000000000"
                 " 2a00000000000000 00200000" +
                     std::string(2 * (64 - 36), '0'),
                 "stat record");
}

TEST(GoldenBytes, NameRegistryRecord)
{
    names::NameRecord rec;
    rec.flag = names::RecordFlag::kValid;
    rec.node = 3;
    rec.descriptor = 9;
    rec.rights = rmem::Rights::kRead | rmem::Rights::kWrite;
    rec.generation = 0x0102;
    rec.size = 4096;
    rec.name = "db.index";
    // flag, node, descriptor, rights, generation, pad, size, name hash,
    // then the name NUL-padded to 40 bytes.
    std::string golden = "01000000 0300 09 03 0201 0000 00100000"
                         " 5df477db7767145a 64622e696e646578" +
                         std::string(2 * 32, '0');
    expectRecord(rec, names::NameRecord::kBytes, golden, "name record");
    EXPECT_EQ(names::NameRecord::nameHashOf("db.index"),
              0x5a146777db77f45dull);
}

// ----------------------------------------------------------------------
// NFS call and reply bodies
// ----------------------------------------------------------------------

// The store below: root (0,1), docs (1,1), docs/a.txt (2,1) of 10 bytes,
// and the symlink cur -> docs/a.txt (3,1). A file handle is 32 opaque
// bytes: inode, generation, 24 zeros.
constexpr std::string_view kZeros24 =
    "000000000000000000000000000000000000000000000000";

std::string
fhHex(uint32_t inode)
{
    return hex(std::vector<uint8_t>{static_cast<uint8_t>(inode), 0, 0, 0, 1,
                                    0, 0, 0}) +
           std::string(kZeros24);
}

/** One procedure's call body and the server's reply to it. */
struct NfsCase
{
    const char *what;
    std::string call;
    std::string reply;
};

std::vector<NfsCase>
nfsCases()
{
    // Attributes of docs/a.txt: regular, 0644, size 10, one block used,
    // fileid 2, then atime, mtime, ctime.
    auto fileAttr = [](uint32_t mtime) {
        auto le32 = [](uint32_t v) {
            return hex(std::vector<uint8_t>{
                static_cast<uint8_t>(v), static_cast<uint8_t>(v >> 8),
                static_cast<uint8_t>(v >> 16), static_cast<uint8_t>(v >> 24)});
        };
        return std::string("01000000 a4010000 01000000 00000000 00000000"
                           " 0a00000000000000 0020000000000000"
                           " 0200000000000000 ") +
               le32(1000003) + le32(mtime) + le32(1000003);
    };
    const std::string ok = "00000000";
    return {
        {"null", "00000000", ok},
        {"getattr", "01000000" + fhHex(2), ok + fileAttr(1000003)},
        {"getattr missing", "01000000" + fhHex(9), "01000000"},
        {"lookup", "04000000" + fhHex(1) + "05000000 612e747874000000",
         ok + fhHex(2) + fileAttr(1000003)},
        {"readlink", "05000000" + fhHex(3),
         ok + "0a000000 646f63732f612e7478740000"},
        {"read", "06000000" + fhHex(2) + "0200000000000000 06000000",
         ok + fileAttr(1000003) + "06000000 d70f4f4c6864 0000"},
        {"write",
         "08000000" + fhHex(2) + "0400000000000000 03000000 deadbe00",
         ok + fileAttr(1000007)},
        {"readdir", "10000000" + fhHex(1) + "40000000",
         ok + "03000000"
              " 0100000000000000 01000000 2e000000"
              " 0000000000000000 02000000 2e2e0000"
              " 0200000000000000 05000000 612e747874000000"},
        {"statfs", "11000000" + std::string(64, '0'),
         ok + "0000008000000000 f6ffff7f00000000 0400000000000000"
              " 00200000"},
        {"unknown proc", "63000000", "0b000000"},
    };
}

struct NfsStore
{
    dfs::FileStore store;

    NfsStore()
    {
        auto dir = store.mkdir(store.root(), "docs");
        EXPECT_TRUE(dir.ok());
        EXPECT_TRUE(store.createFile(dir.value(), "a.txt", 10).ok());
        EXPECT_TRUE(store.symlink(store.root(), "cur", "docs/a.txt").ok());
    }
};

TEST(GoldenBytes, NfsServerParsesCallsAndWritesReplies)
{
    TwoNodeCluster cluster;
    NfsStore s;
    dfs::FileServer server(cluster.engineB, s.store);
    for (const NfsCase &c : nfsCases()) {
        auto t = server.handleBody(1, unhex(c.call));
        std::vector<uint8_t> reply = runToCompletion(cluster.sim, t);
        expectGolden(reply, c.reply, c.what);
    }
}

/** A marshaled backend whose transport records the call and replays. */
class RecordingBackend : public dfs::MarshaledBackend
{
  public:
    std::vector<uint8_t> sent;
    std::vector<uint8_t> reply;

    const char *name() const override { return "recording"; }

  protected:
    sim::Task<util::Result<std::vector<uint8_t>>>
    call(std::vector<uint8_t> body) override
    {
        sent = std::move(body);
        co_return reply;
    }
};

TEST(GoldenBytes, NfsClientWritesCallsAndParsesReplies)
{
    sim::Simulator sim;
    RecordingBackend b;
    std::vector<NfsCase> cases = nfsCases();
    auto use = [&](size_t i) -> const NfsCase & {
        b.reply = unhex(cases[i].reply);
        return cases[i];
    };
    dfs::FileHandle dir{1, 1};
    dfs::FileHandle file{2, 1};
    dfs::FileHandle link{3, 1};

    const NfsCase *c = &use(0);
    {
        auto t = b.null();
        EXPECT_TRUE(runToCompletion(sim, t).ok());
        expectGolden(b.sent, c->call, c->what);
    }
    c = &use(1);
    {
        auto t = b.getattr(file);
        auto got = runToCompletion(sim, t);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got.value().size, 10u);
        EXPECT_EQ(got.value().fileid, 2u);
        expectGolden(b.sent, c->call, c->what);
    }
    c = &use(2);
    {
        auto t = b.getattr(dfs::FileHandle{9, 1});
        auto got = runToCompletion(sim, t);
        EXPECT_EQ(got.status().code(), util::ErrorCode::kBadDescriptor);
        expectGolden(b.sent, c->call, c->what);
    }
    c = &use(3);
    {
        auto t = b.lookup(dir, "a.txt");
        auto got = runToCompletion(sim, t);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got.value().fh, file);
        EXPECT_EQ(got.value().attr.size, 10u);
        expectGolden(b.sent, c->call, c->what);
    }
    c = &use(4);
    {
        auto t = b.readlink(link);
        auto got = runToCompletion(sim, t);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got.value(), "docs/a.txt");
        expectGolden(b.sent, c->call, c->what);
    }
    c = &use(5);
    {
        auto t = b.read(file, 2, 6);
        auto got = runToCompletion(sim, t);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got.value(),
                  (std::vector<uint8_t>{0xd7, 0x0f, 0x4f, 0x4c, 0x68, 0x64}));
        expectGolden(b.sent, c->call, c->what);
    }
    c = &use(6);
    {
        auto t = b.write(file, 4, {0xde, 0xad, 0xbe});
        EXPECT_TRUE(runToCompletion(sim, t).ok());
        expectGolden(b.sent, c->call, c->what);
    }
    c = &use(7);
    {
        auto t = b.readdir(dir, 64);
        auto got = runToCompletion(sim, t);
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(got.value().size(), 3u);
        EXPECT_EQ(got.value()[1].name, "..");
        EXPECT_EQ(got.value()[2].name, "a.txt");
        EXPECT_EQ(got.value()[2].fileid, 2u);
        expectGolden(b.sent, c->call, c->what);
    }
    c = &use(8);
    {
        auto t = b.statfs();
        auto got = runToCompletion(sim, t);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got.value().blockSize, dfs::kBlockBytes);
        expectGolden(b.sent, c->call, c->what);
    }
}

// ----------------------------------------------------------------------
// Hybrid-1 request and reply headers
// ----------------------------------------------------------------------

std::vector<uint8_t>
le(uint64_t v, int bytes)
{
    std::vector<uint8_t> out;
    for (int i = 0; i < bytes; ++i) {
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
    return out;
}

TEST(GoldenBytes, Hybrid1ServerParsesRequestAndWritesReplyHeader)
{
    TwoNodeCluster cluster;
    mem::Process &serverProc = cluster.nodeB.spawnProcess("server");
    rpc::Hybrid1Server server(cluster.engineB, serverProc);
    server.setHandler(
        [](net::NodeId, std::vector<uint8_t> args)
            -> sim::Task<std::vector<uint8_t>> {
            std::reverse(args.begin(), args.end());
            co_return args;
        });
    server.start();
    ASSERT_EQ(server.allocSlot(), 0u);

    // A hand-built client: its reply segment and request record.
    mem::Process &client = cluster.nodeA.spawnProcess("client");
    mem::Vaddr replyBase = client.space().allocRegion(4096);
    auto reply = cluster.engineA.exportSegment(
        client, replyBase, 4096, rmem::Rights::kWrite,
        rmem::NotifyPolicy::kNever, "golden.reply");
    ASSERT_TRUE(reply.ok());
    // seq(4) argLen(4) replyDesc(1) pad(1) replyGen(2) replySize(4) args
    std::vector<uint8_t> request = unhex("07000000 03000000");
    request.push_back(reply.value().descriptor);
    request.push_back(0);
    for (uint8_t b : le(reply.value().generation, 2)) {
        request.push_back(b);
    }
    for (uint8_t b : le(reply.value().size, 4)) {
        request.push_back(b);
    }
    for (uint8_t b : unhex("a1a2a3")) {
        request.push_back(b);
    }
    auto w = cluster.engineA.write(server.requestSegmentHandle(), 0, request,
                                   true);
    EXPECT_TRUE(runToCompletion(cluster.sim, w).ok());
    cluster.sim.run();
    EXPECT_EQ(server.served(), 1u);

    // seq(4) status(4) len(4) results
    std::vector<uint8_t> got(15);
    ASSERT_TRUE(client.space().read(replyBase, got).ok());
    expectGolden(got, "07000000 00000000 03000000 a3a2a1", "hy reply");
}

TEST(GoldenBytes, Hybrid1ClientWritesRequestAndParsesReplyHeader)
{
    TwoNodeCluster cluster;
    // A hand-built server: a request segment nobody serves.
    mem::Process &serverProc = cluster.nodeB.spawnProcess("server");
    mem::Vaddr reqBase = serverProc.space().allocRegion(4096);
    auto seg = cluster.engineB.exportSegment(
        serverProc, reqBase, 4096, rmem::Rights::kWrite | rmem::Rights::kRead,
        rmem::NotifyPolicy::kNever, "golden.requests");
    ASSERT_TRUE(seg.ok());

    mem::Process &clientProc = cluster.nodeA.spawnProcess("client");
    rpc::Hybrid1Client client(cluster.engineA, clientProc, seg.value(), 0);
    auto call = client.call({0xb1, 0xb2});
    for (;;) {
        auto word = serverProc.space().readWord(reqBase);
        ASSERT_TRUE(word.ok());
        if (word.value() == 1 || !cluster.sim.step()) {
            break;
        }
    }
    std::vector<uint8_t> request(18);
    ASSERT_TRUE(serverProc.space().read(reqBase, request).ok());
    expectGolden(request, "01000000 02000000 00 00 0100 00400000 b1b2",
                 "hy request");

    // Reply into the coordinates the request named.
    rmem::ImportedSegment replySeg;
    replySeg.node = 1;
    replySeg.descriptor = request[8];
    replySeg.generation = static_cast<rmem::Generation>(request[10] |
                                                        request[11] << 8);
    replySeg.size = 16384;
    replySeg.rights = rmem::Rights::kWrite;
    auto w = cluster.engineB.write(replySeg, 0,
                                   unhex("01000000 00000000 02000000 c1c2"));
    EXPECT_TRUE(runToCompletion(cluster.sim, w).ok());
    auto got = runToCompletion(cluster.sim, call);
    ASSERT_TRUE(got.ok()) << got.status().toString();
    EXPECT_EQ(got.value(), (std::vector<uint8_t>{0xc1, 0xc2}));
}

} // namespace
} // namespace remora
