/**
 * @file
 * Wire protocol of the remote-memory kernel layer.
 *
 * Messages small enough for one cell travel as *raw cells* (PTI bit 1
 * set, payload parsed directly), exactly as the FORE driver sent
 * single-cell requests; larger messages travel as AAL5 frames. The
 * formats are sized so the paper's single-cell properties hold:
 *
 *   small WRITE : 8-byte header + up to 40 data bytes = one cell
 *   READ request: 17 bytes                            = one cell
 *   small READ response: 6-byte header + 40 data      = one cell
 *   CAS request/response                              = one cell
 *
 * The small-write offset field is 24 bits (segments addressed by
 * single-cell writes are limited to 16 MB at offsets above that, use
 * block writes, whose offset is 32 bits).
 *
 * The RPC baseline shares this envelope (kRpc) so both communication
 * models run over an identical substrate.
 */
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "rmem/segment.h"
#include "rmem/vector_op.h"
#include "util/status.h"

namespace remora::rmem {

/** First-octet message discriminator (low nibble). */
enum class MsgType : uint8_t
{
    kWriteSmall = 1,
    kWriteBlock = 2,
    kReadReq = 3,
    kReadResp = 4,
    kCasReq = 5,
    kCasResp = 6,
    kNak = 7,
    kRpc = 8,
    kVectorOp = 9,
    kVectorResp = 10,
    kSeqData = 11,
    kAck = 12,
};

/** Maximum data bytes in a single-cell (small) write. */
inline constexpr size_t kSmallWriteMax = 40;

/** Maximum data bytes per block-write / read-response frame. */
inline constexpr size_t kBlockDataMax = 60000;

/** Request id used to match read/CAS responses to pending state. */
using ReqId = uint16_t;

/** WRITE: deposit data at (descriptor, offset) on the destination. */
struct WriteReq
{
    SegmentId descriptor = 0;
    Generation generation = 0;
    uint32_t offset = 0;
    bool notify = false;
    std::vector<uint8_t> data;
};

/** READ: ask for count bytes at (rs, soff); deposit at local (rd, doff). */
struct ReadReq
{
    SegmentId srcDescriptor = 0;
    Generation generation = 0;
    uint32_t srcOffset = 0;
    /** Requester-side destination descriptor (echoed meaninglessly). */
    SegmentId dstDescriptor = 0;
    uint32_t dstOffset = 0;
    uint16_t count = 0;
    ReqId reqId = 0;
    bool notify = false;
};

/** Response carrying read data (status kOk) or nothing. */
struct ReadResp
{
    ReqId reqId = 0;
    util::ErrorCode status = util::ErrorCode::kOk;
    std::vector<uint8_t> data;
};

/** CAS: atomically compare-and-swap a word at (descriptor, offset). */
struct CasReq
{
    SegmentId descriptor = 0;
    Generation generation = 0;
    uint32_t offset = 0;
    uint32_t oldValue = 0;
    uint32_t newValue = 0;
    /** Local segment/offset where the result word is deposited. */
    SegmentId resultDescriptor = 0;
    uint32_t resultOffset = 0;
    ReqId reqId = 0;
    bool notify = false;
};

/** CAS outcome: whether the swap happened and the value observed. */
struct CasResp
{
    ReqId reqId = 0;
    bool success = false;
    uint32_t observed = 0;
};

/** Negative acknowledgement for a rejected request. */
struct Nak
{
    ReqId reqId = 0; // zero when the rejected request had no id (writes)
    util::ErrorCode error = util::ErrorCode::kInternal;
    MsgType originalType = MsgType::kNak;
};

/** Envelope for the RPC baseline's packets. */
struct RpcMsg
{
    uint32_t xid = 0;
    bool isResponse = false;
    std::vector<uint8_t> body;
};

/**
 * Reliability envelope (Wire::enableReliability): one fragment of an
 * inner encoded message, sequenced per (sender, receiver) pair. Large
 * inner messages are split across consecutive envelopes
 * (kMaxFragmentBytes in wire.cc) so the retransmission unit
 * stays a handful of cells — a single lost cell must not force a
 * multi-hundred-cell frame to be resent whole, or a lossy link could
 * never deliver it. The inner CRC covers raw single-cell messages too,
 * which AAL5's frame CRC never sees — a corrupt envelope is dropped
 * and recovered by retransmission.
 */
struct SeqMsg
{
    uint32_t seq = 0;
    /** CRC-32 over seq||lastFrag||inner (seq as 4 LE bytes), so a
     *  flipped seq or fragment bit cannot reposition the envelope in
     *  the stream or splice two messages together. */
    uint32_t innerCrc = 0;
    /** 1 when this envelope completes an inner message; 0 when more
     *  fragments follow on subsequent sequence numbers. */
    uint8_t lastFrag = 1;
    std::vector<uint8_t> inner;
};

/**
 * Cumulative acknowledgement: every seq <= cumSeq was delivered. The
 * encoding appends a guard CRC over cumSeq — acks ride raw cells with
 * no AAL5 CRC, and a corrupt cumSeq must fail decode rather than
 * silently retire undelivered envelopes.
 */
struct AckMsg
{
    uint32_t cumSeq = 0;
};

/** Any wire message. */
using Message = std::variant<WriteReq, ReadReq, ReadResp, CasReq, CasResp,
                             Nak, RpcMsg, VectorReq, VectorResp, SeqMsg,
                             AckMsg>;

/** The discriminator a Message encodes as. */
MsgType messageType(const Message &msg);

/** Human-readable name of a message type ("write_small", "read_req"...). */
const char *msgTypeName(MsgType type);

/** Serialize @p msg to wire bytes. */
std::vector<uint8_t> encodeMessage(const Message &msg);

/**
 * Parse wire bytes (raw-cell payload or reassembled frame).
 *
 * @param bytes Encoded message, possibly followed by padding.
 * @param consumed When non-null, receives the number of meaningful
 *        bytes (the receive path charges PIO for only these on the
 *        register-sourced small-message path).
 * @return The message, or kMalformed for truncated/unknown input.
 */
util::Result<Message> decodeMessage(std::span<const uint8_t> bytes,
                                    size_t *consumed = nullptr);

} // namespace remora::rmem
