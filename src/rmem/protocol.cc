#include "rmem/protocol.h"

#include "util/bytes.h"
#include "util/crc.h"
#include "util/panic.h"

namespace remora::rmem {

namespace {

/** The first octet: the type in the low nibble, flags in the high. */
constexpr uint8_t kTypeMask = 0x0f;
constexpr uint8_t kFlagNotify = 0x10;
constexpr uint8_t kFlagRpcResponse = 0x20;

/** A vector sub-op's kind octet: the kind, plus notify/success on top. */
constexpr uint8_t kKindMask = 0x03;
constexpr uint8_t kKindFlag = 0x80;

/** The framing a write takes: one cell when data and offset allow. */
MsgType
writeFraming(const WriteReq &m)
{
    return m.data.size() <= kSmallWriteMax && m.offset < (1u << 24)
               ? MsgType::kWriteSmall
               : MsgType::kWriteBlock;
}

/**
 * An ack's guard word: CRC-32 over cumSeq. An ack often rides a raw
 * single cell, which has no AAL5 CRC; the guard makes a flipped cumSeq
 * bit a decode error instead of a silent retirement of undelivered
 * envelopes.
 */
uint32_t
ackGuard(uint32_t cumSeq)
{
    uint8_t seqBytes[4] = {
        static_cast<uint8_t>(cumSeq),
        static_cast<uint8_t>(cumSeq >> 8),
        static_cast<uint8_t>(cumSeq >> 16),
        static_cast<uint8_t>(cumSeq >> 24),
    };
    return util::crc32Ieee(seqBytes);
}

/** A first octet that carries a flag. */
template <class IO, class Flag>
void
head(IO &io, MsgType type, Flag &flag, uint8_t flagBit)
{
    io.bits(type, kTypeMask, flag, flagBit);
}

/** A first octet with no flag. */
template <class IO>
void
head(IO &io, MsgType type)
{
    io.u8(type);
}

} // namespace

// ----------------------------------------------------------------------
// Field lists: each framing's layout, written once for both directions
// ----------------------------------------------------------------------

template <class IO, util::FieldsOf<WriteReq> M>
void
fields(IO &io, M &m)
{
    // Encoding picks the framing from the request; decoding overwrites
    // this default with the framing named on the wire.
    MsgType type = writeFraming(m);
    io.bits(type, kTypeMask, m.notify, kFlagNotify);
    io.u8(m.descriptor);
    io.u16(m.generation);
    if (type == MsgType::kWriteSmall) {
        io.u24(m.offset);
        io.bytes8(m.data);
    } else {
        io.u32(m.offset);
        io.bytes16(m.data);
    }
}

template <class IO, util::FieldsOf<ReadReq> M>
void
fields(IO &io, M &m)
{
    head(io, MsgType::kReadReq, m.notify, kFlagNotify);
    io.u8(m.srcDescriptor);
    io.u16(m.generation);
    io.u32(m.srcOffset);
    io.u8(m.dstDescriptor);
    io.u32(m.dstOffset);
    io.u16(m.count);
    io.u16(m.reqId);
}

template <class IO, util::FieldsOf<ReadResp> M>
void
fields(IO &io, M &m)
{
    head(io, MsgType::kReadResp);
    io.u16(m.reqId);
    io.u8(m.status);
    io.bytes16(m.data);
}

template <class IO, util::FieldsOf<CasReq> M>
void
fields(IO &io, M &m)
{
    head(io, MsgType::kCasReq, m.notify, kFlagNotify);
    io.u8(m.descriptor);
    io.u16(m.generation);
    io.u32(m.offset);
    io.u32(m.oldValue);
    io.u32(m.newValue);
    io.u8(m.resultDescriptor);
    io.u32(m.resultOffset);
    io.u16(m.reqId);
}

template <class IO, util::FieldsOf<CasResp> M>
void
fields(IO &io, M &m)
{
    head(io, MsgType::kCasResp);
    io.u16(m.reqId);
    io.u8(m.success);
    io.u32(m.observed);
}

template <class IO, util::FieldsOf<Nak> M>
void
fields(IO &io, M &m)
{
    head(io, MsgType::kNak);
    io.u16(m.reqId);
    io.u8(m.error);
    io.u8(m.originalType);
}

template <class IO, util::FieldsOf<RpcMsg> M>
void
fields(IO &io, M &m)
{
    head(io, MsgType::kRpc, m.isResponse, kFlagRpcResponse);
    io.u32(m.xid);
    io.bytes32(m.body);
}

template <class IO, util::FieldsOf<VectorSubOp> M>
void
fields(IO &io, M &op)
{
    io.bits(op.kind, kKindMask, op.notify, kKindFlag);
    io.check(op.kind <= VecOpKind::kCas);
    io.u8(op.descriptor);
    io.u16(op.generation);
    io.u32(op.offset);
    switch (op.kind) {
      case VecOpKind::kWrite:
        io.bytes16(op.data);
        break;
      case VecOpKind::kRead:
        io.u16(op.count);
        break;
      case VecOpKind::kCas:
        io.u32(op.oldValue);
        io.u32(op.newValue);
        break;
    }
}

template <class IO, util::FieldsOf<VectorReq> M>
void
fields(IO &io, M &m)
{
    head(io, MsgType::kVectorOp);
    io.u16(m.reqId);
    io.count8(m.ops);
    io.check(!m.ops.empty() && m.ops.size() <= kMaxVectorOps);
    for (auto &op : m.ops) {
        fields(io, op);
    }
}

template <class IO, util::FieldsOf<VectorSubResult> M>
void
fields(IO &io, M &res)
{
    io.u8(res.status);
    io.bits(res.kind, kKindMask, res.success, kKindFlag);
    io.check(res.kind <= VecOpKind::kCas);
    switch (res.kind) {
      case VecOpKind::kWrite:
        break;
      case VecOpKind::kRead:
        io.bytes16(res.data);
        break;
      case VecOpKind::kCas:
        io.u32(res.observed);
        break;
    }
}

template <class IO, util::FieldsOf<VectorResp> M>
void
fields(IO &io, M &m)
{
    head(io, MsgType::kVectorResp);
    io.u16(m.reqId);
    io.count8(m.results);
    io.check(m.results.size() <= kMaxVectorOps);
    for (auto &res : m.results) {
        fields(io, res);
    }
}

template <class IO, util::FieldsOf<SeqMsg> M>
void
fields(IO &io, M &m)
{
    head(io, MsgType::kSeqData);
    io.u32(m.seq);
    io.u32(m.innerCrc);
    io.u8(m.lastFrag);
    io.bytes32(m.inner);
}

template <class IO, util::FieldsOf<AckMsg> M>
void
fields(IO &io, M &m)
{
    head(io, MsgType::kAck);
    io.u32(m.cumSeq);
    uint32_t guard = ackGuard(m.cumSeq);
    io.u32(guard);
    io.check(guard == ackGuard(m.cumSeq), "ack guard CRC mismatch");
}

MsgType
messageType(const Message &msg)
{
    struct Visitor
    {
        MsgType operator()(const WriteReq &m) const
        {
            return writeFraming(m);
        }
        MsgType operator()(const ReadReq &) const { return MsgType::kReadReq; }
        MsgType operator()(const ReadResp &) const { return MsgType::kReadResp; }
        MsgType operator()(const CasReq &) const { return MsgType::kCasReq; }
        MsgType operator()(const CasResp &) const { return MsgType::kCasResp; }
        MsgType operator()(const Nak &) const { return MsgType::kNak; }
        MsgType operator()(const RpcMsg &) const { return MsgType::kRpc; }
        MsgType operator()(const VectorReq &) const
        {
            return MsgType::kVectorOp;
        }
        MsgType operator()(const VectorResp &) const
        {
            return MsgType::kVectorResp;
        }
        MsgType operator()(const SeqMsg &) const { return MsgType::kSeqData; }
        MsgType operator()(const AckMsg &) const { return MsgType::kAck; }
    };
    return std::visit(Visitor{}, msg);
}

const char *
msgTypeName(MsgType type)
{
    switch (type) {
      case MsgType::kWriteSmall:
        return "write_small";
      case MsgType::kWriteBlock:
        return "write_block";
      case MsgType::kReadReq:
        return "read_req";
      case MsgType::kReadResp:
        return "read_resp";
      case MsgType::kCasReq:
        return "cas_req";
      case MsgType::kCasResp:
        return "cas_resp";
      case MsgType::kNak:
        return "nak";
      case MsgType::kRpc:
        return "rpc";
      case MsgType::kVectorOp:
        return "vector_op";
      case MsgType::kVectorResp:
        return "vector_resp";
      case MsgType::kSeqData:
        return "seq_data";
      case MsgType::kAck:
        return "ack";
    }
    return "unknown";
}

std::vector<uint8_t>
encodeMessage(const Message &msg)
{
    return std::visit(
        [](const auto &m) {
            util::Encoder e(64);
            fields(e, m);
            return e.take();
        },
        msg);
}

namespace {

/** Decode one @p M; the first failed check or short read is the error. */
template <class M>
util::Result<Message>
decodeAs(util::Decoder &d)
{
    uint8_t first = d.peekU8();
    M m;
    fields(d, m);
    if (d.ok()) {
        return Message(std::move(m));
    }
    return util::Status(util::ErrorCode::kMalformed,
                        d.why() != nullptr
                            ? d.why()
                            : "truncated message type " +
                                  std::to_string(first & kTypeMask));
}

util::Result<Message>
decodeBody(util::Decoder &d)
{
    switch (static_cast<MsgType>(d.peekU8() & kTypeMask)) {
      case MsgType::kWriteSmall:
      case MsgType::kWriteBlock:
        return decodeAs<WriteReq>(d);
      case MsgType::kReadReq:
        return decodeAs<ReadReq>(d);
      case MsgType::kReadResp:
        return decodeAs<ReadResp>(d);
      case MsgType::kCasReq:
        return decodeAs<CasReq>(d);
      case MsgType::kCasResp:
        return decodeAs<CasResp>(d);
      case MsgType::kNak:
        return decodeAs<Nak>(d);
      case MsgType::kRpc:
        return decodeAs<RpcMsg>(d);
      case MsgType::kVectorOp:
        return decodeAs<VectorReq>(d);
      case MsgType::kVectorResp:
        return decodeAs<VectorResp>(d);
      case MsgType::kSeqData:
        return decodeAs<SeqMsg>(d);
      case MsgType::kAck:
        return decodeAs<AckMsg>(d);
    }
    d.pad(1); // the unknown type octet is all that was read
    return util::Status(util::ErrorCode::kMalformed, "unknown message type");
}

} // namespace

util::Result<Message>
decodeMessage(std::span<const uint8_t> bytes, size_t *consumed)
{
    util::Decoder d(bytes);
    util::Result<Message> result = decodeBody(d);
    if (consumed != nullptr) {
        *consumed = bytes.size() - d.remaining();
    }
    return result;
}

} // namespace remora::rmem
