#include "util/bytes.h"

namespace remora::util {

void
ByteWriter::putU16(uint16_t v)
{
    buf_.push_back(static_cast<uint8_t>(v));
    buf_.push_back(static_cast<uint8_t>(v >> 8));
}

void
ByteWriter::putU32(uint32_t v)
{
    for (int shift = 0; shift < 32; shift += 8) {
        buf_.push_back(static_cast<uint8_t>(v >> shift));
    }
}

void
ByteWriter::putU64(uint64_t v)
{
    for (int shift = 0; shift < 64; shift += 8) {
        buf_.push_back(static_cast<uint8_t>(v >> shift));
    }
}

void
ByteWriter::putBytes(std::span<const uint8_t> data)
{
    buf_.insert(buf_.end(), data.begin(), data.end());
}

void
ByteWriter::putZeros(size_t count)
{
    buf_.insert(buf_.end(), count, 0);
}

bool
ByteReader::ensure(size_t count)
{
    if (pos_ + count > data_.size()) {
        overflow_ = true;
        pos_ = data_.size();
        return false;
    }
    return true;
}

uint8_t
ByteReader::getU8()
{
    if (!ensure(1)) {
        return 0;
    }
    return data_[pos_++];
}

uint16_t
ByteReader::getU16()
{
    if (!ensure(2)) {
        return 0;
    }
    uint16_t v = static_cast<uint16_t>(data_[pos_] |
                                       (data_[pos_ + 1] << 8));
    pos_ += 2;
    return v;
}

uint32_t
ByteReader::getU32()
{
    if (!ensure(4)) {
        return 0;
    }
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
        v = (v << 8) | data_[pos_ + static_cast<size_t>(i)];
    }
    pos_ += 4;
    return v;
}

uint64_t
ByteReader::getU64()
{
    if (!ensure(8)) {
        return 0;
    }
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
        v = (v << 8) | data_[pos_ + static_cast<size_t>(i)];
    }
    pos_ += 8;
    return v;
}

std::span<const uint8_t>
ByteReader::viewBytes(size_t count)
{
    if (!ensure(count)) {
        return {};
    }
    auto view = data_.subspan(pos_, count);
    pos_ += count;
    return view;
}

void
ByteReader::skip(size_t count)
{
    if (ensure(count)) {
        pos_ += count;
    }
}

} // namespace remora::util
