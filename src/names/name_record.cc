#include "names/name_record.h"

#include "util/bytes.h"
#include "util/hash.h"
#include "util/panic.h"

namespace remora::names {

namespace {

/** Decode the record's fields that lie within @p in. */
NameRecord
decodeLeading(std::span<const uint8_t> in, uint64_t *nameHash)
{
    util::Decoder d(in);
    NameRecord rec;
    uint64_t hash = 0;
    fields(d, rec, hash);
    if (nameHash != nullptr) {
        *nameHash = hash;
    }
    return rec;
}

} // namespace

void
NameRecord::encode(std::span<uint8_t> out) const
{
    REMORA_ASSERT(name.size() <= kMaxNameLen);
    uint64_t hash = nameHashOf(name);
    util::Encoder e(kBytes);
    fields(e, *this, hash);
    e.fill(out, kBytes);
}

NameRecord
NameRecord::decode(std::span<const uint8_t> in)
{
    REMORA_ASSERT(in.size() >= kBytes);
    return decodeLeading(in.first(kBytes), nullptr);
}

NameRecord
NameRecord::decodePrefix(std::span<const uint8_t> in, uint64_t *nameHash)
{
    REMORA_ASSERT(in.size() >= kPrefixBytes);
    return decodeLeading(in.first(kPrefixBytes), nameHash);
}

uint64_t
NameRecord::nameHashOf(const std::string &name)
{
    return util::fnv1a(name);
}

uint64_t
registryHash(const std::string &name)
{
    // Distinct seed from nameHashOf so bucket index and match tag are
    // independent.
    return util::mix64(util::fnv1a(name));
}

} // namespace remora::names
