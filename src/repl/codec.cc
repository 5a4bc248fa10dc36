#include "repl/codec.hh"

#include <algorithm>
#include <cstring>

#include "store/codec.hh"
#include "store/crc32c.hh"

namespace fosm::repl {

namespace {

using store::getU32;
using store::getU64;
using store::putU32;
using store::putU64;

constexpr char replMagic[8] = {'F', 'O', 'S', 'M',
                               'R', 'E', 'P', 'L'};
constexpr std::uint32_t replFormatVersion = 1;
constexpr std::size_t headerSize = 41;
constexpr std::size_t entryHeaderSize = 16;
constexpr std::uint32_t maxLabelLen = 1u << 10;
constexpr std::uint32_t maxKeyLen = 1u << 20;
constexpr std::uint32_t maxValueLen = 1u << 30;

} // namespace

std::string
encodeBatch(const Batch &batch)
{
    std::size_t size = headerSize + batch.origin.size();
    for (const store::LiveEntry &e : batch.entries)
        size += entryHeaderSize + e.key.size() + e.value.size();
    std::string wire(size, '\0');

    char *p = wire.data();
    std::memcpy(p, replMagic, sizeof(replMagic));
    putU32(p + 8, replFormatVersion);
    putU32(p + 16, static_cast<std::uint32_t>(batch.entries.size()));
    putU32(p + 20, static_cast<std::uint32_t>(batch.origin.size()));
    putU64(p + 24, batch.upto);
    putU64(p + 32, batch.storeId);
    p[40] = batch.more ? 1 : 0;
    p = std::copy(batch.origin.begin(), batch.origin.end(),
                  p + headerSize);
    for (const store::LiveEntry &e : batch.entries) {
        putU32(p, static_cast<std::uint32_t>(e.key.size()));
        putU32(p + 4, static_cast<std::uint32_t>(e.value.size()));
        putU64(p + 8, e.lsn);
        p = std::copy(e.key.begin(), e.key.end(), p + entryHeaderSize);
        p = std::copy(e.value.begin(), e.value.end(), p);
    }
    putU32(wire.data() + 12,
           store::crc32c(wire.data() + 16, wire.size() - 16));
    return wire;
}

bool
decodeBatch(std::string_view wire, Batch &out, std::string &error)
{
    const auto *data =
        reinterpret_cast<const unsigned char *>(wire.data());
    if (wire.size() < headerSize ||
        std::memcmp(data, replMagic, sizeof(replMagic)) != 0) {
        error = "missing repl batch header";
        return false;
    }
    if (getU32(data + 8) != replFormatVersion) {
        error = "unsupported repl format version " +
                std::to_string(getU32(data + 8));
        return false;
    }
    if (store::crc32c(wire.data() + 16, wire.size() - 16) !=
        getU32(data + 12)) {
        error = "repl batch CRC mismatch";
        return false;
    }
    const std::uint32_t count = getU32(data + 16);
    const std::uint32_t originLen = getU32(data + 20);
    if (originLen > maxLabelLen) {
        error = "implausible origin label length";
        return false;
    }
    out.upto = getU64(data + 24);
    out.storeId = getU64(data + 32);
    out.more = data[40] != 0;

    std::size_t off = headerSize;
    if (off + originLen > wire.size()) {
        error = "truncated origin label";
        return false;
    }
    out.origin.assign(wire.data() + off, originLen);
    off += originLen;

    // Every entry needs its header: bound the count by the bytes left
    // before reserving, so a forged count cannot demand a huge
    // allocation.
    if (count > (wire.size() - off) / entryHeaderSize) {
        error = "entry count exceeds the frame";
        return false;
    }
    out.entries.clear();
    out.entries.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        if (off + entryHeaderSize > wire.size()) {
            error = "truncated entry header at index " +
                    std::to_string(i);
            return false;
        }
        const std::uint32_t keyLen = getU32(data + off);
        const std::uint32_t valueLen = getU32(data + off + 4);
        if (keyLen > maxKeyLen || valueLen > maxValueLen) {
            error = "implausible entry lengths at index " +
                    std::to_string(i);
            return false;
        }
        store::LiveEntry entry;
        entry.lsn = getU64(data + off + 8);
        off += entryHeaderSize;
        if (off + keyLen + valueLen > wire.size()) {
            error = "truncated entry body at index " +
                    std::to_string(i);
            return false;
        }
        entry.key.assign(wire.data() + off, keyLen);
        off += keyLen;
        entry.value.assign(wire.data() + off, valueLen);
        off += valueLen;
        out.entries.push_back(std::move(entry));
    }
    if (off != wire.size()) {
        error = "trailing bytes after last entry";
        return false;
    }
    return true;
}

} // namespace fosm::repl
