/**
 * @file
 * Wire-format tests for the replication batch codec: lossless round
 * trips (binary-safe keys and values included), strict rejection of
 * truncation, corruption, trailing bytes and absurd lengths — the
 * frame arrives over plain HTTP bodies, so decode must never trust a
 * length field it hasn't bounds-checked.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "repl/codec.hh"
#include "store/codec.hh"
#include "store/crc32c.hh"

namespace fosm::repl {
namespace {

Batch
sampleBatch()
{
    Batch batch;
    batch.origin = "127.0.0.1:8801";
    batch.storeId = 0xdeadbeefcafe1234ull;
    batch.upto = 4242;
    batch.more = true;
    store::LiveEntry a;
    a.key = "r/cpi-key-1";
    a.value = "{\"cpi\":1.06}";
    a.lsn = 17;
    store::LiveEntry b;
    b.key = std::string("c/v3.bin\0ary", 12);
    b.value = std::string("\x00\x01\xff\xfe", 4);
    b.lsn = 18;
    store::LiveEntry c;
    c.key = "t/v2/empty-value";
    c.value = "";
    c.lsn = 4242;
    batch.entries = {a, b, c};
    return batch;
}

TEST(ReplCodec, RoundTripsEveryField)
{
    const Batch in = sampleBatch();
    const std::string wire = encodeBatch(in);

    Batch out;
    std::string error;
    ASSERT_TRUE(decodeBatch(wire, out, error)) << error;
    EXPECT_EQ(out.origin, in.origin);
    EXPECT_EQ(out.storeId, in.storeId);
    EXPECT_EQ(out.upto, in.upto);
    EXPECT_EQ(out.more, in.more);
    ASSERT_EQ(out.entries.size(), in.entries.size());
    for (std::size_t i = 0; i < in.entries.size(); ++i) {
        EXPECT_EQ(out.entries[i].key, in.entries[i].key);
        EXPECT_EQ(out.entries[i].value, in.entries[i].value);
        EXPECT_EQ(out.entries[i].lsn, in.entries[i].lsn);
    }
}

TEST(ReplCodec, EmptyBatchRoundTrips)
{
    Batch in;
    in.origin = "n1:1";
    in.storeId = 7;
    in.upto = 0;
    in.more = false;
    const std::string wire = encodeBatch(in);
    Batch out;
    std::string error;
    ASSERT_TRUE(decodeBatch(wire, out, error)) << error;
    EXPECT_TRUE(out.entries.empty());
    EXPECT_EQ(out.origin, "n1:1");
    EXPECT_FALSE(out.more);
}

TEST(ReplCodec, EveryTruncationFailsCleanly)
{
    const std::string wire = encodeBatch(sampleBatch());
    for (std::size_t n = 0; n < wire.size(); ++n) {
        Batch out;
        std::string error;
        EXPECT_FALSE(
            decodeBatch(wire.substr(0, n), out, error))
            << "decoded a " << n << "-byte prefix of "
            << wire.size();
    }
}

TEST(ReplCodec, SingleByteCorruptionIsDetected)
{
    const std::string wire = encodeBatch(sampleBatch());
    // Flip one bit in every byte past the magic; the CRC (or the
    // magic/version check for the leading bytes) must catch each.
    for (std::size_t i = 0; i < wire.size(); ++i) {
        std::string bad = wire;
        bad[i] = static_cast<char>(bad[i] ^ 0x40);
        Batch out;
        std::string error;
        EXPECT_FALSE(decodeBatch(bad, out, error))
            << "corruption at byte " << i << " went undetected";
    }
}

TEST(ReplCodec, TrailingBytesRejected)
{
    std::string wire = encodeBatch(sampleBatch());
    wire += "x";
    Batch out;
    std::string error;
    EXPECT_FALSE(decodeBatch(wire, out, error));
}

TEST(ReplCodec, GarbageAndEmptyInputRejected)
{
    Batch out;
    std::string error;
    EXPECT_FALSE(decodeBatch("", out, error));
    EXPECT_FALSE(decodeBatch("NOTAFRAME", out, error));
    EXPECT_FALSE(
        decodeBatch(std::string(1024, '\0'), out, error));
}

TEST(ReplCodec, EntryCountBeyondTheFrameRejectedBeforeReserving)
{
    // A 42-byte frame (origin "x", no entries) whose count field
    // claims 0xFFFFFFFF entries, CRC recomputed so the frame is
    // otherwise valid. Reserving that count would throw bad_alloc.
    Batch in;
    in.origin = "x";
    std::string wire = encodeBatch(in);
    ASSERT_EQ(wire.size(), 42u);
    store::putU32(wire.data() + 16, 0xFFFFFFFFu);
    store::putU32(wire.data() + 12,
                  store::crc32c(wire.data() + 16, wire.size() - 16));
    Batch out;
    std::string error;
    bool decoded = true;
    EXPECT_NO_THROW(decoded = decodeBatch(wire, out, error));
    EXPECT_FALSE(decoded);
}

} // namespace
} // namespace fosm::repl
