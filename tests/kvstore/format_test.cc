#include "kvstore/format.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace muppet {
namespace kv {
namespace {

TEST(StorageKeyTest, RoundTrip) {
  const struct {
    Bytes row, column;
  } cases[] = {
      {"user42", "U1"},
      {"", ""},
      {"row", ""},
      {"", "col"},
      {Bytes("a\0b", 3), "U"},             // NUL inside row
      {Bytes("\0\0", 2), Bytes("\0", 1)},  // NULs everywhere
      {"key with spaces", "updater/with/slash"},
  };
  for (const auto& c : cases) {
    const Bytes encoded = EncodeStorageKey(c.row, c.column);
    Bytes row, column;
    ASSERT_TRUE(DecodeStorageKey(encoded, &row, &column));
    EXPECT_EQ(row, c.row);
    EXPECT_EQ(column, c.column);
  }
}

TEST(StorageKeyTest, OrdersByRowThenColumn) {
  std::vector<Bytes> keys = {
      EncodeStorageKey("a", "z"),
      EncodeStorageKey("b", "a"),
      EncodeStorageKey("a", "a"),
      EncodeStorageKey("ab", "a"),
  };
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys[0], EncodeStorageKey("a", "a"));
  EXPECT_EQ(keys[1], EncodeStorageKey("a", "z"));
  EXPECT_EQ(keys[2], EncodeStorageKey("ab", "a"));
  EXPECT_EQ(keys[3], EncodeStorageKey("b", "a"));
}

TEST(StorageKeyTest, RowPrefixSelectsExactRow) {
  // "user1" prefix must not match "user10"'s keys.
  const Bytes k1 = EncodeStorageKey("user1", "U1");
  const Bytes k10 = EncodeStorageKey("user10", "U1");
  const Bytes prefix = EncodeStorageKey("user1", "");
  EXPECT_EQ(k1.compare(0, prefix.size(), prefix), 0);
  EXPECT_NE(k10.compare(0, prefix.size(), prefix), 0);
}

TEST(StorageKeyTest, MalformedRejected) {
  Bytes row, column;
  EXPECT_FALSE(DecodeStorageKey("no-terminator", &row, &column));
  EXPECT_FALSE(DecodeStorageKey(Bytes("a\0", 2), &row, &column));
  EXPECT_FALSE(DecodeStorageKey(Bytes("a\0\x02x", 4), &row, &column));
}

TEST(RecordTest, EncodeDecodeRoundTrip) {
  Record rec;
  rec.key = EncodeStorageKey("row", "col");
  rec.value = "some value bytes";
  rec.seqno = 12345;
  rec.write_ts = 987654321;
  rec.expire_at = 111222333;
  rec.tombstone = false;

  Bytes wire;
  EncodeRecord(rec, &wire);
  Record decoded;
  const char* p = wire.data();
  ASSERT_OK(DecodeRecord(&p, wire.data() + wire.size(), &decoded));
  EXPECT_EQ(p, wire.data() + wire.size());
  EXPECT_EQ(decoded.key, rec.key);
  EXPECT_EQ(decoded.value, rec.value);
  EXPECT_EQ(decoded.seqno, rec.seqno);
  EXPECT_EQ(decoded.write_ts, rec.write_ts);
  EXPECT_EQ(decoded.expire_at, rec.expire_at);
  EXPECT_FALSE(decoded.tombstone);
}

TEST(RecordTest, TombstoneFlagSurvives) {
  Record rec;
  rec.key = "k";
  rec.tombstone = true;
  Bytes wire;
  EncodeRecord(rec, &wire);
  Record decoded;
  const char* p = wire.data();
  ASSERT_OK(DecodeRecord(&p, wire.data() + wire.size(), &decoded));
  EXPECT_TRUE(decoded.tombstone);
}

TEST(RecordTest, MultipleRecordsBackToBack) {
  Bytes wire;
  for (int i = 0; i < 10; ++i) {
    Record rec;
    rec.key = "key" + std::to_string(i);
    rec.value = "value" + std::to_string(i);
    rec.seqno = static_cast<uint64_t>(i);
    EncodeRecord(rec, &wire);
  }
  const char* p = wire.data();
  const char* limit = wire.data() + wire.size();
  for (int i = 0; i < 10; ++i) {
    Record decoded;
    ASSERT_OK(DecodeRecord(&p, limit, &decoded));
    EXPECT_EQ(decoded.key, "key" + std::to_string(i));
  }
  EXPECT_EQ(p, limit);
}

TEST(RecordTest, EncodedRecordSizeIsExact) {
  // Field widths across the varint boundaries: empty, 127/128-byte and
  // 16 KiB strings; 2^63-scale seqno and timestamps.
  for (const size_t len : {size_t{0}, size_t{127}, size_t{128},
                           size_t{16384}}) {
    Record rec;
    rec.key = Bytes(len, 'k');
    rec.value = Bytes(len / 2, 'v');
    rec.seqno = uint64_t{1} << 63;
    rec.write_ts = std::numeric_limits<Timestamp>::max();
    rec.expire_at = static_cast<Timestamp>(len);
    Bytes wire = "prefix";
    EncodeRecord(rec, &wire);
    EXPECT_EQ(wire.size(), 6 + EncodedRecordSize(rec)) << len;
    const char* p = wire.data() + 6;
    Record decoded;
    ASSERT_OK(DecodeRecord(&p, wire.data() + wire.size(), &decoded));
    EXPECT_EQ(p, wire.data() + wire.size());
    EXPECT_EQ(decoded.key, rec.key);
    EXPECT_EQ(decoded.seqno, rec.seqno);
    EXPECT_EQ(decoded.write_ts, rec.write_ts);
  }
}

TEST(RecordTest, TruncationDetected) {
  Record rec;
  rec.key = "key";
  rec.value = "value";
  Bytes wire;
  EncodeRecord(rec, &wire);
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    Record decoded;
    const char* p = wire.data();
    Status s = DecodeRecord(&p, wire.data() + cut, &decoded);
    EXPECT_FALSE(s.ok()) << "cut at " << cut;
  }
}

TEST(RecordTest, BadFlagsRejected) {
  Record rec;
  rec.key = "k";
  Bytes wire;
  EncodeRecord(rec, &wire);
  wire.back() = 7;  // invalid flags
  Record decoded;
  const char* p = wire.data();
  EXPECT_FALSE(DecodeRecord(&p, wire.data() + wire.size(), &decoded).ok());
}

TEST(RecordTest, ExpiryPredicate) {
  Record rec;
  rec.expire_at = kNoExpiry;
  EXPECT_FALSE(rec.ExpiredAt(INT64_MAX));
  rec.expire_at = 100;
  EXPECT_FALSE(rec.ExpiredAt(99));
  EXPECT_TRUE(rec.ExpiredAt(100));
  EXPECT_TRUE(rec.ExpiredAt(101));
}

TEST(RecordTest, NewerBySeqno) {
  Record a, b;
  a.seqno = 5;
  b.seqno = 3;
  EXPECT_TRUE(Newer(a, b));
  EXPECT_FALSE(Newer(b, a));
}

}  // namespace
}  // namespace kv
}  // namespace muppet
