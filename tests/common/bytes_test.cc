#include "common/bytes.h"

#include <cstdint>
#include <limits>
#include <vector>

#include "gtest/gtest.h"

namespace muppet {
namespace {

TEST(BytesTest, Fixed32RoundTrip) {
  for (uint32_t v : {0u, 1u, 0x12345678u, 0xFFFFFFFFu}) {
    Bytes b;
    PutFixed32(&b, v);
    ASSERT_EQ(b.size(), 4u);
    EXPECT_EQ(DecodeFixed32(b.data()), v);
  }
}

TEST(BytesTest, Fixed64RoundTrip) {
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{0x123456789abcdef0},
                     std::numeric_limits<uint64_t>::max()}) {
    Bytes b;
    PutFixed64(&b, v);
    ASSERT_EQ(b.size(), 8u);
    EXPECT_EQ(DecodeFixed64(b.data()), v);
  }
}

TEST(BytesTest, Varint32RoundTrip) {
  const std::vector<uint32_t> values = {0,    1,    127,        128,
                                        300,  16383, 16384,     (1u << 21) - 1,
                                        1u << 28, 0xFFFFFFFFu};
  for (uint32_t v : values) {
    Bytes b;
    PutVarint32(&b, v);
    const char* p = b.data();
    uint32_t decoded = 0;
    ASSERT_TRUE(GetVarint32(&p, b.data() + b.size(), &decoded));
    EXPECT_EQ(decoded, v);
    EXPECT_EQ(p, b.data() + b.size());
  }
}

TEST(BytesTest, Varint64RoundTrip) {
  const std::vector<uint64_t> values = {
      0, 1, 127, 128, (1ull << 35), (1ull << 56) + 17,
      std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : values) {
    Bytes b;
    PutVarint64(&b, v);
    const char* p = b.data();
    uint64_t decoded = 0;
    ASSERT_TRUE(GetVarint64(&p, b.data() + b.size(), &decoded));
    EXPECT_EQ(decoded, v);
    EXPECT_EQ(p, b.data() + b.size());
  }
}

TEST(BytesTest, VarintSizes) {
  Bytes b;
  PutVarint32(&b, 127);
  EXPECT_EQ(b.size(), 1u);
  b.clear();
  PutVarint32(&b, 128);
  EXPECT_EQ(b.size(), 2u);
  b.clear();
  PutVarint64(&b, std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(b.size(), 10u);
}

TEST(BytesTest, VarintLengthMatchesEncoding) {
  for (int bits = 0; bits <= 64; ++bits) {
    const uint64_t top = bits == 64 ? std::numeric_limits<uint64_t>::max()
                                    : (uint64_t{1} << bits) - 1;
    for (const uint64_t v : {top, top + 1}) {
      Bytes b;
      PutVarint64(&b, v);
      EXPECT_EQ(VarintLength(v), b.size()) << v;
    }
  }
}

TEST(BytesTest, VarintTruncationDetected) {
  Bytes b;
  PutVarint32(&b, 1u << 30);
  // Chop the final byte.
  b.pop_back();
  const char* p = b.data();
  uint32_t decoded = 0;
  EXPECT_FALSE(GetVarint32(&p, b.data() + b.size(), &decoded));

  uint64_t decoded64 = 0;
  Bytes empty;
  const char* q = empty.data();
  EXPECT_FALSE(GetVarint64(&q, q, &decoded64));
}

TEST(BytesTest, LengthPrefixedRoundTrip) {
  Bytes b;
  PutLengthPrefixed(&b, "hello");
  PutLengthPrefixed(&b, "");
  PutLengthPrefixed(&b, std::string(1000, 'x'));
  const char* p = b.data();
  const char* limit = b.data() + b.size();
  BytesView a, c, d;
  ASSERT_TRUE(GetLengthPrefixed(&p, limit, &a));
  ASSERT_TRUE(GetLengthPrefixed(&p, limit, &c));
  ASSERT_TRUE(GetLengthPrefixed(&p, limit, &d));
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(c, "");
  EXPECT_EQ(d.size(), 1000u);
  EXPECT_EQ(p, limit);
}

TEST(BytesTest, LengthPrefixedDetectsShortBuffer) {
  Bytes b;
  PutLengthPrefixed(&b, "hello world");
  b.resize(b.size() - 3);  // truncate payload
  const char* p = b.data();
  BytesView out;
  EXPECT_FALSE(GetLengthPrefixed(&p, b.data() + b.size(), &out));
}

TEST(BytesTest, LengthPrefixedBinarySafe) {
  const Bytes payload("\x00\x01\xff\x00zz", 6);
  Bytes b;
  PutLengthPrefixed(&b, payload);
  const char* p = b.data();
  BytesView out;
  ASSERT_TRUE(GetLengthPrefixed(&p, b.data() + b.size(), &out));
  EXPECT_EQ(Bytes(out), payload);
}

}  // namespace
}  // namespace muppet
