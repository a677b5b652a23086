#include "core/keysplit.h"

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace muppet {
namespace {

TEST(KeySplitTest, MakeAndParseRoundTrip) {
  for (const Bytes& base : {Bytes("Best Buy"), Bytes(""), Bytes("a#b"),
                            Bytes("##"), Bytes("key#7"), Bytes("#")}) {
    for (int shard : {0, 1, 7, 12345}) {
      const Bytes split = MakeSplitKey(base, shard);
      Bytes parsed_base;
      int parsed_shard = -1;
      ASSERT_OK(ParseSplitKey(split, &parsed_base, &parsed_shard));
      EXPECT_EQ(parsed_base, base);
      EXPECT_EQ(parsed_shard, shard);
    }
  }
}

TEST(KeySplitTest, PaperExampleKeys) {
  // Example 6: "Best Buy" splits into "Best Buy1" / "Best Buy2"-style
  // subkeys; ours use a '#' separator.
  EXPECT_EQ(MakeSplitKey("Best Buy", 0), "Best Buy#0");
  EXPECT_EQ(MakeSplitKey("Best Buy", 1), "Best Buy#1");
}

TEST(KeySplitTest, ParseRejectsNonSplitKeys) {
  Bytes base;
  int shard;
  EXPECT_FALSE(ParseSplitKey("plainkey", &base, &shard).ok());
  EXPECT_FALSE(ParseSplitKey("", &base, &shard).ok());
  EXPECT_FALSE(ParseSplitKey("key#", &base, &shard).ok());
  EXPECT_FALSE(ParseSplitKey("key#x1", &base, &shard).ok());
  EXPECT_FALSE(ParseSplitKey("key#-1", &base, &shard).ok());
}

TEST(KeySplitTest, DistinctShardsDistinctKeys) {
  std::set<Bytes> keys;
  for (int i = 0; i < 16; ++i) keys.insert(MakeSplitKey("hot", i));
  EXPECT_EQ(keys.size(), 16u);
}

TEST(KeySplitTest, FuzzRoundTrip) {
  // Seeded fuzz over keys dense in the separator and digits — the two
  // character classes the codec treats specially — plus empty keys and
  // shard counts past three digits.
  Rng rng(771);
  const char alphabet[] = "#0123456789ab";
  for (int iter = 0; iter < 5000; ++iter) {
    Bytes base;
    const size_t len = rng.Uniform(12);
    for (size_t i = 0; i < len; ++i) {
      base.push_back(alphabet[rng.Uniform(sizeof(alphabet) - 1)]);
    }
    const int shard = static_cast<int>(rng.Uniform(100000));
    const Bytes split = MakeSplitKey(base, shard);
    Bytes parsed_base;
    int parsed_shard = -1;
    SCOPED_TRACE("split key: " + split);
    ASSERT_OK(ParseSplitKey(split, &parsed_base, &parsed_shard));
    EXPECT_EQ(parsed_base, base);
    EXPECT_EQ(parsed_shard, shard);
  }
}

TEST(KeySplitTest, ManyShardsBeyondThreeDigits) {
  const Bytes split = MakeSplitKey("k", 1000);
  Bytes base;
  int shard = -1;
  ASSERT_OK(ParseSplitKey(split, &base, &shard));
  EXPECT_EQ(base, "k");
  EXPECT_EQ(shard, 1000);
}

TEST(KeySplitTest, NegativeShardClampsToZero) {
  // A negative shard cannot round-trip (ParseSplitKey rejects "key#-1"),
  // so MakeSplitKey clamps instead of emitting an unparseable key.
  EXPECT_EQ(MakeSplitKey("k", -1), MakeSplitKey("k", 0));
  EXPECT_EQ(MakeSplitKey("k", -42), "k#0");
}

TEST(SplitTableTest, SplitRoutesRoundRobin) {
  SplitTable table(/*max_entries=*/16);
  EXPECT_FALSE(table.HasSplits());
  int shards = 0;
  EXPECT_FALSE(table.Lookup(1, "hot", &shards));
  EXPECT_EQ(table.RouteShard(1, "hot"), -1);

  ASSERT_TRUE(table.Split(1, "hot", 4));
  EXPECT_TRUE(table.HasSplits());
  ASSERT_TRUE(table.Lookup(1, "hot", &shards));
  EXPECT_EQ(shards, 4);

  // Round-robin covers every shard evenly.
  std::map<int, int> picked;
  for (int i = 0; i < 40; ++i) {
    const int shard = table.RouteShard(1, "hot");
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 4);
    picked[shard]++;
  }
  EXPECT_EQ(picked.size(), 4u);
  for (const auto& [shard, count] : picked) EXPECT_EQ(count, 10);

  const std::vector<SplitTable::Entry> entries = table.Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].function_id, 1);
  EXPECT_EQ(entries[0].key, "hot");
  EXPECT_EQ(entries[0].shards, 4);
}

TEST(SplitTableTest, SplitInstallsOnceAndNeverWidens) {
  SplitTable table(/*max_entries=*/16);
  ASSERT_TRUE(table.Split(1, "hot", 2));
  // A second split of the same key, wider or narrower, is refused: the
  // shard count a split was installed with is the one reads fold.
  EXPECT_FALSE(table.Split(1, "hot", 8));
  EXPECT_FALSE(table.Split(1, "hot", 2));
  int shards = 0;
  ASSERT_TRUE(table.Lookup(1, "hot", &shards));
  EXPECT_EQ(shards, 2);
  EXPECT_EQ(table.Entries().size(), 1u);
}

TEST(SplitTableTest, KeysAndFunctionsIndependent) {
  SplitTable table(/*max_entries=*/16);
  ASSERT_TRUE(table.Split(1, "a", 2));
  ASSERT_TRUE(table.Split(2, "a", 4));
  int shards = 0;
  ASSERT_TRUE(table.Lookup(1, "a", &shards));
  EXPECT_EQ(shards, 2);
  ASSERT_TRUE(table.Lookup(2, "a", &shards));
  EXPECT_EQ(shards, 4);
  EXPECT_FALSE(table.Lookup(1, "b", &shards));
  EXPECT_EQ(table.RouteShard(1, "b"), -1);
  EXPECT_EQ(table.Entries().size(), 2u);
}

TEST(SplitTableTest, CapacityBounded) {
  SplitTable table(/*max_entries=*/2);
  EXPECT_TRUE(table.Split(1, "a", 2));
  EXPECT_TRUE(table.Split(1, "b", 2));
  EXPECT_FALSE(table.Split(1, "c", 2));
  EXPECT_EQ(table.RouteShard(1, "c"), -1);
  EXPECT_EQ(table.Entries().size(), 2u);
}

TEST(SplitTableTest, RejectsDegenerateShardCounts) {
  SplitTable table(/*max_entries=*/16);
  EXPECT_FALSE(table.Split(1, "a", 1));
  EXPECT_FALSE(table.Split(1, "a", 0));
  EXPECT_FALSE(table.Split(1, "a", -3));
  EXPECT_FALSE(table.HasSplits());
}

}  // namespace
}  // namespace muppet
