#include "core/slate_store.h"

#include <string>

#include "common/compress.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace muppet {
namespace {

using ::muppet::testing::TempDir;

kv::KvClusterOptions ClusterFor(const std::string& dir,
                                Clock* clock = nullptr) {
  kv::KvClusterOptions options;
  options.replication_factor = 2;
  options.node.data_dir = dir;
  options.node.clock = clock;
  return options;
}

TEST(SlateStoreTest, WriteReadRoundTrip) {
  TempDir dir;
  kv::KvCluster cluster(ClusterFor(dir.path()));
  ASSERT_OK(cluster.Open());
  SlateStore store(&cluster, SlateStoreOptions{});
  const SlateId id{"U1", "Walmart"};
  ASSERT_OK(store.Write(id, "{\"count\":7}", /*ttl=*/0));
  auto read = store.Read(id);
  ASSERT_OK(read);
  EXPECT_EQ(read.value(), "{\"count\":7}");
}

TEST(SlateStoreTest, CompressionTransparent) {
  TempDir dir;
  kv::KvCluster cluster(ClusterFor(dir.path()));
  ASSERT_OK(cluster.Open());
  SlateStore store(&cluster, SlateStoreOptions{});
  // A large, repetitive slate: compression must round-trip it.
  Bytes big = "{";
  for (int i = 0; i < 500; ++i) {
    big += "\"field" + std::to_string(i) + "\":\"value value value\",";
  }
  big += "\"end\":true}";
  const SlateId id{"U1", "big"};
  ASSERT_OK(store.Write(id, big, 0));
  auto read = store.Read(id);
  ASSERT_OK(read);
  EXPECT_EQ(read.value(), big);
  // The stored bytes are actually smaller than the slate.
  auto raw = cluster.Get("slates", "big", "U1");
  ASSERT_OK(raw);
  EXPECT_LT(raw.value().value.size(), big.size() / 2);
}

TEST(SlateStoreTest, RowColumnLayoutMatchesPaper) {
  // "Muppet stores slate S(U,k) as a value at row k and column U" (§4.2).
  TempDir dir;
  kv::KvCluster cluster(ClusterFor(dir.path()));
  ASSERT_OK(cluster.Open());
  // The slates live in the application's column family, so two
  // applications sharing one store do not see each other's slates.
  SlateStoreOptions options;
  options.column_family = "myapp";
  SlateStore store(&cluster, options);
  SlateStore other(&cluster, SlateStoreOptions{});
  ASSERT_OK(store.Write(SlateId{"U7", "key9"}, "s", 0));
  auto direct = cluster.Get("myapp", "key9", "U7");
  ASSERT_OK(direct);
  auto plain = Decompress(direct.value().value);
  ASSERT_OK(plain);
  EXPECT_EQ(plain.value(), "s");
  EXPECT_TRUE(other.Read(SlateId{"U7", "key9"}).status().IsNotFound());
}

TEST(SlateStoreTest, NotFoundForAbsent) {
  TempDir dir;
  kv::KvCluster cluster(ClusterFor(dir.path()));
  ASSERT_OK(cluster.Open());
  SlateStore store(&cluster, SlateStoreOptions{});
  EXPECT_TRUE(store.Read(SlateId{"U1", "ghost"}).status().IsNotFound());
}

TEST(SlateStoreTest, DeleteRemoves) {
  TempDir dir;
  kv::KvCluster cluster(ClusterFor(dir.path()));
  ASSERT_OK(cluster.Open());
  SlateStore store(&cluster, SlateStoreOptions{});
  const SlateId id{"U1", "k"};
  ASSERT_OK(store.Write(id, "v", 0));
  ASSERT_OK(store.Delete(id));
  EXPECT_TRUE(store.Read(id).status().IsNotFound());
}

TEST(SlateStoreTest, TtlGarbageCollection) {
  // "Slates that have not been updated (written) for longer than the TTL
  // value may be garbage-collected ... resetting to an empty slate" (§4.2).
  TempDir dir;
  SimulatedClock clock(1000000);
  kv::KvCluster cluster(ClusterFor(dir.path(), &clock));
  ASSERT_OK(cluster.Open());
  SlateStore store(&cluster, SlateStoreOptions{});
  const SlateId id{"U1", "active-user"};
  ASSERT_OK(store.Write(id, "state", /*ttl=*/1000));
  EXPECT_OK(store.Read(id).status());
  clock.Advance(500);
  // A rewrite renews the TTL.
  ASSERT_OK(store.Write(id, "state2", /*ttl=*/1000));
  clock.Advance(800);
  EXPECT_OK(store.Read(id).status());
  clock.Advance(300);
  EXPECT_TRUE(store.Read(id).status().IsNotFound());
}

}  // namespace
}  // namespace muppet
