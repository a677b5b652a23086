#include "kvstore/cluster.h"

#include <cstdio>
#include <set>
#include <string>

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace muppet {
namespace kv {
namespace {

using ::muppet::testing::TempDir;

KvClusterOptions SmallCluster(const std::string& dir, int nodes = 3,
                              int rf = 3, Clock* clock = nullptr) {
  KvClusterOptions options;
  options.num_nodes = nodes;
  options.replication_factor = rf;
  options.node.data_dir = dir;
  options.node.memtable_flush_bytes = 16 << 10;
  options.node.clock = clock;
  return options;
}

TEST(KvClusterTest, PutGetRoundTrip) {
  TempDir dir;
  KvCluster cluster(SmallCluster(dir.path()));
  ASSERT_OK(cluster.Open());
  ASSERT_OK(cluster.Put("cf", "row", "col", "value"));
  auto got = cluster.Get("cf", "row", "col");
  ASSERT_OK(got);
  EXPECT_EQ(got.value().value, "value");
}

TEST(KvClusterTest, ReplicasAreDistinctAndStable) {
  TempDir dir;
  KvCluster cluster(SmallCluster(dir.path(), 5, 3));
  ASSERT_OK(cluster.Open());
  for (int i = 0; i < 100; ++i) {
    const std::string row = "row" + std::to_string(i);
    const auto replicas = cluster.ReplicasFor(row);
    ASSERT_EQ(replicas.size(), 3u);
    std::set<int> unique(replicas.begin(), replicas.end());
    EXPECT_EQ(unique.size(), 3u);
    EXPECT_EQ(replicas, cluster.ReplicasFor(row)) << "placement must be "
                                                     "deterministic";
  }
}

TEST(KvClusterTest, ReplicaPlacementBalanced) {
  TempDir dir;
  KvCluster cluster(SmallCluster(dir.path(), 4, 1));
  ASSERT_OK(cluster.Open());
  int counts[4] = {0, 0, 0, 0};
  for (int i = 0; i < 4000; ++i) {
    counts[cluster.ReplicasFor("row" + std::to_string(i))[0]]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, 400);  // perfect would be 1000 each
    EXPECT_LT(c, 2000);
  }
}

TEST(KvClusterTest, RequiredAcksPerLevel) {
  TempDir dir;
  KvCluster cluster(SmallCluster(dir.path(), 5, 3));
  EXPECT_EQ(cluster.Required(ConsistencyLevel::kOne), 1);
  EXPECT_EQ(cluster.Required(ConsistencyLevel::kQuorum), 2);
  EXPECT_EQ(cluster.Required(ConsistencyLevel::kAll), 3);
}

TEST(KvClusterTest, ReplicationFactorClampedToClusterSize) {
  TempDir dir;
  KvCluster cluster(SmallCluster(dir.path(), 2, 5));
  ASSERT_OK(cluster.Open());
  EXPECT_EQ(cluster.ReplicasFor("row").size(), 2u);
}

TEST(KvClusterTest, SurvivesMinorityNodeCrash) {
  TempDir dir;
  KvCluster cluster(SmallCluster(dir.path(), 3, 3));
  ASSERT_OK(cluster.Open());
  ASSERT_OK(cluster.Put("cf", "row", "col", "v1"));
  cluster.CrashNode(cluster.ReplicasFor("row")[0]);
  // Quorum (2 of 3) still reachable for both read and write.
  auto got = cluster.Get("cf", "row", "col", ConsistencyLevel::kQuorum);
  ASSERT_OK(got);
  EXPECT_EQ(got.value().value, "v1");
  ASSERT_OK(cluster.Put("cf", "row", "col", "v2", {},
                        ConsistencyLevel::kQuorum));
  EXPECT_EQ(cluster.Get("cf", "row", "col").value().value, "v2");
}

TEST(KvClusterTest, AllLevelFailsWithNodeDown) {
  TempDir dir;
  KvCluster cluster(SmallCluster(dir.path(), 3, 3));
  ASSERT_OK(cluster.Open());
  cluster.CrashNode(0);
  Status s = cluster.Put("cf", "row", "col", "v", {}, ConsistencyLevel::kAll);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
}

TEST(KvClusterTest, MajorityCrashMakesQuorumUnavailable) {
  TempDir dir;
  KvCluster cluster(SmallCluster(dir.path(), 3, 3));
  ASSERT_OK(cluster.Open());
  ASSERT_OK(cluster.Put("cf", "row", "col", "v"));
  cluster.CrashNode(0);
  cluster.CrashNode(1);
  EXPECT_TRUE(cluster
                  .Get("cf", "row", "col", ConsistencyLevel::kQuorum)
                  .status()
                  .IsUnavailable());
  // ONE still works via the surviving replica.
  auto got = cluster.Get("cf", "row", "col", ConsistencyLevel::kOne);
  ASSERT_OK(got);
  EXPECT_EQ(got.value().value, "v");
}

TEST(KvClusterTest, ReadRepairHealsStaleReplica) {
  TempDir dir;
  KvCluster cluster(SmallCluster(dir.path(), 3, 3));
  ASSERT_OK(cluster.Open());
  const auto replicas = cluster.ReplicasFor("row");

  ASSERT_OK(cluster.Put("cf", "row", "col", "v1", {},
                        ConsistencyLevel::kAll));
  // One replica misses the update.
  cluster.CrashNode(replicas[2]);
  ASSERT_OK(cluster.Put("cf", "row", "col", "v2", {},
                        ConsistencyLevel::kQuorum));
  cluster.RestoreNode(replicas[2]);

  // A kAll read touches the stale replica, returns the newest value, and
  // repairs the stale copy.
  auto got = cluster.Get("cf", "row", "col", ConsistencyLevel::kAll);
  ASSERT_OK(got);
  EXPECT_EQ(got.value().value, "v2");
  EXPECT_GT(cluster.read_repairs(), 0);

  // The previously stale replica now answers v2 on its own.
  auto direct = cluster.node(replicas[2])->Get("cf", "row", "col");
  ASSERT_OK(direct);
  EXPECT_EQ(direct.value().value, "v2");
}

TEST(KvClusterTest, DeleteWinsOverOlderPutAcrossReplicas) {
  TempDir dir;
  SimulatedClock clock(1000000);
  KvCluster cluster(SmallCluster(dir.path(), 3, 3, &clock));
  ASSERT_OK(cluster.Open());
  ASSERT_OK(cluster.Put("cf", "row", "col", "v1", {},
                        ConsistencyLevel::kAll));
  clock.Advance(10);
  ASSERT_OK(cluster.Delete("cf", "row", "col", ConsistencyLevel::kAll));
  clock.Advance(10);
  EXPECT_TRUE(cluster.Get("cf", "row", "col", ConsistencyLevel::kAll)
                  .status()
                  .IsNotFound());
}

TEST(KvClusterTest, TtlHonoredThroughCluster) {
  TempDir dir;
  SimulatedClock clock(1000000);
  KvCluster cluster(SmallCluster(dir.path(), 3, 2, &clock));
  ASSERT_OK(cluster.Open());
  WriteOptions ttl;
  ttl.ttl_micros = 1000;
  ASSERT_OK(cluster.Put("cf", "row", "col", "ephemeral", ttl));
  ASSERT_OK(cluster.Get("cf", "row", "col").status());
  clock.Advance(2000);
  EXPECT_TRUE(cluster.Get("cf", "row", "col").status().IsNotFound());
}

TEST(KvClusterTest, ReadSkipsReplicaWithCorruptTable) {
  TempDir dir;
  // Two nodes, both replicas of every row; each flushes one table of
  // several data blocks.
  KvClusterOptions options = SmallCluster(dir.path(), 2, 2);
  options.node.memtable_flush_bytes = 1 << 20;
  int first = 0;
  {
    KvCluster cluster(options);
    ASSERT_OK(cluster.Open());
    for (int i = 0; i < 100; ++i) {
      char row[16];
      std::snprintf(row, sizeof(row), "row%03d", i);
      ASSERT_OK(cluster.Put("cf", row, "col", Bytes(100, 'v'), {},
                            ConsistencyLevel::kAll));
    }
    ASSERT_OK(cluster.FlushAll());
    first = cluster.ReplicasFor("row000")[0];
  }
  // Flip a byte in the first data block of the first replica's table (as
  // SsTableTest.CorruptBlockDetectedOnRead does). The table still opens:
  // Open reads only the index, the bloom filter and the last block.
  const std::string path =
      dir.path() + "/node" + std::to_string(first) + "/cf/000001.sst";
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr) << path;
  std::fseek(f, 20, SEEK_SET);
  const int c = std::fgetc(f);
  std::fseek(f, 20, SEEK_SET);
  std::fputc(c ^ 0xFF, f);
  std::fclose(f);

  KvCluster cluster(options);
  ASSERT_OK(cluster.Open());
  auto direct = cluster.node(first)->Get("cf", "row000", "col");
  ASSERT_EQ(direct.status().code(), StatusCode::kCorruption)
      << direct.status().ToString();
  // The first replica errors; the second one answers.
  auto got = cluster.Get("cf", "row000", "col", ConsistencyLevel::kOne);
  ASSERT_OK(got);
  EXPECT_EQ(got.value().value, Bytes(100, 'v'));
  // When both must answer, the read fails with the replica's error.
  EXPECT_EQ(cluster.Get("cf", "row000", "col", ConsistencyLevel::kAll)
                .status()
                .code(),
            StatusCode::kCorruption);
}

TEST(KvClusterTest, RestartRecoversData) {
  TempDir dir;
  {
    KvCluster cluster(SmallCluster(dir.path()));
    ASSERT_OK(cluster.Open());
    for (int i = 0; i < 30; ++i) {
      ASSERT_OK(cluster.Put("cf", "row" + std::to_string(i), "col",
                            "v" + std::to_string(i)));
    }
    ASSERT_OK(cluster.FlushAll());
  }
  KvCluster reopened(SmallCluster(dir.path()));
  ASSERT_OK(reopened.Open());
  for (int i = 0; i < 30; ++i) {
    auto got = reopened.Get("cf", "row" + std::to_string(i), "col");
    ASSERT_OK(got);
    EXPECT_EQ(got.value().value, "v" + std::to_string(i));
  }
}

}  // namespace
}  // namespace kv
}  // namespace muppet
