// Fault-injected property test for the replicated store: random
// puts/deletes/gets interleaved with node crashes and restores, checked
// against an in-memory model. The consistency contract under test
// (paper §4.2's quorum discussion):
//   * writes at QUORUM that succeed are never lost while a quorum of
//     replicas remains;
//   * reads at QUORUM observe the latest successful QUORUM write
//     (read-your-quorum-writes, via overlap + read repair);
//   * operations fail cleanly (Unavailable) when too few replicas are up.
#include <map>
#include <optional>
#include <set>
#include <string>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "kvstore/cluster.h"
#include "tests/test_util.h"

namespace muppet {
namespace kv {
namespace {

using ::muppet::testing::TempDir;

class ClusterFaultTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClusterFaultTest, QuorumHistoryIsLinearPerKey) {
  TempDir dir;
  KvClusterOptions options;
  options.num_nodes = 5;
  options.node.data_dir = dir.path();
  KvCluster cluster(options);
  ASSERT_OK(cluster.Open());

  // Model: last *successfully quorum-acknowledged* value per key. Failed
  // quorum writes may still land on a minority replica (the store, like
  // Cassandra, does not roll back) — those keys become "tainted": any of
  // the attempted values may later surface.
  std::map<Bytes, std::optional<Bytes>> model;
  std::map<Bytes, std::set<Bytes>> maybe;  // values of failed writes
  std::map<Bytes, bool> maybe_deleted;     // failed deletes
  Rng rng(GetParam());
  std::set<int> down;

  constexpr int kOps = 1500;
  for (int op = 0; op < kOps; ++op) {
    const uint64_t dice = rng.Uniform(100);
    const Bytes row = "key" + std::to_string(rng.Uniform(25));

    if (dice < 8 && down.size() < 2) {
      int victim;
      do {
        victim = static_cast<int>(rng.Uniform(5));
      } while (down.count(victim) > 0);
      cluster.CrashNode(victim);
      down.insert(victim);
      continue;
    }
    if (dice < 14 && !down.empty()) {
      const int node = *down.begin();
      cluster.RestoreNode(node);
      down.erase(node);
      continue;
    }
    if (dice < 55) {
      const Bytes value = "v" + std::to_string(op);
      Status s = cluster.Put("cf", row, "col", value, {},
                             ConsistencyLevel::kQuorum);
      if (s.ok()) {
        model[row] = value;
        maybe[row].clear();
        maybe_deleted[row] = false;
      } else {
        ASSERT_TRUE(s.IsUnavailable()) << s.ToString();
        maybe[row].insert(value);  // may have landed partially
      }
    } else if (dice < 65) {
      Status s = cluster.Delete("cf", row, "col", ConsistencyLevel::kQuorum);
      if (s.ok()) {
        model[row] = std::nullopt;
        maybe[row].clear();
        maybe_deleted[row] = false;
      } else {
        ASSERT_TRUE(s.IsUnavailable()) << s.ToString();
        maybe_deleted[row] = true;
      }
    } else {
      auto got = cluster.Get("cf", row, "col", ConsistencyLevel::kQuorum);
      if (got.status().IsUnavailable()) continue;  // too few replicas up
      auto it = model.find(row);
      const bool tainted =
          !maybe[row].empty() || maybe_deleted[row];
      if (tainted) {
        // Any of: the model value, a partially-landed value, or gone.
        if (got.ok()) {
          const bool is_model = it != model.end() && it->second.has_value() &&
                                got.value().value == *it->second;
          EXPECT_TRUE(is_model || maybe[row].count(got.value().value) > 0)
              << "op " << op << ": unexpected value " << got.value().value;
        }
      } else if (it == model.end() || !it->second.has_value()) {
        EXPECT_TRUE(got.status().IsNotFound())
            << "op " << op << " key " << row << ": "
            << (got.ok() ? std::string(got.value().value)
                         : got.status().ToString());
      } else {
        ASSERT_OK(got);
        EXPECT_EQ(got.value().value, *it->second) << "op " << op;
      }
    }
  }

  // Restore everyone; untainted keys must agree with the model exactly
  // under a kAll read (read repair converges the replicas).
  for (int node : down) cluster.RestoreNode(node);
  for (const auto& [row, expected] : model) {
    if (!maybe[row].empty() || maybe_deleted[row]) continue;  // tainted
    auto got = cluster.Get("cf", row, "col", ConsistencyLevel::kAll);
    if (!expected.has_value()) {
      EXPECT_TRUE(got.status().IsNotFound()) << row;
    } else {
      ASSERT_OK(got);
      EXPECT_EQ(got.value().value, *expected) << row;
    }
  }
}

TEST_P(ClusterFaultTest, OneLevelSurvivesAnySingleReplica) {
  TempDir dir;
  KvClusterOptions options;
  options.num_nodes = 3;
  options.node.data_dir = dir.path();
  KvCluster cluster(options);
  ASSERT_OK(cluster.Open());

  Rng rng(GetParam() ^ 0xabcdef);
  for (int round = 0; round < 30; ++round) {
    const Bytes row = "k" + std::to_string(round);
    ASSERT_OK(cluster.Put("cf", row, "c", "stable", {},
                          ConsistencyLevel::kAll));
    // Kill any two replicas: kOne still answers from the third.
    const auto replicas = cluster.ReplicasFor(row);
    const size_t a = rng.Uniform(3);
    const size_t b = (a + 1 + rng.Uniform(2)) % 3;
    cluster.CrashNode(replicas[a]);
    cluster.CrashNode(replicas[b]);
    auto got = cluster.Get("cf", row, "c", ConsistencyLevel::kOne);
    ASSERT_OK(got);
    EXPECT_EQ(got.value().value, "stable");
    cluster.RestoreNode(replicas[a]);
    cluster.RestoreNode(replicas[b]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterFaultTest,
                         ::testing::Values(11, 222, 3333));

}  // namespace
}  // namespace kv
}  // namespace muppet
