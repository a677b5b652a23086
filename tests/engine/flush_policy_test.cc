// Slate flush policies through the whole engine stack (paper §4.2:
// "ranging from 'immediate write-through' to 'only when evicted from
// cache'"), for both engine generations:
//   * write-through writes the store once per update;
//   * interval coalesces (fewer store writes than updates);
//   * on-evict writes only at eviction or shutdown;
//   * regardless of policy, a clean Stop() leaves the store complete;
//   * without a store, the cache holds the only copy and never evicts.
#include <memory>
#include <string>
#include <tuple>

#include "core/slate.h"
#include "core/slate_store.h"
#include "gtest/gtest.h"
#include "json/json.h"
#include "kvstore/cluster.h"
#include "testing/scenario.h"
#include "tests/engine/engine_test_util.h"
#include "tests/test_util.h"

namespace muppet {
namespace {

using ::muppet::chaos::EngineKind;
using ::muppet::testing::BuildCountingApp;
using ::muppet::testing::CountOf;
using ::muppet::testing::TempDir;

using PolicyParams = std::tuple<bool, SlateFlushPolicy>;

class FlushPolicyTest : public ::testing::TestWithParam<PolicyParams> {};

TEST_P(FlushPolicyTest, StoreWriteVolumeMatchesPolicy) {
  const bool muppet2 = std::get<0>(GetParam());
  const SlateFlushPolicy policy = std::get<1>(GetParam());

  TempDir dir;
  kv::KvClusterOptions kv_options;
  kv_options.num_nodes = 1;
  kv_options.replication_factor = 1;
  kv_options.node.data_dir = dir.path();
  kv::KvCluster cluster(kv_options);
  ASSERT_OK(cluster.Open());
  SlateStore store(&cluster, SlateStoreOptions{});

  AppConfig config;
  UpdaterOptions updater_options;
  updater_options.flush_policy = policy;
  updater_options.flush_interval_micros = 5 * kMicrosPerMilli;
  BuildCountingApp(&config, /*forward=*/false, updater_options);

  EngineOptions options;
  options.num_machines = 2;
  options.workers_per_function = 2;
  options.threads_per_machine = 2;
  options.slate_cache_capacity = 1 << 14;  // never evict in this test
  options.slate_store = &store;
  std::unique_ptr<Engine> engine = chaos::MakeEngine(
      muppet2 ? EngineKind::kMuppet2 : EngineKind::kMuppet1, config, options);
  ASSERT_OK(engine->Start());

  constexpr int kEvents = 500;
  constexpr int kKeys = 10;
  for (int i = 0; i < kEvents; ++i) {
    ASSERT_OK(engine->Publish("in", "k" + std::to_string(i % kKeys), "",
                              i + 1));
  }
  ASSERT_OK(engine->Drain());
  const int64_t writes_before_stop = engine->Stats().slate_store_writes;

  switch (policy) {
    case SlateFlushPolicy::kWriteThrough:
      EXPECT_EQ(writes_before_stop, kEvents)
          << "write-through writes the store on every update";
      break;
    case SlateFlushPolicy::kInterval:
      // Coalescing: strictly fewer writes than updates (each flush batch
      // writes at most one version per dirty slate).
      EXPECT_LT(writes_before_stop, kEvents);
      break;
    case SlateFlushPolicy::kOnEvict:
      EXPECT_EQ(writes_before_stop, 0)
          << "nothing evicts, so nothing reaches the store before stop";
      break;
  }

  // A clean shutdown flushes everything, whatever the policy: the store
  // afterwards holds the complete, final counts.
  ASSERT_OK(engine->Stop());
  int64_t total = 0;
  for (int k = 0; k < kKeys; ++k) {
    Result<Bytes> slate =
        store.Read(SlateId{"count", "k" + std::to_string(k)});
    ASSERT_OK(slate);
    JsonSlate s(&slate.value());
    total += s.data().GetInt("count");
  }
  EXPECT_EQ(total, kEvents);
}

TEST_P(FlushPolicyTest, EvictionWritesBackUnderTinyCache) {
  const bool muppet2 = std::get<0>(GetParam());
  const SlateFlushPolicy policy = std::get<1>(GetParam());
  if (policy == SlateFlushPolicy::kWriteThrough) {
    GTEST_SKIP() << "write-through never holds dirty state to evict";
  }

  TempDir dir;
  kv::KvClusterOptions kv_options;
  kv_options.num_nodes = 1;
  kv_options.replication_factor = 1;
  kv_options.node.data_dir = dir.path();
  kv::KvCluster cluster(kv_options);
  ASSERT_OK(cluster.Open());
  SlateStore store(&cluster, SlateStoreOptions{});

  AppConfig config;
  UpdaterOptions updater_options;
  updater_options.flush_policy = policy;
  updater_options.flush_interval_micros = 3600LL * kMicrosPerSecond;
  BuildCountingApp(&config, /*forward=*/false, updater_options);

  EngineOptions options;
  options.num_machines = 1;
  options.workers_per_function = 1;
  options.threads_per_machine = 1;
  options.slate_cache_capacity = 4;  // far below the key count
  options.slate_store = &store;
  std::unique_ptr<Engine> engine = chaos::MakeEngine(
      muppet2 ? EngineKind::kMuppet2 : EngineKind::kMuppet1, config, options);
  ASSERT_OK(engine->Start());
  // Cyclic sweep over 32 keys with a 4-slot cache: constant eviction.
  for (int i = 0; i < 320; ++i) {
    ASSERT_OK(engine->Publish("in", "k" + std::to_string(i % 32), "",
                              i + 1));
  }
  ASSERT_OK(engine->Drain());
  const EngineStats stats = engine->Stats();
  EXPECT_GT(stats.slate_cache_evictions, 0);
  EXPECT_GT(stats.slate_store_writes, 0)
      << "evicted dirty slates must reach the store";
  // Evicted-then-retouched slates must round-trip through the store: the
  // counts stay exact despite the thrashing cache.
  ASSERT_OK(engine->Stop());
  int64_t total = 0;
  for (int k = 0; k < 32; ++k) {
    Result<Bytes> slate =
        store.Read(SlateId{"count", "k" + std::to_string(k)});
    ASSERT_OK(slate);
    JsonSlate s(&slate.value());
    total += s.data().GetInt("count");
  }
  EXPECT_EQ(total, 320);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, FlushPolicyTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(SlateFlushPolicy::kWriteThrough,
                                         SlateFlushPolicy::kInterval,
                                         SlateFlushPolicy::kOnEvict)),
    [](const ::testing::TestParamInfo<PolicyParams>& info) {
      std::string name = std::get<0>(info.param) ? "M2_" : "M1_";
      switch (std::get<1>(info.param)) {
        case SlateFlushPolicy::kWriteThrough: return name + "writethrough";
        case SlateFlushPolicy::kInterval: return name + "interval";
        case SlateFlushPolicy::kOnEvict: return name + "onevict";
      }
      return name + "unknown";
    });

// With no slate store an evicted slate would have nowhere to go, and the
// key would restart from an empty slate. The cache keeps every slate
// instead and runs over capacity.
class NoStoreCacheTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(NoStoreCacheTest, EvictionNeverDropsTheOnlyCopy) {
  AppConfig config;
  BuildCountingApp(&config);
  EngineOptions options;
  options.num_machines = 1;
  options.workers_per_function = 1;
  options.threads_per_machine = 1;
  options.slate_cache_capacity = 4;  // far below the key count
  std::unique_ptr<Engine> engine =
      chaos::MakeEngine(GetParam(), config, options);
  ASSERT_OK(engine->Start());
  constexpr int kKeys = 16;
  for (int round = 0; round < 2; ++round) {
    for (int k = 0; k < kKeys; ++k) {
      ASSERT_OK(engine->Publish("in", "k" + std::to_string(k), "",
                                round * kKeys + k + 1));
    }
  }
  ASSERT_OK(engine->Drain());
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_EQ(CountOf(*engine, "count", "k" + std::to_string(k)), 2)
        << "k" << k;
  }
  EXPECT_EQ(engine->Stats().slate_cache_evictions, 0);
  const MachineStatus status = engine->MachineStatuses()[0];
  EXPECT_EQ(status.slate_cache_slates, static_cast<size_t>(kKeys));
  EXPECT_EQ(status.slate_cache_capacity, 4u);
  ASSERT_OK(engine->Stop());
}

INSTANTIATE_TEST_SUITE_P(Engines, NoStoreCacheTest,
                         ::testing::Values(EngineKind::kMuppet1,
                                           EngineKind::kMuppet2),
                         [](const auto& info) {
                           return info.param == EngineKind::kMuppet1
                                      ? "Muppet1"
                                      : "Muppet2";
                         });

}  // namespace
}  // namespace muppet
