// Robustness: the durable store becomes unavailable while the engine
// runs. The engine must keep processing from its caches (the paper's
// latency-first stance), and once the store returns, retried flushes must
// converge it to the live state — no update silently dropped.
#include <memory>
#include <string>

#include "core/slate.h"
#include "core/slate_cache.h"
#include "core/slate_store.h"
#include "engine/muppet2.h"
#include "gtest/gtest.h"
#include "json/json.h"
#include "kvstore/cluster.h"
#include "testing/scenario.h"
#include "tests/engine/engine_test_util.h"
#include "tests/test_util.h"

namespace muppet {
namespace {

using ::muppet::testing::BuildCountingApp;
using ::muppet::testing::CountOf;
using ::muppet::testing::TempDir;

TEST(StoreOutageTest, CacheRetriesFailedFlushes) {
  // Unit-level: a write-back that fails must leave the entry dirty so a
  // later flush retries it.
  bool store_up = true;
  int64_t stored = 0;
  SlateCache cache({.capacity = 100},
                   [&](const SlateCache::DirtySlate&) -> Status {
                     if (!store_up) return Status::Unavailable("down");
                     ++stored;
                     return Status::OK();
                   });
  ASSERT_OK(cache.Update(SlateId{"U", "k"}, "v1", 10, false));
  store_up = false;
  EXPECT_FALSE(cache.FlushDirty(INT64_MAX).ok());
  EXPECT_EQ(stored, 0);
  store_up = true;
  auto flushed = cache.FlushDirty(INT64_MAX);
  ASSERT_OK(flushed);
  EXPECT_EQ(flushed.value(), 1) << "the failed flush must be retried";
  EXPECT_EQ(stored, 1);
  // And nothing left after the retry.
  EXPECT_EQ(cache.FlushDirty(INT64_MAX).value(), 0);
}

TEST(StoreOutageTest, EngineSurvivesStoreOutageAndConverges) {
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
  updater_options.flush_interval_micros = kMicrosPerMilli;
  BuildCountingApp(&config, /*forward=*/false, updater_options);

  EngineOptions options;
  options.num_machines = 2;
  options.threads_per_machine = 2;
  options.slate_store = &store;
  Muppet2Engine engine(config, options);
  ASSERT_OK(engine.Start());

  // Warm phase: slates exist in cache and store.
  for (int i = 0; i < 40; ++i) {
    ASSERT_OK(engine.Publish("in", "k" + std::to_string(i % 4), "", i + 1));
  }
  ASSERT_OK(engine.Drain());

  // Outage: the store node dies; the engine keeps counting from cache.
  cluster.CrashNode(0);
  for (int i = 0; i < 40; ++i) {
    ASSERT_OK(engine.Publish("in", "k" + std::to_string(i % 4), "",
                             100 + i));
  }
  ASSERT_OK(engine.Drain());
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(CountOf(engine, "count", "k" + std::to_string(k)), 20)
        << "live processing must not depend on the store";
  }

  // Recovery: the store returns; Stop() flushes the retried state.
  cluster.RestoreNode(0);
  ASSERT_OK(engine.Stop());
  int64_t total = 0;
  for (int k = 0; k < 4; ++k) {
    Result<Bytes> slate =
        store.Read(SlateId{"count", "k" + std::to_string(k)});
    ASSERT_OK(slate);
    JsonSlate s(&slate.value());
    total += s.data().GetInt("count");
  }
  EXPECT_EQ(total, 80) << "the store must converge to the live state after "
                          "the outage";
}

using ::muppet::chaos::EngineKind;

class StoreOutageTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(StoreOutageTest, FailedSlateFetchIsCountedAsLost) {
  // A cache miss while the store is down fails the slate fetch, so the
  // updater never runs. The event must still settle — as lost — or the
  // conservation books (and /metrics) silently drop it.
  TempDir dir;
  kv::KvClusterOptions kv_options;
  kv_options.num_nodes = 1;
  kv_options.replication_factor = 1;
  kv_options.node.data_dir = dir.path();
  kv::KvCluster cluster(kv_options);
  ASSERT_OK(cluster.Open());
  SlateStore store(&cluster, SlateStoreOptions{});

  AppConfig config;
  BuildCountingApp(&config);
  EngineOptions options;
  options.num_machines = 2;
  options.slate_store = &store;
  std::unique_ptr<Engine> engine =
      chaos::MakeEngine(GetParam(), config, options);
  ASSERT_OK(engine->Start());
  cluster.CrashNode(0);
  for (int i = 0; i < 40; ++i) {
    ASSERT_OK(engine->Publish("in", "fresh" + std::to_string(i), "", i + 1));
  }
  ASSERT_OK(engine->Drain());

  const EngineStats stats = engine->Stats();
  EXPECT_EQ(stats.events_published, 40);
  EXPECT_EQ(stats.events_processed, 0);
  EXPECT_EQ(stats.events_lost_failure, 40);
  EXPECT_EQ(stats.events_processed + stats.events_lost_failure +
                stats.events_dropped_overflow + stats.events_deduped,
            stats.events_published + stats.events_emitted);
  cluster.RestoreNode(0);
  ASSERT_OK(engine->Stop());
}

INSTANTIATE_TEST_SUITE_P(Engines, StoreOutageTest,
                         ::testing::Values(EngineKind::kMuppet1,
                                           EngineKind::kMuppet2),
                         [](const auto& info) {
                           return info.param == EngineKind::kMuppet1
                                      ? "Muppet1"
                                      : "Muppet2";
                         });

}  // namespace
}  // namespace muppet
