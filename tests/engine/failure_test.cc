// Machine-crash handling (§4.3): failure detected on send, reported to the
// master, broadcast, rerouted by the shared hash ring; queued events and
// unflushed slates are lost; flushed slates survive in the store.
#include <memory>
#include <string>

#include "core/slate_store.h"
#include "gtest/gtest.h"
#include "kvstore/cluster.h"
#include "testing/scenario.h"
#include "tests/engine/engine_test_util.h"
#include "tests/test_util.h"

namespace muppet {
namespace {

using ::muppet::testing::BuildCountingApp;
using ::muppet::testing::CountOf;
using ::muppet::testing::TempDir;
using ::muppet::chaos::EngineKind;
using ::muppet::chaos::MakeEngine;

class FailureTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(FailureTest, ProcessingContinuesAfterCrash) {
  AppConfig config;
  BuildCountingApp(&config);
  EngineOptions options;
  options.num_machines = 3;
  options.workers_per_function = 3;
  options.threads_per_machine = 2;
  auto engine = MakeEngine(GetParam(), config, options);
  ASSERT_OK(engine->Start());

  for (int i = 0; i < 90; ++i) {
    ASSERT_OK(engine->Publish("in", "key" + std::to_string(i % 9), "", i + 1));
  }
  ASSERT_OK(engine->Drain());
  ASSERT_OK(engine->CrashMachine(1));

  // Publishing continues; events owned by machine 1 are lost once (the
  // detecting send), then rerouted via the master broadcast.
  for (int i = 0; i < 90; ++i) {
    ASSERT_OK(
        engine->Publish("in", "key" + std::to_string(i % 9), "", 100 + i));
  }
  ASSERT_OK(engine->Drain());

  const EngineStats stats = engine->Stats();
  EXPECT_GT(stats.failures_detected, 0)
      << "the crash must be detected via a failed send";
  // Post-crash events were processed by survivors: published events minus
  // the (bounded) losses all got counted.
  EXPECT_EQ(stats.events_processed + stats.events_lost_failure,
            stats.events_published);
  EXPECT_LT(stats.events_lost_failure, 90);
  ASSERT_OK(engine->Stop());
}

TEST_P(FailureTest, RejectedCrashArguments) {
  AppConfig config;
  BuildCountingApp(&config);
  EngineOptions options;
  options.num_machines = 2;
  auto engine = MakeEngine(GetParam(), config, options);
  ASSERT_OK(engine->Start());
  EXPECT_FALSE(engine->CrashMachine(-1).ok());
  EXPECT_FALSE(engine->CrashMachine(99).ok());
  ASSERT_OK(engine->CrashMachine(1));
  ASSERT_OK(engine->CrashMachine(1));  // idempotent
  ASSERT_OK(engine->Stop());
}

TEST_P(FailureTest, SameKeyReroutesToSameSurvivor) {
  AppConfig config;
  BuildCountingApp(&config);
  EngineOptions options;
  options.num_machines = 3;
  options.workers_per_function = 3;
  auto engine = MakeEngine(GetParam(), config, options);
  ASSERT_OK(engine->Start());
  // Crash, then publish many events of one key: they must all reach one
  // surviving worker (the count lands in a single slate).
  ASSERT_OK(engine->CrashMachine(2));
  for (int i = 0; i < 60; ++i) {
    ASSERT_OK(engine->Publish("in", "steady", "", i + 1));
  }
  ASSERT_OK(engine->Drain());
  const int64_t count = CountOf(*engine, "count", "steady");
  const EngineStats stats = engine->Stats();
  EXPECT_EQ(count + stats.events_lost_failure, 60);
  EXPECT_LE(stats.events_lost_failure, 1)
      << "at most the failure-detecting event is lost";
  ASSERT_OK(engine->Stop());
}

TEST_P(FailureTest, FlushedSlatesSurviveCrashViaStore) {
  TempDir dir;
  kv::KvClusterOptions kv_options;
  kv_options.num_nodes = 1;
  kv_options.replication_factor = 1;
  kv_options.node.data_dir = dir.path();
  kv::KvCluster kv_cluster(kv_options);
  ASSERT_OK(kv_cluster.Open());
  SlateStore store(&kv_cluster, SlateStoreOptions{});

  AppConfig config;
  UpdaterOptions updater_options;
  updater_options.flush_policy = SlateFlushPolicy::kWriteThrough;
  BuildCountingApp(&config, /*forward=*/false, updater_options);

  EngineOptions options;
  options.num_machines = 3;
  options.workers_per_function = 3;
  options.threads_per_machine = 2;
  options.slate_store = &store;
  auto engine = MakeEngine(GetParam(), config, options);
  ASSERT_OK(engine->Start());

  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(engine->Publish("in", "durable-key", "", i + 1));
  }
  ASSERT_OK(engine->Drain());
  EXPECT_EQ(CountOf(*engine, "count", "durable-key"), 50);

  // Crash every machine in turn until the key's owner is certainly gone,
  // then fetch: the surviving path must read the store-backed state.
  ASSERT_OK(engine->CrashMachine(0));
  Result<Bytes> slate = engine->FetchSlate("count", "durable-key");
  ASSERT_OK(slate);
  JsonSlate s(&slate.value());
  EXPECT_EQ(s.data().GetInt("count"), 50)
      << "write-through slates survive machine loss (§4.2/§4.3)";
  ASSERT_OK(engine->Stop());
}

TEST_P(FailureTest, UnflushedSlateUpdatesLostOnCrash) {
  // With a very long flush interval, slate changes live only in the
  // crashed machine's cache: the paper accepts this loss (§4.3).
  TempDir dir;
  kv::KvClusterOptions kv_options;
  kv_options.num_nodes = 1;
  kv_options.replication_factor = 1;
  kv_options.node.data_dir = dir.path();
  kv::KvCluster kv_cluster(kv_options);
  ASSERT_OK(kv_cluster.Open());
  SlateStore store(&kv_cluster, SlateStoreOptions{});

  AppConfig config;
  UpdaterOptions updater_options;
  updater_options.flush_policy = SlateFlushPolicy::kInterval;
  updater_options.flush_interval_micros = 3600LL * kMicrosPerSecond;  // never
  BuildCountingApp(&config, /*forward=*/false, updater_options);

  EngineOptions options;
  options.num_machines = 2;
  options.workers_per_function = 2;
  options.slate_store = &store;
  auto engine = MakeEngine(GetParam(), config, options);
  ASSERT_OK(engine->Start());
  for (int i = 0; i < 30; ++i) {
    ASSERT_OK(engine->Publish("in", "volatile-key", "", i + 1));
  }
  ASSERT_OK(engine->Drain());

  // Crash both machines: the cached (never flushed) slate is gone, and
  // the store never saw it.
  ASSERT_OK(engine->CrashMachine(0));
  ASSERT_OK(engine->CrashMachine(1));
  EXPECT_TRUE(store.Read(SlateId{"count", "volatile-key"})
                  .status()
                  .IsNotFound());
  ASSERT_OK(engine->Stop());
}

INSTANTIATE_TEST_SUITE_P(Engines, FailureTest,
                         ::testing::Values(EngineKind::kMuppet1,
                                           EngineKind::kMuppet2),
                         [](const auto& info) {
                           return info.param == EngineKind::kMuppet1
                                      ? "Muppet1"
                                      : "Muppet2";
                         });

}  // namespace
}  // namespace muppet
