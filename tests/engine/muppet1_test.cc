#include "engine/muppet1.h"

#include <atomic>
#include <set>
#include <string>

#include "gtest/gtest.h"
#include "tests/engine/engine_test_util.h"
#include "tests/test_util.h"

namespace muppet {
namespace {

using ::muppet::testing::BuildCountingApp;
using ::muppet::testing::BuildFanoutApp;
using ::muppet::testing::CountOf;

EngineOptions SmallOptions(int machines = 2, int workers = 2) {
  EngineOptions options;
  options.num_machines = machines;
  options.workers_per_function = workers;
  options.queue_capacity = 1024;
  return options;
}

TEST(Muppet1Test, CountsEventsPerKey) {
  AppConfig config;
  BuildCountingApp(&config);
  Muppet1Engine engine(config, SmallOptions());
  ASSERT_OK(engine.Start());
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(engine.Publish("in", "key" + std::to_string(i % 5), "", i + 1));
  }
  ASSERT_OK(engine.Drain());
  for (int k = 0; k < 5; ++k) {
    EXPECT_EQ(CountOf(engine, "count", "key" + std::to_string(k)), 20);
  }
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.events_published, 100);
  EXPECT_EQ(stats.events_processed, 100);
  EXPECT_EQ(stats.events_lost_failure, 0);
  EXPECT_EQ(stats.events_dropped_overflow, 0);
  ASSERT_OK(engine.Stop());
}

TEST(Muppet1Test, MapperUpdaterPipeline) {
  AppConfig config;
  BuildFanoutApp(&config);
  Muppet1Engine engine(config, SmallOptions());
  ASSERT_OK(engine.Start());
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(engine.Publish("in", "k", "", i + 1));
  }
  ASSERT_OK(engine.Drain());
  // The fanout mapper doubles each event.
  EXPECT_EQ(CountOf(engine, "count", "k"), 100);
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.events_emitted, 100);
  EXPECT_EQ(stats.events_processed, 150);  // 50 map + 100 update calls
  ASSERT_OK(engine.Stop());
}

TEST(Muppet1Test, SingleMachineSingleWorker) {
  AppConfig config;
  BuildCountingApp(&config);
  Muppet1Engine engine(config, SmallOptions(1, 1));
  ASSERT_OK(engine.Start());
  for (int i = 0; i < 30; ++i) ASSERT_OK(engine.Publish("in", "k", "", i + 1));
  ASSERT_OK(engine.Drain());
  EXPECT_EQ(CountOf(engine, "count", "k"), 30);
  ASSERT_OK(engine.Stop());
}

TEST(Muppet1Test, ManyMachinesManyWorkers) {
  AppConfig config;
  BuildCountingApp(&config);
  Muppet1Engine engine(config, SmallOptions(4, 4));
  ASSERT_OK(engine.Start());
  for (int i = 0; i < 400; ++i) {
    ASSERT_OK(
        engine.Publish("in", "key" + std::to_string(i % 20), "", i + 1));
  }
  ASSERT_OK(engine.Drain());
  for (int k = 0; k < 20; ++k) {
    EXPECT_EQ(CountOf(engine, "count", "key" + std::to_string(k)), 20);
  }
  ASSERT_OK(engine.Stop());
}

TEST(Muppet1Test, TapObservesStreamEvents) {
  AppConfig config;
  BuildCountingApp(&config, /*forward=*/true);
  Muppet1Engine engine(config, SmallOptions());
  std::atomic<int> tapped{0};
  engine.TapStream("out", [&tapped](const Event&) { tapped.fetch_add(1); });
  ASSERT_OK(engine.Start());
  for (int i = 0; i < 25; ++i) ASSERT_OK(engine.Publish("in", "k", "", i + 1));
  ASSERT_OK(engine.Drain());
  EXPECT_EQ(tapped.load(), 25);
  ASSERT_OK(engine.Stop());
}

TEST(Muppet1Test, PublishToUnknownOrInternalStreamRejected) {
  AppConfig config;
  BuildCountingApp(&config, /*forward=*/true);
  Muppet1Engine engine(config, SmallOptions());
  ASSERT_OK(engine.Start());
  EXPECT_FALSE(engine.Publish("ghost", "k", "", 1).ok());
  EXPECT_FALSE(engine.Publish("out", "k", "", 1).ok());
  ASSERT_OK(engine.Stop());
}

TEST(Muppet1Test, FetchSlateUnknownUpdater) {
  AppConfig config;
  BuildCountingApp(&config);
  Muppet1Engine engine(config, SmallOptions());
  ASSERT_OK(engine.Start());
  EXPECT_TRUE(engine.FetchSlate("nope", "k").status().IsNotFound());
  EXPECT_TRUE(engine.FetchSlate("count", "never-seen").status().IsNotFound());
  ASSERT_OK(engine.Stop());
}

TEST(Muppet1Test, EventsRouteConsistentlyByKey) {
  // All events of one key must reach the same worker: the per-key count
  // in a single slate equals the number published, even with many workers.
  AppConfig config;
  BuildCountingApp(&config);
  Muppet1Engine engine(config, SmallOptions(3, 3));
  ASSERT_OK(engine.Start());
  for (int i = 0; i < 90; ++i) {
    ASSERT_OK(engine.Publish("in", "stable-key", "", i + 1));
  }
  ASSERT_OK(engine.Drain());
  EXPECT_EQ(CountOf(engine, "count", "stable-key"), 90);
  ASSERT_OK(engine.Stop());
}

TEST(Muppet1Test, OperatorInstancesPerWorker) {
  // Muppet 1.0 constructs one operator instance per worker (the §4.5
  // memory-duplication limitation).
  AppConfig config;
  BuildFanoutApp(&config);  // 2 functions
  EngineOptions options = SmallOptions(2, 3);  // 3 workers per function
  Muppet1Engine engine(config, options);
  ASSERT_OK(engine.Start());
  EXPECT_EQ(engine.Stats().operator_instances, 6);
  ASSERT_OK(engine.Stop());
}

TEST(Muppet1Test, StopIsIdempotentAndFlushes) {
  AppConfig config;
  BuildCountingApp(&config);
  Muppet1Engine engine(config, SmallOptions());
  ASSERT_OK(engine.Start());
  ASSERT_OK(engine.Publish("in", "k", "", 1));
  ASSERT_OK(engine.Drain());
  ASSERT_OK(engine.Stop());
  ASSERT_OK(engine.Stop());
  EXPECT_FALSE(engine.Publish("in", "k", "", 2).ok());
}

TEST(Muppet1Test, LatencyRecorded) {
  AppConfig config;
  BuildCountingApp(&config);
  Muppet1Engine engine(config, SmallOptions());
  ASSERT_OK(engine.Start());
  for (int i = 0; i < 10; ++i) ASSERT_OK(engine.Publish("in", "k", "", i + 1));
  ASSERT_OK(engine.Drain());
  const EngineStats stats = engine.Stats();
  EXPECT_GT(stats.latency_p50_us, 0);
  EXPECT_GE(stats.latency_p99_us, stats.latency_p50_us);
  ASSERT_OK(engine.Stop());
}

TEST(Muppet1Test, StartValidatesConfig) {
  AppConfig config;  // empty: invalid
  Muppet1Engine engine(config, SmallOptions());
  EXPECT_FALSE(engine.Start().ok());
}

TEST(Muppet1Test, LargeValuesSurviveSerializationChain) {
  AppConfig config;
  BuildCountingApp(&config, /*forward=*/true);
  Muppet1Engine engine(config, SmallOptions());
  std::atomic<size_t> seen_size{0};
  engine.TapStream("out", [&seen_size](const Event& e) {
    seen_size.store(e.value.size());
  });
  ASSERT_OK(engine.Start());
  const Bytes big(100000, 'v');
  ASSERT_OK(engine.Publish("in", "k", big, 1));
  ASSERT_OK(engine.Drain());
  EXPECT_EQ(seen_size.load(), big.size());
  ASSERT_OK(engine.Stop());
}

// Each 1.0 event crosses the transport as a frame of one. A queue-full
// decline is not a send: only accepted messages count as sent, so under
// the drop policy every sent message is processed exactly once.
TEST(Muppet1Test, TransportCountsOnlyAcceptedMessages) {
  AppConfig config;
  ASSERT_OK(config.DeclareInputStream("in"));
  ASSERT_OK(config.AddUpdater(
      "slow",
      MakeUpdaterFactory(
          [](PerformerUtilities& out, const Event&, const Bytes* slate) {
            SystemClock::Default()->SleepFor(200);
            JsonSlate s(slate);
            s.data()["count"] = s.data().GetInt("count") + 1;
            (void)out.ReplaceSlate(s.Serialize());
          }),
      {"in"}));
  EngineOptions options = SmallOptions(/*machines=*/2, /*workers=*/2);
  options.queue_capacity = 2;
  Muppet1Engine engine(config, options);
  ASSERT_OK(engine.Start());
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK(engine.Publish("in", "k" + std::to_string(i % 8), "", i + 1));
  }
  ASSERT_OK(engine.Drain());
  const EngineStats stats = engine.Stats();
  EXPECT_GT(stats.events_dropped_overflow, 0);
  EXPECT_EQ(stats.events_processed + stats.events_dropped_overflow, 200);
  EXPECT_EQ(stats.transport_messages_sent, stats.events_processed);
  ASSERT_OK(engine.Stop());
}

}  // namespace
}  // namespace muppet
