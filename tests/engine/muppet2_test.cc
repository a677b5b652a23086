#include "engine/muppet2.h"

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "gtest/gtest.h"
#include "tests/engine/engine_test_util.h"
#include "tests/test_util.h"

namespace muppet {
namespace {

using ::muppet::testing::BuildCountingApp;
using ::muppet::testing::BuildFanoutApp;
using ::muppet::testing::CountOf;

EngineOptions SmallOptions(int machines = 2, int threads = 3) {
  EngineOptions options;
  options.num_machines = machines;
  options.threads_per_machine = threads;
  options.queue_capacity = 2048;
  return options;
}

TEST(Muppet2Test, CountsEventsPerKey) {
  AppConfig config;
  BuildCountingApp(&config);
  Muppet2Engine engine(config, SmallOptions());
  ASSERT_OK(engine.Start());
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK(engine.Publish("in", "key" + std::to_string(i % 8), "", i + 1));
  }
  ASSERT_OK(engine.Drain());
  for (int k = 0; k < 8; ++k) {
    EXPECT_EQ(CountOf(engine, "count", "key" + std::to_string(k)), 25);
  }
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.events_published, 200);
  EXPECT_EQ(stats.events_processed, 200);
  EXPECT_EQ(stats.events_lost_failure, 0);
  ASSERT_OK(engine.Stop());
}

TEST(Muppet2Test, PipelineWithMapper) {
  AppConfig config;
  BuildFanoutApp(&config);
  Muppet2Engine engine(config, SmallOptions());
  ASSERT_OK(engine.Start());
  for (int i = 0; i < 50; ++i) ASSERT_OK(engine.Publish("in", "k", "", i + 1));
  ASSERT_OK(engine.Drain());
  EXPECT_EQ(CountOf(engine, "count", "k"), 100);
  ASSERT_OK(engine.Stop());
}

TEST(Muppet2Test, SingleThreadSingleMachine) {
  AppConfig config;
  BuildCountingApp(&config);
  Muppet2Engine engine(config, SmallOptions(1, 1));
  ASSERT_OK(engine.Start());
  for (int i = 0; i < 40; ++i) ASSERT_OK(engine.Publish("in", "k", "", i + 1));
  ASSERT_OK(engine.Drain());
  EXPECT_EQ(CountOf(engine, "count", "k"), 40);
  ASSERT_OK(engine.Stop());
}

TEST(Muppet2Test, NoLostUpdatesUnderConcurrency) {
  // The §4.5 design allows two threads to vie for a slate; the striped
  // slate lock must keep read-modify-write updates lossless.
  AppConfig config;
  BuildCountingApp(&config);
  Muppet2Engine engine(config, SmallOptions(1, 4));
  ASSERT_OK(engine.Start());
  constexpr int kEvents = 2000;
  for (int i = 0; i < kEvents; ++i) {
    ASSERT_OK(engine.Publish("in", "hot", "", i + 1));
  }
  ASSERT_OK(engine.Drain());
  EXPECT_EQ(CountOf(engine, "count", "hot"), kEvents)
      << "slate updates must not be lost to contention";
  ASSERT_OK(engine.Stop());
}

TEST(Muppet2Test, OperatorInstancesSharedPerMachine) {
  // Muppet 2.0: "each map and update function is constructed only once
  // [per machine] and shared by all threads" (§4.5).
  AppConfig config;
  BuildFanoutApp(&config);  // 2 functions
  Muppet2Engine engine(config, SmallOptions(3, 8));
  ASSERT_OK(engine.Start());
  EXPECT_EQ(engine.Stats().operator_instances, 6)  // 2 funcs x 3 machines
      << "thread count must not multiply operator instances";
  ASSERT_OK(engine.Stop());
}

TEST(Muppet2Test, SecondaryDispatchEngagesUnderSkew) {
  AppConfig config;
  BuildCountingApp(&config);
  EngineOptions options = SmallOptions(1, 4);
  options.queue_capacity = 16384;  // never overflow in this test
  Muppet2Engine engine(config, options);
  ASSERT_OK(engine.Start());
  // One hot key: its primary queue backs up, so two-choice dispatch
  // should route some events to the secondary.
  for (int i = 0; i < 5000; ++i) {
    ASSERT_OK(engine.Publish("in", "hot", "", i + 1));
  }
  ASSERT_OK(engine.Drain());
  EXPECT_EQ(CountOf(engine, "count", "hot"), 5000);
  EXPECT_EQ(engine.Stats().events_dropped_overflow, 0);
  EXPECT_GT(engine.secondary_dispatches(), 0);
  ASSERT_OK(engine.Stop());
}

TEST(Muppet2Test, TwoChoiceDisabledStillCorrect) {
  AppConfig config;
  BuildCountingApp(&config);
  EngineOptions options = SmallOptions(1, 4);
  options.enable_two_choice = false;
  Muppet2Engine engine(config, options);
  ASSERT_OK(engine.Start());
  for (int i = 0; i < 500; ++i) {
    ASSERT_OK(engine.Publish("in", "key" + std::to_string(i % 7), "", i + 1));
  }
  ASSERT_OK(engine.Drain());
  for (int k = 0; k < 7; ++k) {
    EXPECT_GE(CountOf(engine, "count", "key" + std::to_string(k)), 71);
  }
  EXPECT_EQ(engine.secondary_dispatches(), 0);
  ASSERT_OK(engine.Stop());
}

TEST(Muppet2Test, TapAndStatusIntrospection) {
  AppConfig config;
  BuildCountingApp(&config, /*forward=*/true);
  Muppet2Engine engine(config, SmallOptions());
  std::atomic<int> tapped{0};
  engine.TapStream("out", [&tapped](const Event&) { tapped.fetch_add(1); });
  ASSERT_OK(engine.Start());
  for (int i = 0; i < 30; ++i) ASSERT_OK(engine.Publish("in", "k", "", i + 1));
  ASSERT_OK(engine.Drain());
  EXPECT_EQ(tapped.load(), 30);
  // §4.5: status information such as the largest queue depth.
  EXPECT_EQ(engine.LargestQueueDepth(), 0u) << "drained engine, empty queues";
  ASSERT_OK(engine.Stop());
}

TEST(Muppet2Test, FetchSlateFromAnyMachine) {
  AppConfig config;
  BuildCountingApp(&config);
  Muppet2Engine engine(config, SmallOptions(4, 2));
  ASSERT_OK(engine.Start());
  for (int i = 0; i < 64; ++i) {
    ASSERT_OK(engine.Publish("in", "key" + std::to_string(i), "", i + 1));
  }
  ASSERT_OK(engine.Drain());
  int found = 0;
  for (int i = 0; i < 64; ++i) {
    if (CountOf(engine, "count", "key" + std::to_string(i)) == 1) ++found;
  }
  EXPECT_EQ(found, 64);
  ASSERT_OK(engine.Stop());
}

TEST(Muppet2Test, RejectsBadShape) {
  AppConfig config;
  BuildCountingApp(&config);
  EngineOptions options = SmallOptions(0, 0);
  Muppet2Engine engine(config, options);
  EXPECT_FALSE(engine.Start().ok());

  // The split table is per process: a load manager cannot run in a
  // process that hosts only some of the machines.
  EngineOptions sliced = SmallOptions(2, 2);
  sliced.load_manager.enabled = true;
  sliced.hosted_machines = {0};
  Muppet2Engine sliced_engine(config, sliced);
  EXPECT_EQ(sliced_engine.Start().code(), StatusCode::kInvalidArgument);
}

// Full hot-key lifecycle against the live engine: a skewed stream trips
// the heat sketch, the load manager splits the key, reads re-aggregate
// base + shard slates exactly; when the traffic goes uniform the heat
// decays but the split stays, and reads stay exact.
TEST(Muppet2Test, HotKeySplitLifecycle) {
  AppConfig config;
  UpdaterOptions uo;
  uo.associativity = Associativity::kAssociativeCommutative;
  uo.merger = [](const Bytes* base, const Bytes& part) {
    JsonSlate b(base);
    JsonSlate p(&part);
    b.data()["count"] =
        b.data().GetInt("count", 0) + p.data().GetInt("count", 0);
    return b.Serialize();
  };
  BuildCountingApp(&config, /*forward=*/false, uo);

  EngineOptions options = SmallOptions();
  options.load_manager.enabled = true;
  // The controller acts only on ticks whose decayed sample total reaches
  // min_samples. 5 ms ticks span several publishing rounds at any speed,
  // including under a sanitizer.
  options.load_manager.tick_micros = 5 * kMicrosPerMilli;
  options.load_manager.heat.sample_period = 1;
  options.load_manager.min_samples = 8;
  options.load_manager.split_heat_fraction = 0.5;
  options.load_manager.heat_decay = 0.5;
  Muppet2Engine engine(config, options);
  ASSERT_OK(engine.Start());

  // Each phase publishes until its condition holds, against a wall-clock
  // deadline rather than a round count: under a sanitizer the load
  // manager's ticks run far slower than the publishing loop.
  using SteadyClock = std::chrono::steady_clock;
  constexpr auto kPhaseLimit = std::chrono::seconds(60);

  // Phase 1: hammer one key until the load manager splits it.
  int64_t hot_count = 0;
  int64_t seq = 0;
  const auto split_deadline = SteadyClock::now() + kPhaseLimit;
  while (engine.key_splits() == 0 && SteadyClock::now() < split_deadline) {
    for (int i = 0; i < 16; ++i) {
      ASSERT_OK(engine.Publish("in", "hot", "", ++seq));
      ++hot_count;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(engine.key_splits(), 0) << "hot key never split";
  ASSERT_OK(engine.Drain());

  // Mid-split reads aggregate base + shard slates exactly.
  EXPECT_EQ(CountOf(engine, "count", "hot"), hot_count);

  // The split shows on the hot-key panel.
  auto panel_shards = [&engine]() {
    for (const HotKeyInfo& hk : engine.HotKeys()) {
      if (hk.function == "count" && hk.key == "hot" && hk.split) {
        return hk.shards;
      }
    }
    return 0;
  };
  EXPECT_EQ(panel_shards(), LoadController::kSplitShards);

  // Phase 2: go uniform for many ticks; the hot key's heat decays, but
  // the split stays and keeps taking the key's events.
  for (int round = 0; round < 100; ++round) {
    for (int k = 0; k < 8; ++k) {
      ASSERT_OK(engine.Publish("in", "u" + std::to_string(k), "", ++seq));
    }
    ASSERT_OK(engine.Publish("in", "hot", "", ++seq));
    ++hot_count;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_OK(engine.Drain());

  // Counts stay exact through the whole lifecycle.
  EXPECT_EQ(panel_shards(), LoadController::kSplitShards);
  EXPECT_EQ(CountOf(engine, "count", "hot"), hot_count);
  for (int k = 0; k < 8; ++k) {
    EXPECT_GT(CountOf(engine, "count", "u" + std::to_string(k)), 0);
  }
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.events_lost_failure, 0);
  EXPECT_EQ(stats.events_dropped_overflow, 0);
  ASSERT_OK(engine.Stop());
}

TEST(Muppet2Test, StopFlushesAndIsIdempotent) {
  AppConfig config;
  BuildCountingApp(&config);
  Muppet2Engine engine(config, SmallOptions());
  ASSERT_OK(engine.Start());
  ASSERT_OK(engine.Publish("in", "k", "", 1));
  ASSERT_OK(engine.Drain());
  ASSERT_OK(engine.Stop());
  ASSERT_OK(engine.Stop());
}

TEST(Muppet2Test, StopDoesNotWaitOutControlLoopTicks) {
  // The watchdog, load-manager and flusher loops each wait one period
  // between passes in Engine::WaitTick; Stop() must wake them instead of
  // waiting it out. The load manager's period is the one a caller sets,
  // so it stretches the wait here.
  AppConfig config;
  BuildCountingApp(&config);
  EngineOptions options = SmallOptions();
  options.load_manager.enabled = true;
  options.load_manager.tick_micros = 10 * kMicrosPerSecond;
  Muppet2Engine engine(config, options);
  ASSERT_OK(engine.Start());
  ASSERT_OK(engine.Publish("in", "k", "", 1));
  ASSERT_OK(engine.Drain());
  const auto start = std::chrono::steady_clock::now();
  ASSERT_OK(engine.Stop());
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
}

}  // namespace
}  // namespace muppet
