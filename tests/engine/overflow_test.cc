// Queue-overflow policies (§4.3): drop+log, overflow stream (degraded
// service), and source throttling (§5) — including the emit-loop deadlock
// scenario the paper warns about, which the engines detect and avoid.
#include <algorithm>
#include <memory>
#include <string>

#include "core/hash_ring.h"
#include "gtest/gtest.h"
#include "testing/scenario.h"
#include "tests/engine/engine_test_util.h"
#include "tests/test_util.h"

namespace muppet {
namespace {

using ::muppet::testing::CountOf;
using ::muppet::chaos::EngineKind;
using ::muppet::chaos::MakeEngine;

// Counting updater that takes `work_micros` per event — a deliberately
// slow consumer to back up its queue.
void BuildSlowCounter(AppConfig* config, Timestamp work_micros) {
  ASSERT_OK(config->DeclareInputStream("in"));
  ASSERT_OK(config->AddUpdater(
      "slow",
      MakeUpdaterFactory([work_micros](PerformerUtilities& out, const Event&,
                                       const Bytes* slate) {
        SystemClock::Default()->SleepFor(work_micros);
        JsonSlate s(slate);
        s.data()["count"] = s.data().GetInt("count") + 1;
        (void)out.ReplaceSlate(s.Serialize());
      }),
      {"in"}));
}

class OverflowTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(OverflowTest, DropPolicyBoundsQueueAndCountsDrops) {
  AppConfig config;
  BuildSlowCounter(&config, /*work_micros=*/500);
  EngineOptions options;
  options.num_machines = 1;
  options.workers_per_function = 1;
  options.threads_per_machine = 1;
  options.queue_capacity = 4;
  options.overflow.policy = OverflowPolicy::kDrop;
  auto engine = MakeEngine(GetParam(), config, options);
  ASSERT_OK(engine->Start());
  constexpr int kEvents = 300;
  for (int i = 0; i < kEvents; ++i) {
    ASSERT_OK(engine->Publish("in", "k", "", i + 1));
  }
  ASSERT_OK(engine->Drain());
  const EngineStats stats = engine->Stats();
  EXPECT_GT(stats.events_dropped_overflow, 0)
      << "a full queue must shed load under the drop policy";
  EXPECT_EQ(stats.events_processed + stats.events_dropped_overflow, kEvents);
  EXPECT_EQ(CountOf(*engine, "slow", "k"), stats.events_processed);
  ASSERT_OK(engine->Stop());
}

TEST_P(OverflowTest, OverflowStreamProvidesDegradedService) {
  AppConfig config;
  BuildSlowCounter(&config, /*work_micros=*/500);
  // The degraded path: a cheap counter on the overflow stream.
  ASSERT_OK(config.DeclareStream("spill"));
  ASSERT_OK(config.AddUpdater(
      "degraded",
      MakeUpdaterFactory([](PerformerUtilities& out, const Event&,
                            const Bytes* slate) {
        JsonSlate s(slate);
        s.data()["count"] = s.data().GetInt("count") + 1;
        (void)out.ReplaceSlate(s.Serialize());
      }),
      {"spill"}));

  EngineOptions options;
  options.num_machines = 1;
  options.workers_per_function = 1;
  // Muppet 2.0 runs every function on one shared pool, so give the
  // degraded path enough threads/queues to stay drainable while the slow
  // function's pair of queues backs up. Muppet 1.0 has one worker (and
  // queue) per function, so the degraded worker is naturally separate.
  options.threads_per_machine = 8;
  options.queue_capacity = 4;
  options.overflow.policy = OverflowPolicy::kOverflowStream;
  options.overflow.overflow_stream = "spill";
  auto engine = MakeEngine(GetParam(), config, options);
  ASSERT_OK(engine->Start());
  constexpr int kEvents = 200;
  for (int i = 0; i < kEvents; ++i) {
    ASSERT_OK(engine->Publish("in", "k", "", i + 1));
  }
  ASSERT_OK(engine->Drain());
  const EngineStats stats = engine->Stats();
  EXPECT_GT(stats.events_redirected_overflow, 0);
  const int64_t full = std::max<int64_t>(0, CountOf(*engine, "slow", "k"));
  const int64_t degraded =
      std::max<int64_t>(0, CountOf(*engine, "degraded", "k"));
  EXPECT_GT(degraded, 0) << "redirected events get degraded processing";
  // Every event received full service, degraded service, or (if even the
  // spill path was full) was dropped.
  EXPECT_EQ(full + degraded + stats.events_dropped_overflow, kEvents);
  ASSERT_OK(engine->Stop());
}

TEST_P(OverflowTest, UndeclaredOverflowStreamRejectedAtStart) {
  AppConfig config;
  BuildSlowCounter(&config, 0);
  EngineOptions options;
  options.overflow.policy = OverflowPolicy::kOverflowStream;
  options.overflow.overflow_stream = "nonexistent";
  auto engine = MakeEngine(GetParam(), config, options);
  EXPECT_FALSE(engine->Start().ok());
}

TEST_P(OverflowTest, SourceThrottlingTradesLatencyForCompleteness) {
  AppConfig config;
  BuildSlowCounter(&config, /*work_micros=*/300);
  EngineOptions options;
  options.num_machines = 1;
  options.workers_per_function = 1;
  options.threads_per_machine = 1;
  options.queue_capacity = 4;
  options.overflow.policy = OverflowPolicy::kThrottle;
  auto engine = MakeEngine(GetParam(), config, options);
  ASSERT_OK(engine->Start());
  constexpr int kEvents = 150;
  for (int i = 0; i < kEvents; ++i) {
    ASSERT_OK(engine->Publish("in", "k", "", i + 1));
  }
  ASSERT_OK(engine->Drain());
  const EngineStats stats = engine->Stats();
  EXPECT_GT(stats.throttle_signals, 0)
      << "a full queue must decline the publisher's send";
  // Throttling keeps losses tiny compared to dropping.
  EXPECT_LT(stats.events_dropped_overflow, kEvents / 10);
  EXPECT_EQ(CountOf(*engine, "slow", "k"),
            kEvents - stats.events_dropped_overflow);
  ASSERT_OK(engine->Stop());
}

TEST_P(OverflowTest, SelfEmitDeadlockDetectedAndAvoided) {
  // The §5 scenario: an updater emits events back into a stream it itself
  // consumes; under throttling with a full queue, waiting would deadlock.
  AppConfig config;
  ASSERT_OK(config.DeclareInputStream("in"));
  ASSERT_OK(config.DeclareStream("loop"));
  ASSERT_OK(config.AddUpdater(
      "looper",
      MakeUpdaterFactory([](PerformerUtilities& out, const Event& e,
                            const Bytes* slate) {
        JsonSlate s(slate);
        const int64_t hops = s.data().GetInt("hops") + 1;
        s.data()["hops"] = hops;
        (void)out.ReplaceSlate(s.Serialize());
        if (e.stream == "in") {
          // Burst-emit into our own input: the paper's 10,000-event
          // emitter, scaled down.
          for (int i = 0; i < 50; ++i) {
            (void)out.Publish("loop", e.key, "");
          }
        }
      }),
      {"in", "loop"}));

  EngineOptions options;
  options.num_machines = 1;
  options.workers_per_function = 1;
  options.threads_per_machine = 1;
  options.queue_capacity = 8;  // much smaller than the burst
  options.overflow.policy = OverflowPolicy::kThrottle;
  auto engine = MakeEngine(GetParam(), config, options);
  ASSERT_OK(engine->Start());
  ASSERT_OK(engine->Publish("in", "k", "", 1));
  ASSERT_OK(engine->Drain());  // must terminate: the deadlock is avoided
  const EngineStats stats = engine->Stats();
  EXPECT_GT(stats.deadlocks_avoided, 0)
      << "self-emit into a full own queue must be detected (§5)";
  ASSERT_OK(engine->Stop());
}

// --- Two machines: the publisher sits on machine 0, so every event for a
// key owned by machine 1 crosses machines (2.0's batch frames and their
// declined suffix, 1.0's frames of one) before it meets a full queue. Two
// of every three events go to that key, so its queue is the first to fill.

// A two-machine cluster with one slow lane per function on each machine:
// 1.0 runs worker i of every function on machine i, 2.0 one pool thread
// per machine (`threads` for the overflow-stream case, which needs room
// for the degraded path).
EngineOptions TwoMachineOptions(OverflowPolicy policy, int threads = 1) {
  EngineOptions options;
  options.num_machines = 2;
  options.workers_per_function = 2;
  options.threads_per_machine = threads;
  options.queue_capacity = 4;
  options.overflow.policy = policy;
  return options;
}

// The first key "k<i>" whose `function` slate lives on `machine`, over a
// ring of the engines' default shape: 2.0 adds one worker per machine at
// slot 0; 1.0 (two workers per function, two machines) adds one worker
// per machine at the function's operator index, its slot there.
std::string KeyOwnedBy(EngineKind kind, const std::string& function,
                       int32_t op_index, MachineId machine) {
  HashRing ring;
  const int32_t slot = kind == EngineKind::kMuppet1 ? op_index : 0;
  for (MachineId m = 0; m < 2; ++m) ring.AddWorker(function, {m, slot});
  for (int i = 0;; ++i) {
    const std::string key = "k" + std::to_string(i);
    if (ring.Route(function, key, {}).value().machine == machine) return key;
  }
}

// The scenario runner's invariant A: every accepted event settles once.
void ExpectConserved(const EngineStats& stats) {
  EXPECT_EQ(stats.events_published + stats.events_emitted,
            stats.events_processed + stats.events_lost_failure +
                stats.events_dropped_overflow + stats.events_deduped);
}

TEST_P(OverflowTest, DropPolicyAcrossMachines) {
  AppConfig config;
  BuildSlowCounter(&config, /*work_micros=*/500);
  auto engine = MakeEngine(GetParam(), config,
                           TwoMachineOptions(OverflowPolicy::kDrop));
  const std::string local = KeyOwnedBy(GetParam(), "slow", 0, 0);
  const std::string remote = KeyOwnedBy(GetParam(), "slow", 0, 1);
  ASSERT_OK(engine->Start());
  constexpr int kEvents = 300;
  int64_t remote_events = 0;
  for (int i = 0; i < kEvents; ++i) {
    const bool to_remote = i % 3 != 0;
    remote_events += to_remote ? 1 : 0;
    ASSERT_OK(engine->Publish("in", to_remote ? remote : local, "", i + 1));
  }
  ASSERT_OK(engine->Drain());
  const EngineStats stats = engine->Stats();
  const int64_t local_count =
      std::max<int64_t>(0, CountOf(*engine, "slow", local));
  const int64_t remote_count =
      std::max<int64_t>(0, CountOf(*engine, "slow", remote));
  // Only sends to machine 1 carry the remote key, and the drop policy
  // sheds an event only after its send was declined.
  EXPECT_LT(remote_count, remote_events)
      << "no send to the remote machine was declined";
  ExpectConserved(stats);
  EXPECT_EQ(local_count + remote_count, stats.events_processed);
  ASSERT_OK(engine->Stop());
}

TEST_P(OverflowTest, OverflowStreamAcrossMachines) {
  AppConfig config;
  BuildSlowCounter(&config, /*work_micros=*/500);
  ASSERT_OK(config.DeclareStream("spill"));
  ASSERT_OK(config.AddUpdater(
      "degraded",
      MakeUpdaterFactory([](PerformerUtilities& out, const Event&,
                            const Bytes* slate) {
        JsonSlate s(slate);
        s.data()["count"] = s.data().GetInt("count") + 1;
        (void)out.ReplaceSlate(s.Serialize());
      }),
      {"spill"}));
  EngineOptions options =
      TwoMachineOptions(OverflowPolicy::kOverflowStream, /*threads=*/8);
  options.overflow.overflow_stream = "spill";
  auto engine = MakeEngine(GetParam(), config, options);
  // Operators are indexed by name: "degraded" is 0, "slow" is 1.
  const std::string local = KeyOwnedBy(GetParam(), "slow", 1, 0);
  const std::string remote = KeyOwnedBy(GetParam(), "slow", 1, 1);
  ASSERT_OK(engine->Start());
  constexpr int kEvents = 200;
  int64_t remote_events = 0;
  for (int i = 0; i < kEvents; ++i) {
    const bool to_remote = i % 3 != 0;
    remote_events += to_remote ? 1 : 0;
    ASSERT_OK(engine->Publish("in", to_remote ? remote : local, "", i + 1));
  }
  ASSERT_OK(engine->Drain());
  const EngineStats stats = engine->Stats();
  EXPECT_GT(stats.events_redirected_overflow, 0);
  auto count = [&](const std::string& updater, const std::string& key) {
    return std::max<int64_t>(0, CountOf(*engine, updater, key));
  };
  EXPECT_LT(count("slow", remote), remote_events)
      << "no send to the remote machine was declined";
  // Every event received full service, degraded service, or (if even the
  // spill path was full) was dropped.
  EXPECT_EQ(count("slow", local) + count("slow", remote) +
                count("degraded", local) + count("degraded", remote) +
                stats.events_dropped_overflow,
            kEvents);
  ASSERT_OK(engine->Stop());
}

TEST_P(OverflowTest, ThrottleAcrossMachines) {
  AppConfig config;
  BuildSlowCounter(&config, /*work_micros=*/300);
  EngineOptions options = TwoMachineOptions(OverflowPolicy::kThrottle);
  auto engine = MakeEngine(GetParam(), config, options);
  const std::string local = KeyOwnedBy(GetParam(), "slow", 0, 0);
  const std::string remote = KeyOwnedBy(GetParam(), "slow", 0, 1);
  ASSERT_OK(engine->Start());
  constexpr int kEvents = 150;
  int64_t remote_events = 0;
  for (int i = 0; i < kEvents; ++i) {
    const bool to_remote = i % 3 != 0;
    remote_events += to_remote ? 1 : 0;
    ASSERT_OK(engine->Publish("in", to_remote ? remote : local, "", i + 1));
  }
  ASSERT_OK(engine->Drain());
  const EngineStats stats = engine->Stats();
  EXPECT_GT(stats.throttle_signals, 0);
  // Each remote-key event is sent to machine 1 once; a throttle retry,
  // which follows only a declined send, makes the attempts outnumber it.
  EXPECT_GT(engine->transport().SendAttemptsTo(1), remote_events)
      << "no send to the remote machine was declined";
  ExpectConserved(stats);
  EXPECT_EQ(std::max<int64_t>(0, CountOf(*engine, "slow", local)) +
                std::max<int64_t>(0, CountOf(*engine, "slow", remote)),
            kEvents - stats.events_dropped_overflow);
  ASSERT_OK(engine->Stop());
}

INSTANTIATE_TEST_SUITE_P(Engines, OverflowTest,
                         ::testing::Values(EngineKind::kMuppet1,
                                           EngineKind::kMuppet2),
                         [](const auto& info) {
                           return info.param == EngineKind::kMuppet1
                                      ? "Muppet1"
                                      : "Muppet2";
                         });

}  // namespace
}  // namespace muppet
