// The one receive path both engines share (Engine::ReceiveFrame), fed
// frames no engine would send. Each is refused whole: nothing is
// processed, no event is charged to the books for good, and Drain()
// still returns with nothing in flight. Frames are injected from a
// machine id outside the cluster, so the receiver charges inflight itself
// and must give the charge back on a refusal.
#include <memory>
#include <string>

#include "engine/wire.h"
#include "gtest/gtest.h"
#include "testing/scenario.h"
#include "tests/engine/engine_test_util.h"
#include "tests/test_util.h"

namespace muppet {
namespace {

using ::muppet::testing::BuildFanoutApp;
using ::muppet::testing::TempDir;
using ::muppet::chaos::EngineKind;
using ::muppet::chaos::MakeEngine;

// A sender the receiving process does not host.
constexpr MachineId kExternal = 7;
// BuildFanoutApp's operators by interned id (operators() is name-ordered).
constexpr int32_t kCountOp = 0;
constexpr int32_t kSplitOp = 1;

// Two machines; under 1.0, one worker per function per machine: on
// machine 1, slot 0 runs "count" and slot 1 runs "split".
EngineOptions TwoMachines(EngineOptions options) {
  options.num_machines = 2;
  options.workers_per_function = 2;
  options.threads_per_machine = 2;
  return options;
}

Bytes FrameOfOne(int32_t function_id, uint64_t dedup = 0) {
  RoutedEvent re;
  re.function_id = function_id;
  re.work = 0x5eed;
  re.dedup = dedup;
  re.event.stream = "mid";
  re.event.key.assign("k");
  re.event.ts = 1;
  Bytes frame;
  EncodeRoutedEventFrame({&re, 1}, &frame);
  return frame;
}

// What goes on the wire to machine 1: 1.0 puts the destination worker's
// slot before the frame.
Bytes Payload(EngineKind kind, uint32_t slot, const Bytes& frame) {
  Bytes out;
  if (kind == EngineKind::kMuppet1) PutVarint32(&out, slot);
  out += frame;
  return out;
}

Status Inject(Engine& engine, const Bytes& payload) {
  size_t accepted = 0;
  Status s = engine.transport().SendBatch(kExternal, 1, payload, 1, &accepted,
                                          /*fault_signature=*/0);
  EXPECT_EQ(accepted, s.ok() ? 1u : 0u);
  return s;
}

// Nothing reached an operator, and the books are where they started.
void ExpectUntouched(Engine& engine) {
  ASSERT_OK(engine.Drain());
  EXPECT_EQ(engine.InflightEvents(), 0);
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.events_processed, 0);
  EXPECT_EQ(stats.events_lost_failure, 0);
  EXPECT_EQ(stats.events_deduped, 0);
}

// The engine still conserves events after the refusals: every published
// event reaches "split", and both of its copies reach "count".
void ExpectConservesAfterwards(Engine& engine) {
  constexpr int kEvents = 50;
  for (int i = 0; i < kEvents; ++i) {
    ASSERT_OK(engine.Publish("in", "k" + std::to_string(i % 5), "", i + 1));
  }
  ASSERT_OK(engine.Drain());
  EXPECT_EQ(engine.InflightEvents(), 0);
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.events_published, kEvents);
  EXPECT_EQ(stats.events_emitted, 2 * kEvents);
  EXPECT_EQ(stats.events_processed,
            stats.events_published + stats.events_emitted);
  EXPECT_EQ(stats.events_lost_failure, 0);
}

class FrameReceiveTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(FrameReceiveTest, UnknownFunctionIdIsCorruption) {
  AppConfig config;
  BuildFanoutApp(&config);
  auto engine = MakeEngine(GetParam(), config, TwoMachines({}));
  ASSERT_OK(engine->Start());
  const Status s = Inject(*engine, Payload(GetParam(), 0, FrameOfOne(99)));
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  ExpectUntouched(*engine);
  ExpectConservesAfterwards(*engine);
  ASSERT_OK(engine->Stop());
}

TEST_P(FrameReceiveTest, TruncatedFrameIsCorruption) {
  AppConfig config;
  BuildFanoutApp(&config);
  auto engine = MakeEngine(GetParam(), config, TwoMachines({}));
  ASSERT_OK(engine->Start());
  const Bytes whole = FrameOfOne(kCountOp);
  for (const size_t cut : {size_t{0}, size_t{1}, whole.size() / 2,
                           whole.size() - 1}) {
    const Status s =
        Inject(*engine, Payload(GetParam(), 0, whole.substr(0, cut)));
    EXPECT_EQ(s.code(), StatusCode::kCorruption)
        << "cut at " << cut << ": " << s.ToString();
  }
  ExpectUntouched(*engine);
  ExpectConservesAfterwards(*engine);
  ASSERT_OK(engine->Stop());
}

// A well-formed frame is taken once; its redelivery settles as deduped.
TEST_P(FrameReceiveTest, RedeliveredFrameSettlesAsDeduped) {
  AppConfig config;
  BuildFanoutApp(&config);
  TempDir dir;
  EngineOptions options;
  options.durability.consistency = Consistency::kExactlyOnce;
  options.durability.dir = dir.path();
  auto engine = MakeEngine(GetParam(), config, TwoMachines(options));
  ASSERT_OK(engine->Start());
  const Bytes payload = Payload(GetParam(), 0, FrameOfOne(kCountOp, 42));
  ASSERT_OK(Inject(*engine, payload));
  ASSERT_OK(Inject(*engine, payload));
  ASSERT_OK(engine->Drain());
  EXPECT_EQ(engine->InflightEvents(), 0);
  const EngineStats stats = engine->Stats();
  EXPECT_EQ(stats.events_processed, 1);
  EXPECT_EQ(stats.events_deduped, 1);
  ASSERT_OK(engine->Stop());
}

INSTANTIATE_TEST_SUITE_P(Engines, FrameReceiveTest,
                         ::testing::Values(EngineKind::kMuppet1,
                                           EngineKind::kMuppet2),
                         [](const auto& info) {
                           return info.param == EngineKind::kMuppet1
                                      ? std::string("Muppet1")
                                      : std::string("Muppet2");
                         });

// Muppet 1.0 names the destination worker by slot; a slot that runs
// another function, or no worker at all, is refused, and the refusal
// gives back the exactly-once reservation so a correct delivery of the
// same identity is still taken.
TEST(FrameReceiveMuppet1Test, SlotOfAnotherFunctionIsRefused) {
  AppConfig config;
  BuildFanoutApp(&config);
  TempDir dir;
  EngineOptions options;
  options.durability.consistency = Consistency::kExactlyOnce;
  options.durability.dir = dir.path();
  auto engine =
      MakeEngine(EngineKind::kMuppet1, config, TwoMachines(options));
  ASSERT_OK(engine->Start());
  const Bytes frame = FrameOfOne(kCountOp, 42);
  for (const uint32_t slot : {1u, 7u}) {
    const Status s =
        Inject(*engine, Payload(EngineKind::kMuppet1, slot, frame));
    EXPECT_FALSE(s.ok()) << "slot " << slot;
  }
  const Status s = Inject(
      *engine, Payload(EngineKind::kMuppet1, 0, FrameOfOne(kSplitOp, 43)));
  EXPECT_FALSE(s.ok()) << "slot 0 runs count, not split";
  ExpectUntouched(*engine);

  ASSERT_OK(Inject(*engine, Payload(EngineKind::kMuppet1, 0, frame)));
  ASSERT_OK(engine->Drain());
  EXPECT_EQ(engine->InflightEvents(), 0);
  const EngineStats stats = engine->Stats();
  EXPECT_EQ(stats.events_processed, 1);
  EXPECT_EQ(stats.events_deduped, 0);
  ASSERT_OK(engine->Stop());
}

}  // namespace
}  // namespace muppet
