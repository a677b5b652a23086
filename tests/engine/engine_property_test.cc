// Engine-invariant property sweeps across the cluster-shape grid, for both
// Muppet generations:
//   * accounting: published == processed + dropped + lost (no event
//     silently vanishes or duplicates);
//   * conservation: per-key slate counts sum to the processed total;
//   * routing: all events of one key land in exactly one slate.
#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "core/slate.h"
#include "gtest/gtest.h"
#include "json/json.h"
#include "testing/scenario.h"
#include "tests/engine/engine_test_util.h"
#include "tests/test_util.h"
#include "workload/zipf_keys.h"

namespace muppet {
namespace {

using ::muppet::chaos::EngineKind;
using ::muppet::testing::BuildCountingApp;
using ::muppet::testing::BuildFanoutApp;
using ::muppet::testing::CountOf;

// (muppet2?, machines, workers/threads, zipf skew)
using ShapeParams = std::tuple<bool, int, int, double>;

class EngineShapeTest : public ::testing::TestWithParam<ShapeParams> {
 protected:
  std::unique_ptr<Engine> MakeEngine(const AppConfig& config) {
    const auto [muppet2, machines, width, skew] = GetParam();
    EngineOptions options;
    options.num_machines = machines;
    options.workers_per_function = width;
    options.threads_per_machine = width;
    options.queue_capacity = 1 << 15;
    return chaos::MakeEngine(
        muppet2 ? EngineKind::kMuppet2 : EngineKind::kMuppet1, config,
        options);
  }
};

TEST_P(EngineShapeTest, CountingConservation) {
  const auto [muppet2, machines, width, skew] = GetParam();
  AppConfig config;
  BuildCountingApp(&config);
  auto engine = MakeEngine(config);
  ASSERT_OK(engine->Start());

  constexpr int kEvents = 4000;
  constexpr int kKeys = 64;
  workload::ZipfKeyGenerator keys(kKeys, skew, "k", 7);
  std::map<Bytes, int64_t> truth;
  for (int i = 0; i < kEvents; ++i) {
    const Bytes key = keys.Next();
    ++truth[key];
    ASSERT_OK(engine->Publish("in", key, "", i + 1));
  }
  ASSERT_OK(engine->Drain());

  const EngineStats stats = engine->Stats();
  EXPECT_EQ(stats.events_published, kEvents);
  EXPECT_EQ(stats.events_processed + stats.events_dropped_overflow +
                stats.events_lost_failure,
            kEvents)
      << "every event must be processed or accounted as shed";
  EXPECT_EQ(stats.events_lost_failure, 0);
  EXPECT_EQ(stats.events_dropped_overflow, 0);

  int64_t slate_total = 0;
  for (const auto& [key, expected] : truth) {
    const int64_t count = CountOf(*engine, "count", std::string(key));
    EXPECT_EQ(count, expected) << "key " << key;
    slate_total += count;
  }
  EXPECT_EQ(slate_total, kEvents);
  ASSERT_OK(engine->Stop());
}

TEST_P(EngineShapeTest, FanoutConservation) {
  AppConfig config;
  BuildFanoutApp(&config);
  auto engine = MakeEngine(config);
  ASSERT_OK(engine->Start());
  constexpr int kEvents = 1500;
  workload::ZipfKeyGenerator keys(32, std::get<3>(GetParam()), "k", 3);
  std::map<Bytes, int64_t> truth;
  for (int i = 0; i < kEvents; ++i) {
    const Bytes key = keys.Next();
    truth[key] += 2;  // the mapper doubles
    ASSERT_OK(engine->Publish("in", key, "", i + 1));
  }
  ASSERT_OK(engine->Drain());
  const EngineStats stats = engine->Stats();
  EXPECT_EQ(stats.events_emitted, 2 * kEvents);
  // map calls + update calls
  EXPECT_EQ(stats.events_processed, kEvents + 2 * kEvents);
  for (const auto& [key, expected] : truth) {
    EXPECT_EQ(CountOf(*engine, "count", std::string(key)), expected);
  }
  ASSERT_OK(engine->Stop());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EngineShapeTest,
    ::testing::Combine(::testing::Bool(),          // engine generation
                       ::testing::Values(1, 3),    // machines
                       ::testing::Values(1, 4),    // workers / threads
                       ::testing::Values(0.0, 1.2)),  // key skew
    [](const ::testing::TestParamInfo<ShapeParams>& info) {
      return std::string(std::get<0>(info.param) ? "M2" : "M1") + "_m" +
             std::to_string(std::get<1>(info.param)) + "_w" +
             std::to_string(std::get<2>(info.param)) +
             (std::get<3>(info.param) > 0 ? "_zipf" : "_uniform");
    });

}  // namespace
}  // namespace muppet
