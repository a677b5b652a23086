// LoadController policy tests: the controller is a pure object (no
// threads, no engine), so every split decision is pinned here
// without a cluster.
#include "engine/load_manager.h"

#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace muppet {
namespace {

LoadManagerOptions BaseOptions() {
  LoadManagerOptions o;
  o.enabled = true;
  o.min_samples = 10;
  return o;
}

LoadSignals Signals(int64_t total,
                    std::vector<HeatReading> top,
                    std::vector<std::pair<int32_t, Bytes>> active = {}) {
  LoadSignals s;
  s.sampled_total = total;
  s.top = std::move(top);
  s.active_splits = std::move(active);
  return s;
}

TEST(LoadControllerTest, SplitsKeysAboveHeatFraction) {
  LoadController c(BaseOptions());
  // hot = 40%, warm = 10%: only hot crosses the 20% split threshold.
  LoadActions a = c.Tick(
      Signals(100, {{1, "hot", 40}, {1, "warm", 10}}));
  ASSERT_EQ(a.splits.size(), 1u);
  EXPECT_EQ(a.splits[0].function_id, 1);
  EXPECT_EQ(a.splits[0].key, "hot");
}

TEST(LoadControllerTest, MinSamplesGatesEverything) {
  LoadController c(BaseOptions());
  // 9 < min_samples(10): even a 100%-share key is ignored.
  LoadActions a = c.Tick(Signals(9, {{1, "hot", 9}}));
  EXPECT_TRUE(a.splits.empty());
}

TEST(LoadControllerTest, MaxSplitsCapCountsActiveOnes) {
  LoadController c(BaseOptions());
  // Splits whose keys have cooled out of the sketch still hold their
  // slots (a split is never undone); they fill all but two of the
  // kMaxSplits slots.
  std::vector<std::pair<int32_t, Bytes>> active;
  for (size_t i = 0; i + 2 < LoadController::kMaxSplits; ++i) {
    active.emplace_back(1, "live" + std::to_string(i));
  }
  LoadActions a = c.Tick(Signals(
      100, {{1, "a", 40}, {1, "b", 30}, {1, "c", 25}}, active));
  EXPECT_EQ(a.splits.size(), 2u);

  // With one more split live, only one slot remains.
  active.emplace_back(1, "a");
  a = c.Tick(Signals(100, {{1, "b", 40}, {1, "c", 30}}, active));
  ASSERT_EQ(a.splits.size(), 1u);
  EXPECT_EQ(a.splits[0].key, "b");
}

TEST(LoadControllerTest, AlreadySplitKeysNotResplit) {
  LoadController c(BaseOptions());
  LoadActions a =
      c.Tick(Signals(100, {{1, "hot", 40}, {2, "other", 30}}, {{1, "hot"}}));
  // "hot" stays split and is not split again; the different-function
  // "other" key gets the remaining slot.
  ASSERT_EQ(a.splits.size(), 1u);
  EXPECT_EQ(a.splits[0].function_id, 2);
}

}  // namespace
}  // namespace muppet
