// Hash-ring property sweeps across cluster shapes: total coverage,
// determinism, failure monotonicity (only the failed machine's keys move),
// and bounded imbalance.
#include <map>
#include <set>
#include <string>
#include <tuple>

#include "core/hash_ring.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace muppet {
namespace {

// (machines, workers per machine, vnodes)
using RingParams = std::tuple<int, int, int>;

class RingPropertyTest : public ::testing::TestWithParam<RingParams> {
 protected:
  HashRing MakeRing() const {
    const auto [machines, workers, vnodes] = GetParam();
    HashRing ring(vnodes);
    for (int m = 0; m < machines; ++m) {
      for (int s = 0; s < workers; ++s) {
        ring.AddWorker("U", WorkerRef{m, s});
      }
    }
    return ring;
  }

  static std::string Key(int i) { return "key" + std::to_string(i); }
};

TEST_P(RingPropertyTest, EveryKeyRoutesToARegisteredWorker) {
  const auto [machines, workers, vnodes] = GetParam();
  HashRing ring = MakeRing();
  std::set<WorkerRef> seen;
  for (int i = 0; i < 5000; ++i) {
    auto r = ring.Route("U", Key(i), {});
    ASSERT_OK(r);
    ASSERT_GE(r.value().machine, 0);
    ASSERT_LT(r.value().machine, machines);
    ASSERT_GE(r.value().slot, 0);
    ASSERT_LT(r.value().slot, workers);
    seen.insert(r.value());
  }
  // With 5000 keys, every worker should own something.
  EXPECT_EQ(seen.size(), static_cast<size_t>(machines * workers));
}

TEST_P(RingPropertyTest, FailureMovesOnlyAffectedKeys) {
  const auto [machines, workers, vnodes] = GetParam();
  if (machines < 2) GTEST_SKIP() << "needs a survivor";
  HashRing ring = MakeRing();
  const MachineId victim = machines - 1;
  for (int i = 0; i < 2000; ++i) {
    const WorkerRef before = ring.Route("U", Key(i), {}).value();
    const WorkerRef after = ring.Route("U", Key(i), {victim}).value();
    if (before.machine != victim) {
      EXPECT_EQ(before, after)
          << "keys on healthy machines must not move (§4.3)";
    } else {
      EXPECT_NE(after.machine, victim);
    }
  }
}

TEST_P(RingPropertyTest, CascadingFailuresAlwaysRoute) {
  const auto [machines, workers, vnodes] = GetParam();
  HashRing ring = MakeRing();
  std::set<MachineId> failed;
  for (MachineId dead = 0; dead < machines - 1; ++dead) {
    failed.insert(dead);
    for (int i = 0; i < 200; ++i) {
      auto r = ring.Route("U", Key(i), failed);
      ASSERT_OK(r);
      EXPECT_EQ(failed.count(r.value().machine), 0u);
    }
  }
}

TEST_P(RingPropertyTest, ImbalanceBounded) {
  const auto [machines, workers, vnodes] = GetParam();
  HashRing ring = MakeRing();
  std::map<WorkerRef, int> counts;
  constexpr int kKeys = 20000;
  for (int i = 0; i < kKeys; ++i) {
    counts[ring.Route("U", Key(i), {}).value()]++;
  }
  const double mean =
      static_cast<double>(kKeys) / (machines * workers);
  for (const auto& [worker, count] : counts) {
    // With >=64 vnodes the max/mean ratio stays moderate.
    if (vnodes >= 64) {
      EXPECT_LT(count, mean * 2.2)
          << "machine " << worker.machine << " slot " << worker.slot;
      EXPECT_GT(count, mean * 0.25);
    } else {
      EXPECT_GT(count, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RingPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 16),  // machines
                       ::testing::Values(1, 3),         // workers/machine
                       ::testing::Values(8, 128)),      // vnodes
    [](const ::testing::TestParamInfo<RingParams>& info) {
      return "m" + std::to_string(std::get<0>(info.param)) + "_w" +
             std::to_string(std::get<1>(info.param)) + "_v" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace muppet
