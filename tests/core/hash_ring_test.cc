#include "core/hash_ring.h"

#include <map>
#include <set>
#include <string>

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace muppet {
namespace {

HashRing MakeRing(int machines, int workers_per_machine,
                  const std::string& function) {
  HashRing ring;
  for (int m = 0; m < machines; ++m) {
    for (int s = 0; s < workers_per_machine; ++s) {
      ring.AddWorker(function, WorkerRef{m, s});
    }
  }
  return ring;
}

TEST(HashRingTest, RouteIsDeterministic) {
  HashRing a = MakeRing(4, 2, "U1");
  HashRing b = MakeRing(4, 2, "U1");
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key" + std::to_string(i);
    auto ra = a.Route("U1", key, {});
    auto rb = b.Route("U1", key, {});
    ASSERT_OK(ra);
    ASSERT_OK(rb);
    EXPECT_EQ(ra.value(), rb.value())
        << "all workers must agree on the ring (paper §4.1)";
  }
}

TEST(HashRingTest, SameKeyAlwaysSameWorker) {
  HashRing ring = MakeRing(5, 1, "U1");
  auto first = ring.Route("U1", "user42", {});
  ASSERT_OK(first);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(ring.Route("U1", "user42", {}).value(), first.value());
  }
}

TEST(HashRingTest, UnknownFunctionNotFound) {
  HashRing ring = MakeRing(2, 1, "U1");
  EXPECT_TRUE(ring.Route("nope", "k", {}).status().IsNotFound());
}

TEST(HashRingTest, DistributesAcrossWorkers) {
  HashRing ring = MakeRing(4, 2, "U1");
  std::map<WorkerRef, int> counts;
  for (int i = 0; i < 8000; ++i) {
    auto r = ring.Route("U1", "key" + std::to_string(i), {});
    ASSERT_OK(r);
    counts[r.value()]++;
  }
  EXPECT_EQ(counts.size(), 8u);  // all 8 workers used
  for (const auto& [worker, count] : counts) {
    EXPECT_GT(count, 200) << "machine " << worker.machine << " slot "
                          << worker.slot;
  }
}

TEST(HashRingTest, FunctionsRouteIndependently) {
  HashRing ring;
  for (int m = 0; m < 4; ++m) {
    ring.AddWorker("U1", WorkerRef{m, 0});
    ring.AddWorker("U2", WorkerRef{m, 1});
  }
  int differing = 0;
  for (int i = 0; i < 100; ++i) {
    const std::string key = "k" + std::to_string(i);
    auto r1 = ring.Route("U1", key, {});
    auto r2 = ring.Route("U2", key, {});
    ASSERT_OK(r1);
    ASSERT_OK(r2);
    EXPECT_EQ(r1.value().slot, 0);
    EXPECT_EQ(r2.value().slot, 1);
    if (r1.value().machine != r2.value().machine) ++differing;
  }
  EXPECT_GT(differing, 10) << "per-function rings should not be aligned";
}

TEST(HashRingTest, FailedMachineSkipped) {
  HashRing ring = MakeRing(4, 1, "U1");
  // Find a key routed to machine 2.
  std::string victim_key;
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "key" + std::to_string(i);
    if (ring.Route("U1", key, {}).value().machine == 2) {
      victim_key = key;
      break;
    }
  }
  ASSERT_FALSE(victim_key.empty());
  auto rerouted = ring.Route("U1", victim_key, {2});
  ASSERT_OK(rerouted);
  EXPECT_NE(rerouted.value().machine, 2);
  // Deterministic reroute.
  EXPECT_EQ(ring.Route("U1", victim_key, {2}).value(), rerouted.value());
}

TEST(HashRingTest, FailureOnlyMovesAffectedKeys) {
  HashRing ring = MakeRing(4, 1, "U1");
  int moved = 0, total = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "key" + std::to_string(i);
    const WorkerRef before = ring.Route("U1", key, {}).value();
    const WorkerRef after = ring.Route("U1", key, {3}).value();
    ++total;
    if (!(before == after)) {
      ++moved;
      EXPECT_EQ(before.machine, 3)
          << "only keys owned by the failed machine may move";
    }
  }
  EXPECT_GT(moved, 100);       // machine 3 owned ~25%
  EXPECT_LT(moved, total / 2);
}

TEST(HashRingTest, AllMachinesFailedUnavailable) {
  HashRing ring = MakeRing(2, 1, "U1");
  EXPECT_TRUE(ring.Route("U1", "k", {0, 1}).status().IsUnavailable());
}

TEST(HashRingTest, SecondaryDiffersFromPrimary) {
  HashRing ring = MakeRing(4, 1, "U1");
  int distinct = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key" + std::to_string(i);
    auto primary = ring.Route("U1", key, {});
    auto secondary = ring.RouteSecondary("U1", key, {});
    ASSERT_OK(primary);
    ASSERT_OK(secondary);
    if (!(primary.value() == secondary.value())) ++distinct;
  }
  EXPECT_EQ(distinct, 200) << "with 4 workers the secondary must differ";
}

TEST(HashRingTest, SecondaryFallsBackToPrimaryWhenAlone) {
  HashRing ring = MakeRing(1, 1, "U1");
  auto primary = ring.Route("U1", "k", {});
  auto secondary = ring.RouteSecondary("U1", "k", {});
  ASSERT_OK(primary);
  ASSERT_OK(secondary);
  EXPECT_EQ(primary.value(), secondary.value());
}

TEST(HashRingTest, DuplicateAddWorkerIgnored) {
  HashRing ring;
  ring.AddWorker("U1", WorkerRef{0, 0});
  ring.AddWorker("U1", WorkerRef{0, 0});
  EXPECT_EQ(ring.WorkersOf("U1").size(), 1u);
}

TEST(HashRingTest, WorkersOfListsAll) {
  HashRing ring = MakeRing(3, 2, "U1");
  EXPECT_EQ(ring.WorkersOf("U1").size(), 6u);
  EXPECT_TRUE(ring.WorkersOf("unknown").empty());
}

}  // namespace
}  // namespace muppet
