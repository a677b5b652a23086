#include "engine/placement.h"

#include <string>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace muppet {
namespace {

TEST(PlacementTest, EmptyAdvisorAnalyzesToZero) {
  PlacementAdvisor advisor(4);
  HashRing ring;
  ring.AddWorker("U1", WorkerRef{0, 0});
  const auto analysis = advisor.AnalyzeRing(ring);
  EXPECT_EQ(analysis.total_events, 0);
  EXPECT_EQ(analysis.CrossTrafficFraction(), 0.0);
}

TEST(PlacementTest, RingAnalysisCountsCrossTraffic) {
  PlacementAdvisor advisor(2);
  HashRing ring;
  ring.AddWorker("U1", WorkerRef{0, 0});
  ring.AddWorker("U1", WorkerRef{1, 0});
  // Find a key owned by machine 0 and one owned by machine 1.
  Bytes key_on_0, key_on_1;
  for (int i = 0; i < 1000 && (key_on_0.empty() || key_on_1.empty()); ++i) {
    const Bytes key = "k" + std::to_string(i);
    const MachineId owner = ring.Route("U1", key, {}).value().machine;
    if (owner == 0 && key_on_0.empty()) key_on_0 = key;
    if (owner == 1 && key_on_1.empty()) key_on_1 = key;
  }
  ASSERT_FALSE(key_on_0.empty());
  ASSERT_FALSE(key_on_1.empty());

  // All events for key_on_0 originate on machine 0 (local), all events
  // for key_on_1 also originate on machine 0 (remote).
  advisor.ObserveFlow(0, "U1", key_on_0, 100);
  advisor.ObserveFlow(0, "U1", key_on_1, 300);
  const auto analysis = advisor.AnalyzeRing(ring);
  EXPECT_EQ(analysis.total_events, 400);
  EXPECT_EQ(analysis.cross_machine_events, 300);
  EXPECT_DOUBLE_EQ(analysis.CrossTrafficFraction(), 0.75);
  EXPECT_EQ(analysis.machine_load[0], 100);
  EXPECT_EQ(analysis.machine_load[1], 300);
}

TEST(PlacementTest, ProposalPrefersLocality) {
  PlacementAdvisor advisor(2, /*balance_slack=*/1.0);
  // Two keys, each overwhelmingly sourced from one machine.
  advisor.ObserveFlow(0, "U1", "alpha", 900);
  advisor.ObserveFlow(1, "U1", "alpha", 100);
  advisor.ObserveFlow(1, "U1", "beta", 800);
  advisor.ObserveFlow(0, "U1", "beta", 200);

  PlacementAdvisor::Analysis analysis;
  const auto proposal = advisor.Propose(&analysis);
  ASSERT_EQ(proposal.size(), 2u);
  for (const auto& a : proposal) {
    if (a.key == "alpha") {
      EXPECT_EQ(a.machine, 0);
    }
    if (a.key == "beta") {
      EXPECT_EQ(a.machine, 1);
    }
  }
  EXPECT_EQ(analysis.cross_machine_events, 300);  // the minority flows
  EXPECT_EQ(analysis.total_events, 2000);
}

TEST(PlacementTest, BalanceCapSpillsHotKeys) {
  // With zero slack, one machine cannot hold everything even if locality
  // wants it to.
  PlacementAdvisor advisor(2, /*balance_slack=*/0.0);
  advisor.ObserveFlow(0, "U1", "hot1", 500);
  advisor.ObserveFlow(0, "U1", "hot2", 500);
  PlacementAdvisor::Analysis analysis;
  const auto proposal = advisor.Propose(&analysis);
  ASSERT_EQ(proposal.size(), 2u);
  EXPECT_NE(proposal[0].machine, proposal[1].machine)
      << "the cap must force one key off the preferred machine";
  EXPECT_EQ(analysis.machine_load[0], 500);
  EXPECT_EQ(analysis.machine_load[1], 500);
}

TEST(PlacementTest, ProposalNeverWorseThanAllRemote) {
  PlacementAdvisor advisor(4, 0.5);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    advisor.ObserveFlow(static_cast<MachineId>(rng.Uniform(4)), "U1",
                        "k" + std::to_string(i % 50),
                        static_cast<int64_t>(1 + rng.Uniform(100)));
  }
  PlacementAdvisor::Analysis proposed;
  advisor.Propose(&proposed);
  EXPECT_LT(proposed.cross_machine_events, proposed.total_events);

  // And not worse than the hash ring's oblivious placement.
  HashRing ring;
  for (int m = 0; m < 4; ++m) ring.AddWorker("U1", WorkerRef{m, 0});
  const auto hashed = advisor.AnalyzeRing(ring);
  EXPECT_LE(proposed.cross_machine_events, hashed.cross_machine_events)
      << "locality-aware placement should not increase traffic";
}

}  // namespace
}  // namespace muppet
