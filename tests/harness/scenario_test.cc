// Tier-1 chaos scenarios: scripted fault plans against both engines, with
// the invariant checks (conservation, reference oracle, no-send-to-dead)
// and the bit-reproducibility guarantee.
#include "testing/scenario.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "json/json.h"
#include "tests/test_util.h"

namespace muppet {
namespace chaos {
namespace {

using ::muppet::testing::TempDir;

ScenarioOptions BaseOptions(EngineKind engine) {
  ScenarioOptions o;
  o.engine = engine;
  o.num_machines = 3;
  o.steps = 4;
  o.events_per_step = 50;
  o.num_keys = 16;
  return o;
}

int64_t TotalCount(const ScenarioResult& r) {
  int64_t total = 0;
  for (const auto& [key, count] : r.counts) total += count;
  return total;
}

class ScenarioTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(ScenarioTest, FaultFreeRunMatchesReferenceExactly) {
  ScenarioOptions o = BaseOptions(GetParam());
  ScenarioResult r = ScenarioRunner(o).Run();
  EXPECT_TRUE(r.ok()) << r.Describe(o);
  // Nothing was lost or manufactured: every published event processed.
  EXPECT_EQ(r.trace.size(), 4u * 50u);
  EXPECT_EQ(TotalCount(r), 200);
  EXPECT_EQ(r.stats.events_lost_failure, 0);
  EXPECT_EQ(r.messages_duplicated, 0);
}

TEST_P(ScenarioTest, DuplicateAndReorderFaultsPreserveExactness) {
  // Duplicates and reorders never destroy state or mark machines failed,
  // so the oracle comparison stays strict — the duplicated events are in
  // the processed ledger too.
  ScenarioOptions o = BaseOptions(GetParam());
  o.plan.seed = 11;
  o.plan.Duplicate(kAnyMachine, kAnyMachine, 0.2)
      .Reorder(kAnyMachine, kAnyMachine, 0.3, /*window=*/3)
      .Delay(kAnyMachine, kAnyMachine, /*delay_micros=*/20);
  ScenarioResult r = ScenarioRunner(o).Run();
  EXPECT_TRUE(r.ok()) << r.Describe(o);
  EXPECT_EQ(r.stats.events_lost_failure, 0);
}

TEST_P(ScenarioTest, CrashWithoutRestartKeepsInvariants) {
  ScenarioOptions o = BaseOptions(GetParam());
  o.plan.seed = 12;
  o.plan.CrashAt(1 * o.step_micros, /*machine=*/2);
  ScenarioResult r = ScenarioRunner(o).Run();
  EXPECT_TRUE(r.ok()) << r.Describe(o);
  // Post-crash the survivors still process events; the dead machine's
  // unprocessed queue shows up as bounded loss, not silence.
  EXPECT_GT(r.trace.size(), 0u);
  EXPECT_LE(TotalCount(r), 200);
}

TEST_P(ScenarioTest, CrashThenRestartRejoinsTheCluster) {
  ScenarioOptions o = BaseOptions(GetParam());
  o.plan.seed = 13;
  o.plan.CrashAt(1 * o.step_micros, 1).RestartAt(3 * o.step_micros, 1);
  ScenarioResult r = ScenarioRunner(o).Run();
  EXPECT_TRUE(r.ok()) << r.Describe(o);
}

TEST_P(ScenarioTest, PartitionHealsAndCountersBalance) {
  ScenarioOptions o = BaseOptions(GetParam());
  o.plan.seed = 14;
  o.plan.PartitionAt(1 * o.step_micros, 1, 2)
      .HealAt(2 * o.step_micros, 1, 2);
  ScenarioResult r = ScenarioRunner(o).Run();
  EXPECT_TRUE(r.ok()) << r.Describe(o);
}

TEST_P(ScenarioTest, DropFaultsTriggerReroutingNotLossOfInvariants) {
  ScenarioOptions o = BaseOptions(GetParam());
  o.plan.seed = 15;
  // A dropped send looks like a dead peer (§4.3): the sender reports the
  // destination failed and the ring reroutes. All four invariants must
  // survive that, including no-send-to-dead afterwards.
  o.plan.Drop(kAnyMachine, kAnyMachine, 0.05);
  ScenarioResult r = ScenarioRunner(o).Run();
  EXPECT_TRUE(r.ok()) << r.Describe(o);
}

TEST_P(ScenarioTest, FanoutWorkflowBalancesUnderChaos) {
  ScenarioOptions o = BaseOptions(GetParam());
  o.fanout = true;
  o.plan.seed = 16;
  o.plan.Duplicate(kAnyMachine, kAnyMachine, 0.1)
      .Reorder(kAnyMachine, kAnyMachine, 0.2, /*window=*/2)
      .CrashAt(2 * o.step_micros, 2);
  ScenarioResult r = ScenarioRunner(o).Run();
  EXPECT_TRUE(r.ok()) << r.Describe(o);
  EXPECT_GT(r.stats.events_emitted, 0);
}

TEST_P(ScenarioTest, SameSeedAndPlanIsBitReproducible) {
  auto make = [this]() {
    ScenarioOptions o = BaseOptions(GetParam());
    o.workload_seed = 99;
    o.plan.seed = 17;
    o.plan.Drop(kAnyMachine, kAnyMachine, 0.03)
        .Duplicate(kAnyMachine, kAnyMachine, 0.1)
        .Reorder(kAnyMachine, kAnyMachine, 0.15, /*window=*/2)
        .CrashAt(2 * o.step_micros, 1)
        .RestartAt(3 * o.step_micros, 1);
    return o;
  };
  ScenarioOptions o1 = make();
  ScenarioOptions o2 = make();
  ScenarioResult a = ScenarioRunner(o1).Run();
  ScenarioResult b = ScenarioRunner(o2).Run();
  EXPECT_TRUE(a.ok()) << a.Describe(o1);
  EXPECT_TRUE(b.ok()) << b.Describe(o2);
  // Byte-identical processed-event trace and final slates.
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.stats.events_processed, b.stats.events_processed);
  EXPECT_EQ(a.stats.events_lost_failure, b.stats.events_lost_failure);
  EXPECT_EQ(a.messages_duplicated, b.messages_duplicated);
}

TEST_P(ScenarioTest, StoreBackedCrashRestartPreservesDurableCounts) {
  TempDir dir;
  ScenarioOptions o = BaseOptions(GetParam());
  o.with_store = true;
  o.data_dir = dir.path();
  o.plan.seed = 18;
  o.plan.CrashAt(1 * o.step_micros, 1).RestartAt(3 * o.step_micros, 1);
  ScenarioResult r = ScenarioRunner(o).Run();
  EXPECT_TRUE(r.ok()) << r.Describe(o);
  // Write-through slates survive the crash; the only deficit vs. the
  // reference is events that died in the crashed machine's queues, and
  // those are excluded from the ledger by construction.
  EXPECT_GT(TotalCount(r), 0);
}

TEST_P(ScenarioTest, HotSplitWorkloadStaysExact) {
  // hot_split declares the updater associative and skews the workload
  // onto one hot key, then spreads it; on Muppet 2.0 the load manager runs
  // aggressively and the hot key actually splits mid-run, while 1.0 runs
  // no load manager. No fault destroys state, so the oracle is strict:
  // FetchSlate's base+shard aggregation must equal the reference for
  // every key.
  ScenarioOptions o = BaseOptions(GetParam());
  o.hot_split = true;
  o.steps = 6;
  ScenarioResult r = ScenarioRunner(o).Run();
  EXPECT_TRUE(r.ok()) << r.Describe(o);
  EXPECT_EQ(TotalCount(r), 6 * 50);
  EXPECT_EQ(r.stats.events_lost_failure, 0);
}

TEST(ScenarioHotSplitTest, SplitRacesCrashRestart) {
  // A machine dies and rejoins while the hot key is split: the ring
  // reroutes shard events around the dead machine and back, so
  // conservation (A) balances exactly and the oracle (B) still bounds
  // every live count (base + shard fold) by the reference.
  ScenarioOptions o = BaseOptions(EngineKind::kMuppet2);
  o.hot_split = true;
  o.steps = 6;
  o.plan.seed = 21;
  o.plan.CrashAt(2 * o.step_micros, 1).RestartAt(4 * o.step_micros, 1);
  ScenarioResult r = ScenarioRunner(o).Run();
  EXPECT_TRUE(r.ok()) << r.Describe(o);
  // The crash may shed queued events but never manufactures counts.
  EXPECT_LE(TotalCount(r), 6 * 50);
  EXPECT_GT(TotalCount(r), 0);
}

INSTANTIATE_TEST_SUITE_P(BothEngines, ScenarioTest,
                         ::testing::Values(EngineKind::kMuppet1,
                                           EngineKind::kMuppet2),
                         [](const ::testing::TestParamInfo<EngineKind>& i) {
                           return i.param == EngineKind::kMuppet1
                                      ? "Muppet1"
                                      : "Muppet2";
                         });

TEST(RandomFaultPlanTest, SameSeedSamePlan) {
  ScenarioOptions o;
  FaultPlan a = RandomFaultPlan(123, o);
  FaultPlan b = RandomFaultPlan(123, o);
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_EQ(a.seed, 123u);
  EXPECT_FALSE(a.empty());
  // Different seeds disagree somewhere across a small range.
  bool differs = false;
  for (uint64_t s = 124; s < 134 && !differs; ++s) {
    differs = RandomFaultPlan(s, o).ToString() != a.ToString();
  }
  EXPECT_TRUE(differs);
}

TEST(RandomFaultPlanTest, NeverCrashesThePublisherMachine) {
  ScenarioOptions o;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    FaultPlan plan = RandomFaultPlan(seed, o);
    for (const FaultAction& a : plan.actions) {
      if (a.kind == FaultAction::Kind::kCrashMachine ||
          a.kind == FaultAction::Kind::kRestartMachine) {
        EXPECT_GE(a.a, 1) << "seed " << seed << ": " << a.ToString();
        EXPECT_LT(a.a, o.num_machines) << "seed " << seed;
      }
    }
  }
}

TEST(ScenarioResultTest, DescribePrintsSeedsTimelineAndReplayHint) {
  ScenarioOptions o;
  o.workload_seed = 77;
  o.plan = RandomFaultPlan(42, o);
  ScenarioResult r;
  r.violations.push_back("invariant A (conservation): example");
  const std::string report = r.Describe(o);
  EXPECT_NE(report.find("FAILED"), std::string::npos);
  EXPECT_NE(report.find("invariant A"), std::string::npos);
  EXPECT_NE(report.find("workload_seed=77"), std::string::npos);
  EXPECT_NE(report.find("fault plan seed=42"), std::string::npos);
  EXPECT_NE(report.find("MUPPET_CHAOS_REPLAY_SEED=42"), std::string::npos);
  EXPECT_NE(report.find("ctest -R chaos_property"), std::string::npos);

  ScenarioResult ok;
  EXPECT_NE(ok.Describe(o).find("chaos scenario OK"), std::string::npos);
}

// A violated invariant triggers the flight recorder: the result carries
// the combined trace rings and a metrics snapshot, and when
// MUPPET_CHAOS_ARTIFACT_DIR is set both are written as files next to the
// failing seed (the nightly workflow uploads that directory).
TEST(FlightRecorderTest, ViolationDumpsTracesAndMetrics) {
  TempDir artifacts;
  ASSERT_EQ(setenv("MUPPET_CHAOS_ARTIFACT_DIR", artifacts.path().c_str(), 1),
            0);
  ScenarioOptions o;
  o.engine = EngineKind::kMuppet2;
  o.num_machines = 2;
  o.steps = 2;
  o.events_per_step = 25;
  o.plan.seed = 123;
  o.inject_violation_for_test = true;
  ScenarioResult r = ScenarioRunner(o).Run();
  unsetenv("MUPPET_CHAOS_ARTIFACT_DIR");
  ASSERT_FALSE(r.ok());

  // In-memory dumps: parseable tracez JSON per machine + Prometheus text.
  Result<Json> traces = Json::Parse(r.trace_dump);
  ASSERT_OK(traces.status());
  ASSERT_EQ(traces.value()["machines"].size(), 2u);
  const Json& m0 = traces.value()["machines"].AsArray()[0];
  EXPECT_GT(m0["recent"].size(), 0u);  // chaos runs trace every event
  EXPECT_NE(r.metrics_dump.find("# TYPE muppet_events_published_total"),
            std::string::npos);

  // Artifact files for CI upload.
  const std::string stem =
      artifacts.path() + "/chaos-muppet2-seed-123";
  EXPECT_TRUE(std::filesystem::exists(stem + "-traces.json"));
  ASSERT_TRUE(std::filesystem::exists(stem + "-metrics.prom"));
  std::ifstream metrics(stem + "-metrics.prom");
  std::stringstream contents;
  contents << metrics.rdbuf();
  EXPECT_EQ(contents.str(), r.metrics_dump);
}

// The same scenario without the hook stays green and dumps nothing.
TEST(FlightRecorderTest, CleanRunLeavesNoDump) {
  ScenarioOptions o;
  o.engine = EngineKind::kMuppet2;
  o.num_machines = 2;
  o.steps = 2;
  o.events_per_step = 25;
  ScenarioResult r = ScenarioRunner(o).Run();
  EXPECT_TRUE(r.ok()) << r.Describe(o);
  EXPECT_TRUE(r.trace_dump.empty());
  EXPECT_TRUE(r.metrics_dump.empty());
}

}  // namespace
}  // namespace chaos
}  // namespace muppet
