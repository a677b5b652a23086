// Randomized chaos sweep (ctest label: chaos). Runs many seeded scenarios
// per engine, each with a RandomFaultPlan derived from the seed, and
// checks every invariant. Knobs (environment):
//
//   MUPPET_CHAOS_SEEDS        seeds per engine (default 200)
//   MUPPET_CHAOS_BASE_SEED    first seed (default 1; CI passes a fresh one)
//   MUPPET_CHAOS_REPLAY_SEED  run exactly this one seed (failure replay)
//   MUPPET_CHAOS_ARTIFACT_DIR write seed + fault timeline here on failure
//
// A failing seed prints its full report (seeds, timeline, violations) and
// is reproducible with:
//   MUPPET_CHAOS_REPLAY_SEED=<seed> ctest -R chaos_property [...]
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "testing/scenario.h"
#include "tests/test_util.h"

namespace muppet {
namespace chaos {
namespace {

uint64_t EnvU64(const char* name, uint64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  return std::strtoull(v, nullptr, 10);
}

void WriteArtifact(EngineKind engine, uint64_t seed,
                   const std::string& suffix, const std::string& report) {
  const char* dir = std::getenv("MUPPET_CHAOS_ARTIFACT_DIR");
  if (dir == nullptr || *dir == '\0') return;
  const std::string path =
      std::string(dir) + "/chaos-" +
      (engine == EngineKind::kMuppet1 ? "muppet1" : "muppet2") + suffix +
      "-seed-" + std::to_string(seed) + ".txt";
  std::ofstream out(path);
  out << report;
}

ScenarioOptions SweepOptions(EngineKind engine, uint64_t seed,
                             bool hot_split = false) {
  ScenarioOptions o;
  o.engine = engine;
  // Smaller than the tier-1 scripted scenarios: the sweep's power comes
  // from seed count, not per-run volume.
  o.num_machines = 3;
  o.steps = 3;
  o.events_per_step = 30;
  o.num_keys = 8;
  // hot_split runs the load manager over a skewed-then-uniform workload,
  // so split installs and shard traffic race whatever the seeded fault
  // plan throws at the cluster. A bit longer so the uniform phase reads
  // a split key under faults.
  o.hot_split = hot_split;
  if (hot_split) o.steps = 4;
  o.workload_seed = seed;
  o.plan = RandomFaultPlan(seed, o);
  return o;
}

void RunSweep(EngineKind engine, bool hot_split = false) {
  const uint64_t base = EnvU64("MUPPET_CHAOS_BASE_SEED", 1);
  const uint64_t replay = EnvU64("MUPPET_CHAOS_REPLAY_SEED", 0);
  const uint64_t count = EnvU64("MUPPET_CHAOS_SEEDS", 200);

  std::vector<uint64_t> seeds;
  if (replay != 0) {
    seeds.push_back(replay);
  } else {
    for (uint64_t i = 0; i < count; ++i) seeds.push_back(base + i);
  }

  int failures = 0;
  for (uint64_t seed : seeds) {
    const ScenarioOptions o = SweepOptions(engine, seed, hot_split);
    const ScenarioResult r = ScenarioRunner(o).Run();
    if (!r.ok()) {
      ++failures;
      const std::string report = r.Describe(o);
      WriteArtifact(engine, seed, hot_split ? "-hotsplit" : "", report);
      ADD_FAILURE() << "chaos seed " << seed << " violated invariants\n"
                    << report;
      if (failures >= 3) break;  // enough to diagnose; don't spam
    }
  }
}

TEST(ChaosPropertyTest, Muppet1RandomizedSweep) {
  RunSweep(EngineKind::kMuppet1);
}

TEST(ChaosPropertyTest, Muppet2RandomizedSweep) {
  RunSweep(EngineKind::kMuppet2);
}

// Hot-split sweep: the load manager splits the hot key while the seeded
// fault plan crashes, partitions, drops, and reorders around it. Shard
// traffic racing machine failures is exactly the surface this covers; the
// oracle stays strict whenever no fault destroys state.
TEST(ChaosPropertyTest, Muppet2HotSplitSweep) {
  RunSweep(EngineKind::kMuppet2, /*hot_split=*/true);
}

// ---- Crash-recovery matrix (DESIGN.md §12): {consistency knob} x
// {crash shape} per engine. Every cell scripts crash/restart pairs at
// drain boundaries (RecoveryFaultPlan), so the scenario's oracle applies
// its durability contract: strict reference equality in kExactlyOnce,
// bounded unsynced-tail loss in kAtLeastOnce, live <= reference always.

constexpr Consistency kKnobs[] = {
    Consistency::kLossy,
    Consistency::kAtLeastOnce,
    Consistency::kExactlyOnce,
};
constexpr CrashShape kShapes[] = {
    CrashShape::kCrashRestart,
    CrashShape::kCrashDuringCheckpoint,
    CrashShape::kCrashDuringReplay,
};

ScenarioOptions RecoveryOptions(EngineKind engine, Consistency knob,
                                CrashShape shape, uint64_t seed,
                                const std::string& durability_dir) {
  ScenarioOptions o;
  o.engine = engine;
  o.num_machines = 3;
  o.steps = 4;
  o.events_per_step = 30;
  o.num_keys = 8;
  o.workload_seed = seed;
  o.consistency = knob;
  if (knob != Consistency::kLossy) o.durability_dir = durability_dir;
  if (shape == CrashShape::kCrashDuringCheckpoint) {
    // Near-continuous checkpointing so the crash races an in-flight
    // manifest write / segment rotation instead of landing between them.
    o.checkpoint_every_records = 4;
  }
  o.plan = RecoveryFaultPlan(seed, shape, o);
  return o;
}

void RunRecoveryMatrix(EngineKind engine) {
  const uint64_t base = EnvU64("MUPPET_CHAOS_BASE_SEED", 1);
  const uint64_t replay = EnvU64("MUPPET_CHAOS_REPLAY_SEED", 0);
  // Default sizing matches the sweeps: >= MUPPET_CHAOS_SEEDS scenarios
  // per engine, spread evenly over the 9 matrix cells (rounded up).
  const uint64_t count = EnvU64("MUPPET_CHAOS_SEEDS", 200);
  const uint64_t per_cell = (count + 8) / 9;

  int failures = 0;
  for (Consistency knob : kKnobs) {
    for (CrashShape shape : kShapes) {
      std::vector<uint64_t> seeds;
      if (replay != 0) {
        seeds.push_back(replay);
      } else {
        for (uint64_t i = 0; i < per_cell; ++i) seeds.push_back(base + i);
      }
      for (uint64_t seed : seeds) {
        // Fresh changelog dir per run: a leftover changelog would replay
        // into the next scenario's cold start and corrupt its oracle.
        muppet::testing::TempDir dir;
        const ScenarioOptions o =
            RecoveryOptions(engine, knob, shape, seed, dir.path());
        const ScenarioResult r = ScenarioRunner(o).Run();
        if (!r.ok()) {
          ++failures;
          const std::string report = r.Describe(o);
          WriteArtifact(engine, seed,
                        std::string("-recovery-") + ConsistencyName(knob) +
                            "-" + CrashShapeName(shape),
                        report);
          ADD_FAILURE() << "recovery cell (" << ConsistencyName(knob) << ", "
                        << CrashShapeName(shape) << ") seed " << seed
                        << " violated invariants\n"
                        << report;
          if (failures >= 3) return;
        }
      }
    }
  }
}

TEST(ChaosPropertyTest, Muppet1RecoveryMatrix) {
  RunRecoveryMatrix(EngineKind::kMuppet1);
}

TEST(ChaosPropertyTest, Muppet2RecoveryMatrix) {
  RunRecoveryMatrix(EngineKind::kMuppet2);
}

// Exactly-once recovery must also be bit-reproducible: every append is
// synced before it is acknowledged, so a crash discards nothing and two
// runs of the same seed recover byte-identical state.
TEST(ChaosPropertyTest, ExactlyOnceRecoveryIsBitReproducible) {
  const uint64_t base = EnvU64("MUPPET_CHAOS_BASE_SEED", 1);
  for (uint64_t seed = base; seed < base + 3; ++seed) {
    muppet::testing::TempDir dir_a;
    muppet::testing::TempDir dir_b;
    const ScenarioOptions o1 =
        RecoveryOptions(EngineKind::kMuppet2, Consistency::kExactlyOnce,
                        CrashShape::kCrashRestart, seed, dir_a.path());
    const ScenarioOptions o2 =
        RecoveryOptions(EngineKind::kMuppet2, Consistency::kExactlyOnce,
                        CrashShape::kCrashRestart, seed, dir_b.path());
    const ScenarioResult a = ScenarioRunner(o1).Run();
    const ScenarioResult b = ScenarioRunner(o2).Run();
    EXPECT_EQ(a.trace, b.trace) << "seed " << seed << " not reproducible\n"
                                << a.Describe(o1);
    EXPECT_EQ(a.counts, b.counts) << "seed " << seed;
  }
}

// A handful of sweep seeds re-run twice each: same seed, same plan must
// give a byte-identical processed-event trace and final counts.
TEST(ChaosPropertyTest, SweepSeedsAreBitReproducible) {
  const uint64_t base = EnvU64("MUPPET_CHAOS_BASE_SEED", 1);
  for (uint64_t seed = base; seed < base + 5; ++seed) {
    const ScenarioOptions o1 = SweepOptions(EngineKind::kMuppet2, seed);
    const ScenarioOptions o2 = SweepOptions(EngineKind::kMuppet2, seed);
    const ScenarioResult a = ScenarioRunner(o1).Run();
    const ScenarioResult b = ScenarioRunner(o2).Run();
    EXPECT_EQ(a.trace, b.trace) << "seed " << seed << " not reproducible\n"
                                << a.Describe(o1);
    EXPECT_EQ(a.counts, b.counts) << "seed " << seed;
  }
}

}  // namespace
}  // namespace chaos
}  // namespace muppet
