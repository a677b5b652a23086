// Deterministic chaos scenario runner. Stands up a multi-machine Muppet
// 1.0 or 2.0 cluster (optionally backed by a kvstore slate store), feeds a
// seeded workload while a FaultPlan injects scripted faults on a simulated
// timeline, drains, and checks the paper's failure-handling invariants
// (§4.3–4.4):
//
//   A  conservation  — every accepted event is accounted for exactly once:
//                      published + emitted + duplicated ==
//                      processed + lost + dropped-by-overflow;
//   B  oracle        — surviving slates match (or, after state-destroying
//                      crashes, never exceed) the ReferenceExecutor run on
//                      the ledger of events the updater actually processed;
//   D  rerouting     — once a machine's failure is known cluster-wide, no
//                      further send is attempted to it (ring rerouting).
//
// Everything is driven by two seeds (workload + fault plan), so any
// violation is replayable bit-for-bit; Describe() prints both seeds and
// the full fault timeline next to the violations.
#ifndef MUPPET_TESTING_SCENARIO_H_
#define MUPPET_TESTING_SCENARIO_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "engine/engine.h"
#include "net/fault.h"

namespace muppet {
namespace chaos {

enum class EngineKind { kMuppet1, kMuppet2 };

// A Muppet1Engine or Muppet2Engine over `config` (which must outlive it).
std::unique_ptr<Engine> MakeEngine(EngineKind kind, const AppConfig& config,
                                   const EngineOptions& options);

struct ScenarioOptions {
  EngineKind engine = EngineKind::kMuppet2;

  // Cluster shape.
  int num_machines = 3;
  int workers_per_function = 2;  // Muppet 1.0
  int threads_per_machine = 2;   // Muppet 2.0
  size_t queue_capacity = 4096;
  OverflowPolicy overflow_policy = OverflowPolicy::kDrop;

  // Workflow shape: false = input -> counting updater; true = input ->
  // fan-out mapper (x2) -> counting updater.
  bool fanout = false;

  // Exercise the self-tuning load manager: the counting updater is
  // declared associative/commutative with a count-summing merger, the
  // load manager runs with an aggressive tick so splits trigger inside a
  // short scenario, and the workload skews ~half its events onto one hot
  // key for the first half of the steps (uniform after, while the split
  // stays). The oracle checks are unchanged — split or not, per-key
  // counts must match the reference exactly when no fault destroys
  // state, because FetchSlate folds base + shard slates with the merger,
  // and an associative fold over any partition of the events is exact.
  bool hot_split = false;

  // Durable slate store backed by a KvCluster under `data_dir` (required
  // when with_store). Write-through keeps the oracle exact across machine
  // crashes.
  bool with_store = false;
  int store_nodes = 3;
  std::string data_dir;
  SlateFlushPolicy flush_policy = SlateFlushPolicy::kWriteThrough;
  Timestamp slate_ttl_micros = 0;

  // Durability / consistency knob (engine/slatelog.h, DESIGN.md §12).
  // Anything above kLossy requires `durability_dir` (per-machine slate
  // changelogs live there) and changes the oracle contract: a crash whose
  // restart is scripted at the same boundary destroys no slate state, so
  // kExactlyOnce plans built from such pairs are held to *strict* oracle
  // equality, and kAtLeastOnce plans to a bounded-loss floor (the total
  // count deficit across keys may not exceed crashes x sync_every_records,
  // the unsynced changelog tail a crash is allowed to eat).
  Consistency consistency = Consistency::kLossy;
  std::string durability_dir;
  uint64_t sync_every_records = 32;        // kAtLeastOnce buffering window
  uint64_t checkpoint_every_records = 512;  // small => mid-run checkpoints

  // Seeded workload: `steps` rounds of `events_per_step` events over
  // `num_keys` keys, each round starting at the next step_micros boundary
  // of the simulated fault timeline.
  uint64_t workload_seed = 1;
  int num_keys = 16;
  int steps = 4;
  int events_per_step = 50;
  Timestamp step_micros = 100 * kMicrosPerMilli;

  // The scripted fault timeline (see RandomFaultPlan for seeded ones).
  FaultPlan plan;

  // Test hook: report one synthetic violation so the flight-recorder
  // path (trace/metrics dump + artifact files) can be exercised without
  // needing a genuine invariant failure.
  bool inject_violation_for_test = false;
};

struct ScenarioResult {
  // Empty when every invariant held.
  std::vector<std::string> violations;

  // Canonical processed-event ledger: sorted "ts|key|value" lines, one per
  // counting-updater invocation. Excludes engine-assigned seq numbers, so
  // two runs of the same seeds must produce identical traces.
  std::vector<std::string> trace;

  // Final per-key live counts, as fetched from the surviving cluster
  // (missing slates read as 0).
  std::map<std::string, int64_t> counts;

  EngineStats stats;
  int64_t messages_duplicated = 0;
  int64_t messages_held = 0;
  int64_t faults_dropped = 0;

  // Flight recorder, populated only when an invariant was violated: the
  // combined /tracez documents of every machine (JSON) and a /metrics
  // snapshot (Prometheus text) taken before teardown. Also written as
  // files under $MUPPET_CHAOS_ARTIFACT_DIR when that is set, so CI can
  // upload the evidence next to the failing seed.
  std::string trace_dump;
  std::string metrics_dump;

  bool ok() const { return violations.empty(); }

  // Human-readable report: violations (if any), seeds, fault timeline,
  // and a one-command replay hint.
  std::string Describe(const ScenarioOptions& options) const;
};

class ScenarioRunner {
 public:
  explicit ScenarioRunner(ScenarioOptions options)
      : options_(std::move(options)) {}

  // Build the cluster, run the scenario to completion, tear down, and
  // return the invariant-check results. Safe to call once per runner.
  ScenarioResult Run();

 private:
  ScenarioOptions options_;
};

// A seed-derived FaultPlan sized for `options`: 1–3 per-link fault rules
// (drop / duplicate / reorder / delay) plus, with moderate probability,
// machine crash/restart pairs (never machine 0 — it hosts the publisher
// role), a partition/heal pair, and store-node outages when a store is
// configured. Same (seed, options shape) -> same plan.
FaultPlan RandomFaultPlan(uint64_t seed, const ScenarioOptions& options);

// Crash shapes for the recovery matrix ({consistency} x {shape} sweep in
// tests/harness/chaos_property_test.cc). All shapes script crash/restart
// pairs at drain boundaries (both actions carry the same timestamp, so
// they fire back-to-back with zero in-flight events and the ring never
// re-homes a key mid-recovery — exactly the regime where kExactlyOnce
// promises strict oracle equality).
enum class CrashShape {
  // One crash/restart pair on a random victim at a random interior
  // boundary: the machine loses every cached slate and must replay.
  kCrashRestart,
  // Same pair, but the caller is expected to set a tiny
  // checkpoint_every_records so the victim's flusher is checkpointing
  // near-continuously and the crash races manifest/rotation in flight.
  kCrashDuringCheckpoint,
  // Two recovery cycles back-to-back (crash, restart, crash, restart at
  // one boundary). Replay is read-only on the changelog, so a crash that
  // lands mid-replay is observationally a fresh recovery; the double
  // cycle exercises exactly that replay-of-replayed-state path.
  kCrashDuringReplay,
};

const char* CrashShapeName(CrashShape shape);

// A seed-derived recovery plan of the given shape: crash/restart pairs
// only, no link faults, so the durability oracle contract above applies.
// Same (seed, shape, options shape) -> same plan.
FaultPlan RecoveryFaultPlan(uint64_t seed, CrashShape shape,
                            const ScenarioOptions& options);

}  // namespace chaos
}  // namespace muppet

#endif  // MUPPET_TESTING_SCENARIO_H_
