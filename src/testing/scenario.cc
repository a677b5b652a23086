#include "testing/scenario.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <memory>
#include <set>
#include <thread>
#include <utility>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "common/prom.h"
#include "common/rng.h"
#include "common/sync.h"
#include "service/admin_service.h"
#include "core/reference_executor.h"
#include "core/slate.h"
#include "core/slate_store.h"
#include "engine/muppet1.h"
#include "engine/muppet2.h"
#include "kvstore/cluster.h"

namespace muppet {
namespace chaos {

std::unique_ptr<Engine> MakeEngine(EngineKind kind, const AppConfig& config,
                                   const EngineOptions& options) {
  if (kind == EngineKind::kMuppet1) {
    return std::make_unique<Muppet1Engine>(config, options);
  }
  return std::make_unique<Muppet2Engine>(config, options);
}

namespace {

const char* EngineName(EngineKind kind) {
  return kind == EngineKind::kMuppet1 ? "muppet1" : "muppet2";
}

// Flight-recorder dump: on an invariant violation, capture every
// machine's trace ring and a metrics snapshot before teardown destroys
// them. Sampling is deterministic in the event keys, so replaying the
// failing seeds re-records the same traces.
void DumpFlightRecorder(const ScenarioOptions& options, Engine* engine,
                        ScenarioResult* result) {
  Json doc = Json::MakeObject();
  doc["engine"] = EngineName(options.engine);
  doc["fault_seed"] = options.plan.seed;
  doc["workload_seed"] = options.workload_seed;
  Json machines = Json::MakeArray();
  for (MachineId m = 0; m < static_cast<MachineId>(options.num_machines);
       ++m) {
    machines.Append(TracezDocument(engine, m));
  }
  doc["machines"] = std::move(machines);
  result->trace_dump = doc.Dump() + "\n";
  if (engine->metrics() != nullptr) {
    result->metrics_dump = PrometheusText(*engine->metrics());
  }

  const char* dir = std::getenv("MUPPET_CHAOS_ARTIFACT_DIR");
  if (dir == nullptr || *dir == '\0') return;
  const std::string base = std::string(dir) + "/chaos-" +
                           EngineName(options.engine) + "-seed-" +
                           std::to_string(options.plan.seed);
  std::ofstream(base + "-traces.json") << result->trace_dump;
  std::ofstream(base + "-metrics.prom") << result->metrics_dump;

  // Health & SLO plane (DESIGN.md §14): the incident ring and the
  // per-stream SLO verdicts, so a nightly violation ships its own
  // diagnosis alongside the traces.
  engine->HarvestSlo();
  Json ops = Json::MakeObject();
  ops["engine"] = EngineName(options.engine);
  ops["fault_seed"] = options.plan.seed;
  ops["sloz"] = SlozDocument(engine, 0);
  ops["healthz"] = HealthzDocument(engine, 0);
  Json incidents = Json::MakeArray();
  if (const IncidentLog* log = engine->incidents(); log != nullptr) {
    for (const Incident& incident : log->Incidents()) {
      incidents.Append(IncidentToJson(incident));
    }
  }
  ops["incidents"] = std::move(incidents);
  std::ofstream(base + "-slo.json") << ops.Dump() << "\n";

  // Durable runs also preserve the changelog segments and checkpoint
  // manifests: with them plus the seeds, a violation can be replayed AND
  // the recovered state independently re-derived offline.
  if (options.durability_dir.empty()) return;
  std::error_code ec;
  const std::filesystem::path dest = base + "-slatelog";
  std::filesystem::create_directories(dest, ec);
  if (ec) return;
  for (const auto& entry :
       std::filesystem::directory_iterator(options.durability_dir, ec)) {
    if (ec || !entry.is_regular_file(ec)) continue;
    std::filesystem::copy_file(
        entry.path(), dest / entry.path().filename(),
        std::filesystem::copy_options::overwrite_existing, ec);
  }
}

// Ledger of the events the counting updater actually processed — the
// ground truth the reference oracle replays. Appended from worker threads
// (under the engine's slate locks), hence the unordered scratch mutex; the
// trace is canonicalized by sorting afterwards.
struct Recorder {
  Mutex mutex;
  std::vector<Event> events MUPPET_GUARDED_BY(mutex);

  void Record(const Event& e) {
    MutexLock lock(mutex);
    events.push_back(e);
  }
  std::vector<Event> Snapshot() {
    MutexLock lock(mutex);
    return events;
  }
};

// The workload's single stateful operator: per-key event count in a JSON
// slate. `recorder` nullptr (the reference copy) skips the ledger.
UpdaterFactory CountingUpdater(Recorder* recorder) {
  return MakeUpdaterFactory([recorder](PerformerUtilities& out,
                                       const Event& e, const Bytes* slate) {
    JsonSlate s(slate);
    s.data()["count"] = s.data().GetInt("count") + 1;
    (void)out.ReplaceSlate(s.Serialize());
    if (recorder != nullptr) recorder->Record(e);
  });
}

Status BuildApp(AppConfig* config, const ScenarioOptions& options,
                Recorder* recorder) {
  UpdaterOptions uo;
  uo.flush_policy = options.flush_policy;
  uo.slate_ttl_micros = options.slate_ttl_micros;
  if (options.hot_split) {
    // Declare the count associative so the load manager may split its hot
    // keys; the merger sums partial counts (count is a sum, so any
    // grouping of the events folds to the same total).
    uo.associativity = Associativity::kAssociativeCommutative;
    uo.merger = [](const Bytes* base, const Bytes& part) {
      JsonSlate b(base);
      JsonSlate p(&part);
      b.data()["count"] =
          b.data().GetInt("count", 0) + p.data().GetInt("count", 0);
      return b.Serialize();
    };
  }
  MUPPET_RETURN_IF_ERROR(config->DeclareInputStream("in"));
  if (!options.fanout) {
    return config->AddUpdater("count", CountingUpdater(recorder), {"in"},
                              uo);
  }
  MUPPET_RETURN_IF_ERROR(config->DeclareStream("mid"));
  MUPPET_RETURN_IF_ERROR(config->AddMapper(
      "split",
      MakeMapperFactory([](PerformerUtilities& out, const Event& e) {
        (void)out.Publish("mid", e.key, e.value);
        (void)out.Publish("mid", e.key, e.value);
      }),
      {"in"}));
  return config->AddUpdater("count", CountingUpdater(recorder), {"mid"}, uo);
}

}  // namespace

std::string ScenarioResult::Describe(const ScenarioOptions& options) const {
  std::string out;
  if (violations.empty()) {
    out += "chaos scenario OK\n";
  } else {
    out += "chaos scenario FAILED (" + std::to_string(violations.size()) +
           " invariant violation(s))\n";
    for (const std::string& v : violations) out += "  ! " + v + "\n";
  }
  out += "engine=" + std::string(EngineName(options.engine)) +
         " machines=" + std::to_string(options.num_machines) +
         " workload_seed=" + std::to_string(options.workload_seed) +
         " steps=" + std::to_string(options.steps) + "x" +
         std::to_string(options.events_per_step) +
         " keys=" + std::to_string(options.num_keys) +
         " store=" + (options.with_store ? "yes" : "no") +
         " consistency=" + ConsistencyName(options.consistency) + "\n";
  out += options.plan.ToString();
  out += "replay: ScenarioRunner with workload_seed=" +
         std::to_string(options.workload_seed) +
         " and the plan above reproduces this run bit-for-bit;\n";
  out += "  for the randomized sweep: MUPPET_CHAOS_REPLAY_SEED=" +
         std::to_string(options.plan.seed) +
         " ctest -R chaos_property --output-on-failure\n";
  return out;
}

ScenarioResult ScenarioRunner::Run() {
  ScenarioResult result;
  auto fail = [&result](std::string v) {
    result.violations.push_back(std::move(v));
  };

  if (options_.num_machines < 1 || options_.steps < 1) {
    fail("scenario: bad shape (need >=1 machine and >=1 step)");
    return result;
  }
  if (options_.with_store && options_.data_dir.empty()) {
    fail("scenario: with_store requires data_dir");
    return result;
  }
  if (options_.consistency != Consistency::kLossy &&
      options_.durability_dir.empty()) {
    fail("scenario: durable consistency requires durability_dir");
    return result;
  }

  // Virtual time drives only the fault timeline (the injector's clock);
  // the engines keep the system clock (their flusher threads sleep on it,
  // and a simulated engine clock would busy-spin the timeline forward).
  SimulatedClock sim(0);
  FaultInjector injector(options_.plan, &sim);
  Recorder recorder;

  AppConfig config;
  Status s = BuildApp(&config, options_, &recorder);
  if (!s.ok()) {
    fail("scenario: app config: " + s.ToString());
    return result;
  }

  std::unique_ptr<kv::KvCluster> cluster;
  std::unique_ptr<SlateStore> store;
  if (options_.with_store) {
    kv::KvClusterOptions co;
    co.num_nodes = options_.store_nodes;
    co.replication_factor = std::min(3, options_.store_nodes);
    co.node.data_dir = options_.data_dir;
    co.node.clock = &sim;
    cluster = std::make_unique<kv::KvCluster>(co);
    s = cluster->Open();
    if (!s.ok()) {
      fail("scenario: store open: " + s.ToString());
      return result;
    }
    store = std::make_unique<SlateStore>(cluster.get(), SlateStoreOptions{});
  }

  EngineOptions eo;
  eo.num_machines = options_.num_machines;
  eo.workers_per_function = options_.workers_per_function;
  eo.threads_per_machine = options_.threads_per_machine;
  eo.queue_capacity = options_.queue_capacity;
  eo.overflow.policy = options_.overflow_policy;
  eo.slate_store = store.get();
  // The injector's machine crash/restart actions go through the engine
  // (below) so queue and cache loss is modeled, not just reachability.
  eo.faults = &injector;
  // Trace every event: chaos runs are small, and a violation report is
  // worth far more with the full flight recorder attached.
  eo.trace.sample_period = 1;
  eo.durability.consistency = options_.consistency;
  eo.durability.dir = options_.durability_dir;
  eo.durability.sync_every_records = options_.sync_every_records;
  eo.durability.checkpoint_every_records = options_.checkpoint_every_records;
  if (options_.hot_split && options_.engine == EngineKind::kMuppet2) {
    // Aggressive self-tuning so a split triggers within a handful of
    // 100ms steps. Muppet 1.0 runs no load manager:
    // its hot_split run is the skewed workload alone.
    eo.load_manager.enabled = true;
    eo.load_manager.tick_micros = 2 * kMicrosPerMilli;
    eo.load_manager.heat.sample_period = 4;
    eo.load_manager.heat_decay = 0.5;
    eo.load_manager.min_samples = 16;
    eo.load_manager.split_heat_fraction = 0.3;
  }

  std::unique_ptr<Engine> engine = MakeEngine(options_.engine, config, eo);
  s = engine->Start();
  if (!s.ok()) {
    fail("scenario: engine start: " + s.ToString());
    return result;
  }

  Rng rng(options_.workload_seed);
  std::set<MachineId> crashed;
  // Invariant D snapshots: send attempts to each machine at the first
  // drain boundary where its failure was cluster-known.
  std::map<MachineId, int64_t> dead_attempts;

  auto apply_action = [&](const FaultAction& a) {
    switch (a.kind) {
      case FaultAction::Kind::kCrashMachine:
        if (crashed.insert(a.a).second) (void)engine->CrashMachine(a.a);
        break;
      case FaultAction::Kind::kRestartMachine:
        if (crashed.erase(a.a) > 0) (void)engine->RestartMachine(a.a);
        // Sends to the machine are legal from this instant. Drop the
        // invariant-D snapshot now rather than at the next drain boundary:
        // a drop rule can re-fail the machine mid-step, in which case the
        // boundary sampling would never see it leave the failed set and
        // would count the healthy-window sends against the stale snapshot.
        dead_attempts.erase(a.a);
        break;
      case FaultAction::Kind::kCrashStoreNode:
        if (cluster != nullptr && a.a >= 0 && a.a < cluster->num_nodes()) {
          cluster->CrashNode(a.a);
        }
        break;
      case FaultAction::Kind::kRestoreStoreNode:
        if (cluster != nullptr && a.a >= 0 && a.a < cluster->num_nodes()) {
          cluster->RestoreNode(a.a);
        }
        break;
      case FaultAction::Kind::kPartition:
      case FaultAction::Kind::kHeal:
        break;  // applied inside the injector's own partition set
    }
  };

  // Release reordered messages and wait for quiescence. A single flush
  // before Drain() is not enough: a flushed delivery can make an operator
  // emit an event that gets held again while Drain() is already blocked on
  // it. A helper keeps flushing until the drain completes; Drain returning
  // (in-flight == 0) proves the holdback buffer is empty, since held
  // messages stay in-flight until delivered or settled as lost.
  auto quiesce = [&]() -> Status {
    std::atomic<bool> drained{false};
    std::thread flush_pump([&]() {
      while (!drained.load(std::memory_order_acquire)) {
        engine->transport().FlushHeld();
        // Pacing only: the quiesce result depends on the drained flag,
        // not on how many times this loop spins, so real-time sleep
        // cannot leak into oracle-visible state.
        // muppet-lint: allow(determinism): flush-pump pacing sleep
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    Status drain_status = engine->Drain();
    drained.store(true, std::memory_order_release);
    flush_pump.join();
    return drain_status;
  };

  bool aborted = false;
  for (int step = 0; step <= options_.steps && !aborted; ++step) {
    const Timestamp base =
        static_cast<Timestamp>(step) * options_.step_micros;
    if (sim.Now() < base) sim.Set(base);
    for (const FaultAction& a : injector.TakeDueActions()) {
      apply_action(a);
    }
    if (step < options_.steps) {
      // hot_split skews ~half the traffic onto k0 for the first half of
      // the steps (split triggers), then goes uniform (the split stays).
      const bool hot_phase =
          options_.hot_split && step * 2 < options_.steps;
      for (int i = 0; i < options_.events_per_step; ++i) {
        const std::string key =
            hot_phase && rng.Chance(0.5)
                ? "k0"
                : "k" + std::to_string(rng.Uniform(
                            static_cast<uint64_t>(options_.num_keys)));
        const std::string value =
            "s" + std::to_string(step) + "e" + std::to_string(i);
        (void)engine->Publish("in", key, value, base + i + 1);
      }
    }
    s = quiesce();
    if (!s.ok()) {
      fail("scenario: drain: " + s.ToString());
      aborted = true;
      break;
    }

    const std::set<MachineId> failed_now = engine->master().failed();
    for (MachineId m : failed_now) {
      if (dead_attempts.find(m) == dead_attempts.end()) {
        dead_attempts[m] = engine->transport().SendAttemptsTo(m);
      }
    }
    for (auto it = dead_attempts.begin(); it != dead_attempts.end();) {
      // A restarted machine left the failed set; sends are legal again.
      it = failed_now.count(it->first) == 0 ? dead_attempts.erase(it)
                                            : std::next(it);
    }
  }

  // ---- Invariant D: the ring reroutes; nothing is sent to a machine
  // whose failure is cluster-known.
  for (const auto& [m, snapshot] : dead_attempts) {
    const int64_t now_attempts = engine->transport().SendAttemptsTo(m);
    if (now_attempts > snapshot) {
      fail("invariant D (rerouting): machine " + std::to_string(m) +
           " received " + std::to_string(now_attempts - snapshot) +
           " send attempt(s) after its failure was cluster-known");
    }
  }

  // ---- Invariant A: conservation. Every accepted logical event settles
  // exactly once. Duplicate-fault copies enter on the left because the
  // transport manufactured deliveries the application never published;
  // exactly-once dedup settles a suppressed redelivery as `deduped`
  // rather than processing it twice. (kOverflowStream re-routes instead
  // of settling, so it is exempt.)
  result.stats = engine->Stats();
  result.messages_duplicated = engine->transport().messages_duplicated();
  result.messages_held = engine->transport().messages_held();
  result.faults_dropped = injector.dropped();
  if (options_.overflow_policy != OverflowPolicy::kOverflowStream) {
    const int64_t pushed = result.stats.events_published +
                           result.stats.events_emitted +
                           result.messages_duplicated;
    const int64_t settled = result.stats.events_processed +
                            result.stats.events_lost_failure +
                            result.stats.events_dropped_overflow +
                            result.stats.events_deduped;
    if (pushed != settled) {
      fail("invariant A (conservation): pushed=" + std::to_string(pushed) +
           " (published+emitted+duplicated) != settled=" +
           std::to_string(settled) +
           " (processed+lost+overflow-dropped+deduped)");
    }
  }

  // ---- Canonical trace: what the updater processed, seq/origin-free.
  std::vector<Event> ledger = recorder.Snapshot();
  result.trace.reserve(ledger.size());
  for (const Event& e : ledger) {
    result.trace.push_back(std::to_string(e.ts) + "|" + e.key + "|" +
                           e.value);
  }
  std::sort(result.trace.begin(), result.trace.end());

  // ---- Invariant B: reference oracle. Replay the processed-event ledger
  // through the single-threaded ReferenceExecutor; the surviving slates
  // must match exactly when no fault could destroy or strand slate state,
  // and must never exceed the reference otherwise.
  {
    AppConfig ref_config;
    Status rs = ref_config.DeclareInputStream("in");
    if (rs.ok()) {
      rs = ref_config.AddUpdater("count", CountingUpdater(nullptr), {"in"});
    }
    ReferenceExecutor ref(ref_config);
    if (rs.ok()) rs = ref.Start();
    for (const Event& e : ledger) {
      if (!rs.ok()) break;
      rs = ref.Publish("in", e.key, e.value, e.ts);
    }
    if (rs.ok()) rs = ref.Run();
    if (!rs.ok()) {
      fail("invariant B (oracle): reference run failed: " + rs.ToString());
    } else {
      // Exact equality requires that nothing destroyed slate state or
      // moved key ownership mid-run: machine/store crashes wipe caches,
      // and partitions or dropped sends mark machines failed (§4.3
      // detection-by-failed-send), splitting a key's count across owners.
      //
      // The durability plane changes the crash case (DESIGN.md §12): a
      // crash whose restart is scripted at the *same* timestamp fires
      // back-to-back at a drain boundary (zero in-flight events, ring
      // never re-homes a key), so replay can restore state in place. Such
      // "recoverable" crashes keep kExactlyOnce runs strict, and bound
      // kAtLeastOnce runs to an unsynced-tail deficit of at most
      // crashes x sync_every_records records (each lost changelog append
      // regresses exactly one key's count by one).
      const bool recovery_enabled =
          options_.consistency != Consistency::kLossy;
      bool ownership_disrupting = false;
      int64_t recoverable_crashes = 0;
      for (const FaultAction& a : options_.plan.actions) {
        if (a.kind == FaultAction::Kind::kCrashMachine) {
          bool recovered_in_place = false;
          if (recovery_enabled) {
            for (const FaultAction& b : options_.plan.actions) {
              if (b.kind == FaultAction::Kind::kRestartMachine &&
                  b.a == a.a && b.at_micros == a.at_micros) {
                recovered_in_place = true;
                break;
              }
            }
          }
          if (recovered_in_place) {
            ++recoverable_crashes;
          } else {
            ownership_disrupting = true;
          }
        } else if (a.kind == FaultAction::Kind::kCrashStoreNode ||
                   a.kind == FaultAction::Kind::kPartition) {
          ownership_disrupting = true;
        }
      }
      for (const FaultRule& r : options_.plan.rules) {
        if (r.drop_probability > 0.0) ownership_disrupting = true;
      }
      const bool exact =
          !ownership_disrupting &&
          (recoverable_crashes == 0 ||
           options_.consistency == Consistency::kExactlyOnce);

      int64_t deficit = 0;
      for (const auto& [id, ref_bytes] : ref.slates()) {
        JsonSlate ref_slate(&ref_bytes);
        const int64_t ref_count = ref_slate.data().GetInt("count", 0);
        int64_t live_count = 0;
        Result<Bytes> live = engine->FetchSlate("count", id.key);
        if (live.ok()) {
          JsonSlate live_slate(&live.value());
          live_count = live_slate.data().GetInt("count", 0);
        }
        result.counts[std::string(id.key)] = live_count;
        if (live_count < ref_count) deficit += ref_count - live_count;
        if (live_count > ref_count) {
          fail("invariant B (oracle): key '" + std::string(id.key) +
               "' live count " + std::to_string(live_count) +
               " exceeds reference " + std::to_string(ref_count));
        } else if (exact && live_count != ref_count) {
          fail("invariant B (oracle): key '" + std::string(id.key) +
               "' live count " + std::to_string(live_count) +
               " != reference " + std::to_string(ref_count) +
               " with no state-destroying fault in the plan");
        }
      }
      if (!ownership_disrupting && recoverable_crashes > 0 &&
          options_.consistency == Consistency::kAtLeastOnce) {
        const int64_t floor_bound =
            recoverable_crashes *
            static_cast<int64_t>(options_.sync_every_records);
        if (deficit > floor_bound) {
          fail("invariant B (at-least-once floor): total count deficit " +
               std::to_string(deficit) + " exceeds the unsynced-tail " +
               "bound of " + std::to_string(floor_bound) + " (" +
               std::to_string(recoverable_crashes) + " crash(es) x " +
               std::to_string(options_.sync_every_records) +
               " sync_every_records)");
        }
      }
    }
  }

  if (options_.inject_violation_for_test) {
    result.violations.push_back("injected violation (test hook)");
  }

  if (!result.violations.empty()) {
    DumpFlightRecorder(options_, engine.get(), &result);
  }

  (void)engine->Stop();
  return result;
}

FaultPlan RandomFaultPlan(uint64_t seed, const ScenarioOptions& options) {
  FaultPlan plan;
  plan.seed = seed;
  Rng rng(seed ^ 0xC4405C4405ULL);
  const MachineId n = static_cast<MachineId>(options.num_machines);
  const uint64_t steps = static_cast<uint64_t>(std::max(1, options.steps));

  auto any_or = [&](MachineId limit) -> MachineId {
    return rng.Chance(0.5)
               ? kAnyMachine
               : static_cast<MachineId>(rng.Uniform(
                     static_cast<uint64_t>(limit)));
  };

  const int num_rules = 1 + static_cast<int>(rng.Uniform(3));
  for (int i = 0; i < num_rules; ++i) {
    const MachineId from = any_or(n);
    const MachineId to = any_or(n);
    const Timestamp start =
        options.step_micros * static_cast<Timestamp>(rng.Uniform(steps));
    const Timestamp end =
        start + options.step_micros *
                    static_cast<Timestamp>(1 + rng.Uniform(steps));
    switch (rng.Uniform(4)) {
      case 0:
        plan.Drop(from, to, 0.01 + 0.19 * rng.NextDouble(), start, end);
        break;
      case 1:
        plan.Duplicate(from, to, 0.01 + 0.14 * rng.NextDouble(), start, end);
        break;
      case 2:
        plan.Reorder(from, to, 0.05 + 0.25 * rng.NextDouble(),
                     1 + static_cast<uint32_t>(rng.Uniform(4)), start, end);
        break;
      default:
        plan.Delay(from, to, 10 + static_cast<Timestamp>(rng.Uniform(190)),
                   start, end);
        break;
    }
  }

  // Machine 0 hosts the publisher role (the paper's special mapper M0,
  // §4.1); crashing it kills the source, so victims start at machine 1.
  if (n > 1 && rng.Chance(0.5)) {
    const MachineId victim =
        1 + static_cast<MachineId>(rng.Uniform(static_cast<uint64_t>(n - 1)));
    const Timestamp crash_at =
        options.step_micros *
        static_cast<Timestamp>(1 + rng.Uniform(std::max<uint64_t>(1, steps - 1)));
    plan.CrashAt(crash_at, victim);
    if (rng.Chance(0.7)) {
      plan.RestartAt(crash_at + options.step_micros *
                                    static_cast<Timestamp>(1 + rng.Uniform(2)),
                     victim);
    }
  }
  if (n > 2 && rng.Chance(0.3)) {
    const MachineId a = static_cast<MachineId>(rng.Uniform(
        static_cast<uint64_t>(n)));
    MachineId b = static_cast<MachineId>(rng.Uniform(
        static_cast<uint64_t>(n)));
    if (b == a) b = (a + 1) % n;
    const Timestamp at =
        options.step_micros * static_cast<Timestamp>(rng.Uniform(steps));
    plan.PartitionAt(at, a, b);
    plan.HealAt(at + options.step_micros *
                         static_cast<Timestamp>(1 + rng.Uniform(2)),
                a, b);
  }
  if (options.with_store && options.store_nodes > 1 && rng.Chance(0.3)) {
    const int node = static_cast<int>(
        rng.Uniform(static_cast<uint64_t>(options.store_nodes)));
    const Timestamp at =
        options.step_micros *
        static_cast<Timestamp>(1 + rng.Uniform(std::max<uint64_t>(1, steps - 1)));
    plan.CrashStoreNodeAt(at, node);
    plan.RestoreStoreNodeAt(at + options.step_micros, node);
  }
  return plan;
}

const char* CrashShapeName(CrashShape shape) {
  switch (shape) {
    case CrashShape::kCrashRestart:
      return "crash_restart";
    case CrashShape::kCrashDuringCheckpoint:
      return "crash_during_checkpoint";
    case CrashShape::kCrashDuringReplay:
      return "crash_during_replay";
  }
  return "unknown";
}

FaultPlan RecoveryFaultPlan(uint64_t seed, CrashShape shape,
                            const ScenarioOptions& options) {
  FaultPlan plan;
  plan.seed = seed;
  Rng rng(seed ^ 0x51A7E70CULL);
  const MachineId n = static_cast<MachineId>(options.num_machines);
  const uint64_t steps = static_cast<uint64_t>(std::max(2, options.steps));

  // Machine 0 hosts the publisher role (§4.1); victims start at 1. Each
  // pair lands on an interior drain boundary so slates have accumulated
  // before the crash and events keep arriving after the recovery.
  auto victim = [&]() -> MachineId {
    return n > 1 ? 1 + static_cast<MachineId>(
                           rng.Uniform(static_cast<uint64_t>(n - 1)))
                 : 0;
  };
  auto boundary = [&]() -> Timestamp {
    return options.step_micros *
           static_cast<Timestamp>(1 + rng.Uniform(steps - 1));
  };

  const MachineId v = victim();
  const Timestamp at = boundary();
  const int cycles = shape == CrashShape::kCrashDuringReplay ? 2 : 1;
  for (int c = 0; c < cycles; ++c) plan.CrashAt(at, v).RestartAt(at, v);

  // crash_during_checkpoint stacks a second pair on another boundary:
  // with the tiny checkpoint_every_records the caller sets for this
  // shape, more recoveries mean more chances to land mid-manifest-write.
  // The other shapes take a second victim half the time for variety.
  if (shape == CrashShape::kCrashDuringCheckpoint || rng.Chance(0.5)) {
    const MachineId v2 = victim();
    Timestamp at2 = boundary();
    if (at2 == at && v2 == v) {
      at2 = options.step_micros *
            static_cast<Timestamp>(1 + (at / options.step_micros) % (steps - 1));
    }
    const int cycles2 = shape == CrashShape::kCrashDuringReplay ? 2 : 1;
    for (int c = 0; c < cycles2; ++c) plan.CrashAt(at2, v2).RestartAt(at2, v2);
  }
  return plan;
}

}  // namespace chaos
}  // namespace muppet
