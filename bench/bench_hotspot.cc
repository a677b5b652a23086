// E8 (paper §5, Example 6): relieving a hotspot updater by key splitting —
// now performed *automatically* by the self-tuning load manager
// (engine/load_manager.h). The updater is declared associative/commutative
// with a count-summing merger; the engine's heat sketch detects the hot
// keys and splits them at runtime, no operator-graph surgery required.
//
// Workload: Zipf-skewed keys, skew sweep {0.8, 1.0, 1.2}, each run twice
// (load manager off / on). Each update performs a fixed-latency blocking
// call (modeling the external-service lookups real updaters make) while
// holding the owning slate stripe, so an unsplit hot key's events
// serialize behind one stripe and the split overlaps them across shards —
// the win is from overlapping waits, so it shows on any host, including
// single-core CI runners where a CPU-bound hot key could not speed up.
// Reports drain throughput, p99 queue wait, split count, and correctness
// (the re-aggregated count of every key must equal its true count);
// emits BENCH_hotspot.json, and exits 1 when any row is inexact.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "core/slate.h"
#include "engine/muppet2.h"
#include "json/json.h"
#include "workload/zipf_keys.h"

namespace muppet {
namespace bench {
namespace {

constexpr int kEvents = 60000;
constexpr int kNumKeys = 16;
// Blocking cost per update, microseconds. Must stay well under the
// overflow-throttle retry budget times the worker pop batch (32 events):
// a full queue must free a slot before the sender gives up and drops.
constexpr int kUpdateCostMicros = 50;

// Counting updater with a fixed blocking cost per event. Associative:
// partial counts merge by summing, so the load manager may split hot keys.
void BuildApp(AppConfig* config) {
  UpdaterOptions uo;
  uo.associativity = Associativity::kAssociativeCommutative;
  uo.merger = [](const Bytes* base, const Bytes& part) {
    JsonSlate b(base);
    JsonSlate p(&part);
    b.data()["count"] =
        b.data().GetInt("count", 0) + p.data().GetInt("count", 0);
    return b.Serialize();
  };
  CheckOk(config->DeclareInputStream("in"), "declare in");
  CheckOk(config->AddUpdater(
              "count",
              MakeUpdaterFactory([](PerformerUtilities& out, const Event& e,
                                    const Bytes* slate) {
                (void)e;
                std::this_thread::sleep_for(
                    std::chrono::microseconds(kUpdateCostMicros));
                JsonSlate s(slate);
                s.data()["count"] = s.data().GetInt("count") + 1;
                (void)out.ReplaceSlate(s.Serialize());
              }),
              {"in"}, uo),
          "add count");
}

struct RunResult {
  double events_per_sec = 0;
  int64_t queue_wait_p99_us = 0;
  int64_t splits = 0;
  bool exact = false;
  EngineStats stats;
};

RunResult Run(double skew, bool lm_enabled, Table& table, JsonReport& report) {
  AppConfig config;
  BuildApp(&config);

  EngineOptions options;
  options.num_machines = 4;
  options.threads_per_machine = 4;
  // Small queues on purpose: the source must be paced to the cluster's
  // drain rate (not allowed to enqueue the whole run up front), or every
  // hot event would already sit serialized in one queue before the load
  // manager can react.
  options.queue_capacity = 512;
  // Source pacing instead of drops: overflow would shed exactly the hot
  // traffic we are trying to measure.
  options.overflow.policy = OverflowPolicy::kThrottle;
  options.trace.sample_period = 0;
  options.load_manager.enabled = lm_enabled;
  if (lm_enabled) {
    // React within tens of milliseconds so the splits land early in the
    // run rather than after the measurement window.
    options.load_manager.tick_micros = 5 * kMicrosPerMilli;
    options.load_manager.heat.sample_period = 4;
    options.load_manager.min_samples = 32;
    // Split everything above 3% of traffic: at these skews that covers
    // the top 4-8 ranks, pushing the serialization bottleneck down to a
    // rank cold enough for a >=3x gain. Slow decay keeps the ranks'
    // heat steady between ticks.
    options.load_manager.split_heat_fraction = 0.03;
    options.load_manager.heat_decay = 0.9;
  }

  Muppet2Engine engine(config, options);
  CheckOk(engine.Start(), "start");

  workload::ZipfKeyGenerator keys(kNumKeys, skew, "k", 7);
  std::vector<int64_t> true_counts(kNumKeys, 0);
  Stopwatch timer;
  for (int i = 0; i < kEvents; ++i) {
    const Bytes key = keys.Next();
    ++true_counts[keys.last_rank()];
    CheckOk(engine.Publish("in", key, "", i + 1), "publish");
  }
  CheckOk(engine.Drain(), "drain");
  const int64_t elapsed = timer.ElapsedMicros();

  // Every key's re-aggregated count must equal its true count.
  bool exact = true;
  for (int rank = 0; rank < kNumKeys; ++rank) {
    int64_t live = 0;
    Result<Bytes> slate = engine.FetchSlate("count", keys.KeyAt(rank));
    if (slate.ok()) {
      JsonSlate s(&slate.value());
      live = s.data().GetInt("count");
    }
    if (live != true_counts[static_cast<size_t>(rank)]) exact = false;
  }

  RunResult r;
  r.events_per_sec =
      static_cast<double>(kEvents) * 1e6 / static_cast<double>(elapsed);
  r.queue_wait_p99_us =
      engine.metrics()->GetHistogram("muppet_queue_wait_us")->Percentile(0.99);
  r.splits = engine.key_splits();
  r.exact = exact;
  r.stats = engine.Stats();
  CheckOk(engine.Stop(), "stop");

  table.Row({Fmt(skew), lm_enabled ? "on" : "off", Eps(kEvents, elapsed),
             FmtInt(r.queue_wait_p99_us), FmtInt(r.splits),
             r.exact ? "yes" : "NO"});

  Json& row = report.AddRow();
  row["skew"] = skew;
  row["load_manager"] = lm_enabled;
  row["events"] = static_cast<int64_t>(kEvents);
  row["elapsed_us"] = elapsed;
  row["events_per_sec"] = r.events_per_sec;
  row["queue_wait_p99_us"] = r.queue_wait_p99_us;
  row["key_splits"] = r.splits;
  row["exact"] = r.exact;
  JsonReport::PutLatency(r.stats, &row);
  return r;
}

// Returns false when any row's counts were inexact.
bool Main() {
  Banner(
      "E8: self-tuning hot-key splitting (paper §5 Example 6, automated; "
      "Zipf skew sweep, load manager off vs on)");
  JsonReport report("hotspot");
  Table table({"skew", "lm", "events/s", "qwait_p99_us", "splits", "exact"});
  bool all_exact = true;
  double speedup_12 = 0;
  for (double skew : {0.8, 1.0, 1.2}) {
    const RunResult off = Run(skew, /*lm_enabled=*/false, table, report);
    const RunResult on = Run(skew, /*lm_enabled=*/true, table, report);
    all_exact = all_exact && off.exact && on.exact;
    const double speedup = off.events_per_sec > 0
                               ? on.events_per_sec / off.events_per_sec
                               : 0;
    if (skew == 1.2) speedup_12 = speedup;
    std::printf("  skew %.1f: load-manager speedup %.2fx\n", skew, speedup);
  }
  report.Write();
  std::printf(
      "\nPaper trend: under heavy skew one updater serializes the hot key; "
      "the load\nmanager detects it from the heat sketch, splits it across "
      "shards, and\nre-aggregates exactly (Example 6's trick, self-tuned). "
      "s=1.2 speedup: %.2fx%s\n",
      speedup_12, all_exact ? "" : "  [COUNT MISMATCH]");
  return all_exact;
}

}  // namespace
}  // namespace bench
}  // namespace muppet

int main() { return muppet::bench::Main() ? 0 : 1; }
