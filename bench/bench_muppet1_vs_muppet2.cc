// E6 (paper §4.5): Muppet 2.0 against Muppet 1.0. The paper lists four 1.0
// limitations; each maps to a measured column here:
//   1. duplicated operator code per worker   -> operator_instances
//   2. cross-process event/slate copies      -> throughput (1.0 serializes
//      every hop through the conductor<->task-processor protocol)
//   3. scattered per-worker slate caches     -> cache misses at a capacity
//      sized exactly to the working set (the paper's 100-vs-125 example)
//   4. workers-per-function vs threads       -> thread utilization
#include <cstdio>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "core/slate.h"
#include "core/slate_store.h"
#include "engine/muppet1.h"
#include "engine/muppet2.h"
#include "json/json.h"
#include "kvstore/cluster.h"
#include "workload/zipf_keys.h"

namespace muppet {
namespace bench {
namespace {

constexpr int kEvents = 30000;

void BuildCounting(AppConfig* config) {
  CheckOk(config->DeclareInputStream("in"), "declare");
  CheckOk(config->AddUpdater(
              "count",
              MakeUpdaterFactory([](PerformerUtilities& out, const Event&,
                                    const Bytes* slate) {
                JsonSlate s(slate);
                s.data()["count"] = s.data().GetInt("count") + 1;
                (void)out.ReplaceSlate(s.Serialize());
              }),
              {"in"}),
          "add updater");
}

struct RunResult {
  int64_t elapsed_us = 0;
  EngineStats stats;
};

// Throughput run with realistic payloads: Muppet 1.0 serializes each
// event+slate across its conductor/task-processor boundary, so the value
// size matters.
RunResult RunThroughput(bool muppet2, size_t value_bytes) {
  AppConfig config;
  BuildCounting(&config);
  EngineOptions options;
  options.num_machines = 2;
  options.workers_per_function = 8;  // 1.0: 4 workers/machine/function
  options.threads_per_machine = 4;   // 2.0: 4 threads/machine
  options.queue_capacity = 1 << 16;
  options.slate_cache_capacity = 1 << 16;
  std::unique_ptr<Engine> engine;
  if (muppet2) {
    engine = std::make_unique<Muppet2Engine>(config, options);
  } else {
    engine = std::make_unique<Muppet1Engine>(config, options);
  }
  CheckOk(engine->Start(), "start");

  workload::ZipfKeyGenerator key_gen(2000, 0.0, "k", 11);
  const Bytes value(value_bytes, 'v');
  Stopwatch timer;
  for (int i = 0; i < kEvents; ++i) {
    CheckOk(engine->Publish("in", key_gen.Next(), value, i + 1), "publish");
  }
  CheckOk(engine->Drain(), "drain");
  RunResult result;
  result.elapsed_us = timer.ElapsedMicros();
  result.stats = engine->Stats();
  CheckOk(engine->Stop(), "stop");
  return result;
}

// Working-set run (the §4.5 100-vs-125 example, scaled): one machine, a
// cache budget equal to the working set, cyclic access over the working
// set (the worst case for LRU and for CLOCK). Muppet 1.0 splits the
// budget across its 5 workers while keys hash unevenly among them; Muppet
// 2.0's central cache holds the set exactly. A slate store stands behind
// the caches, as in §4.2: without one a cache never evicts.
RunResult RunWorkingSet(bool muppet2) {
  ScratchDir dir;
  kv::KvClusterOptions kv_options;
  kv_options.num_nodes = 1;
  kv_options.replication_factor = 1;
  kv_options.node.data_dir = dir.path();
  kv::KvCluster cluster(kv_options);
  CheckOk(cluster.Open(), "kv open");
  SlateStore store(&cluster, SlateStoreOptions{});

  AppConfig config;
  BuildCounting(&config);
  EngineOptions options;
  options.num_machines = 1;
  options.workers_per_function = 5;  // the paper's 5 updaters
  options.threads_per_machine = 5;
  options.queue_capacity = 1 << 16;
  options.slate_cache_capacity = 100;  // == working set
  options.slate_store = &store;
  std::unique_ptr<Engine> engine;
  if (muppet2) {
    engine = std::make_unique<Muppet2Engine>(config, options);
  } else {
    engine = std::make_unique<Muppet1Engine>(config, options);
  }
  CheckOk(engine->Start(), "start");

  Stopwatch timer;
  for (int i = 0; i < kEvents; ++i) {
    // Cyclic sweep over the 100 popular slates.
    CheckOk(engine->Publish("in", "k" + std::to_string(i % 100), "", i + 1),
            "publish");
  }
  CheckOk(engine->Drain(), "drain");
  RunResult result;
  result.elapsed_us = timer.ElapsedMicros();
  result.stats = engine->Stats();
  CheckOk(engine->Stop(), "stop");
  return result;
}

void Main() {
  Banner("E6a: throughput vs event payload size (1.0 pays the IPC copy "
         "per hop)");
  {
    Table table({"engine", "payload_B", "events/s", "op_instances"});
    for (const size_t payload : {64u, 1024u, 8192u}) {
      for (bool muppet2 : {false, true}) {
        const RunResult r = RunThroughput(muppet2, payload);
        table.Row({muppet2 ? "Muppet2.0" : "Muppet1.0",
                   FmtInt(static_cast<int64_t>(payload)),
                   Eps(kEvents, r.elapsed_us),
                   FmtInt(r.stats.operator_instances)});
      }
    }
  }

  Banner("E6b: slate-cache working set (paper's 100-vs-125 slates example)");
  std::printf("Working set = 100 hot slates, cyclic access; per-machine "
              "budget = 100 slates.\nMuppet 1.0 splits the budget across "
              "its 5 workers (20 each) while the hash\nring gives some "
              "workers more than 20 keys — those thrash. 2.0's central\n"
              "cache holds the whole set.\n\n");
  {
    Table table({"engine", "cache_miss", "evictions", "hit_rate%"});
    for (bool muppet2 : {false, true}) {
      const RunResult r = RunWorkingSet(muppet2);
      const double hits = static_cast<double>(r.stats.slate_cache_hits);
      const double total =
          hits + static_cast<double>(r.stats.slate_cache_misses);
      table.Row({muppet2 ? "Muppet2.0" : "Muppet1.0",
                 FmtInt(r.stats.slate_cache_misses),
                 FmtInt(r.stats.slate_cache_evictions),
                 Fmt(total > 0 ? 100.0 * hits / total : 0.0, 2)});
    }
  }
  std::printf("\nPaper trend: 2.0 >= 1.0 throughput; 2.0 constructs one "
              "operator per machine\n(1.0: one per worker); 2.0's central "
              "cache suffers no imbalance evictions at\nexactly "
              "working-set capacity.\n");
}

}  // namespace
}  // namespace bench
}  // namespace muppet

int main() {
  muppet::bench::Main();
  return 0;
}
