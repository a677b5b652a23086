// E10 (paper §4.3 queue overflow + §5 source throttling): drive a slow
// updater at ~2x its service rate under each overflow policy and compare
// what the paper's three mechanisms trade away:
//   drop            -> loses events, keeps latency low
//   overflow stream -> keeps events, degraded processing for the excess
//   throttle        -> keeps events, slows the source (higher latency)
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "core/slate.h"
#include "engine/muppet2.h"
#include "json/json.h"

namespace muppet {
namespace bench {
namespace {

constexpr int kEvents = 2000;
constexpr Timestamp kWorkMicros = 200;  // slow path service time

void BuildApp(AppConfig* config) {
  CheckOk(config->DeclareInputStream("in"), "declare");
  CheckOk(config->DeclareStream("spill"), "declare spill");
  CheckOk(config->AddUpdater(
              "slow",
              MakeUpdaterFactory([](PerformerUtilities& out, const Event&,
                                    const Bytes* slate) {
                SystemClock::Default()->SleepFor(kWorkMicros);
                JsonSlate s(slate);
                s.data()["count"] = s.data().GetInt("count") + 1;
                (void)out.ReplaceSlate(s.Serialize());
              }),
              {"in"}),
          "add slow");
  // Degraded service: approximate (cheap) processing for redirected
  // events (paper: "substituting expensive operations ... with
  // approximate operations that are cheaper to execute").
  CheckOk(config->AddUpdater(
              "degraded",
              MakeUpdaterFactory([](PerformerUtilities& out, const Event&,
                                    const Bytes* slate) {
                JsonSlate s(slate);
                s.data()["count"] = s.data().GetInt("count") + 1;
                (void)out.ReplaceSlate(s.Serialize());
              }),
              {"spill"}),
          "add degraded");
}

int64_t SlateCount(Engine& engine, const std::string& updater,
                   const std::string& key) {
  Result<Bytes> slate = engine.FetchSlate(updater, key);
  if (!slate.ok()) return 0;
  JsonSlate s(&slate.value());
  return s.data().GetInt("count");
}

void Run(OverflowPolicy policy, const char* name, Table& table) {
  AppConfig config;
  BuildApp(&config);
  EngineOptions options;
  options.num_machines = 1;
  options.threads_per_machine = 8;
  options.queue_capacity = 16;
  options.overflow.policy = policy;
  options.overflow.overflow_stream = "spill";
  Muppet2Engine engine(config, options);
  CheckOk(engine.Start(), "start");

  Stopwatch timer;
  for (int i = 0; i < kEvents; ++i) {
    // Offered at ~2x service rate.
    CheckOk(engine.Publish("in", "hot", "", i + 1), "publish");
    SystemClock::Default()->SleepFor(kWorkMicros / 2);
  }
  const int64_t publish_elapsed = timer.ElapsedMicros();
  CheckOk(engine.Drain(), "drain");
  const EngineStats stats = engine.Stats();
  const int64_t full = SlateCount(engine, "slow", "hot");
  const int64_t degraded = SlateCount(engine, "degraded", "hot");
  table.Row({name, FmtInt(full), FmtInt(degraded),
             FmtInt(stats.events_dropped_overflow),
             Fmt(100.0 * static_cast<double>(stats.events_dropped_overflow) /
                     kEvents,
                 1),
             FmtInt(stats.latency_p99_us),
             Fmt(static_cast<double>(publish_elapsed) / 1e6, 2)});
  CheckOk(engine.Stop(), "stop");
}

void Main() {
  Banner("E10: overflow policies under ~2x overload (paper §4.3, §5)");
  Table table({"policy", "full_svc", "degraded", "dropped", "loss%",
               "p99_us", "source_s"});
  Run(OverflowPolicy::kDrop, "drop", table);
  Run(OverflowPolicy::kOverflowStream, "overflow-stream", table);
  Run(OverflowPolicy::kThrottle, "throttle", table);
  std::printf("\nPaper trend: drop sheds load (loss%% > 0, low latency); "
              "the overflow stream\npreserves events at degraded quality; "
              "throttling preserves events at full\nquality by stretching "
              "the source (source_s grows, loss%% ~ 0).\n");
}

}  // namespace
}  // namespace bench
}  // namespace muppet

int main() {
  muppet::bench::Main();
  return 0;
}
