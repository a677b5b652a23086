// E7 (paper §4.5): Muppet 2.0's two-choice dispatch. An incoming event goes
// to its primary queue, or its secondary when the primary is hot — bounding
// slate contention to two threads while relieving hotspots. This harness
// compares single-queue dispatch (enable_two_choice=false, the 1.0-style
// single ownership) against two-choice, across key skews.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "core/slate.h"
#include "engine/muppet2.h"
#include "json/json.h"
#include "workload/zipf_keys.h"

namespace muppet {
namespace bench {
namespace {

constexpr int kEvents = 20000;

void BuildApp(AppConfig* config) {
  CheckOk(config->DeclareInputStream("in"), "declare");
  CheckOk(config->AddUpdater(
              "count",
              MakeUpdaterFactory([](PerformerUtilities& out, const Event&,
                                    const Bytes* slate) {
                // A little work per event so queue depth matters.
                JsonSlate s(slate);
                s.data()["count"] = s.data().GetInt("count") + 1;
                (void)out.ReplaceSlate(s.Serialize());
              }),
              {"in"}),
          "add updater");
}

void Run(double skew, bool two_choice, uint64_t sample_period, Table& table,
         JsonReport& report) {
  AppConfig config;
  BuildApp(&config);
  EngineOptions options;
  options.num_machines = 1;
  options.threads_per_machine = 4;
  options.queue_capacity = 1 << 16;
  options.enable_two_choice = two_choice;
  options.trace.sample_period = sample_period;
  Muppet2Engine engine(config, options);
  CheckOk(engine.Start(), "start");

  workload::ZipfKeyGenerator keys(10000, skew, "k", 5);
  Stopwatch timer;
  for (int i = 0; i < kEvents; ++i) {
    CheckOk(engine.Publish("in", keys.Next(), "", i + 1), "publish");
  }
  CheckOk(engine.Drain(), "drain");
  const int64_t elapsed = timer.ElapsedMicros();
  const EngineStats stats = engine.Stats();
  table.Row({Fmt(skew, 1), two_choice ? "two-choice" : "single",
             FmtInt(static_cast<int64_t>(sample_period)),
             Eps(kEvents, elapsed), FmtInt(stats.latency_p99_us),
             FmtInt(engine.secondary_dispatches()),
             FmtInt(engine.slate_contentions()),
             FmtInt(stats.events_processed)});
  Json& row = report.AddRow();
  row["zipf_skew"] = skew;
  row["dispatch"] = two_choice ? "two-choice" : "single";
  row["trace_sample_period"] = static_cast<int64_t>(sample_period);
  row["events_per_sec"] =
      static_cast<double>(kEvents) * 1e6 / static_cast<double>(elapsed);
  row["secondary_dispatches"] = engine.secondary_dispatches();
  row["slate_contentions"] = engine.slate_contentions();
  JsonReport::PutLatency(stats, &row);
  CheckOk(engine.Stop(), "stop");
}

void Main() {
  JsonReport report("dispatch");
  Banner("E7: two-choice queue dispatch vs single ownership (paper §4.5)");
  Table table({"zipf_skew", "dispatch", "trace_period", "events/s",
               "p99_us", "secondary", "contentions", "processed"});
  constexpr uint64_t kDefaultPeriod = 1024;  // production sampling rate
  for (double skew : {0.0, 0.8, 1.2}) {
    Run(skew, /*two_choice=*/false, kDefaultPeriod, table, report);
    Run(skew, /*two_choice=*/true, kDefaultPeriod, table, report);
  }
  std::printf("\nPaper trend: under skew, two-choice diverts part of the "
              "hot key's load to a\nsecondary thread (secondary > 0) "
              "with contention bounded to two workers per\nslate; with "
              "uniform keys it behaves like single ownership.\n");

  Banner("tracing overhead: sample_period sweep at zipf 0.8, two-choice");
  Table overhead({"zipf_skew", "dispatch", "trace_period", "events/s",
                  "p99_us", "secondary", "contentions", "processed"});
  // period 0 = tracing off, 1024 = production sampling, 1 = trace all.
  // Expectation: 1/1024 sampling is within run-to-run noise of off.
  for (uint64_t period : {uint64_t{0}, uint64_t{1024}, uint64_t{1}}) {
    Run(/*skew=*/0.8, /*two_choice=*/true, period, overhead, report);
  }
  report.Write();
}

}  // namespace
}  // namespace bench
}  // namespace muppet

int main() {
  muppet::bench::Main();
  return 0;
}
