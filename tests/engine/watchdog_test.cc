#include "engine/watchdog.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/sync.h"
#include "gtest/gtest.h"
#include "engine/muppet2.h"
#include "service/admin_service.h"
#include "tests/engine/engine_test_util.h"
#include "tests/test_util.h"

namespace muppet {
namespace {

using ::muppet::testing::BuildCountingApp;
using ::muppet::testing::TempDir;

// ---------------------------------------------------------------------------
// Pure decision core, driven deterministically: a fixed signal sequence
// yields a fixed incident sequence — no threads, no clock, no sleeps.
// ---------------------------------------------------------------------------

WatchdogOptions FastOptions() {
  WatchdogOptions options;
  options.drain_stall_ticks = 3;
  options.changelog_stall_ticks = 3;
  options.recovery_stuck_ticks = 5;
  return options;
}

// One machine, one queue at `depth`/`capacity` with cumulative `pops`.
WatchdogSignals QueueSignals(Timestamp now, size_t depth, size_t capacity,
                             int64_t pops, bool crashed = false) {
  WatchdogSignals signals;
  signals.now = now;
  WatchdogSignals::Queue q;
  q.machine = 0;
  q.queue_index = 0;
  q.depth = depth;
  q.capacity = capacity;
  q.pops = pops;
  signals.queues.push_back(q);
  WatchdogSignals::Machine m;
  m.machine = 0;
  m.crashed = crashed;
  signals.machines.push_back(m);
  return signals;
}

TEST(WatchdogTest, QueueStallOpensAfterHysteresis) {
  IncidentLog log;
  Watchdog watchdog(FastOptions(), &log);
  // Tick 1 only establishes the pops baseline — never bad.
  EXPECT_EQ(watchdog.Tick(QueueSignals(1, 8, 8, 100)), 0);
  // Three consecutive full-and-frozen observations open the incident.
  EXPECT_EQ(watchdog.Tick(QueueSignals(2, 8, 8, 100)), 0);
  EXPECT_EQ(watchdog.Tick(QueueSignals(3, 8, 8, 100)), 0);
  EXPECT_EQ(watchdog.Tick(QueueSignals(4, 8, 8, 100)), 1);
  ASSERT_EQ(log.Incidents().size(), 1u);
  const Incident incident = log.Incidents()[0];
  EXPECT_EQ(incident.kind, IncidentKind::kQueueStall);
  EXPECT_EQ(incident.machine, 0);
  EXPECT_EQ(incident.queue_index, 0);
  EXPECT_EQ(incident.opened_us, 4);
  EXPECT_TRUE(incident.open());
  EXPECT_EQ(log.opened(IncidentKind::kQueueStall), 1);
  EXPECT_EQ(log.open_count(), 1);
}

TEST(WatchdogTest, DequeueProgressResetsTheCounter) {
  IncidentLog log;
  Watchdog watchdog(FastOptions(), &log);
  watchdog.Tick(QueueSignals(1, 8, 8, 100));
  watchdog.Tick(QueueSignals(2, 8, 8, 100));
  watchdog.Tick(QueueSignals(3, 8, 8, 101));  // one pop: progress
  watchdog.Tick(QueueSignals(4, 8, 8, 101));
  watchdog.Tick(QueueSignals(5, 8, 8, 101));
  // Only two bad ticks since the reset — nothing opens.
  EXPECT_EQ(log.opened_total(), 0);
  EXPECT_EQ(watchdog.Tick(QueueSignals(6, 8, 8, 101)), 1);
}

TEST(WatchdogTest, LowOccupancyIsNeverAStall) {
  IncidentLog log;
  Watchdog watchdog(FastOptions(), &log);
  // Frozen pops but a near-empty queue: an idle engine, not a wedge.
  for (Timestamp t = 1; t <= 10; ++t) {
    EXPECT_EQ(watchdog.Tick(QueueSignals(t, 1, 8, 100)), 0);
  }
  EXPECT_EQ(log.opened_total(), 0);
}

TEST(WatchdogTest, CrashedMachineQueuesAreSkipped) {
  IncidentLog log;
  Watchdog watchdog(FastOptions(), &log);
  for (Timestamp t = 1; t <= 10; ++t) {
    watchdog.Tick(QueueSignals(t, 8, 8, 100, /*crashed=*/true));
  }
  EXPECT_EQ(log.opened_total(), 0) << "a chaos crash is not a stall";
}

TEST(WatchdogTest, IncidentClearsAfterGoodTicksWithHysteresis) {
  IncidentLog log;
  Watchdog watchdog(FastOptions(), &log);
  for (Timestamp t = 1; t <= 4; ++t) {
    watchdog.Tick(QueueSignals(t, 8, 8, 100));
  }
  ASSERT_EQ(log.open_count(), 1);
  // One good tick is not enough (two clear ticks)...
  watchdog.Tick(QueueSignals(5, 8, 8, 150));
  EXPECT_EQ(log.open_count(), 1);
  // ...the second clears, stamping cleared_us.
  watchdog.Tick(QueueSignals(6, 0, 8, 200));
  EXPECT_EQ(log.open_count(), 0);
  ASSERT_EQ(log.Incidents().size(), 1u);
  EXPECT_FALSE(log.Incidents()[0].open());
  EXPECT_EQ(log.Incidents()[0].cleared_us, 6);
}

TEST(WatchdogTest, DrainStallRequiresFrozenInflight) {
  IncidentLog log;
  Watchdog watchdog(FastOptions(), &log);
  auto drain_signals = [](Timestamp now, bool draining, int64_t inflight) {
    WatchdogSignals signals;
    signals.now = now;
    signals.draining = draining;
    signals.inflight = inflight;
    return signals;
  };
  // Draining with decreasing inflight: healthy, never opens.
  for (Timestamp t = 1; t <= 6; ++t) {
    watchdog.Tick(drain_signals(t, true, 100 - static_cast<int64_t>(t)));
  }
  EXPECT_EQ(log.opened_total(), 0);
  // Draining with inflight frozen at 7: opens after drain_stall_ticks.
  int opened = 0;
  for (Timestamp t = 10; t <= 20 && opened == 0; ++t) {
    opened = watchdog.Tick(drain_signals(t, true, 7));
  }
  EXPECT_EQ(opened, 1);
  EXPECT_EQ(log.opened(IncidentKind::kDrainStall), 1);
  EXPECT_EQ(log.Incidents()[0].machine, kInvalidMachine);
}

TEST(WatchdogTest, DrainBaselineResetsWhenNotDraining) {
  IncidentLog log;
  Watchdog watchdog(FastOptions(), &log);
  WatchdogSignals idle;
  idle.inflight = 7;
  idle.draining = false;
  // A stable inflight with no Drain() waiter is not a stall, however long
  // it persists (e.g. a paused workload with queued events).
  for (Timestamp t = 1; t <= 10; ++t) {
    idle.now = t;
    watchdog.Tick(idle);
  }
  EXPECT_EQ(log.opened_total(), 0);
}

TEST(WatchdogTest, ChangelogStallDetectsFrozenSyncCursor) {
  IncidentLog log;
  Watchdog watchdog(FastOptions(), &log);
  auto signals = [](Timestamp now, uint64_t lsn, uint64_t synced) {
    WatchdogSignals s;
    s.now = now;
    WatchdogSignals::Machine m;
    m.machine = 2;
    m.changelog_lsn = lsn;
    m.changelog_synced_lsn = synced;
    s.machines.push_back(m);
    return s;
  };
  // Synced cursor advancing: healthy.
  for (Timestamp t = 1; t <= 6; ++t) {
    watchdog.Tick(signals(t, 100 + static_cast<uint64_t>(t), 90 + t));
  }
  EXPECT_EQ(log.opened_total(), 0);
  // lsn ahead, synced frozen: opens.
  int opened = 0;
  for (Timestamp t = 10; t <= 20 && opened == 0; ++t) {
    opened = watchdog.Tick(signals(t, 200, 150));
  }
  EXPECT_EQ(opened, 1);
  EXPECT_EQ(log.opened(IncidentKind::kChangelogStall), 1);
  EXPECT_EQ(log.Incidents()[0].machine, 2);
}

TEST(WatchdogTest, RecoveryStuckOpensAfterBudget) {
  IncidentLog log;
  Watchdog watchdog(FastOptions(), &log);
  auto signals = [](Timestamp now, bool recovering) {
    WatchdogSignals s;
    s.now = now;
    WatchdogSignals::Machine m;
    m.machine = 1;
    m.recovering = recovering;
    s.machines.push_back(m);
    return s;
  };
  // recovery_stuck_ticks = 5 in FastOptions.
  for (Timestamp t = 1; t <= 4; ++t) {
    EXPECT_EQ(watchdog.Tick(signals(t, true)), 0);
  }
  EXPECT_EQ(watchdog.Tick(signals(5, true)), 1);
  EXPECT_EQ(log.opened(IncidentKind::kRecoveryStuck), 1);
  // ClearFailure ends the condition; the incident clears.
  watchdog.Tick(signals(6, false));
  watchdog.Tick(signals(7, false));
  EXPECT_EQ(log.open_count(), 0);
}

TEST(WatchdogTest, DeterministicAcrossRuns) {
  // The acceptance bar: identical signal sequences produce identical
  // incident sequences. Run the same script twice and compare.
  auto run = [] {
    IncidentLog log;
    Watchdog watchdog(FastOptions(), &log);
    for (Timestamp t = 1; t <= 30; ++t) {
      const int64_t pops = t < 10 ? 100 : 100 + static_cast<int64_t>(t) / 7;
      watchdog.Tick(QueueSignals(t, 8, 8, pops));
    }
    std::ostringstream os;
    for (const Incident& incident : log.Incidents()) {
      os << IncidentToJson(incident).Dump() << "\n";
    }
    return os.str();
  };
  const std::string first = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run());
}

// ---------------------------------------------------------------------------
// IncidentLog
// ---------------------------------------------------------------------------

TEST(IncidentLogTest, RingIsBoundedNewestFirst) {
  IncidentLog log(/*capacity=*/3);
  for (int64_t i = 1; i <= 5; ++i) {
    Incident incident;
    incident.id = i;
    incident.opened_us = i * 10;
    log.Open(incident);
  }
  const std::vector<Incident> incidents = log.Incidents();
  ASSERT_EQ(incidents.size(), 3u);
  EXPECT_EQ(incidents[0].id, 5);
  EXPECT_EQ(incidents[2].id, 3);
  EXPECT_EQ(log.opened_total(), 5);
}

TEST(IncidentLogTest, ClearOnEvictedIncidentIsANoop) {
  IncidentLog log(/*capacity=*/1);
  Incident a;
  a.id = 1;
  log.Open(a);
  Incident b;
  b.id = 2;
  log.Open(b);  // evicts 1
  log.Clear(1, 99);
  ASSERT_EQ(log.Incidents().size(), 1u);
  EXPECT_EQ(log.Incidents()[0].id, 2);
  EXPECT_TRUE(log.Incidents()[0].open());
}

TEST(IncidentLogTest, DumpHookRunsOutsideTheLogLock) {
  IncidentLog log;
  std::atomic<int> fired{0};
  log.SetDumpHook([&log, &fired](const Incident& incident) {
    // Reading the log from inside the hook must not self-deadlock —
    // the contract is that Open() invokes the hook lock-free.
    EXPECT_GE(log.Incidents().size(), 1u);
    EXPECT_EQ(incident.id, 7);
    fired.fetch_add(1);
  });
  Incident incident;
  incident.id = 7;
  log.Open(incident);
  EXPECT_EQ(fired.load(), 1);
}

TEST(WatchdogTest, DumpArtifactsWritesIncidentAndMetrics) {
  TempDir dir;
  ASSERT_EQ(setenv("MUPPET_CHAOS_ARTIFACT_DIR", dir.path().c_str(), 1), 0);
  TraceSink sink((TraceSink::Options()));
  Span span;
  span.trace_id = 1;
  span.span_id = 1;
  span.kind = SpanKind::kPublish;
  span.name = "in";
  span.start_us = 0;
  span.end_us = 50;
  sink.Record(span);
  MetricsRegistry registry;
  registry.GetCounter("muppet_events_published_total")->Add(5);

  Incident incident;
  incident.id = 3;
  incident.kind = IncidentKind::kQueueStall;
  incident.machine = 0;
  incident.queue_index = 1;
  incident.detail = "test wedge";
  const std::string path =
      DumpWatchdogArtifacts("muppet2", incident, {&sink, nullptr}, &registry);
  unsetenv("MUPPET_CHAOS_ARTIFACT_DIR");

  ASSERT_FALSE(path.empty());
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto parsed = Json::Parse(buffer.str());
  ASSERT_OK(parsed.status());
  const Json& doc = parsed.value();
  EXPECT_EQ(doc["incident"]["id"].AsInt(), 3);
  EXPECT_EQ(doc["incident"]["kind"].AsString(), "queue-stall");
  EXPECT_EQ(doc["machines"].size(), 2u);
  // Each machine entry is the /tracez document: counters, slowest traces
  // and a critical path on every trace.
  const JsonArray& machines = doc["machines"].AsArray();
  ASSERT_EQ(machines.size(), 2u);
  const Json& m0 = machines[0];
  EXPECT_EQ(m0["machine"].AsInt(), 0);
  EXPECT_TRUE(m0["slowest"].is_array());
  EXPECT_EQ(m0["spans_recorded"].AsInt(), 1);
  ASSERT_EQ(m0["recent"].size(), 1u);
  const Json& trace = m0["recent"].AsArray()[0];
  EXPECT_EQ(trace["critical_path"]["total_us"].AsInt(), 50);
  EXPECT_EQ(trace["spans"].AsArray()[0]["parent_span"].AsString(),
            "0000000000000000");
  EXPECT_TRUE(machines[1]["recent"].is_array());
  EXPECT_TRUE(
      std::filesystem::exists(dir.path() + "/watchdog-muppet2-incident-3-metrics.prom"));
}

TEST(WatchdogTest, DumpArtifactsNoopWithoutArtifactDir) {
  unsetenv("MUPPET_CHAOS_ARTIFACT_DIR");
  Incident incident;
  incident.id = 1;
  EXPECT_EQ(DumpWatchdogArtifacts("muppet2", incident, {}, nullptr), "");
}

// ---------------------------------------------------------------------------
// Integration: a deliberately wedged queue in a real engine must open an
// incident, bump the counter family, surface on /statusz and /healthz,
// and leave a flight-recorder artifact. Bounded polling only — the test
// waits on conditions, never on fixed sleeps.
// ---------------------------------------------------------------------------

template <typename Pred>
bool WaitFor(Pred pred, int timeout_ms = 15000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

TEST(WatchdogIntegrationTest, WedgedQueueOpensIncidentAndDumpsArtifacts) {
  TempDir artifacts;
  ASSERT_EQ(
      setenv("MUPPET_CHAOS_ARTIFACT_DIR", artifacts.path().c_str(), 1), 0);

  // An updater that blocks until released: the worker thread wedges mid
  // event, the queue behind it fills and freezes.
  Mutex gate_mutex{LockLevel::kUnordered};
  CondVar gate_cv;
  bool released = false;
  std::atomic<bool> blocked{false};

  AppConfig config;
  ASSERT_OK(config.DeclareInputStream("in"));
  ASSERT_OK(config.AddUpdater(
      "stuck",
      MakeUpdaterFactory([&](PerformerUtilities&, const Event&,
                             const Bytes*) {
        blocked.store(true);
        MutexLock lock(gate_mutex);
        while (!released) gate_cv.Wait(gate_mutex);
      }),
      {"in"}));

  EngineOptions options;
  options.threads_per_machine = 1;
  options.queue_capacity = 8;
  options.watchdog.tick_micros = 2 * kMicrosPerMilli;
  Muppet2Engine engine(config, options);
  ASSERT_OK(engine.Start());

  // Safety net: release the wedge on every exit path (including failed
  // ASSERTs) so the engine destructor can never hang on the stuck worker.
  // Declared after the engine so it runs first during unwind.
  struct GateRelease {
    Mutex& mu;
    CondVar& cv;
    bool& released;
    ~GateRelease() {
      {
        MutexLock lock(mu);
        released = true;
      }
      cv.NotifyAll();
    }
  } gate_release{gate_mutex, gate_cv, released};

  // First event wedges the worker. Only then fill the queue: the worker
  // batch-pops up to kWorkerPopBatch events into a private buffer before
  // executing, so events published *before* the wedge may all be drained
  // out of the queue in one batch — leaving depth 0 and nothing for the
  // occupancy detector to see. Events published *after* the worker is
  // wedged are guaranteed to sit in the queue (the overflow policy may
  // drop some — irrelevant, the queue stays full).
  (void)engine.Publish("in", "k", "", 1);
  ASSERT_TRUE(WaitFor([&] { return blocked.load(); }));
  const int refill = static_cast<int>(2 * options.queue_capacity);
  for (int i = 0; i < refill; ++i) {
    (void)engine.Publish("in", "k", "", i + 2);
  }

  const IncidentLog* log = engine.incidents();
  ASSERT_NE(log, nullptr);
  ASSERT_TRUE(WaitFor([&] {
    return log->opened(IncidentKind::kQueueStall) > 0;
  })) << "watchdog never flagged the wedged queue";

  // Counter family.
  bool found_counter = false;
  for (const auto& sample : engine.metrics()->Snapshot()) {
    if (sample.name == "muppet_watchdog_incidents_total") {
      for (const auto& [k, v] : sample.labels) {
        if (k == "kind" && v == "queue-stall") {
          found_counter = sample.value > 0;
        }
      }
    }
  }
  EXPECT_TRUE(found_counter);

  // /statusz incident panel.
  const Json statusz = StatuszDocument(&engine, 0);
  ASSERT_GE(statusz["incidents"].size(), 1u);
  bool panel_has_stall = false;
  for (const Json& entry : statusz["incidents"].AsArray()) {
    if (entry.GetString("kind") == "queue-stall") panel_has_stall = true;
  }
  EXPECT_TRUE(panel_has_stall);
  EXPECT_GE(statusz.GetInt("open_incidents"), 1);

  // /healthz: the queues check fails while the stall is open.
  const Json healthz = HealthzDocument(&engine, 0);
  EXPECT_FALSE(healthz.GetBool("ready"));

  // Flight-recorder artifact on the chaos path.
  bool artifact_found = false;
  for (const auto& entry :
       std::filesystem::directory_iterator(artifacts.path())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("watchdog-muppet2-incident-", 0) == 0 &&
        name.find(".json") != std::string::npos) {
      artifact_found = true;
    }
  }
  EXPECT_TRUE(artifact_found);

  // Release the wedge; the engine drains and the incident clears.
  {
    MutexLock lock(gate_mutex);
    released = true;
  }
  gate_cv.NotifyAll();
  ASSERT_TRUE(WaitFor([&] { return log->open_count() == 0; }))
      << "incident never cleared after the wedge was released";
  ASSERT_OK(engine.Drain());
  ASSERT_OK(engine.Stop());
  unsetenv("MUPPET_CHAOS_ARTIFACT_DIR");
}

}  // namespace
}  // namespace muppet
