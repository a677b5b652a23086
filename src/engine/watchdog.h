// Stall watchdog (DESIGN.md §14). The chaos harness can prove an invariant
// was violated, but a *wedged* cluster violates nothing — it just stops:
// a worker queue sits full with zero dequeues, a Drain() never finishes, a
// changelog sync makes no progress, a recovery never reaches
// `Master::ClearFailure`. The watchdog turns "it just stops" into a
// structured, countable, dumpable signal.
//
// Structure mirrors the load manager (engine/load_manager.h): a pure
// decision core (`Watchdog::Tick` — signals in, incident transitions out,
// no locks, no clock reads, trivially unit-testable) driven by one
// engine-owned thread that gathers `WatchdogSignals` each tick and applies
// the transitions to the `IncidentLog`. Detection uses hysteresis in both
// directions — N consecutive bad ticks to open, M consecutive good ticks
// to clear — so a transient burst neither opens nor flaps an incident.
//
// Every opened incident: (1) lands in the IncidentLog ring (the /statusz
// incident panel and /healthz read it), (2) bumps the per-kind counter
// family `muppet_watchdog_incidents_total`, and (3) fires the log's dump
// hook, which engines point at `DumpWatchdogArtifacts` — the same
// flight-recorder artifact path ($MUPPET_CHAOS_ARTIFACT_DIR) the chaos
// harness writes on invariant violations, so a wedge caught in CI leaves
// the same evidence a conservation failure does.
#ifndef MUPPET_ENGINE_WATCHDOG_H_
#define MUPPET_ENGINE_WATCHDOG_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/slo.h"
#include "common/sync.h"
#include "common/trace.h"
#include "json/json.h"
#include "net/transport.h"

namespace muppet {

// Incident taxonomy (DESIGN.md §14). Keep IncidentKindName in sync.
enum class IncidentKind : uint8_t {
  kQueueStall = 0,      // wedged worker queue
  kDrainStall = 1,      // Drain() waiter, inflight stuck nonzero
  kChangelogStall = 2,  // changelog appends not reaching durability
  kRecoveryStuck = 3,   // BeginRecovery never reached ClearFailure
};
inline constexpr int kNumIncidentKinds = 4;

const char* IncidentKindName(IncidentKind kind);

struct Incident {
  int64_t id = 0;
  IncidentKind kind = IncidentKind::kQueueStall;
  // Affected machine (-1 = engine-wide, e.g. a drain stall).
  MachineId machine = kInvalidMachine;
  // Affected queue index on the machine (-1 = n/a).
  int queue_index = -1;
  Timestamp opened_us = 0;
  // 0 while the condition persists.
  Timestamp cleared_us = 0;
  std::string detail;

  bool open() const { return cleared_us == 0; }
};

// Bounded ring of incidents, newest first, with per-kind open counters.
// Thread-safe: the watchdog thread writes, admin/test threads read.
class IncidentLog {
 public:
  // Invoked (outside the log lock, on the opening thread) once per opened
  // incident — engines install DumpWatchdogArtifacts here.
  using DumpHook = std::function<void(const Incident&)>;

  explicit IncidentLog(size_t capacity = 64);

  IncidentLog(const IncidentLog&) = delete;
  IncidentLog& operator=(const IncidentLog&) = delete;

  void SetDumpHook(DumpHook hook);

  void Open(const Incident& incident);
  // Stamp `cleared_us` on the incident with this id (no-op if evicted).
  void Clear(int64_t id, Timestamp now);

  // Newest first.
  std::vector<Incident> Incidents() const;

  int64_t opened_total() const { return opened_total_.Get(); }
  int64_t opened(IncidentKind kind) const {
    return opened_by_kind_[static_cast<size_t>(kind)].Get();
  }
  // Incidents currently open (still in the ring).
  int open_count() const;

  static constexpr LockLevel kLockLevel = LockLevel::kIncidents;

 private:
  const size_t capacity_;
  mutable Mutex mutex_{kLockLevel};
  std::deque<Incident> ring_ MUPPET_GUARDED_BY(mutex_);  // front = newest
  DumpHook dump_hook_ MUPPET_GUARDED_BY(mutex_);
  Counter opened_total_;
  Counter opened_by_kind_[kNumIncidentKinds];
};

// One tick's worth of observed engine state. Gathered by the engine from
// lock-free counters (queue sizes/pops, inflight, changelog lsns), so
// collection never blocks the data path.
struct WatchdogSignals {
  Timestamp now = 0;

  struct Queue {
    MachineId machine = kInvalidMachine;
    int queue_index = -1;
    size_t depth = 0;
    size_t capacity = 0;
    // Cumulative dequeues (EventQueue::pops) — progress detector.
    int64_t pops = 0;
  };
  std::vector<Queue> queues;

  struct Machine {
    MachineId machine = kInvalidMachine;
    bool crashed = false;
    // Between Master::BeginRecovery and ClearFailure.
    bool recovering = false;
    // Changelog cursor pair; both 0 in kLossy mode.
    uint64_t changelog_lsn = 0;
    uint64_t changelog_synced_lsn = 0;
  };
  std::vector<Machine> machines;

  // True while a Drain() caller is blocked.
  bool draining = false;
  int64_t inflight = 0;
};

// Pure decision core. NOT thread-safe: owned by the engine's watchdog
// thread (or a test driving Tick() directly); all shared effects go
// through the IncidentLog.
class Watchdog {
 public:
  explicit Watchdog(IncidentLog* log);

  // Tick cadence of the engine's watchdog thread (the pure core is
  // cadence-agnostic: tests drive Tick() directly).
  static constexpr Timestamp kTickMicros = 100 * kMicrosPerMilli;
  // Consecutive bad ticks before an incident opens, per kind. A queue
  // stall is a queue at least half full with no dequeue: a healthy engine
  // under load dequeues constantly, so three such ticks in a row mean
  // wedged.
  static constexpr int kQueueStallTicks = 3;
  // Ticks of a Drain() waiter seeing an unchanged nonzero inflight count.
  static constexpr int kDrainStallTicks = 5;
  // Ticks of changelog last_lsn > synced_lsn with synced_lsn unchanged.
  static constexpr int kChangelogStallTicks = 5;
  // Ticks a machine may sit between BeginRecovery and ClearFailure.
  // Replays are fast (tests complete in milliseconds); 50 ticks = 5s is
  // far beyond any healthy recovery.
  static constexpr int kRecoveryStuckTicks = 50;
  // Consecutive good ticks before an open incident clears (hysteresis in
  // the other direction: one lucky dequeue does not end an incident).
  static constexpr int kClearTicks = 2;

  // Evaluate one tick of signals; opens/clears incidents in the log.
  // Deterministic: a fixed signal sequence yields a fixed incident
  // sequence regardless of wall time. Returns incidents opened this tick.
  int Tick(const WatchdogSignals& signals);

 private:
  // Hysteresis state per monitored entity, keyed (kind, machine, queue).
  struct EntityState {
    int bad = 0;
    int good = 0;
    int64_t open_id = 0;  // 0 = no open incident
    // Previous progress cursors; -1 = not yet observed (first
    // observation only sets the baseline, it can never be "bad").
    int64_t last_pops = -1;
    int64_t last_inflight = -1;
    int64_t last_synced = -1;
  };
  using EntityKey = std::tuple<int, MachineId, int>;

  // Apply one entity's bad/good observation; opens/clears as thresholds
  // are crossed. Returns 1 if an incident opened.
  int Step(const EntityKey& key, bool bad, int open_after, Timestamp now,
           IncidentKind kind, MachineId machine, int queue_index,
           const std::string& detail_if_open);

  IncidentLog* const log_;
  std::map<EntityKey, EntityState> state_;
  int64_t next_id_ = 1;
};

// Flight-recorder dump for one incident: writes
//   watchdog-<engine>-incident-<id>.json   (incident + every sink's
//                                           TraceSinkToJson document)
//   watchdog-<engine>-incident-<id>-metrics.prom
// under $MUPPET_CHAOS_ARTIFACT_DIR — the chaos harness's artifact path —
// and returns the .json path. No-op (returns "") when the variable is
// unset. `metrics` may be null.
std::string DumpWatchdogArtifacts(const std::string& engine_name,
                                  const Incident& incident,
                                  const std::vector<TraceSink*>& sinks,
                                  MetricsRegistry* metrics);

// JSON form shared by the /statusz incident panel and the artifact dump.
Json IncidentToJson(const Incident& incident);

// The one trace renderer, shared by /tracez, /sloz, the chaos flight
// recorder and the artifact dump. Ids print as 16 hex digits.
std::string HexId(uint64_t id);
Json CriticalPathToJson(const CriticalPath& path);
Json SpanToJson(const Span& span);
// Every span plus the trace's critical path.
Json TraceToJson(const TraceSink::TraceRecord& record);
// One machine's /tracez document: its recent and slowest traces and the
// sink's counters (`sink` may be null: empty lists, no counters).
Json TraceSinkToJson(const TraceSink* sink, MachineId machine);

}  // namespace muppet

#endif  // MUPPET_ENGINE_WATCHDOG_H_
