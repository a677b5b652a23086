#include "engine/watchdog.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "common/prom.h"

namespace muppet {
namespace {

// Consecutive bad ticks before a queue-stall incident opens. Conservative:
// a healthy engine under load dequeues constantly, so three high-occupancy
// zero-progress observations in a row mean wedged.
constexpr int kStallTicks = 3;
// Consecutive good ticks before an open incident clears (hysteresis in the
// other direction — one lucky dequeue does not end an incident).
constexpr int kClearTicks = 2;

}  // namespace

const char* IncidentKindName(IncidentKind kind) {
  switch (kind) {
    case IncidentKind::kQueueStall:
      return "queue-stall";
    case IncidentKind::kDrainStall:
      return "drain-stall";
    case IncidentKind::kChangelogStall:
      return "changelog-stall";
    case IncidentKind::kRecoveryStuck:
      return "recovery-stuck";
  }
  return "unknown";
}

IncidentLog::IncidentLog(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void IncidentLog::SetDumpHook(DumpHook hook) {
  MutexLock lock(mutex_);
  dump_hook_ = std::move(hook);
}

void IncidentLog::Open(const Incident& incident) {
  DumpHook hook;
  {
    MutexLock lock(mutex_);
    ring_.push_front(incident);
    while (ring_.size() > capacity_) ring_.pop_back();
    hook = dump_hook_;
  }
  opened_total_.Add();
  opened_by_kind_[static_cast<size_t>(incident.kind)].Add();
  // Outside the lock: the hook walks trace sinks and the metrics registry,
  // both above kIncidents in the hierarchy — and may take a while (file
  // writes), which must not block /statusz reads.
  if (hook) hook(incident);
}

void IncidentLog::Clear(int64_t id, Timestamp now) {
  MutexLock lock(mutex_);
  for (Incident& incident : ring_) {
    if (incident.id == id) {
      if (incident.cleared_us == 0) incident.cleared_us = now;
      return;
    }
  }
}

std::vector<Incident> IncidentLog::Incidents() const {
  MutexLock lock(mutex_);
  return {ring_.begin(), ring_.end()};
}

int IncidentLog::open_count() const {
  MutexLock lock(mutex_);
  int open = 0;
  for (const Incident& incident : ring_) {
    if (incident.open()) ++open;
  }
  return open;
}

Watchdog::Watchdog(WatchdogOptions options, IncidentLog* log)
    : options_(options), log_(log) {}

int Watchdog::Step(const EntityKey& key, bool bad, int open_after,
                   Timestamp now, IncidentKind kind, MachineId machine,
                   int queue_index, const std::string& detail_if_open) {
  EntityState& entity = state_[key];
  if (bad) {
    entity.bad++;
    entity.good = 0;
  } else {
    entity.good++;
    entity.bad = 0;
  }
  if (entity.open_id == 0 && entity.bad >= open_after) {
    Incident incident;
    incident.id = next_id_++;
    incident.kind = kind;
    incident.machine = machine;
    incident.queue_index = queue_index;
    incident.opened_us = now;
    incident.detail = detail_if_open;
    entity.open_id = incident.id;
    entity.bad = 0;
    log_->Open(incident);
    return 1;
  }
  if (entity.open_id != 0 && entity.good >= kClearTicks) {
    log_->Clear(entity.open_id, now);
    entity.open_id = 0;
    entity.good = 0;
  }
  return 0;
}

int Watchdog::Tick(const WatchdogSignals& signals) {
  int opened = 0;
  const Timestamp now = signals.now;

  // Crashed machines' queues are expected to sit frozen; skip them so a
  // chaos crash never masquerades as a stall.
  std::vector<MachineId> crashed;
  for (const WatchdogSignals::Machine& m : signals.machines) {
    if (m.crashed) crashed.push_back(m.machine);
  }
  auto is_crashed = [&crashed](MachineId m) {
    for (MachineId c : crashed) {
      if (c == m) return true;
    }
    return false;
  };

  for (const WatchdogSignals::Queue& q : signals.queues) {
    const EntityKey key{static_cast<int>(IncidentKind::kQueueStall),
                        q.machine, q.queue_index};
    EntityState& entity = state_[key];
    const bool observed_before = entity.last_pops >= 0;
    const bool progressed = !observed_before || q.pops != entity.last_pops;
    entity.last_pops = q.pops;
    // A queue is stalling when it is at least half full AND no event was
    // dequeued since the previous tick.
    constexpr double kStallOccupancy = 0.5;
    const bool occupied =
        q.capacity > 0 && static_cast<double>(q.depth) >=
                              kStallOccupancy * static_cast<double>(q.capacity);
    const bool bad = !is_crashed(q.machine) && occupied && !progressed;
    std::string detail;
    if (bad) {
      detail = "queue m" + std::to_string(q.machine) + "/q" +
               std::to_string(q.queue_index) + " depth " +
               std::to_string(q.depth) + "/" + std::to_string(q.capacity) +
               ", no dequeues for " + std::to_string(kStallTicks) +
               " ticks";
    }
    opened += Step(key, bad, kStallTicks, now, IncidentKind::kQueueStall,
                   q.machine, q.queue_index, detail);
  }

  {
    const EntityKey key{static_cast<int>(IncidentKind::kDrainStall),
                        kInvalidMachine, -1};
    EntityState& entity = state_[key];
    const bool observed_before = entity.last_inflight >= 0;
    const bool stuck = observed_before && signals.inflight > 0 &&
                       signals.inflight == entity.last_inflight;
    entity.last_inflight = signals.draining ? signals.inflight : -1;
    const bool bad = signals.draining && stuck;
    std::string detail;
    if (bad) {
      detail = "drain blocked, inflight stuck at " +
               std::to_string(signals.inflight);
    }
    opened += Step(key, bad, options_.drain_stall_ticks, now,
                   IncidentKind::kDrainStall, kInvalidMachine, -1, detail);
  }

  for (const WatchdogSignals::Machine& m : signals.machines) {
    {
      const EntityKey key{static_cast<int>(IncidentKind::kChangelogStall),
                          m.machine, -1};
      EntityState& entity = state_[key];
      const bool observed_before = entity.last_synced >= 0;
      const bool synced_stuck =
          observed_before &&
          static_cast<int64_t>(m.changelog_synced_lsn) == entity.last_synced;
      entity.last_synced = static_cast<int64_t>(m.changelog_synced_lsn);
      const bool behind = m.changelog_lsn > m.changelog_synced_lsn;
      const bool bad = !m.crashed && behind && synced_stuck;
      std::string detail;
      if (bad) {
        detail = "changelog m" + std::to_string(m.machine) + " synced_lsn " +
                 std::to_string(m.changelog_synced_lsn) + " < lsn " +
                 std::to_string(m.changelog_lsn) + ", no sync progress";
      }
      opened += Step(key, bad, options_.changelog_stall_ticks, now,
                     IncidentKind::kChangelogStall, m.machine, -1, detail);
    }
    {
      const EntityKey key{static_cast<int>(IncidentKind::kRecoveryStuck),
                          m.machine, -1};
      std::string detail;
      if (m.recovering) {
        detail = "machine m" + std::to_string(m.machine) +
                 " stuck between BeginRecovery and ClearFailure";
      }
      opened += Step(key, m.recovering, options_.recovery_stuck_ticks, now,
                     IncidentKind::kRecoveryStuck, m.machine, -1, detail);
    }
  }
  return opened;
}

Json IncidentToJson(const Incident& incident) {
  Json j = Json::MakeObject();
  j["id"] = incident.id;
  j["kind"] = IncidentKindName(incident.kind);
  j["machine"] = static_cast<int64_t>(incident.machine);
  if (incident.queue_index >= 0) {
    j["queue"] = static_cast<int64_t>(incident.queue_index);
  }
  j["opened_us"] = incident.opened_us;
  j["open"] = incident.open();
  if (!incident.open()) j["cleared_us"] = incident.cleared_us;
  j["detail"] = incident.detail;
  return j;
}

std::string HexId(uint64_t id) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, id);
  return std::string(buf);
}

Json CriticalPathToJson(const CriticalPath& path) {
  Json j = Json::MakeObject();
  j["trace_id"] = HexId(path.trace_id);
  if (!path.stream.empty()) j["stream"] = path.stream;
  j["total_us"] = path.total_us;
  j["publish_us"] = path.publish_us;
  j["queue_wait_us"] = path.queue_wait_us;
  j["exec_us"] = path.exec_us;
  j["slate_fetch_us"] = path.slate_fetch_us;
  j["net_hop_us"] = path.net_hop_us;
  j["unattributed_us"] = path.unattributed_us;
  j["spans"] = static_cast<int64_t>(path.spans);
  j["machines"] = static_cast<int64_t>(path.machines);
  return j;
}

Json SpanToJson(const Span& span) {
  Json j = Json::MakeObject();
  j["span_id"] = HexId(span.span_id);
  j["parent_span"] = HexId(span.parent_span);
  j["kind"] = SpanKindName(span.kind);
  j["machine"] = static_cast<int64_t>(span.machine);
  j["name"] = span.name;
  if (!span.note.empty()) j["note"] = span.note;
  j["start_us"] = span.start_us;
  j["duration_us"] = span.duration_us();
  return j;
}

Json TraceToJson(const TraceSink::TraceRecord& record) {
  Json j = Json::MakeObject();
  j["trace_id"] = HexId(record.trace_id);
  j["start_us"] = record.first_start_us;
  j["duration_us"] = record.duration_us();
  Json spans = Json::MakeArray();
  for (const Span& span : record.spans) spans.Append(SpanToJson(span));
  j["spans"] = std::move(spans);
  // Where the time went (DESIGN.md §14): the same per-kind reduction
  // /sloz applies to its worst traces, inline on every trace.
  j["critical_path"] = CriticalPathToJson(ComputeCriticalPath(record.spans));
  return j;
}

Json TraceSinkToJson(const TraceSink* sink, MachineId machine) {
  Json doc = Json::MakeObject();
  doc["machine"] = static_cast<int64_t>(machine);
  Json recent = Json::MakeArray();
  Json slowest = Json::MakeArray();
  if (sink != nullptr) {
    for (const auto& record : sink->Recent()) {
      recent.Append(TraceToJson(record));
    }
    for (const auto& record : sink->Slowest()) {
      slowest.Append(TraceToJson(record));
    }
    doc["spans_recorded"] = sink->spans_recorded();
    doc["spans_dropped"] = sink->spans_dropped();
    doc["traces_evicted"] = sink->traces_evicted();
  }
  doc["recent"] = std::move(recent);
  doc["slowest"] = std::move(slowest);
  return doc;
}

std::string DumpWatchdogArtifacts(const std::string& engine_name,
                                  const Incident& incident,
                                  const std::vector<TraceSink*>& sinks,
                                  MetricsRegistry* metrics) {
  const char* dir = std::getenv("MUPPET_CHAOS_ARTIFACT_DIR");
  if (dir == nullptr || *dir == '\0') return "";

  Json doc = Json::MakeObject();
  doc["engine"] = engine_name;
  doc["incident"] = IncidentToJson(incident);
  Json machines = Json::MakeArray();
  for (size_t m = 0; m < sinks.size(); ++m) {
    machines.Append(TraceSinkToJson(sinks[m], static_cast<MachineId>(m)));
  }
  doc["machines"] = std::move(machines);

  const std::string base = std::string(dir) + "/watchdog-" + engine_name +
                           "-incident-" + std::to_string(incident.id);
  const std::string json_path = base + ".json";
  std::ofstream(json_path) << doc.Dump() << "\n";
  if (metrics != nullptr) {
    std::ofstream(base + "-metrics.prom") << PrometheusText(*metrics);
  }
  return json_path;
}

}  // namespace muppet
