#include "service/admin_service.h"

#include "common/prom.h"
#include "common/slo.h"
#include "common/trace.h"
#include "common/version.h"
#include "engine/watchdog.h"

namespace muppet {
Json TracezDocument(Engine* engine, MachineId machine) {
  return TraceSinkToJson(engine->trace_sink(machine), machine);
}

Json StatuszDocument(Engine* engine, MachineId machine) {
  Json doc = Json::MakeObject();
  doc["serving_machine"] = static_cast<int64_t>(machine);
  doc["version"] = kMuppetVersion;
  doc["uptime_us"] = engine->UptimeMicros();
  doc["inflight"] = engine->InflightEvents();

  const EngineStats stats = engine->Stats();
  Json js = Json::MakeObject();
  js["published"] = stats.events_published;
  js["processed"] = stats.events_processed;
  js["emitted"] = stats.events_emitted;
  js["lost_failure"] = stats.events_lost_failure;
  js["dropped_overflow"] = stats.events_dropped_overflow;
  js["failures_detected"] = stats.failures_detected;
  doc["stats"] = std::move(js);

  // Durability panel (engine/slatelog.h; DESIGN.md §12). All-zero in
  // kLossy mode, but always present so dashboards need no feature probe.
  Json durability = Json::MakeObject();
  durability["slatelog_appends"] = stats.slatelog_appends;
  durability["slatelog_synced_records"] = stats.slatelog_synced_records;
  durability["slatelog_replays"] = stats.slatelog_replays;
  durability["slatelog_replayed_records"] = stats.slatelog_replayed_records;
  durability["slatelog_torn_tails"] = stats.slatelog_torn_tails;
  durability["slatelog_corrupt_segments"] = stats.slatelog_corrupt_segments;
  durability["checkpoints"] = stats.checkpoints;
  durability["events_deduped"] = stats.events_deduped;
  doc["durability"] = std::move(durability);

  // The master's failed-machine set (§4.3), the one view routing uses.
  Json failed = Json::MakeArray();
  for (MachineId f : engine->master().failed()) {
    failed.Append(static_cast<int64_t>(f));
  }
  doc["failed_machines"] = std::move(failed);

  Json machines = Json::MakeArray();
  for (const MachineStatus& ms : engine->MachineStatuses()) {
    Json jm = Json::MakeObject();
    jm["machine"] = static_cast<int64_t>(ms.machine);
    jm["crashed"] = ms.crashed;
    jm["recovering"] = ms.recovering;
    Json depths = Json::MakeArray();
    for (size_t d : ms.queue_depths) depths.Append(static_cast<int64_t>(d));
    jm["queue_depths"] = std::move(depths);
    jm["queue_capacity"] = static_cast<int64_t>(ms.queue_capacity);
    Json cache = Json::MakeObject();
    cache["slates"] = static_cast<int64_t>(ms.slate_cache_slates);
    cache["capacity"] = static_cast<int64_t>(ms.slate_cache_capacity);
    jm["slate_cache"] = std::move(cache);
    Json ring = Json::MakeObject();
    for (const auto& [function, points] : ms.ring_ownership) {
      ring[function] = static_cast<int64_t>(points);
    }
    jm["ring_ownership"] = std::move(ring);
    Json jd = Json::MakeObject();
    jd["consistency"] = ms.consistency;
    jd["slatelog_lsn"] = static_cast<int64_t>(ms.slatelog_lsn);
    jd["slatelog_synced_lsn"] = static_cast<int64_t>(ms.slatelog_synced_lsn);
    jd["slatelog_segments"] = static_cast<int64_t>(ms.slatelog_segments);
    jd["manifest_lsn"] = static_cast<int64_t>(ms.manifest_lsn);
    jd["replays"] = ms.replays;
    jd["dedup_entries"] = static_cast<int64_t>(ms.dedup_entries);
    jd["dedup_capacity"] = static_cast<int64_t>(ms.dedup_capacity);
    jm["durability"] = std::move(jd);
    machines.Append(std::move(jm));
  }
  doc["machines"] = std::move(machines);

  // Hot-key panel: the heat sketch's hottest (function, key) pairs with
  // their live split state. Empty array when heat tracking is off.
  Json hot = Json::MakeArray();
  for (const HotKeyInfo& hk : engine->HotKeys()) {
    Json jh = Json::MakeObject();
    jh["function"] = hk.function;
    jh["key"] = hk.key;
    jh["sampled_count"] = hk.sampled_count;
    jh["split"] = hk.split;
    if (hk.split) {
      jh["shards"] = static_cast<int64_t>(hk.shards);
      jh["split_epoch"] = static_cast<int64_t>(hk.split_epoch);
      jh["draining"] = hk.draining;
    }
    hot.Append(std::move(jh));
  }
  doc["hot_keys"] = std::move(hot);

  // Incident panel (engine/watchdog.h): the flight-recorder ring, newest
  // first. Always present so dashboards need no feature probe.
  Json incidents = Json::MakeArray();
  int64_t open_incidents = 0;
  if (const IncidentLog* log = engine->incidents(); log != nullptr) {
    for (const Incident& incident : log->Incidents()) {
      if (incident.open()) ++open_incidents;
      incidents.Append(IncidentToJson(incident));
    }
  }
  doc["incidents"] = std::move(incidents);
  doc["open_incidents"] = open_incidents;
  return doc;
}

Json HealthzDocument(Engine* engine, MachineId machine) {
  Json doc = Json::MakeObject();
  doc["serving_machine"] = static_cast<int64_t>(machine);
  // Liveness: the process answered, which is the whole liveness claim.
  doc["live"] = true;

  bool crashed = false;
  bool recovering = false;
  for (const MachineStatus& ms : engine->MachineStatuses()) {
    if (ms.machine != machine) continue;
    crashed = ms.crashed;
    recovering = ms.recovering;
    break;
  }

  // Open incidents scoped to this machine (or engine-wide, machine = -1).
  int64_t queue_stalls = 0;
  int64_t drain_stalls = 0;
  int64_t changelog_stalls = 0;
  if (const IncidentLog* log = engine->incidents(); log != nullptr) {
    for (const Incident& incident : log->Incidents()) {
      if (!incident.open()) continue;
      if (incident.machine != machine &&
          incident.machine != kInvalidMachine) {
        continue;
      }
      switch (incident.kind) {
        case IncidentKind::kQueueStall:
          ++queue_stalls;
          break;
        case IncidentKind::kDrainStall:
          ++drain_stalls;
          break;
        case IncidentKind::kChangelogStall:
          ++changelog_stalls;
          break;
        case IncidentKind::kRecoveryStuck:
          break;  // subsumed by the recovery check below
      }
    }
  }

  // Readiness: the machine is routable — not crashed, and not between
  // BeginRecovery and ClearFailure (Master holds new traffic off a
  // machine until its slates are restored; a probe must do the same).
  struct Check {
    const char* name;
    bool ok;
    std::string detail;
  };
  const Check checks[] = {
      {"machine", !crashed, crashed ? "machine crashed" : "up"},
      {"recovery", !recovering,
       recovering ? "recovering (BeginRecovery, not yet ClearFailure)"
                  : "not recovering"},
      {"queues", queue_stalls == 0,
       queue_stalls == 0 ? "no open queue-stall incidents"
                         : std::to_string(queue_stalls) +
                               " open queue-stall incident(s)"},
      {"drain", drain_stalls == 0,
       drain_stalls == 0
           ? "no open drain-stall incidents"
           : std::to_string(drain_stalls) + " open drain-stall incident(s)"},
      {"changelog", changelog_stalls == 0,
       changelog_stalls == 0 ? "no open changelog-stall incidents"
                             : std::to_string(changelog_stalls) +
                                   " open changelog-stall incident(s)"},
  };
  bool ready = true;
  Json jchecks = Json::MakeArray();
  for (const Check& check : checks) {
    ready = ready && check.ok;
    Json jc = Json::MakeObject();
    jc["name"] = check.name;
    jc["ok"] = check.ok;
    jc["detail"] = check.detail;
    jchecks.Append(std::move(jc));
  }
  doc["checks"] = std::move(jchecks);
  doc["ready"] = ready;
  return doc;
}

Json SlozDocument(Engine* engine, MachineId machine) {
  Json doc = Json::MakeObject();
  doc["serving_machine"] = static_cast<int64_t>(machine);
  Json streams = Json::MakeArray();
  SloTracker* slo = engine->slo();
  if (slo != nullptr) {
    doc["traces_observed"] = slo->traces_observed();
    doc["traces_unattributed"] = slo->traces_unattributed();
    for (const SloTracker::StreamSnapshot& snap : slo->Snapshot()) {
      Json js = Json::MakeObject();
      js["stream"] = snap.stream;
      js["events"] = snap.events;
      js["breaches"] = snap.breaches;
      js["mean_us"] = snap.mean_us;
      js["p50_us"] = snap.p50_us;
      js["p95_us"] = snap.p95_us;
      js["p99_us"] = snap.p99_us;
      js["p999_us"] = snap.p999_us;
      js["max_us"] = snap.max_us;
      if (snap.has_objective) {
        Json jo = Json::MakeObject();
        jo["target_p99_us"] = snap.objective.target_p99_us;
        jo["window_micros"] = snap.objective.window_micros;
        js["objective"] = std::move(jo);
        js["meeting_objective"] = snap.meeting_objective;
        Json burns = Json::MakeArray();
        for (const SloTracker::BurnSnapshot& burn : snap.burn) {
          Json jb = Json::MakeObject();
          jb["window_micros"] = burn.window_micros;
          jb["rate"] = burn.rate;
          jb["events"] = burn.events;
          jb["breaches"] = burn.breaches;
          burns.Append(std::move(jb));
        }
        js["burn"] = std::move(burns);
      }
      Json worst = Json::MakeArray();
      for (const CriticalPath& path : snap.worst) {
        worst.Append(CriticalPathToJson(path));
      }
      js["worst_critical_paths"] = std::move(worst);
      streams.Append(std::move(js));
    }
  }
  doc["streams"] = std::move(streams);
  return doc;
}

HttpResponse AdminService::Metrics() const {
  HttpResponse response;
  MetricsRegistry* registry = engine_->metrics();
  if (registry == nullptr) {
    response.status = 404;
    response.content_type = "text/plain";
    response.body = "no metrics registry\n";
    return response;
  }
  response.content_type = PrometheusContentType();
  response.body = PrometheusText(*registry);
  return response;
}

HttpResponse AdminService::Statusz() const {
  HttpResponse response;
  response.body = StatuszDocument(engine_, machine_).Dump();
  return response;
}

HttpResponse AdminService::Tracez() const {
  HttpResponse response;
  response.body = TracezDocument(engine_, machine_).Dump();
  return response;
}

HttpResponse AdminService::Healthz() const {
  HttpResponse response;
  Json doc = HealthzDocument(engine_, machine_);
  if (!doc.GetBool("ready")) response.status = 503;
  response.body = doc.Dump();
  return response;
}

HttpResponse AdminService::Sloz() const {
  // Pull just-completed traces out of the sinks first, so a scrape after
  // a drain reflects everything the engine processed.
  engine_->HarvestSlo();
  HttpResponse response;
  response.body = SlozDocument(engine_, machine_).Dump();
  return response;
}

void AdminService::AttachTo(HttpServer* server) {
  server->RegisterHandler(
      "/metrics", [this](const HttpRequest&) { return Metrics(); });
  server->RegisterHandler(
      "/statusz", [this](const HttpRequest&) { return Statusz(); });
  server->RegisterHandler("/tracez",
                          [this](const HttpRequest&) { return Tracez(); });
  server->RegisterHandler("/healthz",
                          [this](const HttpRequest&) { return Healthz(); });
  server->RegisterHandler("/sloz",
                          [this](const HttpRequest&) { return Sloz(); });
}

}  // namespace muppet
