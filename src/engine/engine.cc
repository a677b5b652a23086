#include "engine/engine.h"

#include <chrono>
#include <deque>

#include "common/hash.h"
#include "common/logging.h"
#include "common/version.h"

namespace muppet {

namespace {
// Throttle policy (§4.3, §5): a declined send waits this long before it
// is retried, at most this many times per event.
constexpr Timestamp kThrottleRetryMicros = 200;
constexpr int kMaxThrottleRetries = 50;
// Background flusher cadence for SlateFlushPolicy::kInterval updaters.
constexpr Timestamp kFlushPollMicros = 10 * kMicrosPerMilli;
}  // namespace

Status BuildEmittedEvent(const AppConfig& config, const Event& input,
                         const std::string& stream, BytesView key,
                         BytesView value, Timestamp ts, Event* out) {
  if (!config.HasStream(stream)) {
    return Status::InvalidArgument("publish: undeclared stream '" + stream +
                                   "'");
  }
  if (config.IsInputStream(stream)) {
    return Status::InvalidArgument(
        "publish: operators may not emit into input stream '" + stream + "'");
  }
  if (ts <= input.ts) {
    return Status::InvalidArgument(
        "publish: output timestamp must exceed input timestamp");
  }
  out->stream = stream;
  out->ts = ts;
  out->key.assign(key);
  out->value.assign(value);
  out->origin_ts = input.origin_ts;
  return Status::OK();
}

Engine::Engine(const AppConfig& config, EngineOptions options,
               const char* engine_name)
    : config_(config),
      options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : SystemClock::Default()),
      throttle_(options.throttle, clock_),
      published_(metrics_.GetCounter("muppet_events_published_total")),
      processed_(metrics_.GetCounter("muppet_events_processed_total")),
      emitted_(metrics_.GetCounter("muppet_events_emitted_total")),
      lost_failure_(metrics_.GetCounter("muppet_events_lost_failure_total")),
      dropped_overflow_(
          metrics_.GetCounter("muppet_events_dropped_overflow_total")),
      redirected_overflow_(
          metrics_.GetCounter("muppet_events_redirected_overflow_total")),
      deadlocks_avoided_(
          metrics_.GetCounter("muppet_deadlocks_avoided_total")),
      store_reads_(metrics_.GetCounter("muppet_slate_store_reads_total")),
      store_writes_(metrics_.GetCounter("muppet_slate_store_writes_total")),
      operator_instances_(
          metrics_.GetCounter("muppet_operator_instances_total")),
      slatelog_appends_(
          metrics_.GetCounter("muppet_slatelog_appends_total")),
      slatelog_errors_(metrics_.GetCounter("muppet_slatelog_errors_total")),
      slatelog_replays_(
          metrics_.GetCounter("muppet_slatelog_replays_total")),
      slatelog_replayed_(
          metrics_.GetCounter("muppet_slatelog_replayed_records_total")),
      slatelog_torn_tails_(
          metrics_.GetCounter("muppet_slatelog_torn_tails_total")),
      slatelog_corrupt_segments_(metrics_.GetCounter(
          "muppet_slatelog_corrupt_segments_total")),
      checkpoints_(metrics_.GetCounter("muppet_checkpoints_total")),
      deduped_(metrics_.GetCounter("muppet_events_deduped_total")),
      latency_(metrics_.GetHistogram("muppet_e2e_latency_us")),
      engine_name_(engine_name),
      pace_source_(options.overflow.policy == OverflowPolicy::kThrottle ||
                   options.load_manager.enabled) {
  if (options_.transport_backend != nullptr) {
    // External backend (muppetd's TcpTransport): not owned, carries its
    // own loss accounting, started by the caller after Start().
    transport_ = options_.transport_backend;
  } else {
    TransportOptions t;
    t.faults = options_.faults;
    // Settle fault-injection deliveries that bypass the synchronous
    // send path: late losses debit the in-flight count, duplicate
    // copies pre-charge it, so Drain() stays balanced under chaos.
    t.on_async_loss = [this](int64_t n) {
      lost_failure_->Add(n);
      DecInflight(n);
    };
    t.on_extra_delivery = [this](int64_t n) {
      inflight_.fetch_add(n, std::memory_order_acq_rel);
    };
    owned_transport_ = std::make_unique<InMemoryTransport>(std::move(t));
    transport_ = owned_transport_.get();
  }
}

uint64_t Engine::CombineWork(uint64_t function_hash, uint64_t key_hash) {
  uint64_t h = HashCombine(function_hash, key_hash);
  if (h == 0) h = 1;  // 0 means "idle"
  return h;
}

Status Engine::Start() {
  if (started_) return Status::FailedPrecondition("engine already started");
  MUPPET_RETURN_IF_ERROR(config_.Validate());
  if (options_.num_machines < 1) {
    return Status::InvalidArgument("engine: bad cluster shape");
  }
  // Hosted subset (multi-process deployment): this process builds worker
  // state only for the listed ids; the ring still spans all num_machines,
  // every process deriving the same ring from the shared cluster config.
  std::vector<bool> hosted(static_cast<size_t>(options_.num_machines),
                           options_.hosted_machines.empty());
  if (!options_.hosted_machines.empty()) {
    for (const MachineId id : options_.hosted_machines) {
      if (id < 0 || id >= options_.num_machines) {
        return Status::InvalidArgument(
            "engine: hosted machine " + std::to_string(id) +
            " outside [0, num_machines)");
      }
      hosted[static_cast<size_t>(id)] = true;
    }
  }
  publish_machine_ = kInvalidMachine;
  for (int m = 0; m < options_.num_machines; ++m) {
    if (hosted[static_cast<size_t>(m)]) {
      publish_machine_ = m;
      break;
    }
  }
  if (publish_machine_ == kInvalidMachine) {
    return Status::InvalidArgument("engine: hosts no machines");
  }
  if (options_.overflow.policy == OverflowPolicy::kOverflowStream &&
      !config_.HasStream(options_.overflow.overflow_stream)) {
    return Status::InvalidArgument("engine: overflow stream is not declared");
  }
  if (durable() && options_.durability.dir.empty()) {
    return Status::InvalidArgument(
        "engine: durability requires a changelog directory "
        "(EngineOptions::durability.dir)");
  }
  // The operator table, fixed before any engine table or machine is
  // built: operators intern first, so an operator's id is also its span
  // label id; then every stream, with its subscribers' ids.
  for (const auto& [name, spec] : config_.operators()) {
    names_.Intern(name);
    ops_.push_back(OpInfo{&spec, Fnv1a64(name),
                          metrics_.GetCounter("muppet_operator_processed_total",
                                              {{"operator", name}})});
  }
  const std::vector<std::string> streams = config_.AllStreams();
  for (const std::string& sid : streams) names_.Intern(sid);
  subscribers_.resize(names_.size());
  for (const std::string& sid : streams) {
    for (const std::string& sub : config_.SubscribersOf(sid)) {
      subscribers_[TraceNameId(sid)].push_back(TraceNameId(sub));
    }
  }
  MUPPET_RETURN_IF_ERROR(PrepareEngine());

  for (const std::string& sid : config_.InputStreams()) {
    stream_published_[sid] = metrics_.GetCounter(
        "muppet_stream_published_total", {{"stream", sid}});
  }

  for (int m = 0; m < options_.num_machines; ++m) {
    if (!hosted[static_cast<size_t>(m)]) {
      machines_.push_back(nullptr);
      continue;
    }
    std::unique_ptr<MachineBase> machine;
    MUPPET_RETURN_IF_ERROR(BuildMachine(m, &machine));
    machine->id = m;
    TraceSink* sink = nullptr;
    if (options_.trace.sample_period != 0) {
      TraceSink::Options trace_options;
      trace_options.recent_capacity = options_.trace.recent_traces;
      machine->trace_sink = std::make_unique<TraceSink>(trace_options);
      sink = machine->trace_sink.get();
    }
    auto label = [&](std::string_view name) -> SpanLabel {
      return sink != nullptr ? sink->Label(m, name) : 0;
    };
    for (uint32_t i = 0; i < names_.size(); ++i) {
      machine->trace_labels.push_back(label(names_.NameOf(i)));
    }
    for (int to = 0; to < options_.num_machines; ++to) {
      machine->hop_labels.push_back(label("->m" + std::to_string(to)));
    }
    if (durable()) {
      SlateChangelog::Options log_options;
      // Exactly-once pays for its guarantee: every record is durable
      // before the update is acknowledged.
      log_options.sync_every_records =
          exactly_once() ? 1 : options_.durability.sync_every_records;
      machine->changelog = std::make_unique<SlateChangelog>(
          options_.durability.dir, static_cast<uint64_t>(m), log_options);
      MUPPET_RETURN_IF_ERROR(machine->changelog->Open());
      if (exactly_once()) {
        machine->dedup =
            std::make_unique<DedupTable>(DedupTable::kMachineCapacity);
      }
    }
    machines_.push_back(std::move(machine));
  }
  RegisterCallbackMetrics();

  // Cold-start replay: a changelog directory left by a previous engine
  // (warm process restart) restores every machine's slates before any
  // worker thread runs, so a stop/start cycle in a durable mode loses
  // nothing past the last sync.
  if (durable()) {
    for (auto& machine : machines_) {
      if (machine == nullptr) continue;
      MUPPET_RETURN_IF_ERROR(ReplayChangelog(machine.get()));
    }
  }

  // Health & SLO plane (DESIGN.md §14): the tracker shares the engine
  // registry so /sloz and /metrics read the same cells; incidents dump
  // flight-recorder artifacts on the chaos artifact path.
  slo_ = std::make_unique<SloTracker>(options_.slo, &metrics_, clock_);
  incident_log_.SetDumpHook([this](const Incident& incident) {
    std::vector<TraceSink*> sinks;
    for (const auto& m : machines_) {
      if (m != nullptr) sinks.push_back(m->trace_sink.get());
    }
    (void)DumpWatchdogArtifacts(engine_name_, incident, sinks, &metrics_);
  });

  for (auto& machine : machines_) {
    if (machine == nullptr) continue;
    MachineBase* m = machine.get();
    SpawnLanes(m);
    m->flusher = std::thread([this, m] { FlusherLoop(m); });
  }
  watchdog_ = std::make_unique<Watchdog>(&incident_log_);
  control_threads_.emplace_back([this] { WatchdogLoop(); });

  started_at_.store(clock_->Now(), std::memory_order_release);
  started_ = true;
  return Status::OK();
}

void Engine::SpawnLanes(MachineBase* machine) {
  for (size_t i = 0; i < machine->lanes.size(); ++i) {
    machine->lanes[i].thread =
        std::thread([this, machine, i] { RunLane(machine, i); });
  }
}

void Engine::TapStream(const std::string& stream,
                       std::function<void(const Event&)> tap) {
  WriterMutexLock lock(taps_mutex_);
  taps_[stream].push_back(std::move(tap));
  has_taps_.store(true, std::memory_order_release);
}

const std::set<MachineId>& Engine::RouteFailedSet(
    std::set<MachineId>* storage) const {
  static const std::set<MachineId> kNoFailed;
  if (!master_.AnyFailed()) return kNoFailed;
  *storage = master_.failed();
  return *storage;
}

std::set<MachineId> Engine::FailedOrCrashed() const {
  std::set<MachineId> failed = master_.failed();
  for (const auto& m : machines_) {
    if (m != nullptr && m->crashed.load()) failed.insert(m->id);
  }
  return failed;
}

Status Engine::Publish(const std::string& stream, BytesView key, BytesView value,
                       Timestamp ts) {
  if (!started_ || stopped_) {
    return Status::FailedPrecondition("engine not running");
  }
  if (!config_.IsInputStream(stream)) {
    return Status::InvalidArgument("'" + stream +
                                   "' is not a declared input stream");
  }
  if (pace_source_) {
    // Source throttling (§5): safe because nothing emits into input
    // streams, so slowing here cannot deadlock the workflow.
    throttle_.PaceSource();
  }
  Event event;
  event.stream = stream;
  event.ts = ts;
  event.key.assign(key);
  event.value.assign(value);
  event.seq = NextSeq();
  event.origin_ts = clock_->Now();
  published_->Add();
  auto sp = stream_published_.find(stream);
  if (sp != stream_published_.end()) sp->second->Add();

  // Deterministic sampling: the decision is a pure function of the key,
  // so a chaos replay of the same workload traces the same events.
  if (TraceSampled(Fnv1a64(event.key), options_.trace.sample_period)) {
    event.trace.trace_id = MakeTraceId(Fnv1a64(event.key), event.seq);
    TraceSink* sink = SinkFor(publish_machine_);
    if (sink != nullptr) {
      // Root span: the external publish itself (the lowest machine this
      // process hosts accepts all external events published here).
      event.trace.parent_span = sink->Record(
          event.trace, SpanKind::kPublish,
          Machine(publish_machine_)->trace_labels[TraceNameId(stream)],
          event.origin_ts, clock_->Now());
    }
  }
  DeliverPublished(std::move(event));
  return Status::OK();
}

void Engine::SettleLane(const MachineBase* machine, size_t lane,
                        const Status& s) {
  if (!s.ok()) {
    MUPPET_LOG(kError) << "lane " << lane << "@" << machine->id << ": "
                       << s.ToString() << "; event lost";
    lost_failure_->Add();
  }
  DecInflight(1);
}

Status Engine::FetchThroughCache(SlateCache* cache, const std::string& updater,
                                 BytesView key, Bytes* slate,
                                 SpanNote* source) {
  const SlateId id{updater, Bytes(key)};
  bool absent = false;
  Status s = cache->LookupWithAbsent(id, slate, &absent);
  if (s.ok()) {
    if (source != nullptr) {
      *source = absent ? SpanNote::kAbsentCached : SpanNote::kHit;
    }
    if (absent) return Status::NotFound("slate absent (cached)");
    return Status::OK();
  }
  // A live read (FetchSlate) takes no slate lock, so an update, a delete
  // or another fetch of the slate may reach the cache between this store
  // read and the insert. The cache keeps the entry that got there first,
  // and the fetch returns what the cache holds.
  if (options_.slate_store != nullptr) {
    store_reads_->Add();
    Result<Bytes> fetched = options_.slate_store->Read(id);
    if (fetched.ok()) {
      if (source != nullptr) *source = SpanNote::kStore;
      return cache->Insert(id, fetched.value(), slate);
    }
    if (!fetched.status().IsNotFound()) return fetched.status();
  }
  if (source != nullptr) *source = SpanNote::kStoreAbsent;
  return cache->InsertAbsent(id, slate);
}

Result<Bytes> Engine::FetchSlate(const std::string& updater, BytesView key) {
  if (!started_) return Status::FailedPrecondition("engine not started");
  const int32_t op = OpId(updater);
  if (op < 0 ||
      ops_[static_cast<size_t>(op)].spec->kind != OperatorKind::kUpdater) {
    return Status::NotFound("no such updater: " + updater);
  }
  Bytes slate;
  MUPPET_RETURN_IF_ERROR(ReadLiveSlate(static_cast<uint32_t>(op), key,
                                       FailedOrCrashed(), &slate));
  return slate;
}

SlateCache::WriteBack Engine::StoreWriteBack() {
  // Without a store the caches hold the only copy of every slate, so they
  // get no writer and never evict (slate_cache.h).
  if (options_.slate_store == nullptr) return nullptr;
  return [this](const SlateCache::DirtySlate& dirty) -> Status {
    store_writes_->Add();
    if (dirty.deleted) return options_.slate_store->Delete(dirty.id);
    Timestamp ttl = 0;
    const OperatorSpec* spec = config_.FindOperator(dirty.id.updater);
    if (spec != nullptr) ttl = spec->updater_options.slate_ttl_micros;
    return options_.slate_store->Write(dirty.id, dirty.value, ttl);
  };
}

bool Engine::WaitTick(Timestamp micros) {
  if (dynamic_cast<SystemClock*>(clock_) == nullptr) {
    clock_->SleepFor(micros);
  } else {
    const auto stopped = [this] {
      return shutdown_.load(std::memory_order_acquire);
    };
    MutexLock lock(drain_mutex_);
    stop_cv_.WaitFor(drain_mutex_, std::chrono::microseconds(micros), stopped);
  }
  return !shutdown_.load(std::memory_order_acquire);
}

void Engine::FlusherLoop(MachineBase* machine) {
  while (WaitTick(kFlushPollMicros)) {
    if (machine->crashed.load()) return;
    const Timestamp now = clock_->Now();
    for (const auto& [name, spec] : config_.operators()) {
      if (spec.kind != OperatorKind::kUpdater ||
          spec.updater_options.flush_policy != SlateFlushPolicy::kInterval) {
        continue;
      }
      for (SlateCache* cache : machine->caches) {
        (void)cache->FlushDirtyFor(
            name, now - spec.updater_options.flush_interval_micros);
      }
    }
    if (machine->changelog != nullptr) MaybeCheckpoint(machine);
  }
}

void Engine::AppendSlateLog(MachineBase* machine, SlateLogKind kind,
                            const RoutedEvent& re, BytesView slate_key,
                            BytesView value) {
  if (machine->changelog == nullptr) return;
  SlateLogRecord rec;
  rec.kind = static_cast<uint8_t>(kind);
  rec.updater = ops_[static_cast<size_t>(re.function_id)].spec->name;
  rec.key.assign(slate_key);
  rec.value.assign(value);
  rec.ts = re.event.ts;
  rec.seq = re.event.seq;
  rec.work = re.work;
  rec.dedup = re.dedup;
  Result<uint64_t> lsn = machine->changelog->Append(std::move(rec));
  if (!lsn.ok()) {
    NoteSlateLogError(machine, "append", lsn.status());
    return;
  }
  slatelog_appends_->Add();
  machine->appends_since_checkpoint.fetch_add(1, std::memory_order_acq_rel);
}

void Engine::NoteSlateLogError(const MachineBase* machine, const char* op,
                               const Status& s) {
  MUPPET_LOG(kError) << "slatelog: " << op << " failed on machine "
                     << machine->id << ": " << s.ToString();
  slatelog_errors_->Add();
}

Status Engine::WriteSlate(MachineBase* machine, SlateCache* cache,
                          const RoutedEvent& re, BytesView slate_key,
                          SlateLogKind kind, BytesView value) {
  const OperatorSpec& spec = *ops_[static_cast<size_t>(re.function_id)].spec;
  const SlateId id{spec.name, Bytes(slate_key)};
  MUPPET_RETURN_IF_ERROR(
      kind == SlateLogKind::kDelete
          ? cache->Delete(id)
          : cache->Update(id, value, clock_->Now(),
                          spec.updater_options.flush_policy ==
                              SlateFlushPolicy::kWriteThrough));
  AppendSlateLog(machine, kind, re, slate_key, value);
  return Status::OK();
}

Status Engine::FetchForExec(MachineBase* machine, SlateCache* cache,
                            const RoutedEvent& re, BytesView slate_key,
                            uint64_t exec_span, Bytes* slate, bool* found) {
  const size_t op = static_cast<size_t>(re.function_id);
  ScopedSpan fetch;
  fetch.Begin(machine->trace_sink.get(), clock_,
              TraceContext{re.event.trace.trace_id, exec_span},
              SpanKind::kSlateFetch, machine->trace_labels[op]);
  SpanNote source = SpanNote::kNone;
  Status s = FetchThroughCache(cache, ops_[op].spec->name, slate_key, slate,
                               &source);
  fetch.set_note(source);
  *found = s.ok();
  return s.IsNotFound() ? Status::OK() : s;
}

void Engine::FinishExec(MachineBase* machine, const RoutedEvent& re,
                        BytesView slate_key, bool wrote_slate,
                        ScopedSpan* exec) {
  if (re.dedup != 0 && !wrote_slate) {
    AppendSlateLog(machine, SlateLogKind::kMark, re, slate_key, BytesView());
  }
  exec->End();
  const OpInfo& op = ops_[static_cast<size_t>(re.function_id)];
  op.processed->Add();
  processed_->Add();
  if (re.event.origin_ts > 0) {
    latency_->Record(clock_->Now() - re.event.origin_ts);
  }
}

void Engine::MaybeCheckpoint(MachineBase* machine) {
  // Sync the buffered tail on every flusher pass, so the at-least-once
  // loss window is bounded by sync_every_records even when the workload
  // pauses mid-cadence.
  Status s = machine->changelog->Sync();
  if (!s.ok()) {
    NoteSlateLogError(machine, "sync", s);
    return;
  }

  const uint64_t every = options_.durability.checkpoint_every_records;
  if (every == 0 || options_.slate_store == nullptr) return;
  if (machine->appends_since_checkpoint.load(std::memory_order_acquire) <
      every) {
    return;
  }

  // Everything appended up to `cut` is captured by the dirty flush below;
  // records appended during the flush are simply re-replayed next time
  // (absolute values — replay is idempotent), so the cut is conservative,
  // never wrong.
  const uint64_t cut = machine->changelog->last_lsn();
  machine->appends_since_checkpoint.store(0, std::memory_order_release);
  for (SlateCache* cache : machine->caches) {
    Result<int> flushed = cache->FlushDirty(INT64_MAX);
    if (!flushed.ok()) {
      MUPPET_LOG(kError) << "slatelog: checkpoint flush failed on machine "
                         << machine->id << ": "
                         << flushed.status().ToString();
      return;
    }
  }

  // Close the pre-cut history into its own file so it can be dropped
  // wholesale once the manifest is durable. A failed rotation writes no
  // manifest: the cut may not be in a closed segment.
  s = machine->changelog->RotateSegment();
  if (!s.ok()) {
    NoteSlateLogError(machine, "rotate", s);
    return;
  }

  CheckpointManifest manifest;
  manifest.machine = static_cast<uint64_t>(machine->id);
  manifest.lsn = cut;
  manifest.segment = machine->changelog->active_segment();
  manifest.ts = clock_->Now();
  s = SlateChangelog::WriteManifestFile(options_.durability.dir, manifest);
  if (!s.ok()) {
    MUPPET_LOG(kError) << "slatelog: manifest write failed on machine "
                       << machine->id << ": " << s.ToString();
    return;
  }
  machine->manifest_lsn.store(cut, std::memory_order_release);

  (void)machine->changelog->DropSegmentsCoveredBy(cut);
  checkpoints_->Add();
}

Status Engine::ReplayChangelog(MachineBase* machine) {
  if (machine->changelog == nullptr) return Status::OK();
  CheckpointManifest manifest;
  MUPPET_RETURN_IF_ERROR(SlateChangelog::ReadManifestFile(
      options_.durability.dir, static_cast<uint64_t>(machine->id),
      &manifest));
  machine->manifest_lsn.store(manifest.lsn, std::memory_order_release);

  // Slates at or below the manifest live in the kvstore and fault in
  // through the ordinary miss path; replay applies only the suffix.
  // Updates re-enter their owning cache dirty (not written through) so
  // the next flush persists them — replayed state must survive a later
  // eviction.
  const Timestamp now = clock_->Now();
  // Exactly-once: how many of the most recent changelog identities are
  // seeded back into the dedup table (the epoch cut).
  constexpr size_t kReplaySeedWindow = 4096;
  std::deque<uint64_t> identities;
  SlateLogReplayStats replay_stats;
  Status s = SlateChangelog::Replay(
      options_.durability.dir, static_cast<uint64_t>(machine->id),
      manifest.lsn,
      [&](const SlateLogRecord& rec) {
        if (rec.dedup != 0 && machine->dedup != nullptr) {
          identities.push_back(rec.dedup);
          if (identities.size() > kReplaySeedWindow) identities.pop_front();
        }
        // Only updates and deletes restore state; a mark carries an
        // identity alone.
        const SlateLogKind kind = static_cast<SlateLogKind>(rec.kind);
        if (kind != SlateLogKind::kUpdate && kind != SlateLogKind::kDelete) {
          return;
        }
        SlateCache* cache = ReplayCache(machine, rec.updater, rec.key);
        if (cache == nullptr) return;
        if (kind == SlateLogKind::kUpdate) {
          (void)cache->Update(SlateId{rec.updater, rec.key}, rec.value, now,
                              /*write_through=*/false);
        } else {
          (void)cache->Delete(SlateId{rec.updater, rec.key});
        }
      },
      &replay_stats);
  if (!s.ok()) return s;

  // Epoch cut: the most recent identities re-arm the dedup table so a
  // redelivered pre-crash batch is suppressed, not re-applied.
  if (machine->dedup != nullptr) {
    for (const uint64_t id : identities) machine->dedup->Seed(id);
  }

  slatelog_replays_->Add();
  slatelog_replayed_->Add(static_cast<int64_t>(replay_stats.records));
  if (replay_stats.truncated_tail) slatelog_torn_tails_->Add();
  if (replay_stats.corrupt_segments > 0) {
    slatelog_corrupt_segments_->Add(
        static_cast<int64_t>(replay_stats.corrupt_segments));
  }
  machine->replays.fetch_add(1, std::memory_order_acq_rel);
  MUPPET_LOG(kInfo) << "slatelog: machine " << machine->id << " replayed "
                    << replay_stats.records << " records ("
                    << replay_stats.skipped << " below manifest lsn "
                    << manifest.lsn << ", torn_tail="
                    << (replay_stats.truncated_tail ? "yes" : "no")
                    << ", corrupt_segments=" << replay_stats.corrupt_segments
                    << ")";
  return Status::OK();
}

void Engine::DecInflight(int64_t n) {
  if (n <= 0) return;
  if (inflight_.fetch_sub(n, std::memory_order_acq_rel) <= n) {
    // Reached (or crossed) zero: wake Drain(). `<=` rather than `==` so
    // that a batched decrement that skips past zero still notifies —
    // with `==` only the decrement landing exactly on zero wakes the
    // drainer, and Drain() would hang forever if counts ever crossed.
    // Taking the mutex orders the notify against a drainer that just
    // checked the predicate and is about to block.
    MutexLock lock(drain_mutex_);
    drain_cv_.NotifyAll();
  }
}

bool Engine::SettleFailedSend(MachineId to, const Status& s, int64_t n) {
  if (s.IsResourceExhausted()) return false;
  // Failure detected on send (§4.3): report it to the master, whose failed
  // set every sender routes on; the events themselves are lost, not
  // re-dispatched.
  if (s.IsUnavailable()) master_.ReportFailure(to);
  lost_failure_->Add(n);
  return true;
}

Engine::DeclineAction Engine::OnDecline(const Event& event, bool self_emit,
                                        int* attempts) {
  switch (options_.overflow.policy) {
    case OverflowPolicy::kDrop:
      break;
    case OverflowPolicy::kOverflowStream:
      // The degraded path being full too drops the event.
      if (event.stream == options_.overflow.overflow_stream) break;
      redirected_overflow_->Add();
      return DeclineAction::kReroute;
    case OverflowPolicy::kThrottle:
      throttle_.NoteOverflow();
      if (self_emit) {
        deadlocks_avoided_->Add();
        break;
      }
      if (++*attempts > kMaxThrottleRetries) break;
      clock_->SleepFor(kThrottleRetryMicros);
      return DeclineAction::kRetry;
  }
  dropped_overflow_->Add();
  return DeclineAction::kSettled;
}

Status Engine::Drain() {
  if (!started_) return Status::FailedPrecondition("engine not started");
  drain_waiters_.fetch_add(1, std::memory_order_acq_rel);
  {
    MutexLock lock(drain_mutex_);
    while (inflight_.load(std::memory_order_acquire) > 0) {
      drain_cv_.Wait(drain_mutex_);
    }
  }
  drain_waiters_.fetch_sub(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status Engine::Stop() {
  if (!started_ || stopped_) return Status::OK();
  stopped_ = true;

  // Let in-flight work finish, flush slates, then tear down.
  (void)Drain();
  // Final SLO harvest: the engine is drained, so every sampled trace is
  // complete and can be observed before the sinks are torn down.
  HarvestSlo();
  {
    MutexLock lock(drain_mutex_);
    shutdown_.store(true, std::memory_order_release);
  }
  stop_cv_.NotifyAll();
  for (std::thread& t : control_threads_) {
    if (t.joinable()) t.join();
  }
  for (auto& machine : machines_) {
    if (machine == nullptr) continue;
    if (machine->flusher.joinable()) machine->flusher.join();
  }
  for (auto& machine : machines_) {
    if (machine == nullptr) continue;
    if (!machine->crashed.load()) {
      for (SlateCache* cache : machine->caches) {
        (void)cache->FlushDirty(INT64_MAX);
      }
      // Graceful shutdown syncs the changelog tail: a stop/start cycle in
      // a durable mode is lossless (only crashes lose the unsynced tail).
      if (machine->changelog != nullptr) (void)machine->changelog->Close();
    }
    for (MachineBase::Lane& lane : machine->lanes) lane.queue->Stop();
  }
  for (auto& machine : machines_) {
    if (machine == nullptr) continue;
    for (MachineBase::Lane& lane : machine->lanes) {
      if (lane.thread.joinable()) lane.thread.join();
    }
    transport_->UnregisterMachine(machine->id);
  }
  return Status::OK();
}

Status Engine::CrashMachine(MachineId machine_id) {
  if (!started_) return Status::FailedPrecondition("engine not started");
  MachineBase* machine = Machine(machine_id);
  if (machine == nullptr) {
    return Status::InvalidArgument("no such machine hosted here");
  }
  if (machine->crashed.exchange(true)) return Status::OK();

  transport_->Crash(machine_id);
  // Queued events are lost with the machine (§4.3).
  int64_t lost_total = 0;
  for (MachineBase::Lane& lane : machine->lanes) {
    lost_total += static_cast<int64_t>(lane.queue->Clear());
    lane.queue->Stop();
  }
  lost_failure_->Add(lost_total);
  DecInflight(lost_total);
  for (MachineBase::Lane& lane : machine->lanes) {
    if (lane.thread.joinable()) lane.thread.join();
  }
  // The slate caches die with the machine: unflushed updates lost.
  for (SlateCache* cache : machine->caches) cache->Clear();
  // Crash model for the durability plane: buffered-but-unsynced changelog
  // appends are lost with the machine's memory (the durable prefix stays
  // on disk for replay); the dedup table is volatile and rebuilt from the
  // changelog at recovery.
  if (machine->changelog != nullptr) machine->changelog->CrashClose();
  if (machine->dedup != nullptr) machine->dedup->Clear();
  return Status::OK();
}

Status Engine::RestartMachine(MachineId machine_id) {
  if (!started_) return Status::FailedPrecondition("engine not started");
  MachineBase* machine = Machine(machine_id);
  if (machine == nullptr) {
    return Status::InvalidArgument("no such machine hosted here");
  }
  if (!machine->crashed.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("machine not crashed");
  }

  // Recovery ordering (Master::ClearFailure doc): the machine must stay
  // unroutable — failed on every peer, absent from the ring's live view —
  // until its slates are restored. BeginRecovery marks the intermediate
  // state (no-op if no sender ever noticed the crash, in which case no
  // peer routed away from it either).
  (void)master_.BeginRecovery(machine_id);

  // FlusherLoop exits once it observes crashed; the lane threads were
  // joined by CrashMachine. Join the flusher before respawning either.
  if (machine->flusher.joinable()) machine->flusher.join();

  // Restore the durable state BEFORE any traffic can reach the machine:
  // reopen the changelog (continuing the lsn sequence past the durable
  // prefix), then replay the suffix past the manifest into the caches and
  // re-seed the dedup table. Only after that do the queues re-arm, the
  // transport endpoint come back, and the failure clear.
  if (machine->changelog != nullptr) {
    MUPPET_RETURN_IF_ERROR(machine->changelog->Open());
    MUPPET_RETURN_IF_ERROR(ReplayChangelog(machine));
  }

  for (MachineBase::Lane& lane : machine->lanes) lane.queue->Restart();
  machine->crashed.store(false, std::memory_order_release);
  SpawnLanes(machine);
  machine->flusher = std::thread([this, machine] { FlusherLoop(machine); });
  transport_->Restore(machine_id);
  master_.ClearFailure(machine_id);
  return Status::OK();
}

EngineStats Engine::Stats() const {
  EngineStats stats;
  stats.events_published = published_->Get();
  stats.events_processed = processed_->Get();
  stats.events_emitted = emitted_->Get();
  stats.events_lost_failure = lost_failure_->Get();
  stats.events_dropped_overflow = dropped_overflow_->Get();
  stats.events_redirected_overflow = redirected_overflow_->Get();
  stats.throttle_signals = throttle_.overflow_signals();
  stats.deadlocks_avoided = deadlocks_avoided_->Get();
  for (const auto& machine : machines_) {
    if (machine == nullptr) continue;
    for (const SlateCache* cache : machine->caches) {
      stats.slate_cache_hits += cache->hits();
      stats.slate_cache_misses += cache->misses();
      stats.slate_cache_evictions += cache->evictions();
    }
    // synced_lsn counts durable records exactly (lsns are dense and
    // survive restarts), so the sum across machines is the synced-record
    // total.
    if (machine->changelog != nullptr) {
      stats.slatelog_synced_records +=
          static_cast<int64_t>(machine->changelog->synced_lsn());
    }
  }
  stats.slate_store_reads = store_reads_->Get();
  stats.slate_store_writes = store_writes_->Get();
  stats.failures_detected = master_.failures_reported();
  stats.slatelog_appends = slatelog_appends_->Get();
  stats.slatelog_replays = slatelog_replays_->Get();
  stats.slatelog_replayed_records = slatelog_replayed_->Get();
  stats.slatelog_torn_tails = slatelog_torn_tails_->Get();
  stats.slatelog_corrupt_segments = slatelog_corrupt_segments_->Get();
  stats.checkpoints = checkpoints_->Get();
  stats.events_deduped = deduped_->Get();
  stats.transport_messages_sent = transport_->messages_sent();
  stats.latency_p50_us = latency_->Percentile(0.50);
  stats.latency_p95_us = latency_->Percentile(0.95);
  stats.latency_p99_us = latency_->Percentile(0.99);
  stats.latency_p999_us = latency_->Percentile(0.999);
  stats.latency_mean_us = latency_->Mean();
  stats.operator_instances = operator_instances_->Get();
  return stats;
}

std::vector<MachineStatus> Engine::MachineStatuses() const {
  std::vector<MachineStatus> out;
  if (!started_) return out;
  for (const auto& machine : machines_) {
    if (machine == nullptr) continue;
    MachineStatus ms;
    ms.machine = machine->id;
    ms.crashed = machine->crashed.load(std::memory_order_acquire);
    ms.recovering = master_.IsRecovering(machine->id);
    for (const MachineBase::Lane& lane : machine->lanes) {
      ms.queue_depths.push_back(lane.queue->size());
    }
    ms.queue_capacity = options_.queue_capacity;
    // Machine-level aggregate over 1.0's per-worker cache partitions.
    for (const SlateCache* cache : machine->caches) {
      ms.slate_cache_slates += cache->size();
      ms.slate_cache_capacity += cache->capacity();
    }
    for (const std::string& function : ring_.Functions()) {
      auto counts = ring_.OwnershipCounts(function);
      auto it = counts.find(machine->id);
      if (it != counts.end()) ms.ring_ownership[function] = it->second;
    }
    ms.consistency = ConsistencyName(options_.durability.consistency);
    if (machine->changelog != nullptr) {
      ms.slatelog_lsn = machine->changelog->last_lsn();
      ms.slatelog_synced_lsn = machine->changelog->synced_lsn();
      ms.slatelog_segments = machine->changelog->segment_count();
      ms.manifest_lsn =
          machine->manifest_lsn.load(std::memory_order_acquire);
      ms.replays = machine->replays.load(std::memory_order_acquire);
    }
    if (machine->dedup != nullptr) {
      ms.dedup_entries = machine->dedup->size();
      ms.dedup_capacity = machine->dedup->capacity();
    }
    out.push_back(std::move(ms));
  }
  return out;
}

void Engine::HarvestSlo() {
  if (slo_ == nullptr) return;
  std::vector<TraceSink*> sinks;
  sinks.reserve(machines_.size());
  for (const auto& machine : machines_) {
    if (machine != nullptr) sinks.push_back(machine->trace_sink.get());
  }
  slo_->Harvest(sinks, clock_->Now(),
                inflight_.load(std::memory_order_acquire) == 0);
}

Timestamp Engine::UptimeMicros() const {
  const Timestamp started = started_at_.load(std::memory_order_acquire);
  if (started == 0 && !started_.load(std::memory_order_acquire)) return 0;
  return clock_->Now() - started;
}

WatchdogSignals Engine::GatherWatchdogSignals() const {
  WatchdogSignals signals;
  signals.now = clock_->Now();
  for (const auto& machine : machines_) {
    if (machine == nullptr) continue;
    WatchdogSignals::Machine m;
    m.machine = machine->id;
    m.crashed = machine->crashed.load(std::memory_order_acquire);
    m.recovering = master_.IsRecovering(machine->id);
    if (machine->changelog != nullptr) {
      m.changelog_lsn = machine->changelog->last_lsn();
      m.changelog_synced_lsn = machine->changelog->synced_lsn();
    }
    signals.machines.push_back(std::move(m));
    // Queues are indexed by lane position so incident details are stable.
    for (size_t i = 0; i < machine->lanes.size(); ++i) {
      const EventQueue* queue = machine->lanes[i].queue;
      WatchdogSignals::Queue q;
      q.machine = machine->id;
      q.queue_index = static_cast<int32_t>(i);
      q.depth = queue->size();
      q.capacity = queue->capacity();
      q.pops = queue->pops();
      signals.queues.push_back(q);
    }
  }
  signals.draining = drain_waiters_.load(std::memory_order_acquire) > 0;
  signals.inflight = inflight_.load(std::memory_order_acquire);
  return signals;
}

void Engine::WatchdogLoop() {
  while (WaitTick(Watchdog::kTickMicros)) {
    watchdog_->Tick(GatherWatchdogSignals());
    // Opportunistic SLO harvest on the same cadence, so burn windows
    // advance and settle without requiring a /sloz scrape.
    HarvestSlo();
  }
}

void Engine::RegisterCallbackMetrics() {
  // Scrape hygiene: a constant-1 gauge whose labels carry the build and
  // config identity, plus engine uptime — what muppet-doctor keys off to
  // tell apart machines running different builds or knobs.
  metrics_.RegisterCallback(
      "muppet_build_info",
      {{"version", kMuppetVersion},
       {"engine", engine_name_},
       {"consistency", ConsistencyName(options_.durability.consistency)}},
      MetricType::kGauge, [] { return 1; });
  metrics_.RegisterCallback(
      "muppet_uptime_seconds", {}, MetricType::kGauge,
      [this] { return UptimeMicros() / kMicrosPerSecond; });
  // Watchdog incident families (DESIGN.md §14 incident taxonomy).
  for (int k = 0; k < kNumIncidentKinds; ++k) {
    const IncidentKind kind = static_cast<IncidentKind>(k);
    metrics_.RegisterCallback(
        "muppet_watchdog_incidents_total", {{"kind", IncidentKindName(kind)}},
        MetricType::kCounter,
        [this, kind] { return incident_log_.opened(kind); });
  }
  metrics_.RegisterCallback(
      "muppet_watchdog_open_incidents", {}, MetricType::kGauge,
      [this] { return static_cast<int64_t>(incident_log_.open_count()); });

  // Transport-level counters: owned by the transport, surfaced here so
  // /metrics carries the datapath and fault-injection counters.
  metrics_.RegisterCallback(
      "muppet_transport_messages_sent_total", {}, MetricType::kCounter,
      [this] { return transport_->messages_sent(); });
  metrics_.RegisterCallback(
      "muppet_transport_messages_local_total", {}, MetricType::kCounter,
      [this] { return transport_->messages_local(); });
  metrics_.RegisterCallback(
      "muppet_transport_messages_dropped_total", {}, MetricType::kCounter,
      [this] { return transport_->messages_dropped(); });
  metrics_.RegisterCallback(
      "muppet_transport_messages_declined_total", {}, MetricType::kCounter,
      [this] { return transport_->messages_declined(); });
  metrics_.RegisterCallback("muppet_transport_frames_sent_total", {},
                            MetricType::kCounter,
                            [this] { return transport_->frames_sent(); });
  metrics_.RegisterCallback("muppet_transport_bytes_sent_total", {},
                            MetricType::kCounter,
                            [this] { return transport_->bytes_sent(); });
  metrics_.RegisterCallback(
      "muppet_faults_duplicated_total", {}, MetricType::kCounter,
      [this] { return transport_->messages_duplicated(); });
  metrics_.RegisterCallback("muppet_faults_held_total", {},
                            MetricType::kCounter,
                            [this] { return transport_->messages_held(); });
  metrics_.RegisterCallback(
      "muppet_inflight_events", {}, MetricType::kGauge,
      [this] { return inflight_.load(std::memory_order_acquire); });
  // Source-pacing visibility: the delay PaceSource() would apply right
  // now (decayed overflow pressure, clamped to the adaptive floor).
  metrics_.RegisterCallback(
      "muppet_throttle_delay_micros", {}, MetricType::kGauge,
      [this] { return throttle_.CurrentDelayMicros(); });

  for (const auto& machine_ptr : machines_) {
    if (machine_ptr == nullptr) continue;
    MachineBase* machine = machine_ptr.get();
    const MetricLabels m_label = {{"machine", std::to_string(machine->id)}};
    metrics_.RegisterCallback("muppet_machine_up", m_label,
                              MetricType::kGauge, [machine] {
                                return machine->crashed.load(
                                           std::memory_order_acquire)
                                           ? 0
                                           : 1;
                              });
    for (size_t i = 0; i < machine->lanes.size(); ++i) {
      const EventQueue* queue = machine->lanes[i].queue;
      MetricLabels lane_label = m_label;
      lane_label.emplace_back("lane", std::to_string(i));
      metrics_.RegisterCallback(
          "muppet_queue_depth", lane_label, MetricType::kGauge,
          [queue] { return static_cast<int64_t>(queue->size()); });
    }
    // Machine-level aggregates over the machine's caches.
    auto cache_sum = [machine](int64_t (*read)(const SlateCache&)) {
      return [machine, read] {
        int64_t total = 0;
        for (const SlateCache* cache : machine->caches) total += read(*cache);
        return total;
      };
    };
    metrics_.RegisterCallback(
        "muppet_slate_cache_slates", m_label, MetricType::kGauge,
        cache_sum([](const SlateCache& c) {
          return static_cast<int64_t>(c.size());
        }));
    metrics_.RegisterCallback(
        "muppet_slate_cache_capacity", m_label, MetricType::kGauge,
        cache_sum([](const SlateCache& c) {
          return static_cast<int64_t>(c.capacity());
        }));
    metrics_.RegisterCallback(
        "muppet_slate_cache_hits_total", m_label, MetricType::kCounter,
        cache_sum([](const SlateCache& c) { return c.hits(); }));
    metrics_.RegisterCallback(
        "muppet_slate_cache_misses_total", m_label, MetricType::kCounter,
        cache_sum([](const SlateCache& c) { return c.misses(); }));
    if (machine->changelog != nullptr) {
      SlateChangelog* log = machine->changelog.get();
      metrics_.RegisterCallback(
          "muppet_slatelog_lsn", m_label, MetricType::kGauge,
          [log] { return static_cast<int64_t>(log->last_lsn()); });
      metrics_.RegisterCallback(
          "muppet_slatelog_synced_lsn", m_label, MetricType::kGauge,
          [log] { return static_cast<int64_t>(log->synced_lsn()); });
      metrics_.RegisterCallback(
          "muppet_slatelog_segments", m_label, MetricType::kGauge,
          [log] { return static_cast<int64_t>(log->segment_count()); });
      metrics_.RegisterCallback(
          "muppet_slatelog_manifest_lsn", m_label, MetricType::kGauge,
          [machine] {
            return static_cast<int64_t>(
                machine->manifest_lsn.load(std::memory_order_acquire));
          });
      metrics_.RegisterCallback(
          "muppet_slatelog_machine_replays_total", m_label,
          MetricType::kCounter, [machine] {
            return machine->replays.load(std::memory_order_acquire);
          });
    }
    if (machine->dedup != nullptr) {
      DedupTable* dedup = machine->dedup.get();
      metrics_.RegisterCallback(
          "muppet_dedup_entries", m_label, MetricType::kGauge,
          [dedup] { return static_cast<int64_t>(dedup->size()); });
    }
  }
  RegisterEngineMetrics();
}

}  // namespace muppet
