#include "engine/muppet1.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "engine/wire.h"

namespace muppet {

namespace engine_internal {

// Collects the outputs of one map/update call for serialization back to
// the conductor.
class TaskProcessor::CollectingUtilities final : public PerformerUtilities {
 public:
  CollectingUtilities(const AppConfig& config, const Event& event,
                      bool is_updater)
      : config_(config), event_(event), is_updater_(is_updater) {}

  Status Publish(const std::string& stream, BytesView key,
                 BytesView value) override {
    return PublishAt(stream, key, value, event_.ts + 1);
  }

  Status PublishAt(const std::string& stream, BytesView key, BytesView value,
                   Timestamp ts) override {
    if (!config_.HasStream(stream)) {
      return Status::InvalidArgument("publish: undeclared stream '" + stream +
                                     "'");
    }
    if (config_.IsInputStream(stream)) {
      return Status::InvalidArgument(
          "publish: operators may not emit into input stream '" + stream +
          "'");
    }
    if (ts <= event_.ts) {
      return Status::InvalidArgument(
          "publish: output timestamp must exceed input timestamp");
    }
    Event out;
    out.stream = stream;
    out.ts = ts;
    out.key.assign(key);
    out.value.assign(value);
    out.origin_ts = event_.origin_ts;
    outputs.push_back(std::move(out));
    return Status::OK();
  }

  Status ReplaceSlate(BytesView slate) override {
    if (!is_updater_) {
      return Status::FailedPrecondition("mapper cannot replace a slate");
    }
    slate_action = 1;
    new_slate.assign(slate);
    return Status::OK();
  }

  Status DeleteSlate() override {
    if (!is_updater_) {
      return Status::FailedPrecondition("mapper cannot delete a slate");
    }
    slate_action = 2;
    new_slate.clear();
    return Status::OK();
  }

  const Event& current_event() const override { return event_; }

  std::vector<Event> outputs;
  uint8_t slate_action = 0;
  Bytes new_slate;

 private:
  const AppConfig& config_;
  const Event& event_;
  bool is_updater_;
};

TaskProcessor::TaskProcessor(const AppConfig& config,
                             const OperatorSpec& spec)
    : config_(config), spec_(spec) {
  if (spec_.kind == OperatorKind::kMapper) {
    mapper_ = spec_.mapper_factory(config_, spec_.name);
  } else {
    updater_ = spec_.updater_factory(config_, spec_.name);
  }
}

void TaskProcessor::EncodeRequest(const Event& event, const Bytes* slate,
                                  Bytes* out) {
  Bytes event_bytes;
  EncodeEvent(event, &event_bytes);
  PutLengthPrefixed(out, event_bytes);
  out->push_back(slate != nullptr ? 1 : 0);
  if (slate != nullptr) PutLengthPrefixed(out, *slate);
}

Status TaskProcessor::DecodeResponse(BytesView data, Response* out) {
  const char* p = data.data();
  const char* limit = p + data.size();
  uint32_t n = 0;
  if (!GetVarint32(&p, limit, &n)) {
    return Status::Corruption("taskproc: bad response header");
  }
  out->outputs.clear();
  out->outputs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    BytesView event_bytes;
    if (!GetLengthPrefixed(&p, limit, &event_bytes)) {
      return Status::Corruption("taskproc: truncated output event");
    }
    Event event;
    MUPPET_RETURN_IF_ERROR(DecodeEvent(event_bytes, &event));
    out->outputs.push_back(std::move(event));
  }
  if (p >= limit) return Status::Corruption("taskproc: missing slate action");
  out->slate_action = static_cast<uint8_t>(*p++);
  if (out->slate_action == 1) {
    BytesView slate;
    if (!GetLengthPrefixed(&p, limit, &slate)) {
      return Status::Corruption("taskproc: truncated slate");
    }
    out->slate.assign(slate);
  }
  if (p != limit) return Status::Corruption("taskproc: trailing bytes");
  return Status::OK();
}

Status TaskProcessor::Process(BytesView request, Bytes* response) {
  // Decode the request (the conductor -> task-processor copy).
  const char* p = request.data();
  const char* limit = p + request.size();
  BytesView event_bytes;
  if (!GetLengthPrefixed(&p, limit, &event_bytes) || p >= limit) {
    return Status::Corruption("taskproc: bad request");
  }
  Event event;
  MUPPET_RETURN_IF_ERROR(DecodeEvent(event_bytes, &event));
  const bool has_slate = *p++ != 0;
  Bytes slate;
  if (has_slate) {
    BytesView slate_view;
    if (!GetLengthPrefixed(&p, limit, &slate_view)) {
      return Status::Corruption("taskproc: truncated request slate");
    }
    slate.assign(slate_view);
  }

  CollectingUtilities utils(config_, event,
                            spec_.kind == OperatorKind::kUpdater);
  if (spec_.kind == OperatorKind::kMapper) {
    mapper_->Map(utils, event);
  } else {
    updater_->Update(utils, event, has_slate ? &slate : nullptr);
  }

  // Encode the response (the task-processor -> conductor copy).
  PutVarint32(response, static_cast<uint32_t>(utils.outputs.size()));
  for (const Event& out : utils.outputs) {
    Bytes out_bytes;
    EncodeEvent(out, &out_bytes);
    PutLengthPrefixed(response, out_bytes);
  }
  response->push_back(static_cast<char>(utils.slate_action));
  if (utils.slate_action == 1) {
    PutLengthPrefixed(response, utils.new_slate);
  }
  return Status::OK();
}

}  // namespace engine_internal

Muppet1Engine::Muppet1Engine(const AppConfig& config, EngineOptions options)
    : MachineRuntime(config, std::move(options), "muppet1",
                     /*load_manager_paces_source=*/false) {}

Muppet1Engine::~Muppet1Engine() { (void)Stop(); }

Status Muppet1Engine::PrepareEngine() {
  if (options_.workers_per_function < 1) {
    return Status::InvalidArgument("engine: bad cluster shape");
  }
  // Muppet 1.0 places every worker in this process over its own fabric.
  if (!options_.hosted_machines.empty() ||
      options_.transport_backend != nullptr) {
    return Status::InvalidArgument(
        "engine: hosted_machines and transport_backend are Muppet 2.0 only");
  }
  // Heat observation for the /statusz hot-key panel. Muppet 1.0 runs no
  // control loop (no splitting, no placement — load_manager actions are
  // 2.0-only), but the same sketch feeds the panel and metrics. The
  // sketch keys on a dense function id; build the ad-hoc name<->id map
  // from the (sorted) operator table so ids are deterministic.
  if (options_.load_manager.enabled) {
    for (const auto& [name, spec] : config_.operators()) {
      (void)spec;
      heat_fn_ids_[name] = static_cast<int32_t>(heat_fn_names_.size());
      heat_fn_names_.push_back(name);
    }
    heat_ = std::make_unique<HeatTracker>(options_.load_manager.heat);
  }
  return Status::OK();
}

Status Muppet1Engine::BuildMachine(MachineId id,
                                   std::unique_ptr<MachineBase>* out) {
  auto machine = std::make_unique<MachineCtx>();
  // Each function's workers are spread round-robin over machines; worker
  // i of every function lands on machine i % num_machines.
  auto hosts = [&](int i) { return i % options_.num_machines == id; };
  // Count this machine's updater workers first, to divide the cache
  // budget (§4.5: Muppet 1.0 scatters the machine's slate cache across
  // workers).
  size_t updater_workers = 0;
  for (const auto& [name, spec] : config_.operators()) {
    if (spec.kind != OperatorKind::kUpdater) continue;
    for (int i = 0; i < options_.workers_per_function; ++i) {
      if (hosts(i)) ++updater_workers;
    }
  }
  const size_t cache_share = std::max<size_t>(
      1, options_.slate_cache_capacity / std::max<size_t>(1, updater_workers));

  for (const auto& [name, spec] : config_.operators()) {
    for (int i = 0; i < options_.workers_per_function; ++i) {
      if (!hosts(i)) continue;
      auto worker = std::make_unique<Worker>();
      worker->function = name;
      worker->kind = spec.kind;
      worker->ref =
          WorkerRef{id, static_cast<int32_t>(machine->workers.size())};
      worker->queue = std::make_unique<EventQueue>(options_.queue_capacity);
      worker->task =
          std::make_unique<engine_internal::TaskProcessor>(config_, spec);
      worker->processed_counter = metrics_.GetCounter(
          "muppet_operator_processed_total", {{"operator", name}});
      operator_instances_->Add();
      if (spec.kind == OperatorKind::kUpdater) {
        worker->updater_options = spec.updater_options;
        worker->cache = std::make_unique<SlateCache>(
            SlateCacheOptions{cache_share}, StoreWriteBack());
        machine->caches.push_back(worker->cache.get());
      }
      ring_.AddWorker(name, worker->ref);
      machine->lanes.push_back({worker->queue.get(), std::thread()});
      machine->by_slot[{name, worker->ref.slot}] = worker.get();
      machine->workers.push_back(std::move(worker));
    }
  }
  MUPPET_RETURN_IF_ERROR(transport_->RegisterMachine(
      id, [this, id](MachineId /*from*/, BytesView payload) {
        return HandleIncoming(id, payload);
      }));
  *out = std::move(machine);
  return Status::OK();
}

void Muppet1Engine::DeliverPublished(Event event) {
  // The paper's special mapper M0 reads the input stream on one machine
  // and hashes events out to workers (§4.1); machine 0 plays that role.
  DeliverEvent(/*from=*/publish_machine_, /*sender=*/nullptr, event);
}

void Muppet1Engine::DeliverEvent(MachineId from, const Worker* sender,
                                 const Event& event) {
  RunTaps(event);
  for (const std::string& function : config_.SubscribersOf(event.stream)) {
    SendToWorker(from, sender, function, event);
  }
}

void Muppet1Engine::SendToWorker(MachineId from, const Worker* sender,
                                 const std::string& function,
                                 const Event& event) {
  if (heat_ != nullptr && heat_->ShouldSample()) {
    const auto it = heat_fn_ids_.find(function);
    if (it != heat_fn_ids_.end()) heat_->Record(it->second, event.key);
  }
  const std::set<MachineId> failed = FailedSetFor(from);
  Result<WorkerRef> target = ring_.Route(function, event.key, failed);
  if (!target.ok()) {
    lost_failure_->Add();
    MUPPET_LOG(kWarning) << "engine: no live worker for " << function
                         << ", event lost";
    return;
  }

  RoutedEvent re{function, event};
  re.event.seq = NextSeq();
  // Exactly-once: stamp the delivery identity the receiver dedups on
  // (engine/slatelog.h). Derived after the final seq assignment so each
  // routed copy is a distinct delivery.
  if (exactly_once()) {
    re.dedup = DedupIdentity(WorkHash(function, event.key), re.event.ts,
                             re.event.seq);
  }
  Bytes payload;
  PutVarint32(&payload, static_cast<uint32_t>(target.value().slot));
  EncodeRoutedEvent(re, &payload);

  // Net-hop span on the sender's sink; the RAII scope covers the retry
  // loop, so the span absorbs throttle waits like a real wire would. 1.0
  // serializes even same-machine sends, but only a cross-machine send is
  // a network hop.
  ScopedSpan hop;
  if (target.value().machine != from) {
    hop.Begin(SinkFor(from), clock_, event.trace, SpanKind::kNetHop, from,
              "->m" + std::to_string(target.value().machine));
  }

  const uint64_t signature = EventFaultSignature(re);
  int attempts = 0;
  const int kMaxThrottleRetries = 50;
  while (true) {
    inflight_.fetch_add(1, std::memory_order_acq_rel);
    Status s =
        transport_->Send(from, target.value().machine, payload, signature);
    if (s.ok()) return;
    DecInflight(1);

    if (s.IsUnavailable()) {
      // Failure detected on send (§4.3): report to the master, which
      // broadcasts; the event itself is lost, not re-dispatched.
      master_.ReportFailure(target.value().machine);
      lost_failure_->Add();
      MUPPET_LOG(kWarning) << "engine: machine " << target.value().machine
                           << " unreachable; event logged as lost";
      return;
    }
    if (!s.IsResourceExhausted()) {
      lost_failure_->Add();
      return;
    }

    // Queue overflow (§4.3): apply the configured policy.
    switch (options_.overflow.policy) {
      case OverflowPolicy::kDrop:
        dropped_overflow_->Add();
        MUPPET_LOG(kDebug) << "engine: queue full, event dropped";
        return;
      case OverflowPolicy::kOverflowStream: {
        if (event.stream == options_.overflow.overflow_stream) {
          dropped_overflow_->Add();  // the degraded path is itself full
          return;
        }
        redirected_overflow_->Add();
        Event redirected = event;
        redirected.stream = options_.overflow.overflow_stream;
        DeliverEvent(from, sender, redirected);
        return;
      }
      case OverflowPolicy::kThrottle: {
        throttle_.NoteOverflow();
        // Emitting back into a queue this worker itself drains can never
        // succeed by waiting — that is the paper's §5 deadlock scenario.
        if (sender != nullptr && target.value() == sender->ref) {
          deadlocks_avoided_->Add();
          dropped_overflow_->Add();
          return;
        }
        if (++attempts > kMaxThrottleRetries) {
          dropped_overflow_->Add();
          return;
        }
        clock_->SleepFor(200);
        continue;
      }
    }
  }
}

Status Muppet1Engine::HandleIncoming(MachineId to, BytesView payload) {
  MachineCtx* machine = Ctx(to);
  if (machine->crashed.load()) {
    return Status::Unavailable("machine crashed");
  }
  const char* p = payload.data();
  const char* limit = p + payload.size();
  uint32_t slot = 0;
  if (!GetVarint32(&p, limit, &slot)) {
    return Status::Corruption("engine: bad payload");
  }
  RoutedEvent re;
  MUPPET_RETURN_IF_ERROR(DecodeRoutedEvent(
      BytesView(p, static_cast<size_t>(limit - p)), &re));
  auto it = machine->by_slot.find({re.function, static_cast<int32_t>(slot)});
  if (it == machine->by_slot.end()) {
    return Status::NotFound("engine: no such worker slot");
  }
  if (re.event.trace.sampled()) re.enqueue_ts = clock_->Now();
  // Exactly-once suppression (engine/slatelog.h): an identity this
  // machine already processed settles as deduped. The identity is
  // reserved atomically BEFORE the push — check-then-record would let two
  // concurrent deliveries of the same identity both pass the check — and
  // unwound on a declined (queue-full) send so the sender's retry is not
  // mistaken for a duplicate.
  const uint64_t dedup_id =
      (re.ctl == kCtlNone && machine->dedup != nullptr) ? re.dedup : 0;
  if (dedup_id != 0 && !machine->dedup->CheckAndInsert(dedup_id)) {
    deduped_->Add();
    DecInflight(1);
    return Status::OK();
  }
  // The queue declines when full; the decline propagates to the sender.
  Status s = it->second->queue->TryPush(std::move(re));
  if (!s.ok() && dedup_id != 0) machine->dedup->Remove(dedup_id);
  return s;
}

void Muppet1Engine::RunLane(MachineBase* machine, size_t lane) {
  Worker* worker = static_cast<MachineCtx*>(machine)->workers[lane].get();
  RoutedEvent re;
  while (worker->queue->Pop(&re)) {
    if (re.event.trace.sampled() && re.enqueue_ts != 0) {
      TraceSink* sink = machine->trace_sink.get();
      if (sink != nullptr) {
        Span wait;
        wait.trace_id = re.event.trace.trace_id;
        wait.span_id = NextSpanId();
        wait.parent_span = re.event.trace.parent_span;
        wait.kind = SpanKind::kQueueWait;
        wait.machine = worker->ref.machine;
        wait.name = worker->function;
        wait.start_us = re.enqueue_ts;
        wait.end_us = clock_->Now();
        sink->Record(std::move(wait));
      }
    }
    SettleLane(machine, lane, ProcessOne(worker, re.event, re.dedup));
  }
}

Status Muppet1Engine::ProcessOne(Worker* worker, const Event& event,
                                 uint64_t dedup) {
  // Execution span: covers the slate fetch, the task-processor round
  // trip, the slate write-back, and the delivery of emitted events (the
  // same window the 2.0 engine's exec span covers). Outputs emitted here
  // parent to it.
  ScopedSpan exec;
  exec.Begin(SinkFor(worker->ref.machine), clock_, event.trace,
             worker->kind == OperatorKind::kUpdater ? SpanKind::kUpdateExec
                                                    : SpanKind::kMapExec,
             worker->ref.machine, worker->function);

  // Conductor: gather the slate, serialize the request, cross the
  // process boundary, decode the response.
  Bytes slate;
  bool has_slate = false;
  if (worker->kind == OperatorKind::kUpdater) {
    const char* fetch_source = nullptr;
    ScopedSpan fetch;
    fetch.Begin(SinkFor(worker->ref.machine), clock_,
                TraceContext{event.trace.trace_id, exec.span_id()},
                SpanKind::kSlateFetch, worker->ref.machine,
                worker->function);
    Status s = FetchThroughCache(worker->cache.get(), worker->function,
                                 event.key, &slate, &fetch_source);
    if (fetch_source != nullptr) fetch.set_note(fetch_source);
    fetch.End();
    if (s.ok()) {
      has_slate = true;
    } else if (!s.IsNotFound()) {
      return s;
    }
  }

  Bytes request;
  engine_internal::TaskProcessor::EncodeRequest(
      event, has_slate ? &slate : nullptr, &request);
  Bytes response;
  MUPPET_RETURN_IF_ERROR(worker->task->Process(request, &response));
  engine_internal::TaskProcessor::Response decoded;
  MUPPET_RETURN_IF_ERROR(
      engine_internal::TaskProcessor::DecodeResponse(response, &decoded));

  MachineCtx* machine = Ctx(worker->ref.machine);
  const uint64_t work = machine->changelog != nullptr
                            ? WorkHash(worker->function, event.key)
                            : 0;
  if (worker->kind == OperatorKind::kUpdater && decoded.slate_action == 1) {
    const SlateId id{worker->function, event.key};
    const bool write_through = worker->updater_options.flush_policy ==
                               SlateFlushPolicy::kWriteThrough;
    MUPPET_RETURN_IF_ERROR(worker->cache->Update(id, decoded.slate,
                                                 clock_->Now(),
                                                 write_through));
    AppendSlateLog(machine, SlateLogKind::kUpdate, worker->function,
                   event.key, decoded.slate, event, work, dedup);
  } else if (worker->kind == OperatorKind::kUpdater &&
             decoded.slate_action == 2) {
    MUPPET_RETURN_IF_ERROR(
        worker->cache->Delete(SlateId{worker->function, event.key}));
    AppendSlateLog(machine, SlateLogKind::kDelete, worker->function,
                   event.key, BytesView(), event, work, dedup);
  } else if (dedup != 0 && machine->changelog != nullptr) {
    // No slate effect, but the processed identity must survive into
    // replay seeding (exactly-once epoch cut).
    AppendSlateLog(machine, SlateLogKind::kMark, worker->function, event.key,
                   BytesView(), event, work, dedup);
  }

  for (Event& out : decoded.outputs) {
    // Child events parent to this execution span (the TaskProcessor codec
    // deliberately carries no trace state — it models the 1.0 IPC
    // boundary — so the conductor re-attaches it here).
    out.trace.trace_id = event.trace.trace_id;
    out.trace.parent_span = exec.span_id();
    emitted_->Add();
    DeliverEvent(worker->ref.machine, worker, out);
  }
  exec.End();

  worker->processed_counter->Add();
  processed_->Add();
  if (event.origin_ts > 0) {
    latency_->Record(clock_->Now() - event.origin_ts);
  }
  return Status::OK();
}

Result<Muppet1Engine::Worker*> Muppet1Engine::RouteToWorker(
    const std::string& function, BytesView key,
    const std::set<MachineId>& failed) const {
  Result<WorkerRef> target = ring_.Route(function, key, failed);
  if (!target.ok()) return target.status();
  MachineCtx* machine = Ctx(target.value().machine);
  auto it = machine->by_slot.find({function, target.value().slot});
  if (it == machine->by_slot.end()) {
    return Status::Internal("ring routed to unknown worker");
  }
  return it->second;
}

SlateCache* Muppet1Engine::ReplayCache(MachineBase* machine,
                                       const std::string& updater,
                                       BytesView key) {
  static const std::set<MachineId> kNoFailed;
  Result<Worker*> worker = RouteToWorker(updater, key, kNoFailed);
  if (!worker.ok() || worker.value()->ref.machine != machine->id) {
    return nullptr;
  }
  return worker.value()->cache.get();
}

Result<Bytes> Muppet1Engine::FetchSlate(const std::string& updater,
                                        BytesView key) {
  if (!started_) return Status::FailedPrecondition("engine not started");
  const OperatorSpec* spec = config_.FindOperator(updater);
  if (spec == nullptr || spec->kind != OperatorKind::kUpdater) {
    return Status::NotFound("no such updater: " + updater);
  }
  // §4.4: resolve the owning worker and read its cache (forwarding
  // "internally" — here, direct access), not the durable store.
  Result<Worker*> worker = RouteToWorker(updater, key, FailedOrCrashed());
  if (!worker.ok()) return worker.status();
  Bytes slate;
  MUPPET_RETURN_IF_ERROR(
      FetchThroughCache(worker.value()->cache.get(), updater, key, &slate));
  return slate;
}

std::vector<HotKeyInfo> Muppet1Engine::HotKeys() const {
  std::vector<HotKeyInfo> out;
  if (heat_ == nullptr) return out;
  for (const HeatEntry& e : heat_->TopK(16)) {
    if (e.function_id < 0 ||
        e.function_id >= static_cast<int32_t>(heat_fn_names_.size())) {
      continue;
    }
    HotKeyInfo info;
    info.function = heat_fn_names_[static_cast<size_t>(e.function_id)];
    info.key = e.key;
    info.sampled_count = e.count;
    out.push_back(std::move(info));
  }
  return out;
}

void Muppet1Engine::RegisterEngineMetrics() {
  if (heat_ != nullptr) {
    metrics_.RegisterCallback("muppet_heat_samples_total", {},
                              MetricType::kCounter,
                              [this] { return heat_->samples_recorded(); });
  }
  for (const auto& machine_ptr : machines_) {
    const auto* machine = static_cast<const MachineCtx*>(machine_ptr.get());
    for (const auto& worker_ptr : machine->workers) {
      const Worker* worker = worker_ptr.get();
      metrics_.RegisterCallback(
          "muppet_queue_depth",
          {{"machine", std::to_string(machine->id)},
           {"operator", worker->function},
           {"slot", std::to_string(worker->ref.slot)}},
          MetricType::kGauge,
          [worker] { return static_cast<int64_t>(worker->queue->size()); });
    }
  }
}

}  // namespace muppet
