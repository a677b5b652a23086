#include "engine/muppet1.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"
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
    Event out;
    MUPPET_RETURN_IF_ERROR(
        BuildEmittedEvent(config_, event_, stream, key, value, ts, &out));
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
    : Engine(config, std::move(options), "muppet1") {}

Muppet1Engine::~Muppet1Engine() { (void)Stop(); }

Status Muppet1Engine::PrepareEngine() {
  if (options_.workers_per_function < 1) {
    return Status::InvalidArgument("engine: bad cluster shape");
  }
  // Muppet 1.0 places every worker in this process over its own fabric,
  // and never splits keys.
  if (!options_.hosted_machines.empty() ||
      options_.transport_backend != nullptr ||
      options_.load_manager.enabled) {
    return Status::InvalidArgument(
        "engine: hosted_machines, transport_backend and load_manager are "
        "Muppet 2.0 only");
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
  for (const OpInfo& op : ops_) {
    if (op.spec->kind != OperatorKind::kUpdater) continue;
    for (int i = 0; i < options_.workers_per_function; ++i) {
      if (hosts(i)) ++updater_workers;
    }
  }
  const size_t cache_share = std::max<size_t>(
      1, options_.slate_cache_capacity / std::max<size_t>(1, updater_workers));

  for (uint32_t op = 0; op < ops_.size(); ++op) {
    const OperatorSpec& spec = *ops_[op].spec;
    for (int i = 0; i < options_.workers_per_function; ++i) {
      if (!hosts(i)) continue;
      auto worker = std::make_unique<Worker>();
      worker->op = op;
      worker->ref =
          WorkerRef{id, static_cast<int32_t>(machine->workers.size())};
      worker->queue = std::make_unique<EventQueue>(options_.queue_capacity);
      worker->task =
          std::make_unique<engine_internal::TaskProcessor>(config_, spec);
      operator_instances_->Add();
      if (spec.kind == OperatorKind::kUpdater) {
        worker->cache = std::make_unique<SlateCache>(
            SlateCacheOptions{cache_share}, StoreWriteBack());
        machine->caches.push_back(worker->cache.get());
      }
      ring_.AddWorker(spec.name, worker->ref);
      machine->lanes.push_back({worker->queue.get(), std::thread()});
      machine->workers.push_back(std::move(worker));
    }
  }
  MUPPET_RETURN_IF_ERROR(transport_->RegisterMachine(
      id, [this, id](MachineId from, BytesView payload, size_t /*count*/,
                     size_t* accepted) {
        return HandleIncoming(from, id, payload, accepted);
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
  const std::vector<uint32_t>& subs = SubscriberIds(event.stream);
  if (subs.empty()) return;
  const uint64_t key_hash = Fnv1a64(event.key);
  std::set<MachineId> failed_copy;
  const std::set<MachineId>& failed = RouteFailedSet(from, &failed_copy);
  for (const uint32_t op : subs) {
    SendToWorker(from, sender, op, key_hash, failed, event);
  }
}

void Muppet1Engine::SendToWorker(MachineId from, const Worker* sender,
                                 uint32_t op, uint64_t key_hash,
                                 const std::set<MachineId>& failed,
                                 const Event& event) {
  const OpInfo& info = ops_[op];
  Result<WorkerRef> target = ring_.Route(info.spec->name, event.key, failed);
  if (!target.ok()) {
    lost_failure_->Add();
    MUPPET_LOG(kWarning) << "engine: no live worker for " << info.spec->name
                         << ", event lost";
    return;
  }

  RoutedEvent re;
  re.function_id = static_cast<int32_t>(op);
  re.work = CombineWork(info.name_hash, key_hash);
  re.event = event;
  re.event.seq = NextSeq();
  // Exactly-once: stamp the delivery identity the receiver dedups on
  // (engine/slatelog.h). Derived after the final seq assignment so each
  // routed copy is a distinct delivery.
  if (exactly_once()) {
    re.dedup = DedupIdentity(re.work, re.event.ts, re.event.seq);
  }
  // Each 1.0 event travels alone, as a frame of one behind its worker's
  // slot: 1.0 coalesces nothing (§4.5), and even a same-machine send is
  // encoded.
  Bytes payload;
  PutVarint32(&payload, static_cast<uint32_t>(target.value().slot));
  EncodeRoutedEventFrame({&re, 1}, &payload);

  // Net-hop span on the sender's sink; the RAII scope covers the retry
  // loop, so the span absorbs throttle waits like a real wire would. Only
  // a cross-machine send is a network hop.
  const MachineId to = target.value().machine;
  ScopedSpan hop;
  if (to != from) {
    hop.Begin(SinkFor(from), clock_, event.trace, SpanKind::kNetHop,
              Machine(from)->hop_labels[static_cast<size_t>(to)]);
  }
  const uint64_t signature = EventFaultSignature(re);
  // Emitting back into a queue this worker itself drains (§5).
  const bool self_emit = sender != nullptr && target.value() == sender->ref;
  SendRouted(
      to, event, self_emit,
      [&] {
        size_t accepted = 0;
        return transport_->SendBatch(from, to, payload, 1, &accepted,
                                     signature);
      },
      [&](Event redirected) { DeliverEvent(from, sender, redirected); });
}

Status Muppet1Engine::HandleIncoming(MachineId from, MachineId to,
                                     BytesView payload, size_t* accepted) {
  const char* p = payload.data();
  const char* limit = p + payload.size();
  uint32_t slot = 0;
  if (!GetVarint32(&p, limit, &slot)) {
    return Status::Corruption("engine: bad worker slot");
  }
  MachineCtx* machine = Ctx(to);
  return ReceiveFrame(
      from, to, BytesView(p, static_cast<size_t>(limit - p)), accepted,
      [&](RoutedEvent* re) {
        if (slot >= machine->workers.size() ||
            machine->workers[slot]->op !=
                static_cast<uint32_t>(re->function_id)) {
          return Status::NotFound(
              "engine: slot runs no worker of the frame's function");
        }
        if (re->event.trace.sampled()) re->enqueue_ts = clock_->Now();
        // The queue declines when full; the decline reaches the sender.
        return machine->workers[slot]->queue->TryPushMove(re);
      });
}

void Muppet1Engine::RunLane(MachineBase* machine, size_t lane) {
  Worker* worker = static_cast<MachineCtx*>(machine)->workers[lane].get();
  RoutedEvent re;
  while (worker->queue->Pop(&re)) {
    if (re.event.trace.sampled() && re.enqueue_ts != 0 &&
        machine->trace_sink != nullptr) {
      machine->trace_sink->Record(
          re.event.trace, SpanKind::kQueueWait,
          machine->trace_labels[worker->op], re.enqueue_ts, clock_->Now());
    }
    SettleLane(machine, lane, ProcessOne(worker, re));
  }
}

Status Muppet1Engine::ProcessOne(Worker* worker, const RoutedEvent& re) {
  // Execution span: covers the slate fetch, the task-processor round
  // trip, the slate write-back, and the delivery of emitted events (the
  // same window the 2.0 engine's exec span covers). Outputs emitted here
  // parent to it.
  MachineCtx* machine = Ctx(worker->ref.machine);
  const Event& event = re.event;
  const bool is_updater =
      ops_[worker->op].spec->kind == OperatorKind::kUpdater;
  ScopedSpan exec;
  exec.Begin(machine->trace_sink.get(), clock_, event.trace,
             is_updater ? SpanKind::kUpdateExec : SpanKind::kMapExec,
             machine->trace_labels[worker->op]);

  // Conductor: gather the slate, serialize the request, cross the
  // process boundary, decode the response.
  Bytes slate;
  bool has_slate = false;
  if (is_updater) {
    MUPPET_RETURN_IF_ERROR(FetchForExec(machine, worker->cache.get(), re,
                                        event.key, exec.span_id(), &slate,
                                        &has_slate));
  }

  Bytes request;
  engine_internal::TaskProcessor::EncodeRequest(
      event, has_slate ? &slate : nullptr, &request);
  Bytes response;
  MUPPET_RETURN_IF_ERROR(worker->task->Process(request, &response));
  engine_internal::TaskProcessor::Response decoded;
  MUPPET_RETURN_IF_ERROR(
      engine_internal::TaskProcessor::DecodeResponse(response, &decoded));

  const bool wrote_slate = is_updater && decoded.slate_action != 0;
  if (wrote_slate) {
    const SlateLogKind kind = decoded.slate_action == 1
                                  ? SlateLogKind::kUpdate
                                  : SlateLogKind::kDelete;
    MUPPET_RETURN_IF_ERROR(WriteSlate(machine, worker->cache.get(), re,
                                      event.key, kind, decoded.slate));
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
  FinishExec(machine, re, event.key, wrote_slate, &exec);
  return Status::OK();
}

Result<Muppet1Engine::Worker*> Muppet1Engine::RouteToWorker(
    const std::string& function, BytesView key,
    const std::set<MachineId>& failed) const {
  Result<WorkerRef> target = ring_.Route(function, key, failed);
  if (!target.ok()) return target.status();
  return Ctx(target.value().machine)
      ->workers[static_cast<size_t>(target.value().slot)]
      .get();
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

Status Muppet1Engine::ReadLiveSlate(uint32_t op, BytesView key,
                                    const std::set<MachineId>& failed,
                                    Bytes* slate) {
  const std::string& updater = ops_[op].spec->name;
  Result<Worker*> worker = RouteToWorker(updater, key, failed);
  if (!worker.ok()) return worker.status();
  return FetchThroughCache(worker.value()->cache.get(), updater, key, slate);
}

}  // namespace muppet
