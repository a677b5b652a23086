#include "engine/muppet2.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "engine/placement.h"
#include "engine/wire.h"

namespace muppet {

namespace {
// Route-time view of "no machines failed" — the overwhelmingly common
// case, served without copying a set under a lock.
const std::set<MachineId> kNoFailed;
}  // namespace

// PerformerUtilities that routes outputs immediately — no serialization
// within the machine (the 1.0 IPC cost 2.0 eliminates, §4.5). Slate
// mutations are applied to the central cache as they happen.
class Muppet2Engine::DirectUtilities final : public PerformerUtilities {
 public:
  // `exec_span` is the span id of the surrounding operator execution (0
  // when untraced); emitted events parent to it.
  // `slate_key` is the key the updater's slate lives under: the event key
  // normally, the shard sub-key (core/keysplit.h) when the event was
  // routed to a shard of a split hot key.
  DirectUtilities(Muppet2Engine* engine, MachineCtx* machine,
                  const Event& event, const std::string& function,
                  bool is_updater, uint64_t work,
                  const UpdaterOptions* updater_options, uint64_t exec_span,
                  BytesView slate_key = {}, uint64_t dedup = 0)
      : engine_(engine),
        machine_(machine),
        event_(event),
        function_(function),
        is_updater_(is_updater),
        work_(work),
        updater_options_(updater_options),
        exec_span_(exec_span),
        slate_key_(slate_key.empty() ? BytesView(event.key) : slate_key),
        dedup_(dedup) {}

  Status Publish(const std::string& stream, BytesView key,
                 BytesView value) override {
    return PublishAt(stream, key, value, event_.ts + 1);
  }

  Status PublishAt(const std::string& stream, BytesView key, BytesView value,
                   Timestamp ts) override {
    const AppConfig& config = engine_->config_;
    if (!config.HasStream(stream)) {
      return Status::InvalidArgument("publish: undeclared stream '" + stream +
                                     "'");
    }
    if (config.IsInputStream(stream)) {
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
    // A traced input's outputs stay in its trace, parented to this
    // operator execution.
    out.trace.trace_id = event_.trace.trace_id;
    out.trace.parent_span = exec_span_;
    engine_->emitted_->Add();
    engine_->DeliverEvent(machine_->id, work_, std::move(out));
    return Status::OK();
  }

  Status ReplaceSlate(BytesView slate) override {
    if (!is_updater_) {
      return Status::FailedPrecondition("mapper cannot replace a slate");
    }
    const bool write_through = updater_options_->flush_policy ==
                               SlateFlushPolicy::kWriteThrough;
    Status s = machine_->cache->Update(SlateId{function_, Bytes(slate_key_)},
                                       slate, engine_->clock_->Now(),
                                       write_through);
    if (s.ok()) {
      wrote_slate_ = true;
      engine_->AppendSlateLog(machine_, SlateLogKind::kUpdate, function_,
                              slate_key_, slate, event_, work_, dedup_);
    }
    return s;
  }

  Status DeleteSlate() override {
    if (!is_updater_) {
      return Status::FailedPrecondition("mapper cannot delete a slate");
    }
    Status s = machine_->cache->Delete(SlateId{function_, Bytes(slate_key_)});
    if (s.ok()) {
      wrote_slate_ = true;
      engine_->AppendSlateLog(machine_, SlateLogKind::kDelete, function_,
                              slate_key_, BytesView(), event_, work_, dedup_);
    }
    return s;
  }

  const Event& current_event() const override { return event_; }

  // Whether the operator wrote (or deleted) its slate — an exactly-once
  // event with no slate effect still needs a kMark record so its identity
  // survives into replay seeding.
  bool wrote_slate() const { return wrote_slate_; }

 private:
  Muppet2Engine* engine_;
  MachineCtx* machine_;
  const Event& event_;
  const std::string& function_;
  bool is_updater_;
  uint64_t work_;
  const UpdaterOptions* updater_options_;
  uint64_t exec_span_;
  BytesView slate_key_;
  uint64_t dedup_;
  bool wrote_slate_ = false;
};

Muppet2Engine::Muppet2Engine(const AppConfig& config, EngineOptions options)
    : MachineRuntime(config, std::move(options), "muppet2",
                     /*load_manager_paces_source=*/true),
      secondary_dispatch_(
          metrics_.GetCounter("muppet_secondary_dispatch_total")),
      slate_contention_(
          metrics_.GetCounter("muppet_slate_contention_total")),
      splits_installed_(metrics_.GetCounter("muppet_key_splits_total")),
      merges_completed_(metrics_.GetCounter("muppet_key_merges_total")),
      queue_wait_(metrics_.GetHistogram("muppet_queue_wait_us")) {}

Muppet2Engine::~Muppet2Engine() { (void)Stop(); }

Status Muppet2Engine::PrepareEngine() {
  if (options_.threads_per_machine < 1) {
    return Status::InvalidArgument("engine: bad cluster shape");
  }
  // Intern operator and stream names into dense ids; precompute the
  // function half of every work hash and each stream's subscriber list.
  // operators() is an ordered map, so ids are deterministic across
  // machines and runs — which is what lets ids travel in wire frames.
  for (const auto& [name, spec] : config_.operators()) {
    const uint32_t fid = op_names_.Intern(name);
    (void)fid;
    ops_.push_back(OpInfo{&spec, Fnv1a64(name)});
    op_processed_.push_back(metrics_.GetCounter(
        "muppet_operator_processed_total", {{"operator", name}}));
  }
  for (const std::string& sid : config_.AllStreams()) {
    const uint32_t stream_id = stream_names_.Intern(sid);
    if (subscribers_.size() <= stream_id) subscribers_.resize(stream_id + 1);
    for (const std::string& sub : config_.SubscribersOf(sid)) {
      subscribers_[stream_id].push_back(
          static_cast<uint32_t>(op_names_.Find(sub)));
    }
  }

  // Every machine hosts every function; the ring routes keys among all
  // num_machines ids, hosted here or not.
  for (const auto& [name, spec] : config_.operators()) {
    (void)spec;
    for (int mm = 0; mm < options_.num_machines; ++mm) {
      ring_.AddWorker(name, WorkerRef{mm, 0});
    }
  }
  return Status::OK();
}

Status Muppet2Engine::BuildMachine(MachineId id,
                                   std::unique_ptr<MachineBase>* out) {
  auto machine = std::make_unique<MachineCtx>();
  // Central slate cache; the write-back resolves each updater's TTL.
  machine->cache = std::make_unique<SlateCache>(
      SlateCacheOptions{options_.slate_cache_capacity}, StoreWriteBack());
  machine->caches.push_back(machine->cache.get());

  // One shared operator instance per function per machine, indexed by
  // interned id so the hot path never probes a string map.
  machine->mappers.resize(ops_.size());
  machine->updaters.resize(ops_.size());
  for (size_t fid = 0; fid < ops_.size(); ++fid) {
    const OperatorSpec& spec = *ops_[fid].spec;
    if (spec.kind == OperatorKind::kMapper) {
      machine->mappers[fid] = spec.mapper_factory(config_, spec.name);
    } else {
      machine->updaters[fid] = spec.updater_factory(config_, spec.name);
    }
    operator_instances_->Add();
  }

  if (options_.load_manager.enabled) {
    machine->heat = std::make_unique<HeatTracker>(options_.load_manager.heat);
  }

  for (int t = 0; t < options_.threads_per_machine; ++t) {
    auto thread_ctx = std::make_unique<ThreadCtx>();
    thread_ctx->index = t;
    thread_ctx->queue = std::make_unique<EventQueue>(options_.queue_capacity);
    machine->lanes.push_back({thread_ctx->queue.get(), std::thread()});
    machine->threads.push_back(std::move(thread_ctx));
  }

  MUPPET_RETURN_IF_ERROR(transport_->RegisterMachine(
      id, [this, id](MachineId from, BytesView payload) {
        return HandleIncoming(from, id, payload);
      }));
  MUPPET_RETURN_IF_ERROR(transport_->RegisterBatchHandler(
      id, [this, id](MachineId from, BytesView frame, size_t count,
                     size_t* accepted) {
        return HandleIncomingFrame(from, id, frame, count, accepted);
      }));
  *out = std::move(machine);
  return Status::OK();
}

Status Muppet2Engine::Start() {
  MUPPET_RETURN_IF_ERROR(MachineRuntime::Start());
  if (options_.load_manager.enabled) {
    lm_controller_ = std::make_unique<LoadController>(options_.load_manager);
    control_threads_.emplace_back([this] { LoadManagerLoop(); });
  }
  return Status::OK();
}

void Muppet2Engine::DeliverPublished(Event event) {
  DeliverEvent(/*from=*/publish_machine_, /*sender_work=*/0,
               std::move(event));
}

void Muppet2Engine::DeliverEvent(MachineId from, uint64_t sender_work,
                                 Event event) {
  RunTaps(event);

  const int32_t stream_id = stream_names_.Find(event.stream);
  if (stream_id < 0) return;
  const std::vector<uint32_t>& subs =
      subscribers_[static_cast<size_t>(stream_id)];
  if (subs.empty()) return;

  // The key half of the work hash is shared by every subscriber; hash it
  // once per event (the function half was hashed at Start()).
  const uint64_t key_hash = Fnv1a64(event.key);

  const MachineCtx* sender = Ctx(from);
  std::set<MachineId> failed_copy;
  const std::set<MachineId>* failed = &kNoFailed;
  if (sender == nullptr) {
    failed_copy = master_.failed();
    failed = &failed_copy;
  } else if (sender->failed_count.load(std::memory_order_acquire) > 0) {
    failed_copy = FailedSetFor(from);
    failed = &failed_copy;
  }

  // Heat sampling (core/heat.h): one relaxed atomic on the common path,
  // the sketch fold only every Nth arrival. Sampled on the sender's
  // machine so the sketches shard naturally with the event flow.
  HeatTracker* heat = nullptr;
  if (options_.load_manager.enabled) {
    heat = (sender != nullptr ? sender : Ctx(publish_machine_))->heat.get();
  }

  // Remote targets coalesce into one frame per destination machine.
  std::vector<std::pair<MachineId, std::vector<RoutedEvent>>> remote;

  // A one-machine cluster with nothing failed has exactly one possible
  // destination; skip the ring hash + vnode search per event.
  const bool trivial_route = machines_.size() == 1 && failed->empty();

  // Lock-free fast path: no key is split almost always.
  const bool maybe_split = split_table_.HasSplits();

  const size_t n = subs.size();
  for (size_t i = 0; i < n; ++i) {
    const uint32_t fid = subs[i];
    const OpInfo& op = ops_[fid];

    if (heat != nullptr && heat->ShouldSample()) {
      heat->Record(static_cast<int32_t>(fid), event.key);
    }

    // Dynamic key splitting: a hot key of an associative updater fans out
    // round-robin over shard sub-keys. The event's own key is never
    // rewritten — the shard widens routing and slate addressing only, and
    // travels with the event alongside the epoch it was decided under.
    int32_t shard = -1;
    uint32_t split_epoch = 0;
    uint64_t route_key_hash = key_hash;
    Bytes shard_key;
    BytesView route_key = event.key;
    if (maybe_split && op.spec->kind == OperatorKind::kUpdater) {
      SplitTable::State state;
      const int picked =
          split_table_.RouteShard(static_cast<int32_t>(fid), event.key,
                                  &state);
      if (picked >= 0) {
        shard = picked;
        split_epoch = state.epoch;
        shard_key = MakeSplitKey(event.key, picked);
        route_key = shard_key;
        route_key_hash = Fnv1a64(route_key);
      }
    }

    MachineId to = 0;
    if (!trivial_route) {
      Result<WorkerRef> target = ring_.Route(op.spec->name, route_key,
                                             *failed);
      if (!target.ok()) {
        lost_failure_->Add();
        continue;
      }
      to = target.value().machine;
    }
    RoutedEvent re;
    re.function_id = static_cast<int32_t>(fid);
    re.work = CombineWork(op.name_hash, route_key_hash);
    re.shard = shard;
    re.split_epoch = split_epoch;
    // The last subscriber takes the event by move — for the common
    // single-subscriber workflow the payload is never copied.
    if (i + 1 == n) {
      re.event = std::move(event);
    } else {
      re.event = event;
    }
    re.event.seq = NextSeq();
    // Exactly-once: stamp the delivery identity the receiver dedups on.
    // Derived after the final seq assignment so each routed copy (one per
    // subscriber) is a distinct delivery.
    if (exactly_once()) {
      re.dedup = DedupIdentity(re.work, re.event.ts, re.event.seq);
    }

    if (to == from) {
      LocalDeliver(from, sender_work, std::move(re));
    } else {
      auto it = std::find_if(remote.begin(), remote.end(),
                             [to](const auto& p) { return p.first == to; });
      if (it == remote.end()) {
        remote.emplace_back(to, std::vector<RoutedEvent>());
        it = remote.end() - 1;
      }
      it->second.push_back(std::move(re));
    }
  }

  for (auto& [to, batch] : remote) {
    FlushRemoteBatch(from, sender_work, to, std::move(batch));
  }
}

void Muppet2Engine::LocalDeliver(MachineId machine_id, uint64_t sender_work,
                                 RoutedEvent re) {
  MachineCtx* machine = Ctx(machine_id);
  if (machine == nullptr) {
    // Only reachable for a hosted sender (to == from implies hosted).
    lost_failure_->Add();
    return;
  }
  if (machine->crashed.load(std::memory_order_acquire)) {
    // Matches the transport Unavailable path: a failed delivery is how
    // crashes are detected (§4.3).
    master_.ReportFailure(machine_id);
    lost_failure_->Add();
    return;
  }
  transport_->CountLocalDelivery();

  int attempts = 0;
  const int kMaxThrottleRetries = 50;
  while (true) {
    inflight_.fetch_add(1, std::memory_order_acq_rel);
    Status s = Dispatch(machine, &re);
    if (s.ok()) return;
    DecInflight(1);

    if (!s.IsResourceExhausted()) {
      lost_failure_->Add();
      return;
    }
    switch (options_.overflow.policy) {
      case OverflowPolicy::kDrop:
        dropped_overflow_->Add();
        return;
      case OverflowPolicy::kOverflowStream: {
        if (re.event.stream == options_.overflow.overflow_stream) {
          dropped_overflow_->Add();
          return;
        }
        redirected_overflow_->Add();
        Event redirected = std::move(re.event);
        redirected.stream = options_.overflow.overflow_stream;
        DeliverEvent(machine_id, sender_work, std::move(redirected));
        return;
      }
      case OverflowPolicy::kThrottle: {
        throttle_.NoteOverflow();
        // A worker emitting to its own (function,key) work unit while its
        // queues are full can never make progress by waiting (§5).
        if (sender_work != 0 && re.work == sender_work) {
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

void Muppet2Engine::FlushRemoteBatch(MachineId from, uint64_t sender_work,
                                     MachineId to,
                                     std::vector<RoutedEvent> batch) {
  Bytes frame;
  EncodeRoutedEventFrame(batch, &frame);
  const size_t n = batch.size();
  size_t accepted = 0;

  // Net-hop spans, recorded on the sender's sink: one per sampled event in
  // the frame, all sharing the frame's send window.
  TraceSink* sink = SinkFor(from);
  Timestamp hop_start = 0;
  if (sink != nullptr) {
    for (const RoutedEvent& re : batch) {
      if (re.event.trace.sampled()) {
        hop_start = clock_->Now();
        break;
      }
    }
  }

  // Cross-process destinations settle in the receiving process: its
  // handler charges its own inflight_ per event, so the sender counting
  // too would double-book (and Drain() here could never observe the
  // remote completion anyway).
  const bool tracked = Hosted(to);
  if (tracked) {
    inflight_.fetch_add(static_cast<int64_t>(n), std::memory_order_acq_rel);
  }
  Status s = transport_->SendBatch(from, to, frame, n, &accepted,
                                  FrameFaultSignature(batch));
  if (hop_start != 0) {
    const Timestamp hop_end = clock_->Now();
    for (const RoutedEvent& re : batch) {
      if (!re.event.trace.sampled()) continue;
      Span hop;
      hop.trace_id = re.event.trace.trace_id;
      hop.span_id = NextSpanId();
      hop.parent_span = re.event.trace.parent_span;
      hop.kind = SpanKind::kNetHop;
      hop.machine = from;
      hop.name = "->m" + std::to_string(to);
      hop.start_us = hop_start;
      hop.end_us = hop_end;
      sink->Record(std::move(hop));
    }
  }
  if (s.ok()) return;
  if (tracked) DecInflight(static_cast<int64_t>(n - accepted));

  if (s.IsUnavailable()) {
    master_.ReportFailure(to);
    lost_failure_->Add(static_cast<int64_t>(n - accepted));
    return;
  }
  if (!s.IsResourceExhausted()) {
    lost_failure_->Add(static_cast<int64_t>(n - accepted));
    return;
  }
  // The receiver took a prefix and declined the rest; the remainder goes
  // through the per-event overflow path (§4.3).
  for (size_t i = accepted; i < n; ++i) {
    RemoteDeliverOne(from, sender_work, to, std::move(batch[i]));
  }
}

void Muppet2Engine::RemoteDeliverOne(MachineId from, uint64_t sender_work,
                                     MachineId to, RoutedEvent re) {
  Bytes frame;
  uint64_t signature = 0;
  {
    // Frame of one; encoded once, resent verbatim on throttle retries.
    std::vector<RoutedEvent> one;
    one.push_back(std::move(re));
    EncodeRoutedEventFrame(one, &frame);
    signature = FrameFaultSignature(one);
    re = std::move(one.front());
  }

  // One hop span covering the whole retry loop (ends at any return).
  ScopedSpan hop;
  hop.Begin(SinkFor(from), clock_, re.event.trace, SpanKind::kNetHop, from,
            "->m" + std::to_string(to));

  const bool tracked = Hosted(to);
  int attempts = 0;
  const int kMaxThrottleRetries = 50;
  while (true) {
    size_t accepted = 0;
    if (tracked) inflight_.fetch_add(1, std::memory_order_acq_rel);
    Status s = transport_->SendBatch(from, to, frame, 1, &accepted, signature);
    if (s.ok()) return;
    if (tracked) DecInflight(1);

    if (s.IsUnavailable()) {
      master_.ReportFailure(to);
      lost_failure_->Add();
      return;
    }
    if (!s.IsResourceExhausted()) {
      lost_failure_->Add();
      return;
    }
    switch (options_.overflow.policy) {
      case OverflowPolicy::kDrop:
        dropped_overflow_->Add();
        return;
      case OverflowPolicy::kOverflowStream: {
        if (re.event.stream == options_.overflow.overflow_stream) {
          dropped_overflow_->Add();
          return;
        }
        redirected_overflow_->Add();
        Event redirected = std::move(re.event);
        redirected.stream = options_.overflow.overflow_stream;
        DeliverEvent(from, sender_work, std::move(redirected));
        return;
      }
      case OverflowPolicy::kThrottle: {
        throttle_.NoteOverflow();
        if (sender_work != 0 && re.work == sender_work && to == from) {
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

Status Muppet2Engine::HandleIncoming(MachineId from, MachineId to,
                                     BytesView payload) {
  MachineCtx* machine = Ctx(to);
  if (machine == nullptr) {
    return Status::Unavailable("machine not hosted here");
  }
  if (machine->crashed.load()) {
    return Status::Unavailable("machine crashed");
  }
  RoutedEvent re;
  MUPPET_RETURN_IF_ERROR(DecodeRoutedEvent(payload, &re));
  const int32_t fid = op_names_.Find(re.function);
  if (fid < 0) return Status::NotFound("unknown function");
  re.function_id = fid;
  re.work = CombineWork(ops_[static_cast<size_t>(fid)].name_hash,
                        Fnv1a64(re.event.key));
  // A sender in another process never touched this engine's inflight_;
  // charge it here so Drain()/watchdog accounting tracks the event until
  // a worker settles it (the DecInflight calls below balance this charge
  // exactly as they balance an in-process sender's).
  const bool external = !Hosted(from);
  if (external) inflight_.fetch_add(1, std::memory_order_acq_rel);
  const uint64_t dedup_id =
      (re.ctl == kCtlNone && machine->dedup != nullptr) ? re.dedup : 0;
  // Reserve the identity atomically before dispatch: a check-then-record
  // pattern would let two concurrent deliveries of the same identity (a
  // redelivered batch racing the original during recovery) both pass the
  // check and double-apply the event.
  if (dedup_id != 0 && !machine->dedup->CheckAndInsert(dedup_id)) {
    deduped_->Add();
    DecInflight(1);
    return Status::OK();
  }
  Status s = Dispatch(machine, &re);
  // A declined push (queue full) is retried by the sender; unwind the
  // reservation so the retry is not mistaken for a duplicate.
  if (!s.ok()) {
    if (dedup_id != 0) machine->dedup->Remove(dedup_id);
    if (external) DecInflight(1);
  }
  return s;
}

Status Muppet2Engine::HandleIncomingFrame(MachineId from, MachineId to,
                                          BytesView frame, size_t count,
                                          size_t* accepted) {
  (void)count;
  // *accepted carries the resume offset IN: events at the head of the frame
  // that a previous partial delivery of this exact frame already settled
  // (the TCP backend re-presents a frame after a queue-full decline; the
  // in-memory transport always passes 0). Those are skipped wholesale —
  // re-running them through dedup would double-count deduped_ and, for
  // control events with no dedup identity, double-apply them.
  const size_t skip = *accepted;
  MachineCtx* machine = Ctx(to);
  if (machine == nullptr) {
    return Status::Unavailable("machine not hosted here");
  }
  if (machine->crashed.load()) {
    return Status::Unavailable("machine crashed");
  }
  // A sender in another process never touched this engine's inflight_;
  // charge each event here so Drain()/watchdog accounting tracks it until
  // a worker settles it. In-process senders pre-charged in FlushRemoteBatch.
  const bool external = !Hosted(from);
  RoutedEventFrameReader reader(frame);
  RoutedEvent re;
  size_t index = 0;
  while (reader.Next(&re)) {
    if (index < skip) {
      ++index;
      continue;
    }
    ++index;
    if (re.function_id < 0 ||
        static_cast<size_t>(re.function_id) >= ops_.size()) {
      return Status::Corruption("wire: frame names unknown function id");
    }
    if (external) inflight_.fetch_add(1, std::memory_order_acq_rel);
    // Exactly-once suppression: a data event whose delivery identity this
    // machine already processed (a redelivered batch after the recovery
    // epoch cut, or an injector duplicate) settles here as deduped. The
    // identity is reserved atomically BEFORE dispatch — check-then-record
    // would let two concurrent deliveries of the same identity both pass
    // the check — and unwound if the push is declined (queue full) so the
    // sender's retry is not mistaken for a duplicate.
    const uint64_t dedup_id =
        (re.ctl == kCtlNone && machine->dedup != nullptr) ? re.dedup : 0;
    if (dedup_id != 0 && !machine->dedup->CheckAndInsert(dedup_id)) {
      deduped_->Add();
      DecInflight(1);
      ++*accepted;
      continue;
    }
    Status s = Dispatch(machine, &re);
    if (!s.ok()) {
      if (dedup_id != 0) machine->dedup->Remove(dedup_id);
      if (external) DecInflight(1);
      return s;
    }
    ++*accepted;
  }
  if (reader.corrupt()) {
    return Status::Corruption("wire: malformed routed event frame");
  }
  return Status::OK();
}

Status Muppet2Engine::Dispatch(MachineCtx* machine, RoutedEvent* re) {
  // All enqueue paths (local fast path, remote frames, legacy payloads)
  // funnel through here, so the queue-wait measurement starts now: a span
  // for traced events, the muppet_queue_wait_us histogram for all events
  // (the load manager's before/after-split p99 signal).
  re->enqueue_ts = clock_->Now();

  const size_t W = machine->threads.size();
  const uint64_t work = re->work;
  const size_t primary = Mix64(work) % W;

  if (!options_.enable_two_choice || W == 1) {
    return machine->threads[primary]->queue->TryPushMove(re);
  }

  size_t secondary = Mix64(work ^ 0x5ec0dULL) % W;
  if (secondary == primary) secondary = (primary + 1) % W;

  // "an incoming event locks no more than two queues": the sticky-owner
  // check reads the candidates' `current` atomics, the balance check reads
  // their lock-free sizes, and the push locks only the chosen queue (plus,
  // at worst, the other candidate on fallback). Concurrent dispatchers may
  // pick from a stale size — the pick is a heuristic — but every event for
  // a given work unit still lands on one of the same two queues, which is
  // what bounds slate ownership to two threads (§4.5).
  ThreadCtx* tp = machine->threads[primary].get();
  ThreadCtx* ts = machine->threads[secondary].get();

  size_t choice;
  if (tp->current.load(std::memory_order_acquire) == work) {
    choice = primary;
  } else if (ts->current.load(std::memory_order_acquire) == work) {
    choice = secondary;
  } else if (ts->queue->size() +
                 static_cast<size_t>(options_.secondary_queue_bias) <
             tp->queue->size()) {
    choice = secondary;
  } else {
    choice = primary;
  }
  if (choice == secondary) secondary_dispatch_->Add();

  Status s = machine->threads[choice]->queue->TryPushMove(re);
  if (s.IsResourceExhausted()) {
    // Try the other candidate before declining to the sender.
    const size_t other = (choice == primary) ? secondary : primary;
    if (other == secondary) secondary_dispatch_->Add();
    s = machine->threads[other]->queue->TryPushMove(re);
  }
  return s;
}

void Muppet2Engine::RunLane(MachineBase* base, size_t lane) {
  MachineCtx* machine = static_cast<MachineCtx*>(base);
  ThreadCtx* thread = machine->threads[lane].get();
  std::vector<RoutedEvent> batch;
  batch.reserve(kWorkerPopBatch);
  while (thread->queue->PopBatch(&batch, kWorkerPopBatch)) {
    for (RoutedEvent& re : batch) {
      if (re.enqueue_ts != 0) {
        queue_wait_->Record(clock_->Now() - re.enqueue_ts);
      }
      if (re.event.trace.sampled() && machine->trace_sink != nullptr &&
          re.enqueue_ts != 0) {
        Span wait;
        wait.trace_id = re.event.trace.trace_id;
        wait.span_id = NextSpanId();
        wait.parent_span = re.event.trace.parent_span;
        wait.kind = SpanKind::kQueueWait;
        wait.machine = machine->id;
        wait.name = ops_[static_cast<size_t>(re.function_id)].spec->name;
        wait.start_us = re.enqueue_ts;
        wait.end_us = clock_->Now();
        machine->trace_sink->Record(std::move(wait));
      }
      thread->current.store(re.work, std::memory_order_release);
      const Status s = ProcessOne(machine, re);
      thread->current.store(0, std::memory_order_release);
      SettleLane(machine, lane, s);
    }
    batch.clear();
  }
}

Status Muppet2Engine::ProcessOne(MachineCtx* machine, const RoutedEvent& re) {
  if (re.ctl != kCtlNone) return ProcessControl(machine, re);

  const size_t fid = static_cast<size_t>(re.function_id);
  const OpInfo& op = ops_[fid];
  const OperatorSpec& spec = *op.spec;
  const Event& event = re.event;
  const uint64_t work = re.work;

  // Exec span: wraps the operator invocation; emitted events and the
  // slate fetch parent to it. Disarmed (one branch) for untraced events.
  ScopedSpan exec;
  TraceSink* sink = event.trace.sampled() ? machine->trace_sink.get() : nullptr;

  if (spec.kind == OperatorKind::kMapper) {
    exec.Begin(sink, clock_, event.trace, SpanKind::kMapExec, machine->id,
               spec.name);
    DirectUtilities utils(this, machine, event, spec.name,
                          /*is_updater=*/false, work, nullptr,
                          exec.span_id());
    machine->mappers[fid]->Map(utils, event);
    // Mappers never write slates; in exactly-once mode the processed
    // identity still has to reach the changelog (kMark) so replay can
    // re-seed the dedup table past the crash.
    if (re.dedup != 0 && machine->changelog != nullptr) {
      AppendSlateLog(machine, SlateLogKind::kMark, spec.name, event.key,
                     BytesView(), event, work, re.dedup);
    }
  } else {
    // Up to two threads can vie for the same slate (§4.5); the striped
    // lock serializes the contending pair.
    bool contended = false;
    MutexLock guard(machine->slate_locks[work % kSlateLockStripes],
                    &contended);
    if (contended) slate_contention_->Add();

    // Shard validation, inside the stripe lock so it cannot race a merge
    // sweep of the same shard: an event routed under a split epoch that
    // has since moved on (split widened, merge begun or finished) must
    // not touch the stale shard slate — it re-enters delivery under its
    // base key instead.
    Bytes shard_key;
    BytesView slate_key = event.key;
    if (re.shard >= 0) {
      SplitTable::State state;
      const bool live =
          split_table_.Lookup(re.function_id, event.key, &state) &&
          state.epoch == re.split_epoch && !state.draining;
      if (!live) {
        ReshardToBase(machine, re);
        return Status::OK();
      }
      shard_key = MakeSplitKey(event.key, re.shard);
      slate_key = shard_key;
    }

    exec.Begin(sink, clock_, event.trace, SpanKind::kUpdateExec, machine->id,
               spec.name);

    Bytes slate;
    bool has_slate = false;
    const char* fetch_source = nullptr;
    {
      ScopedSpan fetch;
      fetch.Begin(sink, clock_,
                  TraceContext{event.trace.trace_id, exec.span_id()},
                  SpanKind::kSlateFetch, machine->id, spec.name);
      Status s = FetchThroughCache(machine->cache.get(), spec.name, slate_key,
                                   &slate, &fetch_source);
      if (fetch_source != nullptr) fetch.set_note(fetch_source);
      if (s.ok()) {
        has_slate = true;
      } else if (!s.IsNotFound()) {
        return s;
      }
    }
    DirectUtilities utils(this, machine, event, spec.name,
                          /*is_updater=*/true, work,
                          &spec.updater_options, exec.span_id(), slate_key,
                          re.dedup);
    machine->updaters[fid]->Update(utils, event,
                                   has_slate ? &slate : nullptr);
    // An updater that chose not to touch its slate still consumed the
    // event; mark the identity for exactly-once replay seeding.
    if (re.dedup != 0 && !utils.wrote_slate() &&
        machine->changelog != nullptr) {
      AppendSlateLog(machine, SlateLogKind::kMark, spec.name, slate_key,
                     BytesView(), event, work, re.dedup);
    }
  }
  exec.End();

  op_processed_[fid]->Add();
  processed_->Add();
  if (event.origin_ts > 0) {
    latency_->Record(clock_->Now() - event.origin_ts);
  }
  return Status::OK();
}

// Merge sweeps and deltas run as engine-level control events, never
// reaching operator code. Both count processed_ when consumed (their
// injection counted emitted_), keeping chaos conservation accounting
// exact; neither counts op_processed_ or latency (origin_ts is 0).
Status Muppet2Engine::ProcessControl(MachineCtx* machine,
                                     const RoutedEvent& re) {
  const OpInfo& op = ops_[static_cast<size_t>(re.function_id)];
  const std::string& name = op.spec->name;

  if (re.ctl == kCtlMergeSweep) {
    // Read-and-delete the shard slate under its stripe lock (the same
    // lock shard events serialize on), then forward the bytes toward the
    // base key's owner. Safe under any interleaving: an associative fold
    // moves slate mass, never duplicates or drops it — even a straggler
    // sweep arriving after the merge finished (or after the key re-split)
    // just moves that shard's mass home early.
    const Bytes shard_key = MakeSplitKey(re.event.key, re.shard);
    Bytes slate;
    bool found = false;
    {
      MutexLock guard(machine->slate_locks[re.work % kSlateLockStripes]);
      Status s =
          FetchThroughCache(machine->cache.get(), name, shard_key, &slate);
      if (s.ok()) {
        found = true;
        (void)machine->cache->Delete(SlateId{name, shard_key});
      }
    }
    if (found) {
      split_table_.NoteMergeFound(re.function_id, re.event.key,
                                  static_cast<int64_t>(slate.size()));
      RoutedEvent delta;
      delta.function_id = re.function_id;
      delta.work = CombineWork(op.name_hash, Fnv1a64(re.event.key));
      delta.shard = re.shard;
      delta.split_epoch = re.split_epoch;  // merge round id rides along
      delta.ctl = kCtlMergeDelta;
      delta.event.key = re.event.key;
      delta.event.value = std::move(slate);
      delta.event.seq = NextSeq();
      SendControl(machine->id, re.work, re.event.key, std::move(delta));
    }
    processed_->Add();
    return Status::OK();
  }

  // kCtlMergeDelta: fold the carried shard slate into the base slate via
  // the updater's merger — exactly once per (shard, round), because the
  // fault injector can duplicate the frame and a second fold would
  // overcount.
  const uint64_t dedupe_key = HashCombine(
      HashCombine(HashCombine(static_cast<uint64_t>(re.function_id),
                              Fnv1a64(re.event.key)),
                  static_cast<uint64_t>(re.shard)),
      static_cast<uint64_t>(re.split_epoch));
  {
    MutexLock guard(machine->slate_locks[re.work % kSlateLockStripes]);
    bool fresh = false;
    {
      MutexLock dedupe(machine->merge_dedupe_mutex);
      fresh = machine->merge_applied.insert(dedupe_key).second;
    }
    const SlateMerger& merger = op.spec->updater_options.merger;
    if (fresh && merger != nullptr) {
      Bytes base;
      Status s =
          FetchThroughCache(machine->cache.get(), name, re.event.key, &base);
      const Bytes merged = merger(s.ok() ? &base : nullptr, re.event.value);
      const bool write_through = op.spec->updater_options.flush_policy ==
                                 SlateFlushPolicy::kWriteThrough;
      (void)machine->cache->Update(SlateId{name, re.event.key}, merged,
                                   clock_->Now(), write_through);
    }
  }
  processed_->Add();
  return Status::OK();
}

void Muppet2Engine::ReshardToBase(MachineCtx* machine,
                                  const RoutedEvent& re) {
  const OpInfo& op = ops_[static_cast<size_t>(re.function_id)];
  RoutedEvent base = re;
  base.shard = -1;
  base.split_epoch = 0;
  base.work = CombineWork(op.name_hash, Fnv1a64(base.event.key));
  base.event.seq = NextSeq();
  if (exactly_once()) {
    base.dedup = DedupIdentity(base.work, base.event.ts, base.event.seq);
  }
  const std::set<MachineId> failed = FailedSetFor(machine->id);
  Result<WorkerRef> target =
      ring_.Route(op.spec->name, base.event.key, failed);
  if (!target.ok()) {
    lost_failure_->Add();
    return;
  }
  const MachineId to = target.value().machine;
  if (to == machine->id) {
    LocalDeliver(machine->id, re.work, std::move(base));
  } else {
    RemoteDeliverOne(machine->id, re.work, to, std::move(base));
  }
}

void Muppet2Engine::SendControl(MachineId from, uint64_t sender_work,
                                BytesView route_key, RoutedEvent re) {
  const OpInfo& op = ops_[static_cast<size_t>(re.function_id)];
  // Injection counts emitted_; every downstream path settles it exactly
  // once (processed on consumption, lost/dropped on failure) through the
  // shared delivery machinery.
  emitted_->Add();
  const std::set<MachineId> failed = FailedSetFor(from);
  Result<WorkerRef> target = ring_.Route(op.spec->name, route_key, failed);
  if (!target.ok()) {
    lost_failure_->Add();
    return;
  }
  const MachineId to = target.value().machine;
  if (to == from) {
    LocalDeliver(from, sender_work, std::move(re));
  } else {
    RemoteDeliverOne(from, sender_work, to, std::move(re));
  }
}

Status Muppet2Engine::FetchRoutedSlate(const std::string& updater,
                                       BytesView key,
                                       const std::set<MachineId>& failed,
                                       Bytes* slate) {
  Result<WorkerRef> target = ring_.Route(updater, key, failed);
  if (!target.ok()) return target.status();
  MachineCtx* machine = Ctx(target.value().machine);
  if (machine == nullptr) {
    // The ring routed the key to a machine hosted by another process. A
    // deployment (muppetd) supplies remote_fetch to proxy the read; without
    // it the caller learns the slate is not locally readable.
    if (options_.remote_fetch != nullptr) {
      Result<Bytes> remote =
          options_.remote_fetch(target.value().machine, updater, key);
      if (!remote.ok()) return remote.status();
      *slate = std::move(remote).value();
      return Status::OK();
    }
    return Status::Unavailable("slate owner hosted remotely");
  }
  return FetchThroughCache(machine->cache.get(), updater, key, slate);
}

SlateCache* Muppet2Engine::ReplayCache(MachineBase* machine,
                                       const std::string& /*updater*/,
                                       BytesView /*key*/) {
  return static_cast<MachineCtx*>(machine)->cache.get();
}

Result<Bytes> Muppet2Engine::FetchSlate(const std::string& updater,
                                        BytesView key) {
  if (!started_) return Status::FailedPrecondition("engine not started");
  const OperatorSpec* spec = config_.FindOperator(updater);
  if (spec == nullptr || spec->kind != OperatorKind::kUpdater) {
    return Status::NotFound("no such updater: " + updater);
  }
  const std::set<MachineId> failed = FailedOrCrashed();

  // A split key's state is spread over the base slate plus one slate per
  // shard; fold them with the updater's merger at read time (paper §5
  // Example 6's re-aggregation). Draining entries aggregate the same way
  // — shards the merge sweeps have not collected yet still count here.
  const int32_t fid = op_names_.Find(updater);
  SplitTable::State state;
  if (fid >= 0 && split_table_.Lookup(fid, key, &state) &&
      spec->updater_options.merger != nullptr) {
    Bytes acc;
    bool has = false;
    Bytes part;
    if (FetchRoutedSlate(updater, key, failed, &part).ok()) {
      acc = std::move(part);
      has = true;
    }
    for (int shard = 0; shard < state.shards; ++shard) {
      const Bytes shard_key = MakeSplitKey(key, shard);
      part.clear();
      if (FetchRoutedSlate(updater, shard_key, failed, &part).ok()) {
        acc = spec->updater_options.merger(has ? &acc : nullptr, part);
        has = true;
      }
    }
    if (!has) return Status::NotFound("slate absent");
    return acc;
  }

  Bytes slate;
  Status s = FetchRoutedSlate(updater, key, failed, &slate);
  if (!s.ok()) return s;
  return slate;
}

size_t Muppet2Engine::LargestQueueDepth() const {
  size_t largest = 0;
  for (const auto& slot : machines_) {
    const auto* machine = static_cast<const MachineCtx*>(slot.get());
    if (machine == nullptr) continue;
    for (const auto& thread_ctx : machine->threads) {
      largest = std::max(largest, thread_ctx->queue->size());
    }
  }
  return largest;
}

void Muppet2Engine::LoadManagerLoop() {
  int tick = 0;
  while (!shutdown_.load(std::memory_order_acquire)) {
    clock_->SleepFor(options_.load_manager.tick_micros);
    if (shutdown_.load(std::memory_order_acquire)) break;
    // Pause handshake (seq_cst on purpose: the store of idle_ must be
    // ordered against the load of paused_, and the pauser's store of
    // paused_ against its load of idle_ — release/acquire alone permits
    // both sides to miss each other and a tick to run after
    // PauseLoadManagement returned).
    lm_idle_.store(false);
    if (lm_paused_.load()) {
      lm_idle_.store(true);
      continue;
    }
    LoadManagerTick(tick++);
    lm_idle_.store(true);
  }
  lm_idle_.store(true);
}

void Muppet2Engine::PauseLoadManagement() {
  if (!options_.load_manager.enabled) return;
  lm_paused_.store(true);
  while (!lm_idle_.load()) {
    // Settle spin against the load-manager thread: waits on lm_idle_,
    // not on simulated time, so routing it through Clock would deadlock
    // a paused virtual clock.
    // muppet-lint: allow(determinism): bounded real-time settle spin
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

void Muppet2Engine::LoadManagerTick(int tick) {
  const LoadManagerOptions& opt = options_.load_manager;

  // --- Gather signals: decayed heat aggregated across machines, hottest
  // queue occupancy, and the live split set.
  LoadSignals signals;
  std::map<std::pair<int32_t, Bytes>, int64_t> agg;
  for (const auto& slot : machines_) {
    const auto* machine = static_cast<const MachineCtx*>(slot.get());
    if (machine == nullptr || machine->heat == nullptr ||
        machine->crashed.load(std::memory_order_acquire)) {
      continue;
    }
    machine->heat->Decay(opt.heat_decay);
    signals.sampled_total += machine->heat->sampled_total();
    for (HeatEntry& e : machine->heat->TopK(opt.heat.capacity)) {
      agg[{e.function_id, std::move(e.key)}] += e.count;
    }
  }
  signals.top.reserve(agg.size());
  for (const auto& [fk, count] : agg) {
    signals.top.push_back(HeatReading{fk.first, fk.second, count});
  }
  std::stable_sort(signals.top.begin(), signals.top.end(),
                   [](const HeatReading& a, const HeatReading& b) {
                     return a.count > b.count;
                   });
  for (const auto& slot : machines_) {
    const auto* machine = static_cast<const MachineCtx*>(slot.get());
    if (machine == nullptr) continue;
    if (machine->crashed.load(std::memory_order_acquire)) continue;
    for (const auto& thread_ctx : machine->threads) {
      const double occ =
          static_cast<double>(thread_ctx->queue->size()) /
          static_cast<double>(std::max<size_t>(1, options_.queue_capacity));
      signals.max_queue_occupancy =
          std::max(signals.max_queue_occupancy, occ);
    }
  }
  std::vector<SplitTable::Entry> entries = split_table_.Entries();
  for (const auto& e : entries) {
    signals.active_splits.push_back(
        LoadSignals::ActiveSplit{e.function_id, e.key, e.state.draining});
  }

  LoadActions actions = lm_controller_->Tick(signals);

  // --- Throttle: occupancy-driven floor under the decaying overflow
  // signal (source-only, so deadlock-free; §5).
  throttle_.SetFloorDelayMicros(actions.floor_delay_micros);

  // --- Splits: only updaters that declared their computation associative
  // and commutative (and provided a merger) may split (§5, Example 6).
  for (const auto& split : actions.splits) {
    if (split.function_id < 0 ||
        static_cast<size_t>(split.function_id) >= ops_.size()) {
      continue;
    }
    const OperatorSpec& spec =
        *ops_[static_cast<size_t>(split.function_id)].spec;
    if (spec.kind != OperatorKind::kUpdater) continue;
    if (spec.updater_options.associativity !=
        Associativity::kAssociativeCommutative) {
      continue;
    }
    if (spec.updater_options.merger == nullptr) continue;
    if (split_table_.Split(split.function_id, split.key, split.shards)) {
      splits_installed_->Add();
    }
  }

  // --- Merges: flip cooled-off splits to draining...
  for (const auto& [mfid, mkey] : actions.merges) {
    if (split_table_.BeginMerge(mfid, mkey)) {
      merge_progress_[{mfid, mkey}] = MergeProgress{};
    }
  }

  // ...and drive the draining ones: one sweep round per tick per key,
  // finishing after merge_quiet_ticks consecutive rounds that found no
  // shard slate (one quiet round can race the last in-flight shard
  // events; two in a row cannot, since draining keys route unsplit).
  entries = split_table_.Entries();
  for (const auto& e : entries) {
    if (!e.state.draining) continue;
    MergeProgress& progress = merge_progress_[{e.function_id, e.key}];
    const int64_t found =
        split_table_.TakeMergeFound(e.function_id, e.key);
    if (progress.rounds > 0) {
      progress.quiet = found > 0 ? 0 : progress.quiet + 1;
    }
    if (progress.quiet >= opt.merge_quiet_ticks) {
      split_table_.Finish(e.function_id, e.key);
      merge_progress_.erase({e.function_id, e.key});
      merges_completed_->Add();
      continue;
    }
    InjectMergeSweeps(e.function_id, e.key, e.state);
    ++progress.rounds;
  }

  // --- Placement feedback, every placement_period_ticks.
  if (opt.placement_enabled && opt.placement_period_ticks > 0 &&
      (tick + 1) % opt.placement_period_ticks == 0) {
    ApplyPlacement();
  }
}

void Muppet2Engine::InjectMergeSweeps(int32_t function_id, const Bytes& key,
                                      const SplitTable::State& state) {
  const uint32_t round =
      merge_round_seq_.fetch_add(1, std::memory_order_relaxed);
  const OpInfo& op = ops_[static_cast<size_t>(function_id)];
  for (int shard = 0; shard < state.shards; ++shard) {
    const Bytes shard_key = MakeSplitKey(key, shard);
    RoutedEvent re;
    re.function_id = function_id;
    re.work = CombineWork(op.name_hash, Fnv1a64(shard_key));
    re.shard = shard;
    re.split_epoch = round;  // merge round id, not a split epoch
    re.ctl = kCtlMergeSweep;
    re.event.key = key;
    re.event.seq = NextSeq();
    // The publisher machine (lowest hosted id; §4.1, never a chaos crash
    // victim) originates engine-wide control traffic.
    SendControl(publish_machine_, /*sender_work=*/0, shard_key,
                std::move(re));
  }
}

void Muppet2Engine::ApplyPlacement() {
  const LoadManagerOptions& opt = options_.load_manager;
  PlacementAdvisor advisor(options_.num_machines,
                           opt.placement_balance_slack);
  for (const auto& slot : machines_) {
    const auto* machine = static_cast<const MachineCtx*>(slot.get());
    if (machine == nullptr || machine->heat == nullptr) continue;
    for (const HeatEntry& e : machine->heat->TopK(opt.heat.capacity)) {
      if (e.function_id < 0 ||
          static_cast<size_t>(e.function_id) >= ops_.size()) {
        continue;
      }
      advisor.ObserveFlow(machine->id,
                          ops_[static_cast<size_t>(e.function_id)].spec->name,
                          e.key, e.count);
    }
  }
  if (advisor.total_events() == 0) return;

  PlacementAdvisor::Analysis analysis;
  std::vector<PlacementAdvisor::Assignment> proposal =
      advisor.Propose(&analysis);
  std::stable_sort(
      proposal.begin(), proposal.end(),
      [](const PlacementAdvisor::Assignment& a,
         const PlacementAdvisor::Assignment& b) { return a.events > b.events; });
  ring_.ClearAllOverrides();
  size_t applied = 0;
  for (const auto& a : proposal) {
    if (applied >= opt.max_overrides) break;
    // Split keys route per shard; pinning their base key would fight the
    // split. Skip them.
    const int32_t fid = op_names_.Find(a.function);
    SplitTable::State state;
    if (fid >= 0 && split_table_.Lookup(fid, a.key, &state)) continue;
    if (ring_.SetOverride(a.function, a.key, a.machine)) ++applied;
  }
}

std::vector<HotKeyInfo> Muppet2Engine::HotKeys() const {
  std::vector<HotKeyInfo> out;
  if (!started_) return out;
  std::map<std::pair<int32_t, Bytes>, int64_t> agg;
  for (const auto& slot : machines_) {
    const auto* machine = static_cast<const MachineCtx*>(slot.get());
    if (machine == nullptr || machine->heat == nullptr) continue;
    for (HeatEntry& e :
         machine->heat->TopK(options_.load_manager.heat.capacity)) {
      agg[{e.function_id, std::move(e.key)}] += e.count;
    }
  }
  // Splits stay on the panel even when their heat has decayed away.
  for (const auto& e : split_table_.Entries()) {
    agg.emplace(std::make_pair(e.function_id, e.key), 0);
  }
  for (const auto& [fk, count] : agg) {
    if (fk.first < 0 || static_cast<size_t>(fk.first) >= ops_.size()) {
      continue;
    }
    HotKeyInfo info;
    info.function = ops_[static_cast<size_t>(fk.first)].spec->name;
    info.key = fk.second;
    info.sampled_count = count;
    SplitTable::State state;
    if (split_table_.Lookup(fk.first, fk.second, &state)) {
      info.split = true;
      info.shards = state.shards;
      info.split_epoch = state.epoch;
      info.draining = state.draining;
    }
    out.push_back(std::move(info));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const HotKeyInfo& a, const HotKeyInfo& b) {
                     return a.sampled_count > b.sampled_count;
                   });
  return out;
}

void Muppet2Engine::RegisterEngineMetrics() {
  // Load-management plane: the occupancy floor under the source-pacing
  // delay, the live split count, and the ring's placement overrides.
  metrics_.RegisterCallback(
      "muppet_throttle_floor_micros", {}, MetricType::kGauge,
      [this] {
        return static_cast<int64_t>(throttle_.floor_delay_micros());
      });
  metrics_.RegisterCallback(
      "muppet_active_splits", {}, MetricType::kGauge,
      [this] { return static_cast<int64_t>(split_table_.size()); });
  metrics_.RegisterCallback(
      "muppet_ring_overrides", {}, MetricType::kGauge,
      [this] { return static_cast<int64_t>(ring_.override_count()); });

  for (const auto& slot : machines_) {
    const auto* machine = static_cast<const MachineCtx*>(slot.get());
    if (machine == nullptr) continue;
    const MetricLabels m_label = {{"machine", std::to_string(machine->id)}};
    if (machine->heat != nullptr) {
      HeatTracker* heat = machine->heat.get();
      metrics_.RegisterCallback(
          "muppet_heat_samples_total", m_label, MetricType::kCounter,
          [heat] { return heat->samples_recorded(); });
    }
    for (const auto& thread_ptr : machine->threads) {
      ThreadCtx* thread = thread_ptr.get();
      MetricLabels qt_label = m_label;
      qt_label.emplace_back("thread", std::to_string(thread->index));
      metrics_.RegisterCallback(
          "muppet_queue_depth", qt_label, MetricType::kGauge,
          [thread] { return static_cast<int64_t>(thread->queue->size()); });
    }
  }
}

}  // namespace muppet
