#include "engine/muppet2.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "engine/wire.h"

namespace muppet {

// PerformerUtilities that routes outputs immediately — no serialization
// within the machine (the 1.0 IPC cost 2.0 eliminates, §4.5). Slate
// writes reach the central cache as they happen.
class Muppet2Engine::DirectUtilities final : public PerformerUtilities {
 public:
  // `exec_span` is the span id of the surrounding operator execution (0
  // when untraced); emitted events parent to it. `slate_key` is the key
  // an updater's slate lives under: the event key normally, the shard
  // sub-key (core/keysplit.h) when the event was routed to a shard of a
  // split hot key.
  DirectUtilities(Muppet2Engine* engine, MachineCtx* machine,
                  const RoutedEvent& re, uint64_t exec_span,
                  BytesView slate_key = {})
      : engine_(engine),
        machine_(machine),
        re_(re),
        is_updater_(engine->ops_[static_cast<size_t>(re.function_id)]
                        .spec->kind == OperatorKind::kUpdater),
        exec_span_(exec_span),
        slate_key_(slate_key) {}

  Status Publish(const std::string& stream, BytesView key,
                 BytesView value) override {
    return PublishAt(stream, key, value, re_.event.ts + 1);
  }

  Status PublishAt(const std::string& stream, BytesView key, BytesView value,
                   Timestamp ts) override {
    Event out;
    MUPPET_RETURN_IF_ERROR(BuildEmittedEvent(engine_->config_, re_.event,
                                             stream, key, value, ts, &out));
    // A traced input's outputs stay in its trace, parented to this
    // operator execution.
    out.trace.trace_id = re_.event.trace.trace_id;
    out.trace.parent_span = exec_span_;
    engine_->emitted_->Add();
    engine_->DeliverEvent(machine_->id, re_.work, std::move(out));
    return Status::OK();
  }

  Status ReplaceSlate(BytesView slate) override {
    if (!is_updater_) {
      return Status::FailedPrecondition("mapper cannot replace a slate");
    }
    return Write(SlateLogKind::kUpdate, slate);
  }

  Status DeleteSlate() override {
    if (!is_updater_) {
      return Status::FailedPrecondition("mapper cannot delete a slate");
    }
    return Write(SlateLogKind::kDelete, BytesView());
  }

  const Event& current_event() const override { return re_.event; }

  // Whether the operator wrote (or deleted) its slate; FinishExec marks
  // the event's identity when it did not.
  bool wrote_slate() const { return wrote_slate_; }

 private:
  Status Write(SlateLogKind kind, BytesView value) {
    Status s = engine_->WriteSlate(machine_, machine_->cache.get(), re_,
                                   slate_key_, kind, value);
    if (s.ok()) wrote_slate_ = true;
    return s;
  }

  Muppet2Engine* engine_;
  MachineCtx* machine_;
  const RoutedEvent& re_;
  bool is_updater_;
  uint64_t exec_span_;
  BytesView slate_key_;
  bool wrote_slate_ = false;
};

Muppet2Engine::Muppet2Engine(const AppConfig& config, EngineOptions options)
    : Engine(config, std::move(options), "muppet2"),
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
  // Every machine hosts every function; the ring routes keys among all
  // num_machines ids, hosted here or not.
  for (const OpInfo& op : ops_) {
    for (int mm = 0; mm < options_.num_machines; ++mm) {
      ring_.AddWorker(op.spec->name, WorkerRef{mm, 0});
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
    thread_ctx->queue = std::make_unique<EventQueue>(options_.queue_capacity);
    machine->lanes.push_back({thread_ctx->queue.get(), std::thread()});
    machine->threads.push_back(std::move(thread_ctx));
  }

  MUPPET_RETURN_IF_ERROR(transport_->RegisterMachine(
      id, [this, id, ctx = machine.get()](MachineId from, BytesView frame,
                                          size_t /*count*/,
                                          size_t* accepted) {
        return ReceiveFrame(from, id, frame, accepted, [&](RoutedEvent* re) {
          return Dispatch(ctx, re);
        });
      }));
  *out = std::move(machine);
  return Status::OK();
}

Status Muppet2Engine::Start() {
  MUPPET_RETURN_IF_ERROR(Engine::Start());
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

  const std::vector<uint32_t>& subs = SubscriberIds(event.stream);
  if (subs.empty()) return;

  // The key half of the work hash is shared by every subscriber; hash it
  // once per event (the function half was hashed at Start()).
  const uint64_t key_hash = Fnv1a64(event.key);

  const MachineCtx* sender = Ctx(from);
  std::set<MachineId> failed_copy;
  const std::set<MachineId>& failed = RouteFailedSet(&failed_copy);

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
  const bool trivial_route = machines_.size() == 1 && failed.empty();

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
      Result<WorkerRef> target =
          ring_.Route(op.spec->name, route_key, failed);
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
      SendOne(from, sender_work, to, std::move(re));
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

void Muppet2Engine::SendOne(MachineId from, uint64_t sender_work,
                            MachineId to, RoutedEvent re) {
  auto reroute = [&](Event redirected) {
    DeliverEvent(from, sender_work, std::move(redirected));
  };
  if (to == from) {
    MachineCtx* machine = Ctx(to);
    transport_->CountLocalDelivery();
    // A worker emitting to its own (function,key) work unit (§5).
    const bool self_emit = sender_work != 0 && re.work == sender_work;
    SendRouted(
        to, re.event, self_emit,
        [&] {
          // As on the transport, a failed delivery is how a crash is
          // detected (§4.3).
          if (machine->crashed.load(std::memory_order_acquire)) {
            return Status::Unavailable("machine crashed");
          }
          return Dispatch(machine, &re);
        },
        reroute);
    return;
  }
  // Frame of one; encoded once, resent verbatim on throttle retries.
  Bytes frame;
  EncodeRoutedEventFrame({&re, 1}, &frame);
  const uint64_t signature = FrameFaultSignature({&re, 1});
  // One hop span covering the whole send (ends at return).
  ScopedSpan hop;
  hop.Begin(SinkFor(from), clock_, re.event.trace, SpanKind::kNetHop,
            Machine(from)->hop_labels[static_cast<size_t>(to)]);
  // A remote queue is never one the sending worker drains.
  SendRouted(
      to, re.event, /*self_emit=*/false,
      [&] {
        size_t accepted = 0;
        return transport_->SendBatch(from, to, frame, 1, &accepted,
                                     signature);
      },
      reroute);
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
    const SpanLabel hop = Machine(from)->hop_labels[static_cast<size_t>(to)];
    for (const RoutedEvent& re : batch) {
      if (re.event.trace.sampled()) {
        sink->Record(re.event.trace, SpanKind::kNetHop, hop, hop_start,
                     hop_end);
      }
    }
  }
  if (s.ok()) return;
  const int64_t unsent = static_cast<int64_t>(n - accepted);
  if (tracked) DecInflight(unsent);
  if (SettleFailedSend(to, s, unsent)) return;
  // The receiver took a prefix and declined the rest; each declined event
  // goes through the per-event §4.3 send.
  for (size_t i = accepted; i < n; ++i) {
    SendOne(from, sender_work, to, std::move(batch[i]));
  }
}

Status Muppet2Engine::Dispatch(MachineCtx* machine, RoutedEvent* re) {
  // Both enqueue paths (local fast path, remote frames) funnel through
  // here, so the queue-wait measurement starts now: a span
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
  } else if (ts->queue->size() + kSecondaryQueueBias < tp->queue->size()) {
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
        machine->trace_sink->Record(
            re.event.trace, SpanKind::kQueueWait,
            machine->trace_labels[static_cast<size_t>(re.function_id)],
            re.enqueue_ts, clock_->Now());
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
  const Event& event = re.event;

  // Exec span: wraps the operator invocation; emitted events and the
  // slate fetch parent to it. Disarmed (one branch) for untraced events.
  ScopedSpan exec;
  if (ops_[fid].spec->kind == OperatorKind::kMapper) {
    exec.Begin(machine->trace_sink.get(), clock_, event.trace,
               SpanKind::kMapExec, machine->trace_labels[fid]);
    DirectUtilities utils(this, machine, re, exec.span_id());
    machine->mappers[fid]->Map(utils, event);
    FinishExec(machine, re, event.key, /*wrote_slate=*/false, &exec);
    return Status::OK();
  }

  // Up to two threads can vie for the same slate (§4.5); the striped
  // lock serializes the contending pair.
  bool contended = false;
  MutexLock guard(machine->slate_locks[re.work % kSlateLockStripes],
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

  exec.Begin(machine->trace_sink.get(), clock_, event.trace,
             SpanKind::kUpdateExec, machine->trace_labels[fid]);
  Bytes slate;
  bool has_slate = false;
  MUPPET_RETURN_IF_ERROR(FetchForExec(machine, machine->cache.get(), re,
                                      slate_key, exec.span_id(), &slate,
                                      &has_slate));
  DirectUtilities utils(this, machine, re, exec.span_id(), slate_key);
  machine->updaters[fid]->Update(utils, event, has_slate ? &slate : nullptr);
  FinishExec(machine, re, slate_key, utils.wrote_slate(), &exec);
  return Status::OK();
}

// Merge sweeps and deltas run as engine-level control events, never
// reaching operator code. Both count processed_ when consumed (their
// injection counted emitted_), keeping chaos conservation accounting
// exact; neither counts OpInfo::processed or latency (origin_ts is 0).
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
        (void)WriteSlate(machine, machine->cache.get(), re, shard_key,
                         SlateLogKind::kDelete);
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
    const bool fresh = machine->merge_applied.CheckAndInsert(dedupe_key);
    const SlateMerger& merger = op.spec->updater_options.merger;
    if (fresh && merger != nullptr) {
      Bytes base;
      Status s =
          FetchThroughCache(machine->cache.get(), name, re.event.key, &base);
      const Bytes merged = merger(s.ok() ? &base : nullptr, re.event.value);
      (void)WriteSlate(machine, machine->cache.get(), re, re.event.key,
                       SlateLogKind::kUpdate, merged);
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
  RouteAndSendOne(machine->id, re.work, re.event.key, std::move(base));
}

void Muppet2Engine::SendControl(MachineId from, uint64_t sender_work,
                                BytesView route_key, RoutedEvent re) {
  // Injection counts emitted_; every downstream path settles it exactly
  // once (processed on consumption, lost/dropped on failure) through the
  // shared delivery machinery.
  emitted_->Add();
  RouteAndSendOne(from, sender_work, route_key, std::move(re));
}

void Muppet2Engine::RouteAndSendOne(MachineId from, uint64_t sender_work,
                                    BytesView route_key, RoutedEvent re) {
  const OpInfo& op = ops_[static_cast<size_t>(re.function_id)];
  std::set<MachineId> failed_copy;
  Result<WorkerRef> target = ring_.Route(op.spec->name, route_key,
                                         RouteFailedSet(&failed_copy));
  if (!target.ok()) {
    lost_failure_->Add();
    return;
  }
  SendOne(from, sender_work, target.value().machine, std::move(re));
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

Status Muppet2Engine::ReadLiveSlate(uint32_t op, BytesView key,
                                    const std::set<MachineId>& failed,
                                    Bytes* slate) {
  const OperatorSpec& spec = *ops_[op].spec;
  // Paper §5 Example 6's re-aggregation. Draining entries aggregate the
  // same way — shards the merge sweeps have not collected yet still count
  // here.
  SplitTable::State state;
  if (!split_table_.Lookup(static_cast<int32_t>(op), key, &state) ||
      spec.updater_options.merger == nullptr) {
    return FetchRoutedSlate(spec.name, key, failed, slate);
  }
  bool has = FetchRoutedSlate(spec.name, key, failed, slate).ok();
  Bytes part;
  for (int shard = 0; shard < state.shards; ++shard) {
    part.clear();
    if (FetchRoutedSlate(spec.name, MakeSplitKey(key, shard), failed, &part)
            .ok()) {
      *slate = spec.updater_options.merger(has ? slate : nullptr, part);
      has = true;
    }
  }
  return has ? Status::OK() : Status::NotFound("slate absent");
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
  while (WaitTick(options_.load_manager.tick_micros)) {
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
    LoadManagerTick();
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

void Muppet2Engine::LoadManagerTick() {
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
  // finishing after kMergeQuietTicks consecutive rounds that found no
  // shard slate (one quiet round can race the last in-flight shard
  // events; two in a row cannot, since draining keys route unsplit).
  constexpr int kMergeQuietTicks = 2;
  entries = split_table_.Entries();
  for (const auto& e : entries) {
    if (!e.state.draining) continue;
    MergeProgress& progress = merge_progress_[{e.function_id, e.key}];
    const int64_t found =
        split_table_.TakeMergeFound(e.function_id, e.key);
    if (progress.rounds > 0) {
      progress.quiet = found > 0 ? 0 : progress.quiet + 1;
    }
    if (progress.quiet >= kMergeQuietTicks) {
      split_table_.Finish(e.function_id, e.key);
      merge_progress_.erase({e.function_id, e.key});
      merges_completed_->Add();
      continue;
    }
    InjectMergeSweeps(e.function_id, e.key, e.state);
    ++progress.rounds;
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
  // delay and the live split count.
  metrics_.RegisterCallback(
      "muppet_throttle_floor_micros", {}, MetricType::kGauge,
      [this] {
        return static_cast<int64_t>(throttle_.floor_delay_micros());
      });
  metrics_.RegisterCallback(
      "muppet_active_splits", {}, MetricType::kGauge,
      [this] { return static_cast<int64_t>(split_table_.size()); });

  for (const auto& slot : machines_) {
    const auto* machine = static_cast<const MachineCtx*>(slot.get());
    if (machine == nullptr) continue;
    if (machine->heat != nullptr) {
      HeatTracker* heat = machine->heat.get();
      metrics_.RegisterCallback(
          "muppet_heat_samples_total",
          {{"machine", std::to_string(machine->id)}}, MetricType::kCounter,
          [heat] { return heat->samples_recorded(); });
    }
  }
}

}  // namespace muppet
