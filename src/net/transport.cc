#include "net/transport.h"

#include "net/fault.h"

namespace muppet {

InMemoryTransport::InMemoryTransport(TransportOptions options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : SystemClock::Default()),
      rng_(options.seed) {}

Status InMemoryTransport::RegisterMachine(MachineId id, Handler handler) {
  if (handler == nullptr) {
    return Status::InvalidArgument("transport: null handler");
  }
  WriterMutexLock lock(mutex_);
  auto [it, inserted] = machines_.try_emplace(id);
  if (!inserted) {
    return Status::AlreadyExists("transport: machine " + std::to_string(id) +
                                 " already registered");
  }
  it->second = std::make_shared<MachineState>();
  it->second->handler = std::move(handler);
  return Status::OK();
}

void InMemoryTransport::UnregisterMachine(MachineId id) {
  WriterMutexLock lock(mutex_);
  machines_.erase(id);
}

std::shared_ptr<InMemoryTransport::MachineState> InMemoryTransport::FindMachine(
    MachineId id) const {
  ReaderMutexLock lock(mutex_);
  auto it = machines_.find(id);
  if (it == machines_.end()) return nullptr;
  return it->second;
}

Status InMemoryTransport::ChargeHop() {
  if (options_.loss_probability > 0.0) {
    bool drop;
    {
      MutexLock lock(rng_mutex_);
      drop = rng_.Chance(options_.loss_probability);
    }
    if (drop) {
      messages_dropped_.Add();
      return Status::Unavailable("transport: message lost");
    }
  }
  if (options_.hop_latency_micros > 0) {
    clock_->SleepFor(options_.hop_latency_micros);
  }
  return Status::OK();
}

void InMemoryTransport::ApplyDueFaultActions() {
  for (const FaultAction& a :
       options_.faults->TakeDueActions(clock_->Now())) {
    switch (a.kind) {
      case FaultAction::Kind::kCrashMachine:
        Crash(a.a);
        break;
      case FaultAction::Kind::kRestartMachine:
        Restore(a.a);
        break;
      default:
        // Partition/heal update the injector's own state as they pass
        // through TakeDueActions; store actions belong to the engine-level
        // harness.
        break;
    }
  }
}

void InMemoryTransport::HoldMessage(HeldMessage held) {
  MutexLock lock(hold_mutex_);
  holdback_[{held.from, held.to}].push_back(std::move(held));
}

void InMemoryTransport::ReleaseDueHeld(MachineId from, MachineId to) {
  std::vector<HeldMessage> due;
  {
    MutexLock lock(hold_mutex_);
    auto it = holdback_.find({from, to});
    if (it == holdback_.end()) return;
    std::vector<HeldMessage> keep;
    for (HeldMessage& h : it->second) {
      if (h.remaining > 0) --h.remaining;
      if (h.remaining == 0) {
        due.push_back(std::move(h));
      } else {
        keep.push_back(std::move(h));
      }
    }
    if (keep.empty()) {
      holdback_.erase(it);
    } else {
      it->second = std::move(keep);
    }
  }
  for (HeldMessage& h : due) DeliverHeld(std::move(h));
}

void InMemoryTransport::DeliverHeld(HeldMessage held) {
  std::shared_ptr<MachineState> state = FindMachine(held.to);
  int64_t lost = 0;
  if (state == nullptr || !state->up.load(std::memory_order_acquire)) {
    messages_dropped_.Add(static_cast<int64_t>(held.count));
    lost = static_cast<int64_t>(held.count);
  } else {
    size_t accepted = 0;
    frames_sent_.Add();
    Status s = state->handler(held.from, held.data, held.count, &accepted);
    messages_sent_.Add(static_cast<int64_t>(accepted));
    if (s.IsResourceExhausted()) {
      messages_declined_.Add(static_cast<int64_t>(held.count - accepted));
    }
    lost = static_cast<int64_t>(held.count - accepted);
  }
  if (lost > 0 && options_.on_async_loss != nullptr) {
    options_.on_async_loss(lost);
  }
}

void InMemoryTransport::DeliverDuplicate(MachineState* state, MachineId from,
                                         BytesView data, size_t count) {
  messages_duplicated_.Add(static_cast<int64_t>(count));
  // Pre-charge the engine's in-flight counter before any copy can be
  // processed (and decremented) by a worker.
  if (options_.on_extra_delivery != nullptr) {
    options_.on_extra_delivery(static_cast<int64_t>(count));
  }
  size_t accepted = 0;
  frames_sent_.Add();
  (void)state->handler(from, data, count, &accepted);
  messages_sent_.Add(static_cast<int64_t>(accepted));
  const int64_t lost = static_cast<int64_t>(count - accepted);
  if (lost > 0 && options_.on_async_loss != nullptr) {
    options_.on_async_loss(lost);
  }
}

void InMemoryTransport::FlushHeld() {
  std::vector<HeldMessage> all;
  {
    MutexLock lock(hold_mutex_);
    for (auto& [link, vec] : holdback_) {
      for (HeldMessage& h : vec) all.push_back(std::move(h));
    }
    holdback_.clear();
  }
  for (HeldMessage& h : all) DeliverHeld(std::move(h));
}

Status InMemoryTransport::SendBatch(MachineId from, MachineId to,
                                    BytesView frame, size_t count,
                                    size_t* accepted,
                                    uint64_t fault_signature) {
  *accepted = 0;
  FaultInjector* faults = options_.faults;
  if (faults != nullptr && options_.poll_fault_actions &&
      faults->HasDueActions(clock_->Now())) {
    ApplyDueFaultActions();
  }

  std::shared_ptr<MachineState> state = FindMachine(to);
  if (from != to && state != nullptr) {
    state->attempts.fetch_add(1, std::memory_order_relaxed);
  }
  if (state == nullptr || !state->up.load(std::memory_order_acquire)) {
    messages_dropped_.Add(static_cast<int64_t>(count));
    return Status::Unavailable("transport: machine " + std::to_string(to) +
                               " unreachable");
  }

  FaultDecision decision;
  if (from != to && faults != nullptr) {
    if (faults->Partitioned(from, to)) {
      faults->NotePartitionedDrop();
      messages_dropped_.Add(static_cast<int64_t>(count));
      return Status::Unavailable("transport: partition separates " +
                                 std::to_string(from) + " and " +
                                 std::to_string(to));
    }
    decision =
        faults->OnMessage(from, to, frame, fault_signature, clock_->Now());
    if (decision.extra_delay_micros > 0) {
      clock_->SleepFor(decision.extra_delay_micros);
    }
    if (decision.verdict == FaultDecision::Verdict::kDrop) {
      // Whole-frame loss, like the built-in loss model.
      messages_dropped_.Add(static_cast<int64_t>(count));
      return Status::Unavailable("transport: frame dropped by fault plan");
    }
    if (decision.verdict == FaultDecision::Verdict::kHold) {
      // The sender is told OK; the frame delivers once `hold_for` later
      // frames pass it on this link (or at FlushHeld).
      HeldMessage held;
      held.from = from;
      held.to = to;
      held.data.assign(frame);
      held.count = count;
      held.remaining = decision.hold_for;
      HoldMessage(std::move(held));
      messages_held_.Add(static_cast<int64_t>(count));
      bytes_sent_.Add(static_cast<int64_t>(frame.size()));
      *accepted = count;
      return Status::OK();
    }
  }

  if (from != to) {
    Status hop = ChargeHop();
    if (!hop.ok()) {
      // Whole-frame loss: one network message, `count` logical messages.
      messages_dropped_.Add(static_cast<int64_t>(count) - 1);
      return hop;
    }
  }

  frames_sent_.Add();
  bytes_sent_.Add(static_cast<int64_t>(frame.size()));
  Status s = state->handler(from, frame, count, accepted);
  messages_sent_.Add(static_cast<int64_t>(*accepted));
  if (s.IsResourceExhausted()) {
    messages_declined_.Add(static_cast<int64_t>(count - *accepted));
  }

  if (from != to && faults != nullptr) {
    if (decision.verdict == FaultDecision::Verdict::kDuplicate) {
      DeliverDuplicate(state.get(), from, frame, count);
    }
    // This delivery overtakes frames waiting in the reorder window.
    ReleaseDueHeld(from, to);
  }
  return s;
}

int64_t InMemoryTransport::SendAttemptsTo(MachineId id) const {
  std::shared_ptr<MachineState> state = FindMachine(id);
  if (state == nullptr) return 0;
  return state->attempts.load(std::memory_order_relaxed);
}

void InMemoryTransport::Crash(MachineId id) {
  WriterMutexLock lock(mutex_);
  auto it = machines_.find(id);
  if (it != machines_.end()) {
    it->second->up.store(false, std::memory_order_release);
  }
}

void InMemoryTransport::Restore(MachineId id) {
  WriterMutexLock lock(mutex_);
  auto it = machines_.find(id);
  if (it != machines_.end()) {
    it->second->up.store(true, std::memory_order_release);
  }
}

bool InMemoryTransport::IsUp(MachineId id) const {
  ReaderMutexLock lock(mutex_);
  auto it = machines_.find(id);
  return it != machines_.end() &&
         it->second->up.load(std::memory_order_acquire);
}

}  // namespace muppet
