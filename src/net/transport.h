// Cluster transport seam.
//
// The paper runs Muppet on "a cluster of commodity machines ... linked by
// inexpensive gigabit Ethernet" (§6). This repo offers two backends behind
// one abstract `Transport` interface (see DESIGN.md §5 and §12):
//
//  * `InMemoryTransport` — the deterministic in-process fabric the chaos
//    harness and tests replay bit-for-bit: each logical machine registers
//    a delivery handler, SendBatch() routes a frame to the destination
//    machine's handler, applying the faults of an optional FaultInjector
//    (net/fault.h) and nothing else.
//  * `TcpTransport` (net/tcp_transport.h) — an epoll-based async backend
//    that carries the same id-addressed frames over real sockets for the
//    `muppetd` multi-process deployment mode.
//
// The frame is the only thing either backend carries: a frame packs
// `count` logical messages, and a single message is a frame of count 1
// (Muppet 1.0 sends every event that way; Muppet 2.0 coalesces).
//
// Everything the paper's control plane needs is preserved by both:
//
//  * peer-to-peer sends with no master on the data path (§4.1);
//  * a send to a crashed/unreachable machine fails, which is how workers
//    *detect* failures ("If A cannot contact B, then it assumes the
//    machine hosting B has failed", §4.3);
//  * the receiver may decline a message (queue full), which triggers the
//    sender's queue-overflow mechanism (§4.3).
#ifndef MUPPET_NET_TRANSPORT_H_
#define MUPPET_NET_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/sync.h"

namespace muppet {

using MachineId = int32_t;
constexpr MachineId kInvalidMachine = -1;

class FaultInjector;  // net/fault.h

struct TransportOptions {
  // Scripted fault injection (net/fault.h): the only source of drops,
  // delays, duplicates, reorders and partitions, on the injector's clock.
  // Its scripted machine actions are applied by the harness that owns it,
  // never by the transport. Not owned; must outlive the transport.
  // nullptr: every send to a live machine is delivered, and the transport
  // reads no clock.
  FaultInjector* faults = nullptr;
  // Invoked when a logical message whose send already returned OK is later
  // lost or declined (a held reorder delivery that fails, the unaccepted
  // tail of a duplicate copy). Engines balance their in-flight and
  // loss-accounting counters here. Called with no transport lock held.
  std::function<void(int64_t)> on_async_loss;
  // Invoked just before the transport delivers messages the sender never
  // sent (duplicate copies), with the logical message count; engines
  // pre-charge their in-flight counter so the extra processings balance.
  std::function<void(int64_t)> on_extra_delivery;
};

// Abstract thread-safe message fabric between machines. Handlers always
// run with no transport lock held, so they may re-enter the transport
// (e.g. to forward) and take engine locks freely.
class Transport {
 public:
  // Handler invoked when a frame arrives for the machine (on the sender's
  // thread for the in-memory fabric, on the IO thread for the socket
  // backend). `frame` packs `count` logical messages; the handler accepts
  // a *prefix* of them. *accepted is IN-OUT: on entry it carries the
  // resume offset — how many leading messages of this exact frame a
  // previous partial delivery already accepted (the in-memory fabric
  // never redelivers, so it always passes 0; the TCP backend retries a
  // declined frame from where it stopped). On return it holds the TOTAL
  // accepted prefix, including the skipped part. Return OK when all
  // `count` were accepted; ResourceExhausted when the handler stopped at
  // a declined message (queue full); any other error is reported to the
  // sender verbatim.
  using Handler =
      std::function<Status(MachineId from, BytesView frame, size_t count,
                           size_t* accepted)>;

  virtual ~Transport() = default;

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  // Register a machine hosted by THIS transport instance and its delivery
  // handler. Fails with AlreadyExists if the id is taken locally.
  virtual Status RegisterMachine(MachineId id, Handler handler) = 0;

  // Remove a machine entirely (shutdown, not crash).
  virtual void UnregisterMachine(MachineId id) = 0;

  // Deliver a frame of `count` logical messages to machine `to` in one
  // network hop: one registry lookup and one fault decision for the whole
  // frame. Local sends (from == to) bypass the fault plan. *accepted
  // receives how many messages the receiver took (0 when the frame never
  // arrived). Errors: Unavailable
  // (crashed/unknown/dropped/partitioned), ResourceExhausted (receiver
  // declined / send queue full), or whatever the handler returned. For
  // async backends OK means the frame was durably queued for the peer
  // (*accepted = count); delivery failures surface on a later send as
  // Unavailable once the peer is declared down. Fault rules treat the
  // frame as one message (whole-frame drop/duplicate/hold), matching
  // whole-frame loss semantics. `fault_signature` is the content
  // signature handed to the fault injector (0 = hash the frame);
  // irrelevant without faults.
  virtual Status SendBatch(MachineId from, MachineId to, BytesView frame,
                           size_t count, size_t* accepted,
                           uint64_t fault_signature = 0) = 0;

  // Crash a machine: subsequent sends to it fail with Unavailable. The
  // handler is retained so the machine can be restored (tests of
  // recovery). Socket backends apply this to locally hosted machines
  // only; remote reachability is governed by the connection state.
  virtual void Crash(MachineId id) = 0;

  // Bring a crashed machine back.
  virtual void Restore(MachineId id) = 0;

  // Deliver every message still held back by reorder faults, regardless
  // of remaining window. Chaos harnesses call this before Drain() so no
  // accepted-but-undelivered message outlives the run. No-op for
  // backends without a fault plan.
  virtual void FlushHeld() {}

  // Cross-machine send/frame attempts routed at machine `id` since
  // Start, whatever their outcome; held-message releases do not count
  // (they were attempted when first sent). The chaos harness asserts
  // this stops growing once a machine's failure is known cluster-wide —
  // the "ring reroutes send nothing to a dead machine" invariant. 0 for
  // unknown ids (and for backends that don't track it).
  virtual int64_t SendAttemptsTo(MachineId id) const {
    (void)id;
    return 0;
  }

  // Account a same-machine delivery that legitimately bypassed the
  // fabric (the Muppet 2.0 zero-copy fast path): keeps message counters
  // meaningful for status endpoints without touching registry locks.
  void CountLocalDelivery() {
    messages_sent_.Add();
    messages_local_.Add();
  }

  // Fabric-wide delivery stats, maintained by every backend. messages_*
  // count logical messages (each event in a batch frame counts once);
  // frames_sent counts physical cross-machine frames; messages_local
  // counts fast-path deliveries that never serialized.
  int64_t messages_sent() const { return messages_sent_.Get(); }
  int64_t messages_dropped() const { return messages_dropped_.Get(); }
  int64_t messages_declined() const { return messages_declined_.Get(); }
  int64_t messages_local() const { return messages_local_.Get(); }
  int64_t frames_sent() const { return frames_sent_.Get(); }
  int64_t bytes_sent() const { return bytes_sent_.Get(); }
  // Extra logical messages delivered by duplicate faults (each duplicated
  // copy counts its logical message count).
  int64_t messages_duplicated() const { return messages_duplicated_.Get(); }
  // Logical messages accepted into the reorder holdback buffer.
  int64_t messages_held() const { return messages_held_.Get(); }

 protected:
  Transport() = default;

  Counter messages_sent_;
  Counter messages_dropped_;
  Counter messages_declined_;
  Counter messages_local_;
  Counter frames_sent_;
  Counter bytes_sent_;
  Counter messages_duplicated_;
  Counter messages_held_;
};

// The deterministic in-process fabric (the default backend, and the only
// one the chaos harness drives — its one fault model, the FaultInjector,
// is seeded and replayable).
class InMemoryTransport : public Transport {
 public:
  explicit InMemoryTransport(TransportOptions options = {});

  Status RegisterMachine(MachineId id, Handler handler) override;
  void UnregisterMachine(MachineId id) override;
  Status SendBatch(MachineId from, MachineId to, BytesView frame,
                   size_t count, size_t* accepted,
                   uint64_t fault_signature = 0) override;
  void FlushHeld() override;
  void Crash(MachineId id) override;
  void Restore(MachineId id) override;
  // False while `id` is crashed or unknown.
  bool IsUp(MachineId id) const;
  int64_t SendAttemptsTo(MachineId id) const override;

  // Lock-hierarchy levels (pinned by tests/common/sync_test.cc). All are
  // leaves on the send path: FindMachine() drops the registry lock before
  // the receiver's handler runs, and the holdback lock is released before
  // any held message is delivered, so no transport lock is ever held while
  // queue or engine locks are acquired.
  static constexpr LockLevel kRegistryLockLevel = LockLevel::kTransport;
  static constexpr LockLevel kHoldLockLevel = LockLevel::kFaultHold;

 private:
  // Heap-allocated, shared_ptr-held state block per machine: SendBatch()
  // takes a reference under the shared lock instead of copying the handler
  // std::function (a heap allocation per message, pre-optimization).
  struct MachineState {
    Handler handler;
    std::atomic<bool> up{true};
    std::atomic<int64_t> attempts{0};
  };

  // A message accepted from its sender but held back by a reorder fault,
  // released when `remaining` later messages pass it on the link (or at
  // FlushHeld). The frame keeps its logical message count.
  struct HeldMessage {
    MachineId from = kInvalidMachine;
    MachineId to = kInvalidMachine;
    Bytes data;
    size_t count = 1;
    uint32_t remaining = 1;
  };

  // nullptr when unknown. Bumps only a refcount under the shared lock.
  std::shared_ptr<MachineState> FindMachine(MachineId id) const;

  // Park a message in the holdback buffer (reorder fault). The sender has
  // already been told OK.
  void HoldMessage(HeldMessage held);

  // Age the holdback buffer of link from->to by one delivered message and
  // deliver everything whose window expired. Must be called with no
  // transport lock held.
  void ReleaseDueHeld(MachineId from, MachineId to);

  // Deliver one previously-held message (or flush-forced message); loss
  // and decline are settled through on_async_loss since the sender is
  // long gone.
  void DeliverHeld(HeldMessage held);

  // Deliver the extra copy of a duplicated frame.
  void DeliverDuplicate(MachineState* state, MachineId from, BytesView data,
                        size_t count);

  TransportOptions options_;

  mutable SharedMutex mutex_{kRegistryLockLevel};
  std::unordered_map<MachineId, std::shared_ptr<MachineState>> machines_
      MUPPET_GUARDED_BY(mutex_);

  Mutex hold_mutex_{kHoldLockLevel};
  // (from, to) -> held messages in arrival order.
  std::map<std::pair<MachineId, MachineId>, std::vector<HeldMessage>>
      holdback_ MUPPET_GUARDED_BY(hold_mutex_);
};

}  // namespace muppet

#endif  // MUPPET_NET_TRANSPORT_H_
