// Bounded per-worker event queue. "Each worker has its own queue for input
// events" (§4.1) "maintained in memory"; a full queue *declines* the push,
// triggering the sender's queue-overflow mechanism (§4.3) — so TryPush is
// non-blocking by design.
#ifndef MUPPET_ENGINE_QUEUE_H_
#define MUPPET_ENGINE_QUEUE_H_

#include <atomic>
#include <deque>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "core/event.h"

namespace muppet {

// An event addressed to a specific function (the queue of a Muppet 2.0
// thread holds events for many functions; the destination is part of the
// queued item). The destination travels as the dense interned operator id
// plus the event's (function, key) work hash, both computed exactly once
// when the event is routed — dispatch, processing, the changelog and the
// dedup identity reuse the cached hash instead of re-hashing strings
// (§4.5). Both engines queue and send the same record.
struct RoutedEvent {
  Event event;
  // Interned destination function id (Engine's operator table).
  int32_t function_id = -1;
  // Cached work-unit hash of <function, routing key>; 0 = not computed.
  // For split keys this hashes the shard sub-key, not event.key.
  uint64_t work = 0;
  // Dynamic key splitting (core/keysplit.h SplitTable): the shard this
  // event was routed to (-1 = unsplit). event.key always stays the base
  // key; the shard only widens routing and slate addressing.
  int32_t shard = -1;
  // Exactly-once delivery identity (engine/slatelog.h DedupIdentity): set
  // by the sender when the durability knob is kExactlyOnce, 0 otherwise.
  // The receiving machine suppresses events whose identity it has
  // already processed (redelivered batches after a recovery epoch cut).
  uint64_t dedup = 0;
  // When the event is traced: time it entered this queue, for the
  // queue-wait span. In-memory only — never serialized.
  // muppet-lint: allow(wire): stamped on the receiving machine only
  Timestamp enqueue_ts = 0;
};

class EventQueue {
 public:
  explicit EventQueue(size_t capacity);

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Non-blocking enqueue. ResourceExhausted when full (the §4.3 decline),
  // Aborted after Stop().
  Status TryPush(RoutedEvent item) { return TryPushMove(&item); }

  // Like TryPush but moves *item in only on success; on decline the item
  // is left intact so two-choice dispatch can offer it to the other
  // candidate queue without copying.
  Status TryPushMove(RoutedEvent* item);

  // Blocking dequeue. Returns false when stopped and drained.
  bool Pop(RoutedEvent* out);

  // Blocking batched dequeue: waits for at least one item, then moves up
  // to `max` items into `out` (appended) under a single lock acquisition —
  // the consumer-side amortization of per-event wakeups. Returns false
  // when stopped and drained.
  bool PopBatch(std::vector<RoutedEvent>* out, size_t max);

  // Wake all poppers and refuse further pushes. Remaining items stay
  // poppable (graceful stop) — use Clear() for crash simulation.
  void Stop();

  // Re-open a stopped queue in place (machine restart): clears the sticky
  // stopped flag so pushes are accepted and poppers block again. Reusing
  // the queue object keeps concurrent dispatchers safe — they may hold a
  // pointer to this queue across the crash/restart window.
  void Restart();

  // Drop everything queued; returns how many were discarded.
  size_t Clear();

  // Lock-free approximate size: two-choice dispatch reads the sizes of its
  // two candidate queues on every event, so this must not take the queue
  // lock. The value is exact between operations and only transiently stale
  // while a push/pop is mid-flight.
  size_t size() const { return size_.load(std::memory_order_acquire); }
  size_t capacity() const { return capacity_; }
  // Cumulative events dequeued (Pop/PopBatch). Lock-free read; the
  // watchdog compares successive values as its queue-progress signal.
  int64_t pops() const { return pops_.load(std::memory_order_relaxed); }
  bool stopped() const MUPPET_EXCLUDES(mutex_);

  // Level this queue's mutex occupies in the global lock hierarchy
  // (pinned by tests/common/sync_test.cc against DESIGN.md).
  static constexpr LockLevel kLockLevel = LockLevel::kQueue;

 private:
  const size_t capacity_;
  mutable Mutex mutex_{kLockLevel};
  CondVar not_empty_;
  std::deque<RoutedEvent> items_ MUPPET_GUARDED_BY(mutex_);
  std::atomic<size_t> size_{0};
  std::atomic<int64_t> pops_{0};
  bool stopped_ MUPPET_GUARDED_BY(mutex_) = false;
};

}  // namespace muppet

#endif  // MUPPET_ENGINE_QUEUE_H_
