// Scripted, seed-reproducible fault injection for the simulated cluster.
//
// The paper's failure machinery (§4.3–4.4) — dead-peer detection via failed
// sends, master broadcast, hash-ring rerouting, queue-overflow policies —
// is only trustworthy if it can be exercised under *controlled* chaos. A
// FaultPlan is a declarative description of every fault in a run: per-link
// rules (drop / duplicate / reorder / delay, each an independent
// probability over a virtual-time window) plus per-machine actions
// (crash / restart / partition / heal / store-node outages) that fire at
// scripted virtual times. The FaultInjector enforces a plan at runtime.
//
// Determinism contract: the same plan (same seed) applied to the same
// logical message multiset produces the same fault decisions, regardless
// of thread interleaving. Per-message decisions are *content-addressed*:
// each roll is a pure function of
//
//     (plan seed, link, message content signature, occurrence index)
//
// where the occurrence index counts prior messages with the same signature
// on the same link. No shared RNG stream is consumed in message order, so
// two runs whose threads interleave differently still drop/duplicate/hold
// the same multiset of messages. Senders pass a content signature that
// excludes fields assigned from global mutable state (event seq numbers);
// see EventFaultSignature() in engine/wire.h.
#ifndef MUPPET_NET_FAULT_H_
#define MUPPET_NET_FAULT_H_

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/sync.h"
#include "net/transport.h"

namespace muppet {

// Wildcard for FaultRule link endpoints: matches every machine.
constexpr MachineId kAnyMachine = -1;

constexpr Timestamp kFaultTimeMax = INT64_MAX;

// One per-link fault rule, armed while `start_micros <= now < end_micros`
// (virtual time). `from`/`to` of kAnyMachine match any machine. The three
// probabilities are rolled independently per message with precedence
// drop > duplicate > reorder; `delay_micros` applies to every matching
// message (delays from multiple matching rules accumulate).
struct FaultRule {
  MachineId from = kAnyMachine;
  MachineId to = kAnyMachine;
  Timestamp start_micros = 0;
  Timestamp end_micros = kFaultTimeMax;
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
  double reorder_probability = 0.0;
  // A reordered (held) message is released after at most this many later
  // messages on the same link overtake it — the bounded reorder window.
  uint32_t reorder_window = 2;
  Timestamp delay_micros = 0;

  bool Matches(MachineId f, MachineId t, Timestamp now) const {
    return (from == kAnyMachine || from == f) &&
           (to == kAnyMachine || to == t) && now >= start_micros &&
           now < end_micros;
  }

  std::string ToString() const;
};

// One scripted cluster action, fired once when virtual time reaches
// `at_micros`. Crash/restart name an engine machine; partition/heal name a
// symmetric machine pair; the store variants name a kvstore node index.
struct FaultAction {
  enum class Kind : uint8_t {
    kCrashMachine,
    kRestartMachine,
    kPartition,
    kHeal,
    kCrashStoreNode,
    kRestoreStoreNode,
  };

  Timestamp at_micros = 0;
  Kind kind = Kind::kCrashMachine;
  MachineId a = kInvalidMachine;  // machine, store node, or pair member A
  MachineId b = kInvalidMachine;  // pair member B (partition/heal only)

  std::string ToString() const;
};

// The full scripted timeline for one run. Chainable builder methods keep
// scenario definitions one-expression readable; ToString() prints the
// replayable timeline that failing tests log next to their seed.
struct FaultPlan {
  uint64_t seed = 1;
  std::vector<FaultRule> rules;
  std::vector<FaultAction> actions;

  FaultPlan& Drop(MachineId from, MachineId to, double p,
                  Timestamp start = 0, Timestamp end = kFaultTimeMax);
  FaultPlan& Duplicate(MachineId from, MachineId to, double p,
                       Timestamp start = 0, Timestamp end = kFaultTimeMax);
  FaultPlan& Reorder(MachineId from, MachineId to, double p, uint32_t window,
                     Timestamp start = 0, Timestamp end = kFaultTimeMax);
  FaultPlan& Delay(MachineId from, MachineId to, Timestamp delay_micros,
                   Timestamp start = 0, Timestamp end = kFaultTimeMax);
  FaultPlan& CrashAt(Timestamp at, MachineId machine);
  FaultPlan& RestartAt(Timestamp at, MachineId machine);
  FaultPlan& PartitionAt(Timestamp at, MachineId a, MachineId b);
  FaultPlan& HealAt(Timestamp at, MachineId a, MachineId b);
  FaultPlan& CrashStoreNodeAt(Timestamp at, int node);
  FaultPlan& RestoreStoreNodeAt(Timestamp at, int node);

  bool empty() const { return rules.empty() && actions.empty(); }

  std::string ToString() const;
};

// What the transport should do with one message.
struct FaultDecision {
  enum class Verdict : uint8_t { kDeliver, kDrop, kDuplicate, kHold };
  Verdict verdict = Verdict::kDeliver;
  // Extra one-way latency charged before delivery (sum of matching rules).
  Timestamp extra_delay_micros = 0;
  // For kHold: release after this many later messages on the link.
  uint32_t hold_for = 0;
};

// Runtime enforcement of a FaultPlan, and the only fault path of the
// in-memory transport: every drop, delay, duplicate, reorder, partition and
// scripted action comes from here. The injector owns the fault timeline's
// clock: rule windows and due actions are read on it, and the transport
// charges rule delays to it. Thread-safe; see the determinism contract in
// the file comment. One injector drives exactly one run.
class FaultInjector {
 public:
  // `clock` is not owned and must outlive the injector.
  FaultInjector(FaultPlan plan, Clock* clock);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultPlan& plan() const { return plan_; }
  Clock* clock() const { return clock_; }

  // Decide the fate of one message on link from->to at the clock's now.
  // `signature` is the sender's content signature (0 = hash the payload —
  // only deterministic when payloads are themselves run-stable).
  FaultDecision OnMessage(MachineId from, MachineId to, BytesView payload,
                          uint64_t signature);

  // True while an unhealed partition separates a and b (symmetric).
  bool Partitioned(MachineId a, MachineId b) const;

  // Pop every scripted action due at or before the clock's now, in
  // timeline order. Each action is returned exactly once; partition/heal
  // actions also update the injector's own partition set as they pass
  // through, so the caller (the harness that owns the injector) only has
  // to apply crash/restart/store actions.
  std::vector<FaultAction> TakeDueActions();

  // Fault counters (fired decisions, not rule matches).
  int64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  int64_t duplicated() const {
    return duplicated_.load(std::memory_order_relaxed);
  }
  int64_t held() const { return held_.load(std::memory_order_relaxed); }
  int64_t delayed() const { return delayed_.load(std::memory_order_relaxed); }
  int64_t partitioned_drops() const {
    return partitioned_drops_.load(std::memory_order_relaxed);
  }

  // Called by the transport when a partition eats a message (counter only).
  void NotePartitionedDrop() {
    partitioned_drops_.fetch_add(1, std::memory_order_relaxed);
  }

  static constexpr LockLevel kLockLevel = LockLevel::kFaultInjector;

 private:
  static std::pair<MachineId, MachineId> NormalizePair(MachineId a,
                                                       MachineId b) {
    return a <= b ? std::make_pair(a, b) : std::make_pair(b, a);
  }

  FaultPlan plan_;  // actions sorted by at_micros at construction
  Clock* const clock_;

  mutable Mutex mutex_{kLockLevel};
  // Index of the first not-yet-fired action.
  size_t next_action_ MUPPET_GUARDED_BY(mutex_) = 0;
  // (link, signature) -> occurrences seen, the per-content roll index.
  std::unordered_map<uint64_t, uint32_t> occurrence_ MUPPET_GUARDED_BY(mutex_);
  std::set<std::pair<MachineId, MachineId>> partitions_
      MUPPET_GUARDED_BY(mutex_);

  std::atomic<int64_t> dropped_{0};
  std::atomic<int64_t> duplicated_{0};
  std::atomic<int64_t> held_{0};
  std::atomic<int64_t> delayed_{0};
  std::atomic<int64_t> partitioned_drops_{0};
};

}  // namespace muppet

#endif  // MUPPET_NET_FAULT_H_
