// Muppet 2.0 (§4.5). Per machine: a dedicated pool of worker threads, any
// of which can run any map or update function; one shared operator
// instance per function; a single central slate cache; a background
// flusher thread for store I/O; and two-choice event dispatch — each
// incoming event hashes to a primary and a secondary queue and is placed
// on the one already processing its (function, key), else on the primary
// unless the secondary is significantly shorter. This bounds slate
// contention to two threads per slate while relieving hotspots.
//
// Datapath (the §4.5 "no serialization within the machine" argument,
// implemented literally):
//  * routed events carry the operator's interned id (Engine's operator
//    table) plus a work hash computed exactly once;
//  * an event routed to the sender's own machine moves straight into
//    dispatch — no wire encode, no transport hop, no decode;
//  * dispatch locks at most the two candidate queues (sticky-owner check
//    via per-thread atomics, lock-free queue size reads) — there is no
//    per-machine dispatch lock;
//  * cross-machine events for one destination are coalesced into a single
//    batch frame, and workers pop events in batches, so both sides of a
//    remote hop amortize per-message overhead and condvar wakeups.
#ifndef MUPPET_ENGINE_MUPPET2_H_
#define MUPPET_ENGINE_MUPPET2_H_

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/heat.h"
#include "core/keysplit.h"
#include "engine/engine.h"

namespace muppet {

class Muppet2Engine final : public Engine {
 public:
  Muppet2Engine(const AppConfig& config, EngineOptions options);
  ~Muppet2Engine() override;

  // The shared runtime, then the load-management control loop.
  Status Start() override;
  std::vector<HotKeyInfo> HotKeys() const override;
  void PauseLoadManagement() override;

  // Test/bench introspection.
  // Events that went to their secondary rather than primary queue.
  int64_t secondary_dispatches() const { return secondary_dispatch_->Get(); }
  // Peak distinct threads that ever held the same slate concurrently is
  // bounded by 2 by construction; this counts lock contentions observed.
  int64_t slate_contentions() const { return slate_contention_->Get(); }
  // Same-machine deliveries that took the zero-serialization fast path.
  int64_t local_fast_path_deliveries() const {
    return transport_->messages_local();
  }
  // Status endpoint data (§4.5: "basic status information (such as the
  // event count of the largest event queues)").
  size_t LargestQueueDepth() const;
  // Live split registry (test/bench introspection; the load manager is
  // the only writer during normal operation).
  SplitTable& split_table() { return split_table_; }
  // Keys split / merges completed by the load manager.
  int64_t key_splits() const { return splits_installed_->Get(); }
  int64_t key_merges() const { return merges_completed_->Get(); }
  // Lock-hierarchy levels for the engine's own locks (pinned by
  // tests/common/sync_test.cc against DESIGN.md). The slate stripe is the
  // outermost lock in the system: an updater's publishes — and so queue,
  // transport, cache, and store acquisitions — all happen under it.
  static constexpr LockLevel kSlateStripeLockLevel = LockLevel::kSlateStripe;

 private:
  static constexpr size_t kSlateLockStripes = 64;
  // Max events a worker drains from its queue per lock acquisition.
  static constexpr size_t kWorkerPopBatch = 32;
  // Two-choice dispatch places an event on the secondary queue only when
  // that queue is at least this many events shorter than the primary
  // ("significantly shorter", §4.5).
  static constexpr size_t kSecondaryQueueBias = 4;

  // One pool thread: its queue (drained by the lane at its index in
  // MachineCtx::threads) and the work unit it is processing.
  struct ThreadCtx {
    std::unique_ptr<EventQueue> queue;
    // Hash of the (function, key) currently being processed; 0 = idle.
    std::atomic<uint64_t> current{0};
  };

  // A Mutex pre-leveled for the slate stripes so the stripe array can be
  // default-constructed.
  struct SlateStripeMutex : Mutex {
    SlateStripeMutex() : Mutex(kSlateStripeLockLevel) {}
  };

  struct MachineCtx : MachineBase {
    std::vector<std::unique_ptr<ThreadCtx>> threads;
    std::unique_ptr<SlateCache> cache;  // the central cache
    // One shared instance per function ("constructed only once and shared
    // by all threads"), indexed by interned function id; the slot of the
    // other kind is null.
    std::vector<std::unique_ptr<Mapper>> mappers;
    std::vector<std::unique_ptr<Updater>> updaters;
    // Striped per-slate locks: the two contending threads serialize here.
    std::array<SlateStripeMutex, kSlateLockStripes> slate_locks;
    // Heat sketch fed by this machine's dispatches (null when the load
    // manager is disabled).
    std::unique_ptr<HeatTracker> heat;
    // Merge-delta dedupe: the fault injector may duplicate a frame, and
    // folding the same shard slate into the base key twice would
    // overcount. Keyed by hash of (function, base key, shard, round).
    // FIFO-bounded: the injector queues a duplicate right behind its
    // original, and a round emits at most LoadController::kMaxSplits *
    // split_shards deltas, far below the table's capacity.
    DedupTable merge_applied{DedupTable::kMachineCapacity};
  };

  class DirectUtilities;

  MachineCtx* Ctx(MachineId m) const {
    return static_cast<MachineCtx*>(Machine(m));
  }

  // Worker-model hooks.
  Status PrepareEngine() override;
  Status BuildMachine(MachineId id,
                      std::unique_ptr<MachineBase>* machine) override;
  // The worker loop of pool thread `lane`.
  void RunLane(MachineBase* machine, size_t lane) override;
  // The central cache holds every slate on the machine.
  SlateCache* ReplayCache(MachineBase* machine, const std::string& updater,
                          BytesView key) override;
  // A split key's state is spread over the base slate plus one slate per
  // shard; they are folded with the updater's merger at read time.
  Status ReadLiveSlate(uint32_t op, BytesView key,
                       const std::set<MachineId>& failed,
                       Bytes* slate) override;
  void RegisterEngineMetrics() override;
  void DeliverPublished(Event event) override;

  Status ProcessOne(MachineCtx* machine, const RoutedEvent& re);

  // Control-plane events (merge sweeps/deltas), intercepted by ProcessOne
  // before the operator would run.
  Status ProcessControl(MachineCtx* machine, const RoutedEvent& re);

  // An event whose shard routing went stale (the split epoch moved on
  // while it was in flight) re-enters delivery under its base key instead
  // of resurrecting a drained shard slate. Counts neither emitted nor
  // processed — like an overflow redirect, the logical event settles once,
  // wherever it finally lands.
  void ReshardToBase(MachineCtx* machine, const RoutedEvent& re);

  // Inject one engine-manufactured control event, routed by `route_key`
  // over the live ring. Counts emitted_ (the consumer counts processed_),
  // so chaos conservation accounting stays exact.
  void SendControl(MachineId from, uint64_t sender_work, BytesView route_key,
                   RoutedEvent re);
  // Route `re` by `route_key` (which must not point into `re`) over
  // `from`'s live ring view and send it alone; lost when no machine is live.
  void RouteAndSendOne(MachineId from, uint64_t sender_work,
                       BytesView route_key, RoutedEvent re);

  // Self-tuning load-management control loop (one engine-wide thread).
  void LoadManagerLoop();
  void LoadManagerTick();
  // One merge-sweep round: a kCtlMergeSweep per shard of a draining key.
  void InjectMergeSweeps(int32_t function_id, const Bytes& key,
                         const SplitTable::State& state);

  // Two-choice dispatch of an arrived event into one of the machine's
  // thread queues; locks at most the two candidate queues. On success *re
  // is consumed; on error it is left intact for the caller's overflow
  // handling. ResourceExhausted when both candidate queues are full.
  Status Dispatch(MachineCtx* machine, RoutedEvent* re);

  // Fan an event out to its stream's subscribers: same-machine targets go
  // straight to Dispatch (zero serialization); remote targets are grouped
  // per destination and flushed as batch frames.
  void DeliverEvent(MachineId from, uint64_t sender_work, Event event);

  // One coalesced frame to a remote machine; declined suffixes fall back
  // to the per-event send.
  void FlushRemoteBatch(MachineId from, uint64_t sender_work, MachineId to,
                        std::vector<RoutedEvent> batch);

  // One event through the shared §4.3 send (Engine::SendRouted):
  // to its own machine straight into Dispatch, with no encode and no
  // transport hop; to another machine as a frame of one.
  void SendOne(MachineId from, uint64_t sender_work, MachineId to,
               RoutedEvent re);

  // ReadLiveSlate helper: route `key` over the live ring and read the
  // owning machine's cache/store.
  Status FetchRoutedSlate(const std::string& updater, BytesView key,
                          const std::set<MachineId>& failed, Bytes* slate);

  // --- Self-tuning load management (engine/load_manager.h). The split
  // table is read on the dispatch path (lock-free fast path when no key
  // is split); the controller and the merge bookkeeping below belong to
  // the single load-manager thread.
  SplitTable split_table_;
  std::unique_ptr<LoadController> lm_controller_;
  // Pause handshake: PauseLoadManagement() raises paused_ and waits for
  // idle_ so no tick (or its control-event injection) is mid-flight.
  std::atomic<bool> lm_paused_{false};
  std::atomic<bool> lm_idle_{true};
  // Merge rounds get globally unique ids (carried in the control events'
  // split_epoch field) so delta dedupe distinguishes rounds.
  std::atomic<uint32_t> merge_round_seq_{1};
  // Load-manager-thread-only: per draining key, sweep rounds injected and
  // consecutive quiet (nothing-found) ticks.
  struct MergeProgress {
    int rounds = 0;
    int quiet = 0;
  };
  // muppet-lint: allow(guarded): confined to the load-manager thread
  std::map<std::pair<int32_t, Bytes>, MergeProgress> merge_progress_;

  // 2.0-only registry children (the shared ones live in Engine).
  Counter* secondary_dispatch_;
  Counter* slate_contention_;
  Counter* splits_installed_;
  Counter* merges_completed_;
  // Time events spend queued before a worker pops them (recorded for
  // every event; the bench's before/after-split p99 comparison).
  Histogram* queue_wait_;
};

}  // namespace muppet

#endif  // MUPPET_ENGINE_MUPPET2_H_
