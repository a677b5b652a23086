// The machine runtime: everything a Muppet deployment does that the paper
// does not distinguish between its two generations. §4.5 names what 2.0
// changes from 1.0 — a thread pool instead of per-function worker
// processes, one central slate cache instead of per-worker caches, and
// two-choice queues. The rest (transport and failure broadcast, the
// durability plane, drain, crash/restart, stats, the watchdog and SLO
// wiring, and the shared /metrics families) is written once here.
// Muppet1Engine and Muppet2Engine derive from MachineRuntime and supply
// only their worker model through the hooks at the bottom of the class.
//
// The hooks run on lifecycle, flush, replay, publish and scrape paths
// only; the per-event hot path (delivery, dispatch, ProcessOne) stays
// non-virtual inside each engine.
#ifndef MUPPET_ENGINE_MACHINE_RUNTIME_H_
#define MUPPET_ENGINE_MACHINE_RUNTIME_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/sync.h"
#include "common/trace.h"
#include "core/hash_ring.h"
#include "core/slate_cache.h"
#include "engine/engine.h"
#include "engine/master.h"
#include "engine/queue.h"

namespace muppet {

// Per-machine state both engines share. Each engine derives its machine
// context from this and adds its own workers, queues and caches, exposing
// them to the runtime as lanes and caches.
struct MachineBase {
  virtual ~MachineBase() = default;

  MachineId id = kInvalidMachine;

  // A lane is one event queue plus the thread that drains it: a worker
  // (conductor) in 1.0, a pool thread in 2.0. A lane's position is its
  // watchdog queue index and its slot in MachineStatus::queue_depths.
  struct Lane {
    EventQueue* queue = nullptr;
    std::thread thread;
  };
  std::vector<Lane> lanes;
  // Every slate cache on the machine: one per updater worker in 1.0, the
  // central cache in 2.0. Not owned.
  std::vector<SlateCache*> caches;

  // Machines this machine believes failed (§4.3), kept by the master's
  // broadcast listeners.
  mutable Mutex failed_mutex{LockLevel::kFailedSet};
  std::set<MachineId> failed MUPPET_GUARDED_BY(failed_mutex);
  // Lock-free emptiness check so the hot path skips the failed-set copy.
  std::atomic<size_t> failed_count{0};
  std::atomic<bool> crashed{false};
  std::thread flusher;
  // Per-machine trace ring (null when tracing is disabled).
  std::unique_ptr<TraceSink> trace_sink;

  // Durability plane (engine/slatelog.h); both null in kLossy mode,
  // dedup additionally null below kExactlyOnce. One changelog per machine
  // even when 1.0 scatters slates over per-worker caches — records carry
  // (updater, key), so replay re-homes each slate.
  std::unique_ptr<SlateChangelog> changelog;
  std::unique_ptr<DedupTable> dedup;
  // Checkpoint cursor as of the last checkpoint or replay.
  std::atomic<uint64_t> manifest_lsn{0};
  // Changelog appends since the last checkpoint (cadence trigger, read by
  // the flusher thread).
  std::atomic<uint64_t> appends_since_checkpoint{0};
  // Recovery replays completed on this machine (cold-start included).
  std::atomic<int64_t> replays{0};
};

class MachineRuntime : public Engine {
 public:
  Status Start() override;
  Status Publish(const std::string& stream, BytesView key, BytesView value,
                 Timestamp ts) final;
  Status Drain() final;
  Status Stop() final;
  Status CrashMachine(MachineId machine) final;
  Status RestartMachine(MachineId machine) final;
  EngineStats Stats() const final;
  const AppConfig& config() const final { return config_; }

  MetricsRegistry* metrics() final { return &metrics_; }
  TraceSink* trace_sink(MachineId machine) final { return SinkFor(machine); }
  std::vector<MachineStatus> MachineStatuses() const final;
  int64_t InflightEvents() const final {
    return inflight_.load(std::memory_order_acquire);
  }
  SloTracker* slo() final { return slo_.get(); }
  void HarvestSlo() final;
  const IncidentLog* incidents() const final { return &incident_log_; }
  Timestamp UptimeMicros() const final;

  // Observe events published to `stream` (tests/examples; invoked inline
  // on the publishing thread). Register before Start().
  void TapStream(const std::string& stream,
                 std::function<void(const Event&)> tap);

  // Introspection for tests, benches and the slate service.
  Transport& transport() { return *transport_; }
  Master& master() { return master_; }
  ThrottleGovernor& throttle() { return throttle_; }
  // The failed-machine set as known on machine `m` (chaos harness asserts
  // every live machine's view converges to the master's after a drain).
  std::set<MachineId> KnownFailedOn(MachineId m) const {
    return FailedSetFor(m);
  }

  // Lock-hierarchy levels for the runtime's own locks (pinned by
  // tests/common/sync_test.cc against DESIGN.md).
  static constexpr LockLevel kTapsLockLevel = LockLevel::kTaps;
  static constexpr LockLevel kFailedSetLockLevel = LockLevel::kFailedSet;
  static constexpr LockLevel kDrainLockLevel = LockLevel::kDrain;

 protected:
  // `engine_name` labels muppet_build_info and prefixes flight-recorder
  // dumps. Publish() paces the source under kThrottle, and also whenever
  // the load manager runs if `load_manager_paces_source` (2.0's occupancy
  // floor acts through the same governor). `config` must outlive the
  // engine and Validate() OK at Start().
  MachineRuntime(const AppConfig& config, EngineOptions options,
                 const char* engine_name, bool load_manager_paces_source);

  // --- Engine hooks.

  // Engine-specific validation and engine-wide tables (interned names,
  // hash-ring workers), run by Start() before any machine is built.
  virtual Status PrepareEngine() = 0;
  // Build hosted machine `id`: its workers, queues (one lane each),
  // caches and operator instances; register its transport handlers.
  virtual Status BuildMachine(MachineId id,
                              std::unique_ptr<MachineBase>* machine) = 0;
  // Worker-thread body for lane `lane` of `machine`; returns once the
  // lane's queue is stopped.
  virtual void RunLane(MachineBase* machine, size_t lane) = 0;
  // The cache that owns (updater, key) on `machine` for changelog replay,
  // or nullptr when the slate does not live there.
  virtual SlateCache* ReplayCache(MachineBase* machine,
                                  const std::string& updater,
                                  BytesView key) = 0;
  // Metric families only this engine registers (queue depths, ...).
  virtual void RegisterEngineMetrics() = 0;
  // Route an accepted external event into the cluster (the paper's M0).
  virtual void DeliverPublished(Event event) = 0;

  // --- Shared helpers for the engines.

  bool durable() const {
    return options_.durability.consistency != Consistency::kLossy;
  }
  bool exactly_once() const {
    return options_.durability.consistency == Consistency::kExactlyOnce;
  }

  // True when machine `m` runs in THIS process. With the default
  // single-process deployment every id is hosted; under muppetd only the
  // slots named in options_.hosted_machines are (the others stay null).
  bool Hosted(MachineId m) const {
    return m >= 0 && m < static_cast<MachineId>(machines_.size()) &&
           machines_[static_cast<size_t>(m)] != nullptr;
  }
  MachineBase* Machine(MachineId m) const {
    return Hosted(m) ? machines_[static_cast<size_t>(m)].get() : nullptr;
  }
  TraceSink* SinkFor(MachineId m) const {
    const MachineBase* machine = Machine(m);
    return machine != nullptr ? machine->trace_sink.get() : nullptr;
  }

  std::set<MachineId> FailedSetFor(MachineId machine) const;
  // The master's failed set plus every hosted machine known crashed, even
  // before a data-path send has detected it (live slate reads).
  std::set<MachineId> FailedOrCrashed() const;

  void RunTaps(const Event& event) {
    if (!has_taps_.load(std::memory_order_acquire)) return;
    ReaderMutexLock lock(taps_mutex_);
    auto it = taps_.find(event.stream);
    if (it == taps_.end()) return;
    for (const auto& tap : it->second) tap(event);
  }
  uint64_t NextSeq() { return seq_.fetch_add(1, std::memory_order_relaxed); }

  // Decrement in-flight count, waking Drain() when it reaches zero.
  void DecInflight(int64_t n);
  // Settle one event a lane popped. A processing failure (e.g. a slate
  // fetch that missed the cache while the store is down) loses the event:
  // it is logged and counted lost, never silently dropped from the books.
  void SettleLane(const MachineBase* machine, size_t lane, const Status& s);

  // Work hash from precomputed halves; never returns 0 ("idle").
  static uint64_t CombineWork(uint64_t function_hash, uint64_t key_hash);
  static uint64_t WorkHash(const std::string& function, BytesView key);

  // Read (updater, key) from `cache`, then the durable store (§4.2),
  // caching what the store returns; NotFound if absent everywhere (cached
  // as a negative entry so the updater sees a fresh slate, §3). `source`,
  // when non-null, reports the slate-fetch span note: "hit",
  // "absent_cached", "store", "store_absent".
  Status FetchThroughCache(SlateCache* cache, const std::string& updater,
                           BytesView key, Bytes* slate,
                           const char** source = nullptr);
  // Cache write-back into the durable store, with each updater's TTL.
  SlateCache::WriteBack StoreWriteBack();

  // Append one changelog record for a slate write/delete/mark on
  // `machine`. No-op in kLossy mode; append failures are logged, never
  // fail the update (durability degrades, the data path does not stop).
  void AppendSlateLog(MachineBase* machine, SlateLogKind kind,
                      const std::string& updater, BytesView slate_key,
                      BytesView value, const Event& event, uint64_t work,
                      uint64_t dedup);

  const AppConfig& config_;
  EngineOptions options_;
  Clock* clock_;
  // Owned only in the single-process default; with an external
  // transport_backend the unique_ptr stays null and transport_ aliases
  // the caller's backend.
  std::unique_ptr<Transport> owned_transport_;
  Transport* transport_ = nullptr;
  Master master_;
  HashRing ring_;
  ThrottleGovernor throttle_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> shutdown_{false};

  // Sized num_machines; slots for machines hosted by other processes stay
  // null (see Hosted()).
  std::vector<std::unique_ptr<MachineBase>> machines_;
  // Where external Publish() enters the cluster: the lowest hosted
  // machine id (0 in single-process runs).
  MachineId publish_machine_ = 0;
  // Engine-wide control loops (the watchdog, 2.0's load manager): joined
  // by Stop() once shutdown_ is raised.
  std::vector<std::thread> control_threads_;

  std::atomic<uint64_t> seq_{1};
  std::atomic<int64_t> inflight_{0};

  // Shared registry backing /metrics; the counters below are registry
  // children so the admin endpoints and EngineStats read the same cells.
  // Declared before the pointers (initialization order).
  MetricsRegistry metrics_;
  Counter* published_;
  Counter* processed_;
  Counter* emitted_;
  Counter* lost_failure_;
  Counter* dropped_overflow_;
  Counter* redirected_overflow_;
  Counter* deadlocks_avoided_;
  Counter* store_reads_;
  Counter* store_writes_;
  Counter* operator_instances_;
  Counter* slatelog_appends_;
  Counter* slatelog_replays_;
  Counter* slatelog_replayed_;
  Counter* slatelog_torn_tails_;
  Counter* slatelog_corrupt_segments_;
  Counter* checkpoints_;
  Counter* deduped_;
  Histogram* latency_;

 private:
  void FlusherLoop(MachineBase* machine);
  // Flusher-thread checkpoint pass: sync the changelog tail; when the
  // cadence fires (and a slate store is configured) flush dirty slates,
  // persist + mirror the manifest, rotate the segment and drop covered
  // history.
  void MaybeCheckpoint(MachineBase* machine);
  // Recovery replay: restore the machine's slates from the changelog
  // suffix past the manifest cursor and re-seed the dedup table with the
  // most recent event identities (the epoch cut). Must complete before
  // the machine becomes routable again (Master::BeginRecovery doc).
  Status ReplayChangelog(MachineBase* machine);
  void SpawnLanes(MachineBase* machine);

  // Stall-watchdog control loop and its signal collection pass — all
  // lock-free reads (queue sizes/pops, inflight, changelog cursors), so
  // the watchdog never blocks the data path.
  void WatchdogLoop();
  WatchdogSignals GatherWatchdogSignals() const;

  // Register the callback-backed gauges/counters once the cluster is
  // built: the shared families here, then RegisterEngineMetrics().
  void RegisterCallbackMetrics();

  const char* const engine_name_;
  const bool pace_source_;

  // Per-input-stream published counters (built at Start()).
  std::map<std::string, Counter*> stream_published_;

  Mutex drain_mutex_{kDrainLockLevel};
  CondVar drain_cv_;
  // Live Drain() waiters — the watchdog's drain-stall signal.
  std::atomic<int> drain_waiters_{0};

  std::atomic<bool> has_taps_{false};
  mutable SharedMutex taps_mutex_{kTapsLockLevel};
  std::map<std::string, std::vector<std::function<void(const Event&)>>> taps_
      MUPPET_GUARDED_BY(taps_mutex_);

  // Health & SLO plane (DESIGN.md §14).
  std::unique_ptr<SloTracker> slo_;
  IncidentLog incident_log_;
  std::unique_ptr<Watchdog> watchdog_;
  // Engine clock reading at Start(); 0 before Start().
  std::atomic<Timestamp> started_at_{0};
};

}  // namespace muppet

#endif  // MUPPET_ENGINE_MACHINE_RUNTIME_H_
