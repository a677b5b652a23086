// The engine: what a running Muppet deployment exposes to the outside
// world (applications, the slate and admin services, tests and benchmarks
// hold an Engine), and everything it does that the paper does not
// distinguish between its two generations. §4.5 names what 2.0 changes
// from 1.0 — a thread pool instead of per-function worker processes, one
// central slate cache instead of per-worker caches, and two-choice
// queues. The rest (transport and failure broadcast, the durability
// plane, drain, crash/restart, live slate reads, stats, the watchdog and
// SLO wiring, and the /metrics families) is written once here.
// Muppet1Engine (§4.1–4.4) and Muppet2Engine (§4.5) derive from Engine
// and supply only their worker model, through its protected hooks.
//
// An event's whole lifecycle is written once too. Naming: the operator
// table (interned ids, name hashes, subscriber lists). Sending: SendRouted,
// the §4.3 loop (failure detected on send, then drop, overflow stream or
// throttle on a decline); an engine supplies only the one-attempt
// callable. Receiving: ReceiveFrame. Executing: BuildEmittedEvent,
// FetchForExec, WriteSlate (cache write plus changelog record) and
// FinishExec (the kMark rule, processed counts, end-to-end latency).
//
// The hooks run on lifecycle, flush, replay, publish, live-read and
// scrape paths only; the per-event hot path (delivery, dispatch,
// ProcessOne) stays non-virtual: the shared send loop and receive path
// are templates over the engine's callables.
#ifndef MUPPET_ENGINE_ENGINE_H_
#define MUPPET_ENGINE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/slo.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/trace.h"
#include "core/hash_ring.h"
#include "core/intern.h"
#include "core/slate.h"
#include "core/slate_cache.h"
#include "core/slate_store.h"
#include "core/topology.h"
#include "engine/load_manager.h"
#include "engine/master.h"
#include "engine/overflow.h"
#include "engine/queue.h"
#include "engine/slatelog.h"
#include "engine/watchdog.h"
#include "engine/wire.h"
#include "net/transport.h"

namespace muppet {

struct EngineOptions {
  // Cluster shape.
  int num_machines = 1;
  // Muppet 1.0: worker processes per map/update function, spread
  // round-robin over machines.
  int workers_per_function = 1;
  // Muppet 2.0: worker threads per machine ("as large a number of threads
  // as the parallelization of the application code allows", §4.5).
  int threads_per_machine = 4;

  // Per-worker input queue capacity (events).
  size_t queue_capacity = 1024;
  // Slate cache capacity in slates. Muppet 2.0 gives the whole budget to
  // one central cache per machine; Muppet 1.0 divides it among each
  // function's workers on the machine (§4.5's 100-vs-125 discussion).
  size_t slate_cache_capacity = 16384;

  // Queue-overflow handling (§4.3).
  OverflowOptions overflow;

  // Self-tuning load management (engine/load_manager.h): hotspot
  // detection and dynamic key splitting of associative updaters. Off by
  // default; Muppet 2.0 in a single process only (Start() rejects it on
  // Muppet 1.0, and with hosted_machines or transport_backend).
  LoadManagerOptions load_manager;

  // Muppet 2.0: disable the secondary queue entirely (ablation for E7 —
  // degenerates to Muppet 1.0-style single ownership).
  bool enable_two_choice = true;

  // Durable slate store; nullptr runs cache-only (volatile slates): the
  // caches then never evict, and may hold more than slate_cache_capacity.
  SlateStore* slate_store = nullptr;

  // Durability / consistency knob (engine/slatelog.h, DESIGN.md §12):
  // kLossy reproduces the paper (crash loses cached updates, zero cost);
  // kAtLeastOnce adds a per-machine slate changelog with buffered syncs
  // and replay-on-recovery; kExactlyOnce syncs every append and dedups
  // redelivered cross-machine batches after the recovery epoch cut.
  DurabilityOptions durability;

  // Scripted faults on the engine's own in-memory fabric (net/fault.h;
  // ignored with transport_backend). Not owned; must outlive the engine.
  // The harness that owns the injector applies its machine actions
  // (CrashMachine/RestartMachine). nullptr: a fault-free fabric.
  FaultInjector* faults = nullptr;

  // --- Multi-process deployment (net/tcp_transport.h, apps/muppetd.cc).
  // External transport backend carrying cross-machine frames. Not owned;
  // must outlive the engine and be Start()ed by the caller AFTER
  // Engine::Start() has registered its handlers. nullptr -> the engine
  // builds its own deterministic InMemoryTransport.
  Transport* transport_backend = nullptr;
  // Machine ids hosted by THIS process. Empty -> all ids in
  // [0, num_machines) (the single-process default). The hash ring still
  // spans all num_machines ids — every muppetd process derives the same
  // ring from the shared cluster config — but only hosted machines get
  // queues, worker threads, caches, and transport registrations here.
  // Muppet 2.0 only (Muppet 1.0's Start() rejects it, and rejects
  // transport_backend).
  std::vector<MachineId> hosted_machines;
  // Cross-process slate fetch: FetchSlate for a key owned by a non-hosted
  // machine delegates here (muppetd wires an HTTP fetch against the
  // owner's admin endpoint). nullptr -> such fetches fail Unavailable.
  std::function<Result<Bytes>(MachineId owner, const std::string& updater,
                              BytesView key)>
      remote_fetch;

  // Clock for timestamps/latency (nullptr -> system clock).
  Clock* clock = nullptr;

  // End-to-end latency SLOs (common/slo.h): per-stream objectives the
  // SloTracker evaluates assembled traces against; /sloz and the
  // muppet_slo_* metric families surface the verdicts.
  SloOptions slo;

  // Sampled distributed tracing (common/trace.h).
  struct TraceOptions {
    // Trace 1-in-N events, decided by hash of the event key (deterministic
    // across runs and chaos replays). 1 = trace everything, 0 = nothing:
    // no spans are recorded and events carry a zero TraceContext.
    uint64_t sample_period = 1024;
    // Per-machine TraceSink retention of recent traces (the slowest-trace
    // set holds TraceSink::kSlowestCapacity).
    size_t recent_traces = 256;
  };
  TraceOptions trace;
};

// A point-in-time snapshot of engine counters.
struct EngineStats {
  int64_t events_published = 0;   // external events accepted
  int64_t events_processed = 0;   // operator invocations completed
  int64_t events_emitted = 0;     // operator-published events
  // Lost to a machine or slate-store failure (§4.3): routed to a crashed
  // machine, cleared from a crashed machine's queues, or failed in
  // processing (e.g. a slate fetch while the store is down).
  int64_t events_lost_failure = 0;
  int64_t events_dropped_overflow = 0;  // dropped by overflow policy
  int64_t events_redirected_overflow = 0;  // sent to the overflow stream
  int64_t throttle_signals = 0;  // declines met under kThrottle
  int64_t deadlocks_avoided = 0;  // self-emit blocking averted (§5)

  int64_t slate_cache_hits = 0;
  int64_t slate_cache_misses = 0;
  int64_t slate_cache_evictions = 0;
  int64_t slate_store_reads = 0;
  int64_t slate_store_writes = 0;

  int64_t failures_detected = 0;

  // Durability plane (engine/slatelog.h; all zero in kLossy mode).
  int64_t slatelog_appends = 0;          // changelog records written
  int64_t slatelog_synced_records = 0;   // records made durable (fsynced)
  int64_t slatelog_replays = 0;          // recovery replay passes completed
  int64_t slatelog_replayed_records = 0;  // records applied during replays
  int64_t slatelog_torn_tails = 0;       // replays that hit a torn tail
  int64_t slatelog_corrupt_segments = 0;  // non-final segments with a bad frame
  int64_t checkpoints = 0;               // incremental checkpoints taken
  int64_t events_deduped = 0;  // redelivered events suppressed (exactly-once)

  // Cross-machine messages (net/transport.h). The transport's other
  // counters are on /metrics only (muppet_transport_*, muppet_faults_*).
  int64_t transport_messages_sent = 0;

  // End-to-end latency (external publish -> operator completion), usec.
  int64_t latency_p50_us = 0;
  int64_t latency_p95_us = 0;
  int64_t latency_p99_us = 0;
  int64_t latency_p999_us = 0;
  double latency_mean_us = 0.0;

  // Approximate peak memory devoted to operator code copies, in "operator
  // instances" (Muppet 1.0 constructs one per worker; 2.0 one per machine).
  int64_t operator_instances = 0;
};

// One hot (function, key) pair as seen by the heat sketch, with its
// current split state — the /statusz hot-key panel row.
struct HotKeyInfo {
  std::string function;
  std::string key;
  // Decayed sampled arrivals across all machines (sketch estimate).
  int64_t sampled_count = 0;
  bool split = false;
  int shards = 1;
};

// Point-in-time view of one machine's runtime state, for /statusz
// (service/admin_service.h) and operational tests.
struct MachineStatus {
  MachineId machine = 0;
  bool crashed = false;
  // Between Master::BeginRecovery and ClearFailure: transport may be live
  // for replay traffic but the machine is not routable — /healthz reports
  // it not-ready (DESIGN.md §14).
  bool recovering = false;
  // Depth of each lane's queue on the machine, by lane (Muppet 2.0: one
  // per thread; Muppet 1.0: one per worker process hosted there).
  std::vector<size_t> queue_depths;
  size_t queue_capacity = 0;
  // Slate cache occupancy.
  size_t slate_cache_slates = 0;
  size_t slate_cache_capacity = 0;
  // Hash-ring ownership: function name -> vnode points owned by this
  // machine's workers.
  std::map<std::string, int> ring_ownership;

  // Durability panel (engine/slatelog.h; zeros in kLossy mode).
  std::string consistency;        // knob name ("lossy", "at-least-once", ...)
  uint64_t slatelog_lsn = 0;          // last appended changelog lsn
  uint64_t slatelog_synced_lsn = 0;   // last durable (fsynced) lsn
  uint64_t slatelog_segments = 0;     // live segment files
  uint64_t manifest_lsn = 0;          // checkpoint cursor
  int64_t replays = 0;                // recovery replays on this machine
  size_t dedup_entries = 0;           // dedup-table occupancy
  size_t dedup_capacity = 0;
};

// The rules every emitted event obeys (§3), for both engines'
// PerformerUtilities: a declared stream that is not an input stream, and
// a timestamp past `input`'s. On OK *out is the event, carrying `input`'s
// origin_ts so end-to-end latency spans the whole chain.
Status BuildEmittedEvent(const AppConfig& config, const Event& input,
                         const std::string& stream, BytesView key,
                         BytesView value, Timestamp ts, Event* out);

// Per-machine state both engines share. Each engine derives its machine
// context from this and adds its own workers, queues and caches, exposing
// them to Engine as lanes and caches.
struct MachineBase {
  virtual ~MachineBase() = default;

  MachineId id = kInvalidMachine;

  // A lane is one event queue plus the thread that drains it: a worker
  // (conductor) in 1.0, a pool thread in 2.0. A lane's position is its
  // watchdog queue index, its slot in MachineStatus::queue_depths and its
  // `lane` label on muppet_queue_depth.
  struct Lane {
    EventQueue* queue = nullptr;
    std::thread thread;
  };
  std::vector<Lane> lanes;
  // Every slate cache on the machine: one per updater worker in 1.0, the
  // central cache in 2.0. Not owned.
  std::vector<SlateCache*> caches;

  std::atomic<bool> crashed{false};
  std::thread flusher;
  // Per-machine trace ring (null when tracing is disabled) and the
  // labels its spans carry, interned once at Start(): trace_labels by
  // TraceNameId (an operator's label is at its operator id), hop_labels
  // by a net hop's destination machine ("->mN"). All 0 without a sink.
  std::unique_ptr<TraceSink> trace_sink;
  std::vector<SpanLabel> trace_labels;
  std::vector<SpanLabel> hop_labels;

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

class Engine {
 public:
  virtual ~Engine() = default;

  // Build the operator table, the engine-wide state (PrepareEngine) and
  // every hosted machine (BuildMachine), replay any changelog left by a
  // previous engine, then spawn the lanes, flushers and control loops.
  // Muppet 2.0 then starts its load-management loop.
  virtual Status Start();

  // Inject an external event into a declared input stream, acting as the
  // paper's special mapper M0 (§4.1). `ts` must be nonnegative; pass
  // clock->Now() for live sources. The event is delivered on the calling
  // thread, so under kThrottle a declined delivery blocks the caller until
  // the target queue drains: that is the source throttle (§5).
  Status Publish(const std::string& stream, BytesView key, BytesView value,
                 Timestamp ts);

  // Block until every queue is empty and no event is in flight.
  Status Drain();

  // Flush dirty slates and stop all threads. Idempotent.
  Status Stop();

  // Live slate fetch (§4.4): reads the owning worker's cache (forwarding
  // across machines if needed) rather than the durable store, falling back
  // to the store only on a cache miss. NotFound if the slate does not
  // exist anywhere.
  Result<Bytes> FetchSlate(const std::string& updater, BytesView key);

  // Crash a machine: its queued events and unflushed slate updates are
  // lost; senders detect the failure on their next send and the hash ring
  // reroutes (§4.3).
  Status CrashMachine(MachineId machine);

  // Bring a crashed machine back: re-arm its queues, respawn its worker
  // threads, re-register it with the transport, and clear its failure at
  // the master so the ring routes to it again. Test/ops path
  // only (the paper's Muppet fixes cluster membership for a run, §5).
  // FailedPrecondition if the machine is not crashed.
  Status RestartMachine(MachineId machine);

  EngineStats Stats() const;

  const AppConfig& config() const { return config_; }

  // --- Observability plane.

  // Shared metrics registry backing /metrics.
  MetricsRegistry* metrics() { return &metrics_; }

  // Per-machine trace ring; nullptr when tracing is off or the machine id
  // is unknown.
  TraceSink* trace_sink(MachineId machine) { return SinkFor(machine); }

  // Per-machine runtime state for /statusz.
  std::vector<MachineStatus> MachineStatuses() const;

  // Hottest (function, key) pairs with their split state, hottest first
  // — the /statusz hot-key panel. Empty when no heat tracking runs (only
  // Muppet 2.0's load manager tracks heat).
  virtual std::vector<HotKeyInfo> HotKeys() const { return {}; }

  // Events accepted but not yet fully processed.
  int64_t InflightEvents() const {
    return inflight_.load(std::memory_order_acquire);
  }

  // --- Health & SLO plane (DESIGN.md §14).

  // End-to-end SLO tracker.
  SloTracker* slo() { return slo_.get(); }

  // Pull newly completed traces from every machine's sink into the SLO
  // tracker now (the /sloz handler calls this so the page is fresh and a
  // drained engine's traces are observed without waiting for the settle
  // window).
  void HarvestSlo();

  // Watchdog incident log.
  const IncidentLog* incidents() const { return &incident_log_; }

  // Microseconds since Start() on the engine clock; 0 before Start().
  Timestamp UptimeMicros() const;

  // Observe events published to `stream` (tests/examples; invoked inline
  // on the publishing thread). Register before Start().
  void TapStream(const std::string& stream,
                 std::function<void(const Event&)> tap);

  // Introspection for tests, the chaos harness and muppetd.
  Transport& transport() { return *transport_; }
  Master& master() { return master_; }

  // Lock-hierarchy levels for the engine's own locks (pinned by
  // tests/common/sync_test.cc against DESIGN.md).
  static constexpr LockLevel kTapsLockLevel = LockLevel::kTaps;
  static constexpr LockLevel kDrainLockLevel = LockLevel::kDrain;

 protected:
  // `engine_name` labels muppet_build_info and prefixes flight-recorder
  // dumps. `config` must outlive the engine and Validate() OK at Start().
  Engine(const AppConfig& config, EngineOptions options,
         const char* engine_name);

  // --- Worker-model hooks.

  // Engine-specific validation and engine-wide state (hash-ring workers),
  // run by Start() after the operator table is built and before any
  // machine is.
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
  // FetchSlate's read, after its checks: the live slate `key` of updater
  // `op`, routed over the ring view `failed`, into *slate.
  virtual Status ReadLiveSlate(uint32_t op, BytesView key,
                               const std::set<MachineId>& failed,
                               Bytes* slate) = 0;
  // Route an accepted external event into the cluster (the paper's M0).
  virtual void DeliverPublished(Event event) = 0;
  // Metric families only this engine registers; none by default.
  virtual void RegisterEngineMetrics() {}

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

  // One operator of the application, indexed by its interned id. The
  // ids are the same in every machine and muppetd process (operators()
  // is an ordered map), which is what lets them travel in frames.
  struct OpInfo {
    const OperatorSpec* spec = nullptr;
    // Fnv1a64(name), combined with an event's key hash into its work
    // hash: the function half is hashed once per run, not per event.
    uint64_t name_hash = 0;
    // muppet_operator_processed_total{operator}.
    Counter* processed = nullptr;
  };

  // Id of operator `name`, or -1. Valid from PrepareEngine() on.
  int32_t OpId(std::string_view name) const {
    const int32_t id = names_.Find(name);
    return id < static_cast<int32_t>(ops_.size()) ? id : -1;
  }
  // Ids of the operators subscribed to `stream`, in name order; empty for
  // an undeclared stream.
  const std::vector<uint32_t>& SubscriberIds(std::string_view stream) const {
    const int32_t id = names_.Find(stream);
    return id < 0 ? no_subscribers_ : subscribers_[static_cast<size_t>(id)];
  }

  // The failed set routing goes around (§4.3): a shared empty set while
  // the master knows of no failure — one atomic load, the common case —
  // else a copy of the master's set in *storage.
  const std::set<MachineId>& RouteFailedSet(
      std::set<MachineId>* storage) const;

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

  // The §4.3 send of one routed event to machine `to`, written once for
  // every engine send path. `attempt()` makes one delivery attempt and
  // returns its status; in-flight is charged for it only when `to` is
  // hosted here (a receiver in another process charges its own). A failed
  // attempt settles through SettleFailedSend. A declined one
  // (ResourceExhausted) applies options_.overflow.policy: drop the event;
  // reroute a copy of it onto the overflow stream through
  // `reroute(Event)`; or throttle, trying again after a 200 µs wait, at
  // most 150 times per event. `self_emit` marks a send into a queue the
  // sending worker itself drains: waiting there can never succeed (the §5
  // deadlock), so throttling drops the event.
  template <typename Attempt, typename Reroute>
  void SendRouted(MachineId to, const Event& event, bool self_emit,
                  Attempt&& attempt, Reroute&& reroute);
  // Settle `n` events whose send to `to` failed with `s`, unless `s` is a
  // decline: Unavailable is a failure detected on send (§4.3), reported
  // to the master, and it and any other error lose the events. Returns
  // false, settling nothing, for ResourceExhausted.
  bool SettleFailedSend(MachineId to, const Status& s, int64_t n);

  // Work hash from precomputed halves; never returns 0 ("idle").
  static uint64_t CombineWork(uint64_t function_hash, uint64_t key_hash);

  // The receive path of both engines: take the id-addressed frame
  // (engine/wire.h) that `from` sent to hosted machine `to`. *accepted is
  // the Transport::Handler resume contract: events below its entry value
  // were accepted by an earlier partial delivery of this same frame and
  // are skipped, not re-applied (re-running them through dedup would
  // double-count deduped_ and double-apply control events). Each other
  // event must name a known operator, else the frame is Corruption. It is
  // charged to inflight_ when `from` is in another process (in-process
  // senders pre-charge), and an exactly-once data event whose identity
  // this machine already processed settles as deduped. The rest go to
  // `push(RoutedEvent*)`, which enqueues the event and returns OK, or
  // declines and leaves it intact; a declined push ends the frame with
  // its status.
  template <typename Push>
  Status ReceiveFrame(MachineId from, MachineId to, BytesView frame,
                      size_t* accepted, Push&& push);

  // Read (updater, key) from `cache`, then the durable store (§4.2),
  // caching what the store returns; NotFound if absent everywhere (cached
  // as a negative entry so the updater sees a fresh slate, §3). `source`,
  // when non-null, reports the slate-fetch span note: kHit,
  // kAbsentCached, kStore or kStoreAbsent.
  Status FetchThroughCache(SlateCache* cache, const std::string& updater,
                           BytesView key, Bytes* slate,
                           SpanNote* source = nullptr);
  // An updater's slate fetch for the event `re` executing under the span
  // `exec_span`: FetchThroughCache inside a kSlateFetch child span. A
  // slate absent everywhere is OK with *found false (a fresh slate, §3);
  // any other error fails the event.
  Status FetchForExec(MachineBase* machine, SlateCache* cache,
                      const RoutedEvent& re, BytesView slate_key,
                      uint64_t exec_span, Bytes* slate, bool* found);
  // Cache write-back into the durable store, with each updater's TTL;
  // null without a store, so the caches never evict.
  SlateCache::WriteBack StoreWriteBack();

  // Every slate write on `machine`, written once: kUpdate stores `value`
  // as the slate (updater `re.function_id`, `slate_key`) in `cache`,
  // kDelete deletes it; then the changelog records the write under `re`'s
  // identity. Append failures are counted, never fail the write
  // (durability degrades, the data path does not stop).
  Status WriteSlate(MachineBase* machine, SlateCache* cache,
                    const RoutedEvent& re, BytesView slate_key,
                    SlateLogKind kind, BytesView value = {});
  // The end of every operator execution: an exactly-once event that wrote
  // no slate still logs its identity (kMark) so replay re-seeds the dedup
  // table past a crash; then `exec` ends, and the event counts processed
  // with its end-to-end latency.
  void FinishExec(MachineBase* machine, const RoutedEvent& re,
                  BytesView slate_key, bool wrote_slate, ScopedSpan* exec);

  const AppConfig& config_;
  EngineOptions options_;
  Clock* clock_;
  // The operator table, by interned id (built at Start(), read-only
  // afterwards, so the hot path reads it without a lock).
  std::vector<OpInfo> ops_;
  // Owned only in the single-process default; with an external
  // transport_backend the unique_ptr stays null and transport_ aliases
  // the caller's backend.
  std::unique_ptr<Transport> owned_transport_;
  Transport* transport_ = nullptr;
  Master master_;
  // HashRing's default shape: every muppetd process must derive the same
  // ring from the shared cluster config.
  HashRing ring_;

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
  // One control-loop period: waits `micros`, returning early once Stop()
  // raises shutdown_; false once it is raised. Under a simulated clock
  // the wait advances that clock, as Clock::SleepFor does.
  bool WaitTick(Timestamp micros);

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
  Counter* slatelog_errors_;
  Counter* slatelog_replays_;
  Counter* slatelog_replayed_;
  Counter* slatelog_torn_tails_;
  Counter* slatelog_corrupt_segments_;
  Counter* checkpoints_;
  Counter* deduped_;
  Histogram* latency_;

 private:
  // What SendRouted does after a declined attempt under the overflow
  // policy; kSettled counts the event dropped, kRetry after the throttle
  // wait (`*attempts` counts them), kReroute counts it redirected.
  enum class DeclineAction { kSettled, kRetry, kReroute };
  DeclineAction OnDecline(const Event& event, bool self_emit, int* attempts);

  // The master's failed set plus every hosted machine known crashed, even
  // before a data-path send has detected it (live slate reads).
  std::set<MachineId> FailedOrCrashed() const;

  // Append one changelog record for a write to, or a mark on, the slate
  // (updater `re.function_id`, `slate_key`) under `re`'s identity. No-op
  // in kLossy mode.
  void AppendSlateLog(MachineBase* machine, SlateLogKind kind,
                      const RoutedEvent& re, BytesView slate_key,
                      BytesView value);
  // Log and count a failed changelog append, sync or rotation.
  void NoteSlateLogError(const MachineBase* machine, const char* op,
                         const Status& s);

  void FlusherLoop(MachineBase* machine);
  // Flusher-thread checkpoint pass: sync the changelog tail; when the
  // cadence fires (and a slate store is configured) flush dirty slates,
  // rotate the segment, persist + mirror the manifest and drop covered
  // history. A failed sync or rotation ends the pass: no manifest is
  // written and no segment dropped.
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
  // Declines met under kThrottle (EngineStats::throttle_signals).
  Counter throttle_signals_;

  // Per-input-stream published counters (built at Start()).
  std::map<std::string, Counter*> stream_published_;
  // Dense id of an operator or stream name, indexing
  // MachineBase::trace_labels. Operators intern first, so an operator's
  // id is its index in ops_.
  uint32_t TraceNameId(std::string_view name) const {
    return static_cast<uint32_t>(names_.Find(name));
  }

  // Operator, then stream, names by TraceNameId; the subscriber ids of
  // each stream at its name id. Built at Start(), read-only afterwards.
  NameInterner names_;
  std::vector<std::vector<uint32_t>> subscribers_;
  const std::vector<uint32_t> no_subscribers_;

  // Also guards the raising of shutdown_, so a WaitTick cannot miss it.
  Mutex drain_mutex_{kDrainLockLevel};
  CondVar drain_cv_;
  // Wakes WaitTick when Stop() raises shutdown_.
  CondVar stop_cv_;
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

template <typename Attempt, typename Reroute>
void Engine::SendRouted(MachineId to, const Event& event, bool self_emit,
                        Attempt&& attempt, Reroute&& reroute) {
  const bool tracked = Hosted(to);
  int attempts = 0;
  while (true) {
    if (tracked) inflight_.fetch_add(1, std::memory_order_acq_rel);
    const Status s = attempt();
    if (s.ok()) return;
    if (tracked) DecInflight(1);
    if (SettleFailedSend(to, s, 1)) return;
    switch (OnDecline(event, self_emit, &attempts)) {
      case DeclineAction::kRetry:
        continue;
      case DeclineAction::kReroute: {
        Event redirected = event;
        redirected.stream = options_.overflow.overflow_stream;
        reroute(std::move(redirected));
        return;
      }
      case DeclineAction::kSettled:
        return;
    }
  }
}

template <typename Push>
Status Engine::ReceiveFrame(MachineId from, MachineId to, BytesView frame,
                            size_t* accepted, Push&& push) {
  const size_t skip = *accepted;
  MachineBase* machine = Machine(to);
  if (machine == nullptr) return Status::Unavailable("machine not hosted here");
  if (machine->crashed.load()) return Status::Unavailable("machine crashed");
  const bool external = !Hosted(from);
  RoutedEventFrameReader reader(frame);
  RoutedEvent re;
  for (size_t index = 0; reader.Next(&re); ++index) {
    if (index < skip) continue;
    if (re.function_id < 0 ||
        static_cast<size_t>(re.function_id) >= ops_.size()) {
      return Status::Corruption("wire: frame names unknown function id");
    }
    if (external) inflight_.fetch_add(1, std::memory_order_acq_rel);
    // The identity is reserved atomically BEFORE the push (check-then-
    // record would let two concurrent deliveries of one identity both
    // pass) and unwound on a decline, so the sender's retry is not
    // mistaken for a duplicate.
    const uint64_t dedup_id = machine->dedup != nullptr ? re.dedup : 0;
    if (dedup_id != 0 && !machine->dedup->CheckAndInsert(dedup_id)) {
      deduped_->Add();
      DecInflight(1);
      ++*accepted;
      continue;
    }
    Status s = push(&re);
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

}  // namespace muppet

#endif  // MUPPET_ENGINE_ENGINE_H_
