// The engine interface: what a running Muppet deployment exposes to the
// outside world. Both generations (Muppet1Engine, §4.1–4.4, and
// Muppet2Engine, §4.5) implement it, so applications, the slate service,
// tests, and benchmarks are engine-agnostic.
#ifndef MUPPET_ENGINE_ENGINE_H_
#define MUPPET_ENGINE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/slo.h"
#include "common/status.h"
#include "common/trace.h"
#include "core/slate.h"
#include "core/slate_store.h"
#include "core/topology.h"
#include "engine/load_manager.h"
#include "engine/overflow.h"
#include "engine/slatelog.h"
#include "engine/throttle.h"
#include "engine/watchdog.h"
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
  ThrottleOptions throttle;

  // Self-tuning load management (engine/load_manager.h): hotspot
  // detection, dynamic key splitting of associative updaters,
  // occupancy-driven source pacing, and placement overrides. Off by
  // default; Muppet 2.0 only.
  LoadManagerOptions load_manager;

  // Muppet 2.0 dispatch: place the event on the secondary queue when it is
  // at least this many events shorter than the primary ("significantly
  // shorter").
  int secondary_queue_bias = 4;
  // Muppet 2.0: disable the secondary queue entirely (ablation for E7 —
  // degenerates to Muppet 1.0-style single ownership).
  bool enable_two_choice = true;

  // Durable slate store; nullptr runs cache-only (volatile slates).
  SlateStore* slate_store = nullptr;

  // Durability / consistency knob (engine/slatelog.h, DESIGN.md §12):
  // kLossy reproduces the paper (crash loses cached updates, zero cost);
  // kAtLeastOnce adds a per-machine slate changelog with buffered syncs
  // and replay-on-recovery; kExactlyOnce syncs every append and dedups
  // redelivered cross-machine batches after the recovery epoch cut.
  DurabilityOptions durability;

  // Background flusher cadence for SlateFlushPolicy::kInterval updaters.
  Timestamp flush_poll_micros = 10 * kMicrosPerMilli;

  // Simulated network between machines (used only when the engine builds
  // its own in-memory fabric, i.e. transport_backend is null).
  TransportOptions transport;

  // --- Multi-process deployment (net/tcp_transport.h, apps/muppetd.cc).
  // External transport backend carrying cross-machine frames. Not owned;
  // must outlive the engine and be Start()ed by the caller AFTER
  // Engine::Start() has registered its handlers. nullptr -> the engine
  // builds its own deterministic InMemoryTransport from `transport`.
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

  // Hash ring shape.
  int ring_vnodes = 128;
  uint64_t ring_seed = 0x9173ull;

  // Clock for timestamps/latency (nullptr -> system clock).
  Clock* clock = nullptr;

  // End-to-end latency SLOs (common/slo.h): per-stream objectives the
  // SloTracker evaluates assembled traces against; /sloz and the
  // muppet_slo_* metric families surface the verdicts.
  SloOptions slo;

  // Stall watchdog (engine/watchdog.h): wedged-queue / stuck-drain /
  // changelog-stall / stuck-recovery detection feeding the incident log,
  // /healthz, and the flight recorder.
  WatchdogOptions watchdog;

  // Sampled distributed tracing (common/trace.h).
  struct TraceOptions {
    // Master switch; when false no spans are recorded and events carry a
    // zero TraceContext.
    bool enabled = true;
    // Trace 1-in-N events, decided by hash of the event key (deterministic
    // across runs and chaos replays). 1 = trace everything, 0 = nothing.
    uint64_t sample_period = 1024;
    // Per-machine TraceSink retention.
    size_t recent_traces = 256;
    size_t slowest_traces = 16;
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
  int64_t throttle_signals = 0;
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

  // Transport-level counters (net/transport.h; PR-1 datapath).
  int64_t transport_messages_sent = 0;   // cross-machine messages
  int64_t transport_messages_local = 0;  // same-machine fast-path deliveries
  int64_t transport_frames_sent = 0;     // batch frames sent
  int64_t transport_bytes_sent = 0;      // payload bytes sent
  // Fault-injection counters (net/fault.h; zero without an injector).
  int64_t faults_dropped = 0;
  int64_t faults_duplicated = 0;
  int64_t faults_held = 0;

  // End-to-end latency (external publish -> operator completion), usec.
  int64_t latency_p50_us = 0;
  int64_t latency_p95_us = 0;
  int64_t latency_p99_us = 0;
  int64_t latency_p999_us = 0;
  int64_t latency_max_us = 0;
  double latency_mean_us = 0.0;

  // Approximate peak memory devoted to operator code copies, in "operator
  // instances" (Muppet 1.0 constructs one per worker; 2.0 one per machine).
  int64_t operator_instances = 0;

  std::string ToString() const;
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
  uint32_t split_epoch = 0;
  bool draining = false;
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
  // Depth of each worker queue on the machine (Muppet 2.0: one per
  // thread; Muppet 1.0: one per worker process hosted there).
  std::vector<size_t> queue_depths;
  size_t queue_capacity = 0;
  // Slate cache occupancy.
  size_t slate_cache_slates = 0;
  size_t slate_cache_capacity = 0;
  // Machines this machine currently believes failed (§4.3).
  std::vector<MachineId> known_failed;
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

class Engine {
 public:
  virtual ~Engine() = default;

  // Build workers/threads, instantiate operators, start the cluster.
  virtual Status Start() = 0;

  // Inject an external event into a declared input stream, acting as the
  // paper's special mapper M0 (§4.1). `ts` must be nonnegative; pass
  // clock->Now() for live sources. Applies source throttling when the
  // overflow policy is kThrottle.
  virtual Status Publish(const std::string& stream, BytesView key,
                         BytesView value, Timestamp ts) = 0;

  // Block until every queue is empty and no event is in flight.
  virtual Status Drain() = 0;

  // Flush dirty slates and stop all threads. Idempotent.
  virtual Status Stop() = 0;

  // Live slate fetch (§4.4): reads the owning worker's cache (forwarding
  // across machines if needed) rather than the durable store, falling back
  // to the store only on a cache miss. NotFound if the slate does not
  // exist anywhere.
  virtual Result<Bytes> FetchSlate(const std::string& updater,
                                   BytesView key) = 0;

  // Crash a machine: its queued events and unflushed slate updates are
  // lost; senders detect the failure on their next send and the hash ring
  // reroutes (§4.3).
  virtual Status CrashMachine(MachineId machine) = 0;

  // Bring a crashed machine back: re-arm its queues, respawn its worker
  // threads, re-register it with the transport, and broadcast the recovery
  // through the master so peers shrink their failed sets. Test/ops path
  // only (the paper's Muppet fixes cluster membership for a run, §5).
  // FailedPrecondition if the machine is not crashed.
  virtual Status RestartMachine(MachineId machine) = 0;

  virtual EngineStats Stats() const = 0;

  virtual const AppConfig& config() const = 0;

  // --- Observability plane.

  // Shared metrics registry backing /metrics.
  virtual MetricsRegistry* metrics() = 0;

  // Per-machine trace ring; nullptr when tracing is off or the machine id
  // is unknown.
  virtual TraceSink* trace_sink(MachineId machine) = 0;

  // Per-machine runtime state for /statusz.
  virtual std::vector<MachineStatus> MachineStatuses() const = 0;

  // Hottest (function, key) pairs with their split state, hottest first
  // — the /statusz hot-key panel. Empty when no heat tracking runs.
  virtual std::vector<HotKeyInfo> HotKeys() const = 0;

  // Suspend the self-tuning load-management control loop, blocking until
  // the in-progress tick (and its control-event injections) completes.
  // No-op for engines without one. The chaos harness pauses before its
  // final accounting so a mid-tick merge sweep cannot race the
  // conservation snapshot.
  virtual void PauseLoadManagement() = 0;

  // Events accepted but not yet fully processed.
  virtual int64_t InflightEvents() const = 0;

  // --- Health & SLO plane (DESIGN.md §14).

  // End-to-end SLO tracker.
  virtual SloTracker* slo() = 0;

  // Pull newly completed traces from every machine's sink into the SLO
  // tracker now (the /sloz handler calls this so the page is fresh and a
  // drained engine's traces are observed without waiting for the settle
  // window).
  virtual void HarvestSlo() = 0;

  // Watchdog incident log.
  virtual const IncidentLog* incidents() const = 0;

  // Microseconds since Start() on the engine clock; 0 before Start().
  virtual Timestamp UptimeMicros() const = 0;
};

}  // namespace muppet

#endif  // MUPPET_ENGINE_ENGINE_H_
