// End-to-end latency SLO tracking (DESIGN.md §14). The paper's headline
// claim is *latency* — "Muppet answers queries in sub-second time" (§5) —
// and this module is where the repro turns raw spans into an operator
// verdict: is each input stream actually meeting its latency objective?
//
// The SloTracker consumes completed traces from the per-machine
// TraceSinks (common/trace.h), stitches every machine's spans for one
// trace id back together, reduces them to a critical-path breakdown
// (publish -> queue-wait -> exec -> slate-fetch -> net-hop), and records
// the trace's end-to-end latency into a per-stream histogram evaluated
// against the objective declared in EngineOptions::slo (target p99 +
// window). Multi-window burn-rate counters — bad-event fraction over the
// error budget, the standard SRE alerting signal — are exported as
// labeled Prometheus families, and the worst critical paths are retained
// for /sloz and /tracez.
//
// Determinism: everything downstream of sampling is a pure function of
// the spans and the clock, and sampling itself is content-hash based
// (trace.h) — a chaos replay of the same seeded workload re-observes the
// same traces and reproduces the same SLO verdicts bit-for-bit.
#ifndef MUPPET_COMMON_SLO_H_
#define MUPPET_COMMON_SLO_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/sync.h"
#include "common/trace.h"

namespace muppet {

// Declared latency objective for one input stream: "the p99 of
// end-to-end latency over `window_micros` stays at or below
// `target_p99_us`". Equivalently: at most 0.1% + 0.9% = 1% of events may
// exceed the target inside the window (the error budget burn rates are
// measured against).
struct SloObjective {
  std::string stream;
  // The paper's figure ("latency of under 2 seconds", §5) is the default.
  Timestamp target_p99_us = 2 * kMicrosPerSecond;
  // Objective evaluation window.
  Timestamp window_micros = kMicrosPerMinute;
};

struct SloOptions {
  // Per-stream objectives. Streams without one still get latency
  // histograms and critical paths, but no burn accounting.
  std::vector<SloObjective> objectives;
};

// Per-kind critical-path breakdown of one assembled trace. Every instant
// of [first span start, last span end] is charged once: to the first kind
// with a span open then, in the order nested slate fetch > exec > other
// slate fetch > queue wait > net hop > publish, or to `unattributed_us`
// (scheduling gaps between spans, cross-machine skew) when none is. Exec
// time is thus exclusive of the fetches nested in it, overlapping spans
// (a publish still open while its event waits in a queue) are not counted
// twice, and the five buckets plus `unattributed_us` sum to `total_us`.
struct CriticalPath {
  uint64_t trace_id = 0;
  // Stream of the root publish span; empty when the root was not
  // captured (e.g. it fell out of the publish machine's ring).
  std::string stream;
  Timestamp total_us = 0;
  Timestamp publish_us = 0;
  Timestamp queue_wait_us = 0;
  Timestamp exec_us = 0;
  Timestamp slate_fetch_us = 0;
  Timestamp net_hop_us = 0;
  Timestamp unattributed_us = 0;
  int spans = 0;
  // Distinct machines the trace touched.
  int machines = 0;
};

// Reduce one trace's spans (any order, possibly gathered from several
// machines' sinks) to its critical-path breakdown. Pure function.
CriticalPath ComputeCriticalPath(const std::vector<Span>& spans);

// Thread-safe end-to-end SLO bookkeeping for one engine. Histograms and
// event counters live in the shared MetricsRegistry (so /metrics and
// /sloz can never disagree); burn windows and critical paths are owned
// here.
class SloTracker {
 public:
  struct BurnSnapshot {
    Timestamp window_micros = 0;
    // Fraction of the error budget consumed per unit time: 1.0 = burning
    // exactly at the sustainable rate, >1 = the objective fails if
    // sustained for the whole window.
    double rate = 0.0;
    int64_t events = 0;
    int64_t breaches = 0;
  };

  struct StreamSnapshot {
    std::string stream;
    int64_t events = 0;
    int64_t breaches = 0;  // events over the objective target
    double mean_us = 0.0;
    Timestamp p50_us = 0;
    Timestamp p95_us = 0;
    Timestamp p99_us = 0;
    Timestamp p999_us = 0;
    Timestamp max_us = 0;
    bool has_objective = false;
    SloObjective objective;
    bool meeting_objective = true;  // p99 <= target (trivially true when
                                    // no objective or no events)
    std::vector<BurnSnapshot> burn;        // one per configured window
    std::vector<CriticalPath> worst;       // slowest first
  };

  // `registry` and `clock` must outlive the tracker. `registry` may be
  // null (tests), in which case only in-tracker state is kept; `clock` is
  // only read by the burn-rate callback gauges registered per stream, so
  // it may be null when `registry` is.
  SloTracker(SloOptions options, MetricsRegistry* registry, Clock* clock);

  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  // Pull newly completed traces out of `sinks` (recent + slowest rings of
  // every machine), stitch spans across sinks by trace id, and observe
  // each trace no sink has marked harvested, then mark it in every sink
  // (TraceSink::MarkHarvested). `drained` short-circuits the settle
  // window: with zero events in flight no trace can grow. Idempotent for
  // as long as the sinks retain a trace; the tracker itself remembers no
  // trace ids.
  void Harvest(const std::vector<TraceSink*>& sinks, Timestamp now,
               bool drained = false);

  // Observe one assembled trace directly (Harvest's inner step; exposed
  // for tests and for engines that assemble traces themselves).
  void Observe(uint64_t trace_id, const std::vector<Span>& spans,
               Timestamp now);

  // Point-in-time per-stream view, sorted by stream name. Burn rates are
  // evaluated as of `now`.
  std::vector<StreamSnapshot> Snapshot(Timestamp now) const;
  // As above at the tracker clock's current time (clock-free callers like
  // the admin service). Requires a non-null clock.
  std::vector<StreamSnapshot> Snapshot() const;

  int64_t traces_observed() const { return traces_observed_.Get(); }
  int64_t traces_unattributed() const { return traces_unattributed_.Get(); }

  // A trace is complete once no span has touched it for this long (at
  // once when the engine is drained: nothing can extend it then).
  static constexpr Timestamp kSettleMicros = 50 * kMicrosPerMilli;
  // Burn-rate windows, shortest first (the classic multi-window alert
  // pairs a fast window against a slow one).
  static constexpr Timestamp kBurnWindows[] = {kMicrosPerMinute,
                                               10 * kMicrosPerMinute};
  // Worst critical paths retained per stream, slowest first.
  static constexpr size_t kWorstPaths = 4;

  static constexpr LockLevel kLockLevel = LockLevel::kSlo;

 private:
  // Burn-bucket width: the shortest window spans 30 buckets.
  static constexpr Timestamp kBucketMicros = kBurnWindows[0] / 30;

  struct BurnBucket {
    int64_t index = 0;  // now / kBucketMicros
    int64_t events = 0;
    int64_t breaches = 0;
  };

  struct StreamState {
    // Registry-owned cells (null when registry is null).
    Histogram* latency = nullptr;
    Counter* ok_events = nullptr;
    Counter* breach_events = nullptr;
    // Fallback histogram when no registry is attached.
    std::unique_ptr<Histogram> own_latency;
    const SloObjective* objective = nullptr;  // into options_.objectives
    std::deque<BurnBucket> buckets;           // oldest first
    std::vector<CriticalPath> worst;          // slowest first
  };

  StreamState* StateFor(const std::string& stream)
      MUPPET_REQUIRES(mutex_);
  void ObserveLocked(uint64_t trace_id, const std::vector<Span>& spans,
                     Timestamp now) MUPPET_REQUIRES(mutex_);
  const Histogram* HistogramFor(const StreamState& state) const;
  double BurnRate(const StreamState& state, Timestamp window,
                  Timestamp now) const MUPPET_REQUIRES(mutex_);

  const SloOptions options_;
  MetricsRegistry* const registry_;
  Clock* const clock_;

  // Also held across a whole Harvest, so two harvests cannot both observe
  // a trace before either marks it.
  mutable Mutex mutex_{kLockLevel};
  std::map<std::string, StreamState> streams_ MUPPET_GUARDED_BY(mutex_);

  Counter traces_observed_;
  // Traces whose root publish span was missing (attributed to "").
  Counter traces_unattributed_;
};

}  // namespace muppet

#endif  // MUPPET_COMMON_SLO_H_
