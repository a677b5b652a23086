// Sampled distributed tracing for the observability plane. A TraceContext
// (trace id + parent span id) rides with every sampled event — including
// across machines in the wire frames (engine/wire.h) — and each layer the
// event passes through records a 32-byte SpanRecord into the local
// machine's TraceSink: publish, queue wait, map/update execution, slate
// fetch (hit/miss/store round-trip), and the cross-machine hop. Stitching
// the spans of one trace id back together reconstructs the event's full
// path through the cluster (the "where did a slow event spend its time"
// question the paper's §5 latency claims beg).
//
// Sampling is deterministic in the event *content*: an event is traced
// iff Mix64(hash(key)) falls in the sample window. Engine-assigned state
// (seq numbers, wall-clock times) never feeds the decision, so a chaos
// replay of the same seeded workload re-samples exactly the same traces —
// the same property net/fault.h relies on for fault decisions.
#ifndef MUPPET_COMMON_TRACE_H_
#define MUPPET_COMMON_TRACE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/sync.h"

namespace muppet {

// The per-event trace state carried on the wire. trace_id == 0 is the
// "sampled bit" cleared: the event is untraced and every tracing site is
// a single branch. parent_span links a downstream event to the span of
// the operator execution that emitted it.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;

  bool sampled() const { return trace_id != 0; }

  friend bool operator==(const TraceContext& a, const TraceContext& b) {
    return a.trace_id == b.trace_id && a.parent_span == b.parent_span;
  }
};

// Span taxonomy (DESIGN.md §9). One span per layer an event crosses.
enum class SpanKind : uint8_t {
  kPublish = 0,     // external publish (the root span of a trace)
  kQueueWait = 1,   // enqueue -> dequeue on a worker queue
  kMapExec = 2,     // mapper invocation
  kUpdateExec = 3,  // updater invocation (slate lock held)
  kSlateFetch = 4,  // slate cache fetch, incl. store round-trip on miss
  kNetHop = 5,      // cross-machine transport send
};

const char* SpanKindName(SpanKind kind);

// How a slate fetch was served (the slate_fetch span's note).
enum class SpanNote : uint8_t {
  kNone = 0,
  kHit = 1,           // cached slate
  kAbsentCached = 2,  // cached "no slate" entry
  kStore = 3,         // read from the durable store
  kStoreAbsent = 4,   // absent from the store too
};

// "", "hit", "absent_cached", "store", "store_absent".
const char* SpanNoteName(SpanNote note);
// Inverse of SpanNoteName; kNone for any other string.
SpanNote SpanNoteFromName(std::string_view name);

// A span as the read side (Recent/Slowest, /tracez, SloTracker) sees it.
struct Span {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span = 0;
  SpanKind kind = SpanKind::kPublish;
  // Machine the span was recorded on (-1 = unknown/external).
  int32_t machine = -1;
  // Operator or stream name; "->mN" for net hops.
  std::string name;
  // Kind-specific annotation: a SpanNoteName, e.g. "hit" or "store".
  std::string note;
  Timestamp start_us = 0;
  Timestamp end_us = 0;

  Timestamp duration_us() const { return end_us - start_us; }
};

// Span id allocator; never returns 0. Ids carry a random per-process
// salt in their top 20 bits (re-drawn in a forked child), so spans that
// different muppetd processes record do not share ids. Each thread takes
// ids from its own block of 1024, touching shared state once per block.
// The salt only names spans: sampling and fault decisions never see it.
uint64_t NextSpanId();

// Deterministic sampling decision: true iff the event keyed by `key_hash`
// is traced at 1-in-`sample_period`. period 1 traces everything; period 0
// disables tracing. Pure function of its arguments (chaos-replay safe).
inline bool TraceSampled(uint64_t key_hash, uint64_t sample_period) {
  if (sample_period == 0) return false;
  if (sample_period == 1) return true;
  return Mix64(key_hash) % sample_period == 0;
}

// Trace id for a freshly sampled event; mixes the publish seq in so two
// events with the same key get distinct traces. Never returns 0.
inline uint64_t MakeTraceId(uint64_t key_hash, uint64_t seq) {
  const uint64_t id = Mix64(key_hash ^ (seq * 0x9E3779B97F4A7C15ULL));
  return id == 0 ? 1 : id;
}

// Dense id of a (machine, name) pair in one TraceSink's label table
// (TraceSink::Label). Label 0 is reserved for machine -1 with an empty
// name, the fields of a default Span.
using SpanLabel = uint16_t;

// A span as a sink stores it: 32 bytes, no strings. The trace id lives
// in the sink's trace slot and the machine and name in the label, so the
// record path copies this POD and nothing else.
struct SpanRecord {
  uint64_t span_id = 0;
  uint64_t parent_span = 0;
  Timestamp start_us = 0;
  // Clamped to [0, UINT32_MAX] microseconds (about 71 minutes).
  uint32_t duration_us = 0;
  SpanLabel label = 0;
  SpanKind kind = SpanKind::kPublish;
  SpanNote note = SpanNote::kNone;
};
static_assert(sizeof(SpanRecord) == 32, "SpanRecord is a 32-byte POD");

// Per-machine in-memory flight recorder: the most recent traces plus the
// slowest traces evicted from them, so a burst of fast traces cannot wash
// out the outliers a latency investigation needs (DESIGN.md §9).
//
// Storage is preallocated: 8 lock-striped shards (stripe = trace_id % 8)
// each own a fixed slab of trace slots, recent_capacity / 8 of them a
// ring in the order their traces began and kSlowestCapacity / 8 holding
// that stripe's slowest evicted traces. A slot keeps its first three
// SpanRecords inline and spills the rest to the heap, up to
// max_spans_per_trace. A new trace takes the ring's oldest slot; if the
// trace there outlasts the stripe's fastest slowest candidate, it swaps
// into that candidate's slot first. Recording a span within inline
// capacity therefore takes one stripe mutex, probes an open-addressed
// index, and copies 32 bytes: no allocation, no sink-wide lock.
// Recent() and Slowest() rebuild full Spans, names and notes included,
// on demand.
class TraceSink {
 public:
  struct Options {
    // Traces retained in the recent ring (across all stripes).
    size_t recent_capacity = 256;
    // Hard cap on spans per trace (runaway cyclic workflows); at most
    // 65,535.
    size_t max_spans_per_trace = 128;
  };

  struct TraceRecord {
    uint64_t trace_id = 0;
    Timestamp first_start_us = 0;
    Timestamp last_end_us = 0;
    std::vector<Span> spans;
    // Set by MarkHarvested once SloTracker::Harvest has observed the
    // trace.
    bool harvested = false;

    Timestamp duration_us() const { return last_end_us - first_start_us; }
  };

  TraceSink();
  explicit TraceSink(Options options);

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  // The label of spans `machine` records under `name`, interned on first
  // use. Engines intern their stream, operator and net-hop names once at
  // Start(); the table holds at most 65,536 labels, and names past that
  // get label 0.
  SpanLabel Label(int32_t machine, std::string_view name);

  // Append a span to trace `trace_id` (claiming a slot if the trace is
  // new). trace_id 0 is dropped.
  void Record(uint64_t trace_id, const SpanRecord& span);

  // Record a span of `context`'s trace, parented to context.parent_span,
  // over [start_us, end_us]. Returns the new span's id.
  uint64_t Record(const TraceContext& context, SpanKind kind, SpanLabel label,
                  Timestamp start_us, Timestamp end_us,
                  SpanNote note = SpanNote::kNone);

  // Record a spelled-out span, interning its (machine, name) label.
  void Record(const Span& span);

  // The retained recent traces, newest (largest end time) first; `max` 0
  // = all.
  std::vector<TraceRecord> Recent(size_t max = 0) const;

  // The slowest traces evicted from the recent ring, slowest first; at
  // most kSlowestCapacity.
  std::vector<TraceRecord> Slowest() const;

  // Mark every retained record of `trace_id` harvested (SloTracker). The
  // mark travels with the slot into the slowest set, so a harvested trace
  // is never observed twice while the sink holds it.
  void MarkHarvested(uint64_t trace_id);

  int64_t spans_recorded() const;
  int64_t spans_dropped() const;
  int64_t traces_evicted() const;

  // Lock-hierarchy levels (pinned by tests/common/sync_test.cc). Spans
  // are recorded while subsystem locks (slate stripes, queue mutexes) are
  // held, so both sit near the leaf end of the hierarchy. The label table
  // is never locked while a stripe is held.
  static constexpr LockLevel kStripeLockLevel = LockLevel::kTraceStripe;
  static constexpr LockLevel kLabelsLockLevel = LockLevel::kTraceLabels;

  // Slowest traces retained after falling out of the recent ring (across
  // all stripes).
  static constexpr size_t kSlowestCapacity = 16;

 private:
  static constexpr size_t kStripes = 8;
  static constexpr size_t kInlineSpans = 3;
  static constexpr size_t kSlowestPerStripe = kSlowestCapacity / kStripes;
  static_assert(kSlowestCapacity % kStripes == 0,
                "every stripe keeps the same number of slowest candidates");

  struct StripeMutex : Mutex {
    StripeMutex() : Mutex(kStripeLockLevel) {}
  };

  // One trace's spans on this sink. trace_id 0 = free.
  struct Slot {
    uint64_t trace_id = 0;
    // Spans past kInlineSpans; capacity bit_ceil(spans - kInlineSpans),
    // capped at max_spans_per_trace - kInlineSpans.
    std::unique_ptr<SpanRecord[]> spill;
    uint16_t spans = 0;
    bool harvested = false;
    SpanRecord inline_spans[kInlineSpans];

    const SpanRecord& at(size_t i) const {
      return i < kInlineSpans ? inline_spans[i] : spill[i - kInlineSpans];
    }
  };

  struct alignas(64) Stripe {
    mutable StripeMutex mutex;
    // The ring, recent_per_stripe_ slots in the order their traces began
    // (once full, slots[next] holds the oldest), then kSlowestPerStripe
    // slowest candidates.
    std::vector<Slot> slots MUPPET_GUARDED_BY(mutex);
    size_t next MUPPET_GUARDED_BY(mutex) = 0;
    size_t live MUPPET_GUARDED_BY(mutex) = 0;
    // Durations of the slowest candidates (-1 = empty).
    std::vector<Timestamp> slowest_us MUPPET_GUARDED_BY(mutex);
    // Open-addressed (linear probing) trace id -> ring slot + 1; 0 = empty.
    std::vector<uint32_t> index MUPPET_GUARDED_BY(mutex);
    int64_t recorded MUPPET_GUARDED_BY(mutex) = 0;
    int64_t dropped MUPPET_GUARDED_BY(mutex) = 0;
    int64_t evicted MUPPET_GUARDED_BY(mutex) = 0;
  };

  // A slot's spans copied out under its stripe lock, resolved later.
  struct RawTrace {
    uint64_t trace_id = 0;
    bool harvested = false;
    std::vector<SpanRecord> spans;
  };

  size_t IndexHome(uint64_t trace_id) const;
  // Ring slot holding `trace_id`, or -1.
  int64_t Find(const Stripe& stripe, uint64_t trace_id) const
      MUPPET_REQUIRES(stripe.mutex);
  void IndexErase(Stripe& stripe, uint64_t trace_id)
      MUPPET_REQUIRES(stripe.mutex);
  // Claim a ring slot for new trace `trace_id`, retiring the oldest.
  Slot& StartTrace(Stripe& stripe, uint64_t trace_id)
      MUPPET_REQUIRES(stripe.mutex);
  static RawTrace Copy(const Slot& slot);
  std::vector<TraceRecord> Resolve(std::vector<RawTrace> raw) const;
  int64_t Sum(int64_t Stripe::*field) const;

  Options options_;
  size_t recent_per_stripe_;
  size_t index_mask_;
  std::array<Stripe, kStripes> stripes_;

  struct LabelEntry {
    int32_t machine;
    std::string name;
  };
  mutable Mutex labels_mutex_{kLabelsLockLevel};
  std::vector<LabelEntry> labels_ MUPPET_GUARDED_BY(labels_mutex_);
};

// RAII span recorder: Begin() arms it, destruction (or End()) stamps the
// end time and records into the sink. Disarmed instances cost one branch,
// so call sites wrap untraced events for free. Handy where a span must
// cover a region with several exit paths (send retries, error returns).
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ~ScopedSpan() { End(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Arm the span; start time is taken from `clock` now. `sink` and
  // `clock` must outlive the ScopedSpan. `label` comes from sink->Label().
  void Begin(TraceSink* sink, Clock* clock, const TraceContext& context,
             SpanKind kind, SpanLabel label);
  // As above, interning (machine, name) into the sink's labels.
  void Begin(TraceSink* sink, Clock* clock, const TraceContext& context,
             SpanKind kind, int32_t machine, std::string_view name);

  void set_note(SpanNote note) { span_.note = note; }
  void set_note(std::string_view note) { set_note(SpanNoteFromName(note)); }

  // The armed span's id (0 when disarmed) — what emitted child events use
  // as their parent_span.
  uint64_t span_id() const { return sink_ != nullptr ? span_.span_id : 0; }

  // Record now; further End() calls are no-ops.
  void End();

 private:
  TraceSink* sink_ = nullptr;
  Clock* clock_ = nullptr;
  uint64_t trace_id_ = 0;
  SpanRecord span_;
};

}  // namespace muppet

#endif  // MUPPET_COMMON_TRACE_H_
