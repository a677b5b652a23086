#include "common/trace.h"

#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <limits>
#include <random>
#include <utility>

namespace muppet {
namespace {

// Span ids: salt in the top 20 bits, a per-process counter in the low 44
// (1.7e13 ids before the counter wraps).
constexpr int kSpanCounterBits = 44;
constexpr uint64_t kSpanCounterMask = (uint64_t{1} << kSpanCounterBits) - 1;
constexpr uint64_t kSpanIdBlock = 1024;

uint64_t DrawSpanIdSalt() {
  std::random_device device;
  const uint64_t entropy =
      (uint64_t{device()} << 32) ^ device() ^
      static_cast<uint64_t>(::getpid()) ^
      static_cast<uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count());
  const uint64_t salt = Mix64(entropy) >> kSpanCounterBits;
  return (salt == 0 ? 1 : salt) << kSpanCounterBits;
}

// This thread's unused ids: [t_next_span_id, t_span_block_end).
thread_local uint64_t t_next_span_id = 0;
thread_local uint64_t t_span_block_end = 0;

struct SpanIdSource {
  uint64_t salt = DrawSpanIdSalt();
  std::atomic<uint64_t> next_block{0};

  SpanIdSource() {
    // A forked child inherits the parent's salt, counter and this
    // thread's block; it must draw from an id space of its own. Only the
    // forking thread survives a fork, so resetting its block suffices.
    ::pthread_atfork(nullptr, nullptr, [] {
      SpanIdSource& source = Get();
      source.salt = DrawSpanIdSalt();
      source.next_block.store(0, std::memory_order_relaxed);
      t_next_span_id = t_span_block_end = 0;
    });
  }

  static SpanIdSource& Get() {
    static SpanIdSource source;
    return source;
  }
};

uint32_t ClampDuration(Timestamp duration_us) {
  return static_cast<uint32_t>(std::clamp<Timestamp>(
      duration_us, 0, std::numeric_limits<uint32_t>::max()));
}

Timestamp EndOf(const SpanRecord& span) {
  return span.start_us + span.duration_us;
}

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kPublish:
      return "publish";
    case SpanKind::kQueueWait:
      return "queue_wait";
    case SpanKind::kMapExec:
      return "map_exec";
    case SpanKind::kUpdateExec:
      return "update_exec";
    case SpanKind::kSlateFetch:
      return "slate_fetch";
    case SpanKind::kNetHop:
      return "net_hop";
  }
  return "unknown";
}

const char* SpanNoteName(SpanNote note) {
  switch (note) {
    case SpanNote::kNone:
      return "";
    case SpanNote::kHit:
      return "hit";
    case SpanNote::kAbsentCached:
      return "absent_cached";
    case SpanNote::kStore:
      return "store";
    case SpanNote::kStoreAbsent:
      return "store_absent";
  }
  return "";
}

SpanNote SpanNoteFromName(std::string_view name) {
  for (SpanNote note : {SpanNote::kHit, SpanNote::kAbsentCached,
                        SpanNote::kStore, SpanNote::kStoreAbsent}) {
    if (name == SpanNoteName(note)) return note;
  }
  return SpanNote::kNone;
}

uint64_t NextSpanId() {
  if (t_next_span_id == t_span_block_end) {
    SpanIdSource& source = SpanIdSource::Get();
    const uint64_t block =
        source.next_block.fetch_add(kSpanIdBlock, std::memory_order_relaxed) &
        kSpanCounterMask;
    t_next_span_id = source.salt | block;
    t_span_block_end = t_next_span_id + kSpanIdBlock;
  }
  return t_next_span_id++;
}

TraceSink::TraceSink() : TraceSink(Options()) {}

TraceSink::TraceSink(Options options)
    : options_(options),
      recent_per_stripe_(
          std::max<size_t>(1, options.recent_capacity / kStripes)),
      index_mask_(std::bit_ceil(2 * recent_per_stripe_) - 1) {
  options_.max_spans_per_trace = std::min<size_t>(
      options_.max_spans_per_trace, std::numeric_limits<uint16_t>::max());
  for (Stripe& stripe : stripes_) {
    MutexLock lock(stripe.mutex);
    stripe.slots.resize(recent_per_stripe_ + kSlowestPerStripe);
    stripe.slowest_us.assign(kSlowestPerStripe, -1);
    stripe.index.assign(index_mask_ + 1, 0);
  }
  MutexLock lock(labels_mutex_);
  labels_.push_back({-1, ""});
}

SpanLabel TraceSink::Label(int32_t machine, std::string_view name) {
  MutexLock lock(labels_mutex_);
  for (size_t i = 0; i < labels_.size(); ++i) {
    if (labels_[i].machine == machine && labels_[i].name == name) {
      return static_cast<SpanLabel>(i);
    }
  }
  if (labels_.size() > std::numeric_limits<SpanLabel>::max()) return 0;
  labels_.push_back({machine, std::string(name)});
  return static_cast<SpanLabel>(labels_.size() - 1);
}

size_t TraceSink::IndexHome(uint64_t trace_id) const {
  return static_cast<size_t>((trace_id * 0x9E3779B97F4A7C15ULL) >> 32) &
         index_mask_;
}

int64_t TraceSink::Find(const Stripe& stripe, uint64_t trace_id) const {
  for (size_t i = IndexHome(trace_id);; i = (i + 1) & index_mask_) {
    const uint32_t entry = stripe.index[i];
    if (entry == 0) return -1;
    if (stripe.slots[entry - 1].trace_id == trace_id) return entry - 1;
  }
}

void TraceSink::IndexErase(Stripe& stripe, uint64_t trace_id) {
  size_t hole = IndexHome(trace_id);
  while (stripe.slots[stripe.index[hole] - 1].trace_id != trace_id) {
    hole = (hole + 1) & index_mask_;
  }
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole unless that would move one before its home position.
  for (size_t i = (hole + 1) & index_mask_; stripe.index[i] != 0;
       i = (i + 1) & index_mask_) {
    const size_t home = IndexHome(stripe.slots[stripe.index[i] - 1].trace_id);
    if (((i - home) & index_mask_) >= ((i - hole) & index_mask_)) {
      stripe.index[hole] = stripe.index[i];
      hole = i;
    }
  }
  stripe.index[hole] = 0;
}

TraceSink::Slot& TraceSink::StartTrace(Stripe& stripe, uint64_t trace_id) {
  const size_t position = stripe.next;
  Slot& slot = stripe.slots[position];
  if (stripe.live == recent_per_stripe_) {
    // Retire the oldest trace, into the slowest set if it outlasts the
    // stripe's fastest candidate there (which it then replaces).
    IndexErase(stripe, slot.trace_id);
    ++stripe.evicted;
    Timestamp first = slot.spans > 0 ? slot.at(0).start_us : 0;
    Timestamp last = first;
    for (size_t i = 0; i < slot.spans; ++i) {
      first = std::min(first, slot.at(i).start_us);
      last = std::max(last, EndOf(slot.at(i)));
    }
    const auto fastest = std::min_element(stripe.slowest_us.begin(),
                                          stripe.slowest_us.end());
    if (last - first > *fastest) {
      *fastest = last - first;
      std::swap(slot, stripe.slots[recent_per_stripe_ +
                                   (fastest - stripe.slowest_us.begin())]);
    }
  } else {
    ++stripe.live;
  }
  stripe.next = (stripe.next + 1) % recent_per_stripe_;

  slot.trace_id = trace_id;
  slot.spans = 0;
  slot.harvested = false;
  slot.spill.reset();
  size_t i = IndexHome(trace_id);
  while (stripe.index[i] != 0) i = (i + 1) & index_mask_;
  stripe.index[i] = position + 1;
  return slot;
}

void TraceSink::Record(uint64_t trace_id, const SpanRecord& span) {
  Stripe& stripe = stripes_[trace_id % kStripes];
  MutexLock lock(stripe.mutex);
  if (trace_id == 0) {
    ++stripe.dropped;
    return;
  }
  ++stripe.recorded;
  const int64_t found = Find(stripe, trace_id);
  Slot& slot = found >= 0 ? stripe.slots[static_cast<size_t>(found)]
                          : StartTrace(stripe, trace_id);
  if (slot.spans >= options_.max_spans_per_trace) {
    ++stripe.dropped;
    return;
  }
  const size_t i = slot.spans++;
  if (i < kInlineSpans) {
    slot.inline_spans[i] = span;
    return;
  }
  // The spill array doubles when full: its capacity is bit_ceil(spilled),
  // capped at the per-trace limit.
  const size_t spilled = i - kInlineSpans;
  if (spilled == 0 || std::has_single_bit(spilled)) {
    const size_t capacity = std::min<size_t>(
        std::max<size_t>(1, 2 * spilled),
        options_.max_spans_per_trace - kInlineSpans);
    auto grown = std::make_unique<SpanRecord[]>(capacity);
    std::copy_n(slot.spill.get(), spilled, grown.get());
    slot.spill = std::move(grown);
  }
  slot.spill[spilled] = span;
}

uint64_t TraceSink::Record(const TraceContext& context, SpanKind kind,
                           SpanLabel label, Timestamp start_us,
                           Timestamp end_us, SpanNote note) {
  SpanRecord span;
  span.span_id = NextSpanId();
  span.parent_span = context.parent_span;
  span.start_us = start_us;
  span.duration_us = ClampDuration(end_us - start_us);
  span.label = label;
  span.kind = kind;
  span.note = note;
  Record(context.trace_id, span);
  return span.span_id;
}

void TraceSink::Record(const Span& span) {
  SpanRecord record;
  if (span.trace_id != 0) {
    record.span_id = span.span_id;
    record.parent_span = span.parent_span;
    record.start_us = span.start_us;
    record.duration_us = ClampDuration(span.end_us - span.start_us);
    record.label = Label(span.machine, span.name);
    record.kind = span.kind;
    record.note = SpanNoteFromName(span.note);
  }
  Record(span.trace_id, record);
}

TraceSink::RawTrace TraceSink::Copy(const Slot& slot) {
  RawTrace raw;
  raw.trace_id = slot.trace_id;
  raw.harvested = slot.harvested;
  raw.spans.reserve(slot.spans);
  for (size_t i = 0; i < slot.spans; ++i) raw.spans.push_back(slot.at(i));
  return raw;
}

std::vector<TraceSink::TraceRecord> TraceSink::Resolve(
    std::vector<RawTrace> raw) const {
  std::vector<TraceRecord> out;
  out.reserve(raw.size());
  MutexLock lock(labels_mutex_);
  for (const RawTrace& trace : raw) {
    TraceRecord record;
    record.trace_id = trace.trace_id;
    record.harvested = trace.harvested;
    record.spans.reserve(trace.spans.size());
    for (const SpanRecord& r : trace.spans) {
      const LabelEntry& label = labels_[r.label];
      Span span;
      span.trace_id = trace.trace_id;
      span.span_id = r.span_id;
      span.parent_span = r.parent_span;
      span.kind = r.kind;
      span.machine = label.machine;
      span.name = label.name;
      span.note = SpanNoteName(r.note);
      span.start_us = r.start_us;
      span.end_us = EndOf(r);
      if (record.spans.empty()) {
        record.first_start_us = span.start_us;
        record.last_end_us = span.end_us;
      }
      record.first_start_us = std::min(record.first_start_us, span.start_us);
      record.last_end_us = std::max(record.last_end_us, span.end_us);
      record.spans.push_back(std::move(span));
    }
    out.push_back(std::move(record));
  }
  return out;
}

std::vector<TraceSink::TraceRecord> TraceSink::Recent(size_t max) const {
  std::vector<RawTrace> raw;
  for (const Stripe& stripe : stripes_) {
    MutexLock lock(stripe.mutex);
    for (size_t i = 0; i < stripe.live; ++i) {
      raw.push_back(Copy(stripe.slots[i]));
    }
  }
  std::vector<TraceRecord> out = Resolve(std::move(raw));
  // Newest first: traces touched last have the largest end times.
  std::sort(out.begin(), out.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              return a.last_end_us > b.last_end_us;
            });
  if (max != 0 && out.size() > max) out.resize(max);
  return out;
}

std::vector<TraceSink::TraceRecord> TraceSink::Slowest() const {
  std::vector<RawTrace> raw;
  for (const Stripe& stripe : stripes_) {
    MutexLock lock(stripe.mutex);
    for (size_t k = 0; k < kSlowestPerStripe; ++k) {
      if (stripe.slowest_us[k] >= 0) {
        raw.push_back(Copy(stripe.slots[recent_per_stripe_ + k]));
      }
    }
  }
  // Each stripe keeps its own candidates, kSlowestCapacity in all; the
  // merge happens here.
  std::vector<TraceRecord> out = Resolve(std::move(raw));
  std::sort(out.begin(), out.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              return a.duration_us() > b.duration_us();
            });
  return out;
}

void TraceSink::MarkHarvested(uint64_t trace_id) {
  Stripe& stripe = stripes_[trace_id % kStripes];
  MutexLock lock(stripe.mutex);
  const int64_t found = Find(stripe, trace_id);
  if (found >= 0) stripe.slots[static_cast<size_t>(found)].harvested = true;
  for (size_t k = 0; k < kSlowestPerStripe; ++k) {
    Slot& slot = stripe.slots[recent_per_stripe_ + k];
    if (stripe.slowest_us[k] >= 0 && slot.trace_id == trace_id) {
      slot.harvested = true;
    }
  }
}

int64_t TraceSink::Sum(int64_t Stripe::*field) const {
  int64_t sum = 0;
  for (const Stripe& stripe : stripes_) {
    MutexLock lock(stripe.mutex);
    sum += stripe.*field;
  }
  return sum;
}

int64_t TraceSink::spans_recorded() const { return Sum(&Stripe::recorded); }
int64_t TraceSink::spans_dropped() const { return Sum(&Stripe::dropped); }
int64_t TraceSink::traces_evicted() const { return Sum(&Stripe::evicted); }

void ScopedSpan::Begin(TraceSink* sink, Clock* clock,
                       const TraceContext& context, SpanKind kind,
                       SpanLabel label) {
  if (sink == nullptr || !context.sampled()) return;
  sink_ = sink;
  clock_ = clock;
  trace_id_ = context.trace_id;
  span_ = SpanRecord();
  span_.span_id = NextSpanId();
  span_.parent_span = context.parent_span;
  span_.kind = kind;
  span_.label = label;
  span_.start_us = clock_->Now();
}

void ScopedSpan::Begin(TraceSink* sink, Clock* clock,
                       const TraceContext& context, SpanKind kind,
                       int32_t machine, std::string_view name) {
  if (sink == nullptr || !context.sampled()) return;
  Begin(sink, clock, context, kind, sink->Label(machine, name));
}

void ScopedSpan::End() {
  if (sink_ == nullptr) return;
  span_.duration_us = ClampDuration(clock_->Now() - span_.start_us);
  sink_->Record(trace_id_, span_);
  sink_ = nullptr;
}

}  // namespace muppet
