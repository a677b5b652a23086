#include "common/slo.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <unordered_map>

namespace muppet {
namespace {

// Error budget implied by a p99 objective: 1% of events may breach.
constexpr double kErrorBudget = 0.01;

std::string WindowLabel(Timestamp window_micros) {
  return std::to_string(window_micros / kMicrosPerSecond) + "s";
}

}  // namespace

CriticalPath ComputeCriticalPath(const std::vector<Span>& spans) {
  CriticalPath path;
  if (spans.empty()) return path;
  path.trace_id = spans.front().trace_id;
  path.spans = static_cast<int>(spans.size());

  Timestamp first_start = spans.front().start_us;
  Timestamp last_end = spans.front().end_us;
  std::vector<int32_t> machines;
  // Span ids of exec spans, to tell nested slate fetches (charged against
  // exec so the buckets stay disjoint) from any other fetch.
  std::vector<uint64_t> exec_ids;
  for (const Span& span : spans) {
    first_start = std::min(first_start, span.start_us);
    last_end = std::max(last_end, span.end_us);
    if (std::find(machines.begin(), machines.end(), span.machine) ==
        machines.end()) {
      machines.push_back(span.machine);
    }
    if (span.kind == SpanKind::kMapExec || span.kind == SpanKind::kUpdateExec) {
      exec_ids.push_back(span.span_id);
    }
    if (span.kind == SpanKind::kPublish && path.stream.empty()) {
      path.stream = span.name;
    }
  }
  path.machines = static_cast<int>(machines.size());
  path.total_us = std::max<Timestamp>(0, last_end - first_start);

  // Buckets in precedence order: where spans overlap, the first one open
  // takes the time. Slate fetches nested in an exec span come before exec
  // so exec is charged exclusive of them.
  enum Bucket { kNestedFetch, kExec, kFetch, kQueue, kNet, kPublish, kNone };
  struct Edge {
    Timestamp at;
    Bucket bucket;
    int delta;  // +1 opens a span, -1 closes one
  };
  std::vector<Edge> edges;
  edges.reserve(2 * spans.size());
  for (const Span& span : spans) {
    if (span.end_us <= span.start_us) continue;
    Bucket bucket = kPublish;
    switch (span.kind) {
      case SpanKind::kPublish:
        break;
      case SpanKind::kQueueWait:
        bucket = kQueue;
        break;
      case SpanKind::kMapExec:
      case SpanKind::kUpdateExec:
        bucket = kExec;
        break;
      case SpanKind::kSlateFetch:
        bucket = std::find(exec_ids.begin(), exec_ids.end(),
                           span.parent_span) != exec_ids.end()
                     ? kNestedFetch
                     : kFetch;
        break;
      case SpanKind::kNetHop:
        bucket = kNet;
        break;
    }
    edges.push_back({span.start_us, bucket, +1});
    edges.push_back({span.end_us, bucket, -1});
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.at < b.at; });

  // Sweep [first_start, last_end]: each stretch between two consecutive
  // span boundaries goes to one bucket, so the buckets partition total_us.
  std::array<int, kNone> open{};
  std::array<Timestamp, kNone + 1> charged{};
  Timestamp at = first_start;
  for (const Edge& edge : edges) {
    if (edge.at > at) {
      int bucket = 0;
      while (bucket < kNone && open[bucket] == 0) ++bucket;
      charged[bucket] += edge.at - at;
      at = edge.at;
    }
    open[edge.bucket] += edge.delta;
  }
  charged[kNone] += std::max<Timestamp>(0, last_end - at);
  path.publish_us = charged[kPublish];
  path.queue_wait_us = charged[kQueue];
  path.exec_us = charged[kExec];
  path.slate_fetch_us = charged[kNestedFetch] + charged[kFetch];
  path.net_hop_us = charged[kNet];
  path.unattributed_us = charged[kNone];
  return path;
}

SloTracker::SloTracker(SloOptions options, MetricsRegistry* registry,
                       Clock* clock)
    : options_(std::move(options)), registry_(registry), clock_(clock) {}

SloTracker::StreamState* SloTracker::StateFor(const std::string& stream) {
  auto it = streams_.find(stream);
  if (it != streams_.end()) return &it->second;

  StreamState state;
  for (const SloObjective& objective : options_.objectives) {
    if (objective.stream == stream) {
      state.objective = &objective;
      break;
    }
  }
  if (registry_ != nullptr) {
    // kSlo < kMetrics in the hierarchy, so taking the registry lock here
    // (with mutex_ held) is in order.
    const MetricLabels stream_label = {{"stream", stream}};
    state.latency =
        registry_->GetHistogram("muppet_slo_e2e_latency_us", stream_label);
    state.ok_events = registry_->GetCounter(
        "muppet_slo_events_total", {{"stream", stream}, {"outcome", "ok"}});
    state.breach_events = registry_->GetCounter(
        "muppet_slo_events_total", {{"stream", stream}, {"outcome", "breach"}});
    if (state.objective != nullptr && clock_ != nullptr) {
      for (Timestamp window : kBurnWindows) {
        registry_->RegisterCallback(
            "muppet_slo_burn_rate_milli",
            {{"stream", stream}, {"window", WindowLabel(window)}},
            MetricType::kGauge, [this, stream, window]() -> int64_t {
              MutexLock lock(mutex_);
              auto sit = streams_.find(stream);
              if (sit == streams_.end()) return 0;
              return static_cast<int64_t>(std::llround(
                  BurnRate(sit->second, window, clock_->Now()) * 1000.0));
            });
      }
    }
  } else {
    state.own_latency = std::make_unique<Histogram>();
  }
  auto [inserted, _] = streams_.emplace(stream, std::move(state));
  return &inserted->second;
}

const Histogram* SloTracker::HistogramFor(const StreamState& state) const {
  return state.latency != nullptr ? state.latency : state.own_latency.get();
}

void SloTracker::Observe(uint64_t trace_id, const std::vector<Span>& spans,
                         Timestamp now) {
  MutexLock lock(mutex_);
  ObserveLocked(trace_id, spans, now);
}

void SloTracker::ObserveLocked(uint64_t trace_id,
                               const std::vector<Span>& spans, Timestamp now) {
  if (spans.empty()) return;
  CriticalPath path = ComputeCriticalPath(spans);
  path.trace_id = trace_id;
  traces_observed_.Add();
  if (path.stream.empty()) traces_unattributed_.Add();

  StreamState* state = StateFor(path.stream);
  Histogram* h =
      state->latency != nullptr ? state->latency : state->own_latency.get();
  if (h != nullptr) h->Record(path.total_us);
  const bool breach = state->objective != nullptr &&
                      path.total_us > state->objective->target_p99_us;
  if (state->ok_events != nullptr) {
    (breach ? state->breach_events : state->ok_events)->Add();
  }

  // Burn accounting: bucketed good/breach counts, advanced lazily.
  const int64_t bucket = now / kBucketMicros;
  if (state->buckets.empty() || state->buckets.back().index != bucket) {
    // Drop buckets older than the longest window.
    const int64_t horizon =
        bucket - kBurnWindows[std::size(kBurnWindows) - 1] / kBucketMicros - 1;
    while (!state->buckets.empty() &&
           state->buckets.front().index < horizon) {
      state->buckets.pop_front();
    }
    BurnBucket fresh;
    fresh.index = bucket;
    state->buckets.push_back(fresh);
  }
  state->buckets.back().events++;
  if (breach) state->buckets.back().breaches++;

  // Worst critical paths, slowest first, bounded.
  auto pos = std::upper_bound(
      state->worst.begin(), state->worst.end(), path,
      [](const CriticalPath& a, const CriticalPath& b) {
        return a.total_us > b.total_us;
      });
  state->worst.insert(pos, path);
  if (state->worst.size() > kWorstPaths) state->worst.resize(kWorstPaths);
}

void SloTracker::Harvest(const std::vector<TraceSink*>& sinks, Timestamp now,
                         bool drained) {
  // Stitch: one trace's spans are scattered across machines' sinks (the
  // publish span lands on the accepting machine, exec spans on owners).
  // A trace any sink has marked was observed by an earlier harvest.
  struct Pending {
    std::vector<Span> spans;
    Timestamp last_end_us = 0;
    bool harvested = false;
  };
  MutexLock lock(mutex_);
  std::unordered_map<uint64_t, Pending> traces;
  for (TraceSink* sink : sinks) {
    if (sink == nullptr) continue;
    for (const std::vector<TraceSink::TraceRecord>& records :
         {sink->Recent(), sink->Slowest()}) {
      for (const TraceSink::TraceRecord& record : records) {
        Pending& pending = traces[record.trace_id];
        pending.harvested |= record.harvested;
        pending.last_end_us = std::max(pending.last_end_us, record.last_end_us);
        pending.spans.insert(pending.spans.end(), record.spans.begin(),
                             record.spans.end());
      }
    }
  }

  for (auto& [trace_id, pending] : traces) {
    if (pending.harvested) continue;
    if (!drained && pending.last_end_us + kSettleMicros > now) {
      continue;  // may still grow; pick it up on a later harvest
    }
    for (TraceSink* sink : sinks) {
      if (sink != nullptr) sink->MarkHarvested(trace_id);
    }
    ObserveLocked(trace_id, pending.spans, now);
  }
}

double SloTracker::BurnRate(const StreamState& state, Timestamp window,
                            Timestamp now) const {
  const int64_t horizon = now / kBucketMicros - window / kBucketMicros;
  int64_t events = 0;
  int64_t breaches = 0;
  for (const BurnBucket& bucket : state.buckets) {
    if (bucket.index < horizon) continue;
    events += bucket.events;
    breaches += bucket.breaches;
  }
  if (events == 0) return 0.0;
  const double breach_fraction =
      static_cast<double>(breaches) / static_cast<double>(events);
  return breach_fraction / kErrorBudget;
}

std::vector<SloTracker::StreamSnapshot> SloTracker::Snapshot(
    Timestamp now) const {
  std::vector<StreamSnapshot> out;
  MutexLock lock(mutex_);
  out.reserve(streams_.size());
  for (const auto& [stream, state] : streams_) {
    StreamSnapshot snap;
    snap.stream = stream;
    const Histogram* h = HistogramFor(state);
    if (h != nullptr) {
      snap.events = h->count();
      snap.mean_us = h->Mean();
      snap.p50_us = h->Percentile(0.50);
      snap.p95_us = h->Percentile(0.95);
      snap.p99_us = h->Percentile(0.99);
      snap.p999_us = h->Percentile(0.999);
      snap.max_us = h->max();
    }
    if (state.breach_events != nullptr) {
      snap.breaches = state.breach_events->Get();
    } else {
      for (const BurnBucket& bucket : state.buckets) {
        snap.breaches += bucket.breaches;
      }
    }
    if (state.objective != nullptr) {
      snap.has_objective = true;
      snap.objective = *state.objective;
      snap.meeting_objective =
          snap.events == 0 || snap.p99_us <= state.objective->target_p99_us;
      for (Timestamp window : kBurnWindows) {
        BurnSnapshot burn;
        burn.window_micros = window;
        burn.rate = BurnRate(state, window, now);
        const int64_t horizon = now / kBucketMicros - window / kBucketMicros;
        for (const BurnBucket& bucket : state.buckets) {
          if (bucket.index < horizon) continue;
          burn.events += bucket.events;
          burn.breaches += bucket.breaches;
        }
        snap.burn.push_back(burn);
      }
    }
    snap.worst = state.worst;
    out.push_back(std::move(snap));
  }
  return out;
}

std::vector<SloTracker::StreamSnapshot> SloTracker::Snapshot() const {
  return Snapshot(clock_ != nullptr ? clock_->Now() : 0);
}

}  // namespace muppet
