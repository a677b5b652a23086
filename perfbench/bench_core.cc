#include "perfbench/bench_core.h"

#include <algorithm>
#include <thread>

#include "common/hash.h"
#include "engine/slatelog.h"
#include "kvstore/cluster.h"
#include "net/frame.h"

namespace perfbench {

void PaceUntil(int64_t deadline_ns) {
  constexpr int64_t kSleepThresholdNs = 200'000;
  const int64_t gap = deadline_ns - NowNs();
  if (gap > kSleepThresholdNs) {
    // Wake a little early and spin the rest: sleep overshoot would
    // otherwise show up as generator lateness.
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(gap - kSleepThresholdNs / 2));
  }
}

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------

namespace {

Json MetricJson(double value, const std::string& unit) {
  Json m = Json::MakeObject();
  m["value"] = value;
  m["unit"] = unit;
  return m;
}

}  // namespace

void Report::E2e(const std::string& name, double value,
                 const std::string& unit, int64_t samples) {
  e2e_[name] = MetricJson(value, unit);
  if (samples > 0) samples_[name] = samples;
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit, int64_t samples) {
  layer_[name] = MetricJson(value, unit);
  if (samples > 0) samples_[name] = samples;
}

void Report::Problem(const std::string& what) { problems_.push_back(what); }

void Report::Warn(const std::string& what) { warnings_.push_back(what); }

void Report::Info(const std::string& key, Json value) {
  info_[key] = std::move(value);
}

void Report::Lap(const std::string& name) {
  const int64_t now = NowNs();
  phases_[name] = static_cast<double>(now - last_lap_ns_) / 1e9;
  last_lap_ns_ = now;
}

Json Report::ToJson() const {
  Json doc = Json::MakeObject();
  doc["correct"] = problems_.empty();
  doc["attempted"] = attempted;
  doc["failed"] = failed;
  doc["e2e"] = e2e_;
  doc["layer"] = layer_;
  doc["samples"] = samples_;
  doc["info"] = info_;
  doc["info"]["phase_s"] = phases_;
  Json problems = Json::MakeArray();
  for (const std::string& p : problems_) problems.Append(p);
  doc["problems"] = std::move(problems);
  Json warnings = Json::MakeArray();
  for (const std::string& w : warnings_) warnings.Append(w);
  doc["warnings"] = std::move(warnings);
  return doc;
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::vector<double>& v = *values;
  if (!std::is_sorted(v.begin(), v.end())) std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// ---------------------------------------------------------------------------
// Counters.
// ---------------------------------------------------------------------------

Counters Counters::FromFamilies(const std::map<std::string, double>& f) {
  auto get = [&f](const char* name) {
    auto it = f.find(name);
    return it == f.end() ? 0.0 : it->second;
  };
  Counters c;
  c.published = get("muppet_events_published_total");
  c.processed = get("muppet_events_processed_total");
  c.emitted = get("muppet_events_emitted_total");
  c.lost = get("muppet_events_lost_failure_total");
  c.dropped = get("muppet_events_dropped_overflow_total");
  c.secondary = get("muppet_secondary_dispatch_total");
  c.contentions = get("muppet_slate_contention_total");
  c.cache_hits = get("muppet_slate_cache_hits_total");
  c.cache_misses = get("muppet_slate_cache_misses_total");
  c.store_reads = get("muppet_slate_store_reads_total");
  c.store_writes = get("muppet_slate_store_writes_total");
  c.slatelog_appends = get("muppet_slatelog_appends_total");
  c.checkpoints = get("muppet_checkpoints_total");
  c.deduped = get("muppet_events_deduped_total");
  c.msgs_sent = get("muppet_transport_messages_sent_total");
  c.msgs_local = get("muppet_transport_messages_local_total");
  c.frames_sent = get("muppet_transport_frames_sent_total");
  c.bytes_sent = get("muppet_transport_bytes_sent_total");
  c.declined = get("muppet_transport_messages_declined_total");
  return c;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void ReportCounters(const Counters& c, Report* report) {
  report->Layer("engine.ops_per_event", Ratio(c.processed, c.published),
                "ratio");
  report->Layer("engine.dropped", c.dropped, "count");
  report->Layer("engine.lost", c.lost, "count");
  report->Layer("engine.secondary_frac", Ratio(c.secondary, c.processed),
                "fraction");
  report->Layer("engine.slate_contentions", c.contentions, "count");
  report->Layer("engine.throttle_signals", c.throttle_signals, "count");
  report->Layer("cache.hit_ratio",
                Ratio(c.cache_hits, c.cache_hits + c.cache_misses),
                "fraction");
  report->Layer("cache.evictions", c.cache_evictions, "count");
  report->Layer("store.reads", c.store_reads, "count");
  report->Layer("store.writes", c.store_writes, "count");
  report->Layer("store.writes_per_update",
                Ratio(c.store_writes, c.processed), "ratio");
  report->Layer("slatelog.appends_per_update",
                Ratio(c.slatelog_appends, c.processed), "ratio");
  report->Layer("slatelog.checkpoints", c.checkpoints, "count");
  report->Layer("dedup.events", c.deduped, "count");
  report->Layer("transport.msgs_per_frame", Ratio(c.msgs_sent, c.sends()),
                "ratio");
  report->Layer("transport.local_frac",
                Ratio(c.msgs_local, c.msgs_local + c.msgs_sent), "fraction");
  report->Layer("transport.bytes_per_msg", Ratio(c.bytes_sent, c.msgs_sent),
                "B");
  report->Layer("transport.frames_sent", c.frames_sent, "count");
  report->Layer("transport.declined", c.declined, "count");
}

// ---------------------------------------------------------------------------
// Probes.
// ---------------------------------------------------------------------------

namespace {

// Keeps probe results observable so the timed calls cannot be dropped.
std::atomic<uint64_t> g_probe_sink{0};

}  // namespace

void ProbeFrameCodec(const Counters& c, double budget_seconds,
                     Report* report) {
  muppet::WireFrame frame;
  frame.type = muppet::FrameType::kBatch;
  frame.from = 0;
  frame.to = 1;
  frame.count =
      static_cast<uint32_t>(std::max(1.0, Ratio(c.msgs_sent, c.sends())));
  frame.payload.assign(
      static_cast<size_t>(std::max(1.0, Ratio(c.bytes_sent, c.sends()))), 'f');
  for (size_t i = 0; i < frame.payload.size(); ++i) {
    frame.payload[i] = static_cast<char>('a' + i % 23);
  }
  const int64_t half_budget =
      static_cast<int64_t>(budget_seconds * 0.5 * 1e9);

  uint64_t sink = 0;
  int64_t bytes = 0;
  int64_t start = NowNs();
  int64_t now = start;
  while (now - start < half_budget) {
    for (int i = 0; i < 64; ++i) {
      const Bytes encoded = muppet::EncodeFrame(frame);
      sink += static_cast<unsigned char>(encoded[encoded.size() / 2]);
      bytes += static_cast<int64_t>(encoded.size());
    }
    now = NowNs();
  }
  report->Layer("frame.encode_mbps",
                static_cast<double>(bytes) * 1e3 /
                    static_cast<double>(now - start),
                "MB/s");

  const Bytes encoded = muppet::EncodeFrame(frame);
  bytes = 0;
  start = NowNs();
  now = start;
  muppet::FrameDecoder decoder;
  while (now - start < half_budget) {
    for (int i = 0; i < 64; ++i) {
      decoder.Feed(encoded);
      muppet::WireFrame out;
      bool have = false;
      if (!decoder.Next(&out, &have).ok() || !have) {
        report->Problem("frame probe: decoder rejected an encoded frame");
        return;
      }
      sink += out.payload.size();
      bytes += static_cast<int64_t>(encoded.size());
    }
    now = NowNs();
  }
  report->Layer("frame.decode_mbps",
                static_cast<double>(bytes) * 1e3 /
                    static_cast<double>(now - start),
                "MB/s");
  g_probe_sink.fetch_add(sink, std::memory_order_relaxed);
}

void ProbeKvStore(const std::vector<Row>& rows, const std::string& dir,
                  double budget_seconds, Report* report) {
  namespace kv = muppet::kv;
  kv::KvClusterOptions options;
  options.num_nodes = 3;
  options.replication_factor = 2;
  options.node.data_dir = dir;
  kv::KvCluster cluster(options);
  if (muppet::Status s = cluster.Open(); !s.ok()) {
    report->Problem("kvstore probe: open: " + s.ToString());
    return;
  }
  const int64_t half_budget =
      static_cast<int64_t>(budget_seconds * 0.5 * 1e9);
  std::vector<double> put_us;
  std::vector<double> get_us;
  const int64_t put_start = NowNs();
  for (const Row& row : rows) {
    const int64_t t0 = NowNs();
    muppet::Status s = cluster.Put("slates", row.key, row.updater, row.value);
    put_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    if (!s.ok()) {
      report->Problem("kvstore probe: put: " + s.ToString());
      return;
    }
    if (NowNs() - put_start > half_budget) break;
  }
  for (size_t i = 0; i < put_us.size(); ++i) {
    const Row& row = rows[i];
    const int64_t t0 = NowNs();
    muppet::Result<kv::Record> got =
        cluster.Get("slates", row.key, row.updater);
    get_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    if (!got.ok() || got.value().value != row.value) {
      report->Problem("kvstore probe: get returned a different row");
      return;
    }
  }
  report->Layer("kvstore.put_us.p50", Percentile(&put_us, 0.5), "us",
                static_cast<int64_t>(put_us.size()));
  report->Layer("kvstore.get_us.p50", Percentile(&get_us, 0.5), "us",
                static_cast<int64_t>(get_us.size()));
}

void ProbeChangelog(const std::vector<Row>& rows, const std::string& dir,
                    double budget_seconds, Report* report) {
  muppet::SlateChangelog::Options options;
  options.sync_every_records = 1;
  muppet::SlateChangelog log(dir, /*machine=*/0, options);
  if (muppet::Status s = log.Open(); !s.ok()) {
    report->Problem("changelog probe: open: " + s.ToString());
    return;
  }
  const int64_t budget = static_cast<int64_t>(budget_seconds * 1e9);
  std::vector<double> append_us;
  const int64_t start = NowNs();
  for (size_t i = 0; i < rows.size() && NowNs() - start < budget; ++i) {
    muppet::SlateLogRecord rec;
    rec.kind = static_cast<uint8_t>(muppet::SlateLogKind::kUpdate);
    rec.updater = rows[i].updater;
    rec.key = rows[i].key;
    rec.value = rows[i].value;
    rec.ts = static_cast<muppet::Timestamp>(i + 1);
    rec.seq = i + 1;
    rec.work = muppet::Fnv1a64(rows[i].key);
    const int64_t t0 = NowNs();
    muppet::Result<uint64_t> lsn = log.Append(std::move(rec));
    append_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    if (!lsn.ok()) {
      report->Problem("changelog probe: append: " + lsn.status().ToString());
      return;
    }
  }
  (void)log.Close();
  report->Layer("slatelog.append_sync_us.p50", Percentile(&append_us, 0.5),
                "us", static_cast<int64_t>(append_us.size()));

  // Recovery reads the log back: replay what was just appended.
  muppet::SlateLogReplayStats stats;
  const int64_t replay_start = NowNs();
  muppet::Status s = muppet::SlateChangelog::Replay(
      dir, /*machine=*/0, /*from_lsn=*/0,
      [](const muppet::SlateLogRecord& rec) {
        g_probe_sink.fetch_add(rec.seq, std::memory_order_relaxed);
      },
      &stats);
  const int64_t replay_ns = NowNs() - replay_start;
  if (!s.ok() || stats.records != append_us.size()) {
    report->Problem("changelog probe: replay returned " +
                    std::to_string(stats.records) + " of " +
                    std::to_string(append_us.size()) + " records");
    return;
  }
  report->Layer("slatelog.replay_rps",
                static_cast<double>(stats.records) * 1e9 /
                    static_cast<double>(replay_ns),
                "records/s", static_cast<int64_t>(stats.records));
}

// ---------------------------------------------------------------------------
// Critical paths.
// ---------------------------------------------------------------------------

void ReportCriticalPaths(const std::vector<muppet::CriticalPath>& paths,
                         Report* report) {
  double total = 0, publish = 0, queue = 0, exec = 0, fetch = 0, hop = 0,
         unattributed = 0;
  for (const muppet::CriticalPath& p : paths) {
    total += static_cast<double>(p.total_us);
    publish += static_cast<double>(p.publish_us);
    queue += static_cast<double>(p.queue_wait_us);
    exec += static_cast<double>(p.exec_us);
    fetch += static_cast<double>(p.slate_fetch_us);
    hop += static_cast<double>(p.net_hop_us);
    unattributed += static_cast<double>(p.unattributed_us);
  }
  const int64_t n = static_cast<int64_t>(paths.size());
  report->Layer("path.publish_share", Ratio(publish, total), "fraction", n);
  report->Layer("path.queue_wait_share", Ratio(queue, total), "fraction", n);
  report->Layer("path.exec_share", Ratio(exec, total), "fraction", n);
  report->Layer("path.slate_fetch_share", Ratio(fetch, total), "fraction",
                n);
  report->Layer("path.net_hop_share", Ratio(hop, total), "fraction", n);
  report->Layer("path.unattributed_share", Ratio(unattributed, total),
                "fraction", n);
  report->Layer("path.total_us.mean", Ratio(total, static_cast<double>(n)),
                "us", n);
  report->Layer("path.n", static_cast<double>(n), "count");
}

muppet::JsonArray JsonArrayOf(const std::vector<double>& values) {
  muppet::JsonArray out;
  for (double v : values) out.push_back(Json(v));
  return out;
}

std::string Named(char prefix, uint64_t n) {
  std::string name(1, prefix);
  name += std::to_string(n);
  return name;
}

LineGenerator::LineGenerator(uint64_t seed, int stream)
    : rng_(seed * 0x9E3779B97F4A7C15ULL + 17 + static_cast<uint64_t>(stream)),
      zipf_(kVocabulary, 1.0) {}

void LineGenerator::Next() {
  line_.clear();
  for (int w = 0; w < kWordsPerLine; ++w) {
    words_[w] = static_cast<uint32_t>(zipf_.Sample(rng_));
    if (w > 0) line_.push_back(' ');
    line_ += Word(words_[w]);
  }
}

std::string Word(uint64_t rank) { return Named('w', rank); }

uint64_t FingerprintMix(uint64_t h, BytesView data) {
  return muppet::Mix64(h ^ muppet::Fnv1a64(data));
}

}  // namespace perfbench
