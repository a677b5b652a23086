// Shared pieces of the repository benchmark (perfbench/README.md): run
// configuration, the result report, sample statistics, engine counters,
// and the layer probes every workload runs at its own sizes.
#ifndef MUPPET_PERFBENCH_BENCH_CORE_H_
#define MUPPET_PERFBENCH_BENCH_CORE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/slo.h"
#include "common/trace.h"
#include "json/json.h"

namespace perfbench {

using muppet::Bytes;
using muppet::BytesView;
using muppet::Json;

// tail.throughput_eps is this quantile of the rates of a run's saturation
// windows. Windows that other load on the machine slowed fall below it,
// so it repeats better across runs than the median does (README.md).
constexpr double kThroughputQuantile = 0.9;
// About how long one saturation window lasts.
constexpr double kSaturationWindowSeconds = 0.25;
// A saturation window with no event quota: it ends on time.
constexpr int64_t kNoQuota = std::numeric_limits<int64_t>::max();

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Sleep until `deadline_ns` only when it is more than 200 us away; the
// caller spins through shorter gaps so the open-loop generator keeps its
// schedule.
void PaceUntil(int64_t deadline_ns);

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  // Measured time: rounds of about two seconds. A round spends half its
  // time in saturation windows (closed loop, each ending with a drain) and
  // half in one fixed-rate window (open loop).
  double seconds = 12.0;
  // Share of the run's fixed amounts of work to do: the warm-up, the setup
  // repetitions and the baseline's input. The warm-up is a fixed number of
  // events (about two seconds of saturation) and memory is read after it,
  // so it is measured on the same work however fast the machine runs.
  // Smoke runs take a small share; only runs at 1 are comparable.
  double work = 1.0;
  bool trace = false;
  // Budget for the layer probes and the traced phase (trace runs only).
  double probe_seconds = 2.0;
  // Scratch space for stores, changelogs and muppetd state; removed at
  // exit.
  std::string work_dir;
  std::string muppetd;  // wire workload only

  // `n` scaled by `work`, at least 1.
  int Scaled(int n) const { return std::max(1, static_cast<int>(n * work)); }
  int rounds() const { return std::max(1, static_cast<int>(seconds / 2)); }
  // Length of the fixed-rate window, and of a round's saturation windows
  // together.
  double window_seconds() const { return seconds / (2.0 * rounds()); }
  int saturation_windows() const {
    return std::max(1, static_cast<int>(window_seconds() /
                                            kSaturationWindowSeconds +
                                        0.5));
  }
  double saturation_window_seconds() const {
    return window_seconds() / saturation_windows();
  }
};

// Everything one run reports. `e2e` and `layer` map metric names to
// {value, unit}; `samples` gives the sample count behind a metric.
class Report {
 public:
  void E2e(const std::string& name, double value, const std::string& unit,
           int64_t samples = 0);
  void Layer(const std::string& name, double value, const std::string& unit,
             int64_t samples = 0);
  // A correctness violation: the run fails.
  void Problem(const std::string& what);
  void Warn(const std::string& what);
  void Info(const std::string& key, Json value);
  // Record the wall time since the previous lap (or construction) under
  // info.phase_s.<name>.
  void Lap(const std::string& name);

  bool ok() const { return problems_.empty(); }
  Json ToJson() const;

  int64_t attempted = 0;
  int64_t failed = 0;

 private:
  Json e2e_ = Json::MakeObject();
  Json layer_ = Json::MakeObject();
  Json samples_ = Json::MakeObject();
  Json info_ = Json::MakeObject();
  Json phases_ = Json::MakeObject();
  int64_t last_lap_ns_ = NowNs();
  std::vector<std::string> problems_;
  std::vector<std::string> warnings_;
};

// Linear interpolation between order statistics (q in [0, 1]); 0 for an
// empty set. Sorts *values in place (no copy, so sample buffers add no
// memory).
double Percentile(std::vector<double>* values, double q);
double Mean(const std::vector<double>& values);

// One slate read back during verification; the probes replay these rows
// against the kvstore and the changelog.
struct Row {
  std::string updater;
  Bytes key;
  Bytes value;
};

// Engine-wide counters, from EngineStats plus the metrics registry for
// in-process engines, or summed over every node's /metrics for muppetd.
struct Counters {
  double published = 0, processed = 0, emitted = 0;
  double lost = 0, dropped = 0;
  double secondary = 0, contentions = 0, throttle_signals = 0;
  double cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  double store_reads = 0, store_writes = 0;
  double slatelog_appends = 0, checkpoints = 0, deduped = 0;
  double msgs_sent = 0, msgs_local = 0, frames_sent = 0, bytes_sent = 0;
  double declined = 0;

  // Prometheus family name -> value summed over label sets.
  static Counters FromFamilies(const std::map<std::string, double>& f);

  // Transport sends: batch frames, or single messages for an engine that
  // sends no batches (Muppet 1.0).
  double sends() const { return frames_sent > 0 ? frames_sent : msgs_sent; }
};

// Per-layer rows derived from the counters (engine, cache, store,
// changelog and transport layers).
void ReportCounters(const Counters& c, Report* report);

// Layer probes, each bounded by `budget_seconds`.
// Frame codec throughput at the run's mean send size.
void ProbeFrameCodec(const Counters& c, double budget_seconds,
                     Report* report);
// KvCluster Put then Get of `rows` (3 nodes, replication factor 2).
void ProbeKvStore(const std::vector<Row>& rows, const std::string& dir,
                  double budget_seconds, Report* report);
// SlateChangelog::Append with a sync per record, on records built from
// `rows`, then SlateChangelog::Replay of what was appended.
void ProbeChangelog(const std::vector<Row>& rows, const std::string& dir,
                    double budget_seconds, Report* report);

// Critical-path rows (path.*) from assembled traces: each bucket's share
// of the summed critical-path time, the mean total and the trace count.
void ReportCriticalPaths(const std::vector<muppet::CriticalPath>& paths,
                         Report* report);

muppet::JsonArray JsonArrayOf(const std::vector<double>& values);

// "<prefix><n>", the key and word names the generators use.
std::string Named(char prefix, uint64_t n);

// The wire workload's input: lines of kWordsPerLine words drawn Zipf(1.0)
// from a kVocabulary-word vocabulary. `stream` picks one of a seed's
// independent streams.
class LineGenerator {
 public:
  static constexpr uint64_t kVocabulary = 2000;
  static constexpr int kWordsPerLine = 8;

  LineGenerator(uint64_t seed, int stream);
  void Next();
  const std::string& line() const { return line_; }
  const uint32_t* words() const { return words_; }

 private:
  muppet::Rng rng_;
  muppet::ZipfSampler zipf_;
  uint32_t words_[kWordsPerLine] = {};
  std::string line_;
};

std::string Word(uint64_t rank);

// Stable 64-bit mix for input fingerprints.
uint64_t FingerprintMix(uint64_t h, BytesView data);

}  // namespace perfbench

#endif  // MUPPET_PERFBENCH_BENCH_CORE_H_
