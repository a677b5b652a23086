// In-process workloads: the engine runs inside the benchmark process, fed
// through Engine::Publish by the benchmark's publisher threads, with
// benchmark-owned updaters that stamp update entry and completion times.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/retailer.h"
#include "common/rng.h"
#include "core/reference_executor.h"
#include "core/slate.h"
#include "core/slate_store.h"
#include "engine/muppet1.h"
#include "engine/muppet2.h"
#include "kvstore/cluster.h"
#include "perfbench/workloads.h"
#include "workload/checkins.h"
#include "workload/tweets.h"

namespace perfbench {
namespace {

using muppet::AppConfig;
using muppet::Engine;
using muppet::EngineOptions;
using muppet::Event;
using muppet::JsonSlate;
using muppet::PerformerUtilities;
using muppet::Status;
using muppet::Timestamp;

constexpr int kSetupReps = 31;
constexpr int kMachines = 2;
// Closed-loop publisher threads. One thread tops out near the cost of a
// single Publish call, so the saturation phase would time the generator
// rather than the engine; three saturate the four worker threads.
constexpr int kPublishers = 3;
constexpr size_t kQueueCapacity = 4096;
constexpr int64_t kWindow = kQueueCapacity / 2;
constexpr size_t kProbeRows = 2000;
// Bounds the fixed-work warm-up on a very slow machine.
constexpr double kWarmupCapSeconds = 30;

// ---------------------------------------------------------------------------
// Completion stamps.
// ---------------------------------------------------------------------------

// The first 8 bytes of every tracked event value carry its sequence
// number in the fixed-rate phase (0 = untracked), so the benchmark
// updaters can stamp completion times against the generator's schedule.
constexpr size_t kHeaderBytes = 8;

void AppendHeader(uint64_t seq, Bytes* out) { muppet::PutFixed64(out, seq); }

uint64_t HeaderSeq(BytesView value) {
  if (value.size() < kHeaderBytes) return 0;
  return muppet::DecodeFixed64(value.data());
}

// Update-entry and completion times (steady clock, ns) written by the
// benchmark updaters for tracked events, indexed by sequence number.
class Stamps {
 public:
  explicit Stamps(size_t capacity)
      : capacity_(capacity),
        entry_(new std::atomic<int64_t>[capacity + 1]),
        done_(new std::atomic<int64_t>[capacity + 1]) {
    for (size_t i = 0; i <= capacity; ++i) {
      entry_[i].store(0, std::memory_order_relaxed);
      done_[i].store(0, std::memory_order_relaxed);
    }
  }

  void Record(uint64_t seq, int64_t entry_ns, int64_t done_ns) {
    if (seq == 0 || seq > capacity_) return;
    entry_[seq].store(entry_ns, std::memory_order_relaxed);
    done_[seq].store(done_ns, std::memory_order_relaxed);
  }
  int64_t entry(uint64_t seq) const {
    return seq <= capacity_ ? entry_[seq].load(std::memory_order_relaxed) : 0;
  }
  int64_t done(uint64_t seq) const {
    return seq <= capacity_ ? done_[seq].load(std::memory_order_relaxed) : 0;
  }
  size_t capacity() const { return capacity_; }

 private:
  size_t capacity_;
  std::unique_ptr<std::atomic<int64_t>[]> entry_;
  std::unique_ptr<std::atomic<int64_t>[]> done_;
};

// Peak resident set of this process (MiB).
double SelfPeakRssMiB() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// Heap bytes in use in this process (MiB), over every malloc arena. Unlike
// the RSS it does not count free memory an arena still holds, which varies
// with which thread happened to allocate what.
double HeapInUseMiB() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

// ---------------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------------

struct Input {
  const std::string* stream = nullptr;
  BytesView key;
  BytesView body;
  Timestamp ts = 0;
  // The value carries the sequence header and a benchmark updater stamps
  // it; untracked events (checkins, read by the library's RetailerMapper)
  // carry their body unchanged.
  bool tracked = false;
};

// A seeded input stream plus the tally of what the engine must end up
// holding for the events it accepted. Each publisher thread owns one;
// `stream` picks which of a seed's independent streams it generates.
class Source {
 public:
  Source(uint64_t seed, std::string read_updater)
      : read_updater_(std::move(read_updater)),
        read_rng_(seed ^ 0x7EADC0DEULL) {}
  virtual ~Source() = default;

  virtual void Next(Input* in) = 0;
  // Count the input last returned by Next() as accepted.
  virtual void TallyLast() = 0;
  // Add the tally of another source of the same workload to this one.
  virtual void Absorb(const Source& other) = 0;
  // Compare the engine's slates with the tally; adds probe rows to `rows`
  // when it is not null.
  virtual void Verify(Engine* engine, uint64_t seed, Report* report,
                      std::vector<Row>* rows) = 0;

  // Freeze the set of slates that exist now; live reads pick uniformly
  // among them, so a read never races the first update of its slate.
  void MarkReadable() { readable_ = ExistingKeys(); }
  void ReadTarget(const std::string** updater, BytesView* key) {
    *updater = &read_updater_;
    *key = readable_.empty() ? BytesView()
                             : BytesView(readable_[read_rng_.Uniform(
                                   readable_.size())]);
  }

  // Publishes the engine accepted and refused, counted by PublishOne.
  int64_t published = 0;
  int64_t refused = 0;

 protected:
  virtual std::vector<Bytes> ExistingKeys() const = 0;

 private:
  std::string read_updater_;
  muppet::Rng read_rng_;
  std::vector<Bytes> readable_;
};

// Inputs whose application counts them per key into JSON slates
// {"count": n} under updater "count": the count workloads and wordcount.
// `expected_[i]` is what key `keys_[i]` must count.
class TallySource : public Source {
 public:
  TallySource(uint64_t seed, std::vector<Bytes> keys)
      : Source(seed, "count"), keys_(std::move(keys)),
        expected_(keys_.size(), 0) {}

  void Absorb(const Source& other) override {
    const auto& o = static_cast<const TallySource&>(other);
    for (size_t i = 0; i < keys_.size(); ++i) expected_[i] += o.expected_[i];
  }

  void Verify(Engine* engine, uint64_t /*seed*/, Report* report,
              std::vector<Row>* rows) override {
    int64_t mismatched = 0;
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (expected_[i] == 0) continue;
      muppet::Result<Bytes> slate = engine->FetchSlate(updater_, keys_[i]);
      const Bytes value = slate.ok() ? slate.value() : Bytes();
      JsonSlate s(slate.ok() ? &value : nullptr);
      if (!slate.ok() || s.data().GetInt("count") != expected_[i]) {
        ++mismatched;
        continue;
      }
      if (rows != nullptr && rows->size() < kProbeRows) {
        rows->push_back({updater_, keys_[i], value});
      }
    }
    if (mismatched > 0) {
      report->Problem(std::to_string(mismatched) + " count slates differ");
      report->failed += mismatched;
    }
  }

 protected:
  std::vector<Bytes> ExistingKeys() const override {
    std::vector<Bytes> keys;
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (expected_[i] > 0) keys.push_back(keys_[i]);
    }
    return keys;
  }

  std::vector<Bytes> keys_;
  std::vector<int64_t> expected_;

 private:
  const std::string updater_ = "count";
};

std::vector<Bytes> NamedKeys(char prefix, uint64_t n) {
  std::vector<Bytes> keys;
  for (uint64_t i = 0; i < n; ++i) keys.push_back(Named(prefix, i));
  return keys;
}

// Zipf(0.8) over 10k keys, 64-byte values, drawn once into a ring so
// generation costs nothing on the publish path.
class CountSource final : public TallySource {
 public:
  static constexpr uint64_t kKeys = 10000;
  static constexpr size_t kRing = size_t{1} << 18;

  CountSource(uint64_t seed, int stream)
      : TallySource(seed, NamedKeys('k', kKeys)), stream_("in") {
    muppet::Rng rng((seed * 0x9E3779B97F4A7C15ULL + 1) ^
                    (static_cast<uint64_t>(stream) << 48));
    muppet::ZipfSampler zipf(kKeys, 0.8);
    ring_.reserve(kRing);
    for (size_t i = 0; i < kRing; ++i) {
      ring_.push_back(static_cast<uint32_t>(zipf.Sample(rng)));
    }
    body_.assign(64 - kHeaderBytes, 'v');
  }

  void Next(Input* in) override {
    last_ = ring_[pos_++ & (kRing - 1)];
    in->stream = &stream_;
    in->key = keys_[last_];
    in->body = body_;
    in->ts = static_cast<Timestamp>(pos_);
    in->tracked = true;
  }
  void TallyLast() override { ++expected_[last_]; }

 private:
  std::string stream_;
  std::vector<uint32_t> ring_;
  Bytes body_;
  size_t pos_ = 0;
  uint32_t last_ = 0;
};

// The wire workload's lines, published in process; each word counts.
class WordcountSource final : public TallySource {
 public:
  WordcountSource(uint64_t seed, int stream)
      : TallySource(seed, NamedKeys('w', LineGenerator::kVocabulary)),
        stream_("lines"), key_prefix_(Named('l', stream) + "-"),
        lines_(seed, stream) {}

  void Next(Input* in) override {
    lines_.Next();
    key_ = key_prefix_ + std::to_string(++n_);
    in->stream = &stream_;
    in->key = key_;
    in->body = lines_.line();
    in->ts = static_cast<Timestamp>(n_);
    in->tracked = false;
  }
  void TallyLast() override {
    for (int w = 0; w < LineGenerator::kWordsPerLine; ++w) {
      ++expected_[lines_.words()[w]];
    }
  }

 private:
  std::string stream_;
  std::string key_prefix_;
  LineGenerator lines_;
  std::string key_;
  uint64_t n_ = 0;
};

// TweetGenerator (200k users, skew 1.0) and CheckinGenerator (4k venues)
// mixed 66:1, the paper's daily ratio.
class TweetsSource final : public Source {
 public:
  static constexpr uint64_t kUsers = 200000;

  TweetsSource(uint64_t seed, int stream)
      : Source(seed, "user_profile"), tweets_stream_("tweets"),
        checkins_stream_("checkins"), profile_("user_profile"),
        retailer_("retailer_count"), tweets_(TweetOptionsFor(seed, stream)),
        checkins_(CheckinOptionsFor(seed, stream)), count_(kUsers, 0),
        max_ts_(kUsers, 0) {}

  void Next(Input* in) override {
    if (i_++ % 67 == 66) {
      checkin_ = checkins_.Next();
      last_is_tweet_ = false;
      in->stream = &checkins_stream_;
      in->key = checkin_.user;
      in->body = checkin_.json;
      in->ts = checkin_.ts;
      in->tracked = false;
      return;
    }
    tweet_ = tweets_.Next();
    last_is_tweet_ = true;
    last_user_ = std::stoull(tweet_.user.substr(1));
    in->stream = &tweets_stream_;
    in->key = tweet_.user;
    in->body = tweet_.json;
    in->ts = tweet_.ts;
    in->tracked = true;
  }
  void TallyLast() override {
    if (last_is_tweet_) {
      ++count_[last_user_];
      max_ts_[last_user_] = std::max(max_ts_[last_user_], tweet_.ts);
    } else if (!checkin_.retailer.empty()) {
      ++retailers_[checkin_.retailer];
    }
  }
  void Absorb(const Source& other) override {
    const auto& o = static_cast<const TweetsSource&>(other);
    for (uint64_t u = 0; u < kUsers; ++u) {
      count_[u] += o.count_[u];
      max_ts_[u] = std::max(max_ts_[u], o.max_ts_[u]);
    }
    for (const auto& [name, n] : o.retailers_) retailers_[name] += n;
  }

  // A seeded sample of 10k users that tweeted, plus every retailer.
  void Verify(Engine* engine, uint64_t seed, Report* report,
              std::vector<Row>* rows) override {
    std::vector<uint64_t> users;
    for (uint64_t u = 0; u < kUsers; ++u) {
      if (count_[u] > 0) users.push_back(u);
    }
    muppet::Rng rng(seed ^ 0x5A5A5A5AULL);
    for (size_t i = 0; i < users.size() && i < 10000; ++i) {
      std::swap(users[i], users[i + rng.Uniform(users.size() - i)]);
    }
    users.resize(std::min<size_t>(users.size(), 10000));
    int64_t mismatched = 0;
    std::string first;
    for (uint64_t u : users) {
      const Bytes key = Named('u', u);
      muppet::Result<Bytes> slate = engine->FetchSlate(profile_, key);
      const Bytes value = slate.ok() ? slate.value() : Bytes();
      JsonSlate s(slate.ok() ? &value : nullptr);
      if (!slate.ok() || s.data().GetInt("n") != count_[u] ||
          s.data().GetInt("max_ts") != max_ts_[u]) {
        if (mismatched == 0) {
          first = key + " want n=" + std::to_string(count_[u]) + " max_ts=" +
                  std::to_string(max_ts_[u]) + " got " +
                  (slate.ok() ? value : slate.status().ToString());
        }
        ++mismatched;
        continue;
      }
      if (rows != nullptr && rows->size() < kProbeRows) {
        rows->push_back({profile_, key, value});
      }
    }
    for (const std::string& name : muppet::workload::RetailerNames()) {
      const auto it = retailers_.find(name);
      const int64_t want = it == retailers_.end() ? 0 : it->second;
      muppet::Result<Bytes> slate = engine->FetchSlate(retailer_, name);
      const int64_t got =
          slate.ok() ? muppet::apps::CountingUpdater::CountOf(slate.value())
                     : 0;
      if (got != want) {
        if (mismatched == 0) {
          first = name + " want " + std::to_string(want) + " got " +
                  std::to_string(got);
        }
        ++mismatched;
      }
    }
    if (mismatched > 0) {
      report->Problem(std::to_string(mismatched) +
                      " user or retailer slates differ, first: " + first);
      report->failed += mismatched;
    }
  }

 protected:
  // Users that tweeted. Reads choose uniformly among them, so most miss
  // the cache and go to the store; they never target the user of the
  // tweet just published.
  std::vector<Bytes> ExistingKeys() const override {
    std::vector<Bytes> keys;
    for (uint64_t u = 0; u < kUsers; ++u) {
      if (count_[u] > 0) keys.push_back(Named('u', u));
    }
    return keys;
  }

 private:
  static muppet::workload::TweetOptions TweetOptionsFor(uint64_t seed,
                                                        int stream) {
    muppet::workload::TweetOptions options;
    options.num_users = kUsers;
    options.user_skew = 1.0;
    options.seed = (seed * 2 + 1) ^ (static_cast<uint64_t>(stream) << 48);
    return options;
  }
  static muppet::workload::CheckinOptions CheckinOptionsFor(uint64_t seed,
                                                            int stream) {
    muppet::workload::CheckinOptions options;
    options.num_venues = 4000;
    options.seed = (seed * 2 + 2) ^ (static_cast<uint64_t>(stream) << 48);
    return options;
  }

  std::string tweets_stream_;
  std::string checkins_stream_;
  std::string profile_;
  std::string retailer_;
  muppet::workload::TweetGenerator tweets_;
  muppet::workload::CheckinGenerator checkins_;
  muppet::workload::Tweet tweet_;
  muppet::workload::Checkin checkin_;
  uint64_t i_ = 0;
  bool last_is_tweet_ = false;
  uint64_t last_user_ = 0;
  std::vector<int64_t> count_;
  std::vector<Timestamp> max_ts_;
  std::map<std::string, int64_t> retailers_;
};

// ---------------------------------------------------------------------------
// Applications (benchmark-owned updaters stamp tracked events).
// ---------------------------------------------------------------------------

void StampedUpdate(Stamps* stamps, const Event& e,
                   const std::function<void()>& body) {
  const uint64_t seq = stamps != nullptr ? HeaderSeq(e.value) : 0;
  const int64_t entry = seq != 0 ? NowNs() : 0;
  body();
  if (seq != 0) stamps->Record(seq, entry, NowNs());
}

Status BuildCountApp(AppConfig* config, Stamps* stamps) {
  MUPPET_RETURN_IF_ERROR(config->DeclareInputStream("in"));
  return config->AddUpdater(
      "count",
      muppet::MakeUpdaterFactory([stamps](PerformerUtilities& out,
                                          const Event& e,
                                          const Bytes* slate) {
        StampedUpdate(stamps, e, [&] {
          JsonSlate s(slate);
          s.data()["count"] = s.data().GetInt("count") + 1;
          (void)out.ReplaceSlate(s.Serialize());
        });
      }),
      {"in"});
}

Status BuildTweetsApp(AppConfig* config, Stamps* stamps) {
  muppet::apps::RetailerAppNames names;
  names.input_stream = "checkins";
  names.retailer_stream = "retailer_events";
  names.mapper = "retailer_map";
  names.counter = "retailer_count";
  muppet::UpdaterOptions interval;
  interval.flush_policy = muppet::SlateFlushPolicy::kInterval;
  MUPPET_RETURN_IF_ERROR(
      muppet::apps::BuildRetailerApp(config, names, interval));
  MUPPET_RETURN_IF_ERROR(config->DeclareInputStream("tweets"));
  // Commutative per-user profile: tweet count and latest tweet time.
  return config->AddUpdater(
      "user_profile",
      muppet::MakeUpdaterFactory([stamps](PerformerUtilities& out,
                                          const Event& e,
                                          const Bytes* slate) {
        StampedUpdate(stamps, e, [&] {
          JsonSlate s(slate);
          s.data()["n"] = s.data().GetInt("n") + 1;
          s.data()["max_ts"] = std::max(s.data().GetInt("max_ts"), e.ts);
          (void)out.ReplaceSlate(s.Serialize());
        });
      }),
      {"tweets"}, interval);
}

// muppetd's wordcount application: a mapper splits each line into words,
// and updater "count" counts each word.
Status BuildWordcountApp(AppConfig* config) {
  MUPPET_RETURN_IF_ERROR(config->DeclareInputStream("lines"));
  MUPPET_RETURN_IF_ERROR(config->DeclareStream("words"));
  MUPPET_RETURN_IF_ERROR(config->AddMapper(
      "split",
      muppet::MakeMapperFactory([](PerformerUtilities& out, const Event& e) {
        size_t begin = 0;
        while (begin < e.value.size()) {
          size_t end = e.value.find(' ', begin);
          if (end == std::string::npos) end = e.value.size();
          if (end > begin) {
            (void)out.Publish("words", e.value.substr(begin, end - begin), "");
          }
          begin = end + 1;
        }
      }),
      {"lines"}));
  return config->AddUpdater(
      "count",
      muppet::MakeUpdaterFactory(
          [](PerformerUtilities& out, const Event&, const Bytes* slate) {
            JsonSlate s(slate);
            s.data()["count"] = s.data().GetInt("count") + 1;
            (void)out.ReplaceSlate(s.Serialize());
          }),
      {"words"});
}

// ---------------------------------------------------------------------------
// System under test.
// ---------------------------------------------------------------------------

struct TraceSettings {
  uint64_t sample_period = 1024;  // the engine default
  size_t recent_traces = 256;
};

// Members are destroyed in reverse order: engine, then store, then the
// kvstore cluster it writes to.
struct Sut {
  std::unique_ptr<AppConfig> config;
  std::unique_ptr<muppet::kv::KvCluster> cluster;
  std::unique_ptr<muppet::SlateStore> store;
  std::unique_ptr<Engine> engine;

  ~Sut() {
    if (engine != nullptr) (void)engine->Stop();
  }
};

struct InProcSpec {
  double rate = 0;       // R, events/s in the fixed-rate phase
  double read_rate = 0;  // r, live slate reads/s in the fixed-rate phase
  int64_t warmup_events = 0;
  // Sizes of the reference-executor baseline input.
  int reference_events = 0;
  std::function<Status(const std::string& dir, Stamps*, const TraceSettings&,
                       Sut*)>
      build;
  std::function<std::unique_ptr<Source>(uint64_t seed, int stream)> source;
  std::function<Status(AppConfig*)> reference_app;
};

EngineOptions BaseOptions(const TraceSettings& trace) {
  EngineOptions options;
  options.num_machines = kMachines;
  options.queue_capacity = kQueueCapacity;
  options.overflow.policy = muppet::OverflowPolicy::kThrottle;
  options.trace.sample_period = trace.sample_period;
  options.trace.recent_traces = trace.recent_traces;
  return options;
}

Status BuildCountM2(const std::string&, Stamps* stamps,
                    const TraceSettings& trace, Sut* sut) {
  sut->config = std::make_unique<AppConfig>();
  MUPPET_RETURN_IF_ERROR(BuildCountApp(sut->config.get(), stamps));
  EngineOptions options = BaseOptions(trace);
  options.threads_per_machine = 2;
  sut->engine = std::make_unique<muppet::Muppet2Engine>(*sut->config, options);
  return sut->engine->Start();
}

Status BuildCountM1(const std::string&, Stamps* stamps,
                    const TraceSettings& trace, Sut* sut) {
  sut->config = std::make_unique<AppConfig>();
  MUPPET_RETURN_IF_ERROR(BuildCountApp(sut->config.get(), stamps));
  EngineOptions options = BaseOptions(trace);
  options.workers_per_function = 4;
  sut->engine = std::make_unique<muppet::Muppet1Engine>(*sut->config, options);
  return sut->engine->Start();
}

Status BuildTweetsEo(const std::string& dir, Stamps* stamps,
                     const TraceSettings& trace, Sut* sut) {
  sut->config = std::make_unique<AppConfig>();
  MUPPET_RETURN_IF_ERROR(BuildTweetsApp(sut->config.get(), stamps));
  muppet::kv::KvClusterOptions kv_options;
  kv_options.num_nodes = 3;
  kv_options.replication_factor = 2;
  kv_options.node.data_dir = dir + "/kv";
  sut->cluster = std::make_unique<muppet::kv::KvCluster>(kv_options);
  MUPPET_RETURN_IF_ERROR(sut->cluster->Open());
  sut->store = std::make_unique<muppet::SlateStore>(
      sut->cluster.get(), muppet::SlateStoreOptions{});
  EngineOptions options = BaseOptions(trace);
  options.threads_per_machine = 2;
  options.slate_cache_capacity = 8192;
  options.slate_store = sut->store.get();
  options.durability.consistency = muppet::Consistency::kExactlyOnce;
  options.durability.dir = dir + "/changelog";
  sut->engine = std::make_unique<muppet::Muppet2Engine>(*sut->config, options);
  return sut->engine->Start();
}

// The wire workload's cluster in one process: three machines of two
// threads, as the three muppetd nodes run.
Status BuildWordcount(const std::string&, Stamps*, const TraceSettings& trace,
                      Sut* sut) {
  sut->config = std::make_unique<AppConfig>();
  MUPPET_RETURN_IF_ERROR(BuildWordcountApp(sut->config.get()));
  EngineOptions options = BaseOptions(trace);
  options.num_machines = 3;
  options.threads_per_machine = 2;
  sut->engine = std::make_unique<muppet::Muppet2Engine>(*sut->config, options);
  return sut->engine->Start();
}

InProcSpec SpecFor(const std::string& name) {
  InProcSpec spec;
  if (name == "wordcount") {
    spec.warmup_events = 100000;
    spec.reference_events = 20000;
    spec.build = BuildWordcount;
    spec.source = [](uint64_t seed, int stream) {
      return std::make_unique<WordcountSource>(seed, stream);
    };
    spec.reference_app = BuildWordcountApp;
  } else if (name == "count-m2" || name == "count-m1") {
    spec.rate = 100000;
    spec.read_rate = 1000;
    spec.warmup_events = 1200000;
    spec.reference_events = 200000;
    spec.build = name == "count-m2" ? BuildCountM2 : BuildCountM1;
    spec.source = [](uint64_t seed, int stream) {
      return std::make_unique<CountSource>(seed, stream);
    };
    spec.reference_app = [](AppConfig* c) { return BuildCountApp(c, nullptr); };
  } else {
    spec.rate = 8000;
    spec.read_rate = 200;
    spec.warmup_events = 40000;
    spec.reference_events = 20000;
    spec.build = BuildTweetsEo;
    spec.source = [](uint64_t seed, int stream) {
      return std::make_unique<TweetsSource>(seed, stream);
    };
    spec.reference_app = [](AppConfig* c) {
      return BuildTweetsApp(c, nullptr);
    };
  }
  return spec;
}

// ---------------------------------------------------------------------------
// Phases.
// ---------------------------------------------------------------------------

void BuildValue(const Input& in, uint64_t seq, Bytes* value) {
  value->clear();
  if (in.tracked) AppendHeader(seq, value);
  value->append(in.body.data(), in.body.size());
}

using Sources = std::vector<std::unique_ptr<Source>>;

int64_t Sum(const Sources& sources, int64_t Source::*field) {
  int64_t sum = 0;
  for (const auto& source : sources) sum += (*source).*field;
  return sum;
}

void PublishOne(Engine* engine, Source* source, const Input& in,
                const Bytes& value) {
  if (engine->Publish(*in.stream, in.key, value, in.ts).ok()) {
    source->TallyLast();
    ++source->published;
  } else {
    ++source->refused;
  }
}

struct Window {
  double eps = 0;
  double drain_ms = 0;
};

// Closed loop with a window of kWindow events in flight: each publisher
// thread publishes its next event once fewer than kWindow are
// unprocessed, for `seconds` or until it has published `quota` events,
// then the engine drains. The window keeps every queue below capacity, so
// this measures the backlog-free maximum rather than how the throttle
// sheds an unbounded backlog. Every 64th Publish of the first thread is
// timed into `publish_us` when non-null.
Window Saturate(Engine* engine, const Sources& sources, double seconds,
                int64_t quota, std::vector<double>* publish_us) {
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  const int64_t before = Sum(sources, &Source::published);
  auto publisher = [&](Source* source, std::vector<double>* timed) {
    Bytes value;
    Input in;
    for (int64_t i = 0; i < quota; ++i) {
      const bool sample = (i & 63) == 0;
      // Block (not spin) while the window is full: the workers need every
      // core the generator can give up.
      while (engine->InflightEvents() >= kWindow && NowNs() < deadline) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
      const int64_t t0 = sample ? NowNs() : 0;
      if (sample && t0 >= deadline) break;
      source->Next(&in);
      BuildValue(in, 0, &value);
      PublishOne(engine, source, in, value);
      if (sample && timed != nullptr) {
        timed->push_back(static_cast<double>(NowNs() - t0) / 1e3);
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t i = 1; i < sources.size(); ++i) {
    threads.emplace_back(publisher, sources[i].get(), nullptr);
  }
  publisher(sources[0].get(), publish_us);
  for (std::thread& t : threads) t.join();
  const int64_t drain_start = NowNs();
  (void)engine->Drain();
  const int64_t end = NowNs();
  Window w;
  w.eps = static_cast<double>(Sum(sources, &Source::published) - before) *
          1e9 / static_cast<double>(end - start);
  w.drain_ms = static_cast<double>(end - drain_start) / 1e6;
  return w;
}

// The benchmark's own sample buffers for one run, allocated and touched
// before setup: no allocation or page fault of the generator's lands in a
// timed phase, and none counts toward the system's peak RSS.
struct Buffers {
  Buffers(size_t tracked, size_t publishes, size_t reads, size_t publish_us)
      : due(tracked + 1, 0), pubret(tracked + 1, 0) {
    Touch(&late_us, publishes);
    Touch(&fetch_us, reads);
    Touch(&scratch, tracked);
    Touch(&this->publish_us, publish_us);
  }
  static void Touch(std::vector<double>* v, size_t n) {
    v->assign(n, 0.0);
    v->clear();
  }

  std::vector<int64_t> due;      // by seq: the scheduled send time
  std::vector<int64_t> pubret;   // by seq: when Publish returned
  std::vector<double> late_us;   // send time minus due time, all publishes
  std::vector<double> fetch_us;  // live reads, from due time
  std::vector<double> scratch;   // per-seq derived samples
  std::vector<double> publish_us;  // timed Publish calls, saturation
};

// Totals over every fixed-rate window of a run.
struct FixedRateResult {
  int64_t tracked = 0;  // sequence numbers 1..tracked were published
  int64_t reads_failed = 0;
  int64_t sent = 0;
  int64_t sending_ns = 0;  // scheduled time, stretched when sends ran late

  double offered_eps() const {
    return sending_ns > 0 ? static_cast<double>(sent) * 1e9 /
                                static_cast<double>(sending_ns)
                          : 0.0;
  }
};

// Open loop at `rate` events/s plus live reads at `read_rate`/s for
// `seconds`, then a drain. Tracked events get the next sequence numbers
// (for the stamps) when `stamps` is set; samples are appended to `buf`.
void FixedRate(Engine* engine, Source* source, double rate, double read_rate,
               double seconds, Stamps* stamps, Buffers* buf,
               FixedRateResult* r) {
  const double period = 1e9 / rate;
  const double read_period = read_rate > 0 ? 1e9 / read_rate : 0;
  const int64_t start = NowNs() + 1'000'000;
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  const size_t capacity = stamps != nullptr ? stamps->capacity() : 0;
  int64_t n_pub = 0;
  int64_t n_read = 0;
  int64_t last_send = start;
  Bytes value;
  Input in;
  while (true) {
    const int64_t next_pub = start + static_cast<int64_t>(n_pub * period);
    const int64_t next_read =
        read_period > 0
            ? start + static_cast<int64_t>((n_read + 0.5) * read_period)
            : end;
    if (next_pub >= end && next_read >= end) break;
    const int64_t now = NowNs();
    if (next_pub < end && next_pub <= now) {
      source->Next(&in);
      uint64_t seq = 0;
      if (in.tracked && static_cast<size_t>(r->tracked) < capacity) {
        seq = static_cast<uint64_t>(++r->tracked);
        buf->due[seq] = next_pub;
      }
      BuildValue(in, seq, &value);
      buf->late_us.push_back(static_cast<double>(now - next_pub) / 1e3);
      last_send = now + static_cast<int64_t>(period);
      PublishOne(engine, source, in, value);
      if (seq != 0) buf->pubret[seq] = NowNs();
      ++n_pub;
      continue;
    }
    if (next_read < end && next_read <= now) {
      const std::string* updater = nullptr;
      BytesView key;
      source->ReadTarget(&updater, &key);
      muppet::Result<Bytes> slate = engine->FetchSlate(*updater, key);
      if (slate.ok()) {
        buf->fetch_us.push_back(static_cast<double>(NowNs() - next_read) /
                                1e3);
      } else {
        ++r->reads_failed;
      }
      ++n_read;
      continue;
    }
    PaceUntil(std::min(next_pub, next_read));
  }
  // A generator that fell behind sends its last event late, which lowers
  // the offered rate below R.
  r->sent += n_pub;
  r->sending_ns += std::max(last_send, end) - start;
  (void)engine->Drain();
}

// Slate counters from the engine: EngineStats plus the registry families
// only the registry carries.
Counters EngineCounters(Engine* engine) {
  std::map<std::string, double> families;
  if (muppet::MetricsRegistry* registry = engine->metrics()) {
    for (const auto& sample : registry->Snapshot()) {
      if (sample.type == muppet::MetricType::kHistogram) continue;
      families[sample.name] += static_cast<double>(sample.value);
    }
  }
  Counters c = Counters::FromFamilies(families);
  const muppet::EngineStats stats = engine->Stats();
  c.published = static_cast<double>(stats.events_published);
  c.processed = static_cast<double>(stats.events_processed);
  c.emitted = static_cast<double>(stats.events_emitted);
  c.lost = static_cast<double>(stats.events_lost_failure);
  c.dropped = static_cast<double>(stats.events_dropped_overflow);
  c.throttle_signals = static_cast<double>(stats.throttle_signals);
  c.cache_hits = static_cast<double>(stats.slate_cache_hits);
  c.cache_misses = static_cast<double>(stats.slate_cache_misses);
  c.cache_evictions = static_cast<double>(stats.slate_cache_evictions);
  c.store_reads = static_cast<double>(stats.slate_store_reads);
  c.store_writes = static_cast<double>(stats.slate_store_writes);
  c.slatelog_appends = static_cast<double>(stats.slatelog_appends);
  c.checkpoints = static_cast<double>(stats.checkpoints);
  c.deduped = static_cast<double>(stats.events_deduped);
  return c;
}

// Every input stream here has exactly one subscriber, so each accepted
// event — published or emitted — is processed exactly once.
void CheckConservation(const Counters& c, int64_t published, Report* report) {
  if (c.published != static_cast<double>(published)) {
    report->Problem("engine counted " + std::to_string(c.published) +
                    " publishes, generator " + std::to_string(published));
  }
  if (c.processed != c.published + c.emitted) {
    report->Problem("conservation: processed != published + emitted");
  }
  if (c.lost != 0 || c.dropped != 0) {
    report->Problem("events lost or dropped");
    report->failed += static_cast<int64_t>(c.lost + c.dropped);
  }
}

std::string SubDir(const RunConfig& config, const std::string& name) {
  const std::string dir = config.work_dir + "/" + name;
  std::filesystem::create_directories(dir);
  return dir;
}

std::unique_ptr<Sut> Build(const InProcSpec& spec, const std::string& dir,
                           Stamps* stamps, const TraceSettings& trace,
                           Report* report) {
  auto sut = std::make_unique<Sut>();
  Status s = spec.build(dir, stamps, trace, sut.get());
  if (!s.ok()) {
    report->Problem("setup: " + s.ToString());
    return nullptr;
  }
  return sut;
}

void ReferenceBaseline(const InProcSpec& spec, const RunConfig& run,
                       Report* report) {
  AppConfig config;
  if (!spec.reference_app(&config).ok()) return;
  muppet::ReferenceExecutor reference(config);
  if (!reference.Start().ok()) return;
  std::unique_ptr<Source> source = spec.source(run.seed, 0);
  const int events = run.Scaled(spec.reference_events);
  Bytes value;
  Input in;
  const int64_t start = NowNs();
  for (int i = 0; i < events; ++i) {
    source->Next(&in);
    BuildValue(in, 0, &value);
    (void)reference.Publish(*in.stream, in.key, value, in.ts);
  }
  Status s = reference.Run();
  const int64_t elapsed = NowNs() - start;
  if (!s.ok()) {
    report->Problem("reference executor: " + s.ToString());
    return;
  }
  report->Layer("baseline.reference_eps",
                events * 1e9 / static_cast<double>(elapsed), "events/s",
                events);
}

// Spans from every machine's sink, grouped by trace id.
std::map<uint64_t, std::vector<muppet::Span>> StitchTraces(
    const std::vector<std::vector<muppet::TraceSink::TraceRecord>>& sinks) {
  std::map<uint64_t, std::vector<muppet::Span>> traces;
  for (const auto& records : sinks) {
    for (const muppet::TraceSink::TraceRecord& record : records) {
      std::vector<muppet::Span>& spans = traces[record.trace_id];
      spans.insert(spans.end(), record.spans.begin(), record.spans.end());
    }
  }
  return traces;
}

// Hash of the first inputs a seed generates, so a smoke run can show that
// two seeds differ.
uint64_t Fingerprint(const InProcSpec& spec, uint64_t seed) {
  std::unique_ptr<Source> source = spec.source(seed, 0);
  uint64_t h = 0;
  Input in;
  for (int i = 0; i < 1024; ++i) {
    source->Next(&in);
    h = FingerprintMix(FingerprintMix(h, in.key), in.body);
  }
  return h;
}

Sources MakeSources(const InProcSpec& spec, uint64_t seed) {
  Sources sources;
  for (int i = 0; i < kPublishers; ++i) sources.push_back(spec.source(seed, i));
  return sources;
}

// Compares the engine's slates and counters with what `sources` published
// and counts their publishes as attempted; returns the engine's counters.
// Folds every source's tally into the first. Call after a drain.
Counters VerifyEngine(Engine* engine, const Sources& sources, uint64_t seed,
                      Report* report, std::vector<Row>* rows) {
  // A flusher pass marks dirty slates clean before it writes them to the
  // store. A slate the cache evicts in that gap is in neither until the
  // write lands, and a read then finds it absent (README.md, "Known engine
  // bug"). The reads below evict, so let the interval flusher write every
  // dirty slate back first: it takes slates dirty for longer than their
  // interval, every 10 ms.
  Timestamp interval_us = 0;
  for (const auto& [name, spec] : engine->config().operators()) {
    if (spec.kind == muppet::OperatorKind::kUpdater &&
        spec.updater_options.flush_policy ==
            muppet::SlateFlushPolicy::kInterval) {
      interval_us = std::max(interval_us,
                             spec.updater_options.flush_interval_micros);
    }
  }
  if (interval_us > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(2 * interval_us + 50'000));
  }
  for (size_t i = 1; i < sources.size(); ++i) {
    sources[0]->Absorb(*sources[i]);
  }
  sources[0]->Verify(engine, seed, report, rows);
  const Counters counters = EngineCounters(engine);
  const int64_t refused = Sum(sources, &Source::refused);
  CheckConservation(counters, Sum(sources, &Source::published), report);
  report->attempted += Sum(sources, &Source::published) + refused;
  report->failed += refused;
  return counters;
}

// A fresh engine tracing every event, at rate R for `seconds`: the
// critical paths of every trace, stitched across machines.
void PathPhase(const InProcSpec& spec, const RunConfig& config,
               double seconds, Buffers* buf, Report* report) {
  TraceSettings trace;
  trace.sample_period = 1;
  trace.recent_traces = static_cast<size_t>(spec.rate * seconds * 1.2) + 1024;
  std::unique_ptr<Sut> sut =
      Build(spec, SubDir(config, "paths"), nullptr, trace, report);
  if (sut == nullptr) return;
  const Sources sources = MakeSources(spec, config.seed);
  FixedRateResult unused;
  FixedRate(sut->engine.get(), sources[0].get(), spec.rate, 0, seconds,
            nullptr, buf, &unused);
  std::vector<std::vector<muppet::TraceSink::TraceRecord>> sinks;
  for (int m = 0; m < kMachines; ++m) {
    if (muppet::TraceSink* sink = sut->engine->trace_sink(m)) {
      sinks.push_back(sink->Recent());
    }
  }
  std::vector<muppet::CriticalPath> paths;
  for (const auto& [id, spans] : StitchTraces(sinks)) {
    muppet::CriticalPath path = muppet::ComputeCriticalPath(spans);
    if (!path.stream.empty()) paths.push_back(path);
  }
  ReportCriticalPaths(paths, report);
  (void)VerifyEngine(sut->engine.get(), sources, config.seed, report,
                     nullptr);
}

// Tracing cost: two fresh engines fed the same inputs, one tracing every
// event and one at the engine's default of 1 in 1024, each warmed by the
// same number of events. Saturation windows alternate between the two, so
// machine drift falls on both, and each engine must then hold exactly its
// own inputs.
void TraceOverhead(const InProcSpec& spec, const RunConfig& config,
                   double seconds, Report* report) {
  struct Side {
    std::unique_ptr<Sut> sut;
    Sources sources;
    std::vector<double> eps;
  };
  Side sides[2];  // untraced, traced
  for (int i = 0; i < 2; ++i) {
    TraceSettings trace;
    if (i == 1) trace.sample_period = 1;
    sides[i].sut = Build(spec, SubDir(config, i == 0 ? "untraced" : "traced"),
                         nullptr, trace, report);
    if (sides[i].sut == nullptr) return;
    sides[i].sources = MakeSources(spec, config.seed);
    (void)Saturate(sides[i].sut->engine.get(), sides[i].sources,
                   kWarmupCapSeconds,
                   static_cast<int64_t>(spec.warmup_events * config.work) /
                       (4 * kPublishers),
                   nullptr);
  }
  constexpr int kPairs = 4;
  for (int pair = 0; pair < kPairs; ++pair) {
    for (Side& side : sides) {
      side.eps.push_back(Saturate(side.sut->engine.get(), side.sources,
                                  seconds / (2 * kPairs), kNoQuota, nullptr)
                             .eps);
    }
  }
  report->Layer("trace.overhead_frac",
                1.0 - Percentile(&sides[1].eps, 0.5) /
                          Percentile(&sides[0].eps, 0.5),
                "fraction", kPairs);
  for (Side& side : sides) {
    (void)VerifyEngine(side.sut->engine.get(), side.sources, config.seed,
                       report, nullptr);
  }
}

}  // namespace

bool IsInProcWorkload(const std::string& name) {
  return name == "count-m2" || name == "count-m1" || name == "tweets-eo";
}

void RunInProc(const RunConfig& config, Report* report) {
  const InProcSpec spec = SpecFor(config.workload);
  report->Info("input_fingerprint",
               std::to_string(Fingerprint(spec, config.seed)));
  const Sources sources = MakeSources(spec, config.seed);
  Source* source = sources[0].get();  // also drives the fixed-rate phase
  const double fixed_seconds = config.window_seconds() * config.rounds();
  const size_t tracked =
      static_cast<size_t>(spec.rate * fixed_seconds * 1.05) + 1024;
  Stamps stamps(tracked);
  Buffers buf(tracked, tracked,
              static_cast<size_t>(spec.read_rate * fixed_seconds) + 16,
              1 << 16);
  const double baseline_rss = SelfPeakRssMiB();
  const double baseline_heap = HeapInUseMiB();

  // 1. Setup, several times; the last instance runs the workload.
  std::vector<double> setup_s;
  std::unique_ptr<Sut> sut;
  for (int i = 0; i < config.Scaled(kSetupReps); ++i) {
    sut.reset();
    const std::string dir = SubDir(config, "setup" + std::to_string(i));
    const int64_t t0 = NowNs();
    sut = Build(spec, dir, &stamps, TraceSettings{}, report);
    if (sut == nullptr) return;
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  report->E2e("setup_s", Percentile(&setup_s, 0.5), "s",
              static_cast<int64_t>(setup_s.size()));
  report->Lap("setup");
  Engine* engine = sut->engine.get();

  // 2. Warm-up at saturation, untimed, then the memory the engine holds.
  (void)Saturate(engine, sources, kWarmupCapSeconds,
                 static_cast<int64_t>(spec.warmup_events * config.work) /
                     kPublishers,
                 nullptr);
  report->E2e("mem_mb", HeapInUseMiB() - baseline_heap, "MiB");
  report->Layer("tail.peak_rss_mb", SelfPeakRssMiB() - baseline_rss, "MiB");
  report->Lap("warmup");

  // 3. Rounds of saturation windows (closed loop, each ending with a
  // drain) and a fixed-rate window (open loop at R plus live reads at r).
  // The alternation makes both sample the same stretches of machine noise.
  std::vector<double> eps, drain_ms;
  FixedRateResult fr;
  for (int round = 0; round < config.rounds(); ++round) {
    for (int w = 0; w < config.saturation_windows(); ++w) {
      const Window window =
          Saturate(engine, sources, config.saturation_window_seconds(),
                   kNoQuota, &buf.publish_us);
      eps.push_back(window.eps);
      drain_ms.push_back(window.drain_ms);
    }
    source->MarkReadable();
    FixedRate(engine, source, spec.rate, spec.read_rate,
              config.window_seconds(), &stamps, &buf, &fr);
  }
  report->Info("window_eps", Json(JsonArrayOf(eps)));
  report->Lap("rounds");
  int64_t unstamped = 0;
  for (int64_t seq = 1; seq <= fr.tracked; ++seq) {
    if (stamps.done(static_cast<uint64_t>(seq)) == 0) ++unstamped;
  }
  if (unstamped > 0) {
    report->Problem(std::to_string(unstamped) +
                    " tracked events never reached their updater");
  }
  // One derived sample per stamped event, into the scratch buffer.
  auto derive = [&](const std::function<double(uint64_t)>& f) {
    buf.scratch.clear();
    for (int64_t seq = 1; seq <= fr.tracked; ++seq) {
      if (stamps.done(static_cast<uint64_t>(seq)) != 0) {
        buf.scratch.push_back(f(static_cast<uint64_t>(seq)));
      }
    }
    return &buf.scratch;
  };
  auto latency_us = [&](uint64_t seq) {
    return static_cast<double>(stamps.done(seq) - buf.due[seq]) / 1e3;
  };
  const auto n_lat = fr.tracked - unstamped;
  const auto n_fetch = static_cast<int64_t>(buf.fetch_us.size());

  // 4. Verification and failure accounting.
  std::vector<Row> rows;
  const Counters counters =
      VerifyEngine(engine, sources, config.seed, report, &rows);
  report->attempted += n_fetch + fr.reads_failed;
  report->failed += fr.reads_failed;
  report->Lap("verify");
  if (!config.trace) return;

  // Per-layer rows from the phases above.
  const int64_t refused = Sum(sources, &Source::refused);
  ReportCounters(counters, report);
  const auto n_publish = static_cast<int64_t>(buf.publish_us.size());
  report->Layer("ingress.publish_us.p50", Percentile(&buf.publish_us, 0.5),
                "us", n_publish);
  report->Layer("ingress.publish_us.p99", Percentile(&buf.publish_us, 0.99),
                "us", n_publish);
  report->Layer("ingress.refused", static_cast<double>(refused), "count");
  report->Layer("tail.latency_p50_us", Percentile(derive(latency_us), 0.5),
                "us", n_lat);
  report->Layer("tail.latency_p99_us", Percentile(&buf.scratch, 0.99), "us",
                n_lat);
  report->Layer("tail.latency_p999_us", Percentile(&buf.scratch, 0.999),
                "us", n_lat);
  report->Layer("tail.fetch_p50_us", Percentile(&buf.fetch_us, 0.5), "us",
                n_fetch);
  report->Layer("tail.fetch_p99_us", Percentile(&buf.fetch_us, 0.99), "us",
                n_fetch);
  derive([&](uint64_t seq) {
    return static_cast<double>(stamps.entry(seq) - buf.pubret[seq]) / 1e3;
  });
  report->Layer("engine.deliver_us.p50", Percentile(&buf.scratch, 0.5), "us",
                n_lat);
  report->Layer("engine.deliver_us.p99", Percentile(&buf.scratch, 0.99),
                "us", n_lat);
  report->Layer("engine.drain_ms", Percentile(&drain_ms, 0.5), "ms",
                static_cast<int64_t>(drain_ms.size()));
  report->Layer("tail.throughput_eps", Percentile(&eps, kThroughputQuantile),
                "events/s", static_cast<int64_t>(eps.size()));
  derive([&](uint64_t seq) {
    return static_cast<double>(stamps.done(seq) - stamps.entry(seq));
  });
  report->Layer("app.update_ns.mean", Mean(buf.scratch), "ns", n_lat);
  report->Layer("gen.late_p99_us", Percentile(&buf.late_us, 0.99), "us",
                static_cast<int64_t>(buf.late_us.size()));
  report->Layer("gen.offered_eps", fr.offered_eps(), "events/s");
  if (fr.offered_eps() < 0.99 * spec.rate) {
    report->Warn("generator offered below 99% of R");
  }

  // 5. Layer probes at this workload's sizes.
  const double probe_share = config.probe_seconds / 4;
  ProbeFrameCodec(counters, probe_share, report);
  ProbeKvStore(rows, SubDir(config, "kvprobe"), probe_share, report);
  ProbeChangelog(rows, SubDir(config, "logprobe"), probe_share, report);
  ReferenceBaseline(spec, config, report);
  sut.reset();
  report->Lap("probes");

  // 6. Traced phases, each on fresh engines.
  PathPhase(spec, config, config.probe_seconds / 2, &buf, report);
  TraceOverhead(spec, config, config.probe_seconds, report);
  report->Lap("traced");
}

void RunWordcountInProc(const RunConfig& config, Report* report) {
  const InProcSpec spec = SpecFor("wordcount");
  ReferenceBaseline(spec, config, report);
  TraceOverhead(spec, config, config.probe_seconds, report);
}

}  // namespace perfbench
