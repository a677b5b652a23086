// Engine API contract tests shared by both generations: PublishAt
// semantics, sink streams, stats monotonicity, and lifecycle edges.
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>

#include "apps/reputation.h"
#include "common/rng.h"
#include "core/reference_executor.h"
#include "core/slate.h"
#include "engine/muppet1.h"
#include "engine/slatelog.h"
#include "gtest/gtest.h"
#include "json/json.h"
#include "net/transport.h"
#include "testing/scenario.h"
#include "tests/engine/engine_test_util.h"
#include "tests/test_util.h"

namespace muppet {
namespace {

using ::muppet::testing::BuildCountingApp;
using ::muppet::testing::TempDir;
using ::muppet::chaos::EngineKind;
using ::muppet::chaos::MakeEngine;

class EngineApiTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(EngineApiTest, PublishAtValidatesTimestamps) {
  AppConfig config;
  ASSERT_OK(config.DeclareInputStream("in"));
  ASSERT_OK(config.DeclareStream("out"));
  Status bad_ts, equal_ts, good_ts;
  ASSERT_OK(config.AddMapper(
      "M1",
      MakeMapperFactory([&](PerformerUtilities& out, const Event& e) {
        bad_ts = out.PublishAt("out", e.key, "", e.ts - 1);
        equal_ts = out.PublishAt("out", e.key, "", e.ts);
        good_ts = out.PublishAt("out", e.key, "", e.ts + 500);
      }),
      {"in"}));
  EngineOptions options;
  auto engine = MakeEngine(GetParam(), config, options);
  std::atomic<Timestamp> out_ts{0};
  engine->TapStream("out", [&out_ts](const Event& e) { out_ts.store(e.ts); });
  ASSERT_OK(engine->Start());
  ASSERT_OK(engine->Publish("in", "k", "", 1000));
  ASSERT_OK(engine->Drain());
  EXPECT_FALSE(bad_ts.ok()) << "ts < input.ts must be rejected";
  EXPECT_FALSE(equal_ts.ok()) << "ts == input.ts must be rejected";
  EXPECT_OK(good_ts);
  EXPECT_EQ(out_ts.load(), 1500) << "explicit timestamps pass through";
  ASSERT_OK(engine->Stop());
}

TEST_P(EngineApiTest, SinkStreamEventsAreObservableAndCounted) {
  // A declared stream with no subscribers is a sink: events reach taps
  // and count as emitted, but no operator runs.
  AppConfig config;
  ASSERT_OK(config.DeclareInputStream("in"));
  ASSERT_OK(config.DeclareStream("sink"));
  ASSERT_OK(config.AddMapper(
      "M1", MakeMapperFactory([](PerformerUtilities& out, const Event& e) {
        (void)out.Publish("sink", e.key, e.value);
      }),
      {"in"}));
  EngineOptions options;
  auto engine = MakeEngine(GetParam(), config, options);
  std::atomic<int> sink_events{0};
  engine->TapStream("sink", [&sink_events](const Event&) { sink_events++; });
  ASSERT_OK(engine->Start());
  for (int i = 0; i < 20; ++i) ASSERT_OK(engine->Publish("in", "k", "", i + 1));
  ASSERT_OK(engine->Drain());
  EXPECT_EQ(sink_events.load(), 20);
  const EngineStats stats = engine->Stats();
  EXPECT_EQ(stats.events_emitted, 20);
  EXPECT_EQ(stats.events_processed, 20) << "only the mapper runs";
  ASSERT_OK(engine->Stop());
}

TEST_P(EngineApiTest, LifecycleEdges) {
  AppConfig config;
  BuildCountingApp(&config);
  EngineOptions options;
  auto engine = MakeEngine(GetParam(), config, options);
  // Not started yet.
  EXPECT_FALSE(engine->Publish("in", "k", "", 1).ok());
  EXPECT_FALSE(engine->Drain().ok());
  EXPECT_FALSE(engine->FetchSlate("count", "k").ok());
  ASSERT_OK(engine->Start());
  EXPECT_FALSE(engine->Start().ok()) << "double start";
  ASSERT_OK(engine->Publish("in", "k", "", 1));
  ASSERT_OK(engine->Drain());
  ASSERT_OK(engine->Stop());
  EXPECT_FALSE(engine->Publish("in", "k", "", 2).ok()) << "after stop";
}

TEST_P(EngineApiTest, ReputationLockstepMatchesReferenceScores) {
  // The reputation app is order-sensitive (a mention carries the sender's
  // *current* score); in lockstep the engines must match the reference
  // executor's scores bit-for-bit.
  std::vector<std::pair<Bytes, Bytes>> tweets;
  Rng rng(77);
  for (int i = 0; i < 150; ++i) {
    const Bytes user = "u" + std::to_string(rng.Uniform(8));
    Json t = Json::MakeObject();
    t["user"] = std::string(user);
    if (rng.Chance(0.4)) {
      t["retweet_of"] = "u" + std::to_string(rng.Uniform(8));
    }
    tweets.emplace_back(user, t.Dump());
  }

  AppConfig ref_config;
  ASSERT_OK(apps::BuildReputationApp(&ref_config));
  ReferenceExecutor reference(ref_config);
  ASSERT_OK(reference.Start());
  for (size_t i = 0; i < tweets.size(); ++i) {
    ASSERT_OK(reference.Publish("S1", tweets[i].first, tweets[i].second,
                                static_cast<Timestamp>(10 * (i + 1))));
  }
  ASSERT_OK(reference.Run());

  AppConfig config;
  ASSERT_OK(apps::BuildReputationApp(&config));
  EngineOptions options;
  options.num_machines = 2;
  options.workers_per_function = 2;
  options.threads_per_machine = 2;
  auto engine = MakeEngine(GetParam(), config, options);
  ASSERT_OK(engine->Start());
  for (size_t i = 0; i < tweets.size(); ++i) {
    ASSERT_OK(engine->Publish("S1", tweets[i].first, tweets[i].second,
                              static_cast<Timestamp>(10 * (i + 1))));
    ASSERT_OK(engine->Drain());  // lockstep
  }
  for (int u = 0; u < 8; ++u) {
    const std::string user = "u" + std::to_string(u);
    const auto it = reference.slates().find(SlateId{"U1", user});
    Result<Bytes> engine_slate = engine->FetchSlate("U1", user);
    if (it == reference.slates().end()) {
      EXPECT_FALSE(engine_slate.ok()) << user;
      continue;
    }
    ASSERT_OK(engine_slate);
    EXPECT_DOUBLE_EQ(apps::ReputationUpdater::ScoreOf(engine_slate.value()),
                     apps::ReputationUpdater::ScoreOf(it->second))
        << user;
  }
  ASSERT_OK(engine->Stop());
}

// The /metrics surface each engine registers, as (family, sorted label
// keys) pairs: the families both engines share, plus each engine's own.
// Pinned so moving registration code between the engines and their shared
// runtime cannot silently add, drop, or relabel a family.
std::set<std::string> MetricFamilies(MetricsRegistry* registry) {
  std::set<std::string> out;
  for (const MetricsRegistry::Sample& sample : registry->Snapshot()) {
    std::string family = sample.name + "{";
    for (size_t i = 0; i < sample.labels.size(); ++i) {
      if (i > 0) family += ",";
      family += sample.labels[i].first;
    }
    out.insert(family + "}");
  }
  return out;
}

TEST_P(EngineApiTest, MetricFamiliesMatchParent) {
  AppConfig config;
  BuildCountingApp(&config);
  TempDir dir;
  EngineOptions options;
  options.num_machines = 2;
  options.durability.consistency = Consistency::kExactlyOnce;
  options.durability.dir = dir.path();
  auto engine = MakeEngine(GetParam(), config, options);
  ASSERT_OK(engine->Start());
  ASSERT_OK(engine->Publish("in", "k", "", 1));
  ASSERT_OK(engine->Drain());

  // The 47 families both engines register.
  std::set<std::string> expected = {
      "muppet_build_info{consistency,engine,version}",
      "muppet_checkpoints_total{}",
      "muppet_deadlocks_avoided_total{}",
      "muppet_dedup_entries{machine}",
      "muppet_e2e_latency_us{}",
      "muppet_events_deduped_total{}",
      "muppet_events_dropped_overflow_total{}",
      "muppet_events_emitted_total{}",
      "muppet_events_lost_failure_total{}",
      "muppet_events_processed_total{}",
      "muppet_events_published_total{}",
      "muppet_events_redirected_overflow_total{}",
      "muppet_faults_duplicated_total{}",
      "muppet_faults_held_total{}",
      "muppet_inflight_events{}",
      "muppet_machine_up{machine}",
      "muppet_operator_instances_total{}",
      "muppet_operator_processed_total{operator}",
      "muppet_queue_depth{lane,machine}",
      "muppet_slate_cache_capacity{machine}",
      "muppet_slate_cache_hits_total{machine}",
      "muppet_slate_cache_misses_total{machine}",
      "muppet_slate_cache_slates{machine}",
      "muppet_slate_store_reads_total{}",
      "muppet_slate_store_writes_total{}",
      "muppet_slatelog_appends_total{}",
      "muppet_slatelog_corrupt_segments_total{}",
      "muppet_slatelog_errors_total{}",
      "muppet_slatelog_lsn{machine}",
      "muppet_slatelog_machine_replays_total{machine}",
      "muppet_slatelog_manifest_lsn{machine}",
      "muppet_slatelog_replayed_records_total{}",
      "muppet_slatelog_replays_total{}",
      "muppet_slatelog_segments{machine}",
      "muppet_slatelog_synced_lsn{machine}",
      "muppet_slatelog_torn_tails_total{}",
      "muppet_stream_published_total{stream}",
      "muppet_transport_bytes_sent_total{}",
      "muppet_transport_frames_sent_total{}",
      "muppet_transport_messages_declined_total{}",
      "muppet_transport_messages_dropped_total{}",
      "muppet_transport_messages_local_total{}",
      "muppet_transport_messages_sent_total{}",
      "muppet_uptime_seconds{}",
      "muppet_watchdog_incidents_total{kind}",
      "muppet_watchdog_open_incidents{}",
  };
  if (GetParam() == EngineKind::kMuppet2) {
    expected.insert({
        "muppet_key_splits_total{}",
        "muppet_queue_wait_us{}",
        "muppet_secondary_dispatch_total{}",
        "muppet_slate_contention_total{}",
    });
  }
  EXPECT_EQ(MetricFamilies(engine->metrics()), expected);
  ASSERT_OK(engine->Stop());
}

TEST(EngineApiTest, Muppet1RejectsMultiProcessOptions) {
  // Muppet 1.0 places every worker in this process over its own fabric;
  // a hosted subset or an external transport would be silently ignored.
  AppConfig config;
  BuildCountingApp(&config);
  EngineOptions hosted;
  hosted.num_machines = 2;
  hosted.hosted_machines = {0};
  Muppet1Engine hosted_engine(config, hosted);
  EXPECT_EQ(hosted_engine.Start().code(), StatusCode::kInvalidArgument);

  InMemoryTransport backend;
  EngineOptions external;
  external.transport_backend = &backend;
  Muppet1Engine external_engine(config, external);
  EXPECT_EQ(external_engine.Start().code(), StatusCode::kInvalidArgument);

  // Nor does it split hot keys: the load manager would never run.
  EngineOptions load_managed;
  load_managed.load_manager.enabled = true;
  Muppet1Engine load_managed_engine(config, load_managed);
  EXPECT_EQ(load_managed_engine.Start().code(), StatusCode::kInvalidArgument);
}

TEST(ChangelogParityTest, BothEnginesLogTheSameRecords) {
  // Same lockstep input, one machine, exactly-once: the two engines must
  // write changelogs that replay to the same records and final slates.
  using RecordKey = std::tuple<uint8_t, std::string, Bytes, uint64_t>;
  struct Decoded {
    std::multiset<RecordKey> records;
    std::map<std::pair<std::string, Bytes>, Bytes> last_value;
  };
  auto run = [](EngineKind kind, Decoded* out) {
    AppConfig config;
    ::muppet::testing::BuildFanoutApp(&config);
    TempDir dir;
    EngineOptions options;
    options.num_machines = 1;
    options.threads_per_machine = 2;
    options.durability.consistency = Consistency::kExactlyOnce;
    options.durability.dir = dir.path();
    auto engine = MakeEngine(kind, config, options);
    ASSERT_OK(engine->Start());
    for (int i = 0; i < 30; ++i) {
      ASSERT_OK(engine->Publish("in", "k" + std::to_string(i % 7), "",
                                i + 1));
      ASSERT_OK(engine->Drain());
    }
    ASSERT_OK(engine->Stop());
    SlateLogReplayStats stats;
    ASSERT_OK(SlateChangelog::Replay(
        dir.path(), /*machine=*/0, /*from_lsn=*/0,
        [out](const SlateLogRecord& rec) {
          out->records.emplace(rec.kind, rec.updater, rec.key, rec.work);
          if (rec.kind != static_cast<uint8_t>(SlateLogKind::kMark)) {
            out->last_value[{rec.updater, rec.key}] = rec.value;
          }
        },
        &stats));
  };
  Decoded m1, m2;
  run(EngineKind::kMuppet1, &m1);
  run(EngineKind::kMuppet2, &m2);
  // 30 mapper marks plus 60 slate updates.
  EXPECT_EQ(m1.records.size(), 90u);
  EXPECT_EQ(m1.records, m2.records);
  EXPECT_EQ(m1.last_value, m2.last_value);
}

INSTANTIATE_TEST_SUITE_P(Engines, EngineApiTest,
                         ::testing::Values(EngineKind::kMuppet1,
                                           EngineKind::kMuppet2),
                         [](const auto& info) {
                           return info.param == EngineKind::kMuppet1
                                      ? "Muppet1"
                                      : "Muppet2";
                         });

}  // namespace
}  // namespace muppet
