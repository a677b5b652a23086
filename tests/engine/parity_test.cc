// Parity tests: both distributed engines must agree with the reference
// executor (§3: an implementation "should try to [approximate the
// well-defined output] as closely as possible"; for commutative
// applications a drained engine matches it exactly).
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "apps/hot_topics.h"
#include "apps/retailer.h"
#include "core/reference_executor.h"
#include "core/slate.h"
#include "gtest/gtest.h"
#include "json/json.h"
#include "testing/scenario.h"
#include "tests/engine/engine_test_util.h"
#include "tests/test_util.h"
#include "workload/checkins.h"

namespace muppet {
namespace {

using ::muppet::chaos::EngineKind;
using ::muppet::chaos::MakeEngine;

class ParityTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(ParityTest, RetailerCountsMatchReference) {
  // Generate one deterministic checkin workload.
  workload::CheckinOptions gen_options;
  gen_options.seed = 99;
  gen_options.retailer_fraction = 0.5;
  std::vector<workload::Checkin> checkins;
  {
    workload::CheckinGenerator gen(gen_options, /*start_ts=*/1000);
    for (int i = 0; i < 500; ++i) checkins.push_back(gen.Next());
  }

  // Reference run.
  AppConfig ref_config;
  ASSERT_OK(apps::BuildRetailerApp(&ref_config));
  ReferenceExecutor reference(ref_config);
  ASSERT_OK(reference.Start());
  for (const auto& c : checkins) {
    ASSERT_OK(reference.Publish("S1", c.user, c.json, c.ts));
  }
  ASSERT_OK(reference.Run());
  std::map<std::string, int64_t> expected;
  for (const auto& [id, slate] : reference.slates()) {
    expected[std::string(id.key)] = apps::CountingUpdater::CountOf(slate);
  }
  ASSERT_FALSE(expected.empty());

  // Engine run.
  AppConfig config;
  ASSERT_OK(apps::BuildRetailerApp(&config));
  EngineOptions options;
  options.num_machines = 3;
  options.workers_per_function = 2;
  options.threads_per_machine = 2;
  auto engine = MakeEngine(GetParam(), config, options);
  ASSERT_OK(engine->Start());
  for (const auto& c : checkins) {
    ASSERT_OK(engine->Publish("S1", c.user, c.json, c.ts));
  }
  ASSERT_OK(engine->Drain());
  for (const auto& [retailer, count] : expected) {
    Result<Bytes> slate = engine->FetchSlate("U1", retailer);
    ASSERT_OK(slate);
    EXPECT_EQ(apps::CountingUpdater::CountOf(slate.value()), count)
        << "retailer " << retailer;
  }
  const EngineStats stats = engine->Stats();
  EXPECT_EQ(stats.events_lost_failure, 0);
  EXPECT_EQ(stats.events_dropped_overflow, 0);
  ASSERT_OK(engine->Stop());
}

TEST_P(ParityTest, FanoutCountsMatchReference) {
  AppConfig ref_config;
  testing::BuildFanoutApp(&ref_config);
  ReferenceExecutor reference(ref_config);
  ASSERT_OK(reference.Start());
  for (int i = 0; i < 300; ++i) {
    ASSERT_OK(
        reference.Publish("in", "k" + std::to_string(i % 13), "", 1 + i));
  }
  ASSERT_OK(reference.Run());

  AppConfig config;
  testing::BuildFanoutApp(&config);
  EngineOptions options;
  options.num_machines = 2;
  options.workers_per_function = 2;
  options.threads_per_machine = 3;
  auto engine = MakeEngine(GetParam(), config, options);
  ASSERT_OK(engine->Start());
  for (int i = 0; i < 300; ++i) {
    ASSERT_OK(engine->Publish("in", "k" + std::to_string(i % 13), "", 1 + i));
  }
  ASSERT_OK(engine->Drain());

  for (const auto& [id, slate] : reference.slates()) {
    Result<Bytes> engine_slate = engine->FetchSlate(id.updater, id.key);
    ASSERT_OK(engine_slate);
    JsonSlate ref_state(&slate);
    JsonSlate eng_state(&engine_slate.value());
    EXPECT_EQ(eng_state.data().GetInt("count"),
              ref_state.data().GetInt("count"))
        << "key " << id.key;
  }
  ASSERT_OK(engine->Stop());
}

TEST_P(ParityTest, SlateDeleteParity) {
  auto build = [](AppConfig* config) {
    ASSERT_OK(config->DeclareInputStream("in"));
    ASSERT_OK(config->AddUpdater(
        "U1", MakeUpdaterFactory([](PerformerUtilities& out, const Event& e,
                                    const Bytes* slate) {
          if (e.value == "reset") {
            (void)out.DeleteSlate();
            return;
          }
          JsonSlate s(slate);
          s.data()["count"] = s.data().GetInt("count") + 1;
          (void)out.ReplaceSlate(s.Serialize());
        }),
        {"in"}));
  };

  AppConfig config;
  build(&config);
  EngineOptions options;
  options.num_machines = 2;
  auto engine = MakeEngine(GetParam(), config, options);
  ASSERT_OK(engine->Start());
  for (int i = 0; i < 10; ++i) ASSERT_OK(engine->Publish("in", "k", "", i + 1));
  ASSERT_OK(engine->Drain());
  ASSERT_OK(engine->Publish("in", "k", "reset", 100));
  ASSERT_OK(engine->Drain());
  EXPECT_TRUE(engine->FetchSlate("U1", "k").status().IsNotFound());
  // Counting restarts from scratch after the delete.
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK(engine->Publish("in", "k", "", 200 + i));
  }
  ASSERT_OK(engine->Drain());
  EXPECT_EQ(testing::CountOf(*engine, "U1", "k"), 3);
  ASSERT_OK(engine->Stop());
}

TEST_P(ParityTest, LockstepMatchesReferenceForOrderSensitiveApp) {
  // Drain-per-publish serializes the whole pipeline, so even an
  // order-sensitive application (hot-topics minute rollovers) must match
  // the reference executor exactly — the distributed approximations of §3
  // come only from concurrency, not from the mechanics.
  std::vector<std::tuple<Bytes, Bytes, Timestamp>> tweets;
  for (int64_t day = 0; day < 3; ++day) {
    for (int i = 0; i < 60; ++i) {
      Json t = Json::MakeObject();
      Json topics = Json::MakeArray();
      topics.Append("quake");
      if (i % 3 == 0) topics.Append("weather");
      t["topics"] = std::move(topics);
      // Two minutes per day; day 2 minute 1 carries a 3x burst.
      const int minute = i < 30 ? 0 : 1;
      const Timestamp ts =
          day * kMicrosPerDay + minute * kMicrosPerMinute + (i % 30) + 1;
      const int copies = (day == 2 && minute == 1) ? 3 : 1;
      for (int c = 0; c < copies; ++c) {
        tweets.emplace_back("u" + std::to_string(i % 7), t.Dump(),
                            ts + c * 2);
      }
    }
  }
  {
    // Closing tick: one trailing tweet in the next minute so the burst
    // minute rolls over and gets reported.
    Json t = Json::MakeObject();
    Json topics = Json::MakeArray();
    topics.Append("quake");
    t["topics"] = std::move(topics);
    tweets.emplace_back("u0", t.Dump(),
                        2 * kMicrosPerDay + 2 * kMicrosPerMinute + 1);
  }
  std::sort(tweets.begin(), tweets.end(),
            [](const auto& a, const auto& b) {
              return std::get<2>(a) < std::get<2>(b);
            });

  AppConfig ref_config;
  ASSERT_OK(apps::BuildHotTopicsApp(&ref_config, 2.0, 10, {}));
  ReferenceExecutor reference(ref_config);
  ASSERT_OK(reference.Start());
  for (const auto& [user, json, ts] : tweets) {
    ASSERT_OK(reference.Publish("S1", user, json, ts));
  }
  ASSERT_OK(reference.Run());

  AppConfig config;
  ASSERT_OK(apps::BuildHotTopicsApp(&config, 2.0, 10, {}));
  EngineOptions options;
  options.num_machines = 2;
  options.workers_per_function = 2;
  options.threads_per_machine = 2;
  auto engine = MakeEngine(GetParam(), config, options);
  std::atomic<int> hot{0};
  engine->TapStream("S4", [&hot](const Event&) { hot.fetch_add(1); });
  ASSERT_OK(engine->Start());
  for (const auto& [user, json, ts] : tweets) {
    ASSERT_OK(engine->Publish("S1", user, json, ts));
    ASSERT_OK(engine->Drain());  // lockstep
  }
  EXPECT_EQ(static_cast<size_t>(hot.load()),
            reference.StreamLog("S4").size());
  EXPECT_GT(hot.load(), 0) << "the planted burst must be detected";
  ASSERT_OK(engine->Stop());
}

INSTANTIATE_TEST_SUITE_P(Engines, ParityTest,
                         ::testing::Values(EngineKind::kMuppet1,
                                           EngineKind::kMuppet2),
                         [](const auto& info) {
                           return info.param == EngineKind::kMuppet1
                                      ? "Muppet1"
                                      : "Muppet2";
                         });

}  // namespace
}  // namespace muppet
