#include "core/config_loader.h"

#include <string>

#include "core/reference_executor.h"
#include "core/slate.h"
#include "gtest/gtest.h"
#include "json/json.h"
#include "tests/test_util.h"

namespace muppet {
namespace {

OperatorRegistry MakeRegistry() {
  OperatorRegistry registry;
  EXPECT_TRUE(registry
                  .RegisterMapper(
                      "forward",
                      MakeMapperFactory([](PerformerUtilities& out,
                                           const Event& e) {
                        (void)out.Publish("S2", e.key, e.value);
                      }))
                  .ok());
  EXPECT_TRUE(registry
                  .RegisterUpdater(
                      "counter",
                      MakeUpdaterFactory([](PerformerUtilities& out,
                                            const Event&,
                                            const Bytes* slate) {
                        JsonSlate s(slate);
                        s.data()["count"] = s.data().GetInt("count") + 1;
                        (void)out.ReplaceSlate(s.Serialize());
                      }))
                  .ok());
  return registry;
}

constexpr char kDocument[] = R"({
  "input_streams": ["S1"],
  "streams": ["S2"],
  "settings": {"threshold": 4},
  "operators": [
    {"name": "M1", "type": "forward", "kind": "map", "subscribes": ["S1"]},
    {"name": "U1", "type": "counter", "kind": "update",
     "subscribes": ["S2"], "slate_ttl_ms": 5000,
     "flush_policy": "write_through"}
  ]
})";

TEST(ConfigLoaderTest, LoadsCompleteWorkflow) {
  OperatorRegistry registry = MakeRegistry();
  AppConfig config;
  ASSERT_OK(LoadAppConfigFromJson(kDocument, registry, &config));

  EXPECT_EQ(config.settings().GetInt("threshold"), 4);
  EXPECT_TRUE(config.IsInputStream("S1"));
  EXPECT_TRUE(config.HasStream("S2"));
  const OperatorSpec* u1 = config.FindOperator("U1");
  ASSERT_NE(u1, nullptr);
  EXPECT_EQ(u1->kind, OperatorKind::kUpdater);
  EXPECT_EQ(u1->updater_options.slate_ttl_micros, 5000 * kMicrosPerMilli);
  EXPECT_EQ(u1->updater_options.flush_policy,
            SlateFlushPolicy::kWriteThrough);
  const OperatorSpec* m1 = config.FindOperator("M1");
  ASSERT_NE(m1, nullptr);
  EXPECT_EQ(m1->kind, OperatorKind::kMapper);
}

TEST(ConfigLoaderTest, LoadedWorkflowActuallyRuns) {
  OperatorRegistry registry = MakeRegistry();
  AppConfig config;
  ASSERT_OK(LoadAppConfigFromJson(kDocument, registry, &config));
  ReferenceExecutor exec(config);
  ASSERT_OK(exec.Start());
  for (int i = 0; i < 5; ++i) ASSERT_OK(exec.Publish("S1", "k", "", i + 1));
  ASSERT_OK(exec.Run());
  JsonSlate s(&exec.slates().at(SlateId{"U1", "k"}));
  EXPECT_EQ(s.data().GetInt("count"), 5);
}

TEST(ConfigLoaderTest, UnknownOperatorTypeRejected) {
  OperatorRegistry registry = MakeRegistry();
  AppConfig config;
  Status s = LoadAppConfigFromJson(R"({
    "input_streams": ["S1"],
    "operators": [
      {"name": "M1", "type": "missing", "kind": "map", "subscribes": ["S1"]}
    ]})",
                                   registry, &config);
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
}

TEST(ConfigLoaderTest, KindTypeMismatchRejected) {
  OperatorRegistry registry = MakeRegistry();
  AppConfig config;
  // "counter" is registered as an updater, not a mapper.
  Status s = LoadAppConfigFromJson(R"({
    "input_streams": ["S1"],
    "operators": [
      {"name": "M1", "type": "counter", "kind": "map", "subscribes": ["S1"]}
    ]})",
                                   registry, &config);
  EXPECT_TRUE(s.IsNotFound());
}

TEST(ConfigLoaderTest, MalformedDocumentsRejected) {
  OperatorRegistry registry = MakeRegistry();
  for (const char* doc : {
           "not json",
           "[]",
           R"({"operators": []})",                      // no input streams
           R"({"input_streams": ["S1"], "operators": [
               {"name": "", "type": "forward", "kind": "map",
                "subscribes": ["S1"]}]})",              // empty name
           R"({"input_streams": ["S1"], "operators": [
               {"name": "M1", "type": "forward", "kind": "shuffle",
                "subscribes": ["S1"]}]})",              // bad kind
           R"({"input_streams": ["S1"], "operators": [
               {"name": "U1", "type": "counter", "kind": "update",
                "subscribes": ["S1"], "flush_policy": "yolo"}]})",
       }) {
    AppConfig config;
    EXPECT_FALSE(LoadAppConfigFromJson(doc, registry, &config).ok()) << doc;
  }
}

TEST(ConfigLoaderTest, ValidationStillApplies) {
  // Subscribing to an undeclared stream must fail via Validate().
  OperatorRegistry registry = MakeRegistry();
  AppConfig config;
  Status s = LoadAppConfigFromJson(R"({
    "input_streams": ["S1"],
    "operators": [
      {"name": "M1", "type": "forward", "kind": "map",
       "subscribes": ["ghost"]}
    ]})",
                                   registry, &config);
  EXPECT_FALSE(s.ok());
}

TEST(ConfigLoaderTest, DuplicateRegistrationRejected) {
  OperatorRegistry registry = MakeRegistry();
  EXPECT_FALSE(registry
                   .RegisterMapper("forward",
                                   MakeMapperFactory(
                                       [](PerformerUtilities&,
                                          const Event&) {}))
                   .ok());
  // A type name is global across kinds.
  EXPECT_FALSE(registry
                   .RegisterUpdater("forward",
                                    MakeUpdaterFactory(
                                        [](PerformerUtilities&, const Event&,
                                           const Bytes*) {}))
                   .ok());
}

TEST(ConfigLoaderTest, RoundTripThroughToJson) {
  OperatorRegistry registry = MakeRegistry();
  AppConfig config;
  ASSERT_OK(LoadAppConfigFromJson(kDocument, registry, &config));
  const std::string dumped = AppConfigToJson(config);
  Result<Json> parsed = Json::Parse(dumped);
  ASSERT_OK(parsed);
  EXPECT_EQ(parsed.value()["operators"].size(), 2u);
  EXPECT_EQ(parsed.value()["input_streams"].AsArray()[0].AsString(), "S1");
}

}  // namespace
}  // namespace muppet
