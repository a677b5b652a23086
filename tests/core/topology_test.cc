#include "core/topology.h"

#include <memory>

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace muppet {
namespace {

MapperFactory NoopMapper() {
  return MakeMapperFactory([](PerformerUtilities&, const Event&) {});
}

UpdaterFactory NoopUpdater() {
  return MakeUpdaterFactory(
      [](PerformerUtilities&, const Event&, const Bytes*) {});
}

TEST(TopologyTest, ValidWorkflowValidates) {
  AppConfig config;
  ASSERT_OK(config.DeclareInputStream("S1"));
  ASSERT_OK(config.DeclareStream("S2"));
  ASSERT_OK(config.AddMapper("M1", NoopMapper(), {"S1"}));
  ASSERT_OK(config.AddUpdater("U1", NoopUpdater(), {"S2"}));
  EXPECT_OK(config.Validate());
}

TEST(TopologyTest, DuplicateStreamRejected) {
  AppConfig config;
  ASSERT_OK(config.DeclareInputStream("S1"));
  EXPECT_EQ(config.DeclareStream("S1").code(), StatusCode::kAlreadyExists);
}

TEST(TopologyTest, DuplicateOperatorRejected) {
  AppConfig config;
  ASSERT_OK(config.DeclareInputStream("S1"));
  ASSERT_OK(config.AddMapper("M1", NoopMapper(), {"S1"}));
  EXPECT_EQ(config.AddMapper("M1", NoopMapper(), {"S1"}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(config.AddUpdater("M1", NoopUpdater(), {"S1"}).code(),
            StatusCode::kAlreadyExists);
}

TEST(TopologyTest, UndeclaredSubscriptionFailsValidation) {
  AppConfig config;
  ASSERT_OK(config.DeclareInputStream("S1"));
  ASSERT_OK(config.AddMapper("M1", NoopMapper(), {"S1", "missing"}));
  EXPECT_FALSE(config.Validate().ok());
}

TEST(TopologyTest, NoOperatorsFailsValidation) {
  AppConfig config;
  ASSERT_OK(config.DeclareInputStream("S1"));
  EXPECT_FALSE(config.Validate().ok());
}

TEST(TopologyTest, NoInputStreamFailsValidation) {
  AppConfig config;
  ASSERT_OK(config.DeclareStream("S2"));
  ASSERT_OK(config.AddMapper("M1", NoopMapper(), {"S2"}));
  EXPECT_FALSE(config.Validate().ok());
}

TEST(TopologyTest, EmptySubscriptionsFailValidation) {
  AppConfig config;
  ASSERT_OK(config.DeclareInputStream("S1"));
  ASSERT_OK(config.AddMapper("M1", NoopMapper(), {}));
  EXPECT_FALSE(config.Validate().ok());
}

TEST(TopologyTest, NullFactoryRejected) {
  AppConfig config;
  ASSERT_OK(config.DeclareInputStream("S1"));
  EXPECT_FALSE(config.AddMapper("M1", nullptr, {"S1"}).ok());
  EXPECT_FALSE(config.AddUpdater("U1", nullptr, {"S1"}).ok());
}

TEST(TopologyTest, SubscribersSortedAndComplete) {
  AppConfig config;
  ASSERT_OK(config.DeclareInputStream("S1"));
  ASSERT_OK(config.AddMapper("Mz", NoopMapper(), {"S1"}));
  ASSERT_OK(config.AddMapper("Ma", NoopMapper(), {"S1"}));
  ASSERT_OK(config.AddUpdater("Um", NoopUpdater(), {"S1"}));
  const auto subs = config.SubscribersOf("S1");
  ASSERT_EQ(subs.size(), 3u);
  EXPECT_EQ(subs[0], "Ma");
  EXPECT_EQ(subs[1], "Mz");
  EXPECT_EQ(subs[2], "Um");
  EXPECT_TRUE(config.SubscribersOf("nope").empty());
}

TEST(TopologyTest, StreamClassification) {
  AppConfig config;
  ASSERT_OK(config.DeclareInputStream("in"));
  ASSERT_OK(config.DeclareStream("mid"));
  EXPECT_TRUE(config.HasStream("in"));
  EXPECT_TRUE(config.HasStream("mid"));
  EXPECT_FALSE(config.HasStream("out"));
  EXPECT_TRUE(config.IsInputStream("in"));
  EXPECT_FALSE(config.IsInputStream("mid"));
  EXPECT_EQ(config.InputStreams().size(), 1u);
  EXPECT_EQ(config.AllStreams().size(), 2u);
}

TEST(TopologyTest, FindOperatorAndOptions) {
  AppConfig config;
  ASSERT_OK(config.DeclareInputStream("S1"));
  UpdaterOptions options;
  options.slate_ttl_micros = 5000;
  options.flush_policy = SlateFlushPolicy::kWriteThrough;
  ASSERT_OK(config.AddUpdater("U1", NoopUpdater(), {"S1"}, options));
  const OperatorSpec* spec = config.FindOperator("U1");
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->kind, OperatorKind::kUpdater);
  EXPECT_EQ(spec->updater_options.slate_ttl_micros, 5000);
  EXPECT_EQ(spec->updater_options.flush_policy,
            SlateFlushPolicy::kWriteThrough);
  EXPECT_EQ(config.FindOperator("nope"), nullptr);
}

TEST(TopologyTest, SettingsAccessibleToFactories) {
  AppConfig config;
  config.settings()["threshold"] = 7;
  ASSERT_OK(config.DeclareInputStream("S1"));
  int64_t seen = 0;
  ASSERT_OK(config.AddMapper(
      "M1",
      [&seen](const AppConfig& cfg, const std::string& name) {
        seen = cfg.settings().GetInt("threshold");
        return std::make_unique<LambdaMapper>(
            name, [](PerformerUtilities&, const Event&) {});
      },
      {"S1"}));
  const OperatorSpec* spec = config.FindOperator("M1");
  auto mapper = spec->mapper_factory(config, "M1");
  EXPECT_EQ(seen, 7);
  EXPECT_EQ(mapper->GetName(), "M1");
}

TEST(TopologyTest, CyclicWorkflowAllowed) {
  // An updater that subscribes to a stream it also publishes into (the
  // reputation app shape) must validate.
  AppConfig config;
  ASSERT_OK(config.DeclareInputStream("S1"));
  ASSERT_OK(config.DeclareStream("loop"));
  ASSERT_OK(config.AddUpdater("U1", NoopUpdater(), {"S1", "loop"}));
  EXPECT_OK(config.Validate());
}

}  // namespace
}  // namespace muppet
