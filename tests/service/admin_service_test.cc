#include "service/admin_service.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>

#include "common/clock.h"
#include "common/prom.h"
#include "common/slo.h"
#include "engine/muppet1.h"
#include "engine/muppet2.h"
#include "gtest/gtest.h"
#include "json/json.h"
#include "service/slate_service.h"
#include "tests/engine/engine_test_util.h"
#include "tests/test_util.h"

namespace muppet {
namespace {

using ::muppet::testing::BuildCountingApp;

std::string HttpGet(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

class AdminServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BuildCountingApp(&config_);
    EngineOptions options;
    options.num_machines = 2;
    options.threads_per_machine = 2;
    options.trace.sample_period = 1;
    engine_ = std::make_unique<Muppet2Engine>(config_, options);
    ASSERT_OK(engine_->Start());
    for (int i = 0; i < 20; ++i) {
      ASSERT_OK(
          engine_->Publish("in", "key" + std::to_string(i % 4), "", i + 1));
    }
    ASSERT_OK(engine_->Drain());
  }

  void TearDown() override { ASSERT_OK(engine_->Stop()); }

  AppConfig config_;
  std::unique_ptr<Muppet2Engine> engine_;
};

TEST_F(AdminServiceTest, MetricsEndpointServesPrometheusText) {
  AdminService admin(engine_.get());
  const HttpResponse response = admin.Metrics();
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, PrometheusContentType());
  EXPECT_NE(response.body.find("# TYPE muppet_events_published_total counter"),
            std::string::npos);
  EXPECT_NE(response.body.find("muppet_events_published_total 20"),
            std::string::npos);
  EXPECT_NE(response.body.find("muppet_operator_processed_total{"
                               "operator=\"count\"} 20"),
            std::string::npos);
  EXPECT_NE(response.body.find("muppet_stream_published_total{"
                               "stream=\"in\"} 20"),
            std::string::npos);
  EXPECT_NE(response.body.find("muppet_machine_up{machine=\"0\"} 1"),
            std::string::npos);
  EXPECT_NE(response.body.find("muppet_e2e_latency_us_bucket"),
            std::string::npos);
  EXPECT_NE(response.body.find("muppet_queue_depth{"), std::string::npos);
  EXPECT_NE(response.body.find("muppet_transport_messages_sent_total"),
            std::string::npos);
  EXPECT_NE(response.body.find("# TYPE muppet_throttle_delay_micros gauge"),
            std::string::npos);
}

TEST_F(AdminServiceTest, StatuszReportsClusterState) {
  AdminService admin(engine_.get(), /*machine=*/1);
  const HttpResponse response = admin.Statusz();
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "application/json");
  Result<Json> parsed = Json::Parse(response.body);
  ASSERT_OK(parsed.status());
  const Json& doc = parsed.value();
  EXPECT_EQ(doc.GetInt("serving_machine", -1), 1);
  EXPECT_EQ(doc.GetInt("inflight", -1), 0);
  EXPECT_EQ(doc["stats"].GetInt("published", -1), 20);
  ASSERT_TRUE(doc["machines"].is_array());
  ASSERT_EQ(doc["machines"].size(), 2u);
  const Json& m0 = doc["machines"].AsArray()[0];
  EXPECT_EQ(m0.GetInt("machine", -1), 0);
  EXPECT_FALSE(m0.GetBool("crashed", true));
  EXPECT_TRUE(m0["queue_depths"].is_array());
  EXPECT_GE(m0["slate_cache"].GetInt("slates", -1), 0);
  EXPECT_GT(m0["slate_cache"].GetInt("capacity", 0), 0);
  // The counting app's single updater owns ring points on every machine.
  EXPECT_GT(m0["ring_ownership"].GetInt("count", 0), 0);
}

TEST_F(AdminServiceTest, TracezServesRecordedTraces) {
  AdminService admin(engine_.get(), /*machine=*/0);
  const HttpResponse response = admin.Tracez();
  EXPECT_EQ(response.status, 200);
  Result<Json> parsed = Json::Parse(response.body);
  ASSERT_OK(parsed.status());
  const Json& doc = parsed.value();
  EXPECT_EQ(doc.GetInt("machine", -1), 0);
  ASSERT_TRUE(doc["recent"].is_array());
  ASSERT_GT(doc["recent"].size(), 0u);
  const Json& trace = doc["recent"].AsArray().front();
  ASSERT_TRUE(trace["spans"].is_array());
  ASSERT_GT(trace["spans"].size(), 0u);
  const Json& span = trace["spans"].AsArray().front();
  EXPECT_FALSE(span["kind"].AsString().empty());
  EXPECT_GE(span.GetInt("duration_us", -1), 0);
  EXPECT_GT(doc.GetInt("spans_recorded", 0), 0);
}

TEST_F(AdminServiceTest, EndpointsMountOnHttpServer) {
  AdminService admin(engine_.get());
  HttpServer server;
  admin.AttachTo(&server);
  ASSERT_OK(server.Start(0));
  const std::string metrics = HttpGet(server.port(), "/metrics");
  EXPECT_NE(metrics.find("200"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("muppet_events_published_total"), std::string::npos);
  const std::string statusz = HttpGet(server.port(), "/statusz");
  EXPECT_NE(statusz.find("\"machines\""), std::string::npos);
  const std::string tracez = HttpGet(server.port(), "/tracez");
  EXPECT_NE(tracez.find("\"recent\""), std::string::npos);
  const std::string healthz = HttpGet(server.port(), "/healthz");
  EXPECT_NE(healthz.find("200"), std::string::npos);
  EXPECT_NE(healthz.find("\"ready\""), std::string::npos);
  const std::string sloz = HttpGet(server.port(), "/sloz");
  EXPECT_NE(sloz.find("\"streams\""), std::string::npos);
  ASSERT_OK(server.Stop());
}

// /healthz readiness across the full failure lifecycle: ready, crashed
// (503), recovering after BeginRecovery (still 503 — the machine is not
// routable until its slates are restored), ready again after
// RestartMachine runs ClearFailure. Peer machines stay ready throughout.
TEST(AdminServiceHealthzTest, ReadinessFollowsRecoveryLifecycle) {
  AppConfig config;
  BuildCountingApp(&config);
  EngineOptions options;
  options.num_machines = 2;
  options.threads_per_machine = 2;
  Muppet2Engine engine(config, options);
  ASSERT_OK(engine.Start());
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(engine.Publish("in", "k" + std::to_string(i % 3), "", i + 1));
  }
  ASSERT_OK(engine.Drain());

  AdminService admin1(&engine, /*machine=*/1);
  AdminService admin0(&engine, /*machine=*/0);

  // Healthy cluster: both machines live and ready.
  HttpResponse healthz = admin1.Healthz();
  EXPECT_EQ(healthz.status, 200);
  {
    Result<Json> parsed = Json::Parse(healthz.body);
    ASSERT_OK(parsed.status());
    EXPECT_TRUE(parsed.value().GetBool("live", false));
    EXPECT_TRUE(parsed.value().GetBool("ready", false));
    ASSERT_TRUE(parsed.value()["checks"].is_array());
    for (const Json& check : parsed.value()["checks"].AsArray()) {
      EXPECT_TRUE(check.GetBool("ok", false)) << check.Dump();
    }
  }

  // Crashed: liveness holds (the process still answers) but readiness
  // drops and the handler maps it to 503.
  ASSERT_OK(engine.CrashMachine(1));
  healthz = admin1.Healthz();
  EXPECT_EQ(healthz.status, 503);
  {
    Result<Json> parsed = Json::Parse(healthz.body);
    ASSERT_OK(parsed.status());
    EXPECT_TRUE(parsed.value().GetBool("live", false));
    EXPECT_FALSE(parsed.value().GetBool("ready", true));
    bool machine_check_failed = false;
    for (const Json& check : parsed.value()["checks"].AsArray()) {
      if (check.GetString("name", "") == "machine") {
        machine_check_failed = !check.GetBool("ok", true);
      }
    }
    EXPECT_TRUE(machine_check_failed);
  }
  // The surviving machine is unaffected.
  EXPECT_EQ(admin0.Healthz().status, 200);

  // Mid-recovery: BeginRecovery marks the intermediate state. The
  // machine must stay not-ready until ClearFailure — traffic routed to
  // it now would read unrestored slates. (ReportFailure first: with no
  // post-crash traffic, no sender noticed the crash, and BeginRecovery
  // is a no-op without a failure record.)
  (void)engine.master().ReportFailure(1);
  EXPECT_TRUE(engine.master().BeginRecovery(1));
  Json doc = HealthzDocument(&engine, /*machine=*/1);
  EXPECT_FALSE(doc.GetBool("ready", true));
  bool recovery_check_failed = false;
  for (const Json& check : doc["checks"].AsArray()) {
    if (check.GetString("name", "") == "recovery") {
      recovery_check_failed = !check.GetBool("ok", true);
    }
  }
  EXPECT_TRUE(recovery_check_failed);

  // ClearFailure (inside RestartMachine) completes the arc: ready again.
  ASSERT_OK(engine.RestartMachine(1));
  healthz = admin1.Healthz();
  EXPECT_EQ(healthz.status, 200);
  {
    Result<Json> parsed = Json::Parse(healthz.body);
    ASSERT_OK(parsed.status());
    EXPECT_TRUE(parsed.value().GetBool("ready", false));
  }
  ASSERT_OK(engine.Stop());
}

// /statusz reports the master's failed set once, at the top level: a
// crashed machine appears in `failed_machines` after a send to it fails,
// no per-machine entry repeats it, and a restart empties the list.
TEST(AdminServiceStatuszTest, FailedMachinesListedOnceUntilRestart) {
  AppConfig config;
  BuildCountingApp(&config);
  EngineOptions options;
  options.num_machines = 3;
  options.threads_per_machine = 2;
  Muppet2Engine engine(config, options);
  ASSERT_OK(engine.Start());
  ASSERT_OK(engine.CrashMachine(2));
  // Keys spread over the ring, so some route to machine 2 and the send
  // failure reports it to the master.
  for (int i = 0; i < 1000 && engine.Stats().failures_detected == 0; ++i) {
    (void)engine.Publish("in", "k" + std::to_string(i), "", i + 1);
  }
  ASSERT_OK(engine.Drain());
  ASSERT_EQ(engine.Stats().failures_detected, 1);

  AdminService admin(&engine, /*machine=*/0);
  Result<Json> parsed = Json::Parse(admin.Statusz().body);
  ASSERT_OK(parsed.status());
  const Json& failed = parsed.value()["failed_machines"];
  ASSERT_TRUE(failed.is_array());
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed.AsArray()[0].AsInt(), 2);
  for (const Json& m : parsed.value()["machines"].AsArray()) {
    EXPECT_FALSE(m.Contains("failed")) << m.Dump();
  }

  ASSERT_OK(engine.RestartMachine(2));
  parsed = Json::Parse(admin.Statusz().body);
  ASSERT_OK(parsed.status());
  ASSERT_TRUE(parsed.value()["failed_machines"].is_array());
  EXPECT_EQ(parsed.value()["failed_machines"].size(), 0u);
  ASSERT_OK(engine.Stop());
}

// /sloz surfaces per-stream percentiles, the declared objective with its
// burn windows, and the worst critical paths once traffic has drained.
TEST(AdminServiceSlozTest, SlozReportsObjectiveVerdictAfterDrain) {
  AppConfig config;
  BuildCountingApp(&config);
  EngineOptions options;
  options.num_machines = 2;
  options.threads_per_machine = 2;
  options.trace.sample_period = 1;
  SloObjective objective;
  objective.stream = "in";
  objective.target_p99_us = 30 * kMicrosPerSecond;  // generous: never breached
  options.slo.objectives.push_back(objective);
  Muppet2Engine engine(config, options);
  ASSERT_OK(engine.Start());
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK(engine.Publish("in", "key" + std::to_string(i % 4), "", i + 1));
  }
  ASSERT_OK(engine.Drain());

  AdminService admin(&engine);
  const HttpResponse response = admin.Sloz();
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "application/json");
  Result<Json> parsed = Json::Parse(response.body);
  ASSERT_OK(parsed.status());
  const Json& doc = parsed.value();
  EXPECT_GT(doc.GetInt("traces_observed", 0), 0);
  ASSERT_TRUE(doc["streams"].is_array());
  ASSERT_GT(doc["streams"].size(), 0u);
  bool saw_in = false;
  for (const Json& stream : doc["streams"].AsArray()) {
    if (stream.GetString("stream", "") != "in") continue;
    saw_in = true;
    EXPECT_GT(stream.GetInt("events", 0), 0);
    EXPECT_GE(stream.GetInt("p99_us", -1), stream.GetInt("p50_us", 0));
    EXPECT_GE(stream.GetInt("p999_us", -1), stream.GetInt("p99_us", 0));
    EXPECT_GE(stream.GetInt("max_us", -1), stream.GetInt("p999_us", 0));
    // The declared objective comes back with its verdict and one burn
    // entry per configured window.
    EXPECT_EQ(stream["objective"].GetInt("target_p99_us", -1),
              30 * kMicrosPerSecond);
    EXPECT_TRUE(stream.GetBool("meeting_objective", false));
    EXPECT_EQ(stream.GetInt("breaches", -1), 0);
    ASSERT_TRUE(stream["burn"].is_array());
    EXPECT_EQ(stream["burn"].size(), std::size(SloTracker::kBurnWindows));
    for (const Json& burn : stream["burn"].AsArray()) {
      EXPECT_EQ(burn.GetInt("breaches", -1), 0);
    }
    // Worst critical paths: present, slowest first, buckets sum to total.
    ASSERT_TRUE(stream["worst_critical_paths"].is_array());
    ASSERT_GT(stream["worst_critical_paths"].size(), 0u);
    const Json& worst = stream["worst_critical_paths"].AsArray().front();
    EXPECT_GT(worst.GetInt("total_us", -1), 0);
    EXPECT_GT(worst.GetInt("spans", 0), 0);
    const int64_t attributed = worst.GetInt("publish_us", 0) +
                               worst.GetInt("queue_wait_us", 0) +
                               worst.GetInt("exec_us", 0) +
                               worst.GetInt("slate_fetch_us", 0) +
                               worst.GetInt("net_hop_us", 0) +
                               worst.GetInt("unattributed_us", 0);
    EXPECT_EQ(attributed, worst.GetInt("total_us", -1));
  }
  EXPECT_TRUE(saw_in);
  ASSERT_OK(engine.Stop());
}

TEST(AdminServiceMuppet1Test, EndpointsWorkOnTheLegacyEngine) {
  AppConfig config;
  BuildCountingApp(&config);
  EngineOptions options;
  options.num_machines = 2;
  options.workers_per_function = 2;
  options.trace.sample_period = 1;
  Muppet1Engine engine(config, options);
  ASSERT_OK(engine.Start());
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(engine.Publish("in", "k" + std::to_string(i % 3), "", i + 1));
  }
  ASSERT_OK(engine.Drain());

  AdminService admin(&engine);
  const HttpResponse metrics = admin.Metrics();
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("muppet_events_published_total 10"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("muppet_throttle_delay_micros"),
            std::string::npos);
  Result<Json> statusz = Json::Parse(admin.Statusz().body);
  ASSERT_OK(statusz.status());
  EXPECT_EQ(statusz.value()["machines"].size(), 2u);
  Result<Json> tracez = Json::Parse(admin.Tracez().body);
  ASSERT_OK(tracez.status());
  EXPECT_GT(tracez.value()["recent"].size(), 0u);
  ASSERT_OK(engine.Stop());
}

// With load management enabled, /statusz exposes the heat sketch as a
// hot-key panel and /metrics counts heat samples. min_samples is set
// unreachably high so the controller only observes — no split can fire
// mid-test and make the panel's split fields nondeterministic.
TEST(AdminServiceHotKeysTest, StatuszExportsHeatPanel) {
  AppConfig config;
  BuildCountingApp(&config);
  EngineOptions options;
  options.num_machines = 2;
  options.threads_per_machine = 2;
  options.load_manager.enabled = true;
  options.load_manager.heat.sample_period = 1;
  options.load_manager.min_samples = 1LL << 40;
  // No per-tick aging: the panel row must still be there when read.
  options.load_manager.heat_decay = 1.0;
  Muppet2Engine engine(config, options);
  ASSERT_OK(engine.Start());
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(engine.Publish("in", "hot", "", i + 1));
  }
  ASSERT_OK(engine.Drain());

  AdminService admin(&engine);
  Result<Json> statusz = Json::Parse(admin.Statusz().body);
  ASSERT_OK(statusz.status());
  const Json& hot = statusz.value()["hot_keys"];
  ASSERT_TRUE(hot.is_array());
  ASSERT_GT(hot.size(), 0u);
  const Json& row = hot.AsArray().front();
  EXPECT_EQ(row["function"].AsString(), "count");
  EXPECT_EQ(row["key"].AsString(), "hot");
  EXPECT_GT(row.GetInt("sampled_count", 0), 0);
  EXPECT_FALSE(row.GetBool("split", true));

  const HttpResponse metrics = admin.Metrics();
  EXPECT_NE(metrics.body.find("muppet_heat_samples_total"),
            std::string::npos);
  ASSERT_OK(engine.Stop());
}

// The slate service's /status latency fields read the registry histogram
// the admin /metrics endpoint exports — the two can never disagree.
TEST_F(AdminServiceTest, SlateServiceLatencyMatchesRegistry) {
  MetricsRegistry* registry = engine_->metrics();
  ASSERT_NE(registry, nullptr);
  const Histogram* latency = registry->GetHistogram("muppet_e2e_latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_GT(latency->count(), 0);
  SlateService slates(engine_.get());
  Result<Json> status = Json::Parse(slates.StatusPage().body);
  ASSERT_OK(status.status());
  EXPECT_EQ(status.value().GetInt("latency_p50_us", -1),
            latency->Percentile(0.50));
  EXPECT_EQ(status.value().GetInt("latency_p99_us", -1),
            latency->Percentile(0.99));
}

}  // namespace
}  // namespace muppet
