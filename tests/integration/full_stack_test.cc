// End-to-end integration: workload generators -> Muppet engine -> slate
// cache -> compressed slates in the replicated key-value store -> live
// HTTP slate fetches. Exercises the complete §4 production stack,
// including application restart against the durable store.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <map>
#include <memory>
#include <string>

#include "apps/retailer.h"
#include "core/reference_executor.h"
#include "core/slate_store.h"
#include "engine/muppet1.h"
#include "engine/muppet2.h"
#include "gtest/gtest.h"
#include "kvstore/cluster.h"
#include "service/slate_service.h"
#include "testing/scenario.h"
#include "tests/test_util.h"
#include "workload/checkins.h"
#include "workload/tweets.h"

namespace muppet {
namespace {

using ::muppet::chaos::EngineKind;
using ::muppet::testing::TempDir;

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

TEST(FullStackTest, RetailerPipelineOverFullStack) {
  TempDir dir;
  kv::KvClusterOptions kv_options;
  kv_options.num_nodes = 3;
  kv_options.replication_factor = 2;
  kv_options.node.data_dir = dir.path();
  kv::KvCluster kv_cluster(kv_options);
  ASSERT_OK(kv_cluster.Open());
  SlateStore store(&kv_cluster, SlateStoreOptions{});

  AppConfig config;
  UpdaterOptions counter_options;
  counter_options.flush_policy = SlateFlushPolicy::kInterval;
  counter_options.flush_interval_micros = 1000;
  ASSERT_OK(apps::BuildRetailerApp(&config, {}, counter_options));

  EngineOptions options;
  options.num_machines = 3;
  options.threads_per_machine = 2;
  options.slate_store = &store;
  Muppet2Engine engine(config, options);
  ASSERT_OK(engine.Start());

  // Drive with the synthetic Foursquare stream and track ground truth.
  workload::CheckinOptions gen_options;
  gen_options.retailer_fraction = 0.6;
  gen_options.seed = 21;
  workload::CheckinGenerator gen(gen_options, /*start_ts=*/1000);
  std::map<std::string, int64_t> truth;
  for (int i = 0; i < 1000; ++i) {
    const workload::Checkin c = gen.Next();
    if (!c.retailer.empty()) truth[c.retailer]++;
    ASSERT_OK(engine.Publish("S1", c.user, c.json, c.ts));
  }
  ASSERT_OK(engine.Drain());

  // Live fetch over HTTP matches ground truth.
  SlateService service(&engine);
  HttpServer server;
  service.AttachTo(&server);
  ASSERT_OK(server.Start(0));
  for (const auto& [retailer, count] : truth) {
    const std::string response =
        HttpGet(server.port(), SlateService::SlateUri("U1", retailer));
    EXPECT_NE(response.find("\"count\":" + std::to_string(count)),
              std::string::npos)
        << retailer << " expected " << count << "\n"
        << response;
  }
  ASSERT_OK(server.Stop());
  ASSERT_OK(engine.Stop());  // flushes all dirty slates

  // The compressed slates are durable in the store: read them back
  // directly, decompressed, after the engine is gone.
  for (const auto& [retailer, count] : truth) {
    Result<Bytes> slate = store.Read(SlateId{"U1", retailer});
    ASSERT_OK(slate);
    EXPECT_EQ(apps::CountingUpdater::CountOf(slate.value()), count);
  }
}

TEST(FullStackTest, ApplicationRestartResumesFromStore) {
  // "persistent slates help resuming, restarting, or recovering the
  // application" (§4.2): counts accumulated before a restart continue
  // after it.
  TempDir dir;
  kv::KvClusterOptions kv_options;
  kv_options.num_nodes = 2;
  kv_options.replication_factor = 2;
  kv_options.node.data_dir = dir.path();

  AppConfig config;
  UpdaterOptions counter_options;
  counter_options.flush_policy = SlateFlushPolicy::kWriteThrough;
  ASSERT_OK(apps::BuildRetailerApp(&config, {}, counter_options));

  Json walmart_checkin = Json::MakeObject();
  walmart_checkin["venue"] = "Walmart";
  const Bytes checkin = walmart_checkin.Dump();

  {
    kv::KvCluster kv_cluster(kv_options);
    ASSERT_OK(kv_cluster.Open());
    SlateStore store(&kv_cluster, SlateStoreOptions{});
    EngineOptions options;
    options.num_machines = 2;
    options.slate_store = &store;
    Muppet1Engine engine(config, options);
    ASSERT_OK(engine.Start());
    for (int i = 0; i < 40; ++i) {
      ASSERT_OK(engine.Publish("S1", "u", checkin, i + 1));
    }
    ASSERT_OK(engine.Drain());
    ASSERT_OK(engine.Stop());
    ASSERT_OK(kv_cluster.FlushAll());
  }

  // Restart: a brand-new engine (fresh caches) over the same store.
  {
    kv::KvCluster kv_cluster(kv_options);
    ASSERT_OK(kv_cluster.Open());
    SlateStore store(&kv_cluster, SlateStoreOptions{});
    EngineOptions options;
    options.num_machines = 2;
    options.slate_store = &store;
    Muppet1Engine engine(config, options);
    ASSERT_OK(engine.Start());
    for (int i = 0; i < 10; ++i) {
      ASSERT_OK(engine.Publish("S1", "u", checkin, 1000 + i));
    }
    ASSERT_OK(engine.Drain());
    Result<Bytes> slate = engine.FetchSlate("U1", "Walmart");
    ASSERT_OK(slate);
    EXPECT_EQ(apps::CountingUpdater::CountOf(slate.value()), 50)
        << "the restarted application resumed from the persisted 40";
    ASSERT_OK(engine.Stop());
  }
}

TEST(FullStackTest, MixedWorkloadBothEnginesAgree) {
  // The same tweet workload through Muppet 1.0 and 2.0 with durable
  // stores produces identical per-user counts (commutative updater).
  auto run = [](bool muppet2, std::map<std::string, int64_t>* counts) {
    TempDir dir;
    kv::KvClusterOptions kv_options;
    kv_options.num_nodes = 2;
    kv_options.replication_factor = 1;
    kv_options.node.data_dir = dir.path();
    kv::KvCluster kv_cluster(kv_options);
    ASSERT_OK(kv_cluster.Open());
    SlateStore store(&kv_cluster, SlateStoreOptions{});

    AppConfig config;
    ASSERT_OK(config.DeclareInputStream("tweets"));
    ASSERT_OK(config.AddUpdater(
        "per_user",
        MakeUpdaterFactory([](PerformerUtilities& out, const Event&,
                              const Bytes* slate) {
          JsonSlate s(slate);
          s.data()["count"] = s.data().GetInt("count") + 1;
          (void)out.ReplaceSlate(s.Serialize());
        }),
        {"tweets"}));

    EngineOptions options;
    options.num_machines = 2;
    options.workers_per_function = 2;
    options.threads_per_machine = 2;
    options.slate_store = &store;
    std::unique_ptr<Engine> engine = chaos::MakeEngine(
        muppet2 ? EngineKind::kMuppet2 : EngineKind::kMuppet1, config,
        options);
    ASSERT_OK(engine->Start());

    workload::TweetOptions gen_options;
    gen_options.num_users = 50;
    gen_options.seed = 4;
    workload::TweetGenerator gen(gen_options, 1000);
    std::map<std::string, int64_t> truth;
    for (int i = 0; i < 600; ++i) {
      const workload::Tweet t = gen.Next();
      truth[std::string(t.user)]++;
      ASSERT_OK(engine->Publish("tweets", t.user, t.json, t.ts));
    }
    ASSERT_OK(engine->Drain());
    for (const auto& [user, expected] : truth) {
      Result<Bytes> slate = engine->FetchSlate("per_user", user);
      ASSERT_OK(slate);
      JsonSlate s(&slate.value());
      (*counts)[user] = s.data().GetInt("count");
    }
    ASSERT_OK(engine->Stop());
  };

  std::map<std::string, int64_t> muppet1_counts, muppet2_counts;
  run(false, &muppet1_counts);
  run(true, &muppet2_counts);
  EXPECT_EQ(muppet1_counts, muppet2_counts);
  EXPECT_FALSE(muppet1_counts.empty());
}

}  // namespace
}  // namespace muppet
