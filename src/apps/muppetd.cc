// muppetd: one Muppet cluster node per process.
//
//   muppetd --config=cluster.json --node=0 [--run-seconds=N]
//           [--admin-port=N] [--data-port=N] [--port-file=PATH]
//
// Reads a JSON cluster config naming every node (id, host, data port,
// admin port, hosted machine ids), builds the selected application
// workflow, and runs the engine slice this node hosts with the TCP
// transport (net/tcp_transport.h) carrying cross-machine frames and the
// full admin plane (/metrics /statusz /tracez /healthz /sloz /slate)
// bound to a real port. A POST /publish endpoint ingests events, so any
// HTTP client (muppet_loadgen) can drive the cluster.
//
// Config schema (DESIGN.md "Transport backends & deployment model"):
//
//   {
//     "app": "wordcount",              // wordcount | hot_topics |
//                                      // retailer | reputation | top_urls
//     "engine": {                      // optional overrides
//       "threads_per_machine": 2,
//       "queue_capacity": 1024,
//       "overflow_policy": "throttle"  // drop | throttle
//     },
//     "durability": {
//       "mode": "exactly_once",        // lossy | at_least_once | exactly_once
//       "dir": "/tmp/cluster-state"    // per-node subdir appended
//     },
//     "slo": { "target_p99_micros": 2000000 },   // optional
//     "trace": { "sample_period": 1024 },        // optional: trace 1 in
//                                                // N events by key hash;
//                                                // 1 = all, 0 = none
//     "nodes": [
//       {"id": 0, "host": "127.0.0.1", "data_port": 7101,
//        "admin_port": 7201, "machines": [0]},
//       ...
//     ]
//   }
//
// An unknown overflow_policy or durability mode, or a negative
// sample_period, is refused with exit code 2.
//
// Runs until SIGINT/SIGTERM (or --run-seconds elapses), then drains,
// flushes the outbound queues, and stops cleanly.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <memory>
#include <thread>
#include <vector>

#include "apps/hot_topics.h"
#include "apps/reputation.h"
#include "apps/retailer.h"
#include "apps/top_urls.h"
#include "core/slate.h"
#include "engine/muppet2.h"
#include "json/json.h"
#include "net/http_client.h"
#include "net/tcp_transport.h"
#include "service/admin_service.h"
#include "service/http_server.h"
#include "service/slate_service.h"

namespace {

std::atomic<bool> g_shutdown{false};

void HandleSignal(int) { g_shutdown.store(true); }

struct NodeSpec {
  uint32_t id = 0;
  std::string host = "127.0.0.1";
  int data_port = 0;
  int admin_port = 0;
  std::vector<muppet::MachineId> machines;
};

struct ClusterSpec {
  std::string app = "wordcount";
  std::vector<NodeSpec> nodes;
  muppet::Json engine;      // raw "engine" object (may be null)
  muppet::Json durability;  // raw "durability" object (may be null)
  muppet::Json slo;         // raw "slo" object (may be null)
  muppet::Json trace;       // raw "trace" object (may be null)
};

muppet::Status ParseCluster(const std::string& text, ClusterSpec* out) {
  muppet::Result<muppet::Json> parsed = muppet::Json::Parse(text);
  if (!parsed.ok()) return parsed.status();
  const muppet::Json& root = parsed.value();
  if (!root.is_object()) {
    return muppet::Status::InvalidArgument("config: top level not an object");
  }
  out->app = root.GetString("app", "wordcount");
  out->engine = root["engine"];
  out->durability = root["durability"];
  out->slo = root["slo"];
  out->trace = root["trace"];
  const muppet::Json& nodes = root["nodes"];
  if (!nodes.is_array() || nodes.size() == 0) {
    return muppet::Status::InvalidArgument("config: missing nodes[]");
  }
  for (const muppet::Json& n : nodes.AsArray()) {
    NodeSpec spec;
    spec.id = static_cast<uint32_t>(n.GetInt("id", -1));
    spec.host = n.GetString("host", "127.0.0.1");
    spec.data_port = static_cast<int>(n.GetInt("data_port", 0));
    spec.admin_port = static_cast<int>(n.GetInt("admin_port", 0));
    if (!n.Contains("machines") || !n["machines"].is_array()) {
      return muppet::Status::InvalidArgument(
          "config: node missing machines[]");
    }
    for (const muppet::Json& m : n["machines"].AsArray()) {
      spec.machines.push_back(
          static_cast<muppet::MachineId>(m.AsInt()));
    }
    out->nodes.push_back(std::move(spec));
  }
  return muppet::Status::OK();
}

muppet::Status BuildApp(const std::string& name, muppet::AppConfig* config,
                        std::string* input_stream) {
  using muppet::Bytes;
  using muppet::Event;
  using muppet::JsonSlate;
  using muppet::PerformerUtilities;
  if (name == "wordcount") {
    *input_stream = "lines";
    MUPPET_RETURN_IF_ERROR(config->DeclareInputStream("lines"));
    MUPPET_RETURN_IF_ERROR(config->DeclareStream("words"));
    MUPPET_RETURN_IF_ERROR(config->AddMapper(
        "split",
        muppet::MakeMapperFactory(
            [](PerformerUtilities& out, const Event& e) {
              std::string word;
              const std::string line(e.value.begin(), e.value.end());
              for (const char c : line + " ") {
                if (c == ' ') {
                  if (!word.empty()) (void)out.Publish("words", word, "");
                  word.clear();
                } else {
                  word.push_back(c);
                }
              }
            }),
        {"lines"}));
    return config->AddUpdater(
        "count",
        muppet::MakeUpdaterFactory([](PerformerUtilities& out, const Event&,
                                      const Bytes* slate) {
          JsonSlate state(slate);
          state.data()["count"] = state.data().GetInt("count") + 1;
          (void)out.ReplaceSlate(state.Serialize());
        }),
        {"words"});
  }
  if (name == "hot_topics") {
    *input_stream = muppet::apps::HotTopicsAppNames{}.tweet_stream;
    return muppet::apps::BuildHotTopicsApp(config);
  }
  if (name == "retailer") {
    *input_stream = muppet::apps::RetailerAppNames{}.input_stream;
    return muppet::apps::BuildRetailerApp(config);
  }
  if (name == "reputation") {
    *input_stream = muppet::apps::ReputationAppNames{}.tweet_stream;
    return muppet::apps::BuildReputationApp(config);
  }
  if (name == "top_urls") {
    *input_stream = muppet::apps::TopUrlsAppNames{}.tweet_stream;
    return muppet::apps::BuildTopUrlsApp(config);
  }
  return muppet::Status::InvalidArgument("unknown app: " + name);
}

std::string FlagValue(int argc, char** argv, const std::string& name,
                      const std::string& def) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return def;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string config_path = FlagValue(argc, argv, "config", "");
  const std::string node_arg = FlagValue(argc, argv, "node", "");
  const int run_seconds =
      std::atoi(FlagValue(argc, argv, "run-seconds", "0").c_str());
  const std::string port_file = FlagValue(argc, argv, "port-file", "");
  if (config_path.empty() || node_arg.empty()) {
    std::fprintf(stderr,
                 "usage: muppetd --config=cluster.json --node=ID "
                 "[--run-seconds=N] [--admin-port=N] [--data-port=N] "
                 "[--port-file=PATH]\n");
    return 2;
  }
  const uint32_t node_id = static_cast<uint32_t>(std::atoi(node_arg.c_str()));

  std::ifstream in(config_path);
  if (!in) {
    std::fprintf(stderr, "muppetd: cannot read %s\n", config_path.c_str());
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  ClusterSpec cluster;
  muppet::Status s = ParseCluster(buffer.str(), &cluster);
  if (!s.ok()) {
    std::fprintf(stderr, "muppetd: %s\n", s.ToString().c_str());
    return 2;
  }

  const NodeSpec* self = nullptr;
  for (const NodeSpec& n : cluster.nodes) {
    if (n.id == node_id) self = &n;
  }
  if (self == nullptr) {
    std::fprintf(stderr, "muppetd: node %u not in config\n", node_id);
    return 2;
  }
  int data_port = self->data_port;
  int admin_port = self->admin_port;
  const std::string data_port_flag = FlagValue(argc, argv, "data-port", "");
  const std::string admin_port_flag = FlagValue(argc, argv, "admin-port", "");
  if (!data_port_flag.empty()) data_port = std::atoi(data_port_flag.c_str());
  if (!admin_port_flag.empty())
    admin_port = std::atoi(admin_port_flag.c_str());

  // --- Application workflow.
  muppet::AppConfig app_config;
  std::string input_stream;
  s = BuildApp(cluster.app, &app_config, &input_stream);
  if (!s.ok()) {
    std::fprintf(stderr, "muppetd: %s\n", s.ToString().c_str());
    return 2;
  }

  // --- Engine options from the shared config: every node derives the
  // same num_machines and ring; only hosted_machines differs.
  muppet::EngineOptions options;
  muppet::MachineId max_machine = 0;
  for (const NodeSpec& n : cluster.nodes) {
    for (muppet::MachineId m : n.machines) {
      max_machine = std::max(max_machine, m);
    }
  }
  options.num_machines = static_cast<int>(max_machine) + 1;
  options.hosted_machines = self->machines;
  if (cluster.engine.is_object()) {
    options.threads_per_machine = static_cast<int>(
        cluster.engine.GetInt("threads_per_machine", 2));
    options.queue_capacity = static_cast<size_t>(
        cluster.engine.GetInt("queue_capacity", 1024));
    // No overflow_stream: the config cannot name the stream, and Start()
    // refuses an undeclared one.
    const std::string policy =
        cluster.engine.GetString("overflow_policy", "drop");
    if (policy == "throttle") {
      options.overflow.policy = muppet::OverflowPolicy::kThrottle;
    } else if (policy != "drop") {
      std::fprintf(stderr,
                   "muppetd: engine.overflow_policy must be drop or "
                   "throttle, not \"%s\"\n",
                   policy.c_str());
      return 2;
    }
  } else {
    options.threads_per_machine = 2;
  }
  if (cluster.durability.is_object()) {
    const std::string mode = cluster.durability.GetString("mode", "lossy");
    if (mode == "at_least_once") {
      options.durability.consistency = muppet::Consistency::kAtLeastOnce;
    } else if (mode == "exactly_once") {
      options.durability.consistency = muppet::Consistency::kExactlyOnce;
    } else if (mode != "lossy") {
      std::fprintf(stderr,
                   "muppetd: durability.mode must be lossy, at_least_once "
                   "or exactly_once, not \"%s\"\n",
                   mode.c_str());
      return 2;
    }
    const std::string dir = cluster.durability.GetString("dir", "");
    if (!dir.empty()) {
      // Per-node state directory: nodes on one host must not share
      // changelog segment files.
      options.durability.dir = dir + "/node" + std::to_string(node_id);
    }
  }
  if (cluster.slo.is_object()) {
    muppet::SloObjective objective;
    objective.stream = input_stream;
    const int64_t p99 = cluster.slo.GetInt("target_p99_micros", 0);
    if (p99 > 0) objective.target_p99_us = p99;
    options.slo.objectives.push_back(objective);
  }

  if (cluster.trace.is_object()) {
    const int64_t period = cluster.trace.GetInt(
        "sample_period",
        static_cast<int64_t>(options.trace.sample_period));
    if (period < 0) {
      std::fprintf(stderr, "muppetd: trace.sample_period must be >= 0\n");
      return 2;
    }
    options.trace.sample_period = static_cast<uint64_t>(period);
  }

  // --- TCP transport: peers = every other node.
  muppet::TcpTransportOptions net;
  net.node_id = node_id;
  net.listen_host = self->host;
  net.listen_port = data_port;
  for (const NodeSpec& n : cluster.nodes) {
    if (n.id == node_id) continue;
    muppet::TcpPeerConfig peer;
    peer.node_id = n.id;
    peer.host = n.host;
    peer.port = n.data_port;
    peer.machines = n.machines;
    net.peers.push_back(peer);
  }

  // Cross-process slate reads: proxy to the owner node's admin plane.
  std::vector<NodeSpec> nodes_copy = cluster.nodes;
  options.remote_fetch = [nodes_copy](muppet::MachineId owner,
                                      const std::string& updater,
                                      muppet::BytesView key)
      -> muppet::Result<muppet::Bytes> {
    for (const NodeSpec& n : nodes_copy) {
      for (muppet::MachineId m : n.machines) {
        if (m != owner) continue;
        muppet::HttpClientResponse resp;
        muppet::Status rs = muppet::HttpGet(
            n.host, n.admin_port,
            muppet::SlateService::SlateUri(updater, key), &resp,
            /*timeout_micros=*/2 * 1000 * 1000);
        if (!rs.ok()) return rs;
        if (resp.status == 404) {
          return muppet::Status::NotFound("no such slate");
        }
        if (resp.status != 200) {
          return muppet::Status::Unavailable(
              "remote slate fetch failed: http " +
              std::to_string(resp.status));
        }
        return muppet::Bytes(resp.body);
      }
    }
    return muppet::Status::Unavailable("no node hosts machine " +
                                       std::to_string(owner));
  };

  // Peer liveness -> the master's failure set. A peer that handshakes is
  // routable (its process restored its own slates before listening); a
  // lost connection is exactly the paper's failed-send detection (§4.3).
  // The engine is constructed after the transport, so the callbacks reach
  // it through an atomic holder set before Start().
  auto engine_holder =
      std::make_shared<std::atomic<muppet::Muppet2Engine*>>(nullptr);
  net.on_peer_up = [engine_holder](
                       uint32_t,
                       const std::vector<muppet::MachineId>& machines) {
    muppet::Muppet2Engine* e = engine_holder->load(std::memory_order_acquire);
    if (e == nullptr) return;
    for (muppet::MachineId m : machines) (void)e->master().ClearFailure(m);
  };
  net.on_peer_down = [engine_holder](
                         uint32_t,
                         const std::vector<muppet::MachineId>& machines) {
    muppet::Muppet2Engine* e = engine_holder->load(std::memory_order_acquire);
    if (e == nullptr) return;
    for (muppet::MachineId m : machines) (void)e->master().ReportFailure(m);
  };

  muppet::TcpTransport transport(net);
  options.transport_backend = &transport;

  muppet::Muppet2Engine engine(app_config, options);
  engine_holder->store(&engine, std::memory_order_release);

  // --- Engine first (registers handlers), then transport (dials).
  s = engine.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "muppetd: engine start: %s\n", s.ToString().c_str());
    return 1;
  }
  s = transport.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "muppetd: transport start: %s\n",
                 s.ToString().c_str());
    return 1;
  }

  // --- Admin plane on a real port.
  const muppet::MachineId view_machine =
      self->machines.empty() ? 0 : self->machines.front();
  muppet::AdminService admin(&engine, view_machine);
  muppet::SlateService slates(&engine);
  muppet::HttpServer server;
  admin.AttachTo(&server);
  slates.AttachTo(&server);
  std::atomic<bool> accepting{true};
  server.RegisterHandler(
      "/publish",
      [&engine, &accepting](const muppet::HttpRequest& req)
          -> muppet::HttpResponse {
        if (req.method != "POST") {
          return {405, "text/plain", "POST only\n"};
        }
        if (!accepting.load(std::memory_order_acquire)) {
          return {503, "text/plain", "shutting down\n"};
        }
        // /publish?stream=S&key=K, body = event value.
        std::string stream, key;
        std::string_view qs = req.query;
        while (!qs.empty()) {
          const size_t amp = std::min(qs.find('&'), qs.size());
          const std::string_view param = qs.substr(0, amp);
          qs.remove_prefix(std::min(amp + 1, qs.size()));
          const size_t eq = param.find('=');
          if (eq == std::string_view::npos) continue;
          const std::string_view name = param.substr(0, eq);
          const std::string_view value = param.substr(eq + 1);
          if (name == "stream") stream = muppet::UrlDecode(value);
          if (name == "key") key = muppet::UrlDecode(value);
        }
        if (stream.empty() || key.empty()) {
          return {400, "text/plain", "need stream= and key=\n"};
        }
        muppet::Status ps = engine.Publish(
            stream, key, req.body,
            muppet::SystemClock::Default()->Now());
        if (ps.ok()) return {200, "text/plain", "ok\n"};
        if (ps.code() == muppet::StatusCode::kResourceExhausted) {
          return {429, "text/plain", ps.ToString() + "\n"};
        }
        return {503, "text/plain", ps.ToString() + "\n"};
      });
  server.RegisterHandler(
      "/drainz",
      [&engine, &transport](const muppet::HttpRequest&)
          -> muppet::HttpResponse {
        muppet::Status fs =
            transport.FlushOutbound(/*timeout_micros=*/5 * 1000 * 1000);
        muppet::Status ds = engine.Drain();
        muppet::Json j = muppet::Json::MakeObject();
        j["outbound_flushed"] = fs.ok();
        j["drained"] = ds.ok();
        return {ds.ok() && fs.ok() ? 200 : 503, "application/json",
                j.Dump() + "\n"};
      });
  // Ingress load on /metrics; muppet-doctor warns when every serving
  // thread is busy (the node is saturated at ingress).
  muppet::MetricsRegistry* registry = engine.metrics();
  registry->RegisterCallback(
      "muppet_http_connections_total", {}, muppet::MetricType::kCounter,
      [&server] { return server.connections_served(); });
  registry->RegisterCallback(
      "muppet_http_deadline_expired_total", {}, muppet::MetricType::kCounter,
      [&server] { return server.deadlines_expired(); });
  registry->RegisterCallback(
      "muppet_http_busy_threads", {}, muppet::MetricType::kGauge,
      [&server] { return int64_t{server.busy_threads()}; });
  registry->RegisterCallback(
      "muppet_http_serving_threads", {}, muppet::MetricType::kGauge,
      [] { return int64_t{muppet::HttpServer::kServingThreads}; });
  s = server.Start(admin_port);
  if (!s.ok()) {
    std::fprintf(stderr, "muppetd: admin bind: %s\n", s.ToString().c_str());
    return 1;
  }

  std::printf("MUPPETD node=%u data_port=%d admin_port=%d machines=%zu\n",
              node_id, transport.listen_port(), server.port(),
              self->machines.size());
  std::fflush(stdout);
  if (!port_file.empty()) {
    muppet::Json ports = muppet::Json::MakeObject();
    ports["node"] = static_cast<int64_t>(node_id);
    ports["data_port"] = transport.listen_port();
    ports["admin_port"] = server.port();
    std::ofstream f(port_file);
    f << ports.Dump() << "\n";
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  const auto started = std::chrono::steady_clock::now();
  while (!g_shutdown.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (run_seconds > 0 &&
        std::chrono::steady_clock::now() - started >=
            std::chrono::seconds(run_seconds)) {
      break;
    }
  }

  // --- Clean shutdown: stop ingesting, push queued frames out, stop the
  // engine (drains local queues), then tear the sockets down.
  accepting.store(false, std::memory_order_release);
  (void)transport.FlushOutbound(/*timeout_micros=*/5 * 1000 * 1000);
  const bool engine_ok = engine.Stop().ok();
  transport.Stop();
  const bool server_ok = server.Stop().ok();
  std::printf("MUPPETD node=%u stopped clean=%d\n", node_id,
              engine_ok && server_ok ? 1 : 0);
  return engine_ok && server_ok ? 0 : 1;
}
