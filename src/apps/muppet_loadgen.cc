// muppet_loadgen: concurrent HTTP publishers against a running muppetd
// cluster.
//
//   muppet_loadgen --targets=127.0.0.1:7201,127.0.0.1:7202
//                  --stream=lines --publishers=8 --events=5000
//                  [--key-space=128] [--value="fast data"]
//                  [--out=BENCH_net.json]
//
// (one command line, wrapped here).
//
// Each publisher thread publishes `events` events round-robin over the
// target admin endpoints (POST /publish), retrying briefly on
// backpressure (429) and node unavailability (503/connect refused) so a
// mid-run node kill slows the run instead of failing it. Emits a
// check_bench.py-compatible BENCH_net.json with sustained throughput.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "json/json.h"
#include "net/http_client.h"
#include "service/http_server.h"

namespace {

struct Target {
  std::string host;
  int port = 0;
};

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
  const std::string targets_arg = FlagValue(argc, argv, "targets", "");
  const std::string stream = FlagValue(argc, argv, "stream", "lines");
  const int publishers =
      std::atoi(FlagValue(argc, argv, "publishers", "4").c_str());
  const int events_per_publisher =
      std::atoi(FlagValue(argc, argv, "events", "1000").c_str());
  const int key_space =
      std::atoi(FlagValue(argc, argv, "key-space", "128").c_str());
  const std::string value =
      FlagValue(argc, argv, "value", "fast data needs fast answers");
  const std::string out_path = FlagValue(argc, argv, "out", "");
  if (targets_arg.empty()) {
    std::fprintf(stderr,
                 "usage: muppet_loadgen --targets=host:port[,host:port...] "
                 "[--stream=S] [--publishers=N] [--events=N] "
                 "[--key-space=N] [--value=V] [--out=BENCH_net.json]\n");
    return 2;
  }

  std::vector<Target> targets;
  {
    std::string rest = targets_arg;
    while (!rest.empty()) {
      const size_t comma = rest.find(',');
      const std::string one =
          comma == std::string::npos ? rest : rest.substr(0, comma);
      rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
      const size_t colon = one.find(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "bad target: %s\n", one.c_str());
        return 2;
      }
      targets.push_back(
          Target{one.substr(0, colon), std::atoi(one.c_str() + colon + 1)});
    }
  }

  std::atomic<int64_t> ok{0};
  std::atomic<int64_t> errors{0};
  const auto started = std::chrono::steady_clock::now();

  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(publishers));
  for (int p = 0; p < publishers; ++p) {
    workers.emplace_back([&, p] {
      for (int i = 0; i < events_per_publisher; ++i) {
        const std::string key =
            "k" + std::to_string((p * 131 + i) % key_space);
        const std::string path = "/publish?stream=" +
                                 muppet::UrlEncode(stream) +
                                 "&key=" + muppet::UrlEncode(key);
        bool sent = false;
        // Bounded retry: ride out throttling and node restarts without
        // inflating the error count, but never spin forever.
        for (int attempt = 0; attempt < 50 && !sent; ++attempt) {
          const Target& t =
              targets[static_cast<size_t>(p + i + attempt) % targets.size()];
          muppet::HttpClientResponse resp;
          muppet::Status s =
              muppet::HttpPost(t.host, t.port, path, value, &resp,
                               /*timeout_micros=*/2 * 1000 * 1000);
          if (s.ok() && resp.status == 200) {
            sent = true;
            break;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(
              resp.status == 429 ? 5 : 20));
        }
        if (sent) {
          ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  const auto elapsed = std::chrono::steady_clock::now() - started;
  const int64_t elapsed_us =
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count();
  const double events_per_sec =
      elapsed_us > 0 ? static_cast<double>(ok.load()) * 1e6 /
                           static_cast<double>(elapsed_us)
                     : 0.0;

  std::printf("loadgen: %lld ok, %lld failed, %.0f events/sec\n",
              static_cast<long long>(ok.load()),
              static_cast<long long>(errors.load()), events_per_sec);

  if (!out_path.empty()) {
    muppet::Json row = muppet::Json::MakeObject();
    row["phase"] = "steady";
    row["transport"] = "tcp";
    row["publishers"] = static_cast<int64_t>(publishers);
    row["nodes"] = static_cast<int64_t>(targets.size());
    row["events"] = ok.load();
    row["http_errors"] = errors.load();
    row["elapsed_us"] = elapsed_us;
    row["events_per_sec"] = events_per_sec;
    muppet::Json doc = muppet::Json::MakeObject();
    doc["bench"] = "net";
    muppet::Json rows = muppet::Json::MakeArray();
    rows.Append(std::move(row));
    doc["rows"] = std::move(rows);
    std::ofstream f(out_path);
    f << doc.DumpPretty() << "\n";
  }
  return errors.load() == 0 ? 0 : 1;
}
