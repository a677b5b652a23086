// The wire workload: three muppetd processes on loopback, one machine
// each, driven over HTTP by four load threads in this process. It is the
// only workload that crosses HTTP ingress, the frame codec and the TCP
// transport. muppetd exposes no completion signal, so latency here is the
// /publish acknowledgement, timed from the due time.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/slate.h"
#include "net/http_client.h"
#include "net/socket.h"
#include "perfbench/workloads.h"
#include "service/http_server.h"
#include "service/slate_service.h"

namespace perfbench {
namespace {

using muppet::HttpClientResponse;
using muppet::Status;

constexpr int kNodes = 3;
constexpr int kLoadThreads = 4;
constexpr int kSetupReps = 7;
constexpr uint64_t kVocabulary = LineGenerator::kVocabulary;
constexpr int kWordsPerLine = LineGenerator::kWordsPerLine;
constexpr double kRate = 8000;     // R, lines/s
constexpr double kReadRate = 50;   // r, slate reads/s
constexpr int64_t kWarmupLines = 30000;
constexpr double kWarmupCapSeconds = 30;
constexpr int64_t kHttpTimeoutUs = 2'000'000;
const char kHost[] = "127.0.0.1";

// ---------------------------------------------------------------------------
// Load-path HTTP.
// ---------------------------------------------------------------------------

// One request on a fresh loopback connection, sent and read the way
// muppet::HttpPost and HttpGet do it (HTTP/1.0, Connection: close, read to
// EOF), except that the socket is reset once the reply is in. muppetd
// closes first after every reply, so an orderly close leaves one TIME_WAIT
// socket per request: a run opens ~200k, which overflows the kernel's
// TIME_WAIT table for a minute and slows every connect of this run and of
// the next one.
Status Exchange(int port, const std::string& request,
                HttpClientResponse* out) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  muppet::OwnedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Status::IOError("socket");
  const timeval timeout{kHttpTimeoutUs / 1'000'000, kHttpTimeoutUs % 1'000'000};
  ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd.get(), SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::Unavailable(std::string("connect: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  for (size_t sent = 0; sent < request.size();) {
    const ssize_t n = ::send(fd.get(), request.data() + sent,
                             request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Status::IOError("send failed");
    }
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char buf[4096];
  while (true) {
    const ssize_t n = ::read(fd.get(), buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return Status::TimedOut("read failed or timed out");
    if (n == 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  const linger reset{1, 0};
  ::setsockopt(fd.get(), SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
  const size_t sp = raw.find(' ');
  const size_t header_end = raw.find("\r\n\r\n");
  if (raw.compare(0, 5, "HTTP/") != 0 || sp == std::string::npos ||
      header_end == std::string::npos) {
    return Status::Corruption("malformed http response");
  }
  out->status = std::atoi(raw.c_str() + sp + 1);
  out->body = raw.substr(header_end + 4);
  return Status::OK();
}

std::string PostRequest(const std::string& target, const std::string& body) {
  return "POST " + target + " HTTP/1.0\r\nHost: " + kHost +
         "\r\nConnection: close\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::string GetRequest(const std::string& target) {
  return "GET " + target + " HTTP/1.0\r\nHost: " + kHost +
         "\r\nConnection: close\r\n\r\n";
}

// ---------------------------------------------------------------------------
// Cluster lifecycle.
// ---------------------------------------------------------------------------

struct Node {
  pid_t pid = -1;
  int data_port = 0;
  int admin_port = 0;
  std::string log;
};

struct Cluster {
  std::vector<Node> nodes;
};

// Ports free right now: every socket stays bound until all are chosen,
// so the set has no duplicates.
std::vector<int> FreePorts(int n) {
  std::vector<int> fds, ports;
  for (int i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof(addr);
    if (fd < 0 ||
        ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      if (fd >= 0) ::close(fd);
      break;
    }
    fds.push_back(fd);
    ports.push_back(ntohs(addr.sin_port));
  }
  for (int fd : fds) ::close(fd);
  return ports;
}

pid_t Spawn(const std::string& binary, const std::vector<std::string>& args,
            const std::string& log_path) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    // The node must not outlive the benchmark, however it exits.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
    }
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  return pid;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool Healthy(const Node& node) {
  HttpClientResponse resp;
  if (!muppet::HttpGet(kHost, node.admin_port, "/healthz", &resp, 200'000)
           .ok() ||
      resp.status != 200) {
    return false;
  }
  muppet::Result<Json> doc = Json::Parse(resp.body);
  return doc.ok() && doc.value().GetBool("ready");
}

// /healthz has no peer check, and a send to a peer whose handshake has
// not finished is lost, so readiness also waits for every node to have
// dialed every peer with both HELLOs consumed: n*(n-1) established
// connections to data ports, all with empty send and receive queues.
bool PeersConnected(const Cluster& cluster) {
  std::set<int> data_ports;
  for (const Node& n : cluster.nodes) data_ports.insert(n.data_port);
  std::ifstream in("/proc/net/tcp");
  if (!in) return true;  // no procfs: fall back to /healthz alone
  std::string line;
  std::getline(in, line);  // header
  int dialed = 0;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string slot, local, remote, state, queues;
    fields >> slot >> local >> remote >> state >> queues;
    auto port_of = [](const std::string& addr) {
      const size_t colon = addr.find(':');
      if (colon == std::string::npos) return 0;
      return static_cast<int>(std::stoul(addr.substr(colon + 1), nullptr, 16));
    };
    const bool local_data = data_ports.count(port_of(local)) > 0;
    const bool remote_data = data_ports.count(port_of(remote)) > 0;
    if (state != "01" || (!local_data && !remote_data)) continue;
    if (queues != "00000000:00000000") return false;
    if (remote_data && !local_data) ++dialed;
  }
  return dialed == kNodes * (kNodes - 1);
}

bool Exited(pid_t pid) {
  int status = 0;
  return ::waitpid(pid, &status, WNOHANG) == pid;
}

// SIGTERM, then wait for muppetd's drain-and-stop; SIGKILL after 15 s.
// True when the node exited 0 and logged a clean stop.
bool StopNode(Node* node) {
  if (node->pid <= 0) return false;
  ::kill(node->pid, SIGTERM);
  int status = 0;
  const int64_t deadline = NowNs() + 15'000'000'000LL;
  pid_t got = 0;
  while ((got = ::waitpid(node->pid, &status, WNOHANG)) == 0 &&
         NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (got == 0) {
    ::kill(node->pid, SIGKILL);
    got = ::waitpid(node->pid, &status, 0);
  }
  node->pid = -1;
  return got > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
         ReadFile(node->log).find("stopped clean=1") != std::string::npos;
}

// A running node's RSS high-water mark (MiB), from /proc; 0 if unreadable.
double PeakRssMiB(const Node& node) {
  std::ifstream in("/proc/" + std::to_string(node.pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

void KillCluster(Cluster* cluster) {
  for (Node& n : cluster->nodes) {
    if (n.pid > 0) {
      ::kill(n.pid, SIGKILL);
      ::waitpid(n.pid, nullptr, 0);
      n.pid = -1;
    }
  }
}

Status StartCluster(const RunConfig& config, const std::string& dir,
                    Cluster* cluster) {
  std::filesystem::create_directories(dir);
  for (int attempt = 0; attempt < 3; ++attempt) {
    KillCluster(cluster);
    cluster->nodes.assign(kNodes, Node{});
    const std::vector<int> ports = FreePorts(2 * kNodes);
    if (ports.size() != 2 * kNodes) return Status::Unavailable("no free ports");
    Json nodes = Json::MakeArray();
    for (int i = 0; i < kNodes; ++i) {
      Node& n = cluster->nodes[static_cast<size_t>(i)];
      n.data_port = ports[static_cast<size_t>(2 * i)];
      n.admin_port = ports[static_cast<size_t>(2 * i + 1)];
      n.log = dir + "/node" + std::to_string(i) + ".log";
      Json j = Json::MakeObject();
      j["id"] = i;
      j["host"] = kHost;
      j["data_port"] = n.data_port;
      j["admin_port"] = n.admin_port;
      Json machines = Json::MakeArray();
      machines.Append(i);
      j["machines"] = std::move(machines);
      nodes.Append(std::move(j));
    }
    Json engine = Json::MakeObject();
    engine["threads_per_machine"] = 2;
    engine["queue_capacity"] = 4096;
    engine["overflow_policy"] = "throttle";
    Json doc = Json::MakeObject();
    doc["app"] = "wordcount";
    doc["engine"] = std::move(engine);
    doc["nodes"] = std::move(nodes);
    const std::string config_path = dir + "/cluster.json";
    std::ofstream(config_path) << doc.Dump() << "\n";

    for (int i = 0; i < kNodes; ++i) {
      Node& n = cluster->nodes[static_cast<size_t>(i)];
      // --run-seconds bounds a node's life should this process hang.
      n.pid = Spawn(config.muppetd,
                    {"--config=" + config_path, "--node=" + std::to_string(i),
                     "--run-seconds=170"},
                    n.log);
      if (n.pid < 0) return Status::IOError("fork failed");
    }
    const int64_t deadline = NowNs() + 20'000'000'000LL;
    bool exited = false;
    bool confirmed = false;
    while (NowNs() < deadline && !exited) {
      bool ready = true;
      for (Node& n : cluster->nodes) {
        if (Exited(n.pid)) {
          n.pid = -1;
          exited = true;
        }
        ready = ready && !exited && Healthy(n);
      }
      ready = ready && PeersConnected(*cluster);
      if (ready && confirmed) return Status::OK();
      // Two consecutive ready polls: a HELLO reply may be in flight
      // between a read and the answering write.
      confirmed = ready;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (!exited) break;  // timed out: not a port race, do not retry
  }
  KillCluster(cluster);
  return Status::Unavailable("cluster never became ready; logs in " + dir);
}

// ---------------------------------------------------------------------------
// Admin-plane reads.
// ---------------------------------------------------------------------------

// Prometheus text from every node, summed per family across labels and
// nodes.
std::map<std::string, double> ScrapeFamilies(const Cluster& cluster,
                                             Report* report) {
  std::map<std::string, double> families;
  for (const Node& n : cluster.nodes) {
    HttpClientResponse resp;
    if (!muppet::HttpGet(kHost, n.admin_port, "/metrics", &resp,
                         kHttpTimeoutUs)
             .ok() ||
        resp.status != 200) {
      report->Problem("GET /metrics failed");
      continue;
    }
    std::istringstream lines(resp.body);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty() || line[0] == '#') continue;
      const size_t name_end = line.find_first_of("{ ");
      const size_t value_start = line.rfind(' ');
      if (name_end == std::string::npos || value_start == std::string::npos) {
        continue;
      }
      families[line.substr(0, name_end)] +=
          std::strtod(line.c_str() + value_start + 1, nullptr);
    }
  }
  return families;
}

double SumStatus(const Cluster& cluster, const std::string& field) {
  double sum = 0;
  for (const Node& n : cluster.nodes) {
    HttpClientResponse resp;
    if (muppet::HttpGet(kHost, n.admin_port, "/status", &resp, kHttpTimeoutUs)
            .ok() &&
        resp.status == 200) {
      muppet::Result<Json> doc = Json::Parse(resp.body);
      if (doc.ok()) sum += static_cast<double>(doc.value().GetInt(field));
    }
  }
  return sum;
}

// One /drainz per node (flush outbound frames, then drain the engine).
bool DrainRound(const Cluster& cluster) {
  bool ok = true;
  for (const Node& n : cluster.nodes) {
    HttpClientResponse resp;
    ok = muppet::HttpGet(kHost, n.admin_port, "/drainz", &resp,
                         10 * kHttpTimeoutUs)
             .ok() &&
         resp.status == 200 && ok;
  }
  return ok;
}

// Frames a node flushed may land on a node that already drained, so
// drain every node twice.
bool DrainCluster(const Cluster& cluster) {
  return DrainRound(cluster) && DrainRound(cluster);
}

muppet::SpanKind SpanKindFromName(const std::string& name) {
  using muppet::SpanKind;
  for (SpanKind k : {SpanKind::kPublish, SpanKind::kQueueWait,
                     SpanKind::kMapExec, SpanKind::kUpdateExec,
                     SpanKind::kSlateFetch, SpanKind::kNetHop}) {
    if (name == muppet::SpanKindName(k)) return k;
  }
  return SpanKind::kPublish;
}

uint64_t HexId(const std::string& s) { return std::stoull(s, nullptr, 16); }

// Spans of every trace in every node's /tracez (recent and slowest),
// stitched by trace id.
std::map<uint64_t, std::vector<muppet::Span>> ScrapeTraces(
    const Cluster& cluster, Report* report) {
  std::map<uint64_t, std::vector<muppet::Span>> traces;
  std::set<uint64_t> seen_spans;
  for (const Node& n : cluster.nodes) {
    HttpClientResponse resp;
    if (!muppet::HttpGet(kHost, n.admin_port, "/tracez", &resp,
                         kHttpTimeoutUs)
             .ok() ||
        resp.status != 200) {
      report->Problem("GET /tracez failed");
      continue;
    }
    muppet::Result<Json> doc = Json::Parse(resp.body);
    if (!doc.ok()) continue;
    for (const char* ring : {"recent", "slowest"}) {
      const Json& records = doc.value()[ring];
      if (!records.is_array()) continue;
      for (const Json& record : records.AsArray()) {
        const uint64_t trace_id = HexId(record.GetString("trace_id", "0"));
        for (const Json& js : record["spans"].AsArray()) {
          muppet::Span span;
          span.trace_id = trace_id;
          span.span_id = HexId(js.GetString("span_id", "0"));
          if (!seen_spans.insert(span.span_id).second) continue;
          span.parent_span = HexId(js.GetString("parent_span", "0"));
          span.kind = SpanKindFromName(js.GetString("kind"));
          span.machine = static_cast<int32_t>(js.GetInt("machine", -1));
          span.name = js.GetString("name");
          span.start_us = js.GetInt("start_us");
          span.end_us = span.start_us + js.GetInt("duration_us");
          traces[trace_id].push_back(std::move(span));
        }
      }
    }
  }
  return traces;
}

// ---------------------------------------------------------------------------
// Load.
// ---------------------------------------------------------------------------

// One load thread's generator and tallies; each thread holds at most one
// HTTP connection at a time.
struct Loader {
  Loader(uint64_t seed, int index)
      : index(index), gen(seed, index), tally(kVocabulary, 0) {}

  void NextLine() {
    gen.Next();
    key = Named('l', static_cast<uint64_t>(index));
    key += '-';
    key += std::to_string(lines++);
  }

  // POST the current line; on 200 the words count as accepted.
  bool Publish(const Node& node) {
    HttpClientResponse resp;
    const Status s = Exchange(
        node.admin_port,
        PostRequest("/publish?stream=lines&key=" + key, gen.line()), &resp);
    if (!s.ok() || resp.status != 200) {
      ++refused;
      return false;
    }
    ++acked;
    for (int w = 0; w < kWordsPerLine; ++w) ++tally[gen.words()[w]];
    return true;
  }

  int index;
  LineGenerator gen;
  std::vector<int64_t> tally;
  std::string key;
  int64_t lines = 0;
  int64_t acked = 0;
  int64_t refused = 0;
  int64_t reads_failed = 0;
  int64_t last_send = 0;  // fixed rate: when the next send was due
  std::vector<double> post_us;   // saturation windows
  std::vector<double> ack_us;    // fixed rate, from due time
  std::vector<double> late_us;   // fixed rate, send minus due
  std::vector<double> fetch_us;  // fixed rate, from due time
};

void RunThreads(std::vector<Loader>* loaders,
                const std::function<void(Loader*)>& body) {
  std::vector<std::thread> threads;
  for (Loader& l : *loaders) threads.emplace_back([&body, &l] { body(&l); });
  for (std::thread& t : threads) t.join();
}

struct Window {
  double eps = 0;  // acknowledged lines per second, drain included
  double drain_ms = 0;
};

// Closed loop on every thread for `seconds`, or until each thread has
// sent `quota` lines, then drain the cluster.
Window Saturate(const Cluster& cluster, std::vector<Loader>* loaders,
                double seconds, int64_t quota, Report* report) {
  int64_t before = 0;
  for (const Loader& l : *loaders) before += l.acked;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  RunThreads(loaders, [&](Loader* l) {
    for (int64_t n = 0; n < quota && NowNs() < deadline; ++n) {
      l->NextLine();
      const int64_t t0 = NowNs();
      l->Publish(cluster.nodes[static_cast<size_t>((l->index + n) % kNodes)]);
      l->post_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
  });
  const int64_t drain_start = NowNs();
  if (!DrainCluster(cluster)) report->Problem("/drainz failed");
  const int64_t end = NowNs();
  int64_t after = 0;
  for (const Loader& l : *loaders) after += l.acked;
  Window w;
  w.eps = static_cast<double>(after - before) * 1e9 /
          static_cast<double>(end - start);
  w.drain_ms = static_cast<double>(end - drain_start) / 1e6;
  return w;
}

// Lines the fixed-rate windows sent, and the scheduled time they took,
// stretched when the senders fell behind.
struct Offered {
  int64_t sent = 0;
  int64_t ns = 0;
  double eps() const {
    return ns > 0 ? static_cast<double>(sent) * 1e9 / static_cast<double>(ns)
                  : 0.0;
  }
};

// Open loop: thread t sends lines t, t+4, t+8, ... of a schedule at R
// lines/s, and likewise its share of the r/s slate reads.
void FixedRate(const Cluster& cluster, std::vector<Loader>* loaders,
               double seconds, const std::vector<int64_t>& readable,
               Offered* offered) {
  const double period = 1e9 / kRate;
  const double read_period = 1e9 / kReadRate;
  const int64_t start = NowNs() + 1'000'000;
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  int64_t sent_before = 0;
  for (const Loader& l : *loaders) {
    sent_before += static_cast<int64_t>(l.late_us.size());
  }
  RunThreads(loaders, [&](Loader* l) {
    int64_t k = 0, j = 0;
    while (true) {
      const int64_t next_pub =
          start + static_cast<int64_t>((k * kLoadThreads + l->index) * period);
      const int64_t next_read =
          start + static_cast<int64_t>(
                      (j * kLoadThreads + l->index + 0.5) * read_period);
      if (next_pub >= end && next_read >= end) break;
      const int64_t now = NowNs();
      if (next_pub < end && next_pub <= now) {
        l->NextLine();
        l->late_us.push_back(static_cast<double>(now - next_pub) / 1e3);
        l->last_send = now + static_cast<int64_t>(kLoadThreads * period);
        if (l->Publish(cluster.nodes[static_cast<size_t>(k % kNodes)])) {
          l->ack_us.push_back(static_cast<double>(NowNs() - next_pub) / 1e3);
        }
        ++k;
        continue;
      }
      if (next_read < end && next_read <= now) {
        // A word of the current line that existed before this window.
        uint64_t word = 0;
        for (int w = 0; w < kWordsPerLine; ++w) {
          if (readable[l->gen.words()[w]] > 0) word = l->gen.words()[w];
        }
        HttpClientResponse resp;
        const Node& node = cluster.nodes[static_cast<size_t>(j % kNodes)];
        const Status s = Exchange(
            node.admin_port,
            GetRequest(muppet::SlateService::SlateUri("count", Word(word))),
            &resp);
        if (s.ok() && resp.status == 200) {
          l->fetch_us.push_back(static_cast<double>(NowNs() - next_read) /
                                1e3);
        } else {
          ++l->reads_failed;
        }
        ++j;
        continue;
      }
      PaceUntil(std::min(next_pub, next_read));
    }
  });
  int64_t last_send = end;
  for (const Loader& l : *loaders) {
    offered->sent += static_cast<int64_t>(l.late_us.size());
    last_send = std::max(last_send, l.last_send);
  }
  offered->sent -= sent_before;
  offered->ns += last_send - start;
}

std::vector<int64_t> MergedTally(const std::vector<Loader>& loaders) {
  std::vector<int64_t> tally(kVocabulary, 0);
  for (const Loader& l : loaders) {
    for (uint64_t w = 0; w < kVocabulary; ++w) tally[w] += l.tally[w];
  }
  return tally;
}

template <typename F>
std::vector<double> Gather(const std::vector<Loader>& loaders, F field) {
  std::vector<double> all;
  for (const Loader& l : loaders) {
    const std::vector<double>& v = l.*field;
    all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

// Every word's count against the tally, plus conservation from /metrics.
void Verify(const Cluster& cluster, const std::vector<int64_t>& expected,
            int64_t acked, Report* report, std::vector<Row>* rows) {
  int64_t mismatched = 0;
  for (uint64_t w = 0; w < kVocabulary; ++w) {
    if (expected[w] == 0) continue;
    HttpClientResponse resp;
    const Node& node = cluster.nodes[w % kNodes];
    const Status s = muppet::HttpGet(
        kHost, node.admin_port,
        muppet::SlateService::SlateUri("count", Word(w)), &resp,
        kHttpTimeoutUs);
    const Bytes value = resp.body;
    muppet::JsonSlate slate(&value);
    if (!s.ok() || resp.status != 200 ||
        slate.data().GetInt("count") != expected[w]) {
      ++mismatched;
      continue;
    }
    if (rows->size() < 2000) rows->push_back({"count", Word(w), value});
  }
  if (mismatched > 0) {
    report->Problem(std::to_string(mismatched) + " word counts differ");
    report->failed += mismatched;
  }
  const Counters c = Counters::FromFamilies(ScrapeFamilies(cluster, report));
  if (c.published != static_cast<double>(acked)) {
    report->Problem("nodes counted " + std::to_string(c.published) +
                    " publishes, load threads saw " + std::to_string(acked));
  }
  if (c.emitted != kWordsPerLine * c.published ||
      c.processed != c.published + c.emitted) {
    report->Problem("conservation: processed != lines + words");
  }
  if (c.lost != 0 || c.dropped != 0) {
    report->Problem("events lost or dropped");
    report->failed += static_cast<int64_t>(c.lost + c.dropped);
  }
}

}  // namespace

void RunWire(const RunConfig& config, Report* report) {
  {
    Loader fresh(config.seed, 0);
    uint64_t h = 0;
    for (int i = 0; i < 256; ++i) {
      fresh.NextLine();
      h = FingerprintMix(h, fresh.gen.line());
    }
    report->Info("input_fingerprint", std::to_string(h));
  }

  // 1. Setup, several times; the last cluster runs the workload.
  std::vector<double> setup_s;
  Cluster cluster;
  const int reps = config.Scaled(kSetupReps);
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = NowNs();
    const Status s = StartCluster(
        config, config.work_dir + "/cluster" + std::to_string(i), &cluster);
    if (!s.ok()) {
      report->Problem("setup: " + s.ToString());
      return;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (i + 1 == reps) break;
    for (Node& n : cluster.nodes) {
      if (!StopNode(&n)) report->Problem("muppetd did not stop clean");
    }
  }
  report->E2e("setup_s", Percentile(&setup_s, 0.5), "s", reps);
  report->Lap("setup");

  std::vector<Loader> loaders;
  for (int t = 0; t < kLoadThreads; ++t) loaders.emplace_back(config.seed, t);

  // 2. Warm-up, then the memory held: the nodes' RSS high-water marks.
  (void)Saturate(cluster, &loaders, kWarmupCapSeconds,
                 static_cast<int64_t>(kWarmupLines * config.work) /
                     kLoadThreads,
                 report);
  double peak_rss = 0;
  for (Loader& l : loaders) l.post_us.clear();
  for (const Node& n : cluster.nodes) {
    const double rss = PeakRssMiB(n);
    if (rss <= 0) report->Problem("cannot read a node's VmHWM");
    peak_rss += rss;
  }
  report->E2e("mem_mb", peak_rss, "MiB");
  report->Layer("tail.peak_rss_mb", peak_rss, "MiB");
  report->Lap("warmup");

  // 3. Rounds of saturation windows and a fixed-rate window, as for the
  // in-process workloads.
  std::vector<double> eps, drain_ms;
  Offered offered;
  for (int round = 0; round < config.rounds(); ++round) {
    for (int w = 0; w < config.saturation_windows(); ++w) {
      const Window window =
          Saturate(cluster, &loaders, config.saturation_window_seconds(),
                   kNoQuota, report);
      eps.push_back(window.eps);
      drain_ms.push_back(window.drain_ms);
    }
    FixedRate(cluster, &loaders, config.window_seconds(), MergedTally(loaders),
              &offered);
  }
  report->Info("window_eps", Json(JsonArrayOf(eps)));
  report->Lap("rounds");
  std::vector<double> ack_us = Gather(loaders, &Loader::ack_us);
  std::vector<double> fetch_us = Gather(loaders, &Loader::fetch_us);

  // 4. Verification and failure accounting.
  if (!DrainCluster(cluster)) report->Problem("/drainz failed");
  int64_t acked = 0, refused = 0, reads_failed = 0;
  for (const Loader& l : loaders) {
    acked += l.acked;
    refused += l.refused;
    reads_failed += l.reads_failed;
  }
  std::vector<Row> rows;
  Verify(cluster, MergedTally(loaders), acked, report, &rows);
  report->attempted += acked + refused +
                       static_cast<int64_t>(fetch_us.size()) + reads_failed;
  report->failed += refused + reads_failed;

  Counters counters;
  std::map<uint64_t, std::vector<muppet::Span>> traces;
  if (config.trace) {
    counters = Counters::FromFamilies(ScrapeFamilies(cluster, report));
    counters.cache_evictions = SumStatus(cluster, "slate_cache_evictions");
    traces = ScrapeTraces(cluster, report);
  }
  for (Node& n : cluster.nodes) {
    if (!StopNode(&n)) report->Problem("muppetd did not stop clean");
  }
  report->Lap("verify");
  if (!config.trace) return;

  // Per-layer rows.
  ReportCounters(counters, report);
  std::vector<double> post_us = Gather(loaders, &Loader::post_us);
  std::vector<double> late_us = Gather(loaders, &Loader::late_us);
  report->Layer("ingress.publish_us.p50", Percentile(&post_us, 0.5), "us",
                static_cast<int64_t>(post_us.size()));
  report->Layer("ingress.publish_us.p99", Percentile(&post_us, 0.99), "us",
                static_cast<int64_t>(post_us.size()));
  report->Layer("ingress.refused", static_cast<double>(refused), "count");
  report->Layer("engine.drain_ms", Percentile(&drain_ms, 0.5), "ms",
                static_cast<int64_t>(drain_ms.size()));
  report->Layer("tail.throughput_eps", Percentile(&eps, kThroughputQuantile),
                "events/s", static_cast<int64_t>(eps.size()));
  report->Layer("gen.late_p99_us", Percentile(&late_us, 0.99), "us",
                static_cast<int64_t>(late_us.size()));
  report->Layer("gen.offered_eps", offered.eps(), "events/s");
  if (offered.eps() < 0.99 * kRate) {
    report->Warn("generator offered below 99% of R");
  }
  report->Layer("tail.latency_p50_us", Percentile(&ack_us, 0.5), "us",
                static_cast<int64_t>(ack_us.size()));
  report->Layer("tail.latency_p99_us", Percentile(&ack_us, 0.99), "us",
                static_cast<int64_t>(ack_us.size()));
  report->Layer("tail.latency_p999_us", Percentile(&ack_us, 0.999), "us",
                static_cast<int64_t>(ack_us.size()));
  report->Layer("tail.fetch_p50_us", Percentile(&fetch_us, 0.5), "us",
                static_cast<int64_t>(fetch_us.size()));
  report->Layer("tail.fetch_p99_us", Percentile(&fetch_us, 0.99), "us",
                static_cast<int64_t>(fetch_us.size()));

  // Critical paths at muppetd's 1/1024 sampling. Delivery is the engine's
  // own view: root publish end to each word's update start.
  std::vector<muppet::CriticalPath> paths;
  std::vector<double> deliver_us, update_ns;
  for (const auto& [id, spans] : traces) {
    const muppet::CriticalPath path = muppet::ComputeCriticalPath(spans);
    if (path.stream.empty()) continue;
    paths.push_back(path);
    muppet::Timestamp publish_end = 0;
    for (const muppet::Span& s : spans) {
      if (s.kind == muppet::SpanKind::kPublish) publish_end = s.end_us;
    }
    for (const muppet::Span& s : spans) {
      if (s.kind != muppet::SpanKind::kUpdateExec) continue;
      deliver_us.push_back(static_cast<double>(s.start_us - publish_end));
      update_ns.push_back(static_cast<double>(s.duration_us()) * 1e3);
    }
  }
  ReportCriticalPaths(paths, report);
  const auto n_deliver = static_cast<int64_t>(deliver_us.size());
  report->Layer("engine.deliver_us.p50", Percentile(&deliver_us, 0.5), "us",
                n_deliver);
  report->Layer("engine.deliver_us.p99", Percentile(&deliver_us, 0.99), "us",
                n_deliver);
  report->Layer("app.update_ns.mean", Mean(update_ns), "ns", n_deliver);

  // 5. Layer probes at this workload's sizes, then the baseline and the
  // tracing cost on the wordcount application in process: muppetd always
  // samples 1 event in 1024 and has no tracing switch.
  const double probe_share = config.probe_seconds / 4;
  ProbeFrameCodec(counters, probe_share, report);
  ProbeKvStore(rows, config.work_dir + "/kvprobe", probe_share, report);
  ProbeChangelog(rows, config.work_dir + "/logprobe", probe_share, report);
  report->Lap("probes");
  RunWordcountInProc(config, report);
  report->Lap("traced");
}

}  // namespace perfbench
