// Minimal HTTP/1.0 server over POSIX sockets. The paper's Muppet "provides
// a small HTTP server on each node for slate fetches" (§4.4) plus "basic
// status information" (§4.5); SlateService mounts those endpoints here.
// kServingThreads fixed threads loop accept() -> serve -> close, so no
// request spawns a thread. Send/receive deadlines (kIoDeadlineSeconds) cap
// how long a silent client holds a thread, and Stop() shuts down the
// listening socket and in-flight connections, so it returns promptly.
// Enough for slate queries and /publish ingress, not a general web server.
#ifndef MUPPET_SERVICE_HTTP_SERVER_H_
#define MUPPET_SERVICE_HTTP_SERVER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <thread>

#include "common/status.h"

namespace muppet {

struct HttpRequest {
  std::string method;  // "GET", "POST", ...
  std::string path;    // decoded path, e.g. "/slate/U1/Walmart"
  std::string query;   // raw query string (after '?'), may be empty
  std::map<std::string, std::string> headers;  // lower-cased names
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

// Percent-encoding for path segments (slate keys are arbitrary bytes).
std::string UrlEncode(std::string_view s);
std::string UrlDecode(std::string_view s);

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  static constexpr int kServingThreads = 4;
  static constexpr int kIoDeadlineSeconds = 2;

  HttpServer() = default;
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Route requests whose path starts with `prefix` to `handler`; the
  // longest matching prefix wins. Register before Start().
  void RegisterHandler(const std::string& prefix, Handler handler);

  // Bind 127.0.0.1:`port` (0 = ephemeral) and start serving.
  Status Start(int port = 0);

  // The bound port (valid after Start()).
  int port() const { return port_; }

  Status Stop();

  // Ingress counters; busy_threads() == kServingThreads means saturated.
  int64_t connections_served() const { return connections_.load(); }
  int64_t deadlines_expired() const { return deadlines_expired_.load(); }
  int busy_threads() const { return busy_.load(); }

 private:
  void ServeLoop(std::atomic<int>* conn_fd);
  void ServeConnection(int fd);
  HttpResponse Route(const HttpRequest& request) const;

  int listen_fd_ = -1;  // set/closed only while no serving thread runs
  int port_ = 0;
  std::atomic<bool> running_{false};
  // Each serving thread's connection (-1 = none), for Stop() to shut down.
  std::array<std::atomic<int>, kServingThreads> conn_fds_;
  static constexpr int kStopped = -2;  // a slot Stop() has taken
  std::atomic<int64_t> connections_{0};
  std::atomic<int64_t> deadlines_expired_{0};
  std::atomic<int> busy_{0};
  // Registered before Start(); the serving threads only read it.
  std::map<std::string, Handler> handlers_;  // by prefix
  std::array<std::thread, kServingThreads> threads_;
};

}  // namespace muppet

#endif  // MUPPET_SERVICE_HTTP_SERVER_H_
