#include "service/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace muppet {
namespace {

// Minimal HTTP client for tests: one request, read everything.
std::string HttpGet(int port, const std::string& target,
                    const std::string& body = "",
                    const std::string& method = "GET") {
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
  std::string request = method + " " + target + " HTTP/1.0\r\n";
  if (!body.empty()) {
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n" + body;
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

// Opens a connection to 127.0.0.1:`port` and sends nothing; -1 on error.
// Reads on it give up after `read_timeout_s` so a test cannot hang.
int ConnectSilent(int port, int read_timeout_s = 10) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const timeval timeout{read_timeout_s, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(UrlCodecTest, RoundTrip) {
  for (const std::string& s :
       {std::string("plain"), std::string("with space"),
        std::string("a/b?c&d"), std::string("\x01\xff\x00z", 4),
        std::string("")}) {
    EXPECT_EQ(UrlDecode(UrlEncode(s)), s);
  }
  EXPECT_EQ(UrlEncode("a b"), "a%20b");
  EXPECT_EQ(UrlDecode("a+b"), "a b");
  EXPECT_EQ(UrlDecode("%zz"), "%zz");  // malformed escapes pass through
}

TEST(HttpServerTest, ServesRegisteredHandler) {
  HttpServer server;
  server.RegisterHandler("/hello", [](const HttpRequest& request) {
    return HttpResponse{200, "text/plain", "hi " + request.path + "\n"};
  });
  ASSERT_OK(server.Start(0));
  ASSERT_GT(server.port(), 0);
  const std::string response = HttpGet(server.port(), "/hello/world");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("hi /hello/world"), std::string::npos);
  ASSERT_OK(server.Stop());
}

TEST(HttpServerTest, UnknownPath404) {
  HttpServer server;
  server.RegisterHandler("/known", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain", "ok"};
  });
  ASSERT_OK(server.Start(0));
  const std::string response = HttpGet(server.port(), "/unknown");
  EXPECT_NE(response.find("404"), std::string::npos);
  ASSERT_OK(server.Stop());
}

TEST(HttpServerTest, LongestPrefixWins) {
  HttpServer server;
  server.RegisterHandler("/a", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain", "short"};
  });
  server.RegisterHandler("/a/b", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain", "long"};
  });
  ASSERT_OK(server.Start(0));
  EXPECT_NE(HttpGet(server.port(), "/a/b/c").find("long"),
            std::string::npos);
  EXPECT_NE(HttpGet(server.port(), "/a/x").find("short"),
            std::string::npos);
  ASSERT_OK(server.Stop());
}

TEST(HttpServerTest, QueryStringSeparated) {
  HttpServer server;
  std::string seen_path, seen_query;
  server.RegisterHandler("/q", [&](const HttpRequest& request) {
    seen_path = request.path;
    seen_query = request.query;
    return HttpResponse{200, "text/plain", "ok"};
  });
  ASSERT_OK(server.Start(0));
  HttpGet(server.port(), "/q/x?a=1&b=2");
  EXPECT_EQ(seen_path, "/q/x");
  EXPECT_EQ(seen_query, "a=1&b=2");
  ASSERT_OK(server.Stop());
}

TEST(HttpServerTest, PostBodyDelivered) {
  HttpServer server;
  std::string seen_body, seen_method;
  server.RegisterHandler("/post", [&](const HttpRequest& request) {
    seen_body = request.body;
    seen_method = request.method;
    return HttpResponse{200, "text/plain", "ok"};
  });
  ASSERT_OK(server.Start(0));
  HttpGet(server.port(), "/post", "the payload", "POST");
  EXPECT_EQ(seen_method, "POST");
  EXPECT_EQ(seen_body, "the payload");
  ASSERT_OK(server.Stop());
}

TEST(HttpServerTest, ManySequentialRequests) {
  HttpServer server;
  std::atomic<int> hits{0};
  server.RegisterHandler("/", [&](const HttpRequest&) {
    hits.fetch_add(1);
    return HttpResponse{200, "text/plain", "ok"};
  });
  ASSERT_OK(server.Start(0));
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(HttpGet(server.port(), "/" + std::to_string(i)).find("200"),
              std::string::npos);
  }
  EXPECT_EQ(hits.load(), 100);
  ASSERT_OK(server.Stop());
}

// `threads` clients each send `per_thread` sequential requests at once;
// every request must be served, and none may hit the socket deadline.
void ExpectConcurrentClientsServed(int threads, int per_thread) {
  HttpServer server;
  std::atomic<int> hits{0};
  server.RegisterHandler("/", [&](const HttpRequest& request) {
    hits.fetch_add(1);
    return HttpResponse{200, "text/plain", "echo:" + request.path};
  });
  ASSERT_OK(server.Start(0));
  std::atomic<int> ok_responses{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < per_thread; ++i) {
        const std::string target =
            "/t" + std::to_string(t) + "/" + std::to_string(i);
        const std::string response = HttpGet(server.port(), target);
        if (response.find("200 OK") != std::string::npos &&
            response.find("echo:" + target) != std::string::npos) {
          ok_responses.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(ok_responses.load(), threads * per_thread);
  EXPECT_EQ(hits.load(), threads * per_thread);
  EXPECT_EQ(server.connections_served(), threads * per_thread);
  EXPECT_EQ(server.deadlines_expired(), 0);
  ASSERT_OK(server.Stop());
}

TEST(HttpServerTest, ConcurrentClients) {
  ExpectConcurrentClientsServed(4, 25);
}

TEST(HttpServerTest, OversizedAndGarbageRequestsSurvive) {
  HttpServer server;
  server.RegisterHandler("/", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain", "ok"};
  });
  ASSERT_OK(server.Start(0));
  // Garbage request line: the server must not crash and must keep serving.
  HttpGet(server.port(), "\r\n\r\n");
  // Large-ish body.
  HttpGet(server.port(), "/post", std::string(100000, 'x'), "POST");
  EXPECT_NE(HttpGet(server.port(), "/fine").find("200"), std::string::npos);
  ASSERT_OK(server.Stop());
}

// muppetd binds every admin plane with port 0 in tests and reads the
// kernel-assigned port back through port(): the reported port must be
// real (reachable), stable while running, and distinct per server.
TEST(HttpServerTest, EphemeralPortIsReportedAndReachable) {
  HttpServer a, b;
  const auto ok = [](const HttpRequest&) {
    return HttpResponse{200, "text/plain", "ok"};
  };
  a.RegisterHandler("/", ok);
  b.RegisterHandler("/", ok);
  ASSERT_OK(a.Start(0));
  ASSERT_OK(b.Start(0));
  ASSERT_GT(a.port(), 0);
  ASSERT_GT(b.port(), 0);
  EXPECT_NE(a.port(), b.port());
  const int seen = a.port();
  EXPECT_NE(HttpGet(a.port(), "/").find("200"), std::string::npos);
  EXPECT_NE(HttpGet(b.port(), "/").find("200"), std::string::npos);
  EXPECT_EQ(a.port(), seen);  // stable across requests
  ASSERT_OK(a.Stop());
  ASSERT_OK(b.Stop());
}

TEST(HttpServerTest, StopIsIdempotentAndRestartable) {
  HttpServer server;
  server.RegisterHandler("/", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain", "ok"};
  });
  ASSERT_OK(server.Start(0));
  ASSERT_OK(server.Stop());
  ASSERT_OK(server.Stop());
  ASSERT_OK(server.Start(0));
  EXPECT_NE(HttpGet(server.port(), "/").find("200"), std::string::npos);
  ASSERT_OK(server.Stop());
}

// A client that connects and never sends must not keep Stop() waiting: the
// serving thread blocked in recv() on it is woken by the shutdown.
TEST(HttpServerTest, StopReturnsWhileAClientIsSilent) {
  HttpServer server;
  server.RegisterHandler("/", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain", "ok"};
  });
  ASSERT_OK(server.Start(0));
  const int silent = ConnectSilent(server.port());
  ASSERT_GE(silent, 0);
  // Let a serving thread accept it and block reading the request.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto start = std::chrono::steady_clock::now();
  ASSERT_OK(server.Stop());
  EXPECT_LT(SecondsSince(start), 1.0);
  ::close(silent);
}

TEST(HttpServerTest, SilentClientDoesNotBlockOthers) {
  HttpServer server;
  server.RegisterHandler("/", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain", "ok"};
  });
  ASSERT_OK(server.Start(0));
  const int silent = ConnectSilent(server.port());
  ASSERT_GE(silent, 0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_NE(HttpGet(server.port(), "/" + std::to_string(i)).find("200 OK"),
              std::string::npos)
        << "request " << i;
  }
  ASSERT_OK(server.Stop());
  ::close(silent);
}

// The receive deadline frees the serving thread: the server closes a
// connection that never sends a request, and counts the expiry.
TEST(HttpServerTest, ServerClosesSilentConnectionAfterDeadline) {
  HttpServer server;
  server.RegisterHandler("/", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain", "ok"};
  });
  ASSERT_OK(server.Start(0));
  const int silent = ConnectSilent(server.port());
  ASSERT_GE(silent, 0);
  const auto start = std::chrono::steady_clock::now();
  char byte;
  EXPECT_EQ(::recv(silent, &byte, 1, 0), 0);  // EOF, not our read timeout
  const double waited = SecondsSince(start);
  EXPECT_GT(waited, HttpServer::kIoDeadlineSeconds - 0.5);
  EXPECT_LT(waited, HttpServer::kIoDeadlineSeconds + 2.0);
  ::close(silent);
  // The serving thread updates its counters before it closes the socket.
  EXPECT_EQ(server.connections_served(), 1);
  EXPECT_EQ(server.deadlines_expired(), 1);
  EXPECT_EQ(server.busy_threads(), 0);
  ASSERT_OK(server.Stop());
}

TEST(HttpServerTest, MoreConcurrentClientsThanServingThreads) {
  static_assert(16 > HttpServer::kServingThreads);
  ExpectConcurrentClientsServed(16, 25);
}

}  // namespace
}  // namespace muppet
