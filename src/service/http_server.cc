#include "service/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>

namespace muppet {

std::string UrlEncode(std::string_view s) {
  static const char* kHex = "0123456789ABCDEF";
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~') {
      out.push_back(static_cast<char>(c));
    } else {
      out.push_back('%');
      out.push_back(kHex[c >> 4]);
      out.push_back(kHex[c & 0xF]);
    }
  }
  return out;
}

std::string UrlDecode(std::string_view s) {
  auto hex = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      const int hi = hex(s[i + 1]), lo = hex(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>((hi << 4) | lo));
        i += 2;
        continue;
      }
    }
    if (s[i] == '+') {
      out.push_back(' ');
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

HttpServer::~HttpServer() { (void)Stop(); }

void HttpServer::RegisterHandler(const std::string& prefix, Handler handler) {
  handlers_[prefix] = std::move(handler);
}

Status HttpServer::Start(int port) {
  if (running_.load()) return Status::FailedPrecondition("http: running");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("http: socket() failed");
  int opt = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &opt, sizeof(opt));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IOError("http: bind failed: " +
                           std::string(std::strerror(errno)));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  if (::listen(fd, 64) != 0) {
    ::close(fd);
    return Status::IOError("http: listen failed");
  }
  listen_fd_ = fd;
  running_.store(true);
  for (int i = 0; i < kServingThreads; ++i) {
    conn_fds_[i].store(-1);
    threads_[i] = std::thread([this, i] { ServeLoop(&conn_fds_[i]); });
  }
  return Status::OK();
}

Status HttpServer::Stop() {
  if (!running_.exchange(false)) return Status::OK();
  // Shutdown wakes every accept() and each taken connection's recv()/send();
  // closing a taken fd only after the join keeps its number from reuse.
  ::shutdown(listen_fd_, SHUT_RDWR);
  std::array<int, kServingThreads> taken;
  for (int i = 0; i < kServingThreads; ++i) {
    taken[i] = conn_fds_[i].exchange(kStopped);
    if (taken[i] >= 0) ::shutdown(taken[i], SHUT_RDWR);
  }
  for (int i = 0; i < kServingThreads; ++i) {
    threads_[i].join();
    if (taken[i] >= 0) ::close(taken[i]);
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  return Status::OK();
}

void HttpServer::ServeLoop(std::atomic<int>* conn_fd) {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0 && !running_.load()) return;
    if (fd < 0) continue;
    if (conn_fd->exchange(fd) != kStopped) {  // else Stop() passed already
      busy_.fetch_add(1);
      ServeConnection(fd);
      busy_.fetch_sub(1);
      connections_.fetch_add(1);
    }
    if (conn_fd->exchange(-1) == fd) ::close(fd);  // else Stop() took it
  }
}

HttpResponse HttpServer::Route(const HttpRequest& request) const {
  const Handler* best = nullptr;
  size_t best_len = 0;
  for (const auto& [prefix, handler] : handlers_) {
    if (request.path.compare(0, prefix.size(), prefix) == 0 &&
        prefix.size() >= best_len) {
      best = &handler;
      best_len = prefix.size();
    }
  }
  if (best == nullptr) return HttpResponse{404, "text/plain", "not found\n"};
  return (*best)(request);
}

void HttpServer::ServeConnection(int fd) {
  const timeval deadline{kIoDeadlineSeconds, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &deadline, sizeof(deadline));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &deadline, sizeof(deadline));
  // Did one recv()/send() move bytes? A deadline hit fails with EAGAIN.
  auto io_ok = [this](ssize_t n) {
    if (n < 0 && errno == EAGAIN) deadlines_expired_.fetch_add(1);
    return n > 0;
  };

  // Read until the end of headers (or 64KB cap).
  std::string buffer;
  char chunk[4096];
  ssize_t n = 0;
  size_t header_end = std::string::npos;
  while (header_end == std::string::npos && buffer.size() < (64u << 10) &&
         io_ok(n = ::recv(fd, chunk, sizeof(chunk), 0))) {
    buffer.append(chunk, static_cast<size_t>(n));
    header_end = buffer.find("\r\n\r\n");
  }
  if (header_end == std::string::npos) return;

  HttpRequest request;
  std::string_view head(buffer.data(), header_end);
  for (bool first = true; !head.empty(); first = false) {
    const size_t eol = std::min(head.find('\n'), head.size());
    std::string_view line = head.substr(0, eol);
    head.remove_prefix(std::min(eol + 1, head.size()));
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (first) {  // METHOD SP TARGET SP VERSION
      const size_t sp = line.find(' ');
      request.method = line.substr(0, sp);
      std::string_view target =
          sp == std::string_view::npos ? "" : line.substr(sp + 1);
      target = target.substr(0, target.find(' '));
      const size_t q = std::min(target.find('?'), target.size());
      // Keep the path raw (percent-encoded): handlers decode per segment
      // so encoded '/' in slate keys survives routing.
      request.path = target.substr(0, q);
      request.query = target.substr(std::min(q + 1, target.size()));
      continue;
    }
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    std::string name(line.substr(0, colon));
    std::transform(name.begin(), name.end(), name.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    std::string_view value = line.substr(colon + 1);
    value.remove_prefix(std::min(value.find_first_not_of(' '), value.size()));
    request.headers[std::move(name)] = value;
  }

  // Body (Content-Length only).
  const auto it = request.headers.find("content-length");
  const size_t content_length =
      it == request.headers.end() ? 0 : std::strtoull(it->second.c_str(),
                                                      nullptr, 10);
  buffer.erase(0, header_end + 4);
  request.body = std::move(buffer);
  while (request.body.size() < content_length &&
         request.body.size() < (16u << 20) &&
         io_ok(n = ::recv(fd, chunk, sizeof(chunk), 0))) {
    request.body.append(chunk, static_cast<size_t>(n));
  }

  const HttpResponse response = Route(request);
  const char* reason = response.status == 200   ? "OK"
                       : response.status == 404 ? "Not Found"
                       : response.status == 400 ? "Bad Request"
                                                : "Error";
  std::string out = "HTTP/1.0 " + std::to_string(response.status) + " " +
                    reason + "\r\nContent-Type: " + response.content_type +
                    "\r\nContent-Length: " +
                    std::to_string(response.body.size()) +
                    "\r\nConnection: close\r\n\r\n" + response.body;
  for (size_t sent = 0; sent < out.size(); sent += static_cast<size_t>(n)) {
    n = ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (!io_ok(n)) break;
  }
}

}  // namespace muppet
