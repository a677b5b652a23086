// TCP transport failure arcs over real loopback sockets (DESIGN.md,
// "Transport backends & deployment model"):
//  * peer down at connect time -> sends fail Unavailable immediately
//    (the paper's §4.3 detection-by-failed-send);
//  * peer dies mid-frame -> the half-received frame is never delivered,
//    and the node survives the torn connection;
//  * reconnect with backoff resumes delivery after the peer restarts,
//    and the restarted peer's HELLO cuts the dialer's backoff short;
//  * write-queue overflow surfaces as ResourceExhausted backpressure,
//    never as a silent drop.
#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/frame.h"
#include "net/socket.h"
#include "tests/net/transport_test_util.h"

namespace muppet {
namespace {

using testing::SendOne;

// Reserve a free loopback port: bind port 0, read it back, release. The
// tiny race (another process grabbing it before we re-bind) is acceptable
// in tests.
int ReservePort() {
  OwnedFd fd;
  int port = 0;
  Status s = TcpListen("127.0.0.1", 0, &fd, &port);
  EXPECT_TRUE(s.ok()) << s.message();
  return port;
}

bool WaitUntil(const std::function<bool()>& cond, int timeout_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return cond();
}

// Blocking loopback client used to poke raw bytes at a transport's data
// port (simulating a peer that corrupts the stream or dies mid-frame).
class RawClient {
 public:
  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }
  bool SendAll(BytesView data) {
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  ~RawClient() { Close(); }

 private:
  int fd_ = -1;
};

struct Node {
  std::unique_ptr<TcpTransport> transport;
  std::atomic<int> received{0};
  Bytes last_payload;  // written only from the IO thread's handler call
  std::atomic<bool> decline{false};
  // Race-free "did a specific payload arrive" probe: set before Start()
  // (never mutated after), counted from the handler.
  Bytes expect_payload;
  std::atomic<int> expect_hits{0};
  // The transport's clock, set before Init(); nullptr = the system clock.
  Clock* clock = nullptr;

  void Init(uint32_t node_id, int port, MachineId hosted,
            std::vector<TcpPeerConfig> peers) {
    TcpTransportOptions opts;
    opts.node_id = node_id;
    opts.listen_port = port;
    opts.peers = std::move(peers);
    opts.clock = clock;
    transport = std::make_unique<TcpTransport>(std::move(opts));
    ASSERT_TRUE(transport
                    ->RegisterMachine(hosted,
                                      [this](MachineId, BytesView frame,
                                             size_t count, size_t* accepted) {
                                        if (decline.load()) {
                                          return Status::ResourceExhausted(
                                              "test decline");
                                        }
                                        last_payload.assign(frame.data(),
                                                            frame.size());
                                        if (!expect_payload.empty() &&
                                            frame == expect_payload) {
                                          expect_hits.fetch_add(1);
                                        }
                                        *accepted = count;
                                        received.fetch_add(
                                            static_cast<int>(count));
                                        return Status::OK();
                                      })
                    .ok());
  }
};

TcpPeerConfig PeerOf(uint32_t node_id, int port, std::vector<MachineId> ms) {
  TcpPeerConfig p;
  p.node_id = node_id;
  p.port = port;
  p.machines = std::move(ms);
  return p;
}

TEST(TcpTransportTest, DeliversAcrossRealSockets) {
  const int port_a = ReservePort();
  const int port_b = ReservePort();
  Node a, b;
  a.Init(1, port_a, /*hosted=*/0, {PeerOf(2, port_b, {1})});
  b.Init(2, port_b, /*hosted=*/1, {PeerOf(1, port_a, {0})});
  ASSERT_TRUE(a.transport->Start().ok());
  ASSERT_TRUE(b.transport->Start().ok());
  EXPECT_EQ(a.transport->listen_port(), port_a);

  ASSERT_TRUE(WaitUntil([&] { return a.transport->PeerUp(2); }));
  ASSERT_TRUE(WaitUntil([&] { return b.transport->PeerUp(1); }));

  // A frame of one message.
  ASSERT_TRUE(SendOne(*a.transport, 0, 1, "over the wire").ok());
  ASSERT_TRUE(WaitUntil([&] { return b.received.load() == 1; }));
  EXPECT_EQ(b.last_payload, "over the wire");

  // Batch frame: OK means queued with the whole frame accepted.
  size_t accepted = 0;
  ASSERT_TRUE(
      a.transport->SendBatch(0, 1, "opaque batch bytes", 5, &accepted).ok());
  EXPECT_EQ(accepted, 5u);
  ASSERT_TRUE(WaitUntil([&] { return b.received.load() == 6; }));

  // Reverse direction uses b's own dialed connection.
  ASSERT_TRUE(SendOne(*b.transport, 1, 0, "echo").ok());
  ASSERT_TRUE(WaitUntil([&] { return a.received.load() == 1; }));

  EXPECT_GE(a.transport->SendAttemptsTo(1), 2);
  EXPECT_GE(a.transport->frames_sent(), 2);
  EXPECT_GT(a.transport->bytes_sent(), 0);

  a.transport->Stop();
  b.transport->Stop();
}

TEST(TcpTransportTest, PeerDownAtConnectFailsSendsImmediately) {
  const int port_a = ReservePort();
  const int dead_port = ReservePort();  // nothing ever listens here
  Node a;
  a.Init(1, port_a, /*hosted=*/0, {PeerOf(2, dead_port, {1})});
  ASSERT_TRUE(a.transport->Start().ok());

  // The dialer keeps retrying with backoff, but the peer never comes up:
  // every send fails fast with Unavailable — no queueing, no blocking.
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 50; ++i) {
    const Status s = SendOne(*a.transport, 0, 1, "lost");
    EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.message();
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1000);
  EXPECT_FALSE(a.transport->PeerUp(2));
  EXPECT_EQ(a.transport->messages_dropped(), 50);
  EXPECT_EQ(a.transport->SendAttemptsTo(1), 50);
  a.transport->Stop();
}

TEST(TcpTransportTest, PeerDyingMidFrameDeliversNothing) {
  const int port_a = ReservePort();
  Node a;
  a.Init(1, port_a, /*hosted=*/0, {});
  ASSERT_TRUE(a.transport->Start().ok());

  WireFrame f;
  f.type = FrameType::kBatch;
  f.from = 5;
  f.to = 0;
  f.count = 1;
  f.payload = "this frame will be truncated";
  const Bytes wire = EncodeFrame(f);

  // HELLO, then half a frame, then die.
  {
    RawClient dying;
    ASSERT_TRUE(dying.Connect(port_a));
    WireFrame hello;
    hello.type = FrameType::kHello;
    hello.from = kInvalidMachine;
    hello.to = kInvalidMachine;
    hello.count = 0;
    hello.payload = EncodeHello(9, {5});
    ASSERT_TRUE(dying.SendAll(EncodeFrame(hello)));
    ASSERT_TRUE(dying.SendAll(BytesView(wire.data(), wire.size() / 2)));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    dying.Close();  // connection dies mid-frame
  }

  // The truncated frame must never surface.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(a.received.load(), 0);

  // A fresh, well-behaved connection still delivers.
  RawClient healthy;
  ASSERT_TRUE(healthy.Connect(port_a));
  WireFrame hello;
  hello.type = FrameType::kHello;
  hello.from = kInvalidMachine;
  hello.to = kInvalidMachine;
  hello.count = 0;
  hello.payload = EncodeHello(9, {5});
  ASSERT_TRUE(healthy.SendAll(EncodeFrame(hello)));
  ASSERT_TRUE(healthy.SendAll(wire));
  ASSERT_TRUE(WaitUntil([&] { return a.received.load() == 1; }));
  EXPECT_EQ(a.last_payload, f.payload);
  a.transport->Stop();
}

TEST(TcpTransportTest, CorruptStreamTearsConnectionDownWithoutCrashing) {
  const int port_a = ReservePort();
  Node a;
  a.Init(1, port_a, /*hosted=*/0, {});
  ASSERT_TRUE(a.transport->Start().ok());

  RawClient evil;
  ASSERT_TRUE(evil.Connect(port_a));
  Bytes junk(1024, '\x5a');
  // The transport closes the connection on the framing error; depending
  // on timing our sends may start failing (EPIPE/RST) — both fine.
  (void)evil.SendAll(junk);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(a.received.load(), 0);

  // Transport is still healthy for well-framed peers.
  RawClient healthy;
  ASSERT_TRUE(healthy.Connect(port_a));
  WireFrame hello;
  hello.type = FrameType::kHello;
  hello.from = kInvalidMachine;
  hello.to = kInvalidMachine;
  hello.count = 0;
  hello.payload = EncodeHello(3, {7});
  WireFrame msg;
  msg.type = FrameType::kBatch;
  msg.from = 7;
  msg.to = 0;
  msg.count = 1;
  msg.payload = "still alive";
  ASSERT_TRUE(healthy.SendAll(EncodeFrame(hello) + EncodeFrame(msg)));
  ASSERT_TRUE(WaitUntil([&] { return a.received.load() == 1; }));
  a.transport->Stop();
}

TEST(TcpTransportTest, ReconnectWithBackoffResumesDelivery) {
  const int port_a = ReservePort();
  const int port_b = ReservePort();
  Node a;
  a.Init(1, port_a, /*hosted=*/0, {PeerOf(2, port_b, {1})});
  ASSERT_TRUE(a.transport->Start().ok());

  // Phase 1: peer up, delivery works.
  Node b;
  b.Init(2, port_b, /*hosted=*/1, {PeerOf(1, port_a, {0})});
  ASSERT_TRUE(b.transport->Start().ok());
  ASSERT_TRUE(WaitUntil([&] { return a.transport->PeerUp(2); }));
  ASSERT_TRUE(SendOne(*a.transport, 0, 1, "before the crash").ok());
  ASSERT_TRUE(WaitUntil([&] { return b.received.load() == 1; }));

  // Phase 2: kill the peer. The dialer notices (read error / failed
  // reconnect) and sends start failing — the paper's failed-send
  // detection signal.
  b.transport->Stop();
  ASSERT_TRUE(WaitUntil([&] {
    return !a.transport->PeerUp(2) ||
           !SendOne(*a.transport, 0, 1, "probe").ok();
  }));
  ASSERT_TRUE(WaitUntil([&] { return !a.transport->PeerUp(2); }));
  const Status down = SendOne(*a.transport, 0, 1, "while down");
  EXPECT_EQ(down.code(), StatusCode::kUnavailable);

  // Phase 3: restart the peer on the same port. The restarted peer dials
  // us, its HELLO cuts our dialer's backoff short (the backoff loop alone
  // gets there too, capped at TcpTransport::kReconnectMaxMicros), and
  // delivery resumes.
  Node b2;
  b2.expect_payload = "after restart";
  b2.Init(2, port_b, /*hosted=*/1, {PeerOf(1, port_a, {0})});
  ASSERT_TRUE(b2.transport->Start().ok());
  ASSERT_TRUE(WaitUntil([&] { return a.transport->PeerUp(2); }));
  ASSERT_TRUE(WaitUntil([&] {
    // The first send may race the handshake flip; retry until accepted.
    return SendOne(*a.transport, 0, 1, "after restart").ok();
  }));
  // A "probe" from phase 2 may have been queued before the dialer
  // noticed the crash; retained frames are resent on reconnect by
  // design, so b2 can legitimately see it first. Wait for the payload
  // we actually care about rather than any delivery.
  ASSERT_TRUE(WaitUntil([&] { return b2.expect_hits.load() >= 1; }));

  a.transport->Stop();
  b2.transport->Stop();
}

TEST(TcpTransportTest, InboundHelloCutsDialerBackoffShort) {
  const int port_a = ReservePort();
  const int port_b = ReservePort();
  Node a;
  // a's clock never moves, so its dialer never sees a backoff deadline
  // pass: it dials only when an inbound HELLO tells it the peer is up.
  SimulatedClock frozen;
  a.clock = &frozen;
  a.Init(1, port_a, /*hosted=*/0, {PeerOf(2, port_b, {1})});
  ASSERT_TRUE(a.transport->Start().ok());

  Node b;
  b.Init(2, port_b, /*hosted=*/1, {PeerOf(1, port_a, {0})});
  ASSERT_TRUE(b.transport->Start().ok());
  ASSERT_TRUE(WaitUntil([&] { return a.transport->PeerUp(2); }));

  // Kill the peer: a's connection tears down and its dialer backs off.
  b.transport->Stop();
  ASSERT_TRUE(WaitUntil([&] { return !a.transport->PeerUp(2); }));

  // Restart it. Its HELLO on the connection it dials to a proves it is
  // listening again, so a redials now instead of sleeping out its backoff.
  Node b2;
  b2.Init(2, port_b, /*hosted=*/1, {PeerOf(1, port_a, {0})});
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(b2.transport->Start().ok());
  ASSERT_TRUE(WaitUntil([&] { return a.transport->PeerUp(2); },
                        /*timeout_ms=*/1000));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_LT(elapsed.count(), 1000);
  ASSERT_TRUE(
      WaitUntil([&] { return SendOne(*a.transport, 0, 1, "back").ok(); }));
  ASSERT_TRUE(WaitUntil([&] { return b2.received.load() >= 1; }));

  a.transport->Stop();
  b2.transport->Stop();
}

TEST(TcpTransportTest, WriteQueueOverflowReportsBackpressure) {
  const int port_a = ReservePort();
  const int port_b = ReservePort();
  Node a, b;
  // The receiver declines everything, so frames pile up in the
  // receiver's parked frame + kernel buffers + sender queue until the
  // queue holds TcpTransport::kWriteQueueCapBytes (16 MiB).
  a.Init(1, port_a, /*hosted=*/0, {PeerOf(2, port_b, {1})});
  b.Init(2, port_b, /*hosted=*/1, {PeerOf(1, port_a, {0})});
  b.decline.store(true);
  ASSERT_TRUE(a.transport->Start().ok());
  ASSERT_TRUE(b.transport->Start().ok());
  ASSERT_TRUE(WaitUntil([&] { return a.transport->PeerUp(2); }));

  const Bytes big(1 << 20, 'q');
  bool saw_backpressure = false;
  for (int i = 0; i < 400 && !saw_backpressure; ++i) {
    const Status s = SendOne(*a.transport, 0, 1, big);
    if (s.code() == StatusCode::kResourceExhausted) {
      saw_backpressure = true;
    } else {
      ASSERT_TRUE(s.ok()) << s.message();
    }
  }
  ASSERT_TRUE(saw_backpressure)
      << "400 sends against a paused receiver never hit the queue cap";
  EXPECT_GT(a.transport->messages_declined(), 0);

  // Backpressure is not loss: un-pause the receiver and everything queued
  // (including the parked frame) drains.
  const int64_t queued_ok = a.transport->messages_sent();
  b.decline.store(false);
  ASSERT_TRUE(WaitUntil(
      [&] { return b.received.load() >= static_cast<int>(queued_ok); },
      /*timeout_ms=*/20000));
  EXPECT_TRUE(a.transport->FlushOutbound(5 * 1000 * 1000).ok());

  a.transport->Stop();
  b.transport->Stop();
}

TEST(TcpTransportTest, CrashedLocalMachineRejectsSends) {
  const int port_a = ReservePort();
  Node a;
  a.Init(1, port_a, /*hosted=*/0, {});
  ASSERT_TRUE(a.transport->Start().ok());
  ASSERT_TRUE(SendOne(*a.transport, 0, 0, "local delivery").ok());
  EXPECT_EQ(a.received.load(), 1);
  EXPECT_EQ(a.transport->messages_sent(), 1);

  a.transport->Crash(0);
  EXPECT_FALSE(a.transport->IsUp(0));
  EXPECT_EQ(SendOne(*a.transport, 0, 0, "dead").code(),
            StatusCode::kUnavailable);
  a.transport->Restore(0);
  EXPECT_TRUE(a.transport->IsUp(0));
  ASSERT_TRUE(SendOne(*a.transport, 0, 0, "revived").ok());
  EXPECT_EQ(a.received.load(), 2);
  a.transport->Stop();
}

TEST(TcpTransportTest, IsUpCoversLocalAndRemoteMachines) {
  const int port_a = ReservePort();
  const int port_b = ReservePort();
  Node a;
  a.Init(1, port_a, /*hosted=*/0, {PeerOf(2, port_b, {1, 2})});
  EXPECT_TRUE(a.transport->IsUp(0));
  // Remote machines are "up" only once their peer's connection is.
  EXPECT_FALSE(a.transport->IsUp(1));
}

}  // namespace
}  // namespace muppet
