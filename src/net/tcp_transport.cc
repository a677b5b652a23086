#include "net/tcp_transport.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace muppet {

namespace {
// IO loop tick bounds: short while a declined frame is parked (the retry
// cadence), long when idle (dial deadlines shorten it as needed).
constexpr int kPendingRetryMillis = 2;
constexpr int kIdleTickMillis = 100;
}  // namespace

TcpTransport::TcpTransport(TcpTransportOptions options)
    : options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock
                                       : SystemClock::Default()) {
  for (const TcpPeerConfig& pc : options_.peers) {
    auto peer = std::make_unique<Peer>();
    peer->config = pc;
    peer->backoff = kReconnectInitialMicros;
    for (MachineId m : pc.machines) machine_to_peer_[m] = peer.get();
    peers_.push_back(std::move(peer));
  }
}

TcpTransport::~TcpTransport() { Stop(); }

Status TcpTransport::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("tcp transport already started");
  }
  stop_.store(false, std::memory_order_release);
  MUPPET_RETURN_IF_ERROR(epoll_.Create());
  MUPPET_RETURN_IF_ERROR(wakeup_.Create());
  int bound = 0;
  MUPPET_RETURN_IF_ERROR(TcpListen(options_.listen_host,
                                   options_.listen_port, &listen_fd_,
                                   &bound));
  listen_port_.store(bound, std::memory_order_release);
  MUPPET_RETURN_IF_ERROR(epoll_.Add(listen_fd_.get(), true, false));
  MUPPET_RETURN_IF_ERROR(epoll_.Add(wakeup_.fd(), true, false));
  running_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { IoLoop(); });
  return Status::OK();
}

void TcpTransport::Stop() {
  if (!running_.exchange(false)) return;
  stop_.store(true, std::memory_order_release);
  wakeup_.Signal();
  if (io_thread_.joinable()) io_thread_.join();
  // Undelivered queued frames die with the transport; account them so
  // shutdown is not mistaken for delivery.
  for (auto& peer : peers_) {
    MutexLock lock(peer->q_mutex);
    for (const QueuedFrame& f : peer->queue) {
      messages_dropped_.Add(static_cast<int64_t>(f.count));
    }
    peer->queue.clear();
    peer->queued_bytes = 0;
    peer->head_offset = 0;
    peer->up.store(false, std::memory_order_release);
  }
  conns_.clear();
  fd_to_peer_.clear();
  listen_fd_.Reset();
}

Status TcpTransport::RegisterMachine(MachineId id, Handler handler) {
  WriterMutexLock lock(state_mutex_);
  if (local_.count(id) != 0) {
    return Status::AlreadyExists("machine id already registered");
  }
  auto m = std::make_shared<LocalMachine>();
  m->handler = std::move(handler);
  local_[id] = std::move(m);
  return Status::OK();
}

void TcpTransport::UnregisterMachine(MachineId id) {
  WriterMutexLock lock(state_mutex_);
  local_.erase(id);
}

std::shared_ptr<TcpTransport::LocalMachine> TcpTransport::FindLocal(
    MachineId id) const {
  ReaderMutexLock lock(state_mutex_);
  auto it = local_.find(id);
  return it == local_.end() ? nullptr : it->second;
}

TcpTransport::Peer* TcpTransport::PeerForMachine(MachineId id) const {
  auto it = machine_to_peer_.find(id);
  return it == machine_to_peer_.end() ? nullptr : it->second;
}

void TcpTransport::CountAttempt(MachineId id) {
  WriterMutexLock lock(state_mutex_);
  ++attempts_[id];
}

int64_t TcpTransport::SendAttemptsTo(MachineId id) const {
  ReaderMutexLock lock(state_mutex_);
  auto it = attempts_.find(id);
  return it == attempts_.end() ? 0 : it->second;
}

Status TcpTransport::SendBatch(MachineId from, MachineId to, BytesView data,
                               size_t count, size_t* accepted,
                               uint64_t fault_signature) {
  (void)fault_signature;
  *accepted = 0;
  if (from != to) CountAttempt(to);
  std::shared_ptr<LocalMachine> local = FindLocal(to);
  if (local != nullptr) {
    if (!local->up.load(std::memory_order_acquire)) {
      messages_dropped_.Add(static_cast<int64_t>(count));
      return Status::Unavailable("machine crashed");
    }
    Status s = local->handler(from, data, count, accepted);
    messages_sent_.Add(static_cast<int64_t>(*accepted));
    if (s.code() == StatusCode::kResourceExhausted) {
      messages_declined_.Add(static_cast<int64_t>(count - *accepted));
    }
    return s;
  }
  Peer* peer = PeerForMachine(to);
  if (peer == nullptr) return Status::Unavailable("unknown machine");
  WireFrame frame;
  frame.type = FrameType::kBatch;
  frame.from = from;
  frame.to = to;
  frame.count = static_cast<uint32_t>(count);
  frame.payload.assign(data.data(), data.size());
  Status s = EnqueueFrame(peer, frame);
  // Async contract: OK means durably queued; the whole frame counts as
  // accepted (delivery failures surface as Unavailable on later sends).
  if (s.ok()) *accepted = count;
  return s;
}

Status TcpTransport::EnqueueFrame(Peer* peer, const WireFrame& frame) {
  if (!peer->up.load(std::memory_order_acquire)) {
    messages_dropped_.Add(static_cast<int64_t>(frame.count));
    return Status::Unavailable("peer node " +
                               std::to_string(peer->config.node_id) +
                               " unreachable");
  }
  Bytes encoded = EncodeFrame(frame);
  {
    MutexLock lock(peer->q_mutex);
    if (peer->queued_bytes + encoded.size() > kWriteQueueCapBytes) {
      messages_declined_.Add(static_cast<int64_t>(frame.count));
      return Status::ResourceExhausted("tcp write queue full for node " +
                                       std::to_string(peer->config.node_id));
    }
    peer->queued_bytes += encoded.size();
    bytes_sent_.Add(static_cast<int64_t>(encoded.size()));
    peer->queue.push_back(QueuedFrame{std::move(encoded), frame.count});
  }
  messages_sent_.Add(static_cast<int64_t>(frame.count));
  frames_sent_.Add();
  wakeup_.Signal();
  return Status::OK();
}

void TcpTransport::Crash(MachineId id) {
  std::shared_ptr<LocalMachine> local = FindLocal(id);
  if (local != nullptr) local->up.store(false, std::memory_order_release);
}

void TcpTransport::Restore(MachineId id) {
  std::shared_ptr<LocalMachine> local = FindLocal(id);
  if (local != nullptr) local->up.store(true, std::memory_order_release);
}

bool TcpTransport::IsUp(MachineId id) const {
  std::shared_ptr<LocalMachine> local = FindLocal(id);
  if (local != nullptr) return local->up.load(std::memory_order_acquire);
  Peer* peer = PeerForMachine(id);
  return peer != nullptr && peer->up.load(std::memory_order_acquire);
}

bool TcpTransport::PeerUp(uint32_t node) const {
  for (const auto& peer : peers_) {
    if (peer->config.node_id == node) {
      return peer->up.load(std::memory_order_acquire);
    }
  }
  return false;
}

Status TcpTransport::FlushOutbound(Timestamp timeout_micros) {
  const Timestamp deadline = clock_->Now() + timeout_micros;
  while (true) {
    bool empty = true;
    for (const auto& peer : peers_) {
      MutexLock lock(peer->q_mutex);
      if (!peer->queue.empty()) {
        empty = false;
        break;
      }
    }
    if (empty) return Status::OK();
    if (clock_->Now() >= deadline) {
      return Status::TimedOut("tcp transport: outbound not drained");
    }
    wakeup_.Signal();
    clock_->SleepFor(1000);
  }
}

// ---------------------------------------------------------------------------
// IO thread.

void TcpTransport::IoLoop() {
  std::vector<Epoll::Event> events;
  std::vector<MachineId> local_ids;
  {
    ReaderMutexLock lock(state_mutex_);
    for (const auto& [id, m] : local_) local_ids.push_back(id);
  }
  for (auto& peer : peers_) {
    peer->hello_out = Bytes();
  }
  while (!stop_.load(std::memory_order_acquire)) {
    const Timestamp now = clock_->Now();
    TickDialers(now);

    int timeout = kIdleTickMillis;
    bool any_pending = false;
    for (const auto& [fd, conn] : conns_) {
      if (conn->has_pending) any_pending = true;
    }
    if (any_pending) timeout = kPendingRetryMillis;
    for (const auto& peer : peers_) {
      if (peer->state == Peer::DialState::kIdle) {
        const Timestamp wait = peer->next_dial_at - now;
        const int millis =
            wait <= 0 ? 0 : static_cast<int>(wait / 1000) + 1;
        timeout = std::min(timeout, millis);
      }
    }

    Status s = epoll_.Wait(timeout, &events);
    if (!s.ok()) break;
    const Timestamp after = clock_->Now();

    for (const Epoll::Event& ev : events) {
      if (ev.fd == wakeup_.fd()) {
        wakeup_.Drain();
        continue;
      }
      if (listen_fd_.valid() && ev.fd == listen_fd_.get()) {
        AcceptAll();
        continue;
      }
      auto pit = fd_to_peer_.find(ev.fd);
      if (pit != fd_to_peer_.end()) {
        HandlePeerEvent(pit->second, ev, after);
        continue;
      }
      auto cit = conns_.find(ev.fd);
      if (cit != conns_.end()) {
        HandleConnEvent(cit->second.get(), ev);
      }
    }
    if (stop_.load(std::memory_order_acquire)) break;

    // Senders enqueue and Signal(); push those bytes out now.
    for (auto& peer : peers_) {
      if (peer->state == Peer::DialState::kUp) {
        DrainPeerWrites(peer.get(), after);
      }
    }
    RetryPending();
  }
}

void TcpTransport::TickDialers(Timestamp now) {
  for (auto& peer : peers_) {
    if (peer->state == Peer::DialState::kIdle && now >= peer->next_dial_at) {
      DialPeer(peer.get(), now);
    }
  }
}

void TcpTransport::DialPeer(Peer* peer, Timestamp now) {
  OwnedFd fd;
  Status s = TcpConnectStart(peer->config.host, peer->config.port, &fd);
  if (!s.ok()) {
    peer->next_dial_at = now + peer->backoff;
    peer->backoff = std::min(peer->backoff * 2, kReconnectMaxMicros);
    return;
  }
  peer->state = Peer::DialState::kConnecting;
  peer->fd = std::move(fd);
  peer->decoder = FrameDecoder();
  fd_to_peer_[peer->fd.get()] = peer;
  // EPOLLOUT fires when the connect resolves.
  (void)epoll_.Add(peer->fd.get(), true, true);
  peer->want_write = true;
}

void TcpTransport::TearDownPeer(Peer* peer, Timestamp now, const char* why) {
  const bool was_up = peer->up.exchange(false);
  if (peer->fd.valid()) {
    epoll_.Remove(peer->fd.get());
    fd_to_peer_.erase(peer->fd.get());
    peer->fd.Reset();
  }
  peer->state = Peer::DialState::kIdle;
  peer->next_dial_at = now + peer->backoff;
  peer->backoff = std::min(peer->backoff * 2, kReconnectMaxMicros);
  {
    // A partially written head frame is resent from its first byte on
    // reconnect: the receiver cannot have decoded a partial frame, so the
    // retransmit is at worst a whole-frame duplicate, which exactly-once
    // dedup suppresses.
    MutexLock lock(peer->q_mutex);
    peer->head_offset = 0;
  }
  if (was_up) {
    MUPPET_LOG(kWarning) << "tcp: lost node " << peer->config.node_id << " ("
                      << why << ")";
    if (options_.on_peer_down != nullptr) {
      options_.on_peer_down(peer->config.node_id, peer->config.machines);
    }
  }
}

void TcpTransport::HandlePeerEvent(Peer* peer, const Epoll::Event& ev,
                                   Timestamp now) {
  if (ev.error) {
    TearDownPeer(peer, now, "socket error");
    return;
  }
  if (peer->state == Peer::DialState::kConnecting && ev.writable) {
    Status s = TcpConnectResult(peer->fd.get());
    if (!s.ok()) {
      TearDownPeer(peer, now, "connect failed");
      return;
    }
    std::vector<MachineId> local_ids;
    {
      ReaderMutexLock lock(state_mutex_);
      for (const auto& [id, m] : local_) local_ids.push_back(id);
    }
    WireFrame hello;
    hello.type = FrameType::kHello;
    hello.from = kInvalidMachine;
    hello.to = kInvalidMachine;
    hello.count = 0;
    hello.payload = EncodeHello(options_.node_id, local_ids);
    peer->hello_out = EncodeFrame(hello);
    peer->hello_written = 0;
    peer->state = Peer::DialState::kHandshaking;
  }
  if (peer->state == Peer::DialState::kHandshaking && ev.writable &&
      peer->hello_written < peer->hello_out.size()) {
    const ssize_t n = SocketWrite(
        peer->fd.get(), peer->hello_out.data() + peer->hello_written,
        peer->hello_out.size() - peer->hello_written);
    if (n == -1) {
      TearDownPeer(peer, now, "hello write failed");
      return;
    }
    if (n > 0) peer->hello_written += static_cast<size_t>(n);
  }
  if (ev.readable) {
    char buf[64 * 1024];
    while (true) {
      const ssize_t n = SocketRead(peer->fd.get(), buf, sizeof(buf));
      if (n == kWouldBlock) break;
      if (n <= 0) {
        TearDownPeer(peer, now, n == 0 ? "peer closed" : "read error");
        return;
      }
      peer->decoder.Feed(BytesView(buf, static_cast<size_t>(n)));
    }
    WireFrame frame;
    bool have = false;
    while (peer->decoder.Next(&frame, &have).ok() && have) {
      if (frame.type == FrameType::kHello &&
          peer->state == Peer::DialState::kHandshaking) {
        uint32_t node = 0;
        std::vector<MachineId> hosted;
        if (!DecodeHello(frame.payload, &node, &hosted).ok() ||
            node != peer->config.node_id) {
          TearDownPeer(peer, now, "hello mismatch");
          return;
        }
        peer->state = Peer::DialState::kUp;
        peer->backoff = kReconnectInitialMicros;
        peer->up.store(true, std::memory_order_release);
        MUPPET_LOG(kInfo) << "tcp: node " << peer->config.node_id << " up";
        if (options_.on_peer_up != nullptr) {
          options_.on_peer_up(peer->config.node_id, peer->config.machines);
        }
      }
      // Data frames are not expected on the dialed connection (each side
      // sends on the one it dialed); tolerate and drop them.
    }
    if (peer->decoder.corrupt()) {
      TearDownPeer(peer, now, "corrupt stream");
      return;
    }
  }
  if (peer->state == Peer::DialState::kUp) DrainPeerWrites(peer, now);
}

void TcpTransport::DrainPeerWrites(Peer* peer, Timestamp now) {
  if (!peer->fd.valid()) return;
  bool failed = false;
  bool would_block = false;
  {
    MutexLock lock(peer->q_mutex);
    while (!peer->queue.empty()) {
      QueuedFrame& head = peer->queue.front();
      const ssize_t n =
          SocketWrite(peer->fd.get(), head.data.data() + peer->head_offset,
                      head.data.size() - peer->head_offset);
      if (n == kWouldBlock) {
        would_block = true;
        break;
      }
      if (n == -1) {
        failed = true;
        break;
      }
      peer->head_offset += static_cast<size_t>(n);
      if (peer->head_offset == head.data.size()) {
        peer->queued_bytes -= head.data.size();
        peer->head_offset = 0;
        peer->queue.pop_front();
      }
    }
  }
  if (failed) {
    TearDownPeer(peer, now, "write failed");
    return;
  }
  const bool want_write = would_block;
  if (want_write != peer->want_write) {
    peer->want_write = want_write;
    (void)epoll_.Modify(peer->fd.get(), true, want_write);
  }
}

void TcpTransport::AcceptAll() {
  while (true) {
    OwnedFd fd;
    Status s = TcpAccept(listen_fd_.get(), &fd);
    if (!s.ok() || !fd.valid()) return;
    auto conn = std::make_unique<Conn>();
    // Reply HELLO immediately so the dialer's handshake completes.
    std::vector<MachineId> local_ids;
    {
      ReaderMutexLock lock(state_mutex_);
      for (const auto& [id, m] : local_) local_ids.push_back(id);
    }
    WireFrame hello;
    hello.type = FrameType::kHello;
    hello.from = kInvalidMachine;
    hello.to = kInvalidMachine;
    hello.count = 0;
    hello.payload = EncodeHello(options_.node_id, local_ids);
    conn->hello_out = EncodeFrame(hello);
    conn->hello_written = 0;
    const int raw = fd.get();
    conn->fd = std::move(fd);
    (void)epoll_.Add(raw, true, true);
    conn->want_write = true;
    conns_[raw] = std::move(conn);
  }
}

void TcpTransport::CloseConn(int fd) {
  epoll_.Remove(fd);
  auto it = conns_.find(fd);
  if (it != conns_.end()) {
    if (it->second->has_pending) {
      const uint32_t rest = it->second->pending.count -
                            static_cast<uint32_t>(it->second->pending_accepted);
      messages_dropped_.Add(static_cast<int64_t>(rest));
    }
    conns_.erase(it);
  }
}

bool TcpTransport::DeliverFrame(Conn* conn, WireFrame frame) {
  std::shared_ptr<LocalMachine> local = FindLocal(frame.to);
  if (local == nullptr || !local->up.load(std::memory_order_acquire)) {
    messages_dropped_.Add(static_cast<int64_t>(frame.count));
    return true;
  }
  size_t accepted = 0;
  Status s = local->handler(frame.from, frame.payload, frame.count,
                            &accepted);
  if (s.ok()) return true;
  if (s.code() == StatusCode::kResourceExhausted) {
    conn->has_pending = true;
    conn->pending_accepted = accepted;
    conn->pending = std::move(frame);
    return false;
  }
  messages_dropped_.Add(static_cast<int64_t>(frame.count - accepted));
  return true;
}

void TcpTransport::RedialNow(uint32_t node) {
  // A HELLO from `node` proves it is listening: a dialer still waiting out
  // its backoff (the node was down, or not yet up, at the last attempt)
  // dials on the next loop pass instead of sleeping up to the backoff cap.
  for (auto& peer : peers_) {
    if (peer->config.node_id != node) continue;
    if (peer->state == Peer::DialState::kIdle) {
      peer->next_dial_at = 0;
      peer->backoff = kReconnectInitialMicros;
    }
    return;
  }
}

void TcpTransport::HandleConnEvent(Conn* conn, const Epoll::Event& ev) {
  const int fd = conn->fd.get();
  if (ev.error) {
    CloseConn(fd);
    return;
  }
  if (ev.writable && conn->hello_written < conn->hello_out.size()) {
    const ssize_t n =
        SocketWrite(fd, conn->hello_out.data() + conn->hello_written,
                    conn->hello_out.size() - conn->hello_written);
    if (n == -1) {
      CloseConn(fd);
      return;
    }
    if (n > 0) conn->hello_written += static_cast<size_t>(n);
    if (conn->hello_written == conn->hello_out.size() && conn->want_write) {
      conn->want_write = false;
      (void)epoll_.Modify(fd, !conn->paused, false);
    }
  }
  if (!ev.readable || conn->paused) return;
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = SocketRead(fd, buf, sizeof(buf));
    if (n == kWouldBlock) break;
    if (n <= 0) {
      CloseConn(fd);
      return;
    }
    conn->decoder.Feed(BytesView(buf, static_cast<size_t>(n)));
  }
  WireFrame frame;
  bool have = false;
  while (!conn->has_pending && conn->decoder.Next(&frame, &have).ok() &&
         have) {
    if (frame.type == FrameType::kHello) {
      uint32_t node = 0;
      std::vector<MachineId> hosted;
      if (DecodeHello(frame.payload, &node, &hosted).ok()) {
        conn->hello_received = true;
        conn->peer_node = node;
        RedialNow(node);
      }
      continue;
    }
    DeliverFrame(conn, std::move(frame));
  }
  if (conn->decoder.corrupt()) {
    MUPPET_LOG(kWarning) << "tcp: corrupt inbound stream from node "
                      << conn->peer_node << "; closing";
    CloseConn(fd);
    return;
  }
  if (conn->has_pending && !conn->paused) {
    // Backpressure: stop reading this connection until the parked frame
    // lands; the kernel receive buffer then pushes back on the sender.
    conn->paused = true;
    (void)epoll_.Modify(fd, false, conn->want_write);
  }
}

void TcpTransport::RetryPending() {
  std::vector<int> done;
  for (auto& [fd, conn] : conns_) {
    if (!conn->has_pending) continue;
    std::shared_ptr<LocalMachine> local = FindLocal(conn->pending.to);
    bool settled = false;
    if (local == nullptr || !local->up.load(std::memory_order_acquire)) {
      messages_dropped_.Add(static_cast<int64_t>(
          conn->pending.count -
          static_cast<uint32_t>(conn->pending_accepted)));
      settled = true;
    } else {
      size_t accepted = conn->pending_accepted;
      Status s = local->handler(conn->pending.from, conn->pending.payload,
                                conn->pending.count, &accepted);
      conn->pending_accepted = accepted;
      if (s.ok()) {
        settled = true;
      } else if (s.code() != StatusCode::kResourceExhausted) {
        messages_dropped_.Add(static_cast<int64_t>(
            conn->pending.count - static_cast<uint32_t>(accepted)));
        settled = true;
      }
    }
    if (settled) {
      conn->has_pending = false;
      conn->pending = WireFrame();
      conn->pending_accepted = 0;
      if (conn->paused) {
        conn->paused = false;
        (void)epoll_.Modify(fd, true, conn->want_write);
      }
      done.push_back(fd);
    }
  }
  // Drain any frames that piled up in the decoder while paused.
  for (int fd : done) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    Conn* conn = it->second.get();
    WireFrame frame;
    bool have = false;
    while (!conn->has_pending && conn->decoder.Next(&frame, &have).ok() &&
           have) {
      if (frame.type == FrameType::kHello) continue;
      DeliverFrame(conn, std::move(frame));
    }
    if (conn->has_pending && !conn->paused) {
      conn->paused = true;
      (void)epoll_.Modify(fd, false, conn->want_write);
    }
  }
}

}  // namespace muppet
