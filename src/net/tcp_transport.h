// Epoll-based TCP backend for the Transport seam: carries the engine's
// id-addressed frames (net/frame.h) between muppetd processes over real
// sockets. One IO thread per transport owns every fd; engine threads only
// touch a peer's bounded write queue and an eventfd.
//
// Connection model (DESIGN.md, "Transport backends & deployment model"):
// every node listens, and every node DIALS every configured peer. Data
// flows one way per connection — a node sends only on connections it
// dialed and receives on connections it accepted — so there is no
// simultaneous-dial tie to break and reconnect logic lives entirely on
// the dialer. Both sides open with a HELLO frame naming their node id and
// hosted machines; the dialer treats the peer as up once the HELLO reply
// arrives. An inbound HELLO also proves its sender is listening, so a
// dialer to that node that is waiting out its backoff dials at once.
//
// Failure semantics match the paper's §4.3 detection-by-failed-send:
// while a peer's dialed connection is down, sends addressed to its
// machines fail with Unavailable immediately (the engine reports the
// failure to the master and reroutes). Frames already queued are NOT
// dropped: they are retained (the queue is bounded and stops growing
// while the peer is down, because new sends fail) and flushed when the
// dialer reconnects — "reconnect resumes delivery". A frame that was
// partially written when the connection died is resent from the start;
// the receiver can never have decoded a partial frame, and a rare
// whole-frame redelivery is suppressed by the engine's exactly-once
// dedup identities.
//
// Backpressure: per-peer write queues are byte-bounded; an enqueue past
// the cap fails with ResourceExhausted, which the engine's overflow
// machinery (drop / overflow stream / throttle) treats exactly like a
// declined receiver queue. On the receive side, a handler decline parks
// the frame (with its accepted-prefix offset, the Transport::Handler
// resume contract) and pauses reads on that connection until the handler
// accepts the rest — TCP's own flow control then pushes back on the
// sender.
#ifndef MUPPET_NET_TCP_TRANSPORT_H_
#define MUPPET_NET_TCP_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/sync.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/transport.h"

namespace muppet {

// A remote muppetd node and the engine machines it hosts.
struct TcpPeerConfig {
  uint32_t node_id = 0;
  std::string host = "127.0.0.1";
  int port = 0;
  std::vector<MachineId> machines;
};

struct TcpTransportOptions {
  uint32_t node_id = 0;
  std::string listen_host = "127.0.0.1";
  // 0 binds an ephemeral port; read it back via listen_port() after
  // Start() (multi-process tests depend on this).
  int listen_port = 0;
  std::vector<TcpPeerConfig> peers;

  // Clock for backoff deadlines and FlushOutbound waits. nullptr ->
  // SystemClock::Default(). The kernel does not simulate time, but a
  // SimulatedClock that nothing advances holds every backoff deadline
  // off, so a test can tell a redial that an inbound HELLO triggered
  // from one the backoff timer did.
  Clock* clock = nullptr;

  // Invoked from the IO thread (no transport lock held) when a peer's
  // dialed connection completes its HELLO handshake / is lost. muppetd
  // wires these into the engine's failure bookkeeping.
  std::function<void(uint32_t node, const std::vector<MachineId>& machines)>
      on_peer_up;
  std::function<void(uint32_t node, const std::vector<MachineId>& machines)>
      on_peer_down;
};

class TcpTransport : public Transport {
 public:
  explicit TcpTransport(TcpTransportOptions options);
  ~TcpTransport() override;

  // Bind the listener and begin dialing peers. Stop() is idempotent and
  // joins the IO thread.
  Status Start();
  void Stop();

  Status RegisterMachine(MachineId id, Handler handler) override;
  void UnregisterMachine(MachineId id) override;
  Status SendBatch(MachineId from, MachineId to, BytesView frame,
                   size_t count, size_t* accepted,
                   uint64_t fault_signature = 0) override;
  void Crash(MachineId id) override;
  void Restore(MachineId id) override;
  // A local machine not crashed, or a remote one whose peer is connected.
  bool IsUp(MachineId id) const;
  int64_t SendAttemptsTo(MachineId id) const override;
  // Block until every queued outbound byte for every peer is handed to
  // the kernel, or `timeout_micros` elapses (TimedOut). Clean-shutdown
  // aid for muppetd.
  Status FlushOutbound(Timestamp timeout_micros);

  // The actual bound data port (valid after Start()).
  int listen_port() const { return listen_port_.load(std::memory_order_acquire); }

  // True once `node`'s dialed connection has completed its handshake.
  bool PeerUp(uint32_t node) const;

  // Per-peer outbound queue bound, in encoded-frame bytes. An enqueue
  // that would exceed it fails with ResourceExhausted.
  static constexpr size_t kWriteQueueCapBytes = 16u << 20;
  // Dialer backoff: doubles from initial to max on every failed attempt,
  // resets on an established handshake or an inbound HELLO from the peer.
  static constexpr Timestamp kReconnectInitialMicros = 50 * kMicrosPerMilli;
  static constexpr Timestamp kReconnectMaxMicros = 2 * kMicrosPerSecond;

  static constexpr LockLevel kStateLockLevel = LockLevel::kTcpState;
  static constexpr LockLevel kWriteQueueLockLevel = LockLevel::kTcpWriteQueue;

 private:
  struct LocalMachine {
    Handler handler;
    std::atomic<bool> up{true};
  };

  struct QueuedFrame {
    Bytes data;      // encoded wire frame
    uint32_t count;  // logical messages, for drop accounting
  };

  // Dialer-side state for one configured remote node. The IO thread owns
  // everything except the write queue (shared with senders) and the `up`
  // flag (read by senders).
  struct Peer {
    TcpPeerConfig config;
    std::atomic<bool> up{false};

    // IO-thread only.
    enum class DialState { kIdle, kConnecting, kHandshaking, kUp };
    DialState state = DialState::kIdle;
    OwnedFd fd;
    FrameDecoder decoder;     // HELLO reply arrives on the dialed conn
    Bytes hello_out;          // our HELLO, partially written
    size_t hello_written = 0;
    Timestamp next_dial_at = 0;
    Timestamp backoff = 0;
    bool want_write = false;  // EPOLLOUT armed

    // Shared with senders.
    Mutex q_mutex{kWriteQueueLockLevel};
    std::deque<QueuedFrame> queue MUPPET_GUARDED_BY(q_mutex);
    size_t queued_bytes MUPPET_GUARDED_BY(q_mutex) = 0;
    size_t head_offset MUPPET_GUARDED_BY(q_mutex) = 0;
  };

  // An accepted (inbound) connection. IO-thread only.
  struct Conn {
    OwnedFd fd;
    FrameDecoder decoder;
    bool hello_received = false;
    uint32_t peer_node = 0;
    Bytes hello_out;  // our HELLO reply, partially written
    size_t hello_written = 0;
    bool want_write = false;
    // Receiver-side backpressure: a frame the handler declined, parked
    // with its accepted-prefix offset; reads stay paused until it lands.
    bool has_pending = false;
    WireFrame pending;
    size_t pending_accepted = 0;
    bool paused = false;
  };

  void IoLoop();
  void TickDialers(Timestamp now);
  void DialPeer(Peer* peer, Timestamp now);
  void TearDownPeer(Peer* peer, Timestamp now, const char* why);
  void HandlePeerEvent(Peer* peer, const Epoll::Event& ev, Timestamp now);
  void DrainPeerWrites(Peer* peer, Timestamp now);
  void AcceptAll();
  void HandleConnEvent(Conn* conn, const Epoll::Event& ev);
  // An inbound HELLO named `node`: cut short our dialer's backoff to it.
  void RedialNow(uint32_t node);
  void CloseConn(int fd);
  // Deliver a decoded frame to the local machine handler. Returns false
  // when the handler declined and the frame was parked on `conn`.
  bool DeliverFrame(Conn* conn, WireFrame frame);
  void RetryPending();
  Status EnqueueFrame(Peer* peer, const WireFrame& frame);
  std::shared_ptr<LocalMachine> FindLocal(MachineId id) const;
  Peer* PeerForMachine(MachineId id) const;  // nullptr when unrouted
  void CountAttempt(MachineId id);

  TcpTransportOptions options_;
  Clock* clock_;

  mutable SharedMutex state_mutex_{kStateLockLevel};
  std::map<MachineId, std::shared_ptr<LocalMachine>> local_
      MUPPET_GUARDED_BY(state_mutex_);
  std::map<MachineId, int64_t> attempts_ MUPPET_GUARDED_BY(state_mutex_);

  // Fixed at Start(): machine id -> owning peer (remote routing table).
  std::map<MachineId, Peer*> machine_to_peer_;
  std::vector<std::unique_ptr<Peer>> peers_;

  // IO-thread only: written exclusively between Start()'s thread spawn
  // and Stop()'s join (Stop() clears them only after joining), so no
  // lock guards them.
  Epoll epoll_;  // muppet-lint: allow(guarded): owned by the single IO thread
  OwnedFd listen_fd_;
  std::map<int, Peer*>
      fd_to_peer_;  // muppet-lint: allow(guarded): owned by the IO thread
  std::map<int, std::unique_ptr<Conn>>
      conns_;  // muppet-lint: allow(guarded): owned by the IO thread

  WakeupFd wakeup_;
  std::atomic<int> listen_port_{0};
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::thread io_thread_;
};

}  // namespace muppet

#endif  // MUPPET_NET_TCP_TRANSPORT_H_
