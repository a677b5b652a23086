// Wire framing for the TCP transport: length-prefixed, CRC-protected
// frames carrying the engine's id-addressed payloads between muppetd
// processes. The format is deliberately dumb — fixed little-endian header,
// CRC32 over header+payload — so a truncated or corrupted stream is always
// detected by the decoder, never interpreted (DESIGN.md, "Transport
// backends & deployment model").
//
// Header layout (kHeaderSize = 28 bytes, all integers little-endian):
//
//   offset  size  field
//        0     4  magic "MPPT"
//        4     1  version (kWireVersion)
//        5     1  type (FrameType)
//        6     2  reserved (zero)
//        8     4  from machine id (int32)
//       12     4  to machine id (int32)
//       16     4  count — logical messages in the payload
//       20     4  payload length in bytes
//       24     4  crc32 over header (with this field zeroed) + payload
#ifndef MUPPET_NET_FRAME_H_
#define MUPPET_NET_FRAME_H_

#include <cstdint>

#include "common/bytes.h"
#include "common/status.h"
#include "net/transport.h"

namespace muppet {

enum class FrameType : uint8_t {
  // Connection handshake: payload is the dialing node's id (u32) followed
  // by its hosted machine ids (u32 count, then count * i32). Sent first on
  // every new connection, both directions.
  kHello = 1,
  // `count` logical messages for machine `to`; the payload is opaque to
  // the transport and handed whole to the machine's handler. Wire value 2
  // (a retired single-message type) is rejected as corruption.
  kBatch = 3,
};

constexpr size_t kFrameHeaderSize = 28;
// Version 2 dropped the split epoch and control kind from each routed
// event (engine/wire.h); a version-1 peer's frames are rejected.
constexpr uint8_t kWireVersion = 2;
// Upper bound on a frame payload. A corrupt length field must not drive a
// multi-gigabyte allocation; real batch frames are bounded by the engine's
// coalescer (well under a megabyte).
constexpr uint32_t kMaxFramePayload = 64u << 20;

struct WireFrame {
  FrameType type = FrameType::kBatch;
  MachineId from = kInvalidMachine;
  MachineId to = kInvalidMachine;
  uint32_t count = 1;
  Bytes payload;
};

// Serialize header + payload into one contiguous buffer.
Bytes EncodeFrame(const WireFrame& frame);

// Incremental decoder: feed arbitrary byte slices as they arrive off the
// socket, pull complete frames out. Corruption (bad magic, unknown
// version, oversized length, CRC mismatch) is sticky — the byte stream has
// lost frame alignment and the connection must be torn down.
class FrameDecoder {
 public:
  // Append raw bytes from the socket.
  void Feed(BytesView data);

  // Try to decode the next complete frame. Returns:
  //  * OK with *have = true  — *out holds a validated frame;
  //  * OK with *have = false — need more bytes;
  //  * Corruption            — stream is broken (sticky; every later call
  //                            returns the same error).
  Status Next(WireFrame* out, bool* have);

  size_t buffered() const { return buffer_.size() - consumed_; }
  bool corrupt() const { return corrupt_; }

 private:
  Bytes buffer_;
  size_t consumed_ = 0;  // decoded prefix, compacted opportunistically
  bool corrupt_ = false;
};

// HELLO payload helpers.
Bytes EncodeHello(uint32_t node_id, const std::vector<MachineId>& hosted);
Status DecodeHello(BytesView payload, uint32_t* node_id,
                   std::vector<MachineId>* hosted);

}  // namespace muppet

#endif  // MUPPET_NET_FRAME_H_
