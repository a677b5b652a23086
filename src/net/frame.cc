#include "net/frame.h"

#include <cstring>

#include "common/hash.h"

namespace muppet {
namespace {

constexpr char kMagic[4] = {'M', 'P', 'P', 'T'};
constexpr size_t kCrcOffset = 24;

void PutU32(char* p, uint32_t v) {
  p[0] = static_cast<char>(v & 0xff);
  p[1] = static_cast<char>((v >> 8) & 0xff);
  p[2] = static_cast<char>((v >> 16) & 0xff);
  p[3] = static_cast<char>((v >> 24) & 0xff);
}

uint32_t GetU32(const char* p) {
  return static_cast<uint32_t>(static_cast<uint8_t>(p[0])) |
         (static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 8) |
         (static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 16) |
         (static_cast<uint32_t>(static_cast<uint8_t>(p[3])) << 24);
}

}  // namespace

Bytes EncodeFrame(const WireFrame& frame) {
  Bytes out;
  out.resize(kFrameHeaderSize + frame.payload.size());
  char* h = out.data();
  std::memcpy(h, kMagic, 4);
  h[4] = static_cast<char>(kWireVersion);
  h[5] = static_cast<char>(frame.type);
  h[6] = 0;
  h[7] = 0;
  PutU32(h + 8, static_cast<uint32_t>(frame.from));
  PutU32(h + 12, static_cast<uint32_t>(frame.to));
  PutU32(h + 16, frame.count);
  PutU32(h + 20, static_cast<uint32_t>(frame.payload.size()));
  PutU32(h + kCrcOffset, 0);
  std::memcpy(out.data() + kFrameHeaderSize, frame.payload.data(),
              frame.payload.size());
  const uint32_t crc = Crc32(BytesView(out.data(), out.size()));
  PutU32(h + kCrcOffset, crc);
  return out;
}

void FrameDecoder::Feed(BytesView data) {
  // Compact the decoded prefix before growing: keeps the buffer bounded by
  // one partial frame plus the newly fed slice.
  if (consumed_ > 0 && consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ > kMaxFramePayload) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data.data(), data.size());
}

Status FrameDecoder::Next(WireFrame* out, bool* have) {
  *have = false;
  if (corrupt_) {
    return Status::Corruption("tcp frame: stream previously corrupted");
  }
  const size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderSize) return Status::OK();
  const char* h = buffer_.data() + consumed_;

  if (std::memcmp(h, kMagic, 4) != 0) {
    corrupt_ = true;
    return Status::Corruption("tcp frame: bad magic");
  }
  if (static_cast<uint8_t>(h[4]) != kWireVersion) {
    corrupt_ = true;
    return Status::Corruption("tcp frame: unknown wire version");
  }
  const uint8_t raw_type = static_cast<uint8_t>(h[5]);
  if (raw_type != static_cast<uint8_t>(FrameType::kHello) &&
      raw_type != static_cast<uint8_t>(FrameType::kBatch)) {
    corrupt_ = true;
    return Status::Corruption("tcp frame: unknown frame type");
  }
  const uint32_t payload_len = GetU32(h + 20);
  if (payload_len > kMaxFramePayload) {
    // Reject BEFORE buffering payload_len bytes: a flipped bit in the
    // length field must not drive a giant allocation.
    corrupt_ = true;
    return Status::Corruption("tcp frame: oversized payload length");
  }
  const size_t total = kFrameHeaderSize + payload_len;
  if (available < total) return Status::OK();

  // CRC over the whole frame with the crc field zeroed.
  char saved[4];
  char* crc_field = buffer_.data() + consumed_ + kCrcOffset;
  std::memcpy(saved, crc_field, 4);
  const uint32_t wire_crc = GetU32(saved);
  std::memset(crc_field, 0, 4);
  const uint32_t computed = Crc32(BytesView(h, total));
  std::memcpy(crc_field, saved, 4);
  if (computed != wire_crc) {
    corrupt_ = true;
    return Status::Corruption("tcp frame: crc mismatch");
  }

  out->type = static_cast<FrameType>(raw_type);
  out->from = static_cast<MachineId>(GetU32(h + 8));
  out->to = static_cast<MachineId>(GetU32(h + 12));
  out->count = GetU32(h + 16);
  out->payload.assign(h + kFrameHeaderSize, payload_len);
  consumed_ += total;
  *have = true;
  return Status::OK();
}

Bytes EncodeHello(uint32_t node_id, const std::vector<MachineId>& hosted) {
  Bytes out;
  out.resize(8 + 4 * hosted.size());
  char* p = out.data();
  PutU32(p, node_id);
  PutU32(p + 4, static_cast<uint32_t>(hosted.size()));
  for (size_t i = 0; i < hosted.size(); ++i) {
    PutU32(p + 8 + 4 * i, static_cast<uint32_t>(hosted[i]));
  }
  return out;
}

Status DecodeHello(BytesView payload, uint32_t* node_id,
                   std::vector<MachineId>* hosted) {
  if (payload.size() < 8) return Status::Corruption("hello: short payload");
  *node_id = GetU32(payload.data());
  const uint32_t count = GetU32(payload.data() + 4);
  if (payload.size() != 8 + 4 * static_cast<size_t>(count)) {
    return Status::Corruption("hello: length mismatch");
  }
  hosted->clear();
  hosted->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    hosted->push_back(
        static_cast<MachineId>(GetU32(payload.data() + 8 + 4 * i)));
  }
  return Status::OK();
}

}  // namespace muppet
