// Byte-string helpers. Slates, event values, and KV-store values are opaque
// byte blobs; we represent them as std::string (contiguous, cheap to move,
// SSO for the small slates the paper recommends) and pass read-only views
// as std::string_view.
#ifndef MUPPET_COMMON_BYTES_H_
#define MUPPET_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace muppet {

using Bytes = std::string;
using BytesView = std::string_view;

// Fixed-width little-endian encoders. Used by the WAL, SSTable and message
// framing code, where layout must be stable across runs.
inline void PutFixed32(Bytes* dst, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  dst->append(buf, 4);
}

inline void PutFixed64(Bytes* dst, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  dst->append(buf, 8);
}

inline uint32_t DecodeFixed32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint64_t DecodeFixed64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// Varint32/64 (LEB128), used to keep SSTable blocks and compressed payloads
// compact. A varint32 is the varint64 of the same value, so one writer
// serves both. EncodeVarint64 writes into a buffer the caller sized with
// VarintLength and returns the byte after the last one written.
inline char* EncodeVarint64(char* dst, uint64_t v) {
  while (v >= 0x80) {
    *dst++ = static_cast<char>(v | 0x80);
    v >>= 7;
  }
  *dst++ = static_cast<char>(v);
  return dst;
}

inline size_t VarintLength(uint64_t v) {
  size_t len = 1;
  for (; v >= 0x80; v >>= 7) ++len;
  return len;
}

inline void PutVarint64(Bytes* dst, uint64_t v) {
  char buf[10];
  dst->append(buf, static_cast<size_t>(EncodeVarint64(buf, v) - buf));
}

inline void PutVarint32(Bytes* dst, uint32_t v) { PutVarint64(dst, v); }

// Parse a varint from [*p, limit). On success advances *p past the varint,
// stores the value, and returns true. Returns false on truncation/overflow.
inline bool GetVarint32(const char** p, const char* limit, uint32_t* value) {
  uint32_t result = 0;
  for (uint32_t shift = 0; shift <= 28 && *p < limit; shift += 7) {
    uint32_t byte = static_cast<unsigned char>(**p);
    ++(*p);
    if (byte & 0x80) {
      result |= (byte & 0x7f) << shift;
    } else {
      result |= byte << shift;
      *value = result;
      return true;
    }
  }
  return false;
}

inline bool GetVarint64(const char** p, const char* limit, uint64_t* value) {
  uint64_t result = 0;
  for (uint32_t shift = 0; shift <= 63 && *p < limit; shift += 7) {
    uint64_t byte = static_cast<unsigned char>(**p);
    ++(*p);
    if (byte & 0x80) {
      result |= (byte & 0x7f) << shift;
    } else {
      result |= byte << shift;
      *value = result;
      return true;
    }
  }
  return false;
}

// Length-prefixed string, the framing primitive for WAL records and
// serialized events.
inline void PutLengthPrefixed(Bytes* dst, BytesView s) {
  PutVarint32(dst, static_cast<uint32_t>(s.size()));
  dst->append(s.data(), s.size());
}

inline char* EncodeLengthPrefixed(char* dst, BytesView s) {
  dst = EncodeVarint64(dst, static_cast<uint32_t>(s.size()));
  if (!s.empty()) std::memcpy(dst, s.data(), s.size());
  return dst + s.size();
}

inline size_t LengthPrefixedSize(BytesView s) {
  return VarintLength(static_cast<uint32_t>(s.size())) + s.size();
}

inline bool GetLengthPrefixed(const char** p, const char* limit,
                              BytesView* out) {
  uint32_t len = 0;
  if (!GetVarint32(p, limit, &len)) return false;
  if (static_cast<size_t>(limit - *p) < len) return false;
  *out = BytesView(*p, len);
  *p += len;
  return true;
}

}  // namespace muppet

#endif  // MUPPET_COMMON_BYTES_H_
