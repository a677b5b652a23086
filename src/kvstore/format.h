// On-disk and in-memory record format shared by the memtable, WAL, and
// SSTables, plus the Cassandra-style composite key encoding.
//
// The paper (§4.2) stores slate S(U,k) "as a value at row k and column U"
// within a column family. We encode (row, column) into a single ordered
// storage key so one sorted structure serves point gets and row scans.
#ifndef MUPPET_KVSTORE_FORMAT_H_
#define MUPPET_KVSTORE_FORMAT_H_

#include <cstdint>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/status.h"

namespace muppet {
namespace kv {

// A single versioned record. `expire_at` == kNoExpiry means live forever —
// the paper's default slate TTL ("set to 'forever' by default", §3).
constexpr Timestamp kNoExpiry = 0;

struct Record {
  Bytes key;            // composite storage key (see EncodeStorageKey)
  Bytes value;          // empty for tombstones
  uint64_t seqno = 0;   // per-shard monotonically increasing version
  Timestamp write_ts = 0;   // clock time of the write (for read repair)
  Timestamp expire_at = kNoExpiry;  // absolute deadline; kNoExpiry = never
  bool tombstone = false;

  bool ExpiredAt(Timestamp now) const {
    return expire_at != kNoExpiry && now >= expire_at;
  }
};

// Composite key encoding. Rows are escape-terminated so that the encoding
// of (row, column) sorts first by row bytes, then by column bytes, and the
// keys of one row share a prefix no other row's keys share:
//   0x00 in row -> 0x00 0x01 ; row terminator -> 0x00 0x00 ; column appended.
inline Bytes EncodeStorageKey(BytesView row, BytesView column) {
  Bytes out;
  out.reserve(row.size() + column.size() + 4);
  for (char c : row) {
    if (c == '\0') {
      out.push_back('\0');
      out.push_back('\1');
    } else {
      out.push_back(c);
    }
  }
  out.push_back('\0');
  out.push_back('\0');
  out.append(column.data(), column.size());
  return out;
}

// Inverse of EncodeStorageKey. Returns false on malformed input.
inline bool DecodeStorageKey(BytesView storage_key, Bytes* row,
                             Bytes* column) {
  row->clear();
  column->clear();
  size_t i = 0;
  const size_t n = storage_key.size();
  while (i < n) {
    char c = storage_key[i];
    if (c == '\0') {
      if (i + 1 >= n) return false;
      char next = storage_key[i + 1];
      if (next == '\0') {
        // Row terminator; the rest is the column.
        column->assign(storage_key.data() + i + 2, n - i - 2);
        return true;
      }
      if (next == '\1') {
        row->push_back('\0');
        i += 2;
        continue;
      }
      return false;
    }
    row->push_back(c);
    ++i;
  }
  return false;  // missing terminator
}

// Serialized record (without its CRC framing) for the WAL, SSTable blocks
// and memtable entries:
//   varint32 key_len, key, varint32 value_len, value,
//   varint64 seqno, varint64 write_ts, varint64 expire_at, flags byte.
inline size_t EncodedRecordSize(const Record& rec) {
  return LengthPrefixedSize(rec.key) + LengthPrefixedSize(rec.value) +
         VarintLength(rec.seqno) +
         VarintLength(static_cast<uint64_t>(rec.write_ts)) +
         VarintLength(static_cast<uint64_t>(rec.expire_at)) + 1;
}

// Write the encoding into `dst`, which has room for EncodedRecordSize(rec)
// bytes; returns the byte after the last one written.
inline char* EncodeRecordTo(const Record& rec, char* dst) {
  dst = EncodeLengthPrefixed(dst, rec.key);
  dst = EncodeLengthPrefixed(dst, rec.value);
  dst = EncodeVarint64(dst, rec.seqno);
  dst = EncodeVarint64(dst, static_cast<uint64_t>(rec.write_ts));
  dst = EncodeVarint64(dst, static_cast<uint64_t>(rec.expire_at));
  *dst++ = rec.tombstone ? 1 : 0;
  return dst;
}

inline void EncodeRecord(const Record& rec, Bytes* out) {
  const size_t start = out->size();
  out->resize(start + EncodedRecordSize(rec));
  EncodeRecordTo(rec, out->data() + start);
}

// Parse one record from [*p, limit), advancing *p. Returns Corruption on
// truncation.
inline Status DecodeRecord(const char** p, const char* limit, Record* rec) {
  BytesView key, value;
  uint64_t seqno = 0, write_ts = 0, expire_at = 0;
  if (!GetLengthPrefixed(p, limit, &key) ||
      !GetLengthPrefixed(p, limit, &value) ||
      !GetVarint64(p, limit, &seqno) || !GetVarint64(p, limit, &write_ts) ||
      !GetVarint64(p, limit, &expire_at) || *p >= limit) {
    return Status::Corruption("kv: truncated record");
  }
  const uint8_t flags = static_cast<uint8_t>(**p);
  ++(*p);
  if (flags > 1) return Status::Corruption("kv: bad record flags");
  rec->key.assign(key);
  rec->value.assign(value);
  rec->seqno = seqno;
  rec->write_ts = static_cast<Timestamp>(write_ts);
  rec->expire_at = static_cast<Timestamp>(expire_at);
  rec->tombstone = flags == 1;
  return Status::OK();
}

// True if `a` should shadow `b` when both versions of the same key meet
// (higher seqno wins; seqnos are unique per shard).
inline bool Newer(const Record& a, const Record& b) {
  return a.seqno > b.seqno;
}

}  // namespace kv
}  // namespace muppet

#endif  // MUPPET_KVSTORE_FORMAT_H_
