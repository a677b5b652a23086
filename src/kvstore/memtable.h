// In-memory write buffer (Cassandra's "memory table", paper §4.2). The paper
// leans on write buffering: "it is advantageous for us to delay flushing the
// writes (i.e., the memory table) to disk as long as possible" — repeated
// overwrites of a popular slate coalesce here and cost one device write at
// flush time. bench_kvstore (E11) measures exactly that effect.
#ifndef MUPPET_KVSTORE_MEMTABLE_H_
#define MUPPET_KVSTORE_MEMTABLE_H_

#include <memory>
#include <set>
#include <vector>

#include "common/bytes.h"
#include "common/sync.h"
#include "kvstore/format.h"

namespace muppet {
namespace kv {

// One buffered write: the record in its EncodeRecord form (the codec the
// WAL and SSTables use) in a single heap block laid out as
// [u32 len][len encoded bytes]. Shard::WriteRecord packs each write once;
// the WAL frames encoded() and the memtable adopts the block.
class PackedRecord {
 public:
  explicit PackedRecord(const Record& rec);

  BytesView encoded() const {
    return BytesView(block_.get() + 4, DecodeFixed32(block_.get()));
  }

  // The storage key, read in place. Inline with a one-byte-length fast
  // path: the index compares keys on every lookup.
  BytesView key() const {
    const char* p = block_.get() + 4;
    const auto len = static_cast<uint8_t>(*p);
    if (len < 0x80) return BytesView(p + 1, len);
    BytesView key;
    GetLengthPrefixed(&p, p + DecodeFixed32(block_.get()), &key);
    return key;
  }

  // Overwrite *rec with the record, reusing its strings' capacity.
  void DecodeTo(Record* rec) const;

 private:
  std::unique_ptr<char[]> block_;
};

// Sorted, thread-safe buffer of the newest version per key. Overwrites
// replace in place (coalescing); deletes are buffered as tombstones so they
// shadow older SSTable versions until compaction drops them.
class MemTable {
 public:
  MemTable() = default;

  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  // Insert or overwrite. `rec.key` is the composite storage key.
  void Put(const Record& rec) { Put(PackedRecord(rec)); }
  void Put(PackedRecord rec);

  // Lookup. Returns true and copies the record if the key is present
  // (including as a tombstone — the caller interprets it). TTL expiry is
  // the caller's concern: the memtable stores what it is given.
  bool Get(BytesView key, Record* rec) const;

  // All records with storage keys beginning with `prefix`, in key order.
  std::vector<Record> Scan(BytesView prefix) const;

  // All records in key order (for flush).
  std::vector<Record> Snapshot() const;

  size_t entry_count() const;
  // Heap footprint: each entry's set node and block, as glibc malloc sizes
  // them (DESIGN.md, "Memtable layout").
  size_t approximate_bytes() const;
  bool empty() const { return entry_count() == 0; }

  void Clear();

  static constexpr LockLevel kLockLevel = LockLevel::kStoreIo;

 private:
  // Byte-wise std::string_view order of the storage keys, read out of the
  // blocks; transparent, so lookups by BytesView build no record.
  struct KeyOrder {
    using is_transparent = void;
    bool operator()(const PackedRecord& a, const PackedRecord& b) const {
      return a.key() < b.key();
    }
    bool operator()(const PackedRecord& a, BytesView b) const {
      return a.key() < b;
    }
    bool operator()(BytesView a, const PackedRecord& b) const {
      return a < b.key();
    }
  };

  mutable Mutex mutex_{kLockLevel};
  // One node per key, holding the pointer to its block.
  std::set<PackedRecord, KeyOrder> entries_ MUPPET_GUARDED_BY(mutex_);
  size_t bytes_ MUPPET_GUARDED_BY(mutex_) = 0;
};

}  // namespace kv
}  // namespace muppet

#endif  // MUPPET_KVSTORE_MEMTABLE_H_
