// In-memory write buffer (Cassandra's "memory table", paper §4.2). The paper
// leans on write buffering: "it is advantageous for us to delay flushing the
// writes (i.e., the memory table) to disk as long as possible" — repeated
// overwrites of a popular slate coalesce here and cost one device write at
// flush time. bench_kvstore (E11) measures exactly that effect.
#ifndef MUPPET_KVSTORE_MEMTABLE_H_
#define MUPPET_KVSTORE_MEMTABLE_H_

#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/sync.h"
#include "common/tagged_index.h"
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

  BytesView encoded() const { return Encoded(block_.get()); }

  // Readers of a bare block, as the memtable holds blocks once it has
  // released them from their PackedRecords.
  static BytesView Encoded(const char* block) {
    return BytesView(block + 4, DecodeFixed32(block));
  }
  // The storage key, read in place. Inline with a one-byte-length fast
  // path: the index compares keys on every lookup that matches a tag.
  static BytesView Key(const char* block) {
    const char* p = block + 4;
    const auto len = static_cast<uint8_t>(*p);
    if (len < 0x80) return BytesView(p + 1, len);
    BytesView key;
    GetLengthPrefixed(&p, p + DecodeFixed32(block), &key);
    return key;
  }
  // Overwrite *rec with the record, reusing its strings' capacity.
  static void DecodeTo(const char* block, Record* rec);

 private:
  friend class MemTable;  // releases the block to index it by address

  std::unique_ptr<char[]> block_;
};

// Thread-safe buffer of the newest version per key. Overwrites replace in
// place (coalescing); deletes are buffered as tombstones so they shadow
// older SSTable versions until compaction drops them. The blocks are found
// by key hash (common/tagged_index.h) and sorted only when Snapshot() asks
// for key order, at flush or a full scan.
class MemTable {
 public:
  MemTable() = default;
  ~MemTable();

  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  // Insert or overwrite. `rec.key` is the composite storage key.
  void Put(const Record& rec) { Put(PackedRecord(rec)); }
  void Put(PackedRecord rec);

  // Lookup. Returns true and copies the record if the key is present
  // (including as a tombstone — the caller interprets it). TTL expiry is
  // the caller's concern: the memtable stores what it is given.
  bool Get(BytesView key, Record* rec) const;

  // All records in byte-wise key order (for flush and full scans).
  std::vector<Record> Snapshot() const;

  size_t entry_count() const;
  // Heap footprint: each entry's block and the index's slot array, as
  // glibc malloc sizes them (DESIGN.md, "Memtable layout").
  size_t approximate_bytes() const;
  bool empty() const { return entry_count() == 0; }

  // Frees every entry and the slot array.
  void Clear();

  static constexpr LockLevel kLockLevel = LockLevel::kStoreIo;

 private:
  void FreeAllLocked() MUPPET_REQUIRES(mutex_);

  mutable Mutex mutex_{kLockLevel};
  // Each entry is a PackedRecord block, released from its PackedRecord.
  TaggedIndex<char> index_ MUPPET_GUARDED_BY(mutex_);
  // The blocks' malloc chunks.
  size_t block_bytes_ MUPPET_GUARDED_BY(mutex_) = 0;
};

}  // namespace kv
}  // namespace muppet

#endif  // MUPPET_KVSTORE_MEMTABLE_H_
