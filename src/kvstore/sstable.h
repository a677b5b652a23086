// SSTable: immutable sorted table file produced by memtable flushes and
// compactions (the Cassandra design the paper's §4.2 discussion rests on:
// "the more times a row is flushed to disk by the store since its last file
// compaction, the more files will have to be checked for the row").
//
// File layout:
//   repeated data blocks:   [u32 len][records...][u32 crc]
//   index block:            per data block: len-prefixed first_key,
//                           varint64 file_offset, varint32 block_len
//   bloom block:            serialized BloomFilter over all keys
//   footer (56 bytes):      fixed64 index_off, index_len, bloom_off,
//                           bloom_len, entry_count, max_seqno, magic
#ifndef MUPPET_KVSTORE_SSTABLE_H_
#define MUPPET_KVSTORE_SSTABLE_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "common/sync.h"
#include "kvstore/bloom.h"
#include "kvstore/device.h"
#include "kvstore/format.h"

namespace muppet {
namespace kv {

constexpr uint64_t kSstMagic = 0x4d55505053535431ULL;  // "MUPPSST1"
constexpr size_t kDefaultBlockBytes = 4096;

// Write `records` (must be sorted by key, unique keys) to a new SSTable at
// `path`. Charges the device model for the sequential write.
Status WriteSsTable(const std::string& path,
                    const std::vector<Record>& records, DeviceModel* device,
                    size_t block_bytes = kDefaultBlockBytes);

// Read-only handle on an SSTable. Open() loads the index and bloom filter
// into memory; Get and ReadAll read data blocks through the device model.
// Thread-safe for concurrent reads.
class SsTableReader {
 public:
  static Result<std::unique_ptr<SsTableReader>> Open(const std::string& path,
                                                     DeviceModel* device);

  ~SsTableReader();

  SsTableReader(const SsTableReader&) = delete;
  SsTableReader& operator=(const SsTableReader&) = delete;

  // Point lookup. NotFound if absent (bloom filter short-circuits most
  // true negatives without touching the device).
  Status Get(BytesView key, Record* rec);

  // Sequentially decode the entire table (compaction input).
  Status ReadAll(std::vector<Record>* out);

  const std::string& path() const { return path_; }
  uint64_t entry_count() const { return entry_count_; }
  uint64_t max_seqno() const { return max_seqno_; }
  uint64_t file_size() const { return file_size_; }
  const Bytes& smallest_key() const { return smallest_key_; }
  const Bytes& largest_key() const { return largest_key_; }

 private:
  struct IndexEntry {
    Bytes first_key;
    uint64_t offset;
    uint32_t length;  // full framed block length
  };

  SsTableReader(std::string path, DeviceModel* device)
      : path_(std::move(path)), device_(device) {}

  Status Load();

  // Read and verify the framed block at index position `i`; decode records
  // into *out. `random` selects the device charge model.
  Status ReadBlock(size_t i, bool random, std::vector<Record>* out);

  Status ReadRange(uint64_t offset, size_t length, Bytes* out);

  std::string path_;
  DeviceModel* device_;
  // Seek+read pairs on the shared handle are serialized by file_mutex_
  // once Open() publishes the reader; Load() runs pre-publication and so
  // touches file_ unlocked. The same applies to the metadata below:
  // written only by Load(), immutable once Open() returns the reader.
  // muppet-lint: allow(guarded): Load() runs pre-publication
  std::FILE* file_ = nullptr;
  Mutex file_mutex_{LockLevel::kStoreIo};

  // muppet-lint: allow(guarded): Load() runs pre-publication
  std::vector<IndexEntry> index_;
  // muppet-lint: allow(guarded): Load() runs pre-publication
  BloomFilter bloom_{0};
  // muppet-lint: allow(guarded): Load() runs pre-publication
  uint64_t entry_count_ = 0;
  // muppet-lint: allow(guarded): Load() runs pre-publication
  uint64_t max_seqno_ = 0;
  // muppet-lint: allow(guarded): Load() runs pre-publication
  uint64_t file_size_ = 0;
  // muppet-lint: allow(guarded): Load() runs pre-publication
  Bytes smallest_key_;
  // muppet-lint: allow(guarded): Load() runs pre-publication
  Bytes largest_key_;
};

}  // namespace kv
}  // namespace muppet

#endif  // MUPPET_KVSTORE_SSTABLE_H_
