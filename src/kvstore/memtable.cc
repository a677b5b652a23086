#include "kvstore/memtable.h"

#include <algorithm>
#include <cstring>

#include "common/hash.h"
#include "common/logging.h"

namespace muppet {
namespace kv {

namespace {

// glibc malloc's chunk for an n-byte request: n plus the 8-byte size
// header, rounded up to 16, never under 32.
constexpr size_t ChunkBytes(size_t n) {
  return std::max<size_t>(32, (n + 8 + 15) & ~size_t{15});
}

size_t BlockBytes(BytesView encoded) { return ChunkBytes(4 + encoded.size()); }

// Fibonacci hashing: the multiply carries every bit of the key's hash into
// the top bits, which pick the home slot and the tag.
uint64_t HashKey(BytesView key) { return Fnv1a64(key) * 0x9e3779b97f4a7c15ULL; }

uint64_t BlockHash(const char* block) {
  return HashKey(PackedRecord::Key(block));
}

// The index's match for the block holding `key`.
auto HoldsKey(BytesView key) {
  return [key](const char* block) { return PackedRecord::Key(block) == key; };
}

// A block to sort, under a chunk of its key: the 7 key bytes from some
// depth on as a big-endian integer, zero-padded, above a byte holding how
// many key bytes remain from that depth, capped at 8. Keys that agree up
// to the depth order as their chunks do; the chunks of two distinct keys
// are equal only if both keys go on past the chunk.
struct SortEntry {
  uint64_t chunk;
  const char* block;
};

uint64_t ChunkAt(BytesView key, size_t depth) {
  const size_t rest = key.size() > depth ? key.size() - depth : 0;
  unsigned char bytes[7] = {};
  if (rest > 0) {
    std::memcpy(bytes, key.data() + depth, std::min<size_t>(7, rest));
  }
  uint64_t chunk = 0;
  for (const unsigned char c : bytes) chunk = chunk << 8 | c;
  return chunk << 8 | std::min<size_t>(8, rest);
}

// Sorts entries whose keys agree on their first `depth` bytes, holding
// their chunks at that depth, into key order: by chunk, then each run of
// equal chunks by the next chunk. Comparisons read no block; a block is
// read once for each chunk of its key the order needs.
void SortByKey(SortEntry* first, SortEntry* last, size_t depth) {
  std::sort(first, last, [](const SortEntry& a, const SortEntry& b) {
    return a.chunk < b.chunk;
  });
  while (first != last) {
    SortEntry* run = first + 1;
    while (run != last && run->chunk == first->chunk) ++run;
    if (run - first > 1) {
      for (SortEntry* e = first; e != run; ++e) {
        e->chunk = ChunkAt(PackedRecord::Key(e->block), depth + 7);
      }
      SortByKey(first, run, depth + 7);
    }
    first = run;
  }
}

}  // namespace

PackedRecord::PackedRecord(const Record& rec) {
  const uint32_t len = static_cast<uint32_t>(EncodedRecordSize(rec));
  block_ = std::make_unique_for_overwrite<char[]>(4 + len);
  std::memcpy(block_.get(), &len, 4);
  EncodeRecordTo(rec, block_.get() + 4);
}

void PackedRecord::DecodeTo(const char* block, Record* rec) {
  const BytesView enc = Encoded(block);
  const char* p = enc.data();
  MUPPET_CHECK(DecodeRecord(&p, p + enc.size(), rec).ok());
}

MemTable::~MemTable() {
  MutexLock lock(mutex_);
  FreeAllLocked();
}

void MemTable::Put(PackedRecord rec) {
  const BytesView key = PackedRecord::Key(rec.block_.get());
  const uint64_t hash = HashKey(key);
  const size_t cost = BlockBytes(rec.encoded());
  std::unique_ptr<char[]> old;  // freed after the lock is released
  MutexLock lock(mutex_);
  if (index_.slot_count() > 0) {
    const size_t i = index_.Probe(hash, HoldsKey(key));
    if (index_.at(i) != nullptr) {
      // Overwrite: the new block takes the old one's slot, under the same
      // key and hash.
      old.reset(index_.at(i));
      block_bytes_ -= BlockBytes(PackedRecord::Encoded(old.get()));
      block_bytes_ += cost;
      index_.Replace(i, rec.block_.release());
      return;
    }
  }
  index_.Insert(hash, rec.block_.release(), BlockHash);
  block_bytes_ += cost;
}

bool MemTable::Get(BytesView key, Record* rec) const {
  const uint64_t hash = HashKey(key);
  MutexLock lock(mutex_);
  const char* block = index_.Find(hash, HoldsKey(key));
  if (block == nullptr) return false;
  PackedRecord::DecodeTo(block, rec);
  return true;
}

std::vector<Record> MemTable::Snapshot() const {
  MutexLock lock(mutex_);
  std::vector<SortEntry> order;
  order.reserve(index_.size());
  for (size_t i = 0; i < index_.slot_count(); ++i) {
    if (const char* b = index_.at(i); b != nullptr) {
      order.push_back(SortEntry{ChunkAt(PackedRecord::Key(b), 0), b});
    }
  }
  SortByKey(order.data(), order.data() + order.size(), 0);
  std::vector<Record> out(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    PackedRecord::DecodeTo(order[i].block, &out[i]);
  }
  return out;
}

size_t MemTable::entry_count() const {
  MutexLock lock(mutex_);
  return index_.size();
}

size_t MemTable::approximate_bytes() const {
  MutexLock lock(mutex_);
  const size_t slots = index_.slot_count();
  return block_bytes_ + (slots > 0 ? ChunkBytes(slots * sizeof(uint64_t)) : 0);
}

void MemTable::Clear() {
  MutexLock lock(mutex_);
  FreeAllLocked();
}

void MemTable::FreeAllLocked() {
  for (size_t i = 0; i < index_.slot_count(); ++i) delete[] index_.at(i);
  index_.Reset();
  block_bytes_ = 0;
}

}  // namespace kv
}  // namespace muppet
