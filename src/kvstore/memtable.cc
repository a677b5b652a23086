#include "kvstore/memtable.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace muppet {
namespace kv {

namespace {

// glibc malloc's chunk for an n-byte request: n plus the 8-byte size
// header, rounded up to 16, never under 32.
constexpr size_t ChunkBytes(size_t n) {
  return std::max<size_t>(32, (n + 8 + 15) & ~size_t{15});
}

// A set node is the red-black color and three links (32 B), then the
// element: the block pointer.
constexpr size_t kNodeBytes = ChunkBytes(32 + sizeof(PackedRecord));

size_t EntryBytes(const PackedRecord& rec) {
  return kNodeBytes + ChunkBytes(4 + rec.encoded().size());
}

}  // namespace

PackedRecord::PackedRecord(const Record& rec) {
  const uint32_t len = static_cast<uint32_t>(EncodedRecordSize(rec));
  block_ = std::make_unique_for_overwrite<char[]>(4 + len);
  std::memcpy(block_.get(), &len, 4);
  EncodeRecordTo(rec, block_.get() + 4);
}

void PackedRecord::DecodeTo(Record* rec) const {
  const BytesView enc = encoded();
  const char* p = enc.data();
  MUPPET_CHECK(DecodeRecord(&p, p + enc.size(), rec).ok());
}

void MemTable::Put(PackedRecord rec) {
  const size_t cost = EntryBytes(rec);
  MutexLock lock(mutex_);
  auto it = entries_.lower_bound(rec.key());
  if (it == entries_.end() || it->key() != rec.key()) {
    entries_.insert(it, std::move(rec));
    bytes_ += cost;
    return;
  }
  // Overwrite: swap the block behind the same set node. The key is
  // unchanged, so the set's order holds; extract and reinsert would
  // rebalance the tree twice for nothing.
  bytes_ = bytes_ - EntryBytes(*it) + cost;
  const_cast<PackedRecord&>(*it) = std::move(rec);
}

bool MemTable::Get(BytesView key, Record* rec) const {
  MutexLock lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  it->DecodeTo(rec);
  return true;
}

std::vector<Record> MemTable::Scan(BytesView prefix) const {
  MutexLock lock(mutex_);
  std::vector<Record> out;
  for (auto it = entries_.lower_bound(prefix);
       it != entries_.end() && it->key().starts_with(prefix); ++it) {
    it->DecodeTo(&out.emplace_back());
  }
  return out;
}

std::vector<Record> MemTable::Snapshot() const {
  MutexLock lock(mutex_);
  std::vector<Record> out;
  out.reserve(entries_.size());
  for (const PackedRecord& rec : entries_) rec.DecodeTo(&out.emplace_back());
  return out;
}

size_t MemTable::entry_count() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

size_t MemTable::approximate_bytes() const {
  MutexLock lock(mutex_);
  return bytes_;
}

void MemTable::Clear() {
  MutexLock lock(mutex_);
  entries_.clear();
  bytes_ = 0;
}

}  // namespace kv
}  // namespace muppet
