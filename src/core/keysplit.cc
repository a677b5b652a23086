#include "core/keysplit.h"

#include <charconv>

namespace muppet {

Bytes MakeSplitKey(BytesView base_key, int shard) {
  // A negative shard would emit "key#-1", which ParseSplitKey (correctly)
  // rejects; clamp so every produced key round-trips.
  if (shard < 0) shard = 0;
  Bytes out;
  out.reserve(base_key.size() + 4);
  for (char c : base_key) {
    out.push_back(c);
    if (c == '#') out.push_back('#');  // escape
  }
  out.push_back('#');
  out.append(std::to_string(shard));
  return out;
}

Status ParseSplitKey(BytesView split_key, Bytes* base_key, int* shard) {
  // Find the unescaped '#' separator: scan from the end — the suffix after
  // it must be all digits, and the '#' must not be part of an "##" escape.
  size_t sep = Bytes::npos;
  for (size_t i = split_key.size(); i-- > 0;) {
    if (split_key[i] == '#') {
      // Count preceding '#'s; separator only if that count is even.
      size_t hashes = 0;
      size_t j = i;
      while (j > 0 && split_key[j - 1] == '#') {
        ++hashes;
        --j;
      }
      if (hashes % 2 == 0) {
        sep = i;
      }
      break;  // only the last run of '#'s can hold the separator
    }
    if (split_key[i] < '0' || split_key[i] > '9') break;
  }
  if (sep == Bytes::npos || sep + 1 >= split_key.size()) {
    return Status::InvalidArgument("keysplit: not a split key");
  }
  int value = 0;
  auto [p, ec] = std::from_chars(split_key.data() + sep + 1,
                                 split_key.data() + split_key.size(), value);
  if (ec != std::errc() || p != split_key.data() + split_key.size() ||
      value < 0) {
    return Status::InvalidArgument("keysplit: bad shard suffix");
  }
  // Unescape the base key.
  base_key->clear();
  for (size_t i = 0; i < sep; ++i) {
    base_key->push_back(split_key[i]);
    if (split_key[i] == '#') {
      if (i + 1 >= sep || split_key[i + 1] != '#') {
        return Status::InvalidArgument("keysplit: unescaped '#' in base key");
      }
      ++i;  // skip the escape twin
    }
  }
  *shard = value;
  return Status::OK();
}

SplitTable::SplitTable(size_t max_entries)
    : max_entries_(max_entries == 0 ? 1 : max_entries) {}

bool SplitTable::Lookup(int32_t function_id, BytesView key,
                        int* shards) const {
  ReaderMutexLock guard(mutex_);
  auto it = cells_.find({function_id, Bytes(key)});
  if (it == cells_.end()) return false;
  *shards = it->second.shards;
  return true;
}

int SplitTable::RouteShard(int32_t function_id, BytesView key) const {
  ReaderMutexLock guard(mutex_);
  auto it = cells_.find({function_id, Bytes(key)});
  if (it == cells_.end()) return -1;
  const Cell& cell = it->second;
  const uint64_t cursor = cell.cursor.fetch_add(1, std::memory_order_relaxed);
  return static_cast<int>(cursor % static_cast<uint64_t>(cell.shards));
}

bool SplitTable::Split(int32_t function_id, BytesView key, int shards) {
  if (shards <= 1) return false;
  WriterMutexLock guard(mutex_);
  if (cells_.size() >= max_entries_) return false;
  auto [it, inserted] = cells_.try_emplace({function_id, Bytes(key)});
  if (!inserted) return false;
  it->second.shards = shards;
  active_.store(cells_.size(), std::memory_order_release);
  return true;
}

std::vector<SplitTable::Entry> SplitTable::Entries() const {
  ReaderMutexLock guard(mutex_);
  std::vector<Entry> entries;
  entries.reserve(cells_.size());
  for (const auto& [id_key, cell] : cells_) {
    entries.push_back(Entry{id_key.first, id_key.second, cell.shards});
  }
  return entries;
}

}  // namespace muppet
