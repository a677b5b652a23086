// Hotspot mitigation by key splitting (paper §5, Example 6). When an
// update computation is associative and commutative, an overloaded key
// ("Best Buy") can be partitioned into sub-keys ("Best Buy#0", "Best
// Buy#1", ...) counted by independent updaters whose partial results are
// re-aggregated under the original key on read. These helpers implement
// the mechanical parts: sub-key naming, parsing back, and the engine's
// live split registry (which also picks each event's shard).
#ifndef MUPPET_CORE_KEYSPLIT_H_
#define MUPPET_CORE_KEYSPLIT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "common/sync.h"

namespace muppet {

// "key#shard". The separator '#' is escaped in the base key ("##") so
// parsing is unambiguous for arbitrary keys.
Bytes MakeSplitKey(BytesView base_key, int shard);

// Inverse. Returns InvalidArgument for inputs not produced by MakeSplitKey.
Status ParseSplitKey(BytesView split_key, Bytes* base_key, int* shard);

// Live registry of dynamically split hot keys, shared between the dispatch
// path (readers) and the load manager (writer). A split is permanent: once
// installed, a (function, key) fans out over the same shards until the
// engine stops. Reads fold the base slate and every shard slate through the
// updater's merger, which is exact for an associative-commutative update
// over any partition of its input, so nothing ever has to be merged back.
// The table is volatile: a restarted engine starts with no splits, so
// reads fold every possible shard rather than asking it.
class SplitTable {
 public:
  struct Entry {
    int32_t function_id = -1;
    Bytes key;
    int shards = 1;
  };

  explicit SplitTable(size_t max_entries);

  // Dispatch fast path: one acquire load; when false, no key is split.
  bool HasSplits() const {
    return active_.load(std::memory_order_acquire) > 0;
  }

  // Shard count of (function_id, key) into *shards; false when the key is
  // not split.
  bool Lookup(int32_t function_id, BytesView key, int* shards) const;

  // Round-robin shard pick for one event. Returns the shard to route to,
  // or -1 when the key is unsplit.
  int RouteShard(int32_t function_id, BytesView key) const;

  // Install a split. Returns false when the key is already split (a split
  // never widens), the table is full, or `shards` <= 1.
  bool Split(int32_t function_id, BytesView key, int shards);

  std::vector<Entry> Entries() const;

  static constexpr LockLevel kLockLevel = LockLevel::kSplitTable;

 private:
  struct Cell {
    int shards = 1;
    // Round-robin cursor; atomic so RouteShard works under the reader lock.
    mutable std::atomic<uint64_t> cursor{0};
  };

  const size_t max_entries_;
  std::atomic<size_t> active_{0};
  mutable SharedMutex mutex_{kLockLevel};
  std::map<std::pair<int32_t, Bytes>, Cell> cells_ MUPPET_GUARDED_BY(mutex_);
};

}  // namespace muppet

#endif  // MUPPET_CORE_KEYSPLIT_H_
