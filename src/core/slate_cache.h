// The slate cache (paper §4.2): slates live in the memory of the machine
// running the updater, backed by the durable key-value store. Muppet 1.0
// gave each worker process its own cache; Muppet 2.0 keeps "all slates ...
// in a single 'central' slate cache" per machine (§4.5) — both engines use
// this class, differing only in how many instances they create (E6
// measures the working-set consequence).
//
// Eviction is LRU by slate count. Dirty slates are written back through a
// caller-provided writer according to the per-updater flush policy
// (write-through / interval / on-evict, §4.2).
//
// Layout: one hash-map node per slate. The node holds the key, the value
// and the recency links (an intrusive doubly linked list threaded through
// the nodes), so a cached slate costs one allocation and stores its key
// once (DESIGN.md, "Slate cache layout").
#ifndef MUPPET_CORE_SLATE_CACHE_H_
#define MUPPET_CORE_SLATE_CACHE_H_

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/sync.h"
#include "core/slate.h"

namespace muppet {

struct SlateCacheOptions {
  // Maximum number of cached slates (the paper sizes caches in slates:
  // "a slate cache of 100 slates", §4.5).
  size_t capacity = 10000;
};

class SlateCache {
 public:
  // Writer invoked to persist a dirty slate (on write-through, interval
  // flush, or eviction). An empty value with `deleted` set means the slate
  // was deleted.
  struct DirtySlate {
    SlateId id;
    Bytes value;
    bool deleted = false;
  };
  using WriteBack = std::function<Status(const DirtySlate&)>;

  SlateCache(SlateCacheOptions options, WriteBack write_back);

  SlateCache(const SlateCache&) = delete;
  SlateCache& operator=(const SlateCache&) = delete;

  // Cache lookup. OK -> *value filled. NotFound -> not cached (the caller
  // fetches from the store and calls Insert).
  Status Lookup(const SlateId& id, Bytes* value);

  // Insert a clean slate fetched from the store (may evict).
  Status Insert(const SlateId& id, BytesView value);

  // Record a slate update from an updater. `write_through` forces an
  // immediate write-back (SlateFlushPolicy::kWriteThrough); otherwise the
  // slate is marked dirty with `now` for interval flushing. May evict.
  Status Update(const SlateId& id, BytesView value, Timestamp now,
                bool write_through);

  // Delete a slate (tombstones the cache entry and writes the delete
  // through to the store).
  Status Delete(const SlateId& id);

  // Flush slates dirty since before `dirty_before`; pass INT64_MAX to
  // flush everything (shutdown). Returns the number flushed.
  Result<int> FlushDirty(Timestamp dirty_before);

  // As FlushDirty, restricted to one updater's slates — the central cache
  // of Muppet 2.0 holds slates of many updaters with different flush
  // intervals (§4.2), so the flusher sweeps per updater.
  Result<int> FlushDirtyFor(const std::string& updater,
                            Timestamp dirty_before);

  // Negative cache marker: remember that the store has no such slate, so
  // repeated first-touch events don't re-fetch. Represented as a cached
  // empty "absent" entry.
  void InsertAbsent(const SlateId& id);
  // Lookup including absent markers: returns OK with *absent=true for a
  // negative entry.
  Status LookupWithAbsent(const SlateId& id, Bytes* value, bool* absent);

  // Drop every entry *without* writing dirty slates back — crash
  // semantics: "whatever changes ... not yet been flushed to the
  // key-value store are lost" (§4.3).
  void Clear();

  size_t size() const MUPPET_EXCLUDES(mutex_);
  size_t capacity() const { return options_.capacity; }

  static constexpr LockLevel kLockLevel = LockLevel::kSlateCache;
  int64_t hits() const { return hits_.Get(); }
  int64_t misses() const { return misses_.Get(); }
  int64_t evictions() const { return evictions_.Get(); }

 private:
  // The cache's own slate key. A cache holds many slates of a few
  // updaters, so the updater name is interned once (updaters_) and each
  // key points at it rather than carrying its own std::string.
  struct Key {
    const std::string* updater;
    Bytes key;
  };
  // Probe form of a key, so a SlateId is looked up without copying it.
  // Implicit from Key, so KeyHash and KeyEq serve stored keys as well.
  struct KeyRef {
    KeyRef(std::string_view u, BytesView k) : updater(u), key(k) {}
    KeyRef(const Key& k) : updater(*k.updater), key(k.key) {}
    std::string_view updater;
    BytesView key;
  };
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(const KeyRef& k) const;
  };
  struct KeyEq {
    using is_transparent = void;
    bool operator()(const KeyRef& a, const KeyRef& b) const {
      return a.updater == b.updater && a.key == b.key;
    }
  };

  struct Entry;
  using Slot = std::pair<const Key, Entry>;  // one map node's payload
  struct Entry {
    Bytes value;
    Slot* newer = nullptr;  // recency links; nullptr at the mru_/lru_ ends
    Slot* older = nullptr;
    Timestamp dirty_since = 0;
    bool dirty = false;
    bool absent = false;  // negative entry: store has nothing
    // Write-backs of this slate that FlushDirtyFor has in flight outside
    // the lock; eviction skips the slot while nonzero, so the slate stays
    // readable until the store holds it. Sits in the bools' padding.
    uint8_t flushing = 0;
  };

  // Evict LRU entries beyond capacity, writing dirty ones back and
  // skipping slots with a write-back in flight. The write-back runs under
  // mutex_, which is why the cache sits above the store in the lock
  // hierarchy.
  Status EvictIfNeededLocked() MUPPET_REQUIRES(mutex_);
  // Insert or update; requires mutex_ held. Returns the entry, now MRU.
  Entry* UpsertLocked(const SlateId& id) MUPPET_REQUIRES(mutex_);
  Slot* FindLocked(const SlateId& id) MUPPET_REQUIRES(mutex_);
  // Recency list maintenance.
  void LinkFrontLocked(Slot* slot) MUPPET_REQUIRES(mutex_);
  void UnlinkLocked(Slot* slot) MUPPET_REQUIRES(mutex_);
  void TouchLocked(Slot* slot) MUPPET_REQUIRES(mutex_);

  static SlateId IdOf(const Slot& slot) {
    return SlateId{*slot.first.updater, slot.first.key};
  }

  SlateCacheOptions options_;
  WriteBack write_back_;

  mutable Mutex mutex_{kLockLevel};
  // Node-based, so a Slot's address survives rehashing and the recency
  // links stay valid.
  std::unordered_map<Key, Entry, KeyHash, KeyEq> slots_
      MUPPET_GUARDED_BY(mutex_);
  Slot* mru_ MUPPET_GUARDED_BY(mutex_) = nullptr;
  Slot* lru_ MUPPET_GUARDED_BY(mutex_) = nullptr;
  // Interned updater names; std::set nodes never move, so Key::updater
  // stays valid. Never shrinks: an application has a fixed set of them.
  std::set<std::string, std::less<>> updaters_ MUPPET_GUARDED_BY(mutex_);

  Counter hits_;
  Counter misses_;
  Counter evictions_;
};

}  // namespace muppet

#endif  // MUPPET_CORE_SLATE_CACHE_H_
