// The slate cache (paper §4.2): slates live in the memory of the machine
// running the updater, backed by the durable key-value store. Muppet 1.0
// gave each worker process its own cache; Muppet 2.0 keeps "all slates ...
// in a single 'central' slate cache" per machine (§4.5) — both engines use
// this class, differing only in how many instances they create (E6
// measures the working-set consequence).
//
// Eviction is CLOCK (second chance) by slate count: a hand sweeps the
// index and evicts the first slate not used since its last pass. Dirty
// slates are written back through a caller-provided writer according to
// the per-updater flush policy (write-through / interval / on-evict,
// §4.2).
//
// Layout: one heap block per slate, holding a 16-byte header
// (dirty_since, lengths, a one-byte updater index, flag and flushing
// bytes) followed by the key bytes and the value bytes. An update
// rewrites the value in place while it fits the block. The blocks are
// found through an open-addressed, linearly probed array of 8-byte slots,
// each a block address under a 16-bit hash tag, which grows with the
// number of slates rather than with `capacity` (common/tagged_index.h,
// shared with the kvstore memtable); the eviction hand is a position in
// that array (DESIGN.md, "Slate cache layout").
#ifndef MUPPET_CORE_SLATE_CACHE_H_
#define MUPPET_CORE_SLATE_CACHE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/tagged_index.h"
#include "core/slate.h"

namespace muppet {

namespace slate_cache_internal {
struct Block;  // one cached slate: header, key bytes, value bytes
}  // namespace slate_cache_internal

struct SlateCacheOptions {
  // Maximum number of cached slates (the paper sizes caches in slates:
  // "a slate cache of 100 slates", §4.5).
  size_t capacity = 10000;
};

class SlateCache {
 public:
  // Writer invoked to persist a dirty slate (on write-through, interval
  // flush, or eviction). An empty value with `deleted` set means the slate
  // was deleted. A null writer means no store stands behind the cache:
  // nothing is written, and nothing is evicted either, since an evicted
  // slate would have no other copy. The cache then holds more than
  // `capacity` slates.
  struct DirtySlate {
    SlateId id;
    Bytes value;
    bool deleted = false;
  };
  using WriteBack = std::function<Status(const DirtySlate&)>;

  SlateCache(SlateCacheOptions options, WriteBack write_back);
  ~SlateCache();

  SlateCache(const SlateCache&) = delete;
  SlateCache& operator=(const SlateCache&) = delete;

  // Cache lookup. OK -> *value filled. NotFound -> not cached (the caller
  // fetches from the store and calls Insert).
  Status Lookup(const SlateId& id, Bytes* value);

  // Cache `value`, a clean slate just read from the store (may evict),
  // unless `id` is cached already: an update, a delete or another read
  // may have raced in since that read, and what the cache holds is no
  // older than it. `*cached`, when given, receives the value the cache
  // holds after the call; NotFound if it holds a negative entry.
  Status Insert(const SlateId& id, BytesView value, Bytes* cached = nullptr);

  // Record a slate update from an updater. `write_through` forces an
  // immediate write-back (SlateFlushPolicy::kWriteThrough); otherwise the
  // slate is marked dirty with `now` for interval flushing. May evict.
  Status Update(const SlateId& id, BytesView value, Timestamp now,
                bool write_through);

  // Delete a slate (tombstones the cache entry and writes the delete
  // through to the store). Waits out a FlushDirtyFor write-back of the
  // slate that is in flight, so the delete lands after it.
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
  // empty "absent" entry. As Insert, it never replaces a cached entry, and
  // reports what the cache holds: NotFound for a negative entry.
  Status InsertAbsent(const SlateId& id, Bytes* cached = nullptr);
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
  using Block = slate_cache_internal::Block;
  friend class SlateCacheTestPeer;  // reads contents without touching them

  // An interned updater name. A block names its updater by index into
  // updaters_, which never shrinks: an application has a fixed set.
  struct Updater {
    std::string name;
    uint64_t hash;
  };

  // Sweep the hand until the cache is back within capacity: clear a set
  // kReferenced bit, evict a block whose bit is clear, writing it back if
  // dirty. Skips `handed`, the block the caller just handed in, and blocks
  // with a write-back in flight. The write-back runs under mutex_, which
  // is why the cache sits above the store in the lock hierarchy.
  void EvictIfNeededLocked(const Block* handed) MUPPET_REQUIRES(mutex_);
  // write_back_(slate), or OK when there is no writer.
  Status Persist(const DirtySlate& slate) const;
  // The block holding `id`, marked referenced, with `value` written into
  // it if `overwrite`; or, if `id` is not cached, a new unreferenced block
  // holding `value`, flags clear. `*added` tells which.
  Block* UpsertLocked(const SlateId& id, BytesView value, bool overwrite,
                      bool* added) MUPPET_REQUIRES(mutex_);
  Block* FindLocked(const SlateId& id) const MUPPET_REQUIRES(mutex_);
  // Writes `value` into the block in slot `slot`, moving the block when
  // the value outgrows it. Returns the block's address afterwards.
  Block* SetValueLocked(size_t slot, BytesView value) MUPPET_REQUIRES(mutex_);
  // Unindex and free the block in slot `slot`.
  void EraseLocked(size_t slot) MUPPET_REQUIRES(mutex_);
  void FreeAllLocked() MUPPET_REQUIRES(mutex_);

  // The slot holding (updater, key), or the empty slot that ends its probe
  // run. Requires a nonempty slot array.
  size_t ProbeLocked(uint64_t hash, uint8_t updater, BytesView key) const
      MUPPET_REQUIRES(mutex_);
  uint64_t HashLocked(uint8_t updater, BytesView key) const
      MUPPET_REQUIRES(mutex_);
  // A block's hash, HashLocked(updater, key), as index_ takes it to
  // rehome blocks.
  auto HashOfLocked() const MUPPET_REQUIRES(mutex_);
  // Index of `name` in updaters_, or -1; InternLocked adds it if missing.
  int FindUpdaterLocked(std::string_view name) const MUPPET_REQUIRES(mutex_);
  uint8_t InternLocked(const std::string& name) MUPPET_REQUIRES(mutex_);

  SlateId IdOfLocked(const Block* block) const MUPPET_REQUIRES(mutex_);

  SlateCacheOptions options_;
  WriteBack write_back_;

  mutable Mutex mutex_{kLockLevel};
  // Signalled when FlushDirtyFor's write-backs land; Delete waits on it.
  CondVar flushed_;
  // Finds each block from its slate's hash (common/tagged_index.h).
  TaggedIndex<Block> index_ MUPPET_GUARDED_BY(mutex_);
  // The eviction hand: the index slot it last looked at.
  size_t hand_ MUPPET_GUARDED_BY(mutex_) = 0;
  std::vector<Updater> updaters_ MUPPET_GUARDED_BY(mutex_);

  Counter hits_;
  Counter misses_;
  Counter evictions_;
};

}  // namespace muppet

#endif  // MUPPET_CORE_SLATE_CACHE_H_
