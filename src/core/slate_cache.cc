#include "core/slate_cache.h"

#include <malloc.h>

#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"

namespace muppet {
namespace slate_cache_internal {

// One cached slate in one heap block: this header, then the key bytes,
// then the value bytes. A key of kLongKey bytes or more stores its length
// as a u32 between the header and the key bytes.
struct Block {
  Timestamp dirty_since;
  uint32_t value_len;
  uint8_t key_len;  // kLongKey: the length is the u32 after the header
  uint8_t updater;  // index into updaters_
  uint8_t flags;    // kDirty | kAbsent, and kReferenced
  // Write-backs of this slate that FlushDirtyFor has in flight outside
  // the lock; eviction skips the block while nonzero, so the slate stays
  // readable until the store holds it.
  uint8_t flushing;
};

}  // namespace slate_cache_internal

namespace {

using slate_cache_internal::Block;

static_assert(sizeof(Block) == 16, "the per-slate budget assumes it");

constexpr uint8_t kDirty = 1;
constexpr uint8_t kAbsent = 2;  // negative entry: store has nothing
// Used since the eviction hand last passed: the hand clears it instead of
// evicting the block (CLOCK, second chance).
constexpr uint8_t kReferenced = 4;
constexpr uint8_t kLongKey = 0xff;

// Sets a block's kDirty/kAbsent state, keeping its kReferenced bit.
void SetState(Block* b, uint8_t state) {
  b->flags = static_cast<uint8_t>((b->flags & kReferenced) | state);
}

// The bytes after the header: [u32 key length if long] key, value.
char* Tail(Block* b) { return reinterpret_cast<char*>(b + 1); }
const char* Tail(const Block* b) {
  return reinterpret_cast<const char*>(b + 1);
}

size_t KeyLen(const Block* b) {
  if (b->key_len != kLongKey) return b->key_len;
  uint32_t len;
  std::memcpy(&len, Tail(b), 4);
  return len;
}

size_t KeyOffset(const Block* b) { return b->key_len == kLongKey ? 4 : 0; }

BytesView KeyOf(const Block* b) {
  return BytesView(Tail(b) + KeyOffset(b), KeyLen(b));
}

// Bytes between the header's end and the value's first byte.
size_t ValueOffset(const Block* b) { return KeyOffset(b) + KeyLen(b); }

BytesView ValueOf(const Block* b) {
  return BytesView(Tail(b) + ValueOffset(b), b->value_len);
}

// Value bytes the block holds without moving, the allocator's rounding
// included (glibc rounds a request plus 8 up to 16).
size_t ValueCapacity(const Block* b) {
  return malloc_usable_size(const_cast<Block*>(b)) - sizeof(Block) -
         ValueOffset(b);
}

// Fibonacci hashing: the multiply carries every bit of the combined hash
// into the top bits, which pick the home slot and the tag.
uint64_t SlateHash(uint64_t updater_hash, BytesView key) {
  return HashCombine(updater_hash, Fnv1a64(key)) * 0x9e3779b97f4a7c15ULL;
}

// What Insert and InsertAbsent report for the block they leave cached.
Status Held(const Block* b, Bytes* cached) {
  if ((b->flags & kAbsent) != 0) {
    return Status::NotFound("slate cache: negative entry");
  }
  if (cached != nullptr) cached->assign(ValueOf(b));
  return Status::OK();
}

Block* NewBlock(uint8_t updater, BytesView key, BytesView value) {
  MUPPET_CHECK(key.size() <= std::numeric_limits<uint32_t>::max() &&
               value.size() <= std::numeric_limits<uint32_t>::max());
  const bool long_key = key.size() >= kLongKey;
  const size_t key_offset = long_key ? 4 : 0;
  void* p = std::malloc(sizeof(Block) + key_offset + key.size() + value.size());
  MUPPET_CHECK(p != nullptr) << "out of memory";
  auto* b = static_cast<Block*>(p);
  b->dirty_since = 0;
  b->value_len = static_cast<uint32_t>(value.size());
  b->key_len = long_key ? kLongKey : static_cast<uint8_t>(key.size());
  b->updater = updater;
  b->flags = 0;
  b->flushing = 0;
  if (long_key) {
    const auto len = static_cast<uint32_t>(key.size());
    std::memcpy(Tail(b), &len, 4);
  }
  if (!key.empty()) std::memcpy(Tail(b) + key_offset, key.data(), key.size());
  if (!value.empty()) {
    std::memcpy(Tail(b) + key_offset + key.size(), value.data(),
                value.size());
  }
  return b;
}

}  // namespace

SlateCache::SlateCache(SlateCacheOptions options, WriteBack write_back)
    : options_(options), write_back_(std::move(write_back)) {
  MUPPET_CHECK(options_.capacity > 0);
}

SlateCache::~SlateCache() {
  MutexLock lock(mutex_);
  FreeAllLocked();
}

int SlateCache::FindUpdaterLocked(std::string_view name) const {
  for (size_t i = 0; i < updaters_.size(); ++i) {
    if (updaters_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

uint8_t SlateCache::InternLocked(const std::string& name) {
  const int found = FindUpdaterLocked(name);
  if (found >= 0) return static_cast<uint8_t>(found);
  MUPPET_CHECK(updaters_.size() <= std::numeric_limits<uint8_t>::max())
      << "a slate cache holds slates of at most 256 updaters";
  updaters_.push_back(Updater{name, Fnv1a64(name)});
  return static_cast<uint8_t>(updaters_.size() - 1);
}

uint64_t SlateCache::HashLocked(uint8_t updater, BytesView key) const {
  return SlateHash(updaters_[updater].hash, key);
}

auto SlateCache::HashOfLocked() const {
  // The reference is taken under mutex_, and index_ calls the hasher only
  // inside the caller's critical section.
  return [&updaters = updaters_](const Block* b) {
    return SlateHash(updaters[b->updater].hash, KeyOf(b));
  };
}

size_t SlateCache::ProbeLocked(uint64_t hash, uint8_t updater,
                               BytesView key) const {
  return index_.Probe(hash, [updater, key](const Block* b) {
    return b->updater == updater && KeyOf(b) == key;
  });
}

Block* SlateCache::FindLocked(const SlateId& id) const {
  if (index_.size() == 0) return nullptr;
  const int updater = FindUpdaterLocked(id.updater);
  if (updater < 0) return nullptr;
  const auto u = static_cast<uint8_t>(updater);
  return index_.at(ProbeLocked(HashLocked(u, id.key), u, id.key));
}

Block* SlateCache::SetValueLocked(size_t slot, BytesView value) {
  MUPPET_CHECK(value.size() <= std::numeric_limits<uint32_t>::max());
  Block* b = index_.at(slot);
  if (value.size() > ValueCapacity(b)) {
    void* p = std::realloc(b, sizeof(Block) + ValueOffset(b) + value.size());
    MUPPET_CHECK(p != nullptr) << "out of memory";
    b = static_cast<Block*>(p);
    index_.Replace(slot, b);  // the block may have moved
  }
  if (!value.empty()) {
    std::memcpy(Tail(b) + ValueOffset(b), value.data(), value.size());
  }
  b->value_len = static_cast<uint32_t>(value.size());
  return b;
}

Block* SlateCache::UpsertLocked(const SlateId& id, BytesView value,
                                bool overwrite, bool* added) {
  const uint8_t u = InternLocked(id.updater);
  const uint64_t hash = HashLocked(u, id.key);
  if (index_.slot_count() > 0) {
    const size_t i = ProbeLocked(hash, u, id.key);
    if (Block* b = index_.at(i); b != nullptr) {
      b->flags |= kReferenced;
      *added = false;
      return overwrite ? SetValueLocked(i, value) : b;
    }
  }
  Block* b = NewBlock(u, id.key, value);
  index_.Insert(hash, b, HashOfLocked());
  *added = true;
  return b;
}

void SlateCache::EraseLocked(size_t slot) {
  Block* block = index_.at(slot);
  // Backward-shift deletion: pull each later slot of the probe run into
  // the hole unless its home lies cyclically in (hole, slot].
  const auto hash_of = HashOfLocked();
  const size_t mask = index_.slot_count() - 1;
  size_t hole = slot;
  for (size_t j = (hole + 1) & mask; index_.at(j) != nullptr;
       j = (j + 1) & mask) {
    if (((j - index_.Home(j, hash_of)) & mask) >= ((j - hole) & mask)) {
      index_.Move(j, hole);
      hole = j;
    }
  }
  index_.Vacate(hole);
  std::free(block);
}

void SlateCache::FreeAllLocked() {
  for (size_t i = 0; i < index_.slot_count(); ++i) std::free(index_.at(i));
  index_.Reset();
}

SlateId SlateCache::IdOfLocked(const Block* block) const {
  return SlateId{updaters_[block->updater].name, Bytes(KeyOf(block))};
}

Status SlateCache::Persist(const DirtySlate& slate) const {
  return write_back_ == nullptr ? Status::OK() : write_back_(slate);
}

void SlateCache::EvictIfNeededLocked(const Block* handed) {
  if (write_back_ == nullptr || index_.size() <= options_.capacity) return;
  const size_t slots = index_.slot_count();
  const size_t mask = slots - 1;
  // An odd stride visits every slot of the power-of-two array once a lap.
  // A stride of 1 would empty the slots behind the hand while linear
  // probing piles new blocks into the run ahead of it; one near
  // slots / phi spreads the holes out.
  const size_t stride =
      static_cast<size_t>(static_cast<double>(slots) * 0.618) | 1;
  // Two laps without an eviction clear every bit and then find every
  // block handed in or in flight: the cache runs over capacity until
  // their write-backs land, rather than drop the slate it was just handed.
  size_t idle = 0;
  while (index_.size() > options_.capacity && idle++ < 2 * slots) {
    hand_ = (hand_ + stride) & mask;
    Block* b = index_.at(hand_);
    // A block whose write-back is still on its way to the store stays:
    // dropping it now would leave the slate in neither place.
    if (b == nullptr || b == handed || b->flushing > 0) continue;
    if ((b->flags & kReferenced) != 0) {
      b->flags &= ~kReferenced;
      continue;
    }
    if ((b->flags & kDirty) != 0) {
      DirtySlate out{IdOfLocked(b), Bytes(ValueOf(b)), /*deleted=*/false};
      Status s = write_back_(out);
      if (!s.ok()) {
        MUPPET_LOG(kWarning) << "slate cache: write-back on eviction failed: "
                             << s.ToString();
        // Drop anyway: the engine's store is the authority on durability;
        // a failed write-back loses the unflushed update, mirroring the
        // paper's failure semantics (§4.3).
      }
    }
    EraseLocked(hand_);
    evictions_.Add();
    idle = 0;
  }
}

Status SlateCache::Lookup(const SlateId& id, Bytes* value) {
  bool absent = false;
  MUPPET_RETURN_IF_ERROR(LookupWithAbsent(id, value, &absent));
  if (absent) return Status::NotFound("slate cache: negative entry");
  return Status::OK();
}

Status SlateCache::LookupWithAbsent(const SlateId& id, Bytes* value,
                                    bool* absent) {
  MutexLock lock(mutex_);
  Block* b = FindLocked(id);
  if (b == nullptr) {
    misses_.Add();
    return Status::NotFound("slate cache: miss");
  }
  b->flags |= kReferenced;
  hits_.Add();
  *absent = (b->flags & kAbsent) != 0;
  if (!*absent) value->assign(ValueOf(b));
  return Status::OK();
}

Status SlateCache::Insert(const SlateId& id, BytesView value, Bytes* cached) {
  MutexLock lock(mutex_);
  bool added = false;
  Block* b = UpsertLocked(id, value, /*overwrite=*/false, &added);
  EvictIfNeededLocked(b);
  return Held(b, cached);
}

Status SlateCache::InsertAbsent(const SlateId& id, Bytes* cached) {
  MutexLock lock(mutex_);
  bool added = false;
  Block* b = UpsertLocked(id, BytesView(), /*overwrite=*/false, &added);
  if (added) b->flags = kAbsent;
  EvictIfNeededLocked(b);
  return Held(b, cached);
}

Status SlateCache::Update(const SlateId& id, BytesView value, Timestamp now,
                          bool write_through) {
  {
    MutexLock lock(mutex_);
    bool added = false;
    Block* b = UpsertLocked(id, value, /*overwrite=*/true, &added);
    if (write_through) {
      SetState(b, 0);
      b->dirty_since = 0;
    } else {
      if ((b->flags & kDirty) == 0) b->dirty_since = now;
      SetState(b, kDirty);
    }
    EvictIfNeededLocked(b);
  }
  if (write_through) {
    return Persist(DirtySlate{id, Bytes(value), /*deleted=*/false});
  }
  return Status::OK();
}

Status SlateCache::Delete(const SlateId& id) {
  {
    MutexLock lock(mutex_);
    Block* b = FindLocked(id);
    // A write-back of this slate still in flight would land after the
    // delete and bring the slate back in the store.
    while (b != nullptr && b->flushing > 0) {
      flushed_.Wait(mutex_);
      b = FindLocked(id);  // it may have moved, or Clear() dropped it
    }
    if (b != nullptr) {
      // Keep a negative entry so a subsequent read doesn't refetch a value
      // the store may still hold briefly.
      b->value_len = 0;
      SetState(b, kAbsent);
    }
  }
  return Persist(DirtySlate{id, Bytes(), /*deleted=*/true});
}

Result<int> SlateCache::FlushDirty(Timestamp dirty_before) {
  return FlushDirtyFor("", dirty_before);
}

Result<int> SlateCache::FlushDirtyFor(const std::string& updater,
                                      Timestamp dirty_before) {
  struct Pending {
    DirtySlate slate;
    Timestamp dirty_since;
  };
  std::vector<Pending> to_flush;
  {
    MutexLock lock(mutex_);
    int only = -1;
    if (!updater.empty()) {
      only = FindUpdaterLocked(updater);
      if (only < 0) return 0;
    }
    for (size_t i = 0; i < index_.slot_count(); ++i) {
      Block* b = index_.at(i);
      if (b == nullptr || (only >= 0 && b->updater != only)) continue;
      if ((b->flags & kDirty) != 0 && b->dirty_since < dirty_before) {
        to_flush.push_back(Pending{
            DirtySlate{IdOfLocked(b), Bytes(ValueOf(b)), false},
            b->dirty_since});
        SetState(b, 0);
        b->dirty_since = 0;
        ++b->flushing;
      }
    }
  }
  if (to_flush.empty()) return 0;
  std::vector<Status> results;
  results.reserve(to_flush.size());
  for (const Pending& p : to_flush) results.push_back(Persist(p.slate));

  int flushed = 0;
  Status first_error = Status::OK();
  MutexLock lock(mutex_);
  for (size_t i = 0; i < to_flush.size(); ++i) {
    // The block is gone only if Clear() dropped it meanwhile.
    Block* b = FindLocked(to_flush[i].slate.id);
    if (b != nullptr && b->flushing > 0) --b->flushing;
    if (results[i].ok()) {
      ++flushed;
      continue;
    }
    if (first_error.ok()) first_error = results[i];
    // The store refused (e.g. temporarily unavailable): the update must
    // not be silently dropped — re-mark the entry dirty so a later flush
    // retries. If the slate was updated again meanwhile it is already
    // dirty and this is a no-op.
    if (b != nullptr && (b->flags & (kDirty | kAbsent)) == 0) {
      SetState(b, kDirty);
      b->dirty_since = to_flush[i].dirty_since;
    }
  }
  flushed_.NotifyAll();
  if (!first_error.ok()) return first_error;
  return flushed;
}

void SlateCache::Clear() {
  MutexLock lock(mutex_);
  FreeAllLocked();
}

size_t SlateCache::size() const {
  MutexLock lock(mutex_);
  return index_.size();
}

}  // namespace muppet
