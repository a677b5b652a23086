#include "core/slate_cache.h"

#include <limits>

#include "common/hash.h"
#include "common/logging.h"

namespace muppet {

size_t SlateCache::KeyHash::operator()(const KeyRef& k) const {
  return static_cast<size_t>(
      HashCombine(Fnv1a64(k.updater), Fnv1a64(k.key)));
}

SlateCache::SlateCache(SlateCacheOptions options, WriteBack write_back)
    : options_(options), write_back_(std::move(write_back)) {
  MUPPET_CHECK(options_.capacity > 0);
  MUPPET_CHECK(write_back_ != nullptr);
}

SlateCache::Slot* SlateCache::FindLocked(const SlateId& id) {
  auto it = slots_.find(KeyRef(id.updater, id.key));
  return it == slots_.end() ? nullptr : &*it;
}

void SlateCache::LinkFrontLocked(Slot* slot) {
  slot->second.older = mru_;
  slot->second.newer = nullptr;
  if (mru_ != nullptr) mru_->second.newer = slot;
  mru_ = slot;
  if (lru_ == nullptr) lru_ = slot;
}

void SlateCache::UnlinkLocked(Slot* slot) {
  Entry& e = slot->second;
  (e.newer != nullptr ? e.newer->second.older : mru_) = e.older;
  (e.older != nullptr ? e.older->second.newer : lru_) = e.newer;
  e.newer = nullptr;
  e.older = nullptr;
}

void SlateCache::TouchLocked(Slot* slot) {
  if (slot == mru_) return;
  UnlinkLocked(slot);
  LinkFrontLocked(slot);
}

SlateCache::Entry* SlateCache::UpsertLocked(const SlateId& id) {
  Slot* slot = FindLocked(id);
  if (slot != nullptr) {
    TouchLocked(slot);
    return &slot->second;
  }
  auto name = updaters_.find(id.updater);
  if (name == updaters_.end()) name = updaters_.emplace(id.updater).first;
  slot = &*slots_.emplace(Key{&*name, id.key}, Entry{}).first;
  LinkFrontLocked(slot);
  return &slot->second;
}

Status SlateCache::EvictIfNeededLocked() {
  // Never the MRU slot: with every older slot in flight the cache runs over
  // capacity until their write-backs land, rather than drop the slate it
  // was just handed.
  Slot* victim = lru_;
  while (slots_.size() > options_.capacity && victim != mru_) {
    Slot* next = victim->second.newer;
    if (victim->second.flushing > 0) {
      // Its write-back is still on its way to the store: dropping it now
      // would leave the slate in neither place.
      victim = next;
      continue;
    }
    if (victim->second.dirty) {
      DirtySlate out{IdOf(*victim), victim->second.value, /*deleted=*/false};
      Status s = write_back_(out);
      if (!s.ok()) {
        MUPPET_LOG(kWarning) << "slate cache: write-back on eviction failed: "
                             << s.ToString();
        // Drop anyway: the engine's store is the authority on durability;
        // a failed write-back loses the unflushed update, mirroring the
        // paper's failure semantics (§4.3).
      }
    }
    UnlinkLocked(victim);
    slots_.erase(slots_.find(victim->first));
    evictions_.Add();
    victim = next;
  }
  return Status::OK();
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
  Slot* slot = FindLocked(id);
  if (slot == nullptr) {
    misses_.Add();
    return Status::NotFound("slate cache: miss");
  }
  TouchLocked(slot);
  hits_.Add();
  *absent = slot->second.absent;
  if (!slot->second.absent) *value = slot->second.value;
  return Status::OK();
}

Status SlateCache::Insert(const SlateId& id, BytesView value) {
  MutexLock lock(mutex_);
  Entry* e = UpsertLocked(id);
  e->value.assign(value);
  e->absent = false;
  // A fetched slate is clean by definition.
  e->dirty = false;
  e->dirty_since = 0;
  return EvictIfNeededLocked();
}

void SlateCache::InsertAbsent(const SlateId& id) {
  MutexLock lock(mutex_);
  Entry* e = UpsertLocked(id);
  if (e->dirty) return;  // an update raced in; keep the real value
  e->value.clear();
  e->absent = true;
  (void)EvictIfNeededLocked();
}

Status SlateCache::Update(const SlateId& id, BytesView value, Timestamp now,
                          bool write_through) {
  {
    MutexLock lock(mutex_);
    Entry* e = UpsertLocked(id);
    e->value.assign(value);
    e->absent = false;
    if (write_through) {
      e->dirty = false;
      e->dirty_since = 0;
    } else {
      if (!e->dirty) e->dirty_since = now;
      e->dirty = true;
    }
    MUPPET_RETURN_IF_ERROR(EvictIfNeededLocked());
  }
  if (write_through) {
    return write_back_(DirtySlate{id, Bytes(value), /*deleted=*/false});
  }
  return Status::OK();
}

Status SlateCache::Delete(const SlateId& id) {
  {
    MutexLock lock(mutex_);
    Slot* slot = FindLocked(id);
    if (slot != nullptr) {
      // Keep a negative entry so a subsequent read doesn't refetch a value
      // the store may still hold briefly.
      slot->second.value.clear();
      slot->second.absent = true;
      slot->second.dirty = false;
    }
  }
  return write_back_(DirtySlate{id, Bytes(), /*deleted=*/true});
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
    const std::string* only = nullptr;
    if (!updater.empty()) {
      auto name = updaters_.find(updater);
      if (name == updaters_.end()) return 0;
      only = &*name;
    }
    for (Slot* slot = mru_; slot != nullptr; slot = slot->second.older) {
      Entry& e = slot->second;
      if (only != nullptr && slot->first.updater != only) continue;
      if (e.dirty && e.dirty_since < dirty_before) {
        to_flush.push_back(
            Pending{DirtySlate{IdOf(*slot), e.value, false}, e.dirty_since});
        e.dirty = false;
        e.dirty_since = 0;
        ++e.flushing;
      }
    }
  }
  std::vector<Status> results;
  results.reserve(to_flush.size());
  for (const Pending& p : to_flush) results.push_back(write_back_(p.slate));

  int flushed = 0;
  Status first_error = Status::OK();
  MutexLock lock(mutex_);
  for (size_t i = 0; i < to_flush.size(); ++i) {
    // The slot is gone only if Clear() dropped it meanwhile.
    Slot* slot = FindLocked(to_flush[i].slate.id);
    Entry* e = slot != nullptr ? &slot->second : nullptr;
    if (e != nullptr && e->flushing > 0) --e->flushing;
    if (results[i].ok()) {
      ++flushed;
      continue;
    }
    if (first_error.ok()) first_error = results[i];
    // The store refused (e.g. temporarily unavailable): the update must
    // not be silently dropped — re-mark the entry dirty so a later flush
    // retries. If the slate was updated again meanwhile it is already
    // dirty and this is a no-op.
    if (e != nullptr && !e->dirty && !e->absent) {
      e->dirty = true;
      e->dirty_since = to_flush[i].dirty_since;
    }
  }
  if (!first_error.ok()) return first_error;
  return flushed;
}

void SlateCache::Clear() {
  MutexLock lock(mutex_);
  slots_.clear();
  mru_ = nullptr;
  lru_ = nullptr;
}

size_t SlateCache::size() const {
  MutexLock lock(mutex_);
  return slots_.size();
}

}  // namespace muppet
