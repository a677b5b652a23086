#include "core/slate_cache.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "common/sync.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "workload/zipf_keys.h"

namespace muppet {
namespace {

// A write-back sink recording everything flushed.
struct Sink {
  std::map<SlateId, Bytes> store;
  std::vector<SlateId> deletes;
  int writes = 0;
  Status fail_with = Status::OK();

  SlateCache::WriteBack AsWriteBack() {
    return [this](const SlateCache::DirtySlate& dirty) -> Status {
      if (!fail_with.ok()) return fail_with;
      ++writes;
      if (dirty.deleted) {
        deletes.push_back(dirty.id);
        store.erase(dirty.id);
      } else {
        store[dirty.id] = dirty.value;
      }
      return Status::OK();
    };
  }
};

SlateId Id(const std::string& key) { return SlateId{"U1", key}; }

TEST(SlateCacheTest, InsertLookup) {
  Sink sink;
  SlateCache cache({.capacity = 10}, sink.AsWriteBack());
  ASSERT_OK(cache.Insert(Id("a"), "value-a"));
  Bytes out;
  ASSERT_OK(cache.Lookup(Id("a"), &out));
  EXPECT_EQ(out, "value-a");
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_TRUE(cache.Lookup(Id("b"), &out).IsNotFound());
  EXPECT_EQ(cache.misses(), 1);
}

TEST(SlateCacheTest, UpdateMarksDirtyAndFlushes) {
  Sink sink;
  SlateCache cache({.capacity = 10}, sink.AsWriteBack());
  ASSERT_OK(cache.Update(Id("a"), "v1", /*now=*/100, /*write_through=*/false));
  EXPECT_EQ(sink.writes, 0) << "interval policy: no immediate write";
  auto flushed = cache.FlushDirty(INT64_MAX);
  ASSERT_OK(flushed);
  EXPECT_EQ(flushed.value(), 1);
  EXPECT_EQ(sink.store.at(Id("a")), "v1");
  // Second flush is a no-op: nothing dirty.
  EXPECT_EQ(cache.FlushDirty(INT64_MAX).value(), 0);
}

TEST(SlateCacheTest, WriteThroughFlushesImmediately) {
  Sink sink;
  SlateCache cache({.capacity = 10}, sink.AsWriteBack());
  ASSERT_OK(cache.Update(Id("a"), "v1", 100, /*write_through=*/true));
  EXPECT_EQ(sink.writes, 1);
  EXPECT_EQ(sink.store.at(Id("a")), "v1");
  EXPECT_EQ(cache.FlushDirty(INT64_MAX).value(), 0);
}

TEST(SlateCacheTest, FlushRespectsDirtyBefore) {
  Sink sink;
  SlateCache cache({.capacity = 10}, sink.AsWriteBack());
  ASSERT_OK(cache.Update(Id("old"), "v", /*now=*/100, false));
  ASSERT_OK(cache.Update(Id("new"), "v", /*now=*/500, false));
  // Flush only entries dirty since before t=300.
  EXPECT_EQ(cache.FlushDirty(300).value(), 1);
  EXPECT_TRUE(sink.store.count(Id("old")) > 0);
  EXPECT_TRUE(sink.store.count(Id("new")) == 0);
}

TEST(SlateCacheTest, FlushDirtyForFiltersUpdater) {
  Sink sink;
  SlateCache cache({.capacity = 10}, sink.AsWriteBack());
  ASSERT_OK(cache.Update(SlateId{"U1", "k"}, "v1", 100, false));
  ASSERT_OK(cache.Update(SlateId{"U2", "k"}, "v2", 100, false));
  EXPECT_EQ(cache.FlushDirtyFor("U1", INT64_MAX).value(), 1);
  EXPECT_EQ(sink.store.count(SlateId{"U1", "k"}), 1u);
  EXPECT_EQ(sink.store.count(SlateId{"U2", "k"}), 0u);
  EXPECT_EQ(cache.FlushDirtyFor("U3", INT64_MAX).value(), 0);
  // One key under two updaters is two slates.
  EXPECT_EQ(cache.size(), 2u);
  Bytes out;
  ASSERT_OK(cache.Lookup(SlateId{"U2", "k"}, &out));
  EXPECT_EQ(out, "v2");
}

TEST(SlateCacheTest, EvictionWritesDirtyBack) {
  Sink sink;
  SlateCache cache({.capacity = 3}, sink.AsWriteBack());
  ASSERT_OK(cache.Update(Id("a"), "va", 1, false));
  ASSERT_OK(cache.Update(Id("b"), "vb", 2, false));
  ASSERT_OK(cache.Update(Id("c"), "vc", 3, false));
  ASSERT_OK(cache.Update(Id("d"), "vd", 4, false));  // evicts one of a/b/c
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 1);
  ASSERT_EQ(sink.store.size(), 1u) << "dirty victim must be flushed";
  const auto& [victim, value] = *sink.store.begin();
  EXPECT_EQ(value, "v" + victim.key);
  Bytes out;
  for (const char* key : {"a", "b", "c"}) {
    const Status s = cache.Lookup(Id(key), &out);
    if (Id(key) == victim) {
      EXPECT_TRUE(s.IsNotFound()) << key;
    } else {
      EXPECT_OK(s);
      EXPECT_EQ(out, std::string("v") + key);
    }
  }
  ASSERT_OK(cache.Lookup(Id("d"), &out));
  EXPECT_EQ(out, "vd");
}

TEST(SlateCacheTest, LookupRefreshesRecency) {
  Sink sink;
  SlateCache cache({.capacity = 2}, sink.AsWriteBack());
  ASSERT_OK(cache.Insert(Id("a"), "va"));
  ASSERT_OK(cache.Insert(Id("b"), "vb"));
  Bytes out;
  ASSERT_OK(cache.Lookup(Id("a"), &out));  // "a" is now MRU
  ASSERT_OK(cache.Insert(Id("c"), "vc"));  // evicts "b"
  ASSERT_OK(cache.Lookup(Id("a"), &out));
  EXPECT_TRUE(cache.Lookup(Id("b"), &out).IsNotFound());
}

TEST(SlateCacheTest, DeleteWritesThroughAndCachesAbsence) {
  Sink sink;
  SlateCache cache({.capacity = 10}, sink.AsWriteBack());
  ASSERT_OK(cache.Update(Id("a"), "v", 1, false));
  ASSERT_OK(cache.Delete(Id("a")));
  EXPECT_EQ(sink.deletes.size(), 1u);
  Bytes out;
  bool absent = false;
  ASSERT_OK(cache.LookupWithAbsent(Id("a"), &out, &absent));
  EXPECT_TRUE(absent);
  EXPECT_TRUE(cache.Lookup(Id("a"), &out).IsNotFound());
}

TEST(SlateCacheTest, AbsentMarkerNegativeCache) {
  Sink sink;
  SlateCache cache({.capacity = 10}, sink.AsWriteBack());
  cache.InsertAbsent(Id("ghost"));
  Bytes out;
  bool absent = false;
  ASSERT_OK(cache.LookupWithAbsent(Id("ghost"), &out, &absent));
  EXPECT_TRUE(absent);
  // An update overwrites the absent marker.
  ASSERT_OK(cache.Update(Id("ghost"), "now-real", 1, false));
  absent = false;
  ASSERT_OK(cache.LookupWithAbsent(Id("ghost"), &out, &absent));
  EXPECT_FALSE(absent);
  EXPECT_EQ(out, "now-real");
}

TEST(SlateCacheTest, InsertAbsentDoesNotClobberDirty) {
  Sink sink;
  SlateCache cache({.capacity = 10}, sink.AsWriteBack());
  ASSERT_OK(cache.Update(Id("a"), "dirty-value", 1, false));
  cache.InsertAbsent(Id("a"));  // racing store miss must not clobber
  Bytes out;
  ASSERT_OK(cache.Lookup(Id("a"), &out));
  EXPECT_EQ(out, "dirty-value");
}

TEST(SlateCacheTest, StoreReadNeverReplacesACachedSlate) {
  // A live read (FetchSlate) takes no slate lock. It misses, reads v0 from
  // the store, and an updater caches v0 and updates the slate to v1 before
  // the read's own insert of v0 lands. That insert must not bring v0 back.
  Sink sink;
  SlateCache cache({.capacity = 10}, sink.AsWriteBack());
  Bytes out;
  ASSERT_TRUE(cache.Lookup(Id("a"), &out).IsNotFound());
  ASSERT_OK(cache.Insert(Id("a"), "v0"));
  ASSERT_OK(cache.Update(Id("a"), "v1", /*now=*/1, /*write_through=*/false));
  (void)cache.Insert(Id("a"), "v0");
  ASSERT_OK(cache.Lookup(Id("a"), &out));
  EXPECT_EQ(out, "v1");
  auto flushed = cache.FlushDirty(INT64_MAX);
  ASSERT_OK(flushed);
  EXPECT_EQ(flushed.value(), 1);
  EXPECT_EQ(sink.store[Id("a")], "v1");
}

TEST(SlateCacheTest, StoreReadReturnsWhatTheCacheHolds) {
  Sink sink;
  SlateCache cache({.capacity = 10}, sink.AsWriteBack());
  Bytes held;
  ASSERT_OK(cache.Insert(Id("a"), "v0", &held));
  EXPECT_EQ(held, "v0");
  // A write-through update leaves the slate clean; a stale read still
  // loses to it.
  ASSERT_OK(cache.Update(Id("a"), "v1", 1, /*write_through=*/true));
  ASSERT_OK(cache.Insert(Id("a"), "v0", &held));
  EXPECT_EQ(held, "v1");
  EXPECT_TRUE(cache.InsertAbsent(Id("a"), &held).ok());
  EXPECT_EQ(held, "v1");
  // A delete that raced in wins too: the read reports no slate.
  ASSERT_OK(cache.Delete(Id("a")));
  EXPECT_TRUE(cache.Insert(Id("a"), "v1", &held).IsNotFound());
  EXPECT_TRUE(cache.InsertAbsent(Id("b"), &held).IsNotFound());
  EXPECT_TRUE(cache.InsertAbsent(Id("b"), &held).IsNotFound());
  bool absent = false;
  ASSERT_OK(cache.LookupWithAbsent(Id("a"), &held, &absent));
  EXPECT_TRUE(absent);
}

TEST(SlateCacheTest, FailedWriteBackSurfacesOnFlush) {
  Sink sink;
  sink.fail_with = Status::Unavailable("store down");
  SlateCache cache({.capacity = 10}, sink.AsWriteBack());
  ASSERT_OK(cache.Update(Id("a"), "v", 1, false));
  auto flushed = cache.FlushDirty(INT64_MAX);
  EXPECT_FALSE(flushed.ok());
}

TEST(SlateCacheTest, CapacityOneWorks) {
  Sink sink;
  SlateCache cache({.capacity = 1}, sink.AsWriteBack());
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK(cache.Update(Id("k" + std::to_string(i)), "v", i, false));
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 19);
  // All evicted values reached the store.
  EXPECT_EQ(sink.store.size(), 19u);
}

TEST(SlateCacheTest, EvictionSkipsSlateWhoseFlushIsInFlight) {
  // FlushDirty marks a slate clean under the lock and writes it back after
  // releasing it. Evicting the slate in that gap would leave it in neither
  // the cache nor the store, and a reader would then cache its absence.
  Mutex mu{LockLevel::kUnordered};
  CondVar cv;
  bool entered = false;
  bool release = false;
  std::map<SlateId, Bytes> store;
  SlateCache cache({.capacity = 2}, [&](const SlateCache::DirtySlate& d) {
    MutexLock lock(mu);
    entered = true;
    cv.NotifyAll();
    while (!release) cv.Wait(mu);
    store[d.id] = d.value;
    return Status::OK();
  });
  ASSERT_OK(cache.Update(Id("a"), "va", /*now=*/1, /*write_through=*/false));
  ASSERT_OK(cache.Insert(Id("b"), "vb"));

  Result<int> flushed = 0;
  std::thread flusher([&] { flushed = cache.FlushDirty(INT64_MAX); });
  {
    MutexLock lock(mu);
    while (!entered) cv.Wait(mu);
  }
  // "a" is least recently used and its write-back is blocked mid-flush:
  // these inserts must evict around it. (EXPECTs only until the flusher
  // is joined.)
  EXPECT_OK(cache.Insert(Id("c"), "vc"));
  EXPECT_OK(cache.Insert(Id("d"), "vd"));
  EXPECT_EQ(cache.evictions(), 2);
  Bytes out;
  EXPECT_OK(cache.Lookup(Id("a"), &out));
  EXPECT_EQ(out, "va");
  EXPECT_TRUE(cache.Lookup(Id("b"), &out).IsNotFound());

  {
    MutexLock lock(mu);
    release = true;
    cv.NotifyAll();
  }
  flusher.join();
  ASSERT_OK(flushed);
  EXPECT_EQ(flushed.value(), 1);
  EXPECT_EQ(store.at(Id("a")), "va");
  // Landed: "a" is evictable again, in LRU order.
  ASSERT_OK(cache.Lookup(Id("d"), &out));
  ASSERT_OK(cache.Insert(Id("e"), "ve"));
  EXPECT_TRUE(cache.Lookup(Id("a"), &out).IsNotFound());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(SlateCacheTest, DeleteAfterInFlightFlushStaysDeleted) {
  // FlushDirty captures "va", marks the slate clean and writes it back
  // after releasing the lock. A Delete in that gap must reach the store
  // after "va", or the deleted slate reads back once the cache lets go.
  Mutex mu{LockLevel::kUnordered};
  CondVar cv;
  bool entered = false;
  bool release = false;
  std::map<SlateId, Bytes> store;
  std::vector<std::string> writes;  // in the order they reached the store
  SlateCache cache({.capacity = 4}, [&](const SlateCache::DirtySlate& d) {
    MutexLock lock(mu);
    if (!d.deleted) {
      entered = true;
      cv.NotifyAll();
      while (!release) cv.Wait(mu);
      store[d.id] = d.value;
    } else {
      store.erase(d.id);
    }
    writes.push_back(d.deleted ? "delete" : "put " + d.value);
    return Status::OK();
  });
  ASSERT_OK(cache.Update(Id("a"), "va", /*now=*/1, /*write_through=*/false));

  Result<int> flushed = 0;
  std::thread flusher([&] { flushed = cache.FlushDirty(INT64_MAX); });
  {
    MutexLock lock(mu);
    while (!entered) cv.Wait(mu);
  }
  Status deleted = Status::OK();
  std::thread deleter([&] { deleted = cache.Delete(Id("a")); });
  // Give an unordered delete time to overtake the blocked write-back; an
  // ordered one waits for it, so the wait ends on the deadline.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  while (std::chrono::steady_clock::now() < deadline) {
    {
      MutexLock lock(mu);
      if (!writes.empty()) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    MutexLock lock(mu);
    release = true;
    cv.NotifyAll();
  }
  flusher.join();
  deleter.join();
  ASSERT_OK(flushed);
  ASSERT_OK(deleted);
  EXPECT_EQ(writes, (std::vector<std::string>{"put va", "delete"}));
  EXPECT_EQ(store.count(Id("a")), 0u) << "the deleted slate came back";
  Bytes out;
  bool absent = false;
  ASSERT_OK(cache.LookupWithAbsent(Id("a"), &out, &absent));
  EXPECT_TRUE(absent);
}

}  // namespace

// Reads a SlateCache's contents without marking anything referenced or
// counting a hit, so a test can learn which slates eviction chose.
class SlateCacheTestPeer {
 public:
  static bool Holds(SlateCache& cache, const SlateId& id) {
    MutexLock lock(cache.mutex_);
    return cache.FindLocked(id) != nullptr;
  }
};

namespace {

// A plain reference for SlateCache's single-threaded behaviour: a map of
// entries. Which slate an eviction drops is the cache's choice; the model
// learns it afterwards (Evict) and checks everything else.
class ReferenceCache {
 public:
  ReferenceCache(size_t capacity, SlateCache::WriteBack write_back)
      : capacity_(capacity), write_back_(std::move(write_back)) {}

  Status LookupWithAbsent(const SlateId& id, Bytes* value, bool* absent) {
    auto it = entries_.find(id);
    if (it == entries_.end()) {
      ++misses_;
      return Status::NotFound("miss");
    }
    ++hits_;
    *absent = it->second.absent;
    if (!*absent) *value = it->second.value;
    return Status::OK();
  }

  // Both keep a cached entry and report what is held.
  Status Insert(const SlateId& id, BytesView value, Bytes* held) {
    auto [it, added] = entries_.try_emplace(id);
    if (added) it->second.value = Bytes(value);
    return Held(it->second, held);
  }

  Status InsertAbsent(const SlateId& id, Bytes* held) {
    auto [it, added] = entries_.try_emplace(id);
    if (added) it->second.absent = true;
    return Held(it->second, held);
  }

  Status Update(const SlateId& id, BytesView value, Timestamp now,
                bool write_through) {
    Entry& e = entries_[id];
    e.value = Bytes(value);
    e.absent = false;
    if (write_through) {
      e.dirty = false;
    } else {
      if (!e.dirty) e.dirty_since = now;
      e.dirty = true;
    }
    if (write_through) return write_back_({id, Bytes(value), false});
    return Status::OK();
  }

  Status Delete(const SlateId& id) {
    auto it = entries_.find(id);
    if (it != entries_.end()) {
      it->second.value.clear();
      it->second.absent = true;
      it->second.dirty = false;
    }
    return write_back_({id, Bytes(), true});
  }

  // As SlateCache::FlushDirtyFor; `in_flight` runs once the slates are
  // taken and before any is written back, with their ids.
  Result<int> FlushDirtyFor(
      const std::string& updater, Timestamp before,
      const std::function<void(const std::set<SlateId>&)>& in_flight) {
    std::vector<std::pair<SlateId, Timestamp>> taken;
    std::vector<SlateCache::DirtySlate> out;
    std::set<SlateId> ids;
    for (auto& [id, e] : entries_) {
      if (!updater.empty() && id.updater != updater) continue;
      if (e.dirty && e.dirty_since < before) {
        out.push_back({id, e.value, false});
        taken.emplace_back(id, e.dirty_since);
        ids.insert(id);
        e.dirty = false;
      }
    }
    if (!out.empty()) in_flight(ids);
    int flushed = 0;
    Status first_error = Status::OK();
    for (size_t i = 0; i < out.size(); ++i) {
      Status s = write_back_(out[i]);
      if (s.ok()) {
        ++flushed;
        continue;
      }
      if (first_error.ok()) first_error = s;
      auto it = entries_.find(taken[i].first);
      if (it != entries_.end() && !it->second.dirty && !it->second.absent) {
        it->second.dirty = true;
        it->second.dirty_since = taken[i].second;
      }
    }
    if (!first_error.ok()) return first_error;
    return flushed;
  }

  // Drops every entry that `cache` no longer holds, writing back the
  // dirty ones as the cache did. Checks that the victims are as many as
  // the cache had to evict (`evicting`: the operation could evict) and
  // that none is `handed` or in `in_flight`.
  void Evict(SlateCache& cache, bool evicting, const SlateId* handed,
             const std::set<SlateId>& in_flight) {
    size_t candidates = 0;
    for (const auto& [id, e] : entries_) {
      if (in_flight.count(id) == 0 && (handed == nullptr || id != *handed)) {
        ++candidates;
      }
    }
    const size_t over = entries_.size() > capacity_
                            ? entries_.size() - capacity_
                            : 0;
    const size_t want = evicting ? std::min(over, candidates) : 0;
    size_t victims = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (SlateCacheTestPeer::Holds(cache, it->first)) {
        ++it;
        continue;
      }
      EXPECT_TRUE(handed == nullptr || it->first != *handed)
          << "evicted the slate it was just handed";
      EXPECT_EQ(in_flight.count(it->first), 0u)
          << "evicted a slate whose write-back was in flight";
      if (it->second.dirty) {
        (void)write_back_({it->first, it->second.value, false});
      }
      it = entries_.erase(it);
      ++victims;
      ++evictions_;
    }
    EXPECT_EQ(victims, want);
  }

  void Clear() { entries_.clear(); }

  size_t size() const { return entries_.size(); }
  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }
  int64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    Bytes value;
    Timestamp dirty_since = 0;
    bool dirty = false;
    bool absent = false;
  };

  static Status Held(const Entry& e, Bytes* held) {
    if (e.absent) return Status::NotFound("negative entry");
    *held = e.value;
    return Status::OK();
  }

  size_t capacity_;
  SlateCache::WriteBack write_back_;
  std::map<SlateId, Entry> entries_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t evictions_ = 0;
};

// A write-back that logs every attempt and refuses some on a seeded
// schedule. Two sinks with one seed refuse the same attempts, in whatever
// order they come: the n-th attempt of one write is refused or not by the
// seed, the write and n alone.
struct FlakySink {
  explicit FlakySink(uint64_t seed) : seed(seed) {}
  uint64_t seed;
  std::map<std::string, uint64_t> attempts;
  std::vector<std::string> log;
  // Runs inside the next write-back, then is cleared.
  std::function<void()> during_next;

  SlateCache::WriteBack AsWriteBack() {
    return [this](const SlateCache::DirtySlate& d) -> Status {
      if (during_next) std::exchange(during_next, nullptr)();
      const std::string write = d.id.updater + "/" + d.id.key +
                                (d.deleted ? " deleted" : " = " + d.value);
      const uint64_t nth = attempts[write]++;
      const bool fail =
          Rng(HashCombine(seed, HashCombine(Fnv1a64(write), nth))).Chance(0.15);
      log.push_back((fail ? "refused " : "") + write);
      return fail ? Status::Unavailable("store refused") : Status::OK();
    };
  }
};

// The write-backs logged since entry `from`, in sorted order: within one
// operation the cache's order of write-backs is its own.
std::vector<std::string> LoggedSince(const FlakySink& sink, size_t from) {
  std::vector<std::string> out(sink.log.begin() + from, sink.log.end());
  std::sort(out.begin(), out.end());
  return out;
}

// Runs `ops` random operations on a SlateCache and on ReferenceCache and
// compares every result, the caches' counters and the write-back logs.
void RunModel(uint64_t seed, size_t capacity, int ops) {
  SCOPED_TRACE(::testing::Message() << "seed=" << seed
                                    << " capacity=" << capacity);
  FlakySink real_sink(seed);
  FlakySink model_sink(seed);
  SlateCache cache({.capacity = capacity}, real_sink.AsWriteBack());
  ReferenceCache model(capacity, model_sink.AsWriteBack());
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + capacity);

  const std::vector<std::string> updaters = {"U1", "U2"};
  const size_t keys = 2 * capacity + 3;
  // Value sizes straddle the block size classes, so updates both fit in
  // place and move the block.
  const std::vector<size_t> value_sizes = {0,  1,  7,  15, 16,  24,
                                           25, 47, 48, 90, 200, 1000};
  auto random_id = [&] {
    SlateId id{updaters[rng.Uniform(updaters.size())],
               "k" + std::to_string(rng.Uniform(keys))};
    if (rng.Chance(0.05)) id.key += Bytes(300, 'x');  // past the 1-byte length
    return id;
  };
  auto random_value = [&] {
    Bytes v(value_sizes[rng.Uniform(value_sizes.size())], ' ');
    for (char& c : v) c = static_cast<char>('a' + rng.Uniform(26));
    return v;
  };
  auto same_status = [](const Status& a, const Status& b) {
    return a.code() == b.code();
  };

  Timestamp now = 0;
  for (int op = 0; op < ops; ++op) {
    SCOPED_TRACE(::testing::Message() << "op " << op);
    now += 1 + static_cast<Timestamp>(rng.Uniform(5));
    const size_t logged = real_sink.log.size();
    ASSERT_EQ(model_sink.log.size(), logged);
    const uint64_t kind = rng.Uniform(100);
    bool evicting = true;
    std::optional<SlateId> handed;
    std::set<SlateId> in_flight;
    if (kind < 23) {
      const SlateId id = random_id();
      Bytes got, want;
      if (kind < 15) {
        const Bytes v = random_value();
        ASSERT_TRUE(same_status(cache.Insert(id, v, &got),
                                model.Insert(id, v, &want)));
      } else {
        ASSERT_TRUE(same_status(cache.InsertAbsent(id, &got),
                                model.InsertAbsent(id, &want)));
      }
      ASSERT_EQ(got, want);
      handed = id;
    } else if (kind < 53) {
      const SlateId id = random_id();
      const Bytes v = random_value();
      const bool write_through = rng.Chance(0.25);
      ASSERT_TRUE(same_status(cache.Update(id, v, now, write_through),
                              model.Update(id, v, now, write_through)));
      handed = id;
    } else if (kind < 59) {
      evicting = false;
      const SlateId id = random_id();
      ASSERT_TRUE(same_status(cache.Delete(id), model.Delete(id)));
    } else if (kind < 89) {
      evicting = false;
      const SlateId id = random_id();
      Bytes got, want;
      bool got_absent = false, want_absent = false;
      ASSERT_TRUE(same_status(cache.LookupWithAbsent(id, &got, &got_absent),
                              model.LookupWithAbsent(id, &want, &want_absent)));
      ASSERT_EQ(got_absent, want_absent);
      ASSERT_EQ(got, want);
    } else if (kind < 99) {
      const std::string updater =
          std::vector<std::string>{"", "U1", "U2", "U3"}[rng.Uniform(4)];
      const Timestamp before =
          rng.Chance(0.3) ? INT64_MAX
                          : now - static_cast<Timestamp>(rng.Uniform(40));
      // Half the flushes take a store read's insert while their
      // write-backs are in flight; it may evict, but none of them.
      evicting = rng.Chance(0.5);
      const SlateId id = random_id();
      const Bytes v = random_value();
      Status got_insert, want_insert;
      Bytes got_held, want_held;
      if (evicting) {
        real_sink.during_next = [&] {
          got_insert = cache.Insert(id, v, &got_held);
        };
      }
      Result<int> got = cache.FlushDirtyFor(updater, before);
      bool inserted = false;
      Result<int> want = model.FlushDirtyFor(
          updater, before, [&](const std::set<SlateId>& ids) {
            if (!evicting) return;
            in_flight = ids;
            want_insert = model.Insert(id, v, &want_held);
            inserted = true;
          });
      if (!inserted) {
        evicting = false;  // nothing was written back, so nothing inserted
        real_sink.during_next = nullptr;
      }
      ASSERT_TRUE(same_status(got.status(), want.status()));
      if (got.ok()) {
        ASSERT_EQ(got.value(), want.value());
      }
      ASSERT_TRUE(same_status(got_insert, want_insert));
      ASSERT_EQ(got_held, want_held);
      if (inserted) handed = id;
    } else {
      evicting = false;
      cache.Clear();
      model.Clear();
    }
    model.Evict(cache, evicting, handed ? &*handed : nullptr, in_flight);
    if (::testing::Test::HasFailure()) return;
    ASSERT_EQ(cache.size(), model.size());
    ASSERT_EQ(cache.hits(), model.hits());
    ASSERT_EQ(cache.misses(), model.misses());
    ASSERT_EQ(cache.evictions(), model.evictions());
    ASSERT_EQ(LoggedSince(real_sink, logged), LoggedSince(model_sink, logged));
  }
}

TEST(SlateCacheTest, MatchesReferenceModel) {
  for (size_t capacity : {size_t{1}, size_t{7}, size_t{64}}) {
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      RunModel(seed, capacity, 1500);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// Hits of an exact LRU cache of `capacity` slates on `keys`, each miss
// followed by an insert: the recency order SlateCache kept before CLOCK.
int64_t LruHits(const std::vector<Bytes>& keys, size_t capacity) {
  std::list<Bytes> recency;  // most recent first
  std::map<Bytes, std::list<Bytes>::iterator> where;
  int64_t hits = 0;
  for (const Bytes& key : keys) {
    if (auto it = where.find(key); it != where.end()) {
      ++hits;
      recency.splice(recency.begin(), recency, it->second);
      continue;
    }
    recency.push_front(key);
    where[key] = recency.begin();
    if (recency.size() > capacity) {
      where.erase(recency.back());
      recency.pop_back();
    }
  }
  return hits;
}

TEST(SlateCacheTest, ClockHitsKeepUpWithLruOnZipfKeys) {
  // E13a's shape (Zipf 1.0 slate popularity), smaller: CLOCK approximates
  // LRU, and on skewed keys may lose at most a point of hit rate to it.
  constexpr int kAccesses = 100000;
  workload::ZipfKeyGenerator zipf(20000, 1.0, "s", 13);
  std::vector<Bytes> keys;
  for (int i = 0; i < kAccesses; ++i) keys.push_back(zipf.Next());
  for (const size_t capacity : {size_t{100}, size_t{1000}, size_t{5000}}) {
    SCOPED_TRACE(::testing::Message() << "capacity=" << capacity);
    Sink sink;
    SlateCache cache({.capacity = capacity}, sink.AsWriteBack());
    Bytes out;
    for (const Bytes& key : keys) {
      if (cache.Lookup(Id(key), &out).IsNotFound()) {
        ASSERT_OK(cache.Insert(Id(key), "v"));
      }
    }
    const double clock_pct = 100.0 * cache.hits() / kAccesses;
    const double lru_pct = 100.0 * LruHits(keys, capacity) / kAccesses;
    EXPECT_GE(clock_pct, lru_pct - 1.0) << "LRU " << lru_pct << "%";
  }
}

TEST(SlateCacheTest, LargeIndexKeepsEverySlateFindable) {
  // Past 2^16 index slots a slot's tag no longer holds its home, so
  // growth and eviction rehash the blocks' keys instead. Dirty slates
  // make every victim show in the write-back log.
  constexpr int kCapacity = 70000;
  constexpr int kSlates = 100000;
  Sink sink;
  SlateCache cache({.capacity = kCapacity}, sink.AsWriteBack());
  for (int i = 0; i < kSlates; ++i) {
    ASSERT_OK(cache.Update(Id("k" + std::to_string(i)), std::to_string(i),
                           /*now=*/i, /*write_through=*/false));
  }
  EXPECT_EQ(cache.size(), static_cast<size_t>(kCapacity));
  EXPECT_EQ(cache.evictions(), kSlates - kCapacity);
  EXPECT_EQ(sink.store.size(), static_cast<size_t>(kSlates - kCapacity));
  Bytes out;
  for (int i = 0; i < kSlates; ++i) {
    const SlateId id = Id("k" + std::to_string(i));
    const Status s = cache.Lookup(id, &out);
    const auto stored = sink.store.find(id);
    if (stored != sink.store.end()) {
      ASSERT_TRUE(s.IsNotFound()) << i << " is both cached and evicted";
      ASSERT_EQ(stored->second, std::to_string(i));
    } else {
      ASSERT_TRUE(s.ok()) << i << " is neither cached nor written back";
      ASSERT_EQ(out, std::to_string(i));
    }
  }
}

// Heap bytes per slate for `ids.size()` slates of `value_bytes`-byte
// values in one cache.
size_t HeapBytesPerSlate(const std::vector<SlateId>& ids, size_t value_bytes) {
  const int n = static_cast<int>(ids.size());
  const Bytes value(value_bytes, 'v');
  Sink sink;
  const size_t before = testing::HeapInUse();
  SlateCache cache({.capacity = static_cast<size_t>(n)}, sink.AsWriteBack());
  for (const SlateId& id : ids) EXPECT_OK(cache.Insert(id, value));
  return (testing::HeapInUse() - before) / n;
}

TEST(SlateCacheTest, PerSlateHeapBytes) {
  MUPPET_SKIP_WITHOUT_HEAP_ACCOUNTING();
  // count-m2's shape: keys k0..k9999 and {"count":n} values of at most
  // 15 bytes.
  std::vector<SlateId> ids;
  for (int i = 0; i < 10000; ++i) ids.push_back(Id("k" + std::to_string(i)));
  EXPECT_LE(HeapBytesPerSlate(ids, 15), 64u);
}

TEST(SlateCacheTest, PerSlateHeapBytesWithJsonValues) {
  MUPPET_SKIP_WITHOUT_HEAP_ACCOUNTING();
  // tweets-eo's shape: 7-byte keys and 47-byte JSON profile values, which
  // no small-string buffer holds.
  std::vector<SlateId> ids;
  for (int i = 0; i < 10000; ++i) {
    char key[8];
    std::snprintf(key, sizeof(key), "u%06d", i);
    ids.push_back(Id(key));
  }
  EXPECT_LE(HeapBytesPerSlate(ids, 47), 104u);
}

TEST(SlateCacheTest, EmptyCacheReservesNothingForCapacity) {
  MUPPET_SKIP_WITHOUT_HEAP_ACCOUNTING();
  Sink sink;
  const size_t before = testing::HeapInUse();
  auto cache = std::make_unique<SlateCache>(
      SlateCacheOptions{.capacity = 16384}, sink.AsWriteBack());
  EXPECT_LE(testing::HeapInUse() - before, 1024u);
}

}  // namespace
}  // namespace muppet
