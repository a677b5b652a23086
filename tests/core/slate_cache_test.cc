#include "core/slate_cache.h"

#include <chrono>
#include <cstdio>
#include <list>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/sync.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

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

TEST(SlateCacheTest, LruEvictionWritesDirtyBack) {
  Sink sink;
  SlateCache cache({.capacity = 3}, sink.AsWriteBack());
  ASSERT_OK(cache.Update(Id("a"), "va", 1, false));
  ASSERT_OK(cache.Update(Id("b"), "vb", 2, false));
  ASSERT_OK(cache.Update(Id("c"), "vc", 3, false));
  ASSERT_OK(cache.Update(Id("d"), "vd", 4, false));  // evicts "a"
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(sink.store.at(Id("a")), "va") << "dirty victim must be flushed";
  Bytes out;
  EXPECT_TRUE(cache.Lookup(Id("a"), &out).IsNotFound());
  ASSERT_OK(cache.Lookup(Id("d"), &out));
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

// A plain reference for SlateCache's single-threaded behaviour: a map of
// entries and a recency list, most recent first.
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
    Touch(id);
    ++hits_;
    *absent = it->second.absent;
    if (!*absent) *value = it->second.value;
    return Status::OK();
  }

  Status Insert(const SlateId& id, BytesView value) {
    Entry& e = Upsert(id);
    e.value = Bytes(value);
    e.absent = false;
    e.dirty = false;
    Evict();
    return Status::OK();
  }

  void InsertAbsent(const SlateId& id) {
    Entry& e = Upsert(id);
    if (e.dirty) return;
    e.value.clear();
    e.absent = true;
    Evict();
  }

  Status Update(const SlateId& id, BytesView value, Timestamp now,
                bool write_through) {
    Entry& e = Upsert(id);
    e.value = Bytes(value);
    e.absent = false;
    if (write_through) {
      e.dirty = false;
    } else {
      if (!e.dirty) e.dirty_since = now;
      e.dirty = true;
    }
    Evict();
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

  Result<int> FlushDirtyFor(const std::string& updater, Timestamp before) {
    std::vector<std::pair<SlateId, Timestamp>> taken;
    std::vector<SlateCache::DirtySlate> out;
    for (const SlateId& id : recency_) {
      Entry& e = entries_.at(id);
      if (!updater.empty() && id.updater != updater) continue;
      if (e.dirty && e.dirty_since < before) {
        out.push_back({id, e.value, false});
        taken.emplace_back(id, e.dirty_since);
        e.dirty = false;
      }
    }
    int flushed = 0;
    Status first_error = Status::OK();
    for (size_t i = 0; i < out.size(); ++i) {
      Status s = write_back_(out[i]);
      if (s.ok()) {
        ++flushed;
        continue;
      }
      if (first_error.ok()) first_error = s;
      Entry& e = entries_.at(taken[i].first);
      if (!e.dirty && !e.absent) {
        e.dirty = true;
        e.dirty_since = taken[i].second;
      }
    }
    if (!first_error.ok()) return first_error;
    return flushed;
  }

  void Clear() {
    entries_.clear();
    recency_.clear();
  }

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
    std::list<SlateId>::iterator pos;
  };

  void Touch(const SlateId& id) {
    Entry& e = entries_.at(id);
    recency_.splice(recency_.begin(), recency_, e.pos);
  }

  Entry& Upsert(const SlateId& id) {
    auto [it, inserted] = entries_.try_emplace(id);
    if (inserted) {
      recency_.push_front(id);
      it->second.pos = recency_.begin();
    } else {
      Touch(id);
    }
    return it->second;
  }

  void Evict() {
    while (entries_.size() > capacity_ && recency_.size() > 1) {
      const SlateId victim = recency_.back();
      Entry& e = entries_.at(victim);
      if (e.dirty) (void)write_back_({victim, e.value, false});
      recency_.pop_back();
      entries_.erase(victim);
      ++evictions_;
    }
  }

  size_t capacity_;
  SlateCache::WriteBack write_back_;
  std::map<SlateId, Entry> entries_;
  std::list<SlateId> recency_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t evictions_ = 0;
};

// A write-back that logs every attempt and refuses some on a seeded
// schedule. Two sinks with one seed refuse the same attempts.
struct FlakySink {
  explicit FlakySink(uint64_t seed) : rng(seed) {}
  Rng rng;
  std::vector<std::string> log;

  SlateCache::WriteBack AsWriteBack() {
    return [this](const SlateCache::DirtySlate& d) -> Status {
      const bool fail = rng.Chance(0.15);
      log.push_back((fail ? "refused " : "") + d.id.updater + "/" + d.id.key +
                    (d.deleted ? " deleted" : " = " + d.value));
      return fail ? Status::Unavailable("store refused") : Status::OK();
    };
  }
};

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
    const uint64_t kind = rng.Uniform(100);
    if (kind < 15) {
      const SlateId id = random_id();
      const Bytes v = random_value();
      ASSERT_TRUE(same_status(cache.Insert(id, v), model.Insert(id, v)));
    } else if (kind < 45) {
      const SlateId id = random_id();
      const Bytes v = random_value();
      const bool write_through = rng.Chance(0.25);
      ASSERT_TRUE(same_status(cache.Update(id, v, now, write_through),
                              model.Update(id, v, now, write_through)));
    } else if (kind < 51) {
      const SlateId id = random_id();
      ASSERT_TRUE(same_status(cache.Delete(id), model.Delete(id)));
    } else if (kind < 59) {
      const SlateId id = random_id();
      cache.InsertAbsent(id);
      model.InsertAbsent(id);
    } else if (kind < 89) {
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
      Result<int> got = cache.FlushDirtyFor(updater, before);
      Result<int> want = model.FlushDirtyFor(updater, before);
      ASSERT_TRUE(same_status(got.status(), want.status()));
      if (got.ok()) {
        ASSERT_EQ(got.value(), want.value());
      }
    } else {
      cache.Clear();
      model.Clear();
    }
    ASSERT_EQ(cache.size(), model.size());
    ASSERT_EQ(cache.hits(), model.hits());
    ASSERT_EQ(cache.misses(), model.misses());
    ASSERT_EQ(cache.evictions(), model.evictions());
    ASSERT_EQ(real_sink.log, model_sink.log);
  }
}

TEST(SlateCacheTest, MatchesReferenceModel) {
  for (size_t capacity : {size_t{1}, size_t{7}, size_t{64}}) {
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      RunModel(seed, capacity, 1500);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(SlateCacheTest, LargeIndexKeepsEverySlateFindable) {
  // Past 2^16 index slots a slot's tag no longer holds its home, so
  // growth and eviction rehash the blocks' keys instead.
  constexpr int kCapacity = 70000;
  constexpr int kSlates = 100000;
  Sink sink;
  SlateCache cache({.capacity = kCapacity}, sink.AsWriteBack());
  for (int i = 0; i < kSlates; ++i) {
    ASSERT_OK(cache.Insert(Id("k" + std::to_string(i)), std::to_string(i)));
  }
  EXPECT_EQ(cache.size(), static_cast<size_t>(kCapacity));
  EXPECT_EQ(cache.evictions(), kSlates - kCapacity);
  Bytes out;
  for (int i = 0; i < kSlates; ++i) {
    const Status s = cache.Lookup(Id("k" + std::to_string(i)), &out);
    if (i < kSlates - kCapacity) {
      ASSERT_TRUE(s.IsNotFound()) << i;
    } else {
      ASSERT_OK(s);
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
  EXPECT_LE(HeapBytesPerSlate(ids, 15), 80u);
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
  EXPECT_LE(HeapBytesPerSlate(ids, 47), 120u);
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
