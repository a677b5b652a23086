#include "core/slate_cache.h"

#include <map>
#include <thread>
#include <vector>

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

TEST(SlateCacheTest, PerSlateHeapBytes) {
  MUPPET_SKIP_WITHOUT_HEAP_ACCOUNTING();
  constexpr int kSlates = 10000;
  // Ids and values within the small-string buffer, so every heap byte
  // counted is the cache's own bookkeeping.
  std::vector<SlateId> ids;
  ids.reserve(kSlates);
  for (int i = 0; i < kSlates; ++i) ids.push_back(Id("k" + std::to_string(i)));
  Sink sink;
  const size_t before = testing::HeapInUse();
  {
    SlateCache cache({.capacity = kSlates}, sink.AsWriteBack());
    for (const SlateId& id : ids) ASSERT_OK(cache.Insert(id, "v"));
    const size_t used = testing::HeapInUse() - before;
    EXPECT_LE(used / kSlates, 192u) << used << " heap bytes for " << kSlates
                                    << " slates";
  }
}

}  // namespace
}  // namespace muppet
