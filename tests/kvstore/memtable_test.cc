#include "kvstore/memtable.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "kvstore/node.h"
#include "tests/test_util.h"

namespace muppet {
namespace kv {
namespace {

using ::muppet::testing::TempDir;

Record MakeRecord(const Bytes& row, const Bytes& col, const Bytes& value,
                  uint64_t seqno) {
  Record rec;
  rec.key = EncodeStorageKey(row, col);
  rec.value = value;
  rec.seqno = seqno;
  return rec;
}

TEST(MemTableTest, PutGet) {
  MemTable table;
  table.Put(MakeRecord("row", "col", "v1", 1));
  Record out;
  ASSERT_TRUE(table.Get(EncodeStorageKey("row", "col"), &out));
  EXPECT_EQ(out.value, "v1");
  EXPECT_FALSE(table.Get(EncodeStorageKey("row", "other"), &out));
}

TEST(MemTableTest, OverwriteCoalesces) {
  MemTable table;
  for (int i = 0; i < 100; ++i) {
    table.Put(MakeRecord("row", "col", "v" + std::to_string(i),
                         static_cast<uint64_t>(i)));
  }
  EXPECT_EQ(table.entry_count(), 1u);
  Record out;
  ASSERT_TRUE(table.Get(EncodeStorageKey("row", "col"), &out));
  EXPECT_EQ(out.value, "v99");
  EXPECT_EQ(out.seqno, 99u);
}

TEST(MemTableTest, TombstonesStored) {
  MemTable table;
  Record del = MakeRecord("row", "col", "", 2);
  del.tombstone = true;
  table.Put(del);
  Record out;
  ASSERT_TRUE(table.Get(EncodeStorageKey("row", "col"), &out));
  EXPECT_TRUE(out.tombstone);
}

TEST(MemTableTest, SnapshotSorted) {
  MemTable table;
  table.Put(MakeRecord("c", "x", "3", 3));
  table.Put(MakeRecord("a", "x", "1", 1));
  table.Put(MakeRecord("b", "x", "2", 2));
  const auto snapshot = table.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_LT(snapshot[0].key, snapshot[1].key);
  EXPECT_LT(snapshot[1].key, snapshot[2].key);
}

TEST(MemTableTest, ApproximateBytesTracksGrowthAndClear) {
  MemTable table;
  EXPECT_EQ(table.approximate_bytes(), 0u);
  table.Put(MakeRecord("row", "col", std::string(1000, 'v'), 1));
  const size_t after_one = table.approximate_bytes();
  EXPECT_GT(after_one, 1000u);
  // Overwrite with smaller value shrinks the estimate.
  table.Put(MakeRecord("row", "col", "small", 2));
  EXPECT_LT(table.approximate_bytes(), after_one);
  table.Clear();
  EXPECT_EQ(table.approximate_bytes(), 0u);
  EXPECT_TRUE(table.empty());
}

TEST(MemTableTest, ConcurrentWritersDistinctKeys) {
  MemTable table;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, t] {
      for (int i = 0; i < kPerThread; ++i) {
        table.Put(MakeRecord("t" + std::to_string(t),
                             "c" + std::to_string(i), "v",
                             static_cast<uint64_t>(t * kPerThread + i)));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(table.entry_count(),
            static_cast<size_t>(kThreads) * kPerThread);
}

TEST(MemTableTest, PerEntryHeapBytes) {
  MUPPET_SKIP_WITHOUT_HEAP_ACCOUNTING();
  constexpr int kEntries = 10000;
  // A slate-store write's shape: 20 B storage keys, 33 B values, a clock
  // timestamp in microseconds.
  std::vector<Record> recs;
  recs.reserve(kEntries);
  for (int i = 0; i < kEntries; ++i) {
    char row[16];
    std::snprintf(row, sizeof(row), "user%06d", i);
    Record rec = MakeRecord(row, "profile_", Bytes(33, 'v'),
                            static_cast<uint64_t>(i) + 1);
    rec.write_ts = 1'700'000'000'000'000 + i;
    ASSERT_EQ(rec.key.size(), 20u);
    recs.push_back(std::move(rec));
  }
  const size_t before = testing::HeapInUse();
  {
    MemTable table;
    for (const Record& rec : recs) table.Put(rec);
    const size_t used = testing::HeapInUse() - before;
    EXPECT_LE(used / kEntries, 112u)
        << used << " heap bytes for " << kEntries << " entries";
    EXPECT_NEAR(static_cast<double>(table.approximate_bytes()),
                static_cast<double>(used), 0.25 * static_cast<double>(used))
        << "approximate_bytes() against the measured heap";
  }
}

TEST(MemTableTest, EmptyMemTableReservesNothing) {
  MUPPET_SKIP_WITHOUT_HEAP_ACCOUNTING();
  std::vector<Record> recs;
  for (int i = 0; i < 10000; ++i) {
    recs.push_back(MakeRecord("row" + std::to_string(i), "col", Bytes(33, 'v'),
                              static_cast<uint64_t>(i) + 1));
  }
  MemTable table;
  auto fill_and_clear = [&] {
    for (const Record& rec : recs) table.Put(rec);
    table.Clear();
  };
  // glibc's per-thread cache keeps a few freed chunks of each size, which
  // mallinfo2 counts as in use; the first round stocks it.
  fill_and_clear();
  const size_t before = testing::HeapInUse();
  fill_and_clear();
  // Clear() frees the slot array along with the blocks.
  EXPECT_LE(testing::HeapInUse(), before + 1024);
  EXPECT_EQ(table.approximate_bytes(), 0u);
}

TEST(MemTableTest, LargeIndexKeepsEveryKeyFindable) {
  // 100k keys take the slot array past 2^16 slots, where a block's home
  // slot no longer fits in its tag and comes from rehashing its key.
  constexpr int kKeys = 100000;
  auto key = [](int i) {
    char row[16];
    std::snprintf(row, sizeof(row), "r%07d", i);
    return EncodeStorageKey(row, "c");
  };
  MemTable table;
  for (int i = 0; i < kKeys; ++i) {
    Record rec;
    rec.key = key(i);
    rec.value = std::to_string(i);
    table.Put(rec);
  }
  // Overwrites after the growth: new blocks in the same slots.
  for (int i = 0; i < kKeys; i += 3) {
    Record rec;
    rec.key = key(i);
    rec.value = "over" + std::to_string(i);
    table.Put(rec);
  }
  ASSERT_EQ(table.entry_count(), static_cast<size_t>(kKeys));
  Record out;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(table.Get(key(i), &out)) << i;
    ASSERT_EQ(out.value, (i % 3 == 0 ? "over" : "") + std::to_string(i));
  }
  EXPECT_FALSE(table.Get(key(kKeys), &out));
  const std::vector<Record> snapshot = table.Snapshot();
  ASSERT_EQ(snapshot.size(), static_cast<size_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) ASSERT_EQ(snapshot[i].key, key(i)) << i;
}

auto Fields(const Record& r) {
  return std::tie(r.key, r.value, r.seqno, r.write_ts, r.expire_at,
                  r.tombstone);
}

// Seeded random puts, overwrites and tombstones against a std::map model.
// Keys hold the bytes EncodeStorageKey escapes (\0, \1) and bytes above
// 0x7f; some differ only in trailing 0x00 bytes, which Snapshot()'s
// zero-padded 8-byte prefixes cannot tell apart, and some are 128 B or
// longer (a two-byte key length). Values run from empty to past 16 KiB (a
// three-byte length varint), so overwrites move keys between block sizes;
// seqnos and timestamps reach the ten-byte varints near 2^63. A Shard fed
// the same writes must replay them from its WAL unchanged.
TEST(MemTableTest, MatchesReferenceMap) {
  const std::vector<Bytes> rows = {"a",
                                   Bytes("\0", 1),
                                   Bytes("\0\1", 2),
                                   "a\1b",
                                   Bytes("a\0b", 3),
                                   "ab",
                                   "\xff\x80",
                                   "user1",
                                   "user10",
                                   Bytes(126, 'k'),
                                   Bytes(126, 'k') + Bytes("\0", 1),
                                   Bytes(200, 'k')};
  const std::vector<Bytes> cols = {"",    "U1",           Bytes("c\0", 2),
                                   "\x01", Bytes("\0", 1), Bytes("\0\0", 2)};
  std::vector<std::pair<Bytes, Bytes>> pool;
  for (const Bytes& row : rows) {
    for (const Bytes& col : cols) pool.emplace_back(row, col);
  }

  TempDir dir;
  NodeOptions options;
  options.data_dir = dir.path();
  options.memtable_flush_bytes = 64u << 20;  // everything stays in the WAL
  auto node = std::make_unique<StorageNode>(options);
  ASSERT_OK(node->Open());
  auto shard = node->GetColumnFamily("cf");
  ASSERT_OK(shard);

  MemTable table;
  std::map<Bytes, Record> model;
  auto check = [&](int op) {
    for (const auto& [row, col] : pool) {
      const Bytes key = EncodeStorageKey(row, col);
      Record got;
      const auto it = model.find(key);
      ASSERT_EQ(table.Get(key, &got), it != model.end()) << "op " << op;
      if (it != model.end()) {
        EXPECT_EQ(Fields(got), Fields(it->second)) << "op " << op;
      }
    }
    const std::vector<Record> snapshot = table.Snapshot();
    ASSERT_EQ(snapshot.size(), model.size()) << "op " << op;
    size_t i = 0;
    for (const auto& [key, rec] : model) {
      EXPECT_EQ(Fields(snapshot[i++]), Fields(rec)) << "op " << op;
    }
    EXPECT_EQ(table.entry_count(), model.size());
    // In key order each row's keys, and the keys under any prefix, form
    // one run of the snapshot: the model's run for that prefix.
    std::vector<Bytes> prefixes = {"", "a", Bytes("\0", 1), "user1"};
    for (const Bytes& row : rows) prefixes.push_back(EncodeStorageKey(row, ""));
    for (const Bytes& prefix : prefixes) {
      auto run = std::lower_bound(
          snapshot.begin(), snapshot.end(), prefix,
          [](const Record& r, const Bytes& p) { return r.key < p; });
      for (auto it = model.lower_bound(prefix);
           it != model.end() && BytesView(it->first).starts_with(prefix);
           ++it, ++run) {
        ASSERT_NE(run, snapshot.end()) << "op " << op;
        EXPECT_EQ(Fields(*run), Fields(it->second)) << "op " << op;
      }
      EXPECT_TRUE(run == snapshot.end() ||
                  !BytesView(run->key).starts_with(prefix))
          << "op " << op;
    }
  };

  constexpr Timestamp kMaxTs = std::numeric_limits<Timestamp>::max();
  Rng rng(13);
  constexpr int kOps = 3000;
  for (int op = 1; op <= kOps; ++op) {
    const auto& [row, col] = pool[rng.Uniform(pool.size())];
    Record rec;
    rec.key = EncodeStorageKey(row, col);
    rec.tombstone = rng.Chance(0.15);
    if (!rec.tombstone) {
      const uint64_t shape = rng.Uniform(10);
      const size_t len = shape == 0   ? 0
                         : shape == 1 ? 16384 + rng.Uniform(4096)
                                      : rng.Uniform(200);
      rec.value = Bytes(len, static_cast<char>('a' + op % 26));
    }
    rec.seqno = rng.Chance(0.5) ? static_cast<uint64_t>(op)
                                : (uint64_t{1} << 63) - kOps / 2 + op;
    // Room below kMaxTs for the TTL, so expire_at cannot overflow.
    rec.write_ts =
        rng.Chance(0.5)
            ? kMaxTs - (1 << 21) - static_cast<Timestamp>(rng.Uniform(1 << 20))
            : 1 + static_cast<Timestamp>(op);
    const Timestamp ttl =
        rec.tombstone || rng.Chance(0.5)
            ? 0
            : 1 + static_cast<Timestamp>(rng.Uniform(1 << 20));
    rec.expire_at = ttl > 0 ? rec.write_ts + ttl : kNoExpiry;

    const WriteOptions opts{.ttl_micros = ttl, .write_ts = rec.write_ts};
    if (rec.tombstone) {
      ASSERT_OK(shard.value()->Delete(row, col, opts));
    } else {
      ASSERT_OK(shard.value()->Put(row, col, rec.value, opts));
    }
    table.Put(rec);
    model[rec.key] = std::move(rec);
    if (op % 100 == 0) {
      check(op);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  // The shard stamps its own seqnos; everything else must match the model,
  // before and after a WAL replay.
  std::vector<Record> before;
  for (const auto& [row, col] : pool) {
    auto got = shard.value()->GetRaw(row, col);
    const auto it = model.find(EncodeStorageKey(row, col));
    ASSERT_EQ(got.ok(), it != model.end());
    if (!got.ok()) continue;
    Record want = it->second;
    want.seqno = got.value().seqno;
    EXPECT_EQ(Fields(got.value()), Fields(want));
    before.push_back(std::move(got).value());
  }
  node.reset();
  node = std::make_unique<StorageNode>(options);
  ASSERT_OK(node->Open());
  shard = node->GetColumnFamily("cf");
  ASSERT_OK(shard);
  EXPECT_EQ(shard.value()->sstable_count(), 0u);
  size_t i = 0;
  for (const auto& [row, col] : pool) {
    auto got = shard.value()->GetRaw(row, col);
    if (!got.ok()) continue;
    ASSERT_LT(i, before.size());
    EXPECT_EQ(Fields(got.value()), Fields(before[i++]));
  }
  EXPECT_EQ(i, before.size());
}

}  // namespace
}  // namespace kv
}  // namespace muppet
