#include "kvstore/node.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace muppet {
namespace kv {
namespace {

using ::muppet::testing::TempDir;

NodeOptions SmallNodeOptions(const std::string& dir, Clock* clock = nullptr) {
  NodeOptions options;
  options.data_dir = dir;
  options.memtable_flush_bytes = 8 << 10;  // flush often in tests
  options.clock = clock;
  return options;
}

TEST(NodeTest, PutGetDelete) {
  TempDir dir;
  StorageNode node(SmallNodeOptions(dir.path()));
  ASSERT_OK(node.Open());
  ASSERT_OK(node.Put("cf", "row1", "col1", "hello"));
  auto got = node.Get("cf", "row1", "col1");
  ASSERT_OK(got);
  EXPECT_EQ(got.value().value, "hello");

  ASSERT_OK(node.Delete("cf", "row1", "col1"));
  EXPECT_TRUE(node.Get("cf", "row1", "col1").status().IsNotFound());
}

TEST(NodeTest, OverwriteReturnsLatest) {
  TempDir dir;
  StorageNode node(SmallNodeOptions(dir.path()));
  ASSERT_OK(node.Open());
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(node.Put("cf", "row", "col", "v" + std::to_string(i)));
  }
  EXPECT_EQ(node.Get("cf", "row", "col").value().value, "v9");
}

TEST(NodeTest, GetSpansMemtableAndSsTables) {
  TempDir dir;
  StorageNode node(SmallNodeOptions(dir.path()));
  ASSERT_OK(node.Open());
  auto cf = node.GetColumnFamily("cf");
  ASSERT_OK(cf);
  ASSERT_OK(node.Put("cf", "flushed", "c", "on-disk"));
  ASSERT_OK(cf.value()->Flush());
  ASSERT_OK(node.Put("cf", "buffered", "c", "in-memory"));
  EXPECT_EQ(node.Get("cf", "flushed", "c").value().value, "on-disk");
  EXPECT_EQ(node.Get("cf", "buffered", "c").value().value, "in-memory");
}

TEST(NodeTest, NewerMemtableShadowsOlderSsTable) {
  TempDir dir;
  StorageNode node(SmallNodeOptions(dir.path()));
  ASSERT_OK(node.Open());
  auto cf = node.GetColumnFamily("cf");
  ASSERT_OK(cf);
  ASSERT_OK(node.Put("cf", "k", "c", "old"));
  ASSERT_OK(cf.value()->Flush());
  ASSERT_OK(node.Put("cf", "k", "c", "new"));
  EXPECT_EQ(node.Get("cf", "k", "c").value().value, "new");
  // Delete shadows the SSTable version too.
  ASSERT_OK(node.Delete("cf", "k", "c"));
  ASSERT_OK(cf.value()->Flush());
  EXPECT_TRUE(node.Get("cf", "k", "c").status().IsNotFound());
}

TEST(NodeTest, AutomaticFlushOnMemtableLimit) {
  TempDir dir;
  NodeOptions options = SmallNodeOptions(dir.path());
  options.memtable_flush_bytes = 4 << 10;
  StorageNode node(options);
  ASSERT_OK(node.Open());
  auto cf = node.GetColumnFamily("cf");
  ASSERT_OK(cf);
  const std::string big(512, 'x');
  for (int i = 0; i < 64; ++i) {
    ASSERT_OK(node.Put("cf", "row" + std::to_string(i), "c", big));
  }
  EXPECT_GT(cf.value()->flush_count(), 0u);
  // Everything still readable.
  for (int i = 0; i < 64; ++i) {
    ASSERT_OK(node.Get("cf", "row" + std::to_string(i), "c").status());
  }
}

TEST(NodeTest, RecoveryFromWalAfterRestart) {
  TempDir dir;
  {
    StorageNode node(SmallNodeOptions(dir.path()));
    ASSERT_OK(node.Open());
    for (int i = 0; i < 20; ++i) {
      ASSERT_OK(node.Put("cf", "row" + std::to_string(i), "c",
                         "v" + std::to_string(i)));
    }
    // No flush: values only in WAL + memtable.
  }
  StorageNode reopened(SmallNodeOptions(dir.path()));
  ASSERT_OK(reopened.Open());
  for (int i = 0; i < 20; ++i) {
    auto got = reopened.Get("cf", "row" + std::to_string(i), "c");
    ASSERT_OK(got);
    EXPECT_EQ(got.value().value, "v" + std::to_string(i));
  }
}

TEST(NodeTest, RecoveryFromSsTablesAfterRestart) {
  TempDir dir;
  {
    StorageNode node(SmallNodeOptions(dir.path()));
    ASSERT_OK(node.Open());
    auto cf = node.GetColumnFamily("cf");
    ASSERT_OK(cf);
    ASSERT_OK(node.Put("cf", "a", "c", "1"));
    ASSERT_OK(cf.value()->Flush());
    ASSERT_OK(node.Put("cf", "b", "c", "2"));
    ASSERT_OK(cf.value()->Flush());
  }
  StorageNode reopened(SmallNodeOptions(dir.path()));
  ASSERT_OK(reopened.Open());
  EXPECT_EQ(reopened.Get("cf", "a", "c").value().value, "1");
  EXPECT_EQ(reopened.Get("cf", "b", "c").value().value, "2");
  // Seqnos continue past recovered ones: a new overwrite must win.
  ASSERT_OK(reopened.Put("cf", "a", "c", "3"));
  EXPECT_EQ(reopened.Get("cf", "a", "c").value().value, "3");
}

TEST(NodeTest, RecoveryWithoutWal) {
  TempDir dir;
  NodeOptions options = SmallNodeOptions(dir.path());
  options.enable_wal = false;
  {
    StorageNode node(options);
    ASSERT_OK(node.Open());
    auto cf = node.GetColumnFamily("cf");
    ASSERT_OK(cf);
    ASSERT_OK(node.Put("cf", "a", "c", "persisted"));
    ASSERT_OK(cf.value()->Flush());
    ASSERT_OK(node.Put("cf", "b", "c", "volatile"));
  }
  StorageNode reopened(options);
  ASSERT_OK(reopened.Open());
  EXPECT_EQ(reopened.Get("cf", "a", "c").value().value, "persisted");
  // Unflushed write is lost without a WAL.
  EXPECT_TRUE(reopened.Get("cf", "b", "c").status().IsNotFound());
}

TEST(NodeTest, TtlExpiryOnRead) {
  TempDir dir;
  SimulatedClock clock(1000000);
  StorageNode node(SmallNodeOptions(dir.path(), &clock));
  ASSERT_OK(node.Open());
  WriteOptions ttl;
  ttl.ttl_micros = 500;
  ASSERT_OK(node.Put("cf", "k", "c", "short-lived", ttl));
  EXPECT_EQ(node.Get("cf", "k", "c").value().value, "short-lived");
  clock.Advance(499);
  EXPECT_OK(node.Get("cf", "k", "c").status());
  clock.Advance(2);
  EXPECT_TRUE(node.Get("cf", "k", "c").status().IsNotFound());
}

TEST(NodeTest, TtlExpiredPurgedByCompaction) {
  TempDir dir;
  SimulatedClock clock(1000000);
  StorageNode node(SmallNodeOptions(dir.path(), &clock));
  ASSERT_OK(node.Open());
  auto cf = node.GetColumnFamily("cf");
  ASSERT_OK(cf);
  WriteOptions ttl;
  ttl.ttl_micros = 100;
  ASSERT_OK(node.Put("cf", "gone", "c", "x", ttl));
  ASSERT_OK(node.Put("cf", "stays", "c", "y"));
  clock.Advance(1000);
  ASSERT_OK(cf.value()->CompactAll());
  EXPECT_TRUE(node.Get("cf", "gone", "c").status().IsNotFound());
  EXPECT_EQ(node.Get("cf", "stays", "c").value().value, "y");
  EXPECT_EQ(cf.value()->sstable_count(), 1u);
}

TEST(NodeTest, CompactionMergesTablesAndPreservesData) {
  TempDir dir;
  NodeOptions options = SmallNodeOptions(dir.path());
  options.auto_compact = false;
  StorageNode node(options);
  ASSERT_OK(node.Open());
  auto cf = node.GetColumnFamily("cf");
  ASSERT_OK(cf);
  for (int t = 0; t < 6; ++t) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_OK(node.Put("cf", "row" + std::to_string(i), "c",
                         "gen" + std::to_string(t)));
    }
    ASSERT_OK(cf.value()->Flush());
  }
  EXPECT_EQ(cf.value()->sstable_count(), 6u);
  ASSERT_OK(cf.value()->CompactAll());
  EXPECT_EQ(cf.value()->sstable_count(), 1u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(node.Get("cf", "row" + std::to_string(i), "c").value().value,
              "gen5");
  }
}

TEST(NodeTest, AutoCompactionTriggersUnderManyFlushes) {
  TempDir dir;
  NodeOptions options = SmallNodeOptions(dir.path());
  options.memtable_flush_bytes = 2 << 10;
  options.compaction.min_threshold = 4;
  StorageNode node(options);
  ASSERT_OK(node.Open());
  auto cf = node.GetColumnFamily("cf");
  ASSERT_OK(cf);
  const std::string value(256, 'v');
  for (int i = 0; i < 400; ++i) {
    ASSERT_OK(node.Put("cf", "row" + std::to_string(i % 50), "c", value));
  }
  EXPECT_GT(cf.value()->flush_count(), 4u);
  EXPECT_GT(cf.value()->compaction_count(), 0u);
  // Read amplification bounded: far fewer tables than flushes.
  EXPECT_LT(cf.value()->sstable_count(), cf.value()->flush_count());
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(node.Get("cf", "row" + std::to_string(i), "c").status());
  }
}

TEST(NodeTest, MultipleColumnFamiliesIsolated) {
  TempDir dir;
  StorageNode node(SmallNodeOptions(dir.path()));
  ASSERT_OK(node.Open());
  ASSERT_OK(node.Put("cf1", "k", "c", "one"));
  ASSERT_OK(node.Put("cf2", "k", "c", "two"));
  EXPECT_EQ(node.Get("cf1", "k", "c").value().value, "one");
  EXPECT_EQ(node.Get("cf2", "k", "c").value().value, "two");
  const auto families = node.ColumnFamilies();
  EXPECT_EQ(families.size(), 2u);
}

TEST(NodeTest, BadColumnFamilyNameRejected) {
  TempDir dir;
  StorageNode node(SmallNodeOptions(dir.path()));
  ASSERT_OK(node.Open());
  EXPECT_FALSE(node.GetColumnFamily("").ok());
  EXPECT_FALSE(node.GetColumnFamily("a/b").ok());
}

TEST(NodeTest, GetRawExposesTombstones) {
  TempDir dir;
  StorageNode node(SmallNodeOptions(dir.path()));
  ASSERT_OK(node.Open());
  auto cf = node.GetColumnFamily("cf");
  ASSERT_OK(cf);
  ASSERT_OK(node.Put("cf", "k", "c", "v"));
  ASSERT_OK(node.Delete("cf", "k", "c"));
  auto raw = cf.value()->GetRaw("k", "c");
  ASSERT_OK(raw);
  EXPECT_TRUE(raw.value().tombstone);
}

}  // namespace
}  // namespace kv
}  // namespace muppet
