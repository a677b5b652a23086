#include "kvstore/node.h"

#include <filesystem>
#include <fstream>
#include <iterator>
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

// ---------------------------------------------------------------------------
// The write-ahead log (a framed log, common/framed_log.h) through the node:
// what a restart replays after the log was cut or damaged.
// ---------------------------------------------------------------------------

// A node with the default (large) memtable, so nothing flushes and every
// row below lives only in the memtable and the WAL.
NodeOptions WalOnlyOptions(const std::string& dir) {
  NodeOptions options;
  options.data_dir = dir;
  return options;
}

std::string WalPath(const std::string& dir) { return dir + "/cf/wal.log"; }

// Write rows row<from>..row<to - 1> to column family "cf"; the node's
// destructor closes the WAL without a flush.
void WriteRows(const std::string& dir, int from, int to) {
  StorageNode node(WalOnlyOptions(dir));
  ASSERT_OK(node.Open());
  for (int i = from; i < to; ++i) {
    ASSERT_OK(node.Put("cf", "row" + std::to_string(i), "c",
                       "v" + std::to_string(i)));
  }
}

// Reopen the node and return how many of row0..row<n - 1> it finds;
// `prefix` is set when the found rows are exactly row0..row<found - 1>.
size_t RowsFound(const std::string& dir, int n, bool* prefix = nullptr) {
  StorageNode node(WalOnlyOptions(dir));
  EXPECT_OK(node.Open());
  size_t found = 0;
  bool is_prefix = true;
  for (int i = 0; i < n; ++i) {
    auto got = node.Get("cf", "row" + std::to_string(i), "c");
    if (!got.ok()) continue;
    EXPECT_EQ(got.value().value, "v" + std::to_string(i));
    if (found != static_cast<size_t>(i)) is_prefix = false;
    ++found;
  }
  if (prefix != nullptr) *prefix = is_prefix;
  return found;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void FlipByte(const std::string& path, size_t offset) {
  std::string bytes = ReadFile(path);
  ASSERT_LT(offset, bytes.size());
  bytes[offset] ^= 0x40;
  WriteFile(path, bytes);
}

void CutTail(const std::string& path, size_t bytes) {
  const auto size = std::filesystem::file_size(path);
  ASSERT_GT(size, bytes);
  std::filesystem::resize_file(path, size - bytes);
}

TEST(WalTest, AppendAndReplay) {
  TempDir dir;
  WriteRows(dir.path(), 0, 50);
  bool prefix = false;
  EXPECT_EQ(RowsFound(dir.path(), 50, &prefix), 50u);
  EXPECT_TRUE(prefix);
}

TEST(WalTest, MissingFileReplaysEmpty) {
  TempDir dir;
  EXPECT_EQ(RowsFound(dir.path(), 10), 0u);
  // Opening the column family created an empty log.
  EXPECT_EQ(std::filesystem::file_size(WalPath(dir.path())), 0u);
}

TEST(WalTest, TornTailToleratedPrefixKept) {
  TempDir dir;
  WriteRows(dir.path(), 0, 10);
  CutTail(WalPath(dir.path()), 5);  // a crash mid-write
  bool prefix = false;
  EXPECT_EQ(RowsFound(dir.path(), 10, &prefix), 9u);  // the torn row is lost
  EXPECT_TRUE(prefix);
}

// Rows written after a torn tail must survive the next restart: the reopen
// truncates the torn frame instead of appending behind it, where no replay
// would reach.
TEST(WalTest, WritesAfterATornTailSurviveTheNextRestart) {
  TempDir dir;
  WriteRows(dir.path(), 0, 10);
  CutTail(WalPath(dir.path()), 5);
  WriteRows(dir.path(), 10, 20);
  EXPECT_EQ(RowsFound(dir.path(), 20), 19u);  // all but the torn row9
}

TEST(WalTest, CorruptRecordStopsReplay) {
  TempDir dir;
  WriteRows(dir.path(), 0, 10);
  const std::string path = WalPath(dir.path());
  FlipByte(path, std::filesystem::file_size(path) / 2);
  bool prefix = false;
  EXPECT_LT(RowsFound(dir.path(), 10, &prefix), 10u);
  EXPECT_TRUE(prefix);  // replay stops at the corrupt record
}

TEST(WalTest, HeaderFlipStopsReplayAtThatFrame) {
  TempDir dir;
  WriteRows(dir.path(), 0, 4);
  FlipByte(WalPath(dir.path()), 0);  // the first frame's crc
  EXPECT_EQ(RowsFound(dir.path(), 4), 0u);
}

// Exhaustive torn-tail sweep: for every truncation point the restart must
// succeed and find a prefix of the rows, never shorter than at any
// shorter cut.
TEST(WalTest, EveryTruncationPointYieldsACleanPrefix) {
  TempDir full;
  WriteRows(full.path(), 0, 6);
  const std::string bytes = ReadFile(WalPath(full.path()));
  ASSERT_FALSE(bytes.empty());
  size_t prev_found = 0;
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    TempDir dir;
    std::filesystem::create_directories(dir.path() + "/cf");
    WriteFile(WalPath(dir.path()), bytes.substr(0, cut));
    bool prefix = false;
    const size_t found = RowsFound(dir.path(), 6, &prefix);
    EXPECT_TRUE(prefix) << "cut=" << cut;
    EXPECT_GE(found, prev_found) << "cut=" << cut;
    prev_found = found;
  }
  EXPECT_EQ(prev_found, 6u);
}

// A flush covers the log's rows with an SSTable, so the log starts over
// empty.
TEST(WalTest, CloseAndRemoveDeletesFile) {
  TempDir dir;
  {
    StorageNode node(WalOnlyOptions(dir.path()));
    ASSERT_OK(node.Open());
    ASSERT_OK(node.Put("cf", "row0", "c", "v0"));
    ASSERT_OK(node.GetColumnFamily("cf").value()->Flush());
    EXPECT_EQ(std::filesystem::file_size(WalPath(dir.path())), 0u);
  }
  EXPECT_EQ(RowsFound(dir.path(), 1), 1u);  // from the SSTable
}

TEST(WalTest, AppendAfterReopenExtends) {
  TempDir dir;
  WriteRows(dir.path(), 0, 1);
  WriteRows(dir.path(), 1, 2);
  EXPECT_EQ(RowsFound(dir.path(), 2), 2u);
}

TEST(WalTest, TombstonesRoundTrip) {
  TempDir dir;
  {
    StorageNode node(WalOnlyOptions(dir.path()));
    ASSERT_OK(node.Open());
    ASSERT_OK(node.Put("cf", "gone", "c", "v"));
    ASSERT_OK(node.Delete("cf", "gone", "c"));
  }
  StorageNode node(WalOnlyOptions(dir.path()));
  ASSERT_OK(node.Open());
  auto raw = node.GetColumnFamily("cf").value()->GetRaw("gone", "c");
  ASSERT_OK(raw);
  EXPECT_TRUE(raw.value().tombstone);
  EXPECT_TRUE(node.Get("cf", "gone", "c").status().IsNotFound());
}

}  // namespace
}  // namespace kv
}  // namespace muppet
