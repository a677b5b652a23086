#include "service/bulk_slates.h"

#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "gtest/gtest.h"
#include "kvstore/cluster.h"
#include "tests/test_util.h"

namespace muppet {
namespace {

using ::muppet::testing::TempDir;

class BulkSlateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kv::KvClusterOptions options;
    options.replication_factor = 2;
    options.node.data_dir = dir_.path() + "/kv";
    cluster_ = std::make_unique<kv::KvCluster>(options);
    ASSERT_OK(cluster_->Open());
    store_ = std::make_unique<SlateStore>(cluster_.get(),
                                          SlateStoreOptions{});
  }

  TempDir dir_;
  std::unique_ptr<kv::KvCluster> cluster_;
  std::unique_ptr<SlateStore> store_;
};

TEST_F(BulkSlateTest, DumpUpdaterReturnsAllItsSlates) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(store_->Write(SlateId{"U1", "key" + std::to_string(i)},
                            "slate" + std::to_string(i), 0));
  }
  ASSERT_OK(store_->Write(SlateId{"U2", "key0"}, "other-updater", 0));
  ASSERT_OK(cluster_->FlushAll());

  BulkSlateReader reader(store_.get());
  std::vector<std::pair<Bytes, Bytes>> dump;
  ASSERT_OK(reader.DumpUpdater("U1", &dump));
  ASSERT_EQ(dump.size(), 50u);
  std::map<Bytes, Bytes> by_key(dump.begin(), dump.end());
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(by_key.at("key" + std::to_string(i)),
              "slate" + std::to_string(i));
  }
}

TEST_F(BulkSlateTest, DumpDeduplicatesReplicas) {
  // RF=2: every slate lives on two nodes; the dump must not double-count.
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK(store_->Write(SlateId{"U1", "k" + std::to_string(i)}, "v", 0));
  }
  BulkSlateReader reader(store_.get());
  std::vector<std::pair<SlateId, Bytes>> all;
  ASSERT_OK(reader.DumpAll(&all));
  EXPECT_EQ(all.size(), 20u);
}

TEST_F(BulkSlateTest, DumpReturnsNewestVersion) {
  const SlateId id{"U1", "evolving"};
  ASSERT_OK(store_->Write(id, "v1", 0));
  ASSERT_OK(store_->Write(id, "v2", 0));
  ASSERT_OK(store_->Write(id, "v3", 0));
  BulkSlateReader reader(store_.get());
  std::vector<std::pair<Bytes, Bytes>> dump;
  ASSERT_OK(reader.DumpUpdater("U1", &dump));
  ASSERT_EQ(dump.size(), 1u);
  EXPECT_EQ(dump[0].second, "v3");
}

TEST_F(BulkSlateTest, DeletedSlatesExcluded) {
  ASSERT_OK(store_->Write(SlateId{"U1", "keep"}, "v", 0));
  ASSERT_OK(store_->Write(SlateId{"U1", "gone"}, "v", 0));
  ASSERT_OK(store_->Delete(SlateId{"U1", "gone"}));
  BulkSlateReader reader(store_.get());
  std::vector<std::pair<Bytes, Bytes>> dump;
  ASSERT_OK(reader.DumpUpdater("U1", &dump));
  ASSERT_EQ(dump.size(), 1u);
  EXPECT_EQ(dump[0].first, "keep");
}

TEST_F(BulkSlateTest, CompressedSlatesDecompressedOnDump) {
  Bytes big(5000, 'z');
  ASSERT_OK(store_->Write(SlateId{"U1", "big"}, big, 0));
  BulkSlateReader reader(store_.get());
  std::vector<std::pair<Bytes, Bytes>> dump;
  ASSERT_OK(reader.DumpUpdater("U1", &dump));
  ASSERT_EQ(dump.size(), 1u);
  EXPECT_EQ(dump[0].second, big);
}

TEST_F(BulkSlateTest, ForEachStreams) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(store_->Write(SlateId{"U1", "k" + std::to_string(i)}, "v", 0));
  }
  BulkSlateReader reader(store_.get());
  int seen = 0;
  ASSERT_OK(reader.ForEach("U1", [&seen](BytesView, BytesView slate) {
    EXPECT_EQ(slate, "v");
    ++seen;
  }));
  EXPECT_EQ(seen, 10);
}

TEST(SlateLoggerTest, AppendAndReadBack) {
  TempDir dir;
  const std::string path = dir.path() + "/slates.log";
  {
    SlateLogger logger;
    ASSERT_OK(logger.Open(path));
    for (int i = 0; i < 100; ++i) {
      ASSERT_OK(logger.Append("key" + std::to_string(i),
                              "payload" + std::to_string(i)));
    }
    EXPECT_EQ(logger.records_written(), 100);
    ASSERT_OK(logger.Close());
  }
  std::vector<std::pair<Bytes, Bytes>> records;
  ASSERT_OK(SlateLogger::ReadLog(path, &records));
  ASSERT_EQ(records.size(), 100u);
  EXPECT_EQ(records[42].first, "key42");
  EXPECT_EQ(records[42].second, "payload42");
}

TEST(SlateLoggerTest, ConcurrentAppendsAllSurvive) {
  // The paper warns about logger contention; correctness must hold even
  // when many updater threads share the log.
  TempDir dir;
  const std::string path = dir.path() + "/slates.log";
  SlateLogger logger;
  ASSERT_OK(logger.Open(path));
  constexpr int kThreads = 4, kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&logger, t] {
      for (int i = 0; i < kPerThread; ++i) {
        (void)logger.Append("t" + std::to_string(t), "x");
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_OK(logger.Close());
  std::vector<std::pair<Bytes, Bytes>> records;
  ASSERT_OK(SlateLogger::ReadLog(path, &records));
  EXPECT_EQ(records.size(),
            static_cast<size_t>(kThreads) * kPerThread);
}

TEST(SlateLoggerTest, MissingLogReadsEmpty) {
  std::vector<std::pair<Bytes, Bytes>> records;
  ASSERT_OK(SlateLogger::ReadLog("/nonexistent/slates.log", &records));
  EXPECT_TRUE(records.empty());
}

// Records appended after a torn tail must be readable: reopening the log
// truncates the torn frame instead of appending behind it.
TEST(SlateLoggerTest, RecordsAfterATornTailSurviveReopen) {
  TempDir dir;
  const std::string path = dir.path() + "/slates.log";
  auto append = [&path](int from, int to) {
    SlateLogger logger;
    ASSERT_OK(logger.Open(path));
    for (int i = from; i < to; ++i) {
      ASSERT_OK(logger.Append("key" + std::to_string(i), "payload"));
    }
    ASSERT_OK(logger.Close());
  };
  append(0, 10);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 5);
  append(10, 20);
  std::vector<std::pair<Bytes, Bytes>> records;
  ASSERT_OK(SlateLogger::ReadLog(path, &records));
  ASSERT_EQ(records.size(), 19u);  // all but the torn key9
  EXPECT_EQ(records[8].first, "key8");
  EXPECT_EQ(records[9].first, "key10");
  EXPECT_EQ(records.back().first, "key19");
}

TEST(SlateLoggerTest, AppendWithoutOpenFails) {
  SlateLogger logger;
  EXPECT_FALSE(logger.Append("k", "v").ok());
}

}  // namespace
}  // namespace muppet
