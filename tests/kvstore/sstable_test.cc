#include "kvstore/sstable.h"

#include <algorithm>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace muppet {
namespace kv {
namespace {

using ::muppet::testing::TempDir;

std::vector<Record> MakeSortedRecords(int n, const std::string& value_prefix,
                                      uint64_t seqno_base = 0) {
  std::vector<Record> records;
  for (int i = 0; i < n; ++i) {
    Record rec;
    char key[32];
    std::snprintf(key, sizeof(key), "key%06d", i);
    rec.key = key;
    rec.value = value_prefix + std::to_string(i);
    rec.seqno = seqno_base + static_cast<uint64_t>(i);
    rec.write_ts = 1000 + i;
    records.push_back(std::move(rec));
  }
  return records;
}

TEST(SsTableTest, WriteOpenGet) {
  TempDir dir;
  const std::string path = dir.path() + "/t.sst";
  const auto records = MakeSortedRecords(500, "v");
  ASSERT_OK(WriteSsTable(path, records, nullptr));

  auto reader = SsTableReader::Open(path, nullptr);
  ASSERT_OK(reader);
  EXPECT_EQ(reader.value()->entry_count(), 500u);
  EXPECT_EQ(reader.value()->max_seqno(), 499u);
  EXPECT_EQ(reader.value()->smallest_key(), "key000000");
  EXPECT_EQ(reader.value()->largest_key(), "key000499");

  Record out;
  ASSERT_OK(reader.value()->Get("key000123", &out));
  EXPECT_EQ(out.value, "v123");
  ASSERT_OK(reader.value()->Get("key000000", &out));
  EXPECT_EQ(out.value, "v0");
  ASSERT_OK(reader.value()->Get("key000499", &out));
  EXPECT_EQ(out.value, "v499");
}

TEST(SsTableTest, GetAbsentKeys) {
  TempDir dir;
  const std::string path = dir.path() + "/t.sst";
  ASSERT_OK(WriteSsTable(path, MakeSortedRecords(100, "v"), nullptr));
  auto reader = SsTableReader::Open(path, nullptr);
  ASSERT_OK(reader);
  Record out;
  EXPECT_TRUE(reader.value()->Get("absent", &out).IsNotFound());
  EXPECT_TRUE(reader.value()->Get("key0000005", &out).IsNotFound());
  EXPECT_TRUE(reader.value()->Get("", &out).IsNotFound());
  EXPECT_TRUE(reader.value()->Get("zzz", &out).IsNotFound());
}

TEST(SsTableTest, ReadAllReturnsEverythingInOrder) {
  TempDir dir;
  const std::string path = dir.path() + "/t.sst";
  const auto records = MakeSortedRecords(1000, "val");
  ASSERT_OK(WriteSsTable(path, records, nullptr));
  auto reader = SsTableReader::Open(path, nullptr);
  ASSERT_OK(reader);
  std::vector<Record> all;
  ASSERT_OK(reader.value()->ReadAll(&all));
  ASSERT_EQ(all.size(), records.size());
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].key, records[i].key);
    EXPECT_EQ(all[i].value, records[i].value);
  }
}

TEST(SsTableTest, SmallBlocksManyBlocks) {
  TempDir dir;
  const std::string path = dir.path() + "/t.sst";
  const auto records = MakeSortedRecords(2000, "some-longer-value-");
  ASSERT_OK(WriteSsTable(path, records, nullptr, /*block_bytes=*/256));
  auto reader = SsTableReader::Open(path, nullptr);
  ASSERT_OK(reader);
  // Every key still retrievable across many blocks.
  Record out;
  for (int i = 0; i < 2000; i += 37) {
    char key[32];
    std::snprintf(key, sizeof(key), "key%06d", i);
    ASSERT_OK(reader.value()->Get(key, &out));
  }
}

TEST(SsTableTest, UnsortedInputRejected) {
  TempDir dir;
  auto records = MakeSortedRecords(10, "v");
  std::swap(records[2], records[7]);
  EXPECT_FALSE(WriteSsTable(dir.path() + "/t.sst", records, nullptr).ok());
}

TEST(SsTableTest, DuplicateKeysRejected) {
  TempDir dir;
  auto records = MakeSortedRecords(5, "v");
  records[3].key = records[2].key;
  EXPECT_FALSE(WriteSsTable(dir.path() + "/t.sst", records, nullptr).ok());
}

TEST(SsTableTest, EmptyTable) {
  TempDir dir;
  const std::string path = dir.path() + "/t.sst";
  ASSERT_OK(WriteSsTable(path, {}, nullptr));
  auto reader = SsTableReader::Open(path, nullptr);
  ASSERT_OK(reader);
  EXPECT_EQ(reader.value()->entry_count(), 0u);
  Record out;
  EXPECT_TRUE(reader.value()->Get("anything", &out).IsNotFound());
  std::vector<Record> all;
  ASSERT_OK(reader.value()->ReadAll(&all));
  EXPECT_TRUE(all.empty());
}

TEST(SsTableTest, CorruptFooterDetected) {
  TempDir dir;
  const std::string path = dir.path() + "/t.sst";
  ASSERT_OK(WriteSsTable(path, MakeSortedRecords(10, "v"), nullptr));
  // Stomp the magic number.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, -4, SEEK_END);
  std::fputc(0x00, f);
  std::fclose(f);
  auto reader = SsTableReader::Open(path, nullptr);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
}

TEST(SsTableTest, CorruptBlockDetectedOnRead) {
  TempDir dir;
  const std::string path = dir.path() + "/t.sst";
  ASSERT_OK(WriteSsTable(path, MakeSortedRecords(100, "v"), nullptr));
  // Flip a byte early in the file (inside the first data block).
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 20, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, 20, SEEK_SET);
  std::fputc(c ^ 0xFF, f);
  std::fclose(f);
  auto reader = SsTableReader::Open(path, nullptr);
  // Open may fail (largest-key read touches the last block, not the
  // first) or succeed; reading key000001 must fail with Corruption.
  if (reader.ok()) {
    Record out;
    Status s = reader.value()->Get("key000001", &out);
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  }
}

TEST(SsTableTest, TooSmallFileRejected) {
  TempDir dir;
  const std::string path = dir.path() + "/t.sst";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite("tiny", 1, 4, f);
  std::fclose(f);
  EXPECT_FALSE(SsTableReader::Open(path, nullptr).ok());
}

TEST(SsTableTest, DeviceModelCharged) {
  TempDir dir;
  SimulatedClock clock;
  DeviceModel device(DeviceProfile::Ssd(), &clock);
  const std::string path = dir.path() + "/t.sst";
  ASSERT_OK(WriteSsTable(path, MakeSortedRecords(1000, "v"), &device));
  EXPECT_GT(device.bytes_written(), 0);
  const int64_t busy_after_write = device.busy_micros();
  EXPECT_GT(busy_after_write, 0);

  auto reader = SsTableReader::Open(path, &device);
  ASSERT_OK(reader);
  Record out;
  ASSERT_OK(reader.value()->Get("key000500", &out));
  EXPECT_GT(device.random_reads(), 0);
  EXPECT_GT(device.busy_micros(), busy_after_write);
  // The simulated clock advanced by exactly the charged latency.
  EXPECT_EQ(clock.Now(), device.busy_micros());
}

TEST(SsTableTest, HddCostsMoreThanSsd) {
  TempDir dir;
  SimulatedClock ssd_clock, hdd_clock;
  DeviceModel ssd(DeviceProfile::Ssd(), &ssd_clock);
  DeviceModel hdd(DeviceProfile::Hdd(), &hdd_clock);
  const auto records = MakeSortedRecords(500, "v");
  ASSERT_OK(WriteSsTable(dir.path() + "/ssd.sst", records, &ssd));
  ASSERT_OK(WriteSsTable(dir.path() + "/hdd.sst", records, &hdd));
  auto ssd_reader = SsTableReader::Open(dir.path() + "/ssd.sst", &ssd);
  auto hdd_reader = SsTableReader::Open(dir.path() + "/hdd.sst", &hdd);
  ASSERT_OK(ssd_reader);
  ASSERT_OK(hdd_reader);
  Record out;
  for (int i = 0; i < 100; ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "key%06d", i * 5);
    ASSERT_OK(ssd_reader.value()->Get(key, &out));
    ASSERT_OK(hdd_reader.value()->Get(key, &out));
  }
  EXPECT_GT(hdd_clock.Now(), ssd_clock.Now() * 10)
      << "random reads on HDD should be dominated by seek cost";
}

}  // namespace
}  // namespace kv
}  // namespace muppet
