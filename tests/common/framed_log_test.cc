// The one framed log under the kvstore WAL, the slate changelog, its
// manifest and SlateLogger (common/framed_log.h): frame round trip, the
// scanner's torn-tail report, truncation on open, the bounded buffer, the
// crash model and checked fsync errors.
#include "common/framed_log.h"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace muppet {
namespace {

using ::muppet::testing::TempDir;

std::string Payload(int i) {
  return "payload" + std::to_string(i) + std::string(i % 40, 'x');
}

std::vector<std::string> ScanAll(const std::string& path,
                                 FrameScan* scan = nullptr) {
  std::vector<std::string> out;
  FrameScan local;
  EXPECT_OK(ScanFramedLog(
      path,
      [&out](BytesView payload) {
        out.emplace_back(payload);
        return true;
      },
      scan != nullptr ? scan : &local));
  return out;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Records every call on its way to a FileLogDevice; Sync can be made to
// fail.
class RecordingDevice : public LogDevice {
 public:
  struct Log {
    std::vector<size_t> writes;  // bytes per Write
    int syncs = 0;
    bool fail_sync = false;
  };

  explicit RecordingDevice(Log* log) : log_(log) {}

  Status Open(const std::string& path) override { return inner_.Open(path); }
  Status Write(BytesView bytes) override {
    log_->writes.push_back(bytes.size());
    return inner_.Write(bytes);
  }
  Status Sync() override {
    log_->syncs++;
    if (log_->fail_sync) return Status::IOError("recording device: fsync");
    return inner_.Sync();
  }
  Status Close() override { return inner_.Close(); }

 private:
  FileLogDevice inner_;
  Log* log_;
};

TEST(FramedLogTest, AppendScanRoundTrip) {
  TempDir dir;
  const std::string path = dir.path() + "/log";
  {
    FramedLogWriter log;
    ASSERT_OK(log.Open(path));
    for (int i = 0; i < 50; ++i) ASSERT_OK(log.Append(Payload(i)));
    ASSERT_OK(log.Close());
  }
  FrameScan scan;
  const std::vector<std::string> payloads = ScanAll(path, &scan);
  ASSERT_EQ(payloads.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(payloads[i], Payload(i));
  EXPECT_EQ(scan.frames, 50u);
  EXPECT_FALSE(scan.torn);
  EXPECT_EQ(scan.intact_bytes, std::filesystem::file_size(path));
}

TEST(FramedLogTest, MissingFileScansEmpty) {
  TempDir dir;
  FrameScan scan;
  EXPECT_TRUE(ScanAll(dir.path() + "/nope", &scan).empty());
  EXPECT_EQ(scan.frames, 0u);
  EXPECT_FALSE(scan.torn);
}

TEST(FramedLogTest, SyncedAppend) {
  TempDir dir;
  RecordingDevice::Log calls;
  FramedLogWriter log(std::make_unique<RecordingDevice>(&calls));
  ASSERT_OK(log.Open(dir.path() + "/log"));
  ASSERT_OK(log.Append(Payload(1)));
  EXPECT_TRUE(calls.writes.empty());  // buffered
  ASSERT_OK(log.Sync());
  EXPECT_EQ(calls.writes.size(), 1u);
  EXPECT_EQ(calls.syncs, 1);
  ASSERT_OK(log.Close());
  EXPECT_EQ(ScanAll(dir.path() + "/log").size(), 1u);
}

// A failed fsync is an IOError, and it sticks until the next Open: a
// later fsync that succeeds could not vouch for what the failed one lost.
TEST(FramedLogTest, FailedSyncIsAnIOErrorUntilReopen) {
  TempDir dir;
  const std::string path = dir.path() + "/log";
  RecordingDevice::Log calls;
  calls.fail_sync = true;
  FramedLogWriter log(std::make_unique<RecordingDevice>(&calls));
  ASSERT_OK(log.Open(path));
  ASSERT_OK(log.Append(Payload(1)));
  EXPECT_EQ(log.Sync().code(), StatusCode::kIOError);
  calls.fail_sync = false;
  EXPECT_EQ(log.Append(Payload(2)).code(), StatusCode::kIOError);
  EXPECT_EQ(log.Sync().code(), StatusCode::kIOError);
  EXPECT_EQ(log.Close().code(), StatusCode::kIOError);
  ASSERT_OK(log.Open(path));
  ASSERT_OK(log.Append(Payload(3)));
  ASSERT_OK(log.Sync());
  ASSERT_OK(log.Close());
  EXPECT_EQ(ScanAll(path).size(), 2u);
}

TEST(FramedLogTest, DoubleOpenFails) {
  TempDir dir;
  FramedLogWriter log;
  ASSERT_OK(log.Open(dir.path() + "/log"));
  EXPECT_FALSE(log.Open(dir.path() + "/other").ok());
}

TEST(FramedLogTest, AppendWithoutOpenFails) {
  FramedLogWriter log;
  EXPECT_FALSE(log.Append("x").ok());
  EXPECT_FALSE(log.Sync().ok());
}

// The writer holds at most kBufferBytes: past that it writes to the file
// without an fsync, one whole-frame batch at a time, so a crash leaves
// only intact frames behind.
TEST(FramedLogTest, BufferIsBoundedAndSpillsWithoutSync) {
  TempDir dir;
  const std::string path = dir.path() + "/log";
  RecordingDevice::Log calls;
  FramedLogWriter log(std::make_unique<RecordingDevice>(&calls));
  ASSERT_OK(log.Open(path));
  const std::string payload(100, 'p');
  for (int i = 0; i < 200; ++i) ASSERT_OK(log.Append(payload));
  EXPECT_GT(calls.writes.size(), 0u);
  EXPECT_EQ(calls.syncs, 0);
  for (size_t bytes : calls.writes) {
    EXPECT_LE(bytes, FramedLogWriter::kBufferBytes);
    EXPECT_EQ(bytes % (kFrameHeaderBytes + payload.size()), 0u);
  }
  log.CrashClose();
  FrameScan scan;
  const size_t kept = ScanAll(path, &scan).size();
  EXPECT_GT(kept, 0u);
  EXPECT_LT(kept, 200u);  // the buffered tail died with the crash
  EXPECT_FALSE(scan.torn);
}

TEST(FramedLogTest, LargeFrameGoesToTheFileInOneWrite) {
  TempDir dir;
  const std::string path = dir.path() + "/log";
  RecordingDevice::Log calls;
  FramedLogWriter log(std::make_unique<RecordingDevice>(&calls));
  ASSERT_OK(log.Open(path));
  ASSERT_OK(log.Append("small"));
  const std::string big(3 * FramedLogWriter::kBufferBytes, 'b');
  ASSERT_OK(log.Append(big));
  ASSERT_EQ(calls.writes.size(), 2u);  // the buffer, then the big frame
  EXPECT_EQ(calls.writes[1], kFrameHeaderBytes + big.size());
  ASSERT_OK(log.Close());
  const std::vector<std::string> payloads = ScanAll(path);
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[1], big);
}

TEST(FramedLogTest, CrashCloseDropsOnlyTheUnsyncedAppends) {
  TempDir dir;
  const std::string path = dir.path() + "/log";
  FramedLogWriter log;
  ASSERT_OK(log.Open(path));
  for (int i = 0; i < 3; ++i) ASSERT_OK(log.Append(Payload(i)));
  ASSERT_OK(log.Sync());
  for (int i = 3; i < 5; ++i) ASSERT_OK(log.Append(Payload(i)));
  log.CrashClose();
  EXPECT_EQ(ScanAll(path).size(), 3u);
}

// For every cut of a log, the scan keeps exactly the frames that end at or
// before the cut and reports the cut as torn unless it falls on a frame
// boundary.
TEST(FramedLogTest, ScanReportsTheLastIntactFrameForEveryCut) {
  TempDir dir;
  const std::string full = dir.path() + "/full";
  std::vector<uint64_t> ends;  // offset past each frame
  {
    FramedLogWriter log;
    ASSERT_OK(log.Open(full));
    uint64_t end = 0;
    for (int i = 0; i < 5; ++i) {
      ASSERT_OK(log.Append(Payload(i)));
      end += kFrameHeaderBytes + Payload(i).size();
      ends.push_back(end);
    }
    ASSERT_OK(log.Close());
  }
  std::ifstream in(full, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)), {});
  ASSERT_EQ(bytes.size(), ends.back());
  const std::string path = dir.path() + "/cut";
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    WriteFile(path, bytes.substr(0, cut));
    uint64_t intact = 0;
    size_t frames = 0;
    for (uint64_t end : ends) {
      if (end <= cut) {
        intact = end;
        frames++;
      }
    }
    FrameScan scan;
    EXPECT_EQ(ScanAll(path, &scan).size(), frames) << "cut=" << cut;
    EXPECT_EQ(scan.intact_bytes, intact) << "cut=" << cut;
    EXPECT_EQ(scan.torn, intact != cut) << "cut=" << cut;
  }
}

// Open hands over the intact prefix, cuts the torn tail off, and appends
// after the last intact frame, where the next scan reaches them.
TEST(FramedLogTest, OpenTruncatesATornTail) {
  TempDir dir;
  const std::string path = dir.path() + "/log";
  {
    FramedLogWriter log;
    ASSERT_OK(log.Open(path));
    for (int i = 0; i < 5; ++i) ASSERT_OK(log.Append(Payload(i)));
    ASSERT_OK(log.Close());
  }
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 3);
  std::vector<std::string> replayed;
  FrameScan scan;
  FramedLogWriter log;
  ASSERT_OK(log.Open(
      path,
      [&replayed](BytesView payload) {
        replayed.emplace_back(payload);
        return true;
      },
      &scan));
  EXPECT_EQ(replayed.size(), 4u);
  EXPECT_TRUE(scan.torn);
  EXPECT_EQ(std::filesystem::file_size(path), scan.intact_bytes);
  ASSERT_OK(log.Append(Payload(9)));
  ASSERT_OK(log.Close());
  FrameScan after;
  const std::vector<std::string> payloads = ScanAll(path, &after);
  ASSERT_EQ(payloads.size(), 5u);
  EXPECT_EQ(payloads.back(), Payload(9));
  EXPECT_FALSE(after.torn);
}

// A payload the caller cannot decode ends the scan like a torn frame, and
// Open truncates it away.
TEST(FramedLogTest, UndecodablePayloadEndsTheScan) {
  TempDir dir;
  const std::string path = dir.path() + "/log";
  {
    FramedLogWriter log;
    ASSERT_OK(log.Open(path));
    ASSERT_OK(log.Append("good"));
    ASSERT_OK(log.Append("bad"));
    ASSERT_OK(log.Append("good"));
    ASSERT_OK(log.Close());
  }
  int visited = 0;
  FrameScan scan;
  FramedLogWriter log;
  ASSERT_OK(log.Open(
      path,
      [&visited](BytesView payload) {
        if (payload != "good") return false;
        visited++;
        return true;
      },
      &scan));
  EXPECT_EQ(visited, 1);
  EXPECT_EQ(scan.frames, 1u);
  EXPECT_TRUE(scan.torn);
  EXPECT_EQ(std::filesystem::file_size(path), kFrameHeaderBytes + 4);
}

// A header whose length field exceeds what the file holds is torn; the
// scanner never sizes a buffer from it.
TEST(FramedLogTest, HeaderLengthPastTheFileIsTorn) {
  TempDir dir;
  const std::string path = dir.path() + "/log";
  Bytes bytes;
  AppendFrame("intact", &bytes);
  const uint64_t intact = bytes.size();
  PutFixed32(&bytes, 0);
  PutFixed32(&bytes, 0xFFFFFFFFu);
  bytes += "short";
  WriteFile(path, bytes);
  FrameScan scan;
  EXPECT_EQ(ScanAll(path, &scan).size(), 1u);
  EXPECT_TRUE(scan.torn);
  EXPECT_EQ(scan.intact_bytes, intact);
}

}  // namespace
}  // namespace muppet
