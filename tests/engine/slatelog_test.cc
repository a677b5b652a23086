// Durability plane (engine/slatelog.h; DESIGN.md §12): record/manifest
// codecs, the segmented changelog's sync/crash/torn-tail semantics via a
// fault-injecting LogDevice, checkpoint bookkeeping, the bounded dedup
// table, and engine-level crash/restart + cold-start recovery on both
// engines.
#include "engine/slatelog.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/keysplit.h"
#include "core/slate_store.h"
#include "engine/muppet1.h"
#include "engine/muppet2.h"
#include "gtest/gtest.h"
#include "kvstore/cluster.h"
#include "tests/engine/engine_test_util.h"
#include "tests/test_util.h"

namespace muppet {
namespace {

using ::muppet::testing::BuildCountingApp;
using ::muppet::testing::CountOf;
using ::muppet::testing::TempDir;

SlateLogRecord MakeRecord(uint64_t salt) {
  SlateLogRecord rec;
  rec.kind = static_cast<uint8_t>(salt % 3);
  rec.updater = "count" + std::to_string(salt % 7);
  rec.key = "k" + std::to_string(salt);
  rec.value = "v" + std::string(salt % 50, 'x');
  rec.ts = static_cast<Timestamp>(1000 + salt);
  rec.seq = salt * 13 + 1;
  rec.work = salt * 0x9E3779B97F4A7C15ULL;
  rec.dedup = salt % 4 == 0 ? 0 : salt * 31 + 7;
  return rec;
}

void ExpectRecordsEqual(const SlateLogRecord& a, const SlateLogRecord& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.updater, b.updater);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.ts, b.ts);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.work, b.work);
  EXPECT_EQ(a.dedup, b.dedup);
}

// ---------------------------------------------------------------------------
// Wire codecs.
// ---------------------------------------------------------------------------

TEST(SlateLogRecordCodec, RoundTrip) {
  SlateLogRecord rec = MakeRecord(5);
  rec.lsn = 42;
  Bytes wire;
  EncodeSlateLogRecord(rec, &wire);
  SlateLogRecord out;
  ASSERT_OK(DecodeSlateLogRecord(wire, &out));
  EXPECT_EQ(out.lsn, 42u);
  ExpectRecordsEqual(rec, out);
}

TEST(SlateLogRecordCodec, EmptyFieldsRoundTrip) {
  SlateLogRecord rec;  // everything defaulted / empty
  Bytes wire;
  EncodeSlateLogRecord(rec, &wire);
  SlateLogRecord out;
  ASSERT_OK(DecodeSlateLogRecord(wire, &out));
  ExpectRecordsEqual(rec, out);
}

// Seeded fuzz: random records round-trip bit-exactly, and every proper
// prefix of a valid encoding fails cleanly (no crash, no partial accept).
TEST(SlateLogRecordCodec, FuzzRoundTripAndTruncation) {
  Rng rng(0x51A7E106ull);
  for (int i = 0; i < 500; ++i) {
    SlateLogRecord rec = MakeRecord(rng.Next() % 1000);
    rec.lsn = rng.Next();
    Bytes wire;
    EncodeSlateLogRecord(rec, &wire);
    SlateLogRecord out;
    ASSERT_OK(DecodeSlateLogRecord(wire, &out));
    EXPECT_EQ(rec.lsn, out.lsn);
    ExpectRecordsEqual(rec, out);

    if (!wire.empty()) {
      const size_t cut = rng.Uniform(wire.size());
      SlateLogRecord trunc;
      EXPECT_FALSE(
          DecodeSlateLogRecord(BytesView(wire.data(), cut), &trunc).ok())
          << "prefix of length " << cut << "/" << wire.size()
          << " decoded successfully";
    }
  }
}

TEST(CheckpointManifestCodec, RoundTripAndTruncation) {
  CheckpointManifest manifest;
  manifest.machine = 3;
  manifest.lsn = 987654321;
  manifest.segment = 17;
  manifest.ts = 123456789;
  Bytes wire;
  EncodeCheckpointManifest(manifest, &wire);
  CheckpointManifest out;
  ASSERT_OK(DecodeCheckpointManifest(wire, &out));
  EXPECT_EQ(out.machine, 3u);
  EXPECT_EQ(out.lsn, 987654321u);
  EXPECT_EQ(out.segment, 17u);
  EXPECT_EQ(out.ts, 123456789);
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    CheckpointManifest trunc;
    EXPECT_FALSE(
        DecodeCheckpointManifest(BytesView(wire.data(), cut), &trunc).ok());
  }
}

// ---------------------------------------------------------------------------
// Fault-injecting LogDevice shim under the changelog's framed-log writer:
// wraps FileLogDevice but can truncate or bit-flip a scripted write on its
// way to the file, modeling a torn write that reached disk partially or
// corrupted. With a sync every record, each write carries one frame.
// ---------------------------------------------------------------------------

class FaultyLogDevice : public LogDevice {
 public:
  enum class Fault { kNone, kTruncateFrame, kBitFlipFrame };

  // Shared script: fault the `fault_at`-th Write() (0-based) across the
  // device instances a factory hands out.
  struct Script {
    Fault fault = Fault::kNone;
    int fault_at = -1;
    int writes_seen = 0;
  };

  explicit FaultyLogDevice(Script* script) : script_(script) {}

  Status Open(const std::string& path) override { return inner_.Open(path); }

  Status Write(BytesView frame) override {
    const int index = script_->writes_seen++;
    if (index == script_->fault_at) {
      if (script_->fault == Fault::kTruncateFrame) {
        // A torn write: only the first half of the frame reaches the
        // device, then the "machine" dies on the spot.
        (void)inner_.Write(frame.substr(0, frame.size() / 2));
        (void)inner_.Sync();
        return Status::IOError("faulty device: torn write");
      }
      if (script_->fault == Fault::kBitFlipFrame) {
        Bytes mangled(frame);
        mangled[mangled.size() / 2] ^= 0x40;
        Status s = inner_.Write(mangled);
        if (s.ok()) s = inner_.Sync();
        return s;
      }
    }
    return inner_.Write(frame);
  }

  Status Sync() override { return inner_.Sync(); }
  Status Close() override { return inner_.Close(); }

 private:
  FileLogDevice inner_;
  Script* script_;
};

SlateChangelog::Options FaultyOptions(FaultyLogDevice::Script* script,
                                      uint32_t sync_every = 1) {
  SlateChangelog::Options o;
  o.sync_every_records = sync_every;
  o.device_factory = [script] {
    return std::make_unique<FaultyLogDevice>(script);
  };
  return o;
}

std::vector<SlateLogRecord> ReplayAll(const std::string& dir,
                                      uint64_t machine, uint64_t from_lsn,
                                      SlateLogReplayStats* stats) {
  std::vector<SlateLogRecord> out;
  SlateLogReplayStats local;
  if (stats == nullptr) stats = &local;
  EXPECT_OK(SlateChangelog::Replay(
      dir, machine, from_lsn,
      [&out](const SlateLogRecord& rec) { out.push_back(rec); }, stats));
  return out;
}

// ---------------------------------------------------------------------------
// Changelog: append / sync / crash / replay.
// ---------------------------------------------------------------------------

TEST(SlateChangelog, AppendReplayRoundTrip) {
  TempDir dir;
  SlateChangelog log(dir.path(), 0, {});
  ASSERT_OK(log.Open());
  std::vector<SlateLogRecord> written;
  for (uint64_t i = 0; i < 20; ++i) {
    SlateLogRecord rec = MakeRecord(i);
    Result<uint64_t> lsn = log.Append(rec);
    ASSERT_OK(lsn);
    EXPECT_EQ(lsn.value(), i + 1);  // lsns are dense from 1
    rec.lsn = lsn.value();
    written.push_back(std::move(rec));
  }
  ASSERT_OK(log.Close());

  SlateLogReplayStats stats;
  std::vector<SlateLogRecord> replayed = ReplayAll(dir.path(), 0, 0, &stats);
  ASSERT_EQ(replayed.size(), written.size());
  for (size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ(replayed[i].lsn, written[i].lsn);
    ExpectRecordsEqual(replayed[i], written[i]);
  }
  EXPECT_EQ(stats.records, 20u);
  EXPECT_EQ(stats.skipped, 0u);
  EXPECT_FALSE(stats.truncated_tail);
}

TEST(SlateChangelog, ReplayRespectsFloor) {
  TempDir dir;
  SlateChangelog log(dir.path(), 0, {});
  ASSERT_OK(log.Open());
  for (uint64_t i = 0; i < 10; ++i) ASSERT_OK(log.Append(MakeRecord(i)));
  ASSERT_OK(log.Close());

  SlateLogReplayStats stats;
  std::vector<SlateLogRecord> replayed = ReplayAll(dir.path(), 0, 7, &stats);
  ASSERT_EQ(replayed.size(), 3u);
  EXPECT_EQ(replayed.front().lsn, 8u);
  EXPECT_EQ(stats.skipped, 7u);
}

TEST(SlateChangelog, CrashLosesOnlyTheUnsyncedTail) {
  TempDir dir;
  SlateChangelog::Options o;
  o.sync_every_records = 8;
  SlateChangelog log(dir.path(), 0, o);
  ASSERT_OK(log.Open());
  for (uint64_t i = 0; i < 20; ++i) ASSERT_OK(log.Append(MakeRecord(i)));
  // Appends 1..16 crossed two sync boundaries; 17..20 sit in the buffer.
  EXPECT_EQ(log.last_lsn(), 20u);
  EXPECT_EQ(log.synced_lsn(), 16u);
  log.CrashClose();

  SlateLogReplayStats stats;
  std::vector<SlateLogRecord> replayed = ReplayAll(dir.path(), 0, 0, &stats);
  EXPECT_EQ(replayed.size(), 16u);
  // The buffered tail never reached the file, so the tail is clean, not
  // torn.
  EXPECT_FALSE(stats.truncated_tail);
}

TEST(SlateChangelog, SyncEveryRecordSurvivesCrashCompletely) {
  TempDir dir;
  SlateChangelog::Options o;
  o.sync_every_records = 1;  // the kExactlyOnce setting
  SlateChangelog log(dir.path(), 0, o);
  ASSERT_OK(log.Open());
  for (uint64_t i = 0; i < 13; ++i) ASSERT_OK(log.Append(MakeRecord(i)));
  EXPECT_EQ(log.synced_lsn(), 13u);
  log.CrashClose();

  EXPECT_EQ(ReplayAll(dir.path(), 0, 0, nullptr).size(), 13u);
}

TEST(SlateChangelog, ExplicitSyncMakesBufferedTailDurable) {
  TempDir dir;
  SlateChangelog::Options o;
  o.sync_every_records = 100;
  SlateChangelog log(dir.path(), 0, o);
  ASSERT_OK(log.Open());
  for (uint64_t i = 0; i < 5; ++i) ASSERT_OK(log.Append(MakeRecord(i)));
  EXPECT_EQ(log.synced_lsn(), 0u);
  ASSERT_OK(log.Sync());
  EXPECT_EQ(log.synced_lsn(), 5u);
  log.CrashClose();
  EXPECT_EQ(ReplayAll(dir.path(), 0, 0, nullptr).size(), 5u);
}

TEST(SlateChangelog, ReopenContinuesLsnSequence) {
  TempDir dir;
  {
    SlateChangelog log(dir.path(), 0, {});
    ASSERT_OK(log.Open());
    for (uint64_t i = 0; i < 6; ++i) ASSERT_OK(log.Append(MakeRecord(i)));
    ASSERT_OK(log.Close());
  }
  SlateChangelog log(dir.path(), 0, {});
  ASSERT_OK(log.Open());
  Result<uint64_t> lsn = log.Append(MakeRecord(99));
  ASSERT_OK(lsn);
  EXPECT_EQ(lsn.value(), 7u);
  ASSERT_OK(log.Close());
  EXPECT_EQ(ReplayAll(dir.path(), 0, 0, nullptr).size(), 7u);
}

TEST(SlateChangelog, MachinesAreIsolatedWithinOneDir) {
  TempDir dir;
  SlateChangelog a(dir.path(), 0, {});
  SlateChangelog b(dir.path(), 1, {});
  ASSERT_OK(a.Open());
  ASSERT_OK(b.Open());
  ASSERT_OK(a.Append(MakeRecord(1)));
  ASSERT_OK(b.Append(MakeRecord(2)));
  ASSERT_OK(b.Append(MakeRecord(3)));
  ASSERT_OK(a.Close());
  ASSERT_OK(b.Close());
  EXPECT_EQ(ReplayAll(dir.path(), 0, 0, nullptr).size(), 1u);
  EXPECT_EQ(ReplayAll(dir.path(), 1, 0, nullptr).size(), 2u);
}

// ---------------------------------------------------------------------------
// Torn-write / truncated-tail recovery.
// ---------------------------------------------------------------------------

TEST(SlateChangelog, TornWriteMidAppendTruncatesCleanly) {
  TempDir dir;
  FaultyLogDevice::Script script;
  script.fault = FaultyLogDevice::Fault::kTruncateFrame;
  script.fault_at = 7;  // the 8th record's frame is torn in half
  SlateChangelog log(dir.path(), 0, FaultyOptions(&script));
  ASSERT_OK(log.Open());
  for (uint64_t i = 0; i < 7; ++i) ASSERT_OK(log.Append(MakeRecord(i)));
  EXPECT_FALSE(log.Append(MakeRecord(7)).ok());
  log.CrashClose();

  SlateLogReplayStats stats;
  std::vector<SlateLogRecord> replayed = ReplayAll(dir.path(), 0, 0, &stats);
  EXPECT_EQ(replayed.size(), 7u);
  EXPECT_TRUE(stats.truncated_tail);

  // Recovery continues past the torn tail: a fresh changelog reopens the
  // directory (truncating the torn frame) and keeps appending with a
  // continuous lsn sequence.
  SlateChangelog recovered(dir.path(), 0, {});
  ASSERT_OK(recovered.Open());
  Result<uint64_t> lsn = recovered.Append(MakeRecord(8));
  ASSERT_OK(lsn);
  EXPECT_EQ(lsn.value(), 8u);
  ASSERT_OK(recovered.Close());

  // The post-recovery append must be reachable: had the torn frame been
  // left in place, replay would stop at it and lose all later history.
  SlateLogReplayStats after;
  replayed = ReplayAll(dir.path(), 0, 0, &after);
  ASSERT_EQ(replayed.size(), 8u);
  EXPECT_EQ(replayed.back().lsn, 8u);
  EXPECT_FALSE(after.truncated_tail);
}

TEST(SlateChangelog, ReopenTruncatesBitFlippedActiveTail) {
  TempDir dir;
  FaultyLogDevice::Script script;
  script.fault = FaultyLogDevice::Fault::kBitFlipFrame;
  script.fault_at = 4;  // the 5th record's frame is corrupted on disk
  {
    SlateChangelog log(dir.path(), 0, FaultyOptions(&script));
    ASSERT_OK(log.Open());
    for (uint64_t i = 0; i < 8; ++i) ASSERT_OK(log.Append(MakeRecord(i)));
    log.CrashClose();
  }
  // Reopen truncates at the last intact frame (records 5..8 behind the
  // flip were unreachable anyway), so new appends land on a clean tail.
  SlateChangelog log(dir.path(), 0, {});
  ASSERT_OK(log.Open());
  Result<uint64_t> lsn = log.Append(MakeRecord(50));
  ASSERT_OK(lsn);
  ASSERT_OK(log.Close());

  SlateLogReplayStats stats;
  std::vector<SlateLogRecord> replayed = ReplayAll(dir.path(), 0, 0, &stats);
  ASSERT_EQ(replayed.size(), 5u);
  EXPECT_EQ(replayed.back().lsn, lsn.value());
  EXPECT_FALSE(stats.truncated_tail);
}

TEST(SlateChangelog, BitFlippedFrameStopsReplayAtTheFlip) {
  TempDir dir;
  FaultyLogDevice::Script script;
  script.fault = FaultyLogDevice::Fault::kBitFlipFrame;
  script.fault_at = 5;  // the 6th record's frame is corrupted on disk
  SlateChangelog log(dir.path(), 0, FaultyOptions(&script));
  ASSERT_OK(log.Open());
  for (uint64_t i = 0; i < 9; ++i) ASSERT_OK(log.Append(MakeRecord(i)));
  log.CrashClose();

  SlateLogReplayStats stats;
  std::vector<SlateLogRecord> replayed = ReplayAll(dir.path(), 0, 0, &stats);
  // The crc catches the flip; replay keeps the intact prefix and refuses
  // to guess past it (records 7..9 are unreachable behind the bad frame).
  EXPECT_EQ(replayed.size(), 5u);
  EXPECT_TRUE(stats.truncated_tail);
}

TEST(SlateChangelog, TruncatedSegmentFileReplaysThePrefix) {
  TempDir dir;
  SlateChangelog log(dir.path(), 0, {});
  ASSERT_OK(log.Open());
  for (uint64_t i = 0; i < 10; ++i) ASSERT_OK(log.Append(MakeRecord(i)));
  ASSERT_OK(log.Close());

  // Chop a few bytes off the tail, as a crashed kernel write-back would.
  const std::string path =
      SlateChangelog::SegmentPath(dir.path(), 0, log.active_segment());
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  ASSERT_FALSE(ec);
  std::filesystem::resize_file(path, size - 3, ec);
  ASSERT_FALSE(ec);

  SlateLogReplayStats stats;
  std::vector<SlateLogRecord> replayed = ReplayAll(dir.path(), 0, 0, &stats);
  EXPECT_EQ(replayed.size(), 9u);
  EXPECT_TRUE(stats.truncated_tail);
}

// ---------------------------------------------------------------------------
// Segments + checkpoints.
// ---------------------------------------------------------------------------

TEST(SlateChangelog, RotateAndDropCoveredSegments) {
  TempDir dir;
  SlateChangelog log(dir.path(), 0, {});
  ASSERT_OK(log.Open());
  for (uint64_t i = 0; i < 5; ++i) ASSERT_OK(log.Append(MakeRecord(i)));
  ASSERT_OK(log.RotateSegment());
  for (uint64_t i = 5; i < 10; ++i) ASSERT_OK(log.Append(MakeRecord(i)));
  ASSERT_OK(log.RotateSegment());
  for (uint64_t i = 10; i < 12; ++i) ASSERT_OK(log.Append(MakeRecord(i)));
  EXPECT_EQ(log.segment_count(), 3u);

  // lsn 5 covers exactly the first segment; the second (max lsn 10) must
  // survive a cursor at 7.
  Result<int> dropped = log.DropSegmentsCoveredBy(7);
  ASSERT_OK(dropped);
  EXPECT_EQ(dropped.value(), 1);
  EXPECT_EQ(log.segment_count(), 2u);
  ASSERT_OK(log.Close());

  // Replay across the remaining segments from the cursor yields 8..12.
  SlateLogReplayStats stats;
  std::vector<SlateLogRecord> replayed = ReplayAll(dir.path(), 0, 7, &stats);
  ASSERT_EQ(replayed.size(), 5u);
  EXPECT_EQ(replayed.front().lsn, 8u);
  EXPECT_EQ(replayed.back().lsn, 12u);
  EXPECT_EQ(stats.segments, 2u);
}

TEST(SlateChangelog, DropNeverTouchesTheActiveSegment) {
  TempDir dir;
  SlateChangelog log(dir.path(), 0, {});
  ASSERT_OK(log.Open());
  for (uint64_t i = 0; i < 4; ++i) ASSERT_OK(log.Append(MakeRecord(i)));
  // Cursor far past everything: the active segment must still survive.
  Result<int> dropped = log.DropSegmentsCoveredBy(1000);
  ASSERT_OK(dropped);
  EXPECT_EQ(dropped.value(), 0);
  EXPECT_EQ(log.segment_count(), 1u);
  ASSERT_OK(log.Close());
}

TEST(SlateChangelog, LsnSequenceFlooredByManifestAfterCheckpointDrop) {
  TempDir dir;
  {
    SlateChangelog log(dir.path(), 0, {});
    ASSERT_OK(log.Open());
    for (uint64_t i = 0; i < 10; ++i) ASSERT_OK(log.Append(MakeRecord(i)));
    ASSERT_OK(log.Sync());

    // A full checkpoint cycle: cursor at 10, rotate to a fresh segment,
    // drop everything covered. The active segment is now empty.
    CheckpointManifest manifest;
    manifest.machine = 0;
    manifest.lsn = 10;
    ASSERT_OK(log.RotateSegment());
    manifest.segment = log.active_segment();
    ASSERT_OK(SlateChangelog::WriteManifestFile(dir.path(), manifest));
    Result<int> dropped = log.DropSegmentsCoveredBy(10);
    ASSERT_OK(dropped);
    EXPECT_EQ(dropped.value(), 1);

    // Crash before the first synced append to the fresh segment: the only
    // trace of lsns 1..10 left on disk is the manifest cursor.
    log.CrashClose();
  }

  // Reopen must floor the sequence at the cursor — restarting at lsn 1
  // would make every new durable append invisible to replay (lsn <= 10)
  // and eligible for the next covered-segment drop.
  SlateChangelog log(dir.path(), 0, {});
  ASSERT_OK(log.Open());
  Result<uint64_t> lsn = log.Append(MakeRecord(77));
  ASSERT_OK(lsn);
  EXPECT_EQ(lsn.value(), 11u);
  ASSERT_OK(log.Close());

  SlateLogReplayStats stats;
  std::vector<SlateLogRecord> replayed = ReplayAll(dir.path(), 0, 10, &stats);
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed.front().lsn, 11u);
}

TEST(SlateChangelog, CorruptMiddleSegmentDoesNotDiscardLaterSegments) {
  TempDir dir;
  FaultyLogDevice::Script script;
  script.fault = FaultyLogDevice::Fault::kBitFlipFrame;
  script.fault_at = 6;  // lsn 7: the middle segment's 2nd record
  SlateChangelog log(dir.path(), 0, FaultyOptions(&script));
  ASSERT_OK(log.Open());
  for (uint64_t i = 0; i < 5; ++i) ASSERT_OK(log.Append(MakeRecord(i)));
  ASSERT_OK(log.RotateSegment());
  for (uint64_t i = 5; i < 10; ++i) ASSERT_OK(log.Append(MakeRecord(i)));
  ASSERT_OK(log.RotateSegment());
  for (uint64_t i = 10; i < 15; ++i) ASSERT_OK(log.Append(MakeRecord(i)));
  ASSERT_OK(log.Close());

  // Segment 2 is unreadable past lsn 6 (lsns 8..10 are lost behind the
  // flip), but segment 3 is an independent file: its 5 records must
  // survive a single mid-history bit-flip.
  SlateLogReplayStats stats;
  std::vector<SlateLogRecord> replayed = ReplayAll(dir.path(), 0, 0, &stats);
  ASSERT_EQ(replayed.size(), 11u);
  EXPECT_EQ(replayed[5].lsn, 6u);
  EXPECT_EQ(replayed[6].lsn, 11u);
  EXPECT_EQ(replayed.back().lsn, 15u);
  EXPECT_EQ(stats.corrupt_segments, 1u);
  EXPECT_FALSE(stats.truncated_tail);
}

TEST(SlateChangelog, ManifestFileRoundTripAndMissingIsZero) {
  TempDir dir;
  CheckpointManifest manifest;
  ASSERT_OK(SlateChangelog::ReadManifestFile(dir.path(), 4, &manifest));
  EXPECT_EQ(manifest.lsn, 0u);  // missing manifest -> replay everything

  manifest.machine = 4;
  manifest.lsn = 100;
  manifest.segment = 2;
  manifest.ts = 5555;
  ASSERT_OK(SlateChangelog::WriteManifestFile(dir.path(), manifest));
  manifest.lsn = 250;
  ASSERT_OK(SlateChangelog::WriteManifestFile(dir.path(), manifest));

  CheckpointManifest out;
  ASSERT_OK(SlateChangelog::ReadManifestFile(dir.path(), 4, &out));
  EXPECT_EQ(out.lsn, 250u);  // atomic overwrite: latest cursor wins
  EXPECT_EQ(out.machine, 4u);

  // A torn manifest (partial tmp+rename never happened) must not poison
  // recovery: corrupt the file and expect a clean error, not a crash.
  const std::string path = SlateChangelog::ManifestPath(dir.path(), 4);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("xx", f);
  std::fclose(f);
  EXPECT_FALSE(SlateChangelog::ReadManifestFile(dir.path(), 4, &out).ok());
}

// A manifest header whose length field claims 4 GiB is rejected from the
// header alone: the reader checks the length against the file before it
// allocates a payload buffer.
TEST(SlateChangelog, ManifestWithHugeLengthIsCorruption) {
  TempDir dir;
  Bytes bytes;
  PutFixed32(&bytes, 0);            // crc
  PutFixed32(&bytes, 0xFFFFFFFFu);  // len
  bytes += "tail";
  const std::string path = SlateChangelog::ManifestPath(dir.path(), 2);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  CheckpointManifest out;
  const Status s = SlateChangelog::ReadManifestFile(dir.path(), 2, &out);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_EQ(out.lsn, 0u);
}

// ---------------------------------------------------------------------------
// DedupTable.
// ---------------------------------------------------------------------------

TEST(DedupTable, DetectsDuplicates) {
  DedupTable table(8);
  EXPECT_TRUE(table.CheckAndInsert(1));
  EXPECT_FALSE(table.CheckAndInsert(1));
  EXPECT_TRUE(table.Contains(1));
  EXPECT_FALSE(table.Contains(2));
}

TEST(DedupTable, EvictsOldestExactlyAtCapacity) {
  constexpr size_t kCapacity = 16;
  DedupTable table(kCapacity);
  for (uint64_t id = 1; id <= kCapacity; ++id) {
    EXPECT_TRUE(table.CheckAndInsert(id));
  }
  EXPECT_EQ(table.size(), kCapacity);
  for (uint64_t id = 1; id <= kCapacity; ++id) EXPECT_TRUE(table.Contains(id));

  // The insert that crosses capacity evicts exactly the oldest identity.
  EXPECT_TRUE(table.CheckAndInsert(kCapacity + 1));
  EXPECT_EQ(table.size(), kCapacity);
  EXPECT_FALSE(table.Contains(1));
  for (uint64_t id = 2; id <= kCapacity + 1; ++id) {
    EXPECT_TRUE(table.Contains(id));
  }

  // A duplicate insert must not evict anything.
  EXPECT_FALSE(table.CheckAndInsert(kCapacity + 1));
  EXPECT_EQ(table.size(), kCapacity);
  EXPECT_TRUE(table.Contains(2));
}

TEST(DedupTable, RemoveUnwindsAReservation) {
  DedupTable table(4);
  EXPECT_TRUE(table.CheckAndInsert(7));
  EXPECT_TRUE(table.CheckAndInsert(8));
  // The delivery guarded by id 7 was declined: unwinding the reservation
  // lets the sender's retry through instead of deduping it.
  table.Remove(7);
  EXPECT_FALSE(table.Contains(7));
  EXPECT_TRUE(table.Contains(8));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.CheckAndInsert(7));

  table.Remove(999);  // absent id: no-op
  EXPECT_EQ(table.size(), 2u);
}

TEST(DedupTable, SeedAndClearBehaveLikeInsert) {
  DedupTable table(4);
  table.Seed(10);
  table.Seed(11);
  EXPECT_TRUE(table.Contains(10));
  EXPECT_EQ(table.size(), 2u);
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.Contains(10));
  EXPECT_TRUE(table.CheckAndInsert(10));  // fresh after Clear
}

TEST(DedupIdentityTest, NeverZeroAndStableAcrossSeqWrap) {
  // 0 is the on-wire sentinel for "no identity"; the mixer must never
  // produce it, including at the all-zero fixpoint.
  EXPECT_NE(DedupIdentity(0, 0, 0), 0u);

  // Sequence numbers near the wrap boundary still yield distinct
  // identities (a wrapped seq must not collide with its neighbors).
  const uint64_t kMax = ~0ull;
  std::vector<uint64_t> ids;
  for (uint64_t seq : {kMax - 1, kMax, uint64_t{0}, uint64_t{1}, uint64_t{2}}) {
    ids.push_back(DedupIdentity(0xABCD, 77, seq));
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_NE(ids[i], 0u);
    for (size_t j = i + 1; j < ids.size(); ++j) {
      EXPECT_NE(ids[i], ids[j]) << "seq wrap collision at " << i << "," << j;
    }
  }

  // Identity is a pure function of (sid, ts, seq) — same inputs on the
  // sender and a redelivery must map to the same id.
  EXPECT_EQ(DedupIdentity(1, 2, 3), DedupIdentity(1, 2, 3));
  EXPECT_NE(DedupIdentity(1, 2, 3), DedupIdentity(1, 2, 4));
  EXPECT_NE(DedupIdentity(1, 2, 3), DedupIdentity(1, 3, 3));
  EXPECT_NE(DedupIdentity(1, 2, 3), DedupIdentity(2, 2, 3));
}

// ---------------------------------------------------------------------------
// Engine-level recovery (both engines).
// ---------------------------------------------------------------------------

template <typename EngineT>
EngineOptions DurableOptions(const std::string& dir, Consistency knob) {
  EngineOptions eo;
  eo.num_machines = 3;
  eo.durability.consistency = knob;
  eo.durability.dir = dir;
  return eo;
}

// A hot key's split and merge write slates outside any operator: a merge
// sweep deletes each shard slate, and a merge delta folds it into the base
// slate. Replaying the changelog (last record wins) must restore the
// merged base slate and no swept shard slate.
TEST(DurableEngine, MergeWritesReachTheChangelog) {
  TempDir dir;
  AppConfig config;
  UpdaterOptions uo;
  uo.associativity = Associativity::kAssociativeCommutative;
  uo.merger = [](const Bytes* base, const Bytes& part) {
    JsonSlate b(base);
    JsonSlate p(&part);
    b.data()["count"] =
        b.data().GetInt("count", 0) + p.data().GetInt("count", 0);
    return b.Serialize();
  };
  BuildCountingApp(&config, /*forward=*/false, uo);

  EngineOptions eo = DurableOptions<Muppet2Engine>(
      dir.path(), Consistency::kAtLeastOnce);
  eo.num_machines = 2;
  eo.durability.checkpoint_every_records = 0;
  // The chaos scenarios' hot_split tuning, with Muppet2Test's 5 ms ticks
  // and full sampling so a sanitizer-slowed publisher still reaches the
  // controller's min_samples.
  eo.load_manager.enabled = true;
  eo.load_manager.tick_micros = 5 * kMicrosPerMilli;
  eo.load_manager.heat.sample_period = 1;
  eo.load_manager.heat_decay = 0.5;
  eo.load_manager.min_samples = 8;
  eo.load_manager.split_heat_fraction = 0.3;
  eo.load_manager.split_shards = 4;
  Muppet2Engine engine(config, eo);
  ASSERT_OK(engine.Start());

  using SteadyClock = std::chrono::steady_clock;
  constexpr auto kPhaseLimit = std::chrono::seconds(60);
  int64_t hot_count = 0;
  int64_t seq = 0;
  const auto split_deadline = SteadyClock::now() + kPhaseLimit;
  while (engine.key_splits() == 0 && SteadyClock::now() < split_deadline) {
    for (int i = 0; i < 16; ++i) {
      ASSERT_OK(engine.Publish("in", "hot", "", ++seq));
      ++hot_count;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(engine.key_splits(), 0) << "hot key never split";
  // Keep the key hot a while, so its shards hold slates to sweep.
  for (int round = 0; round < 32; ++round) {
    for (int i = 0; i < 16; ++i) {
      ASSERT_OK(engine.Publish("in", "hot", "", ++seq));
      ++hot_count;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto merge_deadline = SteadyClock::now() + kPhaseLimit;
  while (engine.key_merges() == 0 && SteadyClock::now() < merge_deadline) {
    for (int k = 0; k < 8; ++k) {
      ASSERT_OK(engine.Publish("in", "u" + std::to_string(k), "", ++seq));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(engine.key_merges(), 0) << "split never merged back";
  engine.PauseLoadManagement();
  ASSERT_OK(engine.Drain());
  ASSERT_EQ(CountOf(engine, "count", "hot"), hot_count);
  ASSERT_OK(engine.Stop());  // syncs every changelog tail

  // Last record wins; a delete leaves the slate absent.
  std::map<Bytes, std::optional<Bytes>> replayed;
  for (uint64_t m = 0; m < 2; ++m) {
    SlateLogReplayStats stats;
    ASSERT_OK(SlateChangelog::Replay(
        dir.path(), m, 0,
        [&](const SlateLogRecord& rec) {
          switch (static_cast<SlateLogKind>(rec.kind)) {
            case SlateLogKind::kUpdate:
              replayed[rec.key] = rec.value;
              break;
            case SlateLogKind::kDelete:
              replayed[rec.key] = std::nullopt;
              break;
            case SlateLogKind::kMark:
              break;
          }
        },
        &stats));
  }
  ASSERT_TRUE(replayed.count("hot") > 0 && replayed["hot"].has_value());
  JsonSlate base(&*replayed["hot"]);
  EXPECT_EQ(base.data().GetInt("count", -1), hot_count)
      << "the base slate replays to its pre-merge value";
  int shards_written = 0;
  for (int shard = 0; shard < eo.load_manager.split_shards; ++shard) {
    auto it = replayed.find(MakeSplitKey("hot", shard));
    if (it == replayed.end()) continue;
    ++shards_written;
    EXPECT_FALSE(it->second.has_value())
        << "swept shard slate " << shard << " replays live";
  }
  EXPECT_GT(shards_written, 0) << "no shard slate was ever written";
}

TEST(DurableEngine, StartRequiresDirWhenDurable) {
  AppConfig config;
  BuildCountingApp(&config);
  EngineOptions eo;
  eo.num_machines = 2;
  eo.durability.consistency = Consistency::kAtLeastOnce;  // no dir
  Muppet2Engine engine(config, eo);
  EXPECT_FALSE(engine.Start().ok());
}

TEST(DurableEngine, LossyModeWritesNothing) {
  TempDir dir;
  AppConfig config;
  BuildCountingApp(&config);
  EngineOptions eo = DurableOptions<Muppet2Engine>(dir.path(),
                                                   Consistency::kLossy);
  Muppet2Engine engine(config, eo);
  ASSERT_OK(engine.Start());
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(engine.Publish("in", "k" + std::to_string(i % 5), "v", i + 1));
  }
  ASSERT_OK(engine.Drain());
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.slatelog_appends, 0);
  EXPECT_EQ(stats.slatelog_synced_records, 0);
  EXPECT_EQ(stats.checkpoints, 0);
  ASSERT_OK(engine.Stop());
  EXPECT_TRUE(std::filesystem::is_empty(dir.path()));
}

template <typename EngineT>
void CrashRestartRestoresCounts(Consistency knob) {
  TempDir dir;
  AppConfig config;
  BuildCountingApp(&config);
  EngineOptions eo = DurableOptions<EngineT>(dir.path(), knob);
  // Sync cadence of 1 even below kExactlyOnce: this directed test pins
  // lossless replay; the buffered-tail bound has its own coverage above.
  eo.durability.sync_every_records = 1;
  EngineT engine(config, eo);
  ASSERT_OK(engine.Start());

  constexpr int kKeys = 8;
  constexpr int kRounds = 10;
  for (int r = 0; r < kRounds; ++r) {
    for (int k = 0; k < kKeys; ++k) {
      ASSERT_OK(engine.Publish("in", "k" + std::to_string(k), "v",
                               r * kKeys + k + 1));
    }
  }
  ASSERT_OK(engine.Drain());
  std::map<std::string, int64_t> before;
  for (int k = 0; k < kKeys; ++k) {
    const std::string key = "k" + std::to_string(k);
    before[key] = CountOf(engine, "count", key);
    EXPECT_EQ(before[key], kRounds) << key;
  }

  // Crash a worker machine: every cached slate it owned is wiped. Replay
  // during restart must restore each one before the machine rejoins.
  ASSERT_OK(engine.CrashMachine(1));
  ASSERT_OK(engine.RestartMachine(1));
  for (int k = 0; k < kKeys; ++k) {
    const std::string key = "k" + std::to_string(k);
    EXPECT_EQ(CountOf(engine, "count", key), before[key])
        << key << " after crash/restart";
  }
  EXPECT_GE(engine.Stats().slatelog_replays, 1);

  // The recovered machine keeps serving: counts advance past the crash.
  for (int k = 0; k < kKeys; ++k) {
    ASSERT_OK(engine.Publish("in", "k" + std::to_string(k), "v", 10000 + k));
  }
  ASSERT_OK(engine.Drain());
  for (int k = 0; k < kKeys; ++k) {
    const std::string key = "k" + std::to_string(k);
    EXPECT_EQ(CountOf(engine, "count", key), kRounds + 1) << key;
  }
  ASSERT_OK(engine.Stop());
}

TEST(DurableEngine, Muppet2CrashRestartRestoresCounts) {
  CrashRestartRestoresCounts<Muppet2Engine>(Consistency::kExactlyOnce);
}

TEST(DurableEngine, Muppet1CrashRestartRestoresCounts) {
  CrashRestartRestoresCounts<Muppet1Engine>(Consistency::kExactlyOnce);
}

TEST(DurableEngine, Muppet2AtLeastOnceCrashRestartRestoresCounts) {
  CrashRestartRestoresCounts<Muppet2Engine>(Consistency::kAtLeastOnce);
}

template <typename EngineT>
void ColdStartReplaysPriorRun() {
  TempDir dir;
  AppConfig config;
  BuildCountingApp(&config);
  EngineOptions eo =
      DurableOptions<EngineT>(dir.path(), Consistency::kExactlyOnce);
  {
    EngineT engine(config, eo);
    ASSERT_OK(engine.Start());
    for (int i = 0; i < 40; ++i) {
      ASSERT_OK(
          engine.Publish("in", "k" + std::to_string(i % 4), "v", i + 1));
    }
    ASSERT_OK(engine.Drain());
    ASSERT_OK(engine.Stop());
  }
  // A brand-new engine over the same changelog directory: cold-start
  // replay must rebuild every slate before the first event arrives.
  EngineT engine(config, eo);
  ASSERT_OK(engine.Start());
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(CountOf(engine, "count", "k" + std::to_string(k)), 10)
        << "cold start lost k" << k;
  }
  ASSERT_OK(engine.Stop());
}

TEST(DurableEngine, Muppet2ColdStartReplaysPriorRun) {
  ColdStartReplaysPriorRun<Muppet2Engine>();
}

TEST(DurableEngine, Muppet1ColdStartReplaysPriorRun) {
  ColdStartReplaysPriorRun<Muppet1Engine>();
}

TEST(DurableEngine, RepeatedRecoveryCyclesAreIdempotent) {
  TempDir dir;
  AppConfig config;
  BuildCountingApp(&config);
  EngineOptions eo =
      DurableOptions<Muppet2Engine>(dir.path(), Consistency::kExactlyOnce);
  Muppet2Engine engine(config, eo);
  ASSERT_OK(engine.Start());
  for (int i = 0; i < 30; ++i) {
    ASSERT_OK(engine.Publish("in", "k" + std::to_string(i % 3), "v", i + 1));
  }
  ASSERT_OK(engine.Drain());

  // Crash-during-replay model: replay is read-only on the changelog, so
  // a recovery interrupted by another crash is just a fresh recovery.
  // Three consecutive cycles must converge to the same counts each time.
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_OK(engine.CrashMachine(1));
    ASSERT_OK(engine.RestartMachine(1));
    for (int k = 0; k < 3; ++k) {
      EXPECT_EQ(CountOf(engine, "count", "k" + std::to_string(k)), 10)
          << "cycle " << cycle << " k" << k;
    }
  }
  EXPECT_GE(engine.Stats().slatelog_replays, 3);
  ASSERT_OK(engine.Stop());
}

TEST(DurableEngine, StatusReportsDurabilityPanel) {
  TempDir dir;
  AppConfig config;
  BuildCountingApp(&config);
  EngineOptions eo =
      DurableOptions<Muppet2Engine>(dir.path(), Consistency::kExactlyOnce);
  Muppet2Engine engine(config, eo);
  ASSERT_OK(engine.Start());
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK(engine.Publish("in", "k" + std::to_string(i % 4), "v", i + 1));
  }
  ASSERT_OK(engine.Drain());

  const EngineStats stats = engine.Stats();
  EXPECT_GT(stats.slatelog_appends, 0);
  // Exactly-once: every append is synced before it is acknowledged.
  EXPECT_EQ(stats.slatelog_synced_records, stats.slatelog_appends);

  bool some_lsn = false;
  for (const MachineStatus& ms : engine.MachineStatuses()) {
    EXPECT_EQ(ms.consistency, "exactly-once");
    EXPECT_EQ(ms.slatelog_lsn, ms.slatelog_synced_lsn);
    EXPECT_EQ(ms.dedup_capacity, DedupTable::kMachineCapacity);
    if (ms.slatelog_lsn > 0) some_lsn = true;
  }
  EXPECT_TRUE(some_lsn);
  ASSERT_OK(engine.Stop());
}

// A changelog that stops working is counted, and the data path keeps
// running. Removing the changelog directory makes the next checkpoint's
// segment rotation fail (ENOENT); that leaves the log closed, so every
// later append and sync fails too. Once the directory is back, the next
// append or sync reopens the log: the errors stop and the synced cursor
// moves again.
TEST(DurableEngine, ChangelogErrorsAreCountedAndUpdatesContinue) {
  TempDir log_dir;
  TempDir store_dir;
  kv::KvClusterOptions kv_options;
  kv_options.num_nodes = 1;
  kv_options.replication_factor = 1;
  kv_options.node.data_dir = store_dir.path();
  kv::KvCluster cluster(kv_options);
  ASSERT_OK(cluster.Open());
  SlateStore store(&cluster, SlateStoreOptions{});

  AppConfig config;
  BuildCountingApp(&config);
  EngineOptions eo =
      DurableOptions<Muppet2Engine>(log_dir.path(), Consistency::kAtLeastOnce);
  eo.num_machines = 1;
  eo.slate_store = &store;
  eo.durability.checkpoint_every_records = 4;
  Muppet2Engine engine(config, eo);
  ASSERT_OK(engine.Start());
  const Counter* errors =
      engine.metrics()->GetCounter("muppet_slatelog_errors_total");
  int published = 0;
  auto publish = [&](int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_OK(engine.Publish("in", "k", "", ++published));
    }
    ASSERT_OK(engine.Drain());
  };

  std::filesystem::remove_all(log_dir.path());
  // Publish past the checkpoint cadence until a flusher pass has tried
  // to rotate the segment.
  for (int round = 0; round < 500 && errors->Get() == 0; ++round) {
    publish(8);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(errors->Get(), 0);

  publish(10);
  EXPECT_EQ(engine.Stats().events_processed, published);
  EXPECT_EQ(CountOf(engine, "count", "k"), published);

  ASSERT_TRUE(std::filesystem::create_directories(log_dir.path()));
  publish(10);
  const int64_t errors_before = errors->Get();
  auto synced_lsn = [&engine] {
    return engine.MachineStatuses()[0].slatelog_synced_lsn;
  };
  const uint64_t synced_before = synced_lsn();
  publish(10);
  // The 10 ms flusher pass syncs the new appends.
  for (int i = 0; i < 500 && synced_lsn() <= synced_before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(synced_lsn(), synced_before);
  EXPECT_EQ(errors->Get(), errors_before);
  EXPECT_EQ(CountOf(engine, "count", "k"), published);
  ASSERT_OK(engine.Stop());
}

}  // namespace
}  // namespace muppet
