#include "engine/slatelog.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "common/hash.h"

namespace muppet {

namespace fs = std::filesystem;

const char* ConsistencyName(Consistency mode) {
  switch (mode) {
    case Consistency::kLossy:
      return "lossy";
    case Consistency::kAtLeastOnce:
      return "at-least-once";
    case Consistency::kExactlyOnce:
      return "exactly-once";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Wire formats.
// ---------------------------------------------------------------------------

void EncodeSlateLogRecord(const SlateLogRecord& rec, Bytes* out) {
  PutVarint32(out, rec.kind);
  PutVarint64(out, rec.lsn);
  PutLengthPrefixed(out, rec.updater);
  PutLengthPrefixed(out, rec.key);
  PutLengthPrefixed(out, rec.value);
  PutVarint64(out, static_cast<uint64_t>(rec.ts));
  PutVarint64(out, rec.seq);
  PutVarint64(out, rec.work);
  PutVarint64(out, rec.dedup);
}

Status DecodeSlateLogRecord(BytesView data, SlateLogRecord* rec) {
  const char* p = data.data();
  const char* limit = p + data.size();
  uint32_t kind = 0;
  uint64_t lsn = 0, ts = 0, seq = 0, work = 0, dedup = 0;
  BytesView updater, key, value;
  if (!GetVarint32(&p, limit, &kind) || !GetVarint64(&p, limit, &lsn) ||
      !GetLengthPrefixed(&p, limit, &updater) ||
      !GetLengthPrefixed(&p, limit, &key) ||
      !GetLengthPrefixed(&p, limit, &value) ||
      !GetVarint64(&p, limit, &ts) || !GetVarint64(&p, limit, &seq) ||
      !GetVarint64(&p, limit, &work) || !GetVarint64(&p, limit, &dedup) ||
      p != limit || kind > static_cast<uint32_t>(SlateLogKind::kMark)) {
    return Status::Corruption("slatelog: malformed record");
  }
  rec->kind = static_cast<uint8_t>(kind);
  rec->lsn = lsn;
  rec->updater.assign(updater);
  rec->key.assign(key);
  rec->value.assign(value);
  rec->ts = static_cast<Timestamp>(ts);
  rec->seq = seq;
  rec->work = work;
  rec->dedup = dedup;
  return Status::OK();
}

void EncodeCheckpointManifest(const CheckpointManifest& manifest, Bytes* out) {
  PutVarint64(out, manifest.machine);
  PutVarint64(out, manifest.lsn);
  PutVarint64(out, manifest.segment);
  PutVarint64(out, static_cast<uint64_t>(manifest.ts));
}

Status DecodeCheckpointManifest(BytesView data, CheckpointManifest* manifest) {
  const char* p = data.data();
  const char* limit = p + data.size();
  uint64_t machine = 0, lsn = 0, segment = 0, ts = 0;
  if (!GetVarint64(&p, limit, &machine) || !GetVarint64(&p, limit, &lsn) ||
      !GetVarint64(&p, limit, &segment) || !GetVarint64(&p, limit, &ts) ||
      p != limit) {
    return Status::Corruption("slatelog: malformed manifest");
  }
  manifest->machine = machine;
  manifest->lsn = lsn;
  manifest->segment = segment;
  manifest->ts = static_cast<Timestamp>(ts);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SlateChangelog.
// ---------------------------------------------------------------------------

namespace {

std::string SegmentFileName(uint64_t machine, uint64_t segment) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "changelog-%llu-%08llu.log",
                static_cast<unsigned long long>(machine),
                static_cast<unsigned long long>(segment));
  return buf;
}

// Parse "<segment>" out of a segment file name for `machine`; returns false
// for unrelated files (other machines, manifests, temp files).
bool ParseSegmentFileName(const std::string& name, uint64_t machine,
                          uint64_t* segment) {
  char prefix[64];
  std::snprintf(prefix, sizeof(prefix), "changelog-%llu-",
                static_cast<unsigned long long>(machine));
  const std::string pfx(prefix);
  if (name.size() <= pfx.size() + 4 || name.compare(0, pfx.size(), pfx) != 0 ||
      name.compare(name.size() - 4, 4, ".log") != 0) {
    return false;
  }
  const std::string digits = name.substr(pfx.size(),
                                         name.size() - pfx.size() - 4);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *segment = std::strtoull(digits.c_str(), nullptr, 10);
  return true;
}

// Sorted segment numbers present on disk for `machine`.
std::vector<uint64_t> ListSegments(const std::string& dir, uint64_t machine) {
  std::vector<uint64_t> segments;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t segment = 0;
    if (ParseSegmentFileName(entry.path().filename().string(), machine,
                             &segment)) {
      segments.push_back(segment);
    }
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

// Decode each frame as a SlateLogRecord; an undecodable one ends the scan
// as if torn.
FrameVisitor RecordVisitor(
    const std::function<void(const SlateLogRecord&)>& cb) {
  return [&cb](BytesView payload) {
    SlateLogRecord rec;
    if (!DecodeSlateLogRecord(payload, &rec).ok()) return false;
    cb(rec);
    return true;
  };
}

// Scan one segment file, invoking `cb` for each intact record in order.
// Returns false if the scan stopped at a torn/corrupt frame.
bool ScanSegment(const std::string& path,
                 const std::function<void(const SlateLogRecord&)>& cb) {
  FrameScan scan;
  const Status s = ScanFramedLog(path, RecordVisitor(cb), &scan);
  return s.ok() && !scan.torn;
}

// Make a directory-entry mutation (segment create/unlink, manifest rename)
// itself durable: fsync the containing directory. Best-effort on platforms
// where directories cannot be opened for fsync.
void SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

std::string SlateChangelog::SegmentPath(const std::string& dir,
                                        uint64_t machine, uint64_t segment) {
  return (fs::path(dir) / SegmentFileName(machine, segment)).string();
}

std::string SlateChangelog::ManifestPath(const std::string& dir,
                                         uint64_t machine) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "manifest-%llu",
                static_cast<unsigned long long>(machine));
  return (fs::path(dir) / buf).string();
}

SlateChangelog::SlateChangelog(std::string dir, uint64_t machine,
                               Options options)
    : dir_(std::move(dir)),
      machine_(machine),
      options_(std::move(options)),
      log_(options_.device_factory ? options_.device_factory() : nullptr) {}

SlateChangelog::~SlateChangelog() { (void)Close(); }

Status SlateChangelog::OpenActiveLocked(const FrameVisitor& replay) {
  MUPPET_RETURN_IF_ERROR(
      log_.Open(SegmentPath(dir_, machine_, active_segment_), replay));
  // Persist the segment's directory entry too, so the file itself (not
  // just its contents) survives a crash.
  SyncDir(dir_);
  return Status::OK();
}

Status SlateChangelog::Open() {
  MutexLock lock(mutex_);
  if (log_.is_open()) {
    return Status::FailedPrecondition("slatelog: already open");
  }
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return Status::IOError("slatelog: mkdir " + dir_ + ": " + ec.message());
  }
  // The checkpoint cursor floors the sequence: a checkpoint may have
  // dropped every segment carrying the highest lsns (leaving only a fresh
  // empty active segment), and reissuing lsns at or below the cursor
  // would make Replay() skip acknowledged records forever. A corrupt or
  // missing manifest reads as a zero floor.
  CheckpointManifest manifest;
  (void)ReadManifestFile(dir_, machine_, &manifest);
  const std::vector<uint64_t> segments = ListSegments(dir_, machine_);
  active_segment_ = segments.empty() ? 1 : segments.back();
  active_segment_ = std::max(active_segment_, manifest.segment);
  segment_max_lsn_.clear();
  uint64_t max_lsn = manifest.lsn;
  for (uint64_t segment : segments) {
    if (segment == active_segment_) continue;  // scanned by the writer
    uint64_t seg_max = 0;
    (void)ScanSegment(SegmentPath(dir_, machine_, segment),
                      [&seg_max](const SlateLogRecord& rec) {
                        seg_max = std::max(seg_max, rec.lsn);
                      });
    segment_max_lsn_[segment] = seg_max;
    max_lsn = std::max(max_lsn, seg_max);
  }
  // Opening the active segment scans it once more and truncates a torn
  // tail at the last intact frame, so post-recovery appends stay
  // reachable.
  uint64_t active_max = 0;
  MUPPET_RETURN_IF_ERROR(OpenActiveLocked(
      RecordVisitor([&active_max](const SlateLogRecord& rec) {
        active_max = std::max(active_max, rec.lsn);
      })));
  max_lsn = std::max(max_lsn, active_max);
  segment_max_lsn_[active_segment_] = max_lsn;
  next_lsn_ = max_lsn + 1;
  // Everything that survived on disk is durable by definition.
  synced_lsn_ = max_lsn;
  unsynced_records_ = 0;
  reopen_ = false;
  return Status::OK();
}

Status SlateChangelog::OpenRotatedLocked() {
  Status s = OpenActiveLocked();
  reopen_ = !s.ok();
  if (s.ok()) segment_max_lsn_.emplace(active_segment_, next_lsn_ - 1);
  return s;
}

Result<uint64_t> SlateChangelog::Append(SlateLogRecord rec) {
  MutexLock lock(mutex_);
  if (reopen_) MUPPET_RETURN_IF_ERROR(OpenRotatedLocked());
  rec.lsn = next_lsn_;
  Bytes payload;
  EncodeSlateLogRecord(rec, &payload);
  MUPPET_RETURN_IF_ERROR(log_.Append(payload));
  next_lsn_++;
  segment_max_lsn_[active_segment_] = rec.lsn;
  unsynced_records_++;
  if (options_.sync_every_records <= 1 ||
      unsynced_records_ >= options_.sync_every_records) {
    MUPPET_RETURN_IF_ERROR(SyncLocked());
  }
  return rec.lsn;
}

Status SlateChangelog::SyncLocked() {
  MUPPET_RETURN_IF_ERROR(log_.Sync());
  synced_lsn_ = next_lsn_ - 1;
  unsynced_records_ = 0;
  return Status::OK();
}

Status SlateChangelog::Sync() {
  MutexLock lock(mutex_);
  if (reopen_) MUPPET_RETURN_IF_ERROR(OpenRotatedLocked());
  return SyncLocked();
}

Status SlateChangelog::RotateSegment() {
  MutexLock lock(mutex_);
  MUPPET_RETURN_IF_ERROR(SyncLocked());
  MUPPET_RETURN_IF_ERROR(log_.Close());
  active_segment_++;
  return OpenRotatedLocked();
}

Result<int> SlateChangelog::DropSegmentsCoveredBy(uint64_t manifest_lsn) {
  MutexLock lock(mutex_);
  int dropped = 0;
  for (auto it = segment_max_lsn_.begin(); it != segment_max_lsn_.end();) {
    const auto [segment, seg_max] = *it;
    if (segment == active_segment_ || seg_max > manifest_lsn) {
      ++it;
      continue;
    }
    std::error_code ec;
    fs::remove(SegmentPath(dir_, machine_, segment), ec);
    if (ec) {
      return Status::IOError("slatelog: drop segment: " + ec.message());
    }
    it = segment_max_lsn_.erase(it);
    dropped++;
  }
  if (dropped > 0) SyncDir(dir_);
  return dropped;
}

void SlateChangelog::CrashClose() {
  MutexLock lock(mutex_);
  reopen_ = false;
  if (!log_.is_open()) return;
  log_.CrashClose();
  // The unsynced suffix is gone (unless a full buffer already wrote part
  // of it); the next Open() rescans what the file holds and continues the
  // lsn sequence after it.
  next_lsn_ = synced_lsn_ + 1;
  unsynced_records_ = 0;
}

Status SlateChangelog::Close() {
  MutexLock lock(mutex_);
  reopen_ = false;
  if (!log_.is_open()) return Status::OK();
  Status s = SyncLocked();
  Status closed = log_.Close();
  return s.ok() ? closed : s;
}

uint64_t SlateChangelog::last_lsn() const {
  MutexLock lock(mutex_);
  return next_lsn_ - 1;
}

uint64_t SlateChangelog::synced_lsn() const {
  MutexLock lock(mutex_);
  return synced_lsn_;
}

uint64_t SlateChangelog::active_segment() const {
  MutexLock lock(mutex_);
  return active_segment_;
}

uint64_t SlateChangelog::segment_count() const {
  MutexLock lock(mutex_);
  return segment_max_lsn_.size();
}

Status SlateChangelog::Replay(
    const std::string& dir, uint64_t machine, uint64_t from_lsn,
    const std::function<void(const SlateLogRecord&)>& cb,
    SlateLogReplayStats* stats) {
  SlateLogReplayStats local;
  SlateLogReplayStats* out = stats != nullptr ? stats : &local;
  *out = SlateLogReplayStats{};
  const std::vector<uint64_t> segments = ListSegments(dir, machine);
  for (size_t i = 0; i < segments.size(); ++i) {
    out->segments++;
    const bool clean =
        ScanSegment(SegmentPath(dir, machine, segments[i]),
                    [&](const SlateLogRecord& rec) {
                      if (rec.lsn <= from_lsn) {
                        out->skipped++;
                        return;
                      }
                      out->records++;
                      cb(rec);
                    });
    if (!clean) {
      if (i + 1 == segments.size()) {
        // A torn tail in the final segment is the normal shape of a crash
        // mid-append; the intact prefix is everything durable.
        out->truncated_tail = true;
      } else {
        // Corruption mid-history: frame boundaries are lost for the rest
        // of THIS segment, but later segments are independent files —
        // keep going so their intact records still restore state
        // (records are absolute-valued, so the restored suffix stays
        // self-consistent).
        out->corrupt_segments++;
      }
    }
  }
  return Status::OK();
}

Status SlateChangelog::WriteManifestFile(const std::string& dir,
                                         const CheckpointManifest& manifest) {
  Bytes payload;
  EncodeCheckpointManifest(manifest, &payload);
  const std::string path = ManifestPath(dir, manifest.machine);
  const std::string tmp = path + ".tmp";
  // A write that crashed before its rename may have left a tmp file; the
  // writer would append to it.
  std::error_code ec;
  fs::remove(tmp, ec);
  FramedLogWriter writer;
  MUPPET_RETURN_IF_ERROR(writer.Open(tmp));
  MUPPET_RETURN_IF_ERROR(writer.Append(payload));
  MUPPET_RETURN_IF_ERROR(writer.Sync());
  MUPPET_RETURN_IF_ERROR(writer.Close());
  fs::rename(tmp, path, ec);
  if (ec) {
    return Status::IOError("slatelog: manifest rename: " + ec.message());
  }
  // The rename itself is a directory mutation: without a dir fsync a power
  // loss can undo it after covered segments were already unlinked, leaving
  // a stale cursor pointing at deleted history.
  SyncDir(dir);
  return Status::OK();
}

Status SlateChangelog::ReadManifestFile(const std::string& dir,
                                        uint64_t machine,
                                        CheckpointManifest* manifest) {
  *manifest = CheckpointManifest{};
  manifest->machine = machine;
  const std::string path = ManifestPath(dir, machine);
  std::error_code ec;
  if (!fs::exists(path, ec)) return Status::OK();  // no checkpoint yet
  FrameScan scan;
  Status s = ScanFramedLog(
      path,
      [manifest](BytesView payload) {
        return DecodeCheckpointManifest(payload, manifest).ok();
      },
      &scan);
  if (s.ok() && (scan.frames != 1 || scan.torn)) {
    s = Status::Corruption("slatelog: manifest corrupt");
  }
  if (!s.ok()) *manifest = CheckpointManifest{};
  return s;
}

// ---------------------------------------------------------------------------
// DedupTable.
// ---------------------------------------------------------------------------

uint64_t DedupIdentity(uint64_t sid_hash, Timestamp ts, uint64_t seq) {
  const uint64_t id = Mix64(
      HashCombine(HashCombine(sid_hash, static_cast<uint64_t>(ts)), seq));
  return id == 0 ? 1 : id;  // 0 is reserved for "no identity"
}

DedupTable::DedupTable(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

bool DedupTable::CheckAndInsert(uint64_t id) {
  MutexLock lock(mutex_);
  if (present_.count(id) != 0) return false;
  if (fifo_.size() >= capacity_) {
    present_.erase(fifo_.front());
    fifo_.pop_front();
  }
  fifo_.push_back(id);
  present_.insert(id);
  return true;
}

bool DedupTable::Contains(uint64_t id) const {
  MutexLock lock(mutex_);
  return present_.count(id) != 0;
}

void DedupTable::Seed(uint64_t id) { (void)CheckAndInsert(id); }

void DedupTable::Remove(uint64_t id) {
  MutexLock lock(mutex_);
  if (present_.erase(id) == 0) return;
  // Unwinds almost always target the most recent reservation: search from
  // the back.
  for (auto it = fifo_.rbegin(); it != fifo_.rend(); ++it) {
    if (*it == id) {
      fifo_.erase(std::next(it).base());
      break;
    }
  }
}

void DedupTable::Clear() {
  MutexLock lock(mutex_);
  fifo_.clear();
  present_.clear();
}

size_t DedupTable::size() const {
  MutexLock lock(mutex_);
  return fifo_.size();
}

}  // namespace muppet
