// Durable per-machine slate changelog (ROADMAP item 3; DESIGN.md §12).
//
// The paper accepts that "all the slate updates in the memory of the failed
// machine" are lost on a crash (§4.4). This subsystem closes that hole: every
// slate update appends an absolute-value `(sid, ts, work_hash, delta)` record
// to a per-machine changelog, periodic incremental checkpoints flush dirty
// slates into the kvstore and advance a manifest cursor, and recovery
// replays the changelog suffix past the manifest before the machine rejoins
// the ring. The segments and the manifest are framed logs
// (common/framed_log.h): torn tails are tolerated on replay and truncated
// when the active segment reopens.
//
// Three consistency positions (EngineOptions::durability.consistency):
//   kLossy        paper-faithful: no changelog, crash loses cached updates.
//   kAtLeastOnce  changelog with a buffered sync cadence + replay; a crash
//                 loses at most the unsynced tail (bounded by
//                 sync_every_records), never a checkpointed record.
//   kExactlyOnce  every append is synced before the update is visible, and a
//                 bounded dedup table keyed on the event's (sid, ts, seq)
//                 identity suppresses redelivered cross-machine batches after
//                 the recovery epoch cut.
#ifndef MUPPET_ENGINE_SLATELOG_H_
#define MUPPET_ENGINE_SLATELOG_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/framed_log.h"
#include "common/status.h"
#include "common/sync.h"

namespace muppet {

// ---------------------------------------------------------------------------
// Consistency knob.
// ---------------------------------------------------------------------------

enum class Consistency : uint8_t {
  kLossy = 0,        // paper-faithful, zero-cost (default)
  kAtLeastOnce = 1,  // changelog + replay, buffered syncs
  kExactlyOnce = 2,  // synced changelog + replay + bounded dedup
};

const char* ConsistencyName(Consistency mode);

struct DurabilityOptions {
  Consistency consistency = Consistency::kLossy;
  // Directory for changelog segments and manifest files. Required for any
  // mode other than kLossy; created on engine Start if absent.
  std::string dir;
  // At-least-once: fsync once every N appends. Exactly-once behaves as 1
  // regardless (every record durable before the update is acknowledged).
  uint32_t sync_every_records = 32;
  // Take an incremental checkpoint (flush dirty slates to the kvstore,
  // advance the manifest, drop covered segments) every N appends. 0 turns
  // checkpointing off; checkpoints also require a configured slate store.
  uint64_t checkpoint_every_records = 512;
};

// ---------------------------------------------------------------------------
// Changelog records + checkpoint manifest (wire formats; muppet-lint's
// wire pass pins the Put/Get pairs below).
// ---------------------------------------------------------------------------

enum class SlateLogKind : uint8_t {
  kUpdate = 0,  // absolute post-update slate value
  kDelete = 1,  // slate tombstone
  kMark = 2,    // processed-event marker (no state delta; identity only)
};

// One changelog record. `updater` + `key` name the slate (the paper's sid),
// `ts`/`seq` carry the identity of the event that produced the update, and
// `value` is the absolute post-update slate — replay is idempotent because
// the last record for a slate wins.
struct SlateLogRecord {
  uint8_t kind = 0;  // SlateLogKind
  uint64_t lsn = 0;  // assigned by the writer; monotone per machine
  std::string updater;
  Bytes key;
  Bytes value;
  Timestamp ts = 0;   // event timestamp ((sid, ts) identity half)
  uint64_t seq = 0;   // engine-assigned per-delivery sequence number
  uint64_t work = 0;  // work hash of (function, key)
  uint64_t dedup = 0;  // dedup identity carried on the data frame (0 = none)
};

void EncodeSlateLogRecord(const SlateLogRecord& rec, Bytes* out);
Status DecodeSlateLogRecord(BytesView data, SlateLogRecord* rec);

// Checkpoint cursor: records with `lsn` <= manifest lsn are covered by the
// kvstore (dirty slates flushed before the manifest was written), so replay
// starts past them and whole segments below the cursor can be dropped.
struct CheckpointManifest {
  uint64_t machine = 0;
  uint64_t lsn = 0;
  uint64_t segment = 0;  // active segment when the checkpoint was taken
  Timestamp ts = 0;      // engine-clock time of the checkpoint
};

void EncodeCheckpointManifest(const CheckpointManifest& manifest, Bytes* out);
Status DecodeCheckpointManifest(BytesView data, CheckpointManifest* manifest);

// Column family holding mirrored checkpoint manifests in the kvstore
// (row = "machine-<id>", column = "manifest").
inline constexpr char kCheckpointColumnFamily[] = "ckpt";

// ---------------------------------------------------------------------------
// SlateChangelog: per-machine segmented append log.
// ---------------------------------------------------------------------------

// Replay statistics surfaced as muppet_slatelog_* counters.
struct SlateLogReplayStats {
  uint64_t records = 0;   // records delivered to the callback
  uint64_t skipped = 0;   // records at or below the replay floor
  uint64_t segments = 0;  // segment files visited
  // Non-final segments whose scan hit a corrupt frame (the rest of that
  // segment is unreachable, but replay continues with later segments).
  uint64_t corrupt_segments = 0;
  bool truncated_tail = false;  // final segment ended at a torn frame
};

class SlateChangelog {
 public:
  struct Options {
    uint32_t sync_every_records = 32;
    // Test seam: factory for the segment writer's device. Defaults to
    // FileLogDevice.
    std::function<std::unique_ptr<LogDevice>()> device_factory;
  };

  SlateChangelog(std::string dir, uint64_t machine, Options options);
  ~SlateChangelog();

  SlateChangelog(const SlateChangelog&) = delete;
  SlateChangelog& operator=(const SlateChangelog&) = delete;

  // Scan existing segments (continuing the lsn sequence after a restart)
  // and open the active segment for append. The manifest cursor floors the
  // lsn sequence — a checkpoint may have dropped every segment carrying
  // the highest lsns, and reissued lsns at or below the cursor would be
  // skipped by Replay() forever. A torn tail on the active segment is
  // truncated to the last intact frame so post-recovery appends stay
  // reachable.
  Status Open();

  // Append one record; assigns and returns its lsn. Syncs every
  // sync_every_records appends (1 = every append).
  Result<uint64_t> Append(SlateLogRecord rec);

  // Force buffered appends durable.
  Status Sync();

  // Start a new segment (taken at checkpoint time so covered history can
  // be dropped as whole files).
  Status RotateSegment();

  // Delete closed segments whose records are all covered by `manifest_lsn`.
  // Returns the number of segment files removed.
  Result<int> DropSegmentsCoveredBy(uint64_t manifest_lsn);

  // Crash model: discard unsynced appends and release the file. The
  // durable prefix survives for replay.
  void CrashClose();

  // Graceful close: sync, then release the file.
  Status Close();

  uint64_t last_lsn() const;
  uint64_t synced_lsn() const;
  uint64_t active_segment() const;
  uint64_t segment_count() const;

  // Replay every intact record with lsn > `from_lsn` across all segments
  // in order. A torn frame in the final segment is the normal post-crash
  // tail (stats->truncated_tail); a corrupt frame in an earlier segment
  // skips the rest of that segment only (stats->corrupt_segments) — later
  // segments are independent files and their records still restore state,
  // since records carry absolute values.
  static Status Replay(const std::string& dir, uint64_t machine,
                       uint64_t from_lsn,
                       const std::function<void(const SlateLogRecord&)>& cb,
                       SlateLogReplayStats* stats);

  // Manifest persistence: atomic write (temp + rename) of the cursor file
  // next to the segments, a framed log of one frame, and the matching
  // load. A missing manifest yields a zero cursor (replay from the
  // beginning); one that is not exactly one intact frame is Corruption.
  static Status WriteManifestFile(const std::string& dir,
                                  const CheckpointManifest& manifest);
  static Status ReadManifestFile(const std::string& dir, uint64_t machine,
                                 CheckpointManifest* manifest);

  // Segment file name, exposed for tests that mutilate the tail.
  static std::string SegmentPath(const std::string& dir, uint64_t machine,
                                 uint64_t segment);
  static std::string ManifestPath(const std::string& dir, uint64_t machine);

  static constexpr LockLevel kLockLevel = LockLevel::kSlateChangelog;

 private:
  Status OpenActiveLocked(const FrameVisitor& replay = nullptr)
      MUPPET_REQUIRES(mutex_);
  Status SyncLocked() MUPPET_REQUIRES(mutex_);

  const std::string dir_;
  const uint64_t machine_;
  const Options options_;

  mutable Mutex mutex_{kLockLevel};
  // Appends to the active segment.
  FramedLogWriter log_ MUPPET_GUARDED_BY(mutex_);
  // Closed + active segments and the highest lsn each contains.
  std::map<uint64_t, uint64_t> segment_max_lsn_ MUPPET_GUARDED_BY(mutex_);
  uint64_t active_segment_ MUPPET_GUARDED_BY(mutex_) = 0;
  uint64_t next_lsn_ MUPPET_GUARDED_BY(mutex_) = 1;
  uint64_t synced_lsn_ MUPPET_GUARDED_BY(mutex_) = 0;
  uint32_t unsynced_records_ MUPPET_GUARDED_BY(mutex_) = 0;
};

// ---------------------------------------------------------------------------
// DedupTable: bounded FIFO set of processed event identities (exactly-once).
// ---------------------------------------------------------------------------

// Derive the on-wire dedup identity from the event's (sid, ts, seq) triple.
// Never returns 0 (0 on the wire means "no identity / lossy sender").
uint64_t DedupIdentity(uint64_t sid_hash, Timestamp ts, uint64_t seq);

class DedupTable {
 public:
  explicit DedupTable(size_t capacity);

  // Returns true if `id` was absent (and records it); false for a
  // duplicate. At capacity the oldest identity is evicted first.
  bool CheckAndInsert(uint64_t id);

  bool Contains(uint64_t id) const;

  // Replay seeding: identical to CheckAndInsert but named for intent.
  void Seed(uint64_t id);

  // Unwind a reservation made by CheckAndInsert when the guarded action
  // was declined (e.g. a queue-full push the sender will retry). A no-op
  // for absent ids.
  void Remove(uint64_t id);

  void Clear();

  size_t size() const;
  size_t capacity() const { return capacity_; }

  // Capacity of each machine's table in exactly-once mode.
  static constexpr size_t kMachineCapacity = 4096;
  static constexpr LockLevel kLockLevel = LockLevel::kDedupTable;

 private:
  const size_t capacity_;
  mutable Mutex mutex_{kLockLevel};
  std::deque<uint64_t> fifo_ MUPPET_GUARDED_BY(mutex_);
  std::unordered_set<uint64_t> present_ MUPPET_GUARDED_BY(mutex_);
};

}  // namespace muppet

#endif  // MUPPET_ENGINE_SLATELOG_H_
