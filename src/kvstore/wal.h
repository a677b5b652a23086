// Write-ahead log. Persists every accepted write before it is acknowledged
// so that a node restart replays the memtable (paper §4.2: "persistent
// slates help resuming, restarting, or recovering the application from
// crashes"). Record framing: [u32 crc][u32 len][payload]; replay stops at
// the first corrupt/truncated record (a torn tail is normal after a crash).
#ifndef MUPPET_KVSTORE_WAL_H_
#define MUPPET_KVSTORE_WAL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "common/sync.h"
#include "kvstore/format.h"

namespace muppet {
namespace kv {

class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // Open (create or append to) the log at `path`.
  Status Open(const std::string& path);

  // Append one record. `sync` forces an fflush+fsync (durability at the
  // cost of latency; Muppet favors latency, so the default is buffered).
  Status Append(const Record& rec, bool sync = false);
  // Append a record already in its EncodeRecord form; the log frames and
  // writes these bytes as they are.
  Status Append(BytesView encoded, bool sync = false);

  Status Sync();

  // Close and delete the log file (after a successful memtable flush, the
  // log's contents are covered by an SSTable).
  Status CloseAndRemove();

  Status Close();

  bool is_open() const MUPPET_NO_THREAD_SAFETY_ANALYSIS {
    // Unsynchronized peek; callers serialize Open/Close externally (the
    // shard holds tables_mutex_ across log rotation).
    return file_ != nullptr;
  }
  const std::string& path() const { return path_; }

  static constexpr LockLevel kLockLevel = LockLevel::kStoreIo;

 private:
  Mutex mutex_{kLockLevel};
  std::FILE* file_ MUPPET_GUARDED_BY(mutex_) = nullptr;
  // muppet-lint: allow(guarded): written only by Open(), stable after
  std::string path_;
};

// Replay every intact record of the log at `path` in append order.
// A missing file yields an empty result (fresh node). Corrupt tails are
// tolerated; corruption before the tail is reported in *truncated_tail but
// replay still returns the prefix.
Status ReplayWal(const std::string& path, std::vector<Record>* records,
                 bool* truncated_tail);

}  // namespace kv
}  // namespace muppet

#endif  // MUPPET_KVSTORE_WAL_H_
