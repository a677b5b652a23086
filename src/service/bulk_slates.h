// Bulk reading of slates (paper §5). The paper describes two routes:
//
//  1. "request large-volume row reads from the durable key-value store
//     itself" — users "must know how slates are written to the key-value
//     store ... to extract the slates back". BulkSlateReader encapsulates
//     that layout knowledge (row = key, column = updater, compressed) and
//     dumps every slate of an updater.
//
//  2. the advised alternative: "log the relevant slate data that they wish
//     to process in bulk later as a part of the applications' update
//     functions", giving "steady-state write behavior that avoids sudden
//     bulk I/O". SlateLogger is that append-only log: update functions
//     write small records as they go; offline consumers stream them later
//     (the paper mentions piping such logs into HDFS for Hadoop). The log
//     is a framed log (common/framed_log.h): reopening it truncates a torn
//     tail, so records appended after a crash stay readable.
#ifndef MUPPET_SERVICE_BULK_SLATES_H_
#define MUPPET_SERVICE_BULK_SLATES_H_

#include <functional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/framed_log.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/sync.h"
#include "core/slate.h"
#include "core/slate_store.h"

namespace muppet {

// Route 1: offline dump straight from the store.
class BulkSlateReader {
 public:
  explicit BulkSlateReader(SlateStore* store);

  // All live slates of `updater`, decompressed, in key order.
  Status DumpUpdater(const std::string& updater,
                     std::vector<std::pair<Bytes, Bytes>>* key_slates);

  // All live slates of every updater: (SlateId, bytes), ordered by key
  // then updater.
  Status DumpAll(std::vector<std::pair<SlateId, Bytes>>* slates);

  // Stream variant: invoke `fn` per slate without materializing the dump.
  Status ForEach(const std::string& updater,
                 const std::function<void(BytesView key, BytesView slate)>&
                     fn);

 private:
  SlateStore* store_;
};

// Route 2: the advised steady-state log. Thread-safe appends of
// length-prefixed (key, payload) records; readable back in order. Update
// functions share one logger per application — the paper's caution about
// "lock contention for the common logger" is real, so appends buffer and
// the mutex hold is a crc and a memcpy (a write every 4 KiB).
class SlateLogger {
 public:
  SlateLogger() = default;

  SlateLogger(const SlateLogger&) = delete;
  SlateLogger& operator=(const SlateLogger&) = delete;

  Status Open(const std::string& path);

  // Append one record (e.g. a trimmed projection of the slate — "users
  // write less than the entire slate to minimize the dumped data").
  Status Append(BytesView key, BytesView payload);

  Status Close();

  int64_t records_written() const { return records_written_.Get(); }

  // Read every intact record of a log file, in append order. A missing
  // file reads as empty.
  static Status ReadLog(const std::string& path,
                        std::vector<std::pair<Bytes, Bytes>>* records);

  static constexpr LockLevel kLockLevel = LockLevel::kJournal;

 private:
  Mutex mutex_{kLockLevel};
  FramedLogWriter log_ MUPPET_GUARDED_BY(mutex_);
  // Counter (not a guarded int) so records_written() stays lock-free for
  // status endpoints while updaters append concurrently.
  Counter records_written_;
};

}  // namespace muppet

#endif  // MUPPET_SERVICE_BULK_SLATES_H_
