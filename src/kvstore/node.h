// A single storage node: the unit that "runs the Cassandra program" in the
// paper's store cluster (§4.2). A node hosts one shard per column family;
// each shard is an LSM stack (WAL -> memtable -> SSTables with size-tiered
// compaction) over a shared device model. The WAL is a framed log
// (common/framed_log.h): a torn tail is truncated when the shard reopens.
#ifndef MUPPET_KVSTORE_NODE_H_
#define MUPPET_KVSTORE_NODE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/framed_log.h"
#include "common/status.h"
#include "common/sync.h"
#include "kvstore/device.h"
#include "kvstore/format.h"
#include "kvstore/memtable.h"
#include "kvstore/sstable.h"

namespace muppet {
namespace kv {

struct NodeOptions {
  // Directory for this node's data (one subdirectory per column family).
  std::string data_dir;
  // Memtable flush threshold in bytes. The paper argues for large write
  // buffers ("delay flushing the writes ... as long as possible").
  size_t memtable_flush_bytes = 4u << 20;
  // Storage device latency profile (SSD/HDD/None).
  DeviceProfile device = DeviceProfile::None();
  // Clock for TTL expiry and device latency. nullptr -> system clock.
  Clock* clock = nullptr;
  // Size-tiered compaction (CompactionPolicy's defaults) runs inline
  // after flushes; false disables it (benchmarks that measure read amp).
  bool auto_compact = true;
};

struct WriteOptions {
  // Relative time-to-live; 0 = live forever. The store may garbage-collect
  // the value after now + ttl (paper §4.2 "Flushing, Quorum, and
  // Time-to-Live Parameters").
  Timestamp ttl_micros = 0;
  // Explicit write timestamp; 0 means the shard stamps its clock. The
  // cluster coordinator stamps one timestamp per logical write so all
  // replicas agree on version order.
  Timestamp write_ts = 0;
};

// One column family on one node.
class Shard {
 public:
  Shard(std::string dir, const NodeOptions& options, Clock* clock);

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  // Create the directory, open existing SSTables, replay the WAL.
  Status Open();

  Status Put(BytesView row, BytesView column, BytesView value,
             const WriteOptions& opts);
  Status Delete(BytesView row, BytesView column,
                const WriteOptions& opts = {});

  // Point read. NotFound covers absent, tombstoned, and TTL-expired keys.
  Result<Record> Get(BytesView row, BytesView column);

  // Point read of the newest stored version, *including* tombstones and
  // expired records. The cluster coordinator needs these to reconcile
  // replicas (a newer tombstone must beat an older live value).
  Result<Record> GetRaw(BytesView row, BytesView column);

  // Every live record in the shard, in key order ("large-volume row reads
  // from the durable key-value store itself", §5 Bulk Reading of Slates).
  Status ScanAll(std::vector<Record>* out);

  // Force the memtable to an SSTable regardless of size.
  Status Flush();

  // Merge everything into a single table, dropping tombstones and expired
  // records.
  Status CompactAll();

  // Stats.
  size_t memtable_bytes() const { return memtable_.approximate_bytes(); }
  size_t sstable_count() const MUPPET_EXCLUDES(tables_mutex_);
  uint64_t flush_count() const { return flushes_.load(); }
  uint64_t compaction_count() const { return compactions_.load(); }

  static constexpr LockLevel kTablesLockLevel = LockLevel::kStoreTables;

 private:
  Status WriteRecord(const Record& rec);
  Status GetFromTablesLocked(BytesView key, Record* out)
      MUPPET_REQUIRES(tables_mutex_);
  Status FlushLocked() MUPPET_REQUIRES(tables_mutex_);
  Status MaybeCompactLocked() MUPPET_REQUIRES(tables_mutex_);
  Status CompactGroupLocked(const std::vector<size_t>& group,
                            bool drop_garbage) MUPPET_REQUIRES(tables_mutex_);
  std::string NextTablePath();

  const std::string dir_;
  const NodeOptions& options_;
  Clock* clock_;
  DeviceModel* device_ = nullptr;  // owned by StorageNode, set via set_device
  friend class StorageNode;

  MemTable memtable_;
  std::atomic<uint64_t> next_seqno_{1};
  std::atomic<uint64_t> next_table_number_{1};
  std::atomic<uint64_t> flushes_{0};
  std::atomic<uint64_t> compactions_{0};

  // Newest-first list of open tables. Guarded for flush/compact vs read;
  // writes (WAL append + memtable insert), log rotation and memtable
  // snapshot/clear also happen under it, hence store-tables sits above
  // store-io in the lock hierarchy.
  mutable Mutex tables_mutex_{kTablesLockLevel};
  std::vector<std::unique_ptr<SsTableReader>> tables_
      MUPPET_GUARDED_BY(tables_mutex_);
  // The write-ahead log; the writer has no lock of its own.
  FramedLogWriter wal_ MUPPET_GUARDED_BY(tables_mutex_);
};

// A storage node hosting many column families.
class StorageNode {
 public:
  explicit StorageNode(NodeOptions options);

  StorageNode(const StorageNode&) = delete;
  StorageNode& operator=(const StorageNode&) = delete;

  // Create/open the data directory and any column families found in it.
  Status Open();

  // Get (create on demand) a column family shard.
  Result<Shard*> GetColumnFamily(const std::string& name);

  Status Put(const std::string& cf, BytesView row, BytesView column,
             BytesView value, const WriteOptions& opts = {});
  Status Delete(const std::string& cf, BytesView row, BytesView column);
  Result<Record> Get(const std::string& cf, BytesView row, BytesView column);
  Status ScanAll(const std::string& cf, std::vector<Record>* out);

  // Flush all shards (shutdown path).
  Status FlushAll();

  DeviceModel& device() { return device_; }
  const NodeOptions& options() const { return options_; }
  std::vector<std::string> ColumnFamilies() const MUPPET_EXCLUDES(cf_mutex_);

  static constexpr LockLevel kCfLockLevel = LockLevel::kStoreNode;

 private:
  NodeOptions options_;
  Clock* clock_;
  DeviceModel device_;

  // Shard::Open() (WAL replay, table loads) runs under cf_mutex_, so the
  // registry sits above every shard-internal lock.
  mutable Mutex cf_mutex_{kCfLockLevel};
  std::map<std::string, std::unique_ptr<Shard>> shards_
      MUPPET_GUARDED_BY(cf_mutex_);
};

}  // namespace kv
}  // namespace muppet

#endif  // MUPPET_KVSTORE_NODE_H_
