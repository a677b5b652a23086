#include "kvstore/node.h"

#include <algorithm>
#include <filesystem>

#include "common/logging.h"
#include "kvstore/compaction.h"

namespace muppet {
namespace kv {

namespace fs = std::filesystem;

namespace {

constexpr char kWalFileName[] = "wal.log";

bool IsSstFile(const fs::path& p) { return p.extension() == ".sst"; }

}  // namespace

Shard::Shard(std::string dir, const NodeOptions& options, Clock* clock)
    : dir_(std::move(dir)), options_(options), clock_(clock) {}

std::string Shard::NextTablePath() {
  char name[32];
  std::snprintf(name, sizeof(name), "%06llu.sst",
                static_cast<unsigned long long>(
                    next_table_number_.fetch_add(1)));
  return dir_ + "/" + name;
}

Status Shard::Open() {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return Status::IOError("shard: create dir " + dir_ + ": " + ec.message());
  }

  // Open existing SSTables, newest (highest number) first.
  std::vector<fs::path> sst_paths;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (IsSstFile(entry.path())) sst_paths.push_back(entry.path());
  }
  std::sort(sst_paths.begin(), sst_paths.end());
  uint64_t max_table = 0;
  uint64_t max_seqno = 0;
  MutexLock lock(tables_mutex_);
  for (auto it = sst_paths.rbegin(); it != sst_paths.rend(); ++it) {
    auto reader = SsTableReader::Open(it->string(), device_);
    if (!reader.ok()) {
      MUPPET_LOG(kWarning) << "shard: skipping unreadable table "
                           << it->string() << ": "
                           << reader.status().ToString();
      continue;
    }
    max_seqno = std::max(max_seqno, reader.value()->max_seqno());
    tables_.push_back(std::move(reader).value());
    const uint64_t number =
        std::strtoull(it->stem().string().c_str(), nullptr, 10);
    max_table = std::max(max_table, number);
  }
  next_table_number_.store(max_table + 1);

  // Replay the WAL into the memtable and reopen it for append.
  const std::string wal_path = dir_ + "/" + kWalFileName;
  FrameScan scan;
  MUPPET_RETURN_IF_ERROR(wal_.Open(
      wal_path,
      [this, &max_seqno](BytesView payload) {
        Record rec;
        const char* p = payload.data();
        if (!DecodeRecord(&p, p + payload.size(), &rec).ok()) return false;
        max_seqno = std::max(max_seqno, rec.seqno);
        memtable_.Put(rec);
        return true;
      },
      &scan));
  if (scan.torn) {
    MUPPET_LOG(kWarning) << "shard: WAL " << wal_path
                         << " had a torn tail; replayed the intact prefix"
                         << " and truncated the rest";
  }
  next_seqno_.store(max_seqno + 1);
  return Status::OK();
}

Status Shard::WriteRecord(const Record& rec) {
  // Encoded once: the WAL writes the packed bytes and the memtable keeps
  // the block.
  PackedRecord packed(rec);
  // Under tables_mutex_, so a flush never runs between the WAL append and
  // the memtable insert: it would rotate the WAL out from under the append
  // ("framed log: not open"), or snapshot the memtable without this
  // record, clear it anyway, and drop the WAL that held it. The same lock
  // serialises the WAL writer, which has none of its own.
  MutexLock lock(tables_mutex_);
  // No fsync per append: Muppet prefers write latency (§4.2).
  MUPPET_RETURN_IF_ERROR(wal_.Append(packed.encoded()));
  memtable_.Put(std::move(packed));
  if (memtable_.approximate_bytes() >= options_.memtable_flush_bytes) {
    MUPPET_RETURN_IF_ERROR(FlushLocked());
    if (options_.auto_compact) {
      MUPPET_RETURN_IF_ERROR(MaybeCompactLocked());
    }
  }
  return Status::OK();
}

Status Shard::Put(BytesView row, BytesView column, BytesView value,
                  const WriteOptions& opts) {
  Record rec;
  rec.key = EncodeStorageKey(row, column);
  rec.value.assign(value);
  rec.seqno = next_seqno_.fetch_add(1);
  rec.write_ts = opts.write_ts != 0 ? opts.write_ts : clock_->Now();
  rec.expire_at =
      opts.ttl_micros > 0 ? rec.write_ts + opts.ttl_micros : kNoExpiry;
  rec.tombstone = false;
  return WriteRecord(rec);
}

Status Shard::Delete(BytesView row, BytesView column,
                     const WriteOptions& opts) {
  Record rec;
  rec.key = EncodeStorageKey(row, column);
  rec.seqno = next_seqno_.fetch_add(1);
  rec.write_ts = opts.write_ts != 0 ? opts.write_ts : clock_->Now();
  rec.expire_at = kNoExpiry;
  rec.tombstone = true;
  return WriteRecord(rec);
}

// Newest version of `key` across all SSTables, reconciled by seqno.
// Size-tiered compaction merges tables that are not contiguous in time, so
// table order alone cannot identify the newest version (Cassandra solves
// the same problem by comparing cell timestamps on read). Requires
// tables_mutex_ held.
Status Shard::GetFromTablesLocked(BytesView key, Record* out) {
  bool found = false;
  Record best;
  for (const auto& table : tables_) {
    Record rec;
    Status s = table->Get(key, &rec);
    if (s.IsNotFound()) continue;
    if (!s.ok()) return s;
    if (!found || Newer(rec, best)) {
      best = std::move(rec);
      found = true;
    }
  }
  if (!found) return Status::NotFound("kv: key absent");
  *out = std::move(best);
  return Status::OK();
}

Result<Record> Shard::GetRaw(BytesView row, BytesView column) {
  const Bytes key = EncodeStorageKey(row, column);
  Record rec;
  // The memtable always holds the newest version when present: its seqnos
  // postdate every flushed table's.
  if (memtable_.Get(key, &rec)) return rec;
  MutexLock lock(tables_mutex_);
  MUPPET_RETURN_IF_ERROR(GetFromTablesLocked(key, &rec));
  return rec;
}

Result<Record> Shard::Get(BytesView row, BytesView column) {
  const Bytes key = EncodeStorageKey(row, column);
  const Timestamp now = clock_->Now();

  Record rec;
  if (memtable_.Get(key, &rec)) {
    if (rec.tombstone || rec.ExpiredAt(now)) {
      return Status::NotFound("kv: key deleted or expired");
    }
    return rec;
  }

  MutexLock lock(tables_mutex_);
  MUPPET_RETURN_IF_ERROR(GetFromTablesLocked(key, &rec));
  if (rec.tombstone || rec.ExpiredAt(now)) {
    return Status::NotFound("kv: key deleted or expired");
  }
  return rec;
}

Status Shard::ScanAll(std::vector<Record>* out) {
  const Timestamp now = clock_->Now();
  std::vector<std::vector<Record>> streams;
  streams.push_back(memtable_.Snapshot());
  {
    MutexLock lock(tables_mutex_);
    for (const auto& table : tables_) {
      std::vector<Record> recs;
      MUPPET_RETURN_IF_ERROR(table->ReadAll(&recs));
      streams.push_back(std::move(recs));
    }
  }
  std::vector<Record> merged =
      MergeRecordStreams(std::move(streams), now, /*drop_garbage=*/true);
  for (Record& rec : merged) out->push_back(std::move(rec));
  return Status::OK();
}

Status Shard::Flush() {
  MutexLock lock(tables_mutex_);
  return FlushLocked();
}

Status Shard::FlushLocked() {
  if (memtable_.empty()) return Status::OK();
  std::vector<Record> records = memtable_.Snapshot();
  const std::string path = NextTablePath();
  MUPPET_RETURN_IF_ERROR(WriteSsTable(path, records, device_));
  auto reader = SsTableReader::Open(path, device_);
  if (!reader.ok()) return reader.status();
  tables_.insert(tables_.begin(), std::move(reader).value());
  memtable_.Clear();
  flushes_.fetch_add(1);

  // The WAL's contents are now covered by the SSTable; start fresh.
  const std::string wal_path = dir_ + "/" + kWalFileName;
  MUPPET_RETURN_IF_ERROR(wal_.Close());
  std::error_code ec;
  fs::remove(wal_path, ec);
  if (ec) {
    return Status::IOError("shard: remove " + wal_path + ": " + ec.message());
  }
  return wal_.Open(wal_path);
}

Status Shard::MaybeCompactLocked() {
  std::vector<uint64_t> sizes;
  sizes.reserve(tables_.size());
  for (const auto& t : tables_) sizes.push_back(t->file_size());
  const auto groups = PickSizeTieredCompactions(sizes, CompactionPolicy{});
  for (const auto& group : groups) {
    const bool covers_all = group.size() == tables_.size();
    MUPPET_RETURN_IF_ERROR(CompactGroupLocked(group, covers_all));
    break;  // table indices shift after a compaction; rest next time
  }
  return Status::OK();
}

Status Shard::CompactGroupLocked(const std::vector<size_t>& group,
                                 bool drop_garbage) {
  std::vector<std::vector<Record>> inputs;
  inputs.reserve(group.size());
  for (size_t idx : group) {
    std::vector<Record> recs;
    MUPPET_RETURN_IF_ERROR(tables_[idx]->ReadAll(&recs));
    inputs.push_back(std::move(recs));
  }
  std::vector<Record> merged =
      MergeRecordStreams(std::move(inputs), clock_->Now(), drop_garbage);

  const std::string path = NextTablePath();
  std::vector<std::string> old_paths;
  if (!merged.empty()) {
    MUPPET_RETURN_IF_ERROR(WriteSsTable(path, merged, device_));
  }

  // Replace inputs with the output, preserving newest-first order: the
  // merged table takes the position of the newest input.
  std::vector<size_t> sorted_group = group;
  std::sort(sorted_group.begin(), sorted_group.end());
  const size_t insert_pos = sorted_group.front();
  for (auto it = sorted_group.rbegin(); it != sorted_group.rend(); ++it) {
    old_paths.push_back(tables_[*it]->path());
    tables_.erase(tables_.begin() + static_cast<long>(*it));
  }
  if (!merged.empty()) {
    auto reader = SsTableReader::Open(path, device_);
    if (!reader.ok()) return reader.status();
    tables_.insert(tables_.begin() + static_cast<long>(
                       std::min(insert_pos, tables_.size())),
                   std::move(reader).value());
  }
  for (const std::string& p : old_paths) {
    std::error_code ec;
    fs::remove(p, ec);
  }
  compactions_.fetch_add(1);
  return Status::OK();
}

Status Shard::CompactAll() {
  MutexLock lock(tables_mutex_);
  MUPPET_RETURN_IF_ERROR(FlushLocked());
  if (tables_.size() < 2 && !tables_.empty()) {
    // Still rewrite the single table to purge garbage.
  }
  if (tables_.empty()) return Status::OK();
  std::vector<size_t> all(tables_.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  return CompactGroupLocked(all, /*drop_garbage=*/true);
}

size_t Shard::sstable_count() const {
  MutexLock lock(tables_mutex_);
  return tables_.size();
}

StorageNode::StorageNode(NodeOptions options)
    : options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock
                                       : SystemClock::Default()),
      device_(options_.device, clock_) {}

Status StorageNode::Open() {
  std::error_code ec;
  fs::create_directories(options_.data_dir, ec);
  if (ec) {
    return Status::IOError("node: create dir " + options_.data_dir + ": " +
                           ec.message());
  }
  // Open every column family directory found on disk (recovery).
  for (const auto& entry : fs::directory_iterator(options_.data_dir, ec)) {
    if (entry.is_directory()) {
      MUPPET_ASSIGN_OR_RETURN(Shard * shard,
                              GetColumnFamily(entry.path().filename()));
      (void)shard;
    }
  }
  return Status::OK();
}

Result<Shard*> StorageNode::GetColumnFamily(const std::string& name) {
  if (name.empty() || name.find('/') != std::string::npos) {
    return Status::InvalidArgument("node: bad column family name: " + name);
  }
  MutexLock lock(cf_mutex_);
  auto it = shards_.find(name);
  if (it != shards_.end()) return it->second.get();

  auto shard = std::make_unique<Shard>(options_.data_dir + "/" + name,
                                       options_, clock_);
  shard->device_ = &device_;
  MUPPET_RETURN_IF_ERROR(shard->Open());
  Shard* raw = shard.get();
  shards_.emplace(name, std::move(shard));
  return raw;
}

Status StorageNode::Put(const std::string& cf, BytesView row,
                        BytesView column, BytesView value,
                        const WriteOptions& opts) {
  MUPPET_ASSIGN_OR_RETURN(Shard * shard, GetColumnFamily(cf));
  return shard->Put(row, column, value, opts);
}

Status StorageNode::Delete(const std::string& cf, BytesView row,
                           BytesView column) {
  MUPPET_ASSIGN_OR_RETURN(Shard * shard, GetColumnFamily(cf));
  return shard->Delete(row, column);
}

Result<Record> StorageNode::Get(const std::string& cf, BytesView row,
                                BytesView column) {
  MUPPET_ASSIGN_OR_RETURN(Shard * shard, GetColumnFamily(cf));
  return shard->Get(row, column);
}

Status StorageNode::ScanAll(const std::string& cf,
                            std::vector<Record>* out) {
  MUPPET_ASSIGN_OR_RETURN(Shard * shard, GetColumnFamily(cf));
  return shard->ScanAll(out);
}

Status StorageNode::FlushAll() {
  std::vector<Shard*> shards;
  {
    MutexLock lock(cf_mutex_);
    for (auto& [name, shard] : shards_) shards.push_back(shard.get());
  }
  for (Shard* shard : shards) {
    MUPPET_RETURN_IF_ERROR(shard->Flush());
  }
  return Status::OK();
}

std::vector<std::string> StorageNode::ColumnFamilies() const {
  MutexLock lock(cf_mutex_);
  std::vector<std::string> out;
  for (const auto& [name, shard] : shards_) out.push_back(name);
  return out;
}

}  // namespace kv
}  // namespace muppet
