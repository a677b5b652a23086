#include "kvstore/cluster.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"

namespace muppet {
namespace kv {

KvCluster::KvCluster(KvClusterOptions options)
    : options_(std::move(options)),
      clock_(options_.node.clock != nullptr ? options_.node.clock
                                            : SystemClock::Default()) {
  MUPPET_CHECK(options_.num_nodes >= 1);
  if (options_.replication_factor > options_.num_nodes) {
    options_.replication_factor = options_.num_nodes;
  }
  for (int i = 0; i < options_.num_nodes; ++i) {
    NodeOptions node_opts = options_.node;
    node_opts.data_dir =
        options_.node.data_dir + "/node" + std::to_string(i);
    nodes_.push_back(std::make_unique<StorageNode>(std::move(node_opts)));
    up_.push_back(std::make_unique<std::atomic<bool>>(true));
  }
  // Place vnodes on the ring deterministically from a fixed seed.
  constexpr int kVnodesPerNode = 32;
  constexpr uint64_t kRingSeed = 0x5eedull;
  for (int i = 0; i < options_.num_nodes; ++i) {
    for (int v = 0; v < kVnodesPerNode; ++v) {
      const uint64_t h = Mix64(kRingSeed ^
                               (static_cast<uint64_t>(i) << 32) ^
                               static_cast<uint64_t>(v));
      ring_.emplace_back(h, i);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

Status KvCluster::Open() {
  for (auto& node : nodes_) {
    MUPPET_RETURN_IF_ERROR(node->Open());
  }
  return Status::OK();
}

std::vector<int> KvCluster::ReplicasFor(BytesView row) const {
  const uint64_t h = Fnv1a64(row);
  std::vector<int> replicas;
  replicas.reserve(static_cast<size_t>(options_.replication_factor));
  auto it = std::lower_bound(ring_.begin(), ring_.end(),
                             std::make_pair(h, -1));
  for (size_t walked = 0;
       walked < ring_.size() &&
       replicas.size() < static_cast<size_t>(options_.replication_factor);
       ++walked) {
    if (it == ring_.end()) it = ring_.begin();
    const int node = it->second;
    if (std::find(replicas.begin(), replicas.end(), node) ==
        replicas.end()) {
      replicas.push_back(node);
    }
    ++it;
  }
  return replicas;
}

int KvCluster::Required(ConsistencyLevel cl) const {
  switch (cl) {
    case ConsistencyLevel::kOne:
      return 1;
    case ConsistencyLevel::kQuorum:
      return options_.replication_factor / 2 + 1;
    case ConsistencyLevel::kAll:
      return options_.replication_factor;
  }
  return 1;
}

Status KvCluster::Put(const std::string& cf, BytesView row, BytesView column,
                      BytesView value, const WriteOptions& opts,
                      ConsistencyLevel cl) {
  WriteOptions stamped = opts;
  if (stamped.write_ts == 0) stamped.write_ts = clock_->Now();

  int acks = 0;
  Status last_error = Status::OK();
  for (int node : ReplicasFor(row)) {
    if (!NodeIsUp(node)) {
      last_error = Status::Unavailable("kv: node down");
      continue;
    }
    Status s = nodes_[static_cast<size_t>(node)]->Put(cf, row, column, value,
                                                      stamped);
    if (s.ok()) {
      ++acks;
    } else {
      last_error = s;
    }
  }
  if (acks >= Required(cl)) return Status::OK();
  return last_error.ok()
             ? Status::Unavailable("kv: not enough replicas for write")
             : last_error;
}

Status KvCluster::Delete(const std::string& cf, BytesView row,
                         BytesView column, ConsistencyLevel cl) {
  WriteOptions stamped;
  stamped.write_ts = clock_->Now();

  int acks = 0;
  Status last_error = Status::OK();
  for (int node : ReplicasFor(row)) {
    if (!NodeIsUp(node)) {
      last_error = Status::Unavailable("kv: node down");
      continue;
    }
    Result<Shard*> shard =
        nodes_[static_cast<size_t>(node)]->GetColumnFamily(cf);
    Status s = shard.ok() ? shard.value()->Delete(row, column, stamped)
                          : shard.status();
    if (s.ok()) {
      ++acks;
    } else {
      last_error = s;
    }
  }
  if (acks >= Required(cl)) return Status::OK();
  return last_error.ok()
             ? Status::Unavailable("kv: not enough replicas for delete")
             : last_error;
}

Result<Record> KvCluster::Get(const std::string& cf, BytesView row,
                              BytesView column, ConsistencyLevel cl) {
  const int required = Required(cl);
  struct Answer {
    int node;
    bool found;
    Record rec;
  };
  std::vector<Answer> answers;

  // A replica that errors (unreadable table, column family it cannot
  // open) gives no answer; the next one may still meet `cl`.
  Status last_error = Status::OK();
  for (int node : ReplicasFor(row)) {
    if (static_cast<int>(answers.size()) >= required) break;
    if (!NodeIsUp(node)) continue;
    Result<Shard*> shard =
        nodes_[static_cast<size_t>(node)]->GetColumnFamily(cf);
    Result<Record> r =
        shard.ok() ? shard.value()->GetRaw(row, column) : shard.status();
    if (r.ok()) {
      answers.push_back(Answer{node, true, std::move(r).value()});
    } else if (r.status().IsNotFound()) {
      answers.push_back(Answer{node, false, Record{}});
    } else {
      last_error = r.status();
    }
  }
  if (static_cast<int>(answers.size()) < required) {
    return last_error.ok()
               ? Status::Unavailable("kv: not enough replicas for read")
               : last_error;
  }

  // Newest version across answers: (write_ts, seqno is per-node so only a
  // local tiebreak; write_ts is coordinator-stamped and strictly ordered in
  // practice).
  const Answer* newest = nullptr;
  for (const Answer& a : answers) {
    if (!a.found) continue;
    if (newest == nullptr || a.rec.write_ts > newest->rec.write_ts) {
      newest = &a;
    }
  }

  if (newest != nullptr) {
    // Read repair: contacted replicas that returned nothing or an older
    // version get the newest one (Cassandra-style convergence).
    for (const Answer& a : answers) {
      if (&a == newest) continue;
      if (!a.found || a.rec.write_ts < newest->rec.write_ts) {
        Shard* shard = nullptr;
        auto rs = nodes_[static_cast<size_t>(a.node)]->GetColumnFamily(cf);
        if (rs.ok()) shard = rs.value();
        if (shard != nullptr) {
          WriteOptions repair;
          repair.write_ts = newest->rec.write_ts;
          Status s;
          if (newest->rec.tombstone) {
            s = shard->Delete(row, column, repair);
          } else {
            // Preserve remaining TTL as an absolute deadline.
            if (newest->rec.expire_at != kNoExpiry) {
              repair.ttl_micros =
                  newest->rec.expire_at - newest->rec.write_ts;
            }
            s = shard->Put(row, column, newest->rec.value, repair);
          }
          if (s.ok()) read_repairs_.Add();
        }
      }
    }
  }

  const Timestamp now = clock_->Now();
  if (newest == nullptr || newest->rec.tombstone ||
      newest->rec.ExpiredAt(now)) {
    return Status::NotFound("kv: key absent");
  }
  return newest->rec;
}

Status KvCluster::ScanAll(const std::string& cf, std::vector<Record>* out) {
  std::vector<Record> all;
  for (int i = 0; i < num_nodes(); ++i) {
    if (!NodeIsUp(i)) continue;
    MUPPET_RETURN_IF_ERROR(nodes_[static_cast<size_t>(i)]->ScanAll(cf, &all));
  }
  // Replicas contribute duplicates; keep the newest per key.
  std::sort(all.begin(), all.end(), [](const Record& a, const Record& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.write_ts > b.write_ts;
  });
  bool have_last = false;
  Bytes last_key;
  const Timestamp now = clock_->Now();
  for (Record& rec : all) {
    if (have_last && rec.key == last_key) continue;
    have_last = true;
    last_key = rec.key;
    if (rec.tombstone || rec.ExpiredAt(now)) continue;
    out->push_back(std::move(rec));
  }
  return Status::OK();
}

void KvCluster::CrashNode(int node) {
  if (node >= 0 && node < num_nodes()) {
    up_[static_cast<size_t>(node)]->store(false);
  }
}

void KvCluster::RestoreNode(int node) {
  if (node >= 0 && node < num_nodes()) {
    up_[static_cast<size_t>(node)]->store(true);
  }
}

bool KvCluster::NodeIsUp(int node) const {
  if (node < 0 || node >= num_nodes()) return false;
  return up_[static_cast<size_t>(node)]->load();
}

Status KvCluster::FlushAll() {
  for (int i = 0; i < num_nodes(); ++i) {
    if (!NodeIsUp(i)) continue;
    MUPPET_RETURN_IF_ERROR(nodes_[static_cast<size_t>(i)]->FlushAll());
  }
  return Status::OK();
}

}  // namespace kv
}  // namespace muppet
