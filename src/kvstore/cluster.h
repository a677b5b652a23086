// The distributed key-value store cluster, standing in for Cassandra.
// The paper's application config "identifies a Cassandra cluster (by its
// machine names and service TCP port), a key space within the cluster, and
// a column family" and lets applications pick a write/read quorum: "any
// single machine ..., a majority of replicas ..., or all of the replicas"
// (§4.2). KvCluster reproduces that contract: N storage nodes, consistent-
// hash replica placement, ONE/QUORUM/ALL consistency, read repair, and
// crash/restore of individual nodes.
#ifndef MUPPET_KVSTORE_CLUSTER_H_
#define MUPPET_KVSTORE_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/metrics.h"
#include "common/status.h"
#include "kvstore/node.h"

namespace muppet {
namespace kv {

enum class ConsistencyLevel : uint8_t {
  kOne = 1,     // any single replica
  kQuorum = 2,  // majority of replicas
  kAll = 3,     // every replica
};

struct KvClusterOptions {
  int num_nodes = 3;
  // Copies of each key (paper: "replicas where the data is assigned").
  int replication_factor = 3;
  // Template for every node; data_dir becomes "<data_dir>/node<i>".
  NodeOptions node;
};

class KvCluster {
 public:
  explicit KvCluster(KvClusterOptions options);

  KvCluster(const KvCluster&) = delete;
  KvCluster& operator=(const KvCluster&) = delete;

  // Open all nodes (creates directories; replays WALs on restart).
  Status Open();

  // Coordinator-side operations. A write succeeds when at least
  // Required(cl) replicas accept it; a read succeeds when at least
  // Required(cl) replicas answer, returning the newest version among them
  // (and repairing stale contacted replicas).
  Status Put(const std::string& cf, BytesView row, BytesView column,
             BytesView value, const WriteOptions& opts = {},
             ConsistencyLevel cl = ConsistencyLevel::kQuorum);
  Status Delete(const std::string& cf, BytesView row, BytesView column,
                ConsistencyLevel cl = ConsistencyLevel::kQuorum);
  Result<Record> Get(const std::string& cf, BytesView row, BytesView column,
                     ConsistencyLevel cl = ConsistencyLevel::kQuorum);

  // Full scan of a column family across all live nodes, deduplicated to
  // the newest version per key, in key order. Supports §5's bulk slate
  // dumps; like Cassandra, this is a heavy operation meant for offline
  // processing, not the event path.
  Status ScanAll(const std::string& cf, std::vector<Record>* out);

  // Fault injection.
  void CrashNode(int node);
  void RestoreNode(int node);
  bool NodeIsUp(int node) const;

  // Replica node indices for a row, in ring order (size = RF).
  std::vector<int> ReplicasFor(BytesView row) const;

  // How many replica acks a consistency level needs.
  int Required(ConsistencyLevel cl) const;

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  StorageNode* node(int i) { return nodes_[static_cast<size_t>(i)].get(); }

  // Flush all memtables on all live nodes.
  Status FlushAll();

  int64_t read_repairs() const { return read_repairs_.Get(); }

 private:
  KvClusterOptions options_;
  Clock* clock_;
  std::vector<std::unique_ptr<StorageNode>> nodes_;
  std::vector<std::unique_ptr<std::atomic<bool>>> up_;
  // Sorted (hash, node) placement ring.
  std::vector<std::pair<uint64_t, int>> ring_;
  Counter read_repairs_;
};

}  // namespace kv
}  // namespace muppet

#endif  // MUPPET_KVSTORE_CLUSTER_H_
