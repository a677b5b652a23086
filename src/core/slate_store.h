// Binding between slates and the durable key-value store (paper §4.2):
// "Muppet stores slate S(U,k) ... as a value at row k and column U" within
// the application's configured column family, compressing each slate
// before the write and decompressing on fetch. Per-updater TTLs map to the
// store's per-write TTL.
#ifndef MUPPET_CORE_SLATE_STORE_H_
#define MUPPET_CORE_SLATE_STORE_H_

#include <string>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/status.h"
#include "core/slate.h"
#include "kvstore/cluster.h"

namespace muppet {

struct SlateStoreOptions {
  // The application's column family (§4.2): applications sharing one
  // store keep their slates apart by naming different families.
  std::string column_family = "slates";
};

class SlateStore {
 public:
  SlateStore(kv::KvCluster* cluster, SlateStoreOptions options);

  SlateStore(const SlateStore&) = delete;
  SlateStore& operator=(const SlateStore&) = delete;

  // Persist a slate. `ttl_micros` 0 = forever.
  Status Write(const SlateId& id, BytesView slate, Timestamp ttl_micros);

  // Fetch and decompress. NotFound if absent/expired.
  Result<Bytes> Read(const SlateId& id);

  Status Delete(const SlateId& id);

  kv::KvCluster* cluster() { return cluster_; }
  const SlateStoreOptions& options() const { return options_; }

 private:
  kv::KvCluster* cluster_;
  SlateStoreOptions options_;
};

}  // namespace muppet

#endif  // MUPPET_CORE_SLATE_STORE_H_
