#include "core/slate_store.h"

#include "common/compress.h"

namespace muppet {
namespace {

// Slates favour latency over replica agreement: one replica answers every
// read and acknowledges every write (§4.2's "any single machine").
constexpr kv::ConsistencyLevel kSlateConsistency = kv::ConsistencyLevel::kOne;

}  // namespace

SlateStore::SlateStore(kv::KvCluster* cluster, SlateStoreOptions options)
    : cluster_(cluster), options_(std::move(options)) {}

Status SlateStore::Write(const SlateId& id, BytesView slate,
                         Timestamp ttl_micros) {
  kv::WriteOptions opts;
  opts.ttl_micros = ttl_micros;
  Bytes compressed;
  CompressBytes(slate, &compressed);
  return cluster_->Put(options_.column_family, id.key, id.updater,
                       compressed, opts, kSlateConsistency);
}

Result<Bytes> SlateStore::Read(const SlateId& id) {
  Result<kv::Record> rec = cluster_->Get(options_.column_family, id.key,
                                         id.updater, kSlateConsistency);
  if (!rec.ok()) return rec.status();
  return Decompress(rec.value().value);
}

Status SlateStore::Delete(const SlateId& id) {
  return cluster_->Delete(options_.column_family, id.key, id.updater,
                          kSlateConsistency);
}

}  // namespace muppet
