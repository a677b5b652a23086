#include "core/slate_store.h"

#include "common/compress.h"

namespace muppet {

SlateStore::SlateStore(kv::KvCluster* cluster, SlateStoreOptions options)
    : cluster_(cluster), options_(std::move(options)) {}

Status SlateStore::Write(const SlateId& id, BytesView slate,
                         Timestamp ttl_micros) {
  kv::WriteOptions opts;
  opts.ttl_micros = ttl_micros;
  if (options_.compress) {
    Bytes compressed;
    CompressBytes(slate, &compressed);
    return cluster_->Put(options_.column_family, id.key, id.updater,
                         compressed, opts, options_.write_cl);
  }
  return cluster_->Put(options_.column_family, id.key, id.updater, slate,
                       opts, options_.write_cl);
}

Result<Bytes> SlateStore::Read(const SlateId& id) {
  Result<kv::Record> rec = cluster_->Get(options_.column_family, id.key,
                                         id.updater, options_.read_cl);
  if (!rec.ok()) return rec.status();
  if (!options_.compress) return std::move(rec).value().value;
  return Decompress(rec.value().value);
}

Status SlateStore::Delete(const SlateId& id) {
  return cluster_->Delete(options_.column_family, id.key, id.updater,
                          options_.write_cl);
}

}  // namespace muppet
