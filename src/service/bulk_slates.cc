#include "service/bulk_slates.h"

#include "common/compress.h"
#include "kvstore/format.h"

namespace muppet {

BulkSlateReader::BulkSlateReader(SlateStore* store) : store_(store) {}

Status BulkSlateReader::DumpAll(
    std::vector<std::pair<SlateId, Bytes>>* slates) {
  std::vector<kv::Record> records;
  MUPPET_RETURN_IF_ERROR(store_->cluster()->ScanAll(
      store_->options().column_family, &records));
  for (kv::Record& rec : records) {
    Bytes row, column;
    if (!kv::DecodeStorageKey(rec.key, &row, &column)) {
      return Status::Corruption("bulk: undecodable storage key");
    }
    Result<Bytes> plain = Decompress(rec.value);
    if (!plain.ok()) return plain.status();
    slates->emplace_back(SlateId{std::string(column), std::move(row)},
                         std::move(plain).value());
  }
  return Status::OK();
}

Status BulkSlateReader::DumpUpdater(
    const std::string& updater,
    std::vector<std::pair<Bytes, Bytes>>* key_slates) {
  std::vector<std::pair<SlateId, Bytes>> all;
  MUPPET_RETURN_IF_ERROR(DumpAll(&all));
  for (auto& [id, slate] : all) {
    if (id.updater == updater) {
      key_slates->emplace_back(std::move(id.key), std::move(slate));
    }
  }
  return Status::OK();
}

Status BulkSlateReader::ForEach(
    const std::string& updater,
    const std::function<void(BytesView key, BytesView slate)>& fn) {
  std::vector<std::pair<Bytes, Bytes>> key_slates;
  MUPPET_RETURN_IF_ERROR(DumpUpdater(updater, &key_slates));
  for (const auto& [key, slate] : key_slates) fn(key, slate);
  return Status::OK();
}

Status SlateLogger::Open(const std::string& path) {
  MutexLock lock(mutex_);
  return log_.Open(path);
}

Status SlateLogger::Append(BytesView key, BytesView payload) {
  Bytes record;
  PutLengthPrefixed(&record, key);
  PutLengthPrefixed(&record, payload);
  MutexLock lock(mutex_);
  MUPPET_RETURN_IF_ERROR(log_.Append(record));
  records_written_.Add();
  return Status::OK();
}

Status SlateLogger::Close() {
  MutexLock lock(mutex_);
  return log_.Close();
}

Status SlateLogger::ReadLog(const std::string& path,
                            std::vector<std::pair<Bytes, Bytes>>* records) {
  FrameScan scan;
  return ScanFramedLog(
      path,
      [records](BytesView payload) {
        const char* p = payload.data();
        const char* limit = p + payload.size();
        BytesView key, value;
        if (!GetLengthPrefixed(&p, limit, &key) ||
            !GetLengthPrefixed(&p, limit, &value)) {
          return false;
        }
        records->emplace_back(Bytes(key), Bytes(value));
        return true;
      },
      &scan);
}

}  // namespace muppet
