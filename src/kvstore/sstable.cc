#include "kvstore/sstable.h"

#include <cerrno>
#include <cstring>

#include "common/hash.h"
#include "common/logging.h"

namespace muppet {
namespace kv {

namespace {

constexpr size_t kFooterBytes = 56;

void AppendFramedBlock(BytesView payload, Bytes* file_image) {
  PutFixed32(file_image, static_cast<uint32_t>(payload.size()));
  file_image->append(payload.data(), payload.size());
  PutFixed32(file_image, Crc32(payload));
}

}  // namespace

Status WriteSsTable(const std::string& path,
                    const std::vector<Record>& records, DeviceModel* device,
                    size_t block_bytes) {
  // Build the whole file image in memory, then write it in one sequential
  // pass — memtable flushes are bounded in size, and this keeps the write
  // atomic-ish (we write to a temp name and rename).
  Bytes image;
  std::vector<std::tuple<Bytes, uint64_t, uint32_t>> index;  // key, off, len
  BloomFilter bloom(records.size());

  Bytes block;
  Bytes block_first_key;
  auto flush_block = [&]() {
    if (block.empty()) return;
    const uint64_t offset = image.size();
    const uint32_t framed_len = static_cast<uint32_t>(block.size() + 8);
    AppendFramedBlock(block, &image);
    index.emplace_back(block_first_key, offset, framed_len);
    block.clear();
  };

  const Bytes* prev_key = nullptr;
  for (const Record& rec : records) {
    if (prev_key != nullptr && !(*prev_key < rec.key)) {
      return Status::InvalidArgument(
          "sstable: records not sorted/unique at key");
    }
    prev_key = &rec.key;
    if (block.empty()) block_first_key = rec.key;
    EncodeRecord(rec, &block);
    bloom.Add(rec.key);
    if (block.size() >= block_bytes) flush_block();
  }
  flush_block();

  // Index block.
  const uint64_t index_off = image.size();
  Bytes index_block;
  for (const auto& [key, off, len] : index) {
    PutLengthPrefixed(&index_block, key);
    PutVarint64(&index_block, off);
    PutVarint32(&index_block, len);
  }
  AppendFramedBlock(index_block, &image);
  const uint64_t index_len = image.size() - index_off;

  // Bloom block.
  const uint64_t bloom_off = image.size();
  Bytes bloom_block;
  bloom.Serialize(&bloom_block);
  AppendFramedBlock(bloom_block, &image);
  const uint64_t bloom_len = image.size() - bloom_off;

  // Footer.
  uint64_t max_seqno = 0;
  for (const Record& rec : records) {
    if (rec.seqno > max_seqno) max_seqno = rec.seqno;
  }
  PutFixed64(&image, index_off);
  PutFixed64(&image, index_len);
  PutFixed64(&image, bloom_off);
  PutFixed64(&image, bloom_len);
  PutFixed64(&image, records.size());
  PutFixed64(&image, max_seqno);
  PutFixed64(&image, kSstMagic);

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("sstable: create " + tmp + ": " +
                           std::strerror(errno));
  }
  const size_t written = std::fwrite(image.data(), 1, image.size(), f);
  const int close_rc = std::fclose(f);
  if (written != image.size() || close_rc != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("sstable: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("sstable: rename to " + path + " failed");
  }
  if (device != nullptr) device->OnSequentialWrite(image.size());
  return Status::OK();
}

Result<std::unique_ptr<SsTableReader>> SsTableReader::Open(
    const std::string& path, DeviceModel* device) {
  std::unique_ptr<SsTableReader> reader(new SsTableReader(path, device));
  Status s = reader->Load();
  if (!s.ok()) return s;
  return reader;
}

SsTableReader::~SsTableReader() {
  if (file_ != nullptr) std::fclose(file_);
}

Status SsTableReader::ReadRange(uint64_t offset, size_t length, Bytes* out) {
  out->resize(length);
  MutexLock lock(file_mutex_);
  if (file_ == nullptr) return Status::FailedPrecondition("sstable: closed");
  if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0) {
    return Status::IOError("sstable: seek failed in " + path_);
  }
  if (std::fread(out->data(), 1, length, file_) != length) {
    return Status::Corruption("sstable: truncated read in " + path_);
  }
  return Status::OK();
}

Status SsTableReader::Load() {
  file_ = std::fopen(path_.c_str(), "rb");
  if (file_ == nullptr) {
    return Status::IOError("sstable: open " + path_ + ": " +
                           std::strerror(errno));
  }
  std::fseek(file_, 0, SEEK_END);
  const long size = std::ftell(file_);
  if (size < static_cast<long>(kFooterBytes)) {
    return Status::Corruption("sstable: file too small: " + path_);
  }
  file_size_ = static_cast<uint64_t>(size);

  Bytes footer;
  MUPPET_RETURN_IF_ERROR(
      ReadRange(file_size_ - kFooterBytes, kFooterBytes, &footer));
  const char* fp = footer.data();
  const uint64_t index_off = DecodeFixed64(fp);
  const uint64_t index_len = DecodeFixed64(fp + 8);
  const uint64_t bloom_off = DecodeFixed64(fp + 16);
  const uint64_t bloom_len = DecodeFixed64(fp + 24);
  entry_count_ = DecodeFixed64(fp + 32);
  max_seqno_ = DecodeFixed64(fp + 40);
  const uint64_t magic = DecodeFixed64(fp + 48);
  if (magic != kSstMagic) {
    return Status::Corruption("sstable: bad magic in " + path_);
  }
  if (index_off + index_len > file_size_ || bloom_off + bloom_len > file_size_) {
    return Status::Corruption("sstable: footer offsets out of range");
  }

  // Index block (framed).
  Bytes framed;
  MUPPET_RETURN_IF_ERROR(ReadRange(index_off, index_len, &framed));
  if (framed.size() < 8) return Status::Corruption("sstable: bad index frame");
  const uint32_t ilen = DecodeFixed32(framed.data());
  if (ilen + 8 != framed.size()) {
    return Status::Corruption("sstable: index frame length mismatch");
  }
  BytesView ipayload(framed.data() + 4, ilen);
  if (Crc32(ipayload) != DecodeFixed32(framed.data() + 4 + ilen)) {
    return Status::Corruption("sstable: index crc mismatch");
  }
  const char* p = ipayload.data();
  const char* limit = p + ipayload.size();
  while (p < limit) {
    BytesView key;
    uint64_t off = 0;
    uint32_t len = 0;
    if (!GetLengthPrefixed(&p, limit, &key) || !GetVarint64(&p, limit, &off) ||
        !GetVarint32(&p, limit, &len)) {
      return Status::Corruption("sstable: bad index entry");
    }
    index_.push_back(IndexEntry{Bytes(key), off, len});
  }

  // Bloom block (framed).
  MUPPET_RETURN_IF_ERROR(ReadRange(bloom_off, bloom_len, &framed));
  if (framed.size() < 8) return Status::Corruption("sstable: bad bloom frame");
  const uint32_t blen = DecodeFixed32(framed.data());
  if (blen + 8 != framed.size()) {
    return Status::Corruption("sstable: bloom frame length mismatch");
  }
  BytesView bpayload(framed.data() + 4, blen);
  if (Crc32(bpayload) != DecodeFixed32(framed.data() + 4 + blen)) {
    return Status::Corruption("sstable: bloom crc mismatch");
  }
  bloom_ = BloomFilter::Deserialize(bpayload);

  // Opening a table is one sequential pass over its metadata.
  if (device_ != nullptr) {
    device_->OnSequentialRead(index_len + bloom_len + kFooterBytes);
  }

  if (!index_.empty()) {
    smallest_key_ = index_.front().first_key;
    // Largest key requires decoding the final block; do it once at open.
    std::vector<Record> last_block;
    MUPPET_RETURN_IF_ERROR(
        ReadBlock(index_.size() - 1, /*random=*/false, &last_block));
    if (!last_block.empty()) largest_key_ = last_block.back().key;
  }
  return Status::OK();
}

Status SsTableReader::ReadBlock(size_t i, bool random,
                                std::vector<Record>* out) {
  const IndexEntry& entry = index_[i];
  Bytes framed;
  MUPPET_RETURN_IF_ERROR(ReadRange(entry.offset, entry.length, &framed));
  if (framed.size() < 8) return Status::Corruption("sstable: bad block frame");
  const uint32_t len = DecodeFixed32(framed.data());
  if (len + 8 != framed.size()) {
    return Status::Corruption("sstable: block frame length mismatch");
  }
  BytesView payload(framed.data() + 4, len);
  if (Crc32(payload) != DecodeFixed32(framed.data() + 4 + len)) {
    return Status::Corruption("sstable: block crc mismatch in " + path_);
  }
  if (device_ != nullptr) {
    if (random) {
      device_->OnRandomRead(framed.size());
    } else {
      device_->OnSequentialRead(framed.size());
    }
  }
  const char* p = payload.data();
  const char* limit = p + payload.size();
  while (p < limit) {
    Record rec;
    MUPPET_RETURN_IF_ERROR(DecodeRecord(&p, limit, &rec));
    out->push_back(std::move(rec));
  }
  return Status::OK();
}

Status SsTableReader::Get(BytesView key, Record* rec) {
  if (index_.empty()) return Status::NotFound("sstable: empty table");
  if (!bloom_.MayContain(key)) {
    return Status::NotFound("sstable: bloom negative");
  }
  // Last block whose first_key <= key.
  size_t lo = 0, hi = index_.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (BytesView(index_[mid].first_key) <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) return Status::NotFound("sstable: before first key");
  std::vector<Record> block;
  MUPPET_RETURN_IF_ERROR(ReadBlock(lo - 1, /*random=*/true, &block));
  for (Record& r : block) {
    if (BytesView(r.key) == key) {
      *rec = std::move(r);
      return Status::OK();
    }
  }
  return Status::NotFound("sstable: key absent");
}

Status SsTableReader::ReadAll(std::vector<Record>* out) {
  out->reserve(out->size() + entry_count_);
  for (size_t i = 0; i < index_.size(); ++i) {
    MUPPET_RETURN_IF_ERROR(ReadBlock(i, /*random=*/false, out));
  }
  return Status::OK();
}

}  // namespace kv
}  // namespace muppet
