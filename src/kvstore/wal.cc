#include "kvstore/wal.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "common/hash.h"

namespace muppet {
namespace kv {

WalWriter::~WalWriter() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

Status WalWriter::Open(const std::string& path) {
  MutexLock lock(mutex_);
  if (file_ != nullptr) {
    return Status::FailedPrecondition("wal: already open");
  }
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return Status::IOError("wal: open " + path + ": " + std::strerror(errno));
  }
  file_ = f;
  path_ = path;
  return Status::OK();
}

Status WalWriter::Append(const Record& rec, bool sync) {
  Bytes payload;
  EncodeRecord(rec, &payload);
  return Append(BytesView(payload), sync);
}

Status WalWriter::Append(BytesView encoded, bool sync) {
  const uint32_t crc = Crc32(encoded);
  const uint32_t len = static_cast<uint32_t>(encoded.size());
  char header[8];
  std::memcpy(header, &crc, 4);
  std::memcpy(header + 4, &len, 4);

  MutexLock lock(mutex_);
  if (file_ == nullptr) return Status::FailedPrecondition("wal: not open");
  if (std::fwrite(header, 1, 8, file_) != 8 ||
      std::fwrite(encoded.data(), 1, len, file_) != len) {
    return Status::IOError("wal: short write");
  }
  if (sync) {
    if (std::fflush(file_) != 0) return Status::IOError("wal: flush failed");
    ::fsync(::fileno(file_));
  }
  return Status::OK();
}

Status WalWriter::Sync() {
  MutexLock lock(mutex_);
  if (file_ == nullptr) return Status::FailedPrecondition("wal: not open");
  if (std::fflush(file_) != 0) return Status::IOError("wal: flush failed");
  ::fsync(::fileno(file_));
  return Status::OK();
}

Status WalWriter::Close() {
  MutexLock lock(mutex_);
  if (file_ == nullptr) return Status::OK();
  const int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) return Status::IOError("wal: close failed");
  return Status::OK();
}

Status WalWriter::CloseAndRemove() {
  MUPPET_RETURN_IF_ERROR(Close());
  std::error_code ec;
  std::filesystem::remove(path_, ec);
  if (ec) return Status::IOError("wal: remove " + path_ + ": " + ec.message());
  return Status::OK();
}

Status ReplayWal(const std::string& path, std::vector<Record>* records,
                 bool* truncated_tail) {
  records->clear();
  if (truncated_tail != nullptr) *truncated_tail = false;

  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::OK();  // no log -> nothing to replay
  }

  Bytes header(8, '\0');
  Bytes payload;
  while (true) {
    const size_t got = std::fread(header.data(), 1, 8, f);
    if (got == 0) break;  // clean EOF
    if (got < 8) {
      if (truncated_tail != nullptr) *truncated_tail = true;
      break;
    }
    const uint32_t crc = DecodeFixed32(header.data());
    const uint32_t len = DecodeFixed32(header.data() + 4);
    if (len > (64u << 20)) {  // sanity: no 64MB+ records
      if (truncated_tail != nullptr) *truncated_tail = true;
      break;
    }
    payload.resize(len);
    if (std::fread(payload.data(), 1, len, f) != len) {
      if (truncated_tail != nullptr) *truncated_tail = true;
      break;
    }
    if (Crc32(payload) != crc) {
      if (truncated_tail != nullptr) *truncated_tail = true;
      break;
    }
    Record rec;
    const char* p = payload.data();
    Status s = DecodeRecord(&p, p + payload.size(), &rec);
    if (!s.ok()) {
      if (truncated_tail != nullptr) *truncated_tail = true;
      break;
    }
    records->push_back(std::move(rec));
  }
  std::fclose(f);
  return Status::OK();
}

}  // namespace kv
}  // namespace muppet
