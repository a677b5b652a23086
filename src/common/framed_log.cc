#include "common/framed_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/hash.h"

namespace muppet {

namespace {

Status Errno(const std::string& what) {
  return Status::IOError("framed log: " + what + ": " + std::strerror(errno));
}

// Read exactly `n` bytes; false on an error or an early end of file.
bool ReadFull(int fd, char* buf, size_t n) {
  while (n > 0) {
    const ssize_t got = ::read(fd, buf, n);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    buf += got;
    n -= static_cast<size_t>(got);
  }
  return true;
}

}  // namespace

void AppendFrame(BytesView payload, Bytes* out) {
  PutFixed32(out, Crc32(payload));
  PutFixed32(out, static_cast<uint32_t>(payload.size()));
  out->append(payload.data(), payload.size());
}

// ---------------------------------------------------------------------------
// FileLogDevice.
// ---------------------------------------------------------------------------

FileLogDevice::~FileLogDevice() { (void)Close(); }

Status FileLogDevice::Open(const std::string& path) {
  if (fd_ >= 0) return Status::FailedPrecondition("framed log: already open");
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
               0644);
  if (fd_ < 0) return Errno("open " + path);
  return Status::OK();
}

Status FileLogDevice::Write(BytesView bytes) {
  if (fd_ < 0) return Status::FailedPrecondition("framed log: not open");
  while (!bytes.empty()) {
    const ssize_t wrote = ::write(fd_, bytes.data(), bytes.size());
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote < 0) return Errno("write");
    bytes.remove_prefix(static_cast<size_t>(wrote));
  }
  return Status::OK();
}

Status FileLogDevice::Sync() {
  if (fd_ < 0) return Status::FailedPrecondition("framed log: not open");
  if (::fsync(fd_) != 0) return Errno("fsync");
  return Status::OK();
}

Status FileLogDevice::Close() {
  if (fd_ < 0) return Status::OK();
  const int rc = ::close(fd_);
  fd_ = -1;
  if (rc != 0) return Errno("close");
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Scanner.
// ---------------------------------------------------------------------------

Status ScanFramedLog(const std::string& path, const FrameVisitor& visit,
                     FrameScan* scan) {
  *scan = FrameScan{};
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::OK();  // no log yet
    return Errno("open " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status s = Errno("stat " + path);
    ::close(fd);
    return s;
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  char header[kFrameHeaderBytes];
  Bytes payload;
  uint64_t offset = 0;
  while (offset < size) {
    if (size - offset < kFrameHeaderBytes ||
        !ReadFull(fd, header, kFrameHeaderBytes)) {
      break;
    }
    const uint32_t crc = DecodeFixed32(header);
    const uint32_t len = DecodeFixed32(header + 4);
    if (len > kMaxLogPayload || len > size - offset - kFrameHeaderBytes) {
      break;
    }
    payload.resize(len);
    if (!ReadFull(fd, payload.data(), len) || Crc32(payload) != crc ||
        (visit && !visit(payload))) {
      break;
    }
    offset += kFrameHeaderBytes + len;
    scan->frames++;
  }
  ::close(fd);
  scan->intact_bytes = offset;
  scan->torn = offset < size;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// FramedLogWriter.
// ---------------------------------------------------------------------------

FramedLogWriter::FramedLogWriter(std::unique_ptr<LogDevice> device)
    : device_(device != nullptr ? std::move(device)
                                : std::make_unique<FileLogDevice>()) {}

FramedLogWriter::~FramedLogWriter() { (void)Close(); }

Status FramedLogWriter::Open(const std::string& path,
                             const FrameVisitor& replay, FrameScan* scan) {
  if (open_) return Status::FailedPrecondition("framed log: already open");
  FrameScan local;
  FrameScan* found = scan != nullptr ? scan : &local;
  MUPPET_RETURN_IF_ERROR(ScanFramedLog(path, replay, found));
  // Appends after a torn frame would be unreachable: every scan stops at
  // the first frame that is not intact.
  if (found->torn &&
      ::truncate(path.c_str(), static_cast<off_t>(found->intact_bytes)) !=
          0) {
    return Errno("truncate torn tail of " + path);
  }
  MUPPET_RETURN_IF_ERROR(device_->Open(path));
  open_ = true;
  error_ = Status::OK();
  return Status::OK();
}

Status FramedLogWriter::Append(BytesView payload) {
  if (!open_) return Status::FailedPrecondition("framed log: not open");
  MUPPET_RETURN_IF_ERROR(error_);
  if (payload.size() > kMaxLogPayload) {
    return Status::InvalidArgument("framed log: payload too large");
  }
  const size_t frame_bytes = kFrameHeaderBytes + payload.size();
  if (buffer_.size() + frame_bytes > kBufferBytes) {
    MUPPET_RETURN_IF_ERROR(WriteBuffer());
  }
  if (frame_bytes > kBufferBytes) {
    // Too large to buffer: the frame goes to the file in one write.
    Bytes frame;
    frame.reserve(frame_bytes);
    AppendFrame(payload, &frame);
    return Fail(device_->Write(frame));
  }
  if (buffer_.capacity() < kBufferBytes) buffer_.reserve(kBufferBytes);
  AppendFrame(payload, &buffer_);
  return Status::OK();
}

Status FramedLogWriter::Fail(Status s) {
  if (!s.ok() && error_.ok()) error_ = s;
  return s;
}

Status FramedLogWriter::WriteBuffer() {
  MUPPET_RETURN_IF_ERROR(error_);
  if (buffer_.empty()) return Status::OK();
  Status s = device_->Write(buffer_);
  buffer_.clear();
  return Fail(s);
}

Status FramedLogWriter::Sync() {
  if (!open_) return Status::FailedPrecondition("framed log: not open");
  MUPPET_RETURN_IF_ERROR(WriteBuffer());
  return Fail(device_->Sync());
}

Status FramedLogWriter::Close() {
  if (!open_) return Status::OK();
  Status written = WriteBuffer();
  Status closed = device_->Close();
  open_ = false;
  Bytes().swap(buffer_);
  return written.ok() ? closed : written;
}

void FramedLogWriter::CrashClose() {
  if (!open_) return;
  (void)device_->Close();
  open_ = false;
  Bytes().swap(buffer_);
}

}  // namespace muppet
