// One framed append-only log, shared by every on-disk log in the repo: the
// kvstore WAL, the slate changelog's segments, its checkpoint manifest and
// the bulk SlateLogger (paper §4.2 keeps slates durable in the key-value
// store; §5 advises an append-only slate log).
//
// A log file is a sequence of frames `[u32 crc][u32 len][payload]`, the crc
// taken over the payload. A crash can leave the last frame torn: short,
// bit-flipped or with a garbage header. A scan stops at the first frame
// that is not intact and reports where the last intact frame ends;
// FramedLogWriter::Open truncates the file there before it appends, so
// records written after a recovery stay reachable.
#ifndef MUPPET_COMMON_FRAMED_LOG_H_
#define MUPPET_COMMON_FRAMED_LOG_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/status.h"

namespace muppet {

inline constexpr size_t kFrameHeaderBytes = 8;  // [u32 crc][u32 len]
// Largest payload one frame may carry; a header claiming more is corrupt.
inline constexpr uint32_t kMaxLogPayload = 64u << 20;

// Append one frame holding `payload` to `out`.
void AppendFrame(BytesView payload, Bytes* out);

// Minimal append-only file under a log writer. Production uses
// FileLogDevice; tests wrap it to tear or bit-flip a write on its way to
// the file.
class LogDevice {
 public:
  LogDevice() = default;
  virtual ~LogDevice() = default;

  LogDevice(const LogDevice&) = delete;
  LogDevice& operator=(const LogDevice&) = delete;

  // Open `path` for append, creating it if absent.
  virtual Status Open(const std::string& path) = 0;
  // Hand `bytes` to the file. Not durable until Sync().
  virtual Status Write(BytesView bytes) = 0;
  // fsync: everything written so far survives a machine crash.
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

// A raw file descriptor opened O_APPEND. It buffers nothing itself.
class FileLogDevice final : public LogDevice {
 public:
  ~FileLogDevice() override;

  Status Open(const std::string& path) override;
  Status Write(BytesView bytes) override;
  Status Sync() override;
  Status Close() override;

 private:
  int fd_ = -1;
};

// Called with each intact frame's payload, in file order. Returning false
// says the payload does not decode: the scan treats that frame as torn.
using FrameVisitor = std::function<bool(BytesView payload)>;

struct FrameScan {
  uint64_t frames = 0;        // intact frames visited
  uint64_t intact_bytes = 0;  // offset just past the last intact frame
  bool torn = false;          // bytes follow the last intact frame
};

// Visit every intact frame of the log at `path`. A missing file scans as
// empty. A frame header's length is checked against the bytes left in the
// file before anything is allocated for its payload.
Status ScanFramedLog(const std::string& path, const FrameVisitor& visit,
                     FrameScan* scan);

// Appends frames to one log file. It has no lock: each owner already
// serialises its calls (the kvstore shard's tables mutex, the changelog's
// mutex, SlateLogger's mutex). Appends collect in a buffer of at most
// kBufferBytes; an append that would overflow it writes the buffer to the
// file first, without an fsync. Only Sync() makes appends durable. A failed
// write or fsync is returned by every later Append, Sync and Close until
// the next Open: the file may miss appends already accepted, and a later
// fsync that succeeds would not bring them back.
class FramedLogWriter {
 public:
  static constexpr size_t kBufferBytes = 4096;

  // `device` defaults to a FileLogDevice.
  explicit FramedLogWriter(std::unique_ptr<LogDevice> device = nullptr);
  // Close(): buffered appends reach the file.
  ~FramedLogWriter();

  FramedLogWriter(const FramedLogWriter&) = delete;
  FramedLogWriter& operator=(const FramedLogWriter&) = delete;

  // Scan `path` once, handing each intact payload to `replay` (may be
  // null), truncate a torn tail at the last intact frame, and open the
  // file for append. `scan` (may be null) receives what the scan found.
  Status Open(const std::string& path, const FrameVisitor& replay = nullptr,
              FrameScan* scan = nullptr);

  Status Append(BytesView payload);

  // Write the buffer and fsync. A failed fsync is an IOError.
  Status Sync();

  // Write the buffer and release the file (no fsync).
  Status Close();

  // Crash model: drop the buffered appends and release the file. What was
  // written to the file before stays there.
  void CrashClose();

  bool is_open() const { return open_; }

 private:
  Status WriteBuffer();
  // Record the first failure of a write or fsync; returns `s`.
  Status Fail(Status s);

  std::unique_ptr<LogDevice> device_;
  bool open_ = false;
  Status error_;
  Bytes buffer_;
};

}  // namespace muppet

#endif  // MUPPET_COMMON_FRAMED_LOG_H_
