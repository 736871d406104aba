#include "store/record_log.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <span>
#include <thread>
#include <utility>

#include "util/byte_codec.h"
#include "util/checksum.h"
#include "util/fault_injection.h"
#include "util/logging.h"

namespace dcs {

namespace {

// "PAGE" as a little-endian u32.
constexpr uint32_t kFrameMagic = 0x45474150u;
constexpr uint32_t kEndianTag = 0x01020304u;
constexpr uint64_t kSuperblockBytes = 32;
constexpr uint64_t kFrameHeaderBytes = 32;

Status ErrnoError(const char* what) {
  return Status::IoError(std::string(what) + " failed: " +
                         std::strerror(errno));
}

std::string SerializeSuperblock(const RecordLogFormat& format) {
  std::string out;
  out.reserve(kSuperblockBytes);
  AppendU64(format.magic, &out);
  AppendU32(format.version, &out);
  AppendU32(kEndianTag, &out);
  AppendU64(PageChecksum(out.data(), out.size()), &out);
  AppendU64(0, &out);  // reserved
  DCS_CHECK(out.size() == kSuperblockBytes);
  return out;
}

// Validates a superblock image; reports the version it claims (0 when the
// magic/endianness/checksum already disqualify it). Another format version
// is unreadable by construction: the whole file is untrusted rather than
// guessed at.
bool ValidSuperblock(const RecordLogFormat& format,
                     std::span<const uint8_t> bytes, uint32_t* version) {
  *version = 0;
  if (bytes.size() < kSuperblockBytes) return false;
  size_t cursor = 0;
  uint64_t magic = 0, checksum = 0;
  uint32_t file_version = 0, endian = 0;
  ReadU64(bytes, &cursor, &magic);
  ReadU32(bytes, &cursor, &file_version);
  ReadU32(bytes, &cursor, &endian);
  ReadU64(bytes, &cursor, &checksum);
  if (magic != format.magic || endian != kEndianTag ||
      checksum != PageChecksum(bytes.data(), 16)) {
    return false;
  }
  *version = file_version;
  return file_version == format.version;
}

std::string SerializeFrameHeader(uint32_t type, uint64_t key,
                                 const std::string& payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  AppendU32(kFrameMagic, &out);
  AppendU32(type, &out);
  AppendU64(key, &out);
  AppendU64(payload.size(), &out);
  AppendU64(PageChecksum(payload.data(), payload.size()), &out);
  DCS_CHECK(out.size() == kFrameHeaderBytes);
  return out;
}

// Parses one frame header at bytes[*cursor] (offset left for the caller);
// false on a short buffer, a bad frame magic or an unknown record type.
bool ParseFrameHeader(const RecordLogFormat& format,
                      std::span<const uint8_t> bytes, size_t* cursor,
                      RecordFrame* frame, uint64_t* checksum) {
  uint32_t magic = 0;
  return ReadU32(bytes, cursor, &magic) && magic == kFrameMagic &&
         ReadU32(bytes, cursor, &frame->type) && frame->type >= 1 &&
         frame->type <= format.max_record_type &&
         ReadU64(bytes, cursor, &frame->key) &&
         ReadU64(bytes, cursor, &frame->payload_bytes) &&
         ReadU64(bytes, cursor, checksum);
}

Result<uint64_t> FileSize(int fd) {
  struct stat st;
  if (fstat(fd, &st) != 0) return ErrnoError("fstat");
  return static_cast<uint64_t>(st.st_size);
}

Status ReadExact(int fd, uint64_t offset, size_t size, uint8_t* out) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = pread(fd, out + done, size - done,
                            static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("pread");
    }
    if (n == 0) return Status::IoError("unexpected end of file");
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status WriteExact(int fd, uint64_t offset, const std::string& bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = pwrite(fd, bytes.data() + done, bytes.size() - done,
                             static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("pwrite");
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

// Runs `io` until it succeeds, fails with a non-I/O error, or `max_retries`
// retries are spent. Each attempt first consults `fault_site`, whose hit
// stands in for a failed attempt.
template <typename Io>
Status RetryIo(const char* fault_site, uint32_t max_retries,
               uint64_t* retries, Io io) {
  double backoff_ms = RecordLog::kRetryBackoffMs;
  for (uint32_t attempt = 0;; ++attempt) {
    Status status = FaultHit(fault_site)
                        ? FaultInjection::InjectedError(fault_site)
                        : io();
    if (status.ok() || !status.IsIoError() || attempt >= max_retries) {
      return status;
    }
    ++*retries;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(backoff_ms));
    backoff_ms *= 2.0;
  }
}

Result<int> OpenFile(const std::string& path, const RecordLogFormat& format,
                     int flags) {
  const int fd = ::open(path.c_str(), flags | O_CLOEXEC, 0644);
  if (fd >= 0) return fd;
  const std::string reason = std::strerror(errno);
  if (errno == ENOENT) {
    return Status::NotFound(std::string(format.name) + " " + path + ": " +
                            reason);
  }
  return Status::IoError("cannot open " + std::string(format.name) + " " +
                         path + ": " + reason);
}

}  // namespace

// ---- locking ---------------------------------------------------------------

ScopedFileLock::ScopedFileLock(int fd, int op) : fd_(fd) {
  // The store.flock fault site models a failing flock() — the lock
  // degrades to lockless I/O, exactly like a real error below.
  if (FaultHit(fault_sites::kStoreFlock)) {
    fd_ = -1;
    return;
  }
  while (flock(fd_, op) != 0 && errno == EINTR) {
  }
}

ScopedFileLock::~ScopedFileLock() {
  if (fd_ < 0) return;
  while (flock(fd_, LOCK_UN) != 0 && errno == EINTR) {
  }
}

ScopedFileLock RecordLog::SharedLock() const {
  return ScopedFileLock(fd_, LOCK_SH);
}

// ---- lifetime --------------------------------------------------------------

RecordLog::RecordLog(const RecordLogFormat& format, int fd)
    : format_(format), fd_(fd) {}

RecordLog::RecordLog(RecordLog&& other) noexcept
    : format_(other.format_),
      fd_(std::exchange(other.fd_, -1)),
      reliable_end_(other.reliable_end_),
      tail_unreliable_(other.tail_unreliable_),
      counters_(other.counters_) {}

RecordLog::~RecordLog() {
  if (fd_ >= 0) ::close(fd_);
}

Result<RecordLog> RecordLog::Open(const std::string& path,
                                  const RecordLogFormat& format,
                                  bool create_if_missing) {
  DCS_ASSIGN_OR_RETURN(
      int fd, OpenFile(path, format,
                       create_if_missing ? (O_RDWR | O_CREAT) : O_RDWR));
  RecordLog log(format, fd);
  // A 0-byte file (just created, or left by a crash before the first write)
  // gets its superblock now, so a handle closed before any append leaves an
  // empty log that Fsck reports clean. The size is re-read under the
  // exclusive lock so a racing handle's superblock and records are kept; a
  // non-empty file takes no lock here.
  Result<uint64_t> size = FileSize(fd);
  if (size.ok() && *size == 0) {
    ScopedFileLock file_lock(fd, LOCK_EX);
    size = FileSize(fd);
    if (size.ok() && *size == 0) {
      DCS_RETURN_NOT_OK(WriteExact(fd, 0, SerializeSuperblock(format)));
    }
  }
  return log;
}

// ---- scan ------------------------------------------------------------------

std::vector<RecordFrame> RecordLog::Scan() {
  std::vector<RecordFrame> frames;
  reliable_end_ = 0;
  tail_unreliable_ = true;
  ScopedFileLock file_lock(fd_, LOCK_SH);
  // An fstat failure, or a file emptied since Open: trust nothing yet; the
  // first append writes the superblock.
  Result<uint64_t> size = FileSize(fd_);
  if (!size.ok() || *size == 0) return frames;

  uint8_t superblock[kSuperblockBytes];
  uint32_t version = 0;
  if (!ReadExact(fd_, 0, kSuperblockBytes, superblock).ok() ||
      !ValidSuperblock(format_, superblock, &version)) {
    ++counters_.corrupt_pages;
    return frames;
  }

  uint64_t cursor = kSuperblockBytes;
  reliable_end_ = cursor;
  tail_unreliable_ = false;
  while (cursor < *size) {
    uint8_t header[kFrameHeaderBytes];
    RecordFrame frame;
    frame.offset = cursor;
    uint64_t checksum = 0;
    size_t header_cursor = 0;
    if (*size - cursor < kFrameHeaderBytes ||
        !ReadExact(fd_, cursor, kFrameHeaderBytes, header).ok() ||
        !ParseFrameHeader(format_, header, &header_cursor, &frame,
                          &checksum) ||
        frame.payload_bytes > *size - cursor - kFrameHeaderBytes) {
      // A torn append or header garbage: everything from here on is
      // unreachable.
      ++counters_.corrupt_pages;
      tail_unreliable_ = true;
      break;
    }
    cursor += kFrameHeaderBytes + frame.payload_bytes;
    frames.push_back(frame);
    reliable_end_ = cursor;
  }
  return frames;
}

// ---- append / truncate -----------------------------------------------------

Status RecordLog::TruncateTailLocked() {
  uint8_t superblock[kSuperblockBytes];
  uint32_t version = 0;
  if (reliable_end_ < kSuperblockBytes &&
      ReadExact(fd_, 0, kSuperblockBytes, superblock).ok() &&
      ValidSuperblock(format_, superblock, &version)) {
    // Another handle wrote a fresh superblock after our scan saw an empty
    // or untrusted file: adopt it instead of wiping that handle's records.
    reliable_end_ = kSuperblockBytes;
    tail_unreliable_ = false;
    return Status::OK();
  }
  const uint64_t keep = reliable_end_ < kSuperblockBytes ? 0 : reliable_end_;
  Result<uint64_t> size = FileSize(fd_);
  if (size.ok() && *size > keep) {
    ++counters_.truncations;
    counters_.truncated_tail_bytes += *size - keep;
  }
  if (ftruncate(fd_, static_cast<off_t>(keep)) != 0) {
    return ErrnoError("ftruncate");
  }
  if (keep == 0) {
    DCS_RETURN_NOT_OK(WriteExact(fd_, 0, SerializeSuperblock(format_)));
    reliable_end_ = kSuperblockBytes;
  }
  tail_unreliable_ = false;
  return Status::OK();
}

Status RecordLog::TruncateUnreliableTail() {
  if (!tail_unreliable_) return Status::OK();
  ScopedFileLock file_lock(fd_, LOCK_EX);
  return TruncateTailLocked();
}

void RecordLog::MarkUnreliableFrom(uint64_t offset) {
  if (!tail_unreliable_ || offset < reliable_end_) {
    reliable_end_ = std::max(offset, kSuperblockBytes);
    tail_unreliable_ = true;
  }
}

Result<RecordFrame> RecordLog::Append(uint32_t type, uint64_t key,
                                      const std::string& payload,
                                      const char* fault_site) {
  ScopedFileLock file_lock(fd_, LOCK_EX);
  if (tail_unreliable_) DCS_RETURN_NOT_OK(TruncateTailLocked());
  // Another process may have appended since our scan; never overwrite its
  // records — append at the true end of file.
  DCS_ASSIGN_OR_RETURN(uint64_t end, FileSize(fd_));
  RecordFrame frame;
  frame.offset = std::max(end, reliable_end_);
  frame.payload_bytes = payload.size();
  frame.type = type;
  frame.key = key;
  std::string bytes = SerializeFrameHeader(type, key, payload);
  bytes += payload;
  DCS_RETURN_NOT_OK(
      RetryIo(fault_site, kMaxIoRetries, &counters_.io_retries,
              [&] { return WriteExact(fd_, frame.offset, bytes); }));
  reliable_end_ = frame.offset + bytes.size();
  ++counters_.appended_records;
  return frame;
}

Status RecordLog::Sync() {
  if (fsync(fd_) != 0) return ErrnoError("fsync");
  return Status::OK();
}

// ---- read ------------------------------------------------------------------

Result<std::vector<uint8_t>> RecordLog::ReadFrame(const RecordFrame& frame,
                                                  const char* fault_site,
                                                  uint32_t max_retries) {
  std::vector<uint8_t> bytes(kFrameHeaderBytes +
                             static_cast<size_t>(frame.payload_bytes));
  // Only I/O errors retry; a checksum mismatch is content rot, not
  // transience.
  const Status read =
      RetryIo(fault_site, max_retries, &counters_.io_retries, [&] {
        return ReadExact(fd_, frame.offset, bytes.size(), bytes.data());
      });
  RecordFrame header;
  uint64_t checksum = 0;
  size_t cursor = 0;
  if (!read.ok() ||
      !ParseFrameHeader(format_, bytes, &cursor, &header, &checksum) ||
      header.type != frame.type || header.key != frame.key ||
      header.payload_bytes != frame.payload_bytes ||
      PageChecksum(bytes.data() + kFrameHeaderBytes,
                   static_cast<size_t>(frame.payload_bytes)) != checksum) {
    ++counters_.corrupt_pages;
    return Status::NotFound(std::string(format_.name) +
                            " record failed verification");
  }
  bytes.erase(bytes.begin(), bytes.begin() + kFrameHeaderBytes);
  return bytes;
}

uint64_t RecordLog::FileBytes() const {
  Result<uint64_t> size = FileSize(fd_);
  return size.ok() ? *size : 0;
}

// ---- offline check ---------------------------------------------------------

Result<RecordLogFsckReport> RecordLog::Fsck(const std::string& path,
                                            const RecordLogFormat& format) {
  DCS_ASSIGN_OR_RETURN(int fd, OpenFile(path, format, O_RDONLY));
  std::vector<uint8_t> bytes;
  Status read;
  {
    ScopedFileLock file_lock(fd, LOCK_SH);
    Result<uint64_t> size = FileSize(fd);
    if (size.ok()) {
      bytes.resize(static_cast<size_t>(*size));
      read = ReadExact(fd, 0, bytes.size(), bytes.data());
    } else {
      read = size.status();
    }
  }
  ::close(fd);
  DCS_RETURN_NOT_OK(read);

  RecordLogFsckReport report;
  report.file_bytes = bytes.size();
  report.superblock_ok = ValidSuperblock(format, bytes,
                                         &report.format_version);
  if (!report.superblock_ok) {
    report.corrupt_pages = bytes.empty() ? 0 : 1;
    report.unreliable_tail_bytes = bytes.size();
    return report;
  }
  size_t cursor = kSuperblockBytes;
  while (cursor < bytes.size()) {
    const size_t frame_offset = cursor;
    RecordFrame frame;
    uint64_t checksum = 0;
    if (!ParseFrameHeader(format, bytes, &cursor, &frame, &checksum) ||
        frame.payload_bytes > bytes.size() - cursor ||
        PageChecksum(bytes.data() + cursor,
                     static_cast<size_t>(frame.payload_bytes)) != checksum) {
      ++report.corrupt_pages;
      report.unreliable_tail_bytes = bytes.size() - frame_offset;
      break;
    }
    cursor += static_cast<size_t>(frame.payload_bytes);
    ++report.valid_records;
  }
  return report;
}

}  // namespace dcs
