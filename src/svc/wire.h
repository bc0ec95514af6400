// drtpd wire framing: 4-byte big-endian length prefix + payload.
//
// The daemon speaks length-prefixed JSON over a local stream socket. The
// prefix makes message boundaries explicit (JSON itself is not
// self-delimiting on a stream) and lets the server reject runaway frames
// before buffering them: a header declaring more than kMaxFrameBytes is a
// protocol violation and the connection is dropped after one bad_frame
// response. See docs/DRTPD.md for the full wire contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

struct iovec;  // <sys/uio.h>

namespace drtp::svc {

/// Largest accepted payload. Requests are small (one JSON object); the
/// cap exists so a corrupt or hostile header cannot make the server
/// buffer gigabytes.
inline constexpr std::size_t kMaxFrameBytes = 1 << 20;  // 1 MiB

/// Renders the 4-byte big-endian header for a payload of `n` bytes.
void EncodeFrameHeader(std::size_t n, char out[4]);

/// Why a frame (or WAL record) write failed. The taxonomy is explicit so
/// callers can distinguish a vanished peer (expected, quiet) from a full
/// disk (fatal for a write-ahead log) from everything else.
enum class WriteStatus {
  kOk,
  kPeerGone,  ///< EPIPE / ECONNRESET: the peer closed first
  kNoSpace,   ///< ENOSPC / EDQUOT: the filesystem is full
  kIoError,   ///< any other errno (EIO, EBADF, ...)
};

/// Stable lowercase name for logs and error strings.
const char* WriteStatusName(WriteStatus status);

/// Maps an errno from write/writev/sendmsg to the taxonomy above.
WriteStatus ClassifyWriteErrno(int err);

struct WriteResult {
  WriteStatus status = WriteStatus::kOk;
  int error_errno = 0;  ///< errno captured when status != kOk
  bool ok() const { return status == WriteStatus::kOk; }
  /// "<status name>: <strerror>" for error strings.
  std::string message() const;
};

/// Writes frames (and raw scatter/gather buffers) with an explicit
/// EINTR/short-write retry loop — a single write() that returns short
/// would otherwise silently truncate a frame mid-stream and desync the
/// peer's FrameReader. Socket fds are written with sendmsg(MSG_NOSIGNAL)
/// so a vanished peer surfaces as kPeerGone instead of SIGPIPE; regular
/// files (snapshots) fall back to writev transparently.
class FrameWriter {
 public:
  explicit FrameWriter(int fd) : fd_(fd) {}
  virtual ~FrameWriter() = default;

  FrameWriter(const FrameWriter&) = delete;
  FrameWriter& operator=(const FrameWriter&) = delete;

  /// Header + payload, atomically from the peer's perspective (the retry
  /// loop completes the frame or reports why it could not).
  WriteResult WriteFrame(std::string_view payload);

  /// Writes every byte of `iov[0..iovcnt)`. Consumed entries are mutated
  /// in place as partial writes land — callers pass scratch iovecs.
  WriteResult WriteVec(iovec* iov, int iovcnt);

 protected:
  /// Test seam: failure-injecting subclasses override this to simulate
  /// short writes, EINTR, ENOSPC, and dead peers (svc_test).
  virtual long DoWritev(const iovec* iov, int iovcnt);

 private:
  int fd_;
  bool use_sendmsg_ = true;  ///< cleared on ENOTSOCK (regular file)
};

/// Header + payload in one buffer (DRTP_CHECKs the size cap — callers
/// frame only payloads they rendered themselves).
std::string EncodeFrame(std::string_view payload);

/// Incremental frame decoder for one connection: feed whatever the socket
/// delivered, pop complete payloads. A header exceeding kMaxFrameBytes
/// poisons the reader (error() non-empty, Next() stays empty); the caller
/// must drop the connection. Bytes of an incomplete ("torn") frame simply
/// wait for more input — EOF with leftover bytes is the caller's signal
/// that the peer died mid-frame.
class FrameReader {
 public:
  /// Appends received bytes. False once the reader is poisoned.
  bool Feed(std::string_view bytes);

  /// Extracts the next complete payload, if any.
  std::optional<std::string> Next();

  /// Non-empty after an oversized header.
  const std::string& error() const { return error_; }

  /// Bytes buffered but not yet returned (torn-frame detection at EOF).
  std::size_t pending_bytes() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_, compacted lazily
  std::string error_;
};

}  // namespace drtp::svc
