// Thin RAII TCP socket wrapper plus tdwp frame I/O.
//
// Every transfer consults the process-global LinkShim seam (DESIGN.md §13)
// so a chaos engine can delay, throttle, shorten, corrupt, blackhole, or
// reset traffic per link scope; when nothing is installed the cost is one
// relaxed atomic load per chunk.
//
// Reads go through a per-socket read buffer (kReadBufferBytes, allocated
// on first read): one recv() usually brings in a whole small frame — and
// any frame pipelined behind it — so a request costs one syscall, not one
// for the header and one for the payload.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/link_shim.h"
#include "common/result.h"
#include "protocol/tdwp.h"

namespace hyperq::protocol {

/// \brief Owns a socket fd; movable, closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept
      : fd_(other.fd_.exchange(-1)),
        link_scope_(other.link_scope_),
        read_buf_(std::move(other.read_buf_)),
        read_pos_(std::exchange(other.read_pos_, 0)),
        read_end_(std::exchange(other.read_end_, 0)) {}
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd() >= 0; }
  /// The fd is atomic so an intentional cross-thread Close() — the
  /// listener-shutdown pattern that unblocks a thread parked in accept()
  /// — hands the descriptor off without a data race.
  int fd() const { return fd_.load(std::memory_order_acquire); }
  void Close();

  /// \brief Tags this socket's link for the chaos seam: the server tags
  /// accepted connections linkscopes::kFrontend, the client library tags
  /// its connections linkscopes::kClient. Untagged sockets ("net") are
  /// invisible to scope-targeted chaos schedules.
  void set_link_scope(const char* scope) { link_scope_ = scope; }
  const char* link_scope() const { return link_scope_; }

  /// \brief Connects to 127.0.0.1:`port`.
  static Result<Socket> ConnectLocal(uint16_t port);

  /// \brief Bounds every subsequent recv/send (SO_RCVTIMEO/SO_SNDTIMEO).
  /// An elapsed timeout surfaces as kDeadlineExceeded. 0 disables.
  Status SetRecvTimeoutMs(int ms);
  Status SetSendTimeoutMs(int ms);

  /// Short reads/writes are looped internally; EINTR is retried. A peer
  /// reset (ECONNRESET/EPIPE) or mid-stream EOF returns kUnavailable —
  /// retryable at the request layer — rather than a generic I/O error.
  /// ReadExactly consumes buffered bytes first.
  Status WriteAll(const void* data, size_t n);
  Status ReadExactly(void* data, size_t n);

  /// \brief Writes one framed message.
  Status WriteFrame(const Frame& frame);
  /// \brief Reads one framed message (blocking).
  Result<Frame> ReadFrame();

  /// \brief Reads one framed message under the slowloris guard (DESIGN.md
  /// §13): waiting for the frame to *start* follows the socket's idle
  /// policy, but once the first byte is in hand (received now, or already
  /// buffered) the rest of the frame must land within `frame_budget_ms`,
  /// however many bytes trickle in per recv. A stalled frame fails with
  /// kDeadlineExceeded[frame_stall]. If the guard had to change the recv
  /// timeout it is restored to `idle_timeout_ms` (0 = cleared) on return;
  /// a frame already fully buffered costs no setsockopt at all.
  /// `frame_budget_ms <= 0` degrades to ReadFrame().
  Result<Frame> ReadFrameGuarded(int frame_budget_ms, int idle_timeout_ms);

  /// Capacity of the per-socket read buffer. A payload remainder larger
  /// than this is received straight into the frame, not staged.
  static constexpr size_t kReadBufferBytes = 8192;
  /// Bytes already received from the peer but not yet consumed by a read.
  size_t buffered() const { return read_end_ - read_pos_; }

 private:
  /// State of one logical read (a ReadFrame/ReadExactly call).
  struct ReadOp {
    int budget_ms = 0;     // > 0: slowloris guard armed
    bool started = false;  // guard: first byte in hand, deadline running
    std::chrono::steady_clock::time_point deadline{};
    bool timeout_changed = false;  // guard re-derived SO_RCVTIMEO
    bool first_chunk = true;       // next recv is the op's first

    void Start() {
      started = true;
      deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(budget_ms);
    }
  };

  Result<Frame> ReadFrameImpl(ReadOp* op);
  /// Makes at least `need` (<= kReadBufferBytes) bytes buffered.
  Status Fill(size_t need, ReadOp* op);
  /// Moves `n` buffered bytes to `dst`.
  void Consume(void* dst, size_t n);
  /// One recv of at most `n` bytes into `p`, under the op's guard.
  Result<size_t> RecvSome(char* p, size_t n, size_t outstanding,
                          size_t total, ReadOp* op);
  /// One recv round: consults the `socket.read` fault point and the chaos
  /// seam (which may clamp the chunk, inject latency, corrupt the received
  /// bytes, or fail the op), then recv()s at most `n` bytes. Returns the
  /// byte count moved (> 0); mid-stream EOF and errors map exactly as
  /// ReadExactly documents. `outstanding`/`total` feed the error messages.
  Result<size_t> RecvChunk(char* p, size_t n, bool first_chunk,
                           size_t outstanding, size_t total);

  std::atomic<int> fd_{-1};
  const char* link_scope_ = linkscopes::kNone;
  // Read buffer: bytes [read_pos_, read_end_) are received, unconsumed.
  // Touched only by the reading thread; Close() leaves it alone.
  std::unique_ptr<uint8_t[]> read_buf_;
  size_t read_pos_ = 0;
  size_t read_end_ = 0;
};

/// \brief Listening socket bound to 127.0.0.1 (port 0 = ephemeral).
class ListenSocket {
 public:
  static Result<ListenSocket> BindLocal(uint16_t port);
  Result<Socket> Accept();
  uint16_t port() const { return port_; }
  void Close() { sock_.Close(); }
  /// \brief Wakes a thread blocked in Accept() (shutdown + self-connect).
  void Interrupt();
  bool valid() const { return sock_.valid(); }

 private:
  Socket sock_;
  uint16_t port_ = 0;
};

}  // namespace hyperq::protocol
