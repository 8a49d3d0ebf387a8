#include "protocol/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/fault.h"

namespace hyperq::protocol {

namespace {
constexpr uint32_t kMaxFramePayload = 256u << 20;

Status FrameStall(int budget_ms, size_t outstanding, size_t total) {
  return Status::DeadlineExceeded("tdwp frame stalled: peer delivered ",
                                  total - outstanding, " of ", total,
                                  " bytes within the ", budget_ms,
                                  "ms per-frame budget")
      .WithDetail(StatusDetail::kFrameStall);
}

Status SetFdTimeout(int fd, int optname, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  if (::setsockopt(fd, SOL_SOCKET, optname, &tv, sizeof(tv)) != 0) {
    return Status::IoError("setsockopt(timeout): ", std::strerror(errno));
  }
  return Status::OK();
}
}  // namespace

Socket::~Socket() { Close(); }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_.store(other.fd_.exchange(-1), std::memory_order_release);
    link_scope_ = other.link_scope_;
    read_buf_ = std::move(other.read_buf_);
    read_pos_ = std::exchange(other.read_pos_, 0);
    read_end_ = std::exchange(other.read_end_, 0);
  }
  return *this;
}

void Socket::Close() {
  int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::close(fd);
  }
}

Result<Socket> Socket::ConnectLocal(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError("socket(): ", std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int err = errno;
    ::close(fd);
    return Status::IoError("connect(127.0.0.1:", port,
                           "): ", std::strerror(err));
  }
  return Socket(fd);
}

Status Socket::SetRecvTimeoutMs(int ms) {
  return SetFdTimeout(fd_, SO_RCVTIMEO, ms);
}

Status Socket::SetSendTimeoutMs(int ms) {
  return SetFdTimeout(fd_, SO_SNDTIMEO, ms);
}

Status Socket::WriteAll(const void* data, size_t n) {
  HQ_FAULT_POINT(faultpoints::kSocketWrite);
  const char* p = static_cast<const char*>(data);
  size_t total = n;
  std::vector<uint8_t> scratch;  // allocated only for a corrupted chunk
  bool first_chunk = true;
  while (n > 0) {
    size_t chunk = n;
    const char* src = p;
    if (LinkShim* shim = GlobalLinkShim()) {
      LinkOp op;
      op.scope = link_scope_;
      op.send = true;
      op.requested = n;
      op.first_chunk = first_chunk;
      bool blackhole = false;
      bool corrupt = false;
      HQ_RETURN_IF_ERROR(
          shim->BeforeTransfer(op, &chunk, &blackhole, &corrupt));
      if (chunk == 0 || chunk > n) chunk = n;
      if (blackhole) {
        // One-way partition: the bytes vanish "into the kernel buffer".
        // The caller sees success — exactly the illusion real TCP gives a
        // sender whose peer direction is partitioned.
        p += chunk;
        n -= chunk;
        first_chunk = false;
        continue;
      }
      if (corrupt) {
        // Corrupt a copy: a retry of this transfer must be able to resend
        // the caller's original, pristine bytes.
        scratch.assign(p, p + chunk);
        shim->CorruptPayload(op, scratch.data(), chunk);
        src = reinterpret_cast<const char*>(scratch.data());
      }
    }
    // send() may accept fewer bytes than asked (short write): advance and
    // loop. MSG_NOSIGNAL turns a dead peer into EPIPE instead of SIGPIPE.
    ssize_t w = ::send(fd_, src, chunk, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("send timed out with ", n, " of ",
                                        total, " bytes unsent");
      }
      if (errno == ECONNRESET || errno == EPIPE) {
        return Status::Unavailable("connection reset by peer during send (",
                                   std::strerror(errno), ")");
      }
      return Status::IoError("send(): ", std::strerror(errno));
    }
    p += w;
    n -= static_cast<size_t>(w);
    first_chunk = false;
  }
  return Status::OK();
}

Result<size_t> Socket::RecvChunk(char* p, size_t n, bool first_chunk,
                                 size_t outstanding, size_t total) {
  HQ_FAULT_POINT(faultpoints::kSocketRead);
  for (;;) {
    size_t chunk = n;
    bool corrupt = false;
    LinkShim* shim = GlobalLinkShim();
    LinkOp op;
    if (shim != nullptr) {
      op.scope = link_scope_;
      op.send = false;
      op.requested = n;
      op.first_chunk = first_chunk;
      bool blackhole = false;
      HQ_RETURN_IF_ERROR(
          shim->BeforeTransfer(op, &chunk, &blackhole, &corrupt));
      if (chunk == 0 || chunk > n) chunk = n;
      if (blackhole) {
        // A recv-direction partition delivers nothing, ever: surface the
        // same kDeadlineExceeded a real SO_RCVTIMEO expiry would.
        return Status::DeadlineExceeded(
            "recv timed out with ", outstanding, " of ", total,
            " bytes outstanding (link partitioned)");
      }
    }
    // recv() returns whatever is buffered (short read): the caller loops
    // until its byte count is satisfied.
    ssize_t r = ::recv(fd_, p, chunk, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("recv timed out with ", outstanding,
                                        " of ", total, " bytes outstanding");
      }
      if (errno == ECONNRESET) {
        return Status::Unavailable("connection reset by peer during recv");
      }
      return Status::IoError("recv(): ", std::strerror(errno));
    }
    if (r == 0) {
      return Status::Unavailable("connection closed by peer (",
                                 total - outstanding, " of ", total,
                                 " bytes read)");
    }
    if (corrupt && shim != nullptr) {
      shim->CorruptPayload(op, reinterpret_cast<uint8_t*>(p),
                           static_cast<size_t>(r));
    }
    return static_cast<size_t>(r);
  }
}

Result<size_t> Socket::RecvSome(char* p, size_t n, size_t outstanding,
                                size_t total, ReadOp* op) {
  if (op->started) {
    // Once the frame has started it must complete within the budget no
    // matter how slowly bytes trickle in: the recv timeout is re-derived
    // from the remaining budget before every chunk, so a 1-byte-per-second
    // client cannot reset the clock (the slowloris attack the guard is
    // for).
    auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
                         op->deadline - std::chrono::steady_clock::now())
                         .count();
    if (remaining <= 0) {
      return FrameStall(op->budget_ms, outstanding, total);
    }
    HQ_RETURN_IF_ERROR(SetRecvTimeoutMs(static_cast<int>(remaining)));
    op->timeout_changed = true;
  }
  auto r = RecvChunk(p, n, op->first_chunk, outstanding, total);
  op->first_chunk = false;
  if (!r.ok()) {
    if (op->started && r.status().IsDeadlineExceeded()) {
      return FrameStall(op->budget_ms, outstanding, total);
    }
    return r.status();
  }
  // Waiting for the frame to start is idleness, not a stall: the first
  // bytes arrive under the caller's idle policy, then the clock runs.
  if (op->budget_ms > 0 && !op->started) op->Start();
  return r;
}

Status Socket::Fill(size_t need, ReadOp* op) {
  if (!read_buf_) read_buf_.reset(new uint8_t[kReadBufferBytes]);
  if (read_pos_ + need > kReadBufferBytes) {
    std::memmove(read_buf_.get(), read_buf_.get() + read_pos_, buffered());
    read_end_ -= read_pos_;
    read_pos_ = 0;
  }
  while (buffered() < need) {
    // Ask for all the free space: whatever the peer has already sent —
    // the rest of this frame and any frame pipelined behind it — comes in
    // with the same recv.
    char* p = reinterpret_cast<char*>(read_buf_.get() + read_end_);
    HQ_ASSIGN_OR_RETURN(size_t r,
                        RecvSome(p, kReadBufferBytes - read_end_,
                                 need - buffered(), need, op));
    read_end_ += r;
  }
  return Status::OK();
}

void Socket::Consume(void* dst, size_t n) {
  if (n == 0) return;
  std::memcpy(dst, read_buf_.get() + read_pos_, n);
  read_pos_ += n;
  if (read_pos_ == read_end_) read_pos_ = read_end_ = 0;
}

Status Socket::ReadExactly(void* data, size_t n) {
  size_t have = std::min(n, buffered());
  Consume(data, have);
  char* p = static_cast<char*>(data) + have;
  size_t rest = n - have;
  ReadOp op;
  while (rest > 0) {
    HQ_ASSIGN_OR_RETURN(size_t r, RecvSome(p, rest, rest, n, &op));
    p += r;
    rest -= r;
  }
  return Status::OK();
}

Status Socket::WriteFrame(const Frame& frame) {
  std::vector<uint8_t> bytes = EncodeFrame(frame);
  return WriteAll(bytes.data(), bytes.size());
}

Result<Frame> Socket::ReadFrameImpl(ReadOp* op) {
  // Bytes already buffered mean the frame has started: only what is still
  // to arrive runs against the guard's budget.
  if (op->budget_ms > 0 && buffered() > 0) op->Start();
  HQ_RETURN_IF_ERROR(Fill(kFrameHeaderBytes, op));
  uint8_t header[kFrameHeaderBytes];
  Consume(header, sizeof(header));
  Frame frame;
  frame.kind = static_cast<MessageKind>(header[0]);
  frame.flags = header[1];
  uint32_t len;
  std::memcpy(&len, header + 4, 4);
  if (len > kMaxFramePayload) {
    return Status::ProtocolError("oversized frame (", len, " bytes)");
  }
  frame.payload.resize(len);
  uint8_t* payload = frame.payload.data();
  size_t have = std::min<size_t>(len, buffered());
  Consume(payload, have);
  size_t rest = len - have;
  if (rest > kReadBufferBytes) {
    // Too big to stage: receive the remainder straight into the payload.
    while (rest > 0) {
      HQ_ASSIGN_OR_RETURN(
          size_t r, RecvSome(reinterpret_cast<char*>(payload + len - rest),
                             rest, rest, len, op));
      rest -= r;
    }
  } else if (rest > 0) {
    HQ_RETURN_IF_ERROR(Fill(rest, op));
    Consume(payload + have, rest);
  }
  return frame;
}

Result<Frame> Socket::ReadFrame() {
  ReadOp op;
  return ReadFrameImpl(&op);
}

Result<Frame> Socket::ReadFrameGuarded(int frame_budget_ms,
                                       int idle_timeout_ms) {
  if (frame_budget_ms <= 0) return ReadFrame();
  ReadOp op;
  op.budget_ms = frame_budget_ms;
  auto frame = ReadFrameImpl(&op);
  if (op.timeout_changed) (void)SetRecvTimeoutMs(idle_timeout_ms);
  return frame;
}

Result<ListenSocket> ListenSocket::BindLocal(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError("socket(): ", std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int err = errno;
    ::close(fd);
    return Status::IoError("bind(): ", std::strerror(err));
  }
  if (::listen(fd, 64) != 0) {
    int err = errno;
    ::close(fd);
    return Status::IoError("listen(): ", std::strerror(err));
  }
  socklen_t alen = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &alen);
  ListenSocket ls;
  ls.sock_ = Socket(fd);
  ls.port_ = ntohs(addr.sin_port);
  return ls;
}

void ListenSocket::Interrupt() {
  if (!sock_.valid()) return;
  ::shutdown(sock_.fd(), SHUT_RDWR);
  // Some kernels leave accept() blocked after shutdown on a listening
  // socket; a self-connection guarantees a wake-up.
  auto dummy = Socket::ConnectLocal(port_);
  (void)dummy;
}

Result<Socket> ListenSocket::Accept() {
  int fd = ::accept(sock_.fd(), nullptr, nullptr);
  if (fd < 0) {
    return Status::IoError("accept(): ", std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket(fd);
}

}  // namespace hyperq::protocol
