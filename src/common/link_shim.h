// LinkShim — the pluggable network-chaos seam (DESIGN.md §13).
//
// Hyper-Q sits in the live production path between every BI client and the
// warehouse, so the proxy must stay correct when the *network* degrades,
// not just when a single call site throws. This seam lets a chaos engine
// (src/chaos/link.h) interpose on every byte the proxy moves:
//
//   * client <-> proxy: Socket::WriteAll / Socket::RecvChunk consult the
//     shim per send()/recv() chunk, so it can delay, throttle, shorten,
//     corrupt, blackhole, or reset real TCP traffic;
//   * proxy <-> replica: BackendConnector consults it per request/batch via
//     CheckLink(), modelling the same faults on the warehouse link.
//
// Production cost when nothing is installed: one relaxed atomic load per
// transfer. The shim is installed process-wide (like FaultInjector), so
// chaos reaches every socket without plumbing a pointer through the stack.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/status.h"

namespace hyperq {

/// Well-known link scopes. A Socket carries one of these tags; a chaos
/// schedule targets a scope, so "the proxy's client-facing edge" and "the
/// warehouse link" can degrade independently.
namespace linkscopes {
/// Proxy side of the client<->proxy TCP links (sockets TdwpServer accepts).
inline constexpr const char* kFrontend = "frontend";
/// Client side of the same links (sockets TdwpClient connects).
inline constexpr const char* kClient = "client";
/// Proxy<->replica request path (BackendConnector attempts and batches).
inline constexpr const char* kBackend = "backend";
/// Untargeted sockets (internal wake-up connections and the like).
inline constexpr const char* kNone = "net";
}  // namespace linkscopes

/// \brief One transfer the shim may interfere with.
struct LinkOp {
  const char* scope = linkscopes::kNone;  // which edge this link belongs to
  const char* link = "";   // instance id (backend name); "" for raw sockets
  bool send = false;       // direction: true = outbound from the caller
  size_t requested = 0;    // bytes the caller wants to move in this chunk
  /// True on the first chunk of a logical transfer (one WriteAll, one
  /// ReadFrame / ReadExactly call, one backend attempt). Per-op faults — latency above
  /// all — fire once per transfer, not once per short-I/O fragment.
  bool first_chunk = true;
};

/// \brief The interception interface. Implementations must be thread-safe:
/// every connection worker consults the same instance concurrently.
class LinkShim {
 public:
  virtual ~LinkShim() = default;

  /// Consulted before each send()/recv() syscall (and each backend
  /// attempt). May sleep (latency, bandwidth throttle), shrink `*chunk`
  /// (short reads/writes), set `*blackhole` (one-way partition: the bytes
  /// vanish but the caller sees success — the send-direction TCP-buffer
  /// illusion), set `*corrupt` (the caller then routes the payload through
  /// CorruptPayload), or fail the op outright (connection reset, partition
  /// timeout). `*chunk` arrives as the caller's intended size; leaving it
  /// untouched injects nothing.
  virtual Status BeforeTransfer(const LinkOp& op, size_t* chunk,
                                bool* blackhole, bool* corrupt) = 0;

  /// Flips bytes in `data` when BeforeTransfer asked for corruption. The
  /// send path copies the chunk to scratch first, so caller buffers stay
  /// pristine (a retry must resend the *original* bytes).
  virtual void CorruptPayload(const LinkOp& op, uint8_t* data, size_t n) = 0;
};

/// \brief Installs `shim` process-wide (null uninstalls). The previous
/// shim, if any, is returned so tests can restore it.
LinkShim* SetGlobalLinkShim(LinkShim* shim);

/// \brief The installed shim, or null when chaos is disarmed. Hot paths
/// call this once per chunk; the null check is the entire disarmed cost.
LinkShim* GlobalLinkShim();

/// \brief Shim consultation for non-socket links (the proxy->replica
/// request path): no chunking and no payload, so a short-I/O clamp is
/// meaningless and is ignored. A blackhole — the request swallowed by a
/// one-way partition — surfaces as kUnavailable (a vanished request is
/// indistinguishable from an unreachable peer, and kUnavailable is what
/// the retry/failover layers know how to route around).
Status CheckLink(const char* scope, const char* link, bool send,
                 size_t bytes);

}  // namespace hyperq
