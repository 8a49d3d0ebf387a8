// QueryContext: the per-request governance handle (DESIGN.md §8).
//
// Hyper-Q sits in the request path of every query, so a single runaway
// request — a huge result set, a slow backend fetch, a client that vanished
// mid-stream — must not pin a worker or exhaust proxy memory. The wire
// layer mints one QueryContext per request and every loop on the request's
// path (backend fetch, recursion iterations, result conversion, batch
// writes) calls CheckAlive() at batch boundaries. Cancellation sources:
//
//   - an explicit client abort frame (tdwp kAbortRequest),
//   - the client socket disconnecting mid-request (detected by the
//     installed client probe),
//   - per-request deadline expiry,
//   - the operator kill API (HyperQService::KillQuery),
//   - a server drain deadline during graceful Stop().
//
// The client probe has two parts. Its look at bytes the server already read
// runs at every boundary; its poll() of the socket runs at most once per
// kClientPollInterval, so a request shorter than that makes no syscall.
//
// All surface as kCancelled (kDeadlineExceeded for deadline expiry), so a
// request terminates within one batch boundary with a typed error and a
// well-formed wire frame. Thread-safe: cancellation may arrive from any
// thread while the worker and converter threads poll CheckAlive().

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "common/retry.h"
#include "common/status.h"

namespace hyperq {

namespace observability {
class QueryTrace;
}

/// \brief Why a query was cancelled (drives the lifecycle counters).
enum class CancelCause {
  kNone = 0,
  kClientAbort,  // explicit tdwp kAbortRequest frame
  kClientGone,   // client socket disconnected mid-request
  kKill,         // operator kill API
  kDrain,        // server drain deadline during graceful Stop()
  kDeadline,     // per-request deadline expired
  kHedgeLoser,   // the other leg of a hedged read won (DESIGN.md §11)
};

const char* CancelCauseName(CancelCause cause);

class QueryContext {
 public:
  QueryContext() = default;
  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  /// \brief Cancels the query; the first cancellation wins (later calls
  /// are no-ops, so a racing kill and disconnect keep one coherent cause).
  void Cancel(CancelCause cause, Status reason);

  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }
  /// \brief kNone while alive.
  CancelCause cause() const;

  /// \brief Absolute time budget for the whole request (all phases, all
  /// retry attempts). Replaces any previous deadline.
  void SetDeadline(Deadline deadline);
  /// \brief Keeps the earlier of the current and the given deadline.
  void TightenDeadline(Deadline deadline);
  Deadline deadline() const;
  bool has_deadline() const;

  /// \brief Server drain: the request may finish normally until the drain
  /// deadline, after which CheckAlive() cancels with kDrain. Kept separate
  /// from the request deadline so the cause is attributed correctly.
  void BeginDrain(Deadline deadline);

  /// \brief The least time between two polls of the client socket: the
  /// request's start (SetClientProbe) or the last poll, to the next.
  static constexpr std::chrono::microseconds kClientPollInterval{100};

  /// \brief Installed by the wire layer: a cheap non-blocking look at the
  /// client connection. Returns non-OK (with the cause) when the client
  /// sent an abort frame or disconnected. `poll` is true when the probe may
  /// make a syscall to look at the socket (once kClientPollInterval has
  /// passed); without it the probe checks only what the server already
  /// read. Called from CheckAlive() under an internal lock; concurrent
  /// callers skip the probe rather than wait.
  using ClientProbe = std::function<Status(bool poll, CancelCause* cause)>;
  void SetClientProbe(ClientProbe probe);
  void ClearClientProbe();

  /// \brief The governance check compiled into every request loop: OK
  /// while the query should keep running, else the typed cancellation
  /// (kCancelled / kDeadlineExceeded). Checks, in order: an already
  /// recorded cancellation, the request deadline, the drain deadline, and
  /// the client probe.
  Status CheckAlive();

  /// \brief Per-query resource accounting, filled by the ResultStore and
  /// surfaced into TimingBreakdown.
  void AddSpillBytes(int64_t bytes) {
    spill_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  int64_t spill_bytes() const {
    return spill_bytes_.load(std::memory_order_relaxed);
  }

  /// \brief Attaches the per-query trace (DESIGN.md §9). The context keeps
  /// shared ownership so spans opened deep in the pipeline stay valid even
  /// if the minting layer drops its reference first. hq_common stays below
  /// hq_observability: this header only forward-declares QueryTrace, and
  /// the context never calls into it.
  void set_trace(std::shared_ptr<observability::QueryTrace> trace);
  /// \brief The attached trace, or nullptr. SpanScope is null-safe on it.
  observability::QueryTrace* trace() const;
  std::shared_ptr<observability::QueryTrace> shared_trace() const;

 private:
  Status CancelledStatus() const;  // requires cancelled_

  std::atomic<bool> cancelled_{false};
  std::atomic<int64_t> spill_bytes_{0};

  mutable std::mutex mutex_;  // guards everything below
  CancelCause cause_ = CancelCause::kNone;
  Status reason_;
  Deadline deadline_ = Deadline::Infinite();
  Deadline drain_deadline_ = Deadline::Infinite();
  bool draining_ = false;

  std::mutex probe_mutex_;  // serializes probe invocations (socket reads)
  ClientProbe probe_;
  std::chrono::steady_clock::time_point last_poll_;  // or the probe's start

  mutable std::mutex trace_mutex_;  // guards trace_ attach/read
  std::shared_ptr<observability::QueryTrace> trace_;
};

}  // namespace hyperq
