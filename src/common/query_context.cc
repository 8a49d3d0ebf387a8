#include "common/query_context.h"

namespace hyperq {

const char* CancelCauseName(CancelCause cause) {
  switch (cause) {
    case CancelCause::kNone:
      return "none";
    case CancelCause::kClientAbort:
      return "client_abort";
    case CancelCause::kClientGone:
      return "client_gone";
    case CancelCause::kKill:
      return "kill";
    case CancelCause::kDrain:
      return "drain";
    case CancelCause::kDeadline:
      return "deadline";
    case CancelCause::kHedgeLoser:
      return "hedge_loser";
  }
  return "unknown";
}

void QueryContext::Cancel(CancelCause cause, Status reason) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (cancelled_.load(std::memory_order_relaxed)) return;  // first wins
  cause_ = cause;
  reason_ = reason.ok()
                ? Status::Cancelled("query cancelled (", CancelCauseName(cause),
                                    ")")
                : std::move(reason);
  cancelled_.store(true, std::memory_order_release);
}

CancelCause QueryContext::cause() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cause_;
}

void QueryContext::SetDeadline(Deadline deadline) {
  std::lock_guard<std::mutex> lock(mutex_);
  deadline_ = deadline;
}

void QueryContext::TightenDeadline(Deadline deadline) {
  if (!deadline.has_deadline()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (!deadline_.has_deadline() ||
      deadline.RemainingMillis() < deadline_.RemainingMillis()) {
    deadline_ = deadline;
  }
}

Deadline QueryContext::deadline() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return deadline_;
}

bool QueryContext::has_deadline() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return deadline_.has_deadline();
}

void QueryContext::BeginDrain(Deadline deadline) {
  std::lock_guard<std::mutex> lock(mutex_);
  draining_ = true;
  drain_deadline_ = deadline;
}

void QueryContext::SetClientProbe(ClientProbe probe) {
  std::lock_guard<std::mutex> lock(probe_mutex_);
  probe_ = std::move(probe);
  last_poll_ = std::chrono::steady_clock::now();
}

void QueryContext::ClearClientProbe() {
  std::lock_guard<std::mutex> lock(probe_mutex_);
  probe_ = nullptr;
}

void QueryContext::set_trace(
    std::shared_ptr<observability::QueryTrace> trace) {
  std::lock_guard<std::mutex> lock(trace_mutex_);
  trace_ = std::move(trace);
}

observability::QueryTrace* QueryContext::trace() const {
  std::lock_guard<std::mutex> lock(trace_mutex_);
  return trace_.get();
}

std::shared_ptr<observability::QueryTrace> QueryContext::shared_trace()
    const {
  std::lock_guard<std::mutex> lock(trace_mutex_);
  return trace_;
}

Status QueryContext::CancelledStatus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return reason_;
}

Status QueryContext::CheckAlive() {
  if (cancelled()) return CancelledStatus();

  bool deadline_hit = false;
  bool drain_hit = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    deadline_hit = deadline_.Expired();
    drain_hit = draining_ && drain_deadline_.Expired();
  }
  if (deadline_hit) {
    Cancel(CancelCause::kDeadline,
           Status::DeadlineExceeded("query deadline expired"));
    return CancelledStatus();
  }
  if (drain_hit) {
    Cancel(CancelCause::kDrain,
           Status::Cancelled("query cancelled: server draining for shutdown "
                             "and the drain deadline elapsed"));
    return CancelledStatus();
  }

  // Client liveness: a cheap non-blocking look at the connection. Probing
  // reads the client socket, so concurrent checkers (parallel converter
  // workers) skip rather than stack up on it. The poll is rate-limited: a
  // request shorter than kClientPollInterval makes none (DESIGN.md §8).
  if (probe_mutex_.try_lock()) {
    Status probed;
    CancelCause cause = CancelCause::kClientGone;
    if (probe_) {
      const auto now = std::chrono::steady_clock::now();
      const bool poll = now - last_poll_ >= kClientPollInterval;
      if (poll) last_poll_ = now;
      probed = probe_(poll, &cause);
    }
    probe_mutex_.unlock();
    if (!probed.ok()) {
      Cancel(cause, std::move(probed));
      return CancelledStatus();
    }
  }
  return cancelled() ? CancelledStatus() : Status::OK();
}

}  // namespace hyperq
