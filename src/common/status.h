// Status: the error-handling currency of the library.
//
// Following the Arrow/RocksDB idiom, fallible functions return Status (or
// Result<T>, see result.h) instead of throwing exceptions. A Status is cheap
// to move (a single pointer; OK is nullptr) and carries a code plus a
// human-readable message.

#pragma once

#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>

namespace hyperq {

/// Error taxonomy shared by all subsystems.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument,   // caller passed something structurally wrong
  kSyntaxError,       // SQL text failed to parse
  kBindError,         // name resolution / type derivation failure
  kNotSupported,      // feature absent and not emulatable
  kCatalogError,      // missing/duplicate catalog object
  kExecutionError,    // runtime failure in the target engine
  kProtocolError,     // malformed wire-protocol traffic
  kIoError,           // socket/file failure
  kInternal,          // invariant violation ("should never happen")
  // Transient-vs-permanent taxonomy for the resilience layer (see
  // common/retry.h). These are the codes Status::IsRetryable() keys off.
  kUnavailable,        // transient: backend/peer unreachable, dropped conn
  kDeadlineExceeded,   // request deadline or I/O timeout elapsed
  kResourceExhausted,  // transient: out of capacity (retry after backoff)
  // Failover taxonomy (see service layer, "Failover & overload" in
  // DESIGN.md §6). kSessionLost is deliberately NOT IsRetryable(): a blind
  // re-execution is wrong until the session journal has been replayed, so
  // the connector surfaces it to the service instead of retrying in place.
  kSessionLost,  // backend session/connection died; state must be replayed
  kAborted,      // statement cannot be transparently re-run (open txn)
  // Lifecycle taxonomy (DESIGN.md §8): a request stopped on purpose —
  // client abort frame, client disconnect, operator kill, or server drain.
  // Deliberately NOT retryable: the caller asked for the work to stop.
  kCancelled,
};

/// \brief Returns a stable lower-case name for a status code, e.g.
/// "syntax_error".
const char* StatusCodeName(StatusCode code);

/// Sub-reason refining a status code where the code alone is ambiguous to
/// the routing layer (DESIGN.md §10). A kUnavailable can mean "this call
/// flaked" (retry here), "the breaker is open / the replica is down"
/// (re-route to another replica), or "no compatible replica exists"
/// (surface to the client) — three very different reactions.
enum class StatusDetail : int {
  kNone = 0,
  kBreakerOpen,  // circuit breaker rejected the call without trying
  kBackendDown,  // the backend instance itself is down/killed/ejected
  kFailoverIncompatible,  // no replica can honor the session's journal
  // Tail-tolerance taxonomy (DESIGN.md §11). Deliberately stops the
  // retry/failover amplification chain: it maps to no re-routable
  // condition, so the error surfaces to the client as-is.
  kRetryBudgetExhausted,  // global retry budget denied another attempt
  // Robustness taxonomy (DESIGN.md §13). A kDeadlineExceeded with this
  // detail means a peer started a tdwp frame but failed to complete it
  // within the server's per-frame budget (the slowloris guard): the
  // connection is answered with a typed error frame and reaped so a
  // trickling client cannot pin a worker.
  kFrameStall,
};

/// \brief Stable lower-case name for a detail, e.g. "breaker_open".
const char* StatusDetailName(StatusDetail detail);

/// \brief Outcome of a fallible operation: a code plus message.
///
/// The OK state is represented as a null internal pointer so that success
/// paths never allocate.
class Status {
 public:
  Status() = default;  // OK

  Status(StatusCode code, std::string msg) {
    if (code != StatusCode::kOk) {
      state_ = std::make_unique<State>(State{code, std::move(msg)});
    }
  }

  Status(const Status& other) { CopyFrom(other); }
  Status& operator=(const Status& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status OK() { return Status(); }

  bool ok() const { return state_ == nullptr; }
  StatusCode code() const { return ok() ? StatusCode::kOk : state_->code; }
  const std::string& message() const {
    static const std::string kEmpty;
    return ok() ? kEmpty : state_->msg;
  }
  StatusDetail detail() const {
    return ok() ? StatusDetail::kNone : state_->detail;
  }

  /// \brief Returns a copy carrying `detail`; the code and message are
  /// unchanged. No-op on OK.
  Status WithDetail(StatusDetail detail) const {
    if (ok()) return *this;
    Status out(*this);
    out.state_->detail = detail;
    return out;
  }

  bool IsSyntaxError() const { return code() == StatusCode::kSyntaxError; }
  bool IsBindError() const { return code() == StatusCode::kBindError; }
  bool IsNotSupported() const { return code() == StatusCode::kNotSupported; }
  bool IsCatalogError() const { return code() == StatusCode::kCatalogError; }
  bool IsExecutionError() const {
    return code() == StatusCode::kExecutionError;
  }
  bool IsProtocolError() const { return code() == StatusCode::kProtocolError; }
  bool IsIoError() const { return code() == StatusCode::kIoError; }
  bool IsInternal() const { return code() == StatusCode::kInternal; }
  bool IsInvalidArgument() const {
    return code() == StatusCode::kInvalidArgument;
  }
  bool IsUnavailable() const { return code() == StatusCode::kUnavailable; }
  bool IsDeadlineExceeded() const {
    return code() == StatusCode::kDeadlineExceeded;
  }
  bool IsResourceExhausted() const {
    return code() == StatusCode::kResourceExhausted;
  }
  bool IsSessionLost() const { return code() == StatusCode::kSessionLost; }
  bool IsAborted() const { return code() == StatusCode::kAborted; }
  bool IsCancelled() const { return code() == StatusCode::kCancelled; }

  /// \brief True when the failure is transient and the operation may
  /// succeed if simply tried again (the retry layer's admission test).
  /// Deadline expiry is deliberately NOT retryable: the time budget is
  /// gone, so retrying would only pile on load.
  bool IsRetryable() const {
    return code() == StatusCode::kUnavailable ||
           code() == StatusCode::kResourceExhausted;
  }

  /// \brief "ok" or "<code_name>: <message>".
  std::string ToString() const;

  /// \brief Prepends context to the message, keeping the code and detail.
  Status WithContext(const std::string& context) const {
    if (ok()) return *this;
    Status out(state_->code, context + ": " + state_->msg);
    out.state_->detail = state_->detail;
    return out;
  }

  // Factory helpers. Each accepts a stream of << -able parts.
  template <typename... Args>
  static Status InvalidArgument(Args&&... args) {
    return Make(StatusCode::kInvalidArgument, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status SyntaxError(Args&&... args) {
    return Make(StatusCode::kSyntaxError, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status BindError(Args&&... args) {
    return Make(StatusCode::kBindError, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status NotSupported(Args&&... args) {
    return Make(StatusCode::kNotSupported, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status CatalogError(Args&&... args) {
    return Make(StatusCode::kCatalogError, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status ExecutionError(Args&&... args) {
    return Make(StatusCode::kExecutionError, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status ProtocolError(Args&&... args) {
    return Make(StatusCode::kProtocolError, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status IoError(Args&&... args) {
    return Make(StatusCode::kIoError, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status Internal(Args&&... args) {
    return Make(StatusCode::kInternal, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status Unavailable(Args&&... args) {
    return Make(StatusCode::kUnavailable, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status DeadlineExceeded(Args&&... args) {
    return Make(StatusCode::kDeadlineExceeded, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status ResourceExhausted(Args&&... args) {
    return Make(StatusCode::kResourceExhausted, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status SessionLost(Args&&... args) {
    return Make(StatusCode::kSessionLost, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status Aborted(Args&&... args) {
    return Make(StatusCode::kAborted, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status Cancelled(Args&&... args) {
    return Make(StatusCode::kCancelled, std::forward<Args>(args)...);
  }

 private:
  struct State {
    StatusCode code;
    std::string msg;
    StatusDetail detail = StatusDetail::kNone;
  };

  template <typename... Args>
  static Status Make(StatusCode code, Args&&... args) {
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return Status(code, oss.str());
  }

  void CopyFrom(const Status& other) {
    state_ = other.state_ ? std::make_unique<State>(*other.state_) : nullptr;
  }

  std::unique_ptr<State> state_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

}  // namespace hyperq

/// Propagates a non-OK Status to the caller.
#define HQ_RETURN_IF_ERROR(expr)                 \
  do {                                           \
    ::hyperq::Status _st = (expr);               \
    if (!_st.ok()) return _st;                   \
  } while (0)
