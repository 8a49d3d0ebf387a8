#include "common/status.h"

namespace hyperq {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kSyntaxError:
      return "syntax_error";
    case StatusCode::kBindError:
      return "bind_error";
    case StatusCode::kNotSupported:
      return "not_supported";
    case StatusCode::kCatalogError:
      return "catalog_error";
    case StatusCode::kExecutionError:
      return "execution_error";
    case StatusCode::kProtocolError:
      return "protocol_error";
    case StatusCode::kIoError:
      return "io_error";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kUnavailable:
      return "unavailable";
    case StatusCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case StatusCode::kResourceExhausted:
      return "resource_exhausted";
    case StatusCode::kSessionLost:
      return "session_lost";
    case StatusCode::kAborted:
      return "aborted";
    case StatusCode::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

const char* StatusDetailName(StatusDetail detail) {
  switch (detail) {
    case StatusDetail::kNone:
      return "none";
    case StatusDetail::kBreakerOpen:
      return "breaker_open";
    case StatusDetail::kBackendDown:
      return "backend_down";
    case StatusDetail::kFailoverIncompatible:
      return "failover_incompatible";
    case StatusDetail::kRetryBudgetExhausted:
      return "retry_budget_exhausted";
    case StatusDetail::kFrameStall:
      return "frame_stall";
  }
  return "unknown";
}

std::string Status::ToString() const {
  if (ok()) return "ok";
  std::string out = StatusCodeName(code());
  if (detail() != StatusDetail::kNone) {
    out += '[';
    out += StatusDetailName(detail());
    out += ']';
  }
  out += ": ";
  out += message();
  return out;
}

}  // namespace hyperq
