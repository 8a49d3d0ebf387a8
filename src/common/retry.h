// Retry policy, request deadlines, and the per-connector circuit breaker.
//
// The resilience contract (see DESIGN.md, "Resilience & fault injection"):
//  - only Status::IsRetryable() failures are retried (transient taxonomy);
//  - backoff is capped-exponential with *deterministic* jitter, a pure
//    function of (jitter_seed, attempt) so tests replay exactly;
//  - one deadline spans all attempts: a retry never starts (nor sleeps)
//    past it, and expiry surfaces as kDeadlineExceeded;
//  - the breaker fails fast (kUnavailable, no retries) while open, lets a
//    single half-open probe through after a cooldown, and closes on probe
//    success.
//
// Happy-path cost: no clock reads without a deadline, no sleeps, one small
// mutex acquisition per call when a breaker is attached.

#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "common/result.h"
#include "common/retry_budget.h"
#include "common/status.h"

namespace hyperq {

/// \brief Capped exponential backoff with deterministic jitter.
struct RetryPolicy {
  int max_attempts = 3;   // total tries, including the first (1 = no retry)
  int base_delay_ms = 2;  // delay before the first retry (pre-jitter)
  int max_delay_ms = 50;  // cap for the exponential growth
  uint64_t jitter_seed = 0x5DEECE66DULL;

  /// \brief Delay before retry number `attempt` (1-based count of failures
  /// so far). Jittered into [cap/2, cap] of the exponential step.
  int DelayMs(int attempt) const;
};

/// \brief Absolute time budget for one logical request, spanning retries.
class Deadline {
 public:
  Deadline() = default;  // infinite

  static Deadline After(double ms) {
    Deadline d;
    d.has_ = true;
    d.at_ = std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double, std::milli>(ms));
    return d;
  }
  static Deadline Infinite() { return Deadline(); }

  bool has_deadline() const { return has_; }
  bool Expired() const {
    return has_ && std::chrono::steady_clock::now() >= at_;
  }
  /// \brief Milliseconds left; a large sentinel when infinite.
  double RemainingMillis() const {
    if (!has_) return 1e18;
    return std::chrono::duration<double, std::milli>(
               at_ - std::chrono::steady_clock::now())
        .count();
  }

 private:
  bool has_ = false;
  std::chrono::steady_clock::time_point at_{};
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

const char* BreakerStateName(BreakerState state);

struct CircuitBreakerOptions {
  int failure_threshold = 5;  // consecutive transient failures before opening
  int cooldown_ms = 1000;     // open time before admitting a half-open probe
};

/// \brief Circuit breaker. Thread-safe.
///
/// closed --(threshold consecutive transient failures)--> open
/// open --(cooldown elapsed; one probe admitted)--> half-open
/// half-open --probe success--> closed | --probe failure--> open
///
/// A breaker built over a `shared` one is a lane: one caller's view of a
/// breaker shared by many (a pool backend's, shared by every session bound
/// to it). Admission and state are the shared breaker's; the lane counts
/// its caller's own consecutive failures, and a success of any lane breaks
/// every streak. One caller's unbroken run of failures opens the breaker
/// for all callers, while failures of many callers that keep succeeding in
/// between never add up to a trip.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(CircuitBreakerOptions options = {},
                          CircuitBreaker* shared = nullptr)
      : options_(options), shared_(shared) {}

  /// \brief Gate before an attempt: OK to proceed, or a fail-fast
  /// kUnavailable while the breaker is open (or a probe is in flight).
  Status Admit();
  /// \brief Reports the outcome of an admitted attempt.
  void OnSuccess();
  void OnFailure();

  BreakerState state() const;
  int consecutive_failures() const;
  /// \brief Calls rejected without reaching the backend.
  int64_t rejected_count() const;

 private:
  /// A failure reported through `lane`; lane fields are guarded by this
  /// (the shared) breaker's mutex.
  void OnLaneFailure(CircuitBreaker* lane);
  /// Applies a failure that extends a streak to `streak`. Holds mutex_.
  void FailLocked(int streak);

  CircuitBreakerOptions options_;
  CircuitBreaker* shared_;
  mutable std::mutex mutex_;
  BreakerState state_ = BreakerState::kClosed;
  int failures_ = 0;
  int64_t successes_ = 0;       // OnSuccess calls (breaks lane streaks)
  int64_t successes_seen_ = 0;  // as a lane: the shared count at its streak
  int64_t rejected_ = 0;
  bool probe_in_flight_ = false;
  std::chrono::steady_clock::time_point opened_at_{};
};

/// \brief Attempt/backoff accounting surfaced into TimingBreakdown.
struct RetryStats {
  int attempts = 0;
  double backoff_micros = 0;  // wall time spent sleeping between attempts
  bool rejected_by_breaker = false;
};

namespace retry_internal {
inline const Status& ToStatus(const Status& s) { return s; }
template <typename T>
const Status& ToStatus(const Result<T>& r) {
  return r.status();
}
}  // namespace retry_internal

/// \brief Runs `fn` (returning Status or Result<T>) under `policy`,
/// `deadline`, an optional `breaker`, and an optional global retry
/// `budget` (DESIGN.md §11). Breaker bookkeeping counts only transient
/// failures: a permanent error means the backend answered, so it resets
/// the failure streak rather than extending it. Every retry (not the
/// first attempt) must win a budget token; a denial surfaces the last
/// backend error tagged StatusDetail::kRetryBudgetExhausted — the caller
/// sees what actually failed, plus why no further attempt was made.
template <typename Fn>
auto RetryCall(const RetryPolicy& policy, const Deadline& deadline,
               CircuitBreaker* breaker, RetryStats* stats, RetryBudget* budget,
               Fn&& fn) -> decltype(fn()) {
  using R = decltype(fn());
  RetryStats local;
  RetryStats& st = stats != nullptr ? *stats : local;
  st = RetryStats{};
  int max_attempts = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  std::string last_error;  // names the failure a backoff sleep followed
  for (int attempt = 1;; ++attempt) {
    if (deadline.Expired()) {
      return R(Status::DeadlineExceeded("request deadline expired before ",
                                        "attempt ", attempt, last_error));
    }
    if (breaker != nullptr) {
      Status admitted = breaker->Admit();
      if (!admitted.ok()) {
        st.rejected_by_breaker = true;
        return R(std::move(admitted));
      }
    }
    ++st.attempts;
    R result = fn();
    const Status& status = retry_internal::ToStatus(result);
    if (status.ok()) {
      if (breaker != nullptr) breaker->OnSuccess();
      return result;
    }
    if (breaker != nullptr) {
      if (status.IsRetryable() || status.IsSessionLost()) {
        // A lost session is a liveness failure even though it is not
        // blind-retryable (the journal must be replayed first).
        breaker->OnFailure();
      } else {
        breaker->OnSuccess();  // backend responded: not a liveness failure
      }
    }
    if (!status.IsRetryable() || attempt >= max_attempts) {
      return result;
    }
    if (budget != nullptr && !budget->TryWithdraw()) {
      return R(retry_internal::ToStatus(result).WithDetail(
          StatusDetail::kRetryBudgetExhausted));
    }
    int delay_ms = policy.DelayMs(attempt);
    if (deadline.has_deadline() &&
        deadline.RemainingMillis() <= static_cast<double>(delay_ms)) {
      return R(Status::DeadlineExceeded(
          "deadline would expire during backoff after attempt ", attempt,
          "; last error: ", status.ToString()));
    }
    last_error = "; last error: " + status.ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    st.backoff_micros += delay_ms * 1000.0;
  }
}

/// \brief Budget-free overload, preserving the original call shape.
template <typename Fn>
auto RetryCall(const RetryPolicy& policy, const Deadline& deadline,
               CircuitBreaker* breaker, RetryStats* stats, Fn&& fn)
    -> decltype(fn()) {
  return RetryCall(policy, deadline, breaker, stats,
                   static_cast<RetryBudget*>(nullptr), std::forward<Fn>(fn));
}

}  // namespace hyperq
