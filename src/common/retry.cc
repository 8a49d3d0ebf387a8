#include "common/retry.h"

namespace hyperq {

namespace {
// SplitMix64, same construction as the fault injector's PRNG.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}
}  // namespace

int RetryPolicy::DelayMs(int attempt) const {
  if (attempt < 1) attempt = 1;
  int64_t cap = max_delay_ms < 1 ? 1 : max_delay_ms;
  int64_t step = base_delay_ms < 1 ? 1 : base_delay_ms;
  // Exponential growth, saturating at the cap (shift guarded against
  // overflow for large attempt counts).
  int shift = attempt - 1;
  if (shift > 20 || (step << shift) > cap) {
    step = cap;
  } else {
    step <<= shift;
  }
  // Deterministic jitter into [step/2, step]: decorrelates concurrent
  // sessions without sacrificing replayability.
  int64_t half = step / 2;
  uint64_t r = Mix64(jitter_seed ^ static_cast<uint64_t>(attempt));
  return static_cast<int>(half + static_cast<int64_t>(r % (step - half + 1)));
}

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

Status CircuitBreaker::Admit() {
  if (shared_ != nullptr) return shared_->Admit();
  std::lock_guard<std::mutex> lock(mutex_);
  switch (state_) {
    case BreakerState::kClosed:
      return Status::OK();
    case BreakerState::kOpen: {
      auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::steady_clock::now() - opened_at_)
                         .count();
      if (elapsed >= options_.cooldown_ms) {
        state_ = BreakerState::kHalfOpen;
        probe_in_flight_ = true;
        return Status::OK();
      }
      ++rejected_;
      // The kBreakerOpen detail tells the routing layer this is "backend
      // down, nothing was tried" — re-route to another replica — rather
      // than "this statement failed" (DESIGN.md §10).
      return Status::Unavailable(
                 "circuit breaker open (", failures_,
                 " consecutive failures); ", "retry after ",
                 options_.cooldown_ms - elapsed, "ms")
          .WithDetail(StatusDetail::kBreakerOpen);
    }
    case BreakerState::kHalfOpen:
      if (!probe_in_flight_) {
        probe_in_flight_ = true;
        return Status::OK();
      }
      ++rejected_;
      return Status::Unavailable("circuit breaker half-open; probe already "
                                 "in flight")
          .WithDetail(StatusDetail::kBreakerOpen);
  }
  return Status::Internal("unknown breaker state");
}

void CircuitBreaker::OnSuccess() {
  if (shared_ != nullptr) {
    shared_->OnSuccess();
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++successes_;
  failures_ = 0;
  probe_in_flight_ = false;
  state_ = BreakerState::kClosed;
}

void CircuitBreaker::OnFailure() {
  if (shared_ != nullptr) {
    shared_->OnLaneFailure(this);
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  FailLocked(++failures_);
}

void CircuitBreaker::OnLaneFailure(CircuitBreaker* lane) {
  std::lock_guard<std::mutex> lock(mutex_);
  // A success of any lane since this lane's streak began breaks it.
  if (lane->successes_seen_ != successes_) {
    lane->failures_ = 0;
    lane->successes_seen_ = successes_;
  }
  failures_ = ++lane->failures_;
  FailLocked(failures_);
}

void CircuitBreaker::FailLocked(int streak) {
  if (state_ == BreakerState::kHalfOpen) {
    // Failed probe: back to open, restart the cooldown.
    state_ = BreakerState::kOpen;
    probe_in_flight_ = false;
    opened_at_ = std::chrono::steady_clock::now();
    return;
  }
  if (streak >= options_.failure_threshold &&
      state_ == BreakerState::kClosed) {
    state_ = BreakerState::kOpen;
    opened_at_ = std::chrono::steady_clock::now();
  }
}

BreakerState CircuitBreaker::state() const {
  if (shared_ != nullptr) return shared_->state();
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

int CircuitBreaker::consecutive_failures() const {
  if (shared_ != nullptr) return shared_->consecutive_failures();
  std::lock_guard<std::mutex> lock(mutex_);
  return failures_;
}

int64_t CircuitBreaker::rejected_count() const {
  if (shared_ != nullptr) return shared_->rejected_count();
  std::lock_guard<std::mutex> lock(mutex_);
  return rejected_;
}

}  // namespace hyperq
