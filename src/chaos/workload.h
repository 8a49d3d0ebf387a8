// ChaosWorkload (DESIGN.md §13): the client fleet that runs *under* the
// chaos scenarios. Each session issues self-checking queries against a
// seeded table and records every attempt and terminal state in a
// ClientLedger, so the InvariantAuditor can later cross-examine what the
// clients saw against what the server accounted for.
//
// The self-check is the point: a delivered result is only counted as a
// success when its rows match what the seeded data dictates. A result
// that arrives but fails the check (e.g. the request was corrupted in
// flight and the server faithfully answered a different question) is a
// retryable attempt failure, never an accepted delivery.

#pragma once

#include <cstdint>
#include <string>

#include "chaos/auditor.h"
#include "common/status.h"

namespace hyperq::chaos {

struct WorkloadOptions {
  uint16_t port = 0;
  int sessions = 8;
  int duration_ms = 3000;
  /// Per-query retry budget: a query fails terminally only after this
  /// many attempts (reconnecting between attempts when the link died).
  int max_attempts = 4;
  /// Row count seeded into CHAOS_T; queries select prefixes of it.
  int rows = 64;
  std::string user = "alice";
  std::string password = "pw";
};

struct WorkloadReport {
  int64_t issued = 0;
  int64_t delivered = 0;
  int64_t failed = 0;
  int64_t retries = 0;  // attempts beyond the first, summed over queries
  double success_rate() const {
    return issued == 0 ? 1.0
                       : static_cast<double>(delivered) /
                             static_cast<double>(issued);
  }
};

class ChaosWorkload {
 public:
  /// Longest a session waits on the server for one response. Chaos
  /// latencies are tens of milliseconds and a soak request completes well
  /// under a second even under sanitizers, so an expiry means the request
  /// was never answered: it is recorded as a typed kDeadlineExceeded
  /// failure and the session reconnects, instead of parking the session
  /// thread forever.
  static constexpr int kRecvDeadlineMs = 5000;

  /// \brief Creates and populates CHAOS_T over a clean connection. Run
  /// this BEFORE installing chaos: seeding is fixture setup, not part of
  /// the experiment.
  static Status SeedData(uint16_t port, int rows);

  /// \brief Runs `options.sessions` concurrent client sessions for
  /// `options.duration_ms`, recording everything in `ledger`. Blocking;
  /// run chaos scenarios from another thread while this executes.
  static WorkloadReport Run(const WorkloadOptions& options,
                            ClientLedger* ledger);
};

}  // namespace hyperq::chaos
