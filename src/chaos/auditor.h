// InvariantAuditor (DESIGN.md §13): end-to-end correctness checks run
// after every chaos scenario. Chaos that only proves "the process didn't
// crash" is theater; these invariants pin down what the proxy must still
// guarantee while the network burns:
//
//   I1  exactly-once delivery: no logical query ever yields two results;
//   I2  payload integrity: every delivered result passed its self-check;
//   I3  terminal-state conservation: every issued query reached exactly
//       one terminal state (delivered, typed error, or gave up);
//   I4  typed errors: every error frame carried a valid StatusCode;
//   I5  metric monotonicity: no counter regressed vs. the baseline;
//   I6  governor zero-leak: no reserved memory/spill bytes survive beyond
//       what resident translation-cache entries account for;
//   I7  quiesce: no open sessions or active connections remain;
//   I8  fd conservation: the process fd count returns to baseline;
//   I9  thread conservation: the process thread count returns to baseline.
//
// The ClientLedger is the client-side half: the chaos workload records
// every logical query's attempts and terminal state in it, and the
// auditor cross-examines the ledger against the server's own accounting.

#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/resource_governor.h"
#include "observability/metrics.h"
#include "protocol/server.h"
#include "service/hyperq_service.h"

namespace hyperq::chaos {

/// \brief One logical query's life as the client saw it.
struct LedgerEntry {
  int64_t id = 0;
  int attempts = 0;        // wire attempts, including retries
  int successes = 0;       // complete, self-check-passing deliveries
  int corrupt_results = 0; // results delivered but failing the self-check
  int io_failures = 0;     // connection-level failures (no error frame)
  std::vector<int> error_codes;  // StatusCode of each typed error observed
  bool finished = false;   // reached a terminal state
  bool delivered = false;  // terminal state was a successful delivery
  int64_t t_begin_ms = 0;  // ledger-epoch time of Begin()
  int64_t t_end_ms = 0;    // ledger-epoch time of Finish(); latency = end-begin
};

/// \brief Availability sample: one terminal event on the workload
/// timeline (milliseconds since the ledger epoch). The bench derives
/// availability and MTTR from these.
struct LedgerSample {
  int64_t t_ms = 0;
  bool ok = false;
};

/// \brief Thread-safe record of every logical query a chaos workload
/// issued. Entries are created by Begin() and closed exactly once by
/// Finish(); the auditor treats any other shape as a violation.
class ClientLedger {
 public:
  ClientLedger();

  int64_t Begin();
  void NoteAttempt(int64_t id);
  void NoteSuccess(int64_t id);
  void NoteCorruptResult(int64_t id);
  void NoteTypedError(int64_t id, int code);
  void NoteIoFailure(int64_t id);
  void Finish(int64_t id, bool delivered);

  int64_t now_ms() const;  // milliseconds since the ledger epoch

  std::vector<LedgerEntry> Entries() const;
  std::vector<LedgerSample> Samples() const;
  int64_t issued() const;
  int64_t delivered() const;
  int64_t failed() const;

 private:
  LedgerEntry* Find(int64_t id);  // caller holds mutex_

  mutable std::mutex mutex_;
  std::vector<LedgerEntry> entries_;
  std::vector<LedgerSample> samples_;
  std::chrono::steady_clock::time_point epoch_;
};

/// Slack for the fd/thread conservation checks (I8, I9).
inline constexpr int kFdTolerance = 2;
inline constexpr int kThreadTolerance = 2;

struct AuditorOptions {
  service::HyperQService* service = nullptr;  // required
  protocol::TdwpServer* server = nullptr;     // null = skip server checks
  /// Governor audited for zero leaks; null = derived from the service's
  /// options when available, else skipped.
  ResourceGovernor* governor = nullptr;
  /// Registry for hyperq.chaos.audit.{runs,violations}; null = no metrics.
  observability::MetricsRegistry* metrics = nullptr;
  /// Connection teardown and worker reaping finish asynchronously, so the
  /// fd/thread conservation checks retry for up to settle_ms before calling
  /// a residue past their slack (kFdTolerance, kThreadTolerance) a leak.
  int settle_ms = 3000;
};

class InvariantAuditor {
 public:
  explicit InvariantAuditor(AuditorOptions options);

  /// \brief Snapshots the pre-scenario world: the service's metric
  /// counters, the process fd count, and the process thread count.
  /// Call after the fixture is fully started but before chaos begins.
  void CaptureBaseline();

  /// \brief Runs every invariant; returns human-readable violations
  /// (empty = clean audit). Increments hyperq.chaos.audit.{runs,
  /// violations}.
  std::vector<std::string> Audit(const ClientLedger& ledger);

  /// Process-wide introspection helpers (exposed for tests).
  static int CountOpenFds();
  static int CountThreads();

 private:
  void AuditLedger(const ClientLedger& ledger,
                   std::vector<std::string>* violations) const;
  void AuditMetrics(std::vector<std::string>* violations) const;
  void AuditGovernor(std::vector<std::string>* violations) const;
  void AuditQuiesce(std::vector<std::string>* violations) const;
  void AuditProcess(std::vector<std::string>* violations) const;

  AuditorOptions options_;
  observability::MetricsSnapshot baseline_;
  int baseline_fds_ = -1;
  int baseline_threads_ = -1;
  observability::Counter* c_runs_ = nullptr;
  observability::Counter* c_violations_ = nullptr;
};

}  // namespace hyperq::chaos
