// BackendConnector — the paper's "ODBC Server" component (§4.5): an
// abstraction over the target database's client API that submits requests
// and retrieves results in TDF batches.
//
// In the paper the component wraps each target's ODBC driver; here it wraps
// the embedded vdb engine (see DESIGN.md, substitution table). The batching
// behaviour — results pulled on demand in fixed-size batches and packaged
// as TDF — is preserved.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "backend/result_store.h"
#include "backend/tdf.h"
#include "common/query_context.h"
#include "common/resource_governor.h"
#include "common/result.h"
#include "common/retry.h"
#include "observability/metrics.h"
#include "observability/trace.h"
#include "vdb/engine.h"

namespace hyperq::backend {

/// \brief Outcome of one backend request.
struct BackendResult {
  /// TDF batches (rowsets only); its schema is the result's column list.
  std::shared_ptr<ResultStore> store;
  int64_t affected_rows = 0;
  std::string command_tag;

  // Resilience accounting (surfaced into TimingBreakdown by the service).
  int attempts = 1;                 // backend tries; >1 means retries fired
  double retry_backoff_micros = 0;  // wall time spent in retry backoff

  // Tail-tolerance accounting (DESIGN.md §11), filled by the service's
  // hedged-execution layer — the connector itself never hedges.
  int hedges = 0;          // hedge attempts the service launched
  bool hedge_won = false;  // this result came from the hedge replica
  int hedge_backend = -1;  // pool index of the winning hedge (-1 = primary)

  bool is_rowset() const { return store != nullptr; }
  /// \brief The result's columns: the store's schema, empty for command
  /// results.
  const std::vector<TdfColumn>& columns() const;

  /// \brief Decodes all batches back into datum rows: the in-process read
  /// API for examples and tests. The wire path iterates
  /// `store->ScanSpans()` instead. CHAR(n) values come back as stored, which
  /// may be shorter than n: blank padding happens in the wire encoders.
  Result<std::vector<std::vector<Datum>>> DecodeRows() const;
};

struct ConnectorOptions {
  size_t batch_rows = 1024;            // rows per TDF batch
  size_t store_memory_budget = 16 << 20;
  std::string spill_dir;               // empty = system temp

  /// Transient backend failures (Status::IsRetryable()) are retried under
  /// this policy; permanent errors surface immediately.
  RetryPolicy retry;
  /// Consecutive transient failures open the breaker; while open, requests
  /// fail fast with kUnavailable instead of stacking retries.
  CircuitBreakerOptions breaker;

  /// Shared budget arbiter for ResultStore buffering (DESIGN.md §8);
  /// null = unlimited (standalone connectors keep their old behaviour).
  std::shared_ptr<ResourceGovernor> governor;
  /// Attribution key for per-session governor budgets (0 = unattributed).
  uint64_t session_tag = 0;
  /// Resilience counters (hyperq.backend.*) register here; null = the
  /// connector keeps no counters (its typed accessors still work).
  observability::MetricsRegistry* metrics = nullptr;

  // --- Fleet wiring (DESIGN.md §10) ---------------------------------------
  /// When set, the connector's breaker is a lane of this one (retry.h):
  /// the pool shares one breaker per backend instance across every
  /// session bound to it, so one session's run of failures protects them
  /// all. Must outlive the connector (the pool owns both).
  CircuitBreaker* shared_breaker = nullptr;
  /// Pool liveness hook, consulted at attempt start and at every batch
  /// boundary while packaging; a non-OK status aborts the attempt. The
  /// pool returns kSessionLost{kBackendDown} for a hard-killed replica so
  /// mid-stream kills surface for cross-replica failover.
  std::function<Status()> liveness;
  /// Display name of the backend instance; annotated onto backend.attempt
  /// spans and prepended to backend error context in pool mode.
  std::string backend_name;

  // --- Tail tolerance (DESIGN.md §11) -------------------------------------
  /// Process-wide retry budget: every in-place retry must win a token, so
  /// a sick fleet degrades to single-attempt behavior instead of a retry
  /// storm. Null = unbudgeted (the historical behavior). Must outlive the
  /// connector (the service owns both).
  RetryBudget* retry_budget = nullptr;
};

/// \brief Submits SQL-B requests to the target engine and packages results.
/// One connector per session, like one ODBC connection per session.
class BackendConnector {
 public:
  explicit BackendConnector(vdb::Engine* engine,
                            ConnectorOptions options = {});

  /// \brief Executes one statement; rowset results are pulled into TDF
  /// batches of `batch_rows` rows. `ctx` (optional) is polled at every
  /// batch boundary, so a cancellation or deadline expiry stops the fetch
  /// loop within one batch; the context's deadline also tightens the
  /// cross-attempt retry deadline.
  Result<BackendResult> Execute(const std::string& sql,
                                QueryContext* ctx = nullptr);

  /// \brief Executes a multi-statement request; returns the last result.
  Result<BackendResult> ExecuteScript(const std::string& script,
                                      QueryContext* ctx = nullptr);

  vdb::Engine* engine() { return engine_; }
  /// The breaker attempts are admitted through: a lane of the pool's
  /// shared per-backend breaker when configured, else the connector's own.
  CircuitBreaker* breaker() { return &breaker_; }

  // --- Backend-session failover (DESIGN.md §6, "Failover & overload") ----

  /// \brief Monotonic identity of the backend session. Starts at 1 and is
  /// bumped each time the connector transparently re-establishes its
  /// session after a loss; the service compares this against its recorded
  /// epoch to know when a journal replay has happened.
  int64_t connection_epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }
  /// \brief Session losses observed (the `backend.session_lost` point).
  int64_t session_losses() const {
    return losses_.load(std::memory_order_relaxed);
  }

  /// \brief Registers a session-scoped backend table (volatile table,
  /// recursion WorkTable). A real warehouse discards these with the dying
  /// session, so the simulated session loss drops them from the engine;
  /// the service's journal replay is what brings them back.
  void NoteSessionTable(const std::string& name);
  void ForgetSessionTable(const std::string& name);

 private:
  Result<BackendResult> ExecuteWithRetry(const std::string& sql,
                                         bool is_script, QueryContext* ctx);
  Result<BackendResult> Package(vdb::QueryResult result, QueryContext* ctx);
  /// Simulates the backend killing this session: drops session-scoped
  /// tables and marks the connection down until the next attempt.
  void OnSessionLost();

  vdb::Engine* engine_;
  ConnectorOptions options_;
  CircuitBreaker breaker_;
  // Cached registry series; null when options_.metrics is null.
  observability::Counter* attempts_counter_ = nullptr;
  observability::Counter* retries_counter_ = nullptr;
  observability::Counter* breaker_rejections_counter_ = nullptr;
  observability::Counter* session_losses_counter_ = nullptr;
  observability::Histogram* backoff_histogram_ = nullptr;
  std::atomic<int64_t> epoch_{1};
  std::atomic<int64_t> losses_{0};
  std::atomic<bool> session_down_{false};
  std::mutex tables_mutex_;
  std::vector<std::string> session_tables_;
};

}  // namespace hyperq::backend
