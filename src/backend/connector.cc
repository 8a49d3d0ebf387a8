#include "backend/connector.h"

#include "common/fault.h"
#include "common/link_shim.h"
#include "observability/metric_names.h"

namespace hyperq::backend {

namespace obs = observability;
using observability::names::Stage;

const std::vector<TdfColumn>& BackendResult::columns() const {
  static const std::vector<TdfColumn> kNone;
  return store != nullptr ? store->schema() : kNone;
}

Result<std::vector<std::vector<Datum>>> BackendResult::DecodeRows() const {
  std::vector<std::vector<Datum>> rows;
  if (!store) return rows;
  Status status = store->ScanSpans([&](const BatchSpan& span) {
    vdb::AppendRowsFromBatch(*span.batch, span.offset,
                             span.offset + span.rows, &rows);
    return Status::OK();
  });
  HQ_RETURN_IF_ERROR(status);
  return rows;
}

BackendConnector::BackendConnector(vdb::Engine* engine,
                                   ConnectorOptions options)
    : engine_(engine),
      options_(std::move(options)),
      breaker_(options_.breaker, options_.shared_breaker) {
  if (options_.metrics != nullptr) {
    attempts_counter_ =
        options_.metrics->counter(obs::names::kBackendAttempts);
    retries_counter_ = options_.metrics->counter(obs::names::kBackendRetries);
    breaker_rejections_counter_ =
        options_.metrics->counter(obs::names::kBackendBreakerRejections);
    session_losses_counter_ =
        options_.metrics->counter(obs::names::kBackendSessionLosses);
    backoff_histogram_ =
        options_.metrics->histogram(obs::names::kBackendBackoffMicros);
  }
}

void BackendConnector::NoteSessionTable(const std::string& name) {
  std::lock_guard<std::mutex> lock(tables_mutex_);
  for (const auto& t : session_tables_) {
    if (t == name) return;
  }
  session_tables_.push_back(name);
}

void BackendConnector::ForgetSessionTable(const std::string& name) {
  std::lock_guard<std::mutex> lock(tables_mutex_);
  for (auto it = session_tables_.begin(); it != session_tables_.end(); ++it) {
    if (*it == name) {
      session_tables_.erase(it);
      return;
    }
  }
}

void BackendConnector::OnSessionLost() {
  losses_.fetch_add(1, std::memory_order_relaxed);
  if (session_losses_counter_ != nullptr) session_losses_counter_->Inc();
  session_down_.store(true, std::memory_order_relaxed);
  // The backend discards session-scoped state with the dying session; the
  // drops go straight to the engine (the "new" connection's view), not
  // through the fault-injected request path.
  std::lock_guard<std::mutex> lock(tables_mutex_);
  for (const auto& table : session_tables_) {
    (void)engine_->Execute("DROP TABLE IF EXISTS " + table);
  }
}

Result<BackendResult> BackendConnector::Execute(const std::string& sql,
                                                QueryContext* ctx) {
  return ExecuteWithRetry(sql, /*is_script=*/false, ctx);
}

Result<BackendResult> BackendConnector::ExecuteScript(
    const std::string& script, QueryContext* ctx) {
  return ExecuteWithRetry(script, /*is_script=*/true, ctx);
}

Result<BackendResult> BackendConnector::ExecuteWithRetry(
    const std::string& sql, bool is_script, QueryContext* ctx) {
  // The request's one deadline (its context's) spans every attempt;
  // retrying past the client's time budget only amplifies load on a
  // struggling backend.
  Deadline deadline = ctx != nullptr && ctx->has_deadline()
                          ? ctx->deadline()
                          : Deadline::Infinite();
  RetryStats stats;
  auto attempt = [&]() -> Result<BackendResult> {
    // Each backend try is its own child span (under the service's
    // backend.execute), so a retried request shows every attempt.
    obs::SpanScope attempt_span(ctx, Stage::kBackendAttempt);
    if (!options_.backend_name.empty()) {
      attempt_span.Annotate("backend", options_.backend_name);
    }
    if (attempts_counter_ != nullptr) attempts_counter_->Inc();
    // A cancelled request never touches the backend again: kCancelled is
    // not retryable, so this surfaces straight through RetryCall.
    if (ctx != nullptr) HQ_RETURN_IF_ERROR(ctx->CheckAlive());
    // The pool's liveness verdict for this backend instance: a hard-killed
    // replica fails here with kSessionLost{kBackendDown} before any work.
    if (options_.liveness) HQ_RETURN_IF_ERROR(options_.liveness());
    // A lost session reconnects transparently at the next attempt; the
    // epoch bump is what tells the service its journal must be replayed.
    if (session_down_.exchange(false, std::memory_order_relaxed)) {
      epoch_.fetch_add(1, std::memory_order_relaxed);
    }
    Status lost =
        FaultInjector::Global().Check(faultpoints::kBackendSessionLost);
    if (!lost.ok()) {
      OnSessionLost();
      return Status::SessionLost("backend session lost: ", lost.message());
    }
    // The chaos seam's warehouse-link hook (DESIGN.md §13). There is no
    // real socket on this path, so the request send is modelled as one
    // logical transfer; a partitioned or reset link fails the attempt with
    // kUnavailable, which the retry/failover layers route around exactly
    // as they would a dead replica.
    HQ_RETURN_IF_ERROR(CheckLink(linkscopes::kBackend,
                                 options_.backend_name.c_str(),
                                 /*send=*/true, sql.size()));
    HQ_FAULT_POINT(faultpoints::kVdbExecute);
    vdb::QueryResult result;
    if (is_script) {
      HQ_ASSIGN_OR_RETURN(result, engine_->ExecuteScript(sql));
    } else {
      HQ_ASSIGN_OR_RETURN(result, engine_->Execute(sql));
    }
    // Packaging faults (batch pulls, spills) are also retried: they map to
    // fetch-time failures of a real ODBC driver, and re-execution is the
    // only way to recover a half-fetched result.
    return Package(std::move(result), ctx);
  };
  // A governor shed (kResourceExhausted from the store's shed-or-spill
  // policy) is a proxy-side admission decision, not a backend failure:
  // re-executing the query against the same exhausted budget only amplifies
  // backend load. Shield it from the retry loop with a non-retryable
  // sentinel, then surface the original typed status.
  Status shed_status = Status::OK();
  auto shielded = [&]() -> Result<BackendResult> {
    auto r = attempt();
    if (!r.ok() && r.status().IsResourceExhausted()) {
      shed_status = r.status();
      return Status::Aborted("result shed by resource governor");
    }
    return r;
  };
  auto out = RetryCall(options_.retry, deadline, breaker(), &stats,
                       options_.retry_budget, shielded);
  if (retries_counter_ != nullptr && stats.attempts > 1) {
    retries_counter_->Inc(stats.attempts - 1);
  }
  if (breaker_rejections_counter_ != nullptr &&
      stats.rejected_by_breaker > 0) {
    breaker_rejections_counter_->Inc(stats.rejected_by_breaker);
  }
  if (backoff_histogram_ != nullptr && stats.backoff_micros > 0) {
    backoff_histogram_->Observe(stats.backoff_micros);
  }
  if (!out.ok() && !shed_status.ok()) {
    return shed_status;
  }
  if (out.ok()) {
    out->attempts = stats.attempts;
    out->retry_backoff_micros = stats.backoff_micros;
    if (ctx != nullptr && out->store != nullptr) {
      ctx->AddSpillBytes(out->store->spilled_bytes());
    }
  }
  return out;
}

Result<BackendResult> BackendConnector::Package(vdb::QueryResult result,
                                                QueryContext* ctx) {
  // The TDF batching/buffering stage of this attempt (paper §4.5).
  obs::SpanScope buffer_span(ctx, Stage::kTdfBuffer);
  BackendResult out;
  out.affected_rows = result.affected_rows;
  out.command_tag = std::move(result.command_tag);
  if (result.columns.empty()) return out;

  // The engine's column list becomes the store's schema, which is the
  // result's column list: packaging copies no column.
  out.store = std::make_shared<ResultStore>(options_.store_memory_budget,
                                            options_.spill_dir,
                                            options_.governor,
                                            options_.session_tag);
  out.store->set_schema(std::move(result.columns));
  const std::vector<TdfColumn>& columns = out.store->schema();

  auto emit_span = [&](const std::shared_ptr<const vdb::ColumnBatch>& batch,
                       size_t offset, size_t rows) -> Status {
    // Cancellation is observed at every batch boundary: an abandoned fetch
    // drops `out` and with it the store's spill files and governor bytes.
    if (ctx != nullptr) HQ_RETURN_IF_ERROR(ctx->CheckAlive());
    // So is the pool's liveness verdict, which is how a replica hard-killed
    // mid-result-stream turns into a cross-replica failover within a batch.
    if (options_.liveness) HQ_RETURN_IF_ERROR(options_.liveness());
    // Result batches flow proxy-ward: the chaos seam's recv direction on
    // the warehouse link, consulted per batch like a real driver fetch.
    HQ_RETURN_IF_ERROR(CheckLink(linkscopes::kBackend,
                                 options_.backend_name.c_str(),
                                 /*send=*/false, options_.batch_rows));
    HQ_FAULT_POINT(faultpoints::kConnectorFetchBatch);
    // The append fault point fires once per row, so an armed `every=N`
    // schedule counts rows, not batches.
    for (size_t r = 0; r < rows; ++r) {
      HQ_FAULT_POINT(faultpoints::kTdfAppend);
    }
    return out.store->AppendBatch(batch, offset, rows);
  };

  size_t total = 0;
  for (const auto& chunk : result.chunks) total += chunk->rows;
  if (total == 0) {
    // Announce-then-stream protocols expect at least one (empty) batch.
    std::vector<SqlType> types;
    types.reserve(columns.size());
    for (const auto& c : columns) types.push_back(c.type);
    vdb::BatchBuilder builder(types);
    HQ_RETURN_IF_ERROR(emit_span(builder.Finish(), 0, 0));
    return out;
  }
  for (const auto& chunk : result.chunks) {
    if (chunk->rows == 0) continue;
    // Coerce the whole chunk to the declared result types once (the common
    // case is a zero-copy identity check), instead of per row per value.
    HQ_ASSIGN_OR_RETURN(std::shared_ptr<const vdb::ColumnBatch> canon,
                        CanonicalizeBatch(columns, chunk));
    size_t i = 0;
    while (i < canon->rows) {
      // Spans never straddle chunk boundaries; a short tail span simply
      // carries fewer rows.
      size_t n = std::min(options_.batch_rows, canon->rows - i);
      HQ_RETURN_IF_ERROR(emit_span(canon, i, n));
      i += n;
    }
  }
  return out;
}

}  // namespace hyperq::backend
