// HyperQService fleet execution (DESIGN.md §10, §11): routing, the one
// placement + failover loop, and hedged reads.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <optional>
#include <thread>

#include "service/hyperq_service.h"

namespace hyperq::service {

using backend::BackendResult;
namespace obs = observability;
using observability::names::Stage;

// ---------------------------------------------------------------------------
// Fleet routing & cross-replica failover (DESIGN.md §10)
// ---------------------------------------------------------------------------

namespace {
// Failures worth trying elsewhere: the session/replica died (kSessionLost),
// or nothing was even attempted because the instance is down — the breaker
// rejected the call or the pool knows the backend is killed. A plain
// kUnavailable (one flaked call, already retried in place) and every
// permanent error ("query bad") stay put: re-routing them would waste
// another replica's time on the same outcome.
bool FailoverEligible(const Status& s) {
  if (s.IsSessionLost()) return true;
  return s.IsUnavailable() && (s.detail() == StatusDetail::kBreakerOpen ||
                               s.detail() == StatusDetail::kBackendDown);
}

// Placements per query, same-replica retries after a session loss
// included.
constexpr int kMaxPlacementAttempts = 3;
// The hedge fires at this percentile of recent primary executions: ~5% of
// eligible traffic in steady state.
constexpr double kHedgePercentile = 0.95;
// Wait slice while the primary runs. The condition variable wakes on the
// primary's completion; the slice also bounds how late a cancellation of
// the caller's context (which does not notify it) is noticed.
constexpr auto kHedgeWaitSlice = std::chrono::milliseconds(1);
}  // namespace

bool HyperQService::JournalRequiresProfile(const Session* session) {
  for (const auto& entry : session->journal) {
    if (entry.kind == JournalEntry::Kind::kSetSession) return true;
  }
  return false;
}

void HyperQService::RecordRoute(const backend::RouteDecision& route) {
  const auto& reasons = backend::kRouteReasons;
  for (size_t r = 0; r < reasons.size(); ++r) {
    if (route.reason == reasons[r]) {
      c_routes_[route.backend * reasons.size() + r]->Inc();
      return;
    }
  }
}

Status HyperQService::RebindSession(Session* session, int target) {
  if (session->backend_index == target) return Status::OK();
  if (session->connector != nullptr) {
    session->parked_connectors[session->backend_index] =
        std::move(session->connector);
  }
  auto parked = session->parked_connectors.find(target);
  if (parked != session->parked_connectors.end() &&
      parked->second != nullptr) {
    session->connector = std::move(parked->second);
    session->parked_connectors.erase(parked);
  } else {
    session->connector = pool_->CreateConnector(target, session->id);
  }
  pool_->DetachSession(session->backend_index);
  pool_->AttachSession(target);
  session->backend_index = target;
  return Status::OK();
}

Result<QueryOutcome> HyperQService::SubmitWithFailover(
    Session* session, const std::string& sql_a, QueryContext* ctx) {
  std::vector<int> failed;  // backends that failed this query
  int failovers = 0;
  int total_replayed = 0;
  Status last_error;

  for (int attempt = 0; attempt < kMaxPlacementAttempts; ++attempt) {
    backend::RouteConstraints constraints;
    constraints.emitted = &options_.profile;
    constraints.sticky = session->backend_index;
    constraints.exclude = failed;
    if (JournalRequiresProfile(session)) {
      // Journaled SET SESSION state is only valid under the profile it was
      // created with: restrict failover to digest-identical replicas and
      // let the router surface kFailoverIncompatible when none exists.
      constraints.require_profile_digest = true;
      constraints.profile_digest =
          pool_->profile_digest(session->backend_index);
    }
    auto route = router_->Pick(constraints);
    if (!route.ok()) {
      Status s = route.status();
      if (s.detail() == StatusDetail::kFailoverIncompatible) {
        c_failover_incompatible_->Inc();
      } else if (!last_error.ok()) {
        // No other replica to go to: the query's own error is the answer.
        return last_error;
      }
      if (!last_error.ok()) {
        return s.WithContext("failing over from: " + last_error.ToString());
      }
      return s;
    }
    // Every placement after the first is a retry from the backend's point
    // of view and must win a token from the global retry budget (DESIGN.md
    // §11); the typed denial is deliberately not failover-eligible, which
    // is what stops the amplification chain.
    if (attempt > 0 && !retry_budget_->TryWithdraw()) {
      return last_error.WithDetail(StatusDetail::kRetryBudgetExhausted);
    }
    RecordRoute(*route);
    const bool moved = route->backend != session->backend_index;
    if (moved) {
      // Cross-replica move: proactive (the bound backend is ejected or
      // killed) or reactive (it just failed this query). The new replica
      // holds none of the session's state.
      HQ_RETURN_IF_ERROR(RebindSession(session, route->backend));
      session->needs_replay = true;
    }
    if (session->needs_replay) {
      // The open-transaction fence: the backend transaction died with the
      // session, and a statement with side effects must not be
      // transparently re-run — it could double-apply.
      if (session->txn_depth > 0) {
        session->txn_depth = 0;  // the backend transaction is gone either way
        auto parsed = sql::ParseStatement(sql_a, frontend_dialect_);
        if (parsed.ok() && StatementIsNonIdempotent(**parsed)) {
          c_aborted_in_txn_->Inc();
          return Status::Aborted(
              "backend session lost while a non-idempotent statement was in "
              "flight inside an open transaction; transaction rolled back — "
              "resubmit the transaction (",
              last_error.ok() ? "session state lost" : last_error.message(),
              ")");
        }
      }
      auto replayed = ReplaySessionJournal(session);
      if (!replayed.ok()) {
        if (!FailoverEligible(replayed.status())) return replayed.status();
        last_error = replayed.status();
        failed.push_back(route->backend);
        continue;
      }
      session->needs_replay = false;
      total_replayed += *replayed;
      ++failovers;
      if (moved) c_failover_cross_replica_->Inc();
    }

    Status acquired = pool_->Acquire(route->backend);
    if (!acquired.ok()) {
      if (!FailoverEligible(acquired) && !acquired.IsResourceExhausted()) {
        return acquired;
      }
      last_error = acquired;  // in-flight cap or just-killed: go elsewhere
      failed.push_back(route->backend);
      continue;
    }
    auto outcome = SubmitInternal(session, sql_a, 0, ctx);
    // When a hedge replica produced the result, the primary's slot is the
    // losing leg: release it without feeding the scorer (the hedge path
    // already released the winner).
    bool hedge_won = outcome.ok() && outcome->result.hedge_won;
    pool_->Release(route->backend,
                   outcome.ok() ? Status::OK() : outcome.status(),
                   hedge_won ? backend::BackendPool::ReleaseKind::kHedgeLoser
                             : backend::BackendPool::ReleaseKind::kNormal);
    if (outcome.ok()) {
      outcome->timing.failovers += failovers;
      outcome->timing.journal_replays += total_replayed;
      return outcome;
    }
    Status s = outcome.status();
    if (!FailoverEligible(s)) return s;
    if (!options_.failover.enabled) {
      if (!s.IsSessionLost()) return s;
      return Status::Unavailable("backend session lost (failover disabled): ",
                                 s.message())
          .WithDetail(s.detail());
    }
    last_error = s;
    if (s.IsSessionLost() && s.detail() == StatusDetail::kNone) {
      // The session flaked but the instance may be fine: repair in place
      // instead of burning a replica. The repair is pending on the
      // session, so a request that stops here still leaves it for the
      // next statement.
      session->needs_replay = true;
    } else {
      failed.push_back(route->backend);
    }
    // A cancelled/expired request gets no more attempts anywhere.
    if (ctx != nullptr) HQ_RETURN_IF_ERROR(ctx->CheckAlive());
  }
  return last_error;
}

// ---------------------------------------------------------------------------
// Hedged execution (DESIGN.md §11)
// ---------------------------------------------------------------------------

bool HyperQService::HedgeEligible(const Session* session) const {
  if (!options_.tail.hedge.enabled) return false;
  // A hedge needs a second replica to race.
  if (pool_->size() < 2) return false;
  // Side-effect fence: a statement inside an open transaction, or against
  // session-scoped (volatile) backend state, must run exactly once on
  // exactly the bound backend. SET SESSION journal entries are mid-tier
  // state already baked into the SQL-B text, so they do not disqualify.
  if (session->txn_depth > 0) return false;
  if (!session->volatile_tables.empty()) return false;
  for (const auto& e : session->journal) {
    if (e.kind != JournalEntry::Kind::kSetSession) return false;
  }
  return true;
}

void HyperQService::ObserveHedgeLatency(double micros) {
  h_hedge_execute_->Observe(micros);
  int64_t n = hedge_observations_.fetch_add(1, std::memory_order_relaxed) + 1;
  // The percentile over a streaming histogram is cheap but not free:
  // refresh the cached trigger every few observations rather than per
  // query.
  if (n % 32 != 0 &&
      hedge_threshold_micros_.load(std::memory_order_relaxed) != 0) {
    return;
  }
  obs::HistogramSnapshot snap = h_hedge_execute_->snapshot();
  double q = snap.Quantile(kHedgePercentile);
  auto threshold = static_cast<int64_t>(
      std::max(q, options_.tail.hedge.min_threshold_micros));
  hedge_threshold_micros_.store(threshold, std::memory_order_relaxed);
}

int64_t HyperQService::HedgeThresholdMicros() {
  int64_t cached = hedge_threshold_micros_.load(std::memory_order_relaxed);
  if (cached > 0) return cached;
  // Cold start: no eligible executions observed yet; hedge only past the
  // configured floor.
  return static_cast<int64_t>(options_.tail.hedge.min_threshold_micros);
}

void HyperQService::ReapHedgeStragglers(bool all) {
  std::vector<HedgeStraggler> to_join;
  {
    std::lock_guard<std::mutex> lock(stragglers_mutex_);
    if (all) {
      to_join.swap(stragglers_);
    } else {
      for (auto it = stragglers_.begin(); it != stragglers_.end();) {
        if (it->done->load(std::memory_order_acquire)) {
          to_join.push_back(std::move(*it));
          it = stragglers_.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
  for (auto& s : to_join) {
    if (s.thread.joinable()) s.thread.join();
  }
}

Result<BackendResult> HyperQService::ExecuteOnBackend(
    Session* session, const std::string& sql_b, QueryContext* ctx,
    bool hedge_eligible) {
  // With the tail layer off (or the statement/session ineligible) this is
  // byte-identical to the pre-hedging call.
  if (!hedge_eligible || !HedgeEligible(session)) {
    return session->connector->Execute(sql_b, ctx);
  }
  return HedgedExecute(session, sql_b, ctx);
}

Result<BackendResult> HyperQService::HedgedExecute(Session* session,
                                                   const std::string& sql_b,
                                                   QueryContext* ctx) {
  // First-completion-wins over two legs (DESIGN.md §11). The primary leg
  // runs on its own thread with its own connector and child context, so a
  // straggling loser can never pin the caller, the session's connector, or
  // the winner's result. The hedge leg (if admitted) runs inline on the
  // caller's thread.
  struct Shared {
    std::mutex mutex;
    std::condition_variable cv;
    bool primary_done = false;
    std::optional<Result<BackendResult>> primary_result;
    // Set while a hedge is in flight so the primary, on winning, can
    // cancel the loser promptly instead of letting it run to completion.
    std::shared_ptr<QueryContext> hedge_ctx;
  };
  auto shared = std::make_shared<Shared>();
  auto primary_ctx = std::make_shared<QueryContext>();
  if (ctx != nullptr && ctx->has_deadline()) {
    primary_ctx->SetDeadline(ctx->deadline());
  }
  const int primary_backend = session->backend_index;
  std::shared_ptr<backend::BackendConnector> primary_conn =
      pool_->CreateConnector(primary_backend, session->id);
  auto primary_finished = std::make_shared<std::atomic<bool>>(false);

  ReapHedgeStragglers(/*all=*/false);
  // The closure owns everything it touches (no `this`): it may outlive
  // this call as a parked straggler; the destructor joins it before the
  // pool stops.
  std::thread primary_thread([shared, primary_ctx, primary_conn, sql_b,
                              primary_finished]() {
    auto r = primary_conn->Execute(sql_b, primary_ctx.get());
    std::shared_ptr<QueryContext> loser;
    {
      std::lock_guard<std::mutex> lock(shared->mutex);
      bool won = r.ok();
      shared->primary_result.emplace(std::move(r));
      shared->primary_done = true;
      if (won && shared->hedge_ctx != nullptr) loser = shared->hedge_ctx;
    }
    shared->cv.notify_all();
    if (loser != nullptr) {
      loser->Cancel(CancelCause::kHedgeLoser,
                    Status::Cancelled("hedge lost: primary completed first"));
    }
    primary_finished->store(true, std::memory_order_release);
  });

  auto park_primary = [&]() {
    std::lock_guard<std::mutex> lock(stragglers_mutex_);
    stragglers_.push_back({std::move(primary_thread), primary_finished});
  };
  auto harvest_primary = [&](double waited_micros)
      -> Result<BackendResult> {
    primary_thread.join();
    Result<BackendResult> r = std::move(*shared->primary_result);
    if (r.ok()) ObserveHedgeLatency(waited_micros);
    return r;
  };

  // Phase 1: give the primary the adaptive threshold to answer.
  const int64_t threshold = HedgeThresholdMicros();
  Stopwatch waited;
  {
    std::unique_lock<std::mutex> lock(shared->mutex);
    while (!shared->primary_done &&
           waited.ElapsedMicros() < static_cast<double>(threshold)) {
      shared->cv.wait_for(lock, kHedgeWaitSlice);
      if (ctx != nullptr && ctx->cancelled()) break;
    }
    if (shared->primary_done) {
      lock.unlock();
      return harvest_primary(waited.ElapsedMicros());
    }
  }
  if (ctx != nullptr) {
    Status alive = ctx->CheckAlive();
    if (!alive.ok()) {
      // The whole request died while we waited: cancel the primary leg and
      // park it; it unwinds at its next batch boundary.
      primary_ctx->Cancel(CancelCause::kHedgeLoser, alive);
      park_primary();
      return alive;
    }
  }

  // Phase 2: the primary is slow — try to admit a hedge. Every denial
  // falls back to simply waiting the primary out.
  auto wait_out_primary = [&]() -> Result<BackendResult> {
    std::unique_lock<std::mutex> lock(shared->mutex);
    while (!shared->primary_done) {
      shared->cv.wait_for(lock, kHedgeWaitSlice);
      if (ctx != nullptr) {
        Status alive = ctx->CheckAlive();
        if (!alive.ok()) {
          lock.unlock();
          primary_ctx->Cancel(CancelCause::kHedgeLoser, alive);
          park_primary();
          return alive;
        }
      }
    }
    lock.unlock();
    return harvest_primary(waited.ElapsedMicros());
  };

  // Gate 1: a hedge is a retry from the fleet's point of view and spends a
  // retry-budget token.
  if (!retry_budget_->TryWithdraw()) {
    c_hedge_denied_budget_->Inc();
    return wait_out_primary();
  }
  // Gate 2: hedges may not exceed the configured fraction of in-flight
  // load, so a slow fleet cannot double its own traffic.
  int total_in_flight = 0;
  for (size_t i = 0; i < pool_->size(); ++i) {
    total_in_flight += pool_->in_flight(i);
  }
  int max_hedges = std::max(
      1, static_cast<int>(options_.tail.hedge.max_hedge_fraction *
                          static_cast<double>(total_in_flight)));
  if (hedges_in_flight_.load(std::memory_order_relaxed) >= max_hedges) {
    c_hedge_denied_load_->Inc();
    return wait_out_primary();
  }
  // Gate 3: a distinct healthy replica must exist.
  backend::RouteConstraints constraints;
  constraints.emitted = &options_.profile;
  constraints.exclude.push_back(primary_backend);
  if (JournalRequiresProfile(session)) {
    constraints.require_profile_digest = true;
    constraints.profile_digest = pool_->profile_digest(primary_backend);
  }
  auto route = router_->Pick(constraints);
  if (!route.ok()) {
    c_hedge_denied_no_replica_->Inc();
    return wait_out_primary();
  }
  const int hedge_backend = route->backend;
  Status acquired = pool_->Acquire(hedge_backend);
  if (!acquired.ok()) {
    c_hedge_denied_load_->Inc();
    return wait_out_primary();
  }

  auto hedge_ctx = std::make_shared<QueryContext>();
  if (ctx != nullptr && ctx->has_deadline()) {
    hedge_ctx->SetDeadline(ctx->deadline());
  }
  {
    std::lock_guard<std::mutex> lock(shared->mutex);
    if (shared->primary_done) {
      // The primary answered while we were routing: no race to run.
      pool_->Release(hedge_backend, Status::OK(),
                     backend::BackendPool::ReleaseKind::kHedgeLoser);
      return harvest_primary(waited.ElapsedMicros());
    }
    shared->hedge_ctx = hedge_ctx;
  }

  c_hedge_launched_->Inc();
  hedges_in_flight_.fetch_add(1, std::memory_order_relaxed);
  Result<BackendResult> hedge_result = [&]() {
    obs::SpanScope hedge_span(ctx, Stage::kBackendHedge);
    hedge_span.Annotate("backend", pool_->spec(hedge_backend).name);
    std::unique_ptr<backend::BackendConnector> hedge_conn =
        pool_->CreateConnector(hedge_backend, session->id);
    return hedge_conn->Execute(sql_b, hedge_ctx.get());
  }();
  hedges_in_flight_.fetch_sub(1, std::memory_order_relaxed);

  bool primary_done_now;
  bool primary_won;
  {
    std::lock_guard<std::mutex> lock(shared->mutex);
    shared->hedge_ctx = nullptr;  // the race is over either way
    primary_done_now = shared->primary_done;
    primary_won = primary_done_now && shared->primary_result->ok();
  }

  if (hedge_result.ok() && !primary_won) {
    // Hedge wins: cancel the straggling primary leg and hand its slot
    // release (as a hedge loser) to the fleet loop via the result flags.
    c_hedge_wins_->Inc();
    if (!primary_done_now) {
      c_hedge_cancelled_->Inc();
      primary_ctx->Cancel(
          CancelCause::kHedgeLoser,
          Status::Cancelled("hedge lost: hedge replica completed first"));
      park_primary();
    } else {
      primary_thread.join();
    }
    pool_->Release(hedge_backend, Status::OK());
    hedge_result->hedges = 1;
    hedge_result->hedge_won = true;
    hedge_result->hedge_backend = hedge_backend;
    return hedge_result;
  }

  // Hedge lost: either the primary beat it (and cancelled it), or the
  // hedge itself failed. A cancelled/failed-by-cancel leg must not feed the
  // scorer; a genuine hedge error scores normally.
  bool hedge_cancelled = !hedge_result.ok() &&
                         (hedge_result.status().IsCancelled() ||
                          hedge_result.status().IsDeadlineExceeded());
  if (hedge_cancelled) c_hedge_cancelled_->Inc();
  pool_->Release(hedge_backend,
                 hedge_result.ok() ? Status::OK() : hedge_result.status(),
                 hedge_result.ok() || hedge_cancelled
                     ? backend::BackendPool::ReleaseKind::kHedgeLoser
                     : backend::BackendPool::ReleaseKind::kNormal);
  c_hedge_losses_->Inc();
  auto out = wait_out_primary();
  if (out.ok()) {
    out->hedges = 1;
  } else if (!primary_won && !hedge_result.ok() && !hedge_cancelled) {
    // Both legs genuinely failed: surface the hedge error as context only
    // when the primary failed too (the primary error is authoritative).
    return out.status().WithContext("hedge also failed: " +
                                    hedge_result.status().ToString());
  }
  return out;
}

}  // namespace hyperq::service
