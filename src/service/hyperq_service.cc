#include "service/hyperq_service.h"

#include <algorithm>
#include <cstdio>
#include <string_view>

#include "common/fault.h"
#include "common/stopwatch.h"
#include "observability/metric_names.h"

namespace hyperq::service {

using backend::BackendResult;
using sql::StmtKind;
namespace obs = observability;
namespace names = observability::names;
using observability::names::Stage;

namespace {
// The translation cache shares the process memory ceiling with the live
// result stores unless the caller configured a dedicated governor for it,
// and registers its counters in the service's registry.
TranslationCacheOptions CacheOptionsFor(TranslationCacheOptions cache,
                                        std::shared_ptr<ResourceGovernor> gov,
                                        obs::MetricsRegistry* metrics) {
  if (!cache.governor) cache.governor = std::move(gov);
  if (cache.metrics == nullptr) cache.metrics = metrics;
  return cache;
}

// Finished traces kept for trace_ring().
constexpr size_t kTraceRingCapacity = 128;

convert::ConverterOptions WireConverterOptions(int parallelism,
                                               obs::MetricsRegistry* metrics) {
  convert::ConverterOptions options;
  options.parallelism = parallelism;
  options.metrics = metrics;
  return options;
}

// The series `*slot` caches, registering base{key="value"} on first use.
// Racing first uses register the same series, so either store is right.
obs::Histogram* ResolveOnce(std::atomic<obs::Histogram*>* slot,
                            obs::MetricsRegistry* metrics, const char* base,
                            const char* key, std::string_view value) {
  obs::Histogram* h = slot->load(std::memory_order_acquire);
  if (h == nullptr) {
    h = metrics->histogram(obs::LabeledName(base, {{key, std::string(value)}}));
    slot->store(h, std::memory_order_release);
  }
  return h;
}

// A failure the statement or its data caused, the same on any replica and
// at any time. Every other failure (a lost session, the open-transaction
// fence, overload, an exhausted retry budget, a deadline, a cancel) is
// about the request, not its rows.
bool StatementRejected(const Status& s) {
  switch (s.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kSyntaxError:
    case StatusCode::kBindError:
    case StatusCode::kNotSupported:
    case StatusCode::kCatalogError:
    case StatusCode::kExecutionError:
      return true;
    default:
      return false;
  }
}
}  // namespace

HyperQService::HyperQService(vdb::Engine* engine, ServiceOptions options)
    : engine_(engine),
      options_(std::move(options)),
      transformer_(options_.profile),
      serializer_(options_.profile),
      frontend_dialect_(sql::Dialect::Teradata()),
      owned_metrics_(options_.metrics == nullptr
                         ? std::make_unique<obs::MetricsRegistry>()
                         : nullptr),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : owned_metrics_.get()),
      trace_ring_(kTraceRingCapacity),
      converter_(WireConverterOptions(options_.convert_parallelism,
                                      metrics_)),
      translation_cache_(CacheOptionsFor(options_.translation_cache,
                                         options_.governor, metrics_)),
      profile_digest_(options_.profile.CacheKeyDigest()),
      default_settings_digest_(SettingsDigest(SessionInfo())) {
  // Every series the service touches per query is registered once here;
  // the hot path then pays one relaxed atomic RMW per event.
  c_queries_ok_ = metrics_->counter(
      obs::LabeledName(names::kQueries, {{"outcome", "ok"}}));
  c_queries_error_ = metrics_->counter(
      obs::LabeledName(names::kQueries, {{"outcome", "error"}}));
  c_queries_cancelled_ = metrics_->counter(
      obs::LabeledName(names::kQueries, {{"outcome", "cancelled"}}));
  c_queries_deadline_ = metrics_->counter(
      obs::LabeledName(names::kQueries, {{"outcome", "deadline"}}));
  c_slow_queries_ = metrics_->counter(names::kSlowQueries);
  c_failovers_ = metrics_->counter(names::kFailoverReplays);
  c_statements_replayed_ =
      metrics_->counter(names::kFailoverStatementsReplayed);
  c_aborted_in_txn_ = metrics_->counter(names::kFailoverAbortedInTxn);
  c_journal_overflows_ = metrics_->counter(names::kFailoverJournalOverflows);
  c_failover_cross_replica_ =
      metrics_->counter(names::kFailoverCrossReplica);
  c_failover_incompatible_ =
      metrics_->counter(names::kFailoverIncompatible);
  c_wire_requests_ = metrics_->counter(names::kWireRequests);
  h_wire_convert_ = metrics_->histogram(names::kWireConvertMicros);
  c_submit_statements_ =
      metrics_->counter(names::kTranslateSubmitStatements);
  c_translate_statements_ =
      metrics_->counter(names::kTranslateOnlyStatements);
  c_translate_cache_hits_ = metrics_->counter(names::kTranslateCacheHits);
  h_translate_ = metrics_->histogram(names::kTranslateMicros);
  c_cancelled_ = metrics_->counter(names::kLifecycleCancelled);
  c_deadline_expired_ = metrics_->counter(names::kLifecycleDeadlineExpired);
  c_client_gone_ = metrics_->counter(names::kLifecycleClientGone);
  c_killed_ = metrics_->counter(names::kLifecycleKilled);
  c_spill_bytes_ = metrics_->counter(names::kLifecycleSpillBytes);
  h_result_bytes_ = metrics_->histogram(
      names::kResultBytes, obs::Histogram::SizeBucketsBytes());
  c_hedge_launched_ = metrics_->counter(names::kHedgeLaunched);
  c_hedge_wins_ = metrics_->counter(names::kHedgeWins);
  c_hedge_losses_ = metrics_->counter(names::kHedgeLosses);
  c_hedge_cancelled_ = metrics_->counter(names::kHedgeCancelled);
  c_hedge_denied_budget_ = metrics_->counter(names::kHedgeDeniedBudget);
  c_hedge_denied_load_ = metrics_->counter(names::kHedgeDeniedLoad);
  c_hedge_denied_no_replica_ =
      metrics_->counter(names::kHedgeDeniedNoReplica);
  h_hedge_execute_ = metrics_->histogram(names::kHedgeExecuteMicros);

  // Tail tolerance (DESIGN.md §11): the retry budget is always constructed
  // — an inert no-op while disabled — and must exist before the pool,
  // whose connector options carry it.
  retry_budget_ = std::make_unique<RetryBudget>(options_.tail.retry_budget);

  // The fleet (DESIGN.md §10): sessions are placed by the router over a
  // pool of backends. Without registered backends the pool holds one
  // implicit replica over the service's own engine and profile, and its
  // prober stays off — a single backend is a fleet of one.
  backend::PoolOptions pool_options;
  pool_options.health = options_.fleet.health;
  pool_options.connector = options_.connector;
  pool_options.connector.retry_budget = retry_budget_.get();
  pool_options.governor = options_.governor;
  pool_options.metrics = metrics_;
  std::vector<backend::BackendSpec> backends = options_.fleet.backends;
  if (backends.empty()) {
    backend::BackendSpec implicit;
    implicit.name = "primary";
    implicit.profile = options_.profile;
    backends.push_back(std::move(implicit));
    pool_options.health.probe_interval_ms = 0;
  }
  pool_ = std::make_unique<backend::BackendPool>(engine_, std::move(backends),
                                                 std::move(pool_options));
  router_ = std::make_unique<backend::Router>(pool_.get());
  for (size_t i = 0; i < pool_->size(); ++i) {
    for (const char* reason : backend::kRouteReasons) {
      c_routes_.push_back(metrics_->counter(obs::LabeledName(
          names::kBackendRoute,
          {{"backend", pool_->spec(i).name}, {"reason", reason}})));
    }
  }
  pool_->Start();
}

HyperQService::~HyperQService() {
  // Hedge-loser threads hold pool connectors; every one must drain before
  // the pool (and its breakers/governor hooks) shuts down.
  ReapHedgeStragglers(/*all=*/true);
  pool_->Stop();
}

WorkloadFeatureStats HyperQService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void HyperQService::ResetStats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = WorkloadFeatureStats();
}

size_t HyperQService::open_sessions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

// ---------------------------------------------------------------------------
// Stats/admin surface (DESIGN.md §9)
// ---------------------------------------------------------------------------

void HyperQService::MirrorExternalGauges() const {
  if (options_.governor != nullptr) {
    ResourceGovernorStats g = options_.governor->stats();
    metrics_->gauge(names::kGovernorMemoryBytes)->Set(g.memory_bytes);
    metrics_->gauge(names::kGovernorPeakMemoryBytes)
        ->Set(g.peak_memory_bytes);
    metrics_->gauge(names::kGovernorSpillBytes)->Set(g.spill_bytes);
    metrics_->gauge(names::kGovernorTotalSpillBytes)
        ->Set(g.total_spill_bytes);
    metrics_->gauge(names::kGovernorMemoryDenials)->Set(g.memory_denials);
    metrics_->gauge(names::kGovernorSpillDenials)->Set(g.spill_denials);
    metrics_->gauge(names::kGovernorShedQueries)->Set(g.shed_queries);
  }
  // Per-backend health/in-flight levels and the per-state backend counts
  // (the lint-checked kHealthStateMetrics table).
  pool_->MirrorGauges();
  // Tail-tolerance levels (DESIGN.md §11): budget tokens and the hedge
  // trigger, mirrored so one scrape shows the whole control loop.
  {
    RetryBudgetStats b = retry_budget_->stats();
    metrics_->gauge(names::kRetryBudgetTokens)
        ->Set(static_cast<int64_t>(b.tokens));
    metrics_->gauge(names::kRetryBudgetDeposits)->Set(b.deposits);
    metrics_->gauge(names::kRetryBudgetWithdrawals)->Set(b.withdrawals);
    metrics_->gauge(names::kRetryBudgetDenials)->Set(b.denials);
    // Effective trigger: the adaptive percentile once observations exist,
    // else the configured floor (0 when hedging is off entirely).
    int64_t threshold = hedge_threshold_micros_.load(std::memory_order_relaxed);
    if (threshold == 0 && options_.tail.hedge.enabled) {
      threshold =
          static_cast<int64_t>(options_.tail.hedge.min_threshold_micros);
    }
    metrics_->gauge(names::kHedgeThresholdMicros)->Set(threshold);
  }
  // Resident cache levels are shard-computed; export them as gauges.
  TranslationCacheStats c = translation_cache_.stats();
  metrics_->gauge(names::kCacheEntries)->Set(c.entries);
  metrics_->gauge(names::kCacheBytes)->Set(static_cast<int64_t>(c.bytes));
  metrics_->gauge(names::kSessionsOpen)
      ->Set(static_cast<int64_t>(open_sessions()));
  // Fault-injection visibility: every declared point's hit/fire counts,
  // published through the lint-checked table in metric_names.h.
  FaultInjector& inj = FaultInjector::Global();
  for (size_t i = 0; i < names::kFaultPointMetricCount; ++i) {
    const auto& fp = names::kFaultPointMetrics[i];
    metrics_->gauge(std::string(fp.metric) + ".hits")->Set(inj.hits(fp.point));
    metrics_->gauge(std::string(fp.metric) + ".fires")
        ->Set(inj.fires(fp.point));
  }
}

ServiceStatsSnapshot HyperQService::StatsSnapshot() const {
  MirrorExternalGauges();
  ServiceStatsSnapshot snap;
  snap.metrics = metrics_->Snapshot();
  snap.features = stats();
  // The typed views read the counter (or histogram sum) behind each field.
  ServiceResilienceStats& rs = snap.resilience;
  rs.failovers = c_failovers_->value();
  rs.statements_replayed = c_statements_replayed_->value();
  rs.aborted_in_txn = c_aborted_in_txn_->value();
  rs.journal_overflows = c_journal_overflows_->value();
  rs.wire_requests = c_wire_requests_->value();
  rs.wire_conversion_micros = h_wire_convert_->snapshot().sum;
  ServiceLifecycleStats& ls = snap.lifecycle;
  ls.cancelled = c_cancelled_->value();
  ls.deadline_expired = c_deadline_expired_->value();
  ls.client_gone = c_client_gone_->value();
  ls.killed = c_killed_->value();
  ls.spill_bytes = c_spill_bytes_->value();
  if (options_.governor != nullptr) {
    ls.shed_queries = options_.governor->stats().shed_queries;
  }
  snap.translation_cache = translation_cache_.stats();
  TranslationActivityStats& ta = snap.translation_activity;
  ta.submit_statements = c_submit_statements_->value();
  ta.translate_statements = c_translate_statements_->value();
  ta.cache_hits = c_translate_cache_hits_->value();
  ta.translate_micros = h_translate_->snapshot().sum;
  snap.open_sessions = open_sessions();
  return snap;
}

std::string HyperQService::ScrapeText() {
  MirrorExternalGauges();
  return metrics_->RenderText();
}

const char* HyperQService::OutcomeLabel(const Status& status,
                                        const QueryContext* ctx) {
  (void)ctx;
  if (status.ok()) return "ok";
  if (status.IsDeadlineExceeded()) return "deadline";
  if (status.IsCancelled()) return "cancelled";
  return "error";
}

void HyperQService::RecordQueryOutcome(const Status& status) {
  if (status.ok()) {
    c_queries_ok_->Inc();
  } else if (status.IsDeadlineExceeded()) {
    c_queries_deadline_->Inc();
  } else if (status.IsCancelled()) {
    c_queries_cancelled_->Inc();
  } else {
    c_queries_error_->Inc();
  }
}

obs::Histogram* HyperQService::QueryClassHistogram(
    const std::string& session_class) {
  std::atomic<obs::Histogram*>* slot = nullptr;
  if (session_class == "wire") slot = &h_query_wire_;
  if (session_class == "library") slot = &h_query_library_;
  if (slot != nullptr) {
    return ResolveOnce(slot, metrics_, names::kQueryMicros, "class",
                       session_class);
  }
  return metrics_->histogram(
      obs::LabeledName(names::kQueryMicros, {{"class", session_class}}));
}

obs::Histogram* HyperQService::StageHistogram(
    const obs::TraceSpanRecord& span) {
  if (span.stage == obs::TraceSpanRecord::kNoStage) {
    return metrics_->histogram(obs::LabeledName(
        names::kStageMicros, {{"stage", std::string(span.name)}}));
  }
  return ResolveOnce(&h_stages_[static_cast<size_t>(span.stage)], metrics_,
                     names::kStageMicros, "stage", span.name);
}

void HyperQService::RecordFinishedTrace(
    const std::shared_ptr<const obs::QueryTrace>& trace) {
  if (trace == nullptr) return;
  double total = trace->total_micros();
  QueryClassHistogram(trace->session_class())->Observe(total);
  trace->VisitSpans([this](const obs::TraceSpanRecord& span) {
    if (span.id == 0 || span.duration_micros < 0) return;
    StageHistogram(span)->Observe(span.duration_micros);
  });
  trace_ring_.Add(trace);
  if (options_.slow_query_micros > 0 &&
      total >= options_.slow_query_micros) {
    c_slow_queries_->Inc();
    std::string line = trace->ToJson();
    if (options_.slow_query_sink) {
      options_.slow_query_sink(line);
    } else {
      std::fprintf(stderr, "%s\n", line.c_str());
    }
  }
}

void HyperQService::OnQueryTraceFinished(
    std::shared_ptr<const obs::QueryTrace> trace) {
  RecordFinishedTrace(trace);
}

// ---------------------------------------------------------------------------
// Lifecycle (DESIGN.md §8)
// ---------------------------------------------------------------------------

void HyperQService::RegisterActiveQuery(Session* session, QueryContext* ctx) {
  std::lock_guard<std::mutex> lock(mutex_);
  session->active_query = ctx;
}

void HyperQService::UnregisterActiveQuery(Session* session,
                                          QueryContext* ctx) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (session->active_query == ctx) session->active_query = nullptr;
}

bool HyperQService::KillQuery(uint32_t session_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end() || it->second->active_query == nullptr) {
    return false;
  }
  it->second->active_query->Cancel(
      CancelCause::kKill,
      Status::Cancelled("query killed by operator (session ", session_id,
                        ")"));
  return true;
}

void HyperQService::RecordLifecycleFailure(const Status& status,
                                           const QueryContext* ctx) {
  if (status.IsDeadlineExceeded()) {
    c_deadline_expired_->Inc();
    return;
  }
  if (!status.IsCancelled()) return;
  c_cancelled_->Inc();
  if (ctx == nullptr) return;
  switch (ctx->cause()) {
    case CancelCause::kClientGone:
      c_client_gone_->Inc();
      break;
    case CancelCause::kKill:
      c_killed_->Inc();
      break;
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// Submission
// ---------------------------------------------------------------------------

Result<QueryOutcome> HyperQService::Submit(uint32_t session_id,
                                           const std::string& sql_a) {
  QueryRequest request;
  request.session_id = session_id;
  return SubmitStatements(request, sql_a, /*script=*/false);
}

Result<QueryOutcome> HyperQService::Submit(const QueryRequest& request) {
  return SubmitStatements(request, request.sql, /*script=*/false);
}

Result<QueryOutcome> HyperQService::SubmitStatements(
    const QueryRequest& request, const std::string& sql, bool script) {
  // Tail tolerance (DESIGN.md §11): each request tops up the retry budget.
  retry_budget_->NoteRequest();
  // Library callers without a context still get governance: the service
  // mints one so KillQuery and the default deadline apply uniformly.
  QueryContext local_ctx;
  QueryContext* ctx = request.ctx != nullptr ? request.ctx : &local_ctx;
  if (options_.default_query_deadline_ms > 0) {
    ctx->TightenDeadline(Deadline::After(options_.default_query_deadline_ms));
  }
  // Library-path tracing: mint a span tree when the context carries none
  // (one tree covers a whole script; each statement's stage spans nest
  // under its root). A trace attached by the wire path stays externally
  // owned — the server closes wire.write and finishes it after this
  // returns.
  std::shared_ptr<obs::QueryTrace> minted;
  if (options_.tracing && request.trace && ctx->trace() == nullptr) {
    minted = std::make_shared<obs::QueryTrace>();
    minted->set_session_id(request.session_id);
    minted->set_query(sql);
    minted->set_session_class(request.session_class);
    ctx->set_trace(minted);
  }
  auto finish = [&](const Status& st) {
    RecordQueryOutcome(st);
    if (minted == nullptr) return;
    minted->set_outcome(OutcomeLabel(st, ctx));
    minted->Finish();
    RecordFinishedTrace(minted);
    // Detach so a reused context never feeds spans into a finished trace.
    ctx->set_trace(nullptr);
  };
  std::vector<ScriptStep> steps;  // a script's statements
  if (script) {
    auto statements = sql::SplitStatements(sql);
    if (!statements.ok()) {
      finish(statements.status());
      return statements.status();
    }
    steps = BatchSingleRowInserts(std::move(*statements));
  }
  auto session_or = GetSession(request.session_id);
  if (!session_or.ok()) {
    finish(session_or.status());
    return session_or.status();
  }
  Session* session = *session_or;
  QueryOutcome last;
  // Runs one statement and accounts for it; `last` keeps its outcome.
  auto run = [&](const std::string& statement) -> Status {
    auto one = SubmitWithFailover(session, statement, ctx);
    if (!one.ok()) return one.status();
    last = std::move(*one);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.AddQuery(last.features);
    }
    c_spill_bytes_->Inc(last.timing.spill_bytes);
    if (last.result.store != nullptr) {
      h_result_bytes_->Observe(
          static_cast<double>(last.result.store->memory_bytes()) +
          static_cast<double>(last.result.store->spilled_bytes()));
    }
    return Status::OK();
  };
  RegisterActiveQuery(session, ctx);
  Status st;
  if (!script) st = run(sql);
  for (const ScriptStep& step : steps) {
    st = run(step.sql);
    // A merged run fails as one statement. When its rows made it fail,
    // rerunning its own statements one at a time leaves the rows, and
    // returns the error, that unbatched execution would. Any other failure
    // ends the script as is: a rerun would re-submit past it (after the
    // open-transaction fence, into autocommit).
    if (!st.ok() && !step.run.empty() && StatementRejected(st) &&
        ctx->CheckAlive().ok()) {
      for (const std::string& stmt : step.run) {
        st = run(stmt);
        if (!st.ok()) break;
      }
    }
    if (!st.ok()) break;
  }
  UnregisterActiveQuery(session, ctx);
  finish(st);
  if (!st.ok()) {
    RecordLifecycleFailure(st, ctx);
    return st;
  }
  if (minted != nullptr) last.trace = minted;
  return last;
}

// ---------------------------------------------------------------------------
// protocol::RequestHandler
// ---------------------------------------------------------------------------

Result<protocol::LogonResponse> HyperQService::Logon(
    const protocol::LogonRequest& request) {
  HQ_ASSIGN_OR_RETURN(uint32_t id,
                      OpenSession(request.user, request.default_database));
  protocol::LogonResponse resp;
  resp.ok = true;
  resp.session_id = id;
  resp.message = "session established";
  int backend = session_backend(id);
  if (backend >= 0) {
    resp.message += " on " + pool_->spec(backend).name;
  }
  return resp;
}

void HyperQService::Logoff(uint32_t session_id) { CloseSession(session_id); }

Result<protocol::WireResponse> HyperQService::Run(uint32_t session_id,
                                                  const std::string& sql,
                                                  QueryContext* ctx) {
  c_wire_requests_->Inc();
  QueryRequest request;
  request.session_id = session_id;
  request.ctx = ctx;
  request.session_class = "wire";
  HQ_ASSIGN_OR_RETURN(QueryOutcome outcome,
                      SubmitStatements(request, sql, /*script=*/false));

  protocol::WireResponse resp;
  resp.success.activity_count =
      static_cast<uint64_t>(outcome.result.affected_rows);
  resp.success.tag = outcome.result.command_tag;
  resp.success.translation_micros = outcome.timing.translation_micros;
  resp.success.execution_micros = outcome.timing.execution_micros;

  if (outcome.result.is_rowset()) {
    Stopwatch conversion;
    obs::SpanScope convert_span(ctx, Stage::kConvert);
    auto converted_result = converter_.Convert(outcome.result, ctx);
    convert_span.End();
    if (!converted_result.ok()) {
      // Streaming-phase cancellation (Submit already counted its own).
      RecordLifecycleFailure(converted_result.status(), ctx);
      return converted_result.status();
    }
    convert::ConversionResult converted = std::move(*converted_result);
    // Derive the per-request conversion time from the *last* convert span
    // when a trace is attached: a request that re-entered conversion after
    // streaming a first batch (cancel + failover retry) must not count the
    // abandoned attempt twice. The stopwatch remains the traceless
    // fallback.
    obs::QueryTrace* trace = ctx != nullptr ? ctx->trace() : nullptr;
    double convert_micros = conversion.ElapsedMicros();
    if (trace != nullptr) {
      double last = trace->LastDuration(names::StageName(Stage::kConvert));
      if (last > 0) convert_micros = last;
    }
    outcome.timing.conversion_micros = convert_micros;
    resp.success.conversion_micros = outcome.timing.conversion_micros;
    resp.has_rowset = true;
    resp.header.columns = std::move(converted.columns);
    resp.header.total_rows = converted.total_rows;
    resp.batches = std::move(converted.batches);
    resp.success.activity_count = converted.total_rows;
    h_wire_convert_->Observe(outcome.timing.conversion_micros);
  }
  return resp;
}

}  // namespace hyperq::service
