#include "service/hyperq_service.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <optional>
#include <thread>

#include "common/fault.h"
#include "common/hash.h"
#include "common/stopwatch.h"
#include "common/str_util.h"
#include "emulation/macro.h"
#include "emulation/merge.h"
#include "frontend/feature_scan.h"
#include "observability/metric_names.h"

namespace hyperq::service {

using backend::BackendResult;
using sql::StmtKind;
namespace obs = observability;
namespace names = observability::names;

namespace {
// Copies the connector's retry accounting into the outcome's timing
// breakdown so clients see attempts/backoff next to the Figure 9 split.
void AbsorbResilienceStats(QueryOutcome* out) {
  out->timing.execution_attempts += out->result.attempts;
  out->timing.retry_backoff_micros += out->result.retry_backoff_micros;
}

// Spill accounting (DESIGN.md §8): how many result bytes this statement's
// store pushed to disk, surfaced in the timing breakdown. (The per-query
// QueryContext accounting is updated by the connector itself.)
void AbsorbSpillBytes(QueryOutcome* out) {
  if (out->result.store == nullptr) return;
  out->timing.spill_bytes += out->result.store->spilled_bytes();
}

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

// True for the statuses a cancelled/expired request surfaces; these say
// nothing about the statement itself.
bool IsLifecycleStatus(const Status& s) {
  return s.IsCancelled() || s.IsDeadlineExceeded();
}

// The serializer brackets tagged constants with control bytes while it
// records literal sites; SQL-A that already carries one of those bytes
// gets no sites, and template building falls back to value matching.
bool CanTagLiterals(const std::string& sql_a) {
  return sql_a.find_first_of(serializer::kSiteMarkerBytes) ==
         std::string::npos;
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
      trace_ring_(std::max<size_t>(1, options_.trace_ring_capacity)),
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

  // Tail tolerance (DESIGN.md §11): the budget and brownout controllers are
  // always constructed — both are inert no-ops while disabled — and must
  // exist before the pool, whose connector options carry the budget.
  retry_budget_ = std::make_unique<RetryBudget>(options_.tail.retry_budget);
  brownout_ = std::make_unique<BrownoutController>(options_.tail.brownout,
                                                   options_.governor.get());

  // Fleet mode (DESIGN.md §10): registered backends get a pool + router;
  // sessions are then placed by the router instead of binding the engine.
  if (!options_.fleet.backends.empty()) {
    backend::PoolOptions pool_options;
    pool_options.health = options_.fleet.health;
    pool_options.connector = options_.connector;
    pool_options.connector.retry_budget = retry_budget_.get();
    pool_options.adaptive_limit = options_.tail.adaptive_limit;
    pool_options.governor = options_.governor;
    pool_options.metrics = metrics_;
    pool_ = std::make_unique<backend::BackendPool>(
        engine_, options_.fleet.backends, std::move(pool_options));
    router_ =
        std::make_unique<backend::Router>(pool_.get(),
                                          options_.fleet.route_seed);
    pool_->Start();
  }
}

HyperQService::~HyperQService() {
  // Hedge-loser threads hold pool connectors; every one must drain before
  // the pool (and its breakers/governor hooks) shuts down.
  ReapHedgeStragglers(/*all=*/true);
  if (pool_ != nullptr) pool_->Stop();
}

Result<uint32_t> HyperQService::OpenSession(
    const std::string& user, const std::string& default_database) {
  auto session = std::make_unique<Session>();
  session->id = next_session_.fetch_add(1);
  session->info.user = user.empty() ? "dbc" : user;
  session->info.session_id = static_cast<int>(session->id);
  if (!default_database.empty()) {
    session->info.default_database = default_database;
  }
  if (pool_ != nullptr) {
    // Fleet placement: the router picks the session's home backend by
    // health, load, and capability match with the emitted profile.
    backend::RouteConstraints constraints;
    constraints.emitted = &options_.profile;
    HQ_ASSIGN_OR_RETURN(backend::RouteDecision route,
                        router_->Pick(constraints));
    RecordRoute(route);
    session->backend_index = route.backend;
    session->connector = pool_->CreateConnector(route.backend, session->id);
  } else {
    // Result buffering/spill for this session is charged against the
    // shared governor under the session's id (DESIGN.md §8).
    backend::ConnectorOptions connector_options = options_.connector;
    if (connector_options.governor == nullptr) {
      connector_options.governor = options_.governor;
    }
    connector_options.session_tag = session->id;
    if (connector_options.metrics == nullptr) {
      connector_options.metrics = metrics_;
    }
    if (connector_options.retry_budget == nullptr) {
      connector_options.retry_budget = retry_budget_.get();
    }
    session->connector = std::make_unique<backend::BackendConnector>(
        engine_, connector_options);
  }
  session->backend_epoch = session->connector->connection_epoch();
  session->settings_digest = SettingsDigest(session->info);
  uint32_t id = session->id;
  std::lock_guard<std::mutex> lock(mutex_);
  sessions_.emplace(id, std::move(session));
  return id;
}

void HyperQService::CloseSession(uint32_t session_id) {
  std::unique_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) return;
    session = std::move(it->second);
    sessions_.erase(it);
  }
  // Volatile tables are session-scoped: drop them on logoff.
  for (const std::string& table : session->volatile_tables) {
    (void)session->connector->Execute("DROP TABLE IF EXISTS " + table);
    std::lock_guard<std::mutex> lock(mutex_);
    if (catalog_.HasTable(table)) (void)catalog_.DropTable(table);
    auto it = volatile_names_.find(table);
    if (it != volatile_names_.end() && --it->second <= 0) {
      volatile_names_.erase(it);
    }
  }
  if (!session->volatile_tables.empty()) {
    InvalidateTranslationCacheAfterDdl();
  }
}

Result<HyperQService::Session*> HyperQService::GetSession(uint32_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::InvalidArgument("unknown session ", id);
  }
  return it->second.get();
}

WorkloadFeatureStats HyperQService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void HyperQService::ResetStats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = WorkloadFeatureStats();
}

// The deprecated typed accessors are views over the registry now: each
// field reads the counter (or histogram sum) that replaced it.
ServiceResilienceStats HyperQService::resilience_stats() const {
  ServiceResilienceStats out;
  out.failovers = c_failovers_->value();
  out.statements_replayed = c_statements_replayed_->value();
  out.aborted_in_txn = c_aborted_in_txn_->value();
  out.journal_overflows = c_journal_overflows_->value();
  out.wire_requests = c_wire_requests_->value();
  out.wire_conversion_micros = h_wire_convert_->snapshot().sum;
  return out;
}

TranslationActivityStats HyperQService::translation_activity() const {
  TranslationActivityStats out;
  out.submit_statements = c_submit_statements_->value();
  out.translate_statements = c_translate_statements_->value();
  out.cache_hits = c_translate_cache_hits_->value();
  out.translate_micros = h_translate_->snapshot().sum;
  return out;
}

ServiceLifecycleStats HyperQService::lifecycle_stats() const {
  ServiceLifecycleStats out;
  out.cancelled = c_cancelled_->value();
  out.deadline_expired = c_deadline_expired_->value();
  out.client_gone = c_client_gone_->value();
  out.killed = c_killed_->value();
  out.spill_bytes = c_spill_bytes_->value();
  if (options_.governor != nullptr) {
    out.shed_queries = options_.governor->stats().shed_queries;
  }
  return out;
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
    metrics_->gauge(names::kGovernorBackendSlotDenials)
        ->Set(g.backend_slot_denials);
  }
  // Per-backend health/in-flight levels and the per-state backend counts
  // (the lint-checked kHealthStateMetrics table).
  if (pool_ != nullptr) pool_->MirrorGauges();
  // Tail-tolerance levels (DESIGN.md §11): budget tokens and brownout
  // state, mirrored so one scrape shows the whole control loop.
  {
    RetryBudgetStats b = retry_budget_->stats();
    metrics_->gauge(names::kRetryBudgetTokens)
        ->Set(static_cast<int64_t>(b.tokens));
    metrics_->gauge(names::kRetryBudgetDeposits)->Set(b.deposits);
    metrics_->gauge(names::kRetryBudgetWithdrawals)->Set(b.withdrawals);
    metrics_->gauge(names::kRetryBudgetDenials)->Set(b.denials);
    BrownoutStats br = brownout_->stats();
    metrics_->gauge(names::kBrownoutActive)->Set(br.active ? 1 : 0);
    metrics_->gauge(names::kBrownoutEntries)->Set(br.entries);
    metrics_->gauge(names::kBrownoutExits)->Set(br.exits);
    metrics_->gauge(names::kBrownoutShedRequests)->Set(br.shed_requests);
    metrics_->gauge(names::kBrownoutQueueDepth)->Set(br.queue_depth);
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
  snap.resilience = resilience_stats();
  snap.lifecycle = lifecycle_stats();
  snap.translation_cache = translation_cache_.stats();
  snap.translation_activity = translation_activity();
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
  if (options_.query_outcome_hook) {
    options_.query_outcome_hook(OutcomeLabel(status, nullptr));
  }
}

void HyperQService::RecordFinishedTrace(
    const std::shared_ptr<const obs::QueryTrace>& trace) {
  if (trace == nullptr) return;
  double total = trace->total_micros();
  metrics_
      ->histogram(obs::LabeledName(names::kQueryMicros,
                                   {{"class", trace->session_class()}}))
      ->Observe(total);
  for (const auto& span : trace->spans()) {
    if (span.id == 0 || span.duration_micros < 0) continue;
    metrics_
        ->histogram(
            obs::LabeledName(names::kStageMicros, {{"stage", span.name}}))
        ->Observe(span.duration_micros);
  }
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

void HyperQService::RegisterActiveQuery(uint32_t session_id,
                                        QueryContext* ctx) {
  std::lock_guard<std::mutex> lock(mutex_);
  active_queries_[session_id] = ctx;
}

void HyperQService::UnregisterActiveQuery(uint32_t session_id,
                                          QueryContext* ctx) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = active_queries_.find(session_id);
  if (it != active_queries_.end() && it->second == ctx) {
    active_queries_.erase(it);
  }
}

bool HyperQService::KillQuery(uint32_t session_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = active_queries_.find(session_id);
  if (it == active_queries_.end()) return false;
  it->second->Cancel(
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
// Translation cache (DESIGN.md §7)
// ---------------------------------------------------------------------------

bool HyperQService::IsCacheableShape(const sql::NormalizedStatement& norm) {
  if (norm.has_parameters) return false;
  const std::string& k = norm.first_keyword;
  // Single-statement query/DML pipeline shapes only. DDL, session
  // commands, macros, MERGE, and WITH (recursive emulation) bypass.
  return k == "SEL" || k == "SELECT" || k == "INS" || k == "INSERT" ||
         k == "UPD" || k == "UPDATE" || k == "DEL" || k == "DELETE";
}

bool HyperQService::TouchesVolatileName(
    const std::vector<std::string>& idents) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (volatile_names_.empty()) return false;
  for (const std::string& id : idents) {
    if (volatile_names_.count(id) > 0) return true;
  }
  return false;
}

uint64_t HyperQService::SettingsDigest(const SessionInfo& info) {
  // Only settings that can change the produced SQL-B participate; user and
  // session_id deliberately do not, so sessions with identical settings
  // share cache entries.
  uint64_t h = Fnv1a64(info.default_database);
  h = Fnv1a64("\x1f", h);
  h = Fnv1a64(info.charset, h);
  h = Fnv1a64("\x1f", h);
  h = Fnv1a64(info.transaction_semantics, h);
  h = Fnv1a64("\x1f", h);
  h = Fnv1a64(info.collation, h);
  return h;
}

std::string HyperQService::MakeCacheKey(uint64_t settings_digest,
                                        const sql::NormalizedStatement& norm,
                                        int64_t catalog_version) const {
  std::string key;
  key.reserve(norm.template_sql.size() + norm.literal_signature.size() +
              profile_digest_.size() + 48);
  key += norm.template_sql;
  key += '\x1f';
  key += norm.literal_signature;
  key += '\x1f';
  key += profile_digest_;
  key += '\x1f';
  key += std::to_string(settings_digest);
  key += '\x1f';
  key += std::to_string(catalog_version);
  return key;
}

void HyperQService::MaybeCacheTranslation(
    const std::string& cache_key, const sql::NormalizedStatement& norm,
    const std::string& sql_b,
    const std::vector<serializer::LiteralSite>& sites,
    const FeatureSet& features, int64_t catalog_version,
    const QueryContext* ctx) {
  // Emulation markers (e.g. the recursive-query comment) are not
  // executable SQL-B and must never be replayed from the cache.
  if (sql_b.rfind("--", 0) == 0) {
    translation_cache_.RecordBypass();
    return;
  }
  std::vector<std::string> sql_b_idents;
  auto built = BuildTranslationTemplate(sql_b, norm, sites, &sql_b_idents);
  if (!built.ok()) {
    translation_cache_.RecordBypass();
    // Negative-cache the shape so permanently uncacheable statements skip
    // template building on every later miss. A cancelled request never
    // plants the marker: only a clean cold run rules on the shape.
    if (ctx != nullptr && ctx->cancelled()) return;
    if (IsLifecycleStatus(built.status())) return;
    CachedTranslation marker;
    marker.uncacheable = true;
    marker.catalog_version = catalog_version;
    translation_cache_.Insert(cache_key, std::move(marker));
    return;
  }
  // A view or macro can smuggle a session-scoped volatile table into the
  // serialized text even when SQL-A never names it.
  if (TouchesVolatileName(sql_b_idents)) {
    translation_cache_.RecordBypass();
    return;
  }
  built->features = features;
  built->catalog_version = catalog_version;
  translation_cache_.Insert(cache_key, std::move(*built));
}

void HyperQService::InvalidateTranslationCacheAfterDdl() {
  if (!options_.translation_cache.enabled) return;
  // Versioned keys already make stale entries unreachable; the sweep
  // reclaims their bytes and counts them as invalidations.
  translation_cache_.InvalidateCatalogVersion(catalog_.version());
}

void HyperQService::RecordTranslationActivity(bool translate_path,
                                              bool cache_hit, double micros) {
  if (translate_path) {
    c_translate_statements_->Inc();
  } else {
    c_submit_statements_->Inc();
  }
  if (cache_hit) c_translate_cache_hits_->Inc();
  h_translate_->Observe(micros);
}

Result<QueryOutcome> HyperQService::ExecuteCachedStatement(
    Session* session, const CachedTranslation& entry, std::string sql_b,
    const Stopwatch& translation, QueryContext* ctx, bool select_shape) {
  translation_cache_.RecordHit();
  QueryOutcome out;
  out.features = entry.features;
  out.timing.cache_hits = 1;
  // The whole parse→bind→transform→serialize pipeline was skipped;
  // translation cost is normalize + lookup + splice. The cached template
  // was emitted under the active dialect (it is part of the cache key).
  out.timing.translation_micros = translation.ElapsedMicros();
  out.timing.dialect = serializer_.dialect().Name();
  out.backend_sql.push_back(sql_b);
  Stopwatch execution;
  {
    obs::SpanScope exec_span(ctx, "backend.execute");
    HQ_ASSIGN_OR_RETURN(out.result,
                        ExecuteOnBackend(session, sql_b, ctx, select_shape));
  }
  out.timing.execution_micros = execution.ElapsedMicros();
  out.timing.hedges += out.result.hedges;
  out.timing.hedge_won = out.result.hedge_won;
  AbsorbResilienceStats(&out);
  AbsorbSpillBytes(&out);
  return out;
}

size_t HyperQService::journal_size(uint32_t session_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(session_id);
  return it == sessions_.end() ? 0 : it->second->journal.size();
}

// ---------------------------------------------------------------------------
// Failover: session journal & replay (DESIGN.md §6, "Failover & overload")
// ---------------------------------------------------------------------------

void HyperQService::AppendJournal(Session* session, JournalEntry entry) {
  if (session->journal_overflow) return;
  if (session->journal.size() >= options_.failover.max_journal_entries) {
    // Past the cap the journal can no longer reproduce the session: drop it
    // entirely (a truncated replay would be silently wrong) and degrade
    // failover to a clean error.
    session->journal_overflow = true;
    session->journal.clear();
    session->journal.shrink_to_fit();
    return;
  }
  session->journal.push_back(std::move(entry));
}

void HyperQService::CompactJournal(Session* session,
                                   const std::string& table) {
  auto& j = session->journal;
  j.erase(std::remove_if(j.begin(), j.end(),
                         [&](const JournalEntry& e) {
                           return !e.table.empty() && e.table == table;
                         }),
          j.end());
}

bool HyperQService::IsVolatileTable(const Session* session,
                                    const std::string& name) const {
  for (const auto& t : session->volatile_tables) {
    if (t == name) return true;
  }
  return false;
}

bool HyperQService::StatementIsNonIdempotent(const sql::Statement& stmt) {
  switch (stmt.kind) {
    case StmtKind::kInsert:
    case StmtKind::kUpdate:
    case StmtKind::kDelete:
    case StmtKind::kMerge:
    case StmtKind::kExecMacro:  // macro bodies may contain DML
      return true;
    default:
      return false;
  }
}

Result<int> HyperQService::ReplaySessionJournal(Session* session) {
  if (session->journal_overflow) {
    c_journal_overflows_->Inc();
    return Status::Unavailable(
        "backend session lost and the session journal overflowed (limit ",
        options_.failover.max_journal_entries,
        " entries); session state cannot be replayed");
  }
  int replayed = 0;
  for (const auto& entry : session->journal) {
    if (entry.kind == JournalEntry::Kind::kSetSession) {
      // Mid-tier state: it survives in the DTM; nothing reaches the target.
      ++replayed;
      continue;
    }
    if (entry.kind == JournalEntry::Kind::kTempTableDdl &&
        !entry.table.empty()) {
      // Cross-replica replay may land where an orphaned copy of the
      // volatile table still exists (compute replicas over shared
      // storage); clear it so the journaled CREATE cannot collide.
      (void)session->connector->Execute("DROP TABLE IF EXISTS " +
                                        entry.table);
    }
    auto result = session->connector->Execute(entry.sql);
    if (!result.ok()) {
      return result.status().WithContext("session journal replay of '" +
                                         entry.sql + "'");
    }
    if (entry.kind == JournalEntry::Kind::kTempTableDdl &&
        !entry.table.empty()) {
      // The (possibly new) connector must track the recreated table as
      // session-scoped so a later loss drops it again.
      session->connector->NoteSessionTable(entry.table);
    }
    ++replayed;
  }
  session->backend_epoch = session->connector->connection_epoch();
  c_failovers_->Inc();
  c_statements_replayed_->Inc(replayed);
  return replayed;
}

Result<QueryOutcome> HyperQService::SubmitWithFailover(
    Session* session, const std::string& sql_a, QueryContext* ctx) {
  if (pool_ != nullptr) return SubmitWithFleetFailover(session, sql_a, ctx);
  auto outcome = SubmitInternal(session, sql_a, 0, ctx);
  if (outcome.ok() || !outcome.status().IsSessionLost()) return outcome;
  if (!options_.failover.enabled) {
    return Status::Unavailable("backend session lost (failover disabled): ",
                               outcome.status().message());
  }
  // A cancelled/expired request gets no transparent failover retry; the
  // session is still repaired so the next statement finds it healthy.
  if (ctx != nullptr) {
    Status alive = ctx->CheckAlive();
    if (!alive.ok()) {
      (void)ReplaySessionJournal(session);
      return alive;
    }
  }

  // Idempotency fence: a statement with side effects that died inside an
  // open transaction cannot be transparently re-run — the transaction is
  // gone with the session, and re-executing DML could double-apply it.
  // The session itself is still repaired for subsequent statements.
  bool non_idempotent = false;
  auto parsed = sql::ParseStatement(sql_a, frontend_dialect_);
  if (parsed.ok()) non_idempotent = StatementIsNonIdempotent(**parsed);
  if (session->txn_depth > 0 && non_idempotent) {
    (void)ReplaySessionJournal(session);  // best-effort session repair
    session->txn_depth = 0;  // the backend transaction died with the session
    c_aborted_in_txn_->Inc();
    return Status::Aborted(
        "backend session lost while a non-idempotent statement was in "
        "flight inside an open transaction; transaction rolled back — "
        "resubmit the transaction (", outcome.status().message(), ")");
  }

  HQ_ASSIGN_OR_RETURN(int replayed, ReplaySessionJournal(session));
  auto retried = SubmitInternal(session, sql_a, 0, ctx);
  if (retried.ok()) {
    retried->timing.failovers += 1;
    retried->timing.journal_replays += replayed;
  }
  return retried;
}

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
}  // namespace

bool HyperQService::JournalRequiresProfile(const Session* session) {
  for (const auto& entry : session->journal) {
    if (entry.kind == JournalEntry::Kind::kSetSession) return true;
  }
  return false;
}

void HyperQService::RecordRoute(const backend::RouteDecision& route) {
  if (pool_ == nullptr || route.backend < 0) return;
  metrics_
      ->counter(obs::LabeledName(
          names::kBackendRoute,
          {{"backend", pool_->spec(route.backend).name},
           {"reason", route.reason}}))
      ->Inc();
}

Status HyperQService::RebindSession(Session* session, int target) {
  if (session->backend_index == target) return Status::OK();
  if (session->connector != nullptr && session->backend_index >= 0) {
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
  session->backend_index = target;
  session->backend_epoch = session->connector->connection_epoch();
  return Status::OK();
}

Result<QueryOutcome> HyperQService::SubmitWithFleetFailover(
    Session* session, const std::string& sql_a, QueryContext* ctx) {
  const int max_attempts = std::max(1, options_.fleet.max_failover_attempts);
  std::vector<int> failed;   // backends that failed this query
  bool needs_replay = false;  // same-replica session loss pending repair
  int failovers = 0;
  int total_replayed = 0;
  Status last_error;

  // The open-transaction fence (same semantics as single-backend mode):
  // the backend transaction died with the session/replica, and a statement
  // with side effects must not be transparently re-run.
  auto txn_fence = [&](const Status& cause) -> Status {
    if (session->txn_depth <= 0) return Status::OK();
    bool non_idempotent = false;
    auto parsed = sql::ParseStatement(sql_a, frontend_dialect_);
    if (parsed.ok()) non_idempotent = StatementIsNonIdempotent(**parsed);
    session->txn_depth = 0;  // the backend transaction is gone either way
    if (!non_idempotent) return Status::OK();
    c_aborted_in_txn_->Inc();
    return Status::Aborted(
        "backend lost while a non-idempotent statement was in flight "
        "inside an open transaction; transaction rolled back — resubmit "
        "the transaction (",
        cause.message(), ")");
  };

  // Every re-placement after the first attempt is a retry from the
  // backend's point of view and must win a token from the global retry
  // budget (DESIGN.md §11); the typed denial is deliberately not
  // failover-eligible, which is what stops the amplification chain.
  auto budget_gate = [&](const Status& cause) -> Status {
    if (retry_budget_->TryWithdraw()) return Status::OK();
    return cause.WithDetail(StatusDetail::kRetryBudgetExhausted);
  };

  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    backend::RouteConstraints constraints;
    constraints.emitted = &options_.profile;
    constraints.sticky = session->backend_index;
    constraints.exclude = failed;
    if (JournalRequiresProfile(session) && session->backend_index >= 0) {
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
      }
      if (!last_error.ok()) {
        return s.WithContext("failing over from: " + last_error.ToString());
      }
      return s;
    }
    RecordRoute(*route);
    if (route->backend != session->backend_index) {
      // Cross-replica move: proactive (the bound backend is ejected or
      // killed) or reactive (it just failed this query). Fence the open
      // transaction, rebind, and replay the session journal there.
      HQ_RETURN_IF_ERROR(txn_fence(last_error));
      HQ_RETURN_IF_ERROR(RebindSession(session, route->backend));
      auto replayed = ReplaySessionJournal(session);
      if (!replayed.ok()) {
        if (FailoverEligible(replayed.status())) {
          last_error = replayed.status();
          failed.push_back(route->backend);
          HQ_RETURN_IF_ERROR(budget_gate(last_error));
          continue;
        }
        return replayed.status();
      }
      needs_replay = false;
      total_replayed += *replayed;
      ++failovers;
      c_failover_cross_replica_->Inc();
    } else if (needs_replay) {
      // Same-replica session loss (transient, not a dead instance): repair
      // in place, exactly like single-backend failover.
      HQ_ASSIGN_OR_RETURN(int replayed, ReplaySessionJournal(session));
      needs_replay = false;
      total_replayed += replayed;
      ++failovers;
    }

    Status acquired = pool_->Acquire(route->backend);
    if (!acquired.ok()) {
      last_error = acquired;
      failed.push_back(route->backend);
      if (FailoverEligible(acquired) || acquired.IsResourceExhausted()) {
        HQ_RETURN_IF_ERROR(budget_gate(last_error));
        continue;  // in-flight cap or just-killed: try another replica
      }
      return acquired;
    }
    auto outcome = SubmitInternal(session, sql_a, 0, ctx);
    // When a hedge replica produced the result, the primary's slot is the
    // losing leg: release it without feeding the scorer or the limiter
    // (the hedge path already released the winner with real timing).
    bool hedge_won = outcome.ok() && outcome->result.hedge_won;
    pool_->Release(route->backend,
                   outcome.ok() ? Status::OK() : outcome.status(),
                   outcome.ok() && !hedge_won
                       ? outcome->timing.execution_micros
                       : -1,
                   hedge_won ? backend::BackendPool::ReleaseKind::kHedgeLoser
                             : backend::BackendPool::ReleaseKind::kNormal);
    if (outcome.ok()) {
      outcome->timing.failovers += failovers;
      outcome->timing.journal_replays += total_replayed;
      return outcome;
    }
    Status s = outcome.status();
    // A cancelled/expired request gets no more attempts anywhere.
    if (ctx != nullptr) {
      Status alive = ctx->CheckAlive();
      if (!alive.ok()) return alive;
    }
    if (!FailoverEligible(s)) return s;
    if (!options_.failover.enabled) {
      return Status::Unavailable("backend lost (failover disabled): ",
                                 s.message());
    }
    HQ_RETURN_IF_ERROR(txn_fence(s));
    last_error = s;
    if (s.IsSessionLost() && s.detail() == StatusDetail::kNone) {
      // The session flaked but the instance may be fine: allow a sticky
      // retry after journal replay instead of burning a replica.
      needs_replay = true;
    } else {
      failed.push_back(route->backend);
    }
    HQ_RETURN_IF_ERROR(budget_gate(last_error));
  }
  return last_error;
}

// ---------------------------------------------------------------------------
// Hedged execution (DESIGN.md §11)
// ---------------------------------------------------------------------------

bool HyperQService::HedgeEligible(const Session* session) const {
  if (!options_.tail.hedge.enabled) return false;
  // A hedge needs a second replica to race.
  if (pool_ == nullptr || router_ == nullptr || pool_->size() < 2) {
    return false;
  }
  if (session->backend_index < 0) return false;
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
  double q = snap.Quantile(options_.tail.hedge.percentile);
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
  const auto slice = std::chrono::milliseconds(
      std::max(1, options_.tail.hedge.poll_interval_ms));
  Stopwatch waited;
  {
    std::unique_lock<std::mutex> lock(shared->mutex);
    while (!shared->primary_done &&
           waited.ElapsedMicros() < static_cast<double>(threshold)) {
      shared->cv.wait_for(lock, slice);
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
      shared->cv.wait_for(lock, slice);
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
      pool_->Release(hedge_backend, Status::OK(), -1,
                     backend::BackendPool::ReleaseKind::kHedgeLoser);
      return harvest_primary(waited.ElapsedMicros());
    }
    shared->hedge_ctx = hedge_ctx;
  }

  c_hedge_launched_->Inc();
  hedges_in_flight_.fetch_add(1, std::memory_order_relaxed);
  Result<BackendResult> hedge_result = [&]() {
    obs::SpanScope hedge_span(ctx, "backend.hedge");
    hedge_span.Annotate("backend", pool_->spec(hedge_backend).name);
    std::unique_ptr<backend::BackendConnector> hedge_conn =
        pool_->CreateConnector(hedge_backend, session->id);
    return hedge_conn->Execute(sql_b, hedge_ctx.get());
  }();
  hedges_in_flight_.fetch_sub(1, std::memory_order_relaxed);
  double hedge_latency = waited.ElapsedMicros();

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
    pool_->Release(hedge_backend, Status::OK(), hedge_latency,
                   backend::BackendPool::ReleaseKind::kNormal);
    hedge_result->hedges = 1;
    hedge_result->hedge_won = true;
    hedge_result->hedge_backend = hedge_backend;
    return hedge_result;
  }

  // Hedge lost: either the primary beat it (and cancelled it), or the
  // hedge itself failed. A cancelled/failed-by-cancel leg must not feed the
  // scorer or the limiter; a genuine hedge error scores normally.
  bool hedge_cancelled = !hedge_result.ok() &&
                         (hedge_result.status().IsCancelled() ||
                          hedge_result.status().IsDeadlineExceeded());
  if (hedge_cancelled) c_hedge_cancelled_->Inc();
  pool_->Release(hedge_backend,
                 hedge_result.ok() ? Status::OK() : hedge_result.status(),
                 -1,
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

// ---------------------------------------------------------------------------
// Local result packaging
// ---------------------------------------------------------------------------

BackendResult HyperQService::PackageLocal(
    const emulation::LocalResult& local) {
  BackendResult out;
  std::vector<SqlType> types;
  types.reserve(local.columns.size());
  for (const auto& col : local.columns) {
    out.columns.push_back({col.name, col.type});
    types.push_back(col.type);
  }
  out.store = std::make_shared<backend::ResultStore>();
  out.store->set_schema(out.columns);
  std::shared_ptr<const vdb::ColumnBatch> batch =
      vdb::BatchFromRows(types, local.rows, 0, local.rows.size());
  (void)out.store->AppendBatch(batch, 0, batch->rows);
  out.command_tag = "HELP";
  return out;
}

BackendResult HyperQService::CommandResult(const std::string& tag,
                                           int64_t activity) {
  BackendResult out;
  out.command_tag = tag;
  out.affected_rows = activity;
  return out;
}

// ---------------------------------------------------------------------------
// Submission
// ---------------------------------------------------------------------------

Result<QueryOutcome> HyperQService::Submit(uint32_t session_id,
                                           const std::string& sql_a,
                                           QueryContext* ctx) {
  QueryRequest request;
  request.session_id = session_id;
  request.sql = sql_a;
  request.ctx = ctx;
  return Submit(request);
}

Result<QueryOutcome> HyperQService::Submit(const QueryRequest& request) {
  // Tail tolerance (DESIGN.md §11): each request tops up the retry budget,
  // and under brownout the low-priority session classes are shed before
  // any work — no trace, no session lookup, one typed error frame.
  retry_budget_->NoteRequest();
  if (Status shed = brownout_->Admit(request.session_class); !shed.ok()) {
    RecordQueryOutcome(shed);
    return shed;
  }
  // Library callers without a context still get governance: the service
  // mints one so KillQuery and the default deadline apply uniformly.
  QueryContext local_ctx;
  QueryContext* ctx = request.ctx != nullptr ? request.ctx : &local_ctx;
  if (options_.default_query_deadline_ms > 0) {
    ctx->TightenDeadline(Deadline::After(options_.default_query_deadline_ms));
  }
  // Library-path tracing: mint a span tree when the context carries none.
  // A trace attached by the wire path stays externally owned — the server
  // closes wire.write and finishes it after this returns.
  std::shared_ptr<obs::QueryTrace> minted;
  if (options_.tracing && request.trace && ctx->trace() == nullptr) {
    minted = std::make_shared<obs::QueryTrace>();
    minted->set_session_id(request.session_id);
    minted->set_query(request.sql);
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
  auto session_or = GetSession(request.session_id);
  if (!session_or.ok()) {
    finish(session_or.status());
    return session_or.status();
  }
  Session* session = *session_or;
  RegisterActiveQuery(request.session_id, ctx);
  auto outcome = SubmitWithFailover(session, request.sql, ctx);
  UnregisterActiveQuery(request.session_id, ctx);
  finish(outcome.ok() ? Status::OK() : outcome.status());
  if (!outcome.ok()) {
    RecordLifecycleFailure(outcome.status(), ctx);
    return outcome.status();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.AddQuery(outcome->features);
  }
  c_spill_bytes_->Inc(outcome->timing.spill_bytes);
  if (outcome->result.store != nullptr) {
    h_result_bytes_->Observe(
        static_cast<double>(outcome->result.store->memory_bytes()) +
        static_cast<double>(outcome->result.store->spilled_bytes()));
  }
  if (minted != nullptr) outcome->trace = minted;
  return outcome;
}

Result<QueryOutcome> HyperQService::SubmitInternal(Session* session,
                                                   const std::string& sql_a,
                                                   int depth,
                                                   QueryContext* ctx) {
  if (depth > 8) {
    return Status::ExecutionError("statement expansion too deep (macro "
                                  "recursion?)");
  }
  // Translating-phase gate: a request cancelled before (or between)
  // statements never enters the pipeline.
  if (ctx != nullptr) {
    HQ_RETURN_IF_ERROR(ctx->CheckAlive());
  }
  Stopwatch translation;
  // The normalize+lookup probe is one stage span; a hit then proceeds to
  // backend.execute as a sibling (never nested under the lookup).
  obs::SpanScope cache_span(ctx, "cache.lookup");
  HQ_ASSIGN_OR_RETURN(sql::NormalizedStatement norm,
                      sql::NormalizeStatement(sql_a));

  // Translation cache fast path: a repeat shape skips the whole
  // parse→bind→transform→serialize pipeline (and the feature scan — the
  // cached entry carries the cold run's feature footprint).
  bool cache_candidate = false;
  std::string cache_key;
  int64_t catalog_version = 0;
  if (options_.translation_cache.enabled) {
    if (!IsCacheableShape(norm) ||
        TouchesVolatileName(norm.identifiers)) {
      translation_cache_.RecordBypass();
    } else {
      cache_candidate = true;
      catalog_version = catalog_.version();
      cache_key =
          MakeCacheKey(session->settings_digest, norm, catalog_version);
      if (auto entry = translation_cache_.Lookup(cache_key)) {
        if (entry->uncacheable) {
          // Negative marker: this shape was probed before and proven
          // non-parameterizable. Translate cold, don't re-probe.
          translation_cache_.RecordBypass();
          cache_candidate = false;
        } else if (auto spliced = SpliceTranslationTemplate(*entry, norm);
                   spliced.ok()) {
          cache_span.End();
          bool select_shape = norm.first_keyword == "SEL" ||
                              norm.first_keyword == "SELECT";
          auto outcome = ExecuteCachedStatement(session, *entry,
                                                std::move(*spliced),
                                                translation, ctx,
                                                select_shape);
          if (outcome.ok()) {
            RecordTranslationActivity(/*translate_path=*/false,
                                      /*cache_hit=*/true,
                                      outcome->timing.translation_micros);
          }
          return outcome;
        } else {
          // This statement's literals cannot be safely spliced into the
          // incumbent template (e.g. temporal-coercion guard); take the
          // cold path without replacing the entry.
          translation_cache_.RecordBypass();
          cache_candidate = false;
        }
      }
    }
  }

  cache_span.End();
  FeatureSet features;
  obs::SpanScope parse_span(ctx, "parse");
  HQ_RETURN_IF_ERROR(
      frontend::ScanTranslationFeatures(sql_a, &features));
  HQ_ASSIGN_OR_RETURN(sql::StatementPtr stmt,
                      sql::ParseStatement(sql_a, frontend_dialect_));
  parse_span.End();
  double parse_micros = translation.ElapsedMicros();
  bool pipeline_kind = stmt->kind == StmtKind::kSelect ||
                       stmt->kind == StmtKind::kInsert ||
                       stmt->kind == StmtKind::kUpdate ||
                       stmt->kind == StmtKind::kDelete;
  PipelineArtifacts artifacts;
  artifacts.want_sites =
      cache_candidate && pipeline_kind && CanTagLiterals(sql_a);
  auto executed = ExecuteStatement(session, *stmt, sql_a, std::move(features),
                                   depth, ctx, &artifacts);
  if (!executed.ok()) {
    // Cancellation that struck after serialization does not impugn the
    // translation itself: admit the template so the inevitable retry of
    // this shape hits the cache instead of re-translating (DESIGN.md §8).
    if (cache_candidate && pipeline_kind && artifacts.serialized &&
        IsLifecycleStatus(executed.status())) {
      MaybeCacheTranslation(cache_key, norm, artifacts.sql_b, artifacts.sites,
                            artifacts.features, catalog_version, ctx);
    }
    return executed.status();
  }
  QueryOutcome outcome = std::move(*executed);
  outcome.timing.translation_micros += parse_micros;
  if (cache_candidate && pipeline_kind && outcome.backend_sql.size() == 1) {
    MaybeCacheTranslation(cache_key, norm, outcome.backend_sql[0],
                          artifacts.sites, outcome.features, catalog_version,
                          ctx);
  }
  RecordTranslationActivity(/*translate_path=*/false, /*cache_hit=*/false,
                            outcome.timing.translation_micros);
  return outcome;
}

Result<QueryOutcome> HyperQService::ExecuteStatement(
    Session* session, const sql::Statement& stmt, const std::string& sql_a,
    FeatureSet features, int depth, QueryContext* ctx,
    PipelineArtifacts* artifacts) {
  switch (stmt.kind) {
    case StmtKind::kSelect:
    case StmtKind::kInsert:
    case StmtKind::kUpdate:
    case StmtKind::kDelete:
      return RunPipeline(session, stmt, std::move(features), ctx, artifacts);

    case StmtKind::kCreateTable:
      return HandleCreateTable(session,
                               *stmt.As<sql::CreateTableStatement>(),
                               std::move(features), ctx);
    case StmtKind::kDropTable:
      return HandleDropTable(session, *stmt.As<sql::DropTableStatement>(),
                             std::move(features), ctx);

    case StmtKind::kCreateView:
    case StmtKind::kReplaceView: {
      const auto* cv = stmt.As<sql::CreateViewStatement>();
      ViewDef view;
      view.name = Catalog::NormalizeName(cv->view);
      view.column_names = cv->columns;
      view.definition_sql = cv->query_sql;
      std::lock_guard<std::mutex> lock(mutex_);
      if (stmt.kind == StmtKind::kReplaceView && catalog_.HasView(cv->view)) {
        HQ_RETURN_IF_ERROR(catalog_.DropView(cv->view));
      }
      HQ_RETURN_IF_ERROR(catalog_.CreateView(std::move(view)));
      InvalidateTranslationCacheAfterDdl();
      QueryOutcome out;
      out.result = CommandResult("CREATE VIEW");
      out.features = std::move(features);
      return out;
    }
    case StmtKind::kDropView: {
      std::lock_guard<std::mutex> lock(mutex_);
      HQ_RETURN_IF_ERROR(
          catalog_.DropView(stmt.As<sql::DropViewStatement>()->view));
      InvalidateTranslationCacheAfterDdl();
      QueryOutcome out;
      out.result = CommandResult("DROP VIEW");
      out.features = std::move(features);
      return out;
    }

    case StmtKind::kCreateMacro: {
      const auto* cm = stmt.As<sql::CreateMacroStatement>();
      MacroDef macro;
      macro.name = Catalog::NormalizeName(cm->macro);
      for (const auto& p : cm->params) {
        macro.params.push_back(
            {p.name, p.type, p.default_literal, p.has_default});
      }
      macro.body_statements = cm->body_statements;
      features.Record(Feature::kMacros);
      std::lock_guard<std::mutex> lock(mutex_);
      HQ_RETURN_IF_ERROR(catalog_.CreateMacro(std::move(macro)));
      InvalidateTranslationCacheAfterDdl();
      QueryOutcome out;
      out.result = CommandResult("CREATE MACRO");
      out.features = std::move(features);
      return out;
    }
    case StmtKind::kDropMacro: {
      features.Record(Feature::kMacros);
      std::lock_guard<std::mutex> lock(mutex_);
      HQ_RETURN_IF_ERROR(
          catalog_.DropMacro(stmt.As<sql::DropMacroStatement>()->macro));
      InvalidateTranslationCacheAfterDdl();
      QueryOutcome out;
      out.result = CommandResult("DROP MACRO");
      out.features = std::move(features);
      return out;
    }

    case StmtKind::kExecMacro: {
      const auto* exec = stmt.As<sql::ExecMacroStatement>();
      features.Record(Feature::kMacros);
      const MacroDef* macro;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        HQ_ASSIGN_OR_RETURN(macro, catalog_.GetMacro(exec->macro));
      }
      HQ_ASSIGN_OR_RETURN(std::vector<std::string> statements,
                          emulation::ExpandMacro(*macro, *exec));
      QueryOutcome combined;
      combined.features = std::move(features);
      int64_t total_activity = 0;
      for (const std::string& body_sql : statements) {
        HQ_ASSIGN_OR_RETURN(QueryOutcome one,
                            SubmitInternal(session, body_sql, depth + 1,
                                           ctx));
        total_activity += one.result.affected_rows;
        combined.timing.translation_micros += one.timing.translation_micros;
        combined.timing.execution_micros += one.timing.execution_micros;
        combined.timing.retry_backoff_micros +=
            one.timing.retry_backoff_micros;
        combined.timing.execution_attempts += one.timing.execution_attempts;
        combined.timing.cache_hits += one.timing.cache_hits;
        if (combined.timing.dialect.empty()) {
          combined.timing.dialect = one.timing.dialect;
        }
        combined.features.Merge(one.features);
        combined.backend_sql.insert(combined.backend_sql.end(),
                                    one.backend_sql.begin(),
                                    one.backend_sql.end());
        combined.result = std::move(one.result);
      }
      combined.result.affected_rows = total_activity;
      return combined;
    }

    case StmtKind::kMerge: {
      features.Record(Feature::kMerge);
      HQ_ASSIGN_OR_RETURN(
          std::vector<sql::StatementPtr> parts,
          emulation::LowerMerge(*stmt.As<sql::MergeStatement>()));
      QueryOutcome combined;
      combined.features = std::move(features);
      int64_t total_activity = 0;
      for (const auto& part : parts) {
        HQ_ASSIGN_OR_RETURN(QueryOutcome one,
                            RunPipeline(session, *part, FeatureSet(), ctx));
        total_activity += one.result.affected_rows;
        combined.timing.translation_micros += one.timing.translation_micros;
        combined.timing.execution_micros += one.timing.execution_micros;
        combined.timing.retry_backoff_micros +=
            one.timing.retry_backoff_micros;
        combined.timing.execution_attempts += one.timing.execution_attempts;
        combined.timing.cache_hits += one.timing.cache_hits;
        if (combined.timing.dialect.empty()) {
          combined.timing.dialect = one.timing.dialect;
        }
        combined.features.Merge(one.features);
        combined.backend_sql.insert(combined.backend_sql.end(),
                                    one.backend_sql.begin(),
                                    one.backend_sql.end());
        combined.result = std::move(one.result);
      }
      combined.result.affected_rows = total_activity;
      combined.result.command_tag = "MERGE";
      return combined;
    }

    case StmtKind::kHelp: {
      features.Record(Feature::kSessionCommands);
      emulation::LocalResult local;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        HQ_ASSIGN_OR_RETURN(local,
                            emulation::AnswerHelp(
                                *stmt.As<sql::HelpStatement>(),
                                session->info, catalog_));
      }
      QueryOutcome out;
      out.result = PackageLocal(local);
      out.features = std::move(features);
      return out;
    }
    case StmtKind::kSetSession: {
      features.Record(Feature::kSessionCommands);
      HQ_RETURN_IF_ERROR(emulation::ApplySetSession(
          *stmt.As<sql::SetSessionStatement>(), &session->info));
      // New settings → new cache-key digest: every entry built under the
      // old settings becomes unreachable for this session at once.
      session->settings_digest = SettingsDigest(session->info);
      AppendJournal(session,
                    {JournalEntry::Kind::kSetSession, sql_a, ""});
      QueryOutcome out;
      out.result = CommandResult("SET SESSION");
      out.features = std::move(features);
      return out;
    }

    case StmtKind::kCollectStats: {
      // "Statements in SQL-A need to be translated into zero, one, or more
      // terms": physical-design statements translate to zero statements.
      features.Record(Feature::kStatsElimination);
      QueryOutcome out;
      out.result = CommandResult("COLLECT STATISTICS");
      out.features = std::move(features);
      return out;
    }

    case StmtKind::kBeginTxn:
      features.Record(Feature::kTxnShorthand);
      ++session->txn_depth;
      {
        QueryOutcome out;
        out.result = CommandResult("BEGIN TRANSACTION");
        out.features = std::move(features);
        return out;
      }
    case StmtKind::kEndTxn:
      features.Record(Feature::kTxnShorthand);
      if (session->txn_depth > 0) --session->txn_depth;
      {
        QueryOutcome out;
        out.result = CommandResult("END TRANSACTION");
        out.features = std::move(features);
        return out;
      }
    case StmtKind::kCommit:
    case StmtKind::kRollback: {
      QueryOutcome out;
      out.result = CommandResult(stmt.kind == StmtKind::kCommit ? "COMMIT"
                                                                : "ROLLBACK");
      out.features = std::move(features);
      return out;
    }
  }
  (void)sql_a;
  return Status::Internal("unhandled statement kind in service");
}

// ---------------------------------------------------------------------------
// Query/DML pipeline
// ---------------------------------------------------------------------------

Result<QueryOutcome> HyperQService::RunPipeline(Session* session,
                                                const sql::Statement& stmt,
                                                FeatureSet features,
                                                QueryContext* ctx,
                                                PipelineArtifacts* artifacts) {
  if (ctx != nullptr) {
    HQ_RETURN_IF_ERROR(ctx->CheckAlive());
  }
  Stopwatch translation;
  xtra::OpPtr plan;
  binder::Binder binder(&catalog_, frontend_dialect_);
  {
    obs::SpanScope bind_span(ctx, "bind");
    std::lock_guard<std::mutex> lock(mutex_);  // catalog reads
    HQ_ASSIGN_OR_RETURN(plan, binder.BindStatement(stmt));
  }
  features.Merge(binder.features());

  binder::ColIdGenerator ids(binder::kFirstRewriteColId);
  obs::SpanScope transform_span(ctx, "transform");
  HQ_RETURN_IF_ERROR(transformer_.Run(transform::Stage::kBinding, &plan,
                                      &ids, &features, &catalog_));

  QueryOutcome out;

  // Recursive queries need mid-tier emulation rather than serialization.
  if (plan->kind == xtra::OpKind::kRecursiveCte) {
    HQ_RETURN_IF_ERROR(transformer_.Run(transform::Stage::kSerialization,
                                        &plan, &ids, &features, &catalog_));
    transform_span.End();
    out.timing.translation_micros += translation.ElapsedMicros();
    out.timing.dialect = serializer_.dialect().Name();
    Stopwatch execution;
    obs::SpanScope exec_span(ctx, "backend.execute");
    emulation::RecursionDriver driver(&serializer_,
                                      session->connector.get());
    HQ_ASSIGN_OR_RETURN(out.result, driver.Execute(*plan, nullptr, ctx));
    exec_span.End();
    out.timing.execution_micros = execution.ElapsedMicros();
    AbsorbResilienceStats(&out);
    AbsorbSpillBytes(&out);
    out.features = std::move(features);
    return out;
  }

  HQ_RETURN_IF_ERROR(transformer_.Run(transform::Stage::kSerialization,
                                      &plan, &ids, &features, &catalog_));
  if (plan->kind == xtra::OpKind::kInsert) {
    HQ_RETURN_IF_ERROR(ExpandPeriodInsert(plan.get(), &features));
  }
  transform_span.End();
  obs::SpanScope serialize_span(ctx, "serialize");
  serialize_span.Annotate("dialect", serializer_.dialect().Name());
  HQ_ASSIGN_OR_RETURN(
      std::string sql_b,
      serializer_.Serialize(*plan, artifacts != nullptr && artifacts->want_sites
                                       ? &artifacts->sites
                                       : nullptr));
  serialize_span.End();
  out.timing.translation_micros += translation.ElapsedMicros();
  out.timing.dialect = serializer_.dialect().Name();
  out.backend_sql.push_back(sql_b);
  if (artifacts != nullptr) {
    // Translation is complete; record it so a cancellation during the
    // execution below does not throw the template away (DESIGN.md §8).
    artifacts->serialized = true;
    artifacts->sql_b = sql_b;
    artifacts->features = features;
  }

  Stopwatch execution;
  {
    obs::SpanScope exec_span(ctx, "backend.execute");
    HQ_ASSIGN_OR_RETURN(out.result,
                        ExecuteOnBackend(session, sql_b, ctx,
                                         stmt.kind == StmtKind::kSelect));
  }
  out.timing.execution_micros = execution.ElapsedMicros();
  out.timing.hedges += out.result.hedges;
  out.timing.hedge_won = out.result.hedge_won;
  AbsorbResilienceStats(&out);
  AbsorbSpillBytes(&out);
  // DML against a session-scoped table is part of the replayable session
  // state: without it a re-established backend session would see the
  // volatile table empty.
  if (plan->kind == xtra::OpKind::kInsert ||
      plan->kind == xtra::OpKind::kUpdate ||
      plan->kind == xtra::OpKind::kDelete) {
    std::string target = Catalog::NormalizeName(plan->target_table);
    if (IsVolatileTable(session, target)) {
      AppendJournal(session,
                    {JournalEntry::Kind::kTempTableDml, sql_b, target});
    }
  }
  out.features = std::move(features);
  return out;
}

Status HyperQService::ExpandPeriodInsert(xtra::Op* insert_op,
                                         FeatureSet* features) {
  const TableDef* table;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!catalog_.HasTable(insert_op->target_table)) return Status::OK();
    HQ_ASSIGN_OR_RETURN(table, catalog_.GetTable(insert_op->target_table));
  }
  // Find PERIOD columns in the insert list.
  std::vector<size_t> period_positions;
  for (size_t i = 0; i < insert_op->target_columns.size(); ++i) {
    int idx = table->FindColumn(insert_op->target_columns[i]);
    if (idx >= 0 &&
        table->columns[idx].type.kind == TypeKind::kPeriodDate) {
      period_positions.push_back(i);
    }
  }
  if (period_positions.empty()) return Status::OK();
  features->Record(Feature::kPeriodType);
  if (insert_op->children[0]->kind != xtra::OpKind::kValues) {
    return Status::NotSupported(
        "INSERT ... SELECT into PERIOD columns is not supported; PERIOD "
        "columns are emulated as two DATE columns");
  }
  // Expand columns back-to-front to keep earlier positions stable.
  for (auto it = period_positions.rbegin(); it != period_positions.rend();
       ++it) {
    size_t pos = *it;
    std::string name = insert_op->target_columns[pos];
    insert_op->target_columns[pos] = name + "_BEGIN";
    insert_op->target_columns.insert(
        insert_op->target_columns.begin() + pos + 1, name + "_END");
    for (auto& row : insert_op->children[0]->rows) {
      xtra::ExprPtr value = std::move(row[pos]);
      xtra::ExprPtr begin_e, end_e;
      if (value->kind == xtra::ExprKind::kFunc &&
          value->func_name == "PERIOD") {
        begin_e = std::move(value->children[0]);
        end_e = std::move(value->children[1]);
      } else if (value->kind == xtra::ExprKind::kConst &&
                 value->value.is_period()) {
        auto p = value->value.period_val();
        begin_e = xtra::Const(Datum::Date(p.begin_days), SqlType::Date());
        end_e = xtra::Const(Datum::Date(p.end_days), SqlType::Date());
      } else if (value->kind == xtra::ExprKind::kConst &&
                 value->value.is_null()) {
        begin_e = xtra::Const(Datum::Null(), SqlType::Date());
        end_e = xtra::Const(Datum::Null(), SqlType::Date());
      } else {
        return Status::NotSupported(
            "PERIOD column values must be PERIOD(d1, d2) constructors");
      }
      row[pos] = std::move(begin_e);
      row.insert(row.begin() + pos + 1, std::move(end_e));
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// DDL translation
// ---------------------------------------------------------------------------

namespace {
// Renders a column default expression for the DTM catalog.
Result<std::string> RenderDefault(const sql::Expr& e) {
  if (e.kind == sql::ExprKind::kFunc) {
    return ToUpper(e.func_name);  // niladic: CURRENT_DATE etc.
  }
  return emulation::RenderConstExpr(e);
}

bool IsConstantDefault(const sql::Expr& e) {
  return e.kind == sql::ExprKind::kConst ||
         (e.kind == sql::ExprKind::kUnary &&
          e.uop == sql::UnaryOp::kNeg &&
          e.children[0]->kind == sql::ExprKind::kConst);
}
}  // namespace

Result<QueryOutcome> HyperQService::HandleCreateTable(
    Session* session, const sql::CreateTableStatement& ct,
    FeatureSet features, QueryContext* ctx) {
  if (ct.as_select) {
    // CREATE TABLE AS: emulate as CREATE TABLE + INSERT ... SELECT.
    binder::Binder binder(&catalog_, frontend_dialect_);
    xtra::OpPtr plan;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      HQ_ASSIGN_OR_RETURN(plan, binder.BindSelect(*ct.as_select));
    }
    features.Merge(binder.features());
    // Register the table shape, then funnel the data through the pipeline.
    TableDef def;
    def.name = Catalog::NormalizeName(ct.table);
    std::string ddl = "CREATE TABLE " + def.name + " (";
    for (size_t i = 0; i < plan->output.size(); ++i) {
      ColumnDef col;
      col.name = ToUpper(plan->output[i].name);
      col.type = plan->output[i].type;
      if (col.type.kind == TypeKind::kNull) col.type = SqlType::Varchar(0);
      if (i > 0) ddl += ", ";
      ddl += col.name + " " + col.type.ToString();
      def.columns.push_back(std::move(col));
    }
    ddl += ")";
    {
      std::lock_guard<std::mutex> lock(mutex_);
      HQ_RETURN_IF_ERROR(catalog_.CreateTable(def));
    }
    InvalidateTranslationCacheAfterDdl();
    QueryOutcome out;
    Stopwatch execution;
    auto ddl_result = session->connector->Execute(ddl, ctx);
    if (!ddl_result.ok()) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        (void)catalog_.DropTable(def.name);
      }
      InvalidateTranslationCacheAfterDdl();
      return ddl_result.status();
    }
    out.backend_sql.push_back(ddl);
    if (ct.with_data) {
      binder::ColIdGenerator ids(binder::kFirstRewriteColId);
      HQ_RETURN_IF_ERROR(transformer_.Run(transform::Stage::kBinding, &plan,
                                          &ids, &features, &catalog_));
      HQ_RETURN_IF_ERROR(transformer_.Run(transform::Stage::kSerialization,
                                          &plan, &ids, &features, &catalog_));
      HQ_ASSIGN_OR_RETURN(std::string select_sql,
                          serializer_.Serialize(*plan));
      std::string insert_sql =
          "INSERT INTO " + def.name + " " + select_sql;
      out.backend_sql.push_back(insert_sql);
      HQ_ASSIGN_OR_RETURN(out.result,
                          session->connector->Execute(insert_sql, ctx));
    } else {
      out.result = CommandResult("CREATE TABLE");
    }
    out.timing.execution_micros = execution.ElapsedMicros();
    AbsorbResilienceStats(&out);
    out.result.command_tag = "CREATE TABLE";
    out.features = std::move(features);
    return out;
  }

  TableDef def;
  def.name = Catalog::NormalizeName(ct.table);
  def.semantics =
      ct.set_semantics ? TableSemantics::kSet : TableSemantics::kMultiset;
  def.is_global_temporary = ct.global_temporary || ct.volatile_table;
  if (ct.set_semantics) features.Record(Feature::kSetSemantics);
  if (def.is_global_temporary) features.Record(Feature::kTemporaryTables);

  std::string ddl = "CREATE TABLE " + def.name + " (";
  bool first = true;
  for (const auto& c : ct.columns) {
    ColumnDef col;
    col.name = ToUpper(c.name);
    col.type = c.type;
    col.nullable = !c.not_null;
    if (c.not_case_specific) {
      col.props.case_insensitive = true;
      features.Record(Feature::kColumnProperties);
    }
    if (c.default_expr) {
      HQ_ASSIGN_OR_RETURN(col.props.default_expr,
                          RenderDefault(*c.default_expr));
      col.props.has_default = true;
      if (!IsConstantDefault(*c.default_expr)) {
        features.Record(Feature::kColumnProperties);
      }
    }
    auto emit = [&](const std::string& name, const SqlType& type,
                    bool not_null) {
      if (!first) ddl += ", ";
      first = false;
      ddl += name + " " + type.ToString();
      if (not_null) ddl += " NOT NULL";
    };
    if (c.type.kind == TypeKind::kPeriodDate) {
      // PERIOD has no target equivalent: two DATE columns + DTM metadata
      // (paper §2.2.2 "Assumed Independence").
      features.Record(Feature::kPeriodType);
      emit(col.name + "_BEGIN", SqlType::Date(), c.not_null);
      emit(col.name + "_END", SqlType::Date(), c.not_null);
    } else {
      emit(col.name, c.type, c.not_null);
    }
    def.columns.push_back(std::move(col));
  }
  ddl += ")";
  // PRIMARY INDEX is physical design: not portable, intentionally dropped
  // (paper Appendix A, Schema Conversion).

  {
    std::lock_guard<std::mutex> lock(mutex_);
    HQ_RETURN_IF_ERROR(catalog_.CreateTable(def));
  }
  InvalidateTranslationCacheAfterDdl();
  Stopwatch execution;
  auto exec_result = session->connector->Execute(ddl, ctx);
  if (!exec_result.ok()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      (void)catalog_.DropTable(def.name);
    }
    InvalidateTranslationCacheAfterDdl();
    return exec_result.status();
  }
  if (ct.volatile_table) {
    session->volatile_tables.push_back(def.name);
    // Session-scoped on a real backend: record it for failover replay and
    // tell the connector so a lost session drops its backend shadow.
    session->connector->NoteSessionTable(def.name);
    AppendJournal(session,
                  {JournalEntry::Kind::kTempTableDdl, ddl, def.name});
    // Register the name globally: other sessions' cache lookups must
    // bypass statements touching it (a cached plan may not leak a
    // session-scoped table).
    std::lock_guard<std::mutex> lock(mutex_);
    ++volatile_names_[def.name];
  }
  QueryOutcome out;
  out.backend_sql.push_back(ddl);
  out.result = std::move(exec_result).value();
  out.result.command_tag = "CREATE TABLE";
  out.timing.execution_micros = execution.ElapsedMicros();
  AbsorbResilienceStats(&out);
  out.features = std::move(features);
  return out;
}

Result<QueryOutcome> HyperQService::HandleDropTable(
    Session* session, const sql::DropTableStatement& dt,
    FeatureSet features, QueryContext* ctx) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (catalog_.HasTable(dt.table)) {
      HQ_RETURN_IF_ERROR(catalog_.DropTable(dt.table));
    } else if (!dt.if_exists) {
      return Status::CatalogError("table '", dt.table, "' does not exist");
    }
  }
  Stopwatch execution;
  std::string normalized = Catalog::NormalizeName(dt.table);
  std::string ddl = "DROP TABLE " +
                    std::string(dt.if_exists ? "IF EXISTS " : "") +
                    normalized;
  HQ_ASSIGN_OR_RETURN(BackendResult result,
                      session->connector->Execute(ddl, ctx));
  if (IsVolatileTable(session, normalized)) {
    auto& vt = session->volatile_tables;
    vt.erase(std::remove(vt.begin(), vt.end(), normalized), vt.end());
    session->connector->ForgetSessionTable(normalized);
    CompactJournal(session, normalized);
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = volatile_names_.find(normalized);
    if (it != volatile_names_.end() && --it->second <= 0) {
      volatile_names_.erase(it);
    }
  }
  InvalidateTranslationCacheAfterDdl();
  QueryOutcome out;
  out.backend_sql.push_back(ddl);
  out.result = std::move(result);
  out.result.command_tag = "DROP TABLE";
  out.timing.execution_micros = execution.ElapsedMicros();
  AbsorbResilienceStats(&out);
  out.features = std::move(features);
  return out;
}

// ---------------------------------------------------------------------------
// Script submission with single-row DML batching (paper §4.3)
// ---------------------------------------------------------------------------

Result<QueryOutcome> HyperQService::SubmitScript(uint32_t session_id,
                                                 const std::string& script,
                                                 QueryContext* ctx) {
  QueryRequest request;
  request.session_id = session_id;
  request.sql = script;
  request.ctx = ctx;
  request.session_class = "script";
  return SubmitScript(request);
}

Result<QueryOutcome> HyperQService::SubmitScript(
    const QueryRequest& request) {
  // Same brownout/budget protocol as Submit — the script path does not
  // funnel through it (DESIGN.md §11).
  retry_budget_->NoteRequest();
  if (Status shed = brownout_->Admit(request.session_class); !shed.ok()) {
    RecordQueryOutcome(shed);
    return shed;
  }
  uint32_t session_id = request.session_id;
  const std::string& script = request.sql;
  QueryContext local_ctx;
  QueryContext* ctx = request.ctx != nullptr ? request.ctx : &local_ctx;
  if (options_.default_query_deadline_ms > 0) {
    ctx->TightenDeadline(Deadline::After(options_.default_query_deadline_ms));
  }
  // One trace covers the whole script; each statement's stage spans nest
  // under the same root.
  std::shared_ptr<obs::QueryTrace> minted;
  if (options_.tracing && request.trace && ctx->trace() == nullptr) {
    minted = std::make_shared<obs::QueryTrace>();
    minted->set_session_id(session_id);
    minted->set_query(script);
    minted->set_session_class(request.session_class);
    ctx->set_trace(minted);
  }
  auto finish = [&](const Status& st) {
    RecordQueryOutcome(st);
    if (minted == nullptr) return;
    minted->set_outcome(OutcomeLabel(st, ctx));
    minted->Finish();
    RecordFinishedTrace(minted);
    ctx->set_trace(nullptr);
  };
  auto statements_or = sql::SplitStatements(script);
  if (!statements_or.ok()) {
    finish(statements_or.status());
    return statements_or.status();
  }
  std::vector<std::string> statements = std::move(*statements_or);
  auto session_or = GetSession(session_id);
  if (!session_or.ok()) {
    finish(session_or.status());
    return session_or.status();
  }
  Session* session = *session_or;

  // Batch runs of single-row INSERT ... VALUES into the same table.
  std::vector<std::string> batched;
  size_t i = 0;
  while (i < statements.size()) {
    const std::string& stmt = statements[i];
    auto parsed = sql::ParseStatement(stmt, frontend_dialect_);
    bool single_row_insert =
        options_.batch_single_row_dml && parsed.ok() &&
        (*parsed)->kind == StmtKind::kInsert &&
        (*parsed)->As<sql::InsertStatement>()->values_rows.size() == 1 &&
        (*parsed)->As<sql::InsertStatement>()->source == nullptr;
    if (!single_row_insert) {
      batched.push_back(stmt);
      ++i;
      continue;
    }
    // Extend the run while the statements share the prefix up to VALUES.
    auto prefix_of = [](const std::string& s) -> std::string {
      auto pos = ToUpper(s).find("VALUES");
      return pos == std::string::npos ? s : ToUpper(s.substr(0, pos));
    };
    std::string prefix = prefix_of(stmt);
    std::string merged = stmt;
    size_t j = i + 1;
    while (j < statements.size()) {
      const std::string& next = statements[j];
      if (prefix_of(next) != prefix) break;
      auto next_parsed = sql::ParseStatement(next, frontend_dialect_);
      if (!next_parsed.ok() ||
          (*next_parsed)->kind != StmtKind::kInsert ||
          (*next_parsed)->As<sql::InsertStatement>()->values_rows.size() !=
              1) {
        break;
      }
      auto vpos = ToUpper(next).find("VALUES");
      merged += ", " + std::string(Trim(next.substr(vpos + 6)));
      ++j;
    }
    batched.push_back(std::move(merged));
    i = j;
  }

  QueryOutcome last;
  RegisterActiveQuery(session_id, ctx);
  for (const std::string& stmt : batched) {
    auto one = SubmitWithFailover(session, stmt, ctx);
    if (!one.ok()) {
      UnregisterActiveQuery(session_id, ctx);
      RecordLifecycleFailure(one.status(), ctx);
      finish(one.status());
      return one.status();
    }
    last = std::move(*one);
    c_spill_bytes_->Inc(last.timing.spill_bytes);
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.AddQuery(last.features);
  }
  UnregisterActiveQuery(session_id, ctx);
  finish(Status::OK());
  if (minted != nullptr) last.trace = minted;
  return last;
}

Result<std::vector<std::string>> HyperQService::Translate(
    const std::string& sql_a, FeatureSet* features) {
  return Translate(sql_a, features, nullptr);
}

Result<std::vector<std::string>> HyperQService::Translate(
    const std::string& sql_a, FeatureSet* features,
    TimingBreakdown* timing) {
  Stopwatch translation;
  auto out = TranslateInternal(sql_a, features, 0);
  if (timing != nullptr) {
    // Attribute the translation to the dialect it serialized under, so
    // differential-run traces are attributable even on cache hits (the
    // cached template was emitted under this same dialect — it keys on
    // the profile digest, which includes the dialect).
    timing->translation_micros += translation.ElapsedMicros();
    timing->dialect = serializer_.dialect().Name();
  }
  return out;
}

Status HyperQService::SwitchBackendDialect(const std::string& dialect_name) {
  const serializer::SQLDialectGenerator* gen =
      serializer::FindDialect(dialect_name);
  if (gen == nullptr) {
    return Status::InvalidArgument("unknown SQL-B dialect '", dialect_name,
                                   "'");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (pool_ != nullptr) {
    return Status::InvalidArgument(
        "cannot switch dialect in fleet mode: registered replicas were "
        "validated against the configured profile");
  }
  if (!active_queries_.empty()) {
    return Status::InvalidArgument(
        "cannot switch dialect with queries in flight");
  }
  // Adopt the generator's capability matrix wholesale: the dialect decides
  // which serialization-stage rewrites fire, not just the surface syntax.
  options_.profile = gen->Profile();
  transformer_ = transform::Transformer(options_.profile);
  serializer_ = serializer::Serializer(options_.profile);
  // Re-keying the cache is automatic: the profile digest embeds the
  // dialect, so entries of the previous dialect can no longer be looked up
  // (they age out of the LRU; no flush required for correctness).
  profile_digest_ = options_.profile.CacheKeyDigest();
  return Status::OK();
}

Result<std::vector<std::string>> HyperQService::TranslateInternal(
    const std::string& sql_a, FeatureSet* features, int depth) {
  if (depth > 8) {
    return Status::ExecutionError("statement expansion too deep (macro "
                                  "recursion?)");
  }
  Stopwatch translation;
  FeatureSet local;
  FeatureSet* fs = features != nullptr ? features : &local;
  HQ_ASSIGN_OR_RETURN(sql::NormalizedStatement norm,
                      sql::NormalizeStatement(sql_a));

  // Same cache protocol as the execute path (satellite: both entry points
  // account translation uniformly). Translation-only requests carry no
  // session, so they key on the default session settings.
  bool cache_candidate = false;
  std::string cache_key;
  int64_t catalog_version = 0;
  if (options_.translation_cache.enabled) {
    if (!IsCacheableShape(norm) ||
        TouchesVolatileName(norm.identifiers)) {
      translation_cache_.RecordBypass();
    } else {
      cache_candidate = true;
      catalog_version = catalog_.version();
      cache_key =
          MakeCacheKey(default_settings_digest_, norm, catalog_version);
      if (auto entry = translation_cache_.Lookup(cache_key)) {
        if (entry->uncacheable) {
          // Negative marker: proven non-parameterizable, translate cold.
          translation_cache_.RecordBypass();
          cache_candidate = false;
        } else if (auto spliced = SpliceTranslationTemplate(*entry, norm);
                   spliced.ok()) {
          translation_cache_.RecordHit();
          fs->Merge(entry->features);
          RecordTranslationActivity(/*translate_path=*/true,
                                    /*cache_hit=*/true,
                                    translation.ElapsedMicros());
          return std::vector<std::string>{std::move(*spliced)};
        } else {
          translation_cache_.RecordBypass();
          cache_candidate = false;
        }
      }
    }
  }

  HQ_RETURN_IF_ERROR(frontend::ScanTranslationFeatures(sql_a, fs));
  HQ_ASSIGN_OR_RETURN(sql::StatementPtr stmt,
                      sql::ParseStatement(sql_a, frontend_dialect_));
  std::vector<serializer::LiteralSite> sites;
  auto finish = [&](std::vector<std::string> out)
      -> Result<std::vector<std::string>> {
    if (cache_candidate && out.size() == 1) {
      MaybeCacheTranslation(cache_key, norm, out[0], sites, *fs,
                            catalog_version, /*ctx=*/nullptr);
    }
    RecordTranslationActivity(/*translate_path=*/true, /*cache_hit=*/false,
                              translation.ElapsedMicros());
    return out;
  };
  std::vector<std::string> out;
  switch (stmt->kind) {
    case StmtKind::kSelect:
    case StmtKind::kInsert:
    case StmtKind::kUpdate:
    case StmtKind::kDelete: {
      binder::Binder binder(&catalog_, frontend_dialect_);
      xtra::OpPtr plan;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        HQ_ASSIGN_OR_RETURN(plan, binder.BindStatement(*stmt));
      }
      fs->Merge(binder.features());
      binder::ColIdGenerator ids(binder::kFirstRewriteColId);
      HQ_RETURN_IF_ERROR(transformer_.Run(transform::Stage::kBinding, &plan,
                                          &ids, fs, &catalog_));
      if (plan->kind == xtra::OpKind::kRecursiveCte) {
        out.push_back("-- recursive query: emulated via temp tables");
        return finish(std::move(out));
      }
      HQ_RETURN_IF_ERROR(transformer_.Run(transform::Stage::kSerialization,
                                          &plan, &ids, fs, &catalog_));
      HQ_ASSIGN_OR_RETURN(
          std::string sql_b,
          serializer_.Serialize(
              *plan,
              cache_candidate && CanTagLiterals(sql_a) ? &sites : nullptr));
      out.push_back(std::move(sql_b));
      return finish(std::move(out));
    }
    case StmtKind::kMerge: {
      fs->Record(Feature::kMerge);
      HQ_ASSIGN_OR_RETURN(
          std::vector<sql::StatementPtr> parts,
          emulation::LowerMerge(*stmt->As<sql::MergeStatement>()));
      for (const auto& part : parts) {
        binder::Binder binder(&catalog_, frontend_dialect_);
        xtra::OpPtr plan;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          HQ_ASSIGN_OR_RETURN(plan, binder.BindStatement(*part));
        }
        fs->Merge(binder.features());
        binder::ColIdGenerator ids(binder::kFirstRewriteColId);
        HQ_RETURN_IF_ERROR(transformer_.Run(transform::Stage::kBinding,
                                            &plan, &ids, fs, &catalog_));
        HQ_RETURN_IF_ERROR(transformer_.Run(transform::Stage::kSerialization,
                                            &plan, &ids, fs, &catalog_));
        HQ_ASSIGN_OR_RETURN(std::string sql_b, serializer_.Serialize(*plan));
        out.push_back(std::move(sql_b));
      }
      return finish(std::move(out));
    }
    case StmtKind::kExecMacro: {
      // Expand the macro body and translate each statement; body
      // statements are themselves cacheable even though EXEC is not.
      fs->Record(Feature::kMacros);
      const auto* exec = stmt->As<sql::ExecMacroStatement>();
      const MacroDef* macro;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        HQ_ASSIGN_OR_RETURN(macro, catalog_.GetMacro(exec->macro));
      }
      HQ_ASSIGN_OR_RETURN(std::vector<std::string> statements,
                          emulation::ExpandMacro(*macro, *exec));
      for (const std::string& body_sql : statements) {
        HQ_ASSIGN_OR_RETURN(std::vector<std::string> sub,
                            TranslateInternal(body_sql, fs, depth + 1));
        out.insert(out.end(), sub.begin(), sub.end());
      }
      return finish(std::move(out));
    }
    case StmtKind::kHelp:
    case StmtKind::kSetSession:
      fs->Record(Feature::kSessionCommands);
      return finish(std::move(out));
    case StmtKind::kCollectStats:
      fs->Record(Feature::kStatsElimination);
      return finish(std::move(out));
    default:
      return finish(std::move(out));
  }
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
  if (pool_ != nullptr && backend >= 0) {
    resp.message += " on " + pool_->spec(backend).name;
  }
  return resp;
}

int HyperQService::session_backend(uint32_t session_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return -1;
  return it->second->backend_index;
}

void HyperQService::Logoff(uint32_t session_id) { CloseSession(session_id); }

Result<protocol::WireResponse> HyperQService::Run(uint32_t session_id,
                                                  const std::string& sql,
                                                  QueryContext* ctx) {
  c_wire_requests_->Inc();
  QueryRequest request;
  request.session_id = session_id;
  request.sql = sql;
  request.ctx = ctx;
  request.session_class = "wire";
  HQ_ASSIGN_OR_RETURN(QueryOutcome outcome, Submit(request));

  protocol::WireResponse resp;
  resp.success.activity_count =
      static_cast<uint64_t>(outcome.result.affected_rows);
  resp.success.tag = outcome.result.command_tag;
  resp.success.translation_micros = outcome.timing.translation_micros;
  resp.success.execution_micros = outcome.timing.execution_micros;

  if (outcome.result.is_rowset()) {
    Stopwatch conversion;
    convert::ConverterOptions conv_opts;
    conv_opts.parallelism = options_.convert_parallelism;
    conv_opts.metrics = metrics_;
    convert::ResultConverter converter(conv_opts);
    obs::SpanScope convert_span(ctx, "convert");
    auto converted_result = converter.Convert(outcome.result, ctx);
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
      double last = trace->LastDuration("convert");
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
