// HyperQService — the Gateway Manager (paper Figure 3): owns sessions, runs
// the full translation pipeline, drives emulation, keeps the DTM catalog in
// sync with the target, and implements the tdwp RequestHandler so the proxy
// server can expose everything over the wire.
//
// Per-request pipeline (mirroring the architecture diagram):
//   Protocol Handler -> [this] Parser -> Binder -> Transformer (binding
//   stage) -> Transformer (serialization stage, per target profile) ->
//   Serializer -> ODBC-Server analog (BackendConnector) -> TDF ->
//   Result Converter -> Protocol Handler
//
// Instrumentation: every Submit records the tracked-feature footprint
// (Figure 8) and a translation/execution time breakdown (Figure 9).
//
// Implementation files: hyperq_service.cc (construction, stats, submit
// entry points, the wire handler), hyperq_service_session.cc (sessions and
// the journal), hyperq_service_fleet.cc (routing, failover, hedging),
// hyperq_service_translation.cc (cache, templates, pipeline) and
// hyperq_service_statements.cc (DDL/DML/script handlers).

#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "backend/connector.h"
#include "backend/pool.h"
#include "backend/router.h"
#include "binder/binder.h"
#include "catalog/catalog.h"
#include "common/retry_budget.h"
#include "common/features.h"
#include "common/result.h"
#include "common/stopwatch.h"
#include "convert/result_converter.h"
#include "emulation/recursion.h"
#include "emulation/session.h"
#include "observability/metrics.h"
#include "observability/trace.h"
#include "protocol/server.h"
#include "serializer/serializer.h"
#include "service/translation_cache.h"
#include "sql/normalizer.h"
#include "sql/parser.h"
#include "transform/transformer.h"
#include "vdb/engine.h"

namespace hyperq::service {

/// \brief Per-request time decomposition (Figure 9 categories), plus the
/// resilience layer's accounting: how many backend attempts the request
/// took and how long it spent waiting in retry backoff (included in
/// execution_micros, broken out here).
struct TimingBreakdown {
  double translation_micros = 0;  // parse + bind + transform + serialize
  double execution_micros = 0;    // target database time
  double conversion_micros = 0;   // TDF -> frontend binary (filled by the
                                  // wire path in Run() and by benchmarks;
                                  // library Submit() has no conversion)
  double retry_backoff_micros = 0;  // waiting between retry attempts
  int execution_attempts = 0;       // total backend tries (0 = no backend)
  int failovers = 0;          // backend sessions re-established mid-request
  int journal_replays = 0;    // journal entries replayed during failover
  int cache_hits = 0;         // statements served from the translation
                              // cache (translation_micros ≈ splice cost)
  int64_t spill_bytes = 0;    // result bytes the shed-or-spill policy sent
                              // to disk for this request (DESIGN.md §8)
  int hedges = 0;             // hedge attempts launched for this request
  bool hedge_won = false;     // a hedge replica produced the result
  std::string dialect;        // SQL-B dialect the statement serialized under
                              // (profile.dialect; also a `dialect` label on
                              // the serialize span)
};

/// \brief Result of one submitted SQL-A request.
struct QueryOutcome {
  backend::BackendResult result;
  /// View over the request's finished trace spans (translation_micros =
  /// pipeline spans, execution_micros = backend.execute, conversion_micros
  /// = the last convert span). Kept as a struct so callers need not walk
  /// the span tree themselves.
  TimingBreakdown timing;
  FeatureSet features;
  std::vector<std::string> backend_sql;  // statements sent to the target
  /// The request's span tree (DESIGN.md §9); null when tracing is off or
  /// the caller's QueryContext carried an externally owned trace (the wire
  /// path finishes and records that one itself).
  std::shared_ptr<const observability::QueryTrace> trace;
};

/// \brief The unified request descriptor (DESIGN.md §9): Submit,
/// SubmitScript, and the wire path all funnel through this shape, so the
/// trace options ride with the request instead of growing more positional
/// parameters.
struct QueryRequest {
  uint32_t session_id = 0;
  std::string sql;              // one statement, or a ';'-script for scripts
  QueryContext* ctx = nullptr;  // lifecycle handle; null = service mints one
  /// Mint a per-query trace when the context does not already carry one.
  /// Ignored when ServiceOptions::tracing is off.
  bool trace = true;
  /// Annotation for the per-class latency histogram and slow-query log
  /// ("library", "wire", "script", "bench", ...).
  std::string session_class = "library";
};

/// \brief Backend-session failover knobs (DESIGN.md §6, "Failover &
/// overload").
struct FailoverOptions {
  /// When the backend session dies (kSessionLost), replay the session
  /// journal and transparently re-run the interrupted statement.
  bool enabled = true;
  /// Journal entries kept per session. Past the cap the journal is marked
  /// overflowed and failover degrades to a clean kUnavailable error.
  size_t max_journal_entries = 256;
};

/// \brief Multi-backend fleet configuration (DESIGN.md §10). The service
/// always routes sessions and queries over a BackendPool; empty `backends`
/// = a fleet of one, an implicit replica over the service's own engine and
/// `ServiceOptions::profile` with the prober off.
struct FleetOptions {
  /// Registered backend instances; spec.engine == nullptr means "a compute
  /// replica over the service's shared engine".
  std::vector<backend::BackendSpec> backends;
  /// Scoring/probing/re-admission knobs; probe_interval_ms > 0 starts the
  /// background prober with the service.
  backend::HealthOptions health;
};

/// \brief Hedged-execution knobs (DESIGN.md §11). Hedging launches a second
/// attempt of a slow idempotent read on a different replica and takes the
/// first completion; the loser is cancelled promptly. Off by default; a
/// single backend (a fleet of one) never hedges: there is no second
/// replica to race.
struct HedgeOptions {
  bool enabled = false;
  /// Floor for the hedge trigger so a fast fleet does not hedge noise (and
  /// a cold histogram, whose quantile is 0, never hedges instantly).
  double min_threshold_micros = 2000;
  /// Hedges in flight may not exceed this fraction of the pool's total
  /// in-flight load (admission gate against hedge storms).
  double max_hedge_fraction = 0.25;
};

/// \brief The tail-tolerance layer (DESIGN.md §11): hedged reads and the
/// process-wide retry budget. Both default to off.
struct TailOptions {
  HedgeOptions hedge;
  /// Global token bucket shared by connector retries, fleet failover
  /// re-routes, and hedge launches.
  RetryBudgetOptions retry_budget;
};

struct ServiceOptions {
  /// The SQL-B target (dialect and capability matrix), fixed for the
  /// service's lifetime.
  transform::BackendProfile profile = transform::BackendProfile::Vdb();
  backend::ConnectorOptions connector;
  int convert_parallelism = 2;
  FailoverOptions failover;
  FleetOptions fleet;
  /// Translation cache knobs (DESIGN.md §7): repeated query shapes skip
  /// the parse→bind→transform→serialize pipeline and only re-splice
  /// literals into the cached SQL-B template.
  TranslationCacheOptions translation_cache;
  /// Process-wide budget arbiter (DESIGN.md §8). When set it is threaded
  /// into every session's connector (result buffering/spill, keyed by the
  /// session id) and into the translation cache (unattributed), so all
  /// resident result bytes and cache bytes share one ceiling.
  std::shared_ptr<ResourceGovernor> governor;
  /// Deadline applied to every Submit whose QueryContext carries none
  /// (and tightened into contexts that do). 0 = no default deadline.
  double default_query_deadline_ms = 0;
  /// Tail-tolerance knobs (DESIGN.md §11); all off by default.
  TailOptions tail;

  // --- Observability (DESIGN.md §9) -------------------------------------
  /// The registry every service counter/gauge/histogram registers in.
  /// null = the service owns a private registry (metrics_registry() still
  /// exposes it). Share one registry between the service, its server, and
  /// the embedding process to get a single scrape.
  observability::MetricsRegistry* metrics = nullptr;
  /// Per-query span trees (wire.read → ... → wire.write). Off = no trace
  /// is ever minted or attached; SpanScope sites degrade to no-ops.
  bool tracing = true;
  /// Queries whose end-to-end time reaches this threshold emit one JSON
  /// line (QueryTrace::ToJson) through slow_query_sink. 0 = disabled.
  double slow_query_micros = 0;
  /// Sink for slow-query log lines; null = stderr.
  std::function<void(const std::string&)> slow_query_sink;
};

/// \brief Translation-path accounting, recorded uniformly by both entry
/// points — the execute path (Submit/Run) and the translation-only API
/// (Translate) — so cache behavior is observable wherever translation
/// happens.
struct TranslationActivityStats {
  int64_t submit_statements = 0;     // statements translated via Submit/Run
  int64_t translate_statements = 0;  // statements translated via Translate
  int64_t cache_hits = 0;            // of the above, served by the cache
  double translate_micros = 0;       // total translation time, both paths
};

/// \brief Service-wide resilience counters (tests and benches assert on
/// these next to the per-request TimingBreakdown).
struct ServiceResilienceStats {
  int64_t failovers = 0;            // journal replays that succeeded
  int64_t statements_replayed = 0;  // journal entries re-applied in total
  int64_t aborted_in_txn = 0;       // kAborted surfaced (non-idempotent+txn)
  int64_t journal_overflows = 0;    // failovers refused: journal overflowed
  int64_t wire_requests = 0;        // requests served via Run() (tdwp path)
  double wire_conversion_micros = 0;  // total Result Converter time on wire
};

/// \brief Lifecycle/governance counters (DESIGN.md §8): how requests left
/// the Admitted → Translating → Executing → Streaming state machine other
/// than Done, plus the shed-or-spill accounting.
struct ServiceLifecycleStats {
  int64_t cancelled = 0;         // kCancelled outcomes (abort/kill/gone/drain)
  int64_t deadline_expired = 0;  // kDeadlineExceeded outcomes
  int64_t client_gone = 0;       // of `cancelled`: client vanished mid-request
  int64_t killed = 0;            // of `cancelled`: operator KillQuery
  int64_t spill_bytes = 0;       // result bytes spilled to disk, all requests
  int64_t shed_queries = 0;      // results refused by the governor's budgets
};

/// \brief The unified stats surface (DESIGN.md §9): one point-in-time
/// MetricsRegistry snapshot — the single sink every service, cache,
/// connector, and governor counter now feeds — plus the typed views
/// derived from it.
struct ServiceStatsSnapshot {
  observability::MetricsSnapshot metrics;
  WorkloadFeatureStats features;
  ServiceResilienceStats resilience;
  ServiceLifecycleStats lifecycle;
  TranslationCacheStats translation_cache;
  TranslationActivityStats translation_activity;
  size_t open_sessions = 0;
};

class HyperQService : public protocol::RequestHandler {
 public:
  HyperQService(vdb::Engine* engine, ServiceOptions options = {});
  ~HyperQService() override;

  // --- Library API -----------------------------------------------------
  Result<uint32_t> OpenSession(const std::string& user,
                               const std::string& default_database = "");
  void CloseSession(uint32_t session_id);

  /// \brief Translates and executes one SQL-A statement. `request.ctx` is
  /// the lifecycle handle (DESIGN.md §8): cancellation and deadline are
  /// honored at every batch boundary. null = the service mints an internal
  /// context (so KillQuery and the default deadline still apply). When
  /// tracing is on, the outcome carries the request's finished span tree
  /// and its timing breakdown is a view over those spans.
  Result<QueryOutcome> Submit(const QueryRequest& request);

  /// \brief Executes a ';'-separated SQL-A script; consecutive single-row
  /// INSERTs into the same table are batched into multi-row statements
  /// (paper §4.3). Returns the last statement's outcome.
  Result<QueryOutcome> SubmitScript(const QueryRequest& request);

  /// \brief Submit(QueryRequest{session_id, sql_a}). Kept because the
  /// benchmark harness calls it (tdwpbench/workloads.cc), and benchmark
  /// code changes only with a new benchmark baseline.
  Result<QueryOutcome> Submit(uint32_t session_id, const std::string& sql_a);

  /// \brief Operator kill API (DESIGN.md §8): cancels the query currently
  /// running on `session_id` (cause kKill); it terminates at its next
  /// batch boundary with kCancelled. Returns false when the session has no
  /// query in flight.
  bool KillQuery(uint32_t session_id);

  /// \brief Translation without execution: returns the SQL-B text(s) the
  /// statement would produce. Used by the workload study, the golden corpus
  /// and the differential fuzzer. It runs Submit's cache probe (keyed on
  /// the default session settings) and Submit's lowering, so a query or DML
  /// statement, each MERGE part and each macro body statement translate to
  /// exactly the SQL-B Submit sends. Translation never executes, which
  /// makes two exceptions: DDL, SET SESSION, HELP, COLLECT STATISTICS and
  /// transaction commands return no text (and leave the catalog and the
  /// session state alone), and a recursive query returns the marker
  /// "-- recursive query: emulated via temp tables" in place of the
  /// temp-table loop Submit drives.
  Result<std::vector<std::string>> Translate(const std::string& sql_a,
                                             FeatureSet* features);

  Catalog* catalog() { return &catalog_; }
  const transform::BackendProfile& profile() const {
    return options_.profile;
  }

  /// \brief The fleet pool/router; never null (a fleet of one without
  /// registered backends). Exposed for chaos tests and the availability
  /// bench (KillBackend/ProbeNow).
  backend::BackendPool* backend_pool() { return pool_.get(); }
  backend::Router* router() { return router_.get(); }
  /// \brief The process-wide retry budget (DESIGN.md §11). Always
  /// constructed (a no-op while its option block is disabled).
  RetryBudget* retry_budget() { return retry_budget_.get(); }
  /// \brief Pool index of the backend a session is bound to (-1 for an
  /// unknown session).
  int session_backend(uint32_t session_id) const;

  // --- Stats/admin surface (DESIGN.md §9) --------------------------------
  /// \brief The whole registry plus typed views, in one consistent pull.
  /// This is the one stats API; everything below it is a shim.
  ServiceStatsSnapshot StatsSnapshot() const;

  /// \brief The registry backing every counter of this service (the
  /// configured ServiceOptions::metrics, or the service-owned fallback).
  observability::MetricsRegistry* metrics_registry() const {
    return metrics_;
  }

  /// \brief The 128 most recently finished query traces (ring buffer).
  const observability::TraceRing& trace_ring() const { return trace_ring_; }

  /// Aggregated per-query feature statistics (Figure 8).
  WorkloadFeatureStats stats() const;
  void ResetStats();

  /// \brief Sessions currently open (observability/leak checks in tests).
  size_t open_sessions() const;

  /// \brief The cache's counters alone, without a registry snapshot. Kept
  /// because the benchmark's layer replay (tdwpbench/replay.cc, per-request
  /// deltas) and the chaos auditor (src/chaos/auditor.cc, a polling loop)
  /// call it.
  TranslationCacheStats translation_cache_stats() const {
    return translation_cache_.stats();
  }

  /// \brief Replayable journal entries currently held for a session
  /// (observability/tests); 0 for unknown sessions.
  size_t journal_size(uint32_t session_id) const;

  // --- protocol::RequestHandler ----------------------------------------
  Result<protocol::LogonResponse> Logon(
      const protocol::LogonRequest& request) override;
  void Logoff(uint32_t session_id) override;
  Result<protocol::WireResponse> Run(uint32_t session_id,
                                     const std::string& sql,
                                     QueryContext* ctx) override;
  /// Wire-path trace completion (the server closes wire.write first):
  /// feeds the latency histograms, the trace ring, and the slow-query log.
  void OnQueryTraceFinished(
      std::shared_ptr<const observability::QueryTrace> trace) override;
  /// The text scrape (tdwp kStatsRequest): mirrors governor, cache, and
  /// fault-injector levels into gauges, then renders the registry.
  std::string ScrapeText() override;

 private:
  /// One replayable effect of the session on its backend connection.
  /// Backend kinds carry the exact SQL-B text originally sent; session
  /// kinds are mid-tier state that survives in the DTM and is only counted
  /// during replay.
  struct JournalEntry {
    enum class Kind {
      kSetSession,    // SET SESSION ... (mid-tier state; no backend SQL)
      kTempTableDdl,  // CREATE of a session-scoped (volatile) table
      kTempTableDml,  // DML against a session-scoped table
    };
    Kind kind;
    std::string sql;    // SQL-B for backend kinds, SQL-A for kSetSession
    std::string table;  // normalized temp-table name ("" = none)
  };

  struct Session {
    uint32_t id;
    SessionInfo info;
    /// The active backend connection: the connector of the bound backend
    /// (`backend_index`); rebinding parks it and swaps another in, so the
    /// whole pipeline keeps one access path.
    std::unique_ptr<backend::BackendConnector> connector;
    /// Pool index of the active connector, and connectors of previously
    /// bound backends, kept so a fail-back reuses the established
    /// connection.
    int backend_index = -1;
    std::map<int, std::unique_ptr<backend::BackendConnector>>
        parked_connectors;
    std::vector<std::string> volatile_tables;
    int txn_depth = 0;
    std::vector<JournalEntry> journal;
    bool journal_overflow = false;
    /// The bound backend holds none of the session's state: its session
    /// was lost, or the session moved replicas. The next attempt on the
    /// session replays the journal first — also when the request that saw
    /// the loss gave up (cancelled, expired, fenced).
    bool needs_replay = false;
    /// Digest of the translation-relevant session settings; part of the
    /// translation cache key. SET SESSION recomputes it, which atomically
    /// invalidates every cached plan built under the old settings while
    /// letting sessions with identical settings share entries.
    uint64_t settings_digest = 0;
    /// KillQuery's target: the context of the session's in-flight query,
    /// or null. Guarded by mutex_. The context outlives its registration
    /// (Unregister runs before Submit returns), so cancelling under mutex_
    /// is always safe.
    QueryContext* active_query = nullptr;
  };

  Result<Session*> GetSession(uint32_t id);

  // --- Lifecycle (DESIGN.md §8) ----------------------------------------
  /// What the pipeline produced before execution started. Kept so a
  /// cancellation that strikes mid-execution does not discard a perfectly
  /// good translation: the template is still admitted to the cache.
  struct PipelineArtifacts {
    bool want_sites = false;  // caller will build a cache template
    bool serialized = false;  // serialize completed; sql_b/features valid
    std::string sql_b;
    std::vector<serializer::LiteralSite> sites;  // when want_sites
    FeatureSet features;
  };
  void RegisterActiveQuery(Session* session, QueryContext* ctx);
  void UnregisterActiveQuery(Session* session, QueryContext* ctx);
  /// Classifies a failed submit into the lifecycle counters.
  void RecordLifecycleFailure(const Status& status, const QueryContext* ctx);

  // --- Observability (DESIGN.md §9) -------------------------------------
  /// The end of every traced query funnels through here (library path via
  /// Submit, wire path via OnQueryTraceFinished): per-class/per-stage
  /// latency histograms, the trace ring, and the slow-query log.
  void RecordFinishedTrace(
      const std::shared_ptr<const observability::QueryTrace>& trace);
  /// The hyperq.query.micros{class=...} series of a trace's session class.
  observability::Histogram* QueryClassHistogram(
      const std::string& session_class);
  /// The hyperq.stage.micros{stage=...} series of a closed span.
  observability::Histogram* StageHistogram(
      const observability::TraceSpanRecord& span);
  /// Stamps the labeled hyperq.queries{outcome=...} counter.
  void RecordQueryOutcome(const Status& status);
  /// Mirrors levels owned below the observability layer — the governor,
  /// the cache's resident entries/bytes, open sessions, and the fault
  /// injector's hit/fire counts — into gauges, so snapshot and scrape see
  /// them without those layers depending on the registry.
  void MirrorExternalGauges() const;
  static const char* OutcomeLabel(const Status& status,
                                  const QueryContext* ctx);

  // --- Failover (session journal & replay) -----------------------------
  /// The placement + failover loop (DESIGN.md §6, §10): route (sticky-
  /// preferred) -> replay the journal if the backend lost the session ->
  /// acquire slot -> run -> score. A same-replica session loss retries in
  /// place; any other failover-eligible failure excludes the replica and
  /// re-routes (rebinding the session) — at most three placements per
  /// query, and bounded by the QueryContext deadline.
  Result<QueryOutcome> SubmitWithFailover(Session* session,
                                          const std::string& sql_a,
                                          QueryContext* ctx);
  /// Moves the session's active connector to pool backend `target`
  /// (parking the old one; reusing a parked connector when falling back).
  Status RebindSession(Session* session, int target);
  /// True when the journal carries SET SESSION state, which is only valid
  /// under the profile it was created with (the kFailoverIncompatible
  /// pre-check for cross-replica replay).
  static bool JournalRequiresProfile(const Session* session);
  void RecordRoute(const backend::RouteDecision& route);
  /// Replays the journal onto the connector's fresh backend session;
  /// returns the number of entries replayed.
  Result<int> ReplaySessionJournal(Session* session);
  void AppendJournal(Session* session, JournalEntry entry);
  /// Drops every journal entry touching `table` (compaction on DROP).
  void CompactJournal(Session* session, const std::string& table);
  static bool StatementIsNonIdempotent(const sql::Statement& stmt);
  bool IsVolatileTable(const Session* session, const std::string& name) const;

  // --- Hedged execution (DESIGN.md §11) ---------------------------------
  /// Session-level hedge eligibility: fleet with a spare replica, no open
  /// transaction, no session-scoped (volatile) backend state. Per-site
  /// statement checks (SELECT only) are applied by the callers.
  bool HedgeEligible(const Session* session) const;
  /// Current hedge trigger in microseconds: the p95 of
  /// the hedge-eligible execution histogram, floored at the configured
  /// minimum. Cached; refreshed every few observations.
  int64_t HedgeThresholdMicros();
  void ObserveHedgeLatency(double micros);
  /// The single backend-execution choke point of the service: runs
  /// `sql_b` on the session's bound connector, and — when the tail layer
  /// is enabled and the statement is hedge-eligible — races a hedge
  /// replica against a slow primary, first completion wins.
  Result<backend::BackendResult> ExecuteOnBackend(Session* session,
                                                  const std::string& sql_b,
                                                  QueryContext* ctx,
                                                  bool hedge_eligible);
  Result<backend::BackendResult> HedgedExecute(Session* session,
                                               const std::string& sql_b,
                                               QueryContext* ctx);
  /// Joins finished straggler threads (hedge losers still draining their
  /// cancelled attempt); `all` waits for every one (destructor).
  void ReapHedgeStragglers(bool all);

  /// Submit, SubmitScript and Run: admission, tracing and accounting
  /// around one statement (`script` false) or a ';'-script's batched
  /// statements. `sql` is the request's text; `request.sql` is not read,
  /// so the wire path passes its frame's string without copying it.
  Result<QueryOutcome> SubmitStatements(const QueryRequest& request,
                                        const std::string& sql, bool script);
  /// One statement a script submits: a statement of the script as written,
  /// or a run of its single-row INSERTs merged into one multi-row INSERT
  /// (`run` then holds the run's own statements).
  struct ScriptStep {
    std::string sql;
    std::vector<std::string> run;
  };
  /// Merges runs of single-row INSERT ... VALUES into the same table into
  /// multi-row statements (paper §4.3); other statements pass through.
  std::vector<ScriptStep> BatchSingleRowInserts(
      std::vector<std::string> statements) const;
  Result<QueryOutcome> SubmitInternal(Session* session,
                                      const std::string& sql_a, int depth,
                                      QueryContext* ctx);
  Result<QueryOutcome> ExecuteStatement(Session* session,
                                        const sql::Statement& stmt,
                                        const std::string& sql_a,
                                        FeatureSet features, int depth,
                                        QueryContext* ctx,
                                        PipelineArtifacts* artifacts);

  // --- Translation cache (DESIGN.md §7) ---------------------------------
  /// What the cache probe found for one statement.
  struct CacheProbe {
    sql::NormalizedStatement norm;
    /// The lookup missed: a cold translation may be admitted under `key`.
    bool candidate = false;
    std::string key;
    int64_t catalog_version = 0;
    /// A hit: the spliced SQL-B and the cold run's feature footprint.
    bool hit = false;
    std::string sql_b;
    FeatureSet features;
  };
  /// The one probe of both entry points: normalize, bypass classes, key,
  /// lookup, negative marker, splice. Counts the hit or bypass.
  Result<CacheProbe> ProbeTranslationCache(const std::string& sql_a,
                                           uint64_t settings_digest);
  /// Statement kinds eligible for caching (single-statement query/DML
  /// pipeline, no placeholders). Everything else bypasses.
  static bool IsCacheableShape(const sql::NormalizedStatement& norm);
  /// True while any session holds a volatile table.
  bool HasVolatileNames() const;
  /// True when any identifier names a live volatile table of any session
  /// (cached SQL-B must never smuggle a session-scoped name).
  bool TouchesVolatileName(const std::vector<std::string>& idents) const;
  std::string MakeCacheKey(uint64_t settings_digest,
                           const sql::NormalizedStatement& norm,
                           int64_t catalog_version) const;
  /// Executes a cache hit: splice already done, pipeline fully skipped.
  /// `select_shape` marks a cached SELECT, the hedge-eligible shape.
  Result<QueryOutcome> ExecuteCachedStatement(
      Session* session, const FeatureSet& features, std::string sql_b,
      const Stopwatch& translation, QueryContext* ctx, bool select_shape);
  /// Cold-path insertion; counts a bypass when the statement turns out
  /// not to be safely parameterizable. `sites` is the literal provenance
  /// the serializer reported for `sql_b` (empty = value matching only). A
  /// cancelled request (`ctx`) never plants the negative "uncacheable"
  /// marker: only a clean cold run rules on the shape.
  void MaybeCacheTranslation(const std::string& cache_key,
                             const sql::NormalizedStatement& norm,
                             const std::string& sql_b,
                             const std::vector<serializer::LiteralSite>& sites,
                             const FeatureSet& features,
                             int64_t catalog_version,
                             const QueryContext* ctx);
  /// DDL hook: sweeps entries keyed to older catalog versions.
  void InvalidateTranslationCacheAfterDdl();
  static uint64_t SettingsDigest(const SessionInfo& info);
  void RecordTranslationActivity(bool translate_path, bool cache_hit,
                                 double micros);

  /// Translate's statement switch; merges the statement's footprint into
  /// `caller_features` (may be null) on success.
  Result<std::vector<std::string>> TranslateInternal(
      const std::string& sql_a, FeatureSet* caller_features, int depth);

  /// The cold path's front end, shared by Submit and Translate: lexes SQL-A
  /// once, records its Translation-class features from that token stream,
  /// and parses the same stream.
  Result<sql::StatementPtr> ParseSqlA(const std::string& sql_a,
                                      FeatureSet* features) const;
  /// Binds a query/DML statement against the catalog (under mutex_) and
  /// merges the binder's features; `ctx` carries the bind span.
  Result<xtra::OpPtr> Bind(const sql::Statement& stmt, FeatureSet* features,
                           QueryContext* ctx);
  /// The one lowering from a bound plan to SQL-B, shared by the pipeline,
  /// Translate and CREATE TABLE AS: binding-stage rules, serialization-
  /// stage rules, PERIOD insert expansion, then the serializer (reporting
  /// literal `sites` when non-null). A recursive CTE is not serialized: it
  /// returns "" and leaves `*plan` for the RecursionDriver. `ctx` carries
  /// the transform/serialize spans (null = none).
  Result<std::string> LowerToSqlB(xtra::OpPtr* plan, FeatureSet* features,
                                  QueryContext* ctx,
                                  std::vector<serializer::LiteralSite>* sites);

  // Query/DML path: bind -> lower -> execute.
  Result<QueryOutcome> RunPipeline(Session* session,
                                   const sql::Statement& stmt,
                                   FeatureSet features, QueryContext* ctx,
                                   PipelineArtifacts* artifacts = nullptr);

  // DDL translation (schema sync between DTM catalog and the target).
  Result<QueryOutcome> HandleCreateTable(Session* session,
                                         const sql::CreateTableStatement& ct,
                                         FeatureSet features,
                                         QueryContext* ctx);
  Result<QueryOutcome> HandleDropTable(Session* session,
                                       const sql::DropTableStatement& dt,
                                       FeatureSet features,
                                       QueryContext* ctx);

  // Expands PERIOD columns of an INSERT plan into begin/end pairs.
  Status ExpandPeriodInsert(xtra::Op* insert_op, FeatureSet* features);

  static backend::BackendResult PackageLocal(
      const emulation::LocalResult& local);
  /// A statement answered by the mid-tier alone: a command tag, no rows.
  static QueryOutcome CommandOutcome(const std::string& tag,
                                     FeatureSet features);

  vdb::Engine* engine_;
  ServiceOptions options_;
  Catalog catalog_;
  // The translation target, fixed at construction (options_.profile).
  const transform::Transformer transformer_;
  const serializer::Serializer serializer_;
  sql::Dialect frontend_dialect_;

  // Tail tolerance (DESIGN.md §11). Declared before pool_ and sessions_:
  // the pool's connector options point at the retry budget, so it must
  // outlive every connector during destruction.
  std::unique_ptr<RetryBudget> retry_budget_;

  // Fleet (DESIGN.md §10). Declared before sessions_ so the pool — whose
  // breakers and liveness hooks session connectors borrow — outlives every
  // session during destruction.
  std::unique_ptr<backend::BackendPool> pool_;
  std::unique_ptr<backend::Router> router_;
  // hyperq.backend.route{backend,reason}, one series per pool backend and
  // backend::kRouteReasons entry (index backend * kRouteReasons.size() +
  // reason), registered up front so recording a route is one increment.
  std::vector<observability::Counter*> c_routes_;

  // Hedged execution (DESIGN.md §11). A hedge loser's primary attempt may
  // still be draining its cancelled backend call when the winner returns;
  // the thread parks here and is reaped opportunistically (fully joined in
  // the destructor, before the pool stops).
  struct HedgeStraggler {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  mutable std::mutex stragglers_mutex_;
  std::vector<HedgeStraggler> stragglers_;
  std::atomic<int> hedges_in_flight_{0};
  std::atomic<int64_t> hedge_threshold_micros_{0};
  std::atomic<int64_t> hedge_observations_{0};

  mutable std::mutex mutex_;
  std::map<uint32_t, std::unique_ptr<Session>> sessions_;
  std::atomic<uint32_t> next_session_{1};
  WorkloadFeatureStats stats_;

  // --- Observability (DESIGN.md §9) -------------------------------------
  // The registry is the single sink for every counter below; the legacy
  // typed stats structs are derived views. Declared before
  // translation_cache_ so consumers constructed from it initialize after.
  std::unique_ptr<observability::MetricsRegistry> owned_metrics_;
  observability::MetricsRegistry* metrics_;  // options_.metrics or owned
  observability::TraceRing trace_ring_;
  // Cached series (hot-path increments skip the registry's name lookup).
  observability::Counter* c_queries_ok_;
  observability::Counter* c_queries_error_;
  observability::Counter* c_queries_cancelled_;
  observability::Counter* c_queries_deadline_;
  observability::Counter* c_slow_queries_;
  observability::Counter* c_failovers_;
  observability::Counter* c_statements_replayed_;
  observability::Counter* c_aborted_in_txn_;
  observability::Counter* c_journal_overflows_;
  observability::Counter* c_failover_cross_replica_;
  observability::Counter* c_failover_incompatible_;
  observability::Counter* c_wire_requests_;
  observability::Histogram* h_wire_convert_;
  observability::Counter* c_submit_statements_;
  observability::Counter* c_translate_statements_;
  observability::Counter* c_translate_cache_hits_;
  observability::Histogram* h_translate_;
  observability::Counter* c_cancelled_;
  observability::Counter* c_deadline_expired_;
  observability::Counter* c_client_gone_;
  observability::Counter* c_killed_;
  observability::Counter* c_spill_bytes_;
  observability::Histogram* h_result_bytes_;
  // Tail-tolerance series (DESIGN.md §11).
  observability::Counter* c_hedge_launched_;
  observability::Counter* c_hedge_wins_;
  observability::Counter* c_hedge_losses_;
  observability::Counter* c_hedge_cancelled_;
  observability::Counter* c_hedge_denied_budget_;
  observability::Counter* c_hedge_denied_load_;
  observability::Counter* c_hedge_denied_no_replica_;
  observability::Histogram* h_hedge_execute_;
  // Per-stage and per-class latency series, each resolved on its first use
  // and reused for the service's lifetime, so filing a trace builds no name
  // and does no registry lookup; a stage that never ran shows no series.
  std::array<std::atomic<observability::Histogram*>,
             observability::names::kStageCount>
      h_stages_{};
  std::atomic<observability::Histogram*> h_query_wire_{nullptr};
  std::atomic<observability::Histogram*> h_query_library_{nullptr};
  // The wire path's converter, built once: its batch histograms are
  // resolved at construction, not per Convert call.
  const convert::ResultConverter converter_;

  TranslationCache translation_cache_;
  const std::string profile_digest_;  // options_.profile.CacheKeyDigest()
  uint64_t default_settings_digest_; // digest of a fresh SessionInfo
  std::map<std::string, int> volatile_names_;   // guarded by mutex_
};

}  // namespace hyperq::service
