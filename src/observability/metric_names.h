// Canonical metric names (DESIGN.md §9). Every counter, gauge, and
// histogram the proxy registers uses a constant from this header, so the
// scrape vocabulary is greppable in one place and scripts/check_metrics.sh
// can lint it: every fault-injection point declared in common/fault.h must
// have a correspondingly named counter in kFaultPointMetrics below (the
// snapshot mirrors the injector's hit/fire counts through that table).
//
// Naming scheme: `hyperq.<component>.<event>`, dot-separated, lower-case;
// labeled series append `{key="value"}` via observability::LabeledName with
// a fixed label order. Counters count events (monotonic), gauges report
// levels, histograms end in the unit (`.micros`, `.bytes`).

#pragma once

#include <cstddef>
#include <cstdint>

namespace hyperq::observability::names {

// --- Query lifecycle (service) ---------------------------------------------
// Labeled {outcome="ok|error|cancelled|deadline"} and the per-class latency
// histogram {class="wire|library"}.
inline constexpr const char* kQueries = "hyperq.queries";
inline constexpr const char* kQueryMicros = "hyperq.query.micros";
inline constexpr const char* kStageMicros = "hyperq.stage.micros";
inline constexpr const char* kResultBytes = "hyperq.result.bytes";
inline constexpr const char* kSlowQueries = "hyperq.slow_queries";

inline constexpr const char* kLifecycleCancelled =
    "hyperq.lifecycle.cancelled";
inline constexpr const char* kLifecycleDeadlineExpired =
    "hyperq.lifecycle.deadline_expired";
inline constexpr const char* kLifecycleClientGone =
    "hyperq.lifecycle.client_gone";
inline constexpr const char* kLifecycleKilled = "hyperq.lifecycle.killed";
inline constexpr const char* kLifecycleSpillBytes =
    "hyperq.lifecycle.spill_bytes";
inline constexpr const char* kSessionsOpen = "hyperq.sessions.open";

// --- Trace stages (DESIGN.md §9) -------------------------------------------
// Every span the proxy opens names one row of this table: the instrumented
// code passes a Stage, the span records the row's static name, and a
// finished trace feeds kStageMicros{stage="<name>"} through a histogram the
// service resolves once per stage — no name string is built per request.
// scripts/check_metrics.sh enforces that no src/ span site passes a string
// literal instead, and that every row is opened somewhere.
enum class Stage : uint8_t {
  kWireRead,
  kCacheLookup,
  kParse,
  kBind,
  kTransform,
  kSerialize,
  kBackendExecute,
  kBackendAttempt,
  kBackendHedge,
  kTdfBuffer,
  kRecursionIteration,
  kConvert,
  kWireWrite,
};
inline constexpr const char* kStageNames[] = {
    "wire.read",       "cache.lookup",        "parse",
    "bind",            "transform",           "serialize",
    "backend.execute", "backend.attempt",     "backend.hedge",
    "tdf.buffer",      "recursion.iteration", "convert",
    "wire.write",
};
inline constexpr size_t kStageCount =
    sizeof(kStageNames) / sizeof(kStageNames[0]);
static_assert(kStageCount == static_cast<size_t>(Stage::kWireWrite) + 1,
              "one kStageNames row per Stage");
constexpr const char* StageName(Stage stage) {
  return kStageNames[static_cast<size_t>(stage)];
}

// --- Wire path (service-side accounting of tdwp requests) ------------------
inline constexpr const char* kWireRequests = "hyperq.wire.requests";
inline constexpr const char* kWireConvertMicros =
    "hyperq.wire.convert.micros";

// --- Result conversion (convert/result_converter, DESIGN.md §15) -----------
// Per-wire-batch size distributions; each produced batch is observed exactly
// once, after the conversion attempt succeeds, so retries never double-count.
inline constexpr const char* kConvertBatchRows =
    "hyperq.convert.batch.rows";
inline constexpr const char* kConvertBatchBytes =
    "hyperq.convert.batch.bytes";

// --- Translation (both entry points: Submit/Run and Translate) -------------
inline constexpr const char* kTranslateSubmitStatements =
    "hyperq.translate.submit_statements";
inline constexpr const char* kTranslateOnlyStatements =
    "hyperq.translate.translate_statements";
inline constexpr const char* kTranslateCacheHits =
    "hyperq.translate.cache_hits";
inline constexpr const char* kTranslateMicros = "hyperq.translate.micros";

// --- Translation cache (service/translation_cache) -------------------------
inline constexpr const char* kCacheHits = "hyperq.cache.hits";
inline constexpr const char* kCacheMisses = "hyperq.cache.misses";
inline constexpr const char* kCacheBypasses = "hyperq.cache.bypasses";
inline constexpr const char* kCacheInserts = "hyperq.cache.inserts";
inline constexpr const char* kCacheEvictions = "hyperq.cache.evictions";
inline constexpr const char* kCacheInvalidations =
    "hyperq.cache.invalidations";
inline constexpr const char* kCacheEntries = "hyperq.cache.entries";
inline constexpr const char* kCacheBytes = "hyperq.cache.bytes";

// --- Backend connector (retries, breaker, failover) ------------------------
inline constexpr const char* kBackendAttempts = "hyperq.backend.attempts";
inline constexpr const char* kBackendRetries = "hyperq.backend.retries";
inline constexpr const char* kBackendBreakerRejections =
    "hyperq.backend.breaker_rejections";
inline constexpr const char* kBackendSessionLosses =
    "hyperq.backend.session_losses";
inline constexpr const char* kBackendBackoffMicros =
    "hyperq.backend.backoff.micros";
inline constexpr const char* kFailoverReplays = "hyperq.failover.replays";
inline constexpr const char* kFailoverStatementsReplayed =
    "hyperq.failover.statements_replayed";
inline constexpr const char* kFailoverAbortedInTxn =
    "hyperq.failover.aborted_in_txn";
inline constexpr const char* kFailoverJournalOverflows =
    "hyperq.failover.journal_overflows";

// --- Backend fleet: pool, prober, router (DESIGN.md §10) --------------------
// kBackendRoute is labeled {backend="...",reason="sticky|p2c|only|..."};
// kBackendHealth / kBackendInFlight are labeled {backend="..."} gauges.
inline constexpr const char* kBackendRoute = "hyperq.backend.route";
inline constexpr const char* kBackendHealth = "hyperq.backend.health";
inline constexpr const char* kBackendInFlight =
    "hyperq.backend.in_flight";
inline constexpr const char* kBackendEjections =
    "hyperq.backend.ejections";
inline constexpr const char* kBackendReadmissions =
    "hyperq.backend.readmissions";
inline constexpr const char* kBackendSlotDenials =
    "hyperq.backend.slot_denials";
inline constexpr const char* kPoolProbes = "hyperq.pool.probes";
inline constexpr const char* kPoolProbeFailures =
    "hyperq.pool.probe_failures";
inline constexpr const char* kFailoverCrossReplica =
    "hyperq.failover.cross_replica";
inline constexpr const char* kFailoverIncompatible =
    "hyperq.failover.incompatible";

// --- Tail tolerance (DESIGN.md §11): hedged reads and the global retry
// budget. Counters live where the events happen; the budget levels and the
// hedge trigger are mirrored into gauges at snapshot time. ------------------
inline constexpr const char* kHedgeLaunched = "hyperq.hedge.launched";
inline constexpr const char* kHedgeWins = "hyperq.hedge.wins";
inline constexpr const char* kHedgeLosses = "hyperq.hedge.losses";
inline constexpr const char* kHedgeCancelled = "hyperq.hedge.cancelled";
inline constexpr const char* kHedgeDeniedBudget =
    "hyperq.hedge.denied_budget";
inline constexpr const char* kHedgeDeniedLoad = "hyperq.hedge.denied_load";
inline constexpr const char* kHedgeDeniedNoReplica =
    "hyperq.hedge.denied_no_replica";
inline constexpr const char* kHedgeLoserReleases =
    "hyperq.hedge.loser_releases";
inline constexpr const char* kHedgeExecuteMicros =
    "hyperq.hedge.execute.micros";
inline constexpr const char* kHedgeThresholdMicros =
    "hyperq.hedge.threshold_micros";
inline constexpr const char* kRetryBudgetTokens =
    "hyperq.retry_budget.tokens";
inline constexpr const char* kRetryBudgetDeposits =
    "hyperq.retry_budget.deposits";
inline constexpr const char* kRetryBudgetWithdrawals =
    "hyperq.retry_budget.withdrawals";
inline constexpr const char* kRetryBudgetDenials =
    "hyperq.retry_budget.denials";

// --- Resource governor (mirrored into gauges at snapshot time; the
// governor lives in common/ below the observability layer) ------------------
inline constexpr const char* kGovernorMemoryBytes =
    "hyperq.governor.memory_bytes";
inline constexpr const char* kGovernorPeakMemoryBytes =
    "hyperq.governor.peak_memory_bytes";
inline constexpr const char* kGovernorSpillBytes =
    "hyperq.governor.spill_bytes";
inline constexpr const char* kGovernorTotalSpillBytes =
    "hyperq.governor.total_spill_bytes";
inline constexpr const char* kGovernorMemoryDenials =
    "hyperq.governor.memory_denials";
inline constexpr const char* kGovernorSpillDenials =
    "hyperq.governor.spill_denials";
inline constexpr const char* kGovernorShedQueries =
    "hyperq.governor.shed_queries";

// --- tdwp server (admission/overload) --------------------------------------
inline constexpr const char* kServerAdmitted = "hyperq.server.admitted";
inline constexpr const char* kServerShed = "hyperq.server.shed";
inline constexpr const char* kServerDrained = "hyperq.server.drained";
inline constexpr const char* kServerForceClosed =
    "hyperq.server.force_closed";
inline constexpr const char* kServerScrapes = "hyperq.server.scrapes";
inline constexpr const char* kServerFrameStalls =
    "hyperq.server.frame_stalls";

// --- Chaos layer (DESIGN.md §13): the scenario orchestrator, the link
// shim's injection counters, and the invariant auditor. Link-fault counters
// are labeled {scope="frontend|client|backend"}. ------------------------------
inline constexpr const char* kChaosScenarios = "hyperq.chaos.scenarios";
inline constexpr const char* kChaosPhases = "hyperq.chaos.phases";
inline constexpr const char* kChaosActions =
    "hyperq.chaos.actions_applied";
inline constexpr const char* kChaosScenarioActive =
    "hyperq.chaos.scenario_active";
inline constexpr const char* kChaosLinkLatencyInjections =
    "hyperq.chaos.link.latency_injections";
inline constexpr const char* kChaosLinkThrottleSleeps =
    "hyperq.chaos.link.throttle_sleeps";
inline constexpr const char* kChaosLinkShortIos =
    "hyperq.chaos.link.short_ios";
inline constexpr const char* kChaosLinkCorruptions =
    "hyperq.chaos.link.corruptions";
inline constexpr const char* kChaosLinkResets = "hyperq.chaos.link.resets";
inline constexpr const char* kChaosLinkPartitionDrops =
    "hyperq.chaos.link.partition_drops";
inline constexpr const char* kChaosAuditRuns = "hyperq.chaos.audit.runs";
inline constexpr const char* kChaosAuditViolations =
    "hyperq.chaos.audit.violations";

// --- Fault-injection points (mirrored from FaultInjector::Global()) --------
// scripts/check_metrics.sh enforces that every point declared in
// common/fault.h appears here; the snapshot walks this table and publishes
// `<metric>.hits` / `<metric>.fires` gauges for each.
struct FaultPointMetric {
  const char* point;   // the faultpoints:: constant's string value
  const char* metric;  // base metric name for this point
};
inline constexpr FaultPointMetric kFaultPointMetrics[] = {
    {"vdb.execute", "hyperq.faults.vdb.execute"},
    {"connector.fetch_batch", "hyperq.faults.connector.fetch_batch"},
    {"socket.read", "hyperq.faults.socket.read"},
    {"socket.write", "hyperq.faults.socket.write"},
    {"store.spill", "hyperq.faults.store.spill"},
    {"backend.session_lost", "hyperq.faults.backend.session_lost"},
    {"server.admit", "hyperq.faults.server.admit"},
    {"convert.encode_row", "hyperq.faults.convert.encode_row"},
    {"tdf.append", "hyperq.faults.tdf.append"},
    {"store.spill_write", "hyperq.faults.store.spill_write"},
    {"pool.probe", "hyperq.faults.pool.probe"},
    {"backend.ejected", "hyperq.faults.backend.ejected"},
    {"router.pick", "hyperq.faults.router.pick"},
};
inline constexpr size_t kFaultPointMetricCount =
    sizeof(kFaultPointMetrics) / sizeof(kFaultPointMetrics[0]);

// --- Backend health states (mirrored from BackendPool) ---------------------
// scripts/check_metrics.sh enforces that every BackendHealth enumerator in
// src/backend/pool.h appears here; the snapshot publishes each as a gauge
// counting the backends currently in that state.
struct HealthStateMetric {
  const char* state;   // BackendHealthName() string value
  const char* metric;  // gauge name for the per-state backend count
};
inline constexpr HealthStateMetric kHealthStateMetrics[] = {
    {"healthy", "hyperq.backend.health.healthy"},
    {"degraded", "hyperq.backend.health.degraded"},
    {"ejected", "hyperq.backend.health.ejected"},
};
inline constexpr size_t kHealthStateMetricCount =
    sizeof(kHealthStateMetrics) / sizeof(kHealthStateMetrics[0]);

}  // namespace hyperq::observability::names
