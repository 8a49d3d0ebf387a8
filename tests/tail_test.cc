// Tail-tolerance suite (ctest label: tail, DESIGN.md §11): the global
// retry budget (token-bucket bounding of retry amplification) and hedged
// reads for idempotent SELECTs (adaptive trigger, first-completion-wins,
// loser cancellation). Everything here is deterministic apart
// from coarse latency ordering (a replica slowed by tens of milliseconds
// vs. sub-millisecond fast paths), so the suite is stable under ASan/TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "backend/pool.h"
#include "backend/router.h"
#include "common/fault.h"
#include "common/retry.h"
#include "common/retry_budget.h"
#include "common/status.h"
#include "observability/metric_names.h"
#include "service/hyperq_service.h"
#include "transform/backend_profile.h"
#include "vdb/engine.h"

namespace hyperq {
namespace {

namespace names = observability::names;
using backend::BackendHealth;
using backend::BackendPool;
using backend::BackendSpec;
using backend::PoolOptions;

class TailTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().Reset();
    FaultInjector::Global().SetSeed(0x5EED);
  }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

std::vector<BackendSpec> Replicas(int n) {
  std::vector<BackendSpec> specs(n);
  for (int i = 0; i < n; ++i) {
    specs[i].name = "r" + std::to_string(i);
    specs[i].profile = transform::BackendProfile::Vdb();
  }
  return specs;
}

backend::HealthOptions TestHealth() {
  backend::HealthOptions h;
  h.error_weight = 1.5;
  h.decay_half_life_ms = 1e9;
  h.readmit_cooldown_ms = 40;
  h.readmit_jitter = 0.5;
  return h;
}

// Fleet options with hedging armed: a 2ms floor threshold (far below the
// SlowBackend delays the tests inject) and a permissive load fraction so
// admission is decided by the scenario, not the gate under test.
service::ServiceOptions HedgeServiceOptions(int replicas) {
  service::ServiceOptions options;
  options.connector.retry.max_attempts = 2;
  options.connector.retry.base_delay_ms = 1;
  options.connector.retry.max_delay_ms = 2;
  options.fleet.backends = Replicas(replicas);
  options.fleet.health = TestHealth();
  options.tail.hedge.enabled = true;
  options.tail.hedge.min_threshold_micros = 2000;
  options.tail.hedge.max_hedge_fraction = 1.0;
  return options;
}

int64_t Counter(service::HyperQService& service, const char* name) {
  return service.metrics_registry()->counter(name)->value();
}

// --- Retry budget ------------------------------------------------------------

TEST_F(TailTest, RetryBudgetDrainsAndRefillsWithTraffic) {
  RetryBudgetOptions options;
  options.enabled = true;
  options.ratio = 0.5;
  options.max_tokens = 2.0;
  options.initial_tokens = 1.0;
  RetryBudget budget(options);

  EXPECT_TRUE(budget.TryWithdraw());   // 1 -> 0
  EXPECT_FALSE(budget.TryWithdraw());  // empty: denied

  // Organic traffic refills at `ratio` per request...
  budget.NoteRequest();
  budget.NoteRequest();  // +1.0 total
  EXPECT_TRUE(budget.TryWithdraw());

  // ...and the bucket is capped at max_tokens, bounding bursts.
  for (int i = 0; i < 20; ++i) budget.NoteRequest();
  EXPECT_TRUE(budget.TryWithdraw());
  EXPECT_TRUE(budget.TryWithdraw());
  EXPECT_FALSE(budget.TryWithdraw());

  RetryBudgetStats stats = budget.stats();
  EXPECT_EQ(stats.deposits, 22);
  EXPECT_EQ(stats.withdrawals, 4);
  EXPECT_EQ(stats.denials, 2);
  EXPECT_LT(stats.tokens, 1.0);
}

TEST_F(TailTest, DisabledRetryBudgetAlwaysAdmitsAndCountsNothing) {
  RetryBudget budget;  // default: disabled
  ASSERT_FALSE(budget.enabled());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(budget.TryWithdraw());
  budget.NoteRequest();
  RetryBudgetStats stats = budget.stats();
  EXPECT_EQ(stats.deposits, 0);
  EXPECT_EQ(stats.withdrawals, 0);
  EXPECT_EQ(stats.denials, 0);
}

TEST_F(TailTest, RetryCallDenialCarriesTypedDetail) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.base_delay_ms = 1;
  policy.max_delay_ms = 2;
  RetryBudgetOptions empty;
  empty.enabled = true;
  empty.initial_tokens = 0;
  empty.max_tokens = 0;
  RetryBudget budget(empty);

  int calls = 0;
  Status st = RetryCall(policy, Deadline::Infinite(), nullptr, nullptr,
                        &budget, [&] {
                          ++calls;
                          return Status::Unavailable("backend down");
                        });
  EXPECT_EQ(calls, 1) << "an exhausted budget degrades to single-attempt";
  EXPECT_TRUE(st.IsUnavailable());
  EXPECT_EQ(st.detail(), StatusDetail::kRetryBudgetExhausted);
  // The underlying failure stays diagnosable through the typed denial.
  EXPECT_NE(st.message().find("backend down"), std::string::npos);

  // A funded budget admits the retries as before.
  RetryBudgetOptions funded;
  funded.enabled = true;
  funded.initial_tokens = 10;
  RetryBudget rich(funded);
  calls = 0;
  st = RetryCall(policy, Deadline::Infinite(), nullptr, nullptr, &rich, [&] {
    return ++calls < 3 ? Status::Unavailable("flaky") : Status::OK();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(rich.stats().withdrawals, 2);
}

TEST_F(TailTest, WithContextPreservesTailDetails) {
  Status budget = Status::Unavailable("no tokens")
                      .WithDetail(StatusDetail::kRetryBudgetExhausted)
                      .WithContext("while hedging SEL 1");
  EXPECT_EQ(budget.detail(), StatusDetail::kRetryBudgetExhausted);
  EXPECT_NE(budget.ToString().find("[retry_budget_exhausted]"),
            std::string::npos)
      << budget.ToString();
}

// Satellite: hedge losers are cancelled, not sick — their releases must
// not move the health score or the router's view.
TEST_F(TailTest, HedgeLoserReleaseBypassesScorerAndLimiter) {
  vdb::Engine engine;
  PoolOptions options;
  options.health = TestHealth();
  BackendPool pool(&engine, Replicas(1), options);

  ASSERT_TRUE(pool.Acquire(0).ok());
  pool.Release(0, Status::Cancelled("hedge lost: primary completed first"),
               BackendPool::ReleaseKind::kHedgeLoser);
  // Even a liveness-flavored loser outcome (the leg died mid-cancel) must
  // not poison the replica's score.
  ASSERT_TRUE(pool.Acquire(0).ok());
  pool.Release(0, Status::Unavailable("cancelled mid-fetch"),
               BackendPool::ReleaseKind::kHedgeLoser);

  EXPECT_EQ(pool.health(0), BackendHealth::kHealthy);
  EXPECT_EQ(pool.health_score(0), 0.0);
  EXPECT_EQ(pool.stats().hedge_loser_releases, 2);
  EXPECT_EQ(pool.in_flight(0), 0) << "the slot itself is still released";
}

TEST_F(TailTest, HedgedReadWinsOnSlowPrimary) {
  vdb::Engine engine;
  service::HyperQService service(&engine, HedgeServiceOptions(2));
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  int bound = service.session_backend(*sid);
  ASSERT_GE(bound, 0);
  // Slow — not dead: health stays green, so no failover path fires and
  // only the hedging layer can rescue the latency.
  service.backend_pool()->SlowBackend(bound, 40);

  auto out = service.Submit(*sid, "SEL 1");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->timing.hedges, 1);
  EXPECT_TRUE(out->timing.hedge_won);
  auto rows = out->result.DecodeRows();
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u) << "exactly one result, no duplicate delivery";
  EXPECT_EQ((*rows)[0][0].int_val(), 1);

  EXPECT_GE(Counter(service, names::kHedgeLaunched), 1);
  EXPECT_GE(Counter(service, names::kHedgeWins), 1);
  EXPECT_EQ(Counter(service, names::kHedgeLosses), 0);
  // The session stays bound to its primary: a hedge is not a failover.
  EXPECT_EQ(service.session_backend(*sid), bound);
  auto snapshot = service.StatsSnapshot().metrics;
  EXPECT_GE(snapshot.GaugeOr(names::kHedgeThresholdMicros), 2000);
}

TEST_F(TailTest, HedgeLosesWhenPrimaryFinishesFirst) {
  vdb::Engine engine;
  service::HyperQService service(&engine, HedgeServiceOptions(2));
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  int bound = service.session_backend(*sid);
  ASSERT_GE(bound, 0);
  int other = 1 - bound;
  // The primary is slow enough to trip the 2ms trigger but much faster
  // than the hedge replica: the hedge launches, loses, and is cancelled.
  service.backend_pool()->SlowBackend(bound, 8);
  service.backend_pool()->SlowBackend(other, 60);

  auto out = service.Submit(*sid, "SEL 1");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->timing.hedges, 1);
  EXPECT_FALSE(out->timing.hedge_won);
  EXPECT_GE(Counter(service, names::kHedgeLaunched), 1);
  EXPECT_GE(Counter(service, names::kHedgeLosses), 1);
  EXPECT_EQ(Counter(service, names::kHedgeWins), 0);
  EXPECT_GE(Counter(service, names::kHedgeCancelled), 1);
  // The cancelled loser's release is visible — and harmless to health.
  EXPECT_GE(service.backend_pool()->stats().hedge_loser_releases, 1);
  EXPECT_EQ(service.backend_pool()->health(other), BackendHealth::kHealthy);
}

TEST_F(TailTest, HedgeDeniedWithoutSpareReplica) {
  vdb::Engine engine;
  service::HyperQService service(&engine, HedgeServiceOptions(2));
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  int bound = service.session_backend(*sid);
  ASSERT_GE(bound, 0);
  service.backend_pool()->KillBackend(1 - bound);
  service.backend_pool()->SlowBackend(bound, 10);

  // No live second replica: the hedge is denied and the query simply
  // waits its slow primary out.
  auto out = service.Submit(*sid, "SEL 1");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->timing.hedges, 0);
  EXPECT_GE(Counter(service, names::kHedgeDeniedNoReplica), 1);
  EXPECT_EQ(Counter(service, names::kHedgeLaunched), 0);
}

TEST_F(TailTest, HedgeDeniedByExhaustedRetryBudget) {
  vdb::Engine engine;
  auto options = HedgeServiceOptions(2);
  options.tail.retry_budget.enabled = true;
  options.tail.retry_budget.initial_tokens = 0;
  options.tail.retry_budget.max_tokens = 0;
  options.tail.retry_budget.ratio = 0;
  service::HyperQService service(&engine, options);
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  int bound = service.session_backend(*sid);
  ASSERT_GE(bound, 0);
  service.backend_pool()->SlowBackend(bound, 10);

  // A hedge is speculative work and must win a budget token first.
  auto out = service.Submit(*sid, "SEL 1");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->timing.hedges, 0);
  EXPECT_GE(Counter(service, names::kHedgeDeniedBudget), 1);
  EXPECT_EQ(Counter(service, names::kHedgeLaunched), 0);
  EXPECT_GE(service.retry_budget()->stats().denials, 1);
}

TEST_F(TailTest, NonIdempotentStatementsNeverHedge) {
  vdb::Engine engine;
  service::HyperQService service(&engine, HedgeServiceOptions(2));
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(service.Submit(*sid, "CREATE TABLE T (A INTEGER)").ok());
  int bound = service.session_backend(*sid);
  ASSERT_GE(bound, 0);
  service.backend_pool()->SlowBackend(bound, 8);

  // DML is not idempotent: re-running it on a second replica could apply
  // the write twice. It must wait out the slow primary unhedged.
  ASSERT_TRUE(service.Submit(*sid, "INS INTO T VALUES (1)").ok());
  ASSERT_TRUE(service.Submit(*sid, "UPDATE T SET A = 2 WHERE A = 1").ok());
  ASSERT_TRUE(service.Submit(*sid, "DEL FROM T").ok());
  EXPECT_EQ(Counter(service, names::kHedgeLaunched), 0);

  // A SELECT from the same (journal-clean) session does hedge.
  auto out = service.Submit(*sid, "SEL * FROM T");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_GE(Counter(service, names::kHedgeLaunched), 1);
}

TEST_F(TailTest, OpenTransactionsAndVolatileStateFenceHedging) {
  vdb::Engine engine;
  service::HyperQService service(&engine, HedgeServiceOptions(2));
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(service.Submit(*sid, "CREATE TABLE T (A INTEGER)").ok());
  int bound = service.session_backend(*sid);
  ASSERT_GE(bound, 0);
  service.backend_pool()->SlowBackend(bound, 8);

  // Inside an open transaction even a SELECT must stay on the primary:
  // its snapshot is the transaction's.
  ASSERT_TRUE(service.Submit(*sid, "BT").ok());
  ASSERT_TRUE(service.Submit(*sid, "SEL * FROM T").ok());
  EXPECT_EQ(Counter(service, names::kHedgeLaunched), 0);
  ASSERT_TRUE(service.Submit(*sid, "ET").ok());

  // Session-scoped volatile state lives only on the bound replica; a
  // hedge on a fresh connector would not see it.
  ASSERT_TRUE(
      service.Submit(*sid, "CREATE VOLATILE TABLE SCRATCH (A INTEGER)").ok());
  ASSERT_TRUE(service.Submit(*sid, "SEL * FROM SCRATCH").ok());
  EXPECT_EQ(Counter(service, names::kHedgeLaunched), 0);
}

// --- Retry storms ------------------------------------------------------------

// Satellite acceptance: with every backend attempt failing transient and
// aggressive per-call retry policies, total backend attempts stay within
// the budget's ratio of organic traffic — a retry storm cannot amplify
// load more than (1 + ratio) plus the initial burst allowance.
TEST_F(TailTest, RetryStormStaysWithinBudgetRatio) {
  vdb::Engine engine;
  service::ServiceOptions options;
  options.connector.retry.max_attempts = 6;  // aggressive client retries
  options.connector.retry.base_delay_ms = 1;
  options.connector.retry.max_delay_ms = 1;
  options.connector.breaker.failure_threshold = 1000000;  // isolate budget
  options.tail.retry_budget.enabled = true;
  options.tail.retry_budget.ratio = 0.1;
  options.tail.retry_budget.initial_tokens = 3;
  options.tail.retry_budget.max_tokens = 5;
  service::HyperQService service(&engine, options);
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());

  ASSERT_TRUE(
      FaultInjector::Global().Configure("vdb.execute=transient").ok());
  constexpr int kRequests = 40;
  Status last;
  for (int i = 0; i < kRequests; ++i) {
    auto r = service.Submit(*sid, "SEL 1");
    ASSERT_FALSE(r.ok());
    last = r.status();
  }
  FaultInjector::Global().Reset();

  // Withdrawals are bounded by initial_tokens + ratio * requests.
  const int64_t attempts = Counter(service, names::kBackendAttempts);
  const int64_t max_extra =
      static_cast<int64_t>(options.tail.retry_budget.initial_tokens +
                           options.tail.retry_budget.ratio * kRequests) +
      1;
  EXPECT_GE(attempts, kRequests);
  EXPECT_LE(attempts, kRequests + max_extra)
      << "retry amplification exceeded the budget ratio";
  RetryBudgetStats budget = service.retry_budget()->stats();
  EXPECT_GT(budget.denials, 0);
  EXPECT_LE(budget.withdrawals, max_extra);
  // Once drained, denials carry the typed detail all the way out.
  EXPECT_EQ(last.detail(), StatusDetail::kRetryBudgetExhausted) << last;
}

// --- Compatibility -----------------------------------------------------------

// Acceptance: with the tail layer left at defaults (everything off), a
// single-backend service behaves exactly as before — nothing is hedged or
// budgeted, and the tail series all read zero.
TEST_F(TailTest, DisabledTailLayerIsInertOnSingleBackend) {
  vdb::Engine engine;
  service::HyperQService service(&engine);
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(service.Submit(*sid, "CREATE TABLE T (A INTEGER)").ok());
  ASSERT_TRUE(service.Submit(*sid, "INS INTO T VALUES (1)").ok());
  auto out = service.Submit(*sid, "SEL * FROM T");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->timing.hedges, 0);
  EXPECT_FALSE(out->timing.hedge_won);

  EXPECT_FALSE(service.retry_budget()->enabled());

  auto snapshot = service.StatsSnapshot().metrics;
  EXPECT_EQ(snapshot.CounterOr(names::kHedgeLaunched), 0);
  EXPECT_EQ(snapshot.CounterOr(names::kHedgeWins), 0);
  EXPECT_EQ(snapshot.GaugeOr(names::kRetryBudgetDenials), 0);
  service.CloseSession(*sid);
  EXPECT_EQ(service.open_sessions(), 0u);
}

}  // namespace
}  // namespace hyperq
