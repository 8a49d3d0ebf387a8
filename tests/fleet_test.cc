// Fleet suite (ctest label: fleet, DESIGN.md §10): the backend pool's
// health state machine (passive scoring, active probes, ejection with
// jittered re-admission), deterministic health/load-based routing,
// mid-query cross-replica failover with session-journal replay, the typed
// incompatible-failover error, and a chaos soak with a flapping replica —
// all deterministic (fixed seeds, short bounded waits) so the availability
// claims are provable in CI, including under ASan/TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "backend/pool.h"
#include "backend/router.h"
#include "common/fault.h"
#include "common/resource_governor.h"
#include "common/retry.h"
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
using backend::RouteConstraints;
using backend::Router;

class FleetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().Reset();
    FaultInjector::Global().SetSeed(0x5EED);
  }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

template <typename Cond>
::testing::AssertionResult WaitFor(Cond cond, int timeout_ms = 2000) {
  for (int i = 0; i < timeout_ms; ++i) {
    if (cond()) return ::testing::AssertionSuccess();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (cond()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "condition not met within " << timeout_ms << "ms";
}

std::vector<BackendSpec> Replicas(int n) {
  std::vector<BackendSpec> specs(n);
  for (int i = 0; i < n; ++i) {
    specs[i].name = "r" + std::to_string(i);
    specs[i].profile = transform::BackendProfile::Vdb();
  }
  return specs;
}

// Health knobs tuned for tests: no decay unless asked, fast re-admission,
// and an error weight strictly above the degrade threshold so one failure
// lands firmly inside the DEGRADED band (thresholds are >= comparisons on
// a decaying score; exact-threshold scores are not stable states).
backend::HealthOptions TestHealth() {
  backend::HealthOptions h;
  h.error_weight = 1.5;
  h.decay_half_life_ms = 1e9;  // effectively frozen score
  h.readmit_cooldown_ms = 40;
  h.readmit_jitter = 0.5;
  return h;
}

service::ServiceOptions FleetServiceOptions(int replicas) {
  service::ServiceOptions options;
  options.connector.retry.max_attempts = 2;
  options.connector.retry.base_delay_ms = 1;
  options.connector.retry.max_delay_ms = 2;
  options.fleet.backends = Replicas(replicas);
  options.fleet.health = TestHealth();
  return options;
}

// --- Pool: health state machine ---------------------------------------------

TEST_F(FleetTest, PassiveErrorsDegradeThenEjectThenReadmit) {
  vdb::Engine engine;
  PoolOptions options;
  options.health = TestHealth();
  BackendPool pool(&engine, Replicas(1), options);
  ASSERT_EQ(pool.health(0), BackendHealth::kHealthy);

  // One liveness-flavored failure (weight 1.5) crosses the degrade
  // threshold (1.0)...
  ASSERT_TRUE(pool.Acquire(0).ok());
  pool.Release(0, Status::Unavailable("flake"));
  EXPECT_EQ(pool.health(0), BackendHealth::kDegraded);

  // ...a syntax error says nothing about the replica (no score change)...
  ASSERT_TRUE(pool.Acquire(0).ok());
  pool.Release(0, Status::SyntaxError("bad sql"));
  EXPECT_EQ(pool.health(0), BackendHealth::kDegraded);

  // ...and two more liveness failures cross the eject threshold (3.0).
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(pool.Acquire(0).ok());
    pool.Release(0, Status::SessionLost("gone"));
  }
  EXPECT_EQ(pool.health(0), BackendHealth::kEjected);
  EXPECT_EQ(pool.stats().ejections, 1);

  // Jittered cooldown (40ms + up to 20ms deterministic jitter) elapses:
  // the backend re-enters as DEGRADED probation, score pinned inside the
  // degraded band.
  ASSERT_TRUE(WaitFor([&] {
    return pool.health(0) == BackendHealth::kDegraded;
  }));
  EXPECT_EQ(pool.stats().readmissions, 1);
  EXPECT_GE(pool.health_score(0), backend::kDegradeScore);
  EXPECT_LT(pool.health_score(0), backend::kEjectScore);
}

TEST_F(FleetTest, ScoreDecaysBackToHealthy) {
  vdb::Engine engine;
  PoolOptions options;
  options.health = TestHealth();
  options.health.decay_half_life_ms = 5;  // fast decay
  BackendPool pool(&engine, Replicas(1), options);
  ASSERT_TRUE(pool.Acquire(0).ok());
  pool.Release(0, Status::Unavailable("flake"));
  EXPECT_EQ(pool.health(0), BackendHealth::kDegraded);
  // A few half-lives of quiet time halve the score below the threshold.
  ASSERT_TRUE(WaitFor([&] {
    return pool.health(0) == BackendHealth::kHealthy;
  }));
}

TEST_F(FleetTest, KilledBackendIsEjectedAndAcquireFailsTyped) {
  vdb::Engine engine;
  PoolOptions options;
  options.health = TestHealth();
  BackendPool pool(&engine, Replicas(2), options);
  pool.KillBackend(1);
  EXPECT_EQ(pool.health(1), BackendHealth::kEjected);

  Status denied = pool.Acquire(1);
  ASSERT_FALSE(denied.ok());
  EXPECT_TRUE(denied.IsUnavailable()) << denied;
  EXPECT_EQ(denied.detail(), StatusDetail::kBackendDown) << denied;

  // Revival is probation, not amnesty: DEGRADED until the score decays.
  pool.ReviveBackend(1);
  EXPECT_EQ(pool.health(1), BackendHealth::kDegraded);
  EXPECT_TRUE(pool.Acquire(1).ok());
  pool.Release(1, Status::OK());
}

TEST_F(FleetTest, FailedProbesDriveEjectionAndCount) {
  vdb::Engine engine;
  PoolOptions options;
  options.health = TestHealth();
  BackendPool pool(&engine, Replicas(1), options);

  FaultSpec spec;
  spec.kind = FaultKind::kTransient;
  spec.max_fires = 3;
  FaultInjector::Global().Arm(faultpoints::kPoolProbe, spec);
  for (int i = 0; i < 3; ++i) pool.ProbeNow();
  EXPECT_EQ(pool.stats().probes, 3);
  EXPECT_EQ(pool.stats().probe_failures, 3);
  EXPECT_EQ(pool.health(0), BackendHealth::kEjected);

  // The fault is spent: successful probes past the cooldown lift the
  // ejection into probation.
  ASSERT_TRUE(WaitFor([&] {
    (void)pool.ProbeBackend(0);
    return pool.health(0) == BackendHealth::kDegraded;
  }));
}

TEST_F(FleetTest, BackgroundProberRunsAndStops) {
  vdb::Engine engine;
  PoolOptions options;
  options.health = TestHealth();
  options.health.probe_interval_ms = 5;
  BackendPool pool(&engine, Replicas(2), options);
  pool.Start();
  ASSERT_TRUE(WaitFor([&] { return pool.stats().probes >= 6; }));
  pool.Stop();
  int64_t after_stop = pool.stats().probes;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(pool.stats().probes, after_stop);
  EXPECT_EQ(pool.stats().probe_failures, 0);
}

TEST_F(FleetTest, PerBackendInFlightCapDeniesWithResourceExhausted) {
  vdb::Engine engine;
  PoolOptions options;
  options.health = TestHealth();
  options.governor = std::make_shared<ResourceGovernor>();
  auto specs = Replicas(1);
  specs[0].max_in_flight = 1;
  BackendPool pool(&engine, specs, options);

  ASSERT_TRUE(pool.Acquire(0).ok());
  Status denied = pool.Acquire(0);
  ASSERT_FALSE(denied.ok());
  EXPECT_TRUE(denied.IsResourceExhausted()) << denied;
  EXPECT_EQ(pool.stats().slot_denials, 1);
  pool.Release(0, Status::OK());
  EXPECT_TRUE(pool.Acquire(0).ok());
  pool.Release(0, Status::OK());
}

// The pool keeps the cap itself: a fleet configured without a
// ResourceGovernor is capped too, and concurrent claims never overshoot.
TEST_F(FleetTest, InFlightCapHoldsWithoutAGovernor) {
  vdb::Engine engine;
  observability::MetricsRegistry registry;
  PoolOptions options;
  options.health = TestHealth();
  options.metrics = &registry;
  auto specs = Replicas(1);
  specs[0].max_in_flight = 2;
  BackendPool pool(&engine, specs, options);

  ASSERT_TRUE(pool.Acquire(0).ok());
  ASSERT_TRUE(pool.Acquire(0).ok());
  Status denied = pool.Acquire(0);
  ASSERT_FALSE(denied.ok());
  EXPECT_TRUE(denied.IsResourceExhausted()) << denied;
  EXPECT_EQ(pool.in_flight(0), 2);
  EXPECT_EQ(pool.stats().slot_denials, 1);
  EXPECT_EQ(registry.counter(names::kBackendSlotDenials)->value(), 1);
  pool.Release(0, Status::OK());
  pool.Release(0, Status::OK());

  std::atomic<int> peak{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        if (!pool.Acquire(0).ok()) continue;
        int now = pool.in_flight(0);
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        pool.Release(0, Status::OK());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(peak.load(), 2);
  EXPECT_EQ(pool.in_flight(0), 0);
}

// Satellite: the breaker's fail-fast rejection carries a distinct
// sub-reason, so the router can tell "backend down, nothing was tried"
// from "the query itself failed".
TEST_F(FleetTest, BreakerOpenRejectionCarriesBreakerOpenDetail) {
  CircuitBreakerOptions options;
  options.failure_threshold = 1;
  options.cooldown_ms = 10000;
  CircuitBreaker breaker(options);
  ASSERT_TRUE(breaker.Admit().ok());
  breaker.OnFailure();
  Status rejected = breaker.Admit();
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.IsUnavailable()) << rejected;
  EXPECT_EQ(rejected.detail(), StatusDetail::kBreakerOpen) << rejected;
  EXPECT_NE(rejected.ToString().find("[breaker_open]"), std::string::npos)
      << rejected.ToString();
}

// --- Router: placement -------------------------------------------------------

TEST_F(FleetTest, PlacementIsDeterministicUnderSeededLoad) {
  vdb::Engine engine;
  PoolOptions options;
  options.health = TestHealth();
  BackendPool pool(&engine, Replicas(3), options);
  // Seeded load skew: r0 carries 4 in-flight queries.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(pool.Acquire(0).ok());

  Router first(&pool, /*seed=*/42);
  Router second(&pool, /*seed=*/42);
  std::vector<int> picks_first, picks_second;
  for (int i = 0; i < 64; ++i) {
    auto r = first.Pick();
    ASSERT_TRUE(r.ok()) << r.status();
    picks_first.push_back(r->backend);
    EXPECT_EQ(r->reason, "p2c");
  }
  for (int i = 0; i < 64; ++i) {
    auto r = second.Pick();
    ASSERT_TRUE(r.ok()) << r.status();
    picks_second.push_back(r->backend);
  }
  // Same seed, same pool state, same pick ordinal -> identical placement.
  EXPECT_EQ(picks_first, picks_second);

  // Power-of-two-choices steers away from the loaded replica: r0 only wins
  // when both probes land on it.
  int count[3] = {0, 0, 0};
  for (int p : picks_first) ++count[p];
  EXPECT_LT(count[0], count[1]);
  EXPECT_LT(count[0], count[2]);
  for (int i = 0; i < 4; ++i) pool.Release(0, Status::OK());
}

TEST_F(FleetTest, LogonsOnAnIdleFleetSpreadBySessionsHeld) {
  vdb::Engine engine;
  service::HyperQService service(&engine, FleetServiceOptions(3));
  std::vector<uint32_t> sids;
  int held[3] = {0, 0, 0};
  for (int i = 0; i < 8; ++i) {
    auto sid = service.OpenSession("s" + std::to_string(i));
    ASSERT_TRUE(sid.ok()) << sid.status();
    sids.push_back(*sid);
    ++held[service.session_backend(*sid)];
  }
  // In-flight counts are all zero between logons, so only the sessions each
  // replica already holds can spread them: 3/3/2 in some order.
  const int most = *std::max_element(held, held + 3);
  const int fewest = *std::min_element(held, held + 3);
  EXPECT_LE(most - fewest, 1) << held[0] << "/" << held[1] << "/" << held[2];
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(service.backend_pool()->sessions(i), held[i]);
  }
  for (uint32_t sid : sids) service.CloseSession(sid);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(service.backend_pool()->sessions(i), 0);
  }
}

TEST_F(FleetTest, StickyWinsWhileEligibleAndExclusionOverridesIt) {
  vdb::Engine engine;
  PoolOptions options;
  options.health = TestHealth();
  BackendPool pool(&engine, Replicas(3), options);
  Router router(&pool);

  RouteConstraints constraints;
  constraints.sticky = 1;
  auto sticky = router.Pick(constraints);
  ASSERT_TRUE(sticky.ok());
  EXPECT_EQ(sticky->backend, 1);
  EXPECT_EQ(sticky->reason, "sticky");

  constraints.exclude = {1};
  auto rerouted = router.Pick(constraints);
  ASSERT_TRUE(rerouted.ok());
  EXPECT_NE(rerouted->backend, 1);

  // An ejected sticky backend loses its claim too.
  constraints.exclude.clear();
  pool.KillBackend(1);
  auto moved = router.Pick(constraints);
  ASSERT_TRUE(moved.ok());
  EXPECT_NE(moved->backend, 1);
}

TEST_F(FleetTest, HealthyTierPreferredDegradedIsProbationFallback) {
  vdb::Engine engine;
  PoolOptions options;
  options.health = TestHealth();
  BackendPool pool(&engine, Replicas(2), options);
  Router router(&pool);

  // Degrade r0: every pick must land on the healthy r1.
  ASSERT_TRUE(pool.Acquire(0).ok());
  pool.Release(0, Status::Unavailable("flake"));
  ASSERT_EQ(pool.health(0), BackendHealth::kDegraded);
  for (int i = 0; i < 16; ++i) {
    auto r = router.Pick();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->backend, 1);
  }
  // Degrade r1 as well: picks fall back to the probation tier.
  ASSERT_TRUE(pool.Acquire(1).ok());
  pool.Release(1, Status::Unavailable("flake"));
  auto r = router.Pick();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->reason, "probation");
}

TEST_F(FleetTest, RouterErrorTaxonomyDistinguishesDownFromIncompatible) {
  vdb::Engine engine;
  PoolOptions options;
  options.health = TestHealth();
  auto specs = Replicas(2);
  specs[1].profile.name = "vdb-variant";  // same capabilities, new digest
  BackendPool pool(&engine, specs, options);
  Router router(&pool);

  // The session's journaled state was created under r0's profile; r0 has
  // failed this query. r1 is alive and capable but digest-mismatched:
  // the *typed* incompatible error, not a generic "fleet down".
  RouteConstraints constraints;
  constraints.exclude = {0};
  constraints.require_profile_digest = true;
  constraints.profile_digest = pool.profile_digest(0);
  auto incompatible = router.Pick(constraints);
  ASSERT_FALSE(incompatible.ok());
  EXPECT_EQ(incompatible.status().detail(),
            StatusDetail::kFailoverIncompatible)
      << incompatible.status();

  // With the last live candidate gone the answer degrades to backend-down.
  pool.KillBackend(1);
  auto down = router.Pick(constraints);
  ASSERT_FALSE(down.ok());
  EXPECT_EQ(down.status().detail(), StatusDetail::kBackendDown)
      << down.status();
}

TEST_F(FleetTest, RouterPickFaultSurfacesAsRoutingFailure) {
  vdb::Engine engine;
  PoolOptions options;
  options.health = TestHealth();
  BackendPool pool(&engine, Replicas(2), options);
  Router router(&pool);

  FaultSpec spec;
  spec.kind = FaultKind::kTransient;
  spec.max_fires = 1;
  FaultInjector::Global().Arm(faultpoints::kRouterPick, spec);
  auto r = router.Pick();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(FaultInjector::Global().fires(faultpoints::kRouterPick), 1);
  // The fault is spent: routing recovers.
  EXPECT_TRUE(router.Pick().ok());
}

// --- Service: fleet mode -----------------------------------------------------

TEST_F(FleetTest, LogonReportsBoundBackendAndQueriesRun) {
  vdb::Engine engine;
  service::HyperQService service(&engine, FleetServiceOptions(3));
  protocol::LogonRequest request;
  request.user = "alice";
  auto resp = service.Logon(request);
  ASSERT_TRUE(resp.ok()) << resp.status();
  int bound = service.session_backend(resp->session_id);
  ASSERT_GE(bound, 0);
  EXPECT_NE(resp->message.find(
                " on " + service.backend_pool()->spec(bound).name),
            std::string::npos)
      << resp->message;
  EXPECT_TRUE(service.Submit(resp->session_id, "SEL 1").ok());
  service.Logoff(resp->session_id);
}

// Without registered backends the service is a fleet of one: an implicit
// replica over its own engine binds every session and takes a dialect
// switch, and passive scoring that ejects it never refuses work.
TEST_F(FleetTest, DefaultServiceIsAFleetOfOne) {
  vdb::Engine engine;
  service::ServiceOptions options;
  options.connector.retry.base_delay_ms = 1;
  options.connector.retry.max_delay_ms = 2;
  options.connector.breaker.failure_threshold = 1000000;  // isolate scoring
  service::HyperQService service(&engine, options);
  ASSERT_NE(service.backend_pool(), nullptr);
  EXPECT_EQ(service.backend_pool()->size(), 1u);
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  EXPECT_EQ(service.session_backend(*sid), 0);
  ASSERT_TRUE(service.Submit(*sid, "CREATE TABLE T (A INTEGER)").ok());
  ASSERT_TRUE(service.Submit(*sid, "INS INTO T VALUES (7)").ok());

  // Every attempt of three statements loses the session: far past the
  // eject threshold of the lone replica...
  FaultSpec lose;
  lose.kind = FaultKind::kDisconnect;
  lose.max_fires = 9;
  FaultInjector::Global().Arm(faultpoints::kBackendSessionLost, lose);
  for (int i = 0; i < 3; ++i) {
    auto r = service.Submit(*sid, "SEL * FROM T");
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsSessionLost()) << r.status();
  }
  EXPECT_EQ(FaultInjector::Global().fires(faultpoints::kBackendSessionLost),
            9);
  EXPECT_GE(service.backend_pool()->stats().ejections, 1);

  // ...yet later statements and sessions are served by it, never refused
  // with kBackendDown.
  for (int i = 0; i < 5; ++i) {
    auto r = service.Submit(*sid, "SEL * FROM T");
    ASSERT_TRUE(r.ok()) << r.status();
  }
  auto other = service.OpenSession("other");
  ASSERT_TRUE(other.ok()) << other.status();
  EXPECT_EQ(service.session_backend(*other), 0);
}

// Tentpole acceptance: a session with volatile-table + SET SESSION state
// keeps answering across a hard kill of its bound replica — the journal
// replays onto a different backend, invisibly except for latency.
TEST_F(FleetTest, CrossReplicaFailoverReplaysJournalInvisibly) {
  vdb::Engine engine;
  service::HyperQService service(&engine, FleetServiceOptions(3));
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  auto run = [&](const std::string& sql) {
    auto r = service.Submit(*sid, sql);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status();
    return r.ok() ? std::move(r).value() : service::QueryOutcome{};
  };
  run("CREATE VOLATILE TABLE SCRATCH (A INTEGER)");
  run("INS INTO SCRATCH VALUES (1)");
  run("INS INTO SCRATCH VALUES (2)");
  run("SET SESSION CHARSET 'UTF8'");

  int bound = service.session_backend(*sid);
  ASSERT_GE(bound, 0);
  service.backend_pool()->KillBackend(bound);

  auto out = run("SEL * FROM SCRATCH ORDER BY A");
  EXPECT_GE(out.timing.failovers, 1);
  EXPECT_GE(out.timing.journal_replays, 4);
  int moved = service.session_backend(*sid);
  EXPECT_NE(moved, bound) << "session must have moved to another replica";
  auto rows = out.result.DecodeRows();
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0][0].int_val(), 1);
  EXPECT_EQ((*rows)[1][0].int_val(), 2);
  EXPECT_GE(service.metrics_registry()
                ->counter(names::kFailoverCrossReplica)
                ->value(),
            1);

  // The moved session keeps working — and stays put (sticky).
  run("INS INTO SCRATCH VALUES (3)");
  EXPECT_EQ(service.session_backend(*sid), moved);
}

TEST_F(FleetTest, OpenTxnFenceStillAbortsNonIdempotentAcrossReplicas) {
  vdb::Engine engine;
  service::HyperQService service(&engine, FleetServiceOptions(3));
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(
      service.Submit(*sid, "CREATE VOLATILE TABLE SCRATCH (A INTEGER)").ok());
  ASSERT_TRUE(service.Submit(*sid, "INS INTO SCRATCH VALUES (1)").ok());
  ASSERT_TRUE(service.Submit(*sid, "BT").ok());

  int bound = service.session_backend(*sid);
  ASSERT_GE(bound, 0);
  service.backend_pool()->KillBackend(bound);

  // Non-idempotent DML inside the open transaction: the fence aborts it
  // rather than silently double-applying on another replica.
  auto aborted = service.Submit(*sid, "INS INTO SCRATCH VALUES (2)");
  ASSERT_FALSE(aborted.ok());
  EXPECT_TRUE(aborted.status().IsAborted()) << aborted.status();
  EXPECT_EQ(service.StatsSnapshot().resilience.aborted_in_txn, 1);

  // The session itself survived the move: pre-transaction state is back.
  auto sel = service.Submit(*sid, "SEL * FROM SCRATCH");
  ASSERT_TRUE(sel.ok()) << sel.status();
  auto rows = sel->result.DecodeRows();
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);  // the aborted INSERT was NOT re-applied
}

// Satellite: when journaled SET SESSION state can only be honored by a
// digest-identical replica and none is live, the failure is the typed
// kFailoverIncompatible — not a retry storm, not a generic error.
TEST_F(FleetTest, IncompatibleReplicaFailoverSurfacesTypedError) {
  vdb::Engine engine;
  auto options = FleetServiceOptions(2);
  options.fleet.backends[1].profile.name = "vdb-variant";
  service::HyperQService service(&engine, options);
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(service.Submit(*sid, "SET SESSION CHARSET 'UTF8'").ok());

  int bound = service.session_backend(*sid);
  ASSERT_GE(bound, 0);
  service.backend_pool()->KillBackend(bound);

  auto blocked = service.Submit(*sid, "SEL 1");
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().detail(), StatusDetail::kFailoverIncompatible)
      << blocked.status();
  EXPECT_GE(service.metrics_registry()
                ->counter(names::kFailoverIncompatible)
                ->value(),
            1);
}

// Satellite: a permanent error ("query bad") is never re-routed — the
// session stays bound and no failover counter moves.
TEST_F(FleetTest, PermanentErrorsAreNotReRouted) {
  vdb::Engine engine;
  service::HyperQService service(&engine, FleetServiceOptions(3));
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  int bound = service.session_backend(*sid);

  auto bad = service.Submit(*sid, "SEL * FROM NO_SUCH_TABLE");
  ASSERT_FALSE(bad.ok());
  EXPECT_FALSE(bad.status().IsUnavailable()) << bad.status();
  EXPECT_EQ(service.session_backend(*sid), bound);
  EXPECT_EQ(service.metrics_registry()
                ->counter(names::kFailoverCrossReplica)
                ->value(),
            0);
}

// The static per-replica in-flight cap is the overload defense of the
// placement loop: a replica at its cap re-places the query on a peer, and
// only a fleet with every replica at its cap refuses it — as overload
// (kResourceExhausted), not as an outage (kBackendDown).
TEST_F(FleetTest, CappedReplicaReplacesOnPeerAndFullFleetIsExhausted) {
  vdb::Engine engine;
  auto options = FleetServiceOptions(2);
  for (auto& spec : options.fleet.backends) spec.max_in_flight = 1;
  service::HyperQService service(&engine, options);
  BackendPool* pool = service.backend_pool();
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  const int bound = service.session_backend(*sid);
  const int peer = 1 - bound;

  // The bound replica's only slot is held: the query runs on the peer.
  ASSERT_TRUE(pool->Acquire(bound).ok());
  auto served = service.Submit(*sid, "SEL 1");
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(service.session_backend(*sid), peer);
  EXPECT_EQ(pool->stats().slot_denials, 1);
  EXPECT_EQ(service.metrics_registry()
                ->counter(observability::LabeledName(
                    names::kBackendRoute,
                    {{"backend", pool->spec(peer).name}, {"reason", "only"}}))
                ->value(),
            1);
  EXPECT_EQ(pool->in_flight(peer), 0) << "the peer's slot is released";

  // Both replicas at their cap: the fleet is overloaded, not down.
  ASSERT_TRUE(pool->Acquire(peer).ok());
  auto refused = service.Submit(*sid, "SEL 1");
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsResourceExhausted()) << refused.status();
  EXPECT_NE(refused.status().detail(), StatusDetail::kBackendDown);
  EXPECT_EQ(pool->stats().slot_denials, 3);

  pool->Release(bound, Status::OK());
  pool->Release(peer, Status::OK());
  auto recovered = service.Submit(*sid, "SEL 1");
  EXPECT_TRUE(recovered.ok()) << recovered.status();
}

TEST_F(FleetTest, RouteMetricsAndHealthGaugesAreMirrored) {
  vdb::Engine engine;
  auto options = FleetServiceOptions(3);
  options.fleet.health.probe_interval_ms = 5;  // exercise the prober too
  service::HyperQService service(&engine, options);
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(service.Submit(*sid, "SEL 1").ok());
  ASSERT_TRUE(WaitFor([&] {
    return service.backend_pool()->stats().probes >= 3;
  }));

  auto snapshot = service.StatsSnapshot().metrics;
  bool saw_route = false;
  for (const auto& [name, value] : snapshot.counters) {
    if (name.rfind(names::kBackendRoute, 0) == 0 && value > 0) {
      saw_route = true;
    }
  }
  EXPECT_TRUE(saw_route) << "no hyperq.backend.route{...} counter moved";
  EXPECT_GT(snapshot.counters[names::kPoolProbes], 0);
  // Per-state backend counts: 3 replicas, all healthy.
  EXPECT_EQ(snapshot.gauges["hyperq.backend.health.healthy"], 3);
  EXPECT_EQ(snapshot.gauges["hyperq.backend.health.ejected"], 0);
  bool saw_health = false;
  for (const auto& [name, value] : snapshot.gauges) {
    if (name.rfind(std::string(names::kBackendHealth) + "{", 0) == 0) {
      saw_health = true;
    }
  }
  EXPECT_TRUE(saw_health) << "no per-backend health gauge mirrored";
}

// --- Chaos -------------------------------------------------------------------

// Satellite: a flapping replica, driven through the same config string the
// HYPERQ_FAULTS env var takes, must not surface a single client error —
// routing simply flows around the flaps.
TEST_F(FleetTest, ChaosFlappingReplicaIsInvisibleToClients) {
  vdb::Engine engine;
  service::HyperQService service(&engine, FleetServiceOptions(3));
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(service.Submit(*sid, "CREATE TABLE T (A INTEGER)").ok());
  ASSERT_TRUE(service.Submit(*sid, "INS INTO T VALUES (7)").ok());

  // Every 3rd health evaluation reports EJECTED (the `backend.ejected`
  // chaos hook): the fleet flaps continuously under this workload.
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("backend.ejected=transient:first=3,every=3")
                  .ok());
  int ok_count = 0;
  for (int i = 0; i < 60; ++i) {
    auto r = service.Submit(*sid, "SEL * FROM T");
    if (r.ok()) ++ok_count;
  }
  EXPECT_EQ(ok_count, 60);
  EXPECT_GT(FaultInjector::Global().fires(faultpoints::kBackendEjected), 0);
}

// Acceptance: 3 replicas, one hard-killed while a concurrent workload is
// in flight — >= 99% of queries complete via transparent failover; with no
// open transactions in the mix, nothing is client-visible at all.
TEST_F(FleetTest, HardKillMidWorkloadCompletesAtLeast99Percent) {
  vdb::Engine engine;
  service::HyperQService service(&engine, FleetServiceOptions(3));
  {
    auto setup = service.OpenSession("setup");
    ASSERT_TRUE(setup.ok());
    ASSERT_TRUE(
        service.Submit(*setup, "CREATE TABLE T (A INTEGER, B VARCHAR(20))")
            .ok());
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(service
                      .Submit(*setup, "INS INTO T VALUES (" +
                                          std::to_string(i) + ", 'row-" +
                                          std::to_string(i) + "')")
                      .ok());
    }
    service.CloseSession(*setup);
  }

  constexpr int kSessions = 6;
  constexpr int kQueriesPerSession = 40;
  std::atomic<int> completed{0};
  std::atomic<int> failed{0};
  std::atomic<bool> start{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < kSessions; ++w) {
    workers.emplace_back([&, w] {
      auto sid = service.OpenSession("worker" + std::to_string(w));
      ASSERT_TRUE(sid.ok());
      while (!start.load()) std::this_thread::yield();
      for (int q = 0; q < kQueriesPerSession; ++q) {
        auto r = service.Submit(*sid, "SEL * FROM T WHERE A < " +
                                          std::to_string(10 + q % 30) +
                                          " ORDER BY A");
        if (r.ok()) {
          completed.fetch_add(1);
        } else {
          failed.fetch_add(1);
        }
      }
      service.CloseSession(*sid);
    });
  }
  start.store(true);
  // Hard-kill one replica mid-workload; revive it later so re-admission
  // and probation routing run inside the soak too.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.backend_pool()->KillBackend(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  service.backend_pool()->ReviveBackend(0);
  for (auto& t : workers) t.join();

  int total = kSessions * kQueriesPerSession;
  EXPECT_EQ(completed.load() + failed.load(), total);
  EXPECT_GE(completed.load(), (total * 99 + 99) / 100)
      << "failed: " << failed.load();
  EXPECT_EQ(service.StatsSnapshot().resilience.aborted_in_txn, 0);
  EXPECT_EQ(service.open_sessions(), 0u);
}

// Tail soak (DESIGN.md §11): one replica is slow — not dead — so health
// scoring, the breaker, and failover never fire; only hedged reads can
// rescue the tail. The same workload runs hedged and unhedged, in three
// pairs: hedging must cut the p99, deliver every result exactly once, and
// leak neither sessions nor pool slots. It compares wall-clock tails, so
// tests/CMakeLists.txt runs it alone (RUN_SERIAL).
TEST_F(FleetTest, SlowReplicaSoakHedgingCutsTailWithoutDuplicates) {
  constexpr int kWorkers = 4;
  constexpr int kQueriesPerWorker = 25;
  constexpr int kRows = 10;

  auto run_soak = [&](bool hedging) -> double {
    vdb::Engine engine;
    auto options = FleetServiceOptions(3);
    options.tail.hedge.enabled = hedging;
    options.tail.hedge.min_threshold_micros = 2000;
    options.tail.hedge.max_hedge_fraction = 1.0;
    service::HyperQService service(&engine, options);
    {
      auto setup = service.OpenSession("setup");
      EXPECT_TRUE(setup.ok());
      EXPECT_TRUE(service.Submit(*setup, "CREATE TABLE T (A INTEGER)").ok());
      for (int i = 0; i < kRows; ++i) {
        EXPECT_TRUE(
            service
                .Submit(*setup, "INS INTO T VALUES (" + std::to_string(i) +
                                    ")")
                .ok());
      }
      service.CloseSession(*setup);
    }

    // Bind every worker first, then slow worker 0's replica: at least one
    // session is guaranteed to sit behind the slow backend.
    std::vector<uint32_t> sids;
    for (int w = 0; w < kWorkers; ++w) {
      auto sid = service.OpenSession("worker" + std::to_string(w));
      EXPECT_TRUE(sid.ok());
      sids.push_back(*sid);
    }
    int slow = service.session_backend(sids[0]);
    EXPECT_GE(slow, 0);
    service.backend_pool()->SlowBackend(slow, 15);

    std::vector<std::vector<double>> latencies(kWorkers);
    std::atomic<int> wrong_rows{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        for (int q = 0; q < kQueriesPerWorker; ++q) {
          auto start = std::chrono::steady_clock::now();
          auto r = service.Submit(sids[w], "SEL * FROM T ORDER BY A");
          auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
          if (!r.ok()) {
            failures.fetch_add(1);
            continue;
          }
          latencies[w].push_back(static_cast<double>(micros));
          auto rows = r->result.DecodeRows();
          // Exactly-once delivery: a duplicated hedge result would double
          // the row count, a dropped one would empty it.
          if (!rows.ok() || rows->size() != static_cast<size_t>(kRows)) {
            wrong_rows.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : workers) t.join();
    for (uint32_t sid : sids) service.CloseSession(sid);

    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(wrong_rows.load(), 0) << "duplicate or lost hedge results";
    EXPECT_EQ(service.open_sessions(), 0u);
    for (size_t i = 0; i < service.backend_pool()->size(); ++i) {
      EXPECT_EQ(service.backend_pool()->in_flight(i), 0)
          << "leaked slot on replica " << i;
    }
    if (hedging) {
      EXPECT_GE(service.metrics_registry()
                    ->counter(names::kHedgeWins)
                    ->value(),
                1)
          << "the slow replica's sessions never won a hedge";
    } else {
      EXPECT_EQ(
          service.metrics_registry()->counter(names::kHedgeLaunched)->value(),
          0);
    }

    std::vector<double> all;
    for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    return all[(all.size() * 99) / 100 - 1];
  };

  // Three interleaved pairs (which side runs first alternates); the bar
  // applies to the median pair by margin, so one soak disturbed by a busy
  // host cannot decide the outcome.
  struct Pair {
    double unhedged_p99;
    double hedged_p99;
  };
  std::vector<Pair> pairs;
  for (int i = 0; i < 3; ++i) {
    Pair p{};
    if (i % 2 == 0) {
      p.unhedged_p99 = run_soak(false);
      p.hedged_p99 = run_soak(true);
    } else {
      p.hedged_p99 = run_soak(true);
      p.unhedged_p99 = run_soak(false);
    }
    pairs.push_back(p);
  }
  std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
    return a.unhedged_p99 - a.hedged_p99 < b.unhedged_p99 - b.hedged_p99;
  });
  const Pair& median = pairs[1];
  EXPECT_LT(median.hedged_p99, median.unhedged_p99)
      << "hedging must cut the slow-replica tail (median pair: hedged p99 "
      << median.hedged_p99 / 1000 << "ms vs unhedged "
      << median.unhedged_p99 / 1000 << "ms)";
}

}  // namespace
}  // namespace hyperq
