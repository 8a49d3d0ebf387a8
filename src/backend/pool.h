// BackendPool (DESIGN.md §10): N backend instances behind one proxy.
//
// The paper's promise is that one Hyper-Q tier virtualizes *many* cloud
// targets behind an unchanged client fleet (§2, §7). This subsystem holds
// the per-instance machinery that makes a fleet safe to route over: each
// registered backend carries its own capability profile, a circuit breaker
// shared by every session bound to it, an in-flight count, and a health
// score fed by both passive error observation and an active prober.
//
// Health state machine:
//
//            score >= degrade            score >= eject
//   HEALTHY ----------------> DEGRADED ----------------> EJECTED
//      ^   <----------------     ^    <----------------     |
//      |     score decays        |      jittered cooldown    |
//      +-------------------------+---------------------------+
//
// The score accumulates `error_weight` per liveness failure (transient
// errors, session losses, I/O errors, deadline expiries, failed probes)
// and decays exponentially with a configurable half-life, so a backend
// recovers on its own once errors stop. The router avoids EJECTED backends
// while any other candidate is live (router.h, last-resort probation) until
// a deterministic jittered cooldown elapses, after which they re-enter as
// DEGRADED (probation) — jitter decorrelates re-admission across proxies
// so a recovering replica is not stampeded.
//
// Replica model: specs may point at distinct vdb::Engine instances or
// (engine == nullptr) share the pool's default engine — the cloud-DW
// analogy of independent compute replicas over shared storage.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "backend/connector.h"
#include "common/resource_governor.h"
#include "common/retry.h"
#include "common/status.h"
#include "observability/metrics.h"
#include "transform/backend_profile.h"
#include "vdb/engine.h"

namespace hyperq::backend {

enum class BackendHealth { kHealthy = 0, kDegraded, kEjected };

/// \brief Stable lower-case name, e.g. "degraded". The health-state lint in
/// scripts/check_metrics.sh keys off these strings.
const char* BackendHealthName(BackendHealth health);

/// \brief One registered backend instance.
struct BackendSpec {
  std::string name;
  /// Target engine; null = the pool's default (shared-storage replica).
  vdb::Engine* engine = nullptr;
  transform::BackendProfile profile;
  /// Per-backend in-flight cap, kept by the pool; 0 = unlimited.
  int max_in_flight = 0;
};

/// Health score thresholds: HEALTHY -> DEGRADED, DEGRADED -> EJECTED.
inline constexpr double kDegradeScore = 1.0;
inline constexpr double kEjectScore = 3.0;
/// The statement an active probe runs against a replica.
inline constexpr const char* kProbeSql = "SELECT 1";

/// \brief Scoring, probing, and re-admission knobs.
struct HealthOptions {
  double error_weight = 1.0;     // score added per liveness failure
  double decay_half_life_ms = 1000;
  int probe_interval_ms = 0;     // prober thread period; 0 = manual only
  int readmit_cooldown_ms = 200;  // EJECTED dwell time before probation
  double readmit_jitter = 0.5;    // extra dwell, as a fraction of cooldown
  uint64_t jitter_seed = 0x5EEDULL;
};

struct PoolOptions {
  HealthOptions health;
  /// Template for CreateConnector(); the pool overwrites the fleet wiring
  /// fields (shared_breaker, liveness, backend_name) and session_tag.
  ConnectorOptions connector;
  std::shared_ptr<ResourceGovernor> governor;
  observability::MetricsRegistry* metrics = nullptr;
};

struct BackendPoolStats {
  int64_t ejections = 0;
  int64_t readmissions = 0;
  int64_t probes = 0;
  int64_t probe_failures = 0;
  int64_t hedge_loser_releases = 0; // releases that bypassed the scorer
  int64_t slot_denials = 0;         // Acquire calls refused at the cap
};

/// \brief The fleet registry. Thread-safe. Connectors created by
/// CreateConnector() borrow the pool's breakers and liveness hooks and must
/// not outlive it.
class BackendPool {
 public:
  BackendPool(vdb::Engine* default_engine, std::vector<BackendSpec> specs,
              PoolOptions options = {});
  ~BackendPool();
  BackendPool(const BackendPool&) = delete;
  BackendPool& operator=(const BackendPool&) = delete;

  size_t size() const { return instances_.size(); }
  const BackendSpec& spec(size_t i) const { return instances_[i]->spec; }
  const std::string& profile_digest(size_t i) const {
    return instances_[i]->digest;
  }
  vdb::Engine* engine(size_t i) const { return instances_[i]->engine; }
  CircuitBreaker* breaker(size_t i) { return &instances_[i]->breaker; }

  /// \brief Current health of backend `i`. Evaluation is lazy: the score
  /// decays, due re-admissions fire, and the `backend.ejected` fault point
  /// is consulted (firing forces EJECTED for this evaluation) on each call.
  BackendHealth health(size_t i);
  double health_score(size_t i);
  int in_flight(size_t i) const {
    return instances_[i]->in_flight.load(std::memory_order_relaxed);
  }
  bool killed(size_t i) const {
    return instances_[i]->killed.load(std::memory_order_relaxed);
  }
  /// \brief Sessions bound to backend `i`. The service attaches a session
  /// where it is placed and detaches it when the session moves or closes;
  /// the router breaks in-flight ties with it.
  int sessions(size_t i) const {
    return instances_[i]->sessions.load(std::memory_order_relaxed);
  }
  void AttachSession(size_t i) {
    instances_[i]->sessions.fetch_add(1, std::memory_order_relaxed);
  }
  void DetachSession(size_t i) {
    instances_[i]->sessions.fetch_sub(1, std::memory_order_relaxed);
  }

  /// \brief Claims an in-flight slot on backend `i` before a query runs
  /// there. Fails with kUnavailable{kBackendDown} when the instance is
  /// killed, or kResourceExhausted when its spec's max_in_flight slots
  /// are all held (counted in stats().slot_denials).
  Status Acquire(size_t i);
  /// \brief How a finished attempt releases its slot (DESIGN.md §11).
  /// kHedgeLoser marks the cancelled leg of a hedged read: its slot is
  /// returned but its outcome does not feed the passive health scorer — a
  /// deliberately-cancelled attempt says nothing about replica health, and
  /// must not eject a healthy backend.
  enum class ReleaseKind { kNormal, kHedgeLoser };
  /// \brief Returns the slot and feeds `outcome` into the passive health
  /// score (only liveness-flavored failures count; a syntax error says
  /// nothing about the replica).
  void Release(size_t i, const Status& outcome,
               ReleaseKind kind = ReleaseKind::kNormal);

  /// \brief Builds a session connector bound to backend `i`: the instance's
  /// engine, shared breaker, liveness hook, and name, plus the pool's
  /// governor/metrics and the caller's session tag.
  std::unique_ptr<BackendConnector> CreateConnector(size_t i,
                                                    uint64_t session_tag);

  /// \brief Hard-kills / revives instance `i` (chaos testing and the
  /// availability bench). A killed backend fails Acquire, reports EJECTED,
  /// and its connectors' liveness hooks return kSessionLost{kBackendDown} —
  /// including mid-result-stream, at batch boundaries.
  void KillBackend(size_t i);
  void ReviveBackend(size_t i);
  /// \brief Chaos hook: makes instance `i` artificially *slow* (not dead) —
  /// every connector attempt against it stalls `delay_ms` in the liveness
  /// hook before proceeding. 0 restores full speed. This is the tail
  /// scenario: the replica still answers correctly, just late, so nothing
  /// trips the breaker or the health scorer.
  void SlowBackend(size_t i, int delay_ms);
  int slow_ms(size_t i) const {
    return instances_[i]->slow_ms.load(std::memory_order_relaxed);
  }

  /// \brief Probes every instance once (what the prober thread runs).
  void ProbeNow();
  /// \brief One active probe of backend `i`: the `pool.probe` fault point,
  /// then `kProbeSql` against the engine. Failures feed the health score;
  /// success past the re-admission time lifts an ejection early.
  Status ProbeBackend(size_t i);

  /// \brief Starts/stops the background prober (no-op when
  /// probe_interval_ms == 0; Stop is also called by the destructor).
  void Start();
  void Stop();

  BackendPoolStats stats() const;
  /// \brief Mirrors per-backend health/in-flight gauges and per-state
  /// backend counts into the registry (no-op without metrics).
  void MirrorGauges();

 private:
  struct Instance {
    BackendSpec spec;
    std::string digest;
    vdb::Engine* engine = nullptr;
    CircuitBreaker breaker;
    std::atomic<bool> killed{false};
    std::atomic<int> slow_ms{0};  // chaos: per-attempt stall, 0 = none
    std::atomic<int> in_flight{0};
    std::atomic<int> sessions{0};
    // Health state below is guarded by `mutex` (per-instance, so scoring
    // one backend never contends with routing reads of another).
    mutable std::mutex mutex;
    double score = 0;
    BackendHealth health = BackendHealth::kHealthy;
    std::chrono::steady_clock::time_point last_decay;
    std::chrono::steady_clock::time_point readmit_at{};
    int eject_count = 0;

    Instance(BackendSpec s, const CircuitBreakerOptions& breaker_options)
        : spec(std::move(s)),
          digest(spec.profile.CacheKeyDigest()),
          breaker(breaker_options) {}
  };

  /// Decays the score, applies `add_score`, and runs the state transitions
  /// (ejection with a jittered re-admission time; due re-admissions).
  /// Caller holds inst.mutex.
  void EvaluateLocked(Instance& inst, std::chrono::steady_clock::time_point now,
                      double add_score);
  void NoteLivenessFailure(Instance& inst);

  std::vector<std::unique_ptr<Instance>> instances_;
  PoolOptions options_;
  // Cached registry series (null without metrics).
  observability::Counter* ejections_counter_ = nullptr;
  observability::Counter* readmissions_counter_ = nullptr;
  observability::Counter* probes_counter_ = nullptr;
  observability::Counter* probe_failures_counter_ = nullptr;
  observability::Counter* hedge_loser_counter_ = nullptr;
  observability::Counter* slot_denials_counter_ = nullptr;

  std::atomic<int64_t> ejections_{0};
  std::atomic<int64_t> readmissions_{0};
  std::atomic<int64_t> probes_{0};
  std::atomic<int64_t> probe_failures_{0};
  std::atomic<int64_t> hedge_loser_releases_{0};
  std::atomic<int64_t> slot_denials_{0};

  // Prober thread.
  std::thread prober_;
  std::mutex prober_mutex_;
  std::condition_variable prober_cv_;
  bool stopping_ = false;
};

}  // namespace hyperq::backend
