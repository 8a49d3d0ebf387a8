#include "backend/pool.h"

#include <cmath>
#include <utility>

#include "common/fault.h"
#include "observability/metric_names.h"

namespace hyperq::backend {

namespace obs = observability;

namespace {
// SplitMix64, the repo's standard deterministic mixer.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}
}  // namespace

const char* BackendHealthName(BackendHealth health) {
  switch (health) {
    case BackendHealth::kHealthy:
      return "healthy";
    case BackendHealth::kDegraded:
      return "degraded";
    case BackendHealth::kEjected:
      return "ejected";
  }
  return "unknown";
}

BackendPool::BackendPool(vdb::Engine* default_engine,
                         std::vector<BackendSpec> specs, PoolOptions options)
    : options_(std::move(options)) {
  auto now = std::chrono::steady_clock::now();
  instances_.reserve(specs.size());
  for (auto& spec : specs) {
    auto inst =
        std::make_unique<Instance>(std::move(spec), options_.connector.breaker);
    inst->engine =
        inst->spec.engine != nullptr ? inst->spec.engine : default_engine;
    inst->last_decay = now;
    instances_.push_back(std::move(inst));
  }
  if (options_.metrics != nullptr) {
    ejections_counter_ =
        options_.metrics->counter(obs::names::kBackendEjections);
    readmissions_counter_ =
        options_.metrics->counter(obs::names::kBackendReadmissions);
    probes_counter_ = options_.metrics->counter(obs::names::kPoolProbes);
    probe_failures_counter_ =
        options_.metrics->counter(obs::names::kPoolProbeFailures);
    hedge_loser_counter_ =
        options_.metrics->counter(obs::names::kHedgeLoserReleases);
    slot_denials_counter_ =
        options_.metrics->counter(obs::names::kBackendSlotDenials);
  }
}

BackendPool::~BackendPool() { Stop(); }

void BackendPool::EvaluateLocked(Instance& inst,
                                 std::chrono::steady_clock::time_point now,
                                 double add_score) {
  // Exponential decay since the last evaluation, then the new failure mass.
  double elapsed_ms =
      std::chrono::duration<double, std::milli>(now - inst.last_decay).count();
  if (inst.score > 0 && elapsed_ms > 0 &&
      options_.health.decay_half_life_ms > 0) {
    inst.score *=
        std::pow(0.5, elapsed_ms / options_.health.decay_half_life_ms);
  }
  inst.last_decay = now;
  inst.score += add_score;

  if (inst.health == BackendHealth::kEjected) {
    if (now >= inst.readmit_at) {
      // Probation: re-enter as DEGRADED with the score pinned midway
      // between the degrade and eject thresholds, so only quiet time
      // (decay) restores HEALTHY and a single fresh failure re-ejects
      // quickly.
      inst.health = BackendHealth::kDegraded;
      inst.score = 0.5 * (kDegradeScore + kEjectScore);
      readmissions_.fetch_add(1, std::memory_order_relaxed);
      if (readmissions_counter_ != nullptr) readmissions_counter_->Inc();
    }
    return;
  }
  if (inst.score >= kEjectScore) {
    inst.health = BackendHealth::kEjected;
    ++inst.eject_count;
    // Deterministic jittered dwell: a pure function of (seed, backend,
    // ejection ordinal), so tests replay exactly yet proxies decorrelate.
    double jitter_ms = 0;
    if (options_.health.readmit_jitter > 0 &&
        options_.health.readmit_cooldown_ms > 0) {
      uint64_t r = Mix64(options_.health.jitter_seed ^
                         (inst.digest.size() * 0x9E3779B9ULL) ^
                         (static_cast<uint64_t>(inst.eject_count) << 32) ^
                         std::hash<std::string>{}(inst.spec.name));
      double span =
          options_.health.readmit_cooldown_ms * options_.health.readmit_jitter;
      jitter_ms = static_cast<double>(r % 1000) / 1000.0 * span;
    }
    inst.readmit_at =
        now + std::chrono::milliseconds(options_.health.readmit_cooldown_ms) +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(jitter_ms));
    ejections_.fetch_add(1, std::memory_order_relaxed);
    if (ejections_counter_ != nullptr) ejections_counter_->Inc();
    return;
  }
  inst.health = inst.score >= kDegradeScore ? BackendHealth::kDegraded
                                            : BackendHealth::kHealthy;
}

BackendHealth BackendPool::health(size_t i) {
  Instance& inst = *instances_[i];
  if (inst.killed.load(std::memory_order_relaxed)) {
    return BackendHealth::kEjected;
  }
  // Chaos hook: an armed `backend.ejected` point forces EJECTED for this
  // evaluation (deterministic flapping without touching real state).
  if (!FaultInjector::Global().Check(faultpoints::kBackendEjected).ok()) {
    return BackendHealth::kEjected;
  }
  std::lock_guard<std::mutex> lock(inst.mutex);
  EvaluateLocked(inst, std::chrono::steady_clock::now(), 0);
  return inst.health;
}

double BackendPool::health_score(size_t i) {
  Instance& inst = *instances_[i];
  std::lock_guard<std::mutex> lock(inst.mutex);
  EvaluateLocked(inst, std::chrono::steady_clock::now(), 0);
  return inst.score;
}

Status BackendPool::Acquire(size_t i) {
  Instance& inst = *instances_[i];
  if (inst.killed.load(std::memory_order_relaxed)) {
    return Status::Unavailable("backend ", inst.spec.name, " is down")
        .WithDetail(StatusDetail::kBackendDown);
  }
  const int cap = inst.spec.max_in_flight;  // 0 = unlimited
  int held = inst.in_flight.load(std::memory_order_relaxed);
  do {
    if (cap > 0 && held >= cap) {
      slot_denials_.fetch_add(1, std::memory_order_relaxed);
      if (slot_denials_counter_ != nullptr) slot_denials_counter_->Inc();
      return Status::ResourceExhausted("backend ", inst.spec.name,
                                       " at in-flight cap (", held, " >= ",
                                       cap, ")");
    }
  } while (!inst.in_flight.compare_exchange_weak(held, held + 1,
                                                 std::memory_order_relaxed));
  return Status::OK();
}

void BackendPool::Release(size_t i, const Status& outcome,
                          ReleaseKind kind) {
  Instance& inst = *instances_[i];
  inst.in_flight.fetch_sub(1, std::memory_order_relaxed);
  if (kind == ReleaseKind::kHedgeLoser) {
    // The cancelled leg of a hedged read: deliberately stopped, so its
    // outcome must not feed the scorer — hedging on a slow replica would
    // otherwise eject its healthy peer via cancel noise.
    hedge_loser_releases_.fetch_add(1, std::memory_order_relaxed);
    if (hedge_loser_counter_ != nullptr) hedge_loser_counter_->Inc();
    return;
  }
  // Passive scoring: only liveness-flavored outcomes indict the replica.
  // A syntax/bind/execution error means the backend answered.
  if (outcome.IsUnavailable() || outcome.IsSessionLost() ||
      outcome.IsIoError() || outcome.IsDeadlineExceeded()) {
    NoteLivenessFailure(inst);
  } else {
    std::lock_guard<std::mutex> lock(inst.mutex);
    EvaluateLocked(inst, std::chrono::steady_clock::now(), 0);
  }
}

void BackendPool::NoteLivenessFailure(Instance& inst) {
  std::lock_guard<std::mutex> lock(inst.mutex);
  EvaluateLocked(inst, std::chrono::steady_clock::now(),
                 options_.health.error_weight);
}

std::unique_ptr<BackendConnector> BackendPool::CreateConnector(
    size_t i, uint64_t session_tag) {
  Instance& inst = *instances_[i];
  ConnectorOptions opts = options_.connector;
  if (opts.governor == nullptr) opts.governor = options_.governor;
  if (opts.metrics == nullptr) opts.metrics = options_.metrics;
  opts.session_tag = session_tag;
  opts.shared_breaker = &inst.breaker;
  opts.backend_name = inst.spec.name;
  Instance* inst_ptr = &inst;
  opts.liveness = [inst_ptr]() -> Status {
    if (inst_ptr->killed.load(std::memory_order_relaxed)) {
      return Status::SessionLost("backend ", inst_ptr->spec.name,
                                 " was killed")
          .WithDetail(StatusDetail::kBackendDown);
    }
    // Chaos: a SlowBackend() stall models a browning-out (alive but late)
    // replica. The liveness hook runs at attempt start and at every batch
    // boundary, so the delay lands on the query's critical path.
    int stall = inst_ptr->slow_ms.load(std::memory_order_relaxed);
    if (stall > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(stall));
    }
    return Status::OK();
  };
  return std::make_unique<BackendConnector>(inst.engine, std::move(opts));
}

void BackendPool::KillBackend(size_t i) {
  Instance& inst = *instances_[i];
  inst.killed.store(true, std::memory_order_relaxed);
}

void BackendPool::SlowBackend(size_t i, int delay_ms) {
  instances_[i]->slow_ms.store(delay_ms, std::memory_order_relaxed);
}

void BackendPool::ReviveBackend(size_t i) {
  Instance& inst = *instances_[i];
  inst.killed.store(false, std::memory_order_relaxed);
  // A revived replica starts on probation, not trusted: score pinned in
  // the DEGRADED band, any lingering ejection cleared.
  std::lock_guard<std::mutex> lock(inst.mutex);
  inst.health = BackendHealth::kDegraded;
  inst.score = 0.5 * (kDegradeScore + kEjectScore);
  inst.last_decay = std::chrono::steady_clock::now();
}

void BackendPool::ProbeNow() {
  for (size_t i = 0; i < instances_.size(); ++i) {
    (void)ProbeBackend(i);
  }
}

Status BackendPool::ProbeBackend(size_t i) {
  Instance& inst = *instances_[i];
  probes_.fetch_add(1, std::memory_order_relaxed);
  if (probes_counter_ != nullptr) probes_counter_->Inc();
  Status probe = FaultInjector::Global().Check(faultpoints::kPoolProbe);
  if (probe.ok()) {
    if (inst.killed.load(std::memory_order_relaxed)) {
      probe = Status::Unavailable("backend ", inst.spec.name, " is down")
                  .WithDetail(StatusDetail::kBackendDown);
    } else {
      auto result = inst.engine->Execute(kProbeSql);
      probe = result.status();
    }
  }
  if (!probe.ok()) {
    probe_failures_.fetch_add(1, std::memory_order_relaxed);
    if (probe_failures_counter_ != nullptr) probe_failures_counter_->Inc();
    NoteLivenessFailure(inst);
    return probe.WithContext("probe of backend " + inst.spec.name);
  }
  // A successful probe past the re-admission time lifts an ejection early
  // (EvaluateLocked handles the transition); it never shortens the dwell.
  std::lock_guard<std::mutex> lock(inst.mutex);
  EvaluateLocked(inst, std::chrono::steady_clock::now(), 0);
  return Status::OK();
}

void BackendPool::Start() {
  if (options_.health.probe_interval_ms <= 0 || prober_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(prober_mutex_);
    stopping_ = false;
  }
  prober_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(prober_mutex_);
    while (!stopping_) {
      prober_cv_.wait_for(
          lock,
          std::chrono::milliseconds(options_.health.probe_interval_ms),
          [this] { return stopping_; });
      if (stopping_) break;
      lock.unlock();
      ProbeNow();
      MirrorGauges();
      lock.lock();
    }
  });
}

void BackendPool::Stop() {
  {
    std::lock_guard<std::mutex> lock(prober_mutex_);
    stopping_ = true;
  }
  prober_cv_.notify_all();
  if (prober_.joinable()) prober_.join();
}

BackendPoolStats BackendPool::stats() const {
  BackendPoolStats s;
  s.ejections = ejections_.load(std::memory_order_relaxed);
  s.readmissions = readmissions_.load(std::memory_order_relaxed);
  s.probes = probes_.load(std::memory_order_relaxed);
  s.probe_failures = probe_failures_.load(std::memory_order_relaxed);
  s.hedge_loser_releases =
      hedge_loser_releases_.load(std::memory_order_relaxed);
  s.slot_denials = slot_denials_.load(std::memory_order_relaxed);
  return s;
}

void BackendPool::MirrorGauges() {
  if (options_.metrics == nullptr) return;
  int state_counts[3] = {0, 0, 0};
  for (size_t i = 0; i < instances_.size(); ++i) {
    BackendHealth h = health(i);
    ++state_counts[static_cast<int>(h)];
    const std::string& name = instances_[i]->spec.name;
    options_.metrics
        ->gauge(obs::LabeledName(obs::names::kBackendHealth,
                                 {{"backend", name}}))
        ->Set(static_cast<int64_t>(h));
    options_.metrics
        ->gauge(obs::LabeledName(obs::names::kBackendInFlight,
                                 {{"backend", name}}))
        ->Set(in_flight(i));
  }
  for (size_t s = 0; s < obs::names::kHealthStateMetricCount; ++s) {
    options_.metrics->gauge(obs::names::kHealthStateMetrics[s].metric)
        ->Set(state_counts[s]);
  }
}

}  // namespace hyperq::backend
