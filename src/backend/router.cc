#include "backend/router.h"

#include <algorithm>
#include <tuple>

#include "common/fault.h"

namespace hyperq::backend {

namespace {
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// How one backend stands against a query's constraints.
enum class Fit {
  kEligible,       // live and capable
  kEjected,        // capable but EJECTED (not killed): last-resort probation
  kDigestBlocked,  // live and capable, but cannot honor the journal digest
  kOut,            // excluded, killed, or unable to serve the profile
};

struct Candidate {
  int index;
  BackendHealth health;
};
}  // namespace

Result<RouteDecision> Router::Pick(const RouteConstraints& constraints) {
  HQ_RETURN_IF_ERROR(FaultInjector::Global()
                         .Check(faultpoints::kRouterPick)
                         .WithContext("router"));

  auto classify = [&](int idx, BackendHealth* health) {
    if (std::find(constraints.exclude.begin(), constraints.exclude.end(),
                  idx) != constraints.exclude.end()) {
      return Fit::kOut;
    }
    size_t i = static_cast<size_t>(idx);
    *health = pool_->health(i);
    bool ejected = *health == BackendHealth::kEjected;
    if (ejected && pool_->killed(i)) return Fit::kOut;
    if (constraints.emitted != nullptr &&
        !pool_->spec(i).profile.CanServe(*constraints.emitted)) {
      return Fit::kOut;
    }
    if (constraints.require_profile_digest &&
        pool_->profile_digest(i) != constraints.profile_digest) {
      // Alive and capable, rejected only because it cannot honor the
      // session's journaled state — remember that for the error taxonomy.
      return ejected ? Fit::kOut : Fit::kDigestBlocked;
    }
    return ejected ? Fit::kEjected : Fit::kEligible;
  };

  // Stickiness: keep the session where its state lives. The common case —
  // the bound backend is eligible — is decided without a candidate list.
  BackendHealth health;
  if (constraints.sticky >= 0 &&
      static_cast<size_t>(constraints.sticky) < pool_->size() &&
      classify(constraints.sticky, &health) == Fit::kEligible) {
    return RouteDecision{constraints.sticky, "sticky"};
  }

  std::vector<Candidate> eligible;
  std::vector<Candidate> ejected;
  bool digest_blocked_live_backend = false;
  for (size_t i = 0; i < pool_->size(); ++i) {
    int idx = static_cast<int>(i);
    Fit fit = classify(idx, &health);
    if (fit == Fit::kEligible) eligible.push_back({idx, health});
    if (fit == Fit::kEjected) ejected.push_back({idx, health});
    if (fit == Fit::kDigestBlocked) digest_blocked_live_backend = true;
  }
  if (eligible.empty() && ejected.empty()) {
    if (digest_blocked_live_backend) {
      return Status::Unavailable(
                 "no replica matches the session's backend profile "
                 "digest ",
                 constraints.profile_digest,
                 "; journaled SET SESSION state cannot be replayed "
                 "elsewhere")
          .WithDetail(StatusDetail::kFailoverIncompatible);
    }
    return Status::Unavailable("no live backend in the pool")
        .WithDetail(StatusDetail::kBackendDown);
  }

  // Last-resort probation: when every live, capable candidate is EJECTED
  // by passive scoring, route to them rather than fail. Scores rank
  // replicas; they never refuse work only an ejected replica can take.
  const bool last_resort = eligible.empty();
  std::vector<Candidate>& live = last_resort ? ejected : eligible;
  for (const Candidate& c : live) {
    if (c.index == constraints.sticky) {
      return RouteDecision{c.index, last_resort ? "probation" : "sticky"};
    }
  }
  if (live.size() == 1) {
    return RouteDecision{live[0].index, last_resort ? "probation" : "only"};
  }

  // Healthiest tier first: HEALTHY backends take all traffic while any
  // exist; DEGRADED (and last-resort EJECTED) ones only serve as probation.
  std::vector<Candidate> tier;
  for (const Candidate& c : live) {
    if (c.health == BackendHealth::kHealthy) tier.push_back(c);
  }
  const char* reason = "p2c";
  if (tier.empty()) {
    tier = std::move(live);
    reason = "probation";
  }
  if (tier.size() == 1) {
    return RouteDecision{tier[0].index, reason};
  }

  // Power-of-two-choices on a deterministic PRNG: one mixed word yields
  // both picks, so a given (seed, pick ordinal) always routes identically.
  uint64_t r = Mix64(seed_ + seq_.fetch_add(1, std::memory_order_relaxed));
  size_t a = static_cast<size_t>(r % tier.size());
  size_t b = static_cast<size_t>((r >> 32) % tier.size());
  int load_a = pool_->in_flight(tier[a].index);
  int load_b = pool_->in_flight(tier[b].index);
  size_t pick = load_b < load_a ? b : a;
  if (load_a == load_b) {
    // A tie (every pick on an idle fleet, so every logon) goes to the
    // tier's replica, among those at no more than the tied load, with the
    // fewest sessions, then the fewest in flight, then the lowest index:
    // logons spread evenly instead of following the probes.
    auto key = [&](size_t i) {
      const int idx = tier[i].index;
      return std::make_tuple(pool_->sessions(idx), pool_->in_flight(idx), idx);
    };
    for (size_t i = 0; i < tier.size(); ++i) {
      if (pool_->in_flight(tier[i].index) <= load_a && key(i) < key(pick)) {
        pick = i;
      }
    }
  }
  return RouteDecision{tier[pick].index, reason};
}

}  // namespace hyperq::backend
