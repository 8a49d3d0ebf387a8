// Router (DESIGN.md §10): places one query on one backend of the pool.
//
// Routing policy, in order:
//  1. Eligibility — a backend is a candidate unless it is excluded by the
//     caller (already failed this query), killed/EJECTED, unable to serve
//     the emitted profile (BackendProfile::CanServe), or — when the session
//     has journaled SET SESSION state — its profile digest differs from the
//     digest that state was created under.
//  2. Stickiness — a session's bound backend wins while it is eligible, so
//     session-scoped state (volatile tables, settings) stays where it is.
//     This is the common case and is decided without a candidate list.
//  3. Load — among the healthiest eligible tier (HEALTHY preferred,
//     DEGRADED as probation fallback), power-of-two-choices by in-flight
//     count: two seeded picks, the less-loaded one wins. A tie (always, on
//     an idle fleet) goes to the tier's replica, among those at no more
//     than that load, holding the fewest sessions (BackendPool::sessions),
//     so logons spread evenly. Deterministic — the PRNG is a pure
//     function of (seed, pick ordinal).
//  4. Last-resort probation — when every live, capable candidate is
//     EJECTED by passive scoring (none is killed), they are routed to as
//     probation instead of failing: scores rank replicas, they never make
//     the fleet refuse work only an ejected replica can take. A fleet of
//     one therefore keeps serving through any run of liveness failures.
//
// When no candidate survives, the error distinguishes *why*: if at least
// one live, capable backend was rejected only by the profile-digest
// requirement, the query fails kUnavailable{kFailoverIncompatible} (no
// replica can honor the session's journal); otherwise
// kUnavailable{kBackendDown} (the fleet is down).

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "backend/pool.h"
#include "common/result.h"
#include "transform/backend_profile.h"

namespace hyperq::backend {

/// \brief Per-query placement constraints.
struct RouteConstraints {
  /// Profile the SQL-B text was serialized under; a candidate must
  /// CanServe() it. Null = no capability constraint.
  const transform::BackendProfile* emitted = nullptr;
  /// The session's bound backend (-1 = none); preferred while eligible.
  int sticky = -1;
  /// Backends that already failed this query (never re-picked).
  std::vector<int> exclude;
  /// When true, only backends whose profile digest equals
  /// `profile_digest` qualify — set for sessions whose journal replays
  /// SET SESSION state that is only valid under that exact profile.
  bool require_profile_digest = false;
  std::string profile_digest;
};

/// \brief Every RouteDecision::reason, in a fixed order (callers keep one
/// metric series per backend and reason).
inline constexpr std::array<const char*, 4> kRouteReasons = {
    "sticky", "only", "p2c", "probation"};

struct RouteDecision {
  int backend = -1;
  /// One of kRouteReasons — the route-metric label.
  std::string reason;
};

/// \brief Seeded, thread-safe placement over a BackendPool.
class Router {
 public:
  explicit Router(BackendPool* pool, uint64_t seed = 0x5EEDULL)
      : pool_(pool), seed_(seed) {}

  /// \brief Picks a backend under `constraints`. Consults the
  /// `router.pick` fault point first (an injected error surfaces as a
  /// routing failure).
  Result<RouteDecision> Pick(const RouteConstraints& constraints = {});

 private:
  BackendPool* pool_;
  uint64_t seed_;
  std::atomic<uint64_t> seq_{0};
};

}  // namespace hyperq::backend
