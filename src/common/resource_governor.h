// ResourceGovernor: process-wide memory and spill-disk budgets (DESIGN.md §8).
//
// Every byte a request buffers on the proxy — ResultStore batches, spilled
// TDF files, cached translations — is accounted against one shared governor
// so that no single query (or session) can exhaust proxy memory or fill the
// spill volume and take down its neighbours. Consumers reserve before they
// allocate and release when they free; a denied reservation surfaces as
// kResourceExhausted and drives the shed-or-spill policy in ResultStore:
//
//   memory denied  -> spill the batch to disk instead (bounded, checked),
//   spill denied   -> shed the query with a typed error.
//
// Budgets of 0 mean unlimited (the default), so standalone components that
// never construct a governor keep their PR-1 behaviour.

#pragma once

#include <cstdint>
#include <map>
#include <mutex>

#include "common/status.h"

namespace hyperq {

struct ResourceGovernorOptions {
  // Process-wide ceiling across every live ResultStore and the translation
  // cache. 0 = unlimited.
  int64_t global_memory_bytes = 0;
  // Per-session ceiling (keyed by the session tag consumers pass in).
  // 0 = unlimited.
  int64_t session_memory_bytes = 0;
  // Process-wide ceiling on bytes concurrently spilled to disk.
  // 0 = unlimited.
  int64_t spill_disk_bytes = 0;
};

/// \brief Point-in-time governor accounting, surfaced via ServiceStats.
struct ResourceGovernorStats {
  int64_t memory_bytes = 0;        // currently reserved memory
  int64_t spill_bytes = 0;         // currently reserved spill disk
  int64_t peak_memory_bytes = 0;   // high-water mark of memory_bytes
  int64_t total_spill_bytes = 0;   // cumulative bytes ever spilled
  int64_t memory_denials = 0;      // reservations denied (-> spill attempts)
  int64_t spill_denials = 0;       // spill reservations denied (-> sheds)
  int64_t shed_queries = 0;        // queries shed by policy (NoteShed)
};

/// \brief Shared budget arbiter. Thread-safe; all methods are cheap
/// (one mutex, a map probe for per-session tracking).
///
/// Session tag 0 means "unattributed" and is exempt from the per-session
/// ceiling (used by the translation cache and standalone stores).
class ResourceGovernor {
 public:
  explicit ResourceGovernor(ResourceGovernorOptions options = {});
  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  /// \brief Reserves `bytes` of proxy memory for `session_tag`. Returns
  /// kResourceExhausted (retryable-by-taxonomy, but the store treats it as
  /// a policy signal, not an error) when either the global or the
  /// per-session ceiling would be breached.
  Status ReserveMemory(uint64_t session_tag, int64_t bytes);
  void ReleaseMemory(uint64_t session_tag, int64_t bytes);

  /// \brief Reserves `bytes` of spill-disk budget (global only).
  Status ReserveSpill(int64_t bytes);
  void ReleaseSpill(int64_t bytes);

  /// \brief Records a query shed by the spill-denied policy.
  void NoteShed();

  ResourceGovernorStats stats() const;
  const ResourceGovernorOptions& options() const { return options_; }

 private:
  const ResourceGovernorOptions options_;
  mutable std::mutex mutex_;
  int64_t memory_bytes_ = 0;
  int64_t spill_bytes_ = 0;
  int64_t peak_memory_bytes_ = 0;
  int64_t total_spill_bytes_ = 0;
  int64_t memory_denials_ = 0;
  int64_t spill_denials_ = 0;
  int64_t shed_queries_ = 0;
  std::map<uint64_t, int64_t> session_memory_;
};

}  // namespace hyperq
