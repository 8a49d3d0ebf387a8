// Translation cache (DESIGN.md §7): the parse→bind→transform→serialize
// pipeline sits on every request's critical path, yet BI workloads are
// dominated by repeated query shapes that differ only in literals. The
// cache maps a normalized SQL-A template (plus session settings, backend
// profile, and catalog version) to the fully serialized SQL-B with the
// literal positions cut out; a repeat shape skips the whole pipeline and
// only re-splices its literals. The positions come from one cold
// translation: each SQL-A literal's offset rides on its constant through
// bind and transform, and the serializer reports where it landed.
//
// Sharded LRU: the key hash picks a shard, each shard has its own mutex,
// LRU list, and byte budget, so concurrent sessions hitting different
// templates never contend on one lock.

#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/features.h"
#include "common/resource_governor.h"
#include "common/result.h"
#include "observability/metrics.h"
#include "serializer/serializer.h"
#include "sql/normalizer.h"

namespace hyperq::service {

struct TranslationCacheOptions {
  bool enabled = true;
  /// Number of independently locked shards (clamped to >= 1).
  int shard_count = 8;
  /// Total byte budget across all shards; per-shard budget is the even
  /// split. Entries are costed as template bytes + key bytes + overhead.
  size_t max_bytes = 8u << 20;
  /// Shared budget arbiter (DESIGN.md §8): resident entry bytes are
  /// reserved against the process-wide memory budget (unattributed, tag 0)
  /// so the cache and the live ResultStores share one ceiling. An insert
  /// the governor denies is simply skipped. null = unlimited.
  std::shared_ptr<ResourceGovernor> governor;
  /// Registry the hyperq.cache.* counters register in (DESIGN.md §9);
  /// null = no registry (the typed stats() accessor still works).
  observability::MetricsRegistry* metrics = nullptr;
};

struct TranslationCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;      // entries dropped for the byte budget
  int64_t invalidations = 0;  // entries dropped by DDL sweeps
  int64_t bypasses = 0;       // statements that skipped the cache
  int64_t inserts = 0;
  int64_t entries = 0;        // current resident entries
  size_t bytes = 0;           // current resident bytes
};

/// \brief One parameter slot of a cached SQL-B template.
struct TemplateSlot {
  int param_index = 0;  // index into NormalizedStatement::literals
  sql::SpliceMode mode = sql::SpliceMode::kString;
  /// For kString slots: TemporalCanonicalMask of the creator's literal.
  /// The binder may have silently coerced the creator's string into a
  /// temporal literal; a replacement string must be canonical under every
  /// interpretation the creator was canonical under, else the cold path
  /// could have reformatted it and the splice would diverge. Violations
  /// force a bypass.
  uint8_t temporal_mask = 0;
};

/// \brief A fully serialized SQL-B statement with literal positions cut
/// out, plus the feature footprint the cold translation recorded.
struct CachedTranslation {
  std::vector<std::string> pieces;  // pieces.size() == slots.size() + 1
  std::vector<TemplateSlot> slots;  // in SQL-B textual order
  FeatureSet features;
  int64_t catalog_version = 0;
  size_t bytes = 0;  // self-reported cost (filled by Insert)
  /// Negative-cache marker: a cold translation of this shape proved it
  /// non-parameterizable (e.g. a literal folds away). Callers treat a
  /// marker hit as a bypass and translate cold without building a
  /// template again.
  bool uncacheable = false;
};

/// \brief Builds a template from a cold translation: each extracted
/// literal's canonical rendering must match exactly one literal token of
/// `sql_b` (token-aware, so '1' never matches inside '100'). `tagged` is
/// the literal provenance Serializer::Serialize reported: a token inside a
/// range tagged with literal j is never claimed by another literal, and a
/// literal with several value matches (duplicate values, e.g. TPC-H Q1's
/// two 1s, or a transform-introduced constant equal to it) is narrowed to
/// its own tagged site. Statements where the mapping is still not one to
/// one — a literal was folded, duplicated or reformatted — are not safely
/// parameterizable and the caller must bypass the cache. Empty `tagged`
/// falls back to value matching alone. `sql_b_identifiers`, when non-null,
/// receives every upper-cased identifier of the SQL-B text (volatile-table
/// leak checks).
Result<CachedTranslation> BuildTranslationTemplate(
    const std::string& sql_b, const sql::NormalizedStatement& norm,
    const std::vector<serializer::LiteralSite>& tagged,
    std::vector<std::string>* sql_b_identifiers);

/// \brief Renders a statement's literals into a cached template. Fails
/// (bypass) when a literal cannot be rendered under its slot's mode or
/// trips the temporal-coercion guard.
Result<std::string> SpliceTranslationTemplate(
    const CachedTranslation& entry, const sql::NormalizedStatement& norm);

class TranslationCache {
 public:
  explicit TranslationCache(const TranslationCacheOptions& options);
  ~TranslationCache();

  /// \brief Returns the entry or nullptr; counts a miss on nullptr. The
  /// caller reports the hit via RecordHit() once the splice succeeds.
  std::shared_ptr<const CachedTranslation> Lookup(const std::string& key);

  void Insert(const std::string& key, CachedTranslation entry);

  /// \brief Drops every entry whose catalog_version differs from
  /// `current_version` (DDL sweep; versioned keys already make them
  /// unreachable, the sweep reclaims the bytes and counts them).
  void InvalidateCatalogVersion(int64_t current_version);

  void RecordHit() {
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (hits_counter_ != nullptr) hits_counter_->Inc();
  }
  void RecordBypass() {
    bypasses_.fetch_add(1, std::memory_order_relaxed);
    if (bypasses_counter_ != nullptr) bypasses_counter_->Inc();
  }

  TranslationCacheStats stats() const;
  void Clear();

 private:
  struct Shard {
    mutable std::mutex mu;
    // Front = most recently used. The map stores list iterators.
    std::list<std::pair<std::string, std::shared_ptr<const CachedTranslation>>>
        lru;
    std::unordered_map<
        std::string,
        std::list<std::pair<std::string,
                            std::shared_ptr<const CachedTranslation>>>::
            iterator>
        index;
    size_t bytes = 0;
    int64_t evictions = 0;
    int64_t invalidations = 0;
    int64_t inserts = 0;
  };

  Shard& ShardFor(const std::string& key);

  std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_budget_;
  std::shared_ptr<ResourceGovernor> governor_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> bypasses_{0};
  // Registry mirrors of the counters above (null when no registry was
  // configured). Resident entries/bytes are shard-computed, so the owning
  // service exports those as gauges at snapshot time instead.
  observability::Counter* hits_counter_ = nullptr;
  observability::Counter* misses_counter_ = nullptr;
  observability::Counter* bypasses_counter_ = nullptr;
  observability::Counter* inserts_counter_ = nullptr;
  observability::Counter* evictions_counter_ = nullptr;
  observability::Counter* invalidations_counter_ = nullptr;
};

}  // namespace hyperq::service
