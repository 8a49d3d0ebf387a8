#include "service/translation_cache.h"

#include <algorithm>
#include <string_view>

#include "common/hash.h"
#include "common/str_util.h"
#include "observability/metric_names.h"

namespace hyperq::service {

namespace obs = observability;

// ---------------------------------------------------------------------------
// Template building
// ---------------------------------------------------------------------------

Result<CachedTranslation> BuildTranslationTemplate(
    const std::string& sql_b, const sql::NormalizedStatement& norm,
    const std::vector<serializer::LiteralSite>& tagged,
    std::vector<std::string>* sql_b_identifiers) {
  // Index of the literal whose SQL-A offset is `offset`, or kForeign when
  // no extracted literal starts there. Literals are in offset order.
  constexpr int kUntagged = -1;
  constexpr int kForeign = -2;
  auto literal_at = [&norm](int offset) {
    auto it = std::lower_bound(
        norm.literals.begin(), norm.literals.end(), offset,
        [](const sql::ExtractedLiteral& lit, int off) {
          return static_cast<int>(lit.offset) < off;
        });
    return it != norm.literals.end() && static_cast<int>(it->offset) == offset
               ? static_cast<int>(it - norm.literals.begin())
               : kForeign;
  };

  // Literal tokens of the serialized statement, in textual order. The raw
  // byte slice is compared, so string tokens carry their quotes and ''
  // escapes exactly as the serializer emitted them. A token inside a
  // tagged range belongs to that range's literal. One streaming pass: no
  // token vector is materialized.
  struct TokenSite {
    size_t begin;
    size_t end;
    std::string_view raw;
    int owner = kUntagged;  // literal index, kUntagged or kForeign
    bool claimed = false;
  };
  std::vector<TokenSite> sites;
  size_t next_tag = 0;
  size_t token_count = 0;
  sql::StreamLexer lexer(sql_b);
  sql::Token t;
  while (true) {
    HQ_RETURN_IF_ERROR(lexer.Next(&t));
    if (t.kind == sql::TokenKind::kEof) break;
    ++token_count;
    switch (t.kind) {
      case sql::TokenKind::kString:
      case sql::TokenKind::kInteger:
      case sql::TokenKind::kDecimal:
      case sql::TokenKind::kFloat: {
        TokenSite site{t.begin_offset, t.end_offset,
                       std::string_view(sql_b).substr(
                           t.begin_offset, t.end_offset - t.begin_offset)};
        while (next_tag < tagged.size() &&
               tagged[next_tag].end <= t.begin_offset) {
          ++next_tag;
        }
        if (next_tag < tagged.size() &&
            tagged[next_tag].begin <= t.begin_offset &&
            t.end_offset <= tagged[next_tag].end) {
          site.owner = literal_at(tagged[next_tag].literal_offset);
        }
        sites.push_back(std::move(site));
        break;
      }
      case sql::TokenKind::kIdent:
        if (sql_b_identifiers != nullptr) {
          sql_b_identifiers->push_back(t.upper);
        }
        break;
      case sql::TokenKind::kQuotedIdent:
        if (sql_b_identifiers != nullptr) {
          sql_b_identifiers->push_back(ToUpper(t.text));
        }
        break;
      default:
        break;
    }
  }
  if (token_count == 0) {
    return Status::NotSupported("translation produced no executable tokens");
  }

  // Each SQL-A literal must claim exactly one SQL-B literal site. A
  // literal that was folded away matches zero sites; one duplicated by a
  // rewrite, or colliding with a transform-introduced constant, matches
  // more than one. Provenance narrows the match: a site tagged with
  // another literal is never a candidate, and among several value matches
  // the literal's own tagged site wins. Otherwise the statement is not
  // safely parameterizable.
  struct Claim {
    size_t site;
    TemplateSlot slot;
  };
  std::vector<Claim> claims;
  claims.reserve(norm.literals.size());
  bool narrowed = false;
  for (size_t i = 0; i < norm.literals.size(); ++i) {
    const sql::ExtractedLiteral& lit = norm.literals[i];
    sql::SpliceMode mode = sql::NaturalSpliceMode(lit);
    HQ_ASSIGN_OR_RETURN(std::string canonical,
                        sql::RenderLiteralCanonical(lit, mode));
    size_t found = sites.size();
    size_t own = sites.size();
    int matches = 0;
    int own_matches = 0;
    for (size_t j = 0; j < sites.size(); ++j) {
      const TokenSite& site = sites[j];
      if (site.claimed || site.raw != canonical) continue;
      if (site.owner == static_cast<int>(i)) {
        ++own_matches;
        own = j;
      } else if (site.owner != kUntagged) {
        continue;
      }
      ++matches;
      found = j;
    }
    if (matches > 1 && own_matches == 1) {
      found = own;
      matches = 1;
      narrowed = true;
    }
    if (matches != 1) {
      return Status::NotSupported(
          "literal '", lit.text, "' maps to ", matches,
          " serialized sites; statement is not parameterizable");
    }
    sites[found].claimed = true;
    TemplateSlot slot;
    slot.param_index = static_cast<int>(i);
    slot.mode = mode;
    if (mode == sql::SpliceMode::kString) {
      slot.temporal_mask = sql::TemporalCanonicalMask(lit.text);
    }
    claims.push_back({found, slot});
  }

  std::sort(claims.begin(), claims.end(),
            [&](const Claim& a, const Claim& b) {
              return sites[a.site].begin < sites[b.site].begin;
            });

  CachedTranslation entry;
  size_t cursor = 0;
  for (const Claim& c : claims) {
    const TokenSite& site = sites[c.site];
    entry.pieces.push_back(sql_b.substr(cursor, site.begin - cursor));
    entry.slots.push_back(c.slot);
    cursor = site.end;
  }
  entry.pieces.push_back(sql_b.substr(cursor));
  if (narrowed) {
    // A template resolved through provenance must still reproduce its
    // creator's translation byte-for-byte when re-spliced.
    HQ_ASSIGN_OR_RETURN(std::string respliced,
                        SpliceTranslationTemplate(entry, norm));
    if (respliced != sql_b) {
      return Status::NotSupported("template failed re-splice verification");
    }
  }
  return entry;
}

// ---------------------------------------------------------------------------
// Splicing
// ---------------------------------------------------------------------------

Result<std::string> SpliceTranslationTemplate(
    const CachedTranslation& entry, const sql::NormalizedStatement& norm) {
  size_t piece_bytes = 0;
  for (const std::string& p : entry.pieces) piece_bytes += p.size();
  std::string out;
  out.reserve(piece_bytes + entry.slots.size() * 16);
  out += entry.pieces[0];
  for (size_t k = 0; k < entry.slots.size(); ++k) {
    const TemplateSlot& slot = entry.slots[k];
    if (slot.param_index < 0 ||
        static_cast<size_t>(slot.param_index) >= norm.literals.size()) {
      return Status::Internal("template slot out of range");
    }
    const sql::ExtractedLiteral& lit = norm.literals[slot.param_index];
    if (slot.mode == sql::SpliceMode::kString) {
      // Temporal-coercion guard: if the creator's string was canonical
      // under some temporal interpretation, the binder may have coerced
      // that slot; this literal must then be canonical under the same
      // interpretation or the cold path could have reformatted it.
      uint8_t mask = slot.temporal_mask;
      if (mask != 0 &&
          (sql::TemporalCanonicalMask(lit.text) & mask) != mask) {
        return Status::NotSupported(
            "string literal '", lit.text,
            "' is not canonical under the slot's temporal interpretation");
      }
    }
    HQ_ASSIGN_OR_RETURN(std::string rendered,
                        sql::RenderLiteralCanonical(lit, slot.mode));
    out += rendered;
    out += entry.pieces[k + 1];
  }
  return out;
}

// ---------------------------------------------------------------------------
// Sharded LRU
// ---------------------------------------------------------------------------

TranslationCache::TranslationCache(const TranslationCacheOptions& options)
    : governor_(options.governor) {
  int shard_count = std::max(1, options.shard_count);
  shards_.reserve(shard_count);
  for (int i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_budget_ = std::max<size_t>(1, options.max_bytes / shard_count);
  if (options.metrics != nullptr) {
    hits_counter_ = options.metrics->counter(obs::names::kCacheHits);
    misses_counter_ = options.metrics->counter(obs::names::kCacheMisses);
    bypasses_counter_ = options.metrics->counter(obs::names::kCacheBypasses);
    inserts_counter_ = options.metrics->counter(obs::names::kCacheInserts);
    evictions_counter_ =
        options.metrics->counter(obs::names::kCacheEvictions);
    invalidations_counter_ =
        options.metrics->counter(obs::names::kCacheInvalidations);
  }
}

TranslationCache::~TranslationCache() { Clear(); }

TranslationCache::Shard& TranslationCache::ShardFor(const std::string& key) {
  return *shards_[Fnv1a64(key) % shards_.size()];
}

std::shared_ptr<const CachedTranslation> TranslationCache::Lookup(
    const std::string& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (misses_counter_ != nullptr) misses_counter_->Inc();
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->second;
}

void TranslationCache::Insert(const std::string& key,
                              CachedTranslation entry) {
  entry.bytes = key.size() + sizeof(CachedTranslation) +
                entry.slots.size() * sizeof(TemplateSlot);
  for (const std::string& p : entry.pieces) entry.bytes += p.size();

  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Racing cold translations of the same shape: keep the incumbent.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  size_t bytes = entry.bytes;
  if (bytes > shard_budget_) return;  // would never fit; don't thrash
  if (governor_ &&
      !governor_->ReserveMemory(0, static_cast<int64_t>(bytes)).ok()) {
    return;  // process memory budget exhausted: skip, don't evict results
  }
  shard.lru.emplace_front(
      key, std::make_shared<const CachedTranslation>(std::move(entry)));
  shard.index.emplace(key, shard.lru.begin());
  shard.bytes += bytes;
  ++shard.inserts;
  if (inserts_counter_ != nullptr) inserts_counter_->Inc();
  while (shard.bytes > shard_budget_ && shard.lru.size() > 1) {
    auto& victim = shard.lru.back();
    shard.bytes -= victim.second->bytes;
    if (governor_) {
      governor_->ReleaseMemory(0,
                               static_cast<int64_t>(victim.second->bytes));
    }
    shard.index.erase(victim.first);
    shard.lru.pop_back();
    ++shard.evictions;
    if (evictions_counter_ != nullptr) evictions_counter_->Inc();
  }
}

void TranslationCache::InvalidateCatalogVersion(int64_t current_version) {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->second->catalog_version != current_version) {
        shard.bytes -= it->second->bytes;
        if (governor_) {
          governor_->ReleaseMemory(0,
                                   static_cast<int64_t>(it->second->bytes));
        }
        shard.index.erase(it->first);
        it = shard.lru.erase(it);
        ++shard.invalidations;
        if (invalidations_counter_ != nullptr) invalidations_counter_->Inc();
      } else {
        ++it;
      }
    }
  }
}

TranslationCacheStats TranslationCache::stats() const {
  TranslationCacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.bypasses = bypasses_.load(std::memory_order_relaxed);
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    out.evictions += shard.evictions;
    out.invalidations += shard.invalidations;
    out.inserts += shard.inserts;
    out.entries += static_cast<int64_t>(shard.lru.size());
    out.bytes += shard.bytes;
  }
  return out;
}

void TranslationCache::Clear() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    if (governor_ && shard.bytes > 0) {
      governor_->ReleaseMemory(0, static_cast<int64_t>(shard.bytes));
    }
    shard.lru.clear();
    shard.index.clear();
    shard.bytes = 0;
  }
}

}  // namespace hyperq::service
