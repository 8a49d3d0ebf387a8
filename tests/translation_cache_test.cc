// Translation cache suite (ctest label `cache`): hit/miss/eviction
// accounting, catalog-version and session-setting invalidation, literal
// re-splicing correctness, volatile-table bypass, cached-vs-uncached
// equivalence over the golden corpus, a cross-shard concurrency hammer,
// and the hit-path latency bound the cache exists to deliver.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/str_util.h"
#include "fuzz/query_gen.h"
#include "golden_corpus.h"
#include "serializer/dialect.h"
#include "service/hyperq_service.h"
#include "service/translation_cache.h"
#include "sql/normalizer.h"
#include "vdb/engine.h"
#include "workload/tpch.h"

namespace hyperq {
namespace {

using service::HyperQService;
using service::QueryOutcome;
using service::ServiceOptions;
using service::TranslationCacheStats;

class TranslationCacheTest : public ::testing::Test {
 protected:
  void Init(ServiceOptions options = {}) {
    service_ = std::make_unique<HyperQService>(&engine_, options);
    auto sid = service_->OpenSession("tester");
    ASSERT_TRUE(sid.ok()) << sid.status();
    sid_ = *sid;
    Must("CREATE TABLE SALES (AMOUNT DECIMAL(12,2), SALES_DATE DATE, "
         "REGION VARCHAR(20), QTY INTEGER)");
    Must("INS INTO SALES VALUES (100.50, DATE '2014-01-01', 'WEST', 3)");
    Must("INS INTO SALES VALUES (250.00, DATE '2014-02-03', 'EAST', 5)");
    Must("INS INTO SALES VALUES (75.25, DATE '2014-03-15', 'O''BRIEN', 2)");
  }

  QueryOutcome Must(const std::string& sql) {
    auto r = service_->Submit(sid_, sql);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status();
    return r.ok() ? std::move(r).value() : QueryOutcome{};
  }

  std::vector<std::vector<Datum>> Rows(const QueryOutcome& o) {
    auto rows = o.result.DecodeRows();
    EXPECT_TRUE(rows.ok()) << rows.status();
    return rows.ok() ? std::move(rows).value()
                     : std::vector<std::vector<Datum>>{};
  }

  TranslationCacheStats Stats() {
    return service_->StatsSnapshot().translation_cache;
  }

  vdb::Engine engine_;
  std::unique_ptr<HyperQService> service_;
  uint32_t sid_ = 0;
};

// ---------------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------------

TEST_F(TranslationCacheTest, RepeatShapeHitsAndTimingMarksIt) {
  Init();
  auto before = Stats();
  auto cold = Must("SEL REGION FROM SALES WHERE AMOUNT > 100");
  auto warm = Must("SEL REGION FROM SALES WHERE AMOUNT > 200");
  auto after = Stats();

  EXPECT_EQ(after.hits - before.hits, 1);
  EXPECT_GE(after.misses - before.misses, 1);
  EXPECT_GE(after.inserts - before.inserts, 1);
  EXPECT_EQ(cold.timing.cache_hits, 0);
  EXPECT_EQ(warm.timing.cache_hits, 1);
  // The hit produced real SQL-B and real rows.
  ASSERT_EQ(warm.backend_sql.size(), 1u);
  EXPECT_EQ(Rows(warm).size(), 1u);  // only 250.00 > 200
  // Feature footprint survives the cache (cold run recorded SEL abbrev).
  EXPECT_TRUE(warm.features.Has(Feature::kSelAbbrev));
}

TEST_F(TranslationCacheTest, DifferentShapesMissSeparately) {
  Init();
  auto before = Stats();
  Must("SEL REGION FROM SALES WHERE AMOUNT > 100");
  Must("SEL QTY FROM SALES WHERE AMOUNT > 100");
  auto after = Stats();
  EXPECT_EQ(after.hits - before.hits, 0);
  EXPECT_GE(after.misses - before.misses, 2);
}

TEST_F(TranslationCacheTest, DisabledKnobBypassesEverything) {
  ServiceOptions options;
  options.translation_cache.enabled = false;
  Init(options);
  Must("SEL REGION FROM SALES WHERE AMOUNT > 100");
  auto warm = Must("SEL REGION FROM SALES WHERE AMOUNT > 200");
  auto s = Stats();
  EXPECT_EQ(s.hits, 0);
  EXPECT_EQ(s.misses, 0);
  EXPECT_EQ(s.inserts, 0);
  EXPECT_EQ(s.entries, 0);
  EXPECT_EQ(warm.timing.cache_hits, 0);
}

TEST_F(TranslationCacheTest, EvictionsStayWithinByteBudget) {
  ServiceOptions options;
  options.translation_cache.shard_count = 1;
  options.translation_cache.max_bytes = 4096;
  Init(options);
  for (int i = 0; i < 60; ++i) {
    // Distinct alias => distinct template => distinct entry.
    Must("SEL REGION AS C" + std::to_string(i) +
         " FROM SALES WHERE AMOUNT > 10");
  }
  auto s = Stats();
  EXPECT_GT(s.evictions, 0);
  EXPECT_LE(s.bytes, options.translation_cache.max_bytes);
  EXPECT_GT(s.entries, 0);
  EXPECT_LT(s.entries, 60);
}

// ---------------------------------------------------------------------------
// Invalidation
// ---------------------------------------------------------------------------

TEST_F(TranslationCacheTest, DdlInvalidatesCachedTranslations) {
  Init();
  Must("SEL REGION FROM SALES WHERE AMOUNT > 100");
  auto warm = Must("SEL REGION FROM SALES WHERE AMOUNT > 150");
  EXPECT_EQ(warm.timing.cache_hits, 1);

  auto before = Stats();
  Must("CREATE TABLE UNRELATED (A INTEGER)");
  auto after = Stats();
  EXPECT_GT(after.invalidations - before.invalidations, 0);

  // Same shape again: the old entry is gone; it must re-translate.
  auto recold = Must("SEL REGION FROM SALES WHERE AMOUNT > 175");
  EXPECT_EQ(recold.timing.cache_hits, 0);
  auto rewarm = Must("SEL REGION FROM SALES WHERE AMOUNT > 225");
  EXPECT_EQ(rewarm.timing.cache_hits, 1);
}

TEST_F(TranslationCacheTest, SetSessionInvalidatesForThatSession) {
  Init();
  Must("SEL REGION FROM SALES WHERE AMOUNT > 100");
  EXPECT_EQ(Must("SEL REGION FROM SALES WHERE AMOUNT > 150")
                .timing.cache_hits,
            1);

  Must("SET SESSION CHARSET 'UTF8'");
  // New settings digest => the warm entry is unreachable for this session.
  auto cold = Must("SEL REGION FROM SALES WHERE AMOUNT > 160");
  EXPECT_EQ(cold.timing.cache_hits, 0);
  auto warm = Must("SEL REGION FROM SALES WHERE AMOUNT > 170");
  EXPECT_EQ(warm.timing.cache_hits, 1);
}

TEST_F(TranslationCacheTest, SessionsWithIdenticalSettingsShareEntries) {
  Init();
  Must("SEL REGION FROM SALES WHERE AMOUNT > 100");
  auto sid2 = service_->OpenSession("other");
  ASSERT_TRUE(sid2.ok());
  auto r = service_->Submit(*sid2, "SEL REGION FROM SALES WHERE AMOUNT > 5");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->timing.cache_hits, 1);
}

// ---------------------------------------------------------------------------
// Bypass rules
// ---------------------------------------------------------------------------

TEST_F(TranslationCacheTest, VolatileTableReferencesBypass) {
  Init();
  Must("CREATE VOLATILE TABLE VT (A INTEGER)");
  Must("INS INTO VT VALUES (1)");
  auto before = Stats();
  auto a = Must("SEL A FROM VT");
  auto b = Must("SEL A FROM VT");
  auto after = Stats();
  EXPECT_EQ(after.hits - before.hits, 0);
  EXPECT_GE(after.bypasses - before.bypasses, 2);
  EXPECT_EQ(a.timing.cache_hits, 0);
  EXPECT_EQ(b.timing.cache_hits, 0);
}

TEST_F(TranslationCacheTest, ViewOverNameThatLaterTurnsVolatileBypasses) {
  // With no volatile table anywhere the probe and the template build skip
  // the identifier lists. That is safe because the DDL that later makes a
  // name volatile bumps the catalog version in every key: a view's cached
  // template (its SQL-B names the underlying table, its SQL-A only the
  // view) becomes unreachable, and the next cold run sees the name.
  Init();
  Must("CREATE TABLE UNDER_T (A INTEGER)");
  Must("INS INTO UNDER_T VALUES (1)");
  Must("CREATE VIEW OVER_V AS SEL A FROM UNDER_T");
  auto cold = Must("SEL A FROM OVER_V WHERE A = 1");
  ASSERT_EQ(cold.backend_sql.size(), 1u);
  ASSERT_NE(cold.backend_sql[0].find("UNDER_T"), std::string::npos)
      << cold.backend_sql[0];
  EXPECT_EQ(Must("SEL A FROM OVER_V WHERE A = 2").timing.cache_hits, 1);

  Must("DROP TABLE UNDER_T");
  Must("CREATE VOLATILE TABLE UNDER_T (A INTEGER)");
  Must("INS INTO UNDER_T VALUES (2)");
  auto before = Stats();
  auto a = Must("SEL A FROM OVER_V WHERE A = 1");
  auto b = Must("SEL A FROM OVER_V WHERE A = 2");
  auto after = Stats();
  EXPECT_EQ(a.timing.cache_hits, 0);
  EXPECT_EQ(b.timing.cache_hits, 0);
  EXPECT_EQ(after.hits - before.hits, 0);
  EXPECT_EQ(after.inserts - before.inserts, 0);
  EXPECT_GE(after.bypasses - before.bypasses, 2);
  ASSERT_EQ(Rows(b).size(), 1u);
  EXPECT_EQ(Rows(b)[0][0].int_val(), 2);
}

TEST_F(TranslationCacheTest, DdlAndSessionCommandsBypass) {
  Init();
  auto before = Stats();
  Must("CREATE TABLE BYPASS_T (A INTEGER)");
  Must("COLLECT STATISTICS ON BYPASS_T COLUMN A");
  Must("HELP TABLE SALES");
  auto after = Stats();
  EXPECT_GE(after.bypasses - before.bypasses, 3);
  EXPECT_EQ(after.hits - before.hits, 0);
}

TEST_F(TranslationCacheTest, MacroBodiesAreCacheableThoughExecIsNot) {
  Init();
  Must("CREATE MACRO REGSUM (R VARCHAR(20)) AS "
       "(SEL SUM(AMOUNT) FROM SALES WHERE REGION = :R;)");
  auto first = Must("EXEC REGSUM ('WEST')");
  EXPECT_EQ(first.timing.cache_hits, 0);
  auto second = Must("EXEC REGSUM ('EAST')");
  // The expanded body statement hit the cache even though EXEC bypassed.
  EXPECT_EQ(second.timing.cache_hits, 1);
  auto rows = Rows(second);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].decimal_val().ToString(), "250.00");
}

// ---------------------------------------------------------------------------
// Re-splicing correctness
// ---------------------------------------------------------------------------

TEST_F(TranslationCacheTest, RespliceStringEscaping) {
  Init();
  Must("SEL QTY FROM SALES WHERE REGION = 'WEST'");
  auto warm = Must("SEL QTY FROM SALES WHERE REGION = 'O''BRIEN'");
  EXPECT_EQ(warm.timing.cache_hits, 1);
  ASSERT_EQ(warm.backend_sql.size(), 1u);
  EXPECT_NE(warm.backend_sql[0].find("'O''BRIEN'"), std::string::npos)
      << warm.backend_sql[0];
  auto rows = Rows(warm);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].int_val(), 2);
}

TEST_F(TranslationCacheTest, RespliceDateLiterals) {
  Init();
  Must("SEL QTY FROM SALES WHERE SALES_DATE = DATE '2014-01-01'");
  auto warm = Must("SEL QTY FROM SALES WHERE SALES_DATE = DATE '2014-02-03'");
  EXPECT_EQ(warm.timing.cache_hits, 1);
  auto rows = Rows(warm);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].int_val(), 5);
}

TEST_F(TranslationCacheTest, RespliceDecimalsPreserveScale) {
  Init();
  Must("SEL REGION FROM SALES WHERE AMOUNT = 100.50");
  auto warm = Must("SEL REGION FROM SALES WHERE AMOUNT = 75.25");
  EXPECT_EQ(warm.timing.cache_hits, 1);
  ASSERT_EQ(warm.backend_sql.size(), 1u);
  EXPECT_NE(warm.backend_sql[0].find("75.25"), std::string::npos);
  auto rows = Rows(warm);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].string_val(), "O'BRIEN");
}

// Duplicate literal values make the site↔literal mapping ambiguous by
// value alone: the creator's '5' matches two SQL-B sites, and splicing a
// repeat whose two values differ could swap them. Literal provenance (each
// constant carries its SQL-A offset into the serializer's site report)
// resolves the mapping from the one cold translation, and the entry is
// only admitted if re-splicing the ORIGINAL literals reproduces the
// original translation byte-for-byte. Assert the repeat is a hit AND its
// results match an uncached service on rows a slot swap would visibly
// change.
TEST_F(TranslationCacheTest, DuplicateLiteralsDisambiguatedBySentinels) {
  Init();
  ServiceOptions off;
  off.translation_cache.enabled = false;
  vdb::Engine engine2;
  HyperQService uncached(&engine2, off);
  auto sid2 = uncached.OpenSession("tester");
  ASSERT_TRUE(sid2.ok());
  for (const char* ddl :
       {"CREATE TABLE SALES (AMOUNT DECIMAL(12,2), SALES_DATE DATE, "
        "REGION VARCHAR(20), QTY INTEGER)",
        "INS INTO SALES VALUES (100.50, DATE '2014-01-01', 'WEST', 3)",
        "INS INTO SALES VALUES (250.00, DATE '2014-02-03', 'EAST', 5)",
        "INS INTO SALES VALUES (75.25, DATE '2014-03-15', 'O''BRIEN', 2)"}) {
    ASSERT_TRUE(uncached.Submit(*sid2, ddl).ok());
  }

  // Seed: both BETWEEN bounds are the integer 5 — directly ambiguous.
  auto seed = Must("SEL REGION FROM SALES WHERE QTY BETWEEN 5 AND 5");
  EXPECT_EQ(seed.timing.cache_hits, 0);
  // Repeat with distinct bounds. Swapped slots would evaluate
  // BETWEEN 5 AND 3 (an empty range) instead of the correct 2 rows.
  const std::string repeat =
      "SEL REGION FROM SALES WHERE QTY BETWEEN 3 AND 5";
  auto warm = Must(repeat);
  EXPECT_EQ(warm.timing.cache_hits, 1)
      << "literal provenance should have cached the duplicate-literal shape";
  auto plain = uncached.Submit(*sid2, repeat);
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_EQ(warm.backend_sql, plain->backend_sql);
  auto warm_rows = Rows(warm);
  ASSERT_EQ(warm_rows.size(), 2u);  // WEST (QTY 3) and EAST (QTY 5)
  auto plain_decoded = plain->result.DecodeRows();
  ASSERT_TRUE(plain_decoded.ok());
  ASSERT_EQ(plain_decoded->size(), 2u);
  for (size_t i = 0; i < warm_rows.size(); ++i) {
    EXPECT_EQ(warm_rows[i][0].string_val(),
              (*plain_decoded)[i][0].string_val());
  }

  // Same property for duplicate strings; mixed-type duplicates may still
  // bypass (coercion can reformat one site), so only assert row
  // correctness when they do cache.
  Must("SEL QTY FROM SALES WHERE REGION = 'X' OR REGION = 'X'");
  auto warm2 =
      Must("SEL QTY FROM SALES WHERE REGION = 'WEST' OR REGION = 'EAST'");
  if (warm2.timing.cache_hits == 1) {
    EXPECT_EQ(Rows(warm2).size(), 2u);
  }
  Must("SEL REGION FROM SALES WHERE QTY > 5 AND AMOUNT > 5");
  auto warm3 = Must("SEL REGION FROM SALES WHERE QTY > 2 AND AMOUNT > 90");
  auto plain3 = uncached.Submit(
      *sid2, "SEL REGION FROM SALES WHERE QTY > 2 AND AMOUNT > 90");
  ASSERT_TRUE(plain3.ok());
  EXPECT_EQ(warm3.backend_sql, plain3->backend_sql);
}

// Shapes no template can serve (a literal folds away, or its site stays
// ambiguous) are negative-cached: the second submission must bypass on
// the marker instead of building a template again.
TEST_F(TranslationCacheTest, UncacheableShapesAreNegativeCached) {
  Init();
  // GROUP BY <ordinal>: the binder resolves the ordinal into the grouped
  // expression, so the literal vanishes from SQL-B and no site can claim
  // it. Splicing a different ordinal would also change semantics — this
  // shape MUST stay uncached.
  const std::string shape_a =
      "SEL EXTRACT(YEAR FROM SALES_DATE), COUNT(*) FROM SALES "
      "WHERE QTY > 5 GROUP BY 1";
  const std::string shape_b =
      "SEL EXTRACT(YEAR FROM SALES_DATE), COUNT(*) FROM SALES "
      "WHERE QTY > 9 GROUP BY 1";
  auto first = Must(shape_a);
  EXPECT_EQ(first.timing.cache_hits, 0);
  auto mid = Stats();
  auto second = Must(shape_b);
  auto after = Stats();
  EXPECT_EQ(second.timing.cache_hits, 0);
  EXPECT_EQ(after.hits - mid.hits, 0);
  EXPECT_GE(after.bypasses - mid.bypasses, 1)
      << "second submission should bypass on the negative marker";
  // The marker still translates correctly (cold path).
  ASSERT_EQ(second.backend_sql.size(), 1u);
}

// Statements whose literals get folded, duplicated, or reformatted by the
// pipeline must not be spliced wrong — match-or-bypass (narrowed by
// literal provenance) admits an entry only when every literal maps to
// exactly one site. Equivalence is the property to assert.
TEST_F(TranslationCacheTest, CacheOnOffProduceByteIdenticalSqlB) {
  Init();
  ServiceOptions off;
  off.translation_cache.enabled = false;
  vdb::Engine engine2;
  HyperQService uncached(&engine2, off);
  auto sid2 = uncached.OpenSession("tester");
  ASSERT_TRUE(sid2.ok());
  for (const char* ddl :
       {"CREATE TABLE SALES (AMOUNT DECIMAL(12,2), SALES_DATE DATE, "
        "REGION VARCHAR(20), QTY INTEGER)",
        "INS INTO SALES VALUES (100.50, DATE '2014-01-01', 'WEST', 3)",
        "INS INTO SALES VALUES (250.00, DATE '2014-02-03', 'EAST', 5)",
        "INS INTO SALES VALUES (75.25, DATE '2014-03-15', 'O''BRIEN', 2)"}) {
    ASSERT_TRUE(uncached.Submit(*sid2, ddl).ok());
  }

  const std::vector<std::string> corpus = {
      // Plain repeats (hit path after round 1).
      "SEL REGION FROM SALES WHERE AMOUNT > 100",
      "SEL REGION FROM SALES WHERE AMOUNT > 200.50",
      // Duplicate literal values (provenance disambiguates the site
      // mapping; if that ever fails, bypass keeps it correct).
      "SEL REGION FROM SALES WHERE QTY = 5 AND AMOUNT > 5",
      // Folded literals: date-to-int expansion introduces constants.
      "SEL REGION FROM SALES WHERE SALES_DATE > 1140101",
      // Negative numbers (sign lives outside the literal token).
      "SEL REGION FROM SALES WHERE AMOUNT > -50",
      // NULL is a keyword, never a parameter.
      "SEL REGION FROM SALES WHERE REGION IS NOT NULL AND QTY > 1",
      // String escaping and typed literals.
      "SEL QTY FROM SALES WHERE REGION = 'O''BRIEN'",
      "SEL QTY FROM SALES WHERE SALES_DATE = DATE '2014-02-03'",
      // Non-canonical date text (temporal guard must keep output equal).
      "SEL QTY FROM SALES WHERE SALES_DATE = DATE '2014-2-3'",
      // INTERVAL literals fold at parse time and stay in the template.
      "SEL SALES_DATE + INTERVAL '3' DAY FROM SALES",
      // Floats.
      "SEL REGION FROM SALES WHERE AMOUNT > 1.5E1",
  };
  for (int round = 0; round < 2; ++round) {
    for (const std::string& q : corpus) {
      auto cached_out = service_->Submit(sid_, q);
      auto plain_out = uncached.Submit(*sid2, q);
      ASSERT_TRUE(cached_out.ok()) << q << "\n" << cached_out.status();
      ASSERT_TRUE(plain_out.ok()) << q << "\n" << plain_out.status();
      EXPECT_EQ(cached_out->backend_sql, plain_out->backend_sql)
          << "round " << round << ": " << q;
    }
  }
}

// Acceptance: the full golden corpus translates byte-identically with the
// cache on (warm, second round) and off.
TEST_F(TranslationCacheTest, GoldenCorpusByteIdenticalCacheOnVsOff) {
  ServiceOptions on;
  vdb::Engine engine_on;
  HyperQService cached(&engine_on, on);
  ServiceOptions off;
  off.translation_cache.enabled = false;
  vdb::Engine engine_off;
  HyperQService uncached(&engine_off, off);

  auto sid_on = cached.OpenSession("golden");
  auto sid_off = uncached.OpenSession("golden");
  ASSERT_TRUE(sid_on.ok());
  ASSERT_TRUE(sid_off.ok());
  for (const std::string& stmt : golden::SchemaStatements()) {
    ASSERT_TRUE(cached.Submit(*sid_on, stmt).ok()) << stmt;
    ASSERT_TRUE(uncached.Submit(*sid_off, stmt).ok()) << stmt;
  }
  auto cases = golden::LoadGoldenCases();
  ASSERT_GE(cases.size(), 30u);
  for (int round = 0; round < 2; ++round) {
    for (const auto& c : cases) {
      auto with_cache = cached.Translate(c.sql, nullptr);
      auto without = uncached.Translate(c.sql, nullptr);
      ASSERT_TRUE(with_cache.ok()) << c.name << "\n" << with_cache.status();
      ASSERT_TRUE(without.ok()) << c.name << "\n" << without.status();
      EXPECT_EQ(*with_cache, *without)
          << "round " << round << ": " << c.name;
    }
  }
  EXPECT_GT(cached.StatsSnapshot().translation_cache.hits, 0)
      << "round 2 should have been served from the cache for at least the "
         "plain query shapes";
}

// ---------------------------------------------------------------------------
// Coverage and the splice oracle
// ---------------------------------------------------------------------------

// A cache-on and a cache-off service over the same (empty) schema. Empty
// tables keep execution trivial: the property under test is the SQL-B.
struct OnOffServices {
  explicit OnOffServices(const std::vector<std::string>& ddl) {
    ServiceOptions off_options;
    off_options.translation_cache.enabled = false;
    on = std::make_unique<HyperQService>(&engine_on, ServiceOptions{});
    off = std::make_unique<HyperQService>(&engine_off, off_options);
    sid_on = *on->OpenSession("on");
    sid_off = *off->OpenSession("off");
    for (const std::string& stmt : ddl) {
      EXPECT_TRUE(on->Submit(sid_on, stmt).ok()) << stmt;
      EXPECT_TRUE(off->Submit(sid_off, stmt).ok()) << stmt;
    }
  }

  vdb::Engine engine_on;
  vdb::Engine engine_off;
  std::unique_ptr<HyperQService> on;
  std::unique_ptr<HyperQService> off;
  uint32_t sid_on = 0;
  uint32_t sid_off = 0;
};

// A literal of the same kind as `original` with a value unique per slot
// and far from anything a query or a rewrite uses (scale and typed-literal
// context preserved, so the shape keeps its cache key).
sql::ExtractedLiteral VariantLiteral(const sql::ExtractedLiteral& original,
                                     size_t slot) {
  sql::ExtractedLiteral v = original;
  char buf[40];
  switch (original.kind) {
    case sql::TokenKind::kInteger:
      v.text = std::to_string(880000001 + slot);
      break;
    case sql::TokenKind::kDecimal: {
      size_t dot = original.text.find('.');
      size_t scale =
          dot == std::string::npos ? 0 : original.text.size() - dot - 1;
      v.text = std::to_string(88000001 + slot) + ".";
      v.text.append(scale, '7');
      break;
    }
    case sql::TokenKind::kFloat:
      v.text = "8.8" + std::to_string(100 + slot) + "e37";
      break;
    default:
      if (original.type_keyword == "DATE") {
        std::snprintf(buf, sizeof(buf), "%04zu-%02zu-%02zu", 2185 + slot / 336,
                      (slot / 28) % 12 + 1, slot % 28 + 1);
        v.text = buf;
      } else if (original.type_keyword == "TIME") {
        std::snprintf(buf, sizeof(buf), "%02zu:%02zu:%02zu", slot % 24,
                      (7 * slot + 1) % 60, (13 * slot + 2) % 60);
        v.text = buf;
      } else if (original.type_keyword == "TIMESTAMP") {
        std::snprintf(buf, sizeof(buf), "%04zu-01-01 %02zu:%02zu:%02zu",
                      2185 + slot / 24, slot % 24, (7 * slot + 1) % 60,
                      (13 * slot + 2) % 60);
        v.text = buf;
      } else {
        v.text = "HQVARIANT" + std::to_string(slot);
      }
      break;
  }
  return v;
}

// Rebuilds SQL-A from a normalized template by substituting the k-th
// literal placeholder '?' with literals[k]. Quote-aware, so a '?' inside a
// retained string (INTERVAL values) or a quoted identifier is kept.
Result<std::string> SubstituteLiterals(
    const std::string& template_sql,
    const std::vector<sql::ExtractedLiteral>& literals) {
  std::string out;
  size_t next = 0;
  bool in_string = false;
  bool in_quoted_ident = false;
  for (char c : template_sql) {
    if (c == '\'' && !in_quoted_ident) in_string = !in_string;
    if (c == '"' && !in_string) in_quoted_ident = !in_quoted_ident;
    if (c != '?' || in_string || in_quoted_ident) {
      out += c;
      continue;
    }
    if (next >= literals.size()) {
      return Status::Internal("more placeholders than literals");
    }
    const sql::ExtractedLiteral& lit = literals[next++];
    out += lit.kind == sql::TokenKind::kString ? QuoteSql(lit.text, '\'')
                                               : lit.text;
  }
  if (next != literals.size()) {
    return Status::Internal("fewer placeholders than literals");
  }
  return out;
}

// A negated literal folds into an untagged constant, so only its value can
// place it; provenance keeps it off the equal site another literal owns.
TEST(TranslationCacheCoverageTest,
     FoldedLiteralNeverClaimsAnotherLiteralsSite) {
  OnOffServices svc({"CREATE TABLE SALES (AMOUNT DECIMAL(12,2), "
                     "SALES_DATE DATE, REGION VARCHAR(20), QTY INTEGER)"});
  ASSERT_TRUE(
      svc.on->Submit(svc.sid_on, "SEL REGION FROM SALES WHERE QTY > -5 AND "
                                 "AMOUNT > 5")
          .ok());
  const std::string repeat =
      "SEL REGION FROM SALES WHERE QTY > -2 AND AMOUNT > 90";
  auto warm = svc.on->Submit(svc.sid_on, repeat);
  auto plain = svc.off->Submit(svc.sid_off, repeat);
  ASSERT_TRUE(warm.ok()) << warm.status();
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_EQ(warm->timing.cache_hits, 1);
  EXPECT_EQ(warm->backend_sql, plain->backend_sql);
}

// DESIGN.md §7: after one pass over TPC-H, the second pass is served from
// the cache for every query but Q15, whose CTE is referenced twice so each
// of its literals lands at two SQL-B sites. Every hit serializes exactly
// what a cache-off service does.
TEST(TranslationCacheCoverageTest, TpchSecondPassHitsAllButQ15) {
  OnOffServices svc(workload::TpchSchemaSqlA());
  const std::vector<std::string>& queries = workload::TpchQueries();
  ASSERT_EQ(queries.size(), 22u);
  for (const std::string& q : queries) {
    auto cold = svc.on->Submit(svc.sid_on, q);
    ASSERT_TRUE(cold.ok()) << q << "\n" << cold.status();
  }
  int hits = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto warm = svc.on->Submit(svc.sid_on, queries[i]);
    auto plain = svc.off->Submit(svc.sid_off, queries[i]);
    ASSERT_TRUE(warm.ok()) << "Q" << i + 1 << ": " << warm.status();
    ASSERT_TRUE(plain.ok()) << "Q" << i + 1 << ": " << plain.status();
    hits += warm->timing.cache_hits;
    EXPECT_EQ(warm->timing.cache_hits, i == 14 ? 0 : 1) << "Q" << i + 1;
    EXPECT_EQ(warm->backend_sql, plain->backend_sql) << "Q" << i + 1;
  }
  EXPECT_EQ(hits, 21);
}

// The splice oracle: submit each shape, then a variant with every literal
// replaced by a different value of the same kind. A variant served from
// the cache must serialize byte-identically to a cold translation. The
// shapes are the first 500 fuzz queries of a fixed seed plus TPC-H.
TEST(TranslationCacheCoverageTest, ReLiteraledShapesSpliceLikeColdRuns) {
  std::vector<std::string> ddl = fuzz::SchemaDdl();
  for (const std::string& stmt : workload::TpchSchemaSqlA()) {
    ddl.push_back(stmt);
  }
  OnOffServices svc(ddl);
  std::vector<std::string> shapes;
  for (uint64_t i = 0; i < 500; ++i) {
    shapes.push_back(fuzz::GenerateQuery(/*seed=*/20260809, i).ToSql());
  }
  for (const std::string& q : workload::TpchQueries()) shapes.push_back(q);

  int admitted = 0;
  for (const std::string& shape : shapes) {
    if (!svc.on->Submit(svc.sid_on, shape).ok()) continue;
    auto norm = sql::NormalizeStatement(shape);
    ASSERT_TRUE(norm.ok()) << norm.status();
    if (norm->literals.empty()) continue;
    std::vector<sql::ExtractedLiteral> literals;
    for (size_t k = 0; k < norm->literals.size(); ++k) {
      literals.push_back(VariantLiteral(norm->literals[k], k));
    }
    auto variant = SubstituteLiterals(norm->template_sql, literals);
    ASSERT_TRUE(variant.ok()) << variant.status();
    auto warm = svc.on->Submit(svc.sid_on, *variant);
    if (!warm.ok() || warm->timing.cache_hits == 0) continue;
    ++admitted;
    auto plain = svc.off->Submit(svc.sid_off, *variant);
    ASSERT_TRUE(plain.ok()) << *variant << "\n" << plain.status();
    EXPECT_EQ(warm->backend_sql, plain->backend_sql)
        << "shape:   " << shape << "\nvariant: " << *variant;
  }
  RecordProperty("admitted_templates", admitted);
  std::cout << "[ splice oracle ] " << admitted << " of " << shapes.size()
            << " shapes served their variant from the cache\n";
  // Template coverage may only grow: the sentinel re-translation that
  // literal provenance replaced admitted this many of these shapes.
  constexpr int kSentinelAdmitted = 462;
  EXPECT_GE(admitted, kSentinelAdmitted);
}

// ---------------------------------------------------------------------------
// Both entry points account translation uniformly
// ---------------------------------------------------------------------------

TEST_F(TranslationCacheTest, ActivityStatsCoverSubmitAndTranslate) {
  Init();
  auto base = service_->StatsSnapshot().translation_activity;
  Must("SEL REGION FROM SALES WHERE AMOUNT > 100");
  auto t1 = service_->Translate("SEL REGION FROM SALES WHERE AMOUNT > 120",
                                nullptr);
  ASSERT_TRUE(t1.ok());
  auto t2 = service_->Translate("SEL REGION FROM SALES WHERE AMOUNT > 140",
                                nullptr);
  ASSERT_TRUE(t2.ok());
  auto now = service_->StatsSnapshot().translation_activity;
  EXPECT_EQ(now.submit_statements - base.submit_statements, 1);
  EXPECT_EQ(now.translate_statements - base.translate_statements, 2);
  // Submit seeded the entry; both Translate calls were hits (sessions with
  // default settings share the translation-only key space).
  EXPECT_EQ(now.cache_hits - base.cache_hits, 2);
  EXPECT_GT(now.translate_micros, base.translate_micros);
}

TEST_F(TranslationCacheTest, TranslateExpandsMacros) {
  Init();
  Must("CREATE MACRO TWOSTMT (R VARCHAR(20)) AS "
       "(SEL QTY FROM SALES WHERE REGION = :R; "
       "SEL AMOUNT FROM SALES WHERE REGION = :R;)");
  auto out = service_->Translate("EXEC TWOSTMT ('WEST')", nullptr);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->size(), 2u);
  EXPECT_NE((*out)[0].find("'WEST'"), std::string::npos) << (*out)[0];
  EXPECT_NE((*out)[1].find("'WEST'"), std::string::npos) << (*out)[1];
}

// ---------------------------------------------------------------------------
// Concurrency
// ---------------------------------------------------------------------------

TEST_F(TranslationCacheTest, ConcurrentSessionsHammerAcrossShards) {
  ServiceOptions options;
  options.translation_cache.shard_count = 4;
  Init(options);
  constexpr int kThreads = 8;
  constexpr int kIters = 60;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto sid = service_->OpenSession("hammer" + std::to_string(t));
      if (!sid.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kIters; ++i) {
        // A handful of shared shapes (cross-thread hits) plus a
        // per-thread shape (insert traffic), literals always changing.
        std::string q =
            i % 3 == 0
                ? "SEL REGION FROM SALES WHERE AMOUNT > " +
                      std::to_string(i)
                : i % 3 == 1
                      ? "SEL QTY FROM SALES WHERE AMOUNT < " +
                            std::to_string(1000 + i)
                      : "SEL REGION AS T" + std::to_string(t) +
                            " FROM SALES WHERE QTY >= " + std::to_string(i);
        auto r = service_->Submit(*sid, q);
        if (!r.ok() || r->backend_sql.size() != 1) ++failures;
      }
      service_->CloseSession(*sid);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  auto s = Stats();
  EXPECT_GT(s.hits, 0);
  EXPECT_GT(s.misses, 0);
  // Post-hammer sanity: the cache still splices correctly.
  auto check = Must("SEL REGION FROM SALES WHERE AMOUNT > 200");
  ASSERT_EQ(check.backend_sql.size(), 1u);
  EXPECT_EQ(Rows(check).size(), 1u);
}

// ---------------------------------------------------------------------------
// The point of the exercise: hits skip the pipeline
// ---------------------------------------------------------------------------

TEST_F(TranslationCacheTest, HitPathTranslationAtLeast5xFaster) {
  Init();
  // Representative BI aggregate: CASE buckets, BETWEEN date range, several
  // predicates. All literals are pairwise distinct so the template
  // bijection holds on the cold seed.
  const std::string shape =
      "SEL REGION, COUNT(*), SUM(AMOUNT), "
      "SUM(CASE WHEN QTY > 7 THEN AMOUNT ELSE 0.00 END) "
      "FROM SALES WHERE SALES_DATE BETWEEN DATE '2013-01-01' AND DATE "
      "'2013-12-31' AND REGION <> 'NOWHERE' AND QTY < 9999 "
      "GROUP BY REGION HAVING SUM(AMOUNT) > ";
  ServiceOptions off;
  off.translation_cache.enabled = false;
  vdb::Engine engine2;
  HyperQService uncached(&engine2, off);
  auto sid2 = uncached.OpenSession("tester");
  ASSERT_TRUE(sid2.ok());
  ASSERT_TRUE(uncached
                  .Submit(*sid2,
                          "CREATE TABLE SALES (AMOUNT DECIMAL(12,2), "
                          "SALES_DATE DATE, REGION VARCHAR(20), "
                          "QTY INTEGER)")
                  .ok());

  constexpr int kIters = 40;
  std::vector<double> hit_micros, cold_micros;
  Must(shape + "0");  // seed the template
  // Measure each side in its own tight loop: steady-state hit latency is
  // the quantity of interest, and interleaving a full cold pipeline
  // between hits would only measure CPU-cache pollution.
  for (int i = 1; i <= kIters; ++i) {
    auto warm = Must(shape + std::to_string(i));
    ASSERT_EQ(warm.timing.cache_hits, 1) << i;
    hit_micros.push_back(warm.timing.translation_micros);
  }
  for (int i = 1; i <= kIters; ++i) {
    auto cold = uncached.Submit(*sid2, shape + std::to_string(i));
    ASSERT_TRUE(cold.ok()) << cold.status();
    cold_micros.push_back(cold->timing.translation_micros);
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  double hit = median(hit_micros);
  double cold = median(cold_micros);
  EXPECT_GE(cold, 5.0 * hit)
      << "median cold translation " << cold
      << "us, median hit translation " << hit << "us";
}

// ---------------------------------------------------------------------------
// Dialect isolation (DESIGN.md §12)
// ---------------------------------------------------------------------------

// Two profiles that agree on every capability bit but carry different
// dialect generators must never share a cached template: the digest (the
// cache key's settings component) has to differ, and CanServe has to
// refuse the cross-dialect reuse path.
TEST(DialectCacheKeyTest, ProfilesDifferingOnlyInDialectNeverShareEntries) {
  transform::BackendProfile ansi = transform::BackendProfile::Vdb();
  transform::BackendProfile sierra = transform::BackendProfile::Vdb();
  sierra.dialect = "sierra";
  EXPECT_NE(ansi.CacheKeyDigest(), sierra.CacheKeyDigest());
  EXPECT_FALSE(ansi.CanServe(sierra));
  EXPECT_FALSE(sierra.CanServe(ansi));
  EXPECT_TRUE(ansi.CanServe(ansi));
}

// The translation target is fixed per service. Two services over one
// engine, one emitting ansi and one sierra, translate the same SQL-A shape
// to their own dialect's SQL-B, each hits its own cache entry, and both
// read the same rows.
TEST_F(TranslationCacheTest, DialectServicesOverOneEngineKeepTheirOwnEntries) {
  Init();
  ServiceOptions sierra_options;
  sierra_options.profile = serializer::FindDialect("sierra")->Profile();
  HyperQService sierra(&engine_, sierra_options);
  // SALES already exists on the shared engine: only the second service's
  // catalog needs to learn it.
  auto sales = service_->catalog()->GetTable("SALES");
  ASSERT_TRUE(sales.ok()) << sales.status();
  ASSERT_TRUE(sierra.catalog()->CreateTable(**sales).ok());
  auto sierra_sid = sierra.OpenSession("tester");
  ASSERT_TRUE(sierra_sid.ok()) << sierra_sid.status();
  auto must_sierra = [&](const std::string& sql) {
    auto r = sierra.Submit(*sierra_sid, sql);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status();
    return r.ok() ? std::move(r).value() : QueryOutcome{};
  };
  const std::string q1 = "SEL REGION FROM SALES WHERE AMOUNT > 100";
  const std::string q2 = "SEL REGION FROM SALES WHERE AMOUNT > 200";

  auto ansi_cold = Must(q1);
  auto ansi_warm = Must(q2);
  EXPECT_EQ(ansi_cold.timing.cache_hits, 0);
  EXPECT_EQ(ansi_warm.timing.cache_hits, 1);
  EXPECT_EQ(ansi_warm.timing.dialect, "ansi");
  ASSERT_EQ(ansi_cold.backend_sql.size(), 1u);

  auto sierra_cold = must_sierra(q1);
  auto sierra_warm = must_sierra(q2);
  EXPECT_EQ(sierra_cold.timing.cache_hits, 0);
  EXPECT_EQ(sierra_warm.timing.cache_hits, 1);
  EXPECT_EQ(sierra_warm.timing.dialect, "sierra");
  ASSERT_EQ(sierra_cold.backend_sql.size(), 1u);
  EXPECT_NE(sierra_cold.backend_sql[0], ansi_cold.backend_sql[0]);
  // Sierra's generator backtick-quotes every identifier.
  EXPECT_NE(sierra_cold.backend_sql[0].find('`'), std::string::npos)
      << sierra_cold.backend_sql[0];
  EXPECT_EQ(Rows(sierra_cold), Rows(ansi_cold));
  EXPECT_EQ(Rows(sierra_warm), Rows(ansi_warm));

  // The ansi service's entries are untouched by the sierra traffic.
  auto ansi_again = Must(q1);
  EXPECT_EQ(ansi_again.timing.cache_hits, 1);
  ASSERT_EQ(ansi_again.backend_sql.size(), 1u);
  EXPECT_EQ(ansi_again.backend_sql[0], ansi_cold.backend_sql[0]);
}

}  // namespace
}  // namespace hyperq
