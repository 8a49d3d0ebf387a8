// Serializer tests: SQL-B synthesis details, quoting, literals, and the
// capability guard errors for constructs that must not reach it.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "binder/binder.h"
#include "serializer/dialect.h"
#include "serializer/serializer.h"
#include "sql/parser.h"
#include "types/date.h"
#include "transform/transformer.h"
#include "vdb/engine.h"
#include "result_rows.h"

namespace hyperq::serializer {
namespace {

class SerializerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TableDef t;
    t.name = "T";
    t.columns = {{"A", SqlType::Int(), true, {}},
                 {"B", SqlType::Varchar(20), true, {}},
                 {"D", SqlType::Date(), true, {}},
                 {"P", SqlType::PeriodDate(), true, {}}};
    ASSERT_TRUE(catalog_.CreateTable(t).ok());
  }

  // Bind only (no transformations) — tests the serializer's raw behaviour.
  Result<std::string> SerializeRaw(const std::string& sql,
                                   transform::BackendProfile profile =
                                       transform::BackendProfile::Vdb()) {
    HQ_ASSIGN_OR_RETURN(sql::StatementPtr stmt,
                        sql::ParseStatement(sql, sql::Dialect::Teradata()));
    binder::Binder binder(&catalog_, sql::Dialect::Teradata());
    HQ_ASSIGN_OR_RETURN(xtra::OpPtr plan, binder.BindStatement(*stmt));
    Serializer ser(profile);
    return ser.Serialize(*plan);
  }

  // Full translate + re-execute on vdb to prove emitted SQL re-parses.
  void RoundTripsThroughVdb(const std::string& sql_b) {
    vdb::Engine engine;
    ASSERT_TRUE(engine
                    .ExecuteScript(
                        "CREATE TABLE T (A INTEGER, B VARCHAR(20), D DATE, "
                        "P_BEGIN DATE, P_END DATE)")
                    .ok());
    auto r = engine.Execute(sql_b);
    EXPECT_TRUE(r.ok()) << sql_b << "\n" << r.status();
  }

  Catalog catalog_;
};

TEST_F(SerializerTest, LiteralRendering) {
  auto sql = SerializeRaw(
      "SEL A FROM T WHERE B = 'it''s' AND D = DATE '2014-01-01' AND A = "
      "-5 AND B IS NULL");
  ASSERT_TRUE(sql.ok()) << sql.status();
  EXPECT_NE(sql->find("'it''s'"), std::string::npos);
  EXPECT_NE(sql->find("DATE '2014-01-01'"), std::string::npos);
  EXPECT_NE(sql->find("IS NULL"), std::string::npos);
  RoundTripsThroughVdb(*sql);
}

// Literal provenance: every constant the parser built from a SQL-A literal
// token reports where it landed in SQL-B, keyed by the token's offset; a
// folded constant (the negated 7) reports nothing. Asking for sites never
// changes the text.
TEST_F(SerializerTest, ReportsSitesOfTaggedLiterals) {
  const std::string sql =
      "SEL A FROM T WHERE A BETWEEN 5 AND 5 AND B = 'x' AND A <> -7";
  auto stmt = sql::ParseStatement(sql, sql::Dialect::Teradata());
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  binder::Binder binder(&catalog_, sql::Dialect::Teradata());
  auto plan = binder.BindStatement(**stmt);
  ASSERT_TRUE(plan.ok()) << plan.status();
  Serializer ser(transform::BackendProfile::Vdb());
  std::vector<LiteralSite> sites;
  auto marked = ser.Serialize(**plan, &sites);
  auto plain = ser.Serialize(**plan);
  ASSERT_TRUE(marked.ok()) << marked.status();
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_EQ(*marked, *plain);

  size_t first_five = sql.find("5 AND 5");
  std::vector<std::pair<int, std::string>> expected = {
      {static_cast<int>(first_five), "5"},
      {static_cast<int>(first_five + 6), "5"},
      {static_cast<int>(sql.find("'x'")), "'x'"}};
  ASSERT_EQ(sites.size(), expected.size()) << *plain;
  for (size_t i = 0; i < sites.size(); ++i) {
    EXPECT_EQ(sites[i].literal_offset, expected[i].first) << i;
    EXPECT_EQ(plain->substr(sites[i].begin, sites[i].end - sites[i].begin),
              expected[i].second)
        << i;
  }
}

// Text that carries a marker byte of its own — a constant, or a catalog
// name that never passed through SQL-A (here one shaped like a marker) —
// cannot be told apart from a marker: no sites, and the text is exact.
TEST_F(SerializerTest, MarkerBytesInRenderedTextYieldNoSites) {
  const std::string forged = std::string("X\x01") + "0\x01Y\x02";
  TableDef w;
  w.name = "W";
  w.columns = {{"A", SqlType::Int(), true, {}},
               {forged, SqlType::Int(), true, {}}};
  ASSERT_TRUE(catalog_.CreateTable(w).ok());
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"SEL A FROM T WHERE B = 'a\x01" "b' AND A = 5", "'a\x01" "b'"},
      {"SEL * FROM W WHERE A = 5", forged}};
  Serializer ser(transform::BackendProfile::Vdb());
  for (const auto& [sql, raw] : cases) {
    auto stmt = sql::ParseStatement(sql, sql::Dialect::Teradata());
    ASSERT_TRUE(stmt.ok()) << stmt.status();
    binder::Binder binder(&catalog_, sql::Dialect::Teradata());
    auto plan = binder.BindStatement(**stmt);
    ASSERT_TRUE(plan.ok()) << plan.status();
    std::vector<LiteralSite> sites;
    auto marked = ser.Serialize(**plan, &sites);
    auto plain = ser.Serialize(**plan);
    ASSERT_TRUE(marked.ok()) << marked.status();
    ASSERT_TRUE(plain.ok()) << plain.status();
    EXPECT_EQ(*marked, *plain);
    EXPECT_NE(plain->find(raw), std::string::npos) << *plain;
    EXPECT_TRUE(sites.empty()) << sql;
  }
}

TEST_F(SerializerTest, FloatLiteralStaysFloat) {
  auto sql = SerializeRaw("SEL A FROM T WHERE A > 2e0");
  ASSERT_TRUE(sql.ok());
  // Must re-parse as a double, not an integer.
  EXPECT_NE(sql->find("2.0"), std::string::npos) << *sql;
}

TEST_F(SerializerTest, AliasesAreUniqueAndDeterministic) {
  auto a = SerializeRaw("SEL x.A FROM (SEL A FROM T) x, (SEL A FROM T) y");
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_NE(a->find("T1"), std::string::npos);
  EXPECT_NE(a->find("T2"), std::string::npos);
  auto b = SerializeRaw("SEL x.A FROM (SEL A FROM T) x, (SEL A FROM T) y");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);  // deterministic output
}

TEST_F(SerializerTest, QuotesNonSimpleIdentifiers) {
  TableDef weird;
  weird.name = "Weird Name";
  weird.columns = {{"Spaced Col", SqlType::Int(), true, {}}};
  ASSERT_TRUE(catalog_.CreateTable(weird).ok());
  auto sql = SerializeRaw("SEL \"Spaced Col\" FROM \"Weird Name\"");
  ASSERT_TRUE(sql.ok()) << sql.status();
  // Table names are normalized to upper case by the catalog.
  EXPECT_NE(sql->find("\"WEIRD NAME\""), std::string::npos) << *sql;
  EXPECT_NE(sql->find("\"Spaced Col\""), std::string::npos) << *sql;
}

TEST_F(SerializerTest, RecursionMustBeEmulated) {
  auto sql = SerializeRaw(
      "WITH RECURSIVE R (N) AS (SEL A FROM T UNION ALL SEL N FROM R WHERE "
      "N < 3) SEL N FROM R");
  ASSERT_FALSE(sql.ok());
  EXPECT_TRUE(sql.status().IsNotSupported());
  EXPECT_NE(sql.status().message().find("emulation"), std::string::npos);
}

TEST_F(SerializerTest, VectorSubqueryGuard) {
  // Without the transformer, a vector subquery must not silently serialize
  // for a target that cannot run it.
  auto sql = SerializeRaw(
      "SEL A FROM T WHERE (A, A) > ANY (SEL A, A FROM T)");
  ASSERT_FALSE(sql.ok());
  EXPECT_TRUE(sql.status().IsNotSupported());
}

TEST_F(SerializerTest, GroupingSetsGuard) {
  auto sql = SerializeRaw("SEL A, COUNT(*) FROM T GROUP BY ROLLUP(A)");
  ASSERT_FALSE(sql.ok());
  EXPECT_TRUE(sql.status().IsNotSupported());
}

TEST_F(SerializerTest, PeriodColumnsRequireAccessors) {
  auto bare = SerializeRaw("SEL P FROM T");
  ASSERT_FALSE(bare.ok());
  EXPECT_TRUE(bare.status().IsNotSupported());
  auto accessors = SerializeRaw(
      "SEL A FROM T WHERE BEGIN(P) > DATE '2014-01-01' AND END(P) < DATE "
      "'2015-01-01'");
  ASSERT_TRUE(accessors.ok()) << accessors.status();
  EXPECT_NE(accessors->find("P_BEGIN"), std::string::npos) << *accessors;
  EXPECT_NE(accessors->find("P_END"), std::string::npos) << *accessors;
  RoundTripsThroughVdb(*accessors);
}

TEST_F(SerializerTest, DmlForms) {
  auto ins = SerializeRaw("INS INTO T (A, B) VALUES (1, 'x'), (2, 'y')");
  ASSERT_TRUE(ins.ok());
  EXPECT_EQ(ins->find("SELECT"), std::string::npos);
  EXPECT_NE(ins->find("VALUES (1, 'x'), (2, 'y')"), std::string::npos);

  auto upd = SerializeRaw("UPD T SET A = A + 1 WHERE B = 'x'");
  ASSERT_TRUE(upd.ok());
  EXPECT_NE(upd->find("UPDATE T SET A ="), std::string::npos) << *upd;

  auto del = SerializeRaw("DEL FROM T");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(*del, "DELETE FROM T");
}

TEST_F(SerializerTest, UpdateCorrelatedSubqueryQualifiesTarget) {
  TableDef s;
  s.name = "S";
  s.columns = {{"A", SqlType::Int(), true, {}},
               {"V", SqlType::Int(), true, {}}};
  ASSERT_TRUE(catalog_.CreateTable(s).ok());
  auto upd = SerializeRaw(
      "UPD T SET A = 0 WHERE EXISTS (SEL 1 FROM S WHERE S.A = T.A)");
  ASSERT_TRUE(upd.ok()) << upd.status();
  // The outer reference must be target-qualified inside the subquery.
  EXPECT_NE(upd->find("= T.A"), std::string::npos) << *upd;
}

TEST_F(SerializerTest, FromlessSelect) {
  auto sql = SerializeRaw("SEL 1 + 1 AS two");
  ASSERT_TRUE(sql.ok()) << sql.status();
  EXPECT_EQ(sql->find("FROM"), std::string::npos) << *sql;
  vdb::Engine engine;
  auto r = engine.Execute(*sql);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ResultRows(*r)[0][0].int_val(), 2);
}

TEST_F(SerializerTest, WindowSpecRendering) {
  auto sql = SerializeRaw(
      "SEL A, SUM(A) OVER (PARTITION BY B ORDER BY D DESC) FROM T");
  ASSERT_TRUE(sql.ok()) << sql.status();
  EXPECT_NE(sql->find("SUM(T.A) OVER (PARTITION BY T.B ORDER BY T.D DESC)"),
            std::string::npos)
      << *sql;
}

// ---------------------------------------------------------------------------
// Pluggable dialect generators (DESIGN.md §12)
// ---------------------------------------------------------------------------

TEST(DialectRegistryTest, ThreeDialectsRegisteredAndResolvable) {
  auto names = DialectNames();
  ASSERT_GE(names.size(), 3u);
  for (const auto& n : {"ansi", "sierra", "granite"}) {
    const SQLDialectGenerator* gen = FindDialect(n);
    ASSERT_NE(gen, nullptr) << n;
    EXPECT_EQ(gen->Name(), n);
    EXPECT_EQ(gen->Profile().dialect, n);
  }
  EXPECT_EQ(FindDialect("no-such"), nullptr);
  EXPECT_EQ(DefaultDialect().Name(), "ansi");
}

TEST(DialectRegistryTest, CapabilityMatricesDiverge) {
  const auto& ansi = FindDialect("ansi")->Profile();
  const auto& sierra = FindDialect("sierra")->Profile();
  const auto& granite = FindDialect("granite")->Profile();
  // Sierra loses quantified subqueries (the EXISTS rewrites must fire);
  // granite gains native date arithmetic and NULLs-sort-low semantics.
  EXPECT_TRUE(ansi.supports_quantified_subquery);
  EXPECT_FALSE(sierra.supports_quantified_subquery);
  EXPECT_TRUE(granite.supports_quantified_subquery);
  EXPECT_FALSE(ansi.supports_date_arithmetic);
  EXPECT_TRUE(granite.supports_date_arithmetic);
  EXPECT_FALSE(ansi.nulls_sort_low);
  EXPECT_TRUE(granite.nulls_sort_low);
  // Three pairwise-distinct cache digests.
  EXPECT_NE(ansi.CacheKeyDigest(), sierra.CacheKeyDigest());
  EXPECT_NE(ansi.CacheKeyDigest(), granite.CacheKeyDigest());
  EXPECT_NE(sierra.CacheKeyDigest(), granite.CacheKeyDigest());
}

TEST(DialectGeneratorTest, IdentifierQuotingDiverges) {
  const auto& ansi = *FindDialect("ansi");
  const auto& sierra = *FindDialect("sierra");
  const auto& granite = *FindDialect("granite");
  // Simple identifier: ansi leaves it bare, the others always quote.
  EXPECT_EQ(ansi.QuoteIdent("SALES"), "SALES");
  EXPECT_EQ(sierra.QuoteIdent("SALES"), "`SALES`");
  EXPECT_EQ(granite.QuoteIdent("SALES"), "\"SALES\"");
  // Non-simple identifier: everyone quotes, each in its own style.
  EXPECT_EQ(ansi.QuoteIdent("ORDER TOTAL"), "\"ORDER TOTAL\"");
  EXPECT_EQ(sierra.QuoteIdent("ORDER TOTAL"), "`ORDER TOTAL`");
  EXPECT_EQ(granite.QuoteIdent("ORDER TOTAL"), "\"ORDER TOTAL\"");
}

TEST(DialectGeneratorTest, TemporalLiteralSyntaxDiverges) {
  Datum d = Datum::Date(DaysFromCivil(2024, 3, 15));
  EXPECT_EQ(FindDialect("ansi")->RenderLiteral(d), "DATE '2024-03-15'");
  EXPECT_EQ(FindDialect("sierra")->RenderLiteral(d),
            "CAST('2024-03-15' AS DATE)");
  EXPECT_EQ(FindDialect("granite")->RenderLiteral(d),
            "TO_DATE('2024-03-15')");
}

TEST(DialectGeneratorTest, SetOpAndRowLimitSyntaxDiverges) {
  const auto& ansi = *FindDialect("ansi");
  const auto& sierra = *FindDialect("sierra");
  const auto& granite = *FindDialect("granite");
  EXPECT_EQ(ansi.SetOpKeyword(xtra::SetOpKind::kExcept), " EXCEPT ");
  EXPECT_EQ(sierra.SetOpKeyword(xtra::SetOpKind::kExcept),
            " EXCEPT DISTINCT ");
  EXPECT_EQ(granite.SetOpKeyword(xtra::SetOpKind::kExcept), " MINUS ");
  EXPECT_EQ(ansi.RowLimitClause(7), " LIMIT 7");
  EXPECT_EQ(granite.RowLimitClause(7), " FETCH FIRST 7 ROWS ONLY");
}

TEST(DialectSerializerTest, SerializerRendersUnderEachDialect) {
  Catalog catalog;
  TableDef t;
  t.name = "T";
  t.columns = {{"A", SqlType::Int(), true, {}},
               {"D", SqlType::Date(), true, {}}};
  ASSERT_TRUE(catalog.CreateTable(t).ok());
  auto serialize = [&](const std::string& dialect) {
    auto stmt = sql::ParseStatement("SEL A FROM T WHERE D = DATE '2024-03-15'",
                                    sql::Dialect::Teradata());
    EXPECT_TRUE(stmt.ok()) << stmt.status();
    binder::Binder binder(&catalog, sql::Dialect::Teradata());
    auto plan = binder.BindStatement(**stmt);
    EXPECT_TRUE(plan.ok()) << plan.status();
    Serializer ser(FindDialect(dialect)->Profile());
    auto sql_b = ser.Serialize(**plan);
    EXPECT_TRUE(sql_b.ok()) << sql_b.status();
    return sql_b.ok() ? *sql_b : std::string();
  };
  std::string ansi = serialize("ansi");
  std::string sierra = serialize("sierra");
  std::string granite = serialize("granite");
  EXPECT_NE(ansi.find("DATE '2024-03-15'"), std::string::npos) << ansi;
  EXPECT_NE(sierra.find("CAST('2024-03-15' AS DATE)"), std::string::npos)
      << sierra;
  EXPECT_NE(sierra.find("`T`"), std::string::npos) << sierra;
  EXPECT_NE(granite.find("TO_DATE('2024-03-15')"), std::string::npos)
      << granite;
  EXPECT_NE(granite.find("\"T\""), std::string::npos) << granite;
  // All three are distinct texts of the same statement.
  EXPECT_NE(ansi, sierra);
  EXPECT_NE(ansi, granite);
  EXPECT_NE(sierra, granite);
}

}  // namespace
}  // namespace hyperq::serializer
