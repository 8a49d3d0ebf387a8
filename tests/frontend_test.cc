// Frontend module tests: the token-level Translation-class feature scanner
// and Figure-4-style AST dumps for constructs beyond the golden example.

#include <gtest/gtest.h>

#include "frontend/ast_printer.h"
#include "frontend/feature_scan.h"
#include "sql/parser.h"

namespace hyperq::frontend {
namespace {

FeatureSet Scan(const std::string& sql) {
  FeatureSet fs;
  auto tokens = sql::Tokenize(sql);
  EXPECT_TRUE(tokens.ok()) << tokens.status();
  if (tokens.ok()) {
    EXPECT_TRUE(ScanTranslationFeatures(*tokens, &fs).ok());
  }
  return fs;
}

TEST(FeatureScanTest, AbbreviationsOnlyAtStatementStart) {
  EXPECT_TRUE(Scan("SEL a FROM t").Has(Feature::kSelAbbrev));
  EXPECT_TRUE(Scan("x; INS INTO t VALUES (1)").Has(Feature::kInsAbbrev));
  EXPECT_TRUE(Scan("UPD t SET a = 1").Has(Feature::kUpdAbbrev));
  EXPECT_TRUE(Scan("DEL FROM t").Has(Feature::kDelAbbrev));
  // A column named SEL mid-statement is not the abbreviation.
  EXPECT_FALSE(Scan("SELECT sel FROM t").Has(Feature::kSelAbbrev));
  EXPECT_FALSE(Scan("SELECT a FROM t").Has(Feature::kSelAbbrev));
}

TEST(FeatureScanTest, FunctionRenamesNeedCallSyntax) {
  EXPECT_TRUE(Scan("SELECT CHARS(n) FROM t").Has(Feature::kBuiltinRename));
  EXPECT_TRUE(Scan("SELECT INDEX(n, 'x') FROM t")
                  .Has(Feature::kBuiltinRename));
  // A column merely named CHARS does not count.
  EXPECT_FALSE(Scan("SELECT chars FROM t").Has(Feature::kBuiltinRename));
  EXPECT_TRUE(Scan("SELECT ZEROIFNULL(a) FROM t").Has(Feature::kNullFuncs));
}

TEST(FeatureScanTest, TopAndCollectAndTxn) {
  EXPECT_TRUE(Scan("SELECT TOP 10 a FROM t").Has(Feature::kTopToLimit));
  EXPECT_FALSE(Scan("SELECT top FROM t").Has(Feature::kTopToLimit));
  EXPECT_TRUE(Scan("COLLECT STATISTICS ON t COLUMN a")
                  .Has(Feature::kStatsElimination));
  EXPECT_TRUE(Scan("BT").Has(Feature::kTxnShorthand));
  EXPECT_TRUE(Scan("SELECT 1; ET").Has(Feature::kTxnShorthand));
  EXPECT_FALSE(Scan("SELECT bt FROM t").Has(Feature::kTxnShorthand));
}

std::string Dump(const std::string& sql) {
  auto stmt = sql::ParseStatement(sql, sql::Dialect::Teradata());
  EXPECT_TRUE(stmt.ok()) << stmt.status();
  return stmt.ok() ? AstToTreeString(**stmt) : "";
}

TEST(AstPrinterTest, SelectListAndClauses) {
  std::string dump = Dump("SEL a AS x, b FROM t WHERE a > 1 GROUP BY b "
                          "HAVING COUNT(*) > 2");
  EXPECT_NE(dump.find("ansi_selectlist"), std::string::npos);
  EXPECT_NE(dump.find("ansi_as(X)"), std::string::npos);
  EXPECT_NE(dump.find("ansi_get(T)"), std::string::npos);
  EXPECT_NE(dump.find("ansi_groupby"), std::string::npos);
  EXPECT_NE(dump.find("ansi_having"), std::string::npos);
  EXPECT_NE(dump.find("ansi_func(COUNT)"), std::string::npos);
}

TEST(AstPrinterTest, VendorNodesAreTagged) {
  std::string dump =
      Dump("SEL TOP 3 a FROM t QUALIFY RANK(a DESC) <= 3");
  EXPECT_NE(dump.find("td_top(3)"), std::string::npos);
  EXPECT_NE(dump.find("td_qualify"), std::string::npos);
  EXPECT_NE(dump.find("td_rank(A, DESC)"), std::string::npos);
  EXPECT_NE(dump.find("td_ident(A)"), std::string::npos);
}

TEST(AstPrinterTest, RecursiveWithIsVendorTagged) {
  std::string dump = Dump(
      "WITH RECURSIVE r (n) AS (SEL a FROM t UNION ALL SEL n FROM r) "
      "SEL n FROM r");
  EXPECT_NE(dump.find("td_with_recursive"), std::string::npos);
  EXPECT_NE(dump.find("ansi_cte(R)"), std::string::npos);
  EXPECT_NE(dump.find("ansi_setop(UNION ALL)"), std::string::npos);
}

TEST(AstPrinterTest, JoinsAndDerivedTables) {
  std::string dump = Dump(
      "SEL x.a FROM (SEL a FROM t) x LEFT OUTER JOIN u ON x.a = u.a");
  EXPECT_NE(dump.find("ansi_join(LEFT)"), std::string::npos);
  EXPECT_NE(dump.find("ansi_derived(X)"), std::string::npos);
  EXPECT_NE(dump.find("ansi_cmp(EQ)"), std::string::npos);
}

TEST(AstPrinterTest, TrivialScanElision) {
  // SELECT * FROM single-table subqueries collapse to ansi_get (Figure 4
  // renders the paper's subquery as a bare get node).
  std::string dump =
      Dump("SEL a FROM t WHERE a IN (SEL * FROM u)");
  EXPECT_NE(dump.find("ansi_in"), std::string::npos);
  EXPECT_NE(dump.find("ansi_get(U)"), std::string::npos);
  EXPECT_EQ(dump.find("ansi_select\n| +-ansi_get(U)"), std::string::npos);
}

}  // namespace
}  // namespace hyperq::frontend
