// Golden tests for the paper's worked example (Example 2): AST dump
// (Figure 4), XTRA after binding + the comp_date_to_int transformation
// (Figure 5), final XTRA after vector_subq_to_exists (Figure 6), and the
// serialized SQL (Example 3).
//
// Whitespace/formatting is normalized relative to the paper (the original
// figures mix "arith (+)" and "arith(-)"); the structure is asserted 1:1.

#include <filesystem>

#include <gtest/gtest.h>

#include "binder/binder.h"
#include "frontend/ast_printer.h"
#include "golden_corpus.h"
#include "serializer/dialect.h"
#include "serializer/serializer.h"
#include "service/hyperq_service.h"
#include "sql/normalizer.h"
#include "sql/parser.h"
#include "transform/transformer.h"
#include "vdb/engine.h"
#include "xtra/xtra.h"

namespace hyperq {
namespace {

constexpr const char* kExample2 = R"(SEL *
FROM SALES
WHERE
  SALES_DATE > 1140101
  AND (AMOUNT, AMOUNT * 0.85) > ANY (SEL GROSS, NET FROM SALES_HISTORY)
QUALIFY RANK(AMOUNT DESC) <= 10)";

class GoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TableDef sales;
    sales.name = "SALES";
    sales.columns = {{"AMOUNT", SqlType::Decimal(12, 2), true, {}},
                     {"SALES_DATE", SqlType::Date(), true, {}}};
    ASSERT_TRUE(catalog_.CreateTable(sales).ok());
    TableDef hist;
    hist.name = "SALES_HISTORY";
    hist.columns = {{"GROSS", SqlType::Decimal(12, 2), true, {}},
                    {"NET", SqlType::Decimal(12, 2), true, {}}};
    ASSERT_TRUE(catalog_.CreateTable(hist).ok());
  }

  Result<xtra::OpPtr> BindExample2() {
    HQ_ASSIGN_OR_RETURN(
        sql::StatementPtr stmt,
        sql::ParseStatement(kExample2, sql::Dialect::Teradata()));
    binder::Binder binder(&catalog_, sql::Dialect::Teradata());
    return binder.BindStatement(*stmt);
  }

  Status RunStage(transform::Stage stage, xtra::OpPtr* plan) {
    transform::Transformer xf(transform::BackendProfile::Vdb());
    binder::ColIdGenerator ids;
    for (int i = 0; i < 100000; ++i) ids.Next();
    FeatureSet features;
    return xf.Run(stage, plan, &ids, &features, &catalog_);
  }

  Catalog catalog_;
};

// Figure 4: generated AST with mixed ansi_* / td_* nodes.
TEST_F(GoldenTest, Figure4Ast) {
  auto stmt = sql::ParseStatement(kExample2, sql::Dialect::Teradata());
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  std::string dump = frontend::AstToTreeString(**stmt);
  const char* kExpected =
      "+-td_qualify\n"
      "|-ansi_select\n"
      "| |-ansi_get(SALES)\n"
      "| +-ansi_boolexpr(AND)\n"
      "| |-ansi_cmp(GT)\n"
      "| | |-td_ident(SALES_DATE)\n"
      "| | +-ansi_const(1140101)\n"
      "| +-ansi_subq(ANY, GT, [GROSS, NET])\n"
      "| |-ansi_get(SALES_HISTORY)\n"
      "| +-ansi_list\n"
      "| |-td_ident(AMOUNT)\n"
      "| +-ansi_arith(*)\n"
      "| |-td_ident(AMOUNT)\n"
      "| +-ansi_const(0.85)\n"
      "+-ansi_cmp(LTE)\n"
      "|-td_rank(AMOUNT, DESC)\n"
      "+-ansi_const(10)\n";
  EXPECT_EQ(dump, kExpected);
}

// Figure 5: XTRA after binding and the binding-stage comp_date_to_int
// transformation — the DATE side expands to the Teradata integer encoding
// while the vector subquery is still a subq(ANY, GT, [GROSS, NET]) node.
TEST_F(GoldenTest, Figure5XtraAfterBinding) {
  auto plan = BindExample2();
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_TRUE(RunStage(transform::Stage::kBinding, &*plan).ok());
  std::string dump = xtra::ToTreeString(**plan);

  // Full-tree golden (Figure 5). The RANK output column carries a
  // generated name (W_5); everything else matches the paper verbatim.
  const char* kExpected =
      "+-select\n"
      "|-window(RANK, DESC, AMOUNT)\n"
      "| +-select\n"
      "| |-get(SALES)\n"
      "| +-boolexpr(AND)\n"
      "| |-comp(GT)\n"
      "| | |-arith(+)\n"
      "| | | |-extract(DAY, SALES_DATE)\n"
      "| | | |-arith(*)\n"
      "| | | | |-extract(MONTH, SALES_DATE)\n"
      "| | | | +-const(100)\n"
      "| | | +-arith(*)\n"
      "| | | |-arith(-)\n"
      "| | | | |-extract(YEAR, SALES_DATE)\n"
      "| | | | +-const(1900)\n"
      "| | | +-const(10000)\n"
      "| | +-const(1140101)\n"
      "| +-subq(ANY, GT, [GROSS, NET])\n"
      "| |-get(SALES_HISTORY)\n"
      "| +-list\n"
      "| |-ident(AMOUNT)\n"
      "| +-arith(*)\n"
      "| |-ident(AMOUNT)\n"
      "| +-const(0.85)\n"
      "+-comp(LTE)\n"
      "|-ident(W_5)\n"
      "+-const(10)\n";
  EXPECT_EQ(dump, kExpected);
}

// Figure 6: final XTRA — the quantified vector comparison became an
// existential correlated subquery with the "remap consts: (1)" projection.
TEST_F(GoldenTest, Figure6FinalXtra) {
  auto plan = BindExample2();
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_TRUE(RunStage(transform::Stage::kBinding, &*plan).ok());
  ASSERT_TRUE(RunStage(transform::Stage::kSerialization, &*plan).ok());
  std::string dump = xtra::ToTreeString(**plan);

  EXPECT_NE(dump.find(
                "+-subq(EXISTS)\n"
                "| +-select\n"
                "| |-remap consts: (1)\n"
                "| | +-get(SALES_HISTORY)\n"
                "| +-boolexpr(OR)\n"
                "| |-comp(GT)\n"
                "| | |-ident(AMOUNT)\n"
                "| | +-ident(GROSS)\n"
                "| +-boolexpr(AND)\n"
                "| |-comp(EQ)\n"
                "| | |-ident(AMOUNT)\n"
                "| | +-ident(GROSS)\n"
                "| +-comp(GT)\n"
                "| |-arith(*)\n"
                "| | |-ident(AMOUNT)\n"
                "| | +-const(0.85)\n"
                "| +-ident(NET)"),
            std::string::npos)
      << dump;
  // No quantified node survives.
  EXPECT_EQ(dump.find("subq(ANY"), std::string::npos) << dump;
}

// Example 3: the serialized target SQL.
TEST_F(GoldenTest, Example3SerializedSql) {
  auto plan = BindExample2();
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_TRUE(RunStage(transform::Stage::kBinding, &*plan).ok());
  ASSERT_TRUE(RunStage(transform::Stage::kSerialization, &*plan).ok());
  serializer::Serializer ser(transform::BackendProfile::Vdb());
  auto sql = ser.Serialize(**plan);
  ASSERT_TRUE(sql.ok()) << sql.status();
  // Example 3's load-bearing elements, order-checked.
  std::vector<std::string> expect_in_order = {
      "SELECT", "RANK() OVER (ORDER BY", "AMOUNT DESC",
      "EXTRACT(DAY FROM",  "EXTRACT(MONTH FROM", "* 100",
      "EXTRACT(YEAR FROM", "- 1900", "* 10000", "> 1140101",
      "EXISTS", "SELECT 1", "SALES_HISTORY", "OR", "0.85",
      "WHERE", "<= 10"};
  size_t pos = 0;
  for (const auto& token : expect_in_order) {
    size_t at = sql->find(token, pos);
    ASSERT_NE(at, std::string::npos) << token << " missing after " << pos
                                     << " in:\n" << *sql;
    pos = at;
  }
}

// Example 1 binds cleanly: lax clause order, QUALIFY over a windowed SUM,
// chained projections and the CHARS rename.
TEST_F(GoldenTest, Example1FullPipeline) {
  TableDef product;
  product.name = "PRODUCT";
  product.columns = {{"PRODUCT_NAME", SqlType::Varchar(30), true, {}},
                     {"SALES", SqlType::Decimal(12, 2), true, {}},
                     {"STORE", SqlType::Int(), true, {}}};
  ASSERT_TRUE(catalog_.CreateTable(product).ok());

  auto stmt = sql::ParseStatement(
      "SEL PRODUCT_NAME, SALES AS SALES_BASE, SALES_BASE + 100 AS "
      "SALES_OFFSET FROM PRODUCT QUALIFY 10 < SUM(SALES) OVER (PARTITION "
      "BY STORE) ORDER BY STORE, PRODUCT_NAME WHERE CHARS(PRODUCT_NAME) > 4",
      sql::Dialect::Teradata());
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  binder::Binder binder(&catalog_, sql::Dialect::Teradata());
  auto plan = binder.BindStatement(**stmt);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(binder.features().Has(Feature::kQualify));
  EXPECT_TRUE(binder.features().Has(Feature::kChainedProjections));
  EXPECT_TRUE(binder.features().Has(Feature::kBuiltinRename));

  ASSERT_TRUE(RunStage(transform::Stage::kBinding, &*plan).ok());
  ASSERT_TRUE(RunStage(transform::Stage::kSerialization, &*plan).ok());
  serializer::Serializer ser(transform::BackendProfile::Vdb());
  auto sql = ser.Serialize(**plan);
  ASSERT_TRUE(sql.ok()) << sql.status();
  EXPECT_NE(sql->find("LENGTH("), std::string::npos) << *sql;       // CHARS
  EXPECT_NE(sql->find("SUM(") , std::string::npos) << *sql;
  EXPECT_NE(sql->find("+ 100"), std::string::npos) << *sql;         // chained
  EXPECT_EQ(sql->find("QUALIFY"), std::string::npos) << *sql;
}

// ---------------------------------------------------------------------------
// File-driven translation-equivalence corpus (tests/golden/*.sql).
// ---------------------------------------------------------------------------

class GoldenCorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    service_ =
        std::make_unique<service::HyperQService>(&engine_);
    auto sid = service_->OpenSession("golden");
    ASSERT_TRUE(sid.ok()) << sid.status();
    sid_ = *sid;
    for (const std::string& stmt : golden::SchemaStatements()) {
      auto r = service_->Submit(sid_, stmt);
      ASSERT_TRUE(r.ok()) << stmt << "\n" << r.status();
    }
    cases_ = golden::LoadGoldenCases();
    ASSERT_GE(cases_.size(), 30u)
        << "corpus shrank below the required breadth";
  }

  vdb::Engine engine_;
  std::unique_ptr<service::HyperQService> service_;
  uint32_t sid_ = 0;
  std::vector<golden::GoldenCase> cases_;
};

// Every corpus statement translates, and the SQL-B matches the checked-in
// .expected file byte-for-byte. HQ_REGEN_GOLDEN=1 rewrites the files.
TEST_F(GoldenCorpusTest, TranslationsMatchExpected) {
  bool regen = golden::RegenRequested();
  for (const auto& c : cases_) {
    auto translated = service_->Translate(c.sql, nullptr);
    ASSERT_TRUE(translated.ok()) << c.name << "\n" << translated.status();
    std::string joined = golden::JoinTranslations(*translated);
    if (regen) {
      golden::WriteTextFile(c.expected_path, joined);
      continue;
    }
    ASSERT_FALSE(c.expected.empty())
        << c.name << ": missing " << c.expected_path
        << " (run with HQ_REGEN_GOLDEN=1 to create it)";
    EXPECT_EQ(joined, c.expected) << c.name;
  }
}

// Round-trip property: serialized SQL-B must re-parse under the target
// grammar — a translation the target cannot parse is a translation bug.
TEST_F(GoldenCorpusTest, SerializedSqlReparsesUnderTargetGrammar) {
  for (const auto& c : cases_) {
    auto translated = service_->Translate(c.sql, nullptr);
    ASSERT_TRUE(translated.ok()) << c.name << "\n" << translated.status();
    for (const std::string& sql_b : *translated) {
      if (sql_b.rfind("--", 0) == 0) continue;  // emulation marker
      auto reparsed = sql::ParseStatement(sql_b, sql::Dialect::Ansi());
      EXPECT_TRUE(reparsed.ok())
          << c.name << ": SQL-B does not re-parse under the ANSI grammar\n"
          << sql_b << "\n" << reparsed.status();
    }
  }
}

// A service over its own engine that serializes to `dialect`, with the
// corpus schema created through one open session.
struct CorpusService {
  explicit CorpusService(const std::string& dialect) {
    service::ServiceOptions options;
    options.profile = serializer::FindDialect(dialect)->Profile();
    service = std::make_unique<service::HyperQService>(&engine, options);
  }
  void LoadSchema() {
    auto opened = service->OpenSession("golden");
    ASSERT_TRUE(opened.ok()) << opened.status();
    sid = *opened;
    for (const std::string& stmt : golden::SchemaStatements()) {
      auto r = service->Submit(sid, stmt);
      ASSERT_TRUE(r.ok()) << stmt << "\n" << r.status();
    }
  }
  vdb::Engine engine;
  std::unique_ptr<service::HyperQService> service;
  uint32_t sid = 0;
};

bool IsRecursiveQuery(const std::string& sql_a) {
  auto stmt = sql::ParseStatement(sql_a, sql::Dialect::Teradata());
  return stmt.ok() && (*stmt)->kind == sql::StmtKind::kSelect &&
         (*stmt)->As<sql::SelectStatement>()->query->with_recursive;
}

// Per-dialect sub-corpora (DESIGN.md §12): every root corpus case also has
// a checked-in translation under tests/golden/<dialect>/ for each non-root
// SQL-B dialect, produced by a service running that dialect's profile.
// HQ_REGEN_GOLDEN=1 regenerates the sub-corpora together with the root.
TEST_F(GoldenCorpusTest, DialectSubCorporaMatchExpected) {
  bool regen = golden::RegenRequested();
  namespace fs = std::filesystem;
  for (const std::string& dialect : serializer::DialectNames()) {
    if (dialect == serializer::DefaultDialect().Name()) continue;
    CorpusService corpus(dialect);
    ASSERT_NO_FATAL_FAILURE(corpus.LoadSchema()) << dialect;
    std::string subdir = golden::GoldenDir() + "/" + dialect;
    if (regen) fs::create_directories(subdir);
    for (const auto& c : cases_) {
      auto translated = corpus.service->Translate(c.sql, nullptr);
      ASSERT_TRUE(translated.ok())
          << dialect << "/" << c.name << "\n" << translated.status();
      std::string joined = golden::JoinTranslations(*translated);
      std::string expected_path = subdir + "/" + c.name + ".expected";
      if (regen) {
        golden::WriteTextFile(expected_path, joined);
        continue;
      }
      std::string expected = golden::ReadTextFile(expected_path);
      ASSERT_FALSE(expected.empty())
          << dialect << "/" << c.name << ": missing " << expected_path
          << " (run with HQ_REGEN_GOLDEN=1 to create it)";
      EXPECT_EQ(joined, expected) << dialect << "/" << c.name;
    }
  }
}

// The sub-corpora must be genuinely dialect-specific: for each case at
// least one non-root dialect translation differs from the root .expected
// (all-identical files would mean the generators are not being exercised).
TEST_F(GoldenCorpusTest, DialectSubCorporaDivergeFromRoot) {
  if (golden::RegenRequested()) GTEST_SKIP() << "regen run";
  int diverging_cases = 0;
  for (const auto& c : cases_) {
    for (const std::string& dialect : serializer::DialectNames()) {
      if (dialect == serializer::DefaultDialect().Name()) continue;
      std::string expected = golden::ReadTextFile(
          golden::GoldenDir() + "/" + dialect + "/" + c.name + ".expected");
      if (!expected.empty() && expected != c.expected) {
        ++diverging_cases;
        break;
      }
    }
  }
  // Nearly every case contains an identifier, so the always-quoting
  // dialects must diverge almost everywhere.
  EXPECT_GE(diverging_cases, static_cast<int>(cases_.size()) - 2);
}

// Normalization property: normalize(normalize(q)) == normalize(q). The
// cache fingerprint must be a fixed point, or equal statements could land
// on different keys.
TEST_F(GoldenCorpusTest, NormalizationIsIdempotent) {
  for (const auto& c : cases_) {
    auto norm = sql::NormalizeStatement(c.sql);
    ASSERT_TRUE(norm.ok()) << c.name << "\n" << norm.status();
    auto again = sql::NormalizeStatement(norm->template_sql);
    ASSERT_TRUE(again.ok()) << c.name << "\n" << again.status();
    EXPECT_EQ(again->template_sql, norm->template_sql) << c.name;
    EXPECT_TRUE(again->literals.empty())
        << c.name << ": literals must not survive normalization";
  }
}

// A cache miss lexes SQL-A once and parses that token stream (DESIGN.md
// §7): for every corpus statement it yields the AST that parsing the text
// does.
TEST_F(GoldenCorpusTest, ParsingTheTokenStreamMatchesParsingTheText) {
  const sql::Dialect dialect = sql::Dialect::Teradata();
  for (const auto& c : cases_) {
    auto from_text = sql::ParseStatement(c.sql, dialect);
    ASSERT_TRUE(from_text.ok()) << c.name << "\n" << from_text.status();
    auto tokens = sql::Tokenize(c.sql);
    ASSERT_TRUE(tokens.ok()) << c.name << "\n" << tokens.status();
    auto from_tokens = sql::ParseStatement(c.sql, *tokens, dialect);
    ASSERT_TRUE(from_tokens.ok()) << c.name << "\n" << from_tokens.status();
    EXPECT_EQ(frontend::AstToTreeString(**from_tokens),
              frontend::AstToTreeString(**from_text))
        << c.name;
  }
}

// One translation path (DESIGN.md §7): Translate() returns exactly the
// SQL-B that Submit() sends, for every corpus case in every dialect. Each
// side runs on a fresh service, so neither reads a template the other
// cached. A recursive query is exempt by its kind: Submit emulates it
// through temp tables, Translate returns the emulation marker.
TEST_F(GoldenCorpusTest, TranslateReturnsWhatSubmitSendsInEveryDialect) {
  for (const std::string& dialect : serializer::DialectNames()) {
    for (const auto& c : cases_) {
      if (IsRecursiveQuery(c.sql)) continue;
      CorpusService translator(dialect);
      CorpusService submitter(dialect);
      ASSERT_NO_FATAL_FAILURE(translator.LoadSchema());
      ASSERT_NO_FATAL_FAILURE(submitter.LoadSchema());
      auto translated = translator.service->Translate(c.sql, nullptr);
      ASSERT_TRUE(translated.ok())
          << dialect << "/" << c.name << "\n" << translated.status();
      auto submitted = submitter.service->Submit(submitter.sid, c.sql);
      ASSERT_TRUE(submitted.ok())
          << dialect << "/" << c.name << "\n" << submitted.status();
      EXPECT_EQ(*translated, submitted->backend_sql)
          << dialect << "/" << c.name;
    }
  }
}

// Translate() admits its template under the key a default-settings session
// computes, so a later Submit of the same shape with other literals is
// served from that entry: it must be the template Submit would have built,
// with the PERIOD column expanded to its _BEGIN/_END pair.
TEST_F(GoldenCorpusTest, TranslatedPeriodInsertServesLaterSubmitFromCache) {
  auto translated = service_->Translate(
      "INS INTO PROMO (NAME, SPAN) VALUES ('SPRING', "
      "PERIOD(DATE '2014-03-01', DATE '2014-05-31'))",
      nullptr);
  ASSERT_TRUE(translated.ok()) << translated.status();
  auto submitted = service_->Submit(
      sid_,
      "INS INTO PROMO (NAME, SPAN) VALUES ('AUTUMN', "
      "PERIOD(DATE '2014-09-01', DATE '2014-11-30'))");
  ASSERT_TRUE(submitted.ok()) << submitted.status();
  EXPECT_EQ(submitted->timing.cache_hits, 1);
  ASSERT_EQ(submitted->backend_sql.size(), 1u);
  const std::string& sql_b = submitted->backend_sql[0];
  EXPECT_NE(sql_b.find("SPAN_BEGIN, SPAN_END"), std::string::npos) << sql_b;
  EXPECT_NE(sql_b.find("'AUTUMN'"), std::string::npos) << sql_b;
  EXPECT_NE(sql_b.find("2014-11-30"), std::string::npos) << sql_b;
}

}  // namespace
}  // namespace hyperq
