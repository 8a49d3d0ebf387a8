// Additional service-layer coverage: script submission with single-row DML
// batching (paper §4.3), session-scoped volatile tables, CREATE TABLE AS,
// statistics aggregation, and error surfaces.

#include <gtest/gtest.h>

#include "service/hyperq_service.h"
#include "vdb/engine.h"

namespace hyperq {
namespace {

class ServiceExtraTest : public ::testing::Test {
 protected:
  void SetUp() override {
    service_ = std::make_unique<service::HyperQService>(&engine_);
    auto sid = service_->OpenSession("x");
    ASSERT_TRUE(sid.ok());
    sid_ = *sid;
  }

  service::QueryOutcome Must(const std::string& sql) {
    auto r = service_->Submit(sid_, sql);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status();
    return r.ok() ? std::move(r).value() : service::QueryOutcome{};
  }

  vdb::Engine engine_;
  std::unique_ptr<service::HyperQService> service_;
  uint32_t sid_ = 0;
};

TEST_F(ServiceExtraTest, ScriptBatchesSingleRowInserts) {
  Must("CREATE TABLE T (A INTEGER, B VARCHAR(8))");
  int64_t before = engine_.statements_executed();
  auto out = service_->SubmitScript({.session_id = sid_,
                                     .sql = "INS INTO T VALUES (1, 'a');"
                                            "INS INTO T VALUES (2, 'b');"
                                            "INS INTO T VALUES (3, 'c');"
                                            "SEL COUNT(*) FROM T;"});
  ASSERT_TRUE(out.ok()) << out.status();
  // The paper's §4.3 performance transformation: three contiguous
  // single-row INSERTs reach the target as ONE multi-row statement.
  EXPECT_EQ(engine_.statements_executed() - before, 2);
  auto rows = out->result.DecodeRows();
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[0][0].int_val(), 3);
}

TEST_F(ServiceExtraTest, ScriptBatchingStopsAtDifferentTables) {
  Must("CREATE TABLE T1 (A INTEGER)");
  Must("CREATE TABLE T2 (A INTEGER)");
  int64_t before = engine_.statements_executed();
  auto out = service_->SubmitScript({.session_id = sid_,
                                     .sql = "INS INTO T1 VALUES (1);"
                                            "INS INTO T2 VALUES (2);"
                                            "INS INTO T1 VALUES (3)"});
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(engine_.statements_executed() - before, 3);  // no merge
}

// Batching is an optimisation, not a semantic change: when a merged run of
// single-row INSERTs fails, the script leaves the rows and returns the
// error that unbatched execution would.
TEST_F(ServiceExtraTest, FailedInsertRunLeavesRowsOfUnbatchedScript) {
  Must("CREATE TABLE T (A INTEGER NOT NULL)");
  auto out = service_->SubmitScript({.session_id = sid_,
                                     .sql = "INS INTO T VALUES (1);"
                                            "INS INTO T VALUES (2);"
                                            "INS INTO T VALUES (NULL);"});
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().ToString().find("NULL"), std::string::npos)
      << out.status();
  auto rows = Must("SEL COUNT(*) FROM T").result.DecodeRows();
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[0][0].int_val(), 2);
}

TEST_F(ServiceExtraTest, VolatileTablesDropOnLogoff) {
  Must("CREATE VOLATILE TABLE SCRATCH (A INTEGER)");
  Must("INS INTO SCRATCH VALUES (1)");
  EXPECT_TRUE(engine_.storage()->HasTable("SCRATCH"));
  service_->CloseSession(sid_);
  EXPECT_FALSE(engine_.storage()->HasTable("SCRATCH"));
  EXPECT_FALSE(service_->catalog()->HasTable("SCRATCH"));
  // Session gone: further submits fail cleanly.
  EXPECT_FALSE(service_->Submit(sid_, "SEL 1").ok());
}

TEST_F(ServiceExtraTest, CreateTableAsSelect) {
  Must("CREATE TABLE SRC (A INTEGER, B VARCHAR(8))");
  Must("INS INTO SRC VALUES (1, 'x')");
  Must("INS INTO SRC VALUES (2, 'y')");
  auto out = Must("CREATE TABLE DST AS (SEL A, B FROM SRC WHERE A > 1) "
                  "WITH DATA");
  EXPECT_EQ(out.backend_sql.size(), 2u);  // CREATE + INSERT...SELECT
  auto rows = Must("SEL A FROM DST").result.DecodeRows();
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0].int_val(), 2);
  auto empty = Must("CREATE TABLE DST2 AS (SEL A FROM SRC) WITH NO DATA");
  EXPECT_EQ(Must("SEL COUNT(*) FROM DST2")
                .result.DecodeRows()
                ->at(0)[0]
                .int_val(),
            0);
}

// A data query the proxy cannot lower fails the CREATE TABLE AS before it
// creates anything: neither the catalog nor the target keeps the table.
TEST_F(ServiceExtraTest, CreateTableAsThatCannotLowerLeavesNoTable) {
  Must("CREATE TABLE EMP (EMPNO INTEGER, MGRNO INTEGER)");
  auto failed = service_->Submit(
      sid_,
      "CREATE TABLE REPORTS AS (WITH RECURSIVE R (EMPNO) AS "
      "(SELECT EMPNO FROM EMP WHERE MGRNO = 10 UNION ALL "
      "SELECT EMP.EMPNO FROM EMP, R WHERE R.EMPNO = EMP.MGRNO) "
      "SELECT EMPNO FROM R) WITH DATA");
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsNotSupported()) << failed.status();
  EXPECT_FALSE(service_->catalog()->HasTable("REPORTS"));
  EXPECT_FALSE(engine_.storage()->HasTable("REPORTS"));
  Must("CREATE TABLE REPORTS AS (SEL EMPNO FROM EMP) WITH DATA");
}

TEST_F(ServiceExtraTest, StatsAggregatePerQueryFeatures) {
  service_->ResetStats();
  Must("CREATE TABLE T (A INTEGER, D DATE)");
  Must("SEL TOP 1 A FROM T ORDER BY A");        // translation (TOP)
  Must("SEL A FROM T WHERE D > 1140101");        // transformation
  Must("HELP SESSION");                          // emulation
  Must("SEL A FROM T");                          // plain
  auto stats = service_->stats();
  EXPECT_EQ(stats.total_queries, 5);  // incl. the CREATE
  EXPECT_GT(stats.class_query_counts[0], 0);
  EXPECT_GT(stats.class_query_counts[1], 0);
  EXPECT_GT(stats.class_query_counts[2], 0);
}

TEST_F(ServiceExtraTest, ErrorSurfacesKeepSessionUsable) {
  EXPECT_FALSE(service_->Submit(sid_, "SEL FROM WHERE").ok());
  EXPECT_FALSE(service_->Submit(sid_, "SEL * FROM MISSING").ok());
  EXPECT_FALSE(service_->Submit(sid_, "EXEC NO_SUCH_MACRO").ok());
  // The session survives every failure.
  auto ok = service_->Submit(sid_, "SEL 1 + 1 AS X");
  EXPECT_TRUE(ok.ok()) << ok.status();
}

TEST_F(ServiceExtraTest, ColumnDefaultsFilledInMidTier) {
  Must("CREATE TABLE T (A INTEGER, D DATE DEFAULT CURRENT_DATE, N INTEGER "
       "DEFAULT 7)");
  auto out = Must("INS INTO T (A) VALUES (1)");
  EXPECT_TRUE(out.features.Has(Feature::kColumnProperties));
  auto rows = Must("SEL A, D, N FROM T").result.DecodeRows();
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_FALSE((*rows)[0][1].is_null());  // CURRENT_DATE evaluated mid-tier
  EXPECT_EQ((*rows)[0][2].int_val(), 7);
}

TEST_F(ServiceExtraTest, CaseInsensitiveColumnComparison) {
  Must("CREATE TABLE P (NAME VARCHAR(20) NOT CASESPECIFIC)");
  Must("INS INTO P VALUES ('Alice')");
  auto out = Must("SEL NAME FROM P WHERE NAME = 'ALICE'");
  EXPECT_TRUE(out.features.Has(Feature::kColumnProperties));
  auto rows = out.result.DecodeRows();
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);  // matched despite differing case
}

TEST_F(ServiceExtraTest, TranslationForwardsBtEtAsZeroStatements) {
  int64_t before = engine_.statements_executed();
  Must("BT");
  Must("ET");
  EXPECT_EQ(engine_.statements_executed(), before);
}

}  // namespace
}  // namespace hyperq
