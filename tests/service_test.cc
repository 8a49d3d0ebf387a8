// Integration tests of the full virtualization stack: HyperQService over the
// library API and over the tdwp wire protocol.

#include <gtest/gtest.h>

#include "protocol/client.h"
#include "protocol/server.h"
#include "service/hyperq_service.h"
#include "vdb/engine.h"

namespace hyperq {
namespace {

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    service_ = std::make_unique<service::HyperQService>(&engine_);
    auto sid = service_->OpenSession("tester");
    ASSERT_TRUE(sid.ok());
    sid_ = *sid;
  }

  service::QueryOutcome Must(const std::string& sql) {
    auto r = service_->Submit(sid_, sql);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status();
    return r.ok() ? std::move(r).value() : service::QueryOutcome{};
  }

  std::vector<std::vector<Datum>> Rows(const service::QueryOutcome& o) {
    auto rows = o.result.DecodeRows();
    EXPECT_TRUE(rows.ok());
    return rows.ok() ? std::move(rows).value()
                     : std::vector<std::vector<Datum>>{};
  }

  vdb::Engine engine_;
  std::unique_ptr<service::HyperQService> service_;
  uint32_t sid_ = 0;
};

TEST_F(ServiceTest, DdlAndDmlRoundTrip) {
  Must("CREATE TABLE EMP (EMPNO INTEGER, MGRNO INTEGER)");
  auto ins = Must("INS INTO EMP VALUES (1, 7)");
  EXPECT_EQ(ins.result.affected_rows, 1);
  Must("INS INTO EMP VALUES (7, 8)");
  auto sel = Must("SEL * FROM EMP ORDER BY EMPNO");
  auto rows = Rows(sel);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].int_val(), 1);
  EXPECT_EQ(rows[1][0].int_val(), 7);
}

// Paper Example 4: recursive query over EMP(EMPNO, MGRNO) with the sample
// hierarchy {(e1,e7),(e7,e8),(e8,e10),(e9,e10),(e10,e11)}.
TEST_F(ServiceTest, Example4RecursiveQuery) {
  Must("CREATE TABLE EMP (EMPNO INTEGER, MGRNO INTEGER)");
  Must("INS INTO EMP VALUES (1, 7)");
  Must("INS INTO EMP VALUES (7, 8)");
  Must("INS INTO EMP VALUES (8, 10)");
  Must("INS INTO EMP VALUES (9, 10)");
  Must("INS INTO EMP VALUES (10, 11)");

  auto out = Must(R"(
    WITH RECURSIVE REPORTS (EMPNO, MGRNO) AS (
      SELECT EMPNO, MGRNO FROM EMP WHERE MGRNO = 10
      UNION ALL
      SELECT EMP.EMPNO, EMP.MGRNO
      FROM EMP, REPORTS
      WHERE REPORTS.EMPNO = EMP.MGRNO
    )
    SELECT EMPNO FROM REPORTS ORDER BY EMPNO)");
  EXPECT_TRUE(out.features.Has(Feature::kRecursiveQuery));
  auto rows = Rows(out);
  // All employees reporting directly or indirectly to e10: e8, e9, e7, e1.
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0][0].int_val(), 1);
  EXPECT_EQ(rows[1][0].int_val(), 7);
  EXPECT_EQ(rows[2][0].int_val(), 8);
  EXPECT_EQ(rows[3][0].int_val(), 9);
}

TEST_F(ServiceTest, MacroCreateAndExec) {
  Must("CREATE TABLE SALES (REGION VARCHAR(16), AMOUNT INTEGER)");
  Must("INS INTO SALES VALUES ('east', 10)");
  Must("INS INTO SALES VALUES ('west', 20)");
  Must("CREATE MACRO REGION_TOTAL (R VARCHAR(16)) AS "
       "(SEL SUM(AMOUNT) AS TOTAL FROM SALES WHERE REGION = :R;)");
  auto out = Must("EXEC REGION_TOTAL('west')");
  EXPECT_TRUE(out.features.Has(Feature::kMacros));
  auto rows = Rows(out);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].int_val(), 20);
}

TEST_F(ServiceTest, MergeEmulation) {
  Must("CREATE TABLE TGT (K INTEGER, V INTEGER)");
  Must("CREATE TABLE SRC (K INTEGER, V INTEGER)");
  Must("INS INTO TGT VALUES (1, 100)");
  Must("INS INTO SRC VALUES (1, 111)");
  Must("INS INTO SRC VALUES (2, 222)");
  auto out = Must(
      "MERGE INTO TGT USING SRC S ON TGT.K = S.K "
      "WHEN MATCHED THEN UPDATE SET V = S.V "
      "WHEN NOT MATCHED THEN INSERT (K, V) VALUES (S.K, S.V)");
  EXPECT_TRUE(out.features.Has(Feature::kMerge));
  auto sel = Must("SEL K, V FROM TGT ORDER BY K");
  auto rows = Rows(sel);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1].int_val(), 111);  // matched -> updated
  EXPECT_EQ(rows[1][1].int_val(), 222);  // not matched -> inserted
}

TEST_F(ServiceTest, HelpSessionAnsweredLocally) {
  auto out = Must("HELP SESSION");
  EXPECT_TRUE(out.features.Has(Feature::kSessionCommands));
  EXPECT_TRUE(out.backend_sql.empty());  // zero statements hit the target
  auto rows = Rows(out);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].string_val(), "tester");
}

TEST_F(ServiceTest, DmlOnViewRewritesToBaseTable) {
  Must("CREATE TABLE ORDERS (ID INTEGER, STATE VARCHAR(8))");
  Must("INS INTO ORDERS VALUES (1, 'open')");
  Must("CREATE VIEW OPEN_ORDERS AS SELECT ID, STATE FROM ORDERS");
  auto out = Must("UPD OPEN_ORDERS SET STATE = 'done' WHERE ID = 1");
  EXPECT_TRUE(out.features.Has(Feature::kDmlOnViews));
  auto sel = Must("SEL STATE FROM ORDERS");
  EXPECT_EQ(Rows(sel)[0][0].string_val(), "done");
}

TEST_F(ServiceTest, CollectStatsTranslatesToZeroStatements) {
  Must("CREATE TABLE T1 (A INTEGER)");
  auto out = Must("COLLECT STATISTICS ON T1 COLUMN A");
  EXPECT_TRUE(out.features.Has(Feature::kStatsElimination));
  EXPECT_TRUE(out.backend_sql.empty());
}

TEST_F(ServiceTest, SetTableRejectsDuplicates) {
  Must("CREATE SET TABLE UNIQ (A INTEGER, B INTEGER)");
  Must("INS INTO UNIQ VALUES (1, 1)");
  auto out = Must("INS INTO UNIQ VALUES (1, 1)");  // silently dropped
  EXPECT_TRUE(out.features.Has(Feature::kSetSemantics));
  auto sel = Must("SEL * FROM UNIQ");
  EXPECT_EQ(Rows(sel).size(), 1u);
}

TEST_F(ServiceTest, PeriodTypeEmulation) {
  Must("CREATE TABLE PROMO (NAME VARCHAR(16), SPAN PERIOD(DATE))");
  Must("INS INTO PROMO VALUES ('summer', "
       "PERIOD(DATE '2014-06-01', DATE '2014-09-01'))");
  auto out = Must(
      "SEL NAME FROM PROMO WHERE BEGIN(SPAN) < DATE '2014-07-01'");
  EXPECT_TRUE(out.features.Has(Feature::kPeriodType));
  auto rows = Rows(out);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].string_val(), "summer");
}

TEST_F(ServiceTest, WireProtocolRoundTrip) {
  Must("CREATE TABLE WIRE_T (A INTEGER, B VARCHAR(8), D DATE)");
  Must("INS INTO WIRE_T VALUES (42, 'hello', DATE '2014-01-01')");

  protocol::TdwpServer server(service_.get());
  ASSERT_TRUE(server.Start(0).ok());

  protocol::TdwpClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  ASSERT_TRUE(client.Logon("appuser", "secret").ok());
  auto result = client.Run("SEL A, B, D FROM WIRE_T");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].int_val(), 42);
  EXPECT_EQ(result->rows[0][1].string_val(), "hello");
  // The DATE travelled in the Teradata integer encoding and decoded back.
  EXPECT_EQ(result->rows[0][2].ToString(), "2014-01-01");
  EXPECT_GT(result->translation_micros, 0);
  client.Goodbye();
  server.Stop();
}

// --- Lifecycle counters (DESIGN.md §8) --------------------------------------

TEST(ServiceLifecycleStatsTest, StartAtZeroAndClassifyDeadlines) {
  vdb::Engine engine;
  service::ServiceOptions options;
  // Expires before the first batch boundary check; no faults needed.
  options.default_query_deadline_ms = 0.001;
  service::HyperQService service(&engine, options);
  auto sid = service.OpenSession("ops");
  ASSERT_TRUE(sid.ok());

  auto zero = service.StatsSnapshot().lifecycle;
  EXPECT_EQ(zero.cancelled, 0);
  EXPECT_EQ(zero.deadline_expired, 0);
  EXPECT_EQ(zero.client_gone, 0);
  EXPECT_EQ(zero.killed, 0);
  EXPECT_EQ(zero.spill_bytes, 0);
  EXPECT_EQ(zero.shed_queries, 0);

  auto expired = service.Submit(*sid, "SEL 1");
  ASSERT_FALSE(expired.ok());
  EXPECT_TRUE(expired.status().IsDeadlineExceeded()) << expired.status();
  auto stats = service.StatsSnapshot().lifecycle;
  EXPECT_EQ(stats.deadline_expired, 1);
  EXPECT_EQ(stats.cancelled, 0);
}

TEST(ServiceLifecycleStatsTest, SpillAndShedAccountingFlowThrough) {
  // A governor with almost no memory forces every result batch to spill.
  auto gov = std::make_shared<ResourceGovernor>(
      ResourceGovernorOptions{.global_memory_bytes = 64});
  vdb::Engine engine;
  service::ServiceOptions options;
  options.connector.batch_rows = 4;
  options.governor = gov;
  service::HyperQService service(&engine, options);
  auto sid = service.OpenSession("ops");
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(service.Submit(*sid, "CREATE TABLE LS (A INTEGER)").ok());
  std::string script;
  for (int i = 0; i < 40; ++i) {
    script += "INS INTO LS VALUES (" + std::to_string(i) + ");";
  }
  ASSERT_TRUE(service.SubmitScript({.session_id = *sid, .sql = script}).ok());

  auto spilled = service.Submit(*sid, "SEL * FROM LS");
  ASSERT_TRUE(spilled.ok()) << spilled.status();
  EXPECT_GT(spilled->timing.spill_bytes, 0);
  EXPECT_GT(service.StatsSnapshot().lifecycle.spill_bytes, 0);
  EXPECT_EQ(service.StatsSnapshot().lifecycle.shed_queries, 0);

  // Now also deny spill: the query is shed with a typed error and counted.
  auto strict = std::make_shared<ResourceGovernor>(ResourceGovernorOptions{
      .global_memory_bytes = 64, .spill_disk_bytes = 64});
  service::ServiceOptions strict_options;
  strict_options.connector.batch_rows = 4;
  strict_options.governor = strict;
  service::HyperQService strict_service(&engine, strict_options);
  auto sid2 = strict_service.OpenSession("ops");
  ASSERT_TRUE(sid2.ok());
  ASSERT_TRUE(strict_service.Submit(*sid2, "CREATE TABLE LS2 (A INTEGER)")
                  .ok());
  std::string script2;
  for (int i = 0; i < 40; ++i) {
    script2 += "INS INTO LS2 VALUES (" + std::to_string(i) + ");";
  }
  ASSERT_TRUE(
      strict_service.SubmitScript({.session_id = *sid2, .sql = script2}).ok());
  auto shed = strict_service.Submit(*sid2, "SEL * FROM LS2");
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsResourceExhausted()) << shed.status();
  EXPECT_EQ(strict_service.StatsSnapshot().lifecycle.shed_queries, 1);
}

}  // namespace
}  // namespace hyperq
