// End-to-end translation pipeline tests built around the paper's running
// example (Example 2): Teradata SQL in, ANSI SQL out, executed on vdb.

#include <gtest/gtest.h>

#include "binder/binder.h"
#include "catalog/catalog.h"
#include "serializer/serializer.h"
#include "sql/parser.h"
#include "transform/transformer.h"
#include "vdb/engine.h"
#include "xtra/xtra.h"
#include "result_rows.h"

namespace hyperq {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TableDef sales;
    sales.name = "SALES";
    sales.columns = {{"AMOUNT", SqlType::Decimal(12, 2), true, {}},
                     {"SALES_DATE", SqlType::Date(), true, {}},
                     {"STORE", SqlType::Int(), true, {}},
                     {"PRODUCT_NAME", SqlType::Varchar(64), true, {}}};
    ASSERT_TRUE(catalog_.CreateTable(sales).ok());

    TableDef hist;
    hist.name = "SALES_HISTORY";
    hist.columns = {{"GROSS", SqlType::Decimal(12, 2), true, {}},
                    {"NET", SqlType::Decimal(12, 2), true, {}}};
    ASSERT_TRUE(catalog_.CreateTable(hist).ok());
  }

  // Full pipeline: parse SQL-A, bind, run both transformer stages for the
  // vdb profile, serialize to SQL-B.
  Result<std::string> Translate(const std::string& sql_a) {
    HQ_ASSIGN_OR_RETURN(
        sql::StatementPtr stmt,
        sql::ParseStatement(sql_a, sql::Dialect::Teradata()));
    binder::Binder binder(&catalog_, sql::Dialect::Teradata());
    HQ_ASSIGN_OR_RETURN(xtra::OpPtr plan, binder.BindStatement(*stmt));
    transform::Transformer xf(transform::BackendProfile::Vdb());
    binder::ColIdGenerator ids;
    for (int i = 0; i < 100000; ++i) ids.Next();  // avoid id collisions
    FeatureSet features = binder.features();
    HQ_RETURN_IF_ERROR(xf.Run(transform::Stage::kBinding, &plan, &ids,
                              &features, &catalog_));
    HQ_RETURN_IF_ERROR(xf.Run(transform::Stage::kSerialization, &plan, &ids,
                              &features, &catalog_));
    serializer::Serializer ser(transform::BackendProfile::Vdb());
    return ser.Serialize(*plan);
  }

  Catalog catalog_;
};

constexpr const char* kExample2 = R"(
SEL *
FROM SALES
WHERE
  SALES_DATE > 1140101
  AND (AMOUNT, AMOUNT * 0.85) >
      ANY (SEL GROSS, NET FROM SALES_HISTORY)
QUALIFY RANK(AMOUNT DESC) <= 10;
)";

TEST_F(PipelineTest, Example2Translates) {
  auto sql = Translate(kExample2);
  ASSERT_TRUE(sql.ok()) << sql.status();
  const std::string& out = *sql;
  // Shape of the paper's Example 3.
  EXPECT_NE(out.find("RANK() OVER (ORDER BY"), std::string::npos) << out;
  EXPECT_NE(out.find("EXISTS"), std::string::npos) << out;
  EXPECT_NE(out.find("EXTRACT(DAY FROM"), std::string::npos) << out;
  EXPECT_NE(out.find("* 10000"), std::string::npos) << out;
  // No Teradata-isms may survive.
  EXPECT_EQ(out.find("QUALIFY"), std::string::npos) << out;
  EXPECT_EQ(out.find("SEL *"), std::string::npos) << out;
}

TEST_F(PipelineTest, Example2ExecutesOnVdb) {
  vdb::Engine engine;
  ASSERT_TRUE(engine
                  .ExecuteScript(
                      "CREATE TABLE SALES (AMOUNT DECIMAL(12,2), SALES_DATE "
                      "DATE, STORE INTEGER, PRODUCT_NAME VARCHAR(64));"
                      "CREATE TABLE SALES_HISTORY (GROSS DECIMAL(12,2), NET "
                      "DECIMAL(12,2));"
                      "INSERT INTO SALES VALUES (100.00, DATE '2014-06-01', "
                      "1, 'widget');"
                      "INSERT INTO SALES VALUES (50.00, DATE '2014-06-02', "
                      "1, 'gadget');"
                      "INSERT INTO SALES VALUES (70.00, DATE '2013-01-01', "
                      "1, 'old');"
                      "INSERT INTO SALES_HISTORY VALUES (60.00, 40.00);")
                  .ok());
  auto sql = Translate(kExample2);
  ASSERT_TRUE(sql.ok()) << sql.status();
  auto result = engine.Execute(*sql);
  ASSERT_TRUE(result.ok()) << result.status() << "\nSQL: " << *sql;
  auto rows = ResultRows(*result);
  // Row 1 (100.00, date 2014) qualifies: date > 2014-01-01 and 100 > 60.
  // Row 2 (50.00) fails the subquery; row 3 fails the date filter.
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].ToString(), "100.00");
}

TEST_F(PipelineTest, QualifyWithWindowSum) {
  // Paper Example 1 shape: QUALIFY over SUM() OVER with lax clause order.
  auto sql = Translate(
      "SEL PRODUCT_NAME, SALES_DATE FROM SALES "
      "QUALIFY 10 < SUM(STORE) OVER (PARTITION BY PRODUCT_NAME) "
      "ORDER BY PRODUCT_NAME WHERE STORE > 0");
  ASSERT_TRUE(sql.ok()) << sql.status();
  EXPECT_NE(sql->find("SUM(") , std::string::npos) << *sql;
  EXPECT_NE(sql->find("PARTITION BY"), std::string::npos) << *sql;
}

TEST_F(PipelineTest, ChainedProjections) {
  auto sql = Translate(
      "SEL AMOUNT AS BASE, BASE + 100 AS OFFS FROM SALES");
  ASSERT_TRUE(sql.ok()) << sql.status();
  // BASE must be expanded to its definition in the second item.
  EXPECT_NE(sql->find("+ 100"), std::string::npos) << *sql;
}

TEST_F(PipelineTest, ImplicitJoinExpansion) {
  auto sql = Translate(
      "SEL SALES.AMOUNT FROM SALES WHERE SALES.AMOUNT > "
      "SALES_HISTORY.GROSS");
  ASSERT_TRUE(sql.ok()) << sql.status();
  EXPECT_NE(sql->find("SALES_HISTORY"), std::string::npos) << *sql;
  EXPECT_NE(sql->find("CROSS JOIN"), std::string::npos) << *sql;
}

TEST_F(PipelineTest, DateIntComparisonExpansion) {
  auto sql = Translate("SEL * FROM SALES WHERE SALES_DATE > 1140101");
  ASSERT_TRUE(sql.ok()) << sql.status();
  EXPECT_NE(sql->find("EXTRACT(YEAR FROM"), std::string::npos) << *sql;
  EXPECT_NE(sql->find("- 1900"), std::string::npos) << *sql;
}

TEST_F(PipelineTest, TopBecomesLimit) {
  auto sql = Translate("SEL TOP 5 AMOUNT FROM SALES ORDER BY AMOUNT DESC");
  ASSERT_TRUE(sql.ok()) << sql.status();
  EXPECT_NE(sql->find("LIMIT 5"), std::string::npos) << *sql;
}

}  // namespace
}  // namespace hyperq
