// vdb plan-optimizer tests: predicate pushdown, join ordering, OR
// factoring — asserted through end-to-end results and plan shapes.

#include <gtest/gtest.h>

#include "binder/binder.h"
#include "vdb/optimizer.h"
#include "vdb/engine.h"
#include "result_rows.h"

namespace hyperq::vdb {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_
                    .ExecuteScript(
                        "CREATE TABLE A (K INTEGER, AV INTEGER);"
                        "CREATE TABLE B (K INTEGER, BV INTEGER);"
                        "CREATE TABLE C (K INTEGER, CV INTEGER);"
                        "INSERT INTO A VALUES (1, 10), (2, 20), (3, 30);"
                        "INSERT INTO B VALUES (1, 100), (2, 200);"
                        "INSERT INTO C VALUES (2, 1000), (3, 3000);")
                    .ok());
  }

  // Binds with the engine's catalog and runs the optimizer; returns the
  // optimized plan for shape inspection.
  Result<xtra::OpPtr> Optimize(const std::string& sql) {
    HQ_ASSIGN_OR_RETURN(sql::StatementPtr stmt,
                        sql::ParseStatement(sql, sql::Dialect::Ansi()));
    binder::Binder binder(&engine_.catalog(), sql::Dialect::Ansi());
    HQ_ASSIGN_OR_RETURN(xtra::OpPtr plan, binder.BindStatement(*stmt));
    OptimizePlan(&plan);
    return plan;
  }

  static int CountKind(const xtra::Op& op, xtra::OpKind kind) {
    int n = op.kind == kind ? 1 : 0;
    for (const auto& c : op.children) n += CountKind(*c, kind);
    return n;
  }
  static bool HasCrossJoin(const xtra::Op& op) {
    if (op.kind == xtra::OpKind::kJoin &&
        op.join_kind == xtra::JoinKind::kCross) {
      return true;
    }
    for (const auto& c : op.children) {
      if (HasCrossJoin(*c)) return true;
    }
    return false;
  }

  Engine engine_;
};

TEST_F(OptimizerTest, CommaJoinsBecomeInnerJoins) {
  auto plan = Optimize(
      "SELECT AV, BV, CV FROM A, B, C "
      "WHERE A.K = B.K AND B.K = C.K AND AV > 0");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_FALSE(HasCrossJoin(**plan));
  EXPECT_EQ(CountKind(**plan, xtra::OpKind::kJoin), 2);
  // The single-table conjunct was pushed below the joins: a Select sits
  // directly over a Get.
  bool pushed = false;
  std::function<void(const xtra::Op&)> walk = [&](const xtra::Op& op) {
    if (op.kind == xtra::OpKind::kSelect &&
        op.children[0]->kind == xtra::OpKind::kGet) {
      pushed = true;
    }
    for (const auto& c : op.children) walk(*c);
  };
  walk(**plan);
  EXPECT_TRUE(pushed);
}

TEST_F(OptimizerTest, ResultsUnchangedByOptimization) {
  auto r = engine_.Execute(
      "SELECT AV, BV, CV FROM A, B, C WHERE A.K = B.K AND B.K = C.K");
  ASSERT_TRUE(r.ok()) << r.status();
  auto rows = ResultRows(*r);
  ASSERT_EQ(rows.size(), 1u);  // only K=2 matches all three
  EXPECT_EQ(rows[0][0].int_val(), 20);
  EXPECT_EQ(rows[0][1].int_val(), 200);
  EXPECT_EQ(rows[0][2].int_val(), 1000);
}

TEST_F(OptimizerTest, DisconnectedTablesKeepCrossJoin) {
  auto plan = Optimize("SELECT AV, BV FROM A, B WHERE AV > 0 AND BV > 0");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(HasCrossJoin(**plan));  // no equi conjunct links A and B
  auto r = engine_.Execute(
      "SELECT COUNT(*) FROM A, B WHERE AV > 0 AND BV > 0");
  ASSERT_TRUE(r.ok());
  auto rows = ResultRows(*r);
  EXPECT_EQ(rows[0][0].int_val(), 6);
}

TEST_F(OptimizerTest, OrCommonConjunctsFactorIntoJoin) {
  // (K-join AND x) OR (K-join AND y): the join key must be hoisted even
  // through the parser's nested binary OR tree (TPC-H Q19 shape).
  auto plan = Optimize(
      "SELECT AV FROM A, B WHERE "
      "(A.K = B.K AND AV > 5 AND BV < 150) OR "
      "(A.K = B.K AND AV > 25 AND BV > 150) OR "
      "(A.K = B.K AND AV = -1 AND BV = -1)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_FALSE(HasCrossJoin(**plan));
  auto r = engine_.Execute(
      "SELECT AV FROM A, B WHERE "
      "(A.K = B.K AND AV > 5 AND BV < 150) OR "
      "(A.K = B.K AND AV > 25 AND BV > 150) OR "
      "(A.K = B.K AND AV = -1 AND BV = -1) ORDER BY AV");
  ASSERT_TRUE(r.ok());
  auto rows = ResultRows(*r);
  ASSERT_EQ(rows.size(), 1u);  // (1,100) matches branch one
  EXPECT_EQ(rows[0][0].int_val(), 10);
}

TEST_F(OptimizerTest, SubqueryConjunctsStayAboveJoins) {
  auto plan = Optimize(
      "SELECT AV FROM A, B WHERE A.K = B.K AND "
      "AV > (SELECT MIN(CV) FROM C)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  // Top of the tree (under the projection) is a Select holding the
  // subquery conjunct.
  const xtra::Op* op = plan->get();
  while (op->kind == xtra::OpKind::kProject ||
         op->kind == xtra::OpKind::kSort ||
         op->kind == xtra::OpKind::kLimit) {
    op = op->children[0].get();
  }
  ASSERT_EQ(op->kind, xtra::OpKind::kSelect);
  bool has_subq = false;
  xtra::VisitExprs(*op, [&](const xtra::Expr& e) {
    if (e.subplan) has_subq = true;
    return true;
  });
  EXPECT_TRUE(has_subq);
}

TEST_F(OptimizerTest, CorrelatedConjunctLandsOnItsLeaf) {
  // Inside a subquery, a conjunct referencing only outer ids plus one
  // local leaf must be attached to that leaf (keeps the executor's
  // indexed-selection fast path).
  auto r = engine_.Execute(
      "SELECT AV FROM A WHERE EXISTS "
      "(SELECT 1 FROM B, C WHERE B.K = C.K AND B.K = A.K)");
  ASSERT_TRUE(r.ok()) << r.status();
  auto rows = ResultRows(*r);
  EXPECT_EQ(rows.size(), 1u);  // only K=2 is in both B and C
}

}  // namespace
}  // namespace hyperq::vdb
