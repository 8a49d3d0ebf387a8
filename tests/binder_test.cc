// Binder tests: name resolution, scoping, feature recording, and the
// binding-time rewrites of paper Table 2.

#include <algorithm>
#include <functional>
#include <map>

#include <gtest/gtest.h>

#include "binder/binder.h"
#include "frontend/ast_printer.h"
#include "serializer/serializer.h"
#include "sql/parser.h"
#include "transform/backend_profile.h"
#include "xtra/xtra.h"

namespace hyperq::binder {
namespace {

class BinderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TableDef t;
    t.name = "T";
    t.columns = {{"A", SqlType::Int(), true, {}},
                 {"B", SqlType::Varchar(20), true, {}},
                 {"D", SqlType::Date(), true, {}}};
    ASSERT_TRUE(catalog_.CreateTable(t).ok());
    TableDef u;
    u.name = "U";
    u.columns = {{"A", SqlType::Int(), true, {}},
                 {"C", SqlType::Int(), true, {}}};
    ASSERT_TRUE(catalog_.CreateTable(u).ok());
    ViewDef v;
    v.name = "V";
    v.definition_sql = "SELECT A, B FROM T WHERE A > 0";
    ASSERT_TRUE(catalog_.CreateView(v).ok());
  }

  Result<xtra::OpPtr> Bind(const std::string& sql, FeatureSet* fs = nullptr) {
    HQ_ASSIGN_OR_RETURN(sql::StatementPtr stmt,
                        sql::ParseStatement(sql, sql::Dialect::Teradata()));
    Binder binder(&catalog_, sql::Dialect::Teradata());
    auto plan = binder.BindStatement(*stmt);
    if (fs != nullptr) *fs = binder.features();
    return plan;
  }

  Status BindError(const std::string& sql) {
    auto r = Bind(sql);
    EXPECT_FALSE(r.ok()) << sql;
    return r.ok() ? Status::OK() : r.status();
  }

  Catalog catalog_;
};

TEST_F(BinderTest, ResolvesQualifiedAndUnqualified) {
  EXPECT_TRUE(Bind("SEL A, T.B FROM T").ok());
  EXPECT_TRUE(Bind("SEL x.A FROM T x").ok());
  EXPECT_TRUE(BindError("SEL NOPE FROM T").IsBindError());
  // Aliasing hides the table name — but in the Teradata dialect the bare
  // T.A reference then triggers implicit-join expansion (T joins itself).
  FeatureSet fs;
  EXPECT_TRUE(Bind("SEL T.A FROM T x", &fs).ok());
  EXPECT_TRUE(fs.Has(Feature::kImplicitJoin));
}

TEST_F(BinderTest, AmbiguityDetected) {
  EXPECT_TRUE(BindError("SEL A FROM T, U").IsBindError());
  EXPECT_TRUE(Bind("SEL T.A, U.A FROM T, U").ok());
}

TEST_F(BinderTest, StarExpansion) {
  auto plan = Bind("SEL * FROM T");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->output.size(), 3u);
  auto qualified = Bind("SEL u.* FROM T, U u");
  ASSERT_TRUE(qualified.ok());
  EXPECT_EQ((*qualified)->output.size(), 2u);
}

TEST_F(BinderTest, ChainedProjectionsFeatureAndExpansion) {
  FeatureSet fs;
  auto plan = Bind("SEL A AS base, base + 1 AS nxt FROM T", &fs);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(fs.Has(Feature::kChainedProjections));
  // Plain column reuse is NOT the chained feature.
  FeatureSet fs2;
  ASSERT_TRUE(Bind("SEL A, A + 1 FROM T", &fs2).ok());
  EXPECT_FALSE(fs2.Has(Feature::kChainedProjections));
}

TEST_F(BinderTest, ImplicitJoinExpansion) {
  FeatureSet fs;
  auto plan = Bind("SEL T.A FROM T WHERE T.A = U.C", &fs);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(fs.Has(Feature::kImplicitJoin));
  // An unknown qualifier that is not a table stays an error.
  EXPECT_TRUE(BindError("SEL T.A FROM T WHERE T.A = NOWHERE.C").ok() ==
              false);
}

TEST_F(BinderTest, OrdinalGroupByResolved) {
  FeatureSet fs;
  auto plan = Bind("SEL B, COUNT(*) FROM T GROUP BY 1", &fs);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(fs.Has(Feature::kOrdinalGroupBy));
  EXPECT_TRUE(BindError("SEL B FROM T GROUP BY 9").IsBindError());
  EXPECT_TRUE(BindError("SEL B FROM T ORDER BY 9").IsBindError());
}

TEST_F(BinderTest, QualifyLowersToWindowPlusFilter) {
  FeatureSet fs;
  auto plan = Bind("SEL A FROM T QUALIFY RANK(A DESC) <= 2", &fs);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(fs.Has(Feature::kQualify));
  EXPECT_TRUE(fs.Has(Feature::kOrderedAnalytics));
  // Plan shape: Project over post-window Select over Window.
  const xtra::Op* op = plan->get();
  ASSERT_EQ(op->kind, xtra::OpKind::kProject);
  op = op->children[0].get();
  ASSERT_EQ(op->kind, xtra::OpKind::kSelect);
  EXPECT_TRUE(op->post_window_filter);
  EXPECT_EQ(op->children[0]->kind, xtra::OpKind::kWindow);
}

TEST_F(BinderTest, ViewExpansion) {
  auto plan = Bind("SEL A FROM V WHERE B = 'x'");
  ASSERT_TRUE(plan.ok()) << plan.status();
  // The view body is inlined: a Get on T exists beneath.
  bool found_t = false;
  std::function<void(const xtra::Op&)> walk = [&](const xtra::Op& op) {
    if (op.kind == xtra::OpKind::kGet && op.table_name == "T") found_t = true;
    for (const auto& c : op.children) walk(*c);
  };
  walk(**plan);
  EXPECT_TRUE(found_t);
}

// Literal provenance: a constant bound from the statement's own literal
// keeps that literal's SQL-A offset; constants from a view body (parsed
// from catalog text) carry none, even where the values coincide.
TEST_F(BinderTest, OnlyTheStatementsLiteralsKeepTheirOffsets) {
  const std::string sql = "SEL A FROM V WHERE B = 'x' AND A < 0";
  auto plan = Bind(sql);
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::map<std::string, std::vector<int>> offsets;  // rendered value -> tags
  std::function<void(const xtra::Expr&)> visit = [&](const xtra::Expr& e) {
    if (e.kind == xtra::ExprKind::kConst) {
      offsets[e.value.ToString()].push_back(e.literal_offset);
    }
    for (const auto& c : e.children) visit(*c);
  };
  std::function<void(const xtra::Op&)> walk = [&](const xtra::Op& op) {
    if (op.predicate) visit(*op.predicate);
    for (const auto& c : op.children) walk(*c);
  };
  walk(**plan);
  EXPECT_EQ(offsets["x"], std::vector<int>{static_cast<int>(sql.find("'x'"))});
  std::vector<int> zeros = offsets["0"];
  std::sort(zeros.begin(), zeros.end());
  EXPECT_EQ(zeros,
            (std::vector<int>{-1, static_cast<int>(sql.find("0"))}));
}

TEST_F(BinderTest, AggregateDecomposition) {
  auto plan = Bind("SEL B, SUM(A) + 1, COUNT(*) FROM T GROUP BY B");
  ASSERT_TRUE(plan.ok()) << plan.status();
  const xtra::Op* proj = plan->get();
  ASSERT_EQ(proj->kind, xtra::OpKind::kProject);
  const xtra::Op* agg = proj->children[0].get();
  ASSERT_EQ(agg->kind, xtra::OpKind::kAggregate);
  EXPECT_EQ(agg->group_by.size(), 1u);
  EXPECT_EQ(agg->aggregates.size(), 2u);
}

TEST_F(BinderTest, DuplicateAggregatesDeduplicated) {
  auto plan = Bind("SEL SUM(A), SUM(A) * 2 FROM T");
  ASSERT_TRUE(plan.ok());
  const xtra::Op* agg = (*plan)->children[0].get();
  ASSERT_EQ(agg->kind, xtra::OpKind::kAggregate);
  EXPECT_EQ(agg->aggregates.size(), 1u);
}

TEST_F(BinderTest, AggregateValidationErrors) {
  EXPECT_TRUE(BindError("SEL A FROM T WHERE SUM(A) > 1").IsBindError());
  EXPECT_TRUE(BindError("SEL SUM(*) FROM T").IsBindError());
  EXPECT_TRUE(BindError("SEL RANK() FROM T").IsBindError());
}

TEST_F(BinderTest, SubqueryCorrelation) {
  auto plan = Bind(
      "SEL A FROM T WHERE A > (SEL MAX(C) FROM U WHERE U.A = T.A)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  // An uncorrelated reference inside a subquery to a missing name fails.
  EXPECT_TRUE(
      BindError("SEL A FROM T WHERE A IN (SEL zz FROM U)").IsBindError());
}

TEST_F(BinderTest, SetOpArityChecked) {
  EXPECT_TRUE(Bind("SEL A FROM T UNION ALL SEL C FROM U").ok());
  EXPECT_TRUE(
      BindError("SEL A, B FROM T UNION ALL SEL C FROM U").IsBindError());
}

TEST_F(BinderTest, BuiltinRenames) {
  FeatureSet fs;
  auto plan = Bind("SEL CHARS(B), INDEX(B, 'x'), ZEROIFNULL(A) FROM T", &fs);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(fs.Has(Feature::kBuiltinRename));
  EXPECT_TRUE(fs.Has(Feature::kNullFuncs));
  bool saw_length = false, saw_position = false, saw_coalesce = false;
  xtra::VisitExprs(**plan, [&](const xtra::Expr& e) {
    if (e.kind == xtra::ExprKind::kFunc) {
      if (e.func_name == "LENGTH") saw_length = true;
      if (e.func_name == "POSITION") saw_position = true;
      if (e.func_name == "COALESCE") saw_coalesce = true;
    }
    return true;
  });
  EXPECT_TRUE(saw_length);
  EXPECT_TRUE(saw_position);
  EXPECT_TRUE(saw_coalesce);
}

TEST_F(BinderTest, DmlTargets) {
  auto ins = Bind("INS INTO T (A, B) VALUES (1, 'x')");
  ASSERT_TRUE(ins.ok()) << ins.status();
  EXPECT_EQ((*ins)->kind, xtra::OpKind::kInsert);
  EXPECT_TRUE(BindError("INS INTO T (A, NOPE) VALUES (1, 2)").IsBindError());
  EXPECT_TRUE(BindError("INS INTO T (A) VALUES (1, 2)").IsBindError());

  FeatureSet fs;
  auto view_dml = Bind("UPD V SET B = 'y' WHERE A = 1", &fs);
  ASSERT_TRUE(view_dml.ok()) << view_dml.status();
  EXPECT_TRUE(fs.Has(Feature::kDmlOnViews));
  EXPECT_EQ((*view_dml)->target_table, "T");  // redirected to base table

  auto del = Bind("DEL FROM T WHERE A IN (SEL C FROM U)");
  ASSERT_TRUE(del.ok()) << del.status();
  EXPECT_EQ((*del)->kind, xtra::OpKind::kDelete);
}

TEST_F(BinderTest, RecursiveCteShape) {
  FeatureSet fs;
  auto plan = Bind(
      "WITH RECURSIVE R (N) AS (SEL A FROM T UNION ALL SEL N FROM R WHERE "
      "N < 10) SEL N FROM R",
      &fs);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(fs.Has(Feature::kRecursiveQuery));
  ASSERT_EQ((*plan)->kind, xtra::OpKind::kRecursiveCte);
  EXPECT_EQ((*plan)->children.size(), 3u);  // seed, recursive, main
  EXPECT_EQ((*plan)->cte_columns.size(), 1u);
}

TEST_F(BinderTest, NonRecursiveCteInlined) {
  auto plan = Bind(
      "WITH C AS (SEL A FROM T WHERE A > 1) SEL x.A, y.A FROM C x, C y");
  ASSERT_TRUE(plan.ok()) << plan.status();
  // Each reference re-binds the CTE: two T scans, no CteRef nodes.
  int gets = 0, cte_refs = 0;
  std::function<void(const xtra::Op&)> walk = [&](const xtra::Op& op) {
    if (op.kind == xtra::OpKind::kGet) ++gets;
    if (op.kind == xtra::OpKind::kCteRef) ++cte_refs;
    for (const auto& c : op.children) walk(*c);
  };
  walk(**plan);
  EXPECT_EQ(gets, 2);
  EXPECT_EQ(cte_refs, 0);
}

TEST_F(BinderTest, AnsiDialectDisablesVendorResolution) {
  Binder ansi(&catalog_, sql::Dialect::Ansi());
  auto stmt = sql::ParseStatement("SELECT A AS base, base + 1 FROM T",
                                  sql::Dialect::Ansi());
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(ansi.BindStatement(**stmt).ok());  // no chained projections
  auto implicit = sql::ParseStatement("SELECT T.A FROM T WHERE T.A = U.C",
                                      sql::Dialect::Ansi());
  ASSERT_TRUE(implicit.ok());
  Binder ansi2(&catalog_, sql::Dialect::Ansi());
  EXPECT_FALSE(ansi2.BindStatement(**implicit).ok());  // no implicit joins
}

// The binder reads the caller's AST in place, so binding must leave it as
// parsed: implicit-join expansion keeps the tables it adds in a side list.
// Each statement is bound twice; the AST prints the same before and after
// each bind, and both binds produce the same plan.
TEST_F(BinderTest, BindingLeavesTheAstUntouched) {
  const std::string statements[] = {
      // Implicit joins in the outer block (T, U), in a scalar subquery (U)
      // and in a derived table (T).
      "SEL T.A, (SEL MAX(x.A) FROM T x WHERE x.A = U.C) AS m "
      "FROM (SEL U.A AS a FROM U WHERE U.C = T.A) d WHERE d.a = U.C",
      // Implicit joins in the recursive branch (U) and the main query (T).
      "WITH RECURSIVE R (N) AS (SEL A FROM T UNION ALL "
      "SEL R.N + 1 FROM R WHERE R.N < U.C) SEL R.N, T.B FROM R WHERE R.N = T.A",
  };
  serializer::Serializer serializer(transform::BackendProfile::Vdb());
  for (const std::string& sql : statements) {
    auto stmt = sql::ParseStatement(sql, sql::Dialect::Teradata());
    ASSERT_TRUE(stmt.ok()) << sql << "\n" << stmt.status();
    const std::string parsed = frontend::AstToTreeString(**stmt);
    std::string plans[2];
    std::string sql_b[2];
    for (int i = 0; i < 2; ++i) {
      Binder binder(&catalog_, sql::Dialect::Teradata());
      auto plan = binder.BindStatement(**stmt);
      ASSERT_TRUE(plan.ok()) << sql << "\n" << plan.status();
      EXPECT_TRUE(binder.features().Has(Feature::kImplicitJoin)) << sql;
      EXPECT_EQ(frontend::AstToTreeString(**stmt), parsed)
          << "bind " << i + 1 << " changed the AST of " << sql;
      plans[i] = xtra::ToTreeString(**plan);
      // A recursive query is emulated, not serialized.
      if ((*plan)->kind != xtra::OpKind::kRecursiveCte) {
        auto text = serializer.Serialize(**plan);
        ASSERT_TRUE(text.ok()) << sql << "\n" << text.status();
        sql_b[i] = *text;
      }
    }
    EXPECT_EQ(plans[1], plans[0]) << sql;
    EXPECT_EQ(sql_b[1], sql_b[0]) << sql;
  }
}

TEST_F(BinderTest, ColumnAliasListOnBaseTable) {
  auto plan = Bind("SEL x1 FROM T (x1, x2, x3)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(BindError("SEL x1 FROM T (x1, x2)").IsBindError());  // arity
}

}  // namespace
}  // namespace hyperq::binder
