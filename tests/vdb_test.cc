// Target-engine (vdb) semantics tests: the ANSI surface Hyper-Q's
// serializer emits must behave like a real warehouse.

#include <gtest/gtest.h>

#include "result_rows.h"
#include "vdb/engine.h"

namespace hyperq::vdb {
namespace {

class VdbTest : public ::testing::Test {
 protected:
  // A statement result with its chunks read into datum rows.
  struct Rowset {
    std::vector<ResultColumn> columns;
    std::vector<Row> rows;
    int64_t affected_rows = 0;
  };

  Rowset Must(const std::string& sql) {
    auto r = engine_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status();
    if (!r.ok()) return {};
    return {r->columns, ResultRows(*r), r->affected_rows};
  }
  Status Fails(const std::string& sql) {
    auto r = engine_.Execute(sql);
    EXPECT_FALSE(r.ok()) << sql;
    return r.ok() ? Status::OK() : r.status();
  }
  Engine engine_;
};

TEST_F(VdbTest, CreateInsertSelect) {
  Must("CREATE TABLE t (a INTEGER, b VARCHAR(10))");
  Must("INSERT INTO t VALUES (1, 'x'), (2, 'y')");
  auto r = Must("SELECT a, b FROM t ORDER BY a DESC");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].int_val(), 2);
  EXPECT_EQ(r.columns[0].name, "A");  // vdb folds names to upper
}

TEST_F(VdbTest, DuplicateTableRejected) {
  Must("CREATE TABLE t (a INTEGER)");
  Fails("CREATE TABLE t (a INTEGER)");
}

TEST_F(VdbTest, NotNullEnforced) {
  Must("CREATE TABLE t (a INTEGER NOT NULL)");
  Fails("INSERT INTO t VALUES (NULL)");
}

TEST_F(VdbTest, UpdateAndDelete) {
  Must("CREATE TABLE t (a INTEGER, b INTEGER)");
  Must("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)");
  auto u = Must("UPDATE t SET b = b + 1 WHERE a >= 2");
  EXPECT_EQ(u.affected_rows, 2);
  auto d = Must("DELETE FROM t WHERE b = 21");
  EXPECT_EQ(d.affected_rows, 1);
  EXPECT_EQ(Must("SELECT COUNT(*) FROM t").rows[0][0].int_val(), 2);
}

TEST_F(VdbTest, ThreeValuedLogic) {
  Must("CREATE TABLE t (a INTEGER)");
  Must("INSERT INTO t VALUES (1), (NULL), (3)");
  // NULL comparisons drop rows in WHERE.
  EXPECT_EQ(Must("SELECT a FROM t WHERE a > 0").rows.size(), 2u);
  EXPECT_EQ(Must("SELECT a FROM t WHERE NOT (a > 0)").rows.size(), 0u);
  EXPECT_EQ(Must("SELECT a FROM t WHERE a IS NULL").rows.size(), 1u);
  // Aggregates skip NULLs; COUNT(*) does not.
  auto r = Must("SELECT COUNT(*), COUNT(a), SUM(a) FROM t");
  EXPECT_EQ(r.rows[0][0].int_val(), 3);
  EXPECT_EQ(r.rows[0][1].int_val(), 2);
  EXPECT_EQ(r.rows[0][2].int_val(), 4);
}

TEST_F(VdbTest, GlobalAggregateOverEmptyInput) {
  Must("CREATE TABLE t (a INTEGER)");
  auto r = Must("SELECT COUNT(*), SUM(a), MIN(a) FROM t");
  EXPECT_EQ(r.rows[0][0].int_val(), 0);
  EXPECT_TRUE(r.rows[0][1].is_null());
  EXPECT_TRUE(r.rows[0][2].is_null());
  // Grouped aggregate over empty input returns no rows.
  EXPECT_EQ(Must("SELECT a, COUNT(*) FROM t GROUP BY a").rows.size(), 0u);
}

TEST_F(VdbTest, GroupByWithHaving) {
  Must("CREATE TABLE t (g INTEGER, v INTEGER)");
  Must("INSERT INTO t VALUES (1, 5), (1, 7), (2, 1), (2, 2), (3, 100)");
  auto r = Must(
      "SELECT g, SUM(v) AS total FROM t GROUP BY g HAVING SUM(v) > 3 "
      "ORDER BY total DESC");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].int_val(), 3);
  EXPECT_EQ(r.rows[1][1].int_val(), 12);
}

TEST_F(VdbTest, DistinctAggregates) {
  Must("CREATE TABLE t (a INTEGER)");
  Must("INSERT INTO t VALUES (1), (1), (2), (2), (3)");
  auto r = Must("SELECT COUNT(DISTINCT a), SUM(DISTINCT a) FROM t");
  EXPECT_EQ(r.rows[0][0].int_val(), 3);
  EXPECT_EQ(r.rows[0][1].int_val(), 6);
}

TEST_F(VdbTest, JoinFamily) {
  Must("CREATE TABLE l (k INTEGER, lv VARCHAR(4))");
  Must("CREATE TABLE r (k INTEGER, rv VARCHAR(4))");
  Must("INSERT INTO l VALUES (1, 'a'), (2, 'b'), (3, 'c')");
  Must("INSERT INTO r VALUES (2, 'x'), (3, 'y'), (4, 'z')");
  EXPECT_EQ(Must("SELECT * FROM l INNER JOIN r ON l.k = r.k").rows.size(),
            2u);
  auto left = Must(
      "SELECT l.k, rv FROM l LEFT JOIN r ON l.k = r.k ORDER BY l.k");
  ASSERT_EQ(left.rows.size(), 3u);
  EXPECT_TRUE(left.rows[0][1].is_null());  // k=1 unmatched
  auto right = Must(
      "SELECT lv, r.k FROM l RIGHT JOIN r ON l.k = r.k ORDER BY r.k");
  ASSERT_EQ(right.rows.size(), 3u);
  EXPECT_TRUE(right.rows[2][0].is_null());  // k=4 unmatched
  EXPECT_EQ(Must("SELECT * FROM l FULL JOIN r ON l.k = r.k").rows.size(),
            4u);
  EXPECT_EQ(Must("SELECT * FROM l CROSS JOIN r").rows.size(), 9u);
}

TEST_F(VdbTest, NullJoinKeysNeverMatch) {
  Must("CREATE TABLE l (k INTEGER)");
  Must("CREATE TABLE r (k INTEGER)");
  Must("INSERT INTO l VALUES (NULL), (1)");
  Must("INSERT INTO r VALUES (NULL), (1)");
  EXPECT_EQ(Must("SELECT * FROM l INNER JOIN r ON l.k = r.k").rows.size(),
            1u);
  // FULL JOIN keeps both null-key rows unmatched.
  EXPECT_EQ(Must("SELECT * FROM l FULL JOIN r ON l.k = r.k").rows.size(),
            3u);
}

TEST_F(VdbTest, SetOperations) {
  Must("CREATE TABLE a (x INTEGER)");
  Must("CREATE TABLE b (x INTEGER)");
  Must("INSERT INTO a VALUES (1), (2), (2), (3)");
  Must("INSERT INTO b VALUES (2), (3), (4)");
  EXPECT_EQ(Must("(SELECT x FROM a) UNION ALL (SELECT x FROM b)")
                .rows.size(),
            7u);
  EXPECT_EQ(Must("(SELECT x FROM a) UNION (SELECT x FROM b)").rows.size(),
            4u);
  EXPECT_EQ(Must("(SELECT x FROM a) INTERSECT (SELECT x FROM b)")
                .rows.size(),
            2u);
  EXPECT_EQ(Must("(SELECT x FROM a) EXCEPT (SELECT x FROM b)").rows.size(),
            1u);
}

TEST_F(VdbTest, OrderByNullsPlacement) {
  Must("CREATE TABLE t (a INTEGER)");
  Must("INSERT INTO t VALUES (2), (NULL), (1)");
  // vdb default: NULLs sort high (last ascending).
  auto dflt = Must("SELECT a FROM t ORDER BY a");
  EXPECT_TRUE(dflt.rows[2][0].is_null());
  auto first = Must("SELECT a FROM t ORDER BY a NULLS FIRST");
  EXPECT_TRUE(first.rows[0][0].is_null());
  auto desc_last = Must("SELECT a FROM t ORDER BY a DESC NULLS LAST");
  EXPECT_TRUE(desc_last.rows[2][0].is_null());
  EXPECT_EQ(desc_last.rows[0][0].int_val(), 2);
}

TEST_F(VdbTest, WindowFunctions) {
  Must("CREATE TABLE t (g INTEGER, v INTEGER)");
  Must("INSERT INTO t VALUES (1, 10), (1, 20), (1, 20), (2, 5)");
  auto r = Must(
      "SELECT g, v, RANK() OVER (PARTITION BY g ORDER BY v DESC) AS rnk, "
      "ROW_NUMBER() OVER (PARTITION BY g ORDER BY v DESC) AS rn, "
      "SUM(v) OVER (PARTITION BY g) AS total FROM t ORDER BY g, v DESC, rn");
  ASSERT_EQ(r.rows.size(), 4u);
  // Group 1: ties at v=20 share rank 1; next rank is 3.
  EXPECT_EQ(r.rows[0][2].int_val(), 1);
  EXPECT_EQ(r.rows[1][2].int_val(), 1);
  EXPECT_EQ(r.rows[2][2].int_val(), 3);
  EXPECT_EQ(r.rows[0][4].int_val(), 50);
  EXPECT_EQ(r.rows[3][4].int_val(), 5);
  // Row numbers are unique within the partition.
  EXPECT_NE(r.rows[0][3].int_val(), r.rows[1][3].int_val());
}

TEST_F(VdbTest, RunningWindowAggregate) {
  Must("CREATE TABLE t (v INTEGER)");
  Must("INSERT INTO t VALUES (1), (2), (3)");
  auto r = Must(
      "SELECT v, SUM(v) OVER (ORDER BY v) AS run FROM t ORDER BY v");
  EXPECT_EQ(r.rows[0][1].int_val(), 1);
  EXPECT_EQ(r.rows[1][1].int_val(), 3);
  EXPECT_EQ(r.rows[2][1].int_val(), 6);
}

TEST_F(VdbTest, CorrelatedSubqueries) {
  Must("CREATE TABLE emp (id INTEGER, dept INTEGER, sal INTEGER)");
  Must("INSERT INTO emp VALUES (1, 10, 100), (2, 10, 200), (3, 20, 50)");
  auto r = Must(
      "SELECT id FROM emp e WHERE sal = (SELECT MAX(sal) FROM emp e2 "
      "WHERE e2.dept = e.dept) ORDER BY id");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].int_val(), 2);
  EXPECT_EQ(r.rows[1][0].int_val(), 3);
  EXPECT_EQ(Must("SELECT id FROM emp WHERE EXISTS (SELECT 1 FROM emp e2 "
                 "WHERE e2.sal > emp.sal)")
                .rows.size(),
            2u);
  EXPECT_EQ(Must("SELECT id FROM emp WHERE dept IN (SELECT dept FROM emp "
                 "WHERE sal > 150)")
                .rows.size(),
            2u);
}

// Every operator shape inside a correlated subquery (the subplan runs once
// per outer binding, on the same column-at-a-time operators as a top-level
// query). Outer o(k, g); inner i(k, v) holds 1:{5,7,7}, 2:{4,9}, 3:{1}.
class VdbCorrelatedTest : public VdbTest {
 protected:
  void SetUp() override {
    Must("CREATE TABLE o (k INTEGER, g INTEGER)");
    Must("INSERT INTO o VALUES (1, 10), (2, 20), (3, 30)");
    Must("CREATE TABLE i (k INTEGER, v INTEGER)");
    Must("INSERT INTO i VALUES (1, 5), (1, 7), (1, 7), (2, 4), (2, 9), "
         "(3, 1)");
  }
  // "k=value" per outer row of `SELECT k, <expr> FROM o ORDER BY k`.
  std::vector<std::string> PerOuterRow(const std::string& expr) {
    auto r = Must("SELECT k, " + expr + " FROM o ORDER BY k");
    std::vector<std::string> out;
    for (const auto& row : r.rows) {
      out.push_back(row[0].ToString() + "=" + row[1].ToString());
    }
    return out;
  }
  using Rows = std::vector<std::string>;
};

TEST_F(VdbCorrelatedTest, WindowFunction) {
  // Running SUM over peer groups: 1 -> 5, 19, 19; 2 -> 4, 13; 3 -> 1.
  EXPECT_EQ(PerOuterRow("(SELECT MAX(s) FROM (SELECT SUM(v) OVER (ORDER BY "
                        "v) AS s FROM i WHERE i.k = o.k) t)"),
            (Rows{"1=19", "2=13", "3=1"}));
  EXPECT_EQ(PerOuterRow("(SELECT COUNT(*) FROM (SELECT RANK() OVER (ORDER BY "
                        "v DESC) AS r FROM i WHERE i.k = o.k) t WHERE r = 1)"),
            (Rows{"1=2", "2=1", "3=1"}));
}

TEST_F(VdbCorrelatedTest, SelectDistinct) {
  EXPECT_EQ(PerOuterRow("(SELECT COUNT(*) FROM (SELECT DISTINCT v FROM i "
                        "WHERE i.k = o.k) t)"),
            (Rows{"1=2", "2=2", "3=1"}));
}

TEST_F(VdbCorrelatedTest, SetOperations) {
  EXPECT_EQ(PerOuterRow("(SELECT COUNT(*) FROM (SELECT v FROM i WHERE i.k = "
                        "o.k UNION SELECT g FROM o o2 WHERE o2.k = o.k) t)"),
            (Rows{"1=3", "2=3", "3=2"}));
  EXPECT_EQ(PerOuterRow("(SELECT COUNT(*) FROM (SELECT v FROM i WHERE i.k = "
                        "o.k EXCEPT SELECT v FROM i WHERE v < 5) t)"),
            (Rows{"1=2", "2=1", "3=0"}));
  EXPECT_EQ(PerOuterRow("(SELECT COUNT(*) FROM (SELECT v FROM i WHERE i.k = "
                        "o.k INTERSECT SELECT v FROM i WHERE v >= 5) t)"),
            (Rows{"1=2", "2=1", "3=0"}));
}

TEST_F(VdbCorrelatedTest, KeylessAndLeftOuterJoins) {
  // Non-equi join: ordered pairs with a.v < b.v within one key.
  EXPECT_EQ(PerOuterRow("(SELECT COUNT(*) FROM i a, i b WHERE a.k = o.k AND "
                        "b.k = o.k AND a.v < b.v)"),
            (Rows{"1=2", "2=1", "3=0"}));
  // Each a row keeps its larger-v partners, or one NULL-padded row.
  EXPECT_EQ(PerOuterRow("(SELECT COUNT(*) FROM i a LEFT JOIN i b ON b.k = a.k "
                        "AND b.v > a.v WHERE a.k = o.k)"),
            (Rows{"1=4", "2=2", "3=1"}));
  EXPECT_EQ(PerOuterRow("(SELECT COUNT(b.v) FROM i a LEFT JOIN i b ON b.k = "
                        "a.k AND b.v > a.v WHERE a.k = o.k)"),
            (Rows{"1=2", "2=1", "3=0"}));
}

TEST_F(VdbCorrelatedTest, ProjectionReadsOuterColumn) {
  EXPECT_EQ(PerOuterRow("(SELECT v * 100 + o.g FROM i WHERE i.k = o.k AND "
                        "v < 6)"),
            (Rows{"1=510", "2=420", "3=130"}));
}

TEST_F(VdbTest, ScalarSubqueryCardinalityError) {
  Must("CREATE TABLE t (a INTEGER)");
  Must("INSERT INTO t VALUES (1), (2)");
  Fails("SELECT (SELECT a FROM t) FROM t");
}

TEST_F(VdbTest, InListNullSemantics) {
  Must("CREATE TABLE t (a INTEGER)");
  Must("INSERT INTO t VALUES (1), (4)");
  // 4 NOT IN (1, NULL) is UNKNOWN, so only... nothing passes for 4.
  auto r = Must("SELECT a FROM t WHERE a NOT IN (1, NULL)");
  EXPECT_EQ(r.rows.size(), 0u);
  EXPECT_EQ(Must("SELECT a FROM t WHERE a IN (1, NULL)").rows.size(), 1u);
}

TEST_F(VdbTest, LikePatterns) {
  Must("CREATE TABLE t (s VARCHAR(20))");
  Must("INSERT INTO t VALUES ('hello'), ('help'), ('shell'), ('h_llo')");
  EXPECT_EQ(Must("SELECT s FROM t WHERE s LIKE 'hel%'").rows.size(), 2u);
  EXPECT_EQ(Must("SELECT s FROM t WHERE s LIKE '%ell%'").rows.size(), 2u);
  EXPECT_EQ(Must("SELECT s FROM t WHERE s LIKE 'h_llo'").rows.size(), 2u);
  EXPECT_EQ(Must("SELECT s FROM t WHERE s LIKE 'h!_llo' ESCAPE '!'")
                .rows.size(),
            1u);
  EXPECT_EQ(Must("SELECT s FROM t WHERE s NOT LIKE '%l%'").rows.size(), 0u);
}

TEST_F(VdbTest, StringFunctions) {
  auto r = Must(
      "SELECT LENGTH('abc  '), UPPER('mIx'), LOWER('mIx'), "
      "SUBSTR('abcdef', 2, 3), POSITION('cd', 'abcdef'), "
      "TRIM('  pad  '), COALESCE(NULL, 'x'), NULLIF(1, 1)");
  EXPECT_EQ(r.rows[0][0].int_val(), 3);  // CHAR semantics: blanks ignored
  EXPECT_EQ(r.rows[0][1].string_val(), "MIX");
  EXPECT_EQ(r.rows[0][2].string_val(), "mix");
  EXPECT_EQ(r.rows[0][3].string_val(), "bcd");
  EXPECT_EQ(r.rows[0][4].int_val(), 3);
  EXPECT_EQ(r.rows[0][5].string_val(), "pad");
  EXPECT_EQ(r.rows[0][6].string_val(), "x");
  EXPECT_TRUE(r.rows[0][7].is_null());
}

TEST_F(VdbTest, DateFunctions) {
  auto r = Must(
      "SELECT EXTRACT(YEAR FROM DATE '2014-06-15'), "
      "DATE_ADD_DAYS(DATE '2014-01-01', 31), "
      "DATE_DIFF_DAYS(DATE '2014-02-01', DATE '2014-01-01'), "
      "ADD_MONTHS(DATE '2014-01-31', 1)");
  EXPECT_EQ(r.rows[0][0].int_val(), 2014);
  EXPECT_EQ(r.rows[0][1].ToString(), "2014-02-01");
  EXPECT_EQ(r.rows[0][2].int_val(), 31);
  EXPECT_EQ(r.rows[0][3].ToString(), "2014-02-28");
}

TEST_F(VdbTest, ArithmeticErrors) {
  Fails("SELECT 1 / 0");
  Fails("SELECT MOD(5, 0)");
  Fails("SELECT LN(0.0)");
}

TEST_F(VdbTest, DecimalAggregationStaysExact) {
  Must("CREATE TABLE t (v DECIMAL(10,2))");
  Must("INSERT INTO t VALUES (0.10), (0.20), (0.30)");
  auto r = Must("SELECT SUM(v) FROM t");
  EXPECT_EQ(r.rows[0][0].decimal_val().ToString(), "0.60");
}

TEST_F(VdbTest, CaseExpression) {
  Must("CREATE TABLE t (a INTEGER)");
  Must("INSERT INTO t VALUES (1), (5), (NULL)");
  auto r = Must(
      "SELECT CASE WHEN a < 3 THEN 'small' WHEN a IS NULL THEN 'none' "
      "ELSE 'big' END FROM t ORDER BY a NULLS LAST");
  EXPECT_EQ(r.rows[0][0].string_val(), "small");
  EXPECT_EQ(r.rows[1][0].string_val(), "big");
  EXPECT_EQ(r.rows[2][0].string_val(), "none");
}

TEST_F(VdbTest, DistinctSelect) {
  Must("CREATE TABLE t (a INTEGER, b INTEGER)");
  Must("INSERT INTO t VALUES (1, 1), (1, 1), (1, 2)");
  EXPECT_EQ(Must("SELECT DISTINCT a, b FROM t").rows.size(), 2u);
  EXPECT_EQ(Must("SELECT DISTINCT a FROM t").rows.size(), 1u);
}

TEST_F(VdbTest, LimitAndDerivedTables) {
  Must("CREATE TABLE t (a INTEGER)");
  Must("INSERT INTO t VALUES (5), (3), (9), (1)");
  auto r = Must(
      "SELECT a FROM (SELECT a FROM t ORDER BY a DESC LIMIT 2) d ORDER BY "
      "a");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].int_val(), 5);
}

TEST_F(VdbTest, InsertSelectAndSelfRead) {
  Must("CREATE TABLE t (a INTEGER)");
  Must("INSERT INTO t VALUES (1), (2)");
  // Self-referential INSERT ... SELECT reads a snapshot.
  auto r = Must("INSERT INTO t SELECT a + 10 FROM t");
  EXPECT_EQ(r.affected_rows, 2);
  EXPECT_EQ(Must("SELECT COUNT(*) FROM t").rows[0][0].int_val(), 4);
}

TEST_F(VdbTest, RecursionRejectedNatively) {
  Must("CREATE TABLE t (a INTEGER)");
  Status s = Fails(
      "WITH RECURSIVE r (a) AS (SELECT a FROM t UNION ALL SELECT a FROM r) "
      "SELECT * FROM r");
  // The ANSI dialect parser refuses RECURSIVE — that is exactly the gap
  // Hyper-Q's emulation closes.
  EXPECT_TRUE(s.IsSyntaxError()) << s;
}

TEST_F(VdbTest, UnknownColumnAndTableErrors) {
  Must("CREATE TABLE t (a INTEGER)");
  EXPECT_TRUE(Fails("SELECT nope FROM t").IsBindError());
  EXPECT_TRUE(Fails("SELECT a FROM missing").IsCatalogError());
  EXPECT_TRUE(Fails("SELECT a FROM t WHERE FROB(a) = 1").IsBindError());
}

TEST_F(VdbTest, AmbiguousColumnRejected) {
  Must("CREATE TABLE x (k INTEGER)");
  Must("CREATE TABLE y (k INTEGER)");
  EXPECT_TRUE(Fails("SELECT k FROM x, y WHERE x.k = y.k").IsBindError());
}

// Parameterized sweep: ORDER BY direction x NULLS placement over the same
// data must produce the expected first element.
struct OrderCase {
  const char* order;
  const char* first;  // expected first value rendered
};

// Without this, gtest prints the case as the raw bytes of its two pointers,
// and ctest (which names value-parameterized tests after the printed value)
// would get a different test name on every build.
void PrintTo(const OrderCase& c, std::ostream* os) {
  *os << "ORDER BY a" << (*c.order ? " " : "") << c.order << " -> "
      << c.first;
}

class VdbOrderSweep : public VdbTest,
                      public ::testing::WithParamInterface<OrderCase> {};

TEST_P(VdbOrderSweep, FirstRow) {
  Must("CREATE TABLE t (a INTEGER)");
  Must("INSERT INTO t VALUES (2), (NULL), (1), (3)");
  auto r = Must(std::string("SELECT a FROM t ORDER BY a ") +
                GetParam().order);
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[0][0].ToString(), GetParam().first);
}

INSTANTIATE_TEST_SUITE_P(
    Orders, VdbOrderSweep,
    ::testing::Values(OrderCase{"", "1"},
                      // NULLs sort high by default: DESC puts them first.
                      OrderCase{"DESC", "NULL"},
                      OrderCase{"NULLS FIRST", "NULL"},
                      OrderCase{"DESC NULLS FIRST", "NULL"},
                      OrderCase{"DESC NULLS LAST", "3"},
                      OrderCase{"NULLS LAST", "1"}));

}  // namespace
}  // namespace hyperq::vdb
