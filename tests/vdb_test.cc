// Target-engine (vdb) semantics tests: the ANSI surface Hyper-Q's
// serializer emits must behave like a real warehouse.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

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

// An INSERT is statement-atomic: a row that fails its cast or NOT NULL
// check leaves none of the statement's rows behind.
TEST_F(VdbTest, FailedInsertValuesLeavesTheTableUntouched) {
  Must("CREATE TABLE t (a INTEGER NOT NULL, b VARCHAR(10))");
  Fails("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (NULL, 'c')");
  EXPECT_EQ(Must("SELECT COUNT(*) FROM t").rows[0][0].int_val(), 0);
  Must("INSERT INTO t VALUES (1, 'a')");
  Fails("INSERT INTO t VALUES (2, 'b'), (NULL, 'c')");
  auto r = Must("SELECT a, b FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].int_val(), 1);
  EXPECT_EQ(r.rows[0][1].string_val(), "a");
}

TEST_F(VdbTest, FailedInsertSelectLeavesTheTableUntouched) {
  Must("CREATE TABLE t (a INTEGER NOT NULL, b VARCHAR(10))");
  Must("CREATE TABLE s (a INTEGER, b VARCHAR(10))");
  Must("INSERT INTO t VALUES (1, 'a')");
  Must("INSERT INTO s VALUES (2, 'b'), (3, 'c'), (NULL, 'd')");
  Fails("INSERT INTO t SELECT a, b FROM s ORDER BY a NULLS LAST");
  EXPECT_EQ(Must("SELECT COUNT(*) FROM t").rows[0][0].int_val(), 1);
  // The same statement without the NULL row succeeds in full.
  EXPECT_EQ(Must("INSERT INTO t SELECT a, b FROM s WHERE a IS NOT NULL")
                .affected_rows,
            2);
  EXPECT_EQ(Must("SELECT COUNT(*) FROM t").rows[0][0].int_val(), 3);
}

TEST_F(VdbTest, ResultFetchedBeforeInsertOrUpdateKeepsOldRows) {
  Must("CREATE TABLE t (a INTEGER, b VARCHAR(10))");
  auto empty = engine_.Execute("SELECT a, b FROM t");
  ASSERT_TRUE(empty.ok()) << empty.status();
  Must("INSERT INTO t VALUES (1, 'x'), (2, 'y')");
  EXPECT_TRUE(ResultRows(*empty).empty());
  auto held = engine_.Execute("SELECT a, b FROM t");
  ASSERT_TRUE(held.ok()) << held.status();
  Must("INSERT INTO t VALUES (3, 'z')");
  Must("UPDATE t SET b = 'new', a = a + 10");
  const auto rows = ResultRows(*held);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].int_val(), 1);
  EXPECT_EQ(rows[0][1].string_val(), "x");
  EXPECT_EQ(rows[1][0].int_val(), 2);
  EXPECT_EQ(rows[1][1].string_val(), "y");
  auto now = Must("SELECT a, b FROM t ORDER BY a");
  ASSERT_EQ(now.rows.size(), 3u);
  EXPECT_EQ(now.rows[2][0].int_val(), 13);
  EXPECT_EQ(now.rows[2][1].string_val(), "new");
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

// --- Predicate mask kernels against the scalar interpreter ------------------
//
// Every predicate below runs twice: as a WHERE clause, on the column mask
// kernels, and wrapped as CASE WHEN p THEN 1 ELSE 0 END = 1, whose CASE the
// vector evaluator hands to the row-at-a-time interpreter. The two must
// select the same rows; so must NOT (p), which separates a NULL row from a
// FALSE one.
class VdbMaskOracleTest : public VdbTest {
 protected:
  // Column pairs per type: (first, second, a literal of the type).
  struct Typed {
    const char* a;
    const char* b;
    const char* lit;
  };
  static std::vector<Typed> Types() {
    return {{"I", "I2", "2"},
            {"D", "D2", "2.00"},
            {"F", "F2", "2.0E0"},
            {"DT", "DT2", "DATE '2014-01-02'"},
            {"S", "S2", "'b'"},
            {"C", "C2", "'b'"},
            {"TS", "TS2", "TIMESTAMP '2014-01-02 10:00:00'"}};
  }
  static constexpr const char* kOps[] = {"=", "<>", "<", "<=", ">", ">="};

  void SetUp() override {
    const char* schema =
        " (K INTEGER, I INTEGER, I2 INTEGER, D DECIMAL(9,2), D2 DECIMAL(9,2),"
        " F DOUBLE PRECISION, F2 DOUBLE PRECISION, DT DATE, DT2 DATE,"
        " S VARCHAR(10), S2 VARCHAR(10), C CHAR(5), C2 CHAR(5), TS TIMESTAMP,"
        " TS2 TIMESTAMP, N INTEGER)";
    Must(std::string("CREATE TABLE T") + schema);
    Must(std::string("CREATE TABLE E") + schema);  // stays empty
    const char* ints[] = {"1", "2", "3"};
    const char* decs[] = {"1.50", "2.00", "2.50"};
    const char* dbls[] = {"1.5E0", "2.0E0", "2.5E0"};
    const char* dates[] = {"DATE '2014-01-01'", "DATE '2014-01-02'",
                           "DATE '2014-01-03'"};
    // 'b ' equals 'b' under blank-padded comparison.
    const char* strs[] = {"'a'", "'b '", "'b'", "'c'"};
    const char* stamps[] = {"TIMESTAMP '2014-01-02 09:00:00'",
                            "TIMESTAMP '2014-01-02 10:00:00'",
                            "TIMESTAMP '2014-01-02 11:00:00'"};
    for (int k = 0; k < 24; ++k) {
      // Column c of row k is NULL when (k + 3c) % 5 == 0: every column has
      // NULLs, on different rows.
      auto v = [&](int c, const char* const* dom, int size) -> std::string {
        if ((k + 3 * c) % 5 == 0) return "NULL";
        return dom[(k * (c + 1) + c) % size];
      };
      std::string row = "(" + std::to_string(k);
      row += ", " + v(1, ints, 3) + ", " + v(2, ints, 3);
      row += ", " + v(3, decs, 3) + ", " + v(4, decs, 3);
      row += ", " + v(5, dbls, 3) + ", " + v(6, dbls, 3);
      row += ", " + v(7, dates, 3) + ", " + v(8, dates, 3);
      row += ", " + v(9, strs, 4) + ", " + v(10, strs, 4);
      row += ", " + v(11, strs, 4) + ", " + v(12, strs, 4);
      row += ", " + v(13, stamps, 3) + ", " + v(14, stamps, 3);
      row += ", NULL)";
      Must("INSERT INTO T VALUES " + row);
    }
  }

  std::vector<int64_t> Keys(const std::string& sql) {
    std::vector<int64_t> keys;
    for (const Row& r : Must(sql).rows) keys.push_back(r[0].int_val());
    return keys;
  }

  // `p` and NOT (p) select the same rows of `table` on the kernels as on
  // the interpreter.
  void ExpectOracle(const std::string& p, const char* table = "T") {
    for (const std::string& q : {p, "NOT (" + p + ")"}) {
      std::string from = std::string("SELECT K FROM ") + table + " WHERE ";
      auto kernel = Keys(from + q + " ORDER BY K");
      auto oracle =
          Keys(from + "CASE WHEN " + q + " THEN 1 ELSE 0 END = 1 ORDER BY K");
      EXPECT_EQ(kernel, oracle) << "WHERE " << q << " on " << table;
    }
  }

  // Every CompKind over every type, as col-const, const-col and col-col.
  std::vector<std::string> Atoms() {
    std::vector<std::string> atoms;
    for (const Typed& t : Types()) {
      for (const char* op : kOps) {
        atoms.push_back(std::string(t.a) + " " + op + " " + t.lit);
        atoms.push_back(std::string(t.lit) + " " + op + " " + t.a);
        atoms.push_back(std::string(t.a) + " " + op + " " + t.b);
      }
    }
    return atoms;
  }
};

TEST_F(VdbMaskOracleTest, EveryComparisonMatchesTheInterpreter) {
  std::vector<std::string> atoms = Atoms();
  ASSERT_EQ(atoms.size(), 7u * 6u * 3u);
  for (const std::string& p : atoms) {
    ExpectOracle(p);
    ExpectOracle(p, "E");
  }
  // Mixed kinds: INTEGER against DECIMAL and DOUBLE, a DECIMAL column
  // against an INTEGER constant of another scale, DATE against TIMESTAMP.
  for (const char* op : kOps) {
    for (const char* p : {"I %s D", "I %s F", "D %s 2", "2 %s D", "DT %s TS",
                          "N %s 1", "N %s I", "I %s NULL"}) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), p, op);
      ExpectOracle(buf);
    }
  }
}

TEST_F(VdbMaskOracleTest, AndOrNotNestsWithNullOperandsMatchTheInterpreter) {
  const std::vector<std::string> atoms = {
      "I >= 2", "D < 2.00", "S = 'b'", "DT <> DATE '2014-01-01'",
      "TS > TS2", "F <= F2", "N = 1", "I = NULL", "C >= C2"};
  for (size_t a = 0; a < atoms.size(); ++a) {
    for (size_t b = 0; b < atoms.size(); ++b) {
      const std::string& x = atoms[a];
      const std::string& y = atoms[b];
      const std::string& z = atoms[(a + b + 1) % atoms.size()];
      ExpectOracle(x + " AND " + y);
      ExpectOracle(x + " OR " + y);
      ExpectOracle("NOT (" + x + ") AND " + y);
      ExpectOracle(x + " AND (" + y + " OR " + z + ")");
      ExpectOracle("(" + x + " OR " + y + ") AND NOT (" + z + ")");
    }
    ExpectOracle(atoms[a] + " AND " + atoms[a] + " AND " + atoms[a], "E");
  }
}

TEST_F(VdbMaskOracleTest, IsNullLikeAndInListMatchTheInterpreter) {
  for (const char* p :
       {"I IS NULL", "I IS NOT NULL", "N IS NULL", "S LIKE 'b%'",
        "S NOT LIKE 'b%'", "C LIKE '%b%'", "S LIKE S2", "N IS NOT NULL",
        "I IN (1, 3)", "I NOT IN (1, 3)", "I IN (1, NULL)",
        "I NOT IN (2, NULL)", "I IN (I2, 2)", "D IN (1.50, 2.50)",
        "S IN ('a', 'b')", "S NOT IN ('b ', 'c')", "C IN ('b', 'c')",
        "DT IN (DATE '2014-01-01', DATE '2014-01-03')",
        "DT NOT IN (DATE '2014-01-02')", "N IN (1, 2)", "F IN (1.5E0, 2)",
        "I IN (1, 2) AND S LIKE 'b%' OR N IS NULL"}) {
    ExpectOracle(p);
    ExpectOracle(p, "E");
  }
}

// --- UPDATE / DELETE through the filter --------------------------------------

TEST_F(VdbMaskOracleTest, UpdateSkipsRowsWherePredicateIsNull) {
  auto before = Must("SELECT * FROM T ORDER BY K").rows;
  auto hits = Keys("SELECT K FROM T WHERE CASE WHEN I > 1 THEN 1 ELSE 0 END "
                   "= 1 ORDER BY K");
  ASSERT_FALSE(hits.empty());
  auto u = Must("UPDATE T SET I2 = 99 WHERE I > 1");
  EXPECT_EQ(u.affected_rows, static_cast<int64_t>(hits.size()));
  // The next read sees the assigned column on exactly the matched rows and
  // every other column unchanged.
  auto after = Must("SELECT * FROM T ORDER BY K").rows;
  ASSERT_EQ(after.size(), before.size());
  for (size_t r = 0; r < after.size(); ++r) {
    const bool hit = std::find(hits.begin(), hits.end(),
                               before[r][0].int_val()) != hits.end();
    for (size_t c = 0; c < after[r].size(); ++c) {
      if (c == 2 && hit) {
        EXPECT_EQ(after[r][c].ToString(), "99") << "row " << r;
      } else {
        EXPECT_EQ(after[r][c].ToString(), before[r][c].ToString())
            << "row " << r << " column " << c;
      }
    }
  }
  // Later statements filter the published snapshot, including the new
  // values.
  EXPECT_EQ(Keys("SELECT K FROM T WHERE I2 = 99 ORDER BY K"), hits);
}

TEST_F(VdbMaskOracleTest, UpdateAssignmentsReadTheOldRow) {
  auto before = Must("SELECT I, I2, K FROM T ORDER BY K").rows;
  auto u = Must("UPDATE T SET I = I2, I2 = I WHERE K >= 0");
  EXPECT_EQ(u.affected_rows, 24);
  auto after = Must("SELECT I, I2, K FROM T ORDER BY K").rows;
  ASSERT_EQ(after.size(), before.size());
  for (size_t r = 0; r < after.size(); ++r) {
    EXPECT_EQ(after[r][0].ToString(), before[r][1].ToString());
    EXPECT_EQ(after[r][1].ToString(), before[r][0].ToString());
  }
}

TEST_F(VdbMaskOracleTest, FailedUpdateLeavesTheTableUntouched) {
  auto before = Must("SELECT * FROM T ORDER BY K").rows;
  EXPECT_FALSE(engine_.Execute("UPDATE T SET I2 = 0, I = 1 / (K - 5)").ok());
  auto after = Must("SELECT * FROM T ORDER BY K").rows;
  ASSERT_EQ(after.size(), before.size());
  for (size_t r = 0; r < after.size(); ++r) {
    for (size_t c = 0; c < after[r].size(); ++c) {
      EXPECT_EQ(after[r][c].ToString(), before[r][c].ToString());
    }
  }
}

TEST_F(VdbMaskOracleTest, DeleteThenReadKeepsRowsWherePredicateIsNotTrue) {
  auto kept = Keys("SELECT K FROM T WHERE NOT (CASE WHEN D >= 2.00 THEN 1 "
                   "ELSE 0 END = 1) ORDER BY K");
  auto d = Must("DELETE FROM T WHERE D >= 2.00");
  EXPECT_EQ(d.affected_rows, static_cast<int64_t>(24 - kept.size()));
  EXPECT_EQ(Keys("SELECT K FROM T ORDER BY K"), kept);
  // Rows with a NULL D survive and keep their other columns.
  auto r = Must("SELECT K, S FROM T WHERE D IS NULL ORDER BY K").rows;
  EXPECT_FALSE(r.empty());
  // An INSERT after the DELETE is seen with every kept row.
  Must("INSERT INTO T (K, D) VALUES (100, 9.99)");
  kept.push_back(100);
  EXPECT_EQ(Keys("SELECT K FROM T ORDER BY K"), kept);
  EXPECT_EQ(Must("DELETE FROM T").affected_rows,
            static_cast<int64_t>(kept.size()));
  EXPECT_TRUE(Keys("SELECT K FROM T").empty());
  EXPECT_EQ(Must("DELETE FROM T WHERE I = 1").affected_rows, 0);
}

TEST_F(VdbMaskOracleTest, ResultFetchedBeforeWritesKeepsOldValues) {
  auto held = engine_.Execute("SELECT K, I2, S FROM T");
  ASSERT_TRUE(held.ok()) << held.status();
  const auto old_rows = ResultRows(*held);
  Must("UPDATE T SET I2 = 7, S = 'new' WHERE K < 12");
  Must("DELETE FROM T WHERE K >= 20");
  // The held chunks alias the pre-write columns, which no write mutates.
  const auto rows = ResultRows(*held);
  ASSERT_EQ(rows.size(), old_rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < rows[r].size(); ++c) {
      EXPECT_EQ(rows[r][c].ToString(), old_rows[r][c].ToString());
    }
  }
  EXPECT_EQ(Keys("SELECT K FROM T WHERE S = 'new' ORDER BY K").size(), 12u);
  EXPECT_EQ(Keys("SELECT K FROM T").size(), 20u);
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
