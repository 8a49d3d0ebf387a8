// Dialect-parameterized recursive-descent SQL parser.
//
// One parser implementation covers both languages in the system:
//   * the Teradata-ish source dialect SQL-A (the Hyper-Q frontend plugin),
//     with SEL/INS/UPD/DEL abbreviations, QUALIFY, argument-ordered
//     analytics (RANK(x DESC)), TOP n, lax clause order, MERGE, macros,
//     PERIOD(DATE), SET/MULTISET DDL, HELP, COLLECT STATISTICS;
//   * the ANSI-ish target dialect SQL-B spoken by the vdb engine, which
//     rejects every vendor construct above (that rejection is what forces
//     Hyper-Q's rewrites to earn their keep).
//
// The Dialect struct is the feature switchboard; disabled features produce
// syntax errors exactly like a real target database would.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "sql/lexer.h"

namespace hyperq::sql {

/// \brief Language-surface switches distinguishing SQL-A from SQL-B.
struct Dialect {
  std::string name = "ansi";

  bool allow_keyword_abbrev = false;   // SEL / INS / UPD / DEL
  bool allow_qualify = false;          // QUALIFY clause
  bool allow_td_ordered_analytics = false;  // RANK(x DESC) without OVER
  bool allow_lax_clause_order = false; // ORDER BY before WHERE (Example 1)
  bool allow_top = false;              // TOP n [WITH TIES]
  bool allow_limit = true;             // LIMIT n
  bool allow_macros = false;           // CREATE MACRO / EXEC
  bool allow_td_ddl = false;           // SET/MULTISET, PRIMARY INDEX, ...
  bool allow_help = false;             // HELP SESSION / TABLE
  bool allow_merge = false;            // MERGE INTO
  bool allow_recursive_cte = false;    // WITH RECURSIVE
  bool allow_vector_subquery = false;  // (a,b) > ANY (SELECT ...)
  bool allow_period_type = false;      // PERIOD(DATE)
  bool allow_collect_stats = false;    // COLLECT STATISTICS
  bool allow_txn_shorthand = false;    // BT / ET
  bool allow_date_int_literal = false; // DATE column vs bare int comparisons
                                       // (a binder concern; kept for
                                       // documentation value)
  bool allow_grouping_extensions = true;  // ROLLUP/CUBE/GROUPING SETS
  bool allow_named_expr_reuse = false;    // chained projections (binder)
  bool allow_implicit_join = false;       // FROM-less table refs (binder)

  static Dialect Teradata();
  static Dialect Ansi();
};

/// \brief Parses a single statement (trailing ';' optional).
Result<StatementPtr> ParseStatement(const std::string& text,
                                    const Dialect& dialect);

/// \brief Parses a single statement from `tokens`, which must be
/// Tokenize(text): for a caller that has lexed the text already.
Result<StatementPtr> ParseStatement(const std::string& text,
                                    const std::vector<Token>& tokens,
                                    const Dialect& dialect);

/// \brief Parses a ';'-separated script.
Result<std::vector<StatementPtr>> ParseScript(const std::string& text,
                                              const Dialect& dialect);

/// \brief Splits a script into statement texts without parsing them
/// (respects quotes/comments); used by the macro machinery, which stores
/// bodies as raw SQL-A text.
Result<std::vector<std::string>> SplitStatements(const std::string& text);

/// \brief Parses a type name from SQL text, e.g. "DECIMAL(15,2)".
Result<SqlType> ParseTypeName(const std::string& text, const Dialect& dialect);

}  // namespace hyperq::sql
