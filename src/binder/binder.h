// The Algebrizer's second phase (paper §4.2 / §5.2): binding a dialect AST
// into XTRA. Name resolution and type derivation happen here, together with
// the binding-time rewrites the paper assigns to this stage (Table 2):
//
//   * implicit-join expansion      — tables referenced but not in FROM
//   * chained projections          — named expressions reused in the block
//   * ordinal GROUP BY / ORDER BY  — positions replaced by expressions
//   * QUALIFY lowering             — window computation + post-window filter
//   * view expansion and DML-on-views rewriting
//   * built-in renames             — CHARS -> LENGTH, ZEROIFNULL -> COALESCE
//
// Backend-independent *transformations* (e.g. date-integer comparison
// expansion) run after binding via transform::Transformer — see
// transform/transformer.h — mirroring the paper's separation.

#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/features.h"
#include "common/result.h"
#include "sql/ast.h"
#include "sql/parser.h"
#include "xtra/xtra.h"

namespace hyperq::binder {

/// First column id handed to transformer rules. The binder numbers from 1,
/// so ids a rewrite allocates from here on never collide with bound ones;
/// the value is visible in SQL-B names such as R_1000001.
inline constexpr int kFirstRewriteColId = 1000001;

/// \brief Allocates column ids unique within one query tree.
class ColIdGenerator {
 public:
  explicit ColIdGenerator(int first = 1) : next_(first) {}

  int Next() { return next_++; }
  int current() const { return next_; }

 private:
  int next_;
};

/// \brief Binds ASTs of the source dialect into XTRA.
///
/// One Binder instance per statement; tracked-feature usage accumulates in
/// features() for the Figure 8 instrumentation.
class Binder {
 public:
  Binder(const Catalog* catalog, sql::Dialect dialect);

  /// \brief Binds a SELECT / INSERT / UPDATE / DELETE statement. DDL and
  /// commands (HELP, EXEC, MERGE) are handled above the binder by the
  /// service/emulation layers.
  Result<xtra::OpPtr> BindStatement(const sql::Statement& stmt);

  /// \brief Binds a bare query expression.
  Result<xtra::OpPtr> BindSelect(const sql::SelectStmt& stmt);

  const FeatureSet& features() const { return features_; }
  FeatureSet* mutable_features() { return &features_; }

 private:
  struct ScopeColumn {
    std::string qualifier;  // table alias (upper-cased)
    std::string name;       // column name (upper-cased)
    std::string display;    // original-case display name
    int id;
    SqlType type;
  };

  struct Scope {
    Scope* parent = nullptr;
    std::vector<ScopeColumn> columns;
    /// Select-list aliases usable by later expressions in the same block
    /// (Teradata chained projections). Values are owned by the block state.
    std::map<std::string, const xtra::Expr*> named;
  };

  // Per-SELECT-block transient state.
  struct BlockState {
    std::vector<xtra::WindowItem> pending_windows;
    bool saw_agg = false;
  };

  struct CteDef {
    const sql::CommonTableExpr* ast;
    bool recursive = false;
    // For recursive CTEs: schema fixed by the seed branch.
    std::vector<xtra::ColumnInfo> schema;
  };

  Result<xtra::OpPtr> BindQueryExpr(const sql::SelectStmt& stmt, Scope* outer);
  /// The set operation or block of `stmt`, without its WITH clause.
  Result<xtra::OpPtr> BindQueryBody(const sql::SelectStmt& stmt, Scope* outer);
  Result<xtra::OpPtr> BindRecursive(const sql::SelectStmt& stmt, Scope* outer);
  Result<xtra::OpPtr> BindBlock(const sql::QueryBlock& block,
                                const sql::SelectStmt& enclosing,
                                Scope* outer);

  Result<xtra::OpPtr> BindTableRef(const sql::TableRef& ref, Scope* scope,
                                   Scope* outer);
  Result<xtra::OpPtr> BindBaseTable(const std::string& name,
                                    const std::string& alias, Scope* scope);

  Result<xtra::ExprPtr> BindExpr(const sql::Expr& e, Scope* scope,
                                 BlockState* block);
  Result<xtra::ExprPtr> BindIdent(const sql::Expr& e, Scope* scope);
  Result<xtra::ExprPtr> BindFunc(const sql::Expr& e, Scope* scope,
                                 BlockState* block);
  Result<xtra::ExprPtr> BindWindow(const sql::Expr& e, Scope* scope,
                                   BlockState* block);
  Result<xtra::ExprPtr> BindBinary(const sql::Expr& e, Scope* scope,
                                   BlockState* block);

  Result<xtra::OpPtr> BindInsert(const sql::InsertStatement& stmt);
  Result<xtra::OpPtr> BindUpdate(const sql::UpdateStatement& stmt);
  Result<xtra::OpPtr> BindDelete(const sql::DeleteStatement& stmt);

  // Rewrites DML against an updatable view into DML on its base table.
  Result<const TableDef*> ResolveDmlTarget(const std::string& name,
                                           std::string* resolved);

  /// Implicit-join expansion: the catalog tables a block's qualified
  /// references name but its FROM does not, in first-reference order.
  /// Empty unless the dialect allows implicit joins.
  std::vector<std::string> ImplicitJoinTables(const sql::QueryBlock& block);

  /// `offset` when the literal comes from the statement's own SQL-A, else
  /// -1: view bodies and column defaults are parsed from catalog text, so
  /// their literal offsets do not point into the statement.
  int OwnLiteral(int offset) const {
    return view_depth_ == 0 && !binding_default_ ? offset : -1;
  }

  const Catalog* catalog_;
  sql::Dialect dialect_;
  ColIdGenerator ids_;
  FeatureSet features_;
  std::map<std::string, CteDef> ctes_;  // visible CTEs by upper name
  std::set<int> ci_columns_;  // col ids of NOT CASESPECIFIC columns
  int view_depth_ = 0;
  bool binding_default_ = false;  // inside BindInsert's default expansion
};

}  // namespace hyperq::binder
