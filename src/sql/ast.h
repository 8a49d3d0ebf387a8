// Abstract syntax tree shared by the SQL parsers in this repository.
//
// Mirroring the paper's Figure 4, the tree mixes *generic* nodes covering
// ANSI constructs (select blocks, joins, comparisons, subqueries) with
// *vendor-specific* nodes for the Teradata-ish source dialect (QUALIFY,
// argument-ordered RANK, named-expression reuse is resolved later by the
// binder, etc.). The parser (sql/parser.h) is parameterized by a Dialect so
// the same machinery serves both the SQL-A frontend and the target engine's
// ANSI surface; vendor constructs are rejected when the dialect does not
// enable them.

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "types/datum.h"
#include "types/type.h"

namespace hyperq::sql {

struct Expr;
struct SelectStmt;
using ExprPtr = std::unique_ptr<Expr>;

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind : uint8_t {
  kConst,        // literal
  kIdent,        // possibly qualified column reference
  kStar,         // * or alias.*
  kParam,        // :name (macro parameter)
  kUnary,        // -x, NOT x
  kBinary,       // arithmetic / comparison / AND / OR / concat
  kFunc,         // function call, possibly aggregate
  kCast,         // CAST(x AS type)
  kCase,         // simple or searched CASE
  kWindow,       // window function (ANSI OVER or Teradata argument-ordered)
  kScalarSubq,   // (SELECT ...)
  kExistsSubq,   // EXISTS (SELECT ...)
  kQuantified,   // <row> op ANY/ALL (subquery); row may be a vector
  kInPred,       // x [NOT] IN (list | subquery)
  kBetween,      // x [NOT] BETWEEN a AND b
  kIsNull,       // x IS [NOT] NULL
  kLike,         // x [NOT] LIKE pattern
  kExtract,      // EXTRACT(field FROM x)
};

enum class UnaryOp : uint8_t { kNeg, kNot, kPlus };

enum class BinaryOp : uint8_t {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kConcat,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

const char* BinaryOpName(BinaryOp op);   // "+", "=", "AND", ...
bool IsComparisonOp(BinaryOp op);

enum class SubqQuantifier : uint8_t { kAny, kAll };

/// Sort order entry used by ORDER BY and window specifications.
struct OrderItem {
  ExprPtr expr;
  bool descending = false;
  /// SQL NULLS FIRST/LAST; unset means dialect default (Teradata sorts NULLs
  /// first ascending, the paper calls the difference out as a silent-defect
  /// class).
  std::optional<bool> nulls_first;
};

struct WindowSpec {
  std::vector<ExprPtr> partition_by;
  std::vector<OrderItem> order_by;
};

/// \brief One AST expression node (fat tagged struct; only the fields for
/// its kind are meaningful).
struct Expr {
  ExprKind kind;

  // kConst
  Datum value;
  SqlType const_type;
  /// Byte offset in the parsed text of the literal token this constant was
  /// built from (sql::ExtractedLiteral::offset); -1 for keywords (NULL,
  /// TRUE), INTERVAL values and constants a rewrite builds.
  int literal_offset = -1;

  // kIdent / kStar qualifier / kParam name / kFunc name / kExtract field
  std::vector<std::string> name_parts;
  std::string func_name;

  // kUnary / kBinary
  UnaryOp uop = UnaryOp::kNeg;
  BinaryOp bop = BinaryOp::kAdd;

  /// Children: operands for kUnary/kBinary (1/2), arguments for kFunc and
  /// kWindow, row elements for kQuantified, [value, low, high] for kBetween,
  /// [value, list items...] for kInPred, [value, pattern (, escape)] for
  /// kLike, [operand] for kExtract / kIsNull / kCast / kScalarSubq wrapper.
  std::vector<ExprPtr> children;

  // kFunc / kWindow
  bool distinct_arg = false;  // e.g. COUNT(DISTINCT x)

  // kCast
  SqlType cast_type;

  // kCase: operand (optional) + when/then pairs + else
  ExprPtr case_operand;
  std::vector<std::pair<ExprPtr, ExprPtr>> when_then;
  ExprPtr else_expr;

  // kWindow
  WindowSpec window;
  /// Teradata argument-ordered form, e.g. RANK(AMOUNT DESC): the ordering
  /// lives in the arguments, there is no OVER clause in the source text.
  bool td_ordered_analytic = false;

  // kScalarSubq / kExistsSubq / kQuantified / kInPred subquery form
  std::unique_ptr<SelectStmt> subquery;

  // kQuantified
  BinaryOp quant_cmp = BinaryOp::kEq;
  SubqQuantifier quantifier = SubqQuantifier::kAny;

  // kInPred / kBetween / kIsNull / kLike
  bool negated = false;

  Expr() : kind(ExprKind::kConst) {}
  explicit Expr(ExprKind k) : kind(k) {}

  /// Deep copy (used by rewrites that duplicate subtrees).
  ExprPtr Clone() const;
};

// Convenience builders used by parsers, rewrites and tests.
ExprPtr MakeConst(Datum value, SqlType type);
ExprPtr MakeIntConst(int64_t v);
ExprPtr MakeStringConst(std::string v);
ExprPtr MakeIdent(std::vector<std::string> parts);
ExprPtr MakeBinary(BinaryOp op, ExprPtr left, ExprPtr right);
ExprPtr MakeUnary(UnaryOp op, ExprPtr operand);
ExprPtr MakeFunc(std::string name, std::vector<ExprPtr> args);

// ---------------------------------------------------------------------------
// Query structure
// ---------------------------------------------------------------------------

enum class JoinType : uint8_t { kInner, kLeft, kRight, kFull, kCross };

struct TableRef;
using TableRefPtr = std::unique_ptr<TableRef>;

/// \brief FROM-clause item: base table, derived table, or join tree.
struct TableRef {
  enum class Kind : uint8_t { kBaseTable, kDerived, kJoin } kind;

  // kBaseTable
  std::string table_name;  // possibly qualified "db.t"; catalog normalizes

  // kBaseTable / kDerived
  std::string alias;
  std::vector<std::string> column_aliases;  // derived-table column list

  // kDerived
  std::unique_ptr<SelectStmt> derived;

  // kJoin
  JoinType join_type = JoinType::kInner;
  TableRefPtr left;
  TableRefPtr right;
  ExprPtr join_condition;  // null for CROSS JOIN

  TableRef() : kind(Kind::kBaseTable) {}
  explicit TableRef(Kind k) : kind(k) {}
  TableRefPtr Clone() const;
};

struct SelectItem {
  ExprPtr expr;  // null for a bare star
  std::string alias;
  bool is_star = false;
  std::string star_qualifier;  // "t.*"
};

enum class GroupByKind : uint8_t { kPlain, kRollup, kCube, kGroupingSets };

struct GroupByClause {
  GroupByKind kind = GroupByKind::kPlain;
  /// Plain/rollup/cube items; for ROLLUP(a,b) these are [a,b]. Ordinals
  /// (GROUP BY 1,2) arrive as integer constants and are resolved by the
  /// binder.
  std::vector<ExprPtr> items;
  /// kGroupingSets only.
  std::vector<std::vector<ExprPtr>> sets;
  bool empty() const { return items.empty() && sets.empty(); }
};

/// \brief One SELECT block (the paper's ansi_select + optional td_qualify).
struct QueryBlock {
  bool distinct = false;
  /// Teradata TOP n [WITH TIES]; -1 = absent.
  int64_t top_n = -1;
  int top_offset = -1;  // byte offset of the n token (cf. literal_offset)
  bool top_with_ties = false;
  std::vector<SelectItem> select_list;
  std::vector<TableRefPtr> from;
  ExprPtr where;
  GroupByClause group_by;
  ExprPtr having;
  /// Teradata-specific QUALIFY clause (td_qualify node in Figure 4).
  ExprPtr qualify;
};

struct CommonTableExpr {
  std::string name;
  std::vector<std::string> column_names;
  std::unique_ptr<SelectStmt> query;
};

enum class SetOpKind : uint8_t { kNone, kUnion, kUnionAll, kIntersect, kExcept };

/// \brief A full query expression: WITH + block/set-op tree + ORDER BY/LIMIT.
struct SelectStmt {
  bool with_recursive = false;
  std::vector<CommonTableExpr> with;

  /// Either a leaf block, or a set operation over two children.
  std::unique_ptr<QueryBlock> block;
  SetOpKind set_op = SetOpKind::kNone;
  std::unique_ptr<SelectStmt> set_left;
  std::unique_ptr<SelectStmt> set_right;

  std::vector<OrderItem> order_by;
  int64_t limit = -1;  // ANSI LIMIT / serialized form of TOP
  int limit_offset = -1;  // byte offset of the n token (cf. literal_offset)

  std::unique_ptr<SelectStmt> Clone() const;
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind : uint8_t {
  kSelect,
  kInsert,
  kUpdate,
  kDelete,
  kMerge,
  kCreateTable,
  kDropTable,
  kCreateView,
  kReplaceView,
  kDropView,
  kCreateMacro,
  kDropMacro,
  kExecMacro,
  kHelp,
  kCollectStats,
  kSetSession,
  kBeginTxn,
  kEndTxn,
  kCommit,
  kRollback,
};

struct Statement {
  explicit Statement(StmtKind k) : kind(k) {}
  virtual ~Statement() = default;
  StmtKind kind;

  template <typename T>
  T* As() {
    return static_cast<T*>(this);
  }
  template <typename T>
  const T* As() const {
    return static_cast<const T*>(this);
  }
};

using StatementPtr = std::unique_ptr<Statement>;

struct SelectStatement : Statement {
  SelectStatement() : Statement(StmtKind::kSelect) {}
  std::unique_ptr<SelectStmt> query;
};

struct InsertStatement : Statement {
  InsertStatement() : Statement(StmtKind::kInsert) {}
  std::string table;
  std::vector<std::string> columns;  // empty = all, in table order
  /// Either literal rows or a source query.
  std::vector<std::vector<ExprPtr>> values_rows;
  std::unique_ptr<SelectStmt> source;
};

struct UpdateStatement : Statement {
  UpdateStatement() : Statement(StmtKind::kUpdate) {}
  std::string table;
  std::string alias;
  std::vector<std::pair<std::string, ExprPtr>> assignments;
  ExprPtr where;
};

struct DeleteStatement : Statement {
  DeleteStatement() : Statement(StmtKind::kDelete) {}
  std::string table;
  ExprPtr where;  // null = DELETE ALL
};

struct MergeStatement : Statement {
  MergeStatement() : Statement(StmtKind::kMerge) {}
  std::string target;
  std::string target_alias;
  TableRefPtr source;  // table or derived with alias
  ExprPtr on_condition;
  // WHEN MATCHED THEN UPDATE SET ...
  bool has_matched_update = false;
  std::vector<std::pair<std::string, ExprPtr>> update_assignments;
  // WHEN NOT MATCHED THEN INSERT [(...)] VALUES (...)
  bool has_not_matched_insert = false;
  std::vector<std::string> insert_columns;
  std::vector<ExprPtr> insert_values;
};

struct ColumnDefAst {
  std::string name;
  SqlType type;
  bool not_null = false;
  bool case_specific = false;   // Teradata CASESPECIFIC
  bool not_case_specific = false;
  ExprPtr default_expr;
};

struct CreateTableStatement : Statement {
  CreateTableStatement() : Statement(StmtKind::kCreateTable) {}
  std::string table;
  bool set_semantics = false;        // Teradata SET (vs MULTISET)
  bool multiset_explicit = false;
  bool global_temporary = false;
  bool volatile_table = false;
  std::vector<ColumnDefAst> columns;
  std::vector<std::string> primary_index;  // Teradata PRIMARY INDEX (cols)
  std::unique_ptr<SelectStmt> as_select;   // CREATE TABLE ... AS (SELECT ...)
  bool with_data = true;
};

struct DropTableStatement : Statement {
  DropTableStatement() : Statement(StmtKind::kDropTable) {}
  std::string table;
  bool if_exists = false;
};

struct CreateViewStatement : Statement {
  explicit CreateViewStatement(bool replace)
      : Statement(replace ? StmtKind::kReplaceView : StmtKind::kCreateView) {}
  std::string view;
  std::vector<std::string> columns;
  std::unique_ptr<SelectStmt> query;
  std::string query_sql;  // original body text, kept for the catalog
};

struct DropViewStatement : Statement {
  DropViewStatement() : Statement(StmtKind::kDropView) {}
  std::string view;
};

struct CreateMacroStatement : Statement {
  CreateMacroStatement() : Statement(StmtKind::kCreateMacro) {}
  std::string macro;
  struct Param {
    std::string name;
    SqlType type;
    std::string default_literal;
    bool has_default = false;
  };
  std::vector<Param> params;
  std::vector<std::string> body_statements;  // raw SQL-A texts
};

struct DropMacroStatement : Statement {
  DropMacroStatement() : Statement(StmtKind::kDropMacro) {}
  std::string macro;
};

struct ExecMacroStatement : Statement {
  ExecMacroStatement() : Statement(StmtKind::kExecMacro) {}
  std::string macro;
  std::vector<ExprPtr> positional_args;
  std::vector<std::pair<std::string, ExprPtr>> named_args;
};

struct HelpStatement : Statement {
  HelpStatement() : Statement(StmtKind::kHelp) {}
  enum class Topic : uint8_t { kSession, kTable, kDatabase } topic =
      Topic::kSession;
  std::string object;  // for HELP TABLE <object>
};

struct CollectStatsStatement : Statement {
  CollectStatsStatement() : Statement(StmtKind::kCollectStats) {}
  std::string table;
  std::vector<std::string> columns;
};

struct SetSessionStatement : Statement {
  SetSessionStatement() : Statement(StmtKind::kSetSession) {}
  std::string property;  // e.g. "DATABASE", "CHARSET"
  std::string value;
};

struct SimpleStatement : Statement {
  explicit SimpleStatement(StmtKind k) : Statement(k) {}
};

}  // namespace hyperq::sql
