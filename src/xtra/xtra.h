// XTRA — eXtended Relational Algebra, the language-agnostic query
// representation at the heart of Hyper-Q (paper §4.2).
//
// The binder turns dialect ASTs into XTRA; the Transformer rewrites XTRA to
// XTRA; per-backend Serializers turn XTRA into target SQL text. XTRA builds
// on a uniform algebraic model: every operator's output is a function of its
// inputs and its own type, and every scalar expression carries a derived
// SqlType.
//
// Columns are identified by integer ids unique within one query tree
// (allocated by the binder's ColIdGenerator), so rewrites never have to
// re-resolve names.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "types/datum.h"
#include "types/type.h"

namespace hyperq::xtra {

struct Expr;
struct Op;
using ExprPtr = std::unique_ptr<Expr>;
using OpPtr = std::unique_ptr<Op>;

// ---------------------------------------------------------------------------
// Scalar expressions
// ---------------------------------------------------------------------------

enum class ExprKind : uint8_t {
  kColRef,     // resolved column reference
  kConst,      // literal
  kArith,      // + - * / MOD ||
  kComp,       // = <> < <= > >=
  kBool,       // AND / OR over n children
  kNot,
  kFunc,       // scalar function call
  kAgg,        // aggregate call (only inside Aggregate op items)
  kCast,
  kCase,
  kIsNull,     // IS [NOT] NULL
  kLike,       // [NOT] LIKE
  kInList,     // [NOT] IN (e1, ..., en)
  kExtract,    // EXTRACT(field FROM x)
  kSubqScalar,     // scalar subquery (plan child)
  kSubqExists,     // [NOT] EXISTS (plan child)
  kSubqQuantified, // <row> cmp ANY/ALL (plan child)
  kSubqIn,         // <value> [NOT] IN (plan child)
};

enum class ArithKind : uint8_t { kAdd, kSub, kMul, kDiv, kMod, kConcat };
enum class CompKind : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };
enum class BoolKind : uint8_t { kAnd, kOr };
enum class Quantifier : uint8_t { kAny, kAll };

const char* ArithKindName(ArithKind k);   // "+", "-", ...
const char* CompKindName(CompKind k);     // "EQ", "GT", ... (printer style)
const char* CompKindSql(CompKind k);      // "=", ">", ... (serializer style)
CompKind NegateComp(CompKind k);          // for NOT pushdown
CompKind SwapComp(CompKind k);            // a<b  <=>  b>a

/// \brief One XTRA scalar expression node (fat tagged struct).
struct Expr {
  ExprKind kind;
  SqlType type;  // derived result type

  // kColRef
  int col_id = -1;
  std::string col_name;  // display name, not used for resolution

  // kConst
  Datum value;
  /// SQL-A byte offset of the literal this constant was bound from
  /// (sql::Expr::literal_offset); -1 for constants a rule builds or folds.
  /// The serializer reports where tagged constants land in SQL-B, which is
  /// how the translation cache maps each literal to its site.
  int literal_offset = -1;

  // kArith / kComp / kBool
  ArithKind arith = ArithKind::kAdd;
  CompKind comp = CompKind::kEq;
  BoolKind boolk = BoolKind::kAnd;

  // kFunc / kAgg / kExtract field
  std::string func_name;
  bool distinct_arg = false;  // kAgg

  // kLike / kIsNull / kInList / kSubqExists / kSubqIn
  bool negated = false;

  // Children (operands / arguments / IN-list items / quantified row).
  std::vector<ExprPtr> children;

  // kCase
  std::vector<std::pair<ExprPtr, ExprPtr>> when_then;
  ExprPtr else_expr;

  // Subquery kinds: the subplan.
  OpPtr subplan;
  CompKind quant_cmp = CompKind::kEq;
  Quantifier quantifier = Quantifier::kAny;

  explicit Expr(ExprKind k) : kind(k) {}
  ExprPtr Clone() const;
};

ExprPtr ColRef(int id, std::string name, SqlType type);
ExprPtr Const(Datum v, SqlType type);
ExprPtr IntConst(int64_t v);
ExprPtr StrConst(std::string v);
ExprPtr Arith(ArithKind k, ExprPtr l, ExprPtr r);
ExprPtr Comp(CompKind k, ExprPtr l, ExprPtr r);
ExprPtr BoolOp(BoolKind k, std::vector<ExprPtr> children);
ExprPtr Not(ExprPtr c);
ExprPtr Func(std::string name, std::vector<ExprPtr> args, SqlType type);

/// \brief AND of the given conjuncts (returns the single conjunct as-is,
/// nullptr for empty input).
ExprPtr Conjoin(std::vector<ExprPtr> conjuncts);

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

enum class OpKind : uint8_t {
  kGet,          // base table scan
  kValues,       // literal rows
  kSelect,       // filter
  kProject,      // compute/remap columns
  kWindow,       // compute window function columns
  kAggregate,    // group by + aggregates
  kJoin,
  kSetOp,
  kSort,
  kLimit,
  kCteRef,       // reference to a named CTE (recursive emulation keeps these)
  kRecursiveCte, // WITH RECURSIVE wrapper: seed + recursive + main
  kInsert,
  kUpdate,
  kDelete,
};

enum class JoinKind : uint8_t { kInner, kLeft, kRight, kFull, kCross };
enum class SetOpKind : uint8_t { kUnion, kUnionAll, kIntersect, kExcept };

/// \brief A column produced by an operator.
struct ColumnInfo {
  int id = -1;
  std::string name;
  SqlType type;
};

/// \brief Projection item: expression bound to an output column id.
struct ProjectItem {
  ExprPtr expr;
  int out_id = -1;
  std::string name;
};

/// \brief A window-function computation inside a Window operator.
struct WindowItem {
  std::string func;            // RANK / ROW_NUMBER / SUM / AVG / ...
  std::vector<ExprPtr> args;
  std::vector<ExprPtr> partition_by;
  struct Order {
    ExprPtr expr;
    bool descending = false;
    std::optional<bool> nulls_first;
  };
  std::vector<Order> order_by;
  int out_id = -1;
  std::string name;
  SqlType type;
};

/// \brief Aggregate computation inside an Aggregate operator.
struct AggItem {
  std::string func;  // SUM / COUNT / AVG / MIN / MAX; COUNT with no arg = *
  ExprPtr arg;       // null for COUNT(*)
  bool distinct = false;
  int out_id = -1;
  std::string name;
  SqlType type;
};

struct SortItem {
  ExprPtr expr;
  bool descending = false;
  std::optional<bool> nulls_first;
};

/// \brief One XTRA operator node (fat tagged struct).
struct Op {
  OpKind kind;
  std::vector<OpPtr> children;

  /// Output schema; filled by the binder and kept consistent by rewrites.
  std::vector<ColumnInfo> output;

  // kGet
  std::string table_name;
  std::string alias;  // display alias, e.g. 'S2' in the paper's Figure 6

  // kValues
  std::vector<std::vector<ExprPtr>> rows;

  // kSelect / kJoin predicate / kUpdate / kDelete predicate
  ExprPtr predicate;

  // kProject
  std::vector<ProjectItem> projections;
  bool project_distinct = false;  // SELECT DISTINCT

  // kWindow
  std::vector<WindowItem> windows;

  // kAggregate
  std::vector<ExprPtr> group_by;  // grouping expressions
  std::vector<AggItem> aggregates;
  /// Optional grouping sets over indexes into group_by (ROLLUP/CUBE
  /// normalize to this; targets without support get a UNION ALL expansion
  /// from the transformer).
  std::vector<std::vector<int>> grouping_sets;

  // kJoin
  JoinKind join_kind = JoinKind::kInner;

  // kSetOp
  SetOpKind setop_kind = SetOpKind::kUnionAll;

  // kSort
  std::vector<SortItem> sort_items;

  // kLimit
  int64_t limit_count = -1;
  int limit_offset = -1;  // SQL-A offset of the n literal (cf. Expr)
  bool with_ties = false;

  // kCteRef / kRecursiveCte
  std::string cte_name;
  std::vector<std::string> cte_columns;

  // kInsert / kUpdate / kDelete
  std::string target_table;
  std::vector<std::string> target_columns;            // kInsert
  std::vector<std::pair<std::string, ExprPtr>> assignments;  // kUpdate
  /// kUpdate/kDelete: the column ids the binder assigned to the target
  /// table's columns (in table order); the executor binds them to row slots.
  std::vector<int> target_col_ids;

  // kSelect marker: true when this filter must run *after* window
  // computation (a lowered QUALIFY); serializers wrap it in a derived table.
  bool post_window_filter = false;

  explicit Op(OpKind k) : kind(k) {}
  OpPtr Clone() const;

  /// \brief Looks up an output column by id; nullptr when absent.
  const ColumnInfo* FindOutput(int id) const;
};

OpPtr Get(std::string table, std::vector<ColumnInfo> cols,
          std::string alias = "");
OpPtr Select(OpPtr child, ExprPtr predicate);
OpPtr Project(OpPtr child, std::vector<ProjectItem> items);

// ---------------------------------------------------------------------------
// Tree printing (matches the paper's Figures 5/6 dump style)
// ---------------------------------------------------------------------------

/// \brief Renders the operator tree in the paper's dump format, e.g.
///
///   +-select
///   |-window(RANK , DESC , AMOUNT)
///   | +-select ...
///   +-comp(LTE) ...
std::string ToTreeString(const Op& op);
std::string ToTreeString(const Expr& expr);

/// \brief Walks all expressions of an operator tree (pre-order); the visitor
/// may return false to stop.
void VisitExprs(const Op& op, const std::function<bool(const Expr&)>& fn);

/// \brief Structural equality of scalar expressions. Subquery expressions
/// never compare equal (each subplan is unique).
bool ExprEquals(const Expr& a, const Expr& b);

}  // namespace hyperq::xtra
