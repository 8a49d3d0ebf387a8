#include "sql/ast.h"

namespace hyperq::sql {

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "MOD";
    case BinaryOp::kConcat:
      return "||";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
  }
  return "?";
}

bool IsComparisonOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

namespace {
std::vector<ExprPtr> CloneAll(const std::vector<ExprPtr>& in) {
  std::vector<ExprPtr> out;
  out.reserve(in.size());
  for (const auto& e : in) out.push_back(e ? e->Clone() : nullptr);
  return out;
}

std::vector<OrderItem> CloneOrder(const std::vector<OrderItem>& in) {
  std::vector<OrderItem> out;
  out.reserve(in.size());
  for (const auto& o : in) {
    OrderItem c;
    c.expr = o.expr ? o.expr->Clone() : nullptr;
    c.descending = o.descending;
    c.nulls_first = o.nulls_first;
    out.push_back(std::move(c));
  }
  return out;
}
}  // namespace

ExprPtr Expr::Clone() const {
  auto c = std::make_unique<Expr>(kind);
  c->value = value;
  c->const_type = const_type;
  c->literal_offset = literal_offset;
  c->name_parts = name_parts;
  c->func_name = func_name;
  c->uop = uop;
  c->bop = bop;
  c->children = CloneAll(children);
  c->distinct_arg = distinct_arg;
  c->cast_type = cast_type;
  if (case_operand) c->case_operand = case_operand->Clone();
  for (const auto& [w, t] : when_then) {
    c->when_then.emplace_back(w ? w->Clone() : nullptr,
                              t ? t->Clone() : nullptr);
  }
  if (else_expr) c->else_expr = else_expr->Clone();
  c->window.partition_by = CloneAll(window.partition_by);
  c->window.order_by = CloneOrder(window.order_by);
  c->td_ordered_analytic = td_ordered_analytic;
  if (subquery) c->subquery = subquery->Clone();
  c->quant_cmp = quant_cmp;
  c->quantifier = quantifier;
  c->negated = negated;
  return c;
}

TableRefPtr TableRef::Clone() const {
  auto c = std::make_unique<TableRef>(kind);
  c->table_name = table_name;
  c->alias = alias;
  c->column_aliases = column_aliases;
  if (derived) c->derived = derived->Clone();
  c->join_type = join_type;
  if (left) c->left = left->Clone();
  if (right) c->right = right->Clone();
  if (join_condition) c->join_condition = join_condition->Clone();
  return c;
}

namespace {
std::unique_ptr<QueryBlock> CloneBlock(const QueryBlock& b) {
  auto c = std::make_unique<QueryBlock>();
  c->distinct = b.distinct;
  c->top_n = b.top_n;
  c->top_offset = b.top_offset;
  c->top_with_ties = b.top_with_ties;
  for (const auto& item : b.select_list) {
    SelectItem si;
    si.expr = item.expr ? item.expr->Clone() : nullptr;
    si.alias = item.alias;
    si.is_star = item.is_star;
    si.star_qualifier = item.star_qualifier;
    c->select_list.push_back(std::move(si));
  }
  for (const auto& t : b.from) c->from.push_back(t->Clone());
  if (b.where) c->where = b.where->Clone();
  c->group_by.kind = b.group_by.kind;
  c->group_by.items = CloneAll(b.group_by.items);
  for (const auto& set : b.group_by.sets) {
    c->group_by.sets.push_back(CloneAll(set));
  }
  if (b.having) c->having = b.having->Clone();
  if (b.qualify) c->qualify = b.qualify->Clone();
  return c;
}
}  // namespace

std::unique_ptr<SelectStmt> SelectStmt::Clone() const {
  auto c = std::make_unique<SelectStmt>();
  c->with_recursive = with_recursive;
  for (const auto& cte : with) {
    CommonTableExpr cc;
    cc.name = cte.name;
    cc.column_names = cte.column_names;
    cc.query = cte.query->Clone();
    c->with.push_back(std::move(cc));
  }
  if (block) c->block = CloneBlock(*block);
  c->set_op = set_op;
  if (set_left) c->set_left = set_left->Clone();
  if (set_right) c->set_right = set_right->Clone();
  c->order_by = CloneOrder(order_by);
  c->limit = limit;
  c->limit_offset = limit_offset;
  return c;
}

ExprPtr MakeConst(Datum value, SqlType type) {
  auto e = std::make_unique<Expr>(ExprKind::kConst);
  e->value = std::move(value);
  e->const_type = type;
  return e;
}

ExprPtr MakeIntConst(int64_t v) {
  return MakeConst(Datum::Int(v), SqlType::Int());
}

ExprPtr MakeStringConst(std::string v) {
  auto len = static_cast<int32_t>(v.size());
  return MakeConst(Datum::String(std::move(v)), SqlType::Varchar(len));
}

ExprPtr MakeIdent(std::vector<std::string> parts) {
  auto e = std::make_unique<Expr>(ExprKind::kIdent);
  e->name_parts = std::move(parts);
  return e;
}

ExprPtr MakeBinary(BinaryOp op, ExprPtr left, ExprPtr right) {
  auto e = std::make_unique<Expr>(ExprKind::kBinary);
  e->bop = op;
  e->children.push_back(std::move(left));
  e->children.push_back(std::move(right));
  return e;
}

ExprPtr MakeUnary(UnaryOp op, ExprPtr operand) {
  auto e = std::make_unique<Expr>(ExprKind::kUnary);
  e->uop = op;
  e->children.push_back(std::move(operand));
  return e;
}

ExprPtr MakeFunc(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_unique<Expr>(ExprKind::kFunc);
  e->func_name = std::move(name);
  e->children = std::move(args);
  return e;
}

}  // namespace hyperq::sql
