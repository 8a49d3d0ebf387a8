#include "xtra/xtra.h"

namespace hyperq::xtra {

const char* ArithKindName(ArithKind k) {
  switch (k) {
    case ArithKind::kAdd:
      return "+";
    case ArithKind::kSub:
      return "-";
    case ArithKind::kMul:
      return "*";
    case ArithKind::kDiv:
      return "/";
    case ArithKind::kMod:
      return "MOD";
    case ArithKind::kConcat:
      return "||";
  }
  return "?";
}

const char* CompKindName(CompKind k) {
  switch (k) {
    case CompKind::kEq:
      return "EQ";
    case CompKind::kNe:
      return "NE";
    case CompKind::kLt:
      return "LT";
    case CompKind::kLe:
      return "LTE";
    case CompKind::kGt:
      return "GT";
    case CompKind::kGe:
      return "GTE";
  }
  return "?";
}

const char* CompKindSql(CompKind k) {
  switch (k) {
    case CompKind::kEq:
      return "=";
    case CompKind::kNe:
      return "<>";
    case CompKind::kLt:
      return "<";
    case CompKind::kLe:
      return "<=";
    case CompKind::kGt:
      return ">";
    case CompKind::kGe:
      return ">=";
  }
  return "?";
}

CompKind NegateComp(CompKind k) {
  switch (k) {
    case CompKind::kEq:
      return CompKind::kNe;
    case CompKind::kNe:
      return CompKind::kEq;
    case CompKind::kLt:
      return CompKind::kGe;
    case CompKind::kLe:
      return CompKind::kGt;
    case CompKind::kGt:
      return CompKind::kLe;
    case CompKind::kGe:
      return CompKind::kLt;
  }
  return k;
}

CompKind SwapComp(CompKind k) {
  switch (k) {
    case CompKind::kLt:
      return CompKind::kGt;
    case CompKind::kLe:
      return CompKind::kGe;
    case CompKind::kGt:
      return CompKind::kLt;
    case CompKind::kGe:
      return CompKind::kLe;
    default:
      return k;
  }
}

ExprPtr Expr::Clone() const {
  auto c = std::make_unique<Expr>(kind);
  c->type = type;
  c->col_id = col_id;
  c->col_name = col_name;
  c->value = value;
  c->literal_offset = literal_offset;
  c->arith = arith;
  c->comp = comp;
  c->boolk = boolk;
  c->func_name = func_name;
  c->distinct_arg = distinct_arg;
  c->negated = negated;
  for (const auto& ch : children) c->children.push_back(ch->Clone());
  for (const auto& [w, t] : when_then) {
    c->when_then.emplace_back(w->Clone(), t->Clone());
  }
  if (else_expr) c->else_expr = else_expr->Clone();
  if (subplan) c->subplan = subplan->Clone();
  c->quant_cmp = quant_cmp;
  c->quantifier = quantifier;
  return c;
}

OpPtr Op::Clone() const {
  auto c = std::make_unique<Op>(kind);
  for (const auto& ch : children) c->children.push_back(ch->Clone());
  c->output = output;
  c->table_name = table_name;
  c->alias = alias;
  for (const auto& row : rows) {
    std::vector<ExprPtr> r;
    for (const auto& e : row) r.push_back(e->Clone());
    c->rows.push_back(std::move(r));
  }
  if (predicate) c->predicate = predicate->Clone();
  for (const auto& p : projections) {
    ProjectItem pi;
    pi.expr = p.expr->Clone();
    pi.out_id = p.out_id;
    pi.name = p.name;
    c->projections.push_back(std::move(pi));
  }
  for (const auto& w : windows) {
    WindowItem wi;
    wi.func = w.func;
    for (const auto& a : w.args) wi.args.push_back(a->Clone());
    for (const auto& p : w.partition_by) {
      wi.partition_by.push_back(p->Clone());
    }
    for (const auto& o : w.order_by) {
      WindowItem::Order oo;
      oo.expr = o.expr->Clone();
      oo.descending = o.descending;
      oo.nulls_first = o.nulls_first;
      wi.order_by.push_back(std::move(oo));
    }
    wi.out_id = w.out_id;
    wi.name = w.name;
    wi.type = w.type;
    c->windows.push_back(std::move(wi));
  }
  for (const auto& g : group_by) c->group_by.push_back(g->Clone());
  for (const auto& a : aggregates) {
    AggItem ai;
    ai.func = a.func;
    if (a.arg) ai.arg = a.arg->Clone();
    ai.distinct = a.distinct;
    ai.out_id = a.out_id;
    ai.name = a.name;
    ai.type = a.type;
    c->aggregates.push_back(std::move(ai));
  }
  c->grouping_sets = grouping_sets;
  c->join_kind = join_kind;
  c->setop_kind = setop_kind;
  for (const auto& s : sort_items) {
    SortItem si;
    si.expr = s.expr->Clone();
    si.descending = s.descending;
    si.nulls_first = s.nulls_first;
    c->sort_items.push_back(std::move(si));
  }
  c->limit_count = limit_count;
  c->limit_offset = limit_offset;
  c->with_ties = with_ties;
  c->cte_name = cte_name;
  c->cte_columns = cte_columns;
  c->target_table = target_table;
  c->target_columns = target_columns;
  c->target_col_ids = target_col_ids;
  for (const auto& [n, e] : assignments) {
    c->assignments.emplace_back(n, e->Clone());
  }
  c->post_window_filter = post_window_filter;
  c->project_distinct = project_distinct;
  return c;
}

const ColumnInfo* Op::FindOutput(int id) const {
  for (const auto& col : output) {
    if (col.id == id) return &col;
  }
  return nullptr;
}

ExprPtr ColRef(int id, std::string name, SqlType type) {
  auto e = std::make_unique<Expr>(ExprKind::kColRef);
  e->col_id = id;
  e->col_name = std::move(name);
  e->type = type;
  return e;
}

ExprPtr Const(Datum v, SqlType type) {
  auto e = std::make_unique<Expr>(ExprKind::kConst);
  e->value = std::move(v);
  e->type = type;
  return e;
}

ExprPtr IntConst(int64_t v) { return Const(Datum::Int(v), SqlType::Int()); }

ExprPtr StrConst(std::string v) {
  auto len = static_cast<int32_t>(v.size());
  return Const(Datum::String(std::move(v)), SqlType::Varchar(len));
}

ExprPtr Arith(ArithKind k, ExprPtr l, ExprPtr r) {
  auto e = std::make_unique<Expr>(ExprKind::kArith);
  e->arith = k;
  char op = k == ArithKind::kAdd   ? '+'
            : k == ArithKind::kSub ? '-'
            : k == ArithKind::kMul ? '*'
            : k == ArithKind::kDiv ? '/'
                                   : '%';
  if (k == ArithKind::kConcat) {
    e->type = SqlType::Varchar(0);
  } else {
    e->type = ArithmeticResultType(l->type, r->type, op);
  }
  e->children.push_back(std::move(l));
  e->children.push_back(std::move(r));
  return e;
}

ExprPtr Comp(CompKind k, ExprPtr l, ExprPtr r) {
  auto e = std::make_unique<Expr>(ExprKind::kComp);
  e->comp = k;
  e->type = SqlType::Bool();
  e->children.push_back(std::move(l));
  e->children.push_back(std::move(r));
  return e;
}

ExprPtr BoolOp(BoolKind k, std::vector<ExprPtr> children) {
  auto e = std::make_unique<Expr>(ExprKind::kBool);
  e->boolk = k;
  e->type = SqlType::Bool();
  e->children = std::move(children);
  return e;
}

ExprPtr Not(ExprPtr c) {
  auto e = std::make_unique<Expr>(ExprKind::kNot);
  e->type = SqlType::Bool();
  e->children.push_back(std::move(c));
  return e;
}

ExprPtr Func(std::string name, std::vector<ExprPtr> args, SqlType type) {
  auto e = std::make_unique<Expr>(ExprKind::kFunc);
  e->func_name = std::move(name);
  e->children = std::move(args);
  e->type = type;
  return e;
}

ExprPtr Conjoin(std::vector<ExprPtr> conjuncts) {
  if (conjuncts.empty()) return nullptr;
  if (conjuncts.size() == 1) return std::move(conjuncts[0]);
  return BoolOp(BoolKind::kAnd, std::move(conjuncts));
}

OpPtr Get(std::string table, std::vector<ColumnInfo> cols, std::string alias) {
  auto op = std::make_unique<Op>(OpKind::kGet);
  op->table_name = std::move(table);
  op->output = std::move(cols);
  op->alias = std::move(alias);
  return op;
}

OpPtr Select(OpPtr child, ExprPtr predicate) {
  auto op = std::make_unique<Op>(OpKind::kSelect);
  op->output = child->output;
  op->children.push_back(std::move(child));
  op->predicate = std::move(predicate);
  return op;
}

OpPtr Project(OpPtr child, std::vector<ProjectItem> items) {
  auto op = std::make_unique<Op>(OpKind::kProject);
  for (const auto& item : items) {
    op->output.push_back({item.out_id, item.name, item.expr->type});
  }
  op->children.push_back(std::move(child));
  op->projections = std::move(items);
  return op;
}

void VisitExprsImpl(const Expr& e, const std::function<bool(const Expr&)>& fn,
                    bool* keep_going);

static void VisitOpExprs(const Op& op,
                         const std::function<bool(const Expr&)>& fn,
                         bool* keep_going) {
  auto visit = [&](const ExprPtr& e) {
    if (e && *keep_going) VisitExprsImpl(*e, fn, keep_going);
  };
  for (const auto& row : op.rows) {
    for (const auto& e : row) visit(e);
  }
  visit(op.predicate);
  for (const auto& p : op.projections) visit(p.expr);
  for (const auto& w : op.windows) {
    for (const auto& a : w.args) visit(a);
    for (const auto& p : w.partition_by) visit(p);
    for (const auto& o : w.order_by) visit(o.expr);
  }
  for (const auto& g : op.group_by) visit(g);
  for (const auto& a : op.aggregates) visit(a.arg);
  for (const auto& s : op.sort_items) visit(s.expr);
  for (const auto& [n, e] : op.assignments) visit(e);
  for (const auto& child : op.children) {
    if (!*keep_going) return;
    VisitOpExprs(*child, fn, keep_going);
  }
}

void VisitExprsImpl(const Expr& e, const std::function<bool(const Expr&)>& fn,
                    bool* keep_going) {
  if (!*keep_going) return;
  if (!fn(e)) {
    *keep_going = false;
    return;
  }
  for (const auto& c : e.children) {
    if (c) VisitExprsImpl(*c, fn, keep_going);
  }
  for (const auto& [w, t] : e.when_then) {
    if (w) VisitExprsImpl(*w, fn, keep_going);
    if (t) VisitExprsImpl(*t, fn, keep_going);
  }
  if (e.else_expr) VisitExprsImpl(*e.else_expr, fn, keep_going);
  if (e.subplan) VisitOpExprs(*e.subplan, fn, keep_going);
}

void VisitExprs(const Op& op, const std::function<bool(const Expr&)>& fn) {
  bool keep_going = true;
  VisitOpExprs(op, fn, &keep_going);
}

bool ExprEquals(const Expr& a, const Expr& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case ExprKind::kColRef:
      return a.col_id == b.col_id;
    case ExprKind::kConst:
      return a.value == b.value && !(a.value.is_null() != b.value.is_null());
    case ExprKind::kArith:
      if (a.arith != b.arith) return false;
      break;
    case ExprKind::kComp:
      if (a.comp != b.comp) return false;
      break;
    case ExprKind::kBool:
      if (a.boolk != b.boolk) return false;
      break;
    case ExprKind::kFunc:
    case ExprKind::kAgg:
    case ExprKind::kExtract:
      if (a.func_name != b.func_name || a.distinct_arg != b.distinct_arg) {
        return false;
      }
      break;
    case ExprKind::kCast:
      if (!(a.type == b.type)) return false;
      break;
    case ExprKind::kIsNull:
    case ExprKind::kLike:
    case ExprKind::kInList:
      if (a.negated != b.negated) return false;
      break;
    case ExprKind::kSubqScalar:
    case ExprKind::kSubqExists:
    case ExprKind::kSubqQuantified:
    case ExprKind::kSubqIn:
      return false;
    default:
      break;
  }
  if (a.children.size() != b.children.size()) return false;
  for (size_t i = 0; i < a.children.size(); ++i) {
    if (!ExprEquals(*a.children[i], *b.children[i])) return false;
  }
  if (a.when_then.size() != b.when_then.size()) return false;
  for (size_t i = 0; i < a.when_then.size(); ++i) {
    if (!ExprEquals(*a.when_then[i].first, *b.when_then[i].first) ||
        !ExprEquals(*a.when_then[i].second, *b.when_then[i].second)) {
      return false;
    }
  }
  if ((a.else_expr == nullptr) != (b.else_expr == nullptr)) return false;
  if (a.else_expr && !ExprEquals(*a.else_expr, *b.else_expr)) return false;
  return true;
}

}  // namespace hyperq::xtra
