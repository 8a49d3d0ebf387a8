#include "binder/binder.h"

#include <algorithm>

#include "common/str_util.h"

namespace hyperq::binder {

using sql::ExprKind;
using xtra::ColumnInfo;
using xtra::Op;
using xtra::OpKind;
using xtra::OpPtr;

namespace {

bool IsAggregateName(const std::string& name) {
  return name == "SUM" || name == "COUNT" || name == "AVG" || name == "MIN" ||
         name == "MAX";
}

bool IsWindowOnlyName(const std::string& name) {
  return name == "RANK" || name == "DENSE_RANK" || name == "ROW_NUMBER";
}

xtra::CompKind CompFromAst(sql::BinaryOp op) {
  switch (op) {
    case sql::BinaryOp::kEq:
      return xtra::CompKind::kEq;
    case sql::BinaryOp::kNe:
      return xtra::CompKind::kNe;
    case sql::BinaryOp::kLt:
      return xtra::CompKind::kLt;
    case sql::BinaryOp::kLe:
      return xtra::CompKind::kLe;
    case sql::BinaryOp::kGt:
      return xtra::CompKind::kGt;
    default:
      return xtra::CompKind::kGe;
  }
}

SqlType AggResultType(const std::string& func, const SqlType& arg) {
  if (func == "COUNT") return SqlType::BigInt();
  if (func == "AVG") return SqlType::Double();
  if (func == "SUM") {
    if (arg.kind == TypeKind::kDouble) return SqlType::Double();
    if (arg.kind == TypeKind::kDecimal) return SqlType::Decimal(18, arg.scale);
    return SqlType::BigInt();
  }
  return arg;  // MIN / MAX
}

// Replaces, in-place, each subtree of *e that matches a group expression
// with a column reference, and each kAgg node with a reference to a
// (deduplicated) aggregate item.
void FoldIntoAggregate(xtra::ExprPtr* e, Op* agg_op, ColIdGenerator* ids) {
  if (!*e) return;
  for (size_t i = 0; i < agg_op->group_by.size(); ++i) {
    if (xtra::ExprEquals(**e, *agg_op->group_by[i])) {
      const ColumnInfo& col = agg_op->output[i];
      *e = xtra::ColRef(col.id, col.name, col.type);
      return;
    }
  }
  if ((*e)->kind == xtra::ExprKind::kAgg) {
    for (const auto& item : agg_op->aggregates) {
      bool same = item.func == (*e)->func_name &&
                  item.distinct == (*e)->distinct_arg &&
                  ((item.arg == nullptr) == (*e)->children.empty()) &&
                  (item.arg == nullptr ||
                   xtra::ExprEquals(*item.arg, *(*e)->children[0]));
      if (same) {
        *e = xtra::ColRef(item.out_id, item.name, item.type);
        return;
      }
    }
    xtra::AggItem item;
    item.func = (*e)->func_name;
    item.distinct = (*e)->distinct_arg;
    if (!(*e)->children.empty()) item.arg = std::move((*e)->children[0]);
    item.out_id = ids->Next();
    item.name = "AGG_" + std::to_string(item.out_id);
    item.type = (*e)->type;
    agg_op->output.push_back({item.out_id, item.name, item.type});
    agg_op->aggregates.push_back(std::move(item));
    const xtra::AggItem& added = agg_op->aggregates.back();
    *e = xtra::ColRef(added.out_id, added.name, added.type);
    return;
  }
  // Do not descend into subplans: their aggregates belong to them.
  for (auto& c : (*e)->children) FoldIntoAggregate(&c, agg_op, ids);
  for (auto& [w, t] : (*e)->when_then) {
    FoldIntoAggregate(&w, agg_op, ids);
    FoldIntoAggregate(&t, agg_op, ids);
  }
  if ((*e)->else_expr) FoldIntoAggregate(&(*e)->else_expr, agg_op, ids);
}

bool ContainsAgg(const xtra::Expr& e) {
  if (e.kind == xtra::ExprKind::kAgg) return true;
  for (const auto& c : e.children) {
    if (c && ContainsAgg(*c)) return true;
  }
  for (const auto& [w, t] : e.when_then) {
    if (ContainsAgg(*w) || ContainsAgg(*t)) return true;
  }
  if (e.else_expr && ContainsAgg(*e.else_expr)) return true;
  return false;
}

// Collects qualified identifier qualifiers used anywhere in a block.
void CollectQualifiers(const sql::Expr& e, std::vector<std::string>* out) {
  if (e.kind == ExprKind::kIdent && e.name_parts.size() >= 2) {
    out->push_back(ToUpper(e.name_parts[e.name_parts.size() - 2]));
  }
  for (const auto& c : e.children) {
    if (c) CollectQualifiers(*c, out);
  }
  for (const auto& [w, t] : e.when_then) {
    if (w) CollectQualifiers(*w, out);
    if (t) CollectQualifiers(*t, out);
  }
  if (e.else_expr) CollectQualifiers(*e.else_expr, out);
  // Subqueries resolve their own scopes; do not collect from them.
}

// Collects the qualifiers a FROM entry makes visible: a base table's alias
// or name, a derived table's alias, and those of a join's two sides.
void CollectFromQualifiers(const sql::TableRef& ref,
                           std::vector<std::string>* out) {
  if (ref.kind == sql::TableRef::Kind::kBaseTable) {
    out->push_back(ref.alias.empty() ? Catalog::NormalizeName(ref.table_name)
                                     : ToUpper(ref.alias));
  } else if (ref.kind == sql::TableRef::Kind::kJoin) {
    CollectFromQualifiers(*ref.left, out);
    CollectFromQualifiers(*ref.right, out);
  } else if (!ref.alias.empty()) {
    out->push_back(ToUpper(ref.alias));
  }
}

std::vector<xtra::ExprPtr> MakeVec(xtra::ExprPtr e) {
  std::vector<xtra::ExprPtr> v;
  v.push_back(std::move(e));
  return v;
}

}  // namespace

Binder::Binder(const Catalog* catalog, sql::Dialect dialect)
    : catalog_(catalog), dialect_(std::move(dialect)) {}

Result<OpPtr> Binder::BindStatement(const sql::Statement& stmt) {
  switch (stmt.kind) {
    case sql::StmtKind::kSelect:
      return BindSelect(*stmt.As<sql::SelectStatement>()->query);
    case sql::StmtKind::kInsert:
      return BindInsert(*stmt.As<sql::InsertStatement>());
    case sql::StmtKind::kUpdate:
      return BindUpdate(*stmt.As<sql::UpdateStatement>());
    case sql::StmtKind::kDelete:
      return BindDelete(*stmt.As<sql::DeleteStatement>());
    default:
      return Status::Internal(
          "statement kind is handled above the binder (service/emulation)");
  }
}

Result<OpPtr> Binder::BindSelect(const sql::SelectStmt& stmt) {
  return BindQueryExpr(stmt, nullptr);
}

Result<OpPtr> Binder::BindQueryExpr(const sql::SelectStmt& stmt,
                                    Scope* outer) {
  if (stmt.with_recursive) {
    features_.Record(Feature::kRecursiveQuery);
    return BindRecursive(stmt, outer);
  }

  // Register non-recursive CTEs for the duration of this query expression.
  std::vector<std::string> registered;
  for (const auto& cte : stmt.with) {
    std::string key = ToUpper(cte.name);
    if (ctes_.count(key)) {
      for (const auto& k : registered) ctes_.erase(k);
      return Status::BindError("duplicate CTE name '", cte.name, "'");
    }
    ctes_[key] = CteDef{&cte, false, {}};
    registered.push_back(key);
  }
  auto res = BindQueryBody(stmt, outer);
  for (const auto& k : registered) ctes_.erase(k);
  return res;
}

Result<OpPtr> Binder::BindQueryBody(const sql::SelectStmt& stmt,
                                    Scope* outer) {
  if (stmt.set_op != sql::SetOpKind::kNone) {
    HQ_ASSIGN_OR_RETURN(OpPtr left, BindQueryExpr(*stmt.set_left, outer));
    HQ_ASSIGN_OR_RETURN(OpPtr right, BindQueryExpr(*stmt.set_right, outer));
    if (left->output.size() != right->output.size()) {
      return Status::BindError(
          "set operation inputs have different column counts (",
          left->output.size(), " vs ", right->output.size(), ")");
    }
    auto op = std::make_unique<Op>(OpKind::kSetOp);
    switch (stmt.set_op) {
      case sql::SetOpKind::kUnion:
        op->setop_kind = xtra::SetOpKind::kUnion;
        break;
      case sql::SetOpKind::kUnionAll:
        op->setop_kind = xtra::SetOpKind::kUnionAll;
        break;
      case sql::SetOpKind::kIntersect:
        op->setop_kind = xtra::SetOpKind::kIntersect;
        break;
      default:
        op->setop_kind = xtra::SetOpKind::kExcept;
        break;
    }
    for (size_t i = 0; i < left->output.size(); ++i) {
      SqlType t =
          CommonSuperType(left->output[i].type, right->output[i].type);
      if (t.kind == TypeKind::kNull &&
          left->output[i].type.kind != TypeKind::kNull) {
        return Status::BindError("set operation column ", i + 1,
                                 " has incompatible types");
      }
      op->output.push_back({ids_.Next(), left->output[i].name, t});
    }
    op->children.push_back(std::move(left));
    op->children.push_back(std::move(right));
    OpPtr plan = std::move(op);

    // ORDER BY over a set operation binds against output names/ordinals.
    if (!stmt.order_by.empty()) {
      auto sort = std::make_unique<Op>(OpKind::kSort);
      sort->output = plan->output;
      for (const auto& oi : stmt.order_by) {
        xtra::SortItem si;
        si.descending = oi.descending;
        si.nulls_first = oi.nulls_first;
        const ColumnInfo* target = nullptr;
        if (oi.expr->kind == ExprKind::kConst && oi.expr->value.is_int()) {
          int64_t ord = oi.expr->value.int_val();
          if (ord < 1 || ord > static_cast<int64_t>(plan->output.size())) {
            return Status::BindError("ORDER BY position ", ord,
                                     " is out of range");
          }
          features_.Record(Feature::kOrdinalGroupBy);
          target = &plan->output[ord - 1];
        } else if (oi.expr->kind == ExprKind::kIdent) {
          std::string want = ToUpper(oi.expr->name_parts.back());
          for (const auto& col : plan->output) {
            if (ToUpper(col.name) == want) {
              target = &col;
              break;
            }
          }
        }
        if (target == nullptr) {
          return Status::BindError(
              "ORDER BY over a set operation must reference an output column");
        }
        si.expr = xtra::ColRef(target->id, target->name, target->type);
        sort->sort_items.push_back(std::move(si));
      }
      sort->children.push_back(std::move(plan));
      plan = std::move(sort);
    }
    if (stmt.limit >= 0) {
      auto lim = std::make_unique<Op>(OpKind::kLimit);
      lim->output = plan->output;
      lim->limit_count = stmt.limit;
      lim->limit_offset = OwnLiteral(stmt.limit_offset);
      lim->children.push_back(std::move(plan));
      plan = std::move(lim);
    }
    return plan;
  }

  if (!stmt.block) {
    return Status::Internal("query expression has no block and no set op");
  }
  return BindBlock(*stmt.block, stmt, outer);
}

Result<OpPtr> Binder::BindRecursive(const sql::SelectStmt& stmt,
                                    Scope* outer) {
  if (stmt.with.size() != 1) {
    return Status::NotSupported(
        "WITH RECURSIVE with multiple CTEs is not supported");
  }
  const sql::CommonTableExpr& cte = stmt.with[0];
  const sql::SelectStmt& body = *cte.query;
  // Standard shape: seed UNION ALL recursive.
  if (body.set_op != sql::SetOpKind::kUnionAll || !body.set_left ||
      !body.set_right) {
    return Status::BindError(
        "recursive CTE body must be <seed> UNION ALL <recursive>");
  }

  // Bind the seed first; it fixes the CTE schema.
  HQ_ASSIGN_OR_RETURN(OpPtr seed, BindQueryExpr(*body.set_left, outer));
  std::vector<ColumnInfo> schema;
  for (size_t i = 0; i < seed->output.size(); ++i) {
    std::string name = i < cte.column_names.size() ? cte.column_names[i]
                                                   : seed->output[i].name;
    schema.push_back({ids_.Next(), name, seed->output[i].type});
  }

  std::string key = ToUpper(cte.name);
  ctes_[key] = CteDef{&cte, true, schema};
  auto rec_res = BindQueryExpr(*body.set_right, outer);
  if (!rec_res.ok()) {
    ctes_.erase(key);
    return rec_res.status();
  }
  OpPtr recursive = std::move(rec_res).value();

  // Bind the main query with the CTE visible as a plain (non-recursive)
  // reference; emulation will point it at the WorkTable.
  auto main_res = BindQueryBody(stmt, outer);
  ctes_.erase(key);
  if (!main_res.ok()) return main_res.status();

  auto op = std::make_unique<Op>(OpKind::kRecursiveCte);
  op->cte_name = cte.name;
  for (const auto& col : schema) op->cte_columns.push_back(col.name);
  op->output = main_res.value()->output;
  op->children.push_back(std::move(seed));
  op->children.push_back(std::move(recursive));
  op->children.push_back(std::move(main_res).value());
  return OpPtr(std::move(op));
}

std::vector<std::string> Binder::ImplicitJoinTables(
    const sql::QueryBlock& block) {
  std::vector<std::string> added;
  if (!dialect_.allow_implicit_join) return added;
  std::vector<std::string> known;
  for (const auto& ref : block.from) CollectFromQualifiers(*ref, &known);

  std::vector<std::string> quals;
  for (const auto& item : block.select_list) {
    if (item.expr) CollectQualifiers(*item.expr, &quals);
  }
  if (block.where) CollectQualifiers(*block.where, &quals);
  for (const auto& g : block.group_by.items) CollectQualifiers(*g, &quals);
  if (block.having) CollectQualifiers(*block.having, &quals);
  if (block.qualify) CollectQualifiers(*block.qualify, &quals);

  for (const std::string& q : quals) {
    if (std::find(known.begin(), known.end(), q) != known.end() ||
        std::find(added.begin(), added.end(), q) != added.end()) {
      continue;
    }
    if (!catalog_->HasTable(q) && !catalog_->HasView(q)) continue;
    // Teradata implicit join: reference to a table missing from FROM.
    added.push_back(q);
    features_.Record(Feature::kImplicitJoin);
  }
  return added;
}

Result<OpPtr> Binder::BindTableRef(const sql::TableRef& ref, Scope* scope,
                                   Scope* outer) {
  switch (ref.kind) {
    case sql::TableRef::Kind::kBaseTable: {
      std::string alias = ref.alias.empty()
                              ? Catalog::NormalizeName(ref.table_name)
                              : ToUpper(ref.alias);
      HQ_ASSIGN_OR_RETURN(OpPtr op, BindBaseTable(ref.table_name,
                                                  ref.alias, scope));
      // Teradata column alias list on a base table.
      if (!ref.column_aliases.empty()) {
        if (ref.column_aliases.size() != op->output.size()) {
          return Status::BindError("column alias list for '", ref.table_name,
                                   "' has ", ref.column_aliases.size(),
                                   " names but the table has ",
                                   op->output.size(), " columns");
        }
        size_t base = scope->columns.size() - op->output.size();
        for (size_t i = 0; i < ref.column_aliases.size(); ++i) {
          scope->columns[base + i].name = ToUpper(ref.column_aliases[i]);
          scope->columns[base + i].display = ref.column_aliases[i];
          op->output[i].name = ref.column_aliases[i];
        }
      }
      (void)alias;
      return op;
    }
    case sql::TableRef::Kind::kDerived: {
      HQ_ASSIGN_OR_RETURN(OpPtr plan, BindQueryExpr(*ref.derived, outer));
      std::string qual = ToUpper(ref.alias);
      for (size_t i = 0; i < plan->output.size(); ++i) {
        std::string display = i < ref.column_aliases.size()
                                  ? ref.column_aliases[i]
                                  : plan->output[i].name;
        scope->columns.push_back({qual, ToUpper(display), display,
                                  plan->output[i].id, plan->output[i].type});
        if (i < ref.column_aliases.size()) {
          plan->output[i].name = display;
        }
      }
      return plan;
    }
    case sql::TableRef::Kind::kJoin: {
      HQ_ASSIGN_OR_RETURN(OpPtr left, BindTableRef(*ref.left, scope, outer));
      HQ_ASSIGN_OR_RETURN(OpPtr right, BindTableRef(*ref.right, scope, outer));
      auto join = std::make_unique<Op>(OpKind::kJoin);
      switch (ref.join_type) {
        case sql::JoinType::kInner:
          join->join_kind = xtra::JoinKind::kInner;
          break;
        case sql::JoinType::kLeft:
          join->join_kind = xtra::JoinKind::kLeft;
          break;
        case sql::JoinType::kRight:
          join->join_kind = xtra::JoinKind::kRight;
          break;
        case sql::JoinType::kFull:
          join->join_kind = xtra::JoinKind::kFull;
          break;
        case sql::JoinType::kCross:
          join->join_kind = xtra::JoinKind::kCross;
          break;
      }
      join->output = left->output;
      join->output.insert(join->output.end(), right->output.begin(),
                          right->output.end());
      join->children.push_back(std::move(left));
      join->children.push_back(std::move(right));
      if (ref.join_condition) {
        Scope join_scope;
        join_scope.parent = outer;
        join_scope.columns = scope->columns;
        BlockState dummy;
        HQ_ASSIGN_OR_RETURN(join->predicate,
                            BindExpr(*ref.join_condition, &join_scope, &dummy));
      }
      return OpPtr(std::move(join));
    }
  }
  return Status::Internal("unknown table ref kind");
}

Result<OpPtr> Binder::BindBaseTable(const std::string& name,
                                    const std::string& alias, Scope* scope) {
  std::string key = Catalog::NormalizeName(name);
  std::string qual = alias.empty() ? key : ToUpper(alias);

  // CTE reference?
  auto cte_it = ctes_.find(key);
  if (cte_it != ctes_.end()) {
    const CteDef& def = cte_it->second;
    if (def.recursive) {
      auto ref = std::make_unique<Op>(OpKind::kCteRef);
      ref->cte_name = cte_it->second.ast->name;
      for (const auto& col : def.schema) {
        int id = ids_.Next();
        ref->output.push_back({id, col.name, col.type});
        ref->cte_columns.push_back(col.name);
        scope->columns.push_back({qual, ToUpper(col.name), col.name, id,
                                  col.type});
      }
      return OpPtr(std::move(ref));
    }
    // Non-recursive CTE: re-bind its definition (fresh column ids per use).
    HQ_ASSIGN_OR_RETURN(OpPtr plan, BindQueryExpr(*def.ast->query, nullptr));
    for (size_t i = 0; i < plan->output.size(); ++i) {
      std::string display = i < def.ast->column_names.size()
                                ? def.ast->column_names[i]
                                : plan->output[i].name;
      scope->columns.push_back({qual, ToUpper(display), display,
                                plan->output[i].id, plan->output[i].type});
    }
    return plan;
  }

  // View?
  if (catalog_->HasView(name)) {
    if (++view_depth_ > 16) {
      --view_depth_;
      return Status::BindError("view nesting too deep (cycle?) at '", name,
                               "'");
    }
    HQ_ASSIGN_OR_RETURN(const ViewDef* view, catalog_->GetView(name));
    auto parsed = sql::ParseStatement(view->definition_sql, dialect_);
    if (!parsed.ok()) {
      --view_depth_;
      return parsed.status().WithContext("while expanding view " + name);
    }
    if ((*parsed)->kind != sql::StmtKind::kSelect) {
      --view_depth_;
      return Status::BindError("view '", name, "' is not a SELECT");
    }
    auto plan_res =
        BindQueryExpr(*(*parsed)->As<sql::SelectStatement>()->query, nullptr);
    --view_depth_;
    if (!plan_res.ok()) return plan_res.status();
    OpPtr plan = std::move(plan_res).value();
    for (size_t i = 0; i < plan->output.size(); ++i) {
      std::string display = i < view->column_names.size()
                                ? view->column_names[i]
                                : plan->output[i].name;
      scope->columns.push_back({qual, ToUpper(display), display,
                                plan->output[i].id, plan->output[i].type});
    }
    return plan;
  }

  HQ_ASSIGN_OR_RETURN(const TableDef* table, catalog_->GetTable(name));
  if (table->is_global_temporary) {
    features_.Record(Feature::kTemporaryTables);
  }
  std::vector<ColumnInfo> cols;
  for (const auto& col : table->columns) {
    int id = ids_.Next();
    if (col.props.case_insensitive) ci_columns_.insert(id);
    cols.push_back({id, col.name, col.type});
    ScopeColumn sc{qual, ToUpper(col.name), col.name, id, col.type};
    scope->columns.push_back(sc);
  }
  return xtra::Get(Catalog::NormalizeName(name), std::move(cols),
                   alias.empty() ? "" : ToUpper(alias));
}

// ---------------------------------------------------------------------------
// Expression binding
// ---------------------------------------------------------------------------

Result<xtra::ExprPtr> Binder::BindIdent(const sql::Expr& e, Scope* scope) {
  std::string name = ToUpper(e.name_parts.back());
  std::string qual;
  if (e.name_parts.size() >= 2) {
    qual = ToUpper(e.name_parts[e.name_parts.size() - 2]);
  }
  for (Scope* s = scope; s != nullptr; s = s->parent) {
    const ScopeColumn* found = nullptr;
    bool ambiguous = false;
    for (const auto& col : s->columns) {
      if (col.name != name) continue;
      if (!qual.empty() && col.qualifier != qual) continue;
      if (found != nullptr && found->id != col.id) ambiguous = true;
      if (found == nullptr) found = &col;
    }
    if (ambiguous) {
      return Status::BindError("ambiguous column reference '",
                               e.name_parts.back(), "'");
    }
    if (found != nullptr) {
      if (found->type.kind == TypeKind::kPeriodDate) {
        features_.Record(Feature::kPeriodType);
      }
      std::string display = qual.empty()
                                ? found->display
                                : e.name_parts[e.name_parts.size() - 2] + "." +
                                      found->display;
      return xtra::ColRef(found->id, display, found->type);
    }
    // Chained projections: a named expression from the same block's select
    // list, visible to later expressions (Teradata extension).
    if (qual.empty() && dialect_.allow_named_expr_reuse) {
      auto it = s->named.find(name);
      if (it != s->named.end()) {
        features_.Record(Feature::kChainedProjections);
        return it->second->Clone();
      }
    }
  }
  return Status::BindError("column '",
                           Join(e.name_parts, "."), "' does not exist");
}

Result<xtra::ExprPtr> Binder::BindBinary(const sql::Expr& e, Scope* scope,
                                         BlockState* block) {
  using sql::BinaryOp;
  if (e.bop == BinaryOp::kAnd || e.bop == BinaryOp::kOr) {
    HQ_ASSIGN_OR_RETURN(xtra::ExprPtr l, BindExpr(*e.children[0], scope, block));
    HQ_ASSIGN_OR_RETURN(xtra::ExprPtr r, BindExpr(*e.children[1], scope, block));
    std::vector<xtra::ExprPtr> kids;
    kids.push_back(std::move(l));
    kids.push_back(std::move(r));
    return xtra::BoolOp(e.bop == BinaryOp::kAnd ? xtra::BoolKind::kAnd
                                                : xtra::BoolKind::kOr,
                        std::move(kids));
  }
  HQ_ASSIGN_OR_RETURN(xtra::ExprPtr l, BindExpr(*e.children[0], scope, block));
  HQ_ASSIGN_OR_RETURN(xtra::ExprPtr r, BindExpr(*e.children[1], scope, block));

  if (sql::IsComparisonOp(e.bop)) {
    // Tracked: DATE vs INTEGER comparison (rewritten by the binding-stage
    // transformation comp_date_to_int; recorded here where it is detected).
    bool date_int = (l->type.kind == TypeKind::kDate && r->type.IsInteger()) ||
                    (r->type.kind == TypeKind::kDate && l->type.IsInteger());
    if (date_int) features_.Record(Feature::kDateIntComparison);

    // Case-insensitive (NOT CASESPECIFIC) column comparisons must keep
    // Teradata semantics on a case-sensitive target: wrap both sides.
    auto is_ci_column = [&](const xtra::Expr& x) {
      return x.kind == xtra::ExprKind::kColRef &&
             ci_columns_.count(x.col_id) > 0;
    };
    if (l->type.IsString() && r->type.IsString() &&
        (is_ci_column(*l) || is_ci_column(*r))) {
      features_.Record(Feature::kColumnProperties);
      l = xtra::Func("UPPER", MakeVec(std::move(l)), SqlType::Varchar(0));
      r = xtra::Func("UPPER", MakeVec(std::move(r)), SqlType::Varchar(0));
    }
    return xtra::Comp(CompFromAst(e.bop), std::move(l), std::move(r));
  }

  xtra::ArithKind ak;
  switch (e.bop) {
    case BinaryOp::kAdd:
      ak = xtra::ArithKind::kAdd;
      break;
    case BinaryOp::kSub:
      ak = xtra::ArithKind::kSub;
      break;
    case BinaryOp::kMul:
      ak = xtra::ArithKind::kMul;
      break;
    case BinaryOp::kDiv:
      ak = xtra::ArithKind::kDiv;
      break;
    case BinaryOp::kMod:
      ak = xtra::ArithKind::kMod;
      break;
    case BinaryOp::kConcat:
      ak = xtra::ArithKind::kConcat;
      break;
    default:
      return Status::Internal("unexpected binary operator");
  }
  // Tracked: date arithmetic (DATE +/- n days, date +/- interval).
  if ((ak == xtra::ArithKind::kAdd || ak == xtra::ArithKind::kSub) &&
      (l->type.kind == TypeKind::kDate || r->type.kind == TypeKind::kDate ||
       l->type.kind == TypeKind::kInterval ||
       r->type.kind == TypeKind::kInterval)) {
    features_.Record(Feature::kDateArithmetic);
    // Month-valued intervals become ADD_MONTHS immediately (calendar-aware).
    auto is_months = [](const xtra::Expr& x) {
      return x.kind == xtra::ExprKind::kFunc &&
             x.func_name == "$INTERVAL_MONTHS";
    };
    if (is_months(*r)) {
      xtra::ExprPtr months = std::move(r->children[0]);
      if (ak == xtra::ArithKind::kSub) {
        months = xtra::Func("$NEG", MakeVec(std::move(months)),
                            SqlType::Int());
      }
      std::vector<xtra::ExprPtr> args;
      args.push_back(std::move(l));
      args.push_back(std::move(months));
      return xtra::Func("ADD_MONTHS", std::move(args), SqlType::Date());
    }
    if (is_months(*l) && ak == xtra::ArithKind::kAdd) {
      xtra::ExprPtr months = std::move(l->children[0]);
      std::vector<xtra::ExprPtr> args;
      args.push_back(std::move(r));
      args.push_back(std::move(months));
      return xtra::Func("ADD_MONTHS", std::move(args), SqlType::Date());
    }
  }
  auto out = xtra::Arith(ak, std::move(l), std::move(r));
  if (out->type.kind == TypeKind::kNull &&
      ak != xtra::ArithKind::kConcat) {
    // Date +/- interval: give it a concrete type.
    const auto& a = out->children[0]->type;
    const auto& b = out->children[1]->type;
    if (a.kind == TypeKind::kDate || b.kind == TypeKind::kDate) {
      out->type = SqlType::Date();
    } else if (a.kind == TypeKind::kTimestamp ||
               b.kind == TypeKind::kTimestamp) {
      out->type = SqlType::Timestamp();
    } else {
      return Status::BindError("invalid operand types for '",
                               sql::BinaryOpName(e.bop), "': ", a.ToString(),
                               " and ", b.ToString());
    }
  }
  return out;
}

Result<xtra::ExprPtr> Binder::BindFunc(const sql::Expr& e, Scope* scope,
                                       BlockState* block) {
  std::string name = ToUpper(e.func_name);

  // Teradata-only built-in renames (Translation class).
  if (name == "CHARS" || name == "CHARACTERS") {
    features_.Record(Feature::kBuiltinRename);
    name = "LENGTH";
  } else if (name == "INDEX") {
    features_.Record(Feature::kBuiltinRename);
    name = "POSITION";
  }

  if (name == "ZEROIFNULL" || name == "NULLIFZERO") {
    features_.Record(Feature::kNullFuncs);
    if (e.children.size() != 1) {
      return Status::BindError(name, " takes exactly one argument");
    }
    HQ_ASSIGN_OR_RETURN(xtra::ExprPtr arg,
                        BindExpr(*e.children[0], scope, block));
    SqlType t = arg->type;
    std::vector<xtra::ExprPtr> args;
    args.push_back(std::move(arg));
    args.push_back(xtra::IntConst(0));
    return xtra::Func(name == "ZEROIFNULL" ? "COALESCE" : "NULLIF",
                      std::move(args), t);
  }

  // Aggregates.
  if (IsAggregateName(name)) {
    auto agg = std::make_unique<xtra::Expr>(xtra::ExprKind::kAgg);
    agg->func_name = name;
    agg->distinct_arg = e.distinct_arg;
    if (e.children.size() == 1 &&
        e.children[0]->kind == ExprKind::kStar) {
      if (name != "COUNT") {
        return Status::BindError(name, "(*) is not valid");
      }
      agg->type = SqlType::BigInt();
      block->saw_agg = true;
      return xtra::ExprPtr(std::move(agg));
    }
    if (e.children.size() != 1) {
      return Status::BindError("aggregate ", name,
                               " takes exactly one argument");
    }
    HQ_ASSIGN_OR_RETURN(xtra::ExprPtr arg,
                        BindExpr(*e.children[0], scope, block));
    agg->type = AggResultType(name, arg->type);
    agg->children.push_back(std::move(arg));
    block->saw_agg = true;
    return xtra::ExprPtr(std::move(agg));
  }

  if (IsWindowOnlyName(name)) {
    return Status::BindError("window function ", name,
                             " requires an OVER clause");
  }

  // Scalar functions with their result-type derivation.
  std::vector<xtra::ExprPtr> args;
  for (const auto& c : e.children) {
    HQ_ASSIGN_OR_RETURN(xtra::ExprPtr a, BindExpr(*c, scope, block));
    args.push_back(std::move(a));
  }
  auto arity = [&](size_t lo, size_t hi) -> Status {
    if (args.size() < lo || args.size() > hi) {
      return Status::BindError("function ", name, " called with ",
                               args.size(), " arguments");
    }
    return Status::OK();
  };

  SqlType type;
  if (name == "LENGTH" || name == "CHAR_LENGTH" ||
      name == "CHARACTER_LENGTH") {
    HQ_RETURN_IF_ERROR(arity(1, 1));
    name = "LENGTH";
    type = SqlType::Int();
  } else if (name == "POSITION") {
    HQ_RETURN_IF_ERROR(arity(2, 2));
    type = SqlType::Int();
  } else if (name == "SUBSTR" || name == "SUBSTRING") {
    HQ_RETURN_IF_ERROR(arity(2, 3));
    name = "SUBSTR";
    type = SqlType::Varchar(0);
  } else if (name == "TRIM" || name == "LTRIM" || name == "RTRIM") {
    HQ_RETURN_IF_ERROR(arity(1, 2));
    type = SqlType::Varchar(0);
  } else if (name == "UPPER" || name == "LOWER") {
    HQ_RETURN_IF_ERROR(arity(1, 1));
    type = SqlType::Varchar(0);
  } else if (name == "COALESCE") {
    HQ_RETURN_IF_ERROR(arity(1, 99));
    type = args[0]->type;
    for (const auto& a : args) {
      if (type.kind == TypeKind::kNull) type = a->type;
    }
  } else if (name == "NULLIF") {
    HQ_RETURN_IF_ERROR(arity(2, 2));
    type = args[0]->type;
  } else if (name == "ABS") {
    HQ_RETURN_IF_ERROR(arity(1, 1));
    type = args[0]->type;
  } else if (name == "ROUND" || name == "FLOOR" || name == "CEIL" ||
             name == "CEILING") {
    HQ_RETURN_IF_ERROR(arity(1, 2));
    if (name == "CEILING") name = "CEIL";
    type = args[0]->type.kind == TypeKind::kDouble ? SqlType::Double()
                                                   : args[0]->type;
  } else if (name == "MOD") {
    HQ_RETURN_IF_ERROR(arity(2, 2));
    type = SqlType::BigInt();
  } else if (name == "SQRT" || name == "EXP" || name == "LN") {
    HQ_RETURN_IF_ERROR(arity(1, 1));
    type = SqlType::Double();
  } else if (name == "DATE_ADD_DAYS") {
    // Target-side day arithmetic emitted by the date_arith_to_func rule.
    HQ_RETURN_IF_ERROR(arity(2, 2));
    type = SqlType::Date();
  } else if (name == "TO_DATE") {
    // Conversion-function temporal literals (granite dialect surface).
    HQ_RETURN_IF_ERROR(arity(1, 1));
    type = SqlType::Date();
  } else if (name == "TO_TIMESTAMP") {
    HQ_RETURN_IF_ERROR(arity(1, 1));
    type = SqlType::Timestamp();
  } else if (name == "DATE_DIFF_DAYS") {
    HQ_RETURN_IF_ERROR(arity(2, 2));
    type = SqlType::Int();
  } else if (name == "ADD_MONTHS") {
    HQ_RETURN_IF_ERROR(arity(2, 2));
    type = SqlType::Date();
  } else if (name == "CURRENT_DATE") {
    type = SqlType::Date();
  } else if (name == "CURRENT_TIME") {
    type = SqlType::Time();
  } else if (name == "CURRENT_TIMESTAMP") {
    type = SqlType::Timestamp();
  } else if (name == "USER" || name == "SESSION" || name == "DATABASE") {
    type = SqlType::Varchar(0);
  } else if (name == "$INTERVAL_MONTHS") {
    type = SqlType::Interval();
  } else if (name == "$NEG") {
    type = args[0]->type;
  } else if (name == "PERIOD") {
    // PERIOD(DATE 'b', DATE 'e') constructor.
    HQ_RETURN_IF_ERROR(arity(2, 2));
    features_.Record(Feature::kPeriodType);
    type = SqlType::PeriodDate();
  } else if (name == "BEGIN" || name == "END") {
    // PERIOD accessors: BEGIN(p) / END(p).
    HQ_RETURN_IF_ERROR(arity(1, 1));
    if (args[0]->type.kind != TypeKind::kPeriodDate) {
      return Status::BindError(name, " expects a PERIOD argument");
    }
    features_.Record(Feature::kPeriodType);
    type = SqlType::Date();
  } else {
    return Status::BindError("unknown function '", name, "'");
  }
  return xtra::Func(std::move(name), std::move(args), type);
}

Result<xtra::ExprPtr> Binder::BindWindow(const sql::Expr& e, Scope* scope,
                                         BlockState* block) {
  xtra::WindowItem item;
  item.func = ToUpper(e.func_name);
  if (e.td_ordered_analytic) {
    features_.Record(Feature::kOrderedAnalytics);
    if (item.func == "CSUM") item.func = "SUM";
    if (item.func == "MSUM") item.func = "SUM";
    if (item.func == "MAVG") item.func = "AVG";
  }
  for (const auto& a : e.children) {
    if (a->kind == ExprKind::kStar) {
      if (item.func != "COUNT") {
        return Status::BindError("window ", item.func, "(*) is not valid");
      }
      continue;
    }
    HQ_ASSIGN_OR_RETURN(xtra::ExprPtr arg, BindExpr(*a, scope, block));
    item.args.push_back(std::move(arg));
  }
  for (const auto& p : e.window.partition_by) {
    HQ_ASSIGN_OR_RETURN(xtra::ExprPtr pe, BindExpr(*p, scope, block));
    item.partition_by.push_back(std::move(pe));
  }
  for (const auto& o : e.window.order_by) {
    xtra::WindowItem::Order oo;
    HQ_ASSIGN_OR_RETURN(oo.expr, BindExpr(*o.expr, scope, block));
    oo.descending = o.descending;
    oo.nulls_first = o.nulls_first;
    item.order_by.push_back(std::move(oo));
  }
  if (item.func == "RANK" || item.func == "DENSE_RANK" ||
      item.func == "ROW_NUMBER") {
    if (item.order_by.empty()) {
      return Status::BindError(item.func, " requires window ordering");
    }
    item.type = SqlType::BigInt();
  } else if (IsAggregateName(item.func)) {
    SqlType arg_type =
        item.args.empty() ? SqlType::BigInt() : item.args[0]->type;
    item.type = AggResultType(item.func, arg_type);
  } else {
    return Status::BindError("unknown window function '", item.func, "'");
  }
  item.out_id = ids_.Next();
  item.name = "W_" + std::to_string(item.out_id);
  auto ref = xtra::ColRef(item.out_id, item.name, item.type);
  block->pending_windows.push_back(std::move(item));
  return ref;
}

Result<xtra::ExprPtr> Binder::BindExpr(const sql::Expr& e, Scope* scope,
                                       BlockState* block) {
  switch (e.kind) {
    case ExprKind::kConst: {
      xtra::ExprPtr c = xtra::Const(e.value, e.const_type);
      c->literal_offset = OwnLiteral(e.literal_offset);
      return c;
    }
    case ExprKind::kIdent:
      return BindIdent(e, scope);
    case ExprKind::kStar:
      return Status::BindError("'*' is not valid in this context");
    case ExprKind::kParam:
      return Status::BindError("unresolved parameter :",
                               e.name_parts.empty() ? "?" : e.name_parts[0]);
    case ExprKind::kUnary: {
      HQ_ASSIGN_OR_RETURN(xtra::ExprPtr c,
                          BindExpr(*e.children[0], scope, block));
      if (e.uop == sql::UnaryOp::kNot) return xtra::Not(std::move(c));
      if (e.uop == sql::UnaryOp::kPlus) return c;
      // Negation of a constant folds immediately.
      if (c->kind == xtra::ExprKind::kConst && c->value.is_int()) {
        return xtra::Const(Datum::Int(-c->value.int_val()), c->type);
      }
      if (c->kind == xtra::ExprKind::kConst && c->value.is_decimal()) {
        Decimal d = c->value.decimal_val();
        d.value = -d.value;
        return xtra::Const(Datum::MakeDecimal(d), c->type);
      }
      if (c->kind == xtra::ExprKind::kConst && c->value.is_double()) {
        return xtra::Const(Datum::MakeDouble(-c->value.double_val()), c->type);
      }
      SqlType t = c->type;
      return xtra::Func("$NEG", MakeVec(std::move(c)), t);
    }
    case ExprKind::kBinary:
      return BindBinary(e, scope, block);
    case ExprKind::kFunc:
      if (e.func_name == "$ROW") {
        return Status::BindError("row value used outside a comparison");
      }
      return BindFunc(e, scope, block);
    case ExprKind::kCast: {
      HQ_ASSIGN_OR_RETURN(xtra::ExprPtr c,
                          BindExpr(*e.children[0], scope, block));
      auto cast = std::make_unique<xtra::Expr>(xtra::ExprKind::kCast);
      cast->type = e.cast_type;
      cast->children.push_back(std::move(c));
      return xtra::ExprPtr(std::move(cast));
    }
    case ExprKind::kCase: {
      auto out = std::make_unique<xtra::Expr>(xtra::ExprKind::kCase);
      xtra::ExprPtr operand;
      if (e.case_operand) {
        HQ_ASSIGN_OR_RETURN(operand, BindExpr(*e.case_operand, scope, block));
      }
      SqlType result = SqlType::Null();
      for (const auto& [w, t] : e.when_then) {
        HQ_ASSIGN_OR_RETURN(xtra::ExprPtr we, BindExpr(*w, scope, block));
        HQ_ASSIGN_OR_RETURN(xtra::ExprPtr te, BindExpr(*t, scope, block));
        if (operand) {
          // Simple CASE lowers to searched CASE.
          we = xtra::Comp(xtra::CompKind::kEq, operand->Clone(),
                          std::move(we));
        }
        result = CommonSuperType(result, te->type);
        out->when_then.emplace_back(std::move(we), std::move(te));
      }
      if (e.else_expr) {
        HQ_ASSIGN_OR_RETURN(out->else_expr,
                            BindExpr(*e.else_expr, scope, block));
        result = CommonSuperType(result, out->else_expr->type);
      }
      out->type = result;
      return xtra::ExprPtr(std::move(out));
    }
    case ExprKind::kIsNull: {
      auto out = std::make_unique<xtra::Expr>(xtra::ExprKind::kIsNull);
      out->negated = e.negated;
      out->type = SqlType::Bool();
      HQ_ASSIGN_OR_RETURN(xtra::ExprPtr c,
                          BindExpr(*e.children[0], scope, block));
      out->children.push_back(std::move(c));
      return xtra::ExprPtr(std::move(out));
    }
    case ExprKind::kLike: {
      auto out = std::make_unique<xtra::Expr>(xtra::ExprKind::kLike);
      out->negated = e.negated;
      out->type = SqlType::Bool();
      for (const auto& c : e.children) {
        HQ_ASSIGN_OR_RETURN(xtra::ExprPtr b, BindExpr(*c, scope, block));
        out->children.push_back(std::move(b));
      }
      return xtra::ExprPtr(std::move(out));
    }
    case ExprKind::kBetween: {
      HQ_ASSIGN_OR_RETURN(xtra::ExprPtr v,
                          BindExpr(*e.children[0], scope, block));
      HQ_ASSIGN_OR_RETURN(xtra::ExprPtr lo,
                          BindExpr(*e.children[1], scope, block));
      HQ_ASSIGN_OR_RETURN(xtra::ExprPtr hi,
                          BindExpr(*e.children[2], scope, block));
      std::vector<xtra::ExprPtr> kids;
      kids.push_back(
          xtra::Comp(xtra::CompKind::kGe, v->Clone(), std::move(lo)));
      kids.push_back(xtra::Comp(xtra::CompKind::kLe, std::move(v),
                                std::move(hi)));
      auto range = xtra::BoolOp(xtra::BoolKind::kAnd, std::move(kids));
      if (e.negated) return xtra::Not(std::move(range));
      return range;
    }
    case ExprKind::kInPred: {
      if (e.subquery) {
        auto out = std::make_unique<xtra::Expr>(xtra::ExprKind::kSubqIn);
        out->negated = e.negated;
        out->type = SqlType::Bool();
        HQ_ASSIGN_OR_RETURN(xtra::ExprPtr v,
                            BindExpr(*e.children[0], scope, block));
        out->children.push_back(std::move(v));
        HQ_ASSIGN_OR_RETURN(out->subplan, BindQueryExpr(*e.subquery, scope));
        if (out->subplan->output.size() != 1) {
          return Status::BindError("IN subquery must return one column");
        }
        return xtra::ExprPtr(std::move(out));
      }
      auto out = std::make_unique<xtra::Expr>(xtra::ExprKind::kInList);
      out->negated = e.negated;
      out->type = SqlType::Bool();
      for (const auto& c : e.children) {
        HQ_ASSIGN_OR_RETURN(xtra::ExprPtr b, BindExpr(*c, scope, block));
        out->children.push_back(std::move(b));
      }
      return xtra::ExprPtr(std::move(out));
    }
    case ExprKind::kExtract: {
      auto out = std::make_unique<xtra::Expr>(xtra::ExprKind::kExtract);
      out->func_name = e.func_name;
      out->type = SqlType::Int();
      HQ_ASSIGN_OR_RETURN(xtra::ExprPtr c,
                          BindExpr(*e.children[0], scope, block));
      out->children.push_back(std::move(c));
      return xtra::ExprPtr(std::move(out));
    }
    case ExprKind::kScalarSubq: {
      auto out = std::make_unique<xtra::Expr>(xtra::ExprKind::kSubqScalar);
      HQ_ASSIGN_OR_RETURN(out->subplan, BindQueryExpr(*e.subquery, scope));
      if (out->subplan->output.size() != 1) {
        return Status::BindError("scalar subquery must return one column");
      }
      out->type = out->subplan->output[0].type;
      return xtra::ExprPtr(std::move(out));
    }
    case ExprKind::kExistsSubq: {
      auto out = std::make_unique<xtra::Expr>(xtra::ExprKind::kSubqExists);
      out->negated = e.negated;
      out->type = SqlType::Bool();
      HQ_ASSIGN_OR_RETURN(out->subplan, BindQueryExpr(*e.subquery, scope));
      return xtra::ExprPtr(std::move(out));
    }
    case ExprKind::kQuantified: {
      auto out = std::make_unique<xtra::Expr>(xtra::ExprKind::kSubqQuantified);
      out->type = SqlType::Bool();
      out->quant_cmp = CompFromAst(e.quant_cmp);
      out->quantifier = e.quantifier == sql::SubqQuantifier::kAny
                            ? xtra::Quantifier::kAny
                            : xtra::Quantifier::kAll;
      for (const auto& c : e.children) {
        HQ_ASSIGN_OR_RETURN(xtra::ExprPtr b, BindExpr(*c, scope, block));
        out->children.push_back(std::move(b));
      }
      HQ_ASSIGN_OR_RETURN(out->subplan, BindQueryExpr(*e.subquery, scope));
      if (out->subplan->output.size() != out->children.size()) {
        return Status::BindError("quantified comparison row has ",
                                 out->children.size(),
                                 " values but the subquery returns ",
                                 out->subplan->output.size(), " columns");
      }
      if (out->children.size() > 1) {
        features_.Record(Feature::kVectorSubquery);
      }
      return xtra::ExprPtr(std::move(out));
    }
    case ExprKind::kWindow:
      return BindWindow(e, scope, block);
  }
  return Status::Internal("unhandled AST expression kind");
}

// ---------------------------------------------------------------------------
// Block binding
// ---------------------------------------------------------------------------

Result<OpPtr> Binder::BindBlock(const sql::QueryBlock& qb,
                                const sql::SelectStmt& enclosing,
                                Scope* outer) {
  Scope scope;
  scope.parent = outer;
  BlockState state;

  // 1. FROM, then the tables implicit-join expansion adds after it. The
  // block is the caller's AST and stays as parsed.
  OpPtr plan;
  auto cross_join = [&](OpPtr item) {
    if (!plan) {
      plan = std::move(item);
      return;
    }
    auto join = std::make_unique<Op>(OpKind::kJoin);
    join->join_kind = xtra::JoinKind::kCross;
    join->output = plan->output;
    join->output.insert(join->output.end(), item->output.begin(),
                        item->output.end());
    join->children.push_back(std::move(plan));
    join->children.push_back(std::move(item));
    plan = std::move(join);
  };
  std::vector<std::string> implicit = ImplicitJoinTables(qb);
  for (const auto& ref : qb.from) {
    HQ_ASSIGN_OR_RETURN(OpPtr item, BindTableRef(*ref, &scope, outer));
    cross_join(std::move(item));
  }
  for (const auto& table : implicit) {
    HQ_ASSIGN_OR_RETURN(OpPtr item, BindBaseTable(table, "", &scope));
    cross_join(std::move(item));
  }
  if (!plan) {
    // FROM-less SELECT (e.g. SELECT 1): single empty row.
    auto values = std::make_unique<Op>(OpKind::kValues);
    values->rows.emplace_back();
    plan = std::move(values);
  }

  // 2. WHERE.
  if (qb.where) {
    BlockState where_state;
    HQ_ASSIGN_OR_RETURN(xtra::ExprPtr pred,
                        BindExpr(*qb.where, &scope, &where_state));
    if (!where_state.pending_windows.empty() || where_state.saw_agg) {
      return Status::BindError(
          "aggregates/window functions are not allowed in WHERE");
    }
    plan = xtra::Select(std::move(plan), std::move(pred));
  }

  // 3. Select list (with chained-projection support).
  struct BoundItem {
    xtra::ExprPtr expr;
    std::string name;
  };
  std::vector<BoundItem> items;
  std::vector<xtra::ExprPtr> named_storage;
  for (const auto& item : qb.select_list) {
    if (item.is_star) {
      std::string qual = ToUpper(item.star_qualifier);
      bool any = false;
      for (const auto& col : scope.columns) {
        if (!qual.empty() && col.qualifier != qual) continue;
        items.push_back({xtra::ColRef(col.id, col.display, col.type),
                         col.display});
        any = true;
      }
      if (!any) {
        return Status::BindError("no columns match '",
                                 item.star_qualifier.empty()
                                     ? std::string("*")
                                     : item.star_qualifier + ".*",
                                 "'");
      }
      continue;
    }
    HQ_ASSIGN_OR_RETURN(xtra::ExprPtr bound, BindExpr(*item.expr, &scope,
                                                      &state));
    std::string name = item.alias;
    if (name.empty()) {
      if (bound->kind == xtra::ExprKind::kColRef) {
        name = bound->col_name.substr(bound->col_name.rfind('.') + 1);
      } else {
        name = "EXPR_" + std::to_string(items.size() + 1);
      }
    }
    if (!item.alias.empty()) {
      named_storage.push_back(bound->Clone());
      scope.named[ToUpper(item.alias)] = named_storage.back().get();
    }
    items.push_back({std::move(bound), std::move(name)});
  }

  // 4. GROUP BY (ordinals + named expressions resolved here).
  std::vector<xtra::ExprPtr> group_exprs;
  for (const auto& g : qb.group_by.items) {
    if (g->kind == ExprKind::kConst && g->value.is_int()) {
      int64_t ord = g->value.int_val();
      if (ord < 1 || ord > static_cast<int64_t>(items.size())) {
        return Status::BindError("GROUP BY position ", ord,
                                 " is out of range");
      }
      features_.Record(Feature::kOrdinalGroupBy);
      group_exprs.push_back(items[ord - 1].expr->Clone());
      continue;
    }
    BlockState gstate;
    HQ_ASSIGN_OR_RETURN(xtra::ExprPtr ge, BindExpr(*g, &scope, &gstate));
    group_exprs.push_back(std::move(ge));
  }
  if (qb.group_by.kind != sql::GroupByKind::kPlain) {
    features_.Record(Feature::kGroupingExtensions);
  }

  // 5. HAVING.
  xtra::ExprPtr having;
  if (qb.having) {
    HQ_ASSIGN_OR_RETURN(having, BindExpr(*qb.having, &scope, &state));
  }

  bool need_agg = !group_exprs.empty() || state.saw_agg ||
                  (having && ContainsAgg(*having));
  for (const auto& it : items) {
    if (ContainsAgg(*it.expr)) need_agg = true;
  }

  if (need_agg && !state.pending_windows.empty()) {
    return Status::NotSupported(
        "window functions combined with aggregation in one block");
  }

  if (need_agg) {
    auto agg = std::make_unique<Op>(OpKind::kAggregate);
    for (auto& ge : group_exprs) {
      int out_id =
          ge->kind == xtra::ExprKind::kColRef ? ge->col_id : ids_.Next();
      std::string name = ge->kind == xtra::ExprKind::kColRef
                             ? ge->col_name.substr(ge->col_name.rfind('.') + 1)
                             : "GRP_" + std::to_string(out_id);
      agg->output.push_back({out_id, name, ge->type});
      agg->group_by.push_back(std::move(ge));
    }
    // Grouping sets (ROLLUP/CUBE/GROUPING SETS) as index lists.
    int n = static_cast<int>(agg->group_by.size());
    switch (qb.group_by.kind) {
      case sql::GroupByKind::kPlain:
        break;
      case sql::GroupByKind::kRollup:
        for (int k = n; k >= 0; --k) {
          std::vector<int> set;
          for (int i = 0; i < k; ++i) set.push_back(i);
          agg->grouping_sets.push_back(std::move(set));
        }
        break;
      case sql::GroupByKind::kCube:
        for (int mask = (1 << n) - 1; mask >= 0; --mask) {
          std::vector<int> set;
          for (int i = 0; i < n; ++i) {
            if (mask & (1 << i)) set.push_back(i);
          }
          agg->grouping_sets.push_back(std::move(set));
        }
        break;
      case sql::GroupByKind::kGroupingSets: {
        // Sets were parsed as expression lists; bind each against the
        // already-bound group expressions by structural match.
        for (const auto& set_ast : qb.group_by.sets) {
          std::vector<int> set;
          for (const auto& e : set_ast) {
            BlockState gstate;
            HQ_ASSIGN_OR_RETURN(xtra::ExprPtr be,
                                BindExpr(*e, &scope, &gstate));
            int found = -1;
            for (int i = 0; i < n; ++i) {
              if (xtra::ExprEquals(*be, *agg->group_by[i])) found = i;
            }
            if (found < 0) {
              // A set member not in the outer list: append it.
              int out_id = be->kind == xtra::ExprKind::kColRef
                               ? be->col_id
                               : ids_.Next();
              agg->output.insert(
                  agg->output.begin() + agg->group_by.size(),
                  {out_id, "GRP_" + std::to_string(out_id), be->type});
              agg->group_by.push_back(std::move(be));
              found = n++;
            }
            set.push_back(found);
          }
          agg->grouping_sets.push_back(std::move(set));
        }
        break;
      }
    }

    for (auto& it : items) {
      FoldIntoAggregate(&it.expr, agg.get(), &ids_);
    }
    if (having) FoldIntoAggregate(&having, agg.get(), &ids_);
    agg->children.push_back(std::move(plan));
    plan = std::move(agg);
    if (having) {
      plan = xtra::Select(std::move(plan), std::move(having));
    }
  } else if (having) {
    plan = xtra::Select(std::move(plan), std::move(having));
  }

  // 6. QUALIFY: bind after the select list so its windows join the pending
  // set; lowered to Window + post-window filter (paper Table 2).
  xtra::ExprPtr qualify_pred;
  if (qb.qualify) {
    features_.Record(Feature::kQualify);
    HQ_ASSIGN_OR_RETURN(qualify_pred, BindExpr(*qb.qualify, &scope, &state));
  }

  // 7. Window computation.
  if (!state.pending_windows.empty()) {
    auto win = std::make_unique<Op>(OpKind::kWindow);
    win->output = plan->output;
    for (auto& w : state.pending_windows) {
      win->output.push_back({w.out_id, w.name, w.type});
      win->windows.push_back(std::move(w));
    }
    win->children.push_back(std::move(plan));
    plan = std::move(win);
  }
  if (qualify_pred) {
    auto sel = xtra::Select(std::move(plan), std::move(qualify_pred));
    sel->post_window_filter = true;
    plan = std::move(sel);
  }

  // 8. Projection.
  {
    std::vector<xtra::ProjectItem> proj;
    for (auto& it : items) {
      xtra::ProjectItem pi;
      pi.out_id = it.expr->kind == xtra::ExprKind::kColRef ? it.expr->col_id
                                                           : ids_.Next();
      pi.name = it.name;
      pi.expr = std::move(it.expr);
      proj.push_back(std::move(pi));
    }
    plan = xtra::Project(std::move(plan), std::move(proj));
    plan->project_distinct = qb.distinct;
  }

  // 9. ORDER BY (the enclosing statement's; may use aliases/ordinals).
  if (!enclosing.order_by.empty() && enclosing.block.get() == &qb) {
    auto sort = std::make_unique<Op>(OpKind::kSort);
    sort->output = plan->output;
    std::vector<xtra::ProjectItem> hidden;
    for (const auto& oi : enclosing.order_by) {
      xtra::SortItem si;
      si.descending = oi.descending;
      si.nulls_first = oi.nulls_first;
      const ColumnInfo* target = nullptr;
      if (oi.expr->kind == ExprKind::kConst && oi.expr->value.is_int()) {
        int64_t ord = oi.expr->value.int_val();
        if (ord < 1 || ord > static_cast<int64_t>(plan->output.size())) {
          return Status::BindError("ORDER BY position ", ord,
                                   " is out of range");
        }
        features_.Record(Feature::kOrdinalGroupBy);
        target = &plan->output[ord - 1];
      } else if (oi.expr->kind == ExprKind::kIdent &&
                 oi.expr->name_parts.size() == 1) {
        std::string want = ToUpper(oi.expr->name_parts[0]);
        for (const auto& col : plan->output) {
          if (ToUpper(col.name) == want) {
            target = &col;
            break;
          }
        }
      }
      if (target != nullptr) {
        si.expr = xtra::ColRef(target->id, target->name, target->type);
      } else {
        // Arbitrary expression over the FROM scope: compute it as a hidden
        // projection column.
        BlockState ostate;
        HQ_ASSIGN_OR_RETURN(xtra::ExprPtr oe,
                            BindExpr(*oi.expr, &scope, &ostate));
        if (need_agg) {
          Op* agg_op = plan.get();
          while (agg_op && agg_op->kind != OpKind::kAggregate) {
            agg_op = agg_op->children.empty() ? nullptr
                                              : agg_op->children[0].get();
          }
          if (agg_op) FoldIntoAggregate(&oe, agg_op, &ids_);
        }
        bool is_visible_colref =
            oe->kind == xtra::ExprKind::kColRef &&
            plan->FindOutput(oe->col_id) != nullptr;
        if (!is_visible_colref) {
          // Hidden sort column: compute it in the projection beneath.
          int id = ids_.Next();
          xtra::ProjectItem pi;
          pi.out_id = id;
          pi.name = "SORT_" + std::to_string(id);
          SqlType t = oe->type;
          pi.expr = std::move(oe);
          hidden.push_back(std::move(pi));
          si.expr = xtra::ColRef(id, hidden.back().name, t);
        } else {
          si.expr = std::move(oe);
        }
      }
      sort->sort_items.push_back(std::move(si));
    }
    if (!hidden.empty()) {
      // Attach hidden sort columns to the projection beneath.
      Op* proj = plan.get();
      for (auto& h : hidden) {
        proj->output.push_back({h.out_id, h.name, h.expr->type});
        proj->projections.push_back(std::move(h));
      }
      sort->output = proj->output;
    }
    sort->children.push_back(std::move(plan));
    plan = std::move(sort);
  }

  // 10. TOP n / LIMIT.
  int64_t limit = -1;
  int limit_offset = -1;
  bool ties = false;
  if (qb.top_n >= 0) {
    features_.Record(Feature::kTopToLimit);
    limit = qb.top_n;
    limit_offset = qb.top_offset;
    ties = qb.top_with_ties;
    if (ties) features_.Record(Feature::kOrderedAnalytics);
  }
  if (enclosing.limit >= 0 && enclosing.block.get() == &qb) {
    limit = enclosing.limit;
    limit_offset = enclosing.limit_offset;
  }
  if (limit >= 0) {
    auto lim = std::make_unique<Op>(OpKind::kLimit);
    lim->output = plan->output;
    lim->limit_count = limit;
    lim->limit_offset = OwnLiteral(limit_offset);
    lim->with_ties = ties;
    lim->children.push_back(std::move(plan));
    plan = std::move(lim);
  }
  return plan;
}

// ---------------------------------------------------------------------------
// DML binding
// ---------------------------------------------------------------------------

Result<const TableDef*> Binder::ResolveDmlTarget(const std::string& name,
                                                 std::string* resolved) {
  if (catalog_->HasView(name)) {
    features_.Record(Feature::kDmlOnViews);
    HQ_ASSIGN_OR_RETURN(const ViewDef* view, catalog_->GetView(name));
    // Only simple single-table views are updatable.
    HQ_ASSIGN_OR_RETURN(sql::StatementPtr parsed,
                        sql::ParseStatement(view->definition_sql, dialect_));
    const auto* sel = parsed->As<sql::SelectStatement>();
    if (parsed->kind != sql::StmtKind::kSelect || !sel->query->block ||
        sel->query->block->from.size() != 1 ||
        sel->query->block->from[0]->kind !=
            sql::TableRef::Kind::kBaseTable) {
      return Status::NotSupported("view '", name,
                                  "' is not updatable (complex definition)");
    }
    std::string base = sel->query->block->from[0]->table_name;
    if (!catalog_->HasTable(base)) {
      return Status::BindError("view '", name,
                               "' references unknown table '", base, "'");
    }
    *resolved = Catalog::NormalizeName(base);
    return catalog_->GetTable(base);
  }
  HQ_ASSIGN_OR_RETURN(const TableDef* table, catalog_->GetTable(name));
  *resolved = Catalog::NormalizeName(name);
  return table;
}

Result<OpPtr> Binder::BindInsert(const sql::InsertStatement& stmt) {
  std::string target;
  HQ_ASSIGN_OR_RETURN(const TableDef* table,
                      ResolveDmlTarget(stmt.table, &target));
  if (table->semantics == TableSemantics::kSet) {
    features_.Record(Feature::kSetSemantics);
  }
  if (table->is_global_temporary) {
    features_.Record(Feature::kTemporaryTables);
  }

  std::vector<std::string> columns = stmt.columns;
  if (columns.empty()) {
    for (const auto& col : table->columns) columns.push_back(col.name);
  }
  // Validate columns and find their definitions.
  std::vector<const ColumnDef*> defs;
  for (const auto& c : columns) {
    int idx = table->FindColumn(c);
    if (idx < 0) {
      return Status::BindError("column '", c, "' does not exist in table '",
                               stmt.table, "'");
    }
    defs.push_back(&table->columns[idx]);
  }

  auto op = std::make_unique<Op>(OpKind::kInsert);
  op->target_table = target;
  for (const auto& c : columns) op->target_columns.push_back(ToUpper(c));

  if (stmt.source) {
    HQ_ASSIGN_OR_RETURN(OpPtr src, BindQueryExpr(*stmt.source, nullptr));
    if (src->output.size() != columns.size()) {
      return Status::BindError("INSERT source returns ", src->output.size(),
                               " columns, expected ", columns.size());
    }
    op->children.push_back(std::move(src));
  } else {
    auto values = std::make_unique<Op>(OpKind::kValues);
    Scope empty;
    BlockState state;
    for (const auto& row : stmt.values_rows) {
      if (row.size() != columns.size()) {
        return Status::BindError("INSERT row has ", row.size(),
                                 " values, expected ", columns.size());
      }
      std::vector<xtra::ExprPtr> bound_row;
      for (size_t i = 0; i < row.size(); ++i) {
        HQ_ASSIGN_OR_RETURN(xtra::ExprPtr v,
                            BindExpr(*row[i], &empty, &state));
        bound_row.push_back(std::move(v));
      }
      values->rows.push_back(std::move(bound_row));
    }
    for (size_t i = 0; i < columns.size(); ++i) {
      values->output.push_back({ids_.Next(), ToUpper(columns[i]),
                                defs[i]->type});
    }
    op->children.push_back(std::move(values));
  }

  // Missing columns with non-constant defaults are filled by the mid-tier
  // (target systems cannot evaluate them): extend the column list.
  for (const auto& col : table->columns) {
    bool present = false;
    for (const auto& c : columns) {
      if (EqualsIgnoreCase(c, col.name)) present = true;
    }
    if (!present && col.props.has_default) {
      features_.Record(Feature::kColumnProperties);
      op->target_columns.push_back(ToUpper(col.name));
      // Evaluate the default in the mid-tier: bind its expression and add
      // it as an extra value/projection.
      HQ_ASSIGN_OR_RETURN(
          sql::StatementPtr dflt_stmt,
          sql::ParseStatement("SELECT " + col.props.default_expr, dialect_));
      Scope empty;
      BlockState state;
      binding_default_ = true;
      auto bound_default =
          BindExpr(*dflt_stmt->As<sql::SelectStatement>()
                        ->query->block->select_list[0]
                        .expr,
                   &empty, &state);
      binding_default_ = false;
      HQ_ASSIGN_OR_RETURN(xtra::ExprPtr dflt, std::move(bound_default));
      Op* src = op->children[0].get();
      if (src->kind == OpKind::kValues) {
        for (auto& row : src->rows) row.push_back(dflt->Clone());
        src->output.push_back({ids_.Next(), ToUpper(col.name), col.type});
      } else {
        std::vector<xtra::ProjectItem> proj;
        for (const auto& out : src->output) {
          xtra::ProjectItem pi;
          pi.expr = xtra::ColRef(out.id, out.name, out.type);
          pi.out_id = out.id;
          pi.name = out.name;
          proj.push_back(std::move(pi));
        }
        xtra::ProjectItem pi;
        pi.out_id = ids_.Next();
        pi.name = ToUpper(col.name);
        pi.expr = std::move(dflt);
        proj.push_back(std::move(pi));
        op->children[0] =
            xtra::Project(std::move(op->children[0]), std::move(proj));
      }
    }
  }
  return OpPtr(std::move(op));
}

Result<OpPtr> Binder::BindUpdate(const sql::UpdateStatement& stmt) {
  std::string target;
  HQ_ASSIGN_OR_RETURN(const TableDef* table,
                      ResolveDmlTarget(stmt.table, &target));
  auto op = std::make_unique<Op>(OpKind::kUpdate);
  op->target_table = target;

  Scope scope;
  std::string qual =
      stmt.alias.empty() ? target : ToUpper(stmt.alias);
  for (const auto& col : table->columns) {
    int id = ids_.Next();
    op->target_col_ids.push_back(id);
    scope.columns.push_back({qual, ToUpper(col.name), col.name, id,
                             col.type});
  }
  BlockState state;
  for (const auto& [col, val] : stmt.assignments) {
    if (table->FindColumn(col) < 0) {
      return Status::BindError("column '", col, "' does not exist in '",
                               stmt.table, "'");
    }
    HQ_ASSIGN_OR_RETURN(xtra::ExprPtr v, BindExpr(*val, &scope, &state));
    op->assignments.emplace_back(ToUpper(col), std::move(v));
  }
  if (stmt.where) {
    HQ_ASSIGN_OR_RETURN(op->predicate, BindExpr(*stmt.where, &scope, &state));
  }
  return OpPtr(std::move(op));
}

Result<OpPtr> Binder::BindDelete(const sql::DeleteStatement& stmt) {
  std::string target;
  HQ_ASSIGN_OR_RETURN(const TableDef* table,
                      ResolveDmlTarget(stmt.table, &target));
  auto op = std::make_unique<Op>(OpKind::kDelete);
  op->target_table = target;
  Scope scope;
  for (const auto& col : table->columns) {
    int id = ids_.Next();
    op->target_col_ids.push_back(id);
    scope.columns.push_back({target, ToUpper(col.name), col.name, id,
                             col.type});
  }
  BlockState state;
  if (stmt.where) {
    HQ_ASSIGN_OR_RETURN(op->predicate, BindExpr(*stmt.where, &scope, &state));
  }
  return OpPtr(std::move(op));
}

}  // namespace hyperq::binder
