#include "transform/transformer.h"

#include <cassert>

namespace hyperq::transform {

using xtra::ArithKind;
using xtra::BoolKind;
using xtra::ColumnInfo;
using xtra::CompKind;
using xtra::Expr;
using xtra::ExprKind;
using xtra::ExprPtr;
using xtra::Op;
using xtra::OpKind;
using xtra::OpPtr;

// ---------------------------------------------------------------------------
// Expression walking
// ---------------------------------------------------------------------------

void MutateExprTree(ExprPtr* e, const std::function<void(ExprPtr*)>& fn) {
  if (!*e) return;
  fn(e);
  if (!*e) return;
  for (auto& c : (*e)->children) MutateExprTree(&c, fn);
  for (auto& [w, t] : (*e)->when_then) {
    MutateExprTree(&w, fn);
    MutateExprTree(&t, fn);
  }
  if ((*e)->else_expr) MutateExprTree(&(*e)->else_expr, fn);
  // Subplan operators are visited by the Transformer driver, not here.
}

void MutateExprs(Op* op, const std::function<void(ExprPtr*)>& fn) {
  for (auto& row : op->rows) {
    for (auto& e : row) MutateExprTree(&e, fn);
  }
  if (op->predicate) MutateExprTree(&op->predicate, fn);
  for (auto& p : op->projections) MutateExprTree(&p.expr, fn);
  for (auto& w : op->windows) {
    for (auto& a : w.args) MutateExprTree(&a, fn);
    for (auto& p : w.partition_by) MutateExprTree(&p, fn);
    for (auto& o : w.order_by) MutateExprTree(&o.expr, fn);
  }
  for (auto& g : op->group_by) MutateExprTree(&g, fn);
  for (auto& a : op->aggregates) {
    if (a.arg) MutateExprTree(&a.arg, fn);
  }
  for (auto& s : op->sort_items) MutateExprTree(&s.expr, fn);
  for (auto& [n, e] : op->assignments) MutateExprTree(&e, fn);
}

namespace {

ExprPtr MakeNullConst(const SqlType& type) {
  return xtra::Const(Datum::Null(), type);
}

// ---------------------------------------------------------------------------
// comp_date_to_int (binding stage)
// ---------------------------------------------------------------------------

// Expands the DATE side of a DATE-INTEGER comparison into the arithmetic
// expression DAY + MONTH * 100 + (YEAR - 1900) * 10000, the Teradata integer
// encoding (paper §5.2 and Figure 5).
class CompDateToIntRule : public Rule {
 public:
  const char* name() const override { return "comp_date_to_int"; }
  Stage stage() const override { return Stage::kBinding; }
  std::vector<OpKind> Triggers() const override { return {}; }

  Status Apply(OpPtr* op, TransformContext* ctx) override {
    MutateExprs(op->get(), [&](ExprPtr* e) {
      Expr& x = **e;
      if (x.kind != ExprKind::kComp) return;
      Expr* l = x.children[0].get();
      Expr* r = x.children[1].get();
      auto expand = [&](ExprPtr* date_side) {
        *date_side = ExpandDate(std::move(*date_side));
        ctx->changed = true;
        if (ctx->features) {
          ctx->features->Record(Feature::kDateIntComparison);
        }
      };
      if (l->type.kind == TypeKind::kDate && r->type.IsInteger()) {
        expand(&x.children[0]);
      } else if (r->type.kind == TypeKind::kDate && l->type.IsInteger()) {
        expand(&x.children[1]);
      }
    });
    return Status::OK();
  }

 private:
  static ExprPtr MakeExtract(const char* field, const Expr& date) {
    auto e = std::make_unique<Expr>(ExprKind::kExtract);
    e->func_name = field;
    e->type = SqlType::Int();
    e->children.push_back(date.Clone());
    return e;
  }

  static ExprPtr ExpandDate(ExprPtr date) {
    // (DAY + MONTH * 100) + (YEAR - 1900) * 10000, left-nested so the tree
    // printer flattens it like the paper's Figure 5.
    ExprPtr day = MakeExtract("DAY", *date);
    ExprPtr month = xtra::Arith(ArithKind::kMul, MakeExtract("MONTH", *date),
                                xtra::IntConst(100));
    ExprPtr year = xtra::Arith(
        ArithKind::kMul,
        xtra::Arith(ArithKind::kSub, MakeExtract("YEAR", *date),
                    xtra::IntConst(1900)),
        xtra::IntConst(10000));
    return xtra::Arith(ArithKind::kAdd,
                       xtra::Arith(ArithKind::kAdd, std::move(day),
                                   std::move(month)),
                       std::move(year));
  }
};

// ---------------------------------------------------------------------------
// vector_subq_to_exists (serialization stage)
// ---------------------------------------------------------------------------

// Replaces a quantified (possibly vector) subquery comparison with an
// existential correlated subquery (paper §5.3, Figures 6/7):
//   (a, b) > ANY (SELECT g, n FROM S)
//     ==> EXISTS (SELECT 1 FROM S WHERE a > g OR (a = g AND b > n))
// ALL becomes NOT EXISTS over the negated row predicate.
class VectorSubqToExistsRule : public Rule {
 public:
  const char* name() const override { return "vector_subq_to_exists"; }
  Stage stage() const override { return Stage::kSerialization; }
  std::vector<OpKind> Triggers() const override { return {}; }

  Status Apply(OpPtr* op, TransformContext* ctx) override {
    Status status = Status::OK();
    MutateExprs(op->get(), [&](ExprPtr* e) {
      Expr& x = **e;
      if (x.kind != ExprKind::kSubqQuantified) return;
      bool vector = x.children.size() > 1;
      if (vector && ctx->profile->supports_vector_subquery) return;
      if (!vector && ctx->profile->supports_quantified_subquery) return;

      // Row predicate over the subplan's output columns.
      std::vector<ColumnInfo> cols = x.subplan->output;
      ExprPtr row_pred = BuildRowComparison(x, cols);
      bool negate = x.quantifier == xtra::Quantifier::kAll;
      if (negate) {
        // ALL under filter semantics keeps the outer row only when every
        // comparison is TRUE, so the NOT EXISTS witness set must contain
        // rows whose comparison is FALSE *or UNKNOWN*. Plain NOT(pred)
        // loses the UNKNOWN rows (NOT NULL = NULL is filtered out) and
        // wrongly keeps the outer row when the subquery has NULLs.
        // Unknown-ness is guarded operand-wise: exact for the scalar
        // case, conservative for vector rows (any NULL operand counts).
        std::vector<ExprPtr> witness;
        witness.push_back(xtra::Not(std::move(row_pred)));
        for (size_t i = 0; i < x.children.size(); ++i) {
          auto outer_null = std::make_unique<Expr>(ExprKind::kIsNull);
          outer_null->type = SqlType::Bool();
          outer_null->children.push_back(x.children[i]->Clone());
          witness.push_back(std::move(outer_null));
          auto inner_null = std::make_unique<Expr>(ExprKind::kIsNull);
          inner_null->type = SqlType::Bool();
          inner_null->children.push_back(
              xtra::ColRef(cols[i].id, cols[i].name, cols[i].type));
          witness.push_back(std::move(inner_null));
        }
        row_pred = xtra::BoolOp(BoolKind::kOr, std::move(witness));
      }

      // SELECT 1 FROM <subplan> WHERE <pred> — the paper's "remap consts"
      // projection under a select (Figure 6).
      std::vector<xtra::ProjectItem> items;
      xtra::ProjectItem one;
      one.expr = xtra::IntConst(1);
      one.out_id = ctx->ids ? ctx->ids->Next() : binder::kFirstRewriteColId;
      one.name = "ONE";
      items.push_back(std::move(one));
      OpPtr remap = xtra::Project(std::move(x.subplan), std::move(items));
      OpPtr filtered = xtra::Select(std::move(remap), std::move(row_pred));

      auto exists = std::make_unique<Expr>(ExprKind::kSubqExists);
      exists->type = SqlType::Bool();
      exists->negated = negate;
      exists->subplan = std::move(filtered);
      *e = std::move(exists);
      ctx->changed = true;
      if (ctx->features && vector) {
        ctx->features->Record(Feature::kVectorSubquery);
      }
    });
    return status;
  }

 private:
  // For ANY with comparison θ over row (r1..rk) vs columns (c1..ck):
  //   OR_{i} ( AND_{j<i} r_j = c_j  AND  r_i θ' c_i )
  // where θ' is the strict form of θ for i<k and θ itself for i=k.
  // Equality is the conjunction of all positions; inequality its negation.
  static ExprPtr BuildRowComparison(Expr& x,
                                    const std::vector<ColumnInfo>& cols) {
    size_t k = x.children.size();
    auto col_ref = [&](size_t i) {
      return xtra::ColRef(cols[i].id, cols[i].name, cols[i].type);
    };
    CompKind cmp = x.quant_cmp;
    if (cmp == CompKind::kEq || cmp == CompKind::kNe) {
      std::vector<ExprPtr> eqs;
      for (size_t i = 0; i < k; ++i) {
        eqs.push_back(xtra::Comp(CompKind::kEq, x.children[i]->Clone(),
                                 col_ref(i)));
      }
      ExprPtr all_eq = xtra::Conjoin(std::move(eqs));
      if (cmp == CompKind::kNe) return xtra::Not(std::move(all_eq));
      return all_eq;
    }
    CompKind strict = cmp == CompKind::kLe   ? CompKind::kLt
                      : cmp == CompKind::kGe ? CompKind::kGt
                                             : cmp;
    std::vector<ExprPtr> disjuncts;
    for (size_t i = 0; i < k; ++i) {
      std::vector<ExprPtr> conj;
      for (size_t j = 0; j < i; ++j) {
        conj.push_back(xtra::Comp(CompKind::kEq, x.children[j]->Clone(),
                                  col_ref(j)));
      }
      CompKind use = (i + 1 < k) ? strict : cmp;
      conj.push_back(xtra::Comp(use, x.children[i]->Clone(), col_ref(i)));
      disjuncts.push_back(xtra::Conjoin(std::move(conj)));
    }
    if (disjuncts.size() == 1) return std::move(disjuncts[0]);
    return xtra::BoolOp(BoolKind::kOr, std::move(disjuncts));
  }
};

// ---------------------------------------------------------------------------
// in_subq_to_exists (serialization stage)
// ---------------------------------------------------------------------------

// x IN (SELECT c FROM S)  ==>  EXISTS (SELECT 1 FROM S WHERE x = c)
// Fires only for targets without quantified/IN subquery support; kept as a
// separate rule so the cascade (vector -> exists) is observable.
class InSubqToExistsRule : public Rule {
 public:
  const char* name() const override { return "in_subq_to_exists"; }
  Stage stage() const override { return Stage::kSerialization; }
  std::vector<OpKind> Triggers() const override { return {}; }

  Status Apply(OpPtr* op, TransformContext* ctx) override {
    MutateExprs(op->get(), [&](ExprPtr* e) {
      Expr& x = **e;
      if (x.kind != ExprKind::kSubqIn) return;
      if (ctx->profile->supports_quantified_subquery) return;
      const ColumnInfo col = x.subplan->output[0];
      ExprPtr pred = xtra::Comp(CompKind::kEq, x.children[0]->Clone(),
                                xtra::ColRef(col.id, col.name, col.type));
      std::vector<xtra::ProjectItem> items;
      xtra::ProjectItem one;
      one.expr = xtra::IntConst(1);
      one.out_id = ctx->ids ? ctx->ids->Next() : 1000001;
      one.name = "ONE";
      items.push_back(std::move(one));
      OpPtr remap = xtra::Project(std::move(x.subplan), std::move(items));
      OpPtr filtered = xtra::Select(std::move(remap), std::move(pred));
      auto exists = std::make_unique<Expr>(ExprKind::kSubqExists);
      exists->type = SqlType::Bool();
      exists->negated = x.negated;
      exists->subplan = std::move(filtered);
      *e = std::move(exists);
      ctx->changed = true;
    });
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// grouping_sets_to_union (serialization stage)
// ---------------------------------------------------------------------------

// Expands ROLLUP/CUBE/GROUPING SETS into a UNION ALL over plain aggregates
// (paper Table 2, "OLAP grouping extensions").
class GroupingSetsToUnionRule : public Rule {
 public:
  const char* name() const override { return "grouping_sets_to_union"; }
  Stage stage() const override { return Stage::kSerialization; }
  std::vector<OpKind> Triggers() const override {
    return {OpKind::kAggregate};
  }

  Status Apply(OpPtr* op, TransformContext* ctx) override {
    Op& agg = **op;
    if (agg.kind != OpKind::kAggregate) return Status::OK();
    if (agg.grouping_sets.empty()) return Status::OK();
    if (ctx->profile->supports_grouping_sets) return Status::OK();
    if (ctx->ids == nullptr) {
      return Status::Internal(
          "grouping_sets_to_union requires a column-id generator");
    }

    size_t ngroups = agg.group_by.size();
    OpPtr result;
    for (const auto& set : agg.grouping_sets) {
      // Plain aggregate over the subset.
      auto branch = std::make_unique<Op>(OpKind::kAggregate);
      branch->children.push_back(agg.children[0]->Clone());
      std::vector<int> out_ids(ngroups, -1);
      for (int idx : set) {
        const ExprPtr& g = agg.group_by[idx];
        int id = ctx->ids->Next();
        out_ids[idx] = id;
        branch->output.push_back(
            {id, agg.output[idx].name, agg.output[idx].type});
        branch->group_by.push_back(g->Clone());
      }
      for (const auto& a : agg.aggregates) {
        xtra::AggItem item;
        item.func = a.func;
        if (a.arg) item.arg = a.arg->Clone();
        item.distinct = a.distinct;
        item.out_id = ctx->ids->Next();
        item.name = a.name;
        item.type = a.type;
        branch->output.push_back({item.out_id, item.name, item.type});
        branch->aggregates.push_back(std::move(item));
      }
      // Align to the common layout: group columns (NULL when absent) then
      // aggregates.
      std::vector<xtra::ProjectItem> items;
      for (size_t i = 0; i < ngroups; ++i) {
        xtra::ProjectItem pi;
        pi.out_id = ctx->ids->Next();
        pi.name = agg.output[i].name;
        if (out_ids[i] >= 0) {
          pi.expr = xtra::ColRef(out_ids[i], pi.name, agg.output[i].type);
        } else {
          pi.expr = MakeNullConst(agg.output[i].type);
          pi.expr->type = agg.output[i].type;
        }
        items.push_back(std::move(pi));
      }
      size_t agg_base = ngroups;
      for (size_t i = 0; i < agg.aggregates.size(); ++i) {
        const auto& branch_item = branch->aggregates[i];
        xtra::ProjectItem pi;
        pi.out_id = ctx->ids->Next();
        pi.name = agg.output[agg_base + i].name;
        pi.expr = xtra::ColRef(branch_item.out_id, branch_item.name,
                               branch_item.type);
        items.push_back(std::move(pi));
      }
      OpPtr aligned = xtra::Project(std::move(branch), std::move(items));

      if (!result) {
        result = std::move(aligned);
      } else {
        auto setop = std::make_unique<Op>(OpKind::kSetOp);
        setop->setop_kind = xtra::SetOpKind::kUnionAll;
        for (size_t i = 0; i < result->output.size(); ++i) {
          setop->output.push_back({ctx->ids->Next(), result->output[i].name,
                                   result->output[i].type});
        }
        setop->children.push_back(std::move(result));
        setop->children.push_back(std::move(aligned));
        result = std::move(setop);
      }
    }
    // Preserve the original output ids so parent references stay valid.
    result->output = agg.output;
    if (ctx->features) ctx->features->Record(Feature::kGroupingExtensions);
    *op = std::move(result);
    ctx->changed = true;
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// date_arith_to_func (serialization stage)
// ---------------------------------------------------------------------------

// Rewrites Teradata day arithmetic into explicit target functions
// (paper Table 2: "Replace by DATEADD function"):
//   date + n      -> DATE_ADD_DAYS(date, n)
//   date - n      -> DATE_ADD_DAYS(date, -n)
//   date - date   -> DATE_DIFF_DAYS(a, b)
//   date +/- ival -> DATE_ADD_DAYS(date, days(ival))
class DateArithToFuncRule : public Rule {
 public:
  const char* name() const override { return "date_arith_to_func"; }
  Stage stage() const override { return Stage::kSerialization; }
  std::vector<OpKind> Triggers() const override { return {}; }

  Status Apply(OpPtr* op, TransformContext* ctx) override {
    MutateExprs(op->get(), [&](ExprPtr* e) {
      Expr& x = **e;
      if (x.kind != ExprKind::kArith) return;
      if (x.arith != ArithKind::kAdd && x.arith != ArithKind::kSub) return;
      if (ctx->profile->supports_date_arithmetic) return;
      Expr* l = x.children[0].get();
      Expr* r = x.children[1].get();
      bool l_date = l->type.kind == TypeKind::kDate;
      bool r_date = r->type.kind == TypeKind::kDate;
      if (!l_date && !r_date) return;

      if (l_date && r_date && x.arith == ArithKind::kSub) {
        std::vector<ExprPtr> args;
        args.push_back(std::move(x.children[0]));
        args.push_back(std::move(x.children[1]));
        *e = xtra::Func("DATE_DIFF_DAYS", std::move(args), SqlType::Int());
        MarkChanged(ctx);
        return;
      }
      // Normalize to (date, delta).
      ExprPtr date_side, delta;
      if (l_date) {
        date_side = std::move(x.children[0]);
        delta = std::move(x.children[1]);
      } else {
        if (x.arith == ArithKind::kSub) return;  // n - date: not meaningful
        date_side = std::move(x.children[1]);
        delta = std::move(x.children[0]);
      }
      if (delta->type.kind == TypeKind::kInterval) {
        // Day-time interval constant: convert micros to whole days.
        if (delta->kind == ExprKind::kConst) {
          delta = xtra::IntConst(delta->value.interval_val() / 86400000000LL);
        } else {
          return;  // non-constant intervals are not produced by the binder
        }
      }
      if (x.arith == ArithKind::kSub) {
        SqlType t = delta->type;
        std::vector<ExprPtr> neg;
        neg.push_back(std::move(delta));
        delta = xtra::Func("$NEG", std::move(neg), t);
      }
      std::vector<ExprPtr> args;
      args.push_back(std::move(date_side));
      args.push_back(std::move(delta));
      *e = xtra::Func("DATE_ADD_DAYS", std::move(args), SqlType::Date());
      MarkChanged(ctx);
    });
    return Status::OK();
  }

 private:
  static void MarkChanged(TransformContext* ctx) {
    ctx->changed = true;
    if (ctx->features) ctx->features->Record(Feature::kDateArithmetic);
  }
};

// ---------------------------------------------------------------------------
// top_with_ties_to_rank (serialization stage)
// ---------------------------------------------------------------------------

// TOP n WITH TIES over a sort becomes a RANK window + post-window filter for
// targets whose LIMIT cannot preserve ties. Cascades with QUALIFY lowering:
// both produce the same Window/filter shape.
class TopWithTiesToRankRule : public Rule {
 public:
  const char* name() const override { return "top_with_ties_to_rank"; }
  Stage stage() const override { return Stage::kSerialization; }
  std::vector<OpKind> Triggers() const override { return {OpKind::kLimit}; }

  Status Apply(OpPtr* op, TransformContext* ctx) override {
    Op& limit = **op;
    if (limit.kind != OpKind::kLimit || !limit.with_ties) return Status::OK();
    if (ctx->profile->supports_top_with_ties) return Status::OK();
    if (ctx->ids == nullptr) {
      return Status::Internal("top_with_ties_to_rank requires id generator");
    }
    if (limit.children[0]->kind != OpKind::kSort) {
      // TOP n WITH TIES without ORDER BY degenerates to plain TOP n.
      limit.with_ties = false;
      ctx->changed = true;
      return Status::OK();
    }
    OpPtr sort = std::move(limit.children[0]);
    OpPtr input = std::move(sort->children[0]);
    std::vector<ColumnInfo> base_output = limit.output;

    auto win = std::make_unique<Op>(OpKind::kWindow);
    win->output = input->output;
    xtra::WindowItem item;
    item.func = "RANK";
    for (const auto& s : sort->sort_items) {
      xtra::WindowItem::Order o;
      o.expr = s.expr->Clone();
      o.descending = s.descending;
      o.nulls_first = s.nulls_first;
      item.order_by.push_back(std::move(o));
    }
    item.out_id = ctx->ids->Next();
    item.name = "R_" + std::to_string(item.out_id);
    item.type = SqlType::BigInt();
    int rank_id = item.out_id;
    std::string rank_name = item.name;
    win->output.push_back({item.out_id, item.name, item.type});
    win->windows.push_back(std::move(item));
    win->children.push_back(std::move(input));

    ExprPtr pred =
        xtra::Comp(CompKind::kLe,
                   xtra::ColRef(rank_id, rank_name, SqlType::BigInt()),
                   xtra::IntConst(limit.limit_count));
    OpPtr filter = xtra::Select(std::move(win), std::move(pred));
    filter->post_window_filter = true;

    // Restore ordering and drop the rank column.
    sort->children.clear();
    sort->children.push_back(std::move(filter));
    sort->output = sort->children[0]->output;
    std::vector<xtra::ProjectItem> items;
    for (const auto& col : base_output) {
      xtra::ProjectItem pi;
      pi.expr = xtra::ColRef(col.id, col.name, col.type);
      pi.out_id = col.id;
      pi.name = col.name;
      items.push_back(std::move(pi));
    }
    OpPtr proj = xtra::Project(std::move(sort), std::move(items));
    if (ctx->features) ctx->features->Record(Feature::kOrderedAnalytics);
    *op = std::move(proj);
    ctx->changed = true;
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// insert_set_semantics (serialization stage)
// ---------------------------------------------------------------------------

// Teradata SET tables silently reject duplicate rows. Targets without set
// semantics get the paper's workaround (§3.1): the insert source is
// deduplicated and anti-joined against the current table contents via
// EXCEPT.
class InsertSetSemanticsRule : public Rule {
 public:
  const char* name() const override { return "insert_set_semantics"; }
  Stage stage() const override { return Stage::kSerialization; }
  std::vector<OpKind> Triggers() const override { return {OpKind::kInsert}; }

  Status Apply(OpPtr* op, TransformContext* ctx) override {
    Op& ins = **op;
    if (ins.kind != OpKind::kInsert) return Status::OK();
    if (ctx->profile->supports_set_tables) return Status::OK();
    if (ctx->catalog == nullptr || ctx->ids == nullptr) return Status::OK();
    if (!ctx->catalog->HasTable(ins.target_table)) return Status::OK();
    HQ_ASSIGN_OR_RETURN(const TableDef* table,
                        ctx->catalog->GetTable(ins.target_table));
    if (table->semantics != TableSemantics::kSet) return Status::OK();
    // Idempotence: the child is already an EXCEPT once rewritten.
    if (ins.children[0]->kind == OpKind::kSetOp &&
        ins.children[0]->setop_kind == xtra::SetOpKind::kExcept) {
      return Status::OK();
    }

    // Current table contents, projected to the insert column order.
    std::vector<ColumnInfo> scan_cols;
    for (const auto& col : table->columns) {
      scan_cols.push_back({ctx->ids->Next(), col.name, col.type});
    }
    OpPtr get = xtra::Get(ins.target_table, scan_cols);
    std::vector<xtra::ProjectItem> items;
    for (const auto& name : ins.target_columns) {
      int idx = table->FindColumn(name);
      if (idx < 0) {
        return Status::Internal("insert column ", name, " missing in table");
      }
      xtra::ProjectItem pi;
      pi.expr = xtra::ColRef(scan_cols[idx].id, scan_cols[idx].name,
                             scan_cols[idx].type);
      pi.out_id = ctx->ids->Next();
      pi.name = scan_cols[idx].name;
      items.push_back(std::move(pi));
    }
    OpPtr existing = xtra::Project(std::move(get), std::move(items));

    auto except = std::make_unique<Op>(OpKind::kSetOp);
    except->setop_kind = xtra::SetOpKind::kExcept;
    for (const auto& col : ins.children[0]->output) {
      except->output.push_back({ctx->ids->Next(), col.name, col.type});
    }
    if (except->output.empty()) {
      // VALUES sources may lack schemas; synthesize from the target.
      for (const auto& name : ins.target_columns) {
        int idx = table->FindColumn(name);
        except->output.push_back(
            {ctx->ids->Next(), name, table->columns[idx].type});
      }
    }
    except->children.push_back(std::move(ins.children[0]));
    except->children.push_back(std::move(existing));
    ins.children[0] = std::move(except);
    if (ctx->features) ctx->features->Record(Feature::kSetSemantics);
    ctx->changed = true;
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// explicit_null_ordering (serialization stage)
// ---------------------------------------------------------------------------

// Teradata sorts NULLs low (first ascending); targets that sort NULLs high
// produce silently different orderings — the paper's hardest-to-spot defect
// class. Make the source semantics explicit on every sort key.
class ExplicitNullOrderingRule : public Rule {
 public:
  const char* name() const override { return "explicit_null_ordering"; }
  Stage stage() const override { return Stage::kSerialization; }
  std::vector<OpKind> Triggers() const override {
    return {OpKind::kSort, OpKind::kWindow};
  }

  Status Apply(OpPtr* op, TransformContext* ctx) override {
    if (ctx->profile->nulls_sort_low) return Status::OK();  // same default
    Op& o = **op;
    if (o.kind == OpKind::kSort) {
      for (auto& s : o.sort_items) {
        if (!s.nulls_first.has_value()) {
          s.nulls_first = !s.descending;  // Teradata: NULLs are lowest
          ctx->changed = true;
        }
      }
    } else if (o.kind == OpKind::kWindow) {
      for (auto& w : o.windows) {
        for (auto& ord : w.order_by) {
          if (!ord.nulls_first.has_value()) {
            ord.nulls_first = !ord.descending;
            ctx->changed = true;
          }
        }
      }
    }
    return Status::OK();
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

Transformer::Transformer(const BackendProfile& profile) : profile_(profile) {
  rules_.push_back(std::make_unique<CompDateToIntRule>());
  rules_.push_back(std::make_unique<VectorSubqToExistsRule>());
  rules_.push_back(std::make_unique<InSubqToExistsRule>());
  rules_.push_back(std::make_unique<GroupingSetsToUnionRule>());
  rules_.push_back(std::make_unique<DateArithToFuncRule>());
  rules_.push_back(std::make_unique<TopWithTiesToRankRule>());
  rules_.push_back(std::make_unique<InsertSetSemanticsRule>());
  rules_.push_back(std::make_unique<ExplicitNullOrderingRule>());
}

std::vector<std::string> Transformer::RuleNames(Stage stage) const {
  std::vector<std::string> out;
  for (const auto& r : rules_) {
    if (r->stage() == stage) out.push_back(r->name());
  }
  return out;
}

Status Transformer::RunOnce(Stage stage, OpPtr* op,
                            TransformContext* ctx) const {
  // Children first (post-order) so parent rules see rewritten inputs.
  for (auto& child : (*op)->children) {
    HQ_RETURN_IF_ERROR(RunOnce(stage, &child, ctx));
  }
  // Subquery plans inside this operator's expressions.
  Status subplan_status = Status::OK();
  MutateExprs(op->get(), [&](ExprPtr* e) {
    if ((*e)->subplan && subplan_status.ok()) {
      subplan_status = RunOnce(stage, &(*e)->subplan, ctx);
    }
  });
  HQ_RETURN_IF_ERROR(subplan_status);

  for (const auto& rule : rules_) {
    if (rule->stage() != stage) continue;
    auto triggers = rule->Triggers();
    if (!triggers.empty()) {
      bool match = false;
      for (OpKind k : triggers) {
        if ((*op)->kind == k) match = true;
      }
      if (!match) continue;
    }
    HQ_RETURN_IF_ERROR(rule->Apply(op, ctx));
  }
  return Status::OK();
}

Status Transformer::Run(Stage stage, OpPtr* plan, binder::ColIdGenerator* ids,
                        FeatureSet* features, const Catalog* catalog) const {
  TransformContext ctx;
  ctx.catalog = catalog;
  ctx.ids = ids;
  ctx.features = features;
  ctx.profile = &profile_;
  // Fixed point: rerun while any rule reports a change (paper §4.3).
  for (int iteration = 0; iteration < 64; ++iteration) {
    ctx.changed = false;
    HQ_RETURN_IF_ERROR(RunOnce(stage, plan, &ctx));
    if (!ctx.changed) return Status::OK();
  }
  return Status::Internal("transformer did not reach a fixed point");
}

}  // namespace hyperq::transform
