// The operators of the vdb executor (DESIGN.md §15), one implementation
// each.
//
// Every operator consumes and emits ColumnBatch chunks. Expressions are
// evaluated column-at-a-time; shapes the vector evaluator does not cover
// (functions, CASE, subqueries) fall back, per expression, to the
// tree-walking interpreter over lazily boxed rows. The operators run the
// same way inside a correlated subquery: a column reference the chunk does
// not carry resolves through the outer scope as a broadcast constant.

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "vdb/exec_util.h"
#include "vdb/executor.h"

namespace hyperq::vdb {

using xtra::Expr;
using xtra::ExprKind;
using xtra::Op;

using exec::Accumulator;
using exec::LikeMatch;
using exec::RowEq;
using exec::RowHash;

namespace {

const std::map<int, int> kEmptyLayout;
const Row kEmptyRow;

// Columns are immutable once their batch is published; sharing one into a
// new batch is safe, the const qualifier is only dropped to satisfy the
// container type.
std::shared_ptr<ColumnVec> ShareColumn(std::shared_ptr<const ColumnVec> col) {
  return std::const_pointer_cast<ColumnVec>(std::move(col));
}

void AppendOrDemote(std::shared_ptr<ColumnVec>* col, const Datum& d) {
  if (d.is_null()) {
    (*col)->AppendNull();
    return;
  }
  if (!(*col)->Append(d)) {
    auto demoted = std::make_shared<ColumnVec>(PhysKind::kDatum);
    demoted->Reserve((*col)->size);
    for (size_t r = 0; r < (*col)->size; ++r) {
      if ((*col)->IsNull(r)) {
        demoted->AppendNull();
      } else {
        demoted->Append((*col)->GetDatum(r));
      }
    }
    *col = std::move(demoted);
    (*col)->Append(d);
  }
}

// Physical kind a constant datum would be stored as; kDatum when null or
// unclassifiable.
PhysKind ScalarKind(const Datum& d) {
  if (d.is_int()) return PhysKind::kI64;
  if (d.is_double()) return PhysKind::kF64;
  if (d.is_bool()) return PhysKind::kBool;
  if (d.is_decimal()) return PhysKind::kDecimal;
  if (d.is_string()) return PhysKind::kString;
  if (d.is_date()) return PhysKind::kDate;
  if (d.is_time()) return PhysKind::kTime;
  if (d.is_timestamp()) return PhysKind::kTimestamp;
  if (d.is_interval()) return PhysKind::kInterval;
  if (d.is_period()) return PhysKind::kPeriod;
  return PhysKind::kDatum;
}

// One comparison/arithmetic operand: a column or a broadcast constant, with
// the constant's payload pre-extracted for the typed loops.
struct SideView {
  const ColumnVec* col = nullptr;
  Datum scalar;  // when col == nullptr
  PhysKind kind = PhysKind::kDatum;

  bool IsNullAt(size_t r) const {
    return col ? col->IsNull(r) : scalar.is_null();
  }
  Datum At(size_t r) const { return col ? col->GetDatum(r) : scalar; }
  int64_t I64At(size_t r) const {
    return col ? col->i64[r] : scalar.int_val();
  }
  double F64At(size_t r) const {
    if (col) {
      return col->kind == PhysKind::kF64 ? col->f64[r]
                                         : static_cast<double>(col->i64[r]);
    }
    return scalar.is_double() ? scalar.double_val()
                              : static_cast<double>(scalar.int_val());
  }
  int32_t DateAt(size_t r) const {
    return col ? col->i32[r] : scalar.date_val();
  }
  int64_t TimeAt(size_t r) const {
    return col ? col->i64[r] : scalar.time_val();
  }
  Decimal DecAt(size_t r) const {
    if (col) {
      if (col->kind == PhysKind::kDecimal) {
        return Decimal{col->i64[r], col->i32b[r]};
      }
      return Decimal{col->i64[r], 0};  // kI64 promoted
    }
    return scalar.is_decimal() ? scalar.decimal_val()
                               : Decimal{scalar.int_val(), 0};
  }
  std::string_view StrAt(size_t r) const {
    return col ? col->StringAt(r) : std::string_view(scalar.string_val());
  }
};

SideView MakeSide(const Executor::VecVal& v) {
  SideView s;
  if (v.is_const) {
    s.scalar = v.scalar;
    s.kind = ScalarKind(v.scalar);
  } else {
    s.col = v.col.get();
    s.kind = v.col->kind;
  }
  return s;
}

// Blank-padded comparison used by Datum::Compare for strings.
int TrimmedCompare(std::string_view a, std::string_view b) {
  while (!a.empty() && a.back() == ' ') a.remove_suffix(1);
  while (!b.empty() && b.back() == ' ') b.remove_suffix(1);
  int c = a.compare(b);
  return c < 0 ? -1 : c > 0 ? 1 : 0;
}

bool CompToBool(xtra::CompKind k, int c) {
  switch (k) {
    case xtra::CompKind::kEq:
      return c == 0;
    case xtra::CompKind::kNe:
      return c != 0;
    case xtra::CompKind::kLt:
      return c < 0;
    case xtra::CompKind::kLe:
      return c <= 0;
    case xtra::CompKind::kGt:
      return c > 0;
    case xtra::CompKind::kGe:
      return c >= 0;
  }
  return false;
}

bool IsI64Kind(PhysKind k) { return k == PhysKind::kI64; }
bool IsFloatableKind(PhysKind k) {
  return k == PhysKind::kI64 || k == PhysKind::kF64;
}
bool IsDecimalableKind(PhysKind k) {
  return k == PhysKind::kI64 || k == PhysKind::kDecimal;
}

// Truthiness of one mask entry, mirroring EvalPredicate: non-NULL bool true.
bool MaskTrueAt(const ColumnVec& mask, size_t r) {
  if (mask.IsNull(r)) return false;
  if (mask.kind == PhysKind::kBool) return mask.b8[r] != 0;
  Datum d = mask.GetDatum(r);
  return d.is_bool() && d.bool_val();
}

// GatherColumn treats UINT32_MAX as a NULL-row sentinel (outer join padding).
constexpr uint32_t kNullRow = UINT32_MAX;

// Collects the batch slots `e` reads. Returns false when the expression
// contains a subquery — its subplan can read any outer column through the
// scope chain, so the caller must materialize full rows.
bool CollectSlots(const Expr& e, const std::map<int, int>& layout,
                  std::vector<int>* slots) {
  switch (e.kind) {
    case ExprKind::kSubqScalar:
    case ExprKind::kSubqExists:
    case ExprKind::kSubqQuantified:
    case ExprKind::kSubqIn:
      return false;
    case ExprKind::kColRef: {
      auto it = layout.find(e.col_id);
      // Unresolved refs produce the usual execution error in EvalExpr.
      if (it != layout.end()) slots->push_back(it->second);
      return true;
    }
    default:
      break;
  }
  for (const auto& c : e.children) {
    if (c && !CollectSlots(*c, layout, slots)) return false;
  }
  for (const auto& [w, t] : e.when_then) {
    if (w && !CollectSlots(*w, layout, slots)) return false;
    if (t && !CollectSlots(*t, layout, slots)) return false;
  }
  if (e.else_expr && !CollectSlots(*e.else_expr, layout, slots)) return false;
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Vector expression evaluation
// ---------------------------------------------------------------------------

Result<Executor::VecVal> Executor::EvalExprVecFallback(const Expr& e,
                                                       VecCtx& ctx) {
  const size_t n = ctx.batch->rows;
  const size_t ncols = ctx.batch->columns.size();
  std::vector<int> slots;
  bool no_subq = CollectSlots(e, *ctx.layout, &slots);
  if (no_subq && slots.empty() && n > 0) {
    // Row-independent expression (e.g. DATE '...' + INTERVAL '3' MONTH):
    // every scalar function in this engine is deterministic, so evaluate
    // once and broadcast instead of once per row. Zero-row batches keep the
    // loop below (which never evaluates), so an erroring constant over an
    // empty input does not surface, as in the scalar interpreter.
    HQ_ASSIGN_OR_RETURN(Datum v, EvalExpr(e, *ctx.layout, kEmptyRow));
    VecVal out;
    out.is_const = true;
    out.scalar = std::move(v);
    return out;
  }
  if (ctx.slot_ready.size() != ncols) {
    ctx.slot_ready.assign(ncols, 0);
    ctx.lazy_rows.assign(n, Row(ncols));
  }
  if (!ctx.rows_ready && no_subq) {
    // Box only the columns this expression reads (column-major so the kind
    // dispatch stays hot); the other slots stay NULL placeholders.
    for (int s : slots) {
      if (s < 0 || static_cast<size_t>(s) >= ncols || ctx.slot_ready[s]) {
        continue;
      }
      const ColumnVec& col = *ctx.batch->columns[s];
      for (size_t r = 0; r < n; ++r) ctx.lazy_rows[r][s] = col.GetDatum(r);
      ctx.slot_ready[s] = 1;
    }
  } else if (!ctx.rows_ready) {
    for (size_t s = 0; s < ncols; ++s) {
      if (ctx.slot_ready[s]) continue;
      const ColumnVec& col = *ctx.batch->columns[s];
      for (size_t r = 0; r < n; ++r) ctx.lazy_rows[r][s] = col.GetDatum(r);
      ctx.slot_ready[s] = 1;
    }
    ctx.rows_ready = true;
  }
  auto col = std::make_shared<ColumnVec>(PhysKindFor(e.type));
  col->Reserve(n);
  for (size_t r = 0; r < n; ++r) {
    HQ_ASSIGN_OR_RETURN(Datum v, EvalExpr(e, *ctx.layout, ctx.lazy_rows[r]));
    AppendOrDemote(&col, v);
  }
  VecVal out;
  out.col = std::move(col);
  return out;
}

Result<std::shared_ptr<const ColumnVec>> Executor::MaterializeVec(
    const VecVal& v, size_t n) {
  if (!v.is_const) return v.col;
  auto col = std::make_shared<ColumnVec>(ScalarKind(v.scalar));
  col->Reserve(n);
  if (v.scalar.is_null()) {
    for (size_t r = 0; r < n; ++r) col->AppendNull();
  } else {
    for (size_t r = 0; r < n; ++r) col->Append(v.scalar);
  }
  return std::shared_ptr<const ColumnVec>(std::move(col));
}

Result<Executor::VecVal> Executor::EvalExprVec(const Expr& e, VecCtx& ctx) {
  const size_t n = ctx.batch->rows;
  switch (e.kind) {
    case ExprKind::kColRef: {
      auto it = ctx.layout->find(e.col_id);
      VecVal out;
      if (it == ctx.layout->end()) {
        // A correlated reference: one value for the whole chunk.
        HQ_ASSIGN_OR_RETURN(out.scalar, ResolveColRef(e.col_id, kEmptyLayout,
                                                      kEmptyRow, e.col_name));
        out.is_const = true;
        return out;
      }
      if (static_cast<size_t>(it->second) >= ctx.batch->columns.size()) {
        return Status::ExecutionError("unresolved column id ", e.col_id,
                                      " ('", e.col_name, "') at execution");
      }
      out.col = ctx.batch->columns[it->second];
      return out;
    }
    case ExprKind::kConst: {
      VecVal out;
      out.is_const = true;
      out.scalar = e.value;
      return out;
    }
    case ExprKind::kComp: {
      HQ_ASSIGN_OR_RETURN(VecVal lv, EvalExprVec(*e.children[0], ctx));
      HQ_ASSIGN_OR_RETURN(VecVal rv, EvalExprVec(*e.children[1], ctx));
      if (lv.is_const && rv.is_const) {
        VecVal out;
        out.is_const = true;
        if (lv.scalar.is_null() || rv.scalar.is_null()) {
          out.scalar = Datum::Null();
        } else {
          HQ_ASSIGN_OR_RETURN(int c, Datum::Compare(lv.scalar, rv.scalar));
          out.scalar = Datum::Bool(CompToBool(e.comp, c));
        }
        return out;
      }
      // A NULL constant side nulls the whole mask.
      if ((lv.is_const && lv.scalar.is_null()) ||
          (rv.is_const && rv.scalar.is_null())) {
        auto col = std::make_shared<ColumnVec>(PhysKind::kBool);
        col->Reserve(n);
        for (size_t r = 0; r < n; ++r) col->AppendNull();
        VecVal out;
        out.col = std::move(col);
        return out;
      }
      SideView l = MakeSide(lv), r = MakeSide(rv);
      auto col = std::make_shared<ColumnVec>(PhysKind::kBool);
      col->Reserve(n);
      auto loop = [&](auto&& cmp3) {
        for (size_t i = 0; i < n; ++i) {
          if (l.IsNullAt(i) || r.IsNullAt(i)) {
            col->AppendNull();
          } else {
            col->Append(Datum::Bool(CompToBool(e.comp, cmp3(i))));
          }
        }
      };
      if (IsI64Kind(l.kind) && IsI64Kind(r.kind)) {
        loop([&](size_t i) {
          int64_t a = l.I64At(i), b = r.I64At(i);
          return a < b ? -1 : a > b ? 1 : 0;
        });
      } else if (IsFloatableKind(l.kind) && IsFloatableKind(r.kind)) {
        loop([&](size_t i) {
          double a = l.F64At(i), b = r.F64At(i);
          return a < b ? -1 : a > b ? 1 : 0;
        });
      } else if (IsDecimalableKind(l.kind) && IsDecimalableKind(r.kind)) {
        loop([&](size_t i) { return Decimal::Compare(l.DecAt(i), r.DecAt(i)); });
      } else if (l.kind == PhysKind::kString && r.kind == PhysKind::kString) {
        loop([&](size_t i) { return TrimmedCompare(l.StrAt(i), r.StrAt(i)); });
      } else if (l.kind == PhysKind::kDate && r.kind == PhysKind::kDate) {
        loop([&](size_t i) {
          int32_t a = l.DateAt(i), b = r.DateAt(i);
          return a < b ? -1 : a > b ? 1 : 0;
        });
      } else if ((l.kind == PhysKind::kTime && r.kind == PhysKind::kTime) ||
                 (l.kind == PhysKind::kTimestamp &&
                  r.kind == PhysKind::kTimestamp)) {
        loop([&](size_t i) {
          int64_t a = l.TimeAt(i), b = r.TimeAt(i);
          return a < b ? -1 : a > b ? 1 : 0;
        });
      } else {
        // Generic: Datum::Compare per row (still no tree-walking).
        for (size_t i = 0; i < n; ++i) {
          if (l.IsNullAt(i) || r.IsNullAt(i)) {
            col->AppendNull();
            continue;
          }
          HQ_ASSIGN_OR_RETURN(int c, Datum::Compare(l.At(i), r.At(i)));
          col->Append(Datum::Bool(CompToBool(e.comp, c)));
        }
      }
      VecVal out;
      out.col = std::move(col);
      return out;
    }
    case ExprKind::kBool: {
      // Kleene AND/OR. Children are evaluated over the whole chunk, except
      // that a child holding a subquery runs only on the rows the earlier
      // children left undecided, as per-row short-circuiting would: its
      // subplan costs per row. If any child errors, fall back to the scalar
      // interpreter, whose short-circuiting keeps errors in unreached
      // operands invisible.
      bool is_and = e.boolk == xtra::BoolKind::kAnd;
      const uint8_t decided = is_and ? 0 : 1;  // no later child changes it
      // 0 = false, 1 = true, 2 = NULL.
      std::vector<uint8_t> acc(n, is_and ? 1 : 0);
      std::vector<uint32_t> live;  // undecided rows, for a subquery child
      std::vector<int> slots;
      for (const auto& c : e.children) {
        live.clear();
        slots.clear();
        bool all_rows = true;
        if (!CollectSlots(*c, *ctx.layout, &slots)) {  // holds a subquery
          for (size_t r = 0; r < n; ++r) {
            if (acc[r] != decided) live.push_back(static_cast<uint32_t>(r));
          }
          if (live.empty()) break;
          all_rows = live.size() == n;
        }
        std::shared_ptr<ColumnBatch> subset;
        VecCtx subset_ctx;
        if (!all_rows) {
          subset = GatherBatch(*ctx.batch, live);
          subset_ctx.batch = subset.get();
          subset_ctx.layout = ctx.layout;
        }
        auto cv = EvalExprVec(*c, all_rows ? ctx : subset_ctx);
        if (!cv.ok()) return EvalExprVecFallback(e, ctx);
        uint8_t const_state = 0;
        const ColumnVec* ccol = nullptr;
        if (cv->is_const) {
          const_state = cv->scalar.is_null() ? 2
                        : (cv->scalar.is_bool() && cv->scalar.bool_val()) ? 1
                                                                          : 0;
        } else {
          ccol = cv->col.get();
        }
        const size_t m = all_rows ? n : live.size();
        for (size_t i = 0; i < m; ++i) {
          uint8_t s = const_state;
          if (ccol) {
            if (ccol->IsNull(i)) {
              s = 2;
            } else if (ccol->kind == PhysKind::kBool) {
              s = ccol->b8[i] != 0 ? 1 : 0;
            } else {
              Datum d = ccol->GetDatum(i);
              s = d.is_bool() && d.bool_val() ? 1 : 0;
            }
          }
          uint8_t& a = acc[all_rows ? i : live[i]];
          if (is_and) {
            if (s == 0) {
              a = 0;
            } else if (s == 2 && a == 1) {
              a = 2;
            }
          } else {
            if (s == 1) {
              a = 1;
            } else if (s == 2 && a == 0) {
              a = 2;
            }
          }
        }
      }
      auto col = std::make_shared<ColumnVec>(PhysKind::kBool);
      col->Reserve(n);
      for (size_t r = 0; r < n; ++r) {
        if (acc[r] == 2) {
          col->AppendNull();
        } else {
          col->Append(Datum::Bool(acc[r] == 1));
        }
      }
      VecVal out;
      out.col = std::move(col);
      return out;
    }
    case ExprKind::kNot: {
      HQ_ASSIGN_OR_RETURN(VecVal cv, EvalExprVec(*e.children[0], ctx));
      if (cv.is_const) {
        VecVal out;
        out.is_const = true;
        out.scalar = cv.scalar.is_null() ? Datum::Null()
                                         : Datum::Bool(!cv.scalar.bool_val());
        return out;
      }
      auto col = std::make_shared<ColumnVec>(PhysKind::kBool);
      col->Reserve(n);
      const ColumnVec& src = *cv.col;
      for (size_t r = 0; r < n; ++r) {
        if (src.IsNull(r)) {
          col->AppendNull();
        } else if (src.kind == PhysKind::kBool) {
          col->Append(Datum::Bool(src.b8[r] == 0));
        } else {
          col->Append(Datum::Bool(!src.GetDatum(r).bool_val()));
        }
      }
      VecVal out;
      out.col = std::move(col);
      return out;
    }
    case ExprKind::kIsNull: {
      HQ_ASSIGN_OR_RETURN(VecVal cv, EvalExprVec(*e.children[0], ctx));
      if (cv.is_const) {
        VecVal out;
        out.is_const = true;
        out.scalar = Datum::Bool(e.negated ? !cv.scalar.is_null()
                                           : cv.scalar.is_null());
        return out;
      }
      auto col = std::make_shared<ColumnVec>(PhysKind::kBool);
      col->Reserve(n);
      const ColumnVec& src = *cv.col;
      for (size_t r = 0; r < n; ++r) {
        bool is_null = src.IsNull(r);
        col->Append(Datum::Bool(e.negated ? !is_null : is_null));
      }
      VecVal out;
      out.col = std::move(col);
      return out;
    }
    case ExprKind::kCast: {
      HQ_ASSIGN_OR_RETURN(VecVal cv, EvalExprVec(*e.children[0], ctx));
      if (cv.is_const) {
        HQ_ASSIGN_OR_RETURN(Datum v, cv.scalar.CastTo(e.type));
        VecVal out;
        out.is_const = true;
        out.scalar = std::move(v);
        return out;
      }
      auto col = std::make_shared<ColumnVec>(PhysKindFor(e.type));
      col->Reserve(n);
      const ColumnVec& src = *cv.col;
      for (size_t r = 0; r < n; ++r) {
        if (src.IsNull(r)) {
          col->AppendNull();
          continue;
        }
        HQ_ASSIGN_OR_RETURN(Datum v, src.GetDatum(r).CastTo(e.type));
        AppendOrDemote(&col, v);
      }
      VecVal out;
      out.col = std::move(col);
      return out;
    }
    case ExprKind::kArith: {
      HQ_ASSIGN_OR_RETURN(VecVal lv, EvalExprVec(*e.children[0], ctx));
      HQ_ASSIGN_OR_RETURN(VecVal rv, EvalExprVec(*e.children[1], ctx));
      if (lv.is_const && rv.is_const) {
        VecVal out;
        out.is_const = true;
        if (lv.scalar.is_null() || rv.scalar.is_null()) {
          out.scalar = Datum::Null();
        } else {
          HQ_ASSIGN_OR_RETURN(Datum v,
                              exec::ArithValues(e.arith, lv.scalar, rv.scalar));
          out.scalar = std::move(v);
        }
        return out;
      }
      SideView l = MakeSide(lv), r = MakeSide(rv);
      using AK = xtra::ArithKind;
      bool null_const = (lv.is_const && lv.scalar.is_null()) ||
                        (rv.is_const && rv.scalar.is_null());
      if (!null_const && IsI64Kind(l.kind) && IsI64Kind(r.kind) &&
          (e.arith == AK::kAdd || e.arith == AK::kSub ||
           e.arith == AK::kMul)) {
        auto col = std::make_shared<ColumnVec>(PhysKind::kI64);
        col->Reserve(n);
        for (size_t i = 0; i < n; ++i) {
          if (l.IsNullAt(i) || r.IsNullAt(i)) {
            col->AppendNull();
            continue;
          }
          int64_t a = l.I64At(i), b = r.I64At(i);
          col->Append(Datum::Int(e.arith == AK::kAdd   ? a + b
                                 : e.arith == AK::kSub ? a - b
                                                       : a * b));
        }
        VecVal out;
        out.col = std::move(col);
        return out;
      }
      if (!null_const && IsFloatableKind(l.kind) && IsFloatableKind(r.kind) &&
          (e.arith == AK::kAdd || e.arith == AK::kSub ||
           e.arith == AK::kMul || e.arith == AK::kDiv)) {
        auto col = std::make_shared<ColumnVec>(PhysKind::kF64);
        col->Reserve(n);
        for (size_t i = 0; i < n; ++i) {
          if (l.IsNullAt(i) || r.IsNullAt(i)) {
            col->AppendNull();
            continue;
          }
          double a = l.F64At(i), b = r.F64At(i);
          if (e.arith == AK::kDiv) {
            if (b == 0) return Status::ExecutionError("division by zero");
            col->Append(Datum::MakeDouble(a / b));
            continue;
          }
          // kI64/kI64 is handled above, so at least one side is double and
          // the scalar interpreter would also produce a double here.
          col->Append(Datum::MakeDouble(e.arith == AK::kAdd   ? a + b
                                        : e.arith == AK::kSub ? a - b
                                                              : a * b));
        }
        VecVal out;
        out.col = std::move(col);
        return out;
      }
      if (!null_const && IsDecimalableKind(l.kind) &&
          IsDecimalableKind(r.kind) &&
          (e.arith == AK::kAdd || e.arith == AK::kSub ||
           e.arith == AK::kMul)) {
        auto col = std::make_shared<ColumnVec>(PhysKind::kDecimal);
        col->Reserve(n);
        for (size_t i = 0; i < n; ++i) {
          if (l.IsNullAt(i) || r.IsNullAt(i)) {
            col->AppendNull();
            continue;
          }
          Decimal a = l.DecAt(i), b = r.DecAt(i);
          Decimal v = e.arith == AK::kAdd   ? Decimal::Add(a, b)
                      : e.arith == AK::kSub ? Decimal::Sub(a, b)
                                            : Decimal::Mul(a, b);
          col->Append(Datum::MakeDecimal(v));
        }
        VecVal out;
        out.col = std::move(col);
        return out;
      }
      // Generic per-row arithmetic on evaluated operands.
      auto col = std::make_shared<ColumnVec>(PhysKindFor(e.type));
      col->Reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (l.IsNullAt(i) || r.IsNullAt(i)) {
          col->AppendNull();
          continue;
        }
        HQ_ASSIGN_OR_RETURN(Datum v,
                            exec::ArithValues(e.arith, l.At(i), r.At(i)));
        AppendOrDemote(&col, v);
      }
      VecVal out;
      out.col = std::move(col);
      return out;
    }
    case ExprKind::kLike: {
      HQ_ASSIGN_OR_RETURN(VecVal vv, EvalExprVec(*e.children[0], ctx));
      HQ_ASSIGN_OR_RETURN(VecVal pv, EvalExprVec(*e.children[1], ctx));
      char escape = '\0';
      bool has_escape = false;
      if (e.children.size() > 2) {
        HQ_ASSIGN_OR_RETURN(VecVal ev, EvalExprVec(*e.children[2], ctx));
        if (!ev.is_const) return EvalExprVecFallback(e, ctx);
        if (!ev.scalar.is_null() && !ev.scalar.string_val().empty()) {
          escape = ev.scalar.string_val()[0];
          has_escape = true;
        }
      }
      SideView v = MakeSide(vv), p = MakeSide(pv);
      if ((v.col && v.kind != PhysKind::kString) ||
          (p.col && p.kind != PhysKind::kString)) {
        return EvalExprVecFallback(e, ctx);
      }
      auto col = std::make_shared<ColumnVec>(PhysKind::kBool);
      col->Reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (v.IsNullAt(i) || p.IsNullAt(i)) {
          col->AppendNull();
          continue;
        }
        bool m = LikeMatch(v.StrAt(i), p.StrAt(i), escape, has_escape);
        col->Append(Datum::Bool(e.negated ? !m : m));
      }
      VecVal out;
      out.col = std::move(col);
      return out;
    }
    case ExprKind::kInList: {
      HQ_ASSIGN_OR_RETURN(VecVal vv, EvalExprVec(*e.children[0], ctx));
      std::vector<VecVal> items;
      items.reserve(e.children.size() - 1);
      for (size_t i = 1; i < e.children.size(); ++i) {
        HQ_ASSIGN_OR_RETURN(VecVal iv, EvalExprVec(*e.children[i], ctx));
        items.push_back(std::move(iv));
      }
      SideView v = MakeSide(vv);
      std::vector<SideView> sides;
      sides.reserve(items.size());
      for (const auto& iv : items) sides.push_back(MakeSide(iv));
      auto col = std::make_shared<ColumnVec>(PhysKind::kBool);
      col->Reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (v.IsNullAt(i)) {
          col->AppendNull();
          continue;
        }
        Datum val = v.At(i);
        bool saw_null = false;
        bool hit = false;
        for (const auto& s : sides) {
          if (s.IsNullAt(i)) {
            saw_null = true;
            continue;
          }
          HQ_ASSIGN_OR_RETURN(int c, Datum::Compare(val, s.At(i)));
          if (c == 0) {
            hit = true;
            break;
          }
        }
        if (hit) {
          col->Append(Datum::Bool(!e.negated));
        } else if (saw_null) {
          col->AppendNull();
        } else {
          col->Append(Datum::Bool(e.negated));
        }
      }
      VecVal out;
      out.col = std::move(col);
      return out;
    }
    case ExprKind::kFunc:
    case ExprKind::kAgg:
    case ExprKind::kCase:
    case ExprKind::kExtract:
    case ExprKind::kSubqScalar:
    case ExprKind::kSubqExists:
    case ExprKind::kSubqIn:
    case ExprKind::kSubqQuantified:
      return EvalExprVecFallback(e, ctx);
  }
  return EvalExprVecFallback(e, ctx);
}

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

namespace {

using RowSet = std::unordered_set<Row, RowHash, RowEq>;

// Indices of the rows of `batch` whose value tuple is not yet in `seen`
// (the first occurrence wins); adds them to `seen`.
std::vector<uint32_t> FirstOccurrences(const ColumnBatch& batch,
                                       RowSet* seen) {
  std::vector<uint32_t> keep;
  Row row;
  for (size_t r = 0; r < batch.rows; ++r) {
    batch.FillRow(r, &row);
    if (seen->insert(row).second) keep.push_back(static_cast<uint32_t>(r));
  }
  return keep;
}

// The rows `idx` (ascending) of `batch`; shares the batch when they are
// all of its rows.
std::shared_ptr<const ColumnBatch> KeepRows(
    std::shared_ptr<const ColumnBatch> batch,
    const std::vector<uint32_t>& idx) {
  if (idx.size() == batch->rows) return batch;
  return GatherBatch(*batch, idx);
}

// Candidate pairs a join rechecks against its full predicate per block.
constexpr size_t kJoinBlock = 4096;

}  // namespace

Result<std::vector<uint32_t>> Executor::FilterIndices(
    const Expr& pred, const ColumnBatch& batch,
    const std::map<int, int>& layout) {
  VecCtx ctx;
  ctx.batch = &batch;
  ctx.layout = &layout;
  HQ_ASSIGN_OR_RETURN(VecVal mask, EvalExprVec(pred, ctx));
  const size_t n = batch.rows;
  std::vector<uint32_t> idx;
  if (mask.is_const) {
    if (!mask.scalar.is_null() && mask.scalar.is_bool() &&
        mask.scalar.bool_val()) {
      idx.resize(n);
      for (size_t r = 0; r < n; ++r) idx[r] = static_cast<uint32_t>(r);
    }
    return idx;
  }
  idx.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    if (MaskTrueAt(*mask.col, r)) idx.push_back(static_cast<uint32_t>(r));
  }
  return idx;
}

Result<Relation> Executor::ExecSelect(const Op& op) {
  Relation child;
  HQ_ASSIGN_OR_RETURN(bool probed, ProbeSelectIndex(op, &child));
  if (!probed) {
    HQ_ASSIGN_OR_RETURN(child, Exec(*op.children[0]));
  }
  Relation rel;
  rel.cols = child.cols;
  rel.layout = child.layout;
  for (const auto& chunk : child.chunks) {
    if (chunk->rows == 0) continue;
    HQ_ASSIGN_OR_RETURN(std::vector<uint32_t> idx,
                        FilterIndices(*op.predicate, *chunk, child.layout));
    if (!idx.empty()) rel.chunks.push_back(KeepRows(chunk, idx));
  }
  return rel;
}

Result<Relation> Executor::ExecProject(const Op& op) {
  HQ_ASSIGN_OR_RETURN(Relation child, Exec(*op.children[0]));
  Relation rel;
  rel.cols = op.output;
  rel.BuildLayout();
  for (const auto& chunk : child.chunks) {
    const size_t n = chunk->rows;
    VecCtx ctx;
    ctx.batch = chunk.get();
    ctx.layout = &child.layout;
    auto out = std::make_shared<ColumnBatch>();
    out->rows = n;
    out->columns.reserve(op.projections.size());
    for (const auto& item : op.projections) {
      HQ_ASSIGN_OR_RETURN(VecVal v, EvalExprVec(*item.expr, ctx));
      HQ_ASSIGN_OR_RETURN(std::shared_ptr<const ColumnVec> col,
                          MaterializeVec(v, n));
      out->columns.push_back(ShareColumn(std::move(col)));
    }
    rel.chunks.push_back(std::move(out));
  }
  if (!op.project_distinct) return rel;
  // DISTINCT keeps the first occurrence of each output tuple, in order.
  std::shared_ptr<const ColumnBatch> all = rel.SingleChunk();
  RowSet seen;
  rel.chunks = {KeepRows(all, FirstOccurrences(*all, &seen))};
  return rel;
}

Result<Relation> Executor::ExecWindow(const Op& op) {
  HQ_ASSIGN_OR_RETURN(Relation child, Exec(*op.children[0]));
  // Each window item appends one column; later items may read earlier ones.
  auto batch = std::make_shared<ColumnBatch>(*child.SingleChunk());
  std::map<int, int> layout = child.layout;
  const size_t n = batch->rows;
  for (const auto& item : op.windows) {
    auto col = std::make_shared<ColumnVec>(PhysKindFor(item.type));
    col->Reserve(n);
    if (n > 0) {
      VecCtx ctx;
      ctx.batch = batch.get();
      ctx.layout = &layout;
      // Inputs column-at-a-time: partition keys, order keys, argument.
      std::vector<VecVal> part_vals, order_vals;
      for (const auto& p : item.partition_by) {
        HQ_ASSIGN_OR_RETURN(VecVal v, EvalExprVec(*p, ctx));
        part_vals.push_back(std::move(v));
      }
      for (const auto& o : item.order_by) {
        HQ_ASSIGN_OR_RETURN(VecVal v, EvalExprVec(*o.expr, ctx));
        order_vals.push_back(std::move(v));
      }
      const bool ranking = item.func == "ROW_NUMBER" || item.func == "RANK" ||
                           item.func == "DENSE_RANK";
      std::optional<SideView> arg;
      VecVal arg_val;
      if (!ranking && !item.args.empty()) {
        HQ_ASSIGN_OR_RETURN(arg_val, EvalExprVec(*item.args[0], ctx));
        arg = MakeSide(arg_val);
      }
      // Sort keys, one Datum vector per ORDER BY item.
      std::vector<std::vector<Datum>> okeys(order_vals.size());
      for (size_t j = 0; j < order_vals.size(); ++j) {
        SideView side = MakeSide(order_vals[j]);
        okeys[j].reserve(n);
        for (size_t r = 0; r < n; ++r) okeys[j].push_back(side.At(r));
      }
      std::vector<SideView> part_sides;
      for (const auto& v : part_vals) part_sides.push_back(MakeSide(v));
      std::unordered_map<Row, std::vector<uint32_t>, RowHash, RowEq> parts;
      Row key(part_sides.size());
      for (size_t r = 0; r < n; ++r) {
        for (size_t k = 0; k < part_sides.size(); ++k) {
          key[k] = part_sides[k].At(r);
        }
        parts[key].push_back(static_cast<uint32_t>(r));
      }

      std::vector<Datum> results(n);
      for (auto& [pkey, idxs] : parts) {
        std::stable_sort(idxs.begin(), idxs.end(), [&](uint32_t a, uint32_t b) {
          for (size_t j = 0; j < item.order_by.size(); ++j) {
            bool nf = item.order_by[j].nulls_first.value_or(
                item.order_by[j].descending);  // vdb default: NULLs high
            int c = CompareForSort(okeys[j][a], okeys[j][b],
                                   item.order_by[j].descending, nf);
            if (c != 0) return c < 0;
          }
          return false;
        });
        auto peers = [&](size_t a, size_t b) {
          for (const auto& keys : okeys) {
            if (!Datum::GroupEquals(keys[idxs[a]], keys[idxs[b]])) {
              return false;
            }
          }
          return true;
        };
        auto add = [&](Accumulator* acc, uint32_t r) -> Status {
          if (!arg) return acc->AddCountRow();
          return acc->Add(arg->At(r));
        };
        if (item.func == "ROW_NUMBER") {
          for (size_t k = 0; k < idxs.size(); ++k) {
            results[idxs[k]] = Datum::Int(static_cast<int64_t>(k) + 1);
          }
        } else if (ranking) {  // RANK / DENSE_RANK
          int64_t rank = 0, dense = 0;
          for (size_t k = 0; k < idxs.size(); ++k) {
            if (k == 0 || !peers(k, k - 1)) {
              rank = static_cast<int64_t>(k) + 1;
              ++dense;
            }
            results[idxs[k]] = Datum::Int(item.func == "RANK" ? rank : dense);
          }
        } else if (item.order_by.empty()) {
          // Whole-partition aggregate.
          Accumulator acc(item.func, false);
          for (uint32_t r : idxs) HQ_RETURN_IF_ERROR(add(&acc, r));
          Datum v = acc.Finish();
          for (uint32_t r : idxs) results[r] = v;
        } else {
          // Running aggregate over peer groups (RANGE UNBOUNDED PRECEDING).
          Accumulator acc(item.func, false);
          size_t k = 0;
          while (k < idxs.size()) {
            size_t peer_end = k;
            while (peer_end < idxs.size() && peers(peer_end, k)) ++peer_end;
            for (size_t j = k; j < peer_end; ++j) {
              HQ_RETURN_IF_ERROR(add(&acc, idxs[j]));
            }
            Datum v = acc.Finish();
            for (size_t j = k; j < peer_end; ++j) results[idxs[j]] = v;
            k = peer_end;
          }
        }
      }
      for (const Datum& v : results) AppendOrDemote(&col, v);
    }
    batch->columns.push_back(std::move(col));
    layout[item.out_id] = static_cast<int>(batch->columns.size() - 1);
  }
  Relation rel;
  rel.cols = op.output;
  rel.BuildLayout();
  rel.chunks = {std::move(batch)};
  return rel;
}

Result<Relation> Executor::ExecAggregate(const Op& op) {
  HQ_ASSIGN_OR_RETURN(Relation child, Exec(*op.children[0]));
  Relation rel;
  rel.cols = op.output;
  rel.BuildLayout();

  struct GroupState {
    Row key;
    std::vector<Accumulator> accs;
  };
  std::unordered_map<Row, GroupState, RowHash, RowEq> groups;
  std::vector<const Row*> group_order;  // deterministic output order

  for (const auto& chunk : child.chunks) {
    const size_t n = chunk->rows;
    if (n == 0) continue;
    VecCtx ctx;
    ctx.batch = chunk.get();
    ctx.layout = &child.layout;
    std::vector<SideView> key_sides;
    key_sides.reserve(op.group_by.size());
    std::vector<VecVal> key_vals;  // keeps fallback columns alive
    key_vals.reserve(op.group_by.size());
    for (const auto& g : op.group_by) {
      HQ_ASSIGN_OR_RETURN(VecVal v, EvalExprVec(*g, ctx));
      key_vals.push_back(std::move(v));
      key_sides.push_back(MakeSide(key_vals.back()));
    }
    std::vector<SideView> arg_sides(op.aggregates.size());
    std::vector<VecVal> arg_vals(op.aggregates.size());
    std::vector<bool> has_arg(op.aggregates.size(), false);
    for (size_t i = 0; i < op.aggregates.size(); ++i) {
      if (op.aggregates[i].arg == nullptr) continue;
      HQ_ASSIGN_OR_RETURN(VecVal v, EvalExprVec(*op.aggregates[i].arg, ctx));
      arg_vals[i] = std::move(v);
      arg_sides[i] = MakeSide(arg_vals[i]);
      has_arg[i] = true;
    }
    Row key(op.group_by.size());
    for (size_t r = 0; r < n; ++r) {
      for (size_t k = 0; k < key_sides.size(); ++k) {
        key[k] = key_sides[k].At(r);
      }
      auto it = groups.find(key);
      if (it == groups.end()) {
        GroupState state;
        state.key = key;
        for (const auto& a : op.aggregates) {
          state.accs.emplace_back(a.func, a.distinct);
        }
        it = groups.emplace(key, std::move(state)).first;
        group_order.push_back(&it->first);
      }
      for (size_t i = 0; i < op.aggregates.size(); ++i) {
        Accumulator& acc = it->second.accs[i];
        if (!has_arg[i]) {
          HQ_RETURN_IF_ERROR(acc.AddCountRow());
          continue;
        }
        const SideView& s = arg_sides[i];
        if (s.IsNullAt(r)) continue;  // aggregates skip NULLs
        if (acc.fast_path() && s.col != nullptr) {
          switch (s.col->kind) {
            case PhysKind::kI64:
              acc.AddInt(s.col->i64[r]);
              continue;
            case PhysKind::kF64:
              acc.AddDouble(s.col->f64[r]);
              continue;
            case PhysKind::kDecimal:
              HQ_RETURN_IF_ERROR(
                  acc.AddDecimal(Decimal{s.col->i64[r], s.col->i32b[r]}));
              continue;
            default:
              break;
          }
        }
        HQ_RETURN_IF_ERROR(acc.Add(s.At(r)));
      }
    }
  }

  std::vector<SqlType> types;
  types.reserve(op.output.size());
  for (const auto& c : op.output) types.push_back(c.type);
  BatchBuilder builder(types);
  if (groups.empty() && op.group_by.empty()) {
    // Global aggregate over empty input: one row of neutral values.
    Row out;
    for (const auto& a : op.aggregates) {
      out.push_back(a.func == "COUNT" ? Datum::Int(0) : Datum::Null());
    }
    HQ_RETURN_IF_ERROR(builder.AppendRow(out));
  }
  builder.Reserve(group_order.size());
  Row out;
  for (const Row* key : group_order) {
    auto& state = groups.find(*key)->second;
    out.clear();
    for (const Datum& k : state.key) out.push_back(k);
    for (const auto& acc : state.accs) out.push_back(acc.Finish());
    HQ_RETURN_IF_ERROR(builder.AppendRow(out));
  }
  rel.chunks = {builder.Finish()};
  return rel;
}

Result<Relation> Executor::ExecJoin(const Op& op) {
  HQ_ASSIGN_OR_RETURN(Relation left, Exec(*op.children[0]));
  HQ_ASSIGN_OR_RETURN(Relation right, Exec(*op.children[1]));

  // Hash-join keys: equi-conjuncts whose sides bind entirely to one input
  // each. A cross join ignores its predicate.
  const bool filtered =
      op.join_kind != xtra::JoinKind::kCross && op.predicate != nullptr;
  std::vector<const Expr*> left_keys, right_keys;
  std::vector<const Expr*> conjuncts;
  if (filtered) {
    exec::SplitConjuncts(op.predicate.get(), &conjuncts);
    for (const Expr* c : conjuncts) {
      if (c->kind != ExprKind::kComp || c->comp != xtra::CompKind::kEq) {
        continue;
      }
      for (int side = 0; side < 2; ++side) {
        const Expr& a = *c->children[side];
        const Expr& b = *c->children[1 - side];
        bool a_ref = false, b_ref = false;
        bool a_left = exec::ExprRefsOnly(
            a, [&](int id) { return left.layout.count(id) > 0; }, &a_ref);
        bool b_right = exec::ExprRefsOnly(
            b, [&](int id) { return right.layout.count(id) > 0; }, &b_ref);
        if (a_left && b_right && a_ref && b_ref) {
          left_keys.push_back(&a);
          right_keys.push_back(&b);
          break;
        }
      }
    }
  }
  // Pairs that match on the keys (or every pair, without keys) are
  // rechecked against the full predicate unless it is just the keys.
  const bool need_recheck = filtered && conjuncts.size() != left_keys.size();

  Relation rel;
  rel.cols = op.output;
  rel.BuildLayout();

  std::shared_ptr<const ColumnBatch> lbatch = left.SingleChunk();
  std::shared_ptr<const ColumnBatch> rbatch = right.SingleChunk();
  const size_t ln = lbatch->rows, rn = rbatch->rows;

  VecCtx lctx, rctx;
  lctx.batch = lbatch.get();
  lctx.layout = &left.layout;
  rctx.batch = rbatch.get();
  rctx.layout = &right.layout;

  std::vector<VecVal> lkey_vals, rkey_vals;
  std::vector<SideView> lkeys, rkeys;
  for (const Expr* k : left_keys) {
    HQ_ASSIGN_OR_RETURN(VecVal v, EvalExprVec(*k, lctx));
    lkey_vals.push_back(std::move(v));
    lkeys.push_back(MakeSide(lkey_vals.back()));
  }
  for (const Expr* k : right_keys) {
    HQ_ASSIGN_OR_RETURN(VecVal v, EvalExprVec(*k, rctx));
    rkey_vals.push_back(std::move(v));
    rkeys.push_back(MakeSide(rkey_vals.back()));
  }

  // Build the hash table over the right side keys. Single-key joins where
  // both sides are physically int64 (the common TPC-H shape: orderkey,
  // custkey, ...) hash the raw values — no Datum boxing per row; raw
  // equality matches GroupEquals for int/int pairs exactly.
  bool i64_fast = lkeys.size() == 1 && rkeys.size() == 1 &&
                  lkeys[0].kind == PhysKind::kI64 &&
                  rkeys[0].kind == PhysKind::kI64;
  std::unordered_map<int64_t, std::vector<uint32_t>> i64_table;
  std::unordered_map<std::vector<Datum>, std::vector<uint32_t>, VecHashT,
                     VecEqT>
      table;
  if (i64_fast) {
    i64_table.reserve(rn);
    for (size_t ri = 0; ri < rn; ++ri) {
      if (!rkeys[0].IsNullAt(ri)) {
        i64_table[rkeys[0].I64At(ri)].push_back(static_cast<uint32_t>(ri));
      }
    }
  } else if (!lkeys.empty()) {
    table.reserve(rn);
    std::vector<Datum> key(rkeys.size());
    for (size_t ri = 0; ri < rn; ++ri) {
      bool null_key = false;
      for (size_t k = 0; k < rkeys.size(); ++k) {
        key[k] = rkeys[k].At(ri);
        if (key[k].is_null()) null_key = true;
      }
      if (!null_key) table[key].push_back(static_cast<uint32_t>(ri));
    }
  }

  std::map<int, int> combined = left.layout;
  for (const auto& [id, idx] : right.layout) {
    combined[id] = idx + static_cast<int>(left.cols.size());
  }

  // Matching pairs, left-major; `cand_*` buffer a block awaiting recheck.
  std::vector<uint32_t> out_l, out_r, cand_l, cand_r;
  std::vector<uint8_t> left_matched(ln, 0), right_matched(rn, 0);
  auto keep_pair = [&](uint32_t li, uint32_t ri) {
    out_l.push_back(li);
    out_r.push_back(ri);
    left_matched[li] = 1;
    right_matched[ri] = 1;
  };
  auto recheck = [&]() -> Status {
    if (cand_l.empty()) return Status::OK();
    ColumnBatch pairs;
    pairs.rows = cand_l.size();
    for (const auto& col : lbatch->columns) {
      pairs.columns.push_back(GatherColumn(*col, cand_l));
    }
    for (const auto& col : rbatch->columns) {
      pairs.columns.push_back(GatherColumn(*col, cand_r));
    }
    HQ_ASSIGN_OR_RETURN(std::vector<uint32_t> keep,
                        FilterIndices(*op.predicate, pairs, combined));
    for (uint32_t i : keep) keep_pair(cand_l[i], cand_r[i]);
    cand_l.clear();
    cand_r.clear();
    return Status::OK();
  };
  auto candidate = [&](uint32_t li, uint32_t ri) -> Status {
    if (!need_recheck) {
      keep_pair(li, ri);
      return Status::OK();
    }
    cand_l.push_back(li);
    cand_r.push_back(ri);
    return cand_l.size() >= kJoinBlock ? recheck() : Status::OK();
  };

  std::vector<Datum> key(lkeys.size());
  for (size_t li = 0; li < ln; ++li) {
    const auto l32 = static_cast<uint32_t>(li);
    if (lkeys.empty()) {
      for (size_t ri = 0; ri < rn; ++ri) {
        HQ_RETURN_IF_ERROR(candidate(l32, static_cast<uint32_t>(ri)));
      }
      continue;
    }
    const std::vector<uint32_t>* hits = nullptr;
    if (i64_fast) {
      if (!lkeys[0].IsNullAt(li)) {
        auto it = i64_table.find(lkeys[0].I64At(li));
        if (it != i64_table.end()) hits = &it->second;
      }
    } else {
      bool null_key = false;
      for (size_t k = 0; k < lkeys.size(); ++k) {
        key[k] = lkeys[k].At(li);
        if (key[k].is_null()) null_key = true;
      }
      if (!null_key) {
        auto bucket = table.find(key);
        if (bucket != table.end()) hits = &bucket->second;
      }
    }
    if (hits == nullptr) continue;
    for (uint32_t ri : *hits) HQ_RETURN_IF_ERROR(candidate(l32, ri));
  }
  HQ_RETURN_IF_ERROR(recheck());

  // Outer joins pad unmatched rows with NULLs: a left row right after its
  // own matches, right rows at the end.
  std::vector<uint32_t> li_idx, ri_idx;
  if (op.join_kind == xtra::JoinKind::kLeft ||
      op.join_kind == xtra::JoinKind::kFull) {
    size_t k = 0;
    for (size_t li = 0; li < ln; ++li) {
      for (; k < out_l.size() && out_l[k] == li; ++k) {
        li_idx.push_back(out_l[k]);
        ri_idx.push_back(out_r[k]);
      }
      if (!left_matched[li]) {
        li_idx.push_back(static_cast<uint32_t>(li));
        ri_idx.push_back(kNullRow);
      }
    }
  } else {
    li_idx = std::move(out_l);
    ri_idx = std::move(out_r);
  }
  if (op.join_kind == xtra::JoinKind::kRight ||
      op.join_kind == xtra::JoinKind::kFull) {
    for (size_t ri = 0; ri < rn; ++ri) {
      if (!right_matched[ri]) {
        li_idx.push_back(kNullRow);
        ri_idx.push_back(static_cast<uint32_t>(ri));
      }
    }
  }

  auto out = std::make_shared<ColumnBatch>();
  out->rows = li_idx.size();
  out->columns.reserve(lbatch->columns.size() + rbatch->columns.size());
  for (const auto& col : lbatch->columns) {
    out->columns.push_back(GatherColumn(*col, li_idx));
  }
  for (const auto& col : rbatch->columns) {
    out->columns.push_back(GatherColumn(*col, ri_idx));
  }
  rel.chunks.push_back(std::move(out));
  return rel;
}

Result<Relation> Executor::ExecSetOp(const Op& op) {
  HQ_ASSIGN_OR_RETURN(Relation left, Exec(*op.children[0]));
  HQ_ASSIGN_OR_RETURN(Relation right, Exec(*op.children[1]));
  if (left.cols.size() != right.cols.size()) {
    return Status::ExecutionError("set operation column count mismatch");
  }
  Relation rel;
  rel.cols = op.output;
  rel.BuildLayout();
  if (op.setop_kind == xtra::SetOpKind::kUnionAll) {
    rel.chunks = std::move(left.chunks);
    for (auto& c : right.chunks) rel.chunks.push_back(std::move(c));
    return rel;
  }
  std::shared_ptr<const ColumnBatch> lbatch = left.SingleChunk();
  std::shared_ptr<const ColumnBatch> rbatch = right.SingleChunk();
  RowSet seen;
  if (op.setop_kind == xtra::SetOpKind::kUnion) {
    // Left rows, then right rows; the first occurrence of a tuple wins.
    for (const auto& batch : {lbatch, rbatch}) {
      std::vector<uint32_t> keep = FirstOccurrences(*batch, &seen);
      if (!keep.empty()) rel.chunks.push_back(KeepRows(batch, keep));
    }
    return rel;
  }
  // INTERSECT / EXCEPT: distinct left rows that are (not) on the right.
  RowSet right_rows;
  FirstOccurrences(*rbatch, &right_rows);
  const bool want = op.setop_kind == xtra::SetOpKind::kIntersect;
  std::vector<uint32_t> keep;
  Row row;
  for (size_t r = 0; r < lbatch->rows; ++r) {
    lbatch->FillRow(r, &row);
    if ((right_rows.count(row) > 0) == want && seen.insert(row).second) {
      keep.push_back(static_cast<uint32_t>(r));
    }
  }
  if (!keep.empty()) rel.chunks.push_back(KeepRows(lbatch, keep));
  return rel;
}

Result<Relation> Executor::ExecSort(const Op& op) {
  HQ_ASSIGN_OR_RETURN(Relation child, Exec(*op.children[0]));
  std::shared_ptr<const ColumnBatch> batch = child.SingleChunk();
  const size_t n = batch->rows;
  VecCtx ctx;
  ctx.batch = batch.get();
  ctx.layout = &child.layout;

  std::vector<std::vector<Datum>> keys(op.sort_items.size());
  for (size_t j = 0; j < op.sort_items.size(); ++j) {
    HQ_ASSIGN_OR_RETURN(VecVal v, EvalExprVec(*op.sort_items[j].expr, ctx));
    SideView s = MakeSide(v);
    keys[j].reserve(n);
    for (size_t r = 0; r < n; ++r) keys[j].push_back(s.At(r));
  }
  std::vector<uint32_t> idx(n);
  for (size_t r = 0; r < n; ++r) idx[r] = static_cast<uint32_t>(r);
  std::stable_sort(idx.begin(), idx.end(), [&](uint32_t a, uint32_t b) {
    for (size_t j = 0; j < op.sort_items.size(); ++j) {
      bool nf = op.sort_items[j].nulls_first.value_or(
          op.sort_items[j].descending);  // vdb default: NULLs high
      int c = CompareForSort(keys[j][a], keys[j][b],
                             op.sort_items[j].descending, nf);
      if (c != 0) return c < 0;
    }
    return false;
  });

  Relation rel;
  rel.cols = child.cols;
  rel.layout = child.layout;
  bool already_sorted = true;
  for (size_t r = 0; r < n; ++r) {
    if (idx[r] != r) {
      already_sorted = false;
      break;
    }
  }
  if (already_sorted) {
    rel.chunks.push_back(std::move(batch));
  } else {
    rel.chunks.push_back(GatherBatch(*batch, idx));
  }
  return rel;
}

Result<Relation> Executor::ExecLimit(const Op& op) {
  HQ_ASSIGN_OR_RETURN(Relation child, Exec(*op.children[0]));
  if (op.limit_count < 0 ||
      child.RowCount() <= static_cast<size_t>(op.limit_count)) {
    return child;
  }
  Relation rel;
  rel.cols = std::move(child.cols);
  rel.layout = std::move(child.layout);
  size_t remaining = static_cast<size_t>(op.limit_count);
  for (const auto& chunk : child.chunks) {
    if (remaining == 0) break;
    if (chunk->rows <= remaining) {
      remaining -= chunk->rows;
      rel.chunks.push_back(chunk);
    } else {
      std::vector<uint32_t> idx(remaining);
      for (size_t r = 0; r < remaining; ++r) idx[r] = static_cast<uint32_t>(r);
      rel.chunks.push_back(GatherBatch(*chunk, idx));
      remaining = 0;
    }
  }
  return rel;
}


}  // namespace hyperq::vdb
