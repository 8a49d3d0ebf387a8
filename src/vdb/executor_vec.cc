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
#include <bit>
#include <cstring>
#include <functional>
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

std::string_view RTrim(std::string_view s) {
  while (!s.empty() && s.back() == ' ') s.remove_suffix(1);
  return s;
}

// Blank-padded comparison used by Datum::Compare for strings.
int TrimmedCompare(std::string_view a, std::string_view b) {
  int c = RTrim(a).compare(RTrim(b));
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

// --- Mask kernels ------------------------------------------------------------
//
// A predicate evaluates to a kBool column allocated once at its final size:
// b8 is 1 on TRUE rows and 0 on FALSE and NULL ones (the zero placeholder
// every column keeps for a NULL row), and the validity bitmap marks the NULL
// rows. Kernels write b8 and the bitmap directly; none appends a Datum per
// row. Typed kernels compute every row, NULL or not, and SealMask then
// zeroes the NULL rows' b8.

void SetMaskNull(ColumnVec* m, size_t r) {
  m->valid[r >> 3] &= static_cast<uint8_t>(~(1u << (r & 7)));
}

// A mask of `n` rows, every one non-NULL and FALSE.
std::shared_ptr<ColumnVec> NewMask(size_t n) {
  auto m = std::make_shared<ColumnVec>(PhysKind::kBool);
  m->size = n;
  m->b8.assign(n, 0);
  m->valid.assign((n + 7) / 8, 0xFF);
  if (n % 8 != 0) {
    m->valid.back() = static_cast<uint8_t>((1u << (n % 8)) - 1);
  }
  return m;
}

// Makes the mask NULL wherever the operand is: a column's NULL rows, or
// every row for a NULL constant.
void NullWhere(ColumnVec* m, const SideView& s) {
  if (s.col == nullptr) {
    if (s.scalar.is_null()) std::fill(m->valid.begin(), m->valid.end(), 0);
    return;
  }
  if (s.col->nulls == 0) return;
  for (size_t b = 0; b < m->valid.size(); ++b) m->valid[b] &= s.col->valid[b];
}

// Counts the mask's NULL rows and zeroes their b8 entries.
void SealMask(ColumnVec* m) {
  size_t valid = 0;
  for (uint8_t byte : m->valid) {
    valid += static_cast<size_t>(std::popcount(byte));
  }
  m->nulls = m->size - valid;
  if (m->nulls == 0) return;
  for (size_t r = 0; r < m->size; ++r) {
    m->b8[r] &= static_cast<uint8_t>((m->valid[r >> 3] >> (r & 7)) & 1);
  }
}

// out[i] = op(l(i), r(i)) for every row. The CompKind switch runs once per
// call, so each instantiation is a straight typed loop.
template <typename L, typename R>
void CompareLoop(xtra::CompKind k, size_t n, uint8_t* out, L l, R r) {
  auto run = [&](auto op) {
    for (size_t i = 0; i < n; ++i) out[i] = op(l(i), r(i)) ? 1 : 0;
  };
  switch (k) {
    case xtra::CompKind::kEq:
      return run(std::equal_to<>());
    case xtra::CompKind::kNe:
      return run(std::not_equal_to<>());
    case xtra::CompKind::kLt:
      return run(std::less<>());
    case xtra::CompKind::kLe:
      return run(std::less_equal<>());
    case xtra::CompKind::kGt:
      return run(std::greater<>());
    case xtra::CompKind::kGe:
      return run(std::greater_equal<>());
  }
}

// CompareLoop over two sides that are each a value array or a broadcast
// constant (`lp`/`rp` null). At most one side is a constant.
template <typename T>
void CompareArrays(xtra::CompKind k, size_t n, uint8_t* out, const T* lp,
                   T lc, const T* rp, T rc) {
  auto at = [](const T* p) { return [p](size_t i) { return p[i]; }; };
  auto same = [](T c) { return [c](size_t) { return c; }; };
  if (lp != nullptr && rp != nullptr) {
    CompareLoop(k, n, out, at(lp), at(rp));
  } else if (lp != nullptr) {
    CompareLoop(k, n, out, at(lp), same(rc));
  } else {
    CompareLoop(k, n, out, same(lc), at(rp));
  }
}

// A side's values as T: the column array `get(col)` or the constant
// `value(scalar)`.
template <typename T, typename Get, typename Value>
std::pair<const T*, T> Operand(const SideView& s, Get get, Value value) {
  if (s.col != nullptr) return {get(*s.col), T{}};
  return {nullptr, value(s.scalar)};
}

// Writes `cmp3`'s three-way result through CompareLoop (DECIMAL and string
// sides, whose order is not the raw payload's).
template <typename Cmp3>
void CompareThreeWay(xtra::CompKind k, size_t n, uint8_t* out, Cmp3 cmp3) {
  CompareLoop(k, n, out, cmp3, [](size_t) { return 0; });
}

// Fills the comparison mask `m` of two non-NULL-constant sides of the typed
// kind pairs; returns false when the kinds need the generic Datum compare.
bool CompareTyped(xtra::CompKind k, const SideView& l, const SideView& r,
                  ColumnVec* m) {
  const size_t n = m->size;
  uint8_t* out = m->b8.data();
  if (IsI64Kind(l.kind) && IsI64Kind(r.kind)) {
    auto get = [](const ColumnVec& c) { return c.i64.data(); };
    auto value = [](const Datum& d) { return d.int_val(); };
    auto [lp, lc] = Operand<int64_t>(l, get, value);
    auto [rp, rc] = Operand<int64_t>(r, get, value);
    CompareArrays(k, n, out, lp, lc, rp, rc);
    return true;
  }
  if (IsFloatableKind(l.kind) && IsFloatableKind(r.kind)) {
    // An INTEGER side against a DOUBLE one compares as double.
    std::vector<double> widened[2];
    auto doubles = [&](const SideView& s,
                       int w) -> std::pair<const double*, double> {
      if (s.col == nullptr) return {nullptr, s.F64At(0)};
      if (s.col->kind == PhysKind::kF64) return {s.col->f64.data(), 0};
      widened[w].assign(s.col->i64.begin(), s.col->i64.begin() + n);
      return {widened[w].data(), 0};
    };
    auto [lp, lc] = doubles(l, 0);
    auto [rp, rc] = doubles(r, 1);
    CompareArrays(k, n, out, lp, lc, rp, rc);
    return true;
  }
  if (IsDecimalableKind(l.kind) && IsDecimalableKind(r.kind)) {
    if (l.col != nullptr && r.col == nullptr &&
        l.col->kind == PhysKind::kDecimal) {
      // DECIMAL column against a constant: rows stored at the constant's
      // scale compare their unscaled values directly.
      const int64_t* v = l.col->i64.data();
      const int32_t* sc = l.col->i32b.data();
      const Decimal c = r.DecAt(0);
      CompareThreeWay(k, n, out, [=](size_t i) {
        if (sc[i] == c.scale) {
          return v[i] < c.value ? -1 : v[i] > c.value ? 1 : 0;
        }
        return Decimal::Compare(Decimal{v[i], sc[i]}, c);
      });
      return true;
    }
    CompareThreeWay(k, n, out, [&](size_t i) {
      return Decimal::Compare(l.DecAt(i), r.DecAt(i));
    });
    return true;
  }
  if (l.kind == PhysKind::kString && r.kind == PhysKind::kString) {
    CompareThreeWay(k, n, out, [&](size_t i) {
      return TrimmedCompare(l.StrAt(i), r.StrAt(i));
    });
    return true;
  }
  if (l.kind == PhysKind::kDate && r.kind == PhysKind::kDate) {
    auto get = [](const ColumnVec& c) { return c.i32.data(); };
    auto value = [](const Datum& d) { return d.date_val(); };
    auto [lp, lc] = Operand<int32_t>(l, get, value);
    auto [rp, rc] = Operand<int32_t>(r, get, value);
    CompareArrays(k, n, out, lp, lc, rp, rc);
    return true;
  }
  if ((l.kind == PhysKind::kTime && r.kind == PhysKind::kTime) ||
      (l.kind == PhysKind::kTimestamp && r.kind == PhysKind::kTimestamp)) {
    auto get = [](const ColumnVec& c) { return c.i64.data(); };
    auto value = [](const Datum& d) {
      return d.is_time() ? d.time_val() : d.timestamp_val();
    };
    auto [lp, lc] = Operand<int64_t>(l, get, value);
    auto [rp, rc] = Operand<int64_t>(r, get, value);
    CompareArrays(k, n, out, lp, lc, rp, rc);
    return true;
  }
  return false;
}

// Splits a boolean operand over `m` rows into a known-TRUE plane `t` and a
// known-FALSE plane `f` (a row in neither is NULL).
void TruthPlanes(const Executor::VecVal& v, size_t m, std::vector<uint8_t>* t,
                 std::vector<uint8_t>* f) {
  t->assign(m, 0);
  f->assign(m, 0);
  uint8_t* tp = t->data();
  uint8_t* fp = f->data();
  if (v.is_const) {
    if (v.scalar.is_null()) return;
    const bool b = v.scalar.is_bool() && v.scalar.bool_val();
    std::fill(b ? tp : fp, (b ? tp : fp) + m, 1);
    return;
  }
  const ColumnVec& c = *v.col;
  if (c.kind == PhysKind::kBool) {
    // b8 is already 0 on NULL rows.
    const uint8_t* b8 = c.b8.data();
    const uint8_t* valid = c.valid.data();
    std::memcpy(tp, b8, m);
    if (c.nulls == 0) {
      for (size_t i = 0; i < m; ++i) fp[i] = b8[i] ^ 1;
    } else {
      for (size_t i = 0; i < m; ++i) {
        fp[i] = static_cast<uint8_t>(((valid[i >> 3] >> (i & 7)) & 1) &
                                     (b8[i] ^ 1));
      }
    }
    return;
  }
  for (size_t i = 0; i < m; ++i) {
    if (c.IsNull(i)) continue;
    Datum d = c.GetDatum(i);
    const bool b = d.is_bool() && d.bool_val();
    tp[i] = b ? 1 : 0;
    fp[i] = b ? 0 : 1;
  }
}

// The kinds an IN-list of same-kind constants probes without boxing.
bool IsInListTypedKind(PhysKind k) {
  return k == PhysKind::kI64 || k == PhysKind::kDate ||
         k == PhysKind::kString;
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
      SideView l = MakeSide(lv), r = MakeSide(rv);
      auto mask = NewMask(n);
      NullWhere(mask.get(), l);
      NullWhere(mask.get(), r);
      const bool null_const = (lv.is_const && lv.scalar.is_null()) ||
                              (rv.is_const && rv.scalar.is_null());
      if (!null_const && !CompareTyped(e.comp, l, r, mask.get())) {
        // Generic: Datum::Compare per non-NULL row (still no tree-walking).
        for (size_t i = 0; i < n; ++i) {
          if (mask->IsNull(i)) continue;
          HQ_ASSIGN_OR_RETURN(int c, Datum::Compare(l.At(i), r.At(i)));
          mask->b8[i] = CompToBool(e.comp, c) ? 1 : 0;
        }
      }
      SealMask(mask.get());
      VecVal out;
      out.col = std::move(mask);
      return out;
    }
    case ExprKind::kBool: {
      // Kleene AND/OR over a known-TRUE plane `t` and a known-FALSE plane
      // `f` (a row in neither is NULL). While no operand has had a NULL row,
      // `f` is implicitly !t and is not kept: each NULL-free mask then costs
      // one pass. Children are evaluated over the whole chunk, except that a
      // child holding a subquery runs only on the rows the earlier children
      // left undecided, as per-row short-circuiting would: its subplan costs
      // per row. If any child errors, fall back to the scalar interpreter,
      // whose short-circuiting keeps errors in unreached operands invisible.
      const bool is_and = e.boolk == xtra::BoolKind::kAnd;
      std::vector<uint8_t> t(n, is_and ? 1 : 0), f;
      bool planes = false;  // `f` is materialized
      std::vector<uint8_t> ct, cf;  // a child's planes
      std::vector<uint32_t> live;   // undecided rows, for a subquery child
      std::vector<int> slots;
      for (const auto& c : e.children) {
        live.clear();
        slots.clear();
        bool all_rows = true;
        if (!CollectSlots(*c, *ctx.layout, &slots)) {  // holds a subquery
          // No later child changes a row AND has seen FALSE or OR has seen
          // TRUE.
          for (size_t r = 0; r < n; ++r) {
            const bool decided = is_and ? (planes ? f[r] != 0 : t[r] == 0)
                                        : t[r] != 0;
            if (!decided) live.push_back(static_cast<uint32_t>(r));
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
        uint8_t* tp = t.data();
        if (all_rows && !planes && !cv->is_const &&
            cv->col->kind == PhysKind::kBool && cv->col->nulls == 0) {
          const uint8_t* b8 = cv->col->b8.data();
          if (is_and) {
            for (size_t r = 0; r < n; ++r) tp[r] &= b8[r];
          } else {
            for (size_t r = 0; r < n; ++r) tp[r] |= b8[r];
          }
          continue;
        }
        const size_t m = all_rows ? n : live.size();
        TruthPlanes(*cv, m, &ct, &cf);
        if (!planes) {
          f.resize(n);
          for (size_t r = 0; r < n; ++r) f[r] = t[r] ^ 1;
          planes = true;
        }
        uint8_t* fp = f.data();
        for (size_t i = 0; i < m; ++i) {
          const size_t r = all_rows ? i : live[i];
          tp[r] = is_and ? tp[r] & ct[i] : tp[r] | ct[i];
          fp[r] = is_and ? fp[r] | cf[i] : fp[r] & cf[i];
        }
      }
      std::shared_ptr<ColumnVec> mask = NewMask(n);
      if (planes) {
        for (size_t byte = 0; byte < mask->valid.size(); ++byte) {
          uint8_t bits = 0;
          const size_t end = std::min(n, byte * 8 + 8);
          for (size_t r = byte * 8; r < end; ++r) {
            bits |= static_cast<uint8_t>((t[r] | f[r]) << (r & 7));
          }
          mask->valid[byte] = bits;
        }
      }
      mask->b8 = std::move(t);
      SealMask(mask.get());
      VecVal out;
      out.col = std::move(mask);
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
      const ColumnVec& src = *cv.col;
      auto mask = NewMask(n);
      NullWhere(mask.get(), MakeSide(cv));
      if (src.kind == PhysKind::kBool) {
        for (size_t r = 0; r < n; ++r) mask->b8[r] = src.b8[r] ^ 1;
      } else {
        for (size_t r = 0; r < n; ++r) {
          if (!src.IsNull(r)) mask->b8[r] = !src.GetDatum(r).bool_val();
        }
      }
      SealMask(mask.get());
      VecVal out;
      out.col = std::move(mask);
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
      const ColumnVec& src = *cv.col;
      auto mask = NewMask(n);
      for (size_t r = 0; r < n; ++r) {
        mask->b8[r] = src.IsNull(r) != e.negated ? 1 : 0;
      }
      VecVal out;
      out.col = std::move(mask);
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
      auto mask = NewMask(n);
      NullWhere(mask.get(), v);
      NullWhere(mask.get(), p);
      for (size_t i = 0; i < n; ++i) {
        if (mask->IsNull(i)) continue;
        bool m = LikeMatch(v.StrAt(i), p.StrAt(i), escape, has_escape);
        mask->b8[i] = m != e.negated ? 1 : 0;
      }
      SealMask(mask.get());
      VecVal out;
      out.col = std::move(mask);
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
      auto mask = NewMask(n);
      NullWhere(mask.get(), v);
      uint8_t* out = mask->b8.data();
      const uint8_t on_hit = e.negated ? 0 : 1;
      bool typed = v.col != nullptr && IsInListTypedKind(v.kind);
      for (const SideView& s : sides) {
        typed = typed && s.col == nullptr && s.kind == v.kind;
      }
      if (typed && v.kind == PhysKind::kString) {
        // Strings compare blank-trimmed, as Datum::Compare does.
        std::vector<std::string_view> keys;
        for (const SideView& s : sides) keys.push_back(RTrim(s.StrAt(0)));
        for (size_t i = 0; i < n; ++i) {
          std::string_view x = RTrim(v.col->StringAt(i));
          bool hit = std::find(keys.begin(), keys.end(), x) != keys.end();
          out[i] = hit ? on_hit : on_hit ^ 1;
        }
      } else if (typed) {
        const bool date = v.kind == PhysKind::kDate;
        std::vector<int64_t> keys;
        for (const SideView& s : sides) {
          keys.push_back(date ? s.scalar.date_val() : s.scalar.int_val());
        }
        for (size_t i = 0; i < n; ++i) {
          int64_t x = date ? v.col->i32[i] : v.col->i64[i];
          bool hit = std::find(keys.begin(), keys.end(), x) != keys.end();
          out[i] = hit ? on_hit : on_hit ^ 1;
        }
      } else {
        for (size_t i = 0; i < n; ++i) {
          if (mask->IsNull(i)) continue;
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
            out[i] = on_hit;
          } else if (saw_null) {
            SetMaskNull(mask.get(), i);
          } else {
            out[i] = on_hit ^ 1;
          }
        }
      }
      SealMask(mask.get());
      VecVal out_val;
      out_val.col = std::move(mask);
      return out_val;
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
  const ColumnVec& m = *mask.col;
  if (m.kind == PhysKind::kBool) {
    // b8 is 1 exactly on the TRUE rows; eight FALSE or NULL rows at a time
    // are skipped with one load.
    const uint8_t* b8 = m.b8.data();
    idx.reserve(n);
    size_t r = 0;
    for (; r + 8 <= n; r += 8) {
      uint64_t word;
      std::memcpy(&word, b8 + r, sizeof(word));
      if (word == 0) continue;
      for (size_t j = r; j < r + 8; ++j) {
        if (b8[j]) idx.push_back(static_cast<uint32_t>(j));
      }
    }
    for (; r < n; ++r) {
      if (b8[r]) idx.push_back(static_cast<uint32_t>(r));
    }
    return idx;
  }
  for (size_t r = 0; r < n; ++r) {
    if (m.IsNull(r)) continue;
    Datum d = m.GetDatum(r);
    if (d.is_bool() && d.bool_val()) idx.push_back(static_cast<uint32_t>(r));
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

// ---------------------------------------------------------------------------
// UPDATE / DELETE
// ---------------------------------------------------------------------------

namespace {

// Target column ids onto table slots: the layout of the table's batch.
std::map<int, int> DmlLayout(const Op& op) {
  std::map<int, int> layout;
  for (size_t i = 0; i < op.target_col_ids.size(); ++i) {
    layout[op.target_col_ids[i]] = static_cast<int>(i);
  }
  return layout;
}

// `base` with its rows `idx` (ascending) replaced, in order, by the rows of
// `values`. The kind is kept when both agree, else the column is kDatum.
std::shared_ptr<ColumnVec> ReplaceRows(const ColumnVec& base,
                                       const std::vector<uint32_t>& idx,
                                       const ColumnVec& values) {
  auto out = std::make_shared<ColumnVec>(
      base.kind == values.kind ? base.kind : PhysKind::kDatum);
  out->Reserve(base.size);
  size_t k = 0;
  for (size_t r = 0; r < base.size; ++r) {
    if (k < idx.size() && idx[k] == r) {
      out->AppendFrom(values, k++);
    } else {
      out->AppendFrom(base, r);
    }
  }
  return out;
}

}  // namespace

Result<std::vector<uint32_t>> Executor::DmlTargetRows(
    const Op& op, const ColumnBatch& data, const std::map<int, int>& layout) {
  if (op.predicate == nullptr) {
    std::vector<uint32_t> all(data.rows);
    for (size_t r = 0; r < all.size(); ++r) all[r] = static_cast<uint32_t>(r);
    return all;
  }
  // An empty table evaluates nothing, as a row-at-a-time loop would not.
  if (data.rows == 0) return std::vector<uint32_t>{};
  return FilterIndices(*op.predicate, data, layout);
}

Result<int64_t> Executor::ExecUpdate(const Op& op, Table* table) {
  std::vector<int> assign_slots;
  for (const auto& [name, e] : op.assignments) {
    int idx = table->FindColumn(name);
    if (idx < 0) {
      return Status::ExecutionError("column '", name, "' does not exist");
    }
    assign_slots.push_back(idx);
  }
  const std::shared_ptr<const ColumnBatch> data = table->data;
  const std::map<int, int> layout = DmlLayout(op);
  HQ_ASSIGN_OR_RETURN(std::vector<uint32_t> hits,
                      DmlTargetRows(op, *data, layout));
  if (hits.empty()) return 0;
  // Every assignment reads the matched rows' old values, so all new values
  // are computed (and cast) before the table changes; an error leaves it
  // untouched.
  std::shared_ptr<const ColumnBatch> matched = KeepRows(data, hits);
  VecCtx ctx;
  ctx.batch = matched.get();
  ctx.layout = &layout;
  std::vector<std::shared_ptr<ColumnVec>> values;
  for (size_t a = 0; a < op.assignments.size(); ++a) {
    HQ_ASSIGN_OR_RETURN(VecVal v, EvalExprVec(*op.assignments[a].second, ctx));
    SideView side = MakeSide(v);
    const SqlType& type = table->columns[assign_slots[a]].type;
    BatchBuilder column({type});
    column.Reserve(hits.size());
    for (size_t k = 0; k < hits.size(); ++k) {
      HQ_ASSIGN_OR_RETURN(Datum cast, side.At(k).CastTo(type));
      column.Append(0, cast);
    }
    values.push_back(column.Finish()->columns[0]);
  }
  // The successor batch rebuilds each assigned column from its old values
  // plus the new ones and shares every other column.
  auto next = std::make_shared<ColumnBatch>(*data);
  for (size_t a = 0; a < values.size(); ++a) {
    const int slot = assign_slots[a];
    next->columns[slot] = ReplaceRows(*data->columns[slot], hits, *values[a]);
  }
  table->data = std::move(next);
  return static_cast<int64_t>(hits.size());
}

Result<int64_t> Executor::ExecDelete(const Op& op, Table* table) {
  const std::shared_ptr<const ColumnBatch> data = table->data;
  HQ_ASSIGN_OR_RETURN(std::vector<uint32_t> hits,
                      DmlTargetRows(op, *data, DmlLayout(op)));
  if (hits.empty()) return 0;
  std::vector<uint32_t> kept;
  kept.reserve(data->rows - hits.size());
  size_t h = 0;
  for (size_t r = 0; r < data->rows; ++r) {
    if (h < hits.size() && hits[h] == r) {
      ++h;
      continue;
    }
    kept.push_back(static_cast<uint32_t>(r));
  }
  table->data = KeepRows(data, kept);
  return static_cast<int64_t>(hits.size());
}

}  // namespace hyperq::vdb
