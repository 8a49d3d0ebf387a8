#include "vdb/exec_util.h"

#include <functional>

namespace hyperq::vdb::exec {

void SplitConjuncts(const xtra::Expr* e, std::vector<const xtra::Expr*>* out) {
  if (e->kind == xtra::ExprKind::kBool &&
      e->boolk == xtra::BoolKind::kAnd) {
    for (const auto& c : e->children) SplitConjuncts(c.get(), out);
    return;
  }
  out->push_back(e);
}

bool ExprRefsOnly(const xtra::Expr& e, const std::function<bool(int)>& allowed,
                  bool* any_ref) {
  if (e.kind == xtra::ExprKind::kColRef) {
    *any_ref = true;
    return allowed(e.col_id);
  }
  if (e.subplan) return false;  // keep it simple: no nested subqueries
  for (const auto& c : e.children) {
    if (c && !ExprRefsOnly(*c, allowed, any_ref)) return false;
  }
  for (const auto& [w, t] : e.when_then) {
    if (!ExprRefsOnly(*w, allowed, any_ref) ||
        !ExprRefsOnly(*t, allowed, any_ref)) {
      return false;
    }
  }
  if (e.else_expr && !ExprRefsOnly(*e.else_expr, allowed, any_ref)) {
    return false;
  }
  return true;
}

bool LikeMatch(std::string_view value, std::string_view pattern,
               char escape, bool has_escape) {
  // Recursive matcher with backtracking on '%'.
  std::function<bool(size_t, size_t)> match = [&](size_t v, size_t p) -> bool {
    while (p < pattern.size()) {
      char pc = pattern[p];
      if (has_escape && pc == escape && p + 1 < pattern.size()) {
        if (v >= value.size() || value[v] != pattern[p + 1]) return false;
        ++v;
        p += 2;
        continue;
      }
      if (pc == '%') {
        // Collapse consecutive %.
        while (p < pattern.size() && pattern[p] == '%') ++p;
        if (p == pattern.size()) return true;
        for (size_t k = v; k <= value.size(); ++k) {
          if (match(k, p)) return true;
        }
        return false;
      }
      if (pc == '_') {
        if (v >= value.size()) return false;
        ++v;
        ++p;
        continue;
      }
      if (v >= value.size() || value[v] != pc) return false;
      ++v;
      ++p;
    }
    return v == value.size();
  };
  return match(0, 0);
}

Result<Datum> ArithValues(xtra::ArithKind kind, const Datum& l,
                          const Datum& r) {
  using AK = xtra::ArithKind;
  if (kind == AK::kConcat) {
    HQ_ASSIGN_OR_RETURN(Datum ls, l.CastTo(SqlType::Varchar(0)));
    HQ_ASSIGN_OR_RETURN(Datum rs, r.CastTo(SqlType::Varchar(0)));
    return Datum::String(ls.string_val() + rs.string_val());
  }
  // Temporal arithmetic.
  if (l.is_date() || r.is_date()) {
    if (l.is_date() && r.is_date() && kind == AK::kSub) {
      return Datum::Int(static_cast<int64_t>(l.date_val()) - r.date_val());
    }
    if (l.is_date() && r.is_interval()) {
      int64_t days = r.interval_val() / 86400000000LL;
      return Datum::Date(l.date_val() +
                         static_cast<int32_t>(kind == AK::kSub ? -days
                                                               : days));
    }
    if (l.is_date() && r.is_numeric()) {
      int64_t days = r.AsInt();
      if (kind == AK::kAdd) {
        return Datum::Date(l.date_val() + static_cast<int32_t>(days));
      }
      if (kind == AK::kSub) {
        return Datum::Date(l.date_val() - static_cast<int32_t>(days));
      }
    }
    if (r.is_date() && l.is_numeric() && kind == AK::kAdd) {
      return Datum::Date(r.date_val() + static_cast<int32_t>(l.AsInt()));
    }
    return Status::ExecutionError("invalid date arithmetic");
  }
  if (l.is_timestamp() && r.is_interval()) {
    int64_t delta = kind == AK::kSub ? -r.interval_val() : r.interval_val();
    return Datum::Timestamp(l.timestamp_val() + delta);
  }
  if (!l.is_numeric() || !r.is_numeric()) {
    return Status::ExecutionError("non-numeric operands for arithmetic: ",
                                  l.ToString(), " ",
                                  ArithKindName(kind), " ", r.ToString());
  }
  switch (kind) {
    case AK::kAdd:
    case AK::kSub:
    case AK::kMul: {
      if (l.is_double() || r.is_double()) {
        double a = l.AsDouble(), b = r.AsDouble();
        double v = kind == AK::kAdd   ? a + b
                   : kind == AK::kSub ? a - b
                                      : a * b;
        return Datum::MakeDouble(v);
      }
      if (l.is_decimal() || r.is_decimal()) {
        Decimal a = l.is_decimal() ? l.decimal_val() : Decimal{l.int_val(), 0};
        Decimal b = r.is_decimal() ? r.decimal_val() : Decimal{r.int_val(), 0};
        Decimal v = kind == AK::kAdd   ? Decimal::Add(a, b)
                    : kind == AK::kSub ? Decimal::Sub(a, b)
                                       : Decimal::Mul(a, b);
        return Datum::MakeDecimal(v);
      }
      int64_t a = l.int_val(), b = r.int_val();
      int64_t v = kind == AK::kAdd   ? a + b
                  : kind == AK::kSub ? a - b
                                     : a * b;
      return Datum::Int(v);
    }
    case AK::kDiv: {
      double b = r.AsDouble();
      if (b == 0) return Status::ExecutionError("division by zero");
      return Datum::MakeDouble(l.AsDouble() / b);
    }
    case AK::kMod: {
      int64_t b = r.AsInt();
      if (b == 0) return Status::ExecutionError("MOD by zero");
      return Datum::Int(l.AsInt() % b);
    }
    case AK::kConcat:
      break;
  }
  return Status::Internal("bad arithmetic kind");
}

}  // namespace hyperq::vdb::exec
