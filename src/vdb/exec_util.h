// Internal helpers shared by the vdb executor's scalar interpreter
// (executor.cc) and its column-at-a-time operators (executor_vec.cc). Not
// part of the public API.

#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "types/datum.h"
#include "xtra/xtra.h"

namespace hyperq::vdb::exec {

// Hash/equality for rows, consistent with Datum::GroupEquals.
struct RowHash {
  size_t operator()(const std::vector<Datum>& row) const {
    size_t h = 0x345678;
    for (const Datum& d : row) h = h * 1000003 ^ d.Hash();
    return h;
  }
};
struct RowEq {
  bool operator()(const std::vector<Datum>& a,
                  const std::vector<Datum>& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!Datum::GroupEquals(a[i], b[i])) return false;
    }
    return true;
  }
};

struct DatumHash {
  size_t operator()(const Datum& d) const { return d.Hash(); }
};
struct DatumEq {
  bool operator()(const Datum& a, const Datum& b) const {
    return Datum::GroupEquals(a, b);
  }
};

/// \brief Appends the AND-conjuncts of `e` (itself when not an AND).
void SplitConjuncts(const xtra::Expr* e, std::vector<const xtra::Expr*>* out);

/// \brief True when every column `e` references satisfies `allowed` and
/// `e` holds no subquery; sets `*any_ref` when it references any column.
bool ExprRefsOnly(const xtra::Expr& e, const std::function<bool(int)>& allowed,
                  bool* any_ref);

/// \brief SQL LIKE matcher with optional escape character.
bool LikeMatch(std::string_view value, std::string_view pattern,
               char escape, bool has_escape);

/// \brief Value-level arithmetic shared by the tree-walking interpreter and
/// the vectorized evaluator: both operands already evaluated, NULLs already
/// propagated by the caller.
Result<Datum> ArithValues(xtra::ArithKind kind, const Datum& l,
                          const Datum& r);

/// Aggregate accumulator shared by hash aggregation and window frames. The
/// function name is parsed to an opcode once at construction so the per-value
/// Add path does no string comparisons.
class Accumulator {
 public:
  enum class Op : uint8_t { kCount, kMin, kMax, kSum, kAvg, kUnknown };

  static Op ParseOp(const std::string& func) {
    if (func == "COUNT") return Op::kCount;
    if (func == "MIN") return Op::kMin;
    if (func == "MAX") return Op::kMax;
    if (func == "SUM") return Op::kSum;
    if (func == "AVG") return Op::kAvg;
    return Op::kUnknown;
  }

  Accumulator(const std::string& func, bool distinct)
      : op_(ParseOp(func)), func_(func), distinct_(distinct) {}

  Status Add(const Datum& v) {
    if (v.is_null()) return Status::OK();  // SQL aggregates skip NULLs
    if (distinct_) {
      if (seen_.count(v)) return Status::OK();
      seen_.insert(v);
    }
    ++count_;
    if (op_ == Op::kCount) return Status::OK();
    if (op_ == Op::kMin || op_ == Op::kMax) {
      if (best_.is_null()) {
        best_ = v;
        return Status::OK();
      }
      HQ_ASSIGN_OR_RETURN(int c, Datum::Compare(v, best_));
      if ((op_ == Op::kMin && c < 0) || (op_ == Op::kMax && c > 0)) best_ = v;
      return Status::OK();
    }
    // SUM / AVG.
    if (v.is_decimal()) {
      dec_sum_ = Decimal::Add(dec_sum_, v.decimal_val());
      saw_decimal_ = true;
    } else if (v.is_int()) {
      int_sum_ += v.int_val();
    } else if (v.is_double()) {
      dbl_sum_ += v.double_val();
      saw_double_ = true;
    } else {
      return Status::ExecutionError("cannot ", func_, " non-numeric value ",
                                    v.ToString());
    }
    return Status::OK();
  }

  Status AddCountRow() {  // COUNT(*)
    ++count_;
    return Status::OK();
  }

  // Typed fast-path adders for non-DISTINCT vectorized aggregation; callers
  // must skip NULLs themselves.
  bool fast_path() const { return !distinct_ && op_ != Op::kUnknown; }
  void AddInt(int64_t v) {
    ++count_;
    switch (op_) {
      case Op::kSum:
      case Op::kAvg:
        int_sum_ += v;
        break;
      case Op::kMin:
      case Op::kMax:
        if (best_.is_null() ||
            (op_ == Op::kMin ? v < best_.int_val() : v > best_.int_val())) {
          best_ = Datum::Int(v);
        }
        break;
      default:
        break;
    }
  }
  void AddDouble(double v) {
    ++count_;
    switch (op_) {
      case Op::kSum:
      case Op::kAvg:
        dbl_sum_ += v;
        saw_double_ = true;
        break;
      case Op::kMin:
      case Op::kMax:
        if (best_.is_null() || (op_ == Op::kMin ? v < best_.double_val()
                                                : v > best_.double_val())) {
          best_ = Datum::MakeDouble(v);
        }
        break;
      default:
        break;
    }
  }
  Status AddDecimal(Decimal v) {
    ++count_;
    switch (op_) {
      case Op::kSum:
      case Op::kAvg:
        dec_sum_ = Decimal::Add(dec_sum_, v);
        saw_decimal_ = true;
        return Status::OK();
      case Op::kMin:
      case Op::kMax: {
        Datum d = Datum::MakeDecimal(v);
        if (best_.is_null()) {
          best_ = d;
          return Status::OK();
        }
        HQ_ASSIGN_OR_RETURN(int c, Datum::Compare(d, best_));
        if ((op_ == Op::kMin && c < 0) || (op_ == Op::kMax && c > 0)) {
          best_ = d;
        }
        return Status::OK();
      }
      default:
        return Status::OK();
    }
  }

  Datum Finish() const {
    if (op_ == Op::kCount) return Datum::Int(count_);
    if (count_ == 0) return Datum::Null();
    if (op_ == Op::kMin || op_ == Op::kMax) return best_;
    if (op_ == Op::kAvg) return Datum::MakeDouble(TotalAsDouble() / count_);
    // SUM.
    if (saw_double_) return Datum::MakeDouble(TotalAsDouble());
    if (saw_decimal_) {
      Decimal total = dec_sum_;
      if (int_sum_ != 0) total = Decimal::Add(total, Decimal{int_sum_, 0});
      return Datum::MakeDecimal(total);
    }
    return Datum::Int(int_sum_);
  }

 private:
  double TotalAsDouble() const {
    return dbl_sum_ + static_cast<double>(int_sum_) + dec_sum_.ToDouble();
  }

  Op op_;
  std::string func_;
  bool distinct_;
  std::unordered_set<Datum, DatumHash, DatumEq> seen_;
  int64_t count_ = 0;
  Datum best_;
  int64_t int_sum_ = 0;
  double dbl_sum_ = 0;
  Decimal dec_sum_{0, 0};
  bool saw_decimal_ = false;
  bool saw_double_ = false;
};

}  // namespace hyperq::vdb::exec
