#include "vdb/executor.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "common/str_util.h"
#include "types/date.h"
#include "vdb/exec_util.h"

namespace hyperq::vdb {

using xtra::ColumnInfo;
using xtra::Expr;
using xtra::ExprKind;
using xtra::Op;
using xtra::OpKind;

using exec::LikeMatch;

// ---------------------------------------------------------------------------
// Relation
// ---------------------------------------------------------------------------

size_t Relation::RowCount() const {
  size_t n = 0;
  for (const auto& c : chunks) n += c->rows;
  return n;
}

std::shared_ptr<const ColumnBatch> Relation::SingleChunk() const {
  if (chunks.empty()) {
    // A zero-row relation still needs one column vector per slot so
    // vectorized kernels can resolve ColRefs against the layout.
    auto out = std::make_shared<ColumnBatch>();
    out->columns.reserve(cols.size());
    for (const auto& c : cols) {
      out->columns.push_back(std::make_shared<ColumnVec>(PhysKindFor(c.type)));
    }
    return out;
  }
  return ConcatBatches(chunks);
}

int CompareForSort(const Datum& a, const Datum& b, bool descending,
                   bool nulls_first) {
  bool an = a.is_null(), bn = b.is_null();
  if (an && bn) return 0;
  if (an) return nulls_first ? -1 : 1;
  if (bn) return nulls_first ? 1 : -1;
  auto r = Datum::Compare(a, b);
  int c = r.ok() ? *r : 0;
  return descending ? -c : c;
}


size_t Executor::VecHashT::operator()(const std::vector<Datum>& v) const {
  size_t h = 0x345678;
  for (const Datum& d : v) h = h * 1000003 ^ d.Hash();
  return h;
}

bool Executor::VecEqT::operator()(const std::vector<Datum>& a,
                                  const std::vector<Datum>& b) const {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!Datum::GroupEquals(a[i], b[i])) return false;
  }
  return true;
}

namespace {
// Gathers every column id produced anywhere inside an operator subtree.
void CollectProducedIds(const xtra::Op& op, std::unordered_set<int>* out) {
  for (const auto& c : op.output) out->insert(c.id);
  for (const auto& p : op.projections) out->insert(p.out_id);
  for (const auto& w : op.windows) out->insert(w.out_id);
  for (const auto& a : op.aggregates) out->insert(a.out_id);
  for (int id : op.target_col_ids) out->insert(id);
  for (const auto& child : op.children) CollectProducedIds(*child, out);
  // Subplans inside expressions also produce ids usable only inside them,
  // but including them is harmless for the correlation check.
  xtra::VisitExprs(op, [&](const xtra::Expr& e) {
    if (e.subplan) CollectProducedIds(*e.subplan, out);
    return true;
  });
}

// Column ids referenced inside the subtree that are not produced by it.
std::vector<int> CollectOuterRefs(const xtra::Op& op) {
  std::unordered_set<int> produced;
  CollectProducedIds(op, &produced);
  std::unordered_set<int> outer;
  xtra::VisitExprs(op, [&](const xtra::Expr& e) {
    if (e.kind == xtra::ExprKind::kColRef && !produced.count(e.col_id)) {
      outer.insert(e.col_id);
    }
    return true;
  });
  return std::vector<int>(outer.begin(), outer.end());
}
}  // namespace

bool Executor::IsCorrelationFree(const xtra::Op& op) {
  return CollectOuterRefs(op).empty();
}

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

Result<Relation> Executor::Execute(const xtra::Op& op) { return Exec(op); }

Result<Relation> Executor::Exec(const Op& op) {
  // Inside a correlated subquery, a correlation-free subtree returns the
  // same relation on every re-execution: run it once and share its chunks.
  if (outer_.empty()) return ExecDispatch(op);
  auto hit = relation_cache_.find(&op);
  if (hit != relation_cache_.end()) return *hit->second;
  auto cf = correlation_free_.find(&op);
  bool free = cf != correlation_free_.end() ? cf->second
                                            : IsCorrelationFree(op);
  if (cf == correlation_free_.end()) correlation_free_[&op] = free;
  if (!free || op.kind == OpKind::kGet) return ExecDispatch(op);
  HQ_ASSIGN_OR_RETURN(Relation rel, ExecDispatch(op));
  auto shared = std::make_shared<Relation>(std::move(rel));
  relation_cache_[&op] = shared;
  return *shared;
}

Result<Relation> Executor::ExecDispatch(const Op& op) {
  switch (op.kind) {
    case OpKind::kGet:
      return ExecGet(op);
    case OpKind::kValues:
      return ExecValues(op);
    case OpKind::kSelect:
      return ExecSelect(op);
    case OpKind::kProject:
      return ExecProject(op);
    case OpKind::kWindow:
      return ExecWindow(op);
    case OpKind::kAggregate:
      return ExecAggregate(op);
    case OpKind::kJoin:
      return ExecJoin(op);
    case OpKind::kSetOp:
      return ExecSetOp(op);
    case OpKind::kSort:
      return ExecSort(op);
    case OpKind::kLimit:
      return ExecLimit(op);
    case OpKind::kCteRef:
    case OpKind::kRecursiveCte:
      return Status::NotSupported(
          "vdb does not support recursive queries natively");
    case OpKind::kInsert:
    case OpKind::kUpdate:
    case OpKind::kDelete:
      return Status::Internal("DML plan passed to query executor");
  }
  return Status::Internal("unknown operator kind");
}

namespace {
Status CheckTableArity(const Table& table, const Op& get) {
  if (table.columns.size() == get.output.size()) return Status::OK();
  return Status::ExecutionError("table '", get.table_name, "' has ",
                                table.columns.size(),
                                " columns but the plan expects ",
                                get.output.size());
}

const std::map<int, int> kEmptyLayout;
const Row kEmptyRow;
}  // namespace

Result<Relation> Executor::ExecGet(const Op& op) {
  HQ_ASSIGN_OR_RETURN(const Table* table, storage_->GetTable(op.table_name));
  HQ_RETURN_IF_ERROR(CheckTableArity(*table, op));
  Relation rel;
  rel.cols = op.output;
  rel.BuildLayout();
  // Zero-copy scan: share the table's batch.
  rel.chunks = {table->data};
  return rel;
}

Result<Relation> Executor::ExecValues(const Op& op) {
  Relation rel;
  rel.cols = op.output;
  rel.BuildLayout();
  std::vector<SqlType> types;
  types.reserve(rel.cols.size());
  for (const auto& c : rel.cols) types.push_back(c.type);
  BatchBuilder builder(types);
  Row out;
  for (const auto& row : op.rows) {
    out.clear();
    for (const auto& e : row) {
      HQ_ASSIGN_OR_RETURN(Datum v, EvalExpr(*e, kEmptyLayout, kEmptyRow));
      out.push_back(std::move(v));
    }
    HQ_RETURN_IF_ERROR(builder.AppendRow(out));
  }
  rel.chunks = {builder.Finish()};
  return rel;
}

Result<bool> Executor::ProbeSelectIndex(const Op& op, Relation* out) {
  if (outer_.empty() || op.children[0]->kind != OpKind::kGet ||
      op.predicate == nullptr) {
    return false;
  }
  const Op& get_op = *op.children[0];
  auto it = select_indexes_.find(&op);
  if (it == select_indexes_.end()) {
    auto idx = std::make_unique<SelectIndex>();
    HQ_ASSIGN_OR_RETURN(const Table* table,
                        storage_->GetTable(get_op.table_name));
    HQ_RETURN_IF_ERROR(CheckTableArity(*table, get_op));
    std::map<int, int> layout;
    for (size_t i = 0; i < get_op.output.size(); ++i) {
      layout[get_op.output[i].id] = static_cast<int>(i);
    }
    std::vector<const Expr*> conjuncts;
    exec::SplitConjuncts(op.predicate.get(), &conjuncts);
    for (const Expr* c : conjuncts) {
      if (c->kind != ExprKind::kComp || c->comp != xtra::CompKind::kEq) {
        continue;
      }
      for (int side = 0; side < 2 && idx->key_slot < 0; ++side) {
        const Expr& a = *c->children[side];
        const Expr& b = *c->children[1 - side];
        if (a.kind != ExprKind::kColRef) continue;
        auto slot = layout.find(a.col_id);
        if (slot == layout.end()) continue;
        bool any_ref = false;
        bool outer_only = exec::ExprRefsOnly(
            b, [&](int id) { return !layout.count(id); }, &any_ref);
        if (outer_only && any_ref) {
          idx->key_slot = slot->second;
          idx->outer_key = &b;
        }
      }
      if (idx->key_slot >= 0) break;
    }
    if (idx->key_slot >= 0) {
      idx->data = table->data;
      const ColumnVec& keys = *idx->data->columns[idx->key_slot];
      for (size_t r = 0; r < keys.size; ++r) {
        if (!keys.IsNull(r)) {
          idx->buckets[keys.GetDatum(r)].push_back(static_cast<uint32_t>(r));
        }
      }
    }
    it = select_indexes_.emplace(&op, std::move(idx)).first;
  }
  const SelectIndex& idx = *it->second;
  if (idx.key_slot < 0) return false;
  out->cols = get_op.output;
  out->BuildLayout();
  out->chunks.clear();
  HQ_ASSIGN_OR_RETURN(Datum key,
                      EvalExpr(*idx.outer_key, kEmptyLayout, kEmptyRow));
  if (key.is_null()) return true;
  auto bucket = idx.buckets.find(key);
  if (bucket != idx.buckets.end()) {
    out->chunks.push_back(GatherBatch(*idx.data, bucket->second));
  }
  return true;
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

Result<int64_t> Executor::ExecuteDml(const Op& op) {
  HQ_ASSIGN_OR_RETURN(Table* table, storage_->GetTable(op.target_table));
  switch (op.kind) {
    case OpKind::kInsert: {
      HQ_ASSIGN_OR_RETURN(Relation src, Exec(*op.children[0]));
      // Map insert columns to table slots.
      std::vector<int> slots;
      if (op.target_columns.empty()) {
        for (size_t i = 0; i < table->columns.size(); ++i) {
          slots.push_back(static_cast<int>(i));
        }
      } else {
        for (const auto& name : op.target_columns) {
          int idx = table->FindColumn(name);
          if (idx < 0) {
            return Status::ExecutionError("column '", name,
                                          "' does not exist in table '",
                                          op.target_table, "'");
          }
          slots.push_back(idx);
        }
      }
      const size_t n = src.RowCount();
      if (n > 0 && src.cols.size() != slots.size()) {
        return Status::ExecutionError("INSERT source arity mismatch");
      }
      // The statement's rows are built, cast and checked in full before
      // the table changes: a failing row leaves it untouched.
      BatchBuilder rows(table->ColumnTypes());
      rows.Reserve(n);
      Row in;
      Row out;
      for (const auto& chunk : src.chunks) {
        for (size_t r = 0; r < chunk->rows; ++r) {
          chunk->FillRow(r, &in);
          out.assign(table->columns.size(), Datum::Null());
          for (size_t i = 0; i < slots.size(); ++i) {
            HQ_ASSIGN_OR_RETURN(Datum v,
                                in[i].CastTo(table->columns[slots[i]].type));
            out[slots[i]] = std::move(v);
          }
          for (size_t i = 0; i < table->columns.size(); ++i) {
            if (table->columns[i].not_null && out[i].is_null()) {
              return Status::ExecutionError("NULL value in NOT NULL column '",
                                            table->columns[i].name, "'");
            }
          }
          HQ_RETURN_IF_ERROR(rows.AppendRow(out));
        }
      }
      table->Append(rows.Finish());
      return static_cast<int64_t>(n);
    }
    case OpKind::kUpdate:
      return ExecUpdate(op, table);
    case OpKind::kDelete:
      return ExecDelete(op, table);
    default:
      return Status::Internal("not a DML operator");
  }
}

// ---------------------------------------------------------------------------
// Scalar evaluation
// ---------------------------------------------------------------------------

Result<Datum> Executor::EvalExpr(const Expr& e,
                                 const std::map<int, int>& layout,
                                 const Row& row) {
  switch (e.kind) {
    case ExprKind::kColRef: {
      auto it = layout.find(e.col_id);
      if (it != layout.end()) return row[it->second];
      // Correlated reference: walk outer scopes innermost-first.
      for (auto rit = outer_.rbegin(); rit != outer_.rend(); ++rit) {
        auto oit = rit->layout->find(e.col_id);
        if (oit != rit->layout->end()) return (*rit->row)[oit->second];
      }
      return Status::ExecutionError("unresolved column id ", e.col_id, " ('",
                                    e.col_name, "') at execution");
    }
    case ExprKind::kConst:
      return e.value;
    case ExprKind::kArith:
      return EvalArith(e, layout, row);
    case ExprKind::kComp: {
      HQ_ASSIGN_OR_RETURN(Datum l, EvalExpr(*e.children[0], layout, row));
      HQ_ASSIGN_OR_RETURN(Datum r, EvalExpr(*e.children[1], layout, row));
      if (l.is_null() || r.is_null()) return Datum::Null();
      HQ_ASSIGN_OR_RETURN(int c, Datum::Compare(l, r));
      switch (e.comp) {
        case xtra::CompKind::kEq:
          return Datum::Bool(c == 0);
        case xtra::CompKind::kNe:
          return Datum::Bool(c != 0);
        case xtra::CompKind::kLt:
          return Datum::Bool(c < 0);
        case xtra::CompKind::kLe:
          return Datum::Bool(c <= 0);
        case xtra::CompKind::kGt:
          return Datum::Bool(c > 0);
        case xtra::CompKind::kGe:
          return Datum::Bool(c >= 0);
      }
      return Status::Internal("bad comparison");
    }
    case ExprKind::kBool: {
      // Kleene three-valued AND/OR.
      bool saw_null = false;
      bool is_and = e.boolk == xtra::BoolKind::kAnd;
      for (const auto& c : e.children) {
        HQ_ASSIGN_OR_RETURN(Datum v, EvalExpr(*c, layout, row));
        if (v.is_null()) {
          saw_null = true;
          continue;
        }
        bool b = v.bool_val();
        if (is_and && !b) return Datum::Bool(false);
        if (!is_and && b) return Datum::Bool(true);
      }
      if (saw_null) return Datum::Null();
      return Datum::Bool(is_and);
    }
    case ExprKind::kNot: {
      HQ_ASSIGN_OR_RETURN(Datum v, EvalExpr(*e.children[0], layout, row));
      if (v.is_null()) return Datum::Null();
      return Datum::Bool(!v.bool_val());
    }
    case ExprKind::kFunc:
      return EvalFunc(e, layout, row);
    case ExprKind::kAgg:
      return Status::ExecutionError(
          "aggregate evaluated outside an Aggregate operator");
    case ExprKind::kCast: {
      HQ_ASSIGN_OR_RETURN(Datum v, EvalExpr(*e.children[0], layout, row));
      return v.CastTo(e.type);
    }
    case ExprKind::kCase: {
      for (const auto& [w, t] : e.when_then) {
        HQ_ASSIGN_OR_RETURN(Datum cond, EvalExpr(*w, layout, row));
        if (!cond.is_null() && cond.is_bool() && cond.bool_val()) {
          return EvalExpr(*t, layout, row);
        }
      }
      if (e.else_expr) return EvalExpr(*e.else_expr, layout, row);
      return Datum::Null();
    }
    case ExprKind::kIsNull: {
      HQ_ASSIGN_OR_RETURN(Datum v, EvalExpr(*e.children[0], layout, row));
      return Datum::Bool(e.negated ? !v.is_null() : v.is_null());
    }
    case ExprKind::kLike: {
      HQ_ASSIGN_OR_RETURN(Datum v, EvalExpr(*e.children[0], layout, row));
      HQ_ASSIGN_OR_RETURN(Datum p, EvalExpr(*e.children[1], layout, row));
      if (v.is_null() || p.is_null()) return Datum::Null();
      char escape = '\0';
      bool has_escape = false;
      if (e.children.size() > 2) {
        HQ_ASSIGN_OR_RETURN(Datum esc, EvalExpr(*e.children[2], layout, row));
        if (!esc.is_null() && !esc.string_val().empty()) {
          escape = esc.string_val()[0];
          has_escape = true;
        }
      }
      bool m = LikeMatch(v.string_val(), p.string_val(), escape, has_escape);
      return Datum::Bool(e.negated ? !m : m);
    }
    case ExprKind::kInList: {
      HQ_ASSIGN_OR_RETURN(Datum v, EvalExpr(*e.children[0], layout, row));
      if (v.is_null()) return Datum::Null();
      bool saw_null = false;
      for (size_t i = 1; i < e.children.size(); ++i) {
        HQ_ASSIGN_OR_RETURN(Datum item, EvalExpr(*e.children[i], layout, row));
        if (item.is_null()) {
          saw_null = true;
          continue;
        }
        HQ_ASSIGN_OR_RETURN(int c, Datum::Compare(v, item));
        if (c == 0) return Datum::Bool(!e.negated);
      }
      if (saw_null) return Datum::Null();
      return Datum::Bool(e.negated);
    }
    case ExprKind::kExtract: {
      HQ_ASSIGN_OR_RETURN(Datum v, EvalExpr(*e.children[0], layout, row));
      if (v.is_null()) return Datum::Null();
      int32_t days;
      int64_t micros_of_day = 0;
      if (v.is_date()) {
        days = v.date_val();
      } else if (v.is_timestamp()) {
        int64_t micros = v.timestamp_val();
        days = static_cast<int32_t>(micros / 86400000000LL);
        micros_of_day = micros % 86400000000LL;
        if (micros_of_day < 0) {
          micros_of_day += 86400000000LL;
          --days;
        }
      } else if (v.is_time()) {
        days = 0;
        micros_of_day = v.time_val();
      } else {
        return Status::ExecutionError("EXTRACT from non-temporal value");
      }
      const std::string& f = e.func_name;
      if (f == "YEAR") return Datum::Int(ExtractYear(days));
      if (f == "MONTH") return Datum::Int(ExtractMonth(days));
      if (f == "DAY") return Datum::Int(ExtractDay(days));
      if (f == "HOUR") return Datum::Int(micros_of_day / 3600000000LL);
      if (f == "MINUTE") return Datum::Int((micros_of_day / 60000000LL) % 60);
      if (f == "SECOND") return Datum::Int((micros_of_day / 1000000LL) % 60);
      return Status::ExecutionError("unknown EXTRACT field ", f);
    }
    case ExprKind::kSubqScalar:
    case ExprKind::kSubqExists:
    case ExprKind::kSubqIn:
    case ExprKind::kSubqQuantified:
      return EvalSubquery(e, layout, row);
  }
  return Status::Internal("unhandled expression kind at execution");
}

Result<Datum> Executor::EvalArith(const Expr& e,
                                  const std::map<int, int>& layout,
                                  const Row& row) {
  HQ_ASSIGN_OR_RETURN(Datum l, EvalExpr(*e.children[0], layout, row));
  HQ_ASSIGN_OR_RETURN(Datum r, EvalExpr(*e.children[1], layout, row));
  if (l.is_null() || r.is_null()) return Datum::Null();
  return exec::ArithValues(e.arith, l, r);
}

Result<Datum> Executor::EvalFunc(const Expr& e,
                                 const std::map<int, int>& layout,
                                 const Row& row) {
  const std::string& f = e.func_name;
  std::vector<Datum> args;
  for (const auto& c : e.children) {
    HQ_ASSIGN_OR_RETURN(Datum v, EvalExpr(*c, layout, row));
    args.push_back(std::move(v));
  }
  auto null_if_any_null = [&]() {
    for (const auto& a : args) {
      if (a.is_null()) return true;
    }
    return false;
  };

  if (f == "COALESCE") {
    for (const auto& a : args) {
      if (!a.is_null()) return a;
    }
    return Datum::Null();
  }
  if (f == "NULLIF") {
    if (args[0].is_null()) return Datum::Null();
    if (args[1].is_null()) return args[0];
    HQ_ASSIGN_OR_RETURN(int c, Datum::Compare(args[0], args[1]));
    return c == 0 ? Datum::Null() : args[0];
  }
  if (f == "CURRENT_DATE") {
    return Datum::Date(19000);  // deterministic "today" (2022-01-08)
  }
  if (f == "CURRENT_TIME") return Datum::Time(43200000000LL);
  if (f == "CURRENT_TIMESTAMP") {
    return Datum::Timestamp(19000LL * 86400000000LL + 43200000000LL);
  }
  if (null_if_any_null()) return Datum::Null();

  if (f == "LENGTH") {
    HQ_ASSIGN_OR_RETURN(Datum s, args[0].CastTo(SqlType::Varchar(0)));
    // CHAR semantics: trailing blanks do not count.
    const std::string& str = s.string_val();
    size_t end = str.size();
    while (end > 0 && str[end - 1] == ' ') --end;
    return Datum::Int(static_cast<int64_t>(end));
  }
  if (f == "UPPER") return Datum::String(ToUpper(args[0].string_val()));
  if (f == "LOWER") return Datum::String(ToLower(args[0].string_val()));
  if (f == "TRIM" || f == "LTRIM" || f == "RTRIM") {
    std::string chars = args.size() > 1 ? args[1].string_val() : " ";
    std::string s = args[0].string_val();
    auto in_set = [&](char c) { return chars.find(c) != std::string::npos; };
    size_t b = 0, e2 = s.size();
    if (f != "RTRIM") {
      while (b < e2 && in_set(s[b])) ++b;
    }
    if (f != "LTRIM") {
      while (e2 > b && in_set(s[e2 - 1])) --e2;
    }
    return Datum::String(s.substr(b, e2 - b));
  }
  if (f == "SUBSTR") {
    const std::string& s = args[0].string_val();
    int64_t start = args[1].AsInt();
    int64_t len = args.size() > 2 ? args[2].AsInt()
                                  : static_cast<int64_t>(s.size()) + 1;
    // SQL 1-based positions; nonpositive start extends the window left.
    int64_t begin = start - 1;
    int64_t end = begin + len;
    if (begin < 0) begin = 0;
    if (end < begin) end = begin;
    if (begin >= static_cast<int64_t>(s.size())) return Datum::String("");
    if (end > static_cast<int64_t>(s.size())) {
      end = static_cast<int64_t>(s.size());
    }
    return Datum::String(s.substr(begin, end - begin));
  }
  if (f == "POSITION") {
    auto pos = args[1].string_val().find(args[0].string_val());
    return Datum::Int(pos == std::string::npos
                          ? 0
                          : static_cast<int64_t>(pos) + 1);
  }
  if (f == "ABS") {
    if (args[0].is_int()) return Datum::Int(std::llabs(args[0].int_val()));
    if (args[0].is_decimal()) {
      Decimal d = args[0].decimal_val();
      d.value = d.value < 0 ? -d.value : d.value;
      return Datum::MakeDecimal(d);
    }
    return Datum::MakeDouble(std::fabs(args[0].AsDouble()));
  }
  if (f == "$NEG") {
    if (args[0].is_int()) return Datum::Int(-args[0].int_val());
    if (args[0].is_decimal()) {
      Decimal d = args[0].decimal_val();
      d.value = -d.value;
      return Datum::MakeDecimal(d);
    }
    if (args[0].is_interval()) return Datum::Interval(-args[0].interval_val());
    return Datum::MakeDouble(-args[0].AsDouble());
  }
  if (f == "ROUND") {
    double scale = args.size() > 1 ? Pow10(static_cast<int32_t>(
                                         args[1].AsInt()))
                                   : 1;
    return Datum::MakeDouble(std::round(args[0].AsDouble() * scale) / scale);
  }
  if (f == "FLOOR") return Datum::MakeDouble(std::floor(args[0].AsDouble()));
  if (f == "CEIL") return Datum::MakeDouble(std::ceil(args[0].AsDouble()));
  if (f == "SQRT") return Datum::MakeDouble(std::sqrt(args[0].AsDouble()));
  if (f == "EXP") return Datum::MakeDouble(std::exp(args[0].AsDouble()));
  if (f == "LN") {
    if (args[0].AsDouble() <= 0) {
      return Status::ExecutionError("LN of non-positive value");
    }
    return Datum::MakeDouble(std::log(args[0].AsDouble()));
  }
  if (f == "MOD") {
    int64_t b = args[1].AsInt();
    if (b == 0) return Status::ExecutionError("MOD by zero");
    return Datum::Int(args[0].AsInt() % b);
  }
  if (f == "ADD_MONTHS") {
    HQ_ASSIGN_OR_RETURN(Datum d, args[0].CastTo(SqlType::Date()));
    return Datum::Date(AddMonths(d.date_val(),
                                 static_cast<int>(args[1].AsInt())));
  }
  if (f == "DATE_ADD_DAYS") {
    HQ_ASSIGN_OR_RETURN(Datum d, args[0].CastTo(SqlType::Date()));
    return Datum::Date(d.date_val() + static_cast<int32_t>(args[1].AsInt()));
  }
  if (f == "TO_DATE") return args[0].CastTo(SqlType::Date());
  if (f == "TO_TIMESTAMP") return args[0].CastTo(SqlType::Timestamp());
  if (f == "DATE_DIFF_DAYS") {
    HQ_ASSIGN_OR_RETURN(Datum a, args[0].CastTo(SqlType::Date()));
    HQ_ASSIGN_OR_RETURN(Datum b, args[1].CastTo(SqlType::Date()));
    return Datum::Int(static_cast<int64_t>(a.date_val()) - b.date_val());
  }
  if (f == "USER") return Datum::String("vdb");
  if (f == "DATABASE" || f == "SESSION") return Datum::String("vdb");
  return Status::ExecutionError("vdb: unknown function '", f, "'");
}

Result<Datum> Executor::EvalSubquery(const Expr& e,
                                     const std::map<int, int>& layout,
                                     const Row& row) {
  // Memoize by the outer values the subquery actually reads (plus the row
  // expressions on the comparison side): correlated subqueries typically
  // repeat a small set of keys across many outer rows.
  auto info_it = subq_info_.find(&e);
  if (info_it == subq_info_.end()) {
    auto info = std::make_unique<SubqInfo>();
    info->outer_ids = CollectOuterRefs(*e.subplan);
    std::sort(info->outer_ids.begin(), info->outer_ids.end());
    info_it = subq_info_.emplace(&e, std::move(info)).first;
  }
  SubqInfo& info = *info_it->second;
  std::vector<Datum> outer_key;
  bool memoizable = true;
  for (int id : info.outer_ids) {
    auto v = ResolveColRef(id, layout, row, "");
    if (!v.ok()) {
      memoizable = false;
      break;
    }
    outer_key.push_back(std::move(v).value());
  }
  std::vector<Datum> memo_key;
  if (memoizable) {
    memo_key = outer_key;
    for (const auto& c : e.children) {
      auto v = EvalExpr(*c, layout, row);
      if (!v.ok()) {
        memoizable = false;
        break;
      }
      memo_key.push_back(std::move(v).value());
    }
  }
  if (memoizable) {
    auto hit = info.memo.find(memo_key);
    if (hit != info.memo.end()) return hit->second;
  }
  Datum result;
  if (memoizable) {
    // The subplan's result depends only on the outer values, so distinct
    // probe values (IN / quantified comparisons) share one execution.
    auto prep_it = info.rel_memo.find(outer_key);
    if (prep_it == info.rel_memo.end()) {
      HQ_ASSIGN_OR_RETURN(
          PreparedSubq prep,
          PrepareSubquery(e, layout, row, /*build_index=*/true));
      prep_it =
          info.rel_memo.emplace(std::move(outer_key), std::move(prep)).first;
    }
    HQ_ASSIGN_OR_RETURN(
        result, EvalSubqueryOverPrepared(e, prep_it->second, layout, row));
  } else {
    HQ_ASSIGN_OR_RETURN(result, EvalSubqueryUncached(e, layout, row));
  }
  if (memoizable) info.memo.emplace(std::move(memo_key), result);
  return result;
}

Result<Datum> Executor::ResolveColRef(int col_id,
                                      const std::map<int, int>& layout,
                                      const Row& row,
                                      const std::string& name) {
  auto it = layout.find(col_id);
  if (it != layout.end()) return row[it->second];
  for (auto rit = outer_.rbegin(); rit != outer_.rend(); ++rit) {
    auto oit = rit->layout->find(col_id);
    if (oit != rit->layout->end()) return (*rit->row)[oit->second];
  }
  return Status::ExecutionError("unresolved column id ", col_id, " ('", name,
                                "') at execution");
}

Result<Datum> Executor::EvalSubqueryUncached(const Expr& e,
                                             const std::map<int, int>& layout,
                                             const Row& row) {
  HQ_ASSIGN_OR_RETURN(PreparedSubq prep,
                      PrepareSubquery(e, layout, row, /*build_index=*/false));
  return EvalSubqueryOverPrepared(e, prep, layout, row);
}

Result<Executor::PreparedSubq> Executor::PrepareSubquery(
    const Expr& e, const std::map<int, int>& layout, const Row& row,
    bool build_index) {
  outer_.push_back({&layout, &row});
  auto result = Exec(*e.subplan);
  outer_.pop_back();
  HQ_RETURN_IF_ERROR(result.status());

  PreparedSubq prep;
  prep.batch = result->SingleChunk();
  prep.exists = prep.batch->rows > 0;
  if (build_index && e.kind == ExprKind::kSubqIn) {
    const ColumnVec& first = *prep.batch->columns[0];
    std::vector<Datum> values;
    values.reserve(first.size);
    bool all_i64 = true, all_str = true;
    for (size_t r = 0; r < first.size; ++r) {
      if (first.IsNull(r)) {
        prep.saw_null = true;
        continue;
      }
      values.push_back(first.GetDatum(r));
      all_i64 = all_i64 && values.back().is_int();
      all_str = all_str && values.back().is_string();
    }
    if (all_i64) {
      prep.index = PreparedSubq::Index::kI64;
      for (const Datum& v : values) prep.i64s.insert(v.int_val());
    } else if (all_str) {
      prep.index = PreparedSubq::Index::kStr;
      for (const Datum& v : values) prep.strs.insert(v.string_val());
    }
  }
  return prep;
}

Result<Datum> Executor::EvalSubqueryOverPrepared(
    const Expr& e, const PreparedSubq& prep, const std::map<int, int>& layout,
    const Row& row) {
  const ColumnBatch& result = *prep.batch;
  switch (e.kind) {
    case ExprKind::kSubqScalar: {
      if (result.rows == 0) return Datum::Null();
      if (result.rows > 1) {
        return Status::ExecutionError(
            "scalar subquery returned more than one row");
      }
      return result.columns[0]->GetDatum(0);
    }
    case ExprKind::kSubqExists: {
      return Datum::Bool(e.negated ? !prep.exists : prep.exists);
    }
    case ExprKind::kSubqIn: {
      HQ_ASSIGN_OR_RETURN(Datum v, EvalExpr(*e.children[0], layout, row));
      if (v.is_null()) return Datum::Null();
      if (prep.index == PreparedSubq::Index::kI64 && v.is_int()) {
        if (prep.i64s.count(v.int_val()) > 0) return Datum::Bool(!e.negated);
        if (prep.saw_null) return Datum::Null();
        return Datum::Bool(e.negated);
      }
      if (prep.index == PreparedSubq::Index::kStr && v.is_string()) {
        if (prep.strs.count(v.string_val()) > 0) {
          return Datum::Bool(!e.negated);
        }
        if (prep.saw_null) return Datum::Null();
        return Datum::Bool(e.negated);
      }
      bool saw_null = false;
      const ColumnVec& first = *result.columns[0];
      for (size_t r = 0; r < first.size; ++r) {
        if (first.IsNull(r)) {
          saw_null = true;
          continue;
        }
        HQ_ASSIGN_OR_RETURN(int c, Datum::Compare(v, first.GetDatum(r)));
        if (c == 0) return Datum::Bool(!e.negated);
      }
      if (saw_null) return Datum::Null();
      return Datum::Bool(e.negated);
    }
    case ExprKind::kSubqQuantified: {
      // Scalar ANY/ALL (vector comparisons were rewritten upstream; vdb
      // evaluates them anyway for completeness using lexicographic order).
      std::vector<Datum> vals;
      for (const auto& c : e.children) {
        HQ_ASSIGN_OR_RETURN(Datum v, EvalExpr(*c, layout, row));
        vals.push_back(std::move(v));
      }
      bool is_any = e.quantifier == xtra::Quantifier::kAny;
      bool saw_null = false;
      bool any_true = false, all_true = true;
      for (size_t r = 0; r < result.rows; ++r) {
        bool row_null = false;
        int cmp = 0;
        for (size_t i = 0; i < vals.size(); ++i) {
          const ColumnVec& col = *result.columns[i];
          if (vals[i].is_null() || col.IsNull(r)) {
            row_null = true;
            break;
          }
          HQ_ASSIGN_OR_RETURN(int c, Datum::Compare(vals[i], col.GetDatum(r)));
          if (c != 0) {
            cmp = c;
            break;
          }
        }
        if (row_null) {
          saw_null = true;
          continue;
        }
        bool ok;
        switch (e.quant_cmp) {
          case xtra::CompKind::kEq:
            ok = cmp == 0;
            break;
          case xtra::CompKind::kNe:
            ok = cmp != 0;
            break;
          case xtra::CompKind::kLt:
            ok = cmp < 0;
            break;
          case xtra::CompKind::kLe:
            ok = cmp <= 0;
            break;
          case xtra::CompKind::kGt:
            ok = cmp > 0;
            break;
          default:
            ok = cmp >= 0;
            break;
        }
        any_true |= ok;
        all_true &= ok;
      }
      if (is_any) {
        if (any_true) return Datum::Bool(true);
        if (saw_null) return Datum::Null();
        return Datum::Bool(false);
      }
      if (result.rows == 0) return Datum::Bool(true);
      if (!all_true) return Datum::Bool(false);
      if (saw_null) return Datum::Null();
      return Datum::Bool(true);
    }
    default:
      return Status::Internal("not a subquery expression");
  }
}

}  // namespace hyperq::vdb
