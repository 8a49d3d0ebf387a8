#include "serializer/serializer.h"

#include <algorithm>
#include <charconv>

namespace hyperq::serializer {

using xtra::ColumnInfo;
using xtra::Expr;
using xtra::ExprKind;
using xtra::Op;
using xtra::OpKind;

Serializer::Serializer(const transform::BackendProfile& profile)
    : profile_(profile) {
  dialect_ = FindDialect(profile.dialect);
  if (dialect_ == nullptr) dialect_ = &DefaultDialect();
}

const std::string* Serializer::NameMap::Find(int id) const {
  for (const NameMap* m = this; m != nullptr; m = m->outer_) {
    for (auto it = m->own_.rbegin(); it != m->own_.rend(); ++it) {
      if (it->first == id) return &it->second;
    }
  }
  return nullptr;
}

std::string Serializer::QuoteIdent(const std::string& name,
                                   RenderState* state) const {
  std::string quoted = dialect_->QuoteIdent(name);
  // Catalog names reach SQL-B without passing through SQL-A, so a marker
  // byte in one is only seen here.
  if (state->mark_literals &&
      quoted.find_first_of(kSiteMarkerBytes) != std::string::npos) {
    state->marker_clash = true;
  }
  return quoted;
}

namespace {
// Appends `text`, built from the SQL-A literal at `literal_offset`,
// bracketed so Serialize() can report where it landed.
void AppendMarked(int literal_offset, const std::string& text,
                  std::string* out) {
  char digits[16];
  auto tag = std::to_chars(digits, digits + sizeof(digits), literal_offset);
  *out += kSiteOpen;
  out->append(digits, tag.ptr);
  *out += kSiteOpen;
  *out += text;
  *out += kSiteClose;
}

// Removes the markers from `*text` in place (the text only shrinks),
// recording each marked range. Returns false on a malformed or nested
// marker, or a tag of more than nine digits; `*text` is then garbage.
bool StripSiteMarkers(std::string* text, std::vector<LiteralSite>* sites) {
  std::string& s = *text;
  size_t written = 0;
  bool open = false;
  LiteralSite site;
  size_t pos = 0;
  while (true) {
    size_t hit = s.find_first_of(kSiteMarkerBytes, pos);
    size_t run_end = hit == std::string::npos ? s.size() : hit;
    if (written != pos) {
      std::copy(s.begin() + pos, s.begin() + run_end, s.begin() + written);
    }
    written += run_end - pos;
    if (hit == std::string::npos) {
      s.resize(written);
      return !open;
    }
    if (s[hit] == kSiteClose) {
      if (!open) return false;
      site.end = written;
      sites->push_back(site);
      open = false;
      pos = hit + 1;
      continue;
    }
    size_t digits_end = s.find(kSiteOpen, hit + 1);
    if (open || digits_end == std::string::npos || digits_end == hit + 1 ||
        digits_end - hit > 10) {
      return false;
    }
    site.literal_offset = 0;
    for (size_t k = hit + 1; k < digits_end; ++k) {
      if (s[k] < '0' || s[k] > '9') return false;
      site.literal_offset = site.literal_offset * 10 + (s[k] - '0');
    }
    site.begin = written;
    open = true;
    pos = digits_end + 1;
  }
}

// Appends ", " before every list element but the first.
void Separate(size_t i, std::string* out) {
  if (i > 0) *out += ", ";
}
}  // namespace

void Serializer::RenderRowLimit(const Op& limit, RenderState* state,
                                std::string* out) const {
  std::string clause = dialect_->RowLimitClause(limit.limit_count);
  if (!state->mark_literals || limit.limit_offset < 0) {
    *out += clause;
  } else {
    AppendMarked(limit.limit_offset, clause, out);
  }
}

Status Serializer::RenderAggCall(const std::string& func, bool distinct,
                                 const Expr* arg, const NameMap& scope,
                                 RenderState* state, std::string* out) const {
  *out += func;
  *out += '(';
  if (distinct) *out += "DISTINCT ";
  if (arg != nullptr) {
    HQ_RETURN_IF_ERROR(RenderExpr(*arg, scope, state, out));
  } else {
    *out += '*';
  }
  *out += ')';
  return Status::OK();
}

Status Serializer::RenderWindowCall(const xtra::WindowItem& item,
                                    const NameMap& scope, RenderState* state,
                                    std::string* out) const {
  *out += item.func;
  *out += '(';
  for (size_t i = 0; i < item.args.size(); ++i) {
    Separate(i, out);
    HQ_RETURN_IF_ERROR(RenderExpr(*item.args[i], scope, state, out));
  }
  if (item.args.empty() && item.func == "COUNT") *out += '*';
  *out += ") OVER (";
  bool need_space = false;
  if (!item.partition_by.empty()) {
    *out += "PARTITION BY ";
    for (size_t i = 0; i < item.partition_by.size(); ++i) {
      Separate(i, out);
      HQ_RETURN_IF_ERROR(RenderExpr(*item.partition_by[i], scope, state, out));
    }
    need_space = true;
  }
  if (!item.order_by.empty()) {
    if (need_space) *out += ' ';
    *out += "ORDER BY ";
    for (size_t i = 0; i < item.order_by.size(); ++i) {
      Separate(i, out);
      HQ_RETURN_IF_ERROR(RenderExpr(*item.order_by[i].expr, scope, state, out));
      if (item.order_by[i].descending) *out += " DESC";
      if (item.order_by[i].nulls_first.has_value()) {
        *out += *item.order_by[i].nulls_first ? " NULLS FIRST" : " NULLS LAST";
      }
    }
  }
  *out += ')';
  return Status::OK();
}

Status Serializer::RenderExpr(const Expr& e, const NameMap& scope,
                              RenderState* state, std::string* out) const {
  // `open c<first> sep c<first+1> ... close`.
  auto list = [&](size_t first, const char* open, const char* sep,
                  const char* close) -> Status {
    *out += open;
    for (size_t i = first; i < e.children.size(); ++i) {
      if (i > first) *out += sep;
      HQ_RETURN_IF_ERROR(RenderExpr(*e.children[i], scope, state, out));
    }
    *out += close;
    return Status::OK();
  };
  // `open c0 close`.
  auto wrap = [&](const char* open, const char* close) -> Status {
    *out += open;
    HQ_RETURN_IF_ERROR(RenderExpr(*e.children[0], scope, state, out));
    *out += close;
    return Status::OK();
  };
  // `(c0 op c1)`.
  auto infix = [&](const char* op) -> Status {
    *out += '(';
    HQ_RETURN_IF_ERROR(RenderExpr(*e.children[0], scope, state, out));
    *out += ' ';
    *out += op;
    *out += ' ';
    HQ_RETURN_IF_ERROR(RenderExpr(*e.children[1], scope, state, out));
    *out += ')';
    return Status::OK();
  };
  switch (e.kind) {
    case ExprKind::kColRef: {
      if (e.type.kind == TypeKind::kPeriodDate) {
        return Status::NotSupported(
            "PERIOD column '", e.col_name,
            "' must be accessed via BEGIN()/END(); the target stores it as "
            "two DATE columns");
      }
      if (const std::string* text = scope.Find(e.col_id)) {
        *out += *text;
        return Status::OK();
      }
      // Fallback for DML scopes (UPDATE/DELETE): bare column name.
      if (!e.col_name.empty()) {
        *out += QuoteIdent(e.col_name.substr(e.col_name.rfind('.') + 1),
                           state);
        return Status::OK();
      }
      return Status::Internal("serializer: unresolved column id ", e.col_id);
    }
    case ExprKind::kConst: {
      std::string lit = dialect_->RenderLiteral(e.value);
      if (state->mark_literals &&
          lit.find_first_of(kSiteMarkerBytes) != std::string::npos) {
        state->marker_clash = true;
      } else if (state->mark_literals && e.literal_offset >= 0) {
        AppendMarked(e.literal_offset, lit, out);
        return Status::OK();
      }
      *out += lit;
      return Status::OK();
    }
    case ExprKind::kArith:
      if (e.arith == xtra::ArithKind::kMod) return list(0, "MOD(", ", ", ")");
      return infix(ArithKindName(e.arith));
    case ExprKind::kComp:
      return infix(CompKindSql(e.comp));
    case ExprKind::kBool:
      return list(0, "(",
                  e.boolk == xtra::BoolKind::kAnd ? " AND " : " OR ", ")");
    case ExprKind::kNot:
      return wrap("(NOT ", ")");
    case ExprKind::kFunc: {
      // PERIOD accessors address the expanded begin/end DATE columns.
      if ((e.func_name == "BEGIN" || e.func_name == "END") &&
          e.children.size() == 1 &&
          e.children[0]->kind == ExprKind::kColRef &&
          e.children[0]->type.kind == TypeKind::kPeriodDate) {
        const Expr& col = *e.children[0];
        if (const std::string* text = scope.Find(col.col_id)) {
          *out += *text;
        } else {
          *out += QuoteIdent(col.col_name.substr(col.col_name.rfind('.') + 1),
                             state);
        }
        *out += e.func_name == "BEGIN" ? "_BEGIN" : "_END";
        return Status::OK();
      }
      if (e.func_name == "$NEG") return wrap("(- ", ")");
      if (e.func_name == "CURRENT_DATE" || e.func_name == "CURRENT_TIME" ||
          e.func_name == "CURRENT_TIMESTAMP") {
        *out += e.func_name;
        return Status::OK();
      }
      *out += e.func_name;
      return list(0, "(", ", ", ")");
    }
    case ExprKind::kAgg:
      return RenderAggCall(e.func_name, e.distinct_arg,
                           e.children.empty() ? nullptr : e.children[0].get(),
                           scope, state, out);
    case ExprKind::kCast:
      *out += "CAST(";
      HQ_RETURN_IF_ERROR(RenderExpr(*e.children[0], scope, state, out));
      *out += " AS ";
      *out += e.type.ToString();
      *out += ')';
      return Status::OK();
    case ExprKind::kCase: {
      *out += "CASE";
      for (const auto& [w, t] : e.when_then) {
        *out += " WHEN ";
        HQ_RETURN_IF_ERROR(RenderExpr(*w, scope, state, out));
        *out += " THEN ";
        HQ_RETURN_IF_ERROR(RenderExpr(*t, scope, state, out));
      }
      if (e.else_expr) {
        *out += " ELSE ";
        HQ_RETURN_IF_ERROR(RenderExpr(*e.else_expr, scope, state, out));
      }
      *out += " END";
      return Status::OK();
    }
    case ExprKind::kIsNull:
      return wrap("(", e.negated ? " IS NOT NULL)" : " IS NULL)");
    case ExprKind::kLike:
      *out += '(';
      HQ_RETURN_IF_ERROR(RenderExpr(*e.children[0], scope, state, out));
      *out += e.negated ? " NOT LIKE " : " LIKE ";
      HQ_RETURN_IF_ERROR(RenderExpr(*e.children[1], scope, state, out));
      if (e.children.size() > 2) {
        *out += " ESCAPE ";
        HQ_RETURN_IF_ERROR(RenderExpr(*e.children[2], scope, state, out));
      }
      *out += ')';
      return Status::OK();
    case ExprKind::kInList:
      *out += '(';
      HQ_RETURN_IF_ERROR(RenderExpr(*e.children[0], scope, state, out));
      return list(1, e.negated ? " NOT IN (" : " IN (", ", ", "))");
    case ExprKind::kExtract:
      *out += "EXTRACT(";
      *out += e.func_name;
      return wrap(" FROM ", ")");
    case ExprKind::kSubqScalar:
      *out += '(';
      HQ_RETURN_IF_ERROR(RenderQuery(*e.subplan, scope, state, out).status());
      *out += ')';
      return Status::OK();
    case ExprKind::kSubqExists:
      *out += e.negated ? "(NOT EXISTS (" : "(EXISTS (";
      HQ_RETURN_IF_ERROR(RenderQuery(*e.subplan, scope, state, out).status());
      *out += "))";
      return Status::OK();
    case ExprKind::kSubqIn:
      *out += '(';
      HQ_RETURN_IF_ERROR(RenderExpr(*e.children[0], scope, state, out));
      *out += e.negated ? " NOT IN (" : " IN (";
      HQ_RETURN_IF_ERROR(RenderQuery(*e.subplan, scope, state, out).status());
      *out += "))";
      return Status::OK();
    case ExprKind::kSubqQuantified: {
      if (e.children.size() > 1 && !profile_.supports_vector_subquery) {
        return Status::NotSupported(
            "vector subquery comparison reached the serializer for target '",
            profile_.name,
            "' — the vector_subq_to_exists transformation must run first");
      }
      if (!profile_.supports_quantified_subquery) {
        return Status::NotSupported(
            "quantified subquery reached the serializer for target '",
            profile_.name, "'");
      }
      *out += '(';
      if (e.children.size() > 1) {
        HQ_RETURN_IF_ERROR(list(0, "(", ", ", ")"));
      } else {
        HQ_RETURN_IF_ERROR(RenderExpr(*e.children[0], scope, state, out));
      }
      *out += ' ';
      *out += CompKindSql(e.quant_cmp);
      *out += e.quantifier == xtra::Quantifier::kAny ? " ANY (" : " ALL (";
      HQ_RETURN_IF_ERROR(RenderQuery(*e.subplan, scope, state, out).status());
      *out += "))";
      return Status::OK();
    }
  }
  return Status::Internal("unhandled XTRA expression kind in serializer");
}

Status Serializer::RenderFromItem(const Op& op, const NameMap& outer,
                                  NameMap* scope, RenderState* state,
                                  std::string* out) const {
  switch (op.kind) {
    case OpKind::kGet: {
      const std::string& alias = op.alias.empty() ? op.table_name : op.alias;
      std::string qualifier = QuoteIdent(alias, state) + ".";
      for (const auto& col : op.output) {
        scope->Set(col.id, qualifier + QuoteIdent(col.name, state));
      }
      *out += QuoteIdent(op.table_name, state);
      if (alias != op.table_name) {
        *out += ' ';
        *out += QuoteIdent(alias, state);
      }
      return Status::OK();
    }
    case OpKind::kJoin: {
      HQ_RETURN_IF_ERROR(
          RenderFromItem(*op.children[0], outer, scope, state, out));
      const char* kw = " INNER JOIN ";
      switch (op.join_kind) {
        case xtra::JoinKind::kInner:
          kw = " INNER JOIN ";
          break;
        case xtra::JoinKind::kLeft:
          kw = " LEFT JOIN ";
          break;
        case xtra::JoinKind::kRight:
          kw = " RIGHT JOIN ";
          break;
        case xtra::JoinKind::kFull:
          kw = " FULL JOIN ";
          break;
        case xtra::JoinKind::kCross:
          kw = " CROSS JOIN ";
          break;
      }
      *out += kw;
      HQ_RETURN_IF_ERROR(
          RenderFromItem(*op.children[1], outer, scope, state, out));
      if (op.join_kind == xtra::JoinKind::kCross) return Status::OK();
      // The condition sees both sides and, through `scope`, `outer`.
      *out += " ON ";
      if (!op.predicate) {
        *out += "TRUE";
        return Status::OK();
      }
      return RenderExpr(*op.predicate, *scope, state, out);
    }
    default: {
      *out += '(';
      HQ_ASSIGN_OR_RETURN(std::vector<ColumnInfo> cols,
                          RenderQuery(op, outer, state, out));
      std::string alias =
          QuoteIdent("T" + std::to_string(++state->aliases), state);
      for (const auto& col : cols) {
        scope->Set(col.id, alias + "." + QuoteIdent(col.name, state));
      }
      *out += ") ";
      *out += alias;
      return Status::OK();
    }
  }
}

Status Serializer::RenderOrderBy(const Op& sort,
                                 const std::vector<ColumnInfo>& out_cols,
                                 const NameMap& scope, RenderState* state,
                                 std::string* out) const {
  *out += " ORDER BY ";
  NameMap order_scope(&scope);
  for (const auto& c : out_cols) {
    order_scope.Set(c.id, QuoteIdent(c.name, state));
  }
  for (size_t i = 0; i < sort.sort_items.size(); ++i) {
    Separate(i, out);
    HQ_RETURN_IF_ERROR(
        RenderExpr(*sort.sort_items[i].expr, order_scope, state, out));
    if (sort.sort_items[i].descending) *out += " DESC";
    if (sort.sort_items[i].nulls_first.has_value()) {
      *out += *sort.sort_items[i].nulls_first ? " NULLS FIRST" : " NULLS LAST";
    }
  }
  return Status::OK();
}

Result<std::vector<ColumnInfo>> Serializer::RenderQuery(
    const Op& op, const NameMap& outer, RenderState* state,
    std::string* out) const {
  if (op.kind == OpKind::kRecursiveCte || op.kind == OpKind::kCteRef) {
    return Status::NotSupported(
        "recursive query reached the serializer for target '", profile_.name,
        "'; recursion requires mid-tier emulation");
  }
  if (op.kind == OpKind::kSetOp) {
    *out += '(';
    HQ_ASSIGN_OR_RETURN(std::vector<ColumnInfo> left,
                        RenderQuery(*op.children[0], outer, state, out));
    *out += ')';
    *out += dialect_->SetOpKeyword(op.setop_kind);
    *out += '(';
    HQ_RETURN_IF_ERROR(
        RenderQuery(*op.children[1], outer, state, out).status());
    *out += ')';
    std::vector<ColumnInfo> cols;
    for (size_t i = 0; i < op.output.size(); ++i) {
      std::string name =
          i < left.size() ? left[i].name : op.output[i].name;
      cols.push_back({op.output[i].id, name, op.output[i].type});
    }
    return cols;
  }

  // ---- Single-block assembly -------------------------------------------
  const Op* cur = &op;
  const Op* limit = nullptr;
  const Op* sort = nullptr;
  const Op* proj = nullptr;
  const Op* postwin = nullptr;
  const Op* win = nullptr;
  const Op* having = nullptr;
  const Op* agg = nullptr;
  std::vector<const Expr*> wheres;

  if (cur->kind == OpKind::kLimit) {
    if (cur->with_ties && !profile_.supports_top_with_ties) {
      return Status::NotSupported(
          "TOP WITH TIES reached the serializer for target '", profile_.name,
          "'; top_with_ties_to_rank must run first");
    }
    limit = cur;
    cur = cur->children[0].get();
  }
  if (cur->kind == OpKind::kSort) {
    sort = cur;
    cur = cur->children[0].get();
  }
  if (cur->kind == OpKind::kProject) {
    proj = cur;
    cur = cur->children[0].get();
  }
  if (cur->kind == OpKind::kSelect && cur->post_window_filter) {
    postwin = cur;
    cur = cur->children[0].get();
  }

  NameMap scope(&outer);
  // A projection's select list: `expr AS name` per item.
  std::vector<ColumnInfo> out_cols;
  auto render_projections = [&]() -> Status {
    int i = 0;
    for (const auto& item : proj->projections) {
      if (i++ > 0) *out += ", ";
      HQ_RETURN_IF_ERROR(RenderExpr(*item.expr, scope, state, out));
      std::string name =
          item.name.empty() ? "C" + std::to_string(i) : item.name;
      *out += " AS ";
      *out += QuoteIdent(name, state);
      out_cols.push_back({item.out_id, std::move(name), item.expr->type});
    }
    return Status::OK();
  };

  if (postwin != nullptr) {
    // SQL cannot filter window results in the same block: render the window
    // subtree as a derived table and filter/project above it. The derived
    // table and the filter are rendered first, as they fix the scope and
    // the alias numbering.
    std::string inner;
    HQ_ASSIGN_OR_RETURN(std::vector<ColumnInfo> inner_cols,
                        RenderQuery(*cur, outer, state, &inner));
    std::string alias =
        QuoteIdent("T" + std::to_string(++state->aliases), state);
    for (const auto& col : inner_cols) {
      scope.Set(col.id, alias + "." + QuoteIdent(col.name, state));
    }
    std::string pred;
    HQ_RETURN_IF_ERROR(RenderExpr(*postwin->predicate, scope, state, &pred));
    *out += "SELECT ";
    if (proj && proj->project_distinct) *out += "DISTINCT ";
    if (proj) {
      HQ_RETURN_IF_ERROR(render_projections());
    } else {
      int i = 0;
      for (const auto& col : postwin->output) {
        if (i++ > 0) *out += ", ";
        if (const std::string* text = scope.Find(col.id)) *out += *text;
        *out += " AS ";
        *out += QuoteIdent(col.name, state);
        out_cols.push_back(col);
      }
    }
    *out += " FROM (";
    *out += inner;
    *out += ") ";
    *out += alias;
    *out += " WHERE ";
    *out += pred;
    if (sort != nullptr) {
      HQ_RETURN_IF_ERROR(RenderOrderBy(*sort, out_cols, scope, state, out));
    }
    if (limit != nullptr) RenderRowLimit(*limit, state, out);
    return out_cols;
  }

  if (cur->kind == OpKind::kWindow) {
    win = cur;
    cur = cur->children[0].get();
  }
  if (cur->kind == OpKind::kSelect && !cur->post_window_filter &&
      cur->children[0]->kind == OpKind::kAggregate) {
    having = cur;
    cur = cur->children[0].get();
  }
  if (cur->kind == OpKind::kAggregate) {
    agg = cur;
    cur = cur->children[0].get();
  }
  // Collect WHERE filters; a projection encountered below a filter (the
  // Figure 6 "remap consts" shape: Select over Project) merges into this
  // block as its select list, with the filter applying to the source.
  while (true) {
    if (cur->kind == OpKind::kSelect && !cur->post_window_filter) {
      wheres.push_back(cur->predicate.get());
      cur = cur->children[0].get();
      continue;
    }
    if (cur->kind == OpKind::kProject && proj == nullptr && agg == nullptr &&
        win == nullptr && !wheres.empty()) {
      proj = cur;
      cur = cur->children[0].get();
      continue;
    }
    break;
  }

  // FROM + base scope. FROM precedes the select list in rendering order
  // (it fills the scope) but follows it in the text, so it gets its own
  // buffer.
  std::string from;
  bool fromless = false;
  if (cur->kind == OpKind::kValues && cur->rows.size() == 1 &&
      cur->rows[0].empty()) {
    fromless = true;
  } else if (cur->kind == OpKind::kValues) {
    // Render literal rows as a UNION ALL of FROM-less selects.
    from += '(';
    for (size_t r = 0; r < cur->rows.size(); ++r) {
      if (r > 0) from += dialect_->SetOpKeyword(xtra::SetOpKind::kUnionAll);
      from += "SELECT ";
      for (size_t c = 0; c < cur->rows[r].size(); ++c) {
        Separate(c, &from);
        HQ_RETURN_IF_ERROR(RenderExpr(*cur->rows[r][c], scope, state, &from));
        if (c < cur->output.size()) {
          from += " AS ";
          from += QuoteIdent(cur->output[c].name, state);
        }
      }
    }
    std::string alias =
        QuoteIdent("T" + std::to_string(++state->aliases), state);
    for (const auto& col : cur->output) {
      scope.Set(col.id, alias + "." + QuoteIdent(col.name, state));
    }
    from += ") ";
    from += alias;
  } else {
    HQ_RETURN_IF_ERROR(RenderFromItem(*cur, outer, &scope, state, &from));
  }

  // Aggregate columns enter the scope as their SQL call text.
  std::vector<std::string> group_texts;
  if (agg != nullptr) {
    if (!agg->grouping_sets.empty() && !profile_.supports_grouping_sets) {
      return Status::NotSupported(
          "grouping sets reached the serializer for target '", profile_.name,
          "'; grouping_sets_to_union must run first");
    }
    for (size_t i = 0; i < agg->group_by.size(); ++i) {
      std::string g;
      HQ_RETURN_IF_ERROR(RenderExpr(*agg->group_by[i], scope, state, &g));
      scope.Set(agg->output[i].id, g);
      group_texts.push_back(std::move(g));
    }
    for (const auto& item : agg->aggregates) {
      std::string call;
      HQ_RETURN_IF_ERROR(RenderAggCall(item.func, item.distinct,
                                       item.arg.get(), scope, state, &call));
      scope.Set(item.out_id, std::move(call));
    }
  }
  if (win != nullptr) {
    for (const auto& item : win->windows) {
      std::string call;
      HQ_RETURN_IF_ERROR(RenderWindowCall(item, scope, state, &call));
      scope.Set(item.out_id, std::move(call));
    }
  }

  // SELECT list.
  *out += "SELECT ";
  if (proj != nullptr && proj->project_distinct) *out += "DISTINCT ";
  const size_t list_begin = out->size();
  if (proj != nullptr) {
    HQ_RETURN_IF_ERROR(render_projections());
  } else {
    const Op* top = win       ? win
                    : having  ? having
                    : agg     ? agg
                    : !wheres.empty()
                        ? static_cast<const Op*>(nullptr)
                        : cur;
    const std::vector<ColumnInfo>& outputs =
        top != nullptr ? top->output : op.output;
    int i = 0;
    for (const auto& col : outputs) {
      if (i++ > 0) *out += ", ";
      const std::string* text = scope.Find(col.id);
      if (text == nullptr) {
        return Status::Internal("serializer: output column ", col.id,
                                " not in scope");
      }
      *out += *text;
      *out += " AS ";
      *out += QuoteIdent(col.name, state);
      out_cols.push_back(col);
    }
  }
  if (out->size() == list_begin) {
    *out += "1 AS ONE";
    out_cols.push_back({-1, "ONE", SqlType::Int()});
  }

  if (!fromless) {
    *out += " FROM ";
    *out += from;
  }
  if (!wheres.empty()) {
    *out += " WHERE ";
    for (size_t i = 0; i < wheres.size(); ++i) {
      if (i > 0) *out += " AND ";
      HQ_RETURN_IF_ERROR(RenderExpr(*wheres[i], scope, state, out));
    }
  }
  if (!group_texts.empty()) {
    *out += " GROUP BY ";
    for (size_t i = 0; i < group_texts.size(); ++i) {
      Separate(i, out);
      *out += group_texts[i];
    }
  }
  if (having != nullptr) {
    *out += " HAVING ";
    HQ_RETURN_IF_ERROR(RenderExpr(*having->predicate, scope, state, out));
  }
  if (sort != nullptr) {
    HQ_RETURN_IF_ERROR(RenderOrderBy(*sort, out_cols, scope, state, out));
  }
  if (limit != nullptr) RenderRowLimit(*limit, state, out);
  return out_cols;
}

Status Serializer::RenderInsert(const Op& op, RenderState* state,
                                std::string* out) const {
  *out += "INSERT INTO ";
  *out += QuoteIdent(op.target_table, state);
  if (!op.target_columns.empty()) {
    *out += " (";
    for (size_t i = 0; i < op.target_columns.size(); ++i) {
      Separate(i, out);
      *out += QuoteIdent(op.target_columns[i], state);
    }
    *out += ')';
  }
  const Op& src = *op.children[0];
  const NameMap no_scope;
  if (src.kind == OpKind::kValues) {
    *out += " VALUES ";
    for (size_t r = 0; r < src.rows.size(); ++r) {
      Separate(r, out);
      *out += '(';
      for (size_t c = 0; c < src.rows[r].size(); ++c) {
        Separate(c, out);
        HQ_RETURN_IF_ERROR(RenderExpr(*src.rows[r][c], no_scope, state, out));
      }
      *out += ')';
    }
    return Status::OK();
  }
  *out += ' ';
  return RenderQuery(src, no_scope, state, out).status();
}

namespace {
// Collects every column reference of an expression tree (including inside
// subplans is unnecessary here: subplan-local columns get overridden by the
// subquery's own scope during rendering).
void CollectColRefs(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kColRef) out->push_back(&e);
  for (const auto& c : e.children) {
    if (c) CollectColRefs(*c, out);
  }
  for (const auto& [w, t] : e.when_then) {
    CollectColRefs(*w, out);
    CollectColRefs(*t, out);
  }
  if (e.else_expr) CollectColRefs(*e.else_expr, out);
}
}  // namespace

// UPDATE/DELETE expressions reference the target table's columns directly;
// qualify them so that references escaping into correlated subqueries stay
// unambiguous.
Status Serializer::RenderUpdate(const Op& op, RenderState* state,
                                std::string* out) const {
  std::vector<const Expr*> refs;
  for (const auto& [n, e] : op.assignments) CollectColRefs(*e, &refs);
  if (op.predicate) CollectColRefs(*op.predicate, &refs);
  const std::string target = QuoteIdent(op.target_table, state);
  NameMap scope;
  for (const Expr* r : refs) {
    std::string tail = r->col_name.substr(r->col_name.rfind('.') + 1);
    scope.Set(r->col_id, target + "." + QuoteIdent(tail, state));
  }
  *out += "UPDATE ";
  *out += target;
  *out += " SET ";
  for (size_t i = 0; i < op.assignments.size(); ++i) {
    Separate(i, out);
    *out += QuoteIdent(op.assignments[i].first, state);
    *out += " = ";
    HQ_RETURN_IF_ERROR(
        RenderExpr(*op.assignments[i].second, scope, state, out));
  }
  if (op.predicate) {
    *out += " WHERE ";
    HQ_RETURN_IF_ERROR(RenderExpr(*op.predicate, scope, state, out));
  }
  return Status::OK();
}

Status Serializer::RenderDelete(const Op& op, RenderState* state,
                                std::string* out) const {
  std::vector<const Expr*> refs;
  if (op.predicate) CollectColRefs(*op.predicate, &refs);
  const std::string target = QuoteIdent(op.target_table, state);
  NameMap scope;
  for (const Expr* r : refs) {
    std::string tail = r->col_name.substr(r->col_name.rfind('.') + 1);
    scope.Set(r->col_id, target + "." + QuoteIdent(tail, state));
  }
  *out += "DELETE FROM ";
  *out += target;
  if (op.predicate) {
    *out += " WHERE ";
    HQ_RETURN_IF_ERROR(RenderExpr(*op.predicate, scope, state, out));
  }
  return Status::OK();
}

Status Serializer::Render(const Op& plan, RenderState* state,
                          std::string* out) const {
  switch (plan.kind) {
    case OpKind::kInsert:
      return RenderInsert(plan, state, out);
    case OpKind::kUpdate:
      return RenderUpdate(plan, state, out);
    case OpKind::kDelete:
      return RenderDelete(plan, state, out);
    default:
      return RenderQuery(plan, NameMap(), state, out).status();
  }
}

Result<std::string> Serializer::Serialize(
    const Op& plan, std::vector<LiteralSite>* sites) const {
  std::string out;
  out.reserve(256);
  RenderState state;
  if (sites != nullptr) {
    sites->clear();
    state.mark_literals = true;
    HQ_RETURN_IF_ERROR(Render(plan, &state, &out));
    if (!state.marker_clash && StripSiteMarkers(&out, sites)) return out;
    // Rendered text carried a marker byte of its own: render again
    // unmarked and report no sites rather than guess which bytes were ours.
    sites->clear();
    out.clear();
    state = RenderState();
  }
  HQ_RETURN_IF_ERROR(Render(plan, &state, &out));
  return out;
}

}  // namespace hyperq::serializer
