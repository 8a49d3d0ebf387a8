#include "serializer/serializer.h"

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

std::string Serializer::RenderLiteral(const Datum& v) const {
  return dialect_->RenderLiteral(v);
}

namespace {
// Brackets the rendering of something built from the SQL-A literal at
// `literal_offset` so Serialize() can report where it landed.
std::string MarkSite(int literal_offset, const std::string& text) {
  std::string marked;
  marked.reserve(text.size() + 14);
  marked += kSiteOpen;
  marked += std::to_string(literal_offset);
  marked += kSiteOpen;
  marked += text;
  marked += kSiteClose;
  return marked;
}

// Copies `marked` into `out` without the markers, recording each marked
// range. Returns false on a malformed or nested marker, or a tag of more
// than nine digits.
bool StripSiteMarkers(const std::string& marked, std::string* out,
                      std::vector<LiteralSite>* sites) {
  out->reserve(marked.size());
  bool open = false;
  LiteralSite site;
  size_t pos = 0;
  while (true) {
    size_t hit = marked.find_first_of(kSiteMarkerBytes, pos);
    out->append(marked, pos, hit == std::string::npos ? hit : hit - pos);
    if (hit == std::string::npos) return !open;
    if (marked[hit] == kSiteClose) {
      if (!open) return false;
      site.end = out->size();
      sites->push_back(site);
      open = false;
      pos = hit + 1;
      continue;
    }
    size_t digits_end = marked.find(kSiteOpen, hit + 1);
    if (open || digits_end == std::string::npos || digits_end == hit + 1 ||
        digits_end - hit > 10) {
      return false;
    }
    site.literal_offset = 0;
    for (size_t k = hit + 1; k < digits_end; ++k) {
      if (marked[k] < '0' || marked[k] > '9') return false;
      site.literal_offset = site.literal_offset * 10 + (marked[k] - '0');
    }
    site.begin = out->size();
    open = true;
    pos = digits_end + 1;
  }
}
}  // namespace

std::string Serializer::RenderRowLimit(const Op& limit,
                                       RenderState* state) const {
  std::string clause = dialect_->RowLimitClause(limit.limit_count);
  if (!state->mark_literals || limit.limit_offset < 0) return clause;
  return MarkSite(limit.limit_offset, clause);
}

Result<std::string> Serializer::RenderAggCall(const xtra::AggItem& item,
                                              const NameMap& scope,
                                              RenderState* state) const {
  std::string out = item.func + "(";
  if (item.distinct) out += "DISTINCT ";
  if (item.arg) {
    HQ_ASSIGN_OR_RETURN(std::string arg,
                        RenderExpr(*item.arg, scope, state));
    out += arg;
  } else {
    out += "*";
  }
  out += ")";
  return out;
}

Result<std::string> Serializer::RenderWindowCall(const xtra::WindowItem& item,
                                                 const NameMap& scope,
                                                 RenderState* state) const {
  std::string out = item.func + "(";
  for (size_t i = 0; i < item.args.size(); ++i) {
    if (i > 0) out += ", ";
    HQ_ASSIGN_OR_RETURN(std::string arg,
                        RenderExpr(*item.args[i], scope, state));
    out += arg;
  }
  if (item.args.empty() && item.func == "COUNT") out += "*";
  out += ") OVER (";
  bool need_space = false;
  if (!item.partition_by.empty()) {
    out += "PARTITION BY ";
    for (size_t i = 0; i < item.partition_by.size(); ++i) {
      if (i > 0) out += ", ";
      HQ_ASSIGN_OR_RETURN(
          std::string p, RenderExpr(*item.partition_by[i], scope,
                                    state));
      out += p;
    }
    need_space = true;
  }
  if (!item.order_by.empty()) {
    if (need_space) out += " ";
    out += "ORDER BY ";
    for (size_t i = 0; i < item.order_by.size(); ++i) {
      if (i > 0) out += ", ";
      HQ_ASSIGN_OR_RETURN(
          std::string o,
          RenderExpr(*item.order_by[i].expr, scope, state));
      out += o;
      if (item.order_by[i].descending) out += " DESC";
      if (item.order_by[i].nulls_first.has_value()) {
        out += *item.order_by[i].nulls_first ? " NULLS FIRST" : " NULLS LAST";
      }
    }
  }
  out += ")";
  return out;
}

Result<std::string> Serializer::RenderExpr(const Expr& e, const NameMap& scope,
                                           RenderState* state) const {
  switch (e.kind) {
    case ExprKind::kColRef: {
      if (e.type.kind == TypeKind::kPeriodDate) {
        return Status::NotSupported(
            "PERIOD column '", e.col_name,
            "' must be accessed via BEGIN()/END(); the target stores it as "
            "two DATE columns");
      }
      auto it = scope.find(e.col_id);
      if (it != scope.end()) return it->second;
      // Fallback for DML scopes (UPDATE/DELETE): bare column name.
      if (!e.col_name.empty()) {
        return QuoteIdent(e.col_name.substr(e.col_name.rfind('.') + 1),
                          state);
      }
      return Status::Internal("serializer: unresolved column id ", e.col_id);
    }
    case ExprKind::kConst: {
      std::string lit = RenderLiteral(e.value);
      if (!state->mark_literals) return lit;
      if (lit.find_first_of(kSiteMarkerBytes) != std::string::npos) {
        state->marker_clash = true;
        return lit;
      }
      if (e.literal_offset < 0) return lit;
      return MarkSite(e.literal_offset, lit);
    }
    case ExprKind::kArith: {
      HQ_ASSIGN_OR_RETURN(std::string l,
                          RenderExpr(*e.children[0], scope, state));
      HQ_ASSIGN_OR_RETURN(std::string r,
                          RenderExpr(*e.children[1], scope, state));
      if (e.arith == xtra::ArithKind::kMod) {
        return "MOD(" + l + ", " + r + ")";
      }
      return "(" + l + " " + ArithKindName(e.arith) + " " + r + ")";
    }
    case ExprKind::kComp: {
      HQ_ASSIGN_OR_RETURN(std::string l,
                          RenderExpr(*e.children[0], scope, state));
      HQ_ASSIGN_OR_RETURN(std::string r,
                          RenderExpr(*e.children[1], scope, state));
      return "(" + l + " " + CompKindSql(e.comp) + " " + r + ")";
    }
    case ExprKind::kBool: {
      std::string out = "(";
      for (size_t i = 0; i < e.children.size(); ++i) {
        if (i > 0) {
          out += e.boolk == xtra::BoolKind::kAnd ? " AND " : " OR ";
        }
        HQ_ASSIGN_OR_RETURN(std::string c,
                            RenderExpr(*e.children[i], scope, state));
        out += c;
      }
      return out + ")";
    }
    case ExprKind::kNot: {
      HQ_ASSIGN_OR_RETURN(std::string c,
                          RenderExpr(*e.children[0], scope, state));
      return "(NOT " + c + ")";
    }
    case ExprKind::kFunc: {
      // PERIOD accessors address the expanded begin/end DATE columns.
      if ((e.func_name == "BEGIN" || e.func_name == "END") &&
          e.children.size() == 1 &&
          e.children[0]->kind == ExprKind::kColRef &&
          e.children[0]->type.kind == TypeKind::kPeriodDate) {
        const Expr& col = *e.children[0];
        auto it = scope.find(col.col_id);
        std::string base;
        if (it != scope.end()) {
          base = it->second;
        } else {
          base = QuoteIdent(
              col.col_name.substr(col.col_name.rfind('.') + 1), state);
        }
        return base + (e.func_name == "BEGIN" ? "_BEGIN" : "_END");
      }
      if (e.func_name == "$NEG") {
        HQ_ASSIGN_OR_RETURN(std::string c,
                            RenderExpr(*e.children[0], scope, state));
        return "(- " + c + ")";
      }
      if (e.func_name == "CURRENT_DATE" || e.func_name == "CURRENT_TIME" ||
          e.func_name == "CURRENT_TIMESTAMP") {
        return e.func_name;
      }
      std::string out = e.func_name + "(";
      for (size_t i = 0; i < e.children.size(); ++i) {
        if (i > 0) out += ", ";
        HQ_ASSIGN_OR_RETURN(std::string c,
                            RenderExpr(*e.children[i], scope, state));
        out += c;
      }
      return out + ")";
    }
    case ExprKind::kAgg: {
      xtra::AggItem item;
      item.func = e.func_name;
      item.distinct = e.distinct_arg;
      if (!e.children.empty()) item.arg = e.children[0]->Clone();
      return RenderAggCall(item, scope, state);
    }
    case ExprKind::kCast: {
      HQ_ASSIGN_OR_RETURN(std::string c,
                          RenderExpr(*e.children[0], scope, state));
      return "CAST(" + c + " AS " + e.type.ToString() + ")";
    }
    case ExprKind::kCase: {
      std::string out = "CASE";
      for (const auto& [w, t] : e.when_then) {
        HQ_ASSIGN_OR_RETURN(std::string ws,
                            RenderExpr(*w, scope, state));
        HQ_ASSIGN_OR_RETURN(std::string ts,
                            RenderExpr(*t, scope, state));
        out += " WHEN " + ws + " THEN " + ts;
      }
      if (e.else_expr) {
        HQ_ASSIGN_OR_RETURN(std::string es,
                            RenderExpr(*e.else_expr, scope, state));
        out += " ELSE " + es;
      }
      return out + " END";
    }
    case ExprKind::kIsNull: {
      HQ_ASSIGN_OR_RETURN(std::string c,
                          RenderExpr(*e.children[0], scope, state));
      return "(" + c + (e.negated ? " IS NOT NULL)" : " IS NULL)");
    }
    case ExprKind::kLike: {
      HQ_ASSIGN_OR_RETURN(std::string v,
                          RenderExpr(*e.children[0], scope, state));
      HQ_ASSIGN_OR_RETURN(std::string p,
                          RenderExpr(*e.children[1], scope, state));
      std::string out = "(" + v + (e.negated ? " NOT LIKE " : " LIKE ") + p;
      if (e.children.size() > 2) {
        HQ_ASSIGN_OR_RETURN(std::string esc,
                            RenderExpr(*e.children[2], scope, state));
        out += " ESCAPE " + esc;
      }
      return out + ")";
    }
    case ExprKind::kInList: {
      HQ_ASSIGN_OR_RETURN(std::string v,
                          RenderExpr(*e.children[0], scope, state));
      std::string out = "(" + v + (e.negated ? " NOT IN (" : " IN (");
      for (size_t i = 1; i < e.children.size(); ++i) {
        if (i > 1) out += ", ";
        HQ_ASSIGN_OR_RETURN(std::string c,
                            RenderExpr(*e.children[i], scope, state));
        out += c;
      }
      return out + "))";
    }
    case ExprKind::kExtract: {
      HQ_ASSIGN_OR_RETURN(std::string c,
                          RenderExpr(*e.children[0], scope, state));
      return "EXTRACT(" + e.func_name + " FROM " + c + ")";
    }
    case ExprKind::kSubqScalar: {
      HQ_ASSIGN_OR_RETURN(Rendered sub,
                          RenderQuery(*e.subplan, scope, state));
      return "(" + sub.sql + ")";
    }
    case ExprKind::kSubqExists: {
      HQ_ASSIGN_OR_RETURN(Rendered sub,
                          RenderQuery(*e.subplan, scope, state));
      return std::string(e.negated ? "(NOT EXISTS (" : "(EXISTS (") + sub.sql +
             "))";
    }
    case ExprKind::kSubqIn: {
      HQ_ASSIGN_OR_RETURN(std::string v,
                          RenderExpr(*e.children[0], scope, state));
      HQ_ASSIGN_OR_RETURN(Rendered sub,
                          RenderQuery(*e.subplan, scope, state));
      return "(" + v + (e.negated ? " NOT IN (" : " IN (") + sub.sql + "))";
    }
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
      std::string row;
      if (e.children.size() > 1) {
        row = "(";
        for (size_t i = 0; i < e.children.size(); ++i) {
          if (i > 0) row += ", ";
          HQ_ASSIGN_OR_RETURN(
              std::string c, RenderExpr(*e.children[i], scope, state));
          row += c;
        }
        row += ")";
      } else {
        HQ_ASSIGN_OR_RETURN(row,
                            RenderExpr(*e.children[0], scope, state));
      }
      HQ_ASSIGN_OR_RETURN(Rendered sub,
                          RenderQuery(*e.subplan, scope, state));
      return "(" + row + " " + CompKindSql(e.quant_cmp) +
             (e.quantifier == xtra::Quantifier::kAny ? " ANY (" : " ALL (") +
             sub.sql + "))";
    }
  }
  return Status::Internal("unhandled XTRA expression kind in serializer");
}

Result<std::string> Serializer::RenderFromItem(const Op& op,
                                               const NameMap& outer,
                                               NameMap* scope,
                                               RenderState* state) const {
  switch (op.kind) {
    case OpKind::kGet: {
      std::string alias =
          op.alias.empty() ? op.table_name : op.alias;
      for (const auto& col : op.output) {
        (*scope)[col.id] =
            QuoteIdent(alias, state) + "." + QuoteIdent(col.name, state);
      }
      if (alias == op.table_name) return QuoteIdent(op.table_name, state);
      return QuoteIdent(op.table_name, state) + " " +
             QuoteIdent(alias, state);
    }
    case OpKind::kJoin: {
      HQ_ASSIGN_OR_RETURN(
          std::string left,
          RenderFromItem(*op.children[0], outer, scope, state));
      HQ_ASSIGN_OR_RETURN(
          std::string right,
          RenderFromItem(*op.children[1], outer, scope, state));
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
      if (op.join_kind == xtra::JoinKind::kCross) {
        return left + kw + right;
      }
      NameMap cond_scope = outer;
      for (const auto& [id, txt] : *scope) cond_scope[id] = txt;
      std::string cond = "TRUE";
      if (op.predicate) {
        HQ_ASSIGN_OR_RETURN(
            cond, RenderExpr(*op.predicate, cond_scope, state));
      }
      return left + kw + right + " ON " + cond;
    }
    default: {
      HQ_ASSIGN_OR_RETURN(Rendered sub,
                          RenderQuery(op, outer, state));
      std::string alias = "T" + std::to_string(++state->aliases);
      for (const auto& col : sub.cols) {
        (*scope)[col.id] =
            QuoteIdent(alias, state) + "." + QuoteIdent(col.name, state);
      }
      if (sub.bare_table) {
        return QuoteIdent(sub.table, state) + " " + QuoteIdent(alias, state);
      }
      return "(" + sub.sql + ") " + QuoteIdent(alias, state);
    }
  }
}

Result<Serializer::Rendered> Serializer::RenderQuery(
    const Op& op, const NameMap& outer, RenderState* state) const {
  if (op.kind == OpKind::kRecursiveCte || op.kind == OpKind::kCteRef) {
    return Status::NotSupported(
        "recursive query reached the serializer for target '", profile_.name,
        "'; recursion requires mid-tier emulation");
  }
  if (op.kind == OpKind::kSetOp) {
    HQ_ASSIGN_OR_RETURN(Rendered left,
                        RenderQuery(*op.children[0], outer, state));
    HQ_ASSIGN_OR_RETURN(Rendered right,
                        RenderQuery(*op.children[1], outer, state));
    Rendered out;
    out.sql = "(" + left.sql + ")" + dialect_->SetOpKeyword(op.setop_kind) +
              "(" + right.sql + ")";
    for (size_t i = 0; i < op.output.size(); ++i) {
      std::string name =
          i < left.cols.size() ? left.cols[i].name : op.output[i].name;
      out.cols.push_back({op.output[i].id, name, op.output[i].type});
    }
    return out;
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

  Rendered out;
  NameMap scope = outer;

  if (postwin != nullptr) {
    // SQL cannot filter window results in the same block: render the window
    // subtree as a derived table and filter/project above it.
    HQ_ASSIGN_OR_RETURN(Rendered inner,
                        RenderQuery(*cur, outer, state));
    std::string alias = "T" + std::to_string(++state->aliases);
    for (const auto& col : inner.cols) {
      scope[col.id] =
          QuoteIdent(alias, state) + "." + QuoteIdent(col.name, state);
    }
    HQ_ASSIGN_OR_RETURN(std::string pred,
                        RenderExpr(*postwin->predicate, scope, state));
    std::string select_list;
    std::vector<ColumnInfo> out_cols;
    const std::vector<ColumnInfo>* outputs =
        proj ? &proj->output : &postwin->output;
    if (proj) {
      int i = 0;
      for (const auto& item : proj->projections) {
        if (i++ > 0) select_list += ", ";
        HQ_ASSIGN_OR_RETURN(std::string txt,
                            RenderExpr(*item.expr, scope, state));
        std::string name = item.name.empty() ? "C" + std::to_string(i) : item.name;
        select_list += txt + " AS " + QuoteIdent(name, state);
        out_cols.push_back({item.out_id, name, item.expr->type});
      }
    } else {
      int i = 0;
      for (const auto& col : *outputs) {
        if (i++ > 0) select_list += ", ";
        select_list += scope[col.id] + " AS " + QuoteIdent(col.name, state);
        out_cols.push_back(col);
      }
    }
    std::string sql = "SELECT ";
    if (proj && proj->project_distinct) sql += "DISTINCT ";
    sql += select_list + " FROM (" + inner.sql + ") " +
           QuoteIdent(alias, state) +
           " WHERE " + pred;
    // ORDER BY / LIMIT at this level.
    if (sort != nullptr) {
      sql += " ORDER BY ";
      NameMap order_scope = scope;
      for (const auto& c : out_cols) {
        order_scope[c.id] = QuoteIdent(c.name, state);
      }
      for (size_t i = 0; i < sort->sort_items.size(); ++i) {
        if (i > 0) sql += ", ";
        HQ_ASSIGN_OR_RETURN(
            std::string o,
            RenderExpr(*sort->sort_items[i].expr, order_scope, state));
        sql += o;
        if (sort->sort_items[i].descending) sql += " DESC";
        if (sort->sort_items[i].nulls_first.has_value()) {
          sql += *sort->sort_items[i].nulls_first ? " NULLS FIRST"
                                                  : " NULLS LAST";
        }
      }
    }
    if (limit != nullptr) sql += RenderRowLimit(*limit, state);
    out.sql = std::move(sql);
    out.cols = std::move(out_cols);
    return out;
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

  // FROM + base scope.
  std::string from;
  bool fromless = false;
  if (cur->kind == OpKind::kValues && cur->rows.size() == 1 &&
      cur->rows[0].empty()) {
    fromless = true;
  } else if (cur->kind == OpKind::kValues) {
    // Render literal rows as a UNION ALL of FROM-less selects.
    std::string sql;
    for (size_t r = 0; r < cur->rows.size(); ++r) {
      if (r > 0) sql += dialect_->SetOpKeyword(xtra::SetOpKind::kUnionAll);
      sql += "SELECT ";
      for (size_t c = 0; c < cur->rows[r].size(); ++c) {
        if (c > 0) sql += ", ";
        HQ_ASSIGN_OR_RETURN(std::string v,
                            RenderExpr(*cur->rows[r][c], scope,
                                       state));
        sql += v;
        if (c < cur->output.size()) {
          sql += " AS " + QuoteIdent(cur->output[c].name, state);
        }
      }
    }
    std::string alias = "T" + std::to_string(++state->aliases);
    for (const auto& col : cur->output) {
      scope[col.id] =
          QuoteIdent(alias, state) + "." + QuoteIdent(col.name, state);
    }
    from = "(" + sql + ") " + QuoteIdent(alias, state);
  } else {
    HQ_ASSIGN_OR_RETURN(from,
                        RenderFromItem(*cur, outer, &scope, state));
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
      HQ_ASSIGN_OR_RETURN(std::string g, RenderExpr(*agg->group_by[i], scope,
                                                    state));
      group_texts.push_back(g);
      scope[agg->output[i].id] = g;
    }
    for (const auto& item : agg->aggregates) {
      HQ_ASSIGN_OR_RETURN(std::string call,
                          RenderAggCall(item, scope, state));
      scope[item.out_id] = call;
    }
  }
  if (win != nullptr) {
    for (const auto& item : win->windows) {
      HQ_ASSIGN_OR_RETURN(std::string call,
                          RenderWindowCall(item, scope, state));
      scope[item.out_id] = call;
    }
  }

  // SELECT list.
  std::string select_list;
  std::vector<ColumnInfo> out_cols;
  bool distinct = false;
  if (proj != nullptr) {
    distinct = proj->project_distinct;
    int i = 0;
    for (const auto& item : proj->projections) {
      if (i++ > 0) select_list += ", ";
      HQ_ASSIGN_OR_RETURN(std::string txt,
                          RenderExpr(*item.expr, scope, state));
      std::string name =
          item.name.empty() ? "C" + std::to_string(i) : item.name;
      select_list += txt + " AS " + QuoteIdent(name, state);
      out_cols.push_back({item.out_id, name, item.expr->type});
    }
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
      if (i++ > 0) select_list += ", ";
      auto it = scope.find(col.id);
      if (it == scope.end()) {
        return Status::Internal("serializer: output column ", col.id,
                                " not in scope");
      }
      select_list += it->second + " AS " + QuoteIdent(col.name, state);
      out_cols.push_back(col);
    }
  }
  if (select_list.empty()) {
    select_list = "1 AS ONE";
    out_cols.push_back({-1, "ONE", SqlType::Int()});
  }

  std::string sql = "SELECT ";
  if (distinct) sql += "DISTINCT ";
  sql += select_list;
  if (!fromless) sql += " FROM " + from;
  if (!wheres.empty()) {
    sql += " WHERE ";
    for (size_t i = 0; i < wheres.size(); ++i) {
      if (i > 0) sql += " AND ";
      HQ_ASSIGN_OR_RETURN(std::string w,
                          RenderExpr(*wheres[i], scope, state));
      sql += w;
    }
  }
  if (agg != nullptr && !group_texts.empty()) {
    sql += " GROUP BY ";
    for (size_t i = 0; i < group_texts.size(); ++i) {
      if (i > 0) sql += ", ";
      sql += group_texts[i];
    }
  }
  if (having != nullptr) {
    HQ_ASSIGN_OR_RETURN(std::string h,
                        RenderExpr(*having->predicate, scope, state));
    sql += " HAVING " + h;
  }
  if (sort != nullptr) {
    sql += " ORDER BY ";
    NameMap order_scope = scope;
    for (const auto& c : out_cols) {
      order_scope[c.id] = QuoteIdent(c.name, state);
    }
    for (size_t i = 0; i < sort->sort_items.size(); ++i) {
      if (i > 0) sql += ", ";
      HQ_ASSIGN_OR_RETURN(
          std::string o,
          RenderExpr(*sort->sort_items[i].expr, order_scope, state));
      sql += o;
      if (sort->sort_items[i].descending) sql += " DESC";
      if (sort->sort_items[i].nulls_first.has_value()) {
        sql += *sort->sort_items[i].nulls_first ? " NULLS FIRST"
                                                : " NULLS LAST";
      }
    }
  }
  if (limit != nullptr) sql += RenderRowLimit(*limit, state);

  out.sql = std::move(sql);
  out.cols = std::move(out_cols);
  return out;
}

Result<std::string> Serializer::RenderInsert(const Op& op,
                                             RenderState* state) const {
  std::string sql = "INSERT INTO " + QuoteIdent(op.target_table, state);
  if (!op.target_columns.empty()) {
    sql += " (";
    for (size_t i = 0; i < op.target_columns.size(); ++i) {
      if (i > 0) sql += ", ";
      sql += QuoteIdent(op.target_columns[i], state);
    }
    sql += ")";
  }
  const Op& src = *op.children[0];
  if (src.kind == OpKind::kValues) {
    sql += " VALUES ";
    for (size_t r = 0; r < src.rows.size(); ++r) {
      if (r > 0) sql += ", ";
      sql += "(";
      for (size_t c = 0; c < src.rows[r].size(); ++c) {
        if (c > 0) sql += ", ";
        HQ_ASSIGN_OR_RETURN(std::string v,
                            RenderExpr(*src.rows[r][c], {}, state));
        sql += v;
      }
      sql += ")";
    }
    return sql;
  }
  HQ_ASSIGN_OR_RETURN(Rendered q, RenderQuery(src, {}, state));
  return sql + " " + q.sql;
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
Result<std::string> Serializer::RenderUpdate(const Op& op,
                                             RenderState* state) const {
  NameMap scope;
  std::vector<const Expr*> refs;
  for (const auto& [n, e] : op.assignments) CollectColRefs(*e, &refs);
  if (op.predicate) CollectColRefs(*op.predicate, &refs);
  for (const Expr* r : refs) {
    std::string tail = r->col_name.substr(r->col_name.rfind('.') + 1);
    scope[r->col_id] =
        QuoteIdent(op.target_table, state) + "." + QuoteIdent(tail, state);
  }
  std::string sql = "UPDATE " + QuoteIdent(op.target_table, state) + " SET ";
  for (size_t i = 0; i < op.assignments.size(); ++i) {
    if (i > 0) sql += ", ";
    HQ_ASSIGN_OR_RETURN(std::string v,
                        RenderExpr(*op.assignments[i].second, scope, state));
    sql += QuoteIdent(op.assignments[i].first, state) + " = " + v;
  }
  if (op.predicate) {
    HQ_ASSIGN_OR_RETURN(std::string w, RenderExpr(*op.predicate, scope, state));
    sql += " WHERE " + w;
  }
  return sql;
}

Result<std::string> Serializer::RenderDelete(const Op& op,
                                             RenderState* state) const {
  NameMap scope;
  std::vector<const Expr*> refs;
  if (op.predicate) CollectColRefs(*op.predicate, &refs);
  for (const Expr* r : refs) {
    std::string tail = r->col_name.substr(r->col_name.rfind('.') + 1);
    scope[r->col_id] =
        QuoteIdent(op.target_table, state) + "." + QuoteIdent(tail, state);
  }
  std::string sql = "DELETE FROM " + QuoteIdent(op.target_table, state);
  if (op.predicate) {
    HQ_ASSIGN_OR_RETURN(std::string w, RenderExpr(*op.predicate, scope, state));
    sql += " WHERE " + w;
  }
  return sql;
}

Result<std::string> Serializer::Render(const Op& plan,
                                       RenderState* state) const {
  switch (plan.kind) {
    case OpKind::kInsert:
      return RenderInsert(plan, state);
    case OpKind::kUpdate:
      return RenderUpdate(plan, state);
    case OpKind::kDelete:
      return RenderDelete(plan, state);
    default: {
      HQ_ASSIGN_OR_RETURN(Rendered r, RenderQuery(plan, {}, state));
      return r.sql;
    }
  }
}

Result<std::string> Serializer::Serialize(
    const Op& plan, std::vector<LiteralSite>* sites) const {
  RenderState state;
  if (sites == nullptr) return Render(plan, &state);
  sites->clear();
  state.mark_literals = true;
  HQ_ASSIGN_OR_RETURN(std::string marked, Render(plan, &state));
  if (!state.marker_clash) {
    std::string out;
    if (StripSiteMarkers(marked, &out, sites)) return out;
    sites->clear();
  }
  // Rendered text carried a marker byte of its own: render again unmarked
  // and report no sites rather than guess which bytes were ours.
  RenderState plain;
  return Render(plan, &plain);
}

}  // namespace hyperq::serializer
