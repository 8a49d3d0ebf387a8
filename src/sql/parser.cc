#include "sql/parser.h"

#include <cstdlib>

#include "common/str_util.h"
#include "types/date.h"

namespace hyperq::sql {

Dialect Dialect::Teradata() {
  Dialect d;
  d.name = "teradata";
  d.allow_keyword_abbrev = true;
  d.allow_qualify = true;
  d.allow_td_ordered_analytics = true;
  d.allow_lax_clause_order = true;
  d.allow_top = true;
  d.allow_limit = false;  // Teradata uses TOP, not LIMIT
  d.allow_macros = true;
  d.allow_td_ddl = true;
  d.allow_help = true;
  d.allow_merge = true;
  d.allow_recursive_cte = true;
  d.allow_vector_subquery = true;
  d.allow_period_type = true;
  d.allow_collect_stats = true;
  d.allow_txn_shorthand = true;
  d.allow_date_int_literal = true;
  d.allow_grouping_extensions = true;
  d.allow_named_expr_reuse = true;
  d.allow_implicit_join = true;
  return d;
}

Dialect Dialect::Ansi() {
  Dialect d;
  d.name = "ansi";
  d.allow_limit = true;
  d.allow_grouping_extensions = false;  // the vdb target lacks ROLLUP/CUBE
  return d;
}

namespace {

// Teradata-style argument-ordered analytic functions.
bool IsTdOrderedAnalytic(const std::string& upper_name) {
  return upper_name == "RANK" || upper_name == "CSUM" ||
         upper_name == "MSUM" || upper_name == "MAVG";
}

class Parser {
 public:
  Parser(const std::string& text, const std::vector<Token>& tokens,
         const Dialect& dialect)
      : text_(text), ts_(tokens), dialect_(dialect) {}

  Result<StatementPtr> ParseSingleStatement() {
    HQ_ASSIGN_OR_RETURN(StatementPtr stmt, ParseStatementInternal());
    ts_.ConsumeOp(";");
    if (!ts_.AtEnd()) {
      return ts_.ErrorHere("unexpected trailing input");
    }
    return stmt;
  }

  Result<std::vector<StatementPtr>> ParseScriptStatements() {
    std::vector<StatementPtr> out;
    while (!ts_.AtEnd()) {
      if (ts_.ConsumeOp(";")) continue;
      HQ_ASSIGN_OR_RETURN(StatementPtr stmt, ParseStatementInternal());
      out.push_back(std::move(stmt));
      if (!ts_.AtEnd()) HQ_RETURN_IF_ERROR(ts_.ExpectOp(";"));
    }
    return out;
  }

  Result<SqlType> ParseBareTypeName() {
    HQ_ASSIGN_OR_RETURN(SqlType t, ParseTypeNameTokens());
    if (!ts_.AtEnd()) return ts_.ErrorHere("unexpected trailing input");
    return t;
  }

 private:
  // --- statement dispatch ---------------------------------------------------

  Result<StatementPtr> ParseStatementInternal() {
    const Token& t = ts_.Peek();
    // A statement may open with '(' for a parenthesized set-op operand:
    // (SELECT ...) UNION ALL (SELECT ...).
    if (t.IsOp("(")) return ParseSelectStatement();
    if (t.kind != TokenKind::kIdent) {
      return ts_.ErrorHere("expected a statement keyword");
    }
    const std::string& kw = t.upper;
    bool abbrev = dialect_.allow_keyword_abbrev;

    if (kw == "SELECT" || (abbrev && kw == "SEL") || kw == "WITH") {
      return ParseSelectStatement();
    }
    if (kw == "INSERT" || (abbrev && kw == "INS")) return ParseInsert();
    if (kw == "UPDATE" || (abbrev && kw == "UPD")) return ParseUpdate();
    if (kw == "DELETE" || (abbrev && kw == "DEL")) return ParseDelete();
    if (kw == "MERGE") {
      if (!dialect_.allow_merge) {
        return ts_.ErrorHere("MERGE is not supported in this dialect");
      }
      return ParseMerge();
    }
    if (kw == "CREATE" || ((kw == "REPLACE") && dialect_.allow_macros)) {
      return ParseCreateOrReplace();
    }
    if (kw == "DROP") return ParseDrop();
    if ((kw == "EXEC" || kw == "EXECUTE") && dialect_.allow_macros) {
      return ParseExecMacro();
    }
    if (kw == "HELP" && dialect_.allow_help) return ParseHelp();
    if (kw == "COLLECT" && dialect_.allow_collect_stats) {
      return ParseCollectStats();
    }
    if (kw == "SET" && ts_.Peek(1).IsKeyword("SESSION")) {
      return ParseSetSession();
    }
    if (dialect_.allow_txn_shorthand && (kw == "BT" || kw == "ET")) {
      ts_.Next();
      return StatementPtr(std::make_unique<SimpleStatement>(
          kw == "BT" ? StmtKind::kBeginTxn : StmtKind::kEndTxn));
    }
    if (kw == "BEGIN" && ts_.Peek(1).IsKeyword("TRANSACTION")) {
      ts_.Next();
      ts_.Next();
      return StatementPtr(std::make_unique<SimpleStatement>(StmtKind::kBeginTxn));
    }
    if (kw == "COMMIT") {
      ts_.Next();
      ts_.ConsumeKeyword("WORK");
      return StatementPtr(std::make_unique<SimpleStatement>(StmtKind::kCommit));
    }
    if (kw == "ROLLBACK") {
      ts_.Next();
      ts_.ConsumeKeyword("WORK");
      return StatementPtr(std::make_unique<SimpleStatement>(StmtKind::kRollback));
    }
    return ts_.ErrorHere("unrecognized statement");
  }

  Result<StatementPtr> ParseSelectStatement() {
    auto stmt = std::make_unique<SelectStatement>();
    HQ_ASSIGN_OR_RETURN(stmt->query, ParseSelectStmt());
    return StatementPtr(std::move(stmt));
  }

  // --- SELECT ---------------------------------------------------------------

  bool PeekSelectKeyword(size_t ahead = 0) const {
    const Token& t = ts_.Peek(ahead);
    return t.IsKeyword("SELECT") ||
           (dialect_.allow_keyword_abbrev && t.IsKeyword("SEL")) ||
           t.IsKeyword("WITH");
  }

  Result<std::unique_ptr<SelectStmt>> ParseSelectStmt() {
    auto stmt = std::make_unique<SelectStmt>();

    if (ts_.Peek().IsKeyword("WITH")) {
      ts_.Next();
      if (ts_.ConsumeKeyword("RECURSIVE")) {
        if (!dialect_.allow_recursive_cte) {
          return ts_.ErrorHere("recursive common table expressions are not "
                               "supported in this dialect");
        }
        stmt->with_recursive = true;
      }
      do {
        CommonTableExpr cte;
        HQ_ASSIGN_OR_RETURN(cte.name, ParseIdentifier());
        if (ts_.ConsumeOp("(")) {
          do {
            HQ_ASSIGN_OR_RETURN(std::string col, ParseIdentifier());
            cte.column_names.push_back(std::move(col));
          } while (ts_.ConsumeOp(","));
          HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
        }
        HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("AS"));
        HQ_RETURN_IF_ERROR(ts_.ExpectOp("("));
        HQ_ASSIGN_OR_RETURN(cte.query, ParseSelectStmt());
        HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
        stmt->with.push_back(std::move(cte));
      } while (ts_.ConsumeOp(","));
    }

    HQ_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> left, ParseSetOperand());
    // Fold the WITH clause into the operand tree.
    left->with = std::move(stmt->with);
    left->with_recursive = stmt->with_recursive;
    stmt = std::move(left);

    while (true) {
      SetOpKind op = SetOpKind::kNone;
      if (ts_.Peek().IsKeyword("UNION")) {
        ts_.Next();
        op = ts_.ConsumeKeyword("ALL") ? SetOpKind::kUnionAll
                                       : SetOpKind::kUnion;
        ts_.ConsumeKeyword("DISTINCT");
      } else if (ts_.Peek().IsKeyword("INTERSECT")) {
        ts_.Next();
        ts_.ConsumeKeyword("DISTINCT");
        op = SetOpKind::kIntersect;
      } else if (ts_.Peek().IsKeyword("EXCEPT") ||
                 ts_.Peek().IsKeyword("MINUS")) {
        ts_.Next();
        ts_.ConsumeKeyword("DISTINCT");
        op = SetOpKind::kExcept;
      } else {
        break;
      }
      HQ_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> right, ParseSetOperand());
      auto parent = std::make_unique<SelectStmt>();
      parent->set_op = op;
      parent->with = std::move(stmt->with);
      parent->with_recursive = stmt->with_recursive;
      stmt->with.clear();
      stmt->with_recursive = false;
      parent->set_left = std::move(stmt);
      parent->set_right = std::move(right);
      stmt = std::move(parent);
    }

    if (ts_.Peek().IsKeyword("ORDER")) {
      HQ_ASSIGN_OR_RETURN(stmt->order_by, ParseOrderByClause());
    }
    if (dialect_.allow_limit && ts_.ConsumeKeyword("LIMIT")) {
      stmt->limit_offset = static_cast<int>(ts_.Peek().begin_offset);
      HQ_ASSIGN_OR_RETURN(int64_t n, ParseIntegerLiteral());
      stmt->limit = n;
    } else if (dialect_.allow_limit && ts_.Peek().IsKeyword("FETCH")) {
      // Standard row-limit spelling: FETCH FIRST|NEXT n ROWS|ROW ONLY.
      ts_.Next();
      if (!ts_.ConsumeKeyword("FIRST")) {
        HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("NEXT"));
      }
      stmt->limit_offset = static_cast<int>(ts_.Peek().begin_offset);
      HQ_ASSIGN_OR_RETURN(int64_t n, ParseIntegerLiteral());
      if (!ts_.ConsumeKeyword("ROWS")) {
        HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("ROW"));
      }
      HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("ONLY"));
      stmt->limit = n;
    }
    return stmt;
  }

  Result<std::unique_ptr<SelectStmt>> ParseSetOperand() {
    if (ts_.Peek().IsOp("(") &&
        (PeekSelectKeyword(1) || ts_.Peek(1).IsOp("("))) {
      ts_.Next();  // '('
      HQ_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> inner, ParseSelectStmt());
      HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
      return inner;
    }
    auto stmt = std::make_unique<SelectStmt>();
    HQ_ASSIGN_OR_RETURN(stmt->block, ParseQueryBlock(stmt.get()));
    return stmt;
  }

  Result<std::vector<OrderItem>> ParseOrderByClause() {
    HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("ORDER"));
    HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("BY"));
    std::vector<OrderItem> out;
    do {
      OrderItem item;
      HQ_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (ts_.ConsumeKeyword("ASC")) {
        item.descending = false;
      } else if (ts_.ConsumeKeyword("DESC")) {
        item.descending = true;
      }
      if (ts_.ConsumeKeyword("NULLS")) {
        if (ts_.ConsumeKeyword("FIRST")) {
          item.nulls_first = true;
        } else {
          HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("LAST"));
          item.nulls_first = false;
        }
      }
      out.push_back(std::move(item));
    } while (ts_.ConsumeOp(","));
    return out;
  }

  /// Parses one SELECT block. With lax clause order (Teradata), the clauses
  /// after FROM may come in any order; ORDER BY encountered here is hoisted
  /// to the enclosing statement.
  Result<std::unique_ptr<QueryBlock>> ParseQueryBlock(SelectStmt* enclosing) {
    if (!ts_.ConsumeKeyword("SELECT") &&
        !(dialect_.allow_keyword_abbrev && ts_.ConsumeKeyword("SEL"))) {
      return ts_.ErrorHere("expected SELECT");
    }
    auto block = std::make_unique<QueryBlock>();

    if (ts_.ConsumeKeyword("DISTINCT")) {
      block->distinct = true;
    } else {
      ts_.ConsumeKeyword("ALL");
    }
    if (dialect_.allow_top && ts_.Peek().IsKeyword("TOP")) {
      ts_.Next();
      block->top_offset = static_cast<int>(ts_.Peek().begin_offset);
      HQ_ASSIGN_OR_RETURN(block->top_n, ParseIntegerLiteral());
      if (ts_.ConsumeKeyword("WITH")) {
        HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("TIES"));
        block->top_with_ties = true;
      }
    }

    // Select list.
    do {
      HQ_ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem());
      block->select_list.push_back(std::move(item));
    } while (ts_.ConsumeOp(","));

    if (ts_.ConsumeKeyword("FROM")) {
      do {
        HQ_ASSIGN_OR_RETURN(TableRefPtr ref, ParseTableRef());
        block->from.push_back(std::move(ref));
      } while (ts_.ConsumeOp(","));
    }

    // Post-FROM clauses. Standard order is WHERE, GROUP BY, HAVING,
    // QUALIFY; Teradata tolerates permutations (paper Example 1 puts ORDER
    // BY before WHERE).
    bool seen_where = false, seen_group = false, seen_having = false,
         seen_qualify = false, seen_order = false;
    while (true) {
      const Token& t = ts_.Peek();
      if (t.IsKeyword("WHERE")) {
        if (seen_where) return ts_.ErrorHere("duplicate WHERE clause");
        if ((seen_group || seen_having || seen_qualify || seen_order) &&
            !dialect_.allow_lax_clause_order) {
          return ts_.ErrorHere("WHERE must precede GROUP BY/HAVING/ORDER BY");
        }
        ts_.Next();
        HQ_ASSIGN_OR_RETURN(block->where, ParseExpr());
        seen_where = true;
      } else if (t.IsKeyword("GROUP")) {
        if (seen_group) return ts_.ErrorHere("duplicate GROUP BY clause");
        ts_.Next();
        HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("BY"));
        HQ_ASSIGN_OR_RETURN(block->group_by, ParseGroupBy());
        seen_group = true;
      } else if (t.IsKeyword("HAVING")) {
        if (seen_having) return ts_.ErrorHere("duplicate HAVING clause");
        ts_.Next();
        HQ_ASSIGN_OR_RETURN(block->having, ParseExpr());
        seen_having = true;
      } else if (t.IsKeyword("QUALIFY")) {
        if (!dialect_.allow_qualify) {
          return ts_.ErrorHere("QUALIFY is not supported in this dialect");
        }
        if (seen_qualify) return ts_.ErrorHere("duplicate QUALIFY clause");
        ts_.Next();
        HQ_ASSIGN_OR_RETURN(block->qualify, ParseExpr());
        seen_qualify = true;
      } else if (t.IsKeyword("ORDER") && dialect_.allow_lax_clause_order &&
                 enclosing != nullptr && !seen_order) {
        HQ_ASSIGN_OR_RETURN(enclosing->order_by, ParseOrderByClause());
        seen_order = true;
      } else {
        break;
      }
    }
    return block;
  }

  Result<SelectItem> ParseSelectItem() {
    SelectItem item;
    if (ts_.Peek().IsOp("*")) {
      ts_.Next();
      item.is_star = true;
      return item;
    }
    // alias.* form: ident '.' '*'
    if ((ts_.Peek().kind == TokenKind::kIdent ||
         ts_.Peek().kind == TokenKind::kQuotedIdent) &&
        ts_.Peek(1).IsOp(".") && ts_.Peek(2).IsOp("*")) {
      item.is_star = true;
      item.star_qualifier = ts_.Next().text;
      ts_.Next();  // '.'
      ts_.Next();  // '*'
      return item;
    }
    HQ_ASSIGN_OR_RETURN(item.expr, ParseExpr());
    if (ts_.ConsumeKeyword("AS")) {
      HQ_ASSIGN_OR_RETURN(item.alias, ParseIdentifier());
    } else if (IsAliasToken(ts_.Peek())) {
      item.alias = ts_.Next().text;
    }
    return item;
  }

  // Bare identifiers usable as implicit aliases (not clause keywords).
  bool IsAliasToken(const Token& t) const {
    if (t.kind == TokenKind::kQuotedIdent) return true;
    if (t.kind != TokenKind::kIdent) return false;
    static const char* kReserved[] = {
        "FROM",   "WHERE",  "GROUP",     "HAVING", "QUALIFY", "ORDER",
        "UNION",  "EXCEPT", "INTERSECT", "MINUS",  "LIMIT",   "ON",
        "JOIN",   "INNER",  "LEFT",      "RIGHT",  "FULL",    "CROSS",
        "AND",    "OR",     "NOT",       "AS",     "WHEN",    "THEN",
        "ELSE",   "END",    "USING",     "SET",    "VALUES",  "WITH",
        "SAMPLE", "ASC",    "DESC",      "NULLS"};
    for (const char* kw : kReserved) {
      if (t.upper == kw) return false;
    }
    return true;
  }

  Result<GroupByClause> ParseGroupBy() {
    GroupByClause gb;
    if (dialect_.allow_grouping_extensions && ts_.ConsumeKeyword("ROLLUP")) {
      gb.kind = GroupByKind::kRollup;
      HQ_RETURN_IF_ERROR(ts_.ExpectOp("("));
      do {
        HQ_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        gb.items.push_back(std::move(e));
      } while (ts_.ConsumeOp(","));
      HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
      return gb;
    }
    if (dialect_.allow_grouping_extensions && ts_.ConsumeKeyword("CUBE")) {
      gb.kind = GroupByKind::kCube;
      HQ_RETURN_IF_ERROR(ts_.ExpectOp("("));
      do {
        HQ_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        gb.items.push_back(std::move(e));
      } while (ts_.ConsumeOp(","));
      HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
      return gb;
    }
    if (dialect_.allow_grouping_extensions && ts_.Peek().IsKeyword("GROUPING") &&
        ts_.Peek(1).IsKeyword("SETS")) {
      ts_.Next();
      ts_.Next();
      gb.kind = GroupByKind::kGroupingSets;
      HQ_RETURN_IF_ERROR(ts_.ExpectOp("("));
      do {
        std::vector<ExprPtr> set;
        HQ_RETURN_IF_ERROR(ts_.ExpectOp("("));
        if (!ts_.Peek().IsOp(")")) {
          do {
            HQ_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
            set.push_back(std::move(e));
          } while (ts_.ConsumeOp(","));
        }
        HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
        gb.sets.push_back(std::move(set));
      } while (ts_.ConsumeOp(","));
      HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
      return gb;
    }
    do {
      HQ_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      gb.items.push_back(std::move(e));
    } while (ts_.ConsumeOp(","));
    return gb;
  }

  // --- FROM / joins -----------------------------------------------------------

  Result<TableRefPtr> ParseTableRef() {
    HQ_ASSIGN_OR_RETURN(TableRefPtr left, ParseTablePrimary());
    while (true) {
      JoinType jt;
      bool natural = false;
      size_t mark = ts_.position();
      if (ts_.ConsumeKeyword("NATURAL")) natural = true;
      if (ts_.ConsumeKeyword("INNER")) {
        jt = JoinType::kInner;
      } else if (ts_.ConsumeKeyword("LEFT")) {
        ts_.ConsumeKeyword("OUTER");
        jt = JoinType::kLeft;
      } else if (ts_.ConsumeKeyword("RIGHT")) {
        ts_.ConsumeKeyword("OUTER");
        jt = JoinType::kRight;
      } else if (ts_.ConsumeKeyword("FULL")) {
        ts_.ConsumeKeyword("OUTER");
        jt = JoinType::kFull;
      } else if (ts_.ConsumeKeyword("CROSS")) {
        jt = JoinType::kCross;
      } else if (ts_.Peek().IsKeyword("JOIN")) {
        jt = JoinType::kInner;
      } else {
        ts_.Rewind(mark);
        break;
      }
      if (!ts_.ConsumeKeyword("JOIN")) {
        ts_.Rewind(mark);
        break;
      }
      if (natural) {
        return ts_.ErrorHere("NATURAL JOIN is not supported");
      }
      HQ_ASSIGN_OR_RETURN(TableRefPtr right, ParseTablePrimary());
      auto join = std::make_unique<TableRef>(TableRef::Kind::kJoin);
      join->join_type = jt;
      join->left = std::move(left);
      join->right = std::move(right);
      if (jt != JoinType::kCross) {
        HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("ON"));
        HQ_ASSIGN_OR_RETURN(join->join_condition, ParseExpr());
      }
      left = std::move(join);
    }
    return left;
  }

  Result<TableRefPtr> ParseTablePrimary() {
    if (ts_.Peek().IsOp("(")) {
      if (PeekSelectKeyword(1)) {
        ts_.Next();
        auto ref = std::make_unique<TableRef>(TableRef::Kind::kDerived);
        HQ_ASSIGN_OR_RETURN(ref->derived, ParseSelectStmt());
        HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
        ts_.ConsumeKeyword("AS");
        if (IsAliasToken(ts_.Peek())) ref->alias = ts_.Next().text;
        if (ts_.ConsumeOp("(")) {
          do {
            HQ_ASSIGN_OR_RETURN(std::string col, ParseIdentifier());
            ref->column_aliases.push_back(std::move(col));
          } while (ts_.ConsumeOp(","));
          HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
        }
        return TableRefPtr(std::move(ref));
      }
      // Parenthesized join tree.
      ts_.Next();
      HQ_ASSIGN_OR_RETURN(TableRefPtr inner, ParseTableRef());
      HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
      return inner;
    }
    auto ref = std::make_unique<TableRef>(TableRef::Kind::kBaseTable);
    HQ_ASSIGN_OR_RETURN(ref->table_name, ParseQualifiedName());
    ts_.ConsumeKeyword("AS");
    if (IsAliasToken(ts_.Peek())) ref->alias = ts_.Next().text;
    if (ts_.Peek().IsOp("(") && (ts_.Peek(1).kind == TokenKind::kIdent ||
                                 ts_.Peek(1).kind == TokenKind::kQuotedIdent) &&
        (ts_.Peek(2).IsOp(",") || ts_.Peek(2).IsOp(")"))) {
      // Teradata derived-table-style column alias list on a base table.
      ts_.Next();
      do {
        HQ_ASSIGN_OR_RETURN(std::string col, ParseIdentifier());
        ref->column_aliases.push_back(std::move(col));
      } while (ts_.ConsumeOp(","));
      HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
    }
    return TableRefPtr(std::move(ref));
  }

  // --- expressions ------------------------------------------------------------

  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    HQ_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
    while (ts_.ConsumeKeyword("OR")) {
      HQ_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
      left = MakeBinary(BinaryOp::kOr, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseAnd() {
    HQ_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
    while (ts_.ConsumeKeyword("AND")) {
      HQ_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
      left = MakeBinary(BinaryOp::kAnd, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseNot() {
    if (ts_.ConsumeKeyword("NOT")) {
      HQ_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      return MakeUnary(UnaryOp::kNot, std::move(operand));
    }
    return ParsePredicate();
  }

  static BinaryOp ComparisonFromText(const std::string& op) {
    if (op == "=") return BinaryOp::kEq;
    if (op == "<>" || op == "!=" || op == "^=") return BinaryOp::kNe;
    if (op == "<") return BinaryOp::kLt;
    if (op == "<=") return BinaryOp::kLe;
    if (op == ">") return BinaryOp::kGt;
    return BinaryOp::kGe;
  }

  bool PeekComparisonOp() const {
    const Token& t = ts_.Peek();
    return t.IsOp("=") || t.IsOp("<>") || t.IsOp("!=") || t.IsOp("^=") ||
           t.IsOp("<") || t.IsOp("<=") || t.IsOp(">") || t.IsOp(">=");
  }

  Result<ExprPtr> ParsePredicate() {
    HQ_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());

    if (PeekComparisonOp()) {
      BinaryOp cmp = ComparisonFromText(ts_.Next().text);
      // Quantified comparison: <left> op ANY/ALL/SOME (SELECT ...).
      if (ts_.Peek().IsKeyword("ANY") || ts_.Peek().IsKeyword("ALL") ||
          ts_.Peek().IsKeyword("SOME")) {
        SubqQuantifier q = ts_.Peek().IsKeyword("ALL") ? SubqQuantifier::kAll
                                                       : SubqQuantifier::kAny;
        ts_.Next();
        HQ_RETURN_IF_ERROR(ts_.ExpectOp("("));
        auto e = std::make_unique<Expr>(ExprKind::kQuantified);
        HQ_ASSIGN_OR_RETURN(e->subquery, ParseSelectStmt());
        HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
        e->quant_cmp = cmp;
        e->quantifier = q;
        // Row-valued left side arrives as the internal $ROW marker.
        if (left->kind == ExprKind::kFunc && left->func_name == "$ROW") {
          if (!dialect_.allow_vector_subquery && left->children.size() > 1) {
            return ts_.ErrorHere(
                "vector comparison in subquery is not supported in this "
                "dialect");
          }
          e->children = std::move(left->children);
        } else {
          e->children.push_back(std::move(left));
        }
        return ExprPtr(std::move(e));
      }
      HQ_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
      HQ_RETURN_IF_ERROR(RejectStrayRow(left));
      HQ_RETURN_IF_ERROR(RejectStrayRow(right));
      return MakeBinary(cmp, std::move(left), std::move(right));
    }

    bool negated = false;
    if (ts_.Peek().IsKeyword("NOT") &&
        (ts_.Peek(1).IsKeyword("IN") || ts_.Peek(1).IsKeyword("BETWEEN") ||
         ts_.Peek(1).IsKeyword("LIKE"))) {
      ts_.Next();
      negated = true;
    }

    if (ts_.ConsumeKeyword("IN")) {
      HQ_RETURN_IF_ERROR(RejectStrayRow(left));
      auto e = std::make_unique<Expr>(ExprKind::kInPred);
      e->negated = negated;
      HQ_RETURN_IF_ERROR(ts_.ExpectOp("("));
      if (PeekSelectKeyword()) {
        HQ_ASSIGN_OR_RETURN(e->subquery, ParseSelectStmt());
      } else {
        do {
          HQ_ASSIGN_OR_RETURN(ExprPtr item, ParseAdditive());
          e->children.push_back(std::move(item));
        } while (ts_.ConsumeOp(","));
      }
      HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
      e->children.insert(e->children.begin(), std::move(left));
      return ExprPtr(std::move(e));
    }
    if (ts_.ConsumeKeyword("BETWEEN")) {
      HQ_RETURN_IF_ERROR(RejectStrayRow(left));
      auto e = std::make_unique<Expr>(ExprKind::kBetween);
      e->negated = negated;
      HQ_ASSIGN_OR_RETURN(ExprPtr low, ParseAdditive());
      HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("AND"));
      HQ_ASSIGN_OR_RETURN(ExprPtr high, ParseAdditive());
      e->children.push_back(std::move(left));
      e->children.push_back(std::move(low));
      e->children.push_back(std::move(high));
      return ExprPtr(std::move(e));
    }
    if (ts_.ConsumeKeyword("LIKE")) {
      HQ_RETURN_IF_ERROR(RejectStrayRow(left));
      auto e = std::make_unique<Expr>(ExprKind::kLike);
      e->negated = negated;
      HQ_ASSIGN_OR_RETURN(ExprPtr pattern, ParseAdditive());
      e->children.push_back(std::move(left));
      e->children.push_back(std::move(pattern));
      if (ts_.ConsumeKeyword("ESCAPE")) {
        HQ_ASSIGN_OR_RETURN(ExprPtr esc, ParseAdditive());
        e->children.push_back(std::move(esc));
      }
      return ExprPtr(std::move(e));
    }
    if (ts_.Peek().IsKeyword("IS")) {
      ts_.Next();
      HQ_RETURN_IF_ERROR(RejectStrayRow(left));
      auto e = std::make_unique<Expr>(ExprKind::kIsNull);
      e->negated = ts_.ConsumeKeyword("NOT");
      HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("NULL"));
      e->children.push_back(std::move(left));
      return ExprPtr(std::move(e));
    }
    HQ_RETURN_IF_ERROR(RejectStrayRow(left));
    return left;
  }

  Status RejectStrayRow(const ExprPtr& e) const {
    if (e && e->kind == ExprKind::kFunc && e->func_name == "$ROW") {
      return Status::SyntaxError(
          "row value expression is only allowed on the left of a quantified "
          "comparison");
    }
    return Status::OK();
  }

  Result<ExprPtr> ParseAdditive() {
    HQ_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
    while (true) {
      BinaryOp op;
      if (ts_.Peek().IsOp("+")) {
        op = BinaryOp::kAdd;
      } else if (ts_.Peek().IsOp("-")) {
        op = BinaryOp::kSub;
      } else if (ts_.Peek().IsOp("||")) {
        op = BinaryOp::kConcat;
      } else {
        break;
      }
      ts_.Next();
      HQ_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
      left = MakeBinary(op, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseMultiplicative() {
    HQ_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
    while (true) {
      BinaryOp op;
      if (ts_.Peek().IsOp("*")) {
        op = BinaryOp::kMul;
      } else if (ts_.Peek().IsOp("/")) {
        op = BinaryOp::kDiv;
      } else if (ts_.Peek().IsOp("%") || ts_.Peek().IsKeyword("MOD")) {
        op = BinaryOp::kMod;
      } else {
        break;
      }
      ts_.Next();
      HQ_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
      left = MakeBinary(op, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseUnary() {
    if (ts_.Peek().IsOp("-")) {
      ts_.Next();
      HQ_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      return MakeUnary(UnaryOp::kNeg, std::move(operand));
    }
    if (ts_.Peek().IsOp("+")) {
      ts_.Next();
      return ParseUnary();
    }
    return ParsePrimary();
  }

  // Stamps the literal token's offset on the constant built from it (the
  // normalizer records the same offset for the extracted literal).
  static ExprPtr FromLiteral(const Token& t, ExprPtr e) {
    e->literal_offset = static_cast<int>(t.begin_offset);
    return e;
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = ts_.Peek();
    switch (t.kind) {
      case TokenKind::kInteger: {
        ts_.Next();
        return FromLiteral(
            t, MakeIntConst(std::strtoll(t.text.c_str(), nullptr, 10)));
      }
      case TokenKind::kDecimal: {
        ts_.Next();
        HQ_ASSIGN_OR_RETURN(Decimal d, Decimal::Parse(t.text));
        return FromLiteral(t, MakeConst(Datum::MakeDecimal(d),
                                        SqlType::Decimal(18, d.scale)));
      }
      case TokenKind::kFloat: {
        ts_.Next();
        double v = std::strtod(t.text.c_str(), nullptr);
        return FromLiteral(t, MakeConst(Datum::MakeDouble(v), SqlType::Double()));
      }
      case TokenKind::kString: {
        ts_.Next();
        return FromLiteral(t, MakeStringConst(t.text));
      }
      case TokenKind::kParam: {
        ts_.Next();
        auto e = std::make_unique<Expr>(ExprKind::kParam);
        e->name_parts = {t.upper};
        return ExprPtr(std::move(e));
      }
      case TokenKind::kOperator:
        if (t.IsOp("(")) return ParseParenthesized();
        if (t.IsOp("?")) {
          ts_.Next();
          auto e = std::make_unique<Expr>(ExprKind::kParam);
          e->name_parts = {"?"};
          return ExprPtr(std::move(e));
        }
        return ts_.ErrorHere("unexpected token in expression");
      case TokenKind::kIdent:
      case TokenKind::kQuotedIdent:
        return ParseIdentLike();
      default:
        return ts_.ErrorHere("unexpected token in expression");
    }
  }

  Result<ExprPtr> ParseParenthesized() {
    ts_.Next();  // '('
    if (PeekSelectKeyword()) {
      auto e = std::make_unique<Expr>(ExprKind::kScalarSubq);
      HQ_ASSIGN_OR_RETURN(e->subquery, ParseSelectStmt());
      HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
      return ExprPtr(std::move(e));
    }
    HQ_ASSIGN_OR_RETURN(ExprPtr first, ParseExpr());
    if (ts_.ConsumeOp(",")) {
      // Row value for a vector comparison: kept in an internal $ROW marker
      // until the predicate parser claims it.
      auto row = std::make_unique<Expr>(ExprKind::kFunc);
      row->func_name = "$ROW";
      row->children.push_back(std::move(first));
      do {
        HQ_ASSIGN_OR_RETURN(ExprPtr next, ParseExpr());
        row->children.push_back(std::move(next));
      } while (ts_.ConsumeOp(","));
      HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
      return ExprPtr(std::move(row));
    }
    HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
    return first;
  }

  Result<ExprPtr> ParseIdentLike() {
    const Token& t = ts_.Peek();
    const std::string& kw = t.upper;

    if (kw == "NULL") {
      ts_.Next();
      return MakeConst(Datum::Null(), SqlType::Null());
    }
    if (kw == "TRUE" || kw == "FALSE") {
      ts_.Next();
      return MakeConst(Datum::Bool(kw == "TRUE"), SqlType::Bool());
    }
    // Typed literals: DATE '...', TIME '...', TIMESTAMP '...'.
    if ((kw == "DATE" || kw == "TIME" || kw == "TIMESTAMP") &&
        ts_.Peek(1).kind == TokenKind::kString) {
      ts_.Next();
      const Token& lit = ts_.Next();
      const std::string& text = lit.text;
      if (kw == "DATE") {
        HQ_ASSIGN_OR_RETURN(int32_t days, ParseDate(text));
        return FromLiteral(lit, MakeConst(Datum::Date(days), SqlType::Date()));
      }
      if (kw == "TIME") {
        HQ_ASSIGN_OR_RETURN(int64_t micros, ParseTime(text));
        return FromLiteral(lit,
                           MakeConst(Datum::Time(micros), SqlType::Time()));
      }
      HQ_ASSIGN_OR_RETURN(int64_t micros, ParseTimestamp(text));
      return FromLiteral(
          lit, MakeConst(Datum::Timestamp(micros), SqlType::Timestamp()));
    }
    if (kw == "INTERVAL" && ts_.Peek(1).kind == TokenKind::kString) {
      // INTERVAL 'n' DAY|HOUR|MINUTE|SECOND|MONTH|YEAR
      ts_.Next();
      std::string text = ts_.Next().text;
      const Token& unit_tok = ts_.Peek();
      if (unit_tok.kind != TokenKind::kIdent) {
        return ts_.ErrorHere("expected interval unit");
      }
      std::string unit = unit_tok.upper;
      ts_.Next();
      int64_t n = std::strtoll(text.c_str(), nullptr, 10);
      // YEAR/MONTH intervals are month-based and carried as a function the
      // binder/engine understands; day-time intervals become micros.
      if (unit == "YEAR" || unit == "MONTH") {
        auto e = MakeFunc("$INTERVAL_MONTHS",
                          {});
        e->children.push_back(
            MakeIntConst(unit == "YEAR" ? n * 12 : n));
        return e;
      }
      int64_t micros = 0;
      if (unit == "DAY") {
        micros = n * 86400000000LL;
      } else if (unit == "HOUR") {
        micros = n * 3600000000LL;
      } else if (unit == "MINUTE") {
        micros = n * 60000000LL;
      } else if (unit == "SECOND") {
        micros = n * 1000000LL;
      } else {
        return ts_.ErrorHere("unsupported interval unit " + unit);
      }
      return MakeConst(Datum::Interval(micros), SqlType::Interval());
    }
    if (kw == "CASE") return ParseCase();
    if (kw == "CAST" && ts_.Peek(1).IsOp("(")) return ParseCast();
    if (kw == "EXTRACT" && ts_.Peek(1).IsOp("(")) return ParseExtract();
    if (kw == "TRIM" && ts_.Peek(1).IsOp("(")) return ParseTrim();
    if (kw == "SUBSTRING" && ts_.Peek(1).IsOp("(")) return ParseSubstring();
    if (kw == "POSITION" && ts_.Peek(1).IsOp("(")) return ParsePosition();
    if (kw == "EXISTS" && ts_.Peek(1).IsOp("(")) {
      ts_.Next();
      ts_.Next();
      auto e = std::make_unique<Expr>(ExprKind::kExistsSubq);
      HQ_ASSIGN_OR_RETURN(e->subquery, ParseSelectStmt());
      HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
      return ExprPtr(std::move(e));
    }
    // Niladic system functions.
    if (kw == "CURRENT_DATE" || kw == "CURRENT_TIME" ||
        kw == "CURRENT_TIMESTAMP" || kw == "USER" || kw == "SESSION" ||
        kw == "DATABASE") {
      ts_.Next();
      return MakeFunc(kw, {});
    }

    // Function call?
    if (ts_.Peek(1).IsOp("(") && t.kind == TokenKind::kIdent) {
      return ParseFunctionCall();
    }

    // Qualified identifier chain.
    std::vector<std::string> parts;
    parts.push_back(ts_.Next().text);
    while (ts_.Peek().IsOp(".") &&
           (ts_.Peek(1).kind == TokenKind::kIdent ||
            ts_.Peek(1).kind == TokenKind::kQuotedIdent)) {
      ts_.Next();
      parts.push_back(ts_.Next().text);
    }
    return MakeIdent(std::move(parts));
  }

  Result<ExprPtr> ParseFunctionCall() {
    std::string name = ts_.Next().upper;
    ts_.Next();  // '('

    auto e = std::make_unique<Expr>(ExprKind::kFunc);
    e->func_name = name;

    if (ts_.ConsumeKeyword("DISTINCT")) e->distinct_arg = true;

    bool td_ordered = false;
    std::vector<OrderItem> td_order;

    if (!ts_.Peek().IsOp(")")) {
      do {
        if (ts_.Peek().IsOp("*")) {
          ts_.Next();
          e->children.push_back(std::make_unique<Expr>(ExprKind::kStar));
          continue;
        }
        HQ_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
        // Teradata argument-ordered analytic: RANK(AMOUNT DESC).
        if (dialect_.allow_td_ordered_analytics && IsTdOrderedAnalytic(name) &&
            (ts_.Peek().IsKeyword("ASC") || ts_.Peek().IsKeyword("DESC"))) {
          OrderItem oi;
          oi.descending = ts_.Next().upper == "DESC";
          oi.expr = std::move(arg);
          td_order.push_back(std::move(oi));
          td_ordered = true;
          continue;
        }
        e->children.push_back(std::move(arg));
      } while (ts_.ConsumeOp(","));
    }
    HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));

    if (td_ordered || (dialect_.allow_td_ordered_analytics &&
                       IsTdOrderedAnalytic(name) && name == "RANK" &&
                       !e->children.empty() && !ts_.Peek().IsKeyword("OVER"))) {
      // RANK(x) / RANK(x DESC): the arguments are the window ordering.
      auto w = std::make_unique<Expr>(ExprKind::kWindow);
      w->func_name = name == "RANK" ? "RANK" : name;
      w->td_ordered_analytic = true;
      if (!td_order.empty()) {
        w->window.order_by = std::move(td_order);
      }
      for (auto& arg : e->children) {
        OrderItem oi;
        oi.expr = std::move(arg);
        oi.descending = false;
        if (name == "CSUM" || name == "MSUM" || name == "MAVG") {
          // First argument is the value; the rest are ordering.
          if (w->children.empty()) {
            w->children.push_back(std::move(oi.expr));
            continue;
          }
        }
        w->window.order_by.push_back(std::move(oi));
      }
      return ExprPtr(std::move(w));
    }

    if (ts_.ConsumeKeyword("OVER")) {
      auto w = std::make_unique<Expr>(ExprKind::kWindow);
      w->func_name = std::move(e->func_name);
      w->children = std::move(e->children);
      w->distinct_arg = e->distinct_arg;
      HQ_RETURN_IF_ERROR(ParseWindowSpec(&w->window));
      return ExprPtr(std::move(w));
    }
    return ExprPtr(std::move(e));
  }

  Status ParseWindowSpec(WindowSpec* spec) {
    HQ_RETURN_IF_ERROR(ts_.ExpectOp("("));
    if (ts_.ConsumeKeyword("PARTITION")) {
      HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("BY"));
      do {
        HQ_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        spec->partition_by.push_back(std::move(e));
      } while (ts_.ConsumeOp(","));
    }
    if (ts_.Peek().IsKeyword("ORDER")) {
      HQ_ASSIGN_OR_RETURN(spec->order_by, ParseOrderByClause());
    }
    if (ts_.Peek().IsKeyword("ROWS") || ts_.Peek().IsKeyword("RANGE")) {
      // Only the default frame is supported; accept its explicit spellings.
      ts_.Next();
      if (ts_.ConsumeKeyword("UNBOUNDED")) {
        HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("PRECEDING"));
      } else {
        HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("BETWEEN"));
        HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("UNBOUNDED"));
        HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("PRECEDING"));
        HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("AND"));
        HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("CURRENT"));
        HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("ROW"));
      }
    }
    return ts_.ExpectOp(")");
  }

  Result<ExprPtr> ParseCase() {
    ts_.Next();  // CASE
    auto e = std::make_unique<Expr>(ExprKind::kCase);
    if (!ts_.Peek().IsKeyword("WHEN")) {
      HQ_ASSIGN_OR_RETURN(e->case_operand, ParseExpr());
    }
    while (ts_.ConsumeKeyword("WHEN")) {
      HQ_ASSIGN_OR_RETURN(ExprPtr when, ParseExpr());
      HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("THEN"));
      HQ_ASSIGN_OR_RETURN(ExprPtr then, ParseExpr());
      e->when_then.emplace_back(std::move(when), std::move(then));
    }
    if (e->when_then.empty()) {
      return ts_.ErrorHere("CASE requires at least one WHEN clause");
    }
    if (ts_.ConsumeKeyword("ELSE")) {
      HQ_ASSIGN_OR_RETURN(e->else_expr, ParseExpr());
    }
    HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("END"));
    return ExprPtr(std::move(e));
  }

  Result<ExprPtr> ParseCast() {
    ts_.Next();  // CAST
    ts_.Next();  // '('
    auto e = std::make_unique<Expr>(ExprKind::kCast);
    HQ_ASSIGN_OR_RETURN(ExprPtr operand, ParseExpr());
    e->children.push_back(std::move(operand));
    HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("AS"));
    HQ_ASSIGN_OR_RETURN(e->cast_type, ParseTypeNameTokens());
    HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
    return ExprPtr(std::move(e));
  }

  Result<ExprPtr> ParseExtract() {
    ts_.Next();  // EXTRACT
    ts_.Next();  // '('
    const Token& field = ts_.Peek();
    if (field.kind != TokenKind::kIdent) {
      return ts_.ErrorHere("expected EXTRACT field");
    }
    auto e = std::make_unique<Expr>(ExprKind::kExtract);
    e->func_name = field.upper;
    ts_.Next();
    HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("FROM"));
    HQ_ASSIGN_OR_RETURN(ExprPtr operand, ParseExpr());
    e->children.push_back(std::move(operand));
    HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
    return ExprPtr(std::move(e));
  }

  Result<ExprPtr> ParseTrim() {
    ts_.Next();  // TRIM
    ts_.Next();  // '('
    std::string variant = "BOTH";
    if (ts_.ConsumeKeyword("LEADING")) {
      variant = "LEADING";
    } else if (ts_.ConsumeKeyword("TRAILING")) {
      variant = "TRAILING";
    } else {
      ts_.ConsumeKeyword("BOTH");
    }
    HQ_ASSIGN_OR_RETURN(ExprPtr first, ParseExpr());
    ExprPtr operand;
    if (ts_.ConsumeKeyword("FROM")) {
      HQ_ASSIGN_OR_RETURN(operand, ParseExpr());
    } else {
      operand = std::move(first);
      first = nullptr;
    }
    HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
    std::string fname = variant == "LEADING"
                            ? "LTRIM"
                            : (variant == "TRAILING" ? "RTRIM" : "TRIM");
    std::vector<ExprPtr> args;
    args.push_back(std::move(operand));
    if (first) args.push_back(std::move(first));
    return MakeFunc(std::move(fname), std::move(args));
  }

  Result<ExprPtr> ParseSubstring() {
    ts_.Next();  // SUBSTRING
    ts_.Next();  // '('
    HQ_ASSIGN_OR_RETURN(ExprPtr value, ParseExpr());
    ExprPtr start, length;
    if (ts_.ConsumeKeyword("FROM")) {
      HQ_ASSIGN_OR_RETURN(start, ParseExpr());
      if (ts_.ConsumeKeyword("FOR")) {
        HQ_ASSIGN_OR_RETURN(length, ParseExpr());
      }
    } else {
      HQ_RETURN_IF_ERROR(ts_.ExpectOp(","));
      HQ_ASSIGN_OR_RETURN(start, ParseExpr());
      if (ts_.ConsumeOp(",")) {
        HQ_ASSIGN_OR_RETURN(length, ParseExpr());
      }
    }
    HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
    std::vector<ExprPtr> args;
    args.push_back(std::move(value));
    args.push_back(std::move(start));
    if (length) args.push_back(std::move(length));
    return MakeFunc("SUBSTR", std::move(args));
  }

  Result<ExprPtr> ParsePosition() {
    ts_.Next();  // POSITION
    ts_.Next();  // '('
    // The needle stops at additive level so the IN separator is not
    // mistaken for an IN predicate.
    HQ_ASSIGN_OR_RETURN(ExprPtr needle, ParseAdditive());
    // Both the ANSI form POSITION(a IN b) and the functional form
    // POSITION(a, b) are accepted.
    if (!ts_.ConsumeKeyword("IN")) {
      HQ_RETURN_IF_ERROR(ts_.ExpectOp(","));
    }
    HQ_ASSIGN_OR_RETURN(ExprPtr haystack, ParseExpr());
    HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
    std::vector<ExprPtr> args;
    args.push_back(std::move(needle));
    args.push_back(std::move(haystack));
    return MakeFunc("POSITION", std::move(args));
  }

  // --- DML --------------------------------------------------------------------

  Result<StatementPtr> ParseInsert() {
    ts_.Next();  // INSERT / INS
    ts_.ConsumeKeyword("INTO");
    auto stmt = std::make_unique<InsertStatement>();
    HQ_ASSIGN_OR_RETURN(stmt->table, ParseQualifiedName());
    if (ts_.Peek().IsOp("(") && !PeekSelectKeyword(1)) {
      // Column list (or Teradata bare VALUES list; disambiguate by content).
      size_t mark = ts_.position();
      ts_.Next();
      bool looks_like_columns = true;
      {
        // Columns are plain identifiers separated by commas.
        size_t probe = ts_.position();
        int depth = 1;
        while (depth > 0) {
          const Token& pt = ts_.Peek(probe - ts_.position());
          if (pt.kind == TokenKind::kEof) break;
          if (pt.IsOp("(")) ++depth;
          if (pt.IsOp(")")) --depth;
          if (depth > 0 && pt.kind != TokenKind::kIdent &&
              pt.kind != TokenKind::kQuotedIdent && !pt.IsOp(",")) {
            looks_like_columns = false;
            break;
          }
          ++probe;
        }
      }
      if (looks_like_columns) {
        do {
          HQ_ASSIGN_OR_RETURN(std::string col, ParseIdentifier());
          stmt->columns.push_back(std::move(col));
        } while (ts_.ConsumeOp(","));
        HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
      } else {
        ts_.Rewind(mark);
      }
    }
    if (ts_.ConsumeKeyword("VALUES")) {
      do {
        HQ_RETURN_IF_ERROR(ts_.ExpectOp("("));
        std::vector<ExprPtr> row;
        do {
          HQ_ASSIGN_OR_RETURN(ExprPtr v, ParseExpr());
          row.push_back(std::move(v));
        } while (ts_.ConsumeOp(","));
        HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
        stmt->values_rows.push_back(std::move(row));
      } while (ts_.ConsumeOp(","));
    } else if (PeekSelectKeyword() ||
               (ts_.Peek().IsOp("(") && PeekSelectKeyword(1))) {
      HQ_ASSIGN_OR_RETURN(stmt->source, ParseSelectStmt());
    } else if (ts_.Peek().IsOp("(")) {
      // Teradata INS t (v1, v2, ...) shorthand.
      ts_.Next();
      std::vector<ExprPtr> row;
      do {
        HQ_ASSIGN_OR_RETURN(ExprPtr v, ParseExpr());
        row.push_back(std::move(v));
      } while (ts_.ConsumeOp(","));
      HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
      stmt->values_rows.push_back(std::move(row));
    } else {
      return ts_.ErrorHere("expected VALUES or SELECT in INSERT");
    }
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseUpdate() {
    ts_.Next();  // UPDATE / UPD
    auto stmt = std::make_unique<UpdateStatement>();
    HQ_ASSIGN_OR_RETURN(stmt->table, ParseQualifiedName());
    if (IsAliasToken(ts_.Peek()) && !ts_.Peek().IsKeyword("SET")) {
      stmt->alias = ts_.Next().text;
    }
    HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("SET"));
    do {
      HQ_ASSIGN_OR_RETURN(std::string col, ParseIdentifier());
      HQ_RETURN_IF_ERROR(ts_.ExpectOp("="));
      HQ_ASSIGN_OR_RETURN(ExprPtr val, ParseExpr());
      stmt->assignments.emplace_back(std::move(col), std::move(val));
    } while (ts_.ConsumeOp(","));
    if (ts_.ConsumeKeyword("WHERE")) {
      HQ_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseDelete() {
    ts_.Next();  // DELETE / DEL
    auto stmt = std::make_unique<DeleteStatement>();
    bool saw_from = ts_.ConsumeKeyword("FROM");
    HQ_ASSIGN_OR_RETURN(stmt->table, ParseQualifiedName());
    if (!saw_from && ts_.ConsumeKeyword("ALL")) {
      return StatementPtr(std::move(stmt));  // DEL t ALL
    }
    ts_.ConsumeKeyword("ALL");
    if (ts_.ConsumeKeyword("WHERE")) {
      HQ_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseMerge() {
    ts_.Next();  // MERGE
    HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("INTO"));
    auto stmt = std::make_unique<MergeStatement>();
    HQ_ASSIGN_OR_RETURN(stmt->target, ParseQualifiedName());
    ts_.ConsumeKeyword("AS");
    if (IsAliasToken(ts_.Peek())) stmt->target_alias = ts_.Next().text;
    HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("USING"));
    HQ_ASSIGN_OR_RETURN(stmt->source, ParseTablePrimary());
    HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("ON"));
    HQ_ASSIGN_OR_RETURN(stmt->on_condition, ParseExpr());
    while (ts_.Peek().IsKeyword("WHEN")) {
      ts_.Next();
      bool matched;
      if (ts_.ConsumeKeyword("MATCHED")) {
        matched = true;
      } else {
        HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("NOT"));
        HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("MATCHED"));
        matched = false;
      }
      HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("THEN"));
      if (matched) {
        HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("UPDATE"));
        HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("SET"));
        stmt->has_matched_update = true;
        do {
          HQ_ASSIGN_OR_RETURN(std::string col, ParseIdentifier());
          HQ_RETURN_IF_ERROR(ts_.ExpectOp("="));
          HQ_ASSIGN_OR_RETURN(ExprPtr val, ParseExpr());
          stmt->update_assignments.emplace_back(std::move(col),
                                                std::move(val));
        } while (ts_.ConsumeOp(","));
      } else {
        HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("INSERT"));
        stmt->has_not_matched_insert = true;
        if (ts_.ConsumeOp("(")) {
          do {
            HQ_ASSIGN_OR_RETURN(std::string col, ParseIdentifier());
            stmt->insert_columns.push_back(std::move(col));
          } while (ts_.ConsumeOp(","));
          HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
        }
        HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("VALUES"));
        HQ_RETURN_IF_ERROR(ts_.ExpectOp("("));
        do {
          HQ_ASSIGN_OR_RETURN(ExprPtr v, ParseExpr());
          stmt->insert_values.push_back(std::move(v));
        } while (ts_.ConsumeOp(","));
        HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
      }
    }
    if (!stmt->has_matched_update && !stmt->has_not_matched_insert) {
      return ts_.ErrorHere("MERGE requires at least one WHEN clause");
    }
    return StatementPtr(std::move(stmt));
  }

  // --- DDL --------------------------------------------------------------------

  Result<StatementPtr> ParseCreateOrReplace() {
    bool replace = ts_.Peek().IsKeyword("REPLACE");
    ts_.Next();  // CREATE / REPLACE

    bool set_sem = false, multiset = false, global_temp = false,
         volatile_tbl = false;
    if (dialect_.allow_td_ddl) {
      if (ts_.ConsumeKeyword("SET")) set_sem = true;
      if (ts_.ConsumeKeyword("MULTISET")) multiset = true;
      if (ts_.Peek().IsKeyword("GLOBAL") && ts_.Peek(1).IsKeyword("TEMPORARY")) {
        ts_.Next();
        ts_.Next();
        global_temp = true;
      }
      if (ts_.ConsumeKeyword("VOLATILE")) volatile_tbl = true;
    }
    if (!dialect_.allow_td_ddl && ts_.ConsumeKeyword("TEMPORARY")) {
      volatile_tbl = true;
    }

    if (ts_.ConsumeKeyword("TABLE")) {
      return ParseCreateTable(set_sem, multiset, global_temp, volatile_tbl);
    }
    if (set_sem || multiset || global_temp || volatile_tbl) {
      return ts_.ErrorHere("expected TABLE");
    }
    if (ts_.ConsumeKeyword("VIEW")) return ParseCreateView(replace);
    if (dialect_.allow_macros && ts_.ConsumeKeyword("MACRO")) {
      return ParseCreateMacro();
    }
    return ts_.ErrorHere("unsupported CREATE object");
  }

  Result<StatementPtr> ParseCreateTable(bool set_sem, bool multiset,
                                        bool global_temp, bool volatile_tbl) {
    auto stmt = std::make_unique<CreateTableStatement>();
    stmt->set_semantics = set_sem;
    stmt->multiset_explicit = multiset;
    stmt->global_temporary = global_temp;
    stmt->volatile_table = volatile_tbl;
    HQ_ASSIGN_OR_RETURN(stmt->table, ParseQualifiedName());

    if (ts_.ConsumeKeyword("AS")) {
      HQ_RETURN_IF_ERROR(ts_.ExpectOp("("));
      HQ_ASSIGN_OR_RETURN(stmt->as_select, ParseSelectStmt());
      HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
      if (ts_.ConsumeKeyword("WITH")) {
        if (ts_.ConsumeKeyword("NO")) {
          stmt->with_data = false;
        }
        HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("DATA"));
      }
      return StatementPtr(std::move(stmt));
    }

    HQ_RETURN_IF_ERROR(ts_.ExpectOp("("));
    do {
      ColumnDefAst col;
      HQ_ASSIGN_OR_RETURN(col.name, ParseIdentifier());
      HQ_ASSIGN_OR_RETURN(col.type, ParseTypeNameTokens());
      // Column attributes in any order.
      while (true) {
        if (ts_.Peek().IsKeyword("NOT") && ts_.Peek(1).IsKeyword("NULL")) {
          ts_.Next();
          ts_.Next();
          col.not_null = true;
        } else if (ts_.ConsumeKeyword("DEFAULT")) {
          HQ_ASSIGN_OR_RETURN(col.default_expr, ParseExpr());
        } else if (dialect_.allow_td_ddl &&
                   ts_.ConsumeKeyword("CASESPECIFIC")) {
          col.case_specific = true;
        } else if (dialect_.allow_td_ddl && ts_.Peek().IsKeyword("NOT") &&
                   ts_.Peek(1).IsKeyword("CASESPECIFIC")) {
          ts_.Next();
          ts_.Next();
          col.not_case_specific = true;
        } else {
          break;
        }
      }
      stmt->columns.push_back(std::move(col));
    } while (ts_.ConsumeOp(","));
    HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));

    if (dialect_.allow_td_ddl && ts_.ConsumeKeyword("UNIQUE")) {
      // UNIQUE PRIMARY INDEX ( ... )
      HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("PRIMARY"));
      HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("INDEX"));
      HQ_RETURN_IF_ERROR(ts_.ExpectOp("("));
      do {
        HQ_ASSIGN_OR_RETURN(std::string col, ParseIdentifier());
        stmt->primary_index.push_back(std::move(col));
      } while (ts_.ConsumeOp(","));
      HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
    } else if (dialect_.allow_td_ddl && ts_.ConsumeKeyword("PRIMARY")) {
      HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("INDEX"));
      HQ_RETURN_IF_ERROR(ts_.ExpectOp("("));
      do {
        HQ_ASSIGN_OR_RETURN(std::string col, ParseIdentifier());
        stmt->primary_index.push_back(std::move(col));
      } while (ts_.ConsumeOp(","));
      HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
    }
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseCreateView(bool replace) {
    auto stmt = std::make_unique<CreateViewStatement>(replace);
    HQ_ASSIGN_OR_RETURN(stmt->view, ParseQualifiedName());
    if (ts_.ConsumeOp("(")) {
      do {
        HQ_ASSIGN_OR_RETURN(std::string col, ParseIdentifier());
        stmt->columns.push_back(std::move(col));
      } while (ts_.ConsumeOp(","));
      HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
    }
    HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("AS"));
    size_t body_begin = ts_.Peek().begin_offset;
    HQ_ASSIGN_OR_RETURN(stmt->query, ParseSelectStmt());
    size_t body_end = ts_.Peek().begin_offset;
    stmt->query_sql =
        std::string(Trim(text_.substr(body_begin, body_end - body_begin)));
    // Strip a trailing ';' that the slicing may have captured.
    while (!stmt->query_sql.empty() && stmt->query_sql.back() == ';') {
      stmt->query_sql.pop_back();
    }
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseCreateMacro() {
    auto stmt = std::make_unique<CreateMacroStatement>();
    HQ_ASSIGN_OR_RETURN(stmt->macro, ParseQualifiedName());
    if (ts_.ConsumeOp("(")) {
      do {
        CreateMacroStatement::Param p;
        HQ_ASSIGN_OR_RETURN(p.name, ParseIdentifier());
        HQ_ASSIGN_OR_RETURN(p.type, ParseTypeNameTokens());
        if (ts_.ConsumeKeyword("DEFAULT")) {
          const Token& lit = ts_.Peek();
          if (lit.kind == TokenKind::kString) {
            p.default_literal = "'" + lit.text + "'";
          } else {
            p.default_literal = lit.text;
          }
          p.has_default = true;
          ts_.Next();
        }
        stmt->params.push_back(std::move(p));
      } while (ts_.ConsumeOp(","));
      HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
    }
    HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("AS"));
    HQ_RETURN_IF_ERROR(ts_.ExpectOp("("));
    // Capture raw ';'-separated statements until the matching ')'.
    size_t stmt_begin = ts_.Peek().begin_offset;
    int depth = 1;
    while (depth > 0) {
      const Token& t = ts_.Peek();
      if (t.kind == TokenKind::kEof) {
        return ts_.ErrorHere("unterminated macro body");
      }
      if (t.IsOp("(")) ++depth;
      if (t.IsOp(")")) {
        --depth;
        if (depth == 0) {
          size_t end = t.begin_offset;
          std::string tail(
              Trim(text_.substr(stmt_begin, end - stmt_begin)));
          if (!tail.empty()) stmt->body_statements.push_back(std::move(tail));
          ts_.Next();
          break;
        }
      }
      if (t.IsOp(";") && depth == 1) {
        size_t end = t.begin_offset;
        std::string body(Trim(text_.substr(stmt_begin, end - stmt_begin)));
        if (!body.empty()) stmt->body_statements.push_back(std::move(body));
        ts_.Next();
        stmt_begin = ts_.Peek().begin_offset;
        continue;
      }
      ts_.Next();
    }
    if (stmt->body_statements.empty()) {
      return Status::SyntaxError("macro '", stmt->macro, "' has an empty body");
    }
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseDrop() {
    ts_.Next();  // DROP
    if (ts_.ConsumeKeyword("TABLE")) {
      auto stmt = std::make_unique<DropTableStatement>();
      if (ts_.Peek().IsKeyword("IF")) {
        ts_.Next();
        HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("EXISTS"));
        stmt->if_exists = true;
      }
      HQ_ASSIGN_OR_RETURN(stmt->table, ParseQualifiedName());
      return StatementPtr(std::move(stmt));
    }
    if (ts_.ConsumeKeyword("VIEW")) {
      auto stmt = std::make_unique<DropViewStatement>();
      HQ_ASSIGN_OR_RETURN(stmt->view, ParseQualifiedName());
      return StatementPtr(std::move(stmt));
    }
    if (dialect_.allow_macros && ts_.ConsumeKeyword("MACRO")) {
      auto stmt = std::make_unique<DropMacroStatement>();
      HQ_ASSIGN_OR_RETURN(stmt->macro, ParseQualifiedName());
      return StatementPtr(std::move(stmt));
    }
    return ts_.ErrorHere("unsupported DROP object");
  }

  Result<StatementPtr> ParseExecMacro() {
    ts_.Next();  // EXEC / EXECUTE
    auto stmt = std::make_unique<ExecMacroStatement>();
    HQ_ASSIGN_OR_RETURN(stmt->macro, ParseQualifiedName());
    if (ts_.ConsumeOp("(")) {
      if (!ts_.Peek().IsOp(")")) {
        do {
          // Named argument: ident '=' expr (only at top level).
          if ((ts_.Peek().kind == TokenKind::kIdent) && ts_.Peek(1).IsOp("=")) {
            std::string name = ts_.Next().upper;
            ts_.Next();  // '='
            HQ_ASSIGN_OR_RETURN(ExprPtr v, ParseExpr());
            stmt->named_args.emplace_back(std::move(name), std::move(v));
          } else {
            HQ_ASSIGN_OR_RETURN(ExprPtr v, ParseExpr());
            stmt->positional_args.push_back(std::move(v));
          }
        } while (ts_.ConsumeOp(","));
      }
      HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
    }
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseHelp() {
    ts_.Next();  // HELP
    auto stmt = std::make_unique<HelpStatement>();
    if (ts_.ConsumeKeyword("SESSION")) {
      stmt->topic = HelpStatement::Topic::kSession;
    } else if (ts_.ConsumeKeyword("TABLE")) {
      stmt->topic = HelpStatement::Topic::kTable;
      HQ_ASSIGN_OR_RETURN(stmt->object, ParseQualifiedName());
    } else if (ts_.ConsumeKeyword("DATABASE")) {
      stmt->topic = HelpStatement::Topic::kDatabase;
      if (ts_.Peek().kind == TokenKind::kIdent) {
        HQ_ASSIGN_OR_RETURN(stmt->object, ParseQualifiedName());
      }
    } else {
      return ts_.ErrorHere("unsupported HELP topic");
    }
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseCollectStats() {
    ts_.Next();  // COLLECT
    if (!ts_.ConsumeKeyword("STATISTICS") && !ts_.ConsumeKeyword("STATS")) {
      return ts_.ErrorHere("expected STATISTICS");
    }
    auto stmt = std::make_unique<CollectStatsStatement>();
    HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("ON"));
    HQ_ASSIGN_OR_RETURN(stmt->table, ParseQualifiedName());
    while (ts_.ConsumeKeyword("COLUMN")) {
      if (ts_.ConsumeOp("(")) {
        do {
          HQ_ASSIGN_OR_RETURN(std::string col, ParseIdentifier());
          stmt->columns.push_back(std::move(col));
        } while (ts_.ConsumeOp(","));
        HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
      } else {
        HQ_ASSIGN_OR_RETURN(std::string col, ParseIdentifier());
        stmt->columns.push_back(std::move(col));
      }
      ts_.ConsumeOp(",");
    }
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseSetSession() {
    ts_.Next();  // SET
    ts_.Next();  // SESSION
    auto stmt = std::make_unique<SetSessionStatement>();
    if (ts_.ConsumeKeyword("DATABASE")) {
      stmt->property = "DATABASE";
      HQ_ASSIGN_OR_RETURN(stmt->value, ParseQualifiedName());
    } else if (ts_.ConsumeKeyword("CHARSET")) {
      stmt->property = "CHARSET";
      const Token& v = ts_.Peek();
      if (v.kind == TokenKind::kString || v.kind == TokenKind::kIdent) {
        stmt->value = v.text;
        ts_.Next();
      } else {
        return ts_.ErrorHere("expected charset value");
      }
    } else {
      return ts_.ErrorHere("unsupported SET SESSION property");
    }
    return StatementPtr(std::move(stmt));
  }

  // --- shared helpers ---------------------------------------------------------

  Result<std::string> ParseIdentifier() {
    const Token& t = ts_.Peek();
    if (t.kind != TokenKind::kIdent && t.kind != TokenKind::kQuotedIdent) {
      return ts_.ErrorHere("expected identifier");
    }
    ts_.Next();
    return t.text;
  }

  Result<std::string> ParseQualifiedName() {
    HQ_ASSIGN_OR_RETURN(std::string name, ParseIdentifier());
    while (ts_.Peek().IsOp(".") &&
           (ts_.Peek(1).kind == TokenKind::kIdent ||
            ts_.Peek(1).kind == TokenKind::kQuotedIdent)) {
      ts_.Next();
      HQ_ASSIGN_OR_RETURN(std::string part, ParseIdentifier());
      name += ".";
      name += part;
    }
    return name;
  }

  Result<int64_t> ParseIntegerLiteral() {
    const Token& t = ts_.Peek();
    if (t.kind != TokenKind::kInteger) {
      return ts_.ErrorHere("expected integer literal");
    }
    ts_.Next();
    return std::strtoll(t.text.c_str(), nullptr, 10);
  }

  Result<SqlType> ParseTypeNameTokens() {
    const Token& t = ts_.Peek();
    if (t.kind != TokenKind::kIdent) return ts_.ErrorHere("expected type name");
    std::string kw = t.upper;
    ts_.Next();

    auto parse_len = [&]() -> Result<int32_t> {
      if (!ts_.ConsumeOp("(")) return 0;
      HQ_ASSIGN_OR_RETURN(int64_t n, ParseIntegerLiteral());
      HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
      return static_cast<int32_t>(n);
    };

    if (kw == "INT" || kw == "INTEGER") return SqlType::Int();
    if (kw == "SMALLINT") return SqlType::SmallInt();
    if (kw == "BYTEINT") return SqlType::SmallInt();
    if (kw == "BIGINT" || kw == "INT8") return SqlType::BigInt();
    if (kw == "DECIMAL" || kw == "NUMERIC" || kw == "DEC" ||
        kw == "NUMBER") {
      int32_t p = 18, s = 0;
      if (ts_.ConsumeOp("(")) {
        HQ_ASSIGN_OR_RETURN(int64_t pv, ParseIntegerLiteral());
        p = static_cast<int32_t>(pv);
        if (ts_.ConsumeOp(",")) {
          HQ_ASSIGN_OR_RETURN(int64_t sv, ParseIntegerLiteral());
          s = static_cast<int32_t>(sv);
        }
        HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
      }
      return SqlType::Decimal(p, s);
    }
    if (kw == "FLOAT" || kw == "REAL") return SqlType::Double();
    if (kw == "DOUBLE") {
      ts_.ConsumeKeyword("PRECISION");
      return SqlType::Double();
    }
    if (kw == "CHAR" || kw == "CHARACTER") {
      if (ts_.ConsumeKeyword("VARYING")) {
        HQ_ASSIGN_OR_RETURN(int32_t len, parse_len());
        return SqlType::Varchar(len);
      }
      HQ_ASSIGN_OR_RETURN(int32_t len, parse_len());
      return SqlType::Char(len == 0 ? 1 : len);
    }
    if (kw == "VARCHAR") {
      HQ_ASSIGN_OR_RETURN(int32_t len, parse_len());
      return SqlType::Varchar(len);
    }
    if (kw == "TEXT") return SqlType::Varchar(0);
    if (kw == "DATE") return SqlType::Date();
    if (kw == "TIME") return SqlType::Time();
    if (kw == "TIMESTAMP") return SqlType::Timestamp();
    if (kw == "BOOLEAN" || kw == "BOOL") return SqlType::Bool();
    if (kw == "PERIOD") {
      if (!dialect_.allow_period_type) {
        return Status::SyntaxError("type PERIOD is not supported in dialect '",
                                   dialect_.name, "'");
      }
      HQ_RETURN_IF_ERROR(ts_.ExpectOp("("));
      HQ_RETURN_IF_ERROR(ts_.ExpectKeyword("DATE"));
      HQ_RETURN_IF_ERROR(ts_.ExpectOp(")"));
      return SqlType::PeriodDate();
    }
    return Status::SyntaxError("unknown type name '", kw, "'");
  }

  const std::string& text_;
  TokenStream ts_;
  const Dialect& dialect_;
};

}  // namespace

Result<StatementPtr> ParseStatement(const std::string& text,
                                    const Dialect& dialect) {
  HQ_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  return ParseStatement(text, tokens, dialect);
}

Result<StatementPtr> ParseStatement(const std::string& text,
                                    const std::vector<Token>& tokens,
                                    const Dialect& dialect) {
  Parser parser(text, tokens, dialect);
  return parser.ParseSingleStatement();
}

Result<std::vector<StatementPtr>> ParseScript(const std::string& text,
                                              const Dialect& dialect) {
  HQ_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(text, tokens, dialect);
  return parser.ParseScriptStatements();
}

Result<std::vector<std::string>> SplitStatements(const std::string& text) {
  HQ_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  std::vector<std::string> out;
  size_t begin = 0;
  bool have_begin = false;
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kEof) break;
    if (t.IsOp(";")) {
      if (have_begin) {
        std::string stmt(Trim(text.substr(begin, t.begin_offset - begin)));
        if (!stmt.empty()) out.push_back(std::move(stmt));
        have_begin = false;
      }
      continue;
    }
    if (!have_begin) {
      begin = t.begin_offset;
      have_begin = true;
    }
  }
  if (have_begin) {
    std::string stmt(Trim(text.substr(begin)));
    while (!stmt.empty() && stmt.back() == ';') stmt.pop_back();
    if (!stmt.empty()) out.push_back(std::move(stmt));
  }
  return out;
}

Result<SqlType> ParseTypeName(const std::string& text,
                              const Dialect& dialect) {
  HQ_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(text, tokens, dialect);
  return parser.ParseBareTypeName();
}

}  // namespace hyperq::sql
