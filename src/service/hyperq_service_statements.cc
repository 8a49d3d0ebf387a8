// HyperQService statement handlers: DDL/DML/session statements answered by
// the mid-tier or forwarded to the target, and ;-scripts with single-row
// DML batching (paper §4.3).

#include <algorithm>
#include <iterator>

#include "common/stopwatch.h"
#include "common/str_util.h"
#include "emulation/macro.h"
#include "emulation/merge.h"
#include "service/hyperq_service.h"
#include "service/hyperq_service_internal.h"

namespace hyperq::service {

using backend::BackendResult;
using sql::StmtKind;
namespace obs = observability;

namespace {
// Folds one statement of a multi-statement expansion (macro body, MERGE
// parts) into the combined outcome; the last part's result is the
// outcome's, with every part's activity summed into `activity`.
void AbsorbPart(QueryOutcome* combined, QueryOutcome one, int64_t* activity) {
  *activity += one.result.affected_rows;
  TimingBreakdown& t = combined->timing;
  t.translation_micros += one.timing.translation_micros;
  t.execution_micros += one.timing.execution_micros;
  t.retry_backoff_micros += one.timing.retry_backoff_micros;
  t.execution_attempts += one.timing.execution_attempts;
  t.cache_hits += one.timing.cache_hits;
  if (t.dialect.empty()) t.dialect = one.timing.dialect;
  combined->features.Merge(one.features);
  combined->backend_sql.insert(combined->backend_sql.end(),
                               one.backend_sql.begin(),
                               one.backend_sql.end());
  combined->result = std::move(one.result);
}
}  // namespace

// ---------------------------------------------------------------------------
// Local result packaging
// ---------------------------------------------------------------------------

BackendResult HyperQService::PackageLocal(
    const emulation::LocalResult& local) {
  BackendResult out;
  std::vector<backend::TdfColumn> columns;
  std::vector<SqlType> types;
  types.reserve(local.columns.size());
  for (const auto& col : local.columns) {
    columns.push_back({col.name, col.type});
    types.push_back(col.type);
  }
  out.store = std::make_shared<backend::ResultStore>();
  out.store->set_schema(std::move(columns));
  std::shared_ptr<const vdb::ColumnBatch> batch =
      vdb::BatchFromRows(types, local.rows, 0, local.rows.size());
  (void)out.store->AppendBatch(batch, 0, batch->rows);
  out.command_tag = "HELP";
  return out;
}

QueryOutcome HyperQService::CommandOutcome(const std::string& tag,
                                           FeatureSet features) {
  QueryOutcome out;
  out.result.command_tag = tag;
  out.features = std::move(features);
  return out;
}

Result<QueryOutcome> HyperQService::ExecuteStatement(
    Session* session, const sql::Statement& stmt, const std::string& sql_a,
    FeatureSet features, int depth, QueryContext* ctx,
    PipelineArtifacts* artifacts) {
  switch (stmt.kind) {
    case StmtKind::kSelect:
    case StmtKind::kInsert:
    case StmtKind::kUpdate:
    case StmtKind::kDelete:
      return RunPipeline(session, stmt, std::move(features), ctx, artifacts);

    case StmtKind::kCreateTable:
      return HandleCreateTable(session,
                               *stmt.As<sql::CreateTableStatement>(),
                               std::move(features), ctx);
    case StmtKind::kDropTable:
      return HandleDropTable(session, *stmt.As<sql::DropTableStatement>(),
                             std::move(features), ctx);

    case StmtKind::kCreateView:
    case StmtKind::kReplaceView: {
      const auto* cv = stmt.As<sql::CreateViewStatement>();
      ViewDef view;
      view.name = Catalog::NormalizeName(cv->view);
      view.column_names = cv->columns;
      view.definition_sql = cv->query_sql;
      std::lock_guard<std::mutex> lock(mutex_);
      if (stmt.kind == StmtKind::kReplaceView && catalog_.HasView(cv->view)) {
        HQ_RETURN_IF_ERROR(catalog_.DropView(cv->view));
      }
      HQ_RETURN_IF_ERROR(catalog_.CreateView(std::move(view)));
      InvalidateTranslationCacheAfterDdl();
      return CommandOutcome("CREATE VIEW", std::move(features));
    }
    case StmtKind::kDropView: {
      std::lock_guard<std::mutex> lock(mutex_);
      HQ_RETURN_IF_ERROR(
          catalog_.DropView(stmt.As<sql::DropViewStatement>()->view));
      InvalidateTranslationCacheAfterDdl();
      return CommandOutcome("DROP VIEW", std::move(features));
    }

    case StmtKind::kCreateMacro: {
      const auto* cm = stmt.As<sql::CreateMacroStatement>();
      MacroDef macro;
      macro.name = Catalog::NormalizeName(cm->macro);
      for (const auto& p : cm->params) {
        macro.params.push_back(
            {p.name, p.type, p.default_literal, p.has_default});
      }
      macro.body_statements = cm->body_statements;
      features.Record(Feature::kMacros);
      std::lock_guard<std::mutex> lock(mutex_);
      HQ_RETURN_IF_ERROR(catalog_.CreateMacro(std::move(macro)));
      InvalidateTranslationCacheAfterDdl();
      return CommandOutcome("CREATE MACRO", std::move(features));
    }
    case StmtKind::kDropMacro: {
      features.Record(Feature::kMacros);
      std::lock_guard<std::mutex> lock(mutex_);
      HQ_RETURN_IF_ERROR(
          catalog_.DropMacro(stmt.As<sql::DropMacroStatement>()->macro));
      InvalidateTranslationCacheAfterDdl();
      return CommandOutcome("DROP MACRO", std::move(features));
    }

    case StmtKind::kExecMacro: {
      const auto* exec = stmt.As<sql::ExecMacroStatement>();
      features.Record(Feature::kMacros);
      const MacroDef* macro;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        HQ_ASSIGN_OR_RETURN(macro, catalog_.GetMacro(exec->macro));
      }
      HQ_ASSIGN_OR_RETURN(std::vector<std::string> statements,
                          emulation::ExpandMacro(*macro, *exec));
      QueryOutcome combined;
      combined.features = std::move(features);
      int64_t total_activity = 0;
      for (const std::string& body_sql : statements) {
        HQ_ASSIGN_OR_RETURN(QueryOutcome one,
                            SubmitInternal(session, body_sql, depth + 1,
                                           ctx));
        AbsorbPart(&combined, std::move(one), &total_activity);
      }
      combined.result.affected_rows = total_activity;
      return combined;
    }

    case StmtKind::kMerge: {
      features.Record(Feature::kMerge);
      HQ_ASSIGN_OR_RETURN(
          std::vector<sql::StatementPtr> parts,
          emulation::LowerMerge(*stmt.As<sql::MergeStatement>()));
      QueryOutcome combined;
      combined.features = std::move(features);
      int64_t total_activity = 0;
      for (const auto& part : parts) {
        HQ_ASSIGN_OR_RETURN(QueryOutcome one,
                            RunPipeline(session, *part, FeatureSet(), ctx));
        AbsorbPart(&combined, std::move(one), &total_activity);
      }
      combined.result.affected_rows = total_activity;
      combined.result.command_tag = "MERGE";
      return combined;
    }

    case StmtKind::kHelp: {
      features.Record(Feature::kSessionCommands);
      emulation::LocalResult local;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        HQ_ASSIGN_OR_RETURN(local,
                            emulation::AnswerHelp(
                                *stmt.As<sql::HelpStatement>(),
                                session->info, catalog_));
      }
      QueryOutcome out;
      out.result = PackageLocal(local);
      out.features = std::move(features);
      return out;
    }
    case StmtKind::kSetSession: {
      features.Record(Feature::kSessionCommands);
      HQ_RETURN_IF_ERROR(emulation::ApplySetSession(
          *stmt.As<sql::SetSessionStatement>(), &session->info));
      // New settings → new cache-key digest: every entry built under the
      // old settings becomes unreachable for this session at once.
      session->settings_digest = SettingsDigest(session->info);
      AppendJournal(session,
                    {JournalEntry::Kind::kSetSession, sql_a, ""});
      return CommandOutcome("SET SESSION", std::move(features));
    }

    case StmtKind::kCollectStats: {
      // "Statements in SQL-A need to be translated into zero, one, or more
      // terms": physical-design statements translate to zero statements.
      features.Record(Feature::kStatsElimination);
      return CommandOutcome("COLLECT STATISTICS", std::move(features));
    }

    case StmtKind::kBeginTxn:
      features.Record(Feature::kTxnShorthand);
      ++session->txn_depth;
      return CommandOutcome("BEGIN TRANSACTION", std::move(features));
    case StmtKind::kEndTxn:
      features.Record(Feature::kTxnShorthand);
      if (session->txn_depth > 0) --session->txn_depth;
      return CommandOutcome("END TRANSACTION", std::move(features));
    case StmtKind::kCommit:
    case StmtKind::kRollback:
      return CommandOutcome(
          stmt.kind == StmtKind::kCommit ? "COMMIT" : "ROLLBACK",
          std::move(features));
  }
  (void)sql_a;
  return Status::Internal("unhandled statement kind in service");
}

// ---------------------------------------------------------------------------
// DDL translation
// ---------------------------------------------------------------------------

namespace {
// Renders a column default expression for the DTM catalog.
Result<std::string> RenderDefault(const sql::Expr& e) {
  if (e.kind == sql::ExprKind::kFunc) {
    return ToUpper(e.func_name);  // niladic: CURRENT_DATE etc.
  }
  return emulation::RenderConstExpr(e);
}

bool IsConstantDefault(const sql::Expr& e) {
  return e.kind == sql::ExprKind::kConst ||
         (e.kind == sql::ExprKind::kUnary &&
          e.uop == sql::UnaryOp::kNeg &&
          e.children[0]->kind == sql::ExprKind::kConst);
}
}  // namespace

Result<QueryOutcome> HyperQService::HandleCreateTable(
    Session* session, const sql::CreateTableStatement& ct,
    FeatureSet features, QueryContext* ctx) {
  if (ct.as_select) {
    // CREATE TABLE AS: emulate as CREATE TABLE + INSERT ... SELECT.
    binder::Binder binder(&catalog_, frontend_dialect_);
    xtra::OpPtr plan;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      HQ_ASSIGN_OR_RETURN(plan, binder.BindSelect(*ct.as_select));
    }
    features.Merge(binder.features());
    // Register the table shape, then funnel the data through the pipeline.
    TableDef def;
    def.name = Catalog::NormalizeName(ct.table);
    std::string ddl = "CREATE TABLE " + def.name + " (";
    for (size_t i = 0; i < plan->output.size(); ++i) {
      ColumnDef col;
      col.name = ToUpper(plan->output[i].name);
      col.type = plan->output[i].type;
      if (col.type.kind == TypeKind::kNull) col.type = SqlType::Varchar(0);
      if (i > 0) ddl += ", ";
      ddl += col.name + " " + col.type.ToString();
      def.columns.push_back(std::move(col));
    }
    ddl += ")";
    // Lower the data query before any side effect: a query that cannot be
    // lowered leaves no table behind.
    std::string select_sql;
    if (ct.with_data) {
      HQ_ASSIGN_OR_RETURN(select_sql,
                          LowerToSqlB(&plan, &features, ctx, nullptr));
      if (plan->kind == xtra::OpKind::kRecursiveCte) {
        return Status::NotSupported(
            "CREATE TABLE AS over a recursive query is not supported; "
            "recursion requires mid-tier emulation");
      }
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      HQ_RETURN_IF_ERROR(catalog_.CreateTable(def));
    }
    InvalidateTranslationCacheAfterDdl();
    QueryOutcome out;
    Stopwatch execution;
    auto ddl_result = session->connector->Execute(ddl, ctx);
    if (!ddl_result.ok()) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        (void)catalog_.DropTable(def.name);
      }
      InvalidateTranslationCacheAfterDdl();
      return ddl_result.status();
    }
    out.backend_sql.push_back(ddl);
    if (ct.with_data) {
      std::string insert_sql =
          "INSERT INTO " + def.name + " " + select_sql;
      out.backend_sql.push_back(insert_sql);
      HQ_ASSIGN_OR_RETURN(out.result,
                          session->connector->Execute(insert_sql, ctx));
    }
    out.timing.execution_micros = execution.ElapsedMicros();
    AbsorbBackendStats(&out);
    out.result.command_tag = "CREATE TABLE";
    out.features = std::move(features);
    return out;
  }

  TableDef def;
  def.name = Catalog::NormalizeName(ct.table);
  def.semantics =
      ct.set_semantics ? TableSemantics::kSet : TableSemantics::kMultiset;
  def.is_global_temporary = ct.global_temporary || ct.volatile_table;
  if (ct.set_semantics) features.Record(Feature::kSetSemantics);
  if (def.is_global_temporary) features.Record(Feature::kTemporaryTables);

  std::string ddl = "CREATE TABLE " + def.name + " (";
  bool first = true;
  for (const auto& c : ct.columns) {
    ColumnDef col;
    col.name = ToUpper(c.name);
    col.type = c.type;
    col.nullable = !c.not_null;
    if (c.not_case_specific) {
      col.props.case_insensitive = true;
      features.Record(Feature::kColumnProperties);
    }
    if (c.default_expr) {
      HQ_ASSIGN_OR_RETURN(col.props.default_expr,
                          RenderDefault(*c.default_expr));
      col.props.has_default = true;
      if (!IsConstantDefault(*c.default_expr)) {
        features.Record(Feature::kColumnProperties);
      }
    }
    auto emit = [&](const std::string& name, const SqlType& type,
                    bool not_null) {
      if (!first) ddl += ", ";
      first = false;
      ddl += name + " " + type.ToString();
      if (not_null) ddl += " NOT NULL";
    };
    if (c.type.kind == TypeKind::kPeriodDate) {
      // PERIOD has no target equivalent: two DATE columns + DTM metadata
      // (paper §2.2.2 "Assumed Independence").
      features.Record(Feature::kPeriodType);
      emit(col.name + "_BEGIN", SqlType::Date(), c.not_null);
      emit(col.name + "_END", SqlType::Date(), c.not_null);
    } else {
      emit(col.name, c.type, c.not_null);
    }
    def.columns.push_back(std::move(col));
  }
  ddl += ")";
  // PRIMARY INDEX is physical design: not portable, intentionally dropped
  // (paper Appendix A, Schema Conversion).

  {
    std::lock_guard<std::mutex> lock(mutex_);
    HQ_RETURN_IF_ERROR(catalog_.CreateTable(def));
  }
  InvalidateTranslationCacheAfterDdl();
  Stopwatch execution;
  auto exec_result = session->connector->Execute(ddl, ctx);
  if (!exec_result.ok()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      (void)catalog_.DropTable(def.name);
    }
    InvalidateTranslationCacheAfterDdl();
    return exec_result.status();
  }
  if (ct.volatile_table) {
    session->volatile_tables.push_back(def.name);
    // Session-scoped on a real backend: record it for failover replay and
    // tell the connector so a lost session drops its backend shadow.
    session->connector->NoteSessionTable(def.name);
    AppendJournal(session,
                  {JournalEntry::Kind::kTempTableDdl, ddl, def.name});
    // Register the name globally: other sessions' cache lookups must
    // bypass statements touching it (a cached plan may not leak a
    // session-scoped table).
    std::lock_guard<std::mutex> lock(mutex_);
    ++volatile_names_[def.name];
  }
  QueryOutcome out;
  out.backend_sql.push_back(ddl);
  out.result = std::move(exec_result).value();
  out.result.command_tag = "CREATE TABLE";
  out.timing.execution_micros = execution.ElapsedMicros();
  AbsorbBackendStats(&out);
  out.features = std::move(features);
  return out;
}

Result<QueryOutcome> HyperQService::HandleDropTable(
    Session* session, const sql::DropTableStatement& dt,
    FeatureSet features, QueryContext* ctx) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (catalog_.HasTable(dt.table)) {
      HQ_RETURN_IF_ERROR(catalog_.DropTable(dt.table));
    } else if (!dt.if_exists) {
      return Status::CatalogError("table '", dt.table, "' does not exist");
    }
  }
  Stopwatch execution;
  std::string normalized = Catalog::NormalizeName(dt.table);
  std::string ddl = "DROP TABLE " +
                    std::string(dt.if_exists ? "IF EXISTS " : "") +
                    normalized;
  HQ_ASSIGN_OR_RETURN(BackendResult result,
                      session->connector->Execute(ddl, ctx));
  if (IsVolatileTable(session, normalized)) {
    auto& vt = session->volatile_tables;
    vt.erase(std::remove(vt.begin(), vt.end(), normalized), vt.end());
    session->connector->ForgetSessionTable(normalized);
    CompactJournal(session, normalized);
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = volatile_names_.find(normalized);
    if (it != volatile_names_.end() && --it->second <= 0) {
      volatile_names_.erase(it);
    }
  }
  InvalidateTranslationCacheAfterDdl();
  QueryOutcome out;
  out.backend_sql.push_back(ddl);
  out.result = std::move(result);
  out.result.command_tag = "DROP TABLE";
  out.timing.execution_micros = execution.ElapsedMicros();
  AbsorbBackendStats(&out);
  out.features = std::move(features);
  return out;
}

// ---------------------------------------------------------------------------
// Script submission with single-row DML batching (paper §4.3)
// ---------------------------------------------------------------------------

Result<QueryOutcome> HyperQService::SubmitScript(
    const QueryRequest& request) {
  return SubmitStatements(request, request.sql, /*script=*/true);
}

std::vector<HyperQService::ScriptStep> HyperQService::BatchSingleRowInserts(
    std::vector<std::string> statements) const {
  // Batch runs of single-row INSERT ... VALUES into the same table.
  std::vector<ScriptStep> batched;
  size_t i = 0;
  while (i < statements.size()) {
    const std::string& stmt = statements[i];
    auto parsed = sql::ParseStatement(stmt, frontend_dialect_);
    bool single_row_insert =
        parsed.ok() &&
        (*parsed)->kind == StmtKind::kInsert &&
        (*parsed)->As<sql::InsertStatement>()->values_rows.size() == 1 &&
        (*parsed)->As<sql::InsertStatement>()->source == nullptr;
    if (!single_row_insert) {
      batched.push_back({stmt, {}});
      ++i;
      continue;
    }
    // Extend the run while the statements share the prefix up to VALUES.
    auto prefix_of = [](const std::string& s) -> std::string {
      auto pos = ToUpper(s).find("VALUES");
      return pos == std::string::npos ? s : ToUpper(s.substr(0, pos));
    };
    std::string prefix = prefix_of(stmt);
    std::string merged = stmt;
    size_t j = i + 1;
    while (j < statements.size()) {
      const std::string& next = statements[j];
      if (prefix_of(next) != prefix) break;
      auto next_parsed = sql::ParseStatement(next, frontend_dialect_);
      if (!next_parsed.ok() ||
          (*next_parsed)->kind != StmtKind::kInsert ||
          (*next_parsed)->As<sql::InsertStatement>()->values_rows.size() !=
              1) {
        break;
      }
      auto vpos = ToUpper(next).find("VALUES");
      merged += ", " + std::string(Trim(next.substr(vpos + 6)));
      ++j;
    }
    ScriptStep step{std::move(merged), {}};
    if (j - i > 1) {
      step.run.assign(std::make_move_iterator(statements.begin() + i),
                      std::make_move_iterator(statements.begin() + j));
    }
    batched.push_back(std::move(step));
    i = j;
  }
  return batched;
}

}  // namespace hyperq::service
