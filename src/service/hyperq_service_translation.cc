// HyperQService translation (DESIGN.md §7): the translation cache and its
// templates, the per-statement submit path, the query/DML pipeline
// (parse -> bind -> transform -> serialize -> execute), and translation-only
// requests.

#include <charconv>

#include "common/hash.h"
#include "common/stopwatch.h"
#include "emulation/macro.h"
#include "emulation/merge.h"
#include "frontend/feature_scan.h"
#include "service/hyperq_service.h"
#include "service/hyperq_service_internal.h"

namespace hyperq::service {

using sql::StmtKind;
namespace obs = observability;
using observability::names::Stage;

namespace {
// True for the statuses a cancelled/expired request surfaces; these say
// nothing about the statement itself.
bool IsLifecycleStatus(const Status& s) {
  return s.IsCancelled() || s.IsDeadlineExceeded();
}

// The serializer brackets tagged constants with control bytes while it
// records literal sites; SQL-A that already carries one of those bytes
// gets no sites, and template building falls back to value matching.
bool CanTagLiterals(const std::string& sql_a) {
  return sql_a.find_first_of(serializer::kSiteMarkerBytes) ==
         std::string::npos;
}
}  // namespace

// ---------------------------------------------------------------------------
// Translation cache (DESIGN.md §7)
// ---------------------------------------------------------------------------

Result<HyperQService::CacheProbe> HyperQService::ProbeTranslationCache(
    const std::string& sql_a, uint64_t settings_digest) {
  CacheProbe probe;
  // The identifiers are only checked against live volatile tables. With
  // none, skipping them is safe: a volatile table created later bumps the
  // catalog version, so no entry admitted now is reachable afterwards.
  const bool check_volatile =
      options_.translation_cache.enabled && HasVolatileNames();
  HQ_ASSIGN_OR_RETURN(probe.norm,
                      sql::NormalizeStatement(sql_a, check_volatile));
  if (!options_.translation_cache.enabled) return probe;
  if (!IsCacheableShape(probe.norm) ||
      (check_volatile && TouchesVolatileName(probe.norm.identifiers))) {
    translation_cache_.RecordBypass();
    return probe;
  }
  probe.catalog_version = catalog_.version();
  probe.key = MakeCacheKey(settings_digest, probe.norm, probe.catalog_version);
  auto entry = translation_cache_.Lookup(probe.key);
  if (entry == nullptr) {
    probe.candidate = true;
    return probe;
  }
  // A negative marker (the shape was proven non-parameterizable) and
  // literals that cannot be safely spliced into the incumbent template
  // (e.g. the temporal-coercion guard) both translate cold without
  // replacing the entry.
  if (entry->uncacheable) {
    translation_cache_.RecordBypass();
    return probe;
  }
  auto spliced = SpliceTranslationTemplate(*entry, probe.norm);
  if (!spliced.ok()) {
    translation_cache_.RecordBypass();
    return probe;
  }
  translation_cache_.RecordHit();
  probe.hit = true;
  probe.sql_b = std::move(*spliced);
  probe.features = entry->features;
  return probe;
}

bool HyperQService::IsCacheableShape(const sql::NormalizedStatement& norm) {
  if (norm.has_parameters) return false;
  const std::string& k = norm.first_keyword;
  // Single-statement query/DML pipeline shapes only. DDL, session
  // commands, macros, MERGE, and WITH (recursive emulation) bypass.
  return k == "SEL" || k == "SELECT" || k == "INS" || k == "INSERT" ||
         k == "UPD" || k == "UPDATE" || k == "DEL" || k == "DELETE";
}

bool HyperQService::HasVolatileNames() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !volatile_names_.empty();
}

bool HyperQService::TouchesVolatileName(
    const std::vector<std::string>& idents) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (volatile_names_.empty()) return false;
  for (const std::string& id : idents) {
    if (volatile_names_.count(id) > 0) return true;
  }
  return false;
}

uint64_t HyperQService::SettingsDigest(const SessionInfo& info) {
  // Only settings that can change the produced SQL-B participate; user and
  // session_id deliberately do not, so sessions with identical settings
  // share cache entries.
  uint64_t h = Fnv1a64(info.default_database);
  h = Fnv1a64("\x1f", h);
  h = Fnv1a64(info.charset, h);
  h = Fnv1a64("\x1f", h);
  h = Fnv1a64(info.transaction_semantics, h);
  h = Fnv1a64("\x1f", h);
  h = Fnv1a64(info.collation, h);
  return h;
}

std::string HyperQService::MakeCacheKey(uint64_t settings_digest,
                                        const sql::NormalizedStatement& norm,
                                        int64_t catalog_version) const {
  std::string key;
  key.reserve(norm.template_sql.size() + norm.literal_signature.size() +
              profile_digest_.size() + 48);
  key += norm.template_sql;
  key += '\x1f';
  key += norm.literal_signature;
  key += '\x1f';
  key += profile_digest_;
  char digits[24];
  key += '\x1f';
  key.append(digits,
             std::to_chars(digits, digits + sizeof(digits), settings_digest)
                 .ptr);
  key += '\x1f';
  key.append(digits,
             std::to_chars(digits, digits + sizeof(digits), catalog_version)
                 .ptr);
  return key;
}

void HyperQService::MaybeCacheTranslation(
    const std::string& cache_key, const sql::NormalizedStatement& norm,
    const std::string& sql_b,
    const std::vector<serializer::LiteralSite>& sites,
    const FeatureSet& features, int64_t catalog_version,
    const QueryContext* ctx) {
  // Emulation markers (e.g. the recursive-query comment) are not
  // executable SQL-B and must never be replayed from the cache.
  if (sql_b.rfind("--", 0) == 0) {
    translation_cache_.RecordBypass();
    return;
  }
  // As in ProbeTranslationCache: SQL-B identifiers are only collected
  // while some session holds a volatile table.
  const bool check_volatile = HasVolatileNames();
  std::vector<std::string> sql_b_idents;
  auto built = BuildTranslationTemplate(
      sql_b, norm, sites, check_volatile ? &sql_b_idents : nullptr);
  if (!built.ok()) {
    translation_cache_.RecordBypass();
    // Negative-cache the shape so permanently uncacheable statements skip
    // template building on every later miss. A cancelled request never
    // plants the marker: only a clean cold run rules on the shape.
    if (ctx != nullptr && ctx->cancelled()) return;
    if (IsLifecycleStatus(built.status())) return;
    CachedTranslation marker;
    marker.uncacheable = true;
    marker.catalog_version = catalog_version;
    translation_cache_.Insert(cache_key, std::move(marker));
    return;
  }
  // A view or macro can smuggle a session-scoped volatile table into the
  // serialized text even when SQL-A never names it.
  if (check_volatile && TouchesVolatileName(sql_b_idents)) {
    translation_cache_.RecordBypass();
    return;
  }
  built->features = features;
  built->catalog_version = catalog_version;
  translation_cache_.Insert(cache_key, std::move(*built));
}

void HyperQService::InvalidateTranslationCacheAfterDdl() {
  if (!options_.translation_cache.enabled) return;
  // Versioned keys already make stale entries unreachable; the sweep
  // reclaims their bytes and counts them as invalidations.
  translation_cache_.InvalidateCatalogVersion(catalog_.version());
}

void HyperQService::RecordTranslationActivity(bool translate_path,
                                              bool cache_hit, double micros) {
  if (translate_path) {
    c_translate_statements_->Inc();
  } else {
    c_submit_statements_->Inc();
  }
  if (cache_hit) c_translate_cache_hits_->Inc();
  h_translate_->Observe(micros);
}

Result<QueryOutcome> HyperQService::ExecuteCachedStatement(
    Session* session, const FeatureSet& features, std::string sql_b,
    const Stopwatch& translation, QueryContext* ctx, bool select_shape) {
  QueryOutcome out;
  out.features = features;
  out.timing.cache_hits = 1;
  // The whole parse→bind→transform→serialize pipeline was skipped;
  // translation cost is normalize + lookup + splice. The cached template
  // was emitted under the active dialect (it is part of the cache key).
  out.timing.translation_micros = translation.ElapsedMicros();
  out.timing.dialect = serializer_.dialect().Name();
  out.backend_sql.push_back(std::move(sql_b));
  const std::string& sent = out.backend_sql.back();
  Stopwatch execution;
  {
    obs::SpanScope exec_span(ctx, Stage::kBackendExecute);
    HQ_ASSIGN_OR_RETURN(out.result,
                        ExecuteOnBackend(session, sent, ctx, select_shape));
  }
  out.timing.execution_micros = execution.ElapsedMicros();
  out.timing.hedges += out.result.hedges;
  out.timing.hedge_won = out.result.hedge_won;
  AbsorbBackendStats(&out);
  return out;
}

Result<QueryOutcome> HyperQService::SubmitInternal(Session* session,
                                                   const std::string& sql_a,
                                                   int depth,
                                                   QueryContext* ctx) {
  if (depth > 8) {
    return Status::ExecutionError("statement expansion too deep (macro "
                                  "recursion?)");
  }
  // Translating-phase gate: a request cancelled before (or between)
  // statements never enters the pipeline.
  if (ctx != nullptr) {
    HQ_RETURN_IF_ERROR(ctx->CheckAlive());
  }
  Stopwatch translation;
  // The normalize+lookup probe is one stage span; a hit then proceeds to
  // backend.execute as a sibling (never nested under the lookup). A hit
  // skips the whole parse→bind→transform→serialize pipeline (and the
  // feature scan — the cached entry carries the cold run's footprint).
  obs::SpanScope cache_span(ctx, Stage::kCacheLookup);
  HQ_ASSIGN_OR_RETURN(CacheProbe probe,
                      ProbeTranslationCache(sql_a, session->settings_digest));
  cache_span.End();
  if (probe.hit) {
    bool select_shape = probe.norm.first_keyword == "SEL" ||
                        probe.norm.first_keyword == "SELECT";
    auto outcome =
        ExecuteCachedStatement(session, probe.features, std::move(probe.sql_b),
                               translation, ctx, select_shape);
    if (outcome.ok()) {
      RecordTranslationActivity(/*translate_path=*/false, /*cache_hit=*/true,
                                outcome->timing.translation_micros);
    }
    return outcome;
  }

  FeatureSet features;
  obs::SpanScope parse_span(ctx, Stage::kParse);
  HQ_ASSIGN_OR_RETURN(sql::StatementPtr stmt, ParseSqlA(sql_a, &features));
  parse_span.End();
  double parse_micros = translation.ElapsedMicros();
  bool pipeline_kind = stmt->kind == StmtKind::kSelect ||
                       stmt->kind == StmtKind::kInsert ||
                       stmt->kind == StmtKind::kUpdate ||
                       stmt->kind == StmtKind::kDelete;
  PipelineArtifacts artifacts;
  const bool cache_candidate = probe.candidate && pipeline_kind;
  artifacts.want_sites = cache_candidate && CanTagLiterals(sql_a);
  auto executed = ExecuteStatement(session, *stmt, sql_a, std::move(features),
                                   depth, ctx, &artifacts);
  if (!executed.ok()) {
    // Cancellation that struck after serialization does not impugn the
    // translation itself: admit the template so the inevitable retry of
    // this shape hits the cache instead of re-translating (DESIGN.md §8).
    if (cache_candidate && artifacts.serialized &&
        IsLifecycleStatus(executed.status())) {
      MaybeCacheTranslation(probe.key, probe.norm, artifacts.sql_b,
                            artifacts.sites, artifacts.features,
                            probe.catalog_version, ctx);
    }
    return executed.status();
  }
  QueryOutcome outcome = std::move(*executed);
  outcome.timing.translation_micros += parse_micros;
  if (cache_candidate && outcome.backend_sql.size() == 1) {
    MaybeCacheTranslation(probe.key, probe.norm, outcome.backend_sql[0],
                          artifacts.sites, outcome.features,
                          probe.catalog_version, ctx);
  }
  RecordTranslationActivity(/*translate_path=*/false, /*cache_hit=*/false,
                            outcome.timing.translation_micros);
  return outcome;
}

// ---------------------------------------------------------------------------
// Query/DML pipeline
// ---------------------------------------------------------------------------

Result<sql::StatementPtr> HyperQService::ParseSqlA(
    const std::string& sql_a, FeatureSet* features) const {
  HQ_ASSIGN_OR_RETURN(std::vector<sql::Token> tokens, sql::Tokenize(sql_a));
  HQ_RETURN_IF_ERROR(frontend::ScanTranslationFeatures(tokens, features));
  return sql::ParseStatement(sql_a, tokens, frontend_dialect_);
}

Result<xtra::OpPtr> HyperQService::Bind(const sql::Statement& stmt,
                                        FeatureSet* features,
                                        QueryContext* ctx) {
  binder::Binder binder(&catalog_, frontend_dialect_);
  xtra::OpPtr plan;
  {
    obs::SpanScope bind_span(ctx, Stage::kBind);
    std::lock_guard<std::mutex> lock(mutex_);  // catalog reads
    HQ_ASSIGN_OR_RETURN(plan, binder.BindStatement(stmt));
  }
  features->Merge(binder.features());
  return plan;
}

Result<std::string> HyperQService::LowerToSqlB(
    xtra::OpPtr* plan, FeatureSet* features, QueryContext* ctx,
    std::vector<serializer::LiteralSite>* sites) {
  binder::ColIdGenerator ids(binder::kFirstRewriteColId);
  obs::SpanScope transform_span(ctx, Stage::kTransform);
  HQ_RETURN_IF_ERROR(transformer_.Run(transform::Stage::kBinding, plan, &ids,
                                      features, &catalog_));
  // Recursive queries need mid-tier emulation rather than serialization.
  const bool recursive = (*plan)->kind == xtra::OpKind::kRecursiveCte;
  HQ_RETURN_IF_ERROR(transformer_.Run(transform::Stage::kSerialization, plan,
                                      &ids, features, &catalog_));
  if (recursive) return std::string();
  if ((*plan)->kind == xtra::OpKind::kInsert) {
    HQ_RETURN_IF_ERROR(ExpandPeriodInsert(plan->get(), features));
  }
  transform_span.End();
  obs::SpanScope serialize_span(ctx, Stage::kSerialize);
  serialize_span.Annotate("dialect", serializer_.dialect().Name());
  return serializer_.Serialize(**plan, sites);
}

Result<QueryOutcome> HyperQService::RunPipeline(Session* session,
                                                const sql::Statement& stmt,
                                                FeatureSet features,
                                                QueryContext* ctx,
                                                PipelineArtifacts* artifacts) {
  if (ctx != nullptr) {
    HQ_RETURN_IF_ERROR(ctx->CheckAlive());
  }
  Stopwatch translation;
  HQ_ASSIGN_OR_RETURN(xtra::OpPtr plan, Bind(stmt, &features, ctx));
  HQ_ASSIGN_OR_RETURN(
      std::string sql_b,
      LowerToSqlB(&plan, &features, ctx,
                  artifacts != nullptr && artifacts->want_sites
                      ? &artifacts->sites
                      : nullptr));
  QueryOutcome out;
  out.timing.translation_micros += translation.ElapsedMicros();
  out.timing.dialect = serializer_.dialect().Name();

  if (plan->kind == xtra::OpKind::kRecursiveCte) {
    Stopwatch execution;
    obs::SpanScope exec_span(ctx, Stage::kBackendExecute);
    emulation::RecursionDriver driver(&serializer_,
                                      session->connector.get());
    HQ_ASSIGN_OR_RETURN(out.result, driver.Execute(*plan, nullptr, ctx));
    exec_span.End();
    out.timing.execution_micros = execution.ElapsedMicros();
    AbsorbBackendStats(&out);
    out.features = std::move(features);
    return out;
  }

  out.backend_sql.push_back(sql_b);
  if (artifacts != nullptr) {
    // Translation is complete; record it so a cancellation during the
    // execution below does not throw the template away (DESIGN.md §8).
    artifacts->serialized = true;
    artifacts->sql_b = sql_b;
    artifacts->features = features;
  }

  Stopwatch execution;
  {
    obs::SpanScope exec_span(ctx, Stage::kBackendExecute);
    HQ_ASSIGN_OR_RETURN(out.result,
                        ExecuteOnBackend(session, sql_b, ctx,
                                         stmt.kind == StmtKind::kSelect));
  }
  out.timing.execution_micros = execution.ElapsedMicros();
  out.timing.hedges += out.result.hedges;
  out.timing.hedge_won = out.result.hedge_won;
  AbsorbBackendStats(&out);
  // DML against a session-scoped table is part of the replayable session
  // state: without it a re-established backend session would see the
  // volatile table empty.
  if (plan->kind == xtra::OpKind::kInsert ||
      plan->kind == xtra::OpKind::kUpdate ||
      plan->kind == xtra::OpKind::kDelete) {
    std::string target = Catalog::NormalizeName(plan->target_table);
    if (IsVolatileTable(session, target)) {
      AppendJournal(session,
                    {JournalEntry::Kind::kTempTableDml, sql_b, target});
    }
  }
  out.features = std::move(features);
  return out;
}

Status HyperQService::ExpandPeriodInsert(xtra::Op* insert_op,
                                         FeatureSet* features) {
  const TableDef* table;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!catalog_.HasTable(insert_op->target_table)) return Status::OK();
    HQ_ASSIGN_OR_RETURN(table, catalog_.GetTable(insert_op->target_table));
  }
  // Find PERIOD columns in the insert list.
  std::vector<size_t> period_positions;
  for (size_t i = 0; i < insert_op->target_columns.size(); ++i) {
    int idx = table->FindColumn(insert_op->target_columns[i]);
    if (idx >= 0 &&
        table->columns[idx].type.kind == TypeKind::kPeriodDate) {
      period_positions.push_back(i);
    }
  }
  if (period_positions.empty()) return Status::OK();
  features->Record(Feature::kPeriodType);
  if (insert_op->children[0]->kind != xtra::OpKind::kValues) {
    return Status::NotSupported(
        "INSERT ... SELECT into PERIOD columns is not supported; PERIOD "
        "columns are emulated as two DATE columns");
  }
  // Expand columns back-to-front to keep earlier positions stable.
  for (auto it = period_positions.rbegin(); it != period_positions.rend();
       ++it) {
    size_t pos = *it;
    std::string name = insert_op->target_columns[pos];
    insert_op->target_columns[pos] = name + "_BEGIN";
    insert_op->target_columns.insert(
        insert_op->target_columns.begin() + pos + 1, name + "_END");
    for (auto& row : insert_op->children[0]->rows) {
      xtra::ExprPtr value = std::move(row[pos]);
      xtra::ExprPtr begin_e, end_e;
      if (value->kind == xtra::ExprKind::kFunc &&
          value->func_name == "PERIOD") {
        begin_e = std::move(value->children[0]);
        end_e = std::move(value->children[1]);
      } else if (value->kind == xtra::ExprKind::kConst &&
                 value->value.is_period()) {
        auto p = value->value.period_val();
        begin_e = xtra::Const(Datum::Date(p.begin_days), SqlType::Date());
        end_e = xtra::Const(Datum::Date(p.end_days), SqlType::Date());
      } else if (value->kind == xtra::ExprKind::kConst &&
                 value->value.is_null()) {
        begin_e = xtra::Const(Datum::Null(), SqlType::Date());
        end_e = xtra::Const(Datum::Null(), SqlType::Date());
      } else {
        return Status::NotSupported(
            "PERIOD column values must be PERIOD(d1, d2) constructors");
      }
      row[pos] = std::move(begin_e);
      row.insert(row.begin() + pos + 1, std::move(end_e));
    }
  }
  return Status::OK();
}

Result<std::vector<std::string>> HyperQService::Translate(
    const std::string& sql_a, FeatureSet* features) {
  return TranslateInternal(sql_a, features, 0);
}

Result<std::vector<std::string>> HyperQService::TranslateInternal(
    const std::string& sql_a, FeatureSet* caller_features, int depth) {
  if (depth > 8) {
    return Status::ExecutionError("statement expansion too deep (macro "
                                  "recursion?)");
  }
  Stopwatch translation;
  // Translation-only requests carry no session, so they key on the
  // default session settings.
  HQ_ASSIGN_OR_RETURN(CacheProbe probe,
                      ProbeTranslationCache(sql_a, default_settings_digest_));
  if (probe.hit) {
    if (caller_features != nullptr) caller_features->Merge(probe.features);
    RecordTranslationActivity(/*translate_path=*/true, /*cache_hit=*/true,
                              translation.ElapsedMicros());
    return std::vector<std::string>{std::move(probe.sql_b)};
  }

  // This statement's own footprint, as under Submit: it is what a cache
  // entry built from it carries.
  FeatureSet features;
  HQ_ASSIGN_OR_RETURN(sql::StatementPtr stmt, ParseSqlA(sql_a, &features));
  // A query/DML statement or MERGE part: the pipeline's bind and lowering.
  auto lower = [&](const sql::Statement& part,
                   std::vector<serializer::LiteralSite>* sites)
      -> Result<std::string> {
    HQ_ASSIGN_OR_RETURN(xtra::OpPtr plan, Bind(part, &features, nullptr));
    HQ_ASSIGN_OR_RETURN(std::string sql_b,
                        LowerToSqlB(&plan, &features, nullptr, sites));
    if (plan->kind == xtra::OpKind::kRecursiveCte) {
      return std::string("-- recursive query: emulated via temp tables");
    }
    return sql_b;
  };
  std::vector<std::string> out;
  std::vector<serializer::LiteralSite> sites;
  switch (stmt->kind) {
    case StmtKind::kSelect:
    case StmtKind::kInsert:
    case StmtKind::kUpdate:
    case StmtKind::kDelete: {
      HQ_ASSIGN_OR_RETURN(
          std::string sql_b,
          lower(*stmt,
                probe.candidate && CanTagLiterals(sql_a) ? &sites : nullptr));
      out.push_back(std::move(sql_b));
      break;
    }
    case StmtKind::kMerge: {
      features.Record(Feature::kMerge);
      HQ_ASSIGN_OR_RETURN(
          std::vector<sql::StatementPtr> parts,
          emulation::LowerMerge(*stmt->As<sql::MergeStatement>()));
      for (const auto& part : parts) {
        HQ_ASSIGN_OR_RETURN(std::string sql_b, lower(*part, nullptr));
        out.push_back(std::move(sql_b));
      }
      break;
    }
    case StmtKind::kExecMacro: {
      // Expand the macro body and translate each statement; body
      // statements are themselves cacheable even though EXEC is not.
      features.Record(Feature::kMacros);
      const auto* exec = stmt->As<sql::ExecMacroStatement>();
      const MacroDef* macro;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        HQ_ASSIGN_OR_RETURN(macro, catalog_.GetMacro(exec->macro));
      }
      HQ_ASSIGN_OR_RETURN(std::vector<std::string> statements,
                          emulation::ExpandMacro(*macro, *exec));
      for (const std::string& body_sql : statements) {
        HQ_ASSIGN_OR_RETURN(
            std::vector<std::string> sub,
            TranslateInternal(body_sql, &features, depth + 1));
        out.insert(out.end(), sub.begin(), sub.end());
      }
      break;
    }
    case StmtKind::kHelp:
    case StmtKind::kSetSession:
      features.Record(Feature::kSessionCommands);
      break;
    case StmtKind::kCollectStats:
      features.Record(Feature::kStatsElimination);
      break;
    default:
      break;
  }
  if (probe.candidate && out.size() == 1) {
    MaybeCacheTranslation(probe.key, probe.norm, out[0], sites, features,
                          probe.catalog_version, /*ctx=*/nullptr);
  }
  if (caller_features != nullptr) caller_features->Merge(features);
  RecordTranslationActivity(/*translate_path=*/true, /*cache_hit=*/false,
                            translation.ElapsedMicros());
  return out;
}

}  // namespace hyperq::service
