#include "emulation/recursion.h"

#include <atomic>

#include "common/str_util.h"
#include "observability/trace.h"

namespace hyperq::emulation {

using xtra::Op;
using xtra::OpKind;
using xtra::OpPtr;
using observability::names::Stage;

namespace {
std::atomic<int64_t> g_recursion_counter{0};

void ReplaceInPlace(Op* op, const std::string& cte_upper,
                    const std::string& table) {
  for (auto& child : op->children) {
    if (child->kind == OpKind::kCteRef &&
        ToUpper(child->cte_name) == cte_upper) {
      auto get = std::make_unique<Op>(OpKind::kGet);
      get->table_name = table;
      get->alias = child->cte_name;
      get->output = child->output;  // preserve bound column ids
      child = std::move(get);
    } else {
      ReplaceInPlace(child.get(), cte_upper, table);
    }
  }
  // Subplans inside expressions.
  xtra::VisitExprs(*op, [&](const xtra::Expr& e) {
    if (e.subplan) {
      auto* mutable_plan = const_cast<Op*>(e.subplan.get());
      if (mutable_plan->kind == OpKind::kCteRef &&
          ToUpper(mutable_plan->cte_name) == cte_upper) {
        mutable_plan->kind = OpKind::kGet;
        mutable_plan->table_name = table;
        mutable_plan->alias = mutable_plan->cte_name;
      } else {
        ReplaceInPlace(mutable_plan, cte_upper, table);
      }
    }
    return true;
  });
}
}  // namespace

OpPtr ReplaceCteRefs(const Op& plan, const std::string& cte,
                     const std::string& table) {
  OpPtr clone = plan.Clone();
  std::string cte_upper = ToUpper(cte);
  if (clone->kind == OpKind::kCteRef && ToUpper(clone->cte_name) == cte_upper) {
    auto get = std::make_unique<Op>(OpKind::kGet);
    get->table_name = table;
    get->alias = clone->cte_name;
    get->output = clone->output;
    return get;
  }
  ReplaceInPlace(clone.get(), cte_upper, table);
  return clone;
}

Status RecursionDriver::Run(const std::string& what, const std::string& sql,
                            std::vector<RecursionStep>* trace,
                            int64_t* affected, QueryContext* ctx) {
  auto result = connector_->Execute(sql, ctx);
  if (!result.ok()) {
    return result.status().WithContext("recursion emulation step '" + what +
                                       "'");
  }
  if (affected != nullptr) *affected = result->affected_rows;
  if (trace != nullptr) {
    trace->push_back({what, sql, result->affected_rows});
  }
  return Status::OK();
}

Result<backend::BackendResult> RecursionDriver::Execute(
    const Op& plan, std::vector<RecursionStep>* trace, QueryContext* ctx) {
  if (plan.kind != OpKind::kRecursiveCte) {
    return Status::Internal("RecursionDriver requires a kRecursiveCte plan");
  }
  const Op& seed = *plan.children[0];
  const Op& recursive = *plan.children[1];
  const Op& main = *plan.children[2];

  int64_t id = g_recursion_counter.fetch_add(1);
  std::string wt = "HQ_WT_" + std::to_string(id);   // WorkTable
  std::string tt = "HQ_TT_" + std::to_string(id);   // TempTable
  std::string nx = "HQ_NX_" + std::to_string(id);   // next delta

  // Column list from the CTE schema; types from the seed branch.
  std::string col_defs, col_list;
  for (size_t i = 0; i < plan.cte_columns.size(); ++i) {
    if (i > 0) {
      col_defs += ", ";
      col_list += ", ";
    }
    col_defs += plan.cte_columns[i] + " " + seed.output[i].type.ToString();
    col_list += plan.cte_columns[i];
  }

  auto cleanup = [&]() {
    // Deliberately not passed `ctx`: a cancelled recursion must still drop
    // its temp tables, or every cancel would leak session-scoped state.
    (void)connector_->Execute("DROP TABLE IF EXISTS " + wt);
    (void)connector_->Execute("DROP TABLE IF EXISTS " + tt);
    (void)connector_->Execute("DROP TABLE IF EXISTS " + nx);
    for (const std::string& t : {wt, tt, nx}) {
      connector_->ForgetSessionTable(t);
    }
  };

  auto run_all = [&]() -> Status {
    for (const std::string& t : {wt, tt, nx}) {
      // WorkTables are session-scoped on a real backend: a session loss
      // mid-recursion takes them down, and the service re-runs the whole
      // statement after replaying its journal.
      connector_->NoteSessionTable(t);
      HQ_RETURN_IF_ERROR(
          Run("create " + t, "CREATE TABLE " + t + " (" + col_defs + ")",
              trace, nullptr, ctx));
    }
    // Step 1: seed both tables.
    HQ_ASSIGN_OR_RETURN(std::string seed_sql, serializer_->Serialize(seed));
    HQ_RETURN_IF_ERROR(Run("seed WorkTable",
                           "INSERT INTO " + wt + " (" + col_list + ") " +
                               seed_sql,
                           trace, nullptr, ctx));
    HQ_RETURN_IF_ERROR(Run("seed TempTable",
                           "INSERT INTO " + tt + " (" + col_list + ") " +
                               seed_sql,
                           trace, nullptr, ctx));

    // Steps 2..n: iterate until a fixed point.
    for (int iter = 0; iter < max_iterations_; ++iter) {
      // One trace span per iteration, so a slow recursive query's log
      // shows where the fixed-point loop spent its time.
      observability::SpanScope iter_span(ctx, Stage::kRecursionIteration);
      // An unbounded recursion is the canonical runaway query: check the
      // lifecycle at every iteration boundary, not just per statement.
      if (ctx != nullptr) HQ_RETURN_IF_ERROR(ctx->CheckAlive());
      OpPtr step = ReplaceCteRefs(recursive, plan.cte_name, tt);
      HQ_ASSIGN_OR_RETURN(std::string step_sql,
                          serializer_->Serialize(*step));
      int64_t produced = 0;
      HQ_RETURN_IF_ERROR(Run("iterate " + std::to_string(iter + 1),
                             "INSERT INTO " + nx + " (" + col_list + ") " +
                                 step_sql,
                             trace, &produced, ctx));
      if (produced == 0) break;  // recursion reached its fixed point
      HQ_RETURN_IF_ERROR(Run("append to WorkTable",
                             "INSERT INTO " + wt + " (" + col_list +
                                 ") SELECT " + col_list + " FROM " + nx,
                             trace, nullptr, ctx));
      HQ_RETURN_IF_ERROR(
          Run("swap TempTable", "DELETE FROM " + tt, trace, nullptr, ctx));
      HQ_RETURN_IF_ERROR(Run("swap TempTable",
                             "INSERT INTO " + tt + " (" + col_list +
                                 ") SELECT " + col_list + " FROM " + nx,
                             trace, nullptr, ctx));
      HQ_RETURN_IF_ERROR(Run("clear delta", "DELETE FROM " + nx, trace,
                             nullptr, ctx));
      if (iter + 1 == max_iterations_) {
        return Status::ExecutionError(
            "recursive query exceeded the iteration limit (",
            max_iterations_, ")");
      }
    }
    return Status::OK();
  };

  Status s = run_all();
  if (!s.ok()) {
    cleanup();
    return s;
  }

  // Step 5: main query against the WorkTable.
  OpPtr final_plan = ReplaceCteRefs(main, plan.cte_name, wt);
  auto final_sql = serializer_->Serialize(*final_plan);
  if (!final_sql.ok()) {
    cleanup();
    return final_sql.status();
  }
  auto result = connector_->Execute(*final_sql, ctx);
  if (trace != nullptr) {
    trace->push_back({"main", *final_sql,
                      result.ok() ? static_cast<int64_t>(0) : -1});
  }
  // Step 6: drop the temporary tables.
  cleanup();
  if (trace != nullptr) trace->push_back({"cleanup", "DROP TABLEs", -1});
  return result;
}

}  // namespace hyperq::emulation
