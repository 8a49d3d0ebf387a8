// Recursive-query emulation, step by step (paper §6 / Example 4 / Fig. 7).
//
// Runs the paper's org-chart query over EMP(EMPNO, MGRNO) with the sample
// hierarchy and prints the exact WorkTable/TempTable statement sequence the
// mid-tier drives against a target without native recursion.
//
// Run: ./build/examples/example_recursive_reports

#include <cstdio>

#include "binder/binder.h"
#include "emulation/recursion.h"
#include "serializer/serializer.h"
#include "service/hyperq_service.h"
#include "transform/transformer.h"
#include "vdb/engine.h"

using namespace hyperq;

int main() {
  vdb::Engine warehouse;
  service::HyperQService hyperq(&warehouse);
  auto sid = hyperq.OpenSession("hr");
  if (!sid.ok()) return 1;

  // Paper Figure 7 sample data: {(e1,e7),(e7,e8),(e8,e10),(e9,e10),(e10,e11)}.
  const char* setup[] = {
      "CREATE TABLE EMP (EMPNO INTEGER, MGRNO INTEGER)",
      "INS INTO EMP VALUES (1, 7)",  "INS INTO EMP VALUES (7, 8)",
      "INS INTO EMP VALUES (8, 10)", "INS INTO EMP VALUES (9, 10)",
      "INS INTO EMP VALUES (10, 11)"};
  for (const char* sql : setup) {
    if (!hyperq.Submit(*sid, sql).ok()) return 1;
  }

  const char* query = R"(WITH RECURSIVE REPORTS (EMPNO, MGRNO) AS (
  SELECT EMPNO, MGRNO FROM EMP WHERE MGRNO = 10
  UNION ALL
  SELECT EMP.EMPNO, EMP.MGRNO FROM EMP, REPORTS
  WHERE REPORTS.EMPNO = EMP.MGRNO
)
SELECT EMPNO FROM REPORTS ORDER BY EMPNO)";
  std::printf("SQL-A (Example 4):\n%s\n\n", query);

  // Drive the emulation manually so we can print its trace.
  auto stmt = sql::ParseStatement(query, sql::Dialect::Teradata());
  if (!stmt.ok()) return 1;
  binder::Binder binder(hyperq.catalog(), sql::Dialect::Teradata());
  auto plan = binder.BindStatement(**stmt);
  if (!plan.ok()) {
    std::printf("bind: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  transform::Transformer xform(transform::BackendProfile::Vdb());
  binder::ColIdGenerator ids(binder::kFirstRewriteColId);
  FeatureSet features;
  if (!xform.Run(transform::Stage::kSerialization, &*plan, &ids, &features,
                 hyperq.catalog())
           .ok()) {
    return 1;
  }

  serializer::Serializer ser(transform::BackendProfile::Vdb());
  backend::BackendConnector connector(&warehouse);
  emulation::RecursionDriver driver(&ser, &connector);
  std::vector<emulation::RecursionStep> trace;
  auto result = driver.Execute(**plan, &trace);
  if (!result.ok()) {
    std::printf("emulation failed: %s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("Emulation steps (paper Figure 7):\n");
  for (size_t i = 0; i < trace.size(); ++i) {
    std::printf("  %2zu. [%-18s]", i + 1, trace[i].description.c_str());
    if (trace[i].produced_rows >= 0) {
      std::printf(" -> %lld row(s)",
                  static_cast<long long>(trace[i].produced_rows));
    }
    std::printf("\n      %s\n", trace[i].sql.c_str());
  }

  auto rows = result->DecodeRows();
  std::printf("\nEmployees reporting (directly or indirectly) to e10:\n ");
  if (rows.ok()) {
    for (const auto& row : *rows) {
      std::printf(" e%s", row[0].ToString().c_str());
    }
  }
  std::printf("\n");
  return 0;
}
