// Quickstart: run a Teradata-dialect application against a modern target
// without changing a line of its SQL.
//
//   1. stand up the target warehouse (the embedded vdb engine),
//   2. put Hyper-Q in front of it,
//   3. submit SQL-A — including the paper's Example 2 with QUALIFY,
//      vector subqueries and date-integer comparison — and read results.
//
// Build & run:  cmake --build build && ./build/examples/example_quickstart

#include <cstdio>

#include "service/hyperq_service.h"
#include "vdb/engine.h"

using namespace hyperq;

namespace {

void Run(service::HyperQService& service, uint32_t sid,
         const std::string& sql) {
  auto outcome = service.Submit(sid, sql);
  if (!outcome.ok()) {
    std::printf("!! %s\n", outcome.status().ToString().c_str());
    return;
  }
  std::printf("SQL-A> %s\n", sql.c_str());
  for (const auto& b : outcome->backend_sql) {
    std::printf("SQL-B> %s\n", b.c_str());
  }
  if (outcome->result.is_rowset()) {
    auto rows = outcome->result.DecodeRows();
    if (rows.ok()) {
      for (const auto& col : outcome->result.columns()) {
        std::printf("%-14s", col.name.c_str());
      }
      std::printf("\n");
      for (const auto& row : *rows) {
        for (const auto& v : row) {
          std::printf("%-14s", v.ToString(/*teradata_style=*/true).c_str());
        }
        std::printf("\n");
      }
    }
  } else {
    std::printf("-- %s, %lld row(s) affected\n",
                outcome->result.command_tag.c_str(),
                static_cast<long long>(outcome->result.affected_rows));
  }
  std::printf("   features: %s | translate %.0fus, execute %.0fus\n\n",
              outcome->features.ToString().c_str(),
              outcome->timing.translation_micros,
              outcome->timing.execution_micros);
}

}  // namespace

int main() {
  vdb::Engine warehouse;                      // the modern target (DB-B)
  service::HyperQService hyperq(&warehouse);  // the virtualization layer
  auto sid = hyperq.OpenSession("appuser");
  if (!sid.ok()) return 1;

  // DDL flows through Hyper-Q's schema translation.
  Run(hyperq, *sid,
      "CREATE TABLE SALES (AMOUNT DECIMAL(12,2), SALES_DATE DATE, "
      "STORE INTEGER, PRODUCT_NAME VARCHAR(64))");
  Run(hyperq, *sid,
      "CREATE TABLE SALES_HISTORY (GROSS DECIMAL(12,2), NET DECIMAL(12,2))");

  // Teradata-style abbreviated DML.
  Run(hyperq, *sid,
      "INS INTO SALES VALUES (100.00, DATE '2014-06-01', 1, 'widget')");
  Run(hyperq, *sid,
      "INS INTO SALES VALUES (250.00, DATE '2014-07-04', 2, 'gadget')");
  Run(hyperq, *sid,
      "INS INTO SALES VALUES (50.00, DATE '2013-02-02', 1, 'legacy')");
  Run(hyperq, *sid, "INS INTO SALES_HISTORY VALUES (60.00, 40.00)");

  // The paper's Example 2, verbatim Teradata-isms and all.
  Run(hyperq, *sid, R"(SEL *
FROM SALES
WHERE SALES_DATE > 1140101
  AND (AMOUNT, AMOUNT * 0.85) > ANY (SEL GROSS, NET FROM SALES_HISTORY)
QUALIFY RANK(AMOUNT DESC) <= 10)");

  hyperq.CloseSession(*sid);
  return 0;
}
