// vdb: the embedded "cloud data warehouse" target engine.
//
// Engine accepts SQL-B text (the ANSI-ish dialect Hyper-Q's serializer
// emits), parses it with the shared ANSI parser, binds it with the shared
// binder (vendor features disabled), and runs the resulting XTRA plan on
// the column-at-a-time executor over in-memory storage. SELECT results
// leave as ColumnBatch chunks, the one batch format the result path uses
// up to the wire (DESIGN.md §15). It plays the role of the commercial
// target systems in the paper's evaluation; see DESIGN.md for the
// substitution rationale.

#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "sql/parser.h"
#include "vdb/executor.h"
#include "vdb/storage.h"

namespace hyperq::vdb {

/// \brief Column metadata of a query result.
struct ResultColumn {
  std::string name;
  SqlType type;
};

/// \brief A fully materialized statement result. SELECT results arrive as
/// columnar `chunks` (shared, immutable ColumnBatch).
struct QueryResult {
  std::vector<ResultColumn> columns;

  /// No producer fills this field: results travel as `chunks`. It stays
  /// because the benchmark harness (tdwpbench/) still reads it.
  std::vector<Row> rows;

  std::vector<std::shared_ptr<const ColumnBatch>> chunks;

  int64_t affected_rows = 0;
  std::string command_tag;  // "SELECT", "INSERT", "CREATE TABLE", ...

  bool is_rowset() const { return !columns.empty(); }

  /// Total result rows across `chunks`.
  size_t row_count() const {
    size_t n = 0;
    for (const auto& c : chunks) n += c->rows;
    return n;
  }
};

/// \brief The target database engine. Thread-safe: one internal lock
/// serializes statement execution (concurrency experiments measure
/// throughput across engine instances/sessions at the proxy layer).
class Engine {
 public:
  Engine();

  /// \brief Parses, plans and executes one SQL-B statement.
  Result<QueryResult> Execute(const std::string& sql);

  /// \brief ';'-separated script convenience wrapper (DDL set-up etc.);
  /// returns the last statement's result.
  Result<QueryResult> ExecuteScript(const std::string& script);

  /// Storage introspection for tests/benchmarks.
  Storage* storage() { return &storage_; }
  const Catalog& catalog() const { return catalog_; }

  /// Number of statements executed so far (stress-test instrumentation).
  int64_t statements_executed() const { return statements_; }

 private:
  Result<QueryResult> ExecuteParsed(const sql::Statement& stmt);

  sql::Dialect dialect_;
  Storage storage_;
  Catalog catalog_;  // logical mirror of storage_ for the shared binder
  std::mutex mutex_;
  int64_t statements_ = 0;
};

}  // namespace hyperq::vdb
