// In-memory storage of the vdb target engine: a column store whose tables
// are each one immutable ColumnBatch.
//
// vdb stands in for the commercial cloud data warehouse of the paper's
// evaluation (see DESIGN.md, substitution table). Its scan and filter speed
// sets the denominator of every "Hyper-Q share of execution" figure, so it
// matters: a scan shares the table's batch without copying, and INSERT,
// UPDATE and DELETE publish a successor batch (UPDATE shares every column
// it did not assign). Published batches are never mutated, so a result
// read before a write keeps its rows (DESIGN.md §15).

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "types/type.h"
#include "vdb/column_batch.h"

namespace hyperq::vdb {

struct TableColumn {
  std::string name;
  SqlType type;
  bool not_null = false;
};

/// \brief One stored table. Access is guarded by the engine-level lock
/// (vdb serializes statements); readers share `data` by copying the pointer.
struct Table {
  std::string name;
  std::vector<TableColumn> columns;
  /// The stored rows. Never null: typed by `columns` even at 0 rows. A
  /// statement replaces it with a successor batch once it has succeeded.
  std::shared_ptr<const ColumnBatch> data;

  int FindColumn(const std::string& col_name) const;
  std::vector<SqlType> ColumnTypes() const;

  /// \brief Publishes `data` followed by the rows of `more` (laid out as
  /// `columns`) as the table's successor batch.
  void Append(std::shared_ptr<const ColumnBatch> more);
};

/// \brief Name → table registry (case-insensitive).
class Storage {
 public:
  Status CreateTable(const std::string& name,
                     std::vector<TableColumn> columns);
  Status DropTable(const std::string& name, bool if_exists);
  Result<Table*> GetTable(const std::string& name);
  bool HasTable(const std::string& name) const;

 private:
  static std::string Key(const std::string& name);
  std::map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace hyperq::vdb
