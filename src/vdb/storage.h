// In-memory storage of the vdb target engine: row-oriented tables, each
// with a cached, immutable columnar snapshot that scans share.
//
// vdb stands in for the commercial cloud data warehouse of the paper's
// evaluation (see DESIGN.md, substitution table). Its scan and filter speed
// sets the denominator of every "Hyper-Q share of execution" figure, so it
// matters: a scan shares the snapshot without copying, and UPDATE and
// DELETE publish a successor snapshot that shares every column they did
// not change, instead of leaving the next scan to rebuild the table
// (DESIGN.md §15).

#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "types/datum.h"
#include "types/type.h"
#include "vdb/column_batch.h"

namespace hyperq::vdb {

struct TableColumn {
  std::string name;
  SqlType type;
  bool not_null = false;
};

/// \brief One stored table. Row access is guarded by the engine-level lock
/// (vdb serializes DML; concurrent reads share snapshots by copy).
struct Table {
  std::string name;
  std::vector<TableColumn> columns;
  std::vector<Row> rows;
  /// Bumped by every DML statement that mutates `rows`; invalidates the
  /// cached columnar snapshot.
  uint64_t version = 0;

  int FindColumn(const std::string& col_name) const;

  /// \brief Columnar view of the current rows. The batch is immutable and
  /// shared: repeated scans of an unmodified table reuse one snapshot with
  /// no copying. Callers must hold the engine lock (same rule as `rows`).
  std::shared_ptr<const ColumnBatch> ColumnarSnapshot() const;

  /// \brief Installs `next` as the columnar view of `rows` and bumps
  /// `version`. For UPDATE and DELETE, which change `rows` and derive `next`
  /// from the previous snapshot themselves (sharing its untouched columns),
  /// so the next scan does not rebuild the table. Holders of the previous
  /// snapshot keep reading it: published columns are never mutated.
  void PublishSnapshot(std::shared_ptr<const ColumnBatch> next);

 private:
  mutable std::shared_ptr<const ColumnBatch> snapshot_;
  mutable uint64_t snapshot_version_ = 0;
};

/// \brief Name → table registry (case-insensitive).
class Storage {
 public:
  Status CreateTable(const std::string& name,
                     std::vector<TableColumn> columns);
  Status DropTable(const std::string& name, bool if_exists);
  Result<Table*> GetTable(const std::string& name);
  Result<const Table*> GetTable(const std::string& name) const;
  bool HasTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

 private:
  static std::string Key(const std::string& name);
  std::map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace hyperq::vdb
