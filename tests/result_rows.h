// Test helper: reads a vdb::QueryResult's columnar chunks into datum rows,
// so assertions can index a result as rows[r][c].

#pragma once

#include <vector>

#include "vdb/engine.h"

namespace hyperq {

inline std::vector<vdb::Row> ResultRows(const vdb::QueryResult& result) {
  std::vector<vdb::Row> rows;
  for (const auto& chunk : result.chunks) {
    vdb::AppendRowsFromBatch(*chunk, 0, chunk->rows, &rows);
  }
  return rows;
}

}  // namespace hyperq
