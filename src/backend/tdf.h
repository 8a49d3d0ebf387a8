// TDF — Tabular Data Format (paper §4.5): Hyper-Q's binary batch
// representation for query results pulled from the target database. The
// ResultStore writes it when a batch spills to disk and reads it back on
// scan (DESIGN.md §15).
//
// A TDF batch is self-describing: a header with the column schema followed
// by the payload stored column-at-a-time, mirroring vdb::ColumnBatch so
// whole batches serialize with bulk copies instead of per-row dispatch.
// Compound values (PERIOD) nest their components. All integers are
// little-endian.
//
// Layout:
//   magic      u32   'T''D''F''2'
//   ncols      u32
//   per column: kind u8, length i32, precision i32, scale i32,
//               name (u32 length + bytes)
//   nrows      u32
//   per column: phys u8 (vdb::PhysKind)
//               valid bitmap (ceil(nrows/8) bytes; bit set = non-NULL)
//               payload by phys kind (NULL slots keep zero placeholders):
//                 i64 kinds          8*nrows
//                 f64                8*nrows
//                 bool               nrows
//                 decimal            8*nrows unscaled + 4*nrows scales
//                 date               4*nrows
//                 period             4*nrows begin + 4*nrows end
//                 string             4*nrows lengths + arena bytes
//                 datum (boxed)      per non-NULL value: kind u8 + payload

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/result.h"
#include "types/type.h"
#include "vdb/column_batch.h"

namespace hyperq::backend {

struct TdfColumn {
  std::string name;
  SqlType type;
};

/// \brief Decodes one TDF batch. Spill files come back from disk, so the
/// bytes are treated as outside input: a wrong magic (including the
/// retired row-format TDF1), a truncated payload or trailing bytes are a
/// ProtocolError.
class TdfReader {
 public:
  /// \brief Parses the header and decodes the whole payload.
  static Result<TdfReader> Open(const std::vector<uint8_t>& bytes);

  const std::vector<TdfColumn>& schema() const { return schema_; }
  size_t row_count() const { return batch_->rows; }
  const std::shared_ptr<const vdb::ColumnBatch>& batch() const {
    return batch_;
  }

 private:
  TdfReader() = default;
  std::vector<TdfColumn> schema_;
  std::shared_ptr<const vdb::ColumnBatch> batch_;
};

/// \brief Serializes rows [offset, offset+rows) of `batch` as one TDF
/// batch. The batch should be canonical for `schema` (see
/// CanonicalizeBatch); kDatum columns are encoded boxed.
std::vector<uint8_t> EncodeTdfBatch(const std::vector<TdfColumn>& schema,
                                    const vdb::ColumnBatch& batch,
                                    size_t offset, size_t rows);

/// \brief Coerces a batch to the declared schema types: every non-NULL value
/// is CastTo its column's type (expression typing and runtime kinds can
/// legitimately diverge, e.g. an integer-valued CASE branch in a
/// DECIMAL-typed column). Returns the input pointer unchanged when every
/// column already stores exactly the schema's physical form (the common
/// zero-copy case); otherwise rebuilds only the non-conforming columns.
Result<std::shared_ptr<const vdb::ColumnBatch>> CanonicalizeBatch(
    const std::vector<TdfColumn>& schema,
    std::shared_ptr<const vdb::ColumnBatch> chunk);

constexpr uint32_t kTdfMagic2 = 0x32464454;  // "TDF2" (columnar payload)

}  // namespace hyperq::backend
