// ColumnBatch: the columnar data-plane contract shared by the vdb executor,
// the TDF codec, the ResultStore and the Result Converter (DESIGN.md §15).
//
// A batch is a set of equally sized column vectors. Each column stores its
// values in a fixed-width physical array (or a string arena with offsets),
// plus a presence bitmap (bit set = non-NULL). Columns are held by
// shared_ptr so projections and table scans can share them without copying;
// a column is immutable once its owning batch is published.
//
// Physical layout per column kind:
//   kI64                    int64_t per row (SMALLINT/INT/BIGINT runtime)
//   kF64                    double per row
//   kBool                   uint8_t 0/1 per row
//   kDecimal                int64_t unscaled + int32_t scale per row
//   kString                 uint32_t offsets (size+1) into one owned arena
//   kDate                   int32_t days per row
//   kTime/kTimestamp/kInterval  int64_t micros per row
//   kPeriod                 int32_t begin + int32_t end per row
//   kDatum                  boxed Datum per row (fallback for columns whose
//                           runtime kinds diverge from the declared type)
//
// NULL rows keep a zero placeholder in the physical array so row indexes
// stay aligned; consumers must consult the presence bitmap.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "types/datum.h"
#include "types/type.h"

namespace hyperq::vdb {

using Row = std::vector<Datum>;

enum class PhysKind : uint8_t {
  kI64 = 0,
  kF64 = 1,
  kBool = 2,
  kDecimal = 3,
  kString = 4,
  kDate = 5,
  kTime = 6,
  kTimestamp = 7,
  kInterval = 8,
  kPeriod = 9,
  kDatum = 10,
};

/// \brief Physical column kind a SQL type's values are stored as.
PhysKind PhysKindFor(const SqlType& type);

/// \brief One immutable-once-published column vector.
struct ColumnVec {
  explicit ColumnVec(PhysKind k) : kind(k) {
    if (kind == PhysKind::kString) offsets.push_back(0);
  }

  PhysKind kind;
  size_t size = 0;
  size_t nulls = 0;
  std::vector<uint8_t> valid;  // bitmap; bit r set = row r non-NULL

  std::vector<int64_t> i64;     // kI64/kTime/kTimestamp/kInterval, decimal
                                // unscaled values
  std::vector<int32_t> i32;     // kDate days, kPeriod begin
  std::vector<int32_t> i32b;    // kDecimal scale, kPeriod end
  std::vector<double> f64;      // kF64
  std::vector<uint8_t> b8;      // kBool
  std::vector<uint32_t> offsets;  // kString: size+1 entries into arena
  std::string arena;              // kString payload
  std::vector<Datum> datums;      // kDatum

  bool IsNull(size_t r) const {
    return ((valid[r >> 3] >> (r & 7)) & 1) == 0;
  }
  std::string_view StringAt(size_t r) const {
    return std::string_view(arena).substr(offsets[r],
                                          offsets[r + 1] - offsets[r]);
  }

  void Reserve(size_t n);
  void AppendNull();
  /// \brief Appends a non-NULL datum. Returns false when the datum's runtime
  /// kind does not match this column's physical kind (callers demote the
  /// column to kDatum); kDatum columns accept any kind.
  bool Append(const Datum& d);
  /// \brief Copies row `r` of `src` onto the end. `src` has this column's
  /// physical kind, or this column is kDatum.
  void AppendFrom(const ColumnVec& src, size_t r);
  Datum GetDatum(size_t r) const;

  /// \brief Approximate heap bytes of rows [begin, end).
  size_t ByteSize(size_t begin, size_t end) const;
  size_t ByteSize() const { return ByteSize(0, size); }
};

/// \brief Column metadata of a query result: the name and declared type of
/// one column of its batches.
struct ResultColumn {
  std::string name;
  SqlType type;
};

/// \brief A batch of equally sized columns. Columns are shared: scans and
/// projections alias them instead of copying.
struct ColumnBatch {
  std::vector<std::shared_ptr<ColumnVec>> columns;
  size_t rows = 0;

  size_t ByteSize() const;
  /// \brief Materializes row `r` into `out` (resized to the column count).
  void FillRow(size_t r, Row* out) const;
  Row RowAt(size_t r) const;
};

/// \brief Builds a batch row by row against declared column types. A column
/// whose incoming runtime kinds diverge from its declared physical kind is
/// transparently demoted to kDatum.
class BatchBuilder {
 public:
  explicit BatchBuilder(const std::vector<SqlType>& types);
  explicit BatchBuilder(const std::vector<PhysKind>& kinds);

  void Reserve(size_t n);
  Status AppendRow(const Row& row);
  /// \brief Appends one value to column `c` (columns advance independently;
  /// callers must keep them equal-length before Finish).
  void Append(size_t c, const Datum& d);
  size_t rows() const { return rows_; }
  std::shared_ptr<ColumnBatch> Finish();

 private:
  void Demote(size_t c);
  std::shared_ptr<ColumnBatch> batch_;
  size_t rows_ = 0;
};

/// \brief One batch from a row range (types drive the physical layout).
std::shared_ptr<ColumnBatch> BatchFromRows(const std::vector<SqlType>& types,
                                           const std::vector<Row>& rows,
                                           size_t begin, size_t end);

/// \brief Appends rows [begin, end) of `batch` to `out`.
void AppendRowsFromBatch(const ColumnBatch& batch, size_t begin, size_t end,
                         std::vector<Row>* out);

/// \brief Gathers `idx` rows of one column. UINT32_MAX entries produce
/// NULLs (outer-join padding). The kind dispatch is hoisted out of the row
/// loop, so this is the fast path for join/select output materialization.
std::shared_ptr<ColumnVec> GatherColumn(const ColumnVec& src,
                                        const std::vector<uint32_t>& idx);

/// \brief Gathers `idx` rows of `src` into a new batch (per-column copy;
/// kinds are preserved).
std::shared_ptr<ColumnBatch> GatherBatch(const ColumnBatch& src,
                                         const std::vector<uint32_t>& idx);

/// \brief Concatenates chunks into one batch (no-op share for one chunk).
std::shared_ptr<const ColumnBatch> ConcatBatches(
    const std::vector<std::shared_ptr<const ColumnBatch>>& chunks);

}  // namespace hyperq::vdb
