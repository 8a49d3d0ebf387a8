// Result Converter (paper §4.6): converts a backend result's ColumnBatch
// spans, read from the ResultStore (memory, or decoded back from spilled
// TDF), into the original database's binary record format. Conversion fans
// out over up to `parallelism` threads, the caller included, each encoding a
// run of wire batches, as the paper describes; a thread is started only when
// it gets enough wire batches to pay for its start.
//
// Wire records are encoded straight from the typed column vectors, column
// at a time, without materializing a Datum per value (DESIGN.md §15). The
// converter owns each value's wire form: CHAR(n) is blank-padded here, not
// in the batch. A per-span row-oriented fallback (protocol::EncodeRecord)
// covers columns whose physical form diverges from the wire schema; its
// output is byte-identical by construction, so the fast path is an
// optimization, never a format fork.
//
// tdwp requires the total row count before the first record (see
// protocol/tdwp.h), so conversion is a buffered operation: the whole
// result is consumed before the first wire batch is released.

#pragma once

#include <cstdint>
#include <vector>

#include "backend/connector.h"
#include "common/result.h"
#include "observability/metrics.h"
#include "protocol/tdwp.h"

namespace hyperq::convert {

struct ConversionResult {
  std::vector<protocol::WireColumn> columns;
  /// RecordBatch frame payloads: u32 row count + encoded records.
  std::vector<std::vector<uint8_t>> batches;
  uint64_t total_rows = 0;
};

struct ConverterOptions {
  /// Threads encoding records, the calling thread included (>= 1).
  int parallelism = 2;
  /// Records per wire batch.
  size_t rows_per_batch = 2048;
  /// When set, per-wire-batch size distributions are recorded as
  /// hyperq.convert.batch.rows / hyperq.convert.batch.bytes. Batches are
  /// observed exactly once, after the whole conversion succeeds, so a
  /// retried attempt never double-counts.
  observability::MetricsRegistry* metrics = nullptr;
};

class ResultConverter {
 public:
  explicit ResultConverter(ConverterOptions options = {});

  /// \brief Converts a backend result into wire batches. `ctx`
  /// (optional) is polled at every batch boundary by each encode worker,
  /// so a cancellation stops conversion within one batch.
  Result<ConversionResult> Convert(const backend::BackendResult& result,
                                   QueryContext* ctx = nullptr) const;

 private:
  ConverterOptions options_;
  // options_.metrics' batch histograms, resolved at construction; null
  // without a registry.
  observability::Histogram* rows_hist_ = nullptr;
  observability::Histogram* bytes_hist_ = nullptr;
};

}  // namespace hyperq::convert
