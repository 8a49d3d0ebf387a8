#include "convert/result_converter.h"

#include <algorithm>
#include <cstring>
#include <span>
#include <thread>

#include "common/fault.h"
#include "observability/metric_names.h"
#include "types/date.h"
#include "vdb/column_batch.h"

namespace hyperq::convert {

namespace {

using backend::BatchSpan;
using protocol::WireColumn;
using protocol::WireType;
using vdb::ColumnVec;
using vdb::PhysKind;

/// Physical column form the typed wire encoder can consume for a wire type.
/// Columns arriving from the batch data plane are canonicalized against the
/// result schema, so this holds in the common case; a mismatch (a boxed
/// kDatum column) routes the span to the row-encode fallback instead.
bool ColumnMatchesWire(const ColumnVec& col, const WireColumn& wc) {
  switch (wc.type) {
    case WireType::kSmallInt:  // also carries BOOL as 0/1
      return col.kind == PhysKind::kI64 || col.kind == PhysKind::kBool;
    case WireType::kInteger:
    case WireType::kBigInt:
      return col.kind == PhysKind::kI64;
    case WireType::kDecimal:
      return col.kind == PhysKind::kDecimal;
    case WireType::kFloat:
      return col.kind == PhysKind::kF64;
    case WireType::kChar:
    case WireType::kVarchar:
      return col.kind == PhysKind::kString;
    case WireType::kDate:
      return col.kind == PhysKind::kDate;
    case WireType::kTime:
      return col.kind == PhysKind::kTime;
    case WireType::kTimestamp:
      return col.kind == PhysKind::kTimestamp;
    case WireType::kPeriodDate:
      return col.kind == PhysKind::kPeriod;
  }
  return false;
}

/// Records encoded per column pass. It bounds the per-record scratch, which
/// lives on the stack, so converting a one-row result allocates nothing
/// beyond its wire batch.
constexpr size_t kBlockRows = 256;

/// Wire batches each encode worker must get before Convert starts another
/// thread. A thread start and join costs ~25-50 us; four batches of the
/// narrowest result (one INTEGER column) take about that long to encode,
/// and a wide result's single batch ~200 us (BM_ResultConvert, DESIGN.md
/// §15).
constexpr size_t kMinBatchesPerWorker = 4;

/// Payload bytes of one non-NULL field of a fixed-width wire type; 0 for
/// VARCHAR, whose width is per value.
size_t FixedWidth(const WireColumn& wc) {
  switch (wc.type) {
    case WireType::kSmallInt:
      return 2;
    case WireType::kInteger:
    case WireType::kDate:
      return 4;
    case WireType::kBigInt:
    case WireType::kDecimal:
    case WireType::kFloat:
    case WireType::kTime:
    case WireType::kTimestamp:
    case WireType::kPeriodDate:
      return 8;
    case WireType::kChar:
      return static_cast<size_t>(wc.length);
    case WireType::kVarchar:
      return 0;
  }
  return 0;
}

/// Upper bound of the record bytes rows [begin, end) of `span` encode to.
size_t RecordBytesBound(const BatchSpan& span, size_t begin, size_t end,
                        const std::vector<WireColumn>& wire) {
  const size_t n = end - begin;
  size_t bytes = n * (2 + (wire.size() + 7) / 8);
  for (size_t c = 0; c < wire.size(); ++c) {
    const ColumnVec& col = *span.batch->columns[c];
    if (wire[c].type != WireType::kVarchar) {
      bytes += n * FixedWidth(wire[c]);
    } else if (col.kind == PhysKind::kString) {
      size_t row = span.offset + begin;
      bytes += 2 * n + (col.offsets[row + n] - col.offsets[row]);
    }
  }
  return bytes;
}

/// Calls fn(i, row) for each non-NULL row = row0 + i, i < n.
template <typename Fn>
void ForEachValid(const ColumnVec& col, size_t row0, size_t n, Fn&& fn) {
  if (col.nulls == 0) {
    for (size_t i = 0; i < n; ++i) fn(i, row0 + i);
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    if (!col.IsNull(row0 + i)) fn(i, row0 + i);
  }
}

template <typename T>
void Store(uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof(T));
}

/// Encodes records for rows [row0, row0 + n) of `cols`, n <= kBlockRows,
/// onto `w` column by column: one pass per column sums the record lengths,
/// the block is sized once, then each column writes its fields at per-record
/// cursors with the wire-type switch outside the row loop. Every column must
/// satisfy ColumnMatchesWire or be all-NULL.
Status EncodeBlock(const std::vector<std::shared_ptr<ColumnVec>>& cols,
                   const std::vector<WireColumn>& wire, size_t row0, size_t n,
                   BufferWriter* w) {
  const size_t ncols = wire.size();
  const size_t bitmap_bytes = (ncols + 7) / 8;
  // len[i]: record i's length, then the offset of its presence bitmap.
  // at[i]: where record i's next field goes.
  size_t len[kBlockRows] = {};
  size_t at[kBlockRows] = {};
  std::fill_n(len, n, bitmap_bytes);
  for (size_t c = 0; c < ncols; ++c) {
    const ColumnVec& col = *cols[c];
    if (col.nulls == col.size) continue;
    if (wire[c].type == WireType::kVarchar) {
      ForEachValid(col, row0, n, [&](size_t i, size_t row) {
        len[i] += 2 + std::min<size_t>(col.offsets[row + 1] - col.offsets[row],
                                       0xFFFF);
      });
    } else {
      const size_t width = FixedWidth(wire[c]);
      ForEachValid(col, row0, n, [&](size_t i, size_t) { len[i] += width; });
    }
  }
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    if (len[i] > 0xFFFF) {
      return Status::ProtocolError("record exceeds the 64KiB tdwp row limit");
    }
    total += 2 + len[i];
  }
  // Zero-filled, so every presence bit starts clear (NULL).
  uint8_t* base = w->Extend(total);
  size_t pos = 0;
  for (size_t i = 0; i < n; ++i) {
    Store(base + pos, static_cast<uint16_t>(len[i]));
    size_t next = pos + 2 + len[i];
    len[i] = pos + 2;
    at[i] = pos + 2 + bitmap_bytes;
    pos = next;
  }

  for (size_t c = 0; c < ncols; ++c) {
    const ColumnVec& col = *cols[c];
    if (col.nulls == col.size) continue;
    const WireColumn& wc = wire[c];
    const size_t bit_byte = c / 8;
    const uint8_t bit = static_cast<uint8_t>(1u << (c % 8));
    // Marks record i's field present and claims `width` bytes for it.
    auto claim = [&](size_t i, size_t width) {
      base[len[i] + bit_byte] |= bit;
      uint8_t* p = base + at[i];
      at[i] += width;
      return p;
    };
    switch (wc.type) {
      case WireType::kSmallInt:  // also carries BOOL as 0/1
        if (col.kind == PhysKind::kBool) {
          ForEachValid(col, row0, n, [&](size_t i, size_t row) {
            Store(claim(i, 2), static_cast<int16_t>(col.b8[row] != 0));
          });
        } else {
          ForEachValid(col, row0, n, [&](size_t i, size_t row) {
            Store(claim(i, 2), static_cast<int16_t>(col.i64[row]));
          });
        }
        break;
      case WireType::kInteger:
        ForEachValid(col, row0, n, [&](size_t i, size_t row) {
          Store(claim(i, 4), static_cast<int32_t>(col.i64[row]));
        });
        break;
      case WireType::kBigInt:
      case WireType::kTime:
      case WireType::kTimestamp:
        ForEachValid(col, row0, n, [&](size_t i, size_t row) {
          Store(claim(i, 8), col.i64[row]);
        });
        break;
      case WireType::kDecimal:
        // Canonical batches already carry the schema scale; rescale defends
        // against hand-built batches without changing the wire bytes.
        ForEachValid(col, row0, n, [&](size_t i, size_t row) {
          int64_t v = col.i32b[row] == wc.scale
                          ? col.i64[row]
                          : Decimal{col.i64[row], col.i32b[row]}
                                .Rescale(wc.scale)
                                .value;
          Store(claim(i, 8), v);
        });
        break;
      case WireType::kFloat:
        ForEachValid(col, row0, n, [&](size_t i, size_t row) {
          Store(claim(i, 8), col.f64[row]);
        });
        break;
      case WireType::kChar: {
        // Fixed width, blank padded; over-long values truncate — exactly
        // std::string::resize(length, ' ') in the record oracle.
        const size_t width = static_cast<size_t>(wc.length);
        ForEachValid(col, row0, n, [&](size_t i, size_t row) {
          std::string_view s = col.StringAt(row);
          size_t copy = std::min(s.size(), width);
          uint8_t* p = claim(i, width);
          std::memcpy(p, s.data(), copy);
          std::memset(p + copy, ' ', width - copy);
        });
        break;
      }
      case WireType::kVarchar:
        ForEachValid(col, row0, n, [&](size_t i, size_t row) {
          std::string_view s = col.StringAt(row);
          size_t size = std::min<size_t>(s.size(), 0xFFFF);
          uint8_t* p = claim(i, 2 + size);
          Store(p, static_cast<uint16_t>(size));
          std::memcpy(p + 2, s.data(), size);
        });
        break;
      case WireType::kDate:
        ForEachValid(col, row0, n, [&](size_t i, size_t row) {
          Store(claim(i, 4),
                static_cast<int32_t>(DateToTeradataInt(col.i32[row])));
        });
        break;
      case WireType::kPeriodDate:
        ForEachValid(col, row0, n, [&](size_t i, size_t row) {
          uint8_t* p = claim(i, 8);
          Store(p, static_cast<int32_t>(DateToTeradataInt(col.i32[row])));
          Store(p + 4, static_cast<int32_t>(DateToTeradataInt(col.i32b[row])));
        });
        break;
    }
  }
  return Status::OK();
}

}  // namespace

ResultConverter::ResultConverter(ConverterOptions options)
    : options_(options) {
  options_.parallelism = std::max(1, options_.parallelism);
  options_.rows_per_batch = std::max<size_t>(1, options_.rows_per_batch);
  if (options_.metrics != nullptr) {
    rows_hist_ = options_.metrics->histogram(
        observability::names::kConvertBatchRows);
    bytes_hist_ = options_.metrics->histogram(
        observability::names::kConvertBatchBytes);
  }
}

Result<ConversionResult> ResultConverter::Convert(
    const backend::BackendResult& result, QueryContext* ctx) const {
  ConversionResult out;
  if (!result.is_rowset()) return out;

  const std::vector<backend::TdfColumn>& columns = result.columns();
  out.columns.reserve(columns.size());
  for (const auto& col : columns) {
    HQ_ASSIGN_OR_RETURN(protocol::WireColumn wc,
                        protocol::ToWireColumn(col.name, col.type));
    out.columns.push_back(std::move(wc));
  }

  // Collect the store's spans (buffered: the header must announce the full
  // row count). Spans share their batches with the store — no row copy. A
  // store holding one in-memory span (a point read) is read in place,
  // without span lists.
  static constexpr size_t kFirstRow = 0;
  std::span<const BatchSpan> spans;
  std::span<const size_t> span_start;  // global row index of each span
  std::vector<BatchSpan> span_list;
  std::vector<size_t> start_list;
  if (const BatchSpan* sole = result.store->SoleSpan()) {
    spans = {sole, 1};
    span_start = {&kFirstRow, 1};
  } else {
    span_list.reserve(result.store->batch_count());
    start_list.reserve(result.store->batch_count());
    // Two captured references keep the callback in std::function's inline
    // storage.
    HQ_RETURN_IF_ERROR(result.store->ScanSpans(
        [&span_list, &start_list](const BatchSpan& span) {
          start_list.push_back(span_list.empty() ? 0
                                                 : start_list.back() +
                                                       span_list.back().rows);
          span_list.push_back(span);
          return Status::OK();
        }));
    spans = span_list;
    span_start = start_list;
  }
  const size_t total =
      spans.empty() ? 0 : span_start.back() + spans.back().rows;
  out.total_rows = total;

  // Carve the global row range into wire batches (batch b covers rows
  // [b*N, (b+1)*N)), then encode batches in parallel. A wire batch may
  // straddle span boundaries.
  const size_t rows_per_batch = options_.rows_per_batch;
  size_t nbatches = (total + rows_per_batch - 1) / rows_per_batch;
  out.batches.resize(nbatches);
  if (nbatches == 0) return out;

  // Column-at-a-time encode of one span's rows [begin, end); returns false
  // when a column's physical form requires the row-oriented oracle.
  auto encode_span_rows = [&](const BatchSpan& span, size_t begin, size_t end,
                              BufferWriter* w) -> Result<bool> {
    const auto& cols = span.batch->columns;
    for (size_t c = 0; c < out.columns.size(); ++c) {
      if (!ColumnMatchesWire(*cols[c], out.columns[c]) &&
          !(cols[c]->nulls == cols[c]->size)) {
        return false;
      }
    }
    for (size_t r = begin; r < end; r += kBlockRows) {
      size_t n = std::min(kBlockRows, end - r);
      // The fault point stays per record, so `every=N` counts rows.
      for (size_t i = 0; i < n; ++i) {
        HQ_RETURN_IF_ERROR(
            FaultInjector::Global().Check(faultpoints::kConvertEncodeRow));
      }
      HQ_RETURN_IF_ERROR(
          EncodeBlock(cols, out.columns, span.offset + r, n, w));
    }
    return true;
  };

  auto encode_span_rows_fallback = [&](const BatchSpan& span, size_t begin,
                                       size_t end, BufferWriter* w) -> Status {
    vdb::Row scratch;
    for (size_t r = begin; r < end; ++r) {
      HQ_RETURN_IF_ERROR(
          FaultInjector::Global().Check(faultpoints::kConvertEncodeRow));
      span.batch->FillRow(span.offset + r, &scratch);
      HQ_RETURN_IF_ERROR(protocol::EncodeRecord(out.columns, scratch, w));
    }
    return Status::OK();
  };

  // Each encode worker reports through its own status; a worker stops at
  // its first failure.
  auto encode_range = [&](size_t begin_batch, size_t end_batch,
                          Status* status) {
    for (size_t b = begin_batch; b < end_batch; ++b) {
      // CheckAlive is safe from parallel workers: concurrent callers skip
      // the client probe instead of contending on the socket.
      if (ctx != nullptr) {
        Status alive = ctx->CheckAlive();
        if (!alive.ok()) {
          *status = std::move(alive);
          return;
        }
      }
      size_t row_begin = b * rows_per_batch;
      size_t row_end = std::min(total, row_begin + rows_per_batch);
      // Calls fn(span, begin, end) for each span overlapping this wire
      // batch, with the span-local row range the batch covers.
      auto for_each_span = [&](auto&& fn) -> Status {
        size_t s = static_cast<size_t>(
            std::upper_bound(span_start.begin(), span_start.end(),
                             row_begin) -
            span_start.begin() - 1);
        for (size_t row = row_begin; row < row_end; ++s) {
          size_t local_begin = row - span_start[s];
          size_t local_end = std::min(spans[s].rows, row_end - span_start[s]);
          HQ_RETURN_IF_ERROR(fn(spans[s], local_begin, local_end));
          row = span_start[s] + local_end;
        }
        return Status::OK();
      };
      size_t bound = 4;
      (void)for_each_span([&](const BatchSpan& span, size_t begin,
                              size_t end) {
        bound += RecordBytesBound(span, begin, end, out.columns);
        return Status::OK();
      });
      BufferWriter w;
      w.Reserve(bound);
      // The row count goes in through Extend: PutU32 right after Reserve
      // draws a GCC -Wstringop-overflow false positive.
      Store(w.Extend(4), static_cast<uint32_t>(row_end - row_begin));
      Status st = for_each_span([&](const BatchSpan& span, size_t begin,
                                    size_t end) -> Status {
        HQ_ASSIGN_OR_RETURN(bool fast, encode_span_rows(span, begin, end, &w));
        if (fast) return Status::OK();
        return encode_span_rows_fallback(span, begin, end, &w);
      });
      if (!st.ok()) {
        *status = std::move(st);
        return;
      }
      out.batches[b] = w.Take();
    }
  };

  // The calling thread encodes the first run of batches; each further run
  // gets a thread, joined when `helpers` goes out of scope.
  const size_t workers = std::max<size_t>(
      1, std::min<size_t>(options_.parallelism,
                          nbatches / kMinBatchesPerWorker));
  const size_t per = (nbatches + workers - 1) / workers;
  Status first;
  std::vector<Status> helper_statuses((nbatches - 1) / per);
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(helper_statuses.size());
    Status* helper_status = helper_statuses.data();
    for (size_t begin = per; begin < nbatches; begin += per) {
      helpers.emplace_back(encode_range, begin,
                           std::min(nbatches, begin + per), helper_status++);
    }
    encode_range(0, std::min(nbatches, per), &first);
  }
  HQ_RETURN_IF_ERROR(first);
  for (const Status& s : helper_statuses) {
    HQ_RETURN_IF_ERROR(s);
  }
  // Batch-size distributions are recorded only after the whole conversion
  // succeeded: a failed or cancelled attempt contributes nothing, so a
  // retried query attributes each produced batch exactly once.
  if (rows_hist_ != nullptr) {
    for (size_t b = 0; b < nbatches; ++b) {
      size_t row_begin = b * rows_per_batch;
      size_t row_end = std::min(total, row_begin + rows_per_batch);
      rows_hist_->Observe(static_cast<double>(row_end - row_begin));
      bytes_hist_->Observe(static_cast<double>(out.batches[b].size()));
    }
  }
  return out;
}

}  // namespace hyperq::convert
