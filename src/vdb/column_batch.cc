#include "vdb/column_batch.h"

namespace hyperq::vdb {

PhysKind PhysKindFor(const SqlType& type) {
  switch (type.kind) {
    case TypeKind::kSmallInt:
    case TypeKind::kInt:
    case TypeKind::kBigInt:
      return PhysKind::kI64;
    case TypeKind::kDouble:
      return PhysKind::kF64;
    case TypeKind::kBool:
      return PhysKind::kBool;
    case TypeKind::kDecimal:
      return PhysKind::kDecimal;
    case TypeKind::kChar:
    case TypeKind::kVarchar:
      return PhysKind::kString;
    case TypeKind::kDate:
      return PhysKind::kDate;
    case TypeKind::kTime:
      return PhysKind::kTime;
    case TypeKind::kTimestamp:
      return PhysKind::kTimestamp;
    case TypeKind::kInterval:
      return PhysKind::kInterval;
    case TypeKind::kPeriodDate:
      return PhysKind::kPeriod;
    case TypeKind::kNull:
      return PhysKind::kDatum;
  }
  return PhysKind::kDatum;
}

void ColumnVec::Reserve(size_t n) {
  valid.reserve((n + 7) / 8);
  switch (kind) {
    case PhysKind::kI64:
    case PhysKind::kTime:
    case PhysKind::kTimestamp:
    case PhysKind::kInterval:
      i64.reserve(n);
      break;
    case PhysKind::kF64:
      f64.reserve(n);
      break;
    case PhysKind::kBool:
      b8.reserve(n);
      break;
    case PhysKind::kDecimal:
      i64.reserve(n);
      i32b.reserve(n);
      break;
    case PhysKind::kString:
      offsets.reserve(n + 1);
      break;
    case PhysKind::kDate:
      i32.reserve(n);
      break;
    case PhysKind::kPeriod:
      i32.reserve(n);
      i32b.reserve(n);
      break;
    case PhysKind::kDatum:
      datums.reserve(n);
      break;
  }
}

namespace {
inline void PushValid(std::vector<uint8_t>* bitmap, size_t r, bool set) {
  if ((r & 7) == 0) bitmap->push_back(0);
  if (set) bitmap->back() |= static_cast<uint8_t>(1u << (r & 7));
}
}  // namespace

void ColumnVec::AppendNull() {
  PushValid(&valid, size, false);
  ++nulls;
  switch (kind) {
    case PhysKind::kI64:
    case PhysKind::kTime:
    case PhysKind::kTimestamp:
    case PhysKind::kInterval:
      i64.push_back(0);
      break;
    case PhysKind::kF64:
      f64.push_back(0);
      break;
    case PhysKind::kBool:
      b8.push_back(0);
      break;
    case PhysKind::kDecimal:
      i64.push_back(0);
      i32b.push_back(0);
      break;
    case PhysKind::kString:
      offsets.push_back(offsets.back());
      break;
    case PhysKind::kDate:
      i32.push_back(0);
      break;
    case PhysKind::kPeriod:
      i32.push_back(0);
      i32b.push_back(0);
      break;
    case PhysKind::kDatum:
      datums.push_back(Datum::Null());
      break;
  }
  ++size;
}

bool ColumnVec::Append(const Datum& d) {
  if (d.is_null()) {
    AppendNull();
    return true;
  }
  switch (kind) {
    case PhysKind::kI64:
      if (!d.is_int()) return false;
      i64.push_back(d.int_val());
      break;
    case PhysKind::kF64:
      if (!d.is_double()) return false;
      f64.push_back(d.double_val());
      break;
    case PhysKind::kBool:
      if (!d.is_bool()) return false;
      b8.push_back(d.bool_val() ? 1 : 0);
      break;
    case PhysKind::kDecimal:
      if (!d.is_decimal()) return false;
      i64.push_back(d.decimal_val().value);
      i32b.push_back(d.decimal_val().scale);
      break;
    case PhysKind::kString: {
      if (!d.is_string()) return false;
      arena.append(d.string_val());
      offsets.push_back(static_cast<uint32_t>(arena.size()));
      break;
    }
    case PhysKind::kDate:
      if (!d.is_date()) return false;
      i32.push_back(d.date_val());
      break;
    case PhysKind::kTime:
      if (!d.is_time()) return false;
      i64.push_back(d.time_val());
      break;
    case PhysKind::kTimestamp:
      if (!d.is_timestamp()) return false;
      i64.push_back(d.timestamp_val());
      break;
    case PhysKind::kInterval:
      if (!d.is_interval()) return false;
      i64.push_back(d.interval_val());
      break;
    case PhysKind::kPeriod:
      if (!d.is_period()) return false;
      i32.push_back(d.period_val().begin_days);
      i32b.push_back(d.period_val().end_days);
      break;
    case PhysKind::kDatum:
      datums.push_back(d);
      break;
  }
  PushValid(&valid, size, true);
  ++size;
  return true;
}

void ColumnVec::AppendFrom(const ColumnVec& src, size_t r) {
  if (src.IsNull(r)) {
    AppendNull();
    return;
  }
  if (src.kind != kind) {  // into a kDatum column
    datums.push_back(src.GetDatum(r));
    PushValid(&valid, size, true);
    ++size;
    return;
  }
  PushValid(&valid, size, true);
  switch (kind) {
    case PhysKind::kI64:
    case PhysKind::kTime:
    case PhysKind::kTimestamp:
    case PhysKind::kInterval:
      i64.push_back(src.i64[r]);
      break;
    case PhysKind::kF64:
      f64.push_back(src.f64[r]);
      break;
    case PhysKind::kBool:
      b8.push_back(src.b8[r]);
      break;
    case PhysKind::kDecimal:
      i64.push_back(src.i64[r]);
      i32b.push_back(src.i32b[r]);
      break;
    case PhysKind::kString: {
      std::string_view s = src.StringAt(r);
      arena.append(s);
      offsets.push_back(static_cast<uint32_t>(arena.size()));
      break;
    }
    case PhysKind::kDate:
      i32.push_back(src.i32[r]);
      break;
    case PhysKind::kPeriod:
      i32.push_back(src.i32[r]);
      i32b.push_back(src.i32b[r]);
      break;
    case PhysKind::kDatum:
      datums.push_back(src.datums[r]);
      break;
  }
  ++size;
}

Datum ColumnVec::GetDatum(size_t r) const {
  if (IsNull(r)) return Datum::Null();
  switch (kind) {
    case PhysKind::kI64:
      return Datum::Int(i64[r]);
    case PhysKind::kF64:
      return Datum::MakeDouble(f64[r]);
    case PhysKind::kBool:
      return Datum::Bool(b8[r] != 0);
    case PhysKind::kDecimal:
      return Datum::MakeDecimal(Decimal{i64[r], i32b[r]});
    case PhysKind::kString:
      return Datum::String(std::string(StringAt(r)));
    case PhysKind::kDate:
      return Datum::Date(i32[r]);
    case PhysKind::kTime:
      return Datum::Time(i64[r]);
    case PhysKind::kTimestamp:
      return Datum::Timestamp(i64[r]);
    case PhysKind::kInterval:
      return Datum::Interval(i64[r]);
    case PhysKind::kPeriod:
      return Datum::Period(i32[r], i32b[r]);
    case PhysKind::kDatum:
      return datums[r];
  }
  return Datum::Null();
}

size_t ColumnVec::ByteSize(size_t begin, size_t end) const {
  size_t n = end > begin ? end - begin : 0;
  size_t bytes = (n + 7) / 8;  // presence bitmap share
  switch (kind) {
    case PhysKind::kI64:
    case PhysKind::kTime:
    case PhysKind::kTimestamp:
    case PhysKind::kInterval:
    case PhysKind::kF64:
      bytes += n * 8;
      break;
    case PhysKind::kBool:
      bytes += n;
      break;
    case PhysKind::kDecimal:
      bytes += n * 12;
      break;
    case PhysKind::kString:
      bytes += n * 4;
      if (n > 0) bytes += offsets[end] - offsets[begin];
      break;
    case PhysKind::kDate:
      bytes += n * 4;
      break;
    case PhysKind::kPeriod:
      bytes += n * 8;
      break;
    case PhysKind::kDatum:
      bytes += n * sizeof(Datum);
      for (size_t r = begin; r < end; ++r) {
        if (!IsNull(r) && datums[r].is_string()) {
          bytes += datums[r].string_val().size();
        }
      }
      break;
  }
  return bytes;
}

size_t ColumnBatch::ByteSize() const {
  size_t bytes = 0;
  for (const auto& c : columns) bytes += c->ByteSize();
  return bytes;
}

void ColumnBatch::FillRow(size_t r, Row* out) const {
  out->resize(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    (*out)[c] = columns[c]->GetDatum(r);
  }
}

Row ColumnBatch::RowAt(size_t r) const {
  Row out;
  FillRow(r, &out);
  return out;
}

BatchBuilder::BatchBuilder(const std::vector<SqlType>& types)
    : batch_(std::make_shared<ColumnBatch>()) {
  batch_->columns.reserve(types.size());
  for (const auto& t : types) {
    batch_->columns.push_back(std::make_shared<ColumnVec>(PhysKindFor(t)));
  }
}

BatchBuilder::BatchBuilder(const std::vector<PhysKind>& kinds)
    : batch_(std::make_shared<ColumnBatch>()) {
  batch_->columns.reserve(kinds.size());
  for (PhysKind k : kinds) {
    batch_->columns.push_back(std::make_shared<ColumnVec>(k));
  }
}

void BatchBuilder::Reserve(size_t n) {
  for (auto& c : batch_->columns) c->Reserve(n);
}

void BatchBuilder::Demote(size_t c) {
  auto& col = batch_->columns[c];
  auto demoted = std::make_shared<ColumnVec>(PhysKind::kDatum);
  demoted->Reserve(col->size);
  for (size_t r = 0; r < col->size; ++r) {
    if (col->IsNull(r)) {
      demoted->AppendNull();
    } else {
      demoted->Append(col->GetDatum(r));
    }
  }
  col = std::move(demoted);
}

void BatchBuilder::Append(size_t c, const Datum& d) {
  if (!batch_->columns[c]->Append(d)) {
    Demote(c);
    batch_->columns[c]->Append(d);
  }
}

Status BatchBuilder::AppendRow(const Row& row) {
  if (row.size() != batch_->columns.size()) {
    return Status::Internal("batch row arity ", row.size(),
                            " does not match column count ",
                            batch_->columns.size());
  }
  for (size_t c = 0; c < row.size(); ++c) Append(c, row[c]);
  ++rows_;
  return Status::OK();
}

std::shared_ptr<ColumnBatch> BatchBuilder::Finish() {
  batch_->rows = batch_->columns.empty() ? rows_ : batch_->columns[0]->size;
  return std::move(batch_);
}

std::shared_ptr<ColumnBatch> BatchFromRows(const std::vector<SqlType>& types,
                                           const std::vector<Row>& rows,
                                           size_t begin, size_t end) {
  BatchBuilder builder(types);
  builder.Reserve(end - begin);
  for (size_t r = begin; r < end; ++r) {
    (void)builder.AppendRow(rows[r]);
  }
  return builder.Finish();
}

void AppendRowsFromBatch(const ColumnBatch& batch, size_t begin, size_t end,
                         std::vector<Row>* out) {
  out->reserve(out->size() + (end - begin));
  for (size_t r = begin; r < end; ++r) {
    out->push_back(batch.RowAt(r));
  }
}

std::shared_ptr<ColumnVec> GatherColumn(const ColumnVec& src,
                                        const std::vector<uint32_t>& idx) {
  constexpr uint32_t kNullRow = UINT32_MAX;
  const size_t n = idx.size();
  auto dst = std::make_shared<ColumnVec>(src.kind);
  dst->size = n;
  dst->valid.assign((n + 7) / 8, 0);
  size_t nulls = 0;
  auto set_valid = [&](size_t i) {
    dst->valid[i >> 3] |= static_cast<uint8_t>(1u << (i & 7));
  };
  switch (src.kind) {
    case PhysKind::kI64:
    case PhysKind::kTime:
    case PhysKind::kTimestamp:
    case PhysKind::kInterval:
      dst->i64.assign(n, 0);
      for (size_t i = 0; i < n; ++i) {
        const uint32_t r = idx[i];
        if (r == kNullRow || src.IsNull(r)) {
          ++nulls;
          continue;
        }
        set_valid(i);
        dst->i64[i] = src.i64[r];
      }
      break;
    case PhysKind::kF64:
      dst->f64.assign(n, 0);
      for (size_t i = 0; i < n; ++i) {
        const uint32_t r = idx[i];
        if (r == kNullRow || src.IsNull(r)) {
          ++nulls;
          continue;
        }
        set_valid(i);
        dst->f64[i] = src.f64[r];
      }
      break;
    case PhysKind::kBool:
      dst->b8.assign(n, 0);
      for (size_t i = 0; i < n; ++i) {
        const uint32_t r = idx[i];
        if (r == kNullRow || src.IsNull(r)) {
          ++nulls;
          continue;
        }
        set_valid(i);
        dst->b8[i] = src.b8[r];
      }
      break;
    case PhysKind::kDecimal:
      dst->i64.assign(n, 0);
      dst->i32b.assign(n, 0);
      for (size_t i = 0; i < n; ++i) {
        const uint32_t r = idx[i];
        if (r == kNullRow || src.IsNull(r)) {
          ++nulls;
          continue;
        }
        set_valid(i);
        dst->i64[i] = src.i64[r];
        dst->i32b[i] = src.i32b[r];
      }
      break;
    case PhysKind::kDate:
      dst->i32.assign(n, 0);
      for (size_t i = 0; i < n; ++i) {
        const uint32_t r = idx[i];
        if (r == kNullRow || src.IsNull(r)) {
          ++nulls;
          continue;
        }
        set_valid(i);
        dst->i32[i] = src.i32[r];
      }
      break;
    case PhysKind::kPeriod:
      dst->i32.assign(n, 0);
      dst->i32b.assign(n, 0);
      for (size_t i = 0; i < n; ++i) {
        const uint32_t r = idx[i];
        if (r == kNullRow || src.IsNull(r)) {
          ++nulls;
          continue;
        }
        set_valid(i);
        dst->i32[i] = src.i32[r];
        dst->i32b[i] = src.i32b[r];
      }
      break;
    case PhysKind::kString: {
      dst->offsets.assign(n + 1, 0);
      size_t total = 0;
      for (size_t i = 0; i < n; ++i) {
        const uint32_t r = idx[i];
        if (r == kNullRow || src.IsNull(r)) continue;
        total += src.offsets[r + 1] - src.offsets[r];
      }
      dst->arena.reserve(total);
      for (size_t i = 0; i < n; ++i) {
        const uint32_t r = idx[i];
        if (r == kNullRow || src.IsNull(r)) {
          ++nulls;
        } else {
          set_valid(i);
          dst->arena.append(src.StringAt(r));
        }
        dst->offsets[i + 1] = static_cast<uint32_t>(dst->arena.size());
      }
      break;
    }
    case PhysKind::kDatum:
      dst->datums.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        const uint32_t r = idx[i];
        if (r == kNullRow || src.IsNull(r)) {
          ++nulls;
          dst->datums.push_back(Datum::Null());
          continue;
        }
        set_valid(i);
        dst->datums.push_back(src.datums[r]);
      }
      break;
  }
  dst->nulls = nulls;
  return dst;
}

std::shared_ptr<ColumnBatch> GatherBatch(const ColumnBatch& src,
                                         const std::vector<uint32_t>& idx) {
  auto out = std::make_shared<ColumnBatch>();
  out->rows = idx.size();
  out->columns.reserve(src.columns.size());
  for (const auto& col : src.columns) {
    out->columns.push_back(GatherColumn(*col, idx));
  }
  return out;
}

std::shared_ptr<const ColumnBatch> ConcatBatches(
    const std::vector<std::shared_ptr<const ColumnBatch>>& chunks) {
  if (chunks.size() == 1) return chunks[0];
  auto out = std::make_shared<ColumnBatch>();
  if (chunks.empty()) return out;
  size_t total = 0;
  for (const auto& c : chunks) total += c->rows;
  out->rows = total;
  size_t ncols = chunks[0]->columns.size();
  for (size_t c = 0; c < ncols; ++c) {
    // Mixed physical kinds across chunks (rare: a demoted column in one
    // chunk) concatenate as kDatum.
    PhysKind kind = chunks[0]->columns[c]->kind;
    for (const auto& chunk : chunks) {
      if (chunk->columns[c]->kind != kind) kind = PhysKind::kDatum;
    }
    auto dst = std::make_shared<ColumnVec>(kind);
    dst->Reserve(total);
    for (const auto& chunk : chunks) {
      const ColumnVec& src = *chunk->columns[c];
      for (size_t r = 0; r < src.size; ++r) dst->AppendFrom(src, r);
    }
    out->columns.push_back(std::move(dst));
  }
  return out;
}

}  // namespace hyperq::vdb
