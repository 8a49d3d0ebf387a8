#include "backend/tdf.h"

#include <cstring>
#include <type_traits>

#include "common/fault.h"

namespace hyperq::backend {

using vdb::ColumnBatch;
using vdb::ColumnVec;
using vdb::PhysKind;

namespace {

// Boxed-value kind tags used inside kDatum column payloads.
enum class DatumTag : uint8_t {
  kBool = 1,
  kInt = 2,
  kDouble = 3,
  kDecimal = 4,
  kString = 5,
  kDate = 6,
  kTime = 7,
  kTimestamp = 8,
  kInterval = 9,
  kPeriod = 10,
};

Status EncodeDatumTagged(const Datum& v, BufferWriter* out) {
  if (v.is_bool()) {
    out->PutU8(static_cast<uint8_t>(DatumTag::kBool));
    out->PutU8(v.bool_val() ? 1 : 0);
  } else if (v.is_int()) {
    out->PutU8(static_cast<uint8_t>(DatumTag::kInt));
    out->PutI64(v.int_val());
  } else if (v.is_double()) {
    out->PutU8(static_cast<uint8_t>(DatumTag::kDouble));
    out->PutF64(v.double_val());
  } else if (v.is_decimal()) {
    out->PutU8(static_cast<uint8_t>(DatumTag::kDecimal));
    out->PutI64(v.decimal_val().value);
    out->PutI32(v.decimal_val().scale);
  } else if (v.is_string()) {
    out->PutU8(static_cast<uint8_t>(DatumTag::kString));
    out->PutLenBytes(v.string_val());
  } else if (v.is_date()) {
    out->PutU8(static_cast<uint8_t>(DatumTag::kDate));
    out->PutI32(v.date_val());
  } else if (v.is_time()) {
    out->PutU8(static_cast<uint8_t>(DatumTag::kTime));
    out->PutI64(v.time_val());
  } else if (v.is_timestamp()) {
    out->PutU8(static_cast<uint8_t>(DatumTag::kTimestamp));
    out->PutI64(v.timestamp_val());
  } else if (v.is_interval()) {
    out->PutU8(static_cast<uint8_t>(DatumTag::kInterval));
    out->PutI64(v.interval_val());
  } else if (v.is_period()) {
    out->PutU8(static_cast<uint8_t>(DatumTag::kPeriod));
    out->PutI32(v.period_val().begin_days);
    out->PutI32(v.period_val().end_days);
  } else {
    return Status::Internal("TDF2: unsupported boxed datum kind");
  }
  return Status::OK();
}

Result<Datum> DecodeDatumTagged(BufferReader* in) {
  HQ_ASSIGN_OR_RETURN(uint8_t tag, in->GetU8());
  switch (static_cast<DatumTag>(tag)) {
    case DatumTag::kBool: {
      HQ_ASSIGN_OR_RETURN(uint8_t b, in->GetU8());
      return Datum::Bool(b != 0);
    }
    case DatumTag::kInt: {
      HQ_ASSIGN_OR_RETURN(int64_t v, in->GetI64());
      return Datum::Int(v);
    }
    case DatumTag::kDouble: {
      HQ_ASSIGN_OR_RETURN(double v, in->GetF64());
      return Datum::MakeDouble(v);
    }
    case DatumTag::kDecimal: {
      HQ_ASSIGN_OR_RETURN(int64_t unscaled, in->GetI64());
      HQ_ASSIGN_OR_RETURN(int32_t scale, in->GetI32());
      return Datum::MakeDecimal(Decimal{unscaled, scale});
    }
    case DatumTag::kString: {
      HQ_ASSIGN_OR_RETURN(std::string s, in->GetLenBytes());
      return Datum::String(std::move(s));
    }
    case DatumTag::kDate: {
      HQ_ASSIGN_OR_RETURN(int32_t d, in->GetI32());
      return Datum::Date(d);
    }
    case DatumTag::kTime: {
      HQ_ASSIGN_OR_RETURN(int64_t t, in->GetI64());
      return Datum::Time(t);
    }
    case DatumTag::kTimestamp: {
      HQ_ASSIGN_OR_RETURN(int64_t t, in->GetI64());
      return Datum::Timestamp(t);
    }
    case DatumTag::kInterval: {
      HQ_ASSIGN_OR_RETURN(int64_t t, in->GetI64());
      return Datum::Interval(t);
    }
    case DatumTag::kPeriod: {
      HQ_ASSIGN_OR_RETURN(int32_t b, in->GetI32());
      HQ_ASSIGN_OR_RETURN(int32_t e, in->GetI32());
      return Datum::Period(b, e);
    }
  }
  return Status::ProtocolError("TDF2: bad boxed datum tag ", tag);
}

}  // namespace

std::vector<uint8_t> EncodeTdfBatch(const std::vector<TdfColumn>& schema,
                                    const ColumnBatch& batch, size_t offset,
                                    size_t rows) {
  BufferWriter out;
  out.PutU32(kTdfMagic2);
  out.PutU32(static_cast<uint32_t>(schema.size()));
  for (const auto& col : schema) {
    out.PutU8(static_cast<uint8_t>(col.type.kind));
    out.PutI32(col.type.length);
    out.PutI32(col.type.precision);
    out.PutI32(col.type.scale);
    out.PutLenBytes(col.name);
  }
  out.PutU32(static_cast<uint32_t>(rows));
  for (const auto& colp : batch.columns) {
    const ColumnVec& col = *colp;
    out.PutU8(static_cast<uint8_t>(col.kind));
    // Re-based validity bitmap for the slice.
    std::vector<uint8_t> valid((rows + 7) / 8, 0);
    for (size_t r = 0; r < rows; ++r) {
      if (!col.IsNull(offset + r)) valid[r >> 3] |= (1u << (r & 7));
    }
    out.PutBytes(valid.data(), valid.size());
    switch (col.kind) {
      case PhysKind::kI64:
      case PhysKind::kTime:
      case PhysKind::kTimestamp:
      case PhysKind::kInterval:
        out.PutBytes(col.i64.data() + offset, rows * 8);
        break;
      case PhysKind::kF64:
        out.PutBytes(col.f64.data() + offset, rows * 8);
        break;
      case PhysKind::kBool:
        out.PutBytes(col.b8.data() + offset, rows);
        break;
      case PhysKind::kDecimal:
        out.PutBytes(col.i64.data() + offset, rows * 8);
        out.PutBytes(col.i32b.data() + offset, rows * 4);
        break;
      case PhysKind::kDate:
        out.PutBytes(col.i32.data() + offset, rows * 4);
        break;
      case PhysKind::kPeriod:
        out.PutBytes(col.i32.data() + offset, rows * 4);
        out.PutBytes(col.i32b.data() + offset, rows * 4);
        break;
      case PhysKind::kString: {
        for (size_t r = 0; r < rows; ++r) {
          out.PutU32(col.offsets[offset + r + 1] - col.offsets[offset + r]);
        }
        out.PutBytes(col.arena.data() + col.offsets[offset],
                     col.offsets[offset + rows] - col.offsets[offset]);
        break;
      }
      case PhysKind::kDatum: {
        for (size_t r = 0; r < rows; ++r) {
          if (col.IsNull(offset + r)) continue;
          // Boxed values were validated on entry; encode failure here would
          // be an internal invariant break, so assert via the status.
          Status s = EncodeDatumTagged(col.datums[offset + r], &out);
          (void)s;
        }
        break;
      }
    }
  }
  return out.Take();
}

Result<TdfReader> TdfReader::Open(const std::vector<uint8_t>& bytes) {
  TdfReader reader;
  BufferReader in(bytes);
  HQ_ASSIGN_OR_RETURN(uint32_t magic, in.GetU32());
  if (magic != kTdfMagic2) return Status::ProtocolError("bad TDF magic");
  HQ_ASSIGN_OR_RETURN(uint32_t ncols, in.GetU32());
  for (uint32_t i = 0; i < ncols; ++i) {
    TdfColumn col;
    HQ_ASSIGN_OR_RETURN(uint8_t kind, in.GetU8());
    col.type.kind = static_cast<TypeKind>(kind);
    HQ_ASSIGN_OR_RETURN(col.type.length, in.GetI32());
    HQ_ASSIGN_OR_RETURN(col.type.precision, in.GetI32());
    HQ_ASSIGN_OR_RETURN(col.type.scale, in.GetI32());
    HQ_ASSIGN_OR_RETURN(col.name, in.GetLenBytes());
    reader.schema_.push_back(std::move(col));
  }
  HQ_ASSIGN_OR_RETURN(uint32_t nrows, in.GetU32());

  auto batch = std::make_shared<ColumnBatch>();
  batch->rows = nrows;
  const size_t n = nrows;
  // Every fixed-width read takes its bytes before sizing a vector, so a
  // corrupt row count fails as an underrun instead of a huge allocation.
  auto fill = [&](auto* v) -> Status {
    using T = typename std::remove_pointer_t<decltype(v)>::value_type;
    HQ_ASSIGN_OR_RETURN(const uint8_t* p, in.GetSpan(n * sizeof(T)));
    v->resize(n);
    if (n > 0) std::memcpy(v->data(), p, n * sizeof(T));
    return Status::OK();
  };
  for (size_t c = 0; c < reader.schema_.size(); ++c) {
    HQ_ASSIGN_OR_RETURN(uint8_t phys, in.GetU8());
    if (phys > static_cast<uint8_t>(PhysKind::kDatum)) {
      return Status::ProtocolError("TDF2: bad physical column kind ", phys);
    }
    auto col = std::make_shared<ColumnVec>(static_cast<PhysKind>(phys));
    col->size = n;
    HQ_ASSIGN_OR_RETURN(const uint8_t* valid, in.GetSpan((n + 7) / 8));
    col->valid.assign(valid, valid + (n + 7) / 8);
    for (size_t r = 0; r < n; ++r) {
      if (col->IsNull(r)) ++col->nulls;
    }
    switch (col->kind) {
      case PhysKind::kI64:
      case PhysKind::kTime:
      case PhysKind::kTimestamp:
      case PhysKind::kInterval:
        HQ_RETURN_IF_ERROR(fill(&col->i64));
        break;
      case PhysKind::kF64:
        HQ_RETURN_IF_ERROR(fill(&col->f64));
        break;
      case PhysKind::kBool:
        HQ_RETURN_IF_ERROR(fill(&col->b8));
        break;
      case PhysKind::kDecimal:
        HQ_RETURN_IF_ERROR(fill(&col->i64));
        HQ_RETURN_IF_ERROR(fill(&col->i32b));
        break;
      case PhysKind::kDate:
        HQ_RETURN_IF_ERROR(fill(&col->i32));
        break;
      case PhysKind::kPeriod:
        HQ_RETURN_IF_ERROR(fill(&col->i32));
        HQ_RETURN_IF_ERROR(fill(&col->i32b));
        break;
      case PhysKind::kString: {
        std::vector<uint32_t> lens;
        HQ_RETURN_IF_ERROR(fill(&lens));
        col->offsets.resize(n + 1);
        uint64_t total = 0;
        for (size_t r = 0; r < n; ++r) {
          total += lens[r];
          if (total > UINT32_MAX) {
            return Status::ProtocolError("TDF2: string arena too large");
          }
          col->offsets[r + 1] = static_cast<uint32_t>(total);
        }
        HQ_ASSIGN_OR_RETURN(col->arena, in.GetBytes(total));
        break;
      }
      case PhysKind::kDatum: {
        // Each boxed value takes at least two bytes (tag + payload).
        if (in.remaining() < 2 * (n - col->nulls)) {
          return Status::ProtocolError("TDF2: truncated boxed column");
        }
        col->datums.resize(n);
        for (size_t r = 0; r < n; ++r) {
          if (col->IsNull(r)) continue;
          HQ_ASSIGN_OR_RETURN(col->datums[r], DecodeDatumTagged(&in));
        }
        break;
      }
    }
    batch->columns.push_back(std::move(col));
  }
  if (!in.AtEnd()) {
    return Status::ProtocolError("TDF2: ", in.remaining(),
                                 " trailing bytes after the payload");
  }
  reader.batch_ = std::move(batch);
  return reader;
}

Result<std::shared_ptr<const ColumnBatch>> CanonicalizeBatch(
    const std::vector<TdfColumn>& schema,
    std::shared_ptr<const ColumnBatch> chunk) {
  const size_t n = chunk->rows;
  auto conforms = [&](size_t c) -> bool {
    const ColumnVec& col = *chunk->columns[c];
    const SqlType& t = schema[c].type;
    switch (t.kind) {
      case TypeKind::kSmallInt:
      case TypeKind::kInt:
      case TypeKind::kBigInt:
        return col.kind == PhysKind::kI64;
      case TypeKind::kDouble:
        return col.kind == PhysKind::kF64;
      case TypeKind::kBool:
        return col.kind == PhysKind::kBool;
      case TypeKind::kDecimal: {
        if (col.kind != PhysKind::kDecimal) return false;
        for (size_t r = 0; r < n; ++r) {
          if (!col.IsNull(r) && col.i32b[r] != t.scale) return false;
        }
        return true;
      }
      case TypeKind::kChar:
        // A short CHAR(n) value conforms: the wire encoders blank-pad it to
        // n, so padding here would only copy the column. An over-long one
        // is truncated by the rebuild.
      case TypeKind::kVarchar: {
        if (col.kind != PhysKind::kString) return false;
        if (t.length <= 0) return true;
        for (size_t r = 0; r < n; ++r) {
          if (col.IsNull(r)) continue;
          if (col.offsets[r + 1] - col.offsets[r] >
              static_cast<uint32_t>(t.length)) {
            return false;
          }
        }
        return true;
      }
      case TypeKind::kDate:
        return col.kind == PhysKind::kDate;
      case TypeKind::kTime:
        return col.kind == PhysKind::kTime;
      case TypeKind::kTimestamp:
        return col.kind == PhysKind::kTimestamp;
      case TypeKind::kInterval:
        return col.kind == PhysKind::kInterval;
      case TypeKind::kPeriodDate:
        return col.kind == PhysKind::kPeriod;
      case TypeKind::kNull:
        // A kNull schema column carries no values; canonical form is the
        // all-NULL column.
        return col.nulls == col.size;
    }
    return false;
  };

  // The identity check allocates nothing; a column that fails it starts
  // the rebuild, which re-checks the columns after it.
  size_t first_bad = 0;
  while (first_bad < chunk->columns.size() && conforms(first_bad)) {
    ++first_bad;
  }
  if (first_bad == chunk->columns.size()) return chunk;

  auto out = std::make_shared<ColumnBatch>();
  out->rows = n;
  for (size_t c = 0; c < chunk->columns.size(); ++c) {
    if (c < first_bad || (c > first_bad && conforms(c))) {
      out->columns.push_back(chunk->columns[c]);
      continue;
    }
    const ColumnVec& src = *chunk->columns[c];
    const SqlType& t = schema[c].type;
    auto col = std::make_shared<ColumnVec>(vdb::PhysKindFor(t));
    col->Reserve(n);
    for (size_t r = 0; r < n; ++r) {
      if (src.IsNull(r) || t.kind == TypeKind::kNull) {
        col->AppendNull();
        continue;
      }
      HQ_ASSIGN_OR_RETURN(Datum v, src.GetDatum(r).CastTo(t));
      if (!col->Append(v)) {
        return Status::Internal("TDF2: cast result does not match schema ",
                                "column kind");
      }
    }
    out->columns.push_back(std::move(col));
  }
  return std::shared_ptr<const ColumnBatch>(std::move(out));
}

}  // namespace hyperq::backend
