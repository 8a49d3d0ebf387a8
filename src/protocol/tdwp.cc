#include "protocol/tdwp.h"

#include <cstring>

#include "types/date.h"

namespace hyperq::protocol {

void AppendFrame(MessageKind kind, const std::vector<uint8_t>& payload,
                 std::vector<uint8_t>* out, uint8_t flags) {
  uint8_t header[kFrameHeaderBytes] = {static_cast<uint8_t>(kind), flags};
  uint32_t len = static_cast<uint32_t>(payload.size());
  std::memcpy(header + 4, &len, 4);
  out->insert(out->end(), header, header + kFrameHeaderBytes);
  out->insert(out->end(), payload.begin(), payload.end());
}

std::vector<uint8_t> EncodeFrame(const Frame& frame) {
  std::vector<uint8_t> out;
  out.reserve(kFrameHeaderBytes + frame.payload.size());
  AppendFrame(frame.kind, frame.payload, &out, frame.flags);
  return out;
}

size_t BeginFrame(MessageKind kind, BufferWriter* out) {
  const size_t start = out->size();
  out->Extend(kFrameHeaderBytes)[0] = static_cast<uint8_t>(kind);
  return start;
}

void EndFrame(size_t frame_start, BufferWriter* out) {
  out->PatchU32(frame_start + 4,
                static_cast<uint32_t>(out->size() - frame_start -
                                      kFrameHeaderBytes));
}

std::vector<uint8_t> Encode(const LogonRequest& m) {
  BufferWriter out;
  out.PutLenBytes(m.user);
  out.PutLenBytes(m.password);
  out.PutLenBytes(m.default_database);
  out.PutLenBytes(m.charset);
  return out.Take();
}

Result<LogonRequest> DecodeLogonRequest(const std::vector<uint8_t>& p) {
  BufferReader in(p);
  LogonRequest m;
  HQ_ASSIGN_OR_RETURN(m.user, in.GetLenBytes());
  HQ_ASSIGN_OR_RETURN(m.password, in.GetLenBytes());
  HQ_ASSIGN_OR_RETURN(m.default_database, in.GetLenBytes());
  HQ_ASSIGN_OR_RETURN(m.charset, in.GetLenBytes());
  return m;
}

std::vector<uint8_t> Encode(const LogonResponse& m) {
  BufferWriter out;
  out.PutU8(m.ok ? 1 : 0);
  out.PutU32(m.session_id);
  out.PutLenBytes(m.message);
  out.PutLenBytes(m.server_version);
  return out.Take();
}

Result<LogonResponse> DecodeLogonResponse(const std::vector<uint8_t>& p) {
  BufferReader in(p);
  LogonResponse m;
  HQ_ASSIGN_OR_RETURN(uint8_t ok, in.GetU8());
  m.ok = ok != 0;
  HQ_ASSIGN_OR_RETURN(m.session_id, in.GetU32());
  HQ_ASSIGN_OR_RETURN(m.message, in.GetLenBytes());
  HQ_ASSIGN_OR_RETURN(m.server_version, in.GetLenBytes());
  return m;
}

std::vector<uint8_t> Encode(const RunRequest& m) {
  BufferWriter out;
  out.PutLenBytes(m.sql);
  return out.Take();
}

Result<RunRequest> DecodeRunRequest(const std::vector<uint8_t>& p) {
  BufferReader in(p);
  RunRequest m;
  HQ_ASSIGN_OR_RETURN(m.sql, in.GetLenBytes());
  return m;
}

void EncodeTo(const ResultHeader& m, BufferWriter* out) {
  out->PutU32(static_cast<uint32_t>(m.columns.size()));
  for (const auto& col : m.columns) {
    out->PutLenBytes(col.name);
    out->PutU8(static_cast<uint8_t>(col.type));
    out->PutI32(col.length);
    out->PutI32(col.scale);
  }
  out->PutU64(m.total_rows);
}

size_t EncodedSize(const ResultHeader& m) {
  size_t bytes = 4 + 8;
  for (const auto& col : m.columns) bytes += 4 + col.name.size() + 1 + 4 + 4;
  return bytes;
}

std::vector<uint8_t> Encode(const ResultHeader& m) {
  BufferWriter out;
  EncodeTo(m, &out);
  return out.Take();
}

Result<ResultHeader> DecodeResultHeader(const std::vector<uint8_t>& p) {
  BufferReader in(p);
  ResultHeader m;
  HQ_ASSIGN_OR_RETURN(uint32_t ncols, in.GetU32());
  for (uint32_t i = 0; i < ncols; ++i) {
    WireColumn col;
    HQ_ASSIGN_OR_RETURN(col.name, in.GetLenBytes());
    HQ_ASSIGN_OR_RETURN(uint8_t t, in.GetU8());
    col.type = static_cast<WireType>(t);
    HQ_ASSIGN_OR_RETURN(col.length, in.GetI32());
    HQ_ASSIGN_OR_RETURN(col.scale, in.GetI32());
    m.columns.push_back(std::move(col));
  }
  HQ_ASSIGN_OR_RETURN(m.total_rows, in.GetU64());
  return m;
}

void EncodeTo(const SuccessMessage& m, BufferWriter* out) {
  out->PutU64(m.activity_count);
  out->PutLenBytes(m.tag);
  out->PutF64(m.translation_micros);
  out->PutF64(m.execution_micros);
  out->PutF64(m.conversion_micros);
}

size_t EncodedSize(const SuccessMessage& m) {
  return 8 + 4 + m.tag.size() + 3 * 8;
}

std::vector<uint8_t> Encode(const SuccessMessage& m) {
  BufferWriter out;
  EncodeTo(m, &out);
  return out.Take();
}

Result<SuccessMessage> DecodeSuccess(const std::vector<uint8_t>& p) {
  BufferReader in(p);
  SuccessMessage m;
  HQ_ASSIGN_OR_RETURN(m.activity_count, in.GetU64());
  HQ_ASSIGN_OR_RETURN(m.tag, in.GetLenBytes());
  HQ_ASSIGN_OR_RETURN(m.translation_micros, in.GetF64());
  HQ_ASSIGN_OR_RETURN(m.execution_micros, in.GetF64());
  HQ_ASSIGN_OR_RETURN(m.conversion_micros, in.GetF64());
  return m;
}

void EncodeTo(const ErrorMessage& m, BufferWriter* out) {
  out->PutU32(m.code);
  out->PutLenBytes(m.message);
}

std::vector<uint8_t> Encode(const ErrorMessage& m) {
  BufferWriter out;
  EncodeTo(m, &out);
  return out.Take();
}

Result<ErrorMessage> DecodeError(const std::vector<uint8_t>& p) {
  BufferReader in(p);
  ErrorMessage m;
  HQ_ASSIGN_OR_RETURN(m.code, in.GetU32());
  HQ_ASSIGN_OR_RETURN(m.message, in.GetLenBytes());
  return m;
}

std::vector<uint8_t> Encode(const StatsResponse& m) {
  BufferWriter out;
  // u32 length prefix rather than PutLenBytes: a scrape routinely exceeds
  // the u16 cap the generic length-prefixed-string helper enforces.
  out.PutU32(static_cast<uint32_t>(m.text.size()));
  out.PutBytes(m.text.data(), m.text.size());
  return out.Take();
}

Result<StatsResponse> DecodeStatsResponse(const std::vector<uint8_t>& p) {
  BufferReader in(p);
  StatsResponse m;
  HQ_ASSIGN_OR_RETURN(uint32_t len, in.GetU32());
  HQ_ASSIGN_OR_RETURN(m.text, in.GetBytes(len));
  return m;
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

Result<WireColumn> ToWireColumn(const std::string& name,
                                const SqlType& type) {
  WireColumn col;
  col.name = name;
  switch (type.kind) {
    case TypeKind::kSmallInt:
      col.type = WireType::kSmallInt;
      break;
    case TypeKind::kBool:  // booleans travel as SMALLINT 0/1
      col.type = WireType::kSmallInt;
      break;
    case TypeKind::kInt:
      col.type = WireType::kInteger;
      break;
    case TypeKind::kBigInt:
      col.type = WireType::kBigInt;
      break;
    case TypeKind::kDecimal:
      col.type = WireType::kDecimal;
      col.scale = type.scale;
      break;
    case TypeKind::kDouble:
      col.type = WireType::kFloat;
      break;
    case TypeKind::kChar:
      col.type = WireType::kChar;
      col.length = type.length > 0 ? type.length : 1;
      break;
    case TypeKind::kNull:  // untyped NULL columns travel as VARCHAR
    case TypeKind::kVarchar:
      col.type = WireType::kVarchar;
      col.length = type.length;
      break;
    case TypeKind::kDate:
      col.type = WireType::kDate;
      break;
    case TypeKind::kTime:
      col.type = WireType::kTime;
      break;
    case TypeKind::kTimestamp:
      col.type = WireType::kTimestamp;
      break;
    case TypeKind::kPeriodDate:
      col.type = WireType::kPeriodDate;
      break;
    case TypeKind::kInterval:
      return Status::NotSupported("INTERVAL result columns are not part of "
                                  "the tdwp surface");
  }
  return col;
}

Status EncodeRecord(const std::vector<WireColumn>& schema,
                    const std::vector<Datum>& row, BufferWriter* out) {
  if (row.size() != schema.size()) {
    return Status::InvalidArgument("record arity mismatch");
  }
  BufferWriter rec;
  size_t nbytes = (schema.size() + 7) / 8;
  std::vector<uint8_t> bitmap(nbytes, 0);
  for (size_t i = 0; i < row.size(); ++i) {
    if (!row[i].is_null()) bitmap[i / 8] |= (1u << (i % 8));
  }
  rec.PutBytes(bitmap.data(), bitmap.size());
  for (size_t i = 0; i < row.size(); ++i) {
    const Datum& v = row[i];
    if (v.is_null()) continue;
    switch (schema[i].type) {
      case WireType::kSmallInt:
        rec.PutI16(static_cast<int16_t>(v.AsInt()));
        break;
      case WireType::kInteger:
        rec.PutI32(static_cast<int32_t>(v.AsInt()));
        break;
      case WireType::kBigInt:
        rec.PutI64(v.AsInt());
        break;
      case WireType::kDecimal: {
        Decimal d = v.is_decimal() ? v.decimal_val() : Decimal{v.AsInt(), 0};
        rec.PutI64(d.Rescale(schema[i].scale).value);
        break;
      }
      case WireType::kFloat:
        rec.PutF64(v.AsDouble());
        break;
      case WireType::kChar: {
        std::string s = v.is_string() ? v.string_val() : v.ToString();
        s.resize(static_cast<size_t>(schema[i].length), ' ');
        rec.PutBytes(s.data(), s.size());
        break;
      }
      case WireType::kVarchar: {
        std::string s = v.is_string() ? v.string_val() : v.ToString();
        if (s.size() > 0xFFFF) s.resize(0xFFFF);
        rec.PutU16(static_cast<uint16_t>(s.size()));
        rec.PutBytes(s.data(), s.size());
        break;
      }
      case WireType::kDate: {
        // Bit-identical to the original database: the Teradata integer
        // encoding, not days-since-epoch.
        if (!v.is_date()) {
          return Status::Internal("non-date datum in DATE column");
        }
        rec.PutI32(static_cast<int32_t>(DateToTeradataInt(v.date_val())));
        break;
      }
      case WireType::kTime:
        rec.PutI64(v.time_val());
        break;
      case WireType::kTimestamp:
        rec.PutI64(v.timestamp_val());
        break;
      case WireType::kPeriodDate: {
        auto p = v.period_val();
        rec.PutI32(static_cast<int32_t>(DateToTeradataInt(p.begin_days)));
        rec.PutI32(static_cast<int32_t>(DateToTeradataInt(p.end_days)));
        break;
      }
    }
  }
  if (rec.size() > 0xFFFF) {
    return Status::ProtocolError("record exceeds the 64KiB tdwp row limit");
  }
  out->PutU16(static_cast<uint16_t>(rec.size()));
  out->PutBytes(rec.data(), rec.size());
  return Status::OK();
}

Result<std::vector<Datum>> DecodeRecord(const std::vector<WireColumn>& schema,
                                        BufferReader* in) {
  HQ_ASSIGN_OR_RETURN(uint16_t rec_len, in->GetU16());
  HQ_ASSIGN_OR_RETURN(const uint8_t* rec_bytes, in->GetSpan(rec_len));
  BufferReader rec(rec_bytes, rec_len);
  size_t nbytes = (schema.size() + 7) / 8;
  HQ_ASSIGN_OR_RETURN(const uint8_t* bitmap, rec.GetSpan(nbytes));
  std::vector<Datum> row;
  row.reserve(schema.size());
  for (size_t i = 0; i < schema.size(); ++i) {
    bool present = (bitmap[i / 8] >> (i % 8)) & 1;
    if (!present) {
      row.push_back(Datum::Null());
      continue;
    }
    switch (schema[i].type) {
      case WireType::kSmallInt: {
        HQ_ASSIGN_OR_RETURN(int16_t v, rec.GetI16());
        row.push_back(Datum::Int(v));
        break;
      }
      case WireType::kInteger: {
        HQ_ASSIGN_OR_RETURN(int32_t v, rec.GetI32());
        row.push_back(Datum::Int(v));
        break;
      }
      case WireType::kBigInt: {
        HQ_ASSIGN_OR_RETURN(int64_t v, rec.GetI64());
        row.push_back(Datum::Int(v));
        break;
      }
      case WireType::kDecimal: {
        HQ_ASSIGN_OR_RETURN(int64_t v, rec.GetI64());
        row.push_back(Datum::MakeDecimal(Decimal{v, schema[i].scale}));
        break;
      }
      case WireType::kFloat: {
        HQ_ASSIGN_OR_RETURN(double v, rec.GetF64());
        row.push_back(Datum::MakeDouble(v));
        break;
      }
      case WireType::kChar: {
        HQ_ASSIGN_OR_RETURN(std::string s,
                            rec.GetBytes(schema[i].length));
        row.push_back(Datum::String(std::move(s)));
        break;
      }
      case WireType::kVarchar: {
        HQ_ASSIGN_OR_RETURN(uint16_t len, rec.GetU16());
        HQ_ASSIGN_OR_RETURN(std::string s, rec.GetBytes(len));
        row.push_back(Datum::String(std::move(s)));
        break;
      }
      case WireType::kDate: {
        HQ_ASSIGN_OR_RETURN(int32_t enc, rec.GetI32());
        HQ_ASSIGN_OR_RETURN(int32_t days, TeradataIntToDate(enc));
        row.push_back(Datum::Date(days));
        break;
      }
      case WireType::kTime: {
        HQ_ASSIGN_OR_RETURN(int64_t v, rec.GetI64());
        row.push_back(Datum::Time(v));
        break;
      }
      case WireType::kTimestamp: {
        HQ_ASSIGN_OR_RETURN(int64_t v, rec.GetI64());
        row.push_back(Datum::Timestamp(v));
        break;
      }
      case WireType::kPeriodDate: {
        HQ_ASSIGN_OR_RETURN(int32_t b, rec.GetI32());
        HQ_ASSIGN_OR_RETURN(int32_t e, rec.GetI32());
        HQ_ASSIGN_OR_RETURN(int32_t bd, TeradataIntToDate(b));
        HQ_ASSIGN_OR_RETURN(int32_t ed, TeradataIntToDate(e));
        row.push_back(Datum::Period(bd, ed));
        break;
      }
    }
  }
  if (!rec.AtEnd()) {
    return Status::ProtocolError("record of ", rec_len, " bytes has ",
                                 rec.remaining(),
                                 " trailing bytes past its fields");
  }
  return row;
}

}  // namespace hyperq::protocol
