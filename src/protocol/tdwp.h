// tdwp — the Teradata-like frontend wire protocol WP-A.
//
// The real Teradata protocol is proprietary; tdwp reproduces its demanding
// properties (the ones the paper's Protocol Handler must emulate): a logon
// handshake, length-prefixed binary messages, a result header that announces
// the TOTAL row count before any row is sent (forcing the Result Converter
// to buffer/spill), and a compact per-row binary record format with a
// presence bitmap and Teradata's integer DATE encoding.
//
// Framing: every message is
//   kind   u8
//   flags  u8
//   resv   u16
//   length u32   (payload bytes)
//   payload
// All integers little-endian.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/result.h"
#include "types/datum.h"
#include "types/type.h"

namespace hyperq::protocol {

enum class MessageKind : uint8_t {
  kLogonRequest = 1,
  kLogonResponse = 2,
  kRunRequest = 3,
  kResultHeader = 4,
  kRecordBatch = 5,
  kSuccess = 6,
  kError = 7,
  kGoodbye = 8,
  // Lifecycle (DESIGN.md §8): asks the server to cancel the in-flight
  // request on this session. Empty payload. The server answers the
  // *request being aborted* with a kError frame (code kCancelled); the
  // abort frame itself gets no reply of its own.
  kAbortRequest = 9,
  // Admin (DESIGN.md §9): asks the server for a metrics scrape. Empty
  // payload; allowed pre-logon so monitoring agents need no credentials.
  // Answered with exactly one kStatsResponse frame.
  kStatsRequest = 10,
  // The scrape payload: the registry's deterministic text rendering
  // (`counter <name> <value>` / `gauge ...` / `histogram ...` lines).
  kStatsResponse = 11,
};

struct Frame {
  MessageKind kind;
  uint8_t flags = 0;
  std::vector<uint8_t> payload;
};

/// Bytes of the fixed frame header (kind, flags, resv, length).
inline constexpr size_t kFrameHeaderBytes = 8;

/// \brief Appends one frame (header + payload) to `out`. Several frames
/// appended to one buffer go out in a single send.
void AppendFrame(MessageKind kind, const std::vector<uint8_t>& payload,
                 std::vector<uint8_t>* out, uint8_t flags = 0);

/// \brief Serializes a frame (header + payload).
std::vector<uint8_t> EncodeFrame(const Frame& frame);

/// \brief Builds a frame in place: BeginFrame appends the frame header with
/// a zero length and returns where the frame starts; the caller appends the
/// payload straight after it; EndFrame writes the payload's length. The
/// bytes equal AppendFrame's, without a payload buffer of their own.
size_t BeginFrame(MessageKind kind, BufferWriter* out);
void EndFrame(size_t frame_start, BufferWriter* out);

// --- Message payloads ------------------------------------------------------

struct LogonRequest {
  std::string user;
  std::string password;
  std::string default_database;
  std::string charset = "ASCII";
};

struct LogonResponse {
  bool ok = false;
  uint32_t session_id = 0;
  std::string message;
  std::string server_version = "hyperq-tdwp/1.0";
};

struct RunRequest {
  std::string sql;
};

/// Wire type codes (Teradata-flavored).
enum class WireType : uint8_t {
  kSmallInt = 1,   // 2 bytes
  kInteger = 2,    // 4 bytes
  kBigInt = 3,     // 8 bytes
  kDecimal = 4,    // 8 bytes unscaled (scale in descriptor)
  kFloat = 5,      // 8 bytes
  kChar = 6,       // fixed `length` bytes, blank padded
  kVarchar = 7,    // u16 length + bytes
  kDate = 8,       // 4 bytes, Teradata (y-1900)*10000+m*100+d encoding
  kTime = 9,       // 8 bytes micros since midnight
  kTimestamp = 10, // 8 bytes micros since epoch
  kPeriodDate = 11,// 2 x 4-byte dates
};

struct WireColumn {
  std::string name;
  WireType type;
  int32_t length = 0;  // kChar fixed width / kVarchar max
  int32_t scale = 0;   // kDecimal
};

struct ResultHeader {
  std::vector<WireColumn> columns;
  uint64_t total_rows = 0;  // announced before any record is shipped
};

struct SuccessMessage {
  uint64_t activity_count = 0;
  std::string tag;
  // Hyper-Q appends its timing breakdown so clients/benchmarks can report
  // the Figure 9 decomposition without a side channel.
  double translation_micros = 0;
  double execution_micros = 0;
  double conversion_micros = 0;
};

struct ErrorMessage {
  uint32_t code = 0;
  std::string message;
};

struct StatsResponse {
  std::string text;  // MetricsSnapshot::RenderText() output
};

// Encode/decode payloads (not frames).
std::vector<uint8_t> Encode(const LogonRequest& m);
std::vector<uint8_t> Encode(const LogonResponse& m);
std::vector<uint8_t> Encode(const RunRequest& m);
std::vector<uint8_t> Encode(const ResultHeader& m);
std::vector<uint8_t> Encode(const SuccessMessage& m);
std::vector<uint8_t> Encode(const ErrorMessage& m);
std::vector<uint8_t> Encode(const StatsResponse& m);

/// Appends a payload to `out`: the bytes Encode returns.
void EncodeTo(const ResultHeader& m, BufferWriter* out);
void EncodeTo(const SuccessMessage& m, BufferWriter* out);
void EncodeTo(const ErrorMessage& m, BufferWriter* out);
/// Payload bytes EncodeTo appends, for sizing a buffer up front.
size_t EncodedSize(const ResultHeader& m);
size_t EncodedSize(const SuccessMessage& m);

Result<LogonRequest> DecodeLogonRequest(const std::vector<uint8_t>& p);
Result<LogonResponse> DecodeLogonResponse(const std::vector<uint8_t>& p);
Result<RunRequest> DecodeRunRequest(const std::vector<uint8_t>& p);
Result<ResultHeader> DecodeResultHeader(const std::vector<uint8_t>& p);
Result<SuccessMessage> DecodeSuccess(const std::vector<uint8_t>& p);
Result<ErrorMessage> DecodeError(const std::vector<uint8_t>& p);
Result<StatsResponse> DecodeStatsResponse(const std::vector<uint8_t>& p);

// --- Record (row) binary format ---------------------------------------------

/// \brief Maps a logical SQL type to its wire descriptor.
Result<WireColumn> ToWireColumn(const std::string& name, const SqlType& type);

/// \brief Encodes one row into the record format: u16 record length,
/// presence bitmap, then fields per the wire type. Appends to `out`.
Status EncodeRecord(const std::vector<WireColumn>& schema,
                    const std::vector<Datum>& row, BufferWriter* out);

/// \brief Decodes one record (client side / tests), reading the record in
/// place. A record whose fields do not fill exactly its u16 length is a
/// ProtocolError.
Result<std::vector<Datum>> DecodeRecord(const std::vector<WireColumn>& schema,
                                        BufferReader* in);

}  // namespace hyperq::protocol
