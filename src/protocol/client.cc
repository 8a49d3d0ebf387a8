#include "protocol/client.h"

#include <algorithm>

namespace hyperq::protocol {

namespace {
constexpr uint64_t kMaxReservedRows = 1 << 16;
}  // namespace

Status TdwpClient::Connect(uint16_t port) {
  HQ_ASSIGN_OR_RETURN(sock_, Socket::ConnectLocal(port));
  // Tag the link for the chaos seam: schedules targeting "client" degrade
  // the client side of the client<->proxy links independently of the
  // server side.
  sock_.set_link_scope(linkscopes::kClient);
  return Status::OK();
}

Status TdwpClient::Logon(const std::string& user, const std::string& password,
                         const std::string& default_database) {
  LogonRequest req;
  req.user = user;
  req.password = password;
  req.default_database = default_database;
  Frame f{MessageKind::kLogonRequest, 0, Encode(req)};
  HQ_RETURN_IF_ERROR(sock_.WriteFrame(f));
  HQ_ASSIGN_OR_RETURN(Frame resp, sock_.ReadFrame());
  if (resp.kind == MessageKind::kError) {
    HQ_ASSIGN_OR_RETURN(ErrorMessage err, DecodeError(resp.payload));
    return Status::ProtocolError("logon failed: ", err.message);
  }
  if (resp.kind != MessageKind::kLogonResponse) {
    return Status::ProtocolError("unexpected logon reply");
  }
  HQ_ASSIGN_OR_RETURN(LogonResponse lr, DecodeLogonResponse(resp.payload));
  if (!lr.ok) {
    return Status::ProtocolError("logon rejected: ", lr.message);
  }
  session_id_ = lr.session_id;
  return Status::OK();
}

Result<ClientResult> TdwpClient::Run(const std::string& sql) {
  RunRequest req;
  req.sql = sql;
  Frame f{MessageKind::kRunRequest, 0, Encode(req)};
  HQ_RETURN_IF_ERROR(sock_.WriteFrame(f));

  ClientResult out;
  uint64_t announced_rows = 0;
  bool have_header = false;
  while (true) {
    HQ_ASSIGN_OR_RETURN(Frame frame, sock_.ReadFrame());
    switch (frame.kind) {
      case MessageKind::kError: {
        HQ_ASSIGN_OR_RETURN(ErrorMessage err, DecodeError(frame.payload));
        // Reconstruct the typed status the server put on the wire: the
        // frame carries the StatusCode, and the message already renders
        // code[detail]. Flattening to kExecutionError would hide the
        // retryable/deadline/cancelled taxonomy from callers (and from
        // the chaos invariant auditor's ledger).
        auto code = static_cast<StatusCode>(err.code);
        if (err.code == 0 ||
            err.code > static_cast<uint32_t>(StatusCode::kCancelled)) {
          return Status::ExecutionError(err.message);
        }
        return Status(code, err.message);
      }
      case MessageKind::kResultHeader: {
        HQ_ASSIGN_OR_RETURN(ResultHeader header,
                            DecodeResultHeader(frame.payload));
        out.columns = std::move(header.columns);
        announced_rows = header.total_rows;
        // The header announces the row count up front; cap the reservation
        // so a corrupted count cannot demand gigabytes before any row.
        out.rows.reserve(std::min<uint64_t>(announced_rows, kMaxReservedRows));
        have_header = true;
        break;
      }
      case MessageKind::kRecordBatch: {
        if (!have_header) {
          return Status::ProtocolError("record batch before result header");
        }
        BufferReader in(frame.payload);
        HQ_ASSIGN_OR_RETURN(uint32_t nrows, in.GetU32());
        for (uint32_t i = 0; i < nrows; ++i) {
          HQ_ASSIGN_OR_RETURN(std::vector<Datum> row,
                              DecodeRecord(out.columns, &in));
          out.rows.push_back(std::move(row));
        }
        break;
      }
      case MessageKind::kSuccess: {
        HQ_ASSIGN_OR_RETURN(SuccessMessage s, DecodeSuccess(frame.payload));
        out.activity_count = s.activity_count;
        out.tag = std::move(s.tag);
        out.translation_micros = s.translation_micros;
        out.execution_micros = s.execution_micros;
        out.conversion_micros = s.conversion_micros;
        if (have_header && out.rows.size() != announced_rows) {
          return Status::ProtocolError(
              "row count mismatch: header announced ", announced_rows,
              " rows, received ", out.rows.size());
        }
        return out;
      }
      default:
        return Status::ProtocolError("unexpected message kind during RUN");
    }
  }
}

Result<std::string> TdwpClient::Scrape() {
  Frame f{MessageKind::kStatsRequest, 0, {}};
  HQ_RETURN_IF_ERROR(sock_.WriteFrame(f));
  HQ_ASSIGN_OR_RETURN(Frame resp, sock_.ReadFrame());
  if (resp.kind == MessageKind::kError) {
    HQ_ASSIGN_OR_RETURN(ErrorMessage err, DecodeError(resp.payload));
    return Status::ExecutionError("scrape failed: ", err.message);
  }
  if (resp.kind != MessageKind::kStatsResponse) {
    return Status::ProtocolError("unexpected scrape reply kind ",
                                 static_cast<int>(resp.kind));
  }
  HQ_ASSIGN_OR_RETURN(StatsResponse sr, DecodeStatsResponse(resp.payload));
  return sr.text;
}

Status TdwpClient::Abort() {
  if (!sock_.valid()) {
    return Status::IoError("abort on a disconnected client");
  }
  Frame f{MessageKind::kAbortRequest, 0, {}};
  return sock_.WriteFrame(f);
}

void TdwpClient::HardClose() { sock_.Close(); }

void TdwpClient::Goodbye() {
  if (sock_.valid()) {
    Frame f{MessageKind::kGoodbye, 0, {}};
    (void)sock_.WriteFrame(f);
    sock_.Close();
  }
}

}  // namespace hyperq::protocol
