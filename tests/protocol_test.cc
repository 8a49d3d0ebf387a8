// tdwp message codec and record-format tests, including bit-level
// round-trip properties and the Teradata DATE wire encoding, plus server
// robustness against malformed/truncated frames and overload.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "protocol/client.h"
#include "protocol/server.h"
#include "protocol/socket.h"
#include "protocol/tdwp.h"
#include "types/date.h"

namespace hyperq::protocol {
namespace {

TEST(TdwpCodecTest, LogonRoundTrip) {
  LogonRequest req;
  req.user = "alice";
  req.password = "s3cret";
  req.default_database = "SALES";
  req.charset = "UTF8";
  auto decoded = DecodeLogonRequest(Encode(req));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->user, "alice");
  EXPECT_EQ(decoded->password, "s3cret");
  EXPECT_EQ(decoded->default_database, "SALES");
  EXPECT_EQ(decoded->charset, "UTF8");
}

TEST(TdwpCodecTest, LogonResponseRoundTrip) {
  LogonResponse resp;
  resp.ok = true;
  resp.session_id = 77;
  resp.message = "welcome";
  auto decoded = DecodeLogonResponse(Encode(resp));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->ok);
  EXPECT_EQ(decoded->session_id, 77u);
}

TEST(TdwpCodecTest, ResultHeaderRoundTrip) {
  ResultHeader header;
  header.columns = {{"A", WireType::kInteger, 0, 0},
                    {"D", WireType::kDecimal, 0, 2},
                    {"S", WireType::kChar, 10, 0}};
  header.total_rows = 123456789;
  auto decoded = DecodeResultHeader(Encode(header));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->total_rows, 123456789u);
  ASSERT_EQ(decoded->columns.size(), 3u);
  EXPECT_EQ(decoded->columns[1].scale, 2);
  EXPECT_EQ(decoded->columns[2].length, 10);
}

TEST(TdwpCodecTest, SuccessCarriesTimingBreakdown) {
  SuccessMessage s;
  s.activity_count = 9;
  s.tag = "SELECT";
  s.translation_micros = 12.5;
  s.execution_micros = 100.25;
  s.conversion_micros = 3.75;
  auto decoded = DecodeSuccess(Encode(s));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->activity_count, 9u);
  EXPECT_DOUBLE_EQ(decoded->translation_micros, 12.5);
  EXPECT_DOUBLE_EQ(decoded->conversion_micros, 3.75);
}

TEST(TdwpCodecTest, TruncatedPayloadRejected) {
  auto bytes = Encode(LogonRequest{"u", "p", "", ""});
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(DecodeLogonRequest(bytes).ok());
}

TEST(RecordFormatTest, DateTravelsAsTeradataInteger) {
  auto col = ToWireColumn("D", SqlType::Date());
  ASSERT_TRUE(col.ok());
  std::vector<WireColumn> schema = {*col};
  int32_t days = DaysFromCivil(2014, 1, 1);
  BufferWriter w;
  ASSERT_TRUE(EncodeRecord(schema, {Datum::Date(days)}, &w).ok());
  // Peek into the record: u16 length + 1 bitmap byte + i32 value.
  BufferReader peek(w.data(), w.size());
  ASSERT_TRUE(peek.Skip(2 + 1).ok());
  auto enc = peek.GetI32();
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(*enc, 1140101);  // the paper's encoding of 2014-01-01
  // And decodes back to the same calendar date.
  BufferReader r(w.data(), w.size());
  auto row = DecodeRecord(schema, &r);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[0].date_val(), days);
}

TEST(RecordFormatTest, CharIsFixedWidthBlankPadded) {
  auto col = ToWireColumn("C", SqlType::Char(6));
  ASSERT_TRUE(col.ok());
  std::vector<WireColumn> schema = {*col};
  BufferWriter w;
  ASSERT_TRUE(EncodeRecord(schema, {Datum::String("ab")}, &w).ok());
  BufferReader r(w.data(), w.size());
  auto row = DecodeRecord(schema, &r);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[0].string_val(), "ab    ");
}

TEST(RecordFormatTest, NullBitmapMarksAbsentFields) {
  std::vector<WireColumn> schema;
  for (const char* n : {"A", "B", "C"}) {
    auto col = ToWireColumn(n, SqlType::Int());
    ASSERT_TRUE(col.ok());
    schema.push_back(*col);
  }
  BufferWriter w;
  ASSERT_TRUE(EncodeRecord(schema,
                           {Datum::Int(1), Datum::Null(), Datum::Int(3)}, &w)
                  .ok());
  BufferReader r(w.data(), w.size());
  auto row = DecodeRecord(schema, &r);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[0].int_val(), 1);
  EXPECT_TRUE((*row)[1].is_null());
  EXPECT_EQ((*row)[2].int_val(), 3);
}

TEST(RecordFormatTest, TrailingBytesInsideARecordAreRejected) {
  std::vector<WireColumn> schema;
  auto col = ToWireColumn("A", SqlType::Int());
  ASSERT_TRUE(col.ok());
  schema.push_back(*col);
  BufferWriter rec;
  ASSERT_TRUE(EncodeRecord(schema, {Datum::Int(7)}, &rec).ok());
  // Grow the record's u16 length by two and append two junk bytes: the
  // record is still well-framed, but its fields stop short of its end.
  std::vector<uint8_t> bytes = rec.Take();
  uint16_t len;
  std::memcpy(&len, bytes.data(), 2);
  len += 2;
  std::memcpy(bytes.data(), &len, 2);
  bytes.push_back(0xAB);
  bytes.push_back(0xCD);
  BufferReader r(bytes);
  auto row = DecodeRecord(schema, &r);
  ASSERT_FALSE(row.ok());
  EXPECT_TRUE(row.status().IsProtocolError()) << row.status();
  EXPECT_NE(row.status().message().find("trailing"), std::string::npos)
      << row.status();
}

// Property: records round-trip bit-identically for a mixed schema across
// many generated rows.
class RecordRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(RecordRoundTripProperty, RoundTrip) {
  std::vector<WireColumn> schema;
  SqlType types[] = {SqlType::Int(),       SqlType::Decimal(12, 2),
                     SqlType::Double(),    SqlType::Varchar(40),
                     SqlType::Date(),      SqlType::Char(8),
                     SqlType::Timestamp(), SqlType::SmallInt()};
  int i = 0;
  for (const auto& t : types) {
    auto col = ToWireColumn("C" + std::to_string(i++), t);
    ASSERT_TRUE(col.ok());
    schema.push_back(*col);
  }
  uint64_t seed = 0x9E3779B97F4A7C15ULL * (GetParam() + 1);
  auto next = [&]() {
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    return seed;
  };
  for (int row_i = 0; row_i < 50; ++row_i) {
    std::vector<Datum> row;
    row.push_back(next() % 7 == 0 ? Datum::Null()
                                  : Datum::Int(static_cast<int32_t>(next())));
    row.push_back(Datum::MakeDecimal(
        Decimal{static_cast<int64_t>(next() % 1000000) - 500000, 2}));
    row.push_back(Datum::MakeDouble(static_cast<double>(next() % 10000) / 7));
    row.push_back(Datum::String(std::string(next() % 30, 'x')));
    row.push_back(Datum::Date(static_cast<int32_t>(next() % 40000)));
    row.push_back(Datum::String("fix"));
    row.push_back(Datum::Timestamp(static_cast<int64_t>(next() % (1LL << 40))));
    row.push_back(next() % 5 == 0 ? Datum::Null()
                                  : Datum::Int(static_cast<int16_t>(next())));
    BufferWriter w;
    ASSERT_TRUE(EncodeRecord(schema, row, &w).ok());
    BufferReader r(w.data(), w.size());
    auto decoded = DecodeRecord(schema, &r);
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded->size(), row.size());
    // Null pattern and key values survive.
    for (size_t c = 0; c < row.size(); ++c) {
      EXPECT_EQ((*decoded)[c].is_null(), row[c].is_null()) << c;
    }
    if (!row[0].is_null()) {
      EXPECT_EQ((*decoded)[0].int_val(), row[0].int_val());
    }
    EXPECT_EQ((*decoded)[1].decimal_val().ToString(),
              row[1].decimal_val().ToString());
    EXPECT_EQ((*decoded)[3].string_val(), row[3].string_val());
    EXPECT_EQ((*decoded)[4].date_val(), row[4].date_val());
    EXPECT_EQ((*decoded)[5].string_val(), "fix     ");  // CHAR(8) padded
    EXPECT_EQ((*decoded)[6].timestamp_val(), row[6].timestamp_val());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecordRoundTripProperty,
                         ::testing::Range(0, 6));

TEST(FrameTest, HeaderLayout) {
  Frame f{MessageKind::kRunRequest, 0, {1, 2, 3}};
  auto bytes = EncodeFrame(f);
  ASSERT_EQ(bytes.size(), 8u + 3u);
  EXPECT_EQ(bytes[0], static_cast<uint8_t>(MessageKind::kRunRequest));
  uint32_t len;
  std::memcpy(&len, bytes.data() + 4, 4);
  EXPECT_EQ(len, 3u);
}

TEST(FrameTest, AppendFrameConcatenatesEncodedFrames) {
  Frame a{MessageKind::kResultHeader, 0, {9, 8}};
  Frame b{MessageKind::kSuccess, 0, {}};
  std::vector<uint8_t> out;
  AppendFrame(a.kind, a.payload, &out);
  AppendFrame(b.kind, b.payload, &out);
  std::vector<uint8_t> want = EncodeFrame(a);
  std::vector<uint8_t> tail = EncodeFrame(b);
  want.insert(want.end(), tail.begin(), tail.end());
  EXPECT_EQ(out, want);
}

// --- Socket read buffer -----------------------------------------------------

struct LoopbackPair {
  Socket client;
  Socket server;
};

LoopbackPair ConnectPair() {
  auto listener = ListenSocket::BindLocal(0);
  EXPECT_TRUE(listener.ok());
  auto client = Socket::ConnectLocal(listener->port());
  EXPECT_TRUE(client.ok());
  auto server = listener->Accept();
  EXPECT_TRUE(server.ok());
  return {std::move(client).value(), std::move(server).value()};
}

// Sends `frames` back to back in one send(), as a pipelining client does.
void SendPipelined(Socket& sock, const std::vector<Frame>& frames) {
  std::vector<uint8_t> bytes;
  for (const Frame& f : frames) AppendFrame(f.kind, f.payload, &bytes);
  ASSERT_TRUE(sock.WriteAll(bytes.data(), bytes.size()).ok());
}

TEST(SocketBufferTest, PipelinedFramesComeFromOneRecv) {
  LoopbackPair pair = ConnectPair();
  SendPipelined(pair.client, {Frame{MessageKind::kRunRequest, 0, {1, 2, 3}},
                              Frame{MessageKind::kAbortRequest, 0, {}}});
  auto first = pair.server.ReadFrame();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->kind, MessageKind::kRunRequest);
  EXPECT_EQ(first->payload, (std::vector<uint8_t>{1, 2, 3}));
  // The abort came in with the same recv and waits in the buffer.
  EXPECT_EQ(pair.server.buffered(), kFrameHeaderBytes);
  pair.client.Close();
  auto second = pair.server.ReadFrame();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->kind, MessageKind::kAbortRequest);
  EXPECT_EQ(pair.server.buffered(), 0u);
}

TEST(SocketBufferTest, MovedFromSocketHandsOverItsBufferedBytes) {
  LoopbackPair pair = ConnectPair();
  SendPipelined(pair.client, {Frame{MessageKind::kStatsRequest, 0, {}},
                              Frame{MessageKind::kRunRequest, 0, {4, 5}},
                              Frame{MessageKind::kGoodbye, 0, {}}});
  ASSERT_TRUE(pair.server.ReadFrame().ok());
  // The peer is gone: the remaining frames exist only in the read buffer.
  pair.client.Close();

  Socket moved(std::move(pair.server));
  EXPECT_EQ(pair.server.buffered(), 0u);
  auto run = moved.ReadFrame();
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->kind, MessageKind::kRunRequest);
  EXPECT_EQ(run->payload, (std::vector<uint8_t>{4, 5}));

  Socket assigned;
  assigned = std::move(moved);
  EXPECT_EQ(moved.buffered(), 0u);
  auto bye = assigned.ReadFrame();
  ASSERT_TRUE(bye.ok()) << bye.status();
  EXPECT_EQ(bye->kind, MessageKind::kGoodbye);
  // Buffer drained: the next read reaches the kernel and sees the EOF.
  EXPECT_TRUE(assigned.ReadFrame().status().IsUnavailable());
}

TEST(SocketBufferTest, PayloadLargerThanTheBufferRoundTrips) {
  LoopbackPair pair = ConnectPair();
  std::vector<uint8_t> big(3 * Socket::kReadBufferBytes + 5);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<uint8_t>(i);
  std::thread writer([&] {
    SendPipelined(pair.client, {Frame{MessageKind::kRecordBatch, 0, big},
                                Frame{MessageKind::kSuccess, 0, {7}}});
  });
  auto batch = pair.server.ReadFrame();
  auto success = pair.server.ReadFrame();
  writer.join();
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(batch->payload, big);
  ASSERT_TRUE(success.ok()) << success.status();
  EXPECT_EQ(success->kind, MessageKind::kSuccess);
  EXPECT_EQ(success->payload, (std::vector<uint8_t>{7}));
}

TEST(WireColumnTest, IntervalHasNoWireForm) {
  EXPECT_FALSE(ToWireColumn("I", SqlType::Interval()).ok());
}

// --- Server robustness ------------------------------------------------------

// Minimal handler so the wire layer is tested without the whole service.
class StubHandler : public RequestHandler {
 public:
  Result<LogonResponse> Logon(const LogonRequest& request) override {
    LogonResponse resp;
    resp.ok = true;
    resp.session_id = ++sessions_;
    resp.message = "hello " + request.user;
    return resp;
  }
  void Logoff(uint32_t) override { ++logoffs_; }
  Result<WireResponse> Run(uint32_t, const std::string& sql,
                           QueryContext*) override {
    WireResponse resp;
    resp.success.tag = "OK";
    resp.success.activity_count = sql.size();
    return resp;
  }
  uint32_t sessions_ = 0;
  uint32_t logoffs_ = 0;
};

// One scripted session proving the server still serves traffic.
void ExpectServerAlive(uint16_t port) {
  TdwpClient client;
  ASSERT_TRUE(client.Connect(port).ok());
  ASSERT_TRUE(client.Logon("probe", "pw").ok());
  auto result = client.Run("SELECT X");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->tag, "OK");
  client.Goodbye();
}

void WaitForActiveConnections(const TdwpServer& server, size_t want) {
  for (int i = 0; i < 200 && server.active_connections() != want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.active_connections(), want);
}

TEST(ServerRobustnessTest, OversizedLengthPrefixGetsErrorThenClose) {
  StubHandler handler;
  TdwpServer server(&handler);
  ASSERT_TRUE(server.Start(0).ok());

  auto raw = Socket::ConnectLocal(server.port());
  ASSERT_TRUE(raw.ok());
  // Header claiming a 1 GiB payload: kind, flags, resv, little-endian len.
  uint8_t header[8] = {static_cast<uint8_t>(MessageKind::kRunRequest), 0, 0,
                       0, 0, 0, 0, 0x40};
  ASSERT_TRUE(raw->WriteAll(header, sizeof(header)).ok());
  auto reply = raw->ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->kind, MessageKind::kError);
  auto err = DecodeError(reply->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_NE(err->message.find("oversized"), std::string::npos);
  // The stream cannot be resynchronized: the server closes it...
  EXPECT_FALSE(raw->ReadFrame().ok());
  // ...but keeps serving everyone else.
  ExpectServerAlive(server.port());
  server.Stop();
}

TEST(ServerRobustnessTest, ZeroLengthRunFrameGetsErrorReply) {
  StubHandler handler;
  TdwpServer server(&handler);
  ASSERT_TRUE(server.Start(0).ok());

  auto raw = Socket::ConnectLocal(server.port());
  ASSERT_TRUE(raw.ok());
  // A zero-length RUN payload is structurally invalid (no SQL string).
  Frame empty{MessageKind::kRunRequest, 0, {}};
  ASSERT_TRUE(raw->WriteFrame(empty).ok());
  auto reply = raw->ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->kind, MessageKind::kError);
  // The connection survives a per-message error: logon still works.
  Frame logon{MessageKind::kLogonRequest, 0,
              Encode(LogonRequest{"u", "p", "", "ASCII"})};
  ASSERT_TRUE(raw->WriteFrame(logon).ok());
  auto logon_reply = raw->ReadFrame();
  ASSERT_TRUE(logon_reply.ok());
  EXPECT_EQ(logon_reply->kind, MessageKind::kLogonResponse);
  server.Stop();
}

TEST(ServerRobustnessTest, MidFrameDisconnectClosesCleanly) {
  StubHandler handler;
  TdwpServer server(&handler);
  ASSERT_TRUE(server.Start(0).ok());

  {
    auto raw = Socket::ConnectLocal(server.port());
    ASSERT_TRUE(raw.ok());
    // Half a header, then disappear.
    uint8_t partial[4] = {static_cast<uint8_t>(MessageKind::kRunRequest), 0,
                          0, 0};
    ASSERT_TRUE(raw->WriteAll(partial, sizeof(partial)).ok());
  }  // socket closes here
  WaitForActiveConnections(server, 0);

  {
    // Disconnect mid-payload, after a valid header announcing 64 bytes.
    auto raw = Socket::ConnectLocal(server.port());
    ASSERT_TRUE(raw.ok());
    uint8_t header[8] = {static_cast<uint8_t>(MessageKind::kRunRequest), 0, 0,
                         0, 64, 0, 0, 0};
    ASSERT_TRUE(raw->WriteAll(header, sizeof(header)).ok());
    uint8_t some[10] = {0};
    ASSERT_TRUE(raw->WriteAll(some, sizeof(some)).ok());
  }
  WaitForActiveConnections(server, 0);
  ExpectServerAlive(server.port());
  server.Stop();
}

TEST(ServerRobustnessTest, SaturatedServerSendsCleanErrorFrame) {
  StubHandler handler;
  TdwpServerOptions options;
  options.max_connections = 1;
  TdwpServer server(&handler, options);
  ASSERT_TRUE(server.Start(0).ok());

  TdwpClient first;
  ASSERT_TRUE(first.Connect(server.port()).ok());
  ASSERT_TRUE(first.Logon("one", "pw").ok());
  WaitForActiveConnections(server, 1);

  auto second = Socket::ConnectLocal(server.port());
  ASSERT_TRUE(second.ok());
  auto reply = second->ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->kind, MessageKind::kError);
  auto err = DecodeError(reply->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->code, static_cast<uint32_t>(StatusCode::kResourceExhausted));
  EXPECT_NE(err->message.find("capacity"), std::string::npos);
  EXPECT_EQ(server.rejected_connections(), 1);

  // Capacity frees up once the first client leaves.
  first.Goodbye();
  WaitForActiveConnections(server, 0);
  ExpectServerAlive(server.port());
  server.Stop();
}

TEST(ServerRobustnessTest, IdleConnectionIsReapedWithErrorFrame) {
  StubHandler handler;
  TdwpServerOptions options;
  options.idle_timeout_ms = 15;
  TdwpServer server(&handler, options);
  ASSERT_TRUE(server.Start(0).ok());

  auto raw = Socket::ConnectLocal(server.port());
  ASSERT_TRUE(raw.ok());
  Frame logon{MessageKind::kLogonRequest, 0,
              Encode(LogonRequest{"idle", "pw", "", "ASCII"})};
  ASSERT_TRUE(raw->WriteFrame(logon).ok());
  auto logon_reply = raw->ReadFrame();
  ASSERT_TRUE(logon_reply.ok());
  EXPECT_EQ(logon_reply->kind, MessageKind::kLogonResponse);

  // Say nothing: the server must reap us instead of pinning a thread.
  auto reaped = raw->ReadFrame();
  ASSERT_TRUE(reaped.ok()) << reaped.status();
  EXPECT_EQ(reaped->kind, MessageKind::kError);
  auto err = DecodeError(reaped->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_NE(err->message.find("idle"), std::string::npos);
  WaitForActiveConnections(server, 0);
  EXPECT_EQ(handler.logoffs_, 1u) << "reaped sessions must be logged off";
  server.Stop();
}

TEST(ServerRobustnessTest, FinishedWorkersAreReapedWhileRunning) {
  StubHandler handler;
  TdwpServer server(&handler);
  ASSERT_TRUE(server.Start(0).ok());

  for (int i = 0; i < 8; ++i) {
    TdwpClient client;
    ASSERT_TRUE(client.Connect(server.port()).ok());
    ASSERT_TRUE(client.Logon("user", "pw").ok());
    ASSERT_TRUE(client.Run("Q").ok());
    client.Goodbye();
    WaitForActiveConnections(server, 0);
  }
  // One more accept gives the server a reaping opportunity; the worker list
  // must be bounded by live connections, not by connections ever served.
  ExpectServerAlive(server.port());
  WaitForActiveConnections(server, 0);
  { Socket poke = std::move(Socket::ConnectLocal(server.port())).value(); }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_LE(server.live_workers(), 2u);
  EXPECT_EQ(handler.logoffs_, 9u);
  server.Stop();
}

}  // namespace
}  // namespace hyperq::protocol
