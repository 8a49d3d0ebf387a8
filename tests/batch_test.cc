// Batch data-plane edge suite (label `batch`, DESIGN.md §15): the columnar
// ColumnBatch contract end to end — builder demotion, TDF2 round trips
// (including all-NULL presence runs and varlen spill straddling span
// boundaries), zero-row results, cancellation mid-batch with zero governor
// residue, CanonicalizeBatch's zero-copy contract, and byte-identical wire
// output of the column-at-a-time converter against the per-row EncodeRecord
// oracle across every wire type and every registered dialect.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "backend/connector.h"
#include "backend/result_store.h"
#include "backend/tdf.h"
#include "common/fault.h"
#include "common/query_context.h"
#include "common/resource_governor.h"
#include "convert/result_converter.h"
#include "protocol/tdwp.h"
#include "serializer/dialect.h"
#include "service/hyperq_service.h"
#include "vdb/column_batch.h"
#include "vdb/engine.h"

namespace hyperq {
namespace {

using backend::BackendResult;
using backend::BatchSpan;
using backend::TdfColumn;
using vdb::BatchBuilder;
using vdb::ColumnBatch;
using vdb::PhysKind;

bool WaitFor(const std::function<bool()>& pred, int timeout_ms = 5000) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// The row-oriented wire oracle: DecodeRows + protocol::EncodeRecord with
/// the converter's exact wire-batch segmentation. The batch converter's
/// output must be byte-identical to this, fast path or fallback.
std::vector<std::vector<uint8_t>> OracleBatches(const BackendResult& result,
                                                size_t rows_per_batch) {
  std::vector<protocol::WireColumn> cols;
  for (const auto& c : result.columns()) {
    auto wc = protocol::ToWireColumn(c.name, c.type);
    EXPECT_TRUE(wc.ok()) << wc.status();
    cols.push_back(*wc);
  }
  auto rows = result.DecodeRows();
  EXPECT_TRUE(rows.ok()) << rows.status();
  std::vector<std::vector<uint8_t>> out;
  for (size_t b = 0; b * rows_per_batch < rows->size(); ++b) {
    size_t begin = b * rows_per_batch;
    size_t end = std::min(rows->size(), begin + rows_per_batch);
    BufferWriter records;
    for (size_t r = begin; r < end; ++r) {
      EXPECT_TRUE(protocol::EncodeRecord(cols, (*rows)[r], &records).ok());
    }
    // Payload: u32 row count, then the records.
    std::vector<uint8_t> payload(4);
    uint32_t count = static_cast<uint32_t>(end - begin);
    std::memcpy(payload.data(), &count, sizeof(count));
    payload.insert(payload.end(), records.bytes().begin(),
                   records.bytes().end());
    out.push_back(std::move(payload));
  }
  return out;
}

void ExpectConverterMatchesOracle(const BackendResult& result,
                                  size_t rows_per_batch) {
  convert::ConverterOptions opts;
  opts.parallelism = 2;
  opts.rows_per_batch = rows_per_batch;
  convert::ResultConverter converter(opts);
  auto converted = converter.Convert(result);
  ASSERT_TRUE(converted.ok()) << converted.status();
  auto oracle = OracleBatches(result, rows_per_batch);
  ASSERT_EQ(converted->batches.size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(converted->batches[i], oracle[i]) << "wire batch " << i;
  }
}

/// A result whose store holds exactly `spans` in memory, uncanonicalized:
/// the converter sees the physical forms the spans were built with.
BackendResult StoreOf(const std::vector<TdfColumn>& schema,
                      const std::vector<BatchSpan>& spans) {
  BackendResult result;
  result.store = std::make_shared<backend::ResultStore>();
  result.store->set_schema(schema);
  for (const BatchSpan& span : spans) {
    EXPECT_TRUE(
        result.store->AppendBatch(span.batch, span.offset, span.rows).ok());
  }
  return result;
}

std::vector<SqlType> TypesOf(const std::vector<TdfColumn>& schema) {
  std::vector<SqlType> types;
  for (const auto& c : schema) types.push_back(c.type);
  return types;
}

// --- ColumnBatch contract ----------------------------------------------------

TEST(ColumnBatchTest, BuilderDemotesMismatchedKinds) {
  BatchBuilder b({SqlType::Int()});
  ASSERT_TRUE(b.AppendRow({Datum::Int(1)}).ok());
  ASSERT_TRUE(b.AppendRow({Datum::String("x")}).ok());
  ASSERT_TRUE(b.AppendRow({Datum::Null()}).ok());
  auto batch = b.Finish();
  ASSERT_EQ(batch->rows, 3u);
  // The string forced the column off its typed representation.
  EXPECT_EQ(batch->columns[0]->kind, PhysKind::kDatum);
  EXPECT_EQ(batch->RowAt(0)[0].int_val(), 1);
  EXPECT_EQ(batch->RowAt(1)[0].string_val(), "x");
  EXPECT_TRUE(batch->RowAt(2)[0].is_null());
}

TEST(ColumnBatchTest, GatherPreservesNullsAndStrings) {
  BatchBuilder b({SqlType::Int(), SqlType::Varchar(8)});
  ASSERT_TRUE(b.AppendRow({Datum::Int(0), Datum::String("zero")}).ok());
  ASSERT_TRUE(b.AppendRow({Datum::Null(), Datum::String("")}).ok());
  ASSERT_TRUE(b.AppendRow({Datum::Int(2), Datum::Null()}).ok());
  auto batch = b.Finish();
  auto gathered = vdb::GatherBatch(*batch, {2, 1});
  ASSERT_EQ(gathered->rows, 2u);
  EXPECT_EQ(gathered->RowAt(0)[0].int_val(), 2);
  EXPECT_TRUE(gathered->RowAt(0)[1].is_null());
  EXPECT_TRUE(gathered->RowAt(1)[0].is_null());
  EXPECT_EQ(gathered->RowAt(1)[1].string_val(), "");
}

TEST(ColumnBatchTest, ConcatDemotesMixedKindsInEitherOrder) {
  BatchBuilder typed({SqlType::Int()});
  ASSERT_TRUE(typed.AppendRow({Datum::Int(1)}).ok());
  ASSERT_TRUE(typed.AppendRow({Datum::Null()}).ok());
  std::shared_ptr<const ColumnBatch> ints = typed.Finish();
  BatchBuilder mixed({SqlType::Int()});
  ASSERT_TRUE(mixed.AppendRow({Datum::String("x")}).ok());
  std::shared_ptr<const ColumnBatch> demoted = mixed.Finish();
  ASSERT_EQ(demoted->columns[0]->kind, PhysKind::kDatum);
  // A demoted chunk before a typed one, and after it.
  for (const auto& chunks :
       {std::vector<std::shared_ptr<const ColumnBatch>>{demoted, ints, ints},
        std::vector<std::shared_ptr<const ColumnBatch>>{ints, demoted,
                                                        ints}}) {
    auto all = vdb::ConcatBatches(chunks);
    ASSERT_EQ(all->rows, 5u);
    EXPECT_EQ(all->columns[0]->kind, PhysKind::kDatum);
    EXPECT_EQ(all->columns[0]->nulls, 2u);
    std::string seen;
    for (size_t r = 0; r < all->rows; ++r) {
      seen += all->RowAt(r)[0].ToString() + ";";
    }
    EXPECT_EQ(seen, chunks[0] == demoted ? "x;1;NULL;1;NULL;"
                                         : "1;NULL;x;1;NULL;");
  }
}

// --- TDF2 codec --------------------------------------------------------------

TEST(Tdf2Test, RoundTripsEveryPhysicalKind) {
  std::vector<TdfColumn> schema = {
      {"I", SqlType::Int()},          {"F", SqlType::Double()},
      {"B", SqlType::Bool()},         {"N", SqlType::Decimal(9, 2)},
      {"S", SqlType::Varchar(20)},    {"D", SqlType::Date()},
      {"TS", SqlType::Timestamp()},   {"P", SqlType::PeriodDate()},
  };
  std::vector<SqlType> types;
  for (const auto& c : schema) types.push_back(c.type);
  std::vector<vdb::Row> rows;
  rows.push_back({Datum::Int(-7), Datum::MakeDouble(2.5), Datum::Bool(true),
                  Datum::MakeDecimal(Decimal{12345, 2}),
                  Datum::String("hello"), Datum::Date(16071),
                  Datum::Timestamp(1234567), Datum::Period(100, 200)});
  rows.push_back({Datum::Null(), Datum::Null(), Datum::Null(), Datum::Null(),
                  Datum::Null(), Datum::Null(), Datum::Null(), Datum::Null()});
  rows.push_back({Datum::Int(42), Datum::MakeDouble(-0.125),
                  Datum::Bool(false), Datum::MakeDecimal(Decimal{-99, 2}),
                  Datum::String(""), Datum::Date(0), Datum::Timestamp(0),
                  Datum::Period(-1, 1)});
  auto batch = vdb::BatchFromRows(types, rows, 0, rows.size());

  auto encoded = backend::EncodeTdfBatch(schema, *batch, 0, batch->rows);
  auto reader = backend::TdfReader::Open(encoded);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->row_count(), rows.size());
  const auto& decoded = reader->batch();
  ASSERT_EQ(decoded->rows, rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    vdb::Row got = decoded->RowAt(r);
    ASSERT_EQ(got.size(), rows[r].size());
    for (size_t c = 0; c < got.size(); ++c) {
      EXPECT_TRUE(Datum::GroupEquals(got[c], rows[r][c]))
          << "row " << r << " col " << c << ": " << got[c].ToString()
          << " != " << rows[r][c].ToString();
    }
  }
}

TEST(Tdf2Test, AllNullPresenceRunRoundTrips) {
  std::vector<TdfColumn> schema = {{"A", SqlType::Int()},
                                   {"S", SqlType::Varchar(4)}};
  BatchBuilder b({SqlType::Int(), SqlType::Varchar(4)});
  for (int i = 0; i < 17; ++i) {  // deliberately not a multiple of 8
    ASSERT_TRUE(b.AppendRow({Datum::Null(), Datum::Null()}).ok());
  }
  auto batch = b.Finish();
  auto encoded = backend::EncodeTdfBatch(schema, *batch, 0, batch->rows);
  auto reader = backend::TdfReader::Open(encoded);
  ASSERT_TRUE(reader.ok()) << reader.status();
  const auto& decoded = reader->batch();
  ASSERT_EQ(decoded->rows, 17u);
  for (size_t r = 0; r < 17; ++r) {
    EXPECT_TRUE(decoded->columns[0]->IsNull(r));
    EXPECT_TRUE(decoded->columns[1]->IsNull(r));
  }
}

TEST(Tdf2Test, OffsetSliceEncodesOnlyItsRows) {
  // Encoding a span that starts mid-batch must slice the string arena
  // correctly, not re-encode from offset zero.
  std::vector<TdfColumn> schema = {{"S", SqlType::Varchar(16)}};
  BatchBuilder b({SqlType::Varchar(16)});
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        b.AppendRow({Datum::String("value-" + std::to_string(i))}).ok());
  }
  auto batch = b.Finish();
  auto encoded = backend::EncodeTdfBatch(schema, *batch, 2, 3);
  auto reader = backend::TdfReader::Open(encoded);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_EQ(reader->row_count(), 3u);
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(reader->batch()->RowAt(r)[0].string_val(),
              "value-" + std::to_string(r + 2));
  }
}

// --- CanonicalizeBatch -------------------------------------------------------

TEST(CanonicalizeTest, ShortCharConformsWithoutACopy) {
  // CHAR(n) values shorter than n stay as stored: the wire encoders pad.
  std::vector<TdfColumn> schema = {{"C", SqlType::Char(5)},
                                   {"V", SqlType::Varchar(5)}};
  BatchBuilder b(TypesOf(schema));
  ASSERT_TRUE(b.AppendRow({Datum::String("ab"), Datum::String("x")}).ok());
  ASSERT_TRUE(b.AppendRow({Datum::String(""), Datum::Null()}).ok());
  ASSERT_TRUE(b.AppendRow({Datum::String("abcde"), Datum::String("")}).ok());
  ASSERT_TRUE(b.AppendRow({Datum::Null(), Datum::String("vwxyz")}).ok());
  std::shared_ptr<const ColumnBatch> batch = b.Finish();
  auto canon = backend::CanonicalizeBatch(schema, batch);
  ASSERT_TRUE(canon.ok()) << canon.status();
  EXPECT_EQ(canon->get(), batch.get());
  EXPECT_EQ((*canon)->columns[0]->StringAt(0), "ab");
}

TEST(CanonicalizeTest, RebuildsOverLongCharAndScaleMismatchedDecimal) {
  std::vector<TdfColumn> schema = {{"C", SqlType::Char(3)},
                                   {"N", SqlType::Decimal(9, 2)},
                                   {"K", SqlType::Int()}};
  BatchBuilder b(TypesOf(schema));
  ASSERT_TRUE(b.AppendRow({Datum::String("toolong"),
                           Datum::MakeDecimal(Decimal{15, 1}), Datum::Int(1)})
                  .ok());
  ASSERT_TRUE(b.AppendRow({Datum::String("ab"),
                           Datum::MakeDecimal(Decimal{250, 2}), Datum::Int(2)})
                  .ok());
  std::shared_ptr<const ColumnBatch> batch = b.Finish();
  auto canon = backend::CanonicalizeBatch(schema, batch);
  ASSERT_TRUE(canon.ok()) << canon.status();
  ASSERT_NE(canon->get(), batch.get());
  const ColumnBatch& out = **canon;
  // The over-long column is cast to CHAR(3): truncated, and padded.
  EXPECT_EQ(out.columns[0]->StringAt(0), "too");
  EXPECT_EQ(out.columns[0]->StringAt(1), "ab ");
  // The decimal column carries the schema scale on every row.
  EXPECT_EQ(out.columns[1]->i64[0], 150);
  EXPECT_EQ(out.columns[1]->i32b[0], 2);
  EXPECT_EQ(out.columns[1]->i64[1], 250);
  // A conforming column is shared, not copied.
  EXPECT_EQ(out.columns[2].get(), batch->columns[2].get());
}

// --- ResultStore spans -------------------------------------------------------

TEST(BatchStoreTest, VarlenSpillAcrossSpanBoundaries) {
  std::vector<TdfColumn> schema = {{"A", SqlType::Int()},
                                   {"S", SqlType::Varchar(64)}};
  BatchBuilder b({SqlType::Int(), SqlType::Varchar(64)});
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(b.AppendRow({Datum::Int(i),
                             Datum::String(std::string(40, 'a' + i % 26))})
                    .ok());
  }
  auto batch = b.Finish();

  // A budget small enough that later spans must spill to disk as TDF2.
  auto store = std::make_shared<backend::ResultStore>(/*memory_budget=*/128);
  store->set_schema(schema);
  for (size_t off = 0; off < 10; off += 3) {
    ASSERT_TRUE(store->AppendBatch(batch, off, std::min<size_t>(3, 10 - off))
                    .ok());
  }
  EXPECT_GT(store->spilled_batches(), 0u);
  EXPECT_GT(store->spilled_bytes(), 0);
  EXPECT_EQ(store->total_rows(), 10);

  // Spans come back in order with the rows intact, spilled or not.
  size_t next = 0;
  ASSERT_TRUE(store
                  ->ScanSpans([&](const BatchSpan& span) {
                    for (size_t r = 0; r < span.rows; ++r) {
                      vdb::Row row = span.batch->RowAt(span.offset + r);
                      EXPECT_EQ(row[0].int_val(),
                                static_cast<int64_t>(next));
                      EXPECT_EQ(row[1].string_val(),
                                std::string(40, 'a' + next % 26));
                      ++next;
                    }
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(next, 10u);

  // And the converter's bytes over this store match the row oracle even
  // when a wire batch straddles a memory span and a spilled span.
  BackendResult result;
  result.store = store;
  ExpectConverterMatchesOracle(result, /*rows_per_batch=*/4);
}

TEST(BatchStoreTest, ZeroRowResultEmitsOneEmptySpan) {
  vdb::Engine engine;
  ASSERT_TRUE(engine.Execute("CREATE TABLE E (A INTEGER, B VARCHAR(8))").ok());
  backend::BackendConnector connector(&engine);
  auto result = connector.Execute("SELECT A, B FROM E");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->is_rowset());
  size_t spans = 0, rows = 0;
  ASSERT_TRUE(result->store
                  ->ScanSpans([&](const BatchSpan& span) {
                    ++spans;
                    rows += span.rows;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(spans, 1u);  // announce-then-stream needs one (empty) batch
  EXPECT_EQ(rows, 0u);

  convert::ResultConverter converter(convert::ConverterOptions{});
  auto converted = converter.Convert(*result);
  ASSERT_TRUE(converted.ok());
  EXPECT_EQ(converted->total_rows, 0u);
  EXPECT_TRUE(converted->batches.empty());
  ASSERT_EQ(converted->columns.size(), 2u);
}

// --- Cancellation ------------------------------------------------------------

TEST(BatchCancelTest, MidFetchCancelIsTypedAndLeavesNoGovernorResidue) {
  vdb::Engine engine;
  ASSERT_TRUE(engine.Execute("CREATE TABLE C (A INTEGER)").ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        engine.Execute("INSERT INTO C VALUES (" + std::to_string(i) + ")")
            .ok());
  }
  auto governor = std::make_shared<ResourceGovernor>();
  backend::ConnectorOptions options;
  options.batch_rows = 1;  // a span boundary after every row
  options.governor = governor;
  options.session_tag = 7;
  backend::BackendConnector connector(&engine, options);

  FaultSpec latency;
  latency.kind = FaultKind::kLatency;
  latency.latency_ms = 20;
  FaultInjector::Global().Arm(faultpoints::kConnectorFetchBatch, latency);

  QueryContext ctx;
  Status status = Status::OK();
  std::thread runner([&] {
    auto r = connector.Execute("SELECT A FROM C", &ctx);
    status = r.ok() ? Status::OK() : r.status();
  });
  ASSERT_TRUE(WaitFor([&] {
    return FaultInjector::Global().fires(faultpoints::kConnectorFetchBatch) >=
           2;
  }));
  ctx.Cancel(CancelCause::kKill, Status::Cancelled("query killed"));
  runner.join();
  FaultInjector::Global().Reset();

  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsCancelled()) << status;
  // The abandoned fetch dropped its store: every reserved byte returned.
  auto stats = governor->stats();
  EXPECT_EQ(stats.memory_bytes, 0);
  EXPECT_EQ(stats.spill_bytes, 0);
}

TEST(BatchCancelTest, ConvertObservesCancellationBetweenBatches) {
  vdb::Engine engine;
  ASSERT_TRUE(engine.Execute("CREATE TABLE CC (A INTEGER)").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        engine.Execute("INSERT INTO CC VALUES (" + std::to_string(i) + ")")
            .ok());
  }
  backend::BackendConnector connector(&engine);
  auto result = connector.Execute("SELECT A FROM CC");
  ASSERT_TRUE(result.ok());

  QueryContext ctx;
  ctx.Cancel(CancelCause::kKill, Status::Cancelled("query killed"));
  convert::ConverterOptions opts;
  opts.rows_per_batch = 4;
  convert::ResultConverter converter(opts);
  auto converted = converter.Convert(*result, &ctx);
  ASSERT_FALSE(converted.ok());
  EXPECT_TRUE(converted.status().IsCancelled());
}

// --- Wire-byte equivalence ---------------------------------------------------

TEST(BatchWireTest, ConverterMatchesOracleOnEdgeShapes) {
  vdb::Engine engine;
  ASSERT_TRUE(engine
                  .Execute("CREATE TABLE W (A INTEGER, B VARCHAR(12), "
                           "C DECIMAL(9,2), D DATE, F DOUBLE PRECISION, "
                           "G CHAR(5))")
                  .ok());
  ASSERT_TRUE(engine
                  .ExecuteScript(
                      "INSERT INTO W VALUES (1, 'one', 1.25, DATE "
                      "'2014-01-01', 0.5, 'ab');"
                      "INSERT INTO W VALUES (NULL, NULL, NULL, NULL, NULL, "
                      "NULL);"
                      "INSERT INTO W VALUES (2, '', -3.50, DATE '1899-12-31',"
                      " -1.5, 'toolong');"
                      "INSERT INTO W VALUES (3, 'three', 0.01, DATE "
                      "'2038-06-15', 2.25, 'x');"
                      "INSERT INTO W VALUES (4, 'four', 99.99, DATE "
                      "'2014-02-02', -0.0, '');")
                  .ok());
  backend::ConnectorOptions options;
  options.batch_rows = 2;  // wire batches straddle TDF spans
  backend::BackendConnector connector(&engine, options);
  auto result = connector.Execute("SELECT * FROM W ORDER BY A");
  ASSERT_TRUE(result.ok()) << result.status();
  for (size_t rows_per_batch : {1u, 3u, 4u, 100u}) {
    ExpectConverterMatchesOracle(*result, rows_per_batch);
  }
}

// Fourteen columns (a two-byte presence bitmap) of every wire type, with
// short, exact and over-long CHAR values, a DECIMAL off the schema scale, an
// all-NULL column and a sparse-NULL one, straight into the store without
// canonicalization. 600 rows cross the encoder's 256-row block boundary.
TEST(BatchWireTest, WideSparseColumnsMatchOracle) {
  std::vector<TdfColumn> schema = {
      {"I", SqlType::Int()},          {"S", SqlType::SmallInt()},
      {"B", SqlType::Bool()},         {"BI", SqlType::BigInt()},
      {"N", SqlType::Decimal(9, 2)},  {"F", SqlType::Double()},
      {"C", SqlType::Char(4)},        {"V", SqlType::Varchar(16)},
      {"D", SqlType::Date()},         {"T", SqlType::Time()},
      {"TS", SqlType::Timestamp()},   {"P", SqlType::PeriodDate()},
      {"AN", SqlType::Int()},         {"SN", SqlType::Varchar(8)},
  };
  const char* const chars[] = {"", "ab", "abcd", "abcdefg"};
  BatchBuilder b(TypesOf(schema));
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(
        b.AppendRow(
             {Datum::Int(i - 300), Datum::Int(i % 200 - 100),
              Datum::Bool(i % 3 == 0), Datum::Int(int64_t{1} << (i % 63)),
              Datum::MakeDecimal(Decimal{i * 7, i % 5 == 0 ? 1 : 2}),
              Datum::MakeDouble(i * 0.25), Datum::String(chars[i % 4]),
              Datum::String(std::string(i % 17, 'v')),
              Datum::Date(i * 31 - 9000), Datum::Time(i * 1000003),
              Datum::Timestamp(int64_t{i} * 86400000001),
              Datum::Period(i, i + 30), Datum::Null(),
              i % 9 == 4 ? Datum::String("s" + std::to_string(i))
                         : Datum::Null()})
            .ok());
  }
  std::shared_ptr<const ColumnBatch> batch = b.Finish();
  ASSERT_EQ(batch->columns[12]->nulls, 600u);
  BackendResult result =
      StoreOf(schema, {{batch, 0, 300}, {batch, 300, 290}, {batch, 590, 10}});
  for (size_t rows_per_batch : {1u, 7u, 256u, 1000u}) {
    ExpectConverterMatchesOracle(result, rows_per_batch);
  }
}

// A span whose column is boxed (kDatum) takes the EncodeRecord fallback;
// it shares one wire batch with typed spans on either side.
TEST(BatchWireTest, FallbackSpanBetweenFastSpansMatchesOracle) {
  std::vector<TdfColumn> schema = {{"A", SqlType::Int()},
                                   {"S", SqlType::Char(3)}};
  BatchBuilder typed(TypesOf(schema));
  BatchBuilder boxed({PhysKind::kDatum, PhysKind::kString});
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        typed.AppendRow({Datum::Int(i), Datum::String(std::string(i, 't'))})
            .ok());
    ASSERT_TRUE(boxed
                    .AppendRow({i % 2 == 0 ? Datum::Int(100 + i)
                                           : Datum::Null(),
                                Datum::String("b")})
                    .ok());
  }
  std::shared_ptr<const ColumnBatch> fast = typed.Finish();
  std::shared_ptr<const ColumnBatch> slow = boxed.Finish();
  ASSERT_EQ(slow->columns[0]->kind, PhysKind::kDatum);
  BackendResult result =
      StoreOf(schema, {{fast, 0, 5}, {slow, 1, 4}, {fast, 2, 3}});
  for (size_t rows_per_batch : {3u, 100u}) {
    ExpectConverterMatchesOracle(result, rows_per_batch);
  }
}

TEST(BatchWireTest, RecordOver64KiBIsAProtocolError) {
  std::vector<TdfColumn> schema = {{"V1", SqlType::Varchar(40000)},
                                   {"V2", SqlType::Varchar(40000)}};
  BatchBuilder b(TypesOf(schema));
  ASSERT_TRUE(b.AppendRow({Datum::String("short"), Datum::String("row")}).ok());
  ASSERT_TRUE(b.AppendRow({Datum::String(std::string(40000, 'x')),
                           Datum::String(std::string(40000, 'y'))})
                  .ok());
  BackendResult result = StoreOf(schema, {{b.Finish(), 0, 2}});
  convert::ResultConverter converter(convert::ConverterOptions{});
  auto converted = converter.Convert(result);
  ASSERT_FALSE(converted.ok());
  EXPECT_TRUE(converted.status().IsProtocolError()) << converted.status();
}

TEST(BatchWireTest, EncodeRowFaultPointCountsRows) {
  std::vector<TdfColumn> schema = {{"A", SqlType::Int()}};
  BatchBuilder typed(TypesOf(schema));
  BatchBuilder boxed({PhysKind::kDatum});
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(typed.AppendRow({Datum::Int(i)}).ok());
  }
  ASSERT_TRUE(boxed.AppendRow({Datum::Int(-1)}).ok());
  // 599 typed rows around one boxed row: both encode paths fire per row.
  std::shared_ptr<const ColumnBatch> fast = typed.Finish();
  BackendResult result = StoreOf(
      schema, {{fast, 0, 300}, {boxed.Finish(), 0, 1}, {fast, 300, 299}});

  FaultSpec spec;
  spec.kind = FaultKind::kLatency;  // latency 0: counts, never fails
  spec.every = 7;
  FaultInjector::Global().Arm(faultpoints::kConvertEncodeRow, spec);
  convert::ResultConverter converter(convert::ConverterOptions{});
  auto converted = converter.Convert(result);
  int64_t hits = FaultInjector::Global().hits(faultpoints::kConvertEncodeRow);
  int64_t fires =
      FaultInjector::Global().fires(faultpoints::kConvertEncodeRow);

  spec.kind = FaultKind::kTransient;
  spec.first_hit = 420;
  spec.every = 1;
  FaultInjector::Global().Arm(faultpoints::kConvertEncodeRow, spec);
  auto failed = converter.Convert(result);
  int64_t hits_to_failure =
      FaultInjector::Global().hits(faultpoints::kConvertEncodeRow);
  FaultInjector::Global().Reset();

  ASSERT_TRUE(converted.ok()) << converted.status();
  EXPECT_EQ(hits, 600);
  EXPECT_EQ(fires, 86);  // hits 1, 8, ..., 596
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(hits_to_failure, 420);
}

// The golden equivalence bar re-run under the batch path: a query zoo is
// translated to every registered SQL-B dialect, executed through the
// columnar pipeline, and each dialect's wire bytes must match the per-row
// oracle exactly.
TEST(BatchWireTest, DialectZooIsByteIdenticalToRowOracle) {
  const std::vector<std::string> ddl = {
      "CREATE TABLE Z (K INTEGER, V VARCHAR(10), N DECIMAL(7,2), D DATE)",
      "INS INTO Z VALUES (1, 'alpha', 1.50, DATE '2014-01-01')",
      "INS INTO Z VALUES (2, 'beta', NULL, DATE '2014-06-01')",
      "INS INTO Z VALUES (2, NULL, -2.25, NULL)",
      "INS INTO Z VALUES (3, '', 0.00, DATE '2015-01-01')",
  };
  const std::vector<std::string> zoo = {
      "SEL * FROM Z",
      "SEL K, V FROM Z WHERE K > 1",
      "SEL K, COUNT(*), SUM(N) FROM Z GROUP BY K ORDER BY K",
      "SEL V FROM Z WHERE N IS NULL",
      "SEL K + 1, N FROM Z ORDER BY 1 DESC",
      "SEL DISTINCT K FROM Z ORDER BY K",
  };
  auto names = serializer::DialectNames();
  ASSERT_GE(names.size(), 3u);
  for (const auto& name : names) {
    const serializer::SQLDialectGenerator* gen =
        serializer::FindDialect(name);
    ASSERT_NE(gen, nullptr) << name;
    vdb::Engine engine;
    service::ServiceOptions opts;
    opts.profile = gen->Profile();
    service::HyperQService service(&engine, opts);
    auto sid = service.OpenSession("batch");
    ASSERT_TRUE(sid.ok());
    for (const auto& stmt : ddl) {
      ASSERT_TRUE(service.Submit(*sid, stmt).ok()) << name << ": " << stmt;
    }
    for (const auto& q : zoo) {
      auto outcome = service.Submit(*sid, q);
      ASSERT_TRUE(outcome.ok()) << name << ": " << q << "\n"
                                << outcome.status();
      ASSERT_TRUE(outcome->result.is_rowset()) << name << ": " << q;
      ExpectConverterMatchesOracle(outcome->result, /*rows_per_batch=*/2);
    }
    service.CloseSession(*sid);
  }
}

}  // namespace
}  // namespace hyperq
