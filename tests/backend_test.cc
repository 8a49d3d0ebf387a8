// TDF codec, ResultStore spill behaviour, and the backend connector.

#include <gtest/gtest.h>

#include "backend/connector.h"
#include "backend/result_store.h"
#include "backend/tdf.h"
#include "vdb/engine.h"

namespace hyperq::backend {
namespace {

using vdb::PhysKind;


std::vector<SqlType> TypesOf(const std::vector<TdfColumn>& schema) {
  std::vector<SqlType> types;
  for (const auto& c : schema) types.push_back(c.type);
  return types;
}

/// `n` rows of (A INT = first + i, S VARCHAR = "v<first + i>").
std::shared_ptr<const vdb::ColumnBatch> IntStringBatch(int first, int n) {
  vdb::BatchBuilder b({SqlType::Int(), SqlType::Varchar(16)});
  for (int i = first; i < first + n; ++i) {
    EXPECT_TRUE(
        b.AppendRow({Datum::Int(i), Datum::String("v" + std::to_string(i))})
            .ok());
  }
  return b.Finish();
}

const std::vector<TdfColumn> kIntStringSchema = {{"A", SqlType::Int()},
                                                 {"S", SqlType::Varchar(16)}};

TEST(TdfTest, RoundTripAllKinds) {
  // Every SQL kind, one all-NULL row, written to a spill file and read
  // back through the store — TDF's one in-tree round trip.
  std::vector<TdfColumn> schema = {
      {"I", SqlType::Int()},          {"D", SqlType::Decimal(10, 2)},
      {"F", SqlType::Double()},       {"S", SqlType::Varchar(20)},
      {"DT", SqlType::Date()},        {"TS", SqlType::Timestamp()},
      {"B", SqlType::Bool()},         {"P", SqlType::PeriodDate()},
  };
  std::vector<vdb::Row> rows = {
      {Datum::Int(42), Datum::MakeDecimal(Decimal{1250, 2}),
       Datum::MakeDouble(2.5), Datum::String("hello"), Datum::Date(16071),
       Datum::Timestamp(123456789), Datum::Bool(true), Datum::Period(100, 200)},
      vdb::Row(8, Datum::Null())};
  auto batch = vdb::BatchFromRows(TypesOf(schema), rows, 0, rows.size());
  ResultStore store(/*memory_budget_bytes=*/0);
  store.set_schema(schema);
  ASSERT_TRUE(store.AppendBatch(batch, 0, batch->rows).ok());
  ASSERT_EQ(store.spilled_batches(), 1u);

  std::vector<vdb::Row> got;
  ASSERT_TRUE(store
                  .ScanSpans([&](const BatchSpan& span) {
                    vdb::AppendRowsFromBatch(*span.batch, span.offset,
                                             span.offset + span.rows, &got);
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0][0].int_val(), 42);
  EXPECT_EQ(got[0][1].decimal_val().ToString(), "12.50");
  EXPECT_EQ(got[0][2].double_val(), 2.5);
  EXPECT_EQ(got[0][3].string_val(), "hello");
  EXPECT_EQ(got[0][4].date_val(), 16071);
  EXPECT_EQ(got[0][5].timestamp_val(), 123456789);
  EXPECT_TRUE(got[0][6].bool_val());
  EXPECT_EQ(got[0][7].period_val().end_days, 200);
  for (const auto& v : got[1]) EXPECT_TRUE(v.is_null());
}

TEST(TdfTest, CoercesRuntimeKindToSchema) {
  // An integer-valued datum in a DECIMAL column must encode as decimal.
  std::vector<TdfColumn> schema = {{"D", SqlType::Decimal(10, 2)}};
  vdb::BatchBuilder b({PhysKind::kI64});
  ASSERT_TRUE(b.AppendRow({Datum::Int(3)}).ok());
  auto canon = CanonicalizeBatch(schema, b.Finish());
  ASSERT_TRUE(canon.ok()) << canon.status();
  EXPECT_EQ((*canon)->columns[0]->kind, PhysKind::kDecimal);
  auto reader = TdfReader::Open(EncodeTdfBatch(schema, **canon, 0, 1));
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->batch()->RowAt(0)[0].decimal_val().ToString(), "3.00");
}

TEST(TdfTest, MalformedBytesRejected) {
  EXPECT_FALSE(TdfReader::Open({1, 2, 3, 4}).ok());
  std::vector<uint8_t> truncated = {0x54, 0x44, 0x46, 0x32, 0xFF, 0xFF};
  EXPECT_FALSE(TdfReader::Open(truncated).ok());
}

TEST(TdfTest, RejectsRowFormatMagicAndTruncatedPayload) {
  auto batch = IntStringBatch(0, 5);
  std::vector<uint8_t> good = EncodeTdfBatch(kIntStringSchema, *batch, 0, 5);
  ASSERT_TRUE(TdfReader::Open(good).ok());

  std::vector<uint8_t> tdf1 = good;
  tdf1[3] = '1';  // "TDF1": the retired row format
  auto old_format = TdfReader::Open(tdf1);
  ASSERT_FALSE(old_format.ok());
  EXPECT_TRUE(old_format.status().IsProtocolError()) << old_format.status();

  // Every strict prefix of a valid batch fails cleanly, none crash.
  for (size_t keep = 0; keep < good.size(); ++keep) {
    std::vector<uint8_t> cut(good.begin(), good.begin() + keep);
    auto r = TdfReader::Open(cut);
    ASSERT_FALSE(r.ok()) << "prefix of " << keep << " bytes decoded";
    EXPECT_TRUE(r.status().IsProtocolError()) << r.status();
  }

  std::vector<uint8_t> trailing = good;
  trailing.push_back(0);
  EXPECT_TRUE(TdfReader::Open(trailing).status().IsProtocolError());
}

/// Reads every span of `store` back into rows, in scan order.
std::vector<vdb::Row> StoreRows(const ResultStore& store) {
  std::vector<vdb::Row> rows;
  EXPECT_TRUE(store
                  .ScanSpans([&](const BatchSpan& span) {
                    vdb::AppendRowsFromBatch(*span.batch, span.offset,
                                             span.offset + span.rows, &rows);
                    return Status::OK();
                  })
                  .ok());
  return rows;
}

TEST(ResultStoreTest, KeepsSmallResultsInMemory) {
  ResultStore store(1 << 20);
  store.set_schema(kIntStringSchema);
  auto a = IntStringBatch(0, 10);
  auto b = IntStringBatch(10, 10);
  ASSERT_TRUE(store.AppendBatch(a, 0, 10).ok());
  ASSERT_TRUE(store.AppendBatch(b, 0, 10).ok());
  EXPECT_EQ(store.total_rows(), 20);
  EXPECT_EQ(store.spilled_batches(), 0u);
  EXPECT_GT(store.memory_bytes(), 0u);
  // In memory the spans alias the appended batches: no copy, no encode.
  std::vector<const vdb::ColumnBatch*> seen;
  ASSERT_TRUE(store
                  .ScanSpans([&](const BatchSpan& span) {
                    EXPECT_EQ(span.rows, 10u);
                    seen.push_back(span.batch.get());
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(seen, (std::vector<const vdb::ColumnBatch*>{a.get(), b.get()}));
}

TEST(ResultStoreTest, SpillsPastBudgetAndReadsBack) {
  constexpr int kBatches = 8, kRows = 20;
  size_t one_batch = IntStringBatch(0, kRows)->ByteSize();
  // Room for about three batches in memory; the rest spill.
  ResultStore store(/*memory_budget_bytes=*/3 * one_batch + one_batch / 2);
  store.set_schema(kIntStringSchema);
  for (int i = 0; i < kBatches; ++i) {
    auto batch = IntStringBatch(i * kRows, kRows);
    ASSERT_TRUE(store.AppendBatch(batch, 0, kRows).ok());
  }
  EXPECT_GT(store.spilled_batches(), 0u);
  EXPECT_LT(store.spilled_batches(), static_cast<size_t>(kBatches));
  EXPECT_LE(store.memory_bytes(), 3 * one_batch + one_batch / 2);
  // Scans preserve append order and exact values, spilled or not — twice.
  for (int pass = 0; pass < 2; ++pass) {
    auto rows = StoreRows(store);
    ASSERT_EQ(rows.size(), static_cast<size_t>(kBatches * kRows));
    for (size_t r = 0; r < rows.size(); ++r) {
      EXPECT_EQ(rows[r][0].int_val(), static_cast<int64_t>(r));
      EXPECT_EQ(rows[r][1].string_val(), "v" + std::to_string(r));
    }
  }
  EXPECT_EQ(store.total_rows(), kBatches * kRows);
}

TEST(ConnectorTest, PackagesRowsetsIntoBatches) {
  vdb::Engine engine;
  ASSERT_TRUE(engine.ExecuteScript("CREATE TABLE t (a INTEGER)").ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine
                    .Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                             ")")
                    .ok());
  }
  ConnectorOptions opts;
  opts.batch_rows = 2;  // force multiple TDF batches
  BackendConnector connector(&engine, opts);
  auto result = connector.Execute("SELECT a FROM t ORDER BY a");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->is_rowset());
  EXPECT_EQ(result->store->total_rows(), 5);
  EXPECT_EQ(result->store->batch_count(), 3u);  // 2 + 2 + 1
  auto rows = result->DecodeRows();
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 5u);
  EXPECT_EQ((*rows)[4][0].int_val(), 4);
}

TEST(ConnectorTest, CommandResultsHaveNoStore) {
  vdb::Engine engine;
  BackendConnector connector(&engine);
  auto result = connector.Execute("CREATE TABLE t (a INTEGER)");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->is_rowset());
  EXPECT_EQ(result->command_tag, "CREATE TABLE");
  auto dml = connector.Execute("INSERT INTO t VALUES (1), (2)");
  ASSERT_TRUE(dml.ok());
  EXPECT_EQ(dml->affected_rows, 2);
}

TEST(ConnectorTest, ErrorsPropagate) {
  vdb::Engine engine;
  BackendConnector connector(&engine);
  EXPECT_FALSE(connector.Execute("SELECT * FROM missing").ok());
  EXPECT_FALSE(connector.Execute("NOT SQL AT ALL").ok());
}

}  // namespace
}  // namespace hyperq::backend
