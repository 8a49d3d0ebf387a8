// Result Converter tests: TDF -> wire batches, buffering semantics,
// parallel-worker equivalence.

#include <gtest/gtest.h>

#include "backend/connector.h"
#include "convert/result_converter.h"
#include "vdb/engine.h"

namespace hyperq::convert {
namespace {

backend::BackendResult MakeBackendResult(int64_t rows) {
  backend::BackendResult result;
  result.columns = {{"A", SqlType::Int()}, {"S", SqlType::Varchar(16)}};
  result.store = std::make_shared<backend::ResultStore>();
  result.store->set_schema(result.columns);
  vdb::BatchBuilder builder({SqlType::Int(), SqlType::Varchar(16)});
  for (int64_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(
        builder
            .AppendRow({Datum::Int(i), Datum::String("s" + std::to_string(i))})
            .ok());
  }
  auto batch = builder.Finish();
  EXPECT_TRUE(result.store->AppendBatch(batch, 0, batch->rows).ok());
  result.command_tag = "SELECT";
  return result;
}

ConverterOptions Options(int parallelism, size_t rows_per_batch = 2048) {
  ConverterOptions options;
  options.parallelism = parallelism;
  options.rows_per_batch = rows_per_batch;
  return options;
}

TEST(ConvertTest, AnnouncesTotalRowsBeforeBatches) {
  ResultConverter converter(Options(2, 100));
  auto converted = converter.Convert(MakeBackendResult(250));
  ASSERT_TRUE(converted.ok()) << converted.status();
  // Buffered conversion: the total is known up front (WP-A requirement).
  EXPECT_EQ(converted->total_rows, 250u);
  EXPECT_EQ(converted->batches.size(), 3u);  // 100 + 100 + 50
  // Each batch payload leads with its row count.
  BufferReader r(converted->batches[2]);
  EXPECT_EQ(*r.GetU32(), 50u);
}

TEST(ConvertTest, EmptyRowsetStillCarriesSchema) {
  ResultConverter converter(Options(1));
  auto converted = converter.Convert(MakeBackendResult(0));
  ASSERT_TRUE(converted.ok());
  EXPECT_EQ(converted->total_rows, 0u);
  EXPECT_TRUE(converted->batches.empty());
  ASSERT_EQ(converted->columns.size(), 2u);
  EXPECT_EQ(converted->columns[0].type, protocol::WireType::kInteger);
}

TEST(ConvertTest, CommandResultsConvertToNothing) {
  backend::BackendResult cmd;
  cmd.command_tag = "INSERT";
  cmd.affected_rows = 3;
  ResultConverter converter(Options(2));
  auto converted = converter.Convert(cmd);
  ASSERT_TRUE(converted.ok());
  EXPECT_TRUE(converted->columns.empty());
  EXPECT_TRUE(converted->batches.empty());
}

TEST(ConvertTest, ParallelismDoesNotChangeBytes) {
  auto result = MakeBackendResult(997);  // odd size across batch boundaries
  ResultConverter serial(Options(1, 128));
  ResultConverter parallel(Options(4, 128));
  auto a = serial.Convert(result);
  auto b = parallel.Convert(result);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->batches.size(), b->batches.size());
  for (size_t i = 0; i < a->batches.size(); ++i) {
    EXPECT_EQ(a->batches[i], b->batches[i]) << "batch " << i;
  }
}

TEST(ConvertTest, DecodesBackOnTheClientSide) {
  ResultConverter converter(Options(2, 64));
  auto converted = converter.Convert(MakeBackendResult(100));
  ASSERT_TRUE(converted.ok());
  size_t decoded = 0;
  for (const auto& batch : converted->batches) {
    BufferReader in(batch);
    auto nrows = in.GetU32();
    ASSERT_TRUE(nrows.ok());
    for (uint32_t i = 0; i < *nrows; ++i) {
      auto row = protocol::DecodeRecord(converted->columns, &in);
      ASSERT_TRUE(row.ok());
      EXPECT_EQ((*row)[0].int_val(), static_cast<int64_t>(decoded));
      EXPECT_EQ((*row)[1].string_val(), "s" + std::to_string(decoded));
      ++decoded;
    }
  }
  EXPECT_EQ(decoded, 100u);
}

}  // namespace
}  // namespace hyperq::convert
