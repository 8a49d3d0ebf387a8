// Ablation: the result data pipeline (paper §4.5/§4.6).
//
// Sweeps result-set sizes through the ResultStore packaging (ODBC-Server
// analog: columnar spans buffered in memory, or encoded as TDF and spilled
// to disk past the memory budget) and the Result Converter, across
// converter parallelism — the design choices DESIGN.md calls out for the
// Result Store / Result Converter components.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "backend/connector.h"
#include "backend/result_store.h"
#include "backend/tdf.h"
#include "convert/result_converter.h"
#include "protocol/tdwp.h"
#include "vdb/column_batch.h"

using namespace hyperq;

namespace {

// Rows per result chunk, as the executor hands them to the connector.
constexpr size_t kChunkRows = 2048;

struct PipelineInput {
  std::vector<backend::TdfColumn> schema;
  std::vector<std::shared_ptr<const vdb::ColumnBatch>> chunks;
};

PipelineInput MakeInput(int64_t rows) {
  PipelineInput in;
  in.schema = {{"ID", SqlType::Int()},
               {"NAME", SqlType::Varchar(32)},
               {"AMOUNT", SqlType::Decimal(12, 2)},
               {"WHEN_D", SqlType::Date()}};
  std::vector<SqlType> types;
  for (const auto& c : in.schema) types.push_back(c.type);
  for (int64_t begin = 0; begin < rows;
       begin += static_cast<int64_t>(kChunkRows)) {
    int64_t end = std::min(rows, begin + static_cast<int64_t>(kChunkRows));
    vdb::BatchBuilder builder(types);
    builder.Reserve(static_cast<size_t>(end - begin));
    for (int64_t i = begin; i < end; ++i) {
      (void)builder.AppendRow(
          {Datum::Int(i), Datum::String("row_" + std::to_string(i % 997)),
           Datum::MakeDecimal(Decimal{i * 37, 2}),
           Datum::Date(static_cast<int32_t>(8000 + i % 365))});
    }
    in.chunks.push_back(builder.Finish());
  }
  return in;
}

// Packages `in` into a fresh store in connector-sized spans.
Result<backend::BackendResult> Package(const PipelineInput& in,
                                       const backend::ConnectorOptions& opts) {
  backend::BackendResult out;
  out.columns = in.schema;
  out.store = std::make_shared<backend::ResultStore>(opts.store_memory_budget,
                                                     opts.spill_dir);
  out.store->set_schema(out.columns);
  for (const auto& chunk : in.chunks) {
    for (size_t i = 0; i < chunk->rows; i += opts.batch_rows) {
      size_t n = std::min(opts.batch_rows, chunk->rows - i);
      HQ_RETURN_IF_ERROR(out.store->AppendBatch(chunk, i, n));
    }
  }
  return out;
}

// Result packaging: spans into the ResultStore, optionally spilling
// (memory budget = 64KiB forces spill for larger results).
void BM_StorePackage(benchmark::State& state) {
  int64_t rows = state.range(0);
  bool spill = state.range(1) != 0;
  PipelineInput in = MakeInput(rows);
  backend::ConnectorOptions opts;
  opts.store_memory_budget = spill ? (64 << 10) : (256 << 20);
  int64_t spilled = 0;
  for (auto _ : state) {
    auto packaged = Package(in, opts);
    if (!packaged.ok()) {
      state.SkipWithError(packaged.status().ToString().c_str());
      return;
    }
    spilled = static_cast<int64_t>(packaged->store->spilled_batches());
    benchmark::DoNotOptimize(packaged);
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["spilled_batches"] = static_cast<double>(spilled);
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_StorePackage)
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({20000, 0})
    ->Args({20000, 1})
    ->Args({100000, 0})
    ->Args({100000, 1});

// Result conversion: buffered spans -> frontend binary records across
// parallelism.
void BM_ResultConvert(benchmark::State& state) {
  int64_t rows = state.range(0);
  backend::ConnectorOptions opts;
  auto packaged = Package(MakeInput(rows), opts);
  if (!packaged.ok()) {
    state.SkipWithError(packaged.status().ToString().c_str());
    return;
  }
  convert::ConverterOptions conv;
  conv.parallelism = static_cast<int>(state.range(1));
  convert::ResultConverter converter(conv);
  for (auto _ : state) {
    auto converted = converter.Convert(*packaged);
    if (!converted.ok()) {
      state.SkipWithError(converted.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(converted);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_ResultConvert)
    ->Args({20000, 1})
    ->Args({20000, 2})
    ->Args({20000, 4})
    ->Args({100000, 1})
    ->Args({100000, 4});

// Round trip including the client-side decode (bit-identical check path).
void BM_RecordRoundTrip(benchmark::State& state) {
  std::vector<protocol::WireColumn> schema;
  auto c1 = protocol::ToWireColumn("ID", SqlType::Int());
  auto c2 = protocol::ToWireColumn("D", SqlType::Date());
  auto c3 = protocol::ToWireColumn("S", SqlType::Varchar(32));
  if (!c1.ok() || !c2.ok() || !c3.ok()) {
    state.SkipWithError("schema");
    return;
  }
  schema = {*c1, *c2, *c3};
  std::vector<Datum> row = {Datum::Int(42), Datum::Date(16071),
                            Datum::String("hello world")};
  for (auto _ : state) {
    BufferWriter w;
    if (!protocol::EncodeRecord(schema, row, &w).ok()) {
      state.SkipWithError("encode");
      return;
    }
    BufferReader r(w.data(), w.size());
    auto decoded = protocol::DecodeRecord(schema, &r);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordRoundTrip);

}  // namespace

BENCHMARK_MAIN();
