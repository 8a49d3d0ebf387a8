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
#include "service/hyperq_service.h"
#include "vdb/column_batch.h"
#include "vdb/engine.h"
#include "workload/tpch.h"

using namespace hyperq;

namespace {

// Rows per result chunk, as the executor hands them to the connector.
constexpr size_t kChunkRows = 2048;

struct PipelineInput {
  std::vector<backend::TdfColumn> schema;
  std::vector<std::shared_ptr<const vdb::ColumnBatch>> chunks;
};

// A lineitem-like result: ten columns (a two-byte presence bitmap), CHAR
// columns stored unpadded as vdb stores TPC-H's L_SHIPMODE and
// O_ORDERPRIORITY, and a sparse-NULL column (every 7th row NULL).
PipelineInput MakeInput(int64_t rows) {
  static const char* const kModes[] = {"MAIL", "SHIP", "TRUCK", "AIR"};
  static const char* const kPriorities[] = {"1-URGENT", "2-HIGH", "5-LOW"};
  PipelineInput in;
  in.schema = {{"ID", SqlType::Int()},
               {"NAME", SqlType::Varchar(32)},
               {"AMOUNT", SqlType::Decimal(12, 2)},
               {"WHEN_D", SqlType::Date()},
               {"FLAG", SqlType::Char(1)},
               {"MODE", SqlType::Char(10)},
               {"PRIORITY", SqlType::Char(15)},
               {"QTY", SqlType::BigInt()},
               {"DISCOUNT", SqlType::Double()},
               {"NOTE", SqlType::Varchar(44)}};
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
           Datum::Date(static_cast<int32_t>(8000 + i % 365)),
           Datum::String(i % 2 == 0 ? "N" : "R"),
           Datum::String(kModes[i % 4]), Datum::String(kPriorities[i % 3]),
           Datum::Int(i % 50), Datum::MakeDouble(0.01 * (i % 11)),
           i % 7 == 0 ? Datum::Null()
                      : Datum::String("note " + std::to_string(i % 89))});
    }
    in.chunks.push_back(builder.Finish());
  }
  return in;
}

// One column of `rows` values: DATE (shape 1) or INTEGER (shape 2), so
// BM_ResultConvert can price one wire field of each kind.
PipelineInput MakeOneColumnInput(int64_t rows, int shape) {
  PipelineInput in;
  const bool date = shape == 1;
  in.schema = {{"V", date ? SqlType::Date() : SqlType::Int()}};
  for (int64_t begin = 0; begin < rows;
       begin += static_cast<int64_t>(kChunkRows)) {
    int64_t end = std::min(rows, begin + static_cast<int64_t>(kChunkRows));
    vdb::BatchBuilder builder(std::vector<SqlType>{in.schema[0].type});
    builder.Reserve(static_cast<size_t>(end - begin));
    for (int64_t i = begin; i < end; ++i) {
      if (date) {
        builder.Append(0,
                       Datum::Date(static_cast<int32_t>(-25000 + i % 73000)));
      } else {
        builder.Append(0, Datum::Int(i));
      }
    }
    in.chunks.push_back(builder.Finish());
  }
  return in;
}

// Packages `in` into a fresh store in connector-sized spans. With
// `canonicalize` each chunk first goes through CanonicalizeBatch, as in
// BackendConnector::Package.
Result<backend::BackendResult> Package(const PipelineInput& in,
                                       const backend::ConnectorOptions& opts,
                                       bool canonicalize = false) {
  backend::BackendResult out;
  out.store = std::make_shared<backend::ResultStore>(opts.store_memory_budget,
                                                     opts.spill_dir);
  out.store->set_schema(in.schema);
  for (auto chunk : in.chunks) {
    if (canonicalize) {
      HQ_ASSIGN_OR_RETURN(chunk, backend::CanonicalizeBatch(in.schema, chunk));
    }
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

// The connector's whole packaging step: CanonicalizeBatch per executor
// chunk, then spans into an in-memory store.
void BM_CanonicalizePackage(benchmark::State& state) {
  int64_t rows = state.range(0);
  PipelineInput in = MakeInput(rows);
  backend::ConnectorOptions opts;
  for (auto _ : state) {
    auto packaged = Package(in, opts, /*canonicalize=*/true);
    if (!packaged.ok()) {
      state.SkipWithError(packaged.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(packaged);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_CanonicalizePackage)->Arg(1000)->Arg(20000);

// Result conversion: buffered spans -> frontend binary records across
// parallelism. Args: rows, parallelism, shape (0 = the ten-column mix,
// 1 = one DATE column, 2 = one INTEGER column); `s_per_field` prices one
// encoded value (printed with an SI suffix: "3.1n" is 3.1 ns).
void BM_ResultConvert(benchmark::State& state) {
  int64_t rows = state.range(0);
  const int shape = static_cast<int>(state.range(2));
  backend::ConnectorOptions opts;
  PipelineInput in =
      shape == 0 ? MakeInput(rows) : MakeOneColumnInput(rows, shape);
  const double fields = static_cast<double>(rows * in.schema.size());
  auto packaged = Package(in, opts);
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
  state.counters["s_per_field"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * fields,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ResultConvert)
    ->Args({1000, 1, 0})
    ->Args({20000, 1, 0})
    ->Args({20000, 2, 0})
    ->Args({20000, 4, 0})
    ->Args({100000, 1, 0})
    ->Args({100000, 2, 0})
    ->Args({100000, 4, 0})
    ->Args({100000, 1, 1})
    ->Args({100000, 1, 2});

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

// TPC-H SF 0.01 in a vdb engine, loaded once per process.
struct TpchEngine {
  vdb::Engine engine;
  service::HyperQService service{&engine};
  Status status;
  TpchEngine() {
    auto sid = service.OpenSession("loader");
    status = sid.ok() ? workload::LoadTpch(&service, *sid, &engine, {})
                      : sid.status();
  }
};

TpchEngine& Tpch() {
  static TpchEngine* tpch = new TpchEngine();
  return *tpch;
}

// vdb's filter on bulk_extract's lineitem extract: the whole statement
// (parse, bind, predicate over every row, gather of the ~1,000 hits).
// `s_per_table_row` divides by LINEITEM's row count ("13n" is 13 ns).
void BM_FilterRange(benchmark::State& state) {
  TpchEngine& tpch = Tpch();
  if (!tpch.status.ok()) {
    state.SkipWithError(tpch.status.ToString().c_str());
    return;
  }
  auto table = tpch.engine.storage()->GetTable("LINEITEM");
  const double table_rows = static_cast<double>((*table)->data->rows);
  int64_t lo = 1;
  size_t out_rows = 0;
  for (auto _ : state) {
    auto r = tpch.engine.Execute(
        "SELECT * FROM LINEITEM WHERE L_ORDERKEY BETWEEN " +
        std::to_string(lo) + " AND " + std::to_string(lo + 249));
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    out_rows = r->row_count();
    benchmark::DoNotOptimize(r);
    lo = lo % 14000 + 997;
  }
  state.counters["rows_out"] = static_cast<double>(out_rows);
  state.counters["s_per_table_row"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * table_rows,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_FilterRange)->Unit(benchmark::kMicrosecond);

// point_lookup's write: a one-row UPDATE of CUSTOMER, then the next read
// of CUSTOMER, which scans whatever snapshot the write left behind.
void BM_UpdateOneRow(benchmark::State& state) {
  TpchEngine& tpch = Tpch();
  if (!tpch.status.ok()) {
    state.SkipWithError(tpch.status.ToString().c_str());
    return;
  }
  int64_t key = 1;
  int64_t tag = 0;
  for (auto _ : state) {
    auto w = tpch.engine.Execute("UPDATE CUSTOMER SET C_COMMENT = 'bench " +
                                 std::to_string(++tag) +
                                 "' WHERE C_CUSTKEY = " + std::to_string(key));
    auto r = tpch.engine.Execute(
        "SELECT C_CUSTKEY, C_NAME, C_ACCTBAL FROM CUSTOMER WHERE C_CUSTKEY = " +
        std::to_string(key % 1500 + 1));
    if (!w.ok() || !r.ok() || w->affected_rows != 1 || r->row_count() != 1) {
      state.SkipWithError("update or read failed");
      return;
    }
    benchmark::DoNotOptimize(r);
    key = key % 1500 + 1;
  }
}
BENCHMARK(BM_UpdateOneRow)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
