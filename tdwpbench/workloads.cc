// Workload generation, set-up, reference answers and answer checks.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "common/hash.h"
#include "fuzz/query_gen.h"
#include "workload/tpch.h"

namespace tdwpbench {

using hyperq::Datum;
namespace protocol = hyperq::protocol;
namespace service = hyperq::service;

namespace {

/// splitmix64: the benchmark's own generator, so its inputs do not move
/// when the program's generators change.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() %
                                     static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t state_;
};

// Independent streams derived from the one --seed.
constexpr uint64_t kTimedStream = 0x7431ULL;
constexpr uint64_t kWarmupStream = 0x3a1dULL;

// TPC-H scale factor 0.01 (the Figure 9a scale) and its fixed data seed:
// --seed varies the requests, not the data, so every seed measures the
// same tables.
constexpr double kTpchScale = 0.01;
constexpr uint64_t kTpchDataSeed = 19620718;
constexpr int64_t kCustomers = 1500;
constexpr int64_t kSuppliers = 100;
constexpr int64_t kOrders = 15000;

// --- point_lookup ----------------------------------------------------------

/// The `index`-th request: every 20th is a 1-row UPDATE of a column no
/// read returns; the rest cycle through five 1-row primary-key SELECT
/// templates. The position fixes the template, so every seed has the same
/// mix; the seed picks the keys.
Request PointRequest(Rng* rng, uint64_t index, uint64_t write_tag) {
  Request r;
  if (index % 20 == 19) {
    r.check = Check::kWrite;
    r.key = rng->Uniform(1, kCustomers);
    r.sql = "UPD CUSTOMER SET C_COMMENT = 'bench " +
            std::to_string(write_tag) + "' WHERE C_CUSTKEY = " +
            std::to_string(r.key);
    return r;
  }
  r.check = Check::kPointRead;
  std::string k;
  switch (index % 5) {
    case 0:
      r.key = rng->Uniform(1, kCustomers);
      k = std::to_string(r.key);
      r.sql = "SEL C_CUSTKEY, C_NAME, C_ADDRESS, C_PHONE, C_ACCTBAL FROM "
              "CUSTOMER WHERE C_CUSTKEY = " + k;
      break;
    case 1:
      r.key = rng->Uniform(1, kSuppliers);
      k = std::to_string(r.key);
      r.sql = "SEL S_SUPPKEY, S_NAME, S_PHONE, S_ACCTBAL FROM SUPPLIER "
              "WHERE S_SUPPKEY = " + k;
      break;
    case 2:
      r.key = rng->Uniform(0, 24);
      k = std::to_string(r.key);
      r.sql = "SEL N_NATIONKEY, N_NAME, N_REGIONKEY FROM NATION WHERE "
              "N_NATIONKEY = " + k;
      break;
    case 3:
      r.key = rng->Uniform(0, 4);
      k = std::to_string(r.key);
      r.sql = "SEL R_REGIONKEY, R_NAME FROM REGION WHERE R_REGIONKEY = " + k;
      break;
    default:
      r.key = rng->Uniform(1, kCustomers);
      k = std::to_string(r.key);
      r.sql = "SEL C_CUSTKEY, C_NAME, N_NAME FROM CUSTOMER, NATION WHERE "
              "C_NATIONKEY = N_NATIONKEY AND C_CUSTKEY = " + k;
      break;
  }
  return r;
}

// --- bulk_extract ----------------------------------------------------------

/// A range extract of ~1,000 rows: lineitem (every column) over 250 orders
/// for two indexes in three, else a wide orders projection over 1,000
/// orders. The two kinds cost differently; the fixed 2:1 mix keeps the
/// median latency inside the lineitem mode for every seed.
std::string BulkRequest(Rng* rng, uint64_t index) {
  if (index % 3 != 2) {
    int64_t lo = rng->Uniform(1, kOrders - 249);
    return "SEL * FROM LINEITEM WHERE L_ORDERKEY BETWEEN " +
           std::to_string(lo) + " AND " + std::to_string(lo + 249);
  }
  int64_t lo = rng->Uniform(1, kOrders - 999);
  return "SEL O_ORDERKEY, O_CUSTKEY, O_ORDERSTATUS, O_TOTALPRICE, "
         "O_ORDERDATE, O_ORDERPRIORITY, O_CLERK, O_SHIPPRIORITY, O_COMMENT "
         "FROM ORDERS WHERE O_ORDERKEY BETWEEN " +
         std::to_string(lo) + " AND " + std::to_string(lo + 999);
}

constexpr size_t kBulkPool = 129;  // distinct extracts the list draws from

// --- tpch_report -----------------------------------------------------------

/// A seeded permutation of [0, n), n >= 1 (Fisher-Yates).
std::vector<size_t> Shuffled(size_t n, Rng* rng) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n - 1; i > 0; --i) {
    std::swap(order[i], order[rng->Uniform(0, static_cast<int64_t>(i))]);
  }
  return order;
}

constexpr uint64_t kAdhocWarmup = 512;  // shapes sent during set-up

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kPointLookup, Workload::kAdhocShapes,
                     Workload::kBulkExtract, Workload::kTpchReport}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kPointLookup:
      return "point_lookup";
    case Workload::kAdhocShapes:
      return "adhoc_shapes";
    case Workload::kBulkExtract:
      return "bulk_extract";
    case Workload::kTpchReport:
      return "tpch_report";
  }
  return "?";
}

size_t RequestsPerSecond(Workload w, bool traced) {
  // Sized so one run lasts about --seconds on a 4-core x86 VM.
  switch (w) {
    case Workload::kPointLookup:
      return traced ? 1000 : 8000;
    case Workload::kAdhocShapes:
      return traced ? 500 : 2000;
    case Workload::kBulkExtract:
      return traced ? 100 : 300;
    case Workload::kTpchReport:
      return traced ? 6 : 22;
  }
  return 1;
}

Plan BuildPlan(Workload w, uint64_t seed, size_t count) {
  Plan plan;
  plan.workload = w;
  plan.seed = seed;
  Rng rng(seed ^ kTimedStream);
  Rng warm(seed ^ kWarmupStream);
  plan.rounds = 40;
  switch (w) {
    case Workload::kPointLookup:
      for (uint64_t i = 0; i < 2000; ++i) {
        plan.warmup.push_back(PointRequest(&warm, i, seed).sql);
      }
      for (uint64_t i = 0; i < count; ++i) {
        plan.timed.push_back(PointRequest(&rng, i, seed + i));
      }
      break;
    case Workload::kAdhocShapes:
      // Shapes [0, kAdhocWarmup) of the seed's fuzz stream warm the
      // service; the timed list continues the stream, so no timed shape
      // repeats a warm-up one.
      for (uint64_t i = 0; i < kAdhocWarmup; ++i) {
        plan.warmup.push_back(hyperq::fuzz::GenerateQuery(seed, i).ToSql());
      }
      for (uint64_t i = 0; i < count; ++i) {
        plan.distinct.push_back(
            hyperq::fuzz::GenerateQuery(seed, kAdhocWarmup + i).ToSql());
        Request r;
        r.sql = plan.distinct.back();
        r.ref = i;
        plan.timed.push_back(std::move(r));
      }
      break;
    case Workload::kBulkExtract:
      for (uint64_t i = 0; i < 64; ++i) {
        plan.warmup.push_back(BulkRequest(&warm, i));
      }
      // A pool of extracts in the 2:1 pattern; request i takes one of the
      // pool's entries of its own kind, so the list keeps the pattern.
      for (uint64_t i = 0; i < kBulkPool; ++i) {
        plan.distinct.push_back(BulkRequest(&rng, i));
      }
      for (size_t i = 0; i < count; ++i) {
        Request r;
        r.ref = 3 * static_cast<size_t>(rng.Uniform(0, kBulkPool / 3 - 1)) +
                i % 3;
        r.sql = plan.distinct[r.ref];
        plan.timed.push_back(std::move(r));
      }
      break;
    case Workload::kTpchReport: {
      const auto& queries = hyperq::workload::TpchQueries();
      plan.distinct = queries;
      for (size_t q : Shuffled(queries.size(), &warm)) {
        plan.warmup.push_back(queries[q]);
      }
      // Whole passes over all 22 queries, each in its own seeded order;
      // one pass is one round.
      size_t passes = std::max<size_t>(1, count / queries.size());
      plan.rounds = passes;
      for (size_t p = 0; p < passes; ++p) {
        for (size_t q : Shuffled(queries.size(), &rng)) {
          Request r;
          r.sql = queries[q];
          r.ref = q;
          plan.timed.push_back(std::move(r));
        }
      }
      break;
    }
  }
  plan.rounds = std::max<size_t>(1, std::min(plan.rounds, plan.timed.size()));
  return plan;
}

namespace {

uint64_t RowHash(const std::vector<Datum>& row) {
  uint64_t h = hyperq::kFnvOffsetBasis;
  for (const Datum& d : row) h = hyperq::HashCombine(h, d.Hash());
  return h;
}

}  // namespace

Digest DigestOf(const std::vector<std::vector<Datum>>& rows) {
  Digest d;
  for (const auto& r : rows) {
    ++d.rows;
    d.sum += RowHash(r);
  }
  return d;
}

Digest DigestOf(const hyperq::vdb::QueryResult& result) {
  Digest d = DigestOf(result.rows);  // legacy row producers
  std::vector<Datum> row;
  for (const auto& chunk : result.chunks) {
    for (size_t r = 0; r < chunk->rows; ++r) {
      chunk->FillRow(r, &row);
      ++d.rows;
      d.sum += RowHash(row);
    }
  }
  return d;
}

namespace {

Status LoadData(Fixture* fx, const Plan& plan) {
  if (plan.workload == Workload::kAdhocShapes) {
    std::vector<std::string> stmts = hyperq::fuzz::SchemaDdl();
    for (auto& dml : hyperq::fuzz::DataDml(plan.seed)) {
      stmts.push_back(std::move(dml));
    }
    for (const auto& sql : stmts) {
      HQ_RETURN_IF_ERROR(
          fx->service->Submit(fx->loader_session, sql).status());
    }
    return Status::OK();
  }
  return hyperq::workload::LoadTpch(fx->service.get(), fx->loader_session,
                                    &fx->engine,
                                    {kTpchScale, kTpchDataSeed});
}

}  // namespace

Result<std::unique_ptr<Fixture>> Fixture::Create(const Plan& plan) {
  std::unique_ptr<Fixture> fx(new Fixture());
  fx->service = std::make_unique<service::HyperQService>(&fx->engine);
  HQ_ASSIGN_OR_RETURN(fx->loader_session,
                      fx->service->OpenSession("loader"));
  HQ_RETURN_IF_ERROR(LoadData(fx.get(), plan));
  fx->server = std::make_unique<protocol::TdwpServer>(fx->service.get());
  HQ_RETURN_IF_ERROR(fx->server->Start(0));
  HQ_RETURN_IF_ERROR(fx->client.Connect(fx->server->port()));
  HQ_RETURN_IF_ERROR(fx->client.Logon("bench", "bench"));
  for (const auto& sql : plan.warmup) {
    HQ_RETURN_IF_ERROR(fx->client.Run(sql).status());
  }
  return fx;
}

Fixture::~Fixture() {
  client.Goodbye();
  if (server != nullptr) server->Stop();
}

std::unique_ptr<service::HyperQService> MakeTwin(Fixture* fx,
                                                 bool translation_cache) {
  service::ServiceOptions options;
  options.translation_cache.enabled = translation_cache;
  auto twin =
      std::make_unique<service::HyperQService>(&fx->engine, options);
  hyperq::Catalog* from = fx->service->catalog();
  for (const auto& name : from->TableNames()) {
    auto def = from->GetTable(name);
    if (def.ok()) (void)twin->catalog()->CreateTable(**def);
  }
  return twin;
}

Result<std::vector<Digest>> ComputeReferences(Fixture* fx,
                                              const Plan& plan) {
  auto twin = MakeTwin(fx, /*translation_cache=*/false);
  std::vector<Digest> refs;
  refs.reserve(plan.distinct.size());
  for (const auto& sql : plan.distinct) {
    HQ_ASSIGN_OR_RETURN(auto sql_b, twin->Translate(sql, nullptr));
    if (sql_b.size() != 1) {
      return Status::ExecutionError("reference: expected one SQL-B "
                                    "statement for: ", sql);
    }
    HQ_ASSIGN_OR_RETURN(auto result, fx->engine.Execute(sql_b[0]));
    refs.push_back(DigestOf(result));
  }
  return refs;
}

bool CheckAnswer(const Request& req, const protocol::ClientResult& result,
                 const std::vector<Digest>& refs) {
  switch (req.check) {
    case Check::kPointRead:
      return result.rows.size() == 1 && !result.rows[0].empty() &&
             result.rows[0][0].is_int() &&
             result.rows[0][0].int_val() == req.key;
    case Check::kWrite:
      return result.activity_count == 1;
    case Check::kDigest:
      return req.ref < refs.size() && DigestOf(result.rows) == refs[req.ref];
  }
  return false;
}

uint64_t PlanDigest(const Plan& plan, const std::vector<Digest>& refs) {
  uint64_t h = hyperq::kFnvOffsetBasis;
  for (const auto& sql : plan.warmup) h = hyperq::Fnv1a64(sql + "\n", h);
  for (const auto& r : plan.timed) {
    h = hyperq::Fnv1a64(r.sql + "\n", h);
    h = hyperq::HashCombine(h, static_cast<uint64_t>(r.check));
    h = hyperq::HashCombine(h, static_cast<uint64_t>(r.key));
    h = hyperq::HashCombine(h, r.ref);
  }
  for (const auto& d : refs) {
    h = hyperq::HashCombine(h, d.rows);
    h = hyperq::HashCombine(h, d.sum);
  }
  return h;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

namespace {
double ClockMicros(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}
}  // namespace

double ProcessCpuMicros() { return ClockMicros(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuMicros() { return ClockMicros(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace tdwpbench
