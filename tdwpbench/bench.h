// tdwpbench: the repository benchmark. One process runs one named workload
// with a seed against the real TdwpServer + HyperQService over tdwp, checks
// every answer, and prints its metrics; see README.md in this directory.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "protocol/client.h"
#include "protocol/server.h"
#include "service/hyperq_service.h"
#include "vdb/engine.h"

namespace tdwpbench {

using hyperq::Result;
using hyperq::Status;

enum class Workload { kPointLookup, kAdhocShapes, kBulkExtract, kTpchReport };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

/// \brief How a request's answer is checked.
enum class Check {
  kPointRead,  // exactly one row whose first column is `key`
  kWrite,      // activity count 1
  kDigest,     // row count and row checksum equal the request's reference
};

struct Request {
  std::string sql;  // SQL-A text, the only thing the program receives
  Check check = Check::kDigest;
  int64_t key = 0;  // kPointRead: the requested primary key
  size_t ref = 0;   // kDigest: index into Plan::distinct
};

/// \brief A workload's seeded inputs. Generation is sequential, so the
/// plan for `count` requests is a prefix of the plan for more.
struct Plan {
  Workload workload = Workload::kPointLookup;
  uint64_t seed = 0;
  std::vector<std::string> warmup;    // sent during set-up, never timed
  std::vector<Request> timed;         // the measured list
  std::vector<std::string> distinct;  // kDigest texts, by Request::ref
  size_t rounds = 1;  // the timed list splits into this many equal rounds
};

/// \brief Requests one run sends per second of `--seconds`, on the plain
/// (untraced) run and on the traced replay. Fixed per workload, so the
/// work of a run depends only on the workload, the seed and the length.
size_t RequestsPerSecond(Workload w, bool traced);

Plan BuildPlan(Workload w, uint64_t seed, size_t count);

/// \brief Row count and order-insensitive checksum of a result.
struct Digest {
  uint64_t rows = 0;
  uint64_t sum = 0;  // sum of per-row hashes, mod 2^64
  bool operator==(const Digest&) const = default;
};

Digest DigestOf(const hyperq::vdb::QueryResult& result);
Digest DigestOf(const std::vector<std::vector<hyperq::Datum>>& rows);

/// \brief One set-up of the program under test: an engine, a service with
/// default ServiceOptions, the workload's schema and data, a started tdwp
/// server, and one logged-on client session that has sent the warm-up list.
class Fixture {
 public:
  static Result<std::unique_ptr<Fixture>> Create(const Plan& plan);
  ~Fixture();
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  hyperq::vdb::Engine engine;
  std::unique_ptr<hyperq::service::HyperQService> service;
  std::unique_ptr<hyperq::protocol::TdwpServer> server;
  hyperq::protocol::TdwpClient client;
  uint32_t loader_session = 0;

 private:
  Fixture() = default;
};

/// \brief A second service over the fixture's engine with a copy of the
/// fixture's catalog. With `translation_cache` false every Translate() on
/// it runs the full cold pipeline; otherwise it has default options.
std::unique_ptr<hyperq::service::HyperQService> MakeTwin(
    Fixture* fx, bool translation_cache);

/// \brief Reference digests for plan.distinct: each text is translated on
/// a cache-off twin and its SQL-B executed directly on vdb::Engine.
Result<std::vector<Digest>> ComputeReferences(Fixture* fx, const Plan& plan);

/// \brief True when `result` is the correct answer to `req`.
bool CheckAnswer(const Request& req,
                 const hyperq::protocol::ClientResult& result,
                 const std::vector<Digest>& refs);

/// \brief Order-dependent digest of the plan's request texts and the
/// reference digests; the benchmark's tests compare it across runs.
uint64_t PlanDigest(const Plan& plan, const std::vector<Digest>& refs);

// --- Measurement ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  int64_t attempted = 0;
  int64_t failed = 0;  // errors plus wrong answers
  std::vector<Metric> metrics;  // printed in the result line
  std::vector<Metric> notes;    // printed above it only
};

/// \brief The plain run: three set-ups (the median CPU time is reported),
/// then the timed list over tdwp from one client session. End-to-end
/// metrics, each time scaled to a nominal host by a probe that runs on the
/// process's one CPU (see measure.cc).
Result<RunReport> MeasureEndToEnd(const Plan& plan);

/// \brief The traced run: replays the list in-process, timing each layer's
/// public entry point, then the same request over tdwp.
Result<RunReport> ReplayLayers(const Plan& plan);

// --- Small helpers ----------------------------------------------------------

/// Nearest-rank percentile of an unsorted sample (q in [0, 1]); 0 if empty.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);
double ProcessCpuMicros();
double ThreadCpuMicros();
double PeakRssMb();

}  // namespace tdwpbench
