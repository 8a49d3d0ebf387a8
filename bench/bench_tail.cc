// Tail-latency study: hedged reads vs. stragglers (DESIGN.md §11).
//
// Three compute replicas serve a steady multi-session SELECT workload
// while a deterministic latency fault turns every 20th backend execution
// (~5% of traffic) into a 20ms straggler — the classic long-tail shape
// hedging exists for. The same workload runs twice, unhedged and hedged
// (2ms trigger floor, retry budget at a 10% ratio), and the study reports
//   * p50/p95/p99 client latency per configuration,
//   * backend attempt counts (hedges are extra attempts; the acceptance
//     bound is <= 10% added attempts over the unhedged run),
//   * hedge outcome counters (launched/wins/losses/denials), and
//   * the two acceptance gates: p99 cut >= 2x, added attempts <= 10%,
// written to BENCH_tail.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/retry_budget.h"
#include "observability/metric_names.h"
#include "service/hyperq_service.h"
#include "vdb/engine.h"

using namespace hyperq;

namespace {

namespace names = observability::names;

constexpr int kReplicas = 3;
constexpr int kWorkers = 4;
constexpr int kQueriesPerWorker = 250;
constexpr int kStragglerEvery = 20;  // 1-in-20 backend calls stall...
constexpr int kStragglerMs = 20;     // ...for 20ms

service::ServiceOptions TailOptions(bool hedging) {
  service::ServiceOptions options;
  options.connector.retry.max_attempts = 2;
  options.connector.retry.base_delay_ms = 1;
  options.connector.retry.max_delay_ms = 2;
  options.fleet.backends.resize(kReplicas);
  for (int i = 0; i < kReplicas; ++i) {
    options.fleet.backends[i].name = "replica-" + std::to_string(i);
    options.fleet.backends[i].profile = transform::BackendProfile::Vdb();
  }
  if (hedging) {
    options.tail.hedge.enabled = true;
    options.tail.hedge.min_threshold_micros = 2000;
    options.tail.hedge.max_hedge_fraction = 1.0;
    // Speculative work still pays into the shared retry budget: ~5%
    // stragglers fit comfortably inside the 10% ratio.
    options.tail.retry_budget.enabled = true;
    options.tail.retry_budget.ratio = 0.1;
    options.tail.retry_budget.initial_tokens = 10;
    options.tail.retry_budget.max_tokens = 50;
  }
  return options;
}

struct RunResult {
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  long long queries = 0;
  long long failed = 0;
  int64_t backend_attempts = 0;
  int64_t hedges_launched = 0;
  int64_t hedge_wins = 0;
  int64_t hedge_losses = 0;
  int64_t hedge_denied = 0;
};

RunResult RunStudy(bool hedging) {
  FaultInjector::Global().Reset();
  FaultInjector::Global().SetSeed(0x7A11);

  vdb::Engine engine;
  service::HyperQService service(&engine, TailOptions(hedging));
  {
    auto setup = service.OpenSession("setup");
    if (!setup.ok()) std::abort();
    if (!service.Submit(*setup, "CREATE TABLE T (A INTEGER, B VARCHAR(20))")
             .ok()) {
      std::abort();
    }
    for (int i = 0; i < 50; ++i) {
      if (!service
               .Submit(*setup, "INS INTO T VALUES (" + std::to_string(i) +
                                   ", 'row-" + std::to_string(i) + "')")
               .ok()) {
        std::abort();
      }
    }
    service.CloseSession(*setup);
  }
  const int64_t setup_attempts =
      service.metrics_registry()->counter(names::kBackendAttempts)->value();

  // Arm the straggler shape only for the measured workload.
  if (!FaultInjector::Global()
           .Configure("vdb.execute=latency:ms=" +
                      std::to_string(kStragglerMs) +
                      ",every=" + std::to_string(kStragglerEvery))
           .ok()) {
    std::abort();
  }

  std::mutex latencies_mutex;
  std::vector<double> latencies;
  latencies.reserve(kWorkers * kQueriesPerWorker);
  std::atomic<long long> failed{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      auto sid = service.OpenSession("bench" + std::to_string(w));
      if (!sid.ok()) std::abort();
      std::vector<double> local;
      local.reserve(kQueriesPerWorker);
      for (int q = 0; q < kQueriesPerWorker; ++q) {
        auto start = std::chrono::steady_clock::now();
        auto r = service.Submit(*sid, "SEL * FROM T WHERE A < " +
                                          std::to_string(10 + (q % 30)) +
                                          " ORDER BY A");
        auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
        if (r.ok()) {
          local.push_back(static_cast<double>(micros));
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
      service.CloseSession(*sid);
      std::lock_guard<std::mutex> lock(latencies_mutex);
      latencies.insert(latencies.end(), local.begin(), local.end());
    });
  }
  for (auto& t : workers) t.join();
  FaultInjector::Global().Reset();

  std::sort(latencies.begin(), latencies.end());
  auto quantile = [&](double q) {
    if (latencies.empty()) return 0.0;
    size_t idx = static_cast<size_t>(q * (latencies.size() - 1));
    return latencies[idx] / 1000.0;
  };
  RunResult result;
  result.p50_ms = quantile(0.50);
  result.p95_ms = quantile(0.95);
  result.p99_ms = quantile(0.99);
  result.queries = static_cast<long long>(latencies.size());
  result.failed = failed.load();
  result.backend_attempts =
      service.metrics_registry()->counter(names::kBackendAttempts)->value() -
      setup_attempts;
  result.hedges_launched =
      service.metrics_registry()->counter(names::kHedgeLaunched)->value();
  result.hedge_wins =
      service.metrics_registry()->counter(names::kHedgeWins)->value();
  result.hedge_losses =
      service.metrics_registry()->counter(names::kHedgeLosses)->value();
  result.hedge_denied =
      service.metrics_registry()->counter(names::kHedgeDeniedBudget)->value() +
      service.metrics_registry()->counter(names::kHedgeDeniedLoad)->value() +
      service.metrics_registry()
          ->counter(names::kHedgeDeniedNoReplica)
          ->value();
  return result;
}

void WriteRun(FILE* f, const char* key, const RunResult& r, bool last) {
  std::fprintf(f, "  \"%s\": {\n", key);
  std::fprintf(f, "    \"p50_ms\": %.3f,\n", r.p50_ms);
  std::fprintf(f, "    \"p95_ms\": %.3f,\n", r.p95_ms);
  std::fprintf(f, "    \"p99_ms\": %.3f,\n", r.p99_ms);
  std::fprintf(f, "    \"queries\": %lld,\n", r.queries);
  std::fprintf(f, "    \"failed\": %lld,\n", r.failed);
  std::fprintf(f, "    \"backend_attempts\": %lld,\n",
               static_cast<long long>(r.backend_attempts));
  std::fprintf(f, "    \"hedges_launched\": %lld,\n",
               static_cast<long long>(r.hedges_launched));
  std::fprintf(f, "    \"hedge_wins\": %lld,\n",
               static_cast<long long>(r.hedge_wins));
  std::fprintf(f, "    \"hedge_losses\": %lld,\n",
               static_cast<long long>(r.hedge_losses));
  std::fprintf(f, "    \"hedge_denied\": %lld\n",
               static_cast<long long>(r.hedge_denied));
  std::fprintf(f, "  }%s\n", last ? "" : ",");
}

void WriteBenchJson(const RunResult& off, const RunResult& on) {
  const char* path = "BENCH_tail.json";
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  double speedup = on.p99_ms > 0 ? off.p99_ms / on.p99_ms : 0;
  double added_pct =
      off.backend_attempts > 0
          ? 100.0 * (on.backend_attempts - off.backend_attempts) /
                static_cast<double>(off.backend_attempts)
          : 0;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"tail_hedging\",\n");
  std::fprintf(f, "  \"replicas\": %d,\n", kReplicas);
  std::fprintf(f, "  \"workers\": %d,\n", kWorkers);
  std::fprintf(f, "  \"straggler\": \"1-in-%d backend calls +%dms\",\n",
               kStragglerEvery, kStragglerMs);
  WriteRun(f, "unhedged", off, false);
  WriteRun(f, "hedged", on, false);
  std::fprintf(f, "  \"acceptance\": {\n");
  std::fprintf(f, "    \"p99_speedup\": %.2f,\n", speedup);
  std::fprintf(f, "    \"p99_cut_2x\": %s,\n",
               speedup >= 2.0 ? "true" : "false");
  std::fprintf(f, "    \"added_attempts_pct\": %.2f,\n", added_pct);
  std::fprintf(f, "    \"added_attempts_le_10pct\": %s\n",
               added_pct <= 10.0 ? "true" : "false");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

// Micro-benchmarks: the per-request cost of the tail-tolerance control
// plane (these sit on every submit/attempt hot path).
void BM_RetryBudgetDepositWithdraw(benchmark::State& state) {
  RetryBudgetOptions options;
  options.enabled = true;
  static RetryBudget* budget = new RetryBudget([] {
    RetryBudgetOptions o;
    o.enabled = true;
    o.ratio = 0.5;
    return o;
  }());
  for (auto _ : state) {
    budget->NoteRequest();
    benchmark::DoNotOptimize(budget->TryWithdraw());
  }
}
BENCHMARK(BM_RetryBudgetDepositWithdraw);

}  // namespace

int main(int argc, char** argv) {
  RunResult off = RunStudy(/*hedging=*/false);
  RunResult on = RunStudy(/*hedging=*/true);
  std::printf(
      "tail study: unhedged p50/p95/p99 %.2f/%.2f/%.2f ms, hedged "
      "%.2f/%.2f/%.2f ms (p99 cut %.1fx), attempts %lld -> %lld "
      "(%+.1f%%), hedges %lld launched / %lld won\n",
      off.p50_ms, off.p95_ms, off.p99_ms, on.p50_ms, on.p95_ms, on.p99_ms,
      on.p99_ms > 0 ? off.p99_ms / on.p99_ms : 0,
      static_cast<long long>(off.backend_attempts),
      static_cast<long long>(on.backend_attempts),
      off.backend_attempts > 0
          ? 100.0 * (on.backend_attempts - off.backend_attempts) /
                static_cast<double>(off.backend_attempts)
          : 0,
      static_cast<long long>(on.hedges_launched),
      static_cast<long long>(on.hedge_wins));
  WriteBenchJson(off, on);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
