// Heap allocations per cache-hit point read (label `alloc`). This binary
// replaces the global operator new with a counting one, so it is its own
// executable: the count covers every allocation in the process while a
// measured region runs.
//
// A traced 1-row hit is driven the way the tdwp server drives it: mint the
// request's trace (wire.read, the bounded query text), HyperQService::Run
// (cache probe, connector, backend execute, convert), then close wire.write
// and file the finished trace. The proxy's share is that count minus the
// allocations vdb::Engine::Execute makes on the same SQL-B, the substrate
// standing in for the cloud warehouse. The test prints both and gates the
// proxy's share.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/query_context.h"
#include "observability/metric_names.h"
#include "observability/trace.h"
#include "service/hyperq_service.h"
#include "vdb/engine.h"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_allocations{0};

void* CountedAlloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hyperq {
namespace {

namespace obs = observability;
namespace names = observability::names;

/// Allocations `fn` makes, counted across every thread.
template <typename Fn>
int64_t CountAllocations(Fn&& fn) {
  g_allocations.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_allocations.load();
}

/// Median of a small sample.
int64_t Median(std::vector<int64_t> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

std::string PointRead(int key) {
  return "SEL C_CUSTKEY, C_NAME, C_ADDRESS, C_PHONE, C_ACCTBAL FROM "
         "CUSTOMER WHERE C_CUSTKEY = " +
         std::to_string(key);
}

// The proxy's allocations on a traced cache-hit point read, measured at
// the change that kept a trace's first spans inline, moved the active
// query into its session and packaged one row without copies (20 before).
// A change that adds per-request heap work on this path fails here; lower
// the gate when the count drops.
constexpr int64_t kProxyAllocationsGate = 12;

TEST(AllocCountTest, ProxyAllocationsPerTracedCacheHitPointRead) {
  vdb::Engine engine;
  service::HyperQService svc(&engine);
  auto sid = svc.OpenSession("alloc");
  ASSERT_TRUE(sid.ok()) << sid.status();
  ASSERT_TRUE(svc.Submit(*sid,
                         "CREATE TABLE CUSTOMER (C_CUSTKEY INTEGER, "
                         "C_NAME VARCHAR(25), C_ADDRESS VARCHAR(40), "
                         "C_PHONE CHAR(15), C_ACCTBAL DECIMAL(15,2))")
                  .ok());
  for (int k = 1; k <= 64; ++k) {
    std::string key = std::to_string(k);
    ASSERT_TRUE(svc.Submit(*sid, "INS INTO CUSTOMER VALUES (" + key +
                                     ", 'Customer#" + key + "', 'addr " +
                                     key + "', '25-989-741-2988', " + key +
                                     ".25)")
                    .ok());
  }
  // The first read translates cold and fills the cache; every later key
  // hits it.
  ASSERT_TRUE(svc.Submit(*sid, PointRead(1)).ok());

  std::vector<int64_t> run_counts, execute_counts;
  for (int k = 2; k <= 33; ++k) {
    const std::string sql = PointRead(k);
    auto sql_b = svc.Translate(sql, nullptr);
    ASSERT_TRUE(sql_b.ok()) << sql_b.status();
    ASSERT_EQ(sql_b->size(), 1u);
    execute_counts.push_back(CountAllocations([&] {
      auto result = engine.Execute((*sql_b)[0]);
      ASSERT_TRUE(result.ok()) << result.status();
      ASSERT_EQ(result->row_count(), 1u);
    }));

    const int64_t hits_before = svc.translation_cache_stats().hits;
    QueryContext ctx;
    run_counts.push_back(CountAllocations([&] {
      auto trace = std::make_shared<obs::QueryTrace>();
      trace->set_session_class("wire");
      trace->EndSpan(trace->StartSpan(names::Stage::kWireRead));
      trace->set_session_id(*sid);
      trace->set_query(sql);
      ctx.set_trace(trace);
      auto resp = svc.Run(*sid, sql, &ctx);
      ASSERT_TRUE(resp.ok()) << resp.status();
      ASSERT_EQ(resp->header.total_rows, 1u);
      trace->EndSpan(trace->StartSpan(names::Stage::kWireWrite));
      trace->set_outcome("ok");
      trace->Finish();
      svc.OnQueryTraceFinished(trace);
      ctx.set_trace(nullptr);
    }));
    ASSERT_EQ(svc.translation_cache_stats().hits, hits_before + 1)
        << "not a cache hit: " << sql;
  }
  const int64_t run = Median(run_counts);
  const int64_t execute = Median(execute_counts);
  const int64_t proxy = run - execute;
  std::printf("allocations per traced cache-hit point read: %lld in the "
              "request, %lld in vdb::Engine::Execute, proxy share %lld\n",
              static_cast<long long>(run), static_cast<long long>(execute),
              static_cast<long long>(proxy));
  EXPECT_LE(proxy, kProxyAllocationsGate);
}

}  // namespace
}  // namespace hyperq
