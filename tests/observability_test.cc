// Observability suite (ctest label `observability`, DESIGN.md §9): the
// MetricsRegistry percentile math and scrape format, counter monotonicity
// under a concurrent soak, the per-query span tree's shape for every
// pipeline stage (including recursion iterations and retry attempts), the
// slow-query log threshold, the unified StatsSnapshot() against its
// deprecated shims, and the tdwp kStatsRequest admin scrape end to end.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/query_context.h"
#include "observability/metric_names.h"
#include "observability/metrics.h"
#include "observability/trace.h"
#include "protocol/client.h"
#include "protocol/server.h"
#include "service/hyperq_service.h"
#include "vdb/engine.h"

namespace hyperq {
namespace {

namespace obs = observability;
namespace names = observability::names;

using protocol::TdwpClient;
using protocol::TdwpServer;
using protocol::TdwpServerOptions;
using service::HyperQService;
using service::QueryRequest;
using service::ServiceOptions;

class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

// ---------------------------------------------------------------------------
// Histogram percentile math
// ---------------------------------------------------------------------------

TEST_F(ObservabilityTest, HistogramQuantileInterpolatesWithinBucket) {
  obs::Histogram h({10.0, 100.0, 1000.0});
  // 100 observations, all in the (10, 100] bucket.
  for (int i = 0; i < 100; ++i) h.Observe(50.0);
  obs::HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 100);
  EXPECT_DOUBLE_EQ(snap.sum, 5000.0);
  // Every rank lands in the same bucket; interpolation stays in (10, 100].
  for (double q : {0.5, 0.95, 0.99}) {
    double v = snap.Quantile(q);
    EXPECT_GT(v, 10.0) << "q=" << q;
    EXPECT_LE(v, 100.0) << "q=" << q;
  }
  // p99 sits later in the bucket than p50 (linear interpolation by rank).
  EXPECT_LT(snap.p50(), snap.p99());
}

TEST_F(ObservabilityTest, HistogramQuantileSplitsAcrossBuckets) {
  obs::Histogram h({10.0, 100.0});
  for (int i = 0; i < 90; ++i) h.Observe(5.0);    // bucket (0, 10]
  for (int i = 0; i < 10; ++i) h.Observe(50.0);   // bucket (10, 100]
  obs::HistogramSnapshot snap = h.snapshot();
  EXPECT_LE(snap.p50(), 10.0);   // rank 50 of 100 is in the first bucket
  EXPECT_GT(snap.p95(), 10.0);   // rank 95 crosses into the second
  EXPECT_LE(snap.p99(), 100.0);
}

TEST_F(ObservabilityTest, HistogramOverflowBucketReportsLowerBound) {
  obs::Histogram h({10.0, 100.0});
  for (int i = 0; i < 10; ++i) h.Observe(1e6);  // all overflow
  obs::HistogramSnapshot snap = h.snapshot();
  // The overflow bucket has no upper bound; its lower bound is the honest
  // estimate.
  EXPECT_DOUBLE_EQ(snap.p50(), 100.0);
  EXPECT_DOUBLE_EQ(snap.p99(), 100.0);
}

TEST_F(ObservabilityTest, HistogramEmptyQuantileIsZero) {
  obs::Histogram h({1.0, 2.0});
  EXPECT_DOUBLE_EQ(h.snapshot().p50(), 0.0);
}

TEST_F(ObservabilityTest, LatencyAndSizeBucketPresetsAreSorted) {
  for (const auto* bounds : {&obs::Histogram::LatencyBucketsMicros(),
                             &obs::Histogram::SizeBucketsBytes()}) {
    ASSERT_FALSE(bounds->empty());
    EXPECT_TRUE(std::is_sorted(bounds->begin(), bounds->end()));
  }
}

// ---------------------------------------------------------------------------
// Registry: naming, scrape format, monotonicity under a concurrent soak
// ---------------------------------------------------------------------------

TEST_F(ObservabilityTest, LabeledNameFixedFormat) {
  EXPECT_EQ(obs::LabeledName("hyperq.queries", {{"outcome", "ok"}}),
            "hyperq.queries{outcome=\"ok\"}");
  EXPECT_EQ(obs::LabeledName("x", {{"a", "1"}, {"b", "2"}}),
            "x{a=\"1\",b=\"2\"}");
}

TEST_F(ObservabilityTest, RenderTextScrapeFormatGolden) {
  obs::MetricsRegistry reg;
  reg.counter("hyperq.test.events")->Inc(3);
  reg.gauge("hyperq.test.level")->Set(42);
  obs::Histogram* h = reg.histogram("hyperq.test.micros", {10.0, 100.0});
  h->Observe(5.0);
  h->Observe(5.0);
  // The scrape format is a contract (scripts/scrape.sh, dashboards):
  // sorted by name, one line per series, fixed field order.
  EXPECT_EQ(reg.RenderText(),
            "counter hyperq.test.events 3\n"
            "gauge hyperq.test.level 42\n"
            "histogram hyperq.test.micros count=2 sum=10.0 p50=5.0 p95=5.0 "
            "p99=5.0\n");
}

TEST_F(ObservabilityTest, CounterMonotonicityUnderChaosSoak) {
  obs::MetricsRegistry reg;
  std::atomic<bool> stop{false};
  // Writers hammer a shared counter set while a reader snapshots; no
  // snapshot may ever observe a counter lower than a previous snapshot.
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&reg, &stop, t] {
      obs::Counter* c =
          reg.counter("hyperq.soak." + std::to_string(t % 2));
      obs::Histogram* h = reg.histogram("hyperq.soak.micros");
      while (!stop.load(std::memory_order_relaxed)) {
        c->Inc();
        h->Observe(static_cast<double>(t + 1));
      }
    });
  }
  std::map<std::string, int64_t> last;
  int64_t last_hist_count = 0;
  for (int i = 0; i < 200; ++i) {
    obs::MetricsSnapshot snap = reg.Snapshot();
    for (const auto& [name, value] : snap.counters) {
      auto it = last.find(name);
      if (it != last.end()) {
        EXPECT_GE(value, it->second) << name << " regressed";
      }
      last[name] = value;
    }
    auto hit = snap.histograms.find("hyperq.soak.micros");
    if (hit != snap.histograms.end()) {
      EXPECT_GE(hit->second.count, last_hist_count);
      last_hist_count = hit->second.count;
    }
  }
  stop.store(true);
  for (auto& w : writers) w.join();
}

// ---------------------------------------------------------------------------
// QueryTrace structure
// ---------------------------------------------------------------------------

TEST_F(ObservabilityTest, SpanNestingFollowsOpenStack) {
  obs::QueryTrace trace;
  int a = trace.StartSpan("a");
  int b = trace.StartSpan("b");  // nests under a
  trace.EndSpan(b);
  int c = trace.StartSpan("c");  // sibling of b, still under a
  trace.EndSpan(c);
  trace.EndSpan(a);
  trace.Finish();
  auto spans = trace.spans();
  ASSERT_EQ(spans.size(), 4u);  // root + a + b + c
  EXPECT_EQ(spans[1].name, "a");
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, a);
  EXPECT_EQ(spans[3].parent, a);
}

TEST_F(ObservabilityTest, LastDurationIgnoresAbandonedEarlierAttempt) {
  // The conversion_micros regression (DESIGN.md §9): a request that
  // re-enters a stage after an abandoned first attempt must report the
  // last attempt's time, not the sum of both.
  obs::QueryTrace trace;
  trace.AddCompletedSpan("convert", 0.0, 900.0);   // abandoned attempt
  trace.AddCompletedSpan("convert", 1000.0, 50.0); // the one that counted
  trace.Finish();
  EXPECT_DOUBLE_EQ(trace.SumDurations("convert"), 950.0);
  EXPECT_DOUBLE_EQ(trace.LastDuration("convert"), 50.0);
  EXPECT_EQ(trace.CountSpans("convert"), 2);
}

TEST_F(ObservabilityTest, FinishClosesStragglersAndIsIdempotent) {
  obs::QueryTrace trace;
  trace.StartSpan("left.open");
  trace.Finish();
  double total = trace.total_micros();
  trace.Finish();
  EXPECT_TRUE(trace.finished());
  EXPECT_DOUBLE_EQ(trace.total_micros(), total);
  for (const auto& span : trace.spans()) {
    EXPECT_GE(span.duration_micros, 0.0) << span.name << " left open";
  }
}

TEST_F(ObservabilityTest, QueryTextIsBoundedToWhatTheLogPrints) {
  // A 1 MB statement keeps only the 256 bytes the slow-query log prints
  // plus the truncation mark, and the log line is the one an unbounded copy
  // of the text produced: the first 256 bytes escaped, then "...".
  const std::string prefix = "SEL 'a\"b\\c\nd";  // escaped or blanked
  std::string sql = prefix;
  sql.append(1 << 20, 'x');
  sql += "'";
  obs::QueryTrace trace;
  trace.set_query(sql);
  trace.Finish();
  EXPECT_LE(trace.query().size(), 260u);
  EXPECT_EQ(trace.query(), sql.substr(0, 256) + "...");
  const std::string logged = "SEL 'a\\\"b\\\\c d" +
                             std::string(256 - prefix.size(), 'x') + "...";
  EXPECT_NE(trace.ToJson().find(",\"sql\":\"" + logged + "\",\"spans\":[]}"),
            std::string::npos)
      << trace.ToJson().substr(0, 400);

  // Up to 256 bytes the text is kept whole; one byte more is cut.
  for (size_t n : {size_t{0}, size_t{17}, size_t{256}, size_t{257}}) {
    const std::string text(n, 'y');
    obs::QueryTrace t;
    t.set_query(text);
    const std::string kept = n > 256 ? text.substr(0, 256) + "..." : text;
    EXPECT_EQ(t.query(), kept) << n;
    EXPECT_NE(t.ToJson().find(",\"sql\":\"" + kept + "\","),
              std::string::npos)
        << n;
  }
}

TEST_F(ObservabilityTest, TraceRingKeepsMostRecentFirst) {
  obs::TraceRing ring(3);
  std::vector<std::shared_ptr<obs::QueryTrace>> traces;
  for (int i = 0; i < 5; ++i) {
    auto t = std::make_shared<obs::QueryTrace>();
    t->set_session_id(static_cast<uint32_t>(i));
    t->Finish();
    ring.Add(t);
    traces.push_back(t);
  }
  EXPECT_EQ(ring.total_added(), 5);
  auto recent = ring.Recent(10);
  ASSERT_EQ(recent.size(), 3u);  // capacity bound
  EXPECT_EQ(recent[0]->session_id(), 4u);
  EXPECT_EQ(recent[1]->session_id(), 3u);
  EXPECT_EQ(recent[2]->session_id(), 2u);
}

// ---------------------------------------------------------------------------
// Span-tree shape through the real pipeline
// ---------------------------------------------------------------------------

class ServiceTraceTest : public ObservabilityTest {
 protected:
  void Init(ServiceOptions options = {}) {
    service_ = std::make_unique<HyperQService>(&engine_, options);
    auto sid = service_->OpenSession("tester");
    ASSERT_TRUE(sid.ok()) << sid.status();
    sid_ = *sid;
    Must("CREATE TABLE T (A INTEGER, B VARCHAR(16))");
    Must("INS INTO T VALUES (1, 'one')");
    Must("INS INTO T VALUES (2, 'two')");
  }
  void Must(const std::string& sql) {
    auto out = service_->Submit(sid_, sql);
    ASSERT_TRUE(out.ok()) << sql << ": " << out.status();
  }
  std::shared_ptr<const obs::QueryTrace> Trace(const std::string& sql) {
    QueryRequest request;
    request.session_id = sid_;
    request.sql = sql;
    auto out = service_->Submit(request);
    EXPECT_TRUE(out.ok()) << sql << ": " << out.status();
    if (!out.ok()) return nullptr;
    EXPECT_NE(out->trace, nullptr);
    return out->trace;
  }

  vdb::Engine engine_;
  std::unique_ptr<HyperQService> service_;
  uint32_t sid_ = 0;
};

TEST_F(ServiceTraceTest, ColdQueryHasEveryPipelineStageSpan) {
  Init();
  auto trace = Trace("SEL A, B FROM T WHERE A = 1");
  ASSERT_NE(trace, nullptr);
  EXPECT_TRUE(trace->finished());
  for (const char* stage :
       {"cache.lookup", "parse", "bind", "transform", "serialize",
        "backend.execute", "backend.attempt", "tdf.buffer"}) {
    EXPECT_EQ(trace->CountSpans(stage), 1) << "missing span " << stage;
  }
  // The attempt nests under backend.execute; tdf.buffer under the attempt.
  auto spans = trace->spans();
  int exec_id = -1, attempt_id = -1;
  for (const auto& s : spans) {
    if (s.name == "backend.execute") exec_id = s.id;
    if (s.name == "backend.attempt") attempt_id = s.id;
  }
  ASSERT_GE(exec_id, 0);
  ASSERT_GE(attempt_id, 0);
  for (const auto& s : spans) {
    if (s.name == "backend.attempt") {
      EXPECT_EQ(s.parent, exec_id);
    }
    if (s.name == "tdf.buffer") {
      EXPECT_EQ(s.parent, attempt_id);
    }
  }
}

TEST_F(ServiceTraceTest, CacheHitSkipsParseBindTransformSpans) {
  Init();
  (void)Trace("SEL A FROM T WHERE A = 1");  // cold: populates the cache
  auto hit = Trace("SEL A FROM T WHERE A = 2");  // same shape, new literal
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->CountSpans("cache.lookup"), 1);
  EXPECT_EQ(hit->CountSpans("backend.execute"), 1);
  // The whole pipeline was skipped; no parse/bind/transform/serialize.
  EXPECT_EQ(hit->CountSpans("parse"), 0);
  EXPECT_EQ(hit->CountSpans("bind"), 0);
  EXPECT_EQ(hit->CountSpans("transform"), 0);
  EXPECT_EQ(hit->CountSpans("serialize"), 0);
}

TEST_F(ServiceTraceTest, RecursionIterationsAppearAsChildSpans) {
  Init();
  Must("CREATE TABLE EMP (EMPNO INTEGER, MGRNO INTEGER)");
  for (const char* row : {"(1, 7)", "(7, 8)", "(8, 10)"}) {
    Must(std::string("INS INTO EMP VALUES ") + row);
  }
  auto trace = Trace(R"(
    WITH RECURSIVE REPORTS (EMPNO, MGRNO) AS (
      SELECT EMPNO, MGRNO FROM EMP WHERE MGRNO = 10
      UNION ALL
      SELECT EMP.EMPNO, EMP.MGRNO FROM EMP, REPORTS
      WHERE REPORTS.EMPNO = EMP.MGRNO
    )
    SELECT EMPNO FROM REPORTS ORDER BY EMPNO)");
  ASSERT_NE(trace, nullptr);
  // The fixed-point loop ran at least twice (8<-10, then 7<-8, 1<-7, then
  // the empty round that detects the fixed point).
  EXPECT_GE(trace->CountSpans("recursion.iteration"), 2);
  // Iterations nest under the emulation's backend.execute span.
  auto spans = trace->spans();
  int exec_id = -1;
  for (const auto& s : spans) {
    if (s.name == "backend.execute") exec_id = s.id;
  }
  ASSERT_GE(exec_id, 0);
  for (const auto& s : spans) {
    if (s.name == "recursion.iteration") {
      EXPECT_EQ(s.parent, exec_id);
    }
  }
}

TEST_F(ServiceTraceTest, RetryAttemptsAppearAsSiblingSpans) {
  ServiceOptions options;
  options.connector.retry.max_attempts = 4;
  options.connector.retry.base_delay_ms = 1;
  options.connector.retry.max_delay_ms = 2;
  Init(options);
  FaultSpec spec;
  spec.kind = FaultKind::kTransient;
  spec.max_fires = 1;
  FaultInjector::Global().Arm(faultpoints::kVdbExecute, spec);
  auto trace = Trace("SEL A FROM T");
  ASSERT_NE(trace, nullptr);
  // First attempt died on the injected transient; the retry succeeded.
  EXPECT_EQ(trace->CountSpans("backend.attempt"), 2);
  EXPECT_EQ(trace->CountSpans("backend.execute"), 1);
}

TEST_F(ServiceTraceTest, SelfTimesReconcileWithEndToEndLatency) {
  Init();
  // Self-times partition the root's wall clock: summed over every span
  // (the root's self-time included) they must reproduce the end-to-end
  // latency. Allow 5%; take the best of three runs to absorb scheduler
  // jitter on loaded machines.
  double best_error = 1e9;
  for (int attempt = 0; attempt < 3 && best_error > 0.05; ++attempt) {
    auto trace = Trace("SEL A, B FROM T WHERE A = 1");
    ASSERT_NE(trace, nullptr);
    double total = trace->total_micros();
    ASSERT_GT(total, 0.0);
    double self_sum = 0;
    for (const auto& s : trace->spans()) self_sum += trace->SelfMicros(s.id);
    best_error = std::min(best_error, std::abs(self_sum - total) / total);
  }
  EXPECT_LE(best_error, 0.05);
}

TEST_F(ServiceTraceTest, OutcomeAnnotationReflectsFailure) {
  Init();
  QueryRequest request;
  request.session_id = sid_;
  request.sql = "SEL NO_SUCH_COLUMN FROM T";
  auto out = service_->Submit(request);
  EXPECT_FALSE(out.ok());
  // The failed query's trace still lands in the ring, outcome "error".
  auto recent = service_->trace_ring().Recent(1);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0]->outcome(), "error");
  EXPECT_TRUE(recent[0]->finished());
}

TEST_F(ServiceTraceTest, TracingOffMintsNoTraces) {
  ServiceOptions options;
  options.tracing = false;
  Init(options);
  QueryRequest request;
  request.session_id = sid_;
  request.sql = "SEL A FROM T";
  auto out = service_->Submit(request);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->trace, nullptr);
  // Init() + this query: nothing was ever added to the ring.
  EXPECT_EQ(service_->trace_ring().total_added(), 0);
}

// ---------------------------------------------------------------------------
// Slow-query log
// ---------------------------------------------------------------------------

TEST_F(ObservabilityTest, SlowQueryLogEmitsPastThresholdOnly) {
  vdb::Engine engine;
  std::mutex mu;
  std::vector<std::string> lines;
  ServiceOptions options;
  options.slow_query_micros = 1.0;  // everything is slow
  options.slow_query_sink = [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
  };
  HyperQService service(&engine, options);
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(service.Submit(*sid, "CREATE TABLE S (A INTEGER)").ok());
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_FALSE(lines.empty());
    // One structured JSON line per offending query.
    EXPECT_NE(lines[0].find("\"event\":\"slow_query\""), std::string::npos);
    EXPECT_NE(lines[0].find("\"spans\":"), std::string::npos);
    EXPECT_NE(lines[0].find("CREATE TABLE S"), std::string::npos);
    EXPECT_EQ(lines[0].find('\n'), std::string::npos);
  }
  auto snap = service.StatsSnapshot();
  EXPECT_GE(snap.metrics.CounterOr(names::kSlowQueries), 1);
}

TEST_F(ObservabilityTest, SlowQueryLogSilentBelowThreshold) {
  vdb::Engine engine;
  std::atomic<int> emitted{0};
  ServiceOptions options;
  options.slow_query_micros = 1e12;  // nothing is that slow
  options.slow_query_sink = [&](const std::string&) { ++emitted; };
  HyperQService service(&engine, options);
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(service.Submit(*sid, "CREATE TABLE S (A INTEGER)").ok());
  EXPECT_EQ(emitted.load(), 0);
  EXPECT_EQ(service.StatsSnapshot().metrics.CounterOr(names::kSlowQueries),
            0);
}

// ---------------------------------------------------------------------------
// StatsSnapshot: the one surface, and its deprecated shims
// ---------------------------------------------------------------------------

TEST_F(ObservabilityTest, StatsSnapshotAgreesWithDeprecatedShims) {
  vdb::Engine engine;
  HyperQService service(&engine);
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(service.Submit(*sid, "CREATE TABLE T (A INTEGER)").ok());
  ASSERT_TRUE(service.Submit(*sid, "INS INTO T VALUES (1)").ok());
  ASSERT_TRUE(service.Submit(*sid, "SEL A FROM T WHERE A = 1").ok());
  ASSERT_TRUE(service.Submit(*sid, "SEL A FROM T WHERE A = 2").ok());

  service::ServiceStatsSnapshot snap = service.StatsSnapshot();
  // Typed views and raw registry agree.
  EXPECT_EQ(snap.translation_cache.hits,
            snap.metrics.CounterOr(names::kCacheHits));
  EXPECT_EQ(snap.translation_activity.submit_statements,
            snap.metrics.CounterOr(names::kTranslateSubmitStatements));
  EXPECT_EQ(snap.lifecycle.cancelled,
            snap.metrics.CounterOr(names::kLifecycleCancelled));
  EXPECT_EQ(snap.resilience.failovers,
            snap.metrics.CounterOr(names::kFailoverReplays));
  // The cache accessor reads the same counters.
  EXPECT_EQ(service.translation_cache_stats().hits,
            snap.translation_cache.hits);
  // The traffic above: one cache hit, four submit statements.
  EXPECT_GE(snap.translation_cache.hits, 1);
  EXPECT_EQ(snap.translation_activity.submit_statements, 4);
  EXPECT_EQ(snap.open_sessions, 1u);
  EXPECT_EQ(snap.metrics.GaugeOr(names::kSessionsOpen), 1);
  // Outcome-labeled query counter covers every submit.
  EXPECT_EQ(snap.metrics.CounterOr(
                obs::LabeledName(names::kQueries, {{"outcome", "ok"}})),
            4);
}

TEST_F(ObservabilityTest, SharedRegistryIsSingleSink) {
  // The embedder supplies one registry; service and cache both feed it.
  obs::MetricsRegistry registry;
  vdb::Engine engine;
  ServiceOptions options;
  options.metrics = &registry;
  HyperQService service(&engine, options);
  ASSERT_EQ(service.metrics_registry(), &registry);
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(service.Submit(*sid, "CREATE TABLE T (A INTEGER)").ok());
  obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_GE(snap.counters.at(obs::LabeledName(names::kQueries,
                                              {{"outcome", "ok"}})),
            1);
  EXPECT_GE(snap.counters.at(names::kBackendAttempts), 1);
}

TEST_F(ObservabilityTest, FaultPointGaugesMirrorInjector) {
  vdb::Engine engine;
  ServiceOptions options;
  options.connector.retry.max_attempts = 4;
  options.connector.retry.base_delay_ms = 1;
  options.connector.retry.max_delay_ms = 2;
  HyperQService service(&engine, options);
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  FaultSpec spec;
  spec.kind = FaultKind::kTransient;
  spec.max_fires = 1;
  FaultInjector::Global().Arm(faultpoints::kVdbExecute, spec);
  ASSERT_TRUE(service.Submit(*sid, "CREATE TABLE T (A INTEGER)").ok());
  auto snap = service.StatsSnapshot();
  EXPECT_GE(snap.metrics.GaugeOr("hyperq.faults.vdb.execute.hits"), 1);
  EXPECT_EQ(snap.metrics.GaugeOr("hyperq.faults.vdb.execute.fires"), 1);
  EXPECT_EQ(snap.metrics.CounterOr(names::kBackendRetries), 1);
}

// ---------------------------------------------------------------------------
// Wire admin surface: kStatsRequest scrape + server-finished traces
// ---------------------------------------------------------------------------

TEST_F(ObservabilityTest, WireScrapeReturnsRegistryRendering) {
  vdb::Engine engine;
  HyperQService service(&engine);
  TdwpServerOptions server_options;
  // One registry across service and server: one scrape shows both.
  server_options.metrics = service.metrics_registry();
  TdwpServer server(&service, server_options);
  ASSERT_TRUE(server.Start(0).ok());

  TdwpClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  ASSERT_TRUE(client.Logon("alice", "pw").ok());
  ASSERT_TRUE(client.Run("CREATE TABLE W (A INTEGER)").ok());
  ASSERT_TRUE(client.Run("INS INTO W VALUES (1)").ok());
  ASSERT_TRUE(client.Run("SEL A FROM W WHERE A = 1").ok());
  ASSERT_TRUE(client.Run("SEL A FROM W WHERE A = 2").ok());  // cache hit

  auto scrape = client.Scrape();
  ASSERT_TRUE(scrape.ok()) << scrape.status();
  // Live counters from every layer appear in one text scrape.
  EXPECT_NE(scrape->find("counter hyperq.server.admitted 1"),
            std::string::npos);
  EXPECT_NE(scrape->find("counter hyperq.wire.requests 4"),
            std::string::npos);
  EXPECT_NE(scrape->find("counter hyperq.cache.hits 1"), std::string::npos);
  EXPECT_NE(scrape->find("histogram hyperq.query.micros{class=\"wire\"}"),
            std::string::npos);
  EXPECT_NE(scrape->find("counter hyperq.server.scrapes 1"),
            std::string::npos);
  client.Goodbye();
  server.Stop();
}

TEST_F(ObservabilityTest, WireTraceHasStageSpansAndLandsInRing) {
  vdb::Engine engine;
  HyperQService service(&engine);
  TdwpServerOptions server_options;
  server_options.metrics = service.metrics_registry();
  TdwpServer server(&service, server_options);
  ASSERT_TRUE(server.Start(0).ok());

  TdwpClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  ASSERT_TRUE(client.Logon("alice", "pw").ok());
  ASSERT_TRUE(client.Run("CREATE TABLE W (A INTEGER, B VARCHAR(8))").ok());
  ASSERT_TRUE(client.Run("INS INTO W VALUES (1, 'x')").ok());
  ASSERT_TRUE(client.Run("SEL A, B FROM W WHERE A = 1").ok());
  // The success frame is written before the serving thread finishes the
  // trace; a scrape on the same connection is a sequencing barrier that
  // guarantees the SELECT's trace has been recorded.
  ASSERT_TRUE(client.Scrape().ok());

  auto recent = service.trace_ring().Recent(1);
  ASSERT_EQ(recent.size(), 1u);
  auto trace = recent[0];
  EXPECT_EQ(trace->session_class(), "wire");
  EXPECT_EQ(trace->outcome(), "ok");
  // Every wire-path query: at least 6 stage spans, wire.read first and
  // wire.write last.
  int stages = 0;
  for (const char* stage :
       {"wire.read", "cache.lookup", "parse", "bind", "transform",
        "serialize", "backend.execute", "convert", "wire.write"}) {
    stages += trace->CountSpans(stage) > 0 ? 1 : 0;
  }
  EXPECT_GE(stages, 6);
  EXPECT_EQ(trace->CountSpans("wire.read"), 1);
  EXPECT_EQ(trace->CountSpans("wire.write"), 1);
  EXPECT_EQ(trace->CountSpans("convert"), 1);
  client.Goodbye();
  server.Stop();
}

TEST_F(ObservabilityTest, StageHistogramsCountEveryClosedSpanInTheRing) {
  // Filing a trace observes each closed span once, through a histogram
  // resolved per stage: after a fixed request list, every stage series
  // counts exactly the spans of that stage in the trace ring, and every
  // class series the traces of that class. The list reaches all 13 stages
  // (a hedged read and a recursive query included) and both classes.
  vdb::Engine engine;
  ServiceOptions options;
  for (const char* name : {"r0", "r1"}) {
    backend::BackendSpec spec;
    spec.name = name;
    spec.profile = transform::BackendProfile::Vdb();
    options.fleet.backends.push_back(spec);
  }
  options.tail.hedge.enabled = true;
  options.tail.hedge.min_threshold_micros = 2000;
  options.tail.hedge.max_hedge_fraction = 1.0;
  HyperQService service(&engine, options);
  TdwpServerOptions server_options;
  server_options.metrics = service.metrics_registry();
  TdwpServer server(&service, server_options);
  ASSERT_TRUE(server.Start(0).ok());

  TdwpClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  ASSERT_TRUE(client.Logon("alice", "pw").ok());
  for (const char* sql :
       {"CREATE TABLE EMP (EMPNO INTEGER, MGRNO INTEGER)",
        "INS INTO EMP VALUES (1, 7)", "INS INTO EMP VALUES (7, 8)",
        "INS INTO EMP VALUES (8, 10)", "SEL EMPNO FROM EMP WHERE MGRNO = 7",
        "SEL EMPNO FROM EMP WHERE MGRNO = 8",
        "WITH RECURSIVE REPORTS (EMPNO, MGRNO) AS ("
        "SELECT EMPNO, MGRNO FROM EMP WHERE MGRNO = 10 UNION ALL "
        "SELECT EMP.EMPNO, EMP.MGRNO FROM EMP, REPORTS "
        "WHERE REPORTS.EMPNO = EMP.MGRNO) SELECT EMPNO FROM REPORTS"}) {
    auto r = client.Run(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status();
  }
  // A slow (not dead) replica: the next read hedges onto its peer.
  const int bound = service.session_backend(client.session_id());
  ASSERT_GE(bound, 0);
  service.backend_pool()->SlowBackend(static_cast<size_t>(bound), 40);
  auto hedged = client.Run("SEL EMPNO FROM EMP WHERE MGRNO = 10");
  ASSERT_TRUE(hedged.ok()) << hedged.status();
  service.backend_pool()->SlowBackend(static_cast<size_t>(bound), 0);
  // The scrape is a sequencing barrier: the server has filed every trace
  // of this connection before it answers.
  ASSERT_TRUE(client.Scrape().ok());

  auto sid = service.OpenSession("library");
  ASSERT_TRUE(sid.ok()) << sid.status();
  QueryRequest request;
  request.session_id = *sid;
  request.sql = "SEL EMPNO FROM EMP WHERE MGRNO = 8";
  ASSERT_TRUE(service.Submit(request).ok());

  auto traces = service.trace_ring().Recent(service.trace_ring().capacity());
  ASSERT_EQ(static_cast<int64_t>(traces.size()),
            service.trace_ring().total_added())
      << "every filed trace must still be in the ring";
  auto histograms = service.StatsSnapshot().metrics.histograms;
  auto count_of = [&histograms](const std::string& series) -> int64_t {
    auto it = histograms.find(series);
    return it == histograms.end() ? 0 : it->second.count;
  };
  for (const char* stage : names::kStageNames) {
    int64_t spans = 0;
    for (const auto& trace : traces) spans += trace->CountSpans(stage);
    EXPECT_GT(spans, 0) << "the request list never opened " << stage;
    EXPECT_EQ(count_of(obs::LabeledName(names::kStageMicros,
                                        {{"stage", stage}})),
              spans)
        << stage;
  }
  for (const char* session_class : {"wire", "library"}) {
    int64_t filed = 0;
    for (const auto& trace : traces) {
      filed += trace->session_class() == session_class ? 1 : 0;
    }
    EXPECT_GT(filed, 0) << session_class;
    EXPECT_EQ(count_of(obs::LabeledName(names::kQueryMicros,
                                        {{"class", session_class}})),
              filed)
        << session_class;
  }
  client.Goodbye();
  server.Stop();
}

}  // namespace
}  // namespace hyperq
