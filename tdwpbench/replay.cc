// The traced run: per-layer metrics. The seeded list is sent over tdwp as
// the plain run sends it, then replayed in-process through every layer's
// public entry point, in pipeline order. The replay runs the cold pipeline
// for every request, so each layer's cost is known even where the
// translation cache skips that layer.

#include <thread>

#include "backend/connector.h"
#include "binder/binder.h"
#include "common/stopwatch.h"
#include "convert/result_converter.h"
#include "observability/trace.h"
#include "serializer/serializer.h"
#include "sql/normalizer.h"
#include "sql/parser.h"
#include "transform/transformer.h"

#include "bench.h"

namespace tdwpbench {

namespace backend = hyperq::backend;
namespace binder = hyperq::binder;
namespace convert = hyperq::convert;
namespace obs = hyperq::observability;
namespace protocol = hyperq::protocol;
namespace service = hyperq::service;
namespace sql = hyperq::sql;
namespace transform = hyperq::transform;
using hyperq::Stopwatch;

namespace {

/// Per-span cost of tracing: one SpanScope open and close on a live
/// QueryTrace, in batches of `kSpansPerTrace` spans per fresh trace (about
/// one request's worth). Returns the per-span ns of each batch.
std::vector<double> SpanCostNs() {
  constexpr int kTraces = 4000;
  constexpr int kSpansPerTrace = 16;
  std::vector<double> ns;
  ns.reserve(kTraces);
  for (int t = 0; t < kTraces; ++t) {
    obs::QueryTrace trace;
    Stopwatch sw;
    for (int s = 0; s < kSpansPerTrace; ++s) {
      obs::SpanScope span(&trace, "bench.span");
    }
    ns.push_back(static_cast<double>(sw.ElapsedNanos()) / kSpansPerTrace);
  }
  return ns;
}

size_t ResponseBytes(const protocol::WireResponse& resp) {
  using protocol::Frame;
  using protocol::MessageKind;
  size_t bytes = 0;
  if (resp.has_rowset) {
    bytes += protocol::EncodeFrame(
                 Frame{MessageKind::kResultHeader, 0, Encode(resp.header)})
                 .size();
    for (const auto& batch : resp.batches) {
      bytes += protocol::EncodeFrame(Frame{MessageKind::kRecordBatch, 0, batch})
                   .size();
    }
  }
  bytes += protocol::EncodeFrame(
               Frame{MessageKind::kSuccess, 0, Encode(resp.success)})
               .size();
  return bytes;
}

/// Timing samples of one layer, reported as .p50 and .p99.
struct Samples {
  const char* name;
  std::vector<double> us;
};

}  // namespace

Result<RunReport> ReplayLayers(const Plan& plan) {
  HQ_ASSIGN_OR_RETURN(std::unique_ptr<Fixture> fx, Fixture::Create(plan));
  HQ_ASSIGN_OR_RETURN(std::vector<Digest> refs,
                      ComputeReferences(fx.get(), plan));
  RunReport report;
  const size_t n = plan.timed.size();
  std::vector<bool> ok(n, true);
  auto fail = [&](size_t i) {
    if (ok[i]) ++report.failed;
    ok[i] = false;
  };
  report.attempted = static_cast<int64_t>(n);

  // Pass 1: the list over tdwp, back to back as the plain run sends it.
  // The server files each request's trace just after the response, so the
  // bench waits for it (untimed) to count the spans.
  Samples client{"protocol.client_run_us", {}};
  double client_thread_cpu = 0, client_process_cpu = 0, spans = 0;
  const hyperq::observability::TraceRing& ring = fx->service->trace_ring();
  for (size_t i = 0; i < n; ++i) {
    const Request& req = plan.timed[i];
    const int64_t traces_before = ring.total_added();
    const double process_cpu0 = ProcessCpuMicros();
    const double thread_cpu0 = ThreadCpuMicros();
    Stopwatch sw;
    auto answer = fx->client.Run(req.sql);
    client.us.push_back(sw.ElapsedMicros());
    client_thread_cpu += ThreadCpuMicros() - thread_cpu0;
    client_process_cpu += ProcessCpuMicros() - process_cpu0;
    if (!answer.ok() || !CheckAnswer(req, *answer, refs)) fail(i);
    Stopwatch wait;
    while (ring.total_added() == traces_before && wait.ElapsedSeconds() < 5) {
      std::this_thread::yield();
    }
    auto recent = ring.Recent(1);
    if (ring.total_added() == traces_before || recent.empty()) {
      fail(i);
    } else {
      spans += static_cast<double>(recent[0]->spans().size());
    }
  }

  // Pass 2: each layer's entry point in-process. `svc` is a twin of the
  // fixture's service with the same catalog and warm-up, so its cache sees
  // the sequence the wire path saw; `cold` has its cache off.
  auto svc = MakeTwin(fx.get(), /*translation_cache=*/true);
  auto cold = MakeTwin(fx.get(), /*translation_cache=*/false);
  HQ_ASSIGN_OR_RETURN(uint32_t session, svc->OpenSession("replay"));
  for (const auto& sql : plan.warmup) {
    HQ_RETURN_IF_ERROR(svc->Run(session, sql, nullptr).status());
  }
  const sql::Dialect dialect = sql::Dialect::Teradata();
  const transform::Transformer transformer(svc->profile());
  const hyperq::serializer::Serializer serializer(svc->profile());
  backend::BackendConnector connector(&fx->engine);
  convert::ConverterOptions conv_options;
  conv_options.parallelism = service::ServiceOptions{}.convert_parallelism;
  const convert::ResultConverter converter(conv_options);

  Samples normalize{"sql.normalize_us", {}}, parse{"sql.parse_us", {}},
      bind{"binder.bind_us", {}}, rewrite{"transform.rewrite_us", {}},
      serialize{"serializer.serialize_us", {}},
      hit{"service.translate_hit_us", {}},
      miss{"service.translate_miss_us", {}}, run{"service.run_us", {}},
      vdb_exec{"vdb.execute_us", {}}, package{"backend.package_us", {}},
      encode{"convert.encode_us", {}}, roundtrip{"protocol.roundtrip_us", {}};
  int64_t hits = 0, misses = 0, bypasses = 0, inserts = 0;
  double sqlb_bytes = 0, rows_out = 0, tdf_bytes = 0, attempts = 0,
         wire_bytes = 0, response_bytes = 0;
  double attributed_us = 0, client_total_us = 0;

  for (size_t i = 0; i < n; ++i) {
    const Request& req = plan.timed[i];

    // Cold pipeline, one public entry point at a time.
    Stopwatch sw;
    auto norm = sql::NormalizeStatement(req.sql);
    normalize.us.push_back(sw.ElapsedMicros());
    sw.Restart();
    auto stmt = sql::ParseStatement(req.sql, dialect);
    parse.us.push_back(sw.ElapsedMicros());
    if (!norm.ok() || !stmt.ok()) {
      fail(i);
      continue;
    }
    binder::Binder binder(svc->catalog(), dialect);
    sw.Restart();
    auto bound = binder.BindStatement(**stmt);
    bind.us.push_back(sw.ElapsedMicros());
    if (!bound.ok()) {
      fail(i);
      continue;
    }
    hyperq::xtra::OpPtr op = std::move(*bound);
    hyperq::FeatureSet features = binder.features();
    binder::ColIdGenerator ids;  // fresh id space above the binder's, as
    for (int k = 0; k < 1000000; ++k) ids.Next();  // the service does
    sw.Restart();
    Status st = transformer.Run(transform::Stage::kBinding, &op, &ids,
                                &features, svc->catalog());
    if (st.ok()) {
      st = transformer.Run(transform::Stage::kSerialization, &op, &ids,
                           &features, svc->catalog());
    }
    rewrite.us.push_back(sw.ElapsedMicros());
    if (!st.ok()) {
      fail(i);
      continue;
    }
    sw.Restart();
    auto sql_b = serializer.Serialize(*op);
    serialize.us.push_back(sw.ElapsedMicros());
    if (!sql_b.ok()) {
      fail(i);
      continue;
    }
    sqlb_bytes += static_cast<double>(sql_b->size());

    // Translate with the cache off: always the full miss path.
    sw.Restart();
    bool translated = cold->Translate(req.sql, nullptr).ok();
    const double miss_us = sw.ElapsedMicros();
    miss.us.push_back(miss_us);

    // The service's request path; the cache counters classify it.
    const auto before = svc->translation_cache_stats();
    sw.Restart();
    auto resp = svc->Run(session, req.sql, nullptr);
    const double run_us = sw.ElapsedMicros();
    run.us.push_back(run_us);
    const auto after = svc->translation_cache_stats();
    const bool run_hit = after.hits > before.hits;
    hits += after.hits - before.hits;
    misses += after.misses - before.misses;
    bypasses += after.bypasses - before.bypasses;
    inserts += after.inserts - before.inserts;
    if (!translated || !resp.ok()) {
      fail(i);
      continue;
    }
    response_bytes += static_cast<double>(ResponseBytes(*resp));

    // Translate again: a hit once the shape is cached.
    sw.Restart();
    translated = svc->Translate(req.sql, nullptr).ok();
    const double hit_us = sw.ElapsedMicros();
    if (svc->translation_cache_stats().hits > after.hits) {
      hit.us.push_back(hit_us);
    }

    // Substrate, then the connector that wraps it, on the same SQL-B.
    sw.Restart();
    auto result = fx->engine.Execute(*sql_b);
    const double vdb_us = sw.ElapsedMicros();
    vdb_exec.us.push_back(vdb_us);
    sw.Restart();
    auto packaged = connector.Execute(*sql_b);
    const double connector_us = sw.ElapsedMicros();
    package.us.push_back(connector_us - vdb_us);
    if (!translated || !result.ok() || !packaged.ok()) {
      fail(i);
      continue;
    }
    rows_out += static_cast<double>(result->row_count());
    attempts += packaged->attempts;
    double convert_us = 0;
    if (packaged->is_rowset()) {
      tdf_bytes += static_cast<double>(packaged->store->memory_bytes() +
                                       packaged->store->spilled_bytes());
      sw.Restart();
      auto converted = converter.Convert(*packaged);
      convert_us = sw.ElapsedMicros();
      encode.us.push_back(convert_us);
      if (!converted.ok()) {
        fail(i);
        continue;
      }
      for (const auto& b : converted->batches) {
        wire_bytes += static_cast<double>(b.size());
      }
    }

    // The protocol's share is the wire round trip less the in-process
    // Run; coverage sets the layers this request went through against the
    // round trip.
    const double client_us = client.us[i];
    roundtrip.us.push_back(client_us - run_us);
    attributed_us += (run_hit ? hit_us : miss_us) + connector_us +
                     convert_us + (client_us - run_us);
    client_total_us += client_us;
  }

  const auto ok_requests =
      static_cast<double>(report.attempted - report.failed);
  auto per_request = [ok_requests](double total) {
    return ok_requests > 0 ? total / ok_requests : 0.0;
  };
  auto& m = report.metrics;
  for (Samples* s : {&client, &run, &roundtrip, &normalize, &parse, &bind,
                     &rewrite, &serialize, &hit, &miss, &vdb_exec, &package,
                     &encode}) {
    m.push_back({std::string(s->name) + ".p50", Percentile(s->us, 0.50), "us"});
    m.push_back({std::string(s->name) + ".p99", Percentile(s->us, 0.99), "us"});
  }
  m.push_back({"protocol.response_bytes", per_request(response_bytes),
               "bytes"});
  m.push_back({"protocol.client_thread_cpu_us",
               per_request(client_thread_cpu), "us"});
  m.push_back({"protocol.process_cpu_us", per_request(client_process_cpu),
               "us"});
  m.push_back({"serializer.sqlb_bytes", per_request(sqlb_bytes), "bytes"});
  const auto lookups = static_cast<double>(hits + misses + bypasses);
  m.push_back({"service.cache_hit_ratio",
               lookups > 0 ? static_cast<double>(hits) / lookups : 0.0,
               "ratio"});
  m.push_back({"service.cache_hits", static_cast<double>(hits), "count"});
  m.push_back({"service.cache_misses", static_cast<double>(misses), "count"});
  m.push_back({"service.cache_inserts", static_cast<double>(inserts),
               "count"});
  m.push_back({"service.cache_bytes",
               static_cast<double>(svc->translation_cache_stats().bytes),
               "bytes"});
  m.push_back({"backend.tdf_bytes", per_request(tdf_bytes), "bytes"});
  m.push_back({"backend.attempts_per_request", per_request(attempts),
               "count"});
  m.push_back({"convert.wire_bytes", per_request(wire_bytes), "bytes"});
  m.push_back({"vdb.rows_out", per_request(rows_out), "count"});
  std::vector<double> span_ns = SpanCostNs();
  m.push_back({"observability.span_ns.p50", Percentile(span_ns, 0.50), "ns"});
  m.push_back({"observability.span_ns.p99", Percentile(span_ns, 0.99), "ns"});
  m.push_back({"observability.spans_per_request", per_request(spans),
               "count"});
  m.push_back({"trace.coverage",
               client_total_us > 0 ? attributed_us / client_total_us : 0.0,
               "ratio"});
  return report;
}

}  // namespace tdwpbench
