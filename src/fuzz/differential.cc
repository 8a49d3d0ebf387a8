#include "fuzz/differential.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"
#include "fuzz/query_gen.h"
#include "serializer/dialect.h"

namespace hyperq::fuzz {

const char* OutcomeClassName(OutcomeClass cls) {
  switch (cls) {
    case OutcomeClass::kOk:
      return "ok";
    case OutcomeClass::kRejected:
      return "rejected";
    case OutcomeClass::kTranslateDivergence:
      return "translate_divergence";
    case OutcomeClass::kExecuteDivergence:
      return "execute_divergence";
    case OutcomeClass::kResultMismatch:
      return "result_mismatch";
  }
  return "unknown";
}

std::vector<std::string> CanonicalRows(const vdb::QueryResult& result) {
  std::vector<std::string> out;
  out.reserve(result.row_count());
  auto emit = [&](const std::vector<Datum>& row) {
    std::string line;
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) line += '|';
      const Datum& v = row[c];
      if (v.is_null()) {
        line += "<null>";
      } else if (v.is_double()) {
        // Floating-point results are normalized to 6 significant digits so
        // evaluation-order noise does not read as a dialect divergence.
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6g", v.double_val());
        line += buf;
      } else {
        line += v.ToString();
      }
    }
    out.push_back(std::move(line));
  };
  // Canonicalize chunk by chunk without materializing the whole relation.
  std::vector<Datum> scratch;
  for (const auto& chunk : result.chunks) {
    for (size_t r = 0; r < chunk->rows; ++r) {
      chunk->FillRow(r, &scratch);
      emit(scratch);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

DifferentialHarness::DifferentialHarness(HarnessOptions options)
    : options_(std::move(options)) {
  std::vector<std::string> setup = SchemaDdl();
  for (auto& dml : DataDml(options_.data_seed, options_.rows0, options_.rows1)) {
    setup.push_back(std::move(dml));
  }
  for (const auto& name : options_.dialects) {
    const serializer::SQLDialectGenerator* gen = serializer::FindDialect(name);
    if (gen == nullptr) {
      HQ_LOG(kError) << "differential harness: unknown dialect '" << name
                    << "', skipping";
      continue;
    }
    Target t;
    t.dialect = name;
    t.engine = std::make_unique<vdb::Engine>();
    service::ServiceOptions opts;
    opts.profile = gen->Profile();
    opts.tracing = false;  // thousands of queries; span trees are ballast
    t.service = std::make_unique<service::HyperQService>(t.engine.get(), opts);
    auto session = t.service->OpenSession("fuzz");
    if (!session.ok()) {
      HQ_LOG(kError) << "differential harness: session open failed for '"
                    << name << "': " << session.status().message();
      continue;
    }
    t.session = session.value();
    bool loaded = true;
    for (const auto& stmt : setup) {
      auto applied = t.service->Submit(t.session, stmt);
      if (!applied.ok()) {
        HQ_LOG(kError) << "differential harness: setup statement failed on '"
                      << name << "': " << applied.status().message();
        loaded = false;
        break;
      }
    }
    if (loaded) targets_.push_back(std::move(t));
  }
}

DifferentialHarness::~DifferentialHarness() {
  for (auto& t : targets_) {
    if (t.service != nullptr) t.service->CloseSession(t.session);
  }
}

DifferentialOutcome DifferentialHarness::Run(const std::string& sql_a) {
  DifferentialOutcome out;
  int translated = 0;
  int executed = 0;
  for (auto& t : targets_) {
    DialectRun run;
    run.dialect = t.dialect;
    auto sql_b = t.service->Translate(sql_a, nullptr, nullptr);
    if (!sql_b.ok()) {
      run.error = sql_b.status().message();
      out.runs.push_back(std::move(run));
      continue;
    }
    run.translated = true;
    ++translated;
    run.sql_b = std::move(sql_b).value();
    // Execute the SQL-B directly against the target's engine: the point is
    // to verify the *serialized text* round-trips through the target
    // grammar and semantics, not to re-run the service pipeline.
    vdb::QueryResult last;
    bool failed = false;
    for (const auto& stmt : run.sql_b) {
      std::string text = stmt;
      if (options_.sql_b_override) {
        text = options_.sql_b_override(t.dialect, text);
      }
      auto res = t.engine->Execute(text);
      if (!res.ok()) {
        run.error = res.status().message();
        failed = true;
        break;
      }
      last = std::move(res).value();
    }
    if (!failed) {
      run.executed = true;
      ++executed;
      run.rows = CanonicalRows(last);
    }
    out.runs.push_back(std::move(run));
  }

  const int total = static_cast<int>(out.runs.size());
  if (translated == 0) {
    // Uniform frontend rejection (parse/bind error): expected fuzz noise.
    out.cls = OutcomeClass::kRejected;
    out.detail = total > 0 ? out.runs[0].error : "no targets";
    return out;
  }
  if (translated < total) {
    out.cls = OutcomeClass::kTranslateDivergence;
    for (const auto& r : out.runs) {
      if (!r.translated) {
        out.detail = r.dialect + " refused translation: " + r.error;
        break;
      }
    }
    return out;
  }
  if (executed == 0) {
    // Every dialect's SQL-B failed in the engine. Uniform, so not a
    // dialect divergence — but count it as rejected, the campaign tracks
    // the rate separately.
    out.cls = OutcomeClass::kRejected;
    out.detail = out.runs[0].error;
    return out;
  }
  if (executed < total) {
    out.cls = OutcomeClass::kExecuteDivergence;
    for (const auto& r : out.runs) {
      if (!r.executed) {
        out.detail = r.dialect + " failed execution: " + r.error;
        break;
      }
    }
    return out;
  }
  for (size_t i = 1; i < out.runs.size(); ++i) {
    if (out.runs[i].rows != out.runs[0].rows) {
      out.cls = OutcomeClass::kResultMismatch;
      out.detail = out.runs[0].dialect + " returned " +
                   std::to_string(out.runs[0].rows.size()) + " row(s), " +
                   out.runs[i].dialect + " returned " +
                   std::to_string(out.runs[i].rows.size()) +
                   " row(s) with differing canonical content";
      return out;
    }
  }
  out.cls = OutcomeClass::kOk;
  return out;
}

}  // namespace hyperq::fuzz
