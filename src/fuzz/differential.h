// Differential execution harness: one SQL-A statement is translated to
// every registered SQL-B dialect, each translation is executed against its
// own embedded vdb instance (identical schema + data), and the result sets
// are compared as canonical multisets. Any divergence — translation,
// execution, or results — is a finding the reducer (fuzz/reducer.h)
// shrinks to a minimal repro. See DESIGN.md §12.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "service/hyperq_service.h"
#include "vdb/engine.h"

namespace hyperq::fuzz {

/// \brief How a differential run of one query ended.
enum class OutcomeClass {
  kOk,                  // every dialect agreed
  kRejected,            // every dialect rejected it identically-shaped
                        // (frontend or engine) — not a finding
  kTranslateDivergence, // some dialects translated, others refused
  kExecuteDivergence,   // some executions succeeded, others errored
  kResultMismatch,      // executions succeeded with different multisets
};

const char* OutcomeClassName(OutcomeClass cls);

/// \brief One dialect's leg of a differential run.
struct DialectRun {
  std::string dialect;
  bool translated = false;
  bool executed = false;
  std::string error;                  // translate/execute failure message
  std::vector<std::string> sql_b;     // statements sent to the engine
  std::vector<std::string> rows;      // canonical sorted row strings
};

struct DifferentialOutcome {
  OutcomeClass cls = OutcomeClass::kOk;
  std::string detail;  // human-readable divergence description
  std::vector<DialectRun> runs;

  /// True for the three divergence classes — the fuzzer's findings.
  bool IsFinding() const {
    return cls == OutcomeClass::kTranslateDivergence ||
           cls == OutcomeClass::kExecuteDivergence ||
           cls == OutcomeClass::kResultMismatch;
  }
};

/// Seed of the harness's deterministic fuzz data set (query_gen DataDml, at
/// its default shape).
inline constexpr uint64_t kDataSeed = 42;

struct HarnessOptions {
  /// Dialects under test; every name must resolve via serializer
  /// FindDialect(). Order is preserved in DifferentialOutcome::runs.
  std::vector<std::string> dialects = {"ansi", "sierra", "granite"};
  /// Test hook: rewrites the SQL-B text of one dialect before execution,
  /// used to plant a known mismatch and exercise the reducer end to end.
  /// Called as (dialect, sql_b) -> sql_b'. null = identity.
  std::function<std::string(const std::string&, const std::string&)>
      sql_b_override;
};

/// \brief Owns one {engine, service, session} per dialect, all loaded with
/// the same deterministic data set, and runs one query differentially.
class DifferentialHarness {
 public:
  /// Builds all targets and applies SchemaDdl()/DataDml() through each
  /// service (via SQL-A, so the data path is the product path too).
  /// Dies via Status-check on setup failure — setup uses fixed statements.
  explicit DifferentialHarness(HarnessOptions options = {});
  ~DifferentialHarness();

  DifferentialHarness(const DifferentialHarness&) = delete;
  DifferentialHarness& operator=(const DifferentialHarness&) = delete;

  /// Translates + executes `sql_a` on every dialect and classifies.
  DifferentialOutcome Run(const std::string& sql_a);

  const std::vector<std::string>& dialects() const {
    return options_.dialects;
  }

 private:
  struct Target {
    std::string dialect;
    std::unique_ptr<vdb::Engine> engine;
    std::unique_ptr<service::HyperQService> service;
    uint32_t session = 0;
  };

  HarnessOptions options_;
  std::vector<Target> targets_;
};

/// \brief Canonical multiset rendering of a vdb result: one string per row
/// (columns '|'-joined, doubles normalized to %.6g, NULL as "<null>"),
/// sorted. Two dialects agree iff their canonical vectors are equal.
std::vector<std::string> CanonicalRows(const vdb::QueryResult& result);

}  // namespace hyperq::fuzz
