// Per-query trace spans (DESIGN.md §9): every request served by the proxy
// carries a span tree hung off its QueryContext, one span per pipeline
// stage plus child spans for retry attempts, hedges and recursion
// iterations. The stages are the rows of names::kStageNames
// (observability/metric_names.h), from wire.read to wire.write; a span
// records its row's static name and index, never a string of its own.
// Finished traces are kept in a per-process ring buffer and, past a
// configurable threshold, emitted as one structured JSON line each — the
// slow-query log.
//
// Per-request cost: a trace keeps its first 8 spans (a cache hit's) inside
// itself, finds the innermost open span through the parent links, and
// keeps only the part of the SQL text the slow-query log prints, so on the
// hit path opening and closing a stage span allocates nothing. Filing a
// finished trace walks its spans in place (VisitSpans) and observes
// hyperq.stage.micros through histograms the service resolved once per
// stage.
//
// Concurrency: a query's spans are opened and closed from the worker
// thread driving its pipeline, but cancellation (and the trace ring) may
// inspect the trace from other threads, so all mutation goes through one
// small mutex. Spans are per-stage, ~a dozen per query — this is not a
// hot-loop structure.

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "observability/metric_names.h"

namespace hyperq {
class QueryContext;
}

namespace hyperq::observability {

/// \brief One finished (or in-flight) span. Offsets are microseconds
/// relative to the trace's start; `duration_micros` is negative while the
/// span is still open.
struct TraceSpanRecord {
  /// `stage` of a span opened by a free-form name rather than a Stage.
  static constexpr int kNoStage = -1;

  int id = 0;
  int parent = -1;  // -1: the root span
  /// Static storage: a names::kStageNames row, or the literal a free-form
  /// span was opened with.
  std::string_view name;
  /// Index into names::kStageNames, or kNoStage.
  int stage = kNoStage;
  double start_micros = 0;
  double duration_micros = -1;
  // Key/value annotations (e.g. backend.attempt spans carry
  // backend="replica-1", reason="p2c"). Small and append-only; a repeated
  // key overwrites the earlier value at render time by ordering.
  std::vector<std::pair<std::string, std::string>> attrs;
};

/// \brief The span tree of one query. Span 0 is the root ("query"),
/// created at construction; StartSpan() nests under the innermost open
/// span, mirroring the call structure of the pipeline.
class QueryTrace {
 public:
  /// Longest SQL prefix the trace keeps (what ToJson prints).
  static constexpr size_t kQueryTextBytes = 256;

  QueryTrace();

  /// \brief Opens a span for `stage` under the current innermost open span
  /// and makes it current. Returns the span id (pass to EndSpan).
  int StartSpan(names::Stage stage);
  /// \brief The same for a span outside the stage table (tests, benches).
  /// `name` must outlive the trace: pass a literal.
  int StartSpan(const char* name);
  void EndSpan(int id);

  /// \brief Attaches a key/value attribute to span `id` (open or closed).
  /// No-op on an invalid id, so callers can pass a failed StartSpan result.
  void AnnotateSpan(int id, const std::string& key, const std::string& value);

  /// \brief Records an already measured interval as a closed child of the
  /// current span (used for work measured before the trace could nest it).
  /// `name` must outlive the trace.
  void AddCompletedSpan(const char* name, double start_micros,
                        double duration_micros);

  /// \brief Closes the root span (and any span left open by an error
  /// path). Idempotent; total_micros() is stable afterwards.
  void Finish();
  bool finished() const;
  double total_micros() const;

  // Request annotations (set by the wire/service layer).
  /// Keeps the first kQueryTextBytes bytes of `sql`, plus "..." when it is
  /// longer: exactly what ToJson prints, so a huge script pins no memory in
  /// the trace ring.
  void set_query(std::string_view sql);
  void set_session_id(uint32_t id);
  void set_session_class(std::string session_class);
  /// "ok", "error", "cancelled", "deadline" — the lifecycle outcome.
  void set_outcome(std::string outcome);
  /// The kept SQL text (see set_query).
  std::string query() const;
  uint32_t session_id() const;
  std::string session_class() const;
  std::string outcome() const;

  std::vector<TraceSpanRecord> spans() const;
  /// \brief Calls fn(const TraceSpanRecord&) for each span in id order,
  /// in place and under the trace's lock: fn must not call back into the
  /// trace.
  template <typename Fn>
  void VisitSpans(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t i = 0; i < spans_.size(); ++i) fn(spans_[i]);
  }
  /// \brief Sum of the durations of every closed span named `name`.
  double SumDurations(std::string_view name) const;
  /// \brief Duration of the most recent closed span named `name`, or 0.
  /// Deriving per-request stage times from the *last* span is what keeps
  /// them from drifting when an earlier attempt of the same stage was
  /// abandoned (the conversion_micros double-count, DESIGN.md §9).
  double LastDuration(std::string_view name) const;
  /// \brief Number of closed spans named `name`.
  int CountSpans(std::string_view name) const;
  /// \brief Span duration minus its children's durations, by span id.
  double SelfMicros(int id) const;

  /// \brief The slow-query log line: single-line JSON with the query (
  /// truncated), session, outcome, total, and per-span breakdown.
  std::string ToJson() const;

 private:
  /// The spans in id order. The first kInline live in the list itself: a
  /// cache-hit wire request opens 7 under the root, so its trace allocates
  /// no span storage; a cold one (11) puts its last 4 in the overflow
  /// vector.
  class SpanList {
   public:
    static constexpr size_t kInline = 8;
    size_t size() const { return size_; }
    TraceSpanRecord& operator[](size_t i) {
      return i < kInline ? inline_[i] : overflow_[i - kInline];
    }
    const TraceSpanRecord& operator[](size_t i) const {
      return i < kInline ? inline_[i] : overflow_[i - kInline];
    }
    TraceSpanRecord& emplace_back() {
      return size_++ < kInline ? inline_[size_ - 1]
                               : overflow_.emplace_back();
    }

   private:
    std::array<TraceSpanRecord, kInline> inline_;
    std::vector<TraceSpanRecord> overflow_;
    size_t size_ = 0;
  };

  int OpenSpan(std::string_view name, int stage);

  mutable std::mutex mutex_;
  Stopwatch clock_;
  SpanList spans_;
  // The innermost open span; the open spans are it and its ancestors.
  int current_ = 0;
  bool finished_ = false;
  double total_micros_ = 0;
  // The kept SQL text: a prefix plus the truncation mark, never allocated.
  std::array<char, kQueryTextBytes + 3> query_{};
  size_t query_size_ = 0;
  uint32_t session_id_ = 0;
  std::string session_class_ = "library";
  std::string outcome_ = "ok";
};

/// \brief RAII stage span. Null-safe on both constructors, so
/// instrumented code needs no tracing-enabled branches: with no trace
/// attached the scope is a no-op.
class SpanScope {
 public:
  SpanScope(QueryTrace* trace, names::Stage stage);
  /// A span outside the stage table; `name` must outlive the trace.
  SpanScope(QueryTrace* trace, const char* name);
  /// Convenience: spans the trace attached to `ctx` (either may be null).
  SpanScope(QueryContext* ctx, names::Stage stage);
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() { End(); }

  /// \brief Closes the span early (idempotent).
  void End();

  /// \brief Annotates this scope's span (no-op when tracing is off).
  void Annotate(const std::string& key, const std::string& value);

 private:
  QueryTrace* trace_ = nullptr;
  int id_ = -1;
};

/// \brief Fixed-capacity ring of the most recently finished traces,
/// process-wide per service. Thread-safe.
class TraceRing {
 public:
  explicit TraceRing(size_t capacity);

  void Add(std::shared_ptr<const QueryTrace> trace);
  /// \brief Most recent first.
  std::vector<std::shared_ptr<const QueryTrace>> Recent(size_t n) const;
  int64_t total_added() const;
  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<const QueryTrace>> ring_;
  size_t next_ = 0;
  int64_t added_ = 0;
};

}  // namespace hyperq::observability
