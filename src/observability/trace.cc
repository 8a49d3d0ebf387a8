#include "observability/trace.h"

#include <algorithm>
#include <cstdio>

#include "common/query_context.h"

namespace hyperq::observability {

QueryTrace::QueryTrace() {
  TraceSpanRecord& root = spans_.emplace_back();
  root.id = 0;
  root.parent = -1;
  root.name = "query";
  root.start_micros = 0;
}

int QueryTrace::StartSpan(names::Stage stage) {
  return OpenSpan(names::StageName(stage), static_cast<int>(stage));
}

int QueryTrace::StartSpan(const char* name) {
  return OpenSpan(name, TraceSpanRecord::kNoStage);
}

int QueryTrace::OpenSpan(std::string_view name, int stage) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (finished_) return -1;
  TraceSpanRecord& span = spans_.emplace_back();
  span.id = static_cast<int>(spans_.size()) - 1;
  span.parent = current_;
  span.name = name;
  span.stage = stage;
  span.start_micros = clock_.ElapsedMicros();
  current_ = span.id;
  return span.id;
}

void QueryTrace::EndSpan(int id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id <= 0 || id >= static_cast<int>(spans_.size())) return;
  const TraceSpanRecord& span = spans_[id];
  if (span.duration_micros >= 0) return;  // already closed
  // An open span is current_ or one of its ancestors. Close the chain from
  // current_ through this span: children left open by an error path are
  // closed at the same instant (zero-width tail).
  const double now = clock_.ElapsedMicros();
  for (int open = current_; open > 0 && open != span.parent;
       open = spans_[open].parent) {
    TraceSpanRecord& closing = spans_[open];
    if (closing.duration_micros < 0) {
      closing.duration_micros = now - closing.start_micros;
    }
  }
  current_ = span.parent;
}

void QueryTrace::AnnotateSpan(int id, const std::string& key,
                              const std::string& value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id <= 0 || id >= static_cast<int>(spans_.size())) return;
  spans_[id].attrs.emplace_back(key, value);
}

void QueryTrace::AddCompletedSpan(const char* name, double start_micros,
                                  double duration_micros) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (finished_) return;
  TraceSpanRecord& span = spans_.emplace_back();
  span.id = static_cast<int>(spans_.size()) - 1;
  span.parent = current_;
  span.name = name;
  span.start_micros = std::max(0.0, start_micros);
  span.duration_micros = std::max(0.0, duration_micros);
}

void QueryTrace::Finish() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (finished_) return;
  finished_ = true;
  total_micros_ = clock_.ElapsedMicros();
  for (size_t i = 0; i < spans_.size(); ++i) {
    TraceSpanRecord& span = spans_[i];
    if (span.duration_micros < 0) {
      span.duration_micros = total_micros_ - span.start_micros;
    }
  }
  current_ = 0;
}

bool QueryTrace::finished() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return finished_;
}

double QueryTrace::total_micros() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return finished_ ? total_micros_ : clock_.ElapsedMicros();
}

void QueryTrace::set_query(std::string_view sql) {
  std::lock_guard<std::mutex> lock(mutex_);
  query_size_ = std::min(sql.size(), kQueryTextBytes);
  std::copy_n(sql.data(), query_size_, query_.data());
  if (sql.size() > kQueryTextBytes) {
    std::copy_n("...", 3, query_.data() + query_size_);
    query_size_ += 3;
  }
}
void QueryTrace::set_session_id(uint32_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  session_id_ = id;
}
void QueryTrace::set_session_class(std::string session_class) {
  std::lock_guard<std::mutex> lock(mutex_);
  session_class_ = std::move(session_class);
}
void QueryTrace::set_outcome(std::string outcome) {
  std::lock_guard<std::mutex> lock(mutex_);
  outcome_ = std::move(outcome);
}
std::string QueryTrace::query() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::string(query_.data(), query_size_);
}
uint32_t QueryTrace::session_id() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return session_id_;
}
std::string QueryTrace::session_class() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return session_class_;
}
std::string QueryTrace::outcome() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return outcome_;
}

std::vector<TraceSpanRecord> QueryTrace::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceSpanRecord> out;
  out.reserve(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) out.push_back(spans_[i]);
  return out;
}

double QueryTrace::SumDurations(std::string_view name) const {
  double sum = 0;
  VisitSpans([&](const TraceSpanRecord& span) {
    if (span.name == name && span.duration_micros >= 0) {
      sum += span.duration_micros;
    }
  });
  return sum;
}

double QueryTrace::LastDuration(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = spans_.size(); i-- > 0;) {
    if (spans_[i].name == name && spans_[i].duration_micros >= 0) {
      return spans_[i].duration_micros;
    }
  }
  return 0;
}

int QueryTrace::CountSpans(std::string_view name) const {
  int n = 0;
  VisitSpans([&](const TraceSpanRecord& span) {
    if (span.name == name && span.duration_micros >= 0) ++n;
  });
  return n;
}

double QueryTrace::SelfMicros(int id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id < 0 || id >= static_cast<int>(spans_.size())) return 0;
  double self = spans_[id].duration_micros;
  if (self < 0) return 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent == id && spans_[i].duration_micros > 0) {
      self -= spans_[i].duration_micros;
    }
  }
  return std::max(0.0, self);
}

namespace {
void AppendJsonEscaped(std::string* out, std::string_view s,
                       size_t max_len) {
  size_t n = std::min(s.size(), max_len);
  for (size_t i = 0; i < n; ++i) {
    char c = s[i];
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
      case '\r':
      case '\t':
        *out += ' ';
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += ' ';
        } else {
          *out += c;
        }
    }
  }
  if (s.size() > max_len) *out += "...";
}
}  // namespace

std::string QueryTrace::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"event\":\"slow_query\",\"session\":";
  out += std::to_string(session_id_);
  out += ",\"class\":\"";
  out += session_class_;
  out += "\",\"outcome\":\"";
  out += outcome_;
  out += "\",\"total_micros\":";
  char num[64];
  std::snprintf(num, sizeof(num), "%.1f",
                finished_ ? total_micros_ : clock_.ElapsedMicros());
  out += num;
  out += ",\"sql\":\"";
  // query_ already ends in the truncation mark when set_query cut it.
  AppendJsonEscaped(&out, std::string_view(query_.data(), query_size_),
                    query_size_);
  out += "\",\"spans\":[";
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const TraceSpanRecord& span = spans_[i];
    if (span.id == 0) continue;  // the root duplicates total_micros
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    AppendJsonEscaped(&out, span.name, 64);
    std::snprintf(num, sizeof(num),
                  "\",\"parent\":%d,\"start\":%.1f,\"micros\":%.1f",
                  span.parent, span.start_micros,
                  std::max(0.0, span.duration_micros));
    out += num;
    if (!span.attrs.empty()) {
      out += ",\"attrs\":{";
      for (size_t i = 0; i < span.attrs.size(); ++i) {
        if (i > 0) out += ',';
        out += '"';
        AppendJsonEscaped(&out, span.attrs[i].first, 64);
        out += "\":\"";
        AppendJsonEscaped(&out, span.attrs[i].second, 64);
        out += '"';
      }
      out += '}';
    }
    out += '}';
  }
  out += "]}";
  return out;
}

SpanScope::SpanScope(QueryTrace* trace, names::Stage stage) : trace_(trace) {
  if (trace_ != nullptr) id_ = trace_->StartSpan(stage);
}

SpanScope::SpanScope(QueryTrace* trace, const char* name) : trace_(trace) {
  if (trace_ != nullptr) id_ = trace_->StartSpan(name);
}

SpanScope::SpanScope(QueryContext* ctx, names::Stage stage)
    : SpanScope(ctx != nullptr ? ctx->trace() : nullptr, stage) {}

void SpanScope::Annotate(const std::string& key, const std::string& value) {
  if (trace_ != nullptr && id_ > 0) trace_->AnnotateSpan(id_, key, value);
}

void SpanScope::End() {
  if (trace_ != nullptr && id_ > 0) trace_->EndSpan(id_);
  trace_ = nullptr;
  id_ = -1;
}

TraceRing::TraceRing(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void TraceRing::Add(std::shared_ptr<const QueryTrace> trace) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(trace));
  } else {
    ring_[next_] = std::move(trace);
  }
  next_ = (next_ + 1) % capacity_;
  ++added_;
}

std::vector<std::shared_ptr<const QueryTrace>> TraceRing::Recent(
    size_t n) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<const QueryTrace>> out;
  if (ring_.empty()) return out;
  size_t count = std::min(n, ring_.size());
  out.reserve(count);
  // next_ points at the oldest entry once the ring has wrapped.
  size_t newest = (next_ + ring_.size() - 1) % ring_.size();
  for (size_t i = 0; i < count; ++i) {
    out.push_back(ring_[(newest + ring_.size() - i) % ring_.size()]);
  }
  return out;
}

int64_t TraceRing::total_added() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return added_;
}

}  // namespace hyperq::observability
