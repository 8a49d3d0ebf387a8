#include "chaos/auditor.h"

#include <dirent.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/status.h"
#include "observability/metric_names.h"

namespace hyperq::chaos {

namespace obs = observability;

// --- ClientLedger -----------------------------------------------------------

ClientLedger::ClientLedger() : epoch_(std::chrono::steady_clock::now()) {}

int64_t ClientLedger::now_ms() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int64_t ClientLedger::Begin() {
  std::lock_guard<std::mutex> lock(mutex_);
  LedgerEntry entry;
  entry.id = static_cast<int64_t>(entries_.size());
  entry.t_begin_ms = now_ms();
  entries_.push_back(entry);
  return entry.id;
}

LedgerEntry* ClientLedger::Find(int64_t id) {
  if (id < 0 || id >= static_cast<int64_t>(entries_.size())) return nullptr;
  return &entries_[static_cast<size_t>(id)];
}

void ClientLedger::NoteAttempt(int64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (LedgerEntry* e = Find(id)) ++e->attempts;
}

void ClientLedger::NoteSuccess(int64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (LedgerEntry* e = Find(id)) ++e->successes;
}

void ClientLedger::NoteCorruptResult(int64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (LedgerEntry* e = Find(id)) ++e->corrupt_results;
}

void ClientLedger::NoteTypedError(int64_t id, int code) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (LedgerEntry* e = Find(id)) e->error_codes.push_back(code);
}

void ClientLedger::NoteIoFailure(int64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (LedgerEntry* e = Find(id)) ++e->io_failures;
}

void ClientLedger::Finish(int64_t id, bool delivered) {
  std::lock_guard<std::mutex> lock(mutex_);
  LedgerEntry* e = Find(id);
  if (e == nullptr) return;
  e->finished = true;
  e->delivered = delivered;
  e->t_end_ms = now_ms();
  LedgerSample sample;
  sample.t_ms = e->t_end_ms;
  sample.ok = delivered;
  samples_.push_back(sample);
}

std::vector<LedgerEntry> ClientLedger::Entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_;
}

std::vector<LedgerSample> ClientLedger::Samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return samples_;
}

int64_t ClientLedger::issued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int64_t>(entries_.size());
}

int64_t ClientLedger::delivered() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int64_t n = 0;
  for (const auto& e : entries_) n += e.delivered ? 1 : 0;
  return n;
}

int64_t ClientLedger::failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int64_t n = 0;
  for (const auto& e : entries_) n += (e.finished && !e.delivered) ? 1 : 0;
  return n;
}

// --- InvariantAuditor -------------------------------------------------------

InvariantAuditor::InvariantAuditor(AuditorOptions options)
    : options_(options) {
  if (options_.metrics != nullptr) {
    c_runs_ = options_.metrics->counter(obs::names::kChaosAuditRuns);
    c_violations_ =
        options_.metrics->counter(obs::names::kChaosAuditViolations);
  }
}

int InvariantAuditor::CountOpenFds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int n = 0;
  while (struct dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++n;
  }
  ::closedir(dir);
  return n - 1;  // exclude the opendir handle itself
}

int InvariantAuditor::CountThreads() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return -1;
  int n = 0;
  while (struct dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++n;
  }
  ::closedir(dir);
  return n;
}

void InvariantAuditor::CaptureBaseline() {
  if (options_.service != nullptr) {
    baseline_ = options_.service->metrics_registry()->Snapshot();
  }
  baseline_fds_ = CountOpenFds();
  baseline_threads_ = CountThreads();
}

void InvariantAuditor::AuditLedger(
    const ClientLedger& ledger, std::vector<std::string>* violations) const {
  for (const auto& e : ledger.Entries()) {
    std::string tag = "query #" + std::to_string(e.id);
    // I1: at most one successful delivery per logical query. The workload
    // stops retrying the moment a result lands, so a second success means
    // the proxy (or a ghost of a partitioned attempt) delivered twice.
    if (e.successes > 1) {
      violations->push_back("I1 exactly-once: " + tag + " delivered " +
                            std::to_string(e.successes) + " results");
    }
    if (e.delivered && e.successes == 0) {
      violations->push_back("I1 exactly-once: " + tag +
                            " marked delivered with no recorded success");
    }
    // I2: a delivered result must have passed the self-check; failing
    // results are retried, never accepted.
    if (e.delivered && e.successes >= 1 && e.corrupt_results >= e.attempts) {
      violations->push_back("I2 payload-integrity: " + tag +
                            " accepted only corrupt results");
    }
    // I3: every query reached exactly one terminal state.
    if (!e.finished) {
      violations->push_back("I3 conservation: " + tag +
                            " never reached a terminal state");
    }
    if (e.finished && !e.delivered && e.error_codes.empty() &&
        e.io_failures == 0 && e.corrupt_results == 0) {
      violations->push_back("I3 conservation: " + tag +
                            " failed with no recorded cause");
    }
    // I4: every typed error frame carried a valid non-OK StatusCode.
    for (int code : e.error_codes) {
      if (code <= 0 || code > static_cast<int>(StatusCode::kCancelled)) {
        violations->push_back("I4 typed-errors: " + tag +
                              " observed invalid wire code " +
                              std::to_string(code));
      }
    }
  }
}

void InvariantAuditor::AuditMetrics(
    std::vector<std::string>* violations) const {
  if (options_.service == nullptr) return;
  obs::MetricsSnapshot now = options_.service->metrics_registry()->Snapshot();
  // I5: counters are monotonic by contract; chaos must not be able to
  // drive one backwards (double release, wrapped subtraction, ...).
  for (const auto& [name, value] : baseline_.counters) {
    auto it = now.counters.find(name);
    if (it != now.counters.end() && it->second < value) {
      violations->push_back("I5 monotonicity: counter " + name +
                            " regressed " + std::to_string(value) + " -> " +
                            std::to_string(it->second));
    }
  }
}

void InvariantAuditor::AuditGovernor(
    std::vector<std::string>* violations) const {
  if (options_.governor == nullptr) return;
  // I6: with the workload drained, every reservation must have been
  // returned — leaked bytes would strangle the proxy over a long soak.
  // One residue is legitimate: resident translation-cache entries hold
  // governor memory by design (a steady-state reservation, not a leak),
  // so the check is "all reserved bytes are cache-accounted", not "zero".
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(options_.settle_ms);
  ResourceGovernorStats stats;
  int64_t cache_held = 0;
  do {
    stats = options_.governor->stats();
    cache_held = options_.service != nullptr
                     ? static_cast<int64_t>(
                           options_.service->translation_cache_stats().bytes)
                     : 0;
    if (stats.memory_bytes == cache_held && stats.spill_bytes == 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  } while (std::chrono::steady_clock::now() < deadline);
  if (stats.memory_bytes != cache_held) {
    violations->push_back(
        "I6 governor-leak: " + std::to_string(stats.memory_bytes) +
        " memory bytes reserved but only " + std::to_string(cache_held) +
        " accounted to the translation cache");
  }
  if (stats.spill_bytes != 0) {
    violations->push_back("I6 governor-leak: " +
                          std::to_string(stats.spill_bytes) +
                          " spill bytes still reserved");
  }
}

void InvariantAuditor::AuditQuiesce(
    std::vector<std::string>* violations) const {
  // I7: every client is gone; nothing server-side may still think it is
  // serving one. Teardown is asynchronous (worker reaping, logoff on
  // close), so poll up to the settle budget.
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(options_.settle_ms);
  size_t sessions = 0, connections = 0;
  do {
    sessions =
        options_.service != nullptr ? options_.service->open_sessions() : 0;
    connections = options_.server != nullptr
                      ? options_.server->active_connections()
                      : 0;
    if (sessions == 0 && connections == 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  } while (std::chrono::steady_clock::now() < deadline);
  if (sessions != 0) {
    violations->push_back("I7 quiesce: " + std::to_string(sessions) +
                          " sessions still open");
  }
  if (connections != 0) {
    violations->push_back("I7 quiesce: " + std::to_string(connections) +
                          " connections still active");
  }
}

void InvariantAuditor::AuditProcess(
    std::vector<std::string>* violations) const {
  // I8/I9: fds and threads return to (near) baseline. The tolerance
  // absorbs allocator/runtime noise; the settle loop absorbs the lag
  // between a worker finishing and being reaped.
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(options_.settle_ms);
  int fds = 0, threads = 0;
  do {
    // Reaping finished workers piggybacks on the next accepted connection,
    // so an idle post-soak server legitimately holds its last workers'
    // closed-connection fds until someone joins them. Do it explicitly.
    if (options_.server != nullptr) options_.server->ReapWorkers();
    fds = CountOpenFds();
    threads = CountThreads();
    bool fds_ok = baseline_fds_ < 0 || fds < 0 ||
                  fds <= baseline_fds_ + kFdTolerance;
    bool threads_ok = baseline_threads_ < 0 || threads < 0 ||
                      threads <= baseline_threads_ + kThreadTolerance;
    if (fds_ok && threads_ok) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  } while (std::chrono::steady_clock::now() < deadline);
  if (baseline_fds_ >= 0 && fds > baseline_fds_ + kFdTolerance) {
    violations->push_back("I8 fd-leak: " + std::to_string(fds) +
                          " open fds vs baseline " +
                          std::to_string(baseline_fds_));
  }
  if (baseline_threads_ >= 0 &&
      threads > baseline_threads_ + kThreadTolerance) {
    violations->push_back("I9 thread-leak: " + std::to_string(threads) +
                          " threads vs baseline " +
                          std::to_string(baseline_threads_));
  }
}

std::vector<std::string> InvariantAuditor::Audit(const ClientLedger& ledger) {
  std::vector<std::string> violations;
  AuditLedger(ledger, &violations);
  AuditQuiesce(&violations);    // quiesce first: later checks assume idle
  AuditGovernor(&violations);
  AuditMetrics(&violations);
  AuditProcess(&violations);
  if (c_runs_ != nullptr) c_runs_->Inc();
  if (c_violations_ != nullptr && !violations.empty()) {
    c_violations_->Inc(static_cast<int64_t>(violations.size()));
  }
  return violations;
}

}  // namespace hyperq::chaos
