#include "chaos/workload.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "protocol/client.h"
#include "types/datum.h"

namespace hyperq::chaos {

namespace {

using protocol::ClientResult;
using protocol::TdwpClient;

// Same splitmix64 family as ChaosNet: the workload's query mix is as
// deterministic as the faults injected under it.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// The query `SEL * FROM CHAOS_T WHERE A < k ORDER BY A` must return
/// exactly rows (0, 1), (1, 3), ..., (k-1, 2k-1). Anything else means
/// the request or response was damaged in flight.
bool SelfCheck(const ClientResult& result, int k) {
  if (result.rows.size() != static_cast<size_t>(k)) return false;
  for (int i = 0; i < k; ++i) {
    const auto& row = result.rows[static_cast<size_t>(i)];
    if (row.size() != 2) return false;
    if (row[0].is_null() || row[1].is_null()) return false;
    if (row[0].AsInt() != i || row[1].AsInt() != 2 * i + 1) return false;
  }
  return true;
}

struct SessionState {
  TdwpClient client;
  bool connected = false;
};

Status Reconnect(SessionState* s, const WorkloadOptions& options) {
  s->client.HardClose();
  s->connected = false;
  TdwpClient fresh;
  HQ_RETURN_IF_ERROR(fresh.Connect(options.port));
  HQ_RETURN_IF_ERROR(
      fresh.SetRecvTimeoutMs(ChaosWorkload::kRecvDeadlineMs));
  HQ_RETURN_IF_ERROR(fresh.Logon(options.user, options.password));
  s->client = std::move(fresh);
  s->connected = true;
  return Status::OK();
}

void SessionLoop(int session_index, const WorkloadOptions& options,
                 ClientLedger* ledger) {
  SessionState s;
  uint64_t rng = 0xC4A05ull ^ static_cast<uint64_t>(session_index);
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(options.duration_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    rng = Mix(rng);
    int k = 1 + static_cast<int>(rng % static_cast<uint64_t>(options.rows));
    std::string sql = "SEL * FROM CHAOS_T WHERE A < " + std::to_string(k) +
                      " ORDER BY A";
    int64_t id = ledger->Begin();
    bool delivered = false;
    for (int attempt = 0; attempt < options.max_attempts; ++attempt) {
      ledger->NoteAttempt(id);
      if (!s.connected) {
        Status st = Reconnect(&s, options);
        if (!st.ok()) {
          // A logon the server never answered is a typed timeout; any
          // other failure to (re)connect is connection-level.
          if (st.IsDeadlineExceeded()) {
            ledger->NoteTypedError(id, static_cast<int>(st.code()));
          } else {
            ledger->NoteIoFailure(id);
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          continue;
        }
      }
      auto result = s.client.Run(sql);
      if (result.ok()) {
        if (SelfCheck(*result, k)) {
          ledger->NoteSuccess(id);
          delivered = true;
          break;
        }
        // Delivered but wrong: a corrupted request legitimately asked a
        // different question. Retry over a fresh connection — the stream
        // state after a garbled frame is not trustworthy.
        ledger->NoteCorruptResult(id);
      } else {
        ledger->NoteTypedError(id,
                               static_cast<int>(result.status().code()));
      }
      // Any failed attempt poisons the connection under chaos (a reset,
      // a half-written frame, a stalled read); start the next one clean.
      s.client.HardClose();
      s.connected = false;
    }
    ledger->Finish(id, delivered);
  }
  if (s.connected) s.client.Goodbye();
}

}  // namespace

Status ChaosWorkload::SeedData(uint16_t port, int rows) {
  TdwpClient client;
  HQ_RETURN_IF_ERROR(client.Connect(port));
  HQ_RETURN_IF_ERROR(client.Logon("alice", "pw"));
  HQ_RETURN_IF_ERROR(
      client.Run("CREATE TABLE CHAOS_T (A INTEGER, B INTEGER)").status());
  for (int i = 0; i < rows; ++i) {
    HQ_RETURN_IF_ERROR(client
                           .Run("INS INTO CHAOS_T VALUES (" +
                                std::to_string(i) + ", " +
                                std::to_string(2 * i + 1) + ")")
                           .status());
  }
  client.Goodbye();
  return Status::OK();
}

WorkloadReport ChaosWorkload::Run(const WorkloadOptions& options,
                                  ClientLedger* ledger) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(options.sessions));
  for (int i = 0; i < options.sessions; ++i) {
    threads.emplace_back(SessionLoop, i, std::cref(options), ledger);
  }
  for (auto& t : threads) t.join();

  WorkloadReport report;
  for (const auto& e : ledger->Entries()) {
    ++report.issued;
    if (e.delivered) {
      ++report.delivered;
    } else {
      ++report.failed;
    }
    if (e.attempts > 1) report.retries += e.attempts - 1;
  }
  return report;
}

}  // namespace hyperq::chaos
