// The Protocol Handler's server side (paper §4.1): accepts tdwp
// connections, performs the logon handshake, and relays query requests to a
// RequestHandler (implemented by service::HyperQService).
//
// Overload protection (DESIGN.md §6): a connection cap that sheds arrivals
// beyond it with a clean tdwp error frame, and a graceful drain on Stop().

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/query_context.h"
#include "common/result.h"
#include "observability/metrics.h"
#include "observability/trace.h"
#include "protocol/socket.h"
#include "protocol/tdwp.h"

namespace hyperq::protocol {

/// \brief One complete wire response: header + encoded record batches +
/// success message (or just a success/error for command statements).
struct WireResponse {
  bool has_rowset = false;
  ResultHeader header;
  /// Encoded record runs; each element is the payload of one RecordBatch
  /// frame (u32 row count + records).
  std::vector<std::vector<uint8_t>> batches;
  SuccessMessage success;
};

/// \brief Server callbacks. Implementations must be thread-safe: each
/// connection is served from its own thread.
class RequestHandler {
 public:
  virtual ~RequestHandler() = default;

  virtual Result<LogonResponse> Logon(const LogonRequest& request) = 0;
  virtual void Logoff(uint32_t session_id) = 0;
  /// `ctx` is the request's lifecycle handle (DESIGN.md §8), minted by the
  /// server with the client probe and trace installed; its deadline is the
  /// handler's to set. Never null; implementations thread it into every
  /// cancellable loop.
  virtual Result<WireResponse> Run(uint32_t session_id,
                                   const std::string& sql,
                                   QueryContext* ctx) = 0;

  /// \brief Called once per wire request after the last frame is written
  /// (DESIGN.md §9). The trace is finished: wire.read through wire.write
  /// are closed. HyperQService records stage histograms, the trace ring,
  /// and the slow-query log here. Default: drop the trace.
  virtual void OnQueryTraceFinished(
      std::shared_ptr<const observability::QueryTrace> trace) {
    (void)trace;
  }

  /// \brief The handler's contribution to a kStatsRequest scrape (the
  /// service's registry rendered as text). Default: empty.
  virtual std::string ScrapeText() { return std::string(); }
};

struct TdwpServerOptions {
  /// Connections served concurrently; an arrival beyond the cap gets a
  /// clean error frame (kResourceExhausted) and is disconnected.
  /// 0 = unlimited.
  size_t max_connections = 0;
  /// A connection idle longer than this between frames is reaped with an
  /// error frame instead of pinning a thread forever. 0 = no timeout.
  int idle_timeout_ms = 0;
  /// Slowloris guard (DESIGN.md §13): once a client has sent the first
  /// byte of a frame, the whole frame (header + payload) must arrive
  /// within this budget, however slowly the bytes trickle in. A stalled
  /// frame is answered with kDeadlineExceeded[frame_stall] and the
  /// connection is reaped, so a 1-byte-per-second client cannot pin a
  /// worker thread. Idle time *between* frames is governed by
  /// idle_timeout_ms, not this. 0 = no guard.
  int frame_read_timeout_ms = 0;
  /// Admission counters register here; when null the server owns a private
  /// registry. Examples share the service's registry so one kStatsRequest
  /// scrape covers both (the server then skips its own render — the
  /// handler's ScrapeText() already includes these counters).
  observability::MetricsRegistry* metrics = nullptr;
};

/// \brief Admission/overload counters (observability/tests). A typed view
/// over the server's MetricsRegistry series (hyperq.server.*).
struct ServerStats {
  int64_t admitted = 0;      // connections handed to a worker thread
  int64_t shed = 0;          // connections refused with an error frame
  int64_t drained = 0;       // workers that finished within a drain deadline
  int64_t force_closed = 0;  // workers force-closed at the drain deadline
  int64_t scrapes = 0;       // kStatsRequest frames answered
  int64_t frame_stalls = 0;  // connections reaped by the slowloris guard
};

/// \brief tdwp TCP server; one thread per connection, started by the accept
/// thread while fewer than `max_connections` are served. Finished
/// connection threads are reaped as the server runs (not only at Stop()).
class TdwpServer {
 public:
  explicit TdwpServer(RequestHandler* handler,
                      TdwpServerOptions options = {});
  ~TdwpServer();

  /// \brief Binds 127.0.0.1:`port` (0 = ephemeral) and starts accepting.
  Status Start(uint16_t port = 0);

  /// \brief Stops the server. With `drain_deadline_ms` > 0 the shutdown is
  /// graceful: no new connections or requests are admitted, but workers
  /// get up to the deadline to finish (and answer) the request they are
  /// currently running; stragglers are then force-closed.
  void Stop(int drain_deadline_ms = 0);

  uint16_t port() const { return listener_.port(); }

  /// \brief Connections currently being served (observability/tests).
  size_t active_connections() const { return active_.load(); }
  /// \brief Connections refused by admission control (== stats().shed).
  int64_t rejected_connections() const;
  /// \brief Admission/overload counters.
  ServerStats stats() const;
  /// \brief Worker threads not yet joined (bounded by active connections
  /// plus a small reaping lag, never by server lifetime).
  size_t live_workers() const;
  /// \brief Joins finished connection workers now, releasing their held
  /// fds. Reaping otherwise piggybacks on the next accepted connection
  /// (or Stop()), so an idle server keeps a few closed-connection fds
  /// around; the chaos InvariantAuditor calls this before checking fd
  /// conservation.
  void ReapWorkers() { ReapFinishedWorkers(); }

 private:
  /// The worker's in-flight request, if any. Stop() uses it to route the
  /// drain through the QueryContext (clean cancel at a batch boundary)
  /// instead of cutting the socket mid-frame.
  struct ActiveQuery {
    std::mutex mutex;
    std::shared_ptr<QueryContext> ctx;  // non-null while a request runs
  };

  struct Worker {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
    // Kept alive here (not owned by the thread) so Stop() can shut the
    // socket down to wake a blocked read; closed when the worker is reaped.
    std::shared_ptr<Socket> conn;
    std::shared_ptr<ActiveQuery> active;
  };

  void AcceptLoop();
  void SpawnWorker(Socket conn);
  void ServeConnection(Socket& conn, ActiveQuery& active);
  void ReapFinishedWorkers();
  /// Answers `conn` with an error frame for `reason` and drops it.
  void ShedConnection(Socket conn, const Status& reason);

  RequestHandler* handler_;
  TdwpServerOptions options_;
  ListenSocket listener_;
  std::thread accept_thread_;
  std::vector<Worker> workers_;
  mutable std::mutex workers_mutex_;
  std::atomic<bool> running_{false};
  std::atomic<size_t> active_{0};

  // Admission counters live in the registry (options_.metrics or the
  // private fallback); the pointers are cached once at construction.
  std::unique_ptr<observability::MetricsRegistry> owned_metrics_;
  observability::MetricsRegistry* metrics_ = nullptr;
  observability::Counter* admitted_counter_ = nullptr;
  observability::Counter* shed_counter_ = nullptr;
  observability::Counter* drained_counter_ = nullptr;
  observability::Counter* force_closed_counter_ = nullptr;
  observability::Counter* scrape_counter_ = nullptr;
  observability::Counter* frame_stall_counter_ = nullptr;
};

}  // namespace hyperq::protocol
