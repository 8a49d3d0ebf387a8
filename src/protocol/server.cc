#include "protocol/server.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <mutex>

#include "common/fault.h"
#include "common/logging.h"
#include "observability/metric_names.h"

namespace hyperq::protocol {

namespace obs = observability;
using observability::names::Stage;

namespace {

/// The kError message for `status`: its code and its rendered message.
ErrorMessage ErrorOf(const Status& status) {
  return ErrorMessage{static_cast<uint32_t>(status.code()), status.ToString()};
}

std::vector<uint8_t> ErrorPayload(const Status& status) {
  return Encode(ErrorOf(status));
}

}  // namespace

TdwpServer::TdwpServer(RequestHandler* handler, TdwpServerOptions options)
    : handler_(handler), options_(options) {
  if (options_.metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  } else {
    metrics_ = options_.metrics;
  }
  admitted_counter_ = metrics_->counter(obs::names::kServerAdmitted);
  shed_counter_ = metrics_->counter(obs::names::kServerShed);
  drained_counter_ = metrics_->counter(obs::names::kServerDrained);
  force_closed_counter_ = metrics_->counter(obs::names::kServerForceClosed);
  scrape_counter_ = metrics_->counter(obs::names::kServerScrapes);
  frame_stall_counter_ = metrics_->counter(obs::names::kServerFrameStalls);
}

TdwpServer::~TdwpServer() { Stop(); }

Status TdwpServer::Start(uint16_t port) {
  HQ_ASSIGN_OR_RETURN(listener_, ListenSocket::BindLocal(port));
  running_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void TdwpServer::Stop(int drain_deadline_ms) {
  if (!running_.exchange(false)) return;
  listener_.Interrupt();
  listener_.Close();
  if (accept_thread_.joinable()) accept_thread_.join();

  // Snapshot in-flight workers so drained/force-closed accounting covers
  // exactly the connections that were live when shutdown began.
  std::vector<std::shared_ptr<std::atomic<bool>>> inflight;
  {
    std::lock_guard<std::mutex> lock(workers_mutex_);
    for (auto& w : workers_) {
      if (w.done->load()) continue;
      inflight.push_back(w.done);
      if (drain_deadline_ms <= 0) continue;
      // Graceful drain. A worker mid-request observes the drain through
      // its QueryContext: CheckAlive() cancels it at the next batch
      // boundary, so the client gets a well-formed error frame instead of
      // a torn one. The context deadline is set short of the force-close
      // deadline to leave room for that final frame. Only idle workers
      // (blocked in ReadFrame between requests) get their read side shut
      // to wake them; cutting an active worker's read side would make its
      // client probe misread the EOF as a vanished client.
      std::shared_ptr<QueryContext> ctx;
      if (w.active) {
        std::lock_guard<std::mutex> active_lock(w.active->mutex);
        ctx = w.active->ctx;
      }
      if (ctx) {
        int cancel_ms = std::max(1, drain_deadline_ms * 3 / 4);
        ctx->BeginDrain(Deadline::After(cancel_ms));
      } else if (w.conn && w.conn->valid()) {
        ::shutdown(w.conn->fd(), SHUT_RD);
      }
    }
  }
  if (drain_deadline_ms > 0) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(drain_deadline_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      bool all_done = true;
      for (auto& done : inflight) {
        if (!done->load()) {
          all_done = false;
          break;
        }
      }
      if (all_done) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // Wake (or cut off) whatever is still running: a client that never says
  // goodbye must not be able to wedge server shutdown.
  {
    std::lock_guard<std::mutex> lock(workers_mutex_);
    for (auto& w : workers_) {
      if (!w.done->load() && w.conn && w.conn->valid()) {
        ::shutdown(w.conn->fd(), SHUT_RDWR);
      }
    }
  }
  int64_t drained = 0, forced = 0;
  for (auto& done : inflight) {
    done->load() ? ++drained : ++forced;
  }
  if (drain_deadline_ms > 0) {
    drained_counter_->Inc(drained);
    force_closed_counter_->Inc(forced);
  }
  std::lock_guard<std::mutex> lock(workers_mutex_);
  for (auto& w : workers_) {
    if (w.thread.joinable()) w.thread.join();
  }
  workers_.clear();
}

size_t TdwpServer::live_workers() const {
  std::lock_guard<std::mutex> lock(workers_mutex_);
  return workers_.size();
}

int64_t TdwpServer::rejected_connections() const {
  return shed_counter_->value();
}

ServerStats TdwpServer::stats() const {
  ServerStats s;
  s.admitted = admitted_counter_->value();
  s.shed = shed_counter_->value();
  s.drained = drained_counter_->value();
  s.force_closed = force_closed_counter_->value();
  s.scrapes = scrape_counter_->value();
  s.frame_stalls = frame_stall_counter_->value();
  return s;
}

void TdwpServer::ReapFinishedWorkers() {
  std::lock_guard<std::mutex> lock(workers_mutex_);
  for (auto it = workers_.begin(); it != workers_.end();) {
    if (it->done->load()) {
      if (it->thread.joinable()) it->thread.join();
      it = workers_.erase(it);
    } else {
      ++it;
    }
  }
}

void TdwpServer::ShedConnection(Socket conn, const Status& reason) {
  shed_counter_->Inc();
  Frame f{MessageKind::kError, 0, ErrorPayload(reason)};
  (void)conn.SetSendTimeoutMs(1000);
  (void)conn.WriteFrame(f);
  // Socket dtor closes.
}

void TdwpServer::AcceptLoop() {
  while (running_) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (running_) {
        HQ_LOG(kWarn) << "tdwp accept failed: " << accepted.status();
      }
      return;
    }
    Socket conn = std::move(accepted).value();
    // Tag the link for the chaos seam: schedules targeting "frontend"
    // degrade exactly the proxy's client-facing edge.
    conn.set_link_scope(linkscopes::kFrontend);

    Status admit = FaultInjector::Global().Check(faultpoints::kServerAdmit);
    if (!admit.ok()) {
      ShedConnection(std::move(conn), admit);
      continue;
    }

    // Only this thread raises active_, so the check and the increment
    // cannot race past the cap; workers only lower it.
    size_t cap = options_.max_connections;
    if (cap != 0 && active_.load() >= cap) {
      // Saturated: answer with a clean error frame rather than accepting
      // work we cannot serve (or silently dropping the connection).
      ShedConnection(std::move(conn), Status::ResourceExhausted(
                                          "server at capacity (", cap,
                                          " connections); try again later"));
      continue;
    }
    admitted_counter_->Inc();
    active_.fetch_add(1);
    SpawnWorker(std::move(conn));
  }
}

void TdwpServer::SpawnWorker(Socket conn) {
  ReapFinishedWorkers();
  auto done = std::make_shared<std::atomic<bool>>(false);
  auto sock = std::make_shared<Socket>(std::move(conn));
  auto active = std::make_shared<ActiveQuery>();
  Worker w;
  w.done = done;
  w.conn = sock;
  w.active = active;
  w.thread = std::thread([this, done, sock, active] {
    ServeConnection(*sock, *active);
    // Send FIN so the peer sees EOF now; the fd itself stays allocated
    // until the worker is reaped, keeping Stop()'s shutdown pass safe
    // from fd reuse.
    if (sock->valid()) ::shutdown(sock->fd(), SHUT_RDWR);
    active_.fetch_sub(1);
    done->store(true);
  });
  std::lock_guard<std::mutex> lock(workers_mutex_);
  workers_.push_back(std::move(w));
}

namespace {

/// The QueryContext client probe (DESIGN.md §8): a look at the socket's read
/// buffer, and, when `poll` is set, a zero-timeout poll of the client socket
/// from inside the request path. The worker thread is not reading the
/// connection while a request runs, so any data here — already in the
/// socket's read buffer (pipelined behind the request) or readable from the
/// kernel — is either an abort/goodbye frame or EOF from a vanished client.
Status ProbeClient(Socket& conn, bool poll, CancelCause* cause) {
  if (!conn.valid()) {
    *cause = CancelCause::kClientGone;
    return Status::Cancelled("client connection closed");
  }
  if (conn.buffered() == 0) {
    if (!poll) return Status::OK();
    struct pollfd pfd;
    pfd.fd = conn.fd();
    pfd.events = POLLIN;
    pfd.revents = 0;
    int rc = ::poll(&pfd, 1, /*timeout=*/0);
    if (rc <= 0) return Status::OK();  // nothing pending (or EINTR): alive
    if ((pfd.revents & (POLLERR | POLLNVAL)) != 0) {
      *cause = CancelCause::kClientGone;
      return Status::Cancelled("client connection error mid-request");
    }
    if ((pfd.revents & (POLLIN | POLLHUP)) == 0) return Status::OK();
    char peek = 0;
    ssize_t n = ::recv(conn.fd(), &peek, 1, MSG_PEEK | MSG_DONTWAIT);
    if (n == 0) {
      *cause = CancelCause::kClientGone;
      return Status::Cancelled("client disconnected mid-request");
    }
    if (n < 0) return Status::OK();  // transient; re-probed next boundary
  }
  // A whole frame is pending while a request is in flight; tdwp is
  // synchronous, so it can only be an abort (or a goodbye racing the
  // result). Consume it.
  auto frame = conn.ReadFrame();
  if (!frame.ok()) {
    *cause = CancelCause::kClientGone;
    return Status::Cancelled("client connection lost mid-request: ",
                             frame.status().message());
  }
  if (frame->kind == MessageKind::kAbortRequest) {
    *cause = CancelCause::kClientAbort;
    return Status::Cancelled("query aborted by client request");
  }
  *cause = CancelCause::kClientGone;
  return Status::Cancelled("client sent ", static_cast<int>(frame->kind),
                           " mid-request; abandoning the query");
}

}  // namespace

void TdwpServer::ServeConnection(Socket& conn, ActiveQuery& active) {
  uint32_t session_id = 0;
  bool logged_on = false;
  auto send_error = [&](const Status& status) {
    (void)conn.WriteFrame(Frame{MessageKind::kError, 0, ErrorPayload(status)});
  };
  if (options_.idle_timeout_ms > 0) {
    (void)conn.SetRecvTimeoutMs(options_.idle_timeout_ms);
  }

  // All exits flow through the post-loop cleanup so a logged-on session is
  // never leaked by an early return (no silent thread death).
  bool serving = true;
  while (serving && running_) {
    auto frame = conn.ReadFrameGuarded(options_.frame_read_timeout_ms,
                                       options_.idle_timeout_ms);
    if (!frame.ok()) {
      const Status& st = frame.status();
      if (st.detail() == StatusDetail::kFrameStall) {
        // Slowloris guard: the peer started a frame but trickled it in too
        // slowly. Answer with the typed error so a well-meaning-but-slow
        // client can tell this reap from a network failure, then drop the
        // connection — its stream is mid-frame and unrecoverable.
        frame_stall_counter_->Inc();
        send_error(st);
      } else if (st.IsDeadlineExceeded()) {
        // Idle connection: tell the client why before reaping it.
        send_error(Status::DeadlineExceeded("idle connection closed after ",
                                            options_.idle_timeout_ms, "ms"));
      } else if (st.IsProtocolError()) {
        // Malformed traffic (e.g. oversized length prefix): answer with an
        // error frame, then drop the connection — resynchronizing a binary
        // stream after garbage is hopeless.
        send_error(st);
      }
      // kUnavailable = peer disconnected (possibly mid-frame): just close.
      break;
    }

    switch (frame->kind) {
      case MessageKind::kLogonRequest: {
        auto req = DecodeLogonRequest(frame->payload);
        if (!req.ok()) {
          send_error(req.status());
          break;
        }
        auto resp = handler_->Logon(*req);
        if (!resp.ok()) {
          send_error(resp.status());
          break;
        }
        session_id = resp->session_id;
        logged_on = resp->ok;
        Frame f{MessageKind::kLogonResponse, 0, Encode(*resp)};
        if (!conn.WriteFrame(f).ok()) serving = false;
        break;
      }
      case MessageKind::kRunRequest: {
        if (!logged_on) {
          send_error(Status::ProtocolError("RUN before LOGON"));
          break;
        }
        // The trace starts here — after the blocking idle read, so
        // wire.read measures frame decode, not time spent waiting for the
        // client to type (DESIGN.md §9).
        auto trace = std::make_shared<obs::QueryTrace>();
        trace->set_session_class("wire");
        int read_span = trace->StartSpan(Stage::kWireRead);
        auto req = DecodeRunRequest(frame->payload);
        trace->EndSpan(read_span);
        if (!req.ok()) {
          send_error(req.status());
          break;
        }
        // Mint the request's lifecycle handle: client probe and trace,
        // registered in the active slot so Stop() can route a drain (and
        // the kill API a cancel) through it. Its deadline is the handler's
        // to set (ServiceOptions::default_query_deadline_ms).
        auto ctx = std::make_shared<QueryContext>();
        ctx->SetClientProbe([&conn](bool poll, CancelCause* cause) {
          return ProbeClient(conn, poll, cause);
        });
        trace->set_session_id(session_id);
        trace->set_query(req->sql);
        ctx->set_trace(trace);
        {
          std::lock_guard<std::mutex> active_lock(active.mutex);
          active.ctx = ctx;
        }
        auto resp = handler_->Run(session_id, req->sql, ctx.get());
        auto outcome_of = [](const Status& st) {
          if (st.IsDeadlineExceeded()) return "deadline";
          if (st.IsCancelled()) return "cancelled";
          return st.ok() ? "ok" : "error";
        };
        std::string outcome = resp.ok() ? "ok" : outcome_of(resp.status());
        int write_span = trace->StartSpan(Stage::kWireWrite);
        Status write_status;
        if (!resp.ok()) {
          send_error(resp.status());
        } else {
          // The whole response — header, batches, success — is one buffer,
          // sized up front, and one send (DESIGN.md §9). Each frame is
          // encoded in place and its length written after its payload.
          size_t bytes = kFrameHeaderBytes + EncodedSize(resp->success);
          if (resp->has_rowset) {
            bytes += kFrameHeaderBytes + EncodedSize(resp->header);
            for (const auto& batch : resp->batches) {
              bytes += kFrameHeaderBytes + batch.size();
            }
          }
          BufferWriter out;
          out.Reserve(bytes);
          Status alive;
          if (resp->has_rowset) {
            size_t frame = BeginFrame(MessageKind::kResultHeader, &out);
            EncodeTo(resp->header, &out);
            EndFrame(frame, &out);
            for (const auto& batch : resp->batches) {
              // Poll the lifecycle before each batch: a client abort,
              // disconnect, deadline, kill, or drain ends the response at
              // a frame boundary (never a torn frame) with an error frame
              // in place of Success.
              alive = ctx->CheckAlive();
              if (!alive.ok()) break;
              frame = BeginFrame(MessageKind::kRecordBatch, &out);
              out.PutBytes(batch.data(), batch.size());
              EndFrame(frame, &out);
            }
          }
          if (alive.ok()) {
            size_t frame = BeginFrame(MessageKind::kSuccess, &out);
            EncodeTo(resp->success, &out);
            EndFrame(frame, &out);
          } else {
            outcome = outcome_of(alive);
            size_t frame = BeginFrame(MessageKind::kError, &out);
            EncodeTo(ErrorOf(alive), &out);
            EndFrame(frame, &out);
          }
          write_status = conn.WriteAll(out.data(), out.size());
        }
        {
          std::lock_guard<std::mutex> active_lock(active.mutex);
          active.ctx.reset();
        }
        ctx->ClearClientProbe();
        trace->EndSpan(write_span);
        trace->set_outcome(outcome);
        trace->Finish();
        handler_->OnQueryTraceFinished(trace);
        if (!write_status.ok()) {
          HQ_LOG(kWarn) << "tdwp session " << session_id
                        << ": response write failed: " << write_status;
          serving = false;
        }
        // A cancelled request ends the request, not the connection — the
        // same worker serves the session's next statement. But a vanished
        // client has no next statement to wait for.
        if (ctx->cause() == CancelCause::kClientGone) serving = false;
        break;
      }
      case MessageKind::kAbortRequest:
        // Abort with nothing in flight: the query it targeted already
        // finished (a benign race); there is nothing to cancel.
        break;
      case MessageKind::kStatsRequest: {
        // Admin scrape (DESIGN.md §9). Allowed pre-logon: monitoring
        // agents poll without credentials, and a scrape must work even
        // when logons are failing. The handler's registry comes first;
        // the server's own admission counters are appended only when it
        // keeps a private registry (a shared one already has them).
        scrape_counter_->Inc();
        StatsResponse sr;
        sr.text = handler_->ScrapeText();
        if (options_.metrics == nullptr) sr.text += metrics_->RenderText();
        Frame f{MessageKind::kStatsResponse, 0, Encode(sr)};
        if (!conn.WriteFrame(f).ok()) serving = false;
        break;
      }
      case MessageKind::kGoodbye:
        serving = false;
        break;
      default:
        send_error(Status::ProtocolError("unexpected message kind ",
                                         static_cast<int>(frame->kind)));
        break;
    }
  }
  if (logged_on) handler_->Logoff(session_id);
}

}  // namespace hyperq::protocol
