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

namespace {

/// The kError payload for `status`: its code and its rendered message.
std::vector<uint8_t> ErrorPayload(const Status& status) {
  ErrorMessage err;
  err.code = static_cast<uint32_t>(status.code());
  err.message = status.ToString();
  return Encode(err);
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
  queued_peak_gauge_ = metrics_->gauge(obs::names::kServerQueuedPeak);
  drained_counter_ = metrics_->counter(obs::names::kServerDrained);
  force_closed_counter_ = metrics_->counter(obs::names::kServerForceClosed);
  user_capped_counter_ =
      metrics_->counter(obs::names::kServerUserCappedLogons);
  scrape_counter_ = metrics_->counter(obs::names::kServerScrapes);
  frame_stall_counter_ = metrics_->counter(obs::names::kServerFrameStalls);
}

TdwpServer::~TdwpServer() { Stop(); }

Status TdwpServer::Start(uint16_t port) {
  HQ_ASSIGN_OR_RETURN(listener_, ListenSocket::BindLocal(port));
  running_ = true;
  {
    std::lock_guard<std::mutex> lock(admit_mutex_);
    dispatch_running_ = true;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  dispatch_thread_ = std::thread([this] { DispatchLoop(); });
  return Status::OK();
}

void TdwpServer::Stop(int drain_deadline_ms) {
  if (!running_.exchange(false)) return;
  listener_.Interrupt();
  listener_.Close();
  if (accept_thread_.joinable()) accept_thread_.join();

  // Stop the dispatcher, then refuse everything still waiting in the
  // admission queue with a clean frame (it was never handed to a worker).
  {
    std::lock_guard<std::mutex> lock(admit_mutex_);
    dispatch_running_ = false;
  }
  admit_cv_.notify_all();
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
  std::deque<Socket> leftover;
  {
    std::lock_guard<std::mutex> lock(admit_mutex_);
    leftover.swap(pending_);
  }
  for (auto& conn : leftover) {
    ShedConnection(std::move(conn),
                   Status::Unavailable("server shutting down"));
  }

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

size_t TdwpServer::queued_connections() const {
  std::lock_guard<std::mutex> lock(admit_mutex_);
  return pending_.size();
}

int64_t TdwpServer::rejected_connections() const {
  return shed_counter_->value();
}

ServerStats TdwpServer::stats() const {
  ServerStats s;
  s.admitted = admitted_counter_->value();
  s.shed = shed_counter_->value();
  s.queued_peak = queued_peak_gauge_->value();
  s.drained = drained_counter_->value();
  s.force_closed = force_closed_counter_->value();
  s.user_capped_logons = user_capped_counter_->value();
  s.scrapes = scrape_counter_->value();
  s.frame_stalls = frame_stall_counter_->value();
  return s;
}

size_t TdwpServer::EffectiveLowWatermark() const {
  if (options_.queue_low_watermark == 0) return options_.admission_queue_depth;
  return std::min(options_.queue_low_watermark,
                  options_.admission_queue_depth);
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

    bool shed = false;
    Status reason;
    {
      std::lock_guard<std::mutex> lock(admit_mutex_);
      size_t cap = options_.max_connections;
      size_t active = active_.load();
      size_t free_slots =
          cap == 0 ? SIZE_MAX : (active < cap ? cap - active : 0);
      if (free_slots == SIZE_MAX || pending_.size() < free_slots) {
        // A worker slot is free: the dispatcher will pick this up
        // immediately; it never counts against the queue.
        pending_.push_back(std::move(conn));
      } else {
        size_t waiting = pending_.size() - free_slots;
        if (shedding_ || waiting >= options_.admission_queue_depth) {
          // Saturated: answer with a clean error frame rather than
          // accepting work we cannot serve (or silently dropping the
          // connection).
          shed = true;
          reason = Status::ResourceExhausted(
              "server at capacity (", cap, " connections, admission queue ",
              options_.admission_queue_depth, "); try again later");
        } else {
          pending_.push_back(std::move(conn));
          ++waiting;
          queued_peak_gauge_->SetMax(static_cast<int64_t>(waiting));
          if (waiting >= options_.admission_queue_depth) shedding_ = true;
        }
      }
    }
    if (shed) {
      ShedConnection(std::move(conn), reason);
    } else {
      admit_cv_.notify_all();
    }
  }
}

void TdwpServer::DispatchLoop() {
  std::unique_lock<std::mutex> lock(admit_mutex_);
  while (true) {
    admit_cv_.wait(lock, [&] {
      return !dispatch_running_ ||
             (!pending_.empty() &&
              (options_.max_connections == 0 ||
               active_.load() < options_.max_connections));
    });
    if (!dispatch_running_) return;
    Socket conn = std::move(pending_.front());
    pending_.pop_front();
    if (shedding_ && pending_.size() <= EffectiveLowWatermark()) {
      shedding_ = false;
    }
    admitted_counter_->Inc();
    active_.fetch_add(1);
    lock.unlock();
    SpawnWorker(std::move(conn));
    lock.lock();
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
    {
      // Decrement under the admission lock so the dispatcher's capacity
      // check cannot miss the wakeup that follows.
      std::lock_guard<std::mutex> lock(admit_mutex_);
      active_.fetch_sub(1);
    }
    done->store(true);
    admit_cv_.notify_all();
  });
  std::lock_guard<std::mutex> lock(workers_mutex_);
  workers_.push_back(std::move(w));
}

void TdwpServer::ReleaseUserSlot(const std::string& user) {
  std::lock_guard<std::mutex> lock(admit_mutex_);
  auto it = user_sessions_.find(user);
  if (it != user_sessions_.end() && it->second > 0 && --it->second == 0) {
    user_sessions_.erase(it);
  }
}

namespace {

/// The QueryContext client probe (DESIGN.md §8): a zero-timeout poll of the
/// client socket from inside the request path. The worker thread is not
/// reading the connection while a request runs, so any data here — already
/// in the socket's read buffer (pipelined behind the request) or readable
/// from the kernel — is either an abort/goodbye frame or EOF from a
/// vanished client.
Status ProbeClient(Socket& conn, CancelCause* cause) {
  if (!conn.valid()) {
    *cause = CancelCause::kClientGone;
    return Status::Cancelled("client connection closed");
  }
  if (conn.buffered() == 0) {
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
  std::string counted_user;  // non-empty: holds a per-user session slot
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
        if (!counted_user.empty()) {
          // Re-logon on the same connection: release the old user's slot.
          ReleaseUserSlot(counted_user);
          counted_user.clear();
        }
        if (options_.max_sessions_per_user > 0) {
          bool capped = false;
          {
            std::lock_guard<std::mutex> lock(admit_mutex_);
            size_t& n = user_sessions_[req->user];
            if (n >= options_.max_sessions_per_user) {
              capped = true;
            } else {
              ++n;
            }
          }
          if (capped) user_capped_counter_->Inc();
          if (capped) {
            send_error(Status::ResourceExhausted(
                "too many concurrent sessions for user '", req->user,
                "' (limit ", options_.max_sessions_per_user,
                "); try again later"));
            break;
          }
          counted_user = req->user;
        }
        auto resp = handler_->Logon(*req);
        if (!resp.ok()) {
          if (!counted_user.empty()) {
            ReleaseUserSlot(counted_user);
            counted_user.clear();
          }
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
        std::shared_ptr<obs::QueryTrace> trace;
        int read_span = -1;
        if (options_.tracing) {
          trace = std::make_shared<obs::QueryTrace>();
          trace->set_session_class("wire");
          read_span = trace->StartSpan("wire.read");
        }
        auto req = DecodeRunRequest(frame->payload);
        if (trace) trace->EndSpan(read_span);
        if (!req.ok()) {
          send_error(req.status());
          break;
        }
        // Mint the request's lifecycle handle: deadline + client probe,
        // registered in the active slot so Stop() can route a drain (and
        // the kill API a cancel) through it.
        auto ctx = std::make_shared<QueryContext>();
        if (options_.request_deadline_ms > 0) {
          ctx->SetDeadline(Deadline::After(options_.request_deadline_ms));
        }
        ctx->SetClientProbe([&conn](CancelCause* cause) {
          return ProbeClient(conn, cause);
        });
        if (trace) {
          trace->set_session_id(session_id);
          trace->set_query(req->sql);
          ctx->set_trace(trace);
        }
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
        int write_span = trace ? trace->StartSpan("wire.write") : -1;
        Status write_status;
        if (!resp.ok()) {
          send_error(resp.status());
        } else {
          // The whole response — header, batches, success — is one buffer
          // and one send (DESIGN.md §9), sized up front.
          std::vector<uint8_t> header;
          std::vector<uint8_t> success = Encode(resp->success);
          size_t bytes = kFrameHeaderBytes + success.size();
          if (resp->has_rowset) {
            header = Encode(resp->header);
            bytes += kFrameHeaderBytes + header.size();
            for (const auto& batch : resp->batches) {
              bytes += kFrameHeaderBytes + batch.size();
            }
          }
          std::vector<uint8_t> out;
          out.reserve(bytes);
          Status alive;
          if (resp->has_rowset) {
            AppendFrame(MessageKind::kResultHeader, header, &out);
            for (const auto& batch : resp->batches) {
              // Poll the lifecycle before each batch: a client abort,
              // disconnect, deadline, kill, or drain ends the response at
              // a frame boundary (never a torn frame) with an error frame
              // in place of Success.
              alive = ctx->CheckAlive();
              if (!alive.ok()) break;
              AppendFrame(MessageKind::kRecordBatch, batch, &out);
            }
          }
          if (alive.ok()) {
            AppendFrame(MessageKind::kSuccess, success, &out);
          } else {
            outcome = outcome_of(alive);
            AppendFrame(MessageKind::kError, ErrorPayload(alive), &out);
          }
          write_status = conn.WriteAll(out.data(), out.size());
        }
        {
          std::lock_guard<std::mutex> active_lock(active.mutex);
          active.ctx.reset();
        }
        ctx->ClearClientProbe();
        if (trace) {
          trace->EndSpan(write_span);
          trace->set_outcome(outcome);
          trace->Finish();
          handler_->OnQueryTraceFinished(trace);
        }
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
  if (!counted_user.empty()) ReleaseUserSlot(counted_user);
}

}  // namespace hyperq::protocol
