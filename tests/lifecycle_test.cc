// Query lifecycle & resource governance suite (ctest label: lifecycle):
// the DESIGN.md §8 state machine — cancellation from every source (client
// abort frame, client disconnect, operator kill, drain, deadline), the
// shed-or-spill policy under the process-wide ResourceGovernor, the
// cache-on-cancel rules, and a randomized chaos soak that proves nothing
// leaks (spill files, sessions, workers, governor bytes) under concurrent
// faults, aborts, and disconnects. Deterministic: fixed seeds, latencies
// chosen so every race has a wide window.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "backend/connector.h"
#include "backend/result_store.h"
#include "common/fault.h"
#include "common/query_context.h"
#include "common/resource_governor.h"
#include "protocol/client.h"
#include "protocol/server.h"
#include "service/hyperq_service.h"
#include "vdb/engine.h"

namespace hyperq {
namespace {

using protocol::TdwpClient;
using protocol::TdwpServer;
using protocol::TdwpServerOptions;

class LifecycleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().Reset();
    FaultInjector::Global().SetSeed(0x5EED);
  }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

service::ServiceOptions FastOptions() {
  service::ServiceOptions options;
  options.connector.retry.max_attempts = 4;
  options.connector.retry.base_delay_ms = 1;
  options.connector.retry.max_delay_ms = 2;
  return options;
}

template <typename Cond>
::testing::AssertionResult WaitFor(Cond cond, int timeout_ms = 2000) {
  for (int i = 0; i < timeout_ms; ++i) {
    if (cond()) return ::testing::AssertionSuccess();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (cond()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "condition not met within " << timeout_ms << "ms";
}

std::string MakeTempDir(const char* tag) {
  std::string tmpl = std::string("/tmp/hyperq_") + tag + "_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  char* dir = mkdtemp(buf.data());
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string("/tmp") : std::string(dir);
}

size_t DirFileCount(const std::string& dir) {
  size_t n = 0;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator(dir, ec);
       !ec && it != std::filesystem::directory_iterator(); ++it) {
    ++n;
  }
  return n;
}

/// `n` result rows (A INT = i, S VARCHAR(8) = "s<i>") in one batch.
std::shared_ptr<const vdb::ColumnBatch> StoreBatch(int n) {
  vdb::BatchBuilder b({SqlType::Int(), SqlType::Varchar(8)});
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(
        b.AppendRow({Datum::Int(i), Datum::String("s" + std::to_string(i))})
            .ok());
  }
  return b.Finish();
}

FaultSpec Latency(int ms, int max_fires = -1) {
  FaultSpec spec;
  spec.kind = FaultKind::kLatency;
  spec.latency_ms = ms;
  spec.max_fires = max_fires;
  return spec;
}

// --- QueryContext ------------------------------------------------------------

TEST_F(LifecycleTest, QueryContextFirstCancelWins) {
  QueryContext ctx;
  EXPECT_TRUE(ctx.CheckAlive().ok());
  EXPECT_EQ(ctx.cause(), CancelCause::kNone);

  ctx.Cancel(CancelCause::kKill, Status::Cancelled("query killed"));
  // A racing disconnect must not overwrite the recorded cause.
  ctx.Cancel(CancelCause::kClientGone, Status::Cancelled("client gone"));
  EXPECT_TRUE(ctx.cancelled());
  EXPECT_EQ(ctx.cause(), CancelCause::kKill);
  auto alive = ctx.CheckAlive();
  ASSERT_FALSE(alive.ok());
  EXPECT_TRUE(alive.IsCancelled());
  EXPECT_NE(alive.message().find("killed"), std::string::npos);
}

TEST_F(LifecycleTest, QueryContextDeadlineExpiresAsTyped) {
  QueryContext ctx;
  ctx.SetDeadline(Deadline::After(5));
  EXPECT_TRUE(ctx.has_deadline());
  ASSERT_TRUE(WaitFor([&] { return !ctx.CheckAlive().ok(); }));
  auto expired = ctx.CheckAlive();
  EXPECT_TRUE(expired.IsDeadlineExceeded());
  EXPECT_EQ(ctx.cause(), CancelCause::kDeadline);
}

TEST_F(LifecycleTest, QueryContextTightenNeverLoosens) {
  QueryContext ctx;
  ctx.SetDeadline(Deadline::After(5));
  // A later, looser deadline must not extend the budget.
  ctx.TightenDeadline(Deadline::After(60000));
  EXPECT_LT(ctx.deadline().RemainingMillis(), 1000.0);

  QueryContext ctx2;
  ctx2.TightenDeadline(Deadline::After(5));  // tighten from infinite
  EXPECT_TRUE(ctx2.has_deadline());
}

TEST_F(LifecycleTest, QueryContextDrainDeadlineCancelsWithDrainCause) {
  QueryContext ctx;
  ctx.BeginDrain(Deadline::After(5));
  ASSERT_TRUE(WaitFor([&] { return !ctx.CheckAlive().ok(); }));
  EXPECT_TRUE(ctx.CheckAlive().IsCancelled());
  EXPECT_EQ(ctx.cause(), CancelCause::kDrain);
}

// --- ResourceGovernor --------------------------------------------------------

TEST_F(LifecycleTest, GovernorEnforcesGlobalAndSessionCeilings) {
  ResourceGovernorOptions opts;
  opts.global_memory_bytes = 1000;
  opts.session_memory_bytes = 600;
  ResourceGovernor gov(opts);

  EXPECT_TRUE(gov.ReserveMemory(1, 500).ok());
  // Session 1 would exceed its per-session ceiling.
  EXPECT_TRUE(gov.ReserveMemory(1, 200).IsResourceExhausted());
  // Session 2 fits its own ceiling but the global one caps it.
  EXPECT_TRUE(gov.ReserveMemory(2, 400).ok());
  EXPECT_TRUE(gov.ReserveMemory(2, 200).IsResourceExhausted());

  auto stats = gov.stats();
  EXPECT_EQ(stats.memory_bytes, 900);
  EXPECT_EQ(stats.peak_memory_bytes, 900);
  EXPECT_EQ(stats.memory_denials, 2);

  gov.ReleaseMemory(1, 500);
  gov.ReleaseMemory(2, 400);
  EXPECT_EQ(gov.stats().memory_bytes, 0);

  // Tag 0 (unattributed: translation cache) is exempt from the per-session
  // ceiling and only bounded globally.
  EXPECT_TRUE(gov.ReserveMemory(0, 900).ok());
  gov.ReleaseMemory(0, 900);
}

TEST_F(LifecycleTest, GovernorBoundsSpillDisk) {
  ResourceGovernorOptions opts;
  opts.spill_disk_bytes = 500;
  ResourceGovernor gov(opts);

  EXPECT_TRUE(gov.ReserveSpill(400).ok());
  EXPECT_TRUE(gov.ReserveSpill(200).IsResourceExhausted());
  gov.NoteShed();

  auto stats = gov.stats();
  EXPECT_EQ(stats.spill_bytes, 400);
  EXPECT_EQ(stats.total_spill_bytes, 400);
  EXPECT_EQ(stats.spill_denials, 1);
  EXPECT_EQ(stats.shed_queries, 1);
  gov.ReleaseSpill(400);
  EXPECT_EQ(gov.stats().spill_bytes, 0);
  EXPECT_EQ(gov.stats().total_spill_bytes, 400);  // cumulative survives
}

// --- ResultStore: shed-or-spill ---------------------------------------------

TEST_F(LifecycleTest, StoreSpillsWhenGovernorDeniesMemory) {
  ResourceGovernorOptions opts;
  opts.global_memory_bytes = 64;  // any real batch is denied memory
  auto gov = std::make_shared<ResourceGovernor>(opts);
  std::string dir = MakeTempDir("spill");
  {
    backend::ResultStore store(/*memory_budget_bytes=*/1 << 20, dir, gov,
                               /*session_tag=*/7);
    store.set_schema({{"A", SqlType::Int()}, {"S", SqlType::Varchar(8)}});
    auto batch = StoreBatch(12);
    ASSERT_TRUE(store.AppendBatch(batch, 0, batch->rows).ok());
    EXPECT_EQ(store.spilled_batches(), 1u);
    EXPECT_GT(store.spilled_bytes(), 0);

    auto stats = gov->stats();
    EXPECT_GE(stats.memory_denials, 1);
    EXPECT_GT(stats.spill_bytes, 0);
    EXPECT_GT(stats.total_spill_bytes, 0);

    // The spilled batch reads back intact.
    std::vector<vdb::Row> seen;
    ASSERT_TRUE(store
                    .ScanSpans([&](const backend::BatchSpan& span) {
                      vdb::AppendRowsFromBatch(*span.batch, span.offset,
                                               span.offset + span.rows,
                                               &seen);
                      return Status::OK();
                    })
                    .ok());
    ASSERT_EQ(seen.size(), batch->rows);
    for (size_t r = 0; r < seen.size(); ++r) {
      EXPECT_EQ(seen[r][0].int_val(), static_cast<int64_t>(r));
      EXPECT_EQ(seen[r][1].string_val(), "s" + std::to_string(r));
    }
  }
  // Store destroyed: spill budget returned, spill file removed.
  EXPECT_EQ(gov->stats().spill_bytes, 0);
  EXPECT_EQ(DirFileCount(dir), 0u);
  std::filesystem::remove_all(dir);
}

TEST_F(LifecycleTest, StoreShedsWhenSpillBudgetExhausted) {
  ResourceGovernorOptions opts;
  opts.global_memory_bytes = 64;
  opts.spill_disk_bytes = 64;
  auto gov = std::make_shared<ResourceGovernor>(opts);
  std::string dir = MakeTempDir("shed");
  {
    backend::ResultStore store(1 << 20, dir, gov, 7);
    store.set_schema({{"A", SqlType::Int()}, {"S", SqlType::Varchar(8)}});
    auto batch = StoreBatch(12);  // encodes well past the 64-byte budget
    auto shed = store.AppendBatch(batch, 0, batch->rows);
    ASSERT_FALSE(shed.ok());
    EXPECT_TRUE(shed.IsResourceExhausted());
    EXPECT_NE(shed.message().find("shed"), std::string::npos);
  }
  auto stats = gov->stats();
  EXPECT_EQ(stats.spill_denials, 1);
  EXPECT_EQ(stats.shed_queries, 1);
  EXPECT_EQ(stats.spill_bytes, 0);
  EXPECT_EQ(DirFileCount(dir), 0u) << "a shed query must leave no files";
  std::filesystem::remove_all(dir);
}

// --- Translation cache under the governor ------------------------------------

TEST_F(LifecycleTest, TranslationCacheSharesGovernorBudget) {
  auto gov = std::make_shared<ResourceGovernor>(
      ResourceGovernorOptions{.global_memory_bytes = 1 << 20});
  vdb::Engine engine;
  auto options = FastOptions();
  options.governor = gov;
  auto service = std::make_unique<service::HyperQService>(&engine, options);
  auto sid = service->OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(
      service->Submit(*sid, "CREATE TABLE GT (A INTEGER, B INTEGER)").ok());
  ASSERT_TRUE(service->Submit(*sid, "INS INTO GT VALUES (1, 2)").ok());

  ASSERT_TRUE(service->Submit(*sid, "SEL B FROM GT WHERE A = 1").ok());
  {
    // Scoped: the outcome's ResultStore holds governor-reserved bytes
    // until it is destroyed.
    auto hit = service->Submit(*sid, "SEL B FROM GT WHERE A = 1");
    ASSERT_TRUE(hit.ok());
    EXPECT_EQ(hit->timing.cache_hits, 1);
  }

  // Resident cache bytes are reserved against the governor (tag 0); live
  // result stores are all released, so the two must agree exactly.
  auto cache = service->StatsSnapshot().translation_cache;
  EXPECT_GT(cache.bytes, 0u);
  EXPECT_EQ(gov->stats().memory_bytes, static_cast<int64_t>(cache.bytes));

  // Tearing the service down releases every cached byte.
  service.reset();
  EXPECT_EQ(gov->stats().memory_bytes, 0);
}

// --- Operator kill & deadlines ----------------------------------------------

TEST_F(LifecycleTest, KillQueryCancelsMidFetchWithinOneBatch) {
  vdb::Engine engine;
  auto options = FastOptions();
  options.connector.batch_rows = 1;  // a batch boundary after every row
  service::HyperQService service(&engine, options);
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(service.Submit(*sid, "CREATE TABLE KT (A INTEGER)").ok());
  std::string script;
  for (int i = 0; i < 10; ++i) {
    script += "INS INTO KT VALUES (" + std::to_string(i) + ");";
  }
  ASSERT_TRUE(service.SubmitScript(*sid, script).ok());

  // Nothing in flight yet: kill is a typed no-op.
  EXPECT_FALSE(service.KillQuery(*sid));

  FaultInjector::Global().Arm(faultpoints::kConnectorFetchBatch, Latency(30));
  Status result = Status::OK();
  std::thread runner([&] {
    auto r = service.Submit(*sid, "SEL * FROM KT");
    result = r.ok() ? Status::OK() : r.status();
  });
  ASSERT_TRUE(WaitFor([&] {
    return FaultInjector::Global().fires(faultpoints::kConnectorFetchBatch) >=
           2;
  }));
  EXPECT_TRUE(service.KillQuery(*sid));
  runner.join();

  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.IsCancelled());
  EXPECT_NE(result.message().find("killed"), std::string::npos);

  auto lifecycle = service.StatsSnapshot().lifecycle;
  EXPECT_EQ(lifecycle.cancelled, 1);
  EXPECT_EQ(lifecycle.killed, 1);
  EXPECT_EQ(lifecycle.client_gone, 0);
  EXPECT_FALSE(service.KillQuery(*sid)) << "query already unregistered";

  // The session survives the kill: the next query runs normally.
  FaultInjector::Global().Disarm(faultpoints::kConnectorFetchBatch);
  EXPECT_TRUE(service.Submit(*sid, "SEL COUNT(*) FROM KT").ok());
}

TEST_F(LifecycleTest, DefaultDeadlineExpiresMidFetch) {
  vdb::Engine engine;
  auto options = FastOptions();
  options.connector.batch_rows = 1;
  options.default_query_deadline_ms = 40;
  service::HyperQService service(&engine, options);
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(service.Submit(*sid, "CREATE TABLE DT (A INTEGER)").ok());
  std::string script;
  for (int i = 0; i < 10; ++i) {
    script += "INS INTO DT VALUES (" + std::to_string(i) + ");";
  }
  ASSERT_TRUE(service.SubmitScript(*sid, script).ok());

  FaultInjector::Global().Arm(faultpoints::kConnectorFetchBatch, Latency(20));
  auto start = std::chrono::steady_clock::now();
  auto slow = service.Submit(*sid, "SEL * FROM DT");
  auto elapsed_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  ASSERT_FALSE(slow.ok());
  EXPECT_TRUE(slow.status().IsDeadlineExceeded());
  // 10 rows x 20ms would be 200ms+; the 40ms budget cut it at a boundary.
  EXPECT_LT(elapsed_ms, 150.0);
  EXPECT_EQ(service.StatsSnapshot().lifecycle.deadline_expired, 1);
}

// --- Wire-level cancellation -------------------------------------------------

// Builds a service+server pair with a BIG table slow enough (per-batch
// latency) that cancellation always lands mid-stream.
struct WireRig {
  explicit WireRig(std::shared_ptr<ResourceGovernor> governor = nullptr,
                   int server_drain_rows = 10) {
    auto options = FastOptions();
    options.connector.batch_rows = 1;
    options.governor = std::move(governor);
    service = std::make_unique<service::HyperQService>(&engine, options);
    auto sid = service->OpenSession("loader");
    EXPECT_TRUE(sid.ok());
    EXPECT_TRUE(service->Submit(*sid, "CREATE TABLE BIG (A INTEGER)").ok());
    std::string script;
    for (int i = 0; i < server_drain_rows; ++i) {
      script += "INS INTO BIG VALUES (" + std::to_string(i) + ");";
    }
    EXPECT_TRUE(service->SubmitScript(*sid, script).ok());
    service->CloseSession(*sid);
    server = std::make_unique<TdwpServer>(service.get());
    EXPECT_TRUE(server->Start(0).ok());
  }
  ~WireRig() {
    if (server != nullptr) server->Stop();
  }

  vdb::Engine engine;
  std::unique_ptr<service::HyperQService> service;
  std::unique_ptr<TdwpServer> server;
};

TEST_F(LifecycleTest, ClientAbortFrameCancelsAndKeepsConnection) {
  WireRig rig;
  TdwpClient client;
  ASSERT_TRUE(client.Connect(rig.server->port()).ok());
  ASSERT_TRUE(client.Logon("app", "pw").ok());

  FaultInjector::Global().Arm(faultpoints::kConnectorFetchBatch, Latency(25));
  Status run_status = Status::OK();
  std::thread runner([&] {
    auto r = client.Run("SEL * FROM BIG");
    run_status = r.ok() ? Status::OK() : r.status();
  });
  ASSERT_TRUE(WaitFor([&] {
    return FaultInjector::Global().fires(faultpoints::kConnectorFetchBatch) >=
           2;
  }));
  ASSERT_TRUE(client.Abort().ok());
  runner.join();

  ASSERT_FALSE(run_status.ok());
  EXPECT_NE(run_status.message().find("abort"), std::string::npos)
      << run_status;
  EXPECT_GE(rig.service->StatsSnapshot().lifecycle.cancelled, 1);

  // The abort killed the request, not the connection: the same socket
  // serves the next query.
  FaultInjector::Global().Disarm(faultpoints::kConnectorFetchBatch);
  auto next = client.Run("SEL COUNT(*) FROM BIG");
  ASSERT_TRUE(next.ok()) << next.status();
  client.Goodbye();
}

TEST_F(LifecycleTest, ClientGoneMidRequestFreesWorkerAndSession) {
  WireRig rig;
  FaultInjector::Global().Arm(faultpoints::kConnectorFetchBatch, Latency(25));
  {
    auto raw = protocol::Socket::ConnectLocal(rig.server->port());
    ASSERT_TRUE(raw.ok());
    protocol::LogonRequest req{"ghost", "pw", "", "ASCII"};
    protocol::Frame logon{protocol::MessageKind::kLogonRequest, 0,
                          protocol::Encode(req)};
    ASSERT_TRUE(raw->WriteFrame(logon).ok());
    ASSERT_TRUE(raw->ReadFrame().ok());
    protocol::RunRequest run{"SEL * FROM BIG"};
    protocol::Frame f{protocol::MessageKind::kRunRequest, 0,
                      protocol::Encode(run)};
    ASSERT_TRUE(raw->WriteFrame(f).ok());
    ASSERT_TRUE(WaitFor([&] {
      return FaultInjector::Global().fires(
                 faultpoints::kConnectorFetchBatch) >= 2;
    }));
  }  // the client vanishes while its request streams

  // The probe notices the dead socket at the next batch boundary; the
  // worker cancels, tears down, and logs the session off.
  ASSERT_TRUE(WaitFor([&] { return rig.server->active_connections() == 0; }));
  ASSERT_TRUE(WaitFor([&] { return rig.service->open_sessions() == 0; }));
  auto lifecycle = rig.service->StatsSnapshot().lifecycle;
  EXPECT_GE(lifecycle.cancelled, 1);
  EXPECT_GE(lifecycle.client_gone, 1);
  EXPECT_EQ(rig.server->stats().force_closed, 0);
}

TEST_F(LifecycleTest, StopDrainCancelsStreamingAtFrameBoundary) {
  WireRig rig;
  TdwpClient client;
  ASSERT_TRUE(client.Connect(rig.server->port()).ok());
  ASSERT_TRUE(client.Logon("app", "pw").ok());

  // 10 rows x 50ms/batch = 500ms of streaming; the 300ms drain deadline
  // (drain cancel at 225ms) lands mid-stream, well before force-close.
  FaultInjector::Global().Arm(faultpoints::kConnectorFetchBatch, Latency(50));
  Status run_status = Status::OK();
  std::thread runner([&] {
    auto r = client.Run("SEL * FROM BIG");
    run_status = r.ok() ? Status::OK() : r.status();
  });
  ASSERT_TRUE(WaitFor([&] {
    return FaultInjector::Global().fires(faultpoints::kConnectorFetchBatch) >=
           2;
  }));
  rig.server->Stop(/*drain_deadline_ms=*/300);
  runner.join();

  // The client got a clean, typed error frame — not a torn connection.
  ASSERT_FALSE(run_status.ok());
  EXPECT_NE(run_status.message().find("drain"), std::string::npos)
      << run_status;
  auto stats = rig.server->stats();
  EXPECT_EQ(stats.drained, 1);
  EXPECT_EQ(stats.force_closed, 0);
  EXPECT_EQ(rig.server->live_workers(), 0u);
  EXPECT_GE(rig.service->StatsSnapshot().lifecycle.cancelled, 1);
  rig.server.reset();  // already stopped
}

// --- Pipelined frames ---------------------------------------------------------
// A client may send its abort or goodbye in the same send() as the request.
// The server's one recv then takes in both frames, so the client probe has
// to find the second one in the socket's read buffer, not in the kernel.

// Logs a raw socket on, then sends a RUN for `sql` followed by `second` in
// one send. Returns the frames of the reply, up to its Success or Error.
std::vector<protocol::Frame> RunPipelined(protocol::Socket& raw,
                                          const std::string& sql,
                                          protocol::MessageKind second) {
  using protocol::MessageKind;
  protocol::LogonRequest logon{"app", "pw", "", "ASCII"};
  EXPECT_TRUE(raw.WriteFrame(protocol::Frame{MessageKind::kLogonRequest, 0,
                                             protocol::Encode(logon)})
                  .ok());
  EXPECT_TRUE(raw.ReadFrame().ok());
  std::vector<uint8_t> bytes;
  protocol::AppendFrame(MessageKind::kRunRequest,
                        protocol::Encode(protocol::RunRequest{sql}), &bytes);
  protocol::AppendFrame(second, {}, &bytes);
  EXPECT_TRUE(raw.WriteAll(bytes.data(), bytes.size()).ok());
  std::vector<protocol::Frame> reply;
  while (reply.empty() || (reply.back().kind != MessageKind::kSuccess &&
                           reply.back().kind != MessageKind::kError)) {
    auto frame = raw.ReadFrame();
    EXPECT_TRUE(frame.ok()) << frame.status();
    if (!frame.ok()) break;
    reply.push_back(std::move(frame).value());
  }
  return reply;
}

TEST_F(LifecycleTest, RunAndAbortInOneSendCancelsAsClientAbort) {
  WireRig rig;
  auto raw = protocol::Socket::ConnectLocal(rig.server->port());
  ASSERT_TRUE(raw.ok());
  auto reply =
      RunPipelined(*raw, "SEL * FROM BIG", protocol::MessageKind::kAbortRequest);
  ASSERT_FALSE(reply.empty());
  ASSERT_EQ(reply.back().kind, protocol::MessageKind::kError);
  auto err = protocol::DecodeError(reply.back().payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->code, static_cast<uint32_t>(StatusCode::kCancelled));
  EXPECT_NE(err->message.find("aborted by client request"), std::string::npos)
      << err->message;

  // A client abort ends the request, not the connection.
  protocol::RunRequest next{"SEL COUNT(*) FROM BIG"};
  ASSERT_TRUE(raw->WriteFrame(protocol::Frame{protocol::MessageKind::kRunRequest,
                                              0, protocol::Encode(next)})
                  .ok());
  protocol::MessageKind last = protocol::MessageKind::kError;
  for (int i = 0; i < 3; ++i) {
    auto frame = raw->ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status();
    last = frame->kind;
    if (last == protocol::MessageKind::kSuccess) break;
  }
  EXPECT_EQ(last, protocol::MessageKind::kSuccess);
}

TEST_F(LifecycleTest, RunAndGoodbyeInOneSendIsClientGone) {
  WireRig rig;
  auto raw = protocol::Socket::ConnectLocal(rig.server->port());
  ASSERT_TRUE(raw.ok());
  auto reply =
      RunPipelined(*raw, "SEL * FROM BIG", protocol::MessageKind::kGoodbye);
  ASSERT_FALSE(reply.empty());
  ASSERT_EQ(reply.back().kind, protocol::MessageKind::kError);
  auto err = protocol::DecodeError(reply.back().payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->code, static_cast<uint32_t>(StatusCode::kCancelled));
  EXPECT_NE(err->message.find("abandoning the query"), std::string::npos)
      << err->message;
  // A vanished client has no next statement: the server closes the link.
  EXPECT_TRUE(raw->ReadFrame().status().IsUnavailable());
  ASSERT_TRUE(WaitFor([&] { return rig.server->active_connections() == 0; }));
  ASSERT_TRUE(WaitFor([&] { return rig.service->open_sessions() == 0; }));
}

// --- Cancellation vs the translation cache -----------------------------------

TEST_F(LifecycleTest, CancelledExecutionStillAdmitsTemplate) {
  vdb::Engine engine;
  service::HyperQService service(&engine, FastOptions());
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(
      service.Submit(*sid, "CREATE TABLE CS (QTY INTEGER, AMOUNT INTEGER)")
          .ok());
  ASSERT_TRUE(service.Submit(*sid, "INS INTO CS VALUES (5, 50)").ok());
  // The INS above is itself cacheable; measure deltas from here.
  auto baseline = service.StatsSnapshot().translation_cache;

  // The pipeline serializes before execution; the kill lands inside the
  // (delayed) execute, after a perfectly good translation existed.
  FaultInjector::Global().Arm(faultpoints::kVdbExecute,
                              Latency(80, /*max_fires=*/1));
  Status result = Status::OK();
  std::thread runner([&] {
    auto r = service.Submit(*sid, "SEL AMOUNT FROM CS WHERE QTY = 5");
    result = r.ok() ? Status::OK() : r.status();
  });
  ASSERT_TRUE(WaitFor([&] {
    return FaultInjector::Global().fires(faultpoints::kVdbExecute) >= 1;
  }));
  EXPECT_TRUE(service.KillQuery(*sid));
  runner.join();
  ASSERT_TRUE(result.IsCancelled()) << result;

  // The template was admitted despite the cancellation...
  auto cache = service.StatsSnapshot().translation_cache;
  EXPECT_EQ(cache.inserts, baseline.inserts + 1);
  EXPECT_EQ(cache.entries, baseline.entries + 1);

  // ...so the clean re-run (different literal) is a splice-only hit.
  auto hit = service.Submit(*sid, "SEL AMOUNT FROM CS WHERE QTY = 4");
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_EQ(hit->timing.cache_hits, 1);
}

TEST_F(LifecycleTest, CancelledRunDoesNotPoisonNegativeCache) {
  vdb::Engine engine;
  service::HyperQService service(&engine, FastOptions());
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(
      service
          .Submit(*sid, "CREATE TABLE SALES (SALES_DATE DATE, QTY INTEGER)")
          .ok());
  ASSERT_TRUE(service
                  .Submit(*sid,
                          "INS INTO SALES VALUES (DATE '2014-06-01', 7)")
                  .ok());
  // The INS above is itself cacheable; measure deltas from here.
  auto baseline = service.StatsSnapshot().translation_cache;

  // Ordinal GROUP BY is the canonical executable-but-uncacheable shape: a
  // clean run plants the negative "uncacheable" marker. A cancelled run
  // proves nothing about the shape and must plant nothing.
  const std::string kShape =
      "SEL EXTRACT(YEAR FROM SALES_DATE), COUNT(*) FROM SALES "
      "WHERE QTY > 5 GROUP BY 1";
  FaultInjector::Global().Arm(faultpoints::kVdbExecute,
                              Latency(80, /*max_fires=*/1));
  Status result = Status::OK();
  std::thread runner([&] {
    auto r = service.Submit(*sid, kShape);
    result = r.ok() ? Status::OK() : r.status();
  });
  ASSERT_TRUE(WaitFor([&] {
    return FaultInjector::Global().fires(faultpoints::kVdbExecute) >= 1;
  }));
  EXPECT_TRUE(service.KillQuery(*sid));
  runner.join();
  ASSERT_TRUE(result.IsCancelled()) << result;
  EXPECT_EQ(service.StatsSnapshot().translation_cache.entries, baseline.entries)
      << "a cancelled probe must not negative-cache the shape";

  // The clean run plants the marker; the next run bypasses via the marker.
  ASSERT_TRUE(service.Submit(*sid, kShape).ok());
  EXPECT_EQ(service.StatsSnapshot().translation_cache.entries, baseline.entries + 1);
  auto bypass = service.Submit(*sid, kShape);
  ASSERT_TRUE(bypass.ok());
  EXPECT_EQ(bypass->timing.cache_hits, 0);
}

// --- Chaos soak --------------------------------------------------------------

// Acceptance: >=200 queries over >=8 concurrent wire sessions with random
// aborts, mid-request disconnects, injected backend faults, tiny memory
// budgets (forcing spill), and a final graceful drain — with zero leaked
// spill files, sessions, workers, or governor bytes, and a clean health
// query at the end.
TEST_F(LifecycleTest, ChaosSoak) {
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 25;

  ResourceGovernorOptions gov_opts;
  gov_opts.global_memory_bytes = 256 << 10;
  gov_opts.session_memory_bytes = 64 << 10;
  gov_opts.spill_disk_bytes = 8 << 20;
  auto gov = std::make_shared<ResourceGovernor>(gov_opts);

  std::string spill_dir = MakeTempDir("soak");
  vdb::Engine engine;
  auto options = FastOptions();
  options.connector.batch_rows = 16;
  options.connector.store_memory_budget = 2048;  // most results spill
  options.connector.spill_dir = spill_dir;
  options.governor = gov;
  options.default_query_deadline_ms = 5000;
  auto service = std::make_unique<service::HyperQService>(&engine, options);

  {
    auto sid = service->OpenSession("loader");
    ASSERT_TRUE(sid.ok());
    ASSERT_TRUE(service->Submit(*sid, "CREATE TABLE BIG (A INTEGER)").ok());
    std::string script;
    for (int i = 0; i < 300; ++i) {
      script += "INS INTO BIG VALUES (" + std::to_string(i) + ");";
    }
    ASSERT_TRUE(service->SubmitScript(*sid, script).ok());
    service->CloseSession(*sid);
  }

  TdwpServer server(service.get());
  ASSERT_TRUE(server.Start(0).ok());

  // Seeded background faults on the backend path; the fast retry policy
  // absorbs most of them, the rest surface as typed errors.
  FaultSpec flaky;
  flaky.kind = FaultKind::kTransient;
  flaky.probability = 0.05;
  FaultInjector::Global().Arm(faultpoints::kVdbExecute, flaky);
  FaultInjector::Global().Arm(faultpoints::kConnectorFetchBatch, flaky);

  const std::vector<std::string> kQueries = {
      "SEL * FROM BIG",
      "SEL COUNT(*) FROM BIG",
      "SEL A FROM BIG WHERE A > 100",
      "SEL A FROM BIG WHERE A = 7",
  };

  std::atomic<int> completed{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TdwpClient client;
      ASSERT_TRUE(client.Connect(server.port()).ok());
      ASSERT_TRUE(client.Logon("soak" + std::to_string(t), "pw").ok());
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const std::string& sql = kQueries[(t + i) % kQueries.size()];
        std::thread aborter;
        if (i % 6 == 5) {
          // Race an abort frame against the running request; either
          // outcome (cancelled or completed) is legal.
          aborter = std::thread([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(1 + t % 3));
            (void)client.Abort();
          });
        }
        auto r = client.Run(sql);
        if (aborter.joinable()) aborter.join();
        (r.ok() ? completed : failed).fetch_add(1);

        if (i == 12) {
          // A ghost peer: logs on, starts a request, vanishes.
          auto raw = protocol::Socket::ConnectLocal(server.port());
          if (raw.ok()) {
            protocol::LogonRequest req{"ghost" + std::to_string(t), "pw", "",
                                       "ASCII"};
            protocol::Frame logon{protocol::MessageKind::kLogonRequest, 0,
                                  protocol::Encode(req)};
            if (raw->WriteFrame(logon).ok() && raw->ReadFrame().ok()) {
              protocol::RunRequest run{"SEL * FROM BIG"};
              protocol::Frame f{protocol::MessageKind::kRunRequest, 0,
                                protocol::Encode(run)};
              (void)raw->WriteFrame(f);
              std::this_thread::sleep_for(std::chrono::milliseconds(3));
            }
          }  // socket closes here, mid-request
        }
      }
      client.Goodbye();
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(completed.load() + failed.load(), kThreads * kQueriesPerThread);
  EXPECT_GT(completed.load(), kThreads * kQueriesPerThread / 2)
      << "the soak should mostly succeed; failures are injected faults";

  // Every worker (including the ghosts') winds down and logs off.
  ASSERT_TRUE(WaitFor([&] { return server.active_connections() == 0; }, 5000));
  ASSERT_TRUE(WaitFor([&] { return service->open_sessions() == 0; }, 5000));

  // Health check on a quiet system with faults disarmed.
  FaultInjector::Global().Reset();
  {
    TdwpClient health;
    ASSERT_TRUE(health.Connect(server.port()).ok());
    ASSERT_TRUE(health.Logon("health", "pw").ok());
    auto r = health.Run("SEL COUNT(*) FROM BIG");
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_EQ(r->rows.size(), 1u);
    EXPECT_EQ(r->rows[0][0].int_val(), 300);
    health.Goodbye();
  }

  server.Stop(/*drain_deadline_ms=*/1000);
  EXPECT_EQ(server.live_workers(), 0u);

  // Governance ledger squares: spill fully returned (and exercised), the
  // only resident memory is the translation cache's, and tearing the
  // service down returns that too. No spill files survive.
  auto stats = gov->stats();
  EXPECT_EQ(stats.spill_bytes, 0);
  EXPECT_GT(stats.total_spill_bytes, 0) << "the soak should have spilled";
  EXPECT_EQ(stats.memory_bytes,
            static_cast<int64_t>(
                service->StatsSnapshot().translation_cache.bytes));
  EXPECT_GE(service->StatsSnapshot().lifecycle.spill_bytes, 0);
  service.reset();
  EXPECT_EQ(gov->stats().memory_bytes, 0);
  EXPECT_EQ(DirFileCount(spill_dir), 0u) << "leaked spill files";
  std::filesystem::remove_all(spill_dir);
}

}  // namespace
}  // namespace hyperq
