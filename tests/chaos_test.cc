// Network chaos suite (ctest label `chaos`, DESIGN.md §13): the ChaosNet
// link-fault engine (deterministic schedules, short I/O, corruption,
// resets, one-way partitions), the scenario DSL and orchestrator
// (apply / hold / heal, pass or fail), the slowloris frame-read guard,
// the invariant auditor (planted violations must be caught), and the
// mixed-fault soak: partition + latency + kill/revive + short I/O under
// 8 concurrent sessions with ≥99% query success and a clean audit.
//
// Soak length comes from HQ_CHAOS_SOAK_MS (default 60000). scripts/tier1.sh
// shortens it for the sanitizer passes; scripts/chaos_nightly.sh runs the
// full minute and longer.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "backend/pool.h"
#include "chaos/auditor.h"
#include "chaos/link.h"
#include "chaos/orchestrator.h"
#include "chaos/scenario.h"
#include "chaos/workload.h"
#include "common/fault.h"
#include "common/link_shim.h"
#include "common/resource_governor.h"
#include "observability/metric_names.h"
#include "protocol/client.h"
#include "protocol/server.h"
#include "protocol/socket.h"
#include "service/hyperq_service.h"
#include "transform/backend_profile.h"
#include "vdb/engine.h"

namespace hyperq {
namespace {

namespace names = observability::names;
using chaos::ChaosNet;
using chaos::ChaosOrchestrator;
using chaos::ChaosWorkload;
using chaos::ClientLedger;
using chaos::InvariantAuditor;
using chaos::LinkFaults;
using chaos::ParseScenario;
using protocol::Frame;
using protocol::MessageKind;
using protocol::Socket;
using protocol::TdwpClient;
using protocol::TdwpServer;
using protocol::TdwpServerOptions;

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().Reset();
    ASSERT_EQ(GlobalLinkShim(), nullptr)
        << "a previous test leaked an installed link shim";
  }
  void TearDown() override {
    SetGlobalLinkShim(nullptr);
    FaultInjector::Global().Reset();
  }
};

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

std::vector<backend::BackendSpec> Replicas(int n) {
  std::vector<backend::BackendSpec> specs(n);
  for (int i = 0; i < n; ++i) {
    specs[i].name = "r" + std::to_string(i);
    specs[i].profile = transform::BackendProfile::Vdb();
  }
  return specs;
}

service::ServiceOptions FleetServiceOptions(int replicas) {
  service::ServiceOptions options;
  options.connector.retry.max_attempts = 2;
  options.connector.retry.base_delay_ms = 1;
  options.connector.retry.max_delay_ms = 2;
  options.fleet.backends = Replicas(replicas);
  return options;
}

// --- ChaosNet: the link-fault engine -----------------------------------------

TEST_F(ChaosTest, SameSeedSameFaultSchedule) {
  auto roll = [](uint64_t seed) {
    ChaosNet net(seed);
    LinkFaults f;
    f.short_io_probability = 0.5;
    f.reset_probability = 0.2;
    f.corrupt_send_probability = 0.3;
    net.Configure(linkscopes::kClient, f);
    std::string trace;
    for (int i = 0; i < 200; ++i) {
      LinkOp op;
      op.scope = linkscopes::kClient;
      op.send = true;
      op.requested = 64;
      size_t chunk = op.requested;
      bool blackhole = false, corrupt = false;
      Status st = net.BeforeTransfer(op, &chunk, &blackhole, &corrupt);
      trace += st.ok() ? 'o' : 'x';
      trace += std::to_string(chunk);
      trace += corrupt ? 'c' : '-';
    }
    return trace;
  };
  EXPECT_EQ(roll(7), roll(7));
  EXPECT_NE(roll(7), roll(8));
}

TEST_F(ChaosTest, OnlyLinkRestrictsBlastRadius) {
  ChaosNet net(1);
  LinkFaults f;
  f.reset_probability = 1.0;
  f.only_link = "r0";
  net.Configure(linkscopes::kBackend, f);

  LinkOp hit;
  hit.scope = linkscopes::kBackend;
  hit.link = "r0";
  hit.send = true;
  hit.requested = 32;
  size_t chunk = hit.requested;
  bool blackhole = false, corrupt = false;
  EXPECT_FALSE(net.BeforeTransfer(hit, &chunk, &blackhole, &corrupt).ok());

  LinkOp miss = hit;
  miss.link = "r1";
  chunk = miss.requested;
  EXPECT_TRUE(net.BeforeTransfer(miss, &chunk, &blackhole, &corrupt).ok());
}

TEST_F(ChaosTest, InstallUninstallRoundTrips) {
  ChaosNet net(1);
  EXPECT_EQ(GlobalLinkShim(), nullptr);
  net.Install();
  EXPECT_EQ(GlobalLinkShim(), &net);
  net.Uninstall();
  EXPECT_EQ(GlobalLinkShim(), nullptr);
}

// --- Socket-level faults over real TCP ----------------------------------------
// Satellite: the partial-transfer audit. With every chunk clamped to a few
// bytes, any Send/Recv loop that assumes one syscall moves everything
// returns garbage; bit-exact query round-trips prove the loops are right.

TEST_F(ChaosTest, ShortIoPreservesByteExactRoundTrips) {
  vdb::Engine engine;
  service::HyperQService service(&engine, {});
  TdwpServer server(&service);
  ASSERT_TRUE(server.Start(0).ok());

  ChaosNet net(42, service.metrics_registry());
  LinkFaults f;
  f.short_io_probability = 1.0;
  f.short_io_max_bytes = 3;
  net.Configure(linkscopes::kFrontend, f);
  net.Configure(linkscopes::kClient, f);
  net.Install();

  TdwpClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  ASSERT_TRUE(client.Logon("alice", "pw").ok());
  ASSERT_TRUE(client.Run("CREATE TABLE T (A INTEGER, B VARCHAR(20))").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client
                    .Run("INS INTO T VALUES (" + std::to_string(i) +
                         ", 'row-" + std::to_string(i) + "')")
                    .ok());
  }
  auto sel = client.Run("SEL * FROM T ORDER BY A");
  ASSERT_TRUE(sel.ok()) << sel.status();
  ASSERT_EQ(sel->rows.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(sel->rows[i][0].AsInt(), i);
    EXPECT_EQ(sel->rows[i][1].string_val(), "row-" + std::to_string(i));
  }
  client.Goodbye();
  net.Uninstall();
  EXPECT_GT(net.stats().short_ios, 0);
  server.Stop();
}

TEST_F(ChaosTest, LatencyInjectionDelaysQueries) {
  vdb::Engine engine;
  service::HyperQService service(&engine, {});
  TdwpServer server(&service);
  ASSERT_TRUE(server.Start(0).ok());

  TdwpClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  ASSERT_TRUE(client.Logon("alice", "pw").ok());
  ASSERT_TRUE(client.Run("SELECT 1").ok());

  ChaosNet net(42);
  LinkFaults f;
  f.latency_ms = 40;
  net.Configure(linkscopes::kClient, f);
  net.Install();
  auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(client.Run("SELECT 1").ok());
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  net.Uninstall();
  EXPECT_GE(elapsed, 40);
  EXPECT_GT(net.stats().latency_injections, 0);
  client.Goodbye();
  server.Stop();
}

TEST_F(ChaosTest, ResetSurfacesAsRetryableUnavailable) {
  vdb::Engine engine;
  service::HyperQService service(&engine, {});
  TdwpServer server(&service);
  ASSERT_TRUE(server.Start(0).ok());

  TdwpClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  ASSERT_TRUE(client.Logon("alice", "pw").ok());

  ChaosNet net(42);
  LinkFaults f;
  f.reset_probability = 1.0;
  net.Configure(linkscopes::kClient, f);
  net.Install();
  auto out = client.Run("SELECT 1");
  net.Uninstall();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnavailable) << out.status();
  EXPECT_GT(net.stats().resets, 0);
  client.HardClose();
  server.Stop();
}

TEST_F(ChaosTest, RecvPartitionStallsThenTimesOut) {
  vdb::Engine engine;
  service::HyperQService service(&engine, {});
  TdwpServer server(&service);
  ASSERT_TRUE(server.Start(0).ok());

  TdwpClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  ASSERT_TRUE(client.Logon("alice", "pw").ok());

  ChaosNet net(42);
  LinkFaults f;
  f.partition_recv = true;
  f.partition_stall_ms = 10;
  net.Configure(linkscopes::kClient, f);
  net.Install();
  auto out = client.Run("SELECT 1");
  net.Uninstall();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kDeadlineExceeded)
      << out.status();
  EXPECT_GT(net.stats().partition_drops, 0);
  client.HardClose();
  server.Stop();
}

// --- Slowloris guard ---------------------------------------------------------

TEST_F(ChaosTest, StalledFrameGetsTypedFrameStallError) {
  vdb::Engine engine;
  service::HyperQService service(&engine, {});
  TdwpServerOptions options;
  options.frame_read_timeout_ms = 120;
  TdwpServer server(&service, options);
  ASSERT_TRUE(server.Start(0).ok());

  auto conn = Socket::ConnectLocal(server.port());
  ASSERT_TRUE(conn.ok());
  // First bytes of a frame header, then silence: a classic slowloris hold.
  uint8_t partial[3] = {static_cast<uint8_t>(MessageKind::kStatsRequest), 0,
                        0};
  ASSERT_TRUE(conn->WriteAll(partial, sizeof(partial)).ok());

  auto reply = conn->ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->kind, MessageKind::kError);
  auto err = protocol::DecodeError(reply->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->code, static_cast<uint32_t>(StatusCode::kDeadlineExceeded));
  EXPECT_NE(err->message.find("frame_stall"), std::string::npos)
      << err->message;
  EXPECT_NE(err->message.find("per-frame budget"), std::string::npos)
      << err->message;
  // The stream is mid-frame and unrecoverable: the server must close it.
  uint8_t byte = 0;
  EXPECT_FALSE(conn->ReadExactly(&byte, 1).ok());
  EXPECT_EQ(server.stats().frame_stalls, 1);
  EXPECT_TRUE(WaitFor([&] { return server.active_connections() == 0; }));
  server.Stop();
}

TEST_F(ChaosTest, SlowButSteadyFrameSurvivesTheGuard) {
  vdb::Engine engine;
  service::HyperQService service(&engine, {});
  TdwpServerOptions options;
  options.frame_read_timeout_ms = 2000;
  TdwpServer server(&service, options);
  ASSERT_TRUE(server.Start(0).ok());

  auto conn = Socket::ConnectLocal(server.port());
  ASSERT_TRUE(conn.ok());
  // A stats request trickled one byte at a time: slow, but always inside
  // the budget — the guard must not reap legitimate trickle.
  Frame req{MessageKind::kStatsRequest, 0, {}};
  std::vector<uint8_t> bytes = protocol::EncodeFrame(req);
  for (uint8_t b : bytes) {
    ASSERT_TRUE(conn->WriteAll(&b, 1).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  auto reply = conn->ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->kind, MessageKind::kStatsResponse);
  EXPECT_EQ(server.stats().frame_stalls, 0);
  server.Stop();
}

TEST_F(ChaosTest, GuardFiresWhenTheFrameStartIsAlreadyBuffered) {
  vdb::Engine engine;
  service::HyperQService service(&engine, {});
  TdwpServerOptions options;
  options.frame_read_timeout_ms = 120;
  TdwpServer server(&service, options);
  ASSERT_TRUE(server.Start(0).ok());

  auto conn = Socket::ConnectLocal(server.port());
  ASSERT_TRUE(conn.ok());
  // A guard that missed the buffered start would wait forever.
  ASSERT_TRUE(conn->SetRecvTimeoutMs(5000).ok());
  // One send: a whole stats request, then half the header of a second
  // frame. The server's one recv buffers both; the half frame then gets
  // the budget, not the idle policy, though no byte of it is still in the
  // kernel.
  std::vector<uint8_t> bytes =
      protocol::EncodeFrame(Frame{MessageKind::kStatsRequest, 0, {}});
  bytes.insert(bytes.end(),
               {static_cast<uint8_t>(MessageKind::kStatsRequest), 0, 0, 0});
  ASSERT_TRUE(conn->WriteAll(bytes.data(), bytes.size()).ok());

  auto stats = conn->ReadFrame();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->kind, MessageKind::kStatsResponse);
  auto reply = conn->ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->kind, MessageKind::kError);
  auto err = protocol::DecodeError(reply->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->code, static_cast<uint32_t>(StatusCode::kDeadlineExceeded));
  EXPECT_NE(err->message.find("frame_stall"), std::string::npos)
      << err->message;
  uint8_t byte = 0;
  EXPECT_FALSE(conn->ReadExactly(&byte, 1).ok());
  EXPECT_EQ(server.stats().frame_stalls, 1);
  server.Stop();
}

// --- Syscall shape -------------------------------------------------------------
// A RUN response is one buffer and one send(); a RUN request under the read
// buffer's size is one recv(). A counting shim on the server's side of the
// link sees every send() and recv() the server makes.

/// Counts the server's send()s and its recv()s that delivered bytes. Every
/// frontend recv is flagged "corrupt" so its bytes pass through
/// CorruptPayload, which runs only after a recv returned data — and leaves
/// them untouched.
class SyscallCounter : public LinkShim {
 public:
  Status BeforeTransfer(const LinkOp& op, size_t*, bool*,
                        bool* corrupt) override {
    if (std::strcmp(op.scope, linkscopes::kFrontend) != 0) {
      return Status::OK();
    }
    if (op.send) {
      sends.fetch_add(1);
    } else {
      *corrupt = true;
    }
    return Status::OK();
  }
  void CorruptPayload(const LinkOp& op, uint8_t*, size_t) override {
    if (!op.send && std::strcmp(op.scope, linkscopes::kFrontend) == 0) {
      recvs.fetch_add(1);
    }
  }

  std::atomic<int> sends{0};
  std::atomic<int> recvs{0};
};

TEST_F(ChaosTest, OneSendPerResponseAndOneRecvPerRequest) {
  vdb::Engine engine;
  service::HyperQService service(&engine, {});
  {
    auto sid = service.OpenSession("loader");
    ASSERT_TRUE(sid.ok());
    ASSERT_TRUE(service.Submit(*sid, "CREATE TABLE T (A INTEGER)").ok());
    ASSERT_TRUE(service.Submit(*sid, "INS INTO T VALUES (0)").ok());
    for (int k = 0; k < 12; ++k) {  // doubles T to keys 0..4095
      ASSERT_TRUE(service
                      .Submit(*sid, "INS INTO T SEL A + " +
                                        std::to_string(1 << k) + " FROM T")
                      .ok());
    }
    service.CloseSession(*sid);
  }
  SyscallCounter counter;  // outlives the server's threads
  TdwpServer server(&service);
  ASSERT_TRUE(server.Start(0).ok());

  // Installed before logon: the server enters its next recv while the
  // logon reply is still in flight, and that recv must be counted.
  SetGlobalLinkShim(&counter);
  auto conn = Socket::ConnectLocal(server.port());
  ASSERT_TRUE(conn.ok());
  protocol::LogonRequest logon{"alice", "pw", "", "ASCII"};
  ASSERT_TRUE(conn->WriteFrame(Frame{MessageKind::kLogonRequest, 0,
                                     protocol::Encode(logon)})
                  .ok());
  ASSERT_TRUE(conn->ReadFrame().ok());

  struct Shape {
    std::string sql;
    bool rowset;
    uint32_t rows;
  };
  const std::vector<Shape> shapes = {
      {"SEL A FROM T WHERE A < 0", true, 0},
      {"SEL A FROM T WHERE A = 7", true, 1},
      {"SEL A FROM T WHERE A < 3000", true, 3000},  // > rows_per_batch
      {"UPD T SET A = A WHERE A = 7", false, 0},
      // Just under the read buffer: still one recv.
      {"SEL A FROM T WHERE A = 8" + std::string(7000, ' '), true, 1},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.sql.substr(0, 40));
    counter.sends = 0;
    counter.recvs = 0;
    protocol::RunRequest run{shape.sql};
    ASSERT_TRUE(
        conn->WriteFrame(Frame{MessageKind::kRunRequest, 0,
                               protocol::Encode(run)})
            .ok());
    std::vector<MessageKind> kinds;
    size_t batches = 0;
    uint32_t rows = 0;
    while (kinds.empty() || (kinds.back() != MessageKind::kSuccess &&
                             kinds.back() != MessageKind::kError)) {
      auto frame = conn->ReadFrame();
      ASSERT_TRUE(frame.ok()) << frame.status();
      kinds.push_back(frame->kind);
      if (frame->kind == MessageKind::kRecordBatch) {
        BufferReader in(frame->payload);
        auto n = in.GetU32();
        ASSERT_TRUE(n.ok());
        rows += *n;
        ++batches;
      }
    }
    // Client-visible sequence: header, N batches, success.
    ASSERT_EQ(kinds.back(), MessageKind::kSuccess);
    if (shape.rowset) {
      EXPECT_EQ(kinds.front(), MessageKind::kResultHeader);
      EXPECT_EQ(kinds.size(), batches + 2);
      EXPECT_EQ(rows, shape.rows);
      if (shape.rows > 2048) {
        EXPECT_GE(batches, 2u);
      }
    } else {
      EXPECT_EQ(kinds.size(), 1u);
    }
    EXPECT_EQ(counter.sends.load(), 1);
    EXPECT_EQ(counter.recvs.load(), 1);
  }
  SetGlobalLinkShim(nullptr);
  server.Stop();
}

// --- Scenario DSL ------------------------------------------------------------

TEST_F(ChaosTest, ScenarioParsesTimeline) {
  auto parsed = ParseScenario(R"(
# comment
scenario storm
phase warm 100
phase degrade 250
latency client ms=5 jitter=3
short_io frontend p=0.1 max=4
partition backend recv link=r0 stall=15
phase recover 50
heal
)");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->name, "storm");
  ASSERT_EQ(parsed->phases.size(), 3u);
  EXPECT_EQ(parsed->phases[0].name, "warm");
  EXPECT_EQ(parsed->phases[0].duration_ms, 100);
  EXPECT_TRUE(parsed->phases[0].actions.empty());
  ASSERT_EQ(parsed->phases[1].actions.size(), 3u);
  const auto& part = parsed->phases[1].actions[2];
  EXPECT_EQ(part.verb, "partition");
  EXPECT_EQ(part.target, "backend");
  EXPECT_EQ(part.kv.at("dir"), "recv");
  EXPECT_EQ(part.kv.at("link"), "r0");
  EXPECT_EQ(part.kv.at("stall"), "15");
  EXPECT_EQ(parsed->total_ms(), 400);
}

TEST_F(ChaosTest, ScenarioRejectsMalformedScripts) {
  EXPECT_FALSE(ParseScenario("").ok());  // no phases
  EXPECT_FALSE(ParseScenario("latency client ms=5").ok());  // before phase
  EXPECT_FALSE(ParseScenario("phase p 100\nfrobnicate client").ok());
  EXPECT_FALSE(ParseScenario("phase p 100\nlatency client").ok());  // no ms
  EXPECT_FALSE(ParseScenario("phase p 100\nlatency client ms=abc").ok());
  EXPECT_FALSE(ParseScenario("phase p 100\npartition client sideways").ok());
  EXPECT_FALSE(ParseScenario("phase p -5").ok());
  EXPECT_FALSE(ParseScenario("phase p 100\nslow 0").ok());  // no delay
}

// --- Orchestrator ------------------------------------------------------------

TEST_F(ChaosTest, OrchestratorAppliesPhasesThenHeals) {
  vdb::Engine engine;
  service::HyperQService service(&engine, FleetServiceOptions(2));
  ChaosNet net(1, service.metrics_registry());
  chaos::OrchestratorOptions opt;
  opt.net = &net;
  opt.pool = service.backend_pool();
  opt.metrics = service.metrics_registry();
  ChaosOrchestrator orch(opt);

  std::thread runner([&] {
    Status st = orch.RunScript(R"(
scenario apply_heal
phase hold 300
latency client ms=15
kill 1
)");
    EXPECT_TRUE(st.ok()) << st;
  });
  // Mid-phase: the faults are armed.
  EXPECT_TRUE(WaitFor([&] { return net.faults(linkscopes::kClient).latency_ms == 15; }, 250));
  runner.join();
  // After the run: everything healed — link config cleared, backend revived.
  EXPECT_EQ(net.faults(linkscopes::kClient).latency_ms, 0);
  auto snap = service.metrics_registry()->Snapshot();
  EXPECT_EQ(snap.CounterOr(names::kChaosScenarios, 0), 1);
  EXPECT_EQ(snap.CounterOr(names::kChaosPhases, 0), 1);
  EXPECT_EQ(snap.CounterOr(names::kChaosActions, 0), 2);
  EXPECT_EQ(snap.GaugeOr(names::kChaosScenarioActive, -1), 0);

  // The revived backend serves queries again.
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(service.Submit(*sid, "SELECT 1").ok());
  }
  service.CloseSession(*sid);
}

TEST_F(ChaosTest, OrchestratorAbortsOnBadActionButStillHeals) {
  vdb::Engine engine;
  service::HyperQService service(&engine, FleetServiceOptions(2));
  ChaosNet net(1);
  chaos::OrchestratorOptions opt;
  opt.net = &net;
  opt.pool = service.backend_pool();
  ChaosOrchestrator orch(opt);

  Status st = orch.RunScript(R"(
scenario bad
phase p 50
latency client ms=10
kill 7
)");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("out of range"), std::string::npos) << st;
  EXPECT_EQ(net.faults(linkscopes::kClient).latency_ms, 0) << "not healed";
}

// --- Invariant auditor -------------------------------------------------------

TEST_F(ChaosTest, AuditorPassesCleanLedger) {
  ClientLedger ledger;
  for (int i = 0; i < 5; ++i) {
    int64_t id = ledger.Begin();
    ledger.NoteAttempt(id);
    ledger.NoteSuccess(id);
    ledger.Finish(id, true);
  }
  int64_t id = ledger.Begin();
  ledger.NoteAttempt(id);
  ledger.NoteTypedError(id, static_cast<int>(StatusCode::kUnavailable));
  ledger.Finish(id, false);

  chaos::AuditorOptions opt;
  opt.settle_ms = 50;
  InvariantAuditor auditor(opt);
  auto violations = auditor.Audit(ledger);
  EXPECT_TRUE(violations.empty())
      << "unexpected violation: " << violations.front();
  EXPECT_EQ(ledger.issued(), 6);
  EXPECT_EQ(ledger.delivered(), 5);
  EXPECT_EQ(ledger.failed(), 1);
}

TEST_F(ChaosTest, AuditorCatchesPlantedViolations) {
  ClientLedger ledger;
  // I1: double delivery.
  int64_t twice = ledger.Begin();
  ledger.NoteAttempt(twice);
  ledger.NoteSuccess(twice);
  ledger.NoteSuccess(twice);
  ledger.Finish(twice, true);
  // I3: never finished.
  ledger.Begin();
  // I3: failed with no recorded cause.
  int64_t mute = ledger.Begin();
  ledger.NoteAttempt(mute);
  ledger.Finish(mute, false);
  // I4: error frame with a code outside the StatusCode enum.
  int64_t garbled = ledger.Begin();
  ledger.NoteAttempt(garbled);
  ledger.NoteTypedError(garbled, 9999);
  ledger.Finish(garbled, false);

  chaos::AuditorOptions opt;
  opt.settle_ms = 50;
  InvariantAuditor auditor(opt);
  auto violations = auditor.Audit(ledger);
  auto has = [&](const char* tag) {
    for (const auto& v : violations) {
      if (v.find(tag) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("I1 exactly-once"));
  EXPECT_TRUE(has("I3 conservation"));
  EXPECT_TRUE(has("I4 typed-errors"));
  EXPECT_GE(violations.size(), 4u);
}

TEST_F(ChaosTest, FdAndThreadCountersTrackResources) {
  int fds = InvariantAuditor::CountOpenFds();
  int threads = InvariantAuditor::CountThreads();
  ASSERT_GT(fds, 0);
  ASSERT_GT(threads, 0);
  {
    auto listener = protocol::ListenSocket::BindLocal(0);
    ASSERT_TRUE(listener.ok());
    EXPECT_GT(InvariantAuditor::CountOpenFds(), fds);
  }
  EXPECT_TRUE(WaitFor([&] {
    return InvariantAuditor::CountOpenFds() <= fds;
  }));
}

TEST_F(ChaosTest, WorkloadTimesOutOnASilentServer) {
  // A listener that accepts and never answers: without a receive deadline
  // the session's logon would wait forever.
  auto listener = protocol::ListenSocket::BindLocal(0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  std::atomic<bool> stop{false};
  std::thread acceptor([&] {
    auto held = listener->Accept();  // hold the connection, say nothing
    while (!stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  ClientLedger ledger;
  chaos::WorkloadOptions w;
  w.port = listener->port();
  w.sessions = 1;
  w.duration_ms = 1;  // one query
  w.max_attempts = 1;
  auto start = std::chrono::steady_clock::now();
  chaos::WorkloadReport report = ChaosWorkload::Run(w, &ledger);
  auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  stop.store(true);
  listener->Interrupt();
  acceptor.join();

  EXPECT_GE(elapsed_ms, ChaosWorkload::kRecvDeadlineMs - 100);
  EXPECT_LT(elapsed_ms, ChaosWorkload::kRecvDeadlineMs + 2000);
  EXPECT_EQ(report.issued, 1);
  EXPECT_EQ(report.failed, 1);
  auto entries = ledger.Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(entries[0].finished);
  EXPECT_EQ(entries[0].io_failures, 0);
  EXPECT_EQ(entries[0].error_codes,
            std::vector<int>{static_cast<int>(StatusCode::kDeadlineExceeded)});
  // The typed failure is an attributed terminal state, not a violation.
  chaos::AuditorOptions opt;
  opt.settle_ms = 50;
  auto violations = InvariantAuditor(opt).Audit(ledger);
  EXPECT_TRUE(violations.empty()) << "violation: " << violations.front();
}

// --- Backend partition + failover --------------------------------------------

TEST_F(ChaosTest, BackendPartitionRoutesAroundReplica) {
  vdb::Engine engine;
  service::HyperQService service(&engine, FleetServiceOptions(3));
  TdwpServer server(&service);
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_TRUE(ChaosWorkload::SeedData(server.port(), 8).ok());

  ChaosNet net(42, service.metrics_registry());
  LinkFaults f;
  f.partition_send = true;
  f.only_link = "r0";
  net.Configure(linkscopes::kBackend, f);
  net.Install();

  // Every query must land despite one replica's request path being a
  // one-way black hole: the first failure degrades r0's health and the
  // router steers around it.
  TdwpClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  ASSERT_TRUE(client.Logon("alice", "pw").ok());
  int delivered = 0;
  for (int i = 0; i < 10; ++i) {
    bool ok = false;
    for (int attempt = 0; attempt < 3 && !ok; ++attempt) {
      auto out = client.Run("SEL * FROM CHAOS_T WHERE A < 3 ORDER BY A");
      if (out.ok() && out->rows.size() == 3) ok = true;
    }
    delivered += ok ? 1 : 0;
  }
  net.Uninstall();
  EXPECT_EQ(delivered, 10);
  client.Goodbye();
  server.Stop();
}

// --- The acceptance soak -----------------------------------------------------

int SoakMillis() {
  if (const char* env = std::getenv("HQ_CHAOS_SOAK_MS")) {
    int ms = std::atoi(env);
    if (ms > 0) return ms < 1000 ? 1000 : ms;
  }
  return 60000;
}

constexpr char kMixedSoakScenario[] = R"(
scenario mixed_soak
phase warm 150
phase degrade 350
latency client ms=3 jitter=4
short_io frontend p=0.08 max=5
short_io client p=0.08 max=5
corrupt client send=0.02
phase partition_replica 350
partition backend send link=r0
phase kill_revive 350
kill 1
phase recover 150
heal
)";

TEST_F(ChaosTest, MixedChaosSoakMeetsAvailabilityBarWithCleanAudit) {
  const int soak_ms = SoakMillis();
  vdb::Engine engine;
  auto options = FleetServiceOptions(3);
  auto governor = std::make_shared<ResourceGovernor>();
  options.governor = governor;
  service::HyperQService service(&engine, options);
  TdwpServerOptions server_options;
  // The slowloris guard doubles as the deadlock breaker for corrupted
  // length prefixes: a garbled frame that promises bytes the client never
  // sent would otherwise park the worker forever.
  server_options.frame_read_timeout_ms = 2000;
  TdwpServer server(&service, server_options);
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_TRUE(ChaosWorkload::SeedData(server.port(), 48).ok());

  chaos::AuditorOptions audit_options;
  audit_options.service = &service;
  audit_options.server = &server;
  audit_options.governor = governor.get();
  audit_options.metrics = service.metrics_registry();
  InvariantAuditor auditor(audit_options);
  auditor.CaptureBaseline();

  ChaosNet net(0xC4A05, service.metrics_registry());
  net.Install();

  std::atomic<bool> done{false};
  std::thread chaos_thread([&] {
    chaos::OrchestratorOptions opt;
    opt.net = &net;
    opt.pool = service.backend_pool();
    opt.metrics = service.metrics_registry();
    ChaosOrchestrator orch(opt);
    while (!done.load()) {
      Status st = orch.RunScript(kMixedSoakScenario);
      ASSERT_TRUE(st.ok()) << st;
    }
  });

  ClientLedger ledger;
  chaos::WorkloadOptions w;
  w.port = server.port();
  w.sessions = 8;
  w.duration_ms = soak_ms;
  w.max_attempts = 4;
  w.rows = 48;
  chaos::WorkloadReport report = ChaosWorkload::Run(w, &ledger);
  done.store(true);
  chaos_thread.join();
  net.Uninstall();

  auto violations = auditor.Audit(ledger);
  for (const auto& v : violations) ADD_FAILURE() << "invariant: " << v;
  EXPECT_GT(report.issued, 0);
  EXPECT_GE(report.success_rate(), 0.99)
      << report.delivered << "/" << report.issued << " delivered, "
      << report.retries << " retries";

  // The chaos actually fired: this was a storm, not a calm sea.
  auto net_stats = net.stats();
  EXPECT_GT(net_stats.short_ios, 0);
  EXPECT_GT(net_stats.latency_injections, 0);
  EXPECT_GT(net_stats.partition_drops, 0);
  auto snap = service.metrics_registry()->Snapshot();
  EXPECT_GT(snap.CounterOr(names::kChaosScenarios, 0), 0);
  EXPECT_EQ(snap.CounterOr(names::kChaosAuditViolations, 0), 0);
  server.Stop();
}

}  // namespace
}  // namespace hyperq
