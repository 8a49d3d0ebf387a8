// Failover & overload suite (ctest label: failover): backend-session
// failover with journal replay, idempotency fencing inside transactions,
// connection admission and shedding, graceful drain, and result-path
// fault points — all deterministic (fixed
// seeds, no sleep over ~400ms) so the claims are provable in CI, including
// under ASan/UBSan.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "backend/connector.h"
#include "common/fault.h"
#include "protocol/client.h"
#include "protocol/server.h"
#include "service/hyperq_service.h"
#include "vdb/engine.h"

namespace hyperq {
namespace {

using protocol::TdwpClient;
using protocol::TdwpServer;
using protocol::TdwpServerOptions;

// Every test runs against the pristine global injector.
class FailoverTest : public ::testing::Test {
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

// Loses the backend session once, at the `first_hit`-th connector attempt
// after arming.
FaultSpec LoseSessionOnce(int first_hit = 1) {
  FaultSpec spec;
  spec.kind = FaultKind::kDisconnect;
  spec.first_hit = first_hit;
  spec.max_fires = 1;
  return spec;
}

template <typename Cond>
::testing::AssertionResult WaitFor(Cond cond, int timeout_ms = 2000) {
  for (int i = 0; i < timeout_ms; ++i) {
    if (cond()) return ::testing::AssertionSuccess();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (cond()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "condition not met within "
                                       << timeout_ms << "ms";
}

// --- Connector: session loss primitives -------------------------------------

TEST_F(FailoverTest, ConnectorBumpsEpochAndDropsSessionTables) {
  vdb::Engine engine;
  backend::BackendConnector connector(&engine, FastOptions().connector);
  ASSERT_TRUE(connector.Execute("CREATE TABLE T1 (A INTEGER)").ok());
  connector.NoteSessionTable("T1");
  int64_t epoch0 = connector.connection_epoch();

  FaultInjector::Global().Arm(faultpoints::kBackendSessionLost,
                              LoseSessionOnce());
  auto lost = connector.Execute("SELECT * FROM T1");
  ASSERT_FALSE(lost.ok());
  // kSessionLost is deliberately NOT retryable: the connector must surface
  // it so the service can replay the session journal first.
  EXPECT_TRUE(lost.status().IsSessionLost());
  EXPECT_FALSE(lost.status().IsRetryable());
  EXPECT_EQ(connector.session_losses(), 1);

  // The next attempt reconnects (epoch bump); the session-scoped table
  // died with the old session.
  auto again = connector.Execute("SELECT * FROM T1");
  EXPECT_FALSE(again.ok()) << "session table should be gone";
  EXPECT_EQ(connector.connection_epoch(), epoch0 + 1);
}

// --- Service: journal & replay ----------------------------------------------

// Acceptance (a): a session with SET SESSION + volatile-table state keeps
// returning identical results across an injected backend session loss.
TEST_F(FailoverTest, SessionStateSurvivesInjectedSessionLoss) {
  auto scenario = [&](bool inject) {
    FaultInjector::Global().Reset();
    FaultInjector::Global().SetSeed(0x5EED);
    vdb::Engine engine;
    service::HyperQService service(&engine, FastOptions());
    auto sid = service.OpenSession("tester");
    EXPECT_TRUE(sid.ok());
    auto run = [&](const std::string& sql) {
      auto r = service.Submit(*sid, sql);
      EXPECT_TRUE(r.ok()) << sql << "\n" << r.status();
      return r.ok() ? std::move(r).value() : service::QueryOutcome{};
    };
    run("CREATE VOLATILE TABLE SCRATCH (A INTEGER)");
    run("INS INTO SCRATCH VALUES (1)");
    run("INS INTO SCRATCH VALUES (2)");
    run("SET SESSION CHARSET 'UTF8'");
    if (inject) {
      FaultInjector::Global().Arm(faultpoints::kBackendSessionLost,
                                  LoseSessionOnce());
    }
    auto out = run("SEL * FROM SCRATCH ORDER BY A");
    if (inject) {
      EXPECT_EQ(out.timing.failovers, 1);
      // DDL + 2 DML + SET SESSION were replayed.
      EXPECT_EQ(out.timing.journal_replays, 4);
      auto rs = service.StatsSnapshot().resilience;
      EXPECT_EQ(rs.failovers, 1);
      EXPECT_EQ(rs.statements_replayed, 4);
    }
    auto rows = out.result.DecodeRows();
    EXPECT_TRUE(rows.ok());
    std::vector<int64_t> values;
    for (const auto& row : rows.ok() ? *rows
                                     : std::vector<std::vector<Datum>>{}) {
      values.push_back(row[0].int_val());
    }
    return values;
  };
  auto without_fault = scenario(false);
  auto with_fault = scenario(true);
  ASSERT_EQ(without_fault, (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(with_fault, without_fault);
}

TEST_F(FailoverTest, NonIdempotentDmlInOpenTxnAborts) {
  vdb::Engine engine;
  service::HyperQService service(&engine, FastOptions());
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(
      service.Submit(*sid, "CREATE VOLATILE TABLE SCRATCH (A INTEGER)").ok());
  ASSERT_TRUE(service.Submit(*sid, "INS INTO SCRATCH VALUES (1)").ok());
  ASSERT_TRUE(service.Submit(*sid, "BT").ok());

  FaultInjector::Global().Arm(faultpoints::kBackendSessionLost,
                              LoseSessionOnce());
  auto aborted = service.Submit(*sid, "INS INTO SCRATCH VALUES (2)");
  ASSERT_FALSE(aborted.ok());
  EXPECT_TRUE(aborted.status().IsAborted()) << aborted.status();
  EXPECT_EQ(service.StatsSnapshot().resilience.aborted_in_txn, 1);

  // The session itself was repaired: the volatile table is back with its
  // pre-transaction contents, and new statements run normally.
  auto sel = service.Submit(*sid, "SEL * FROM SCRATCH");
  ASSERT_TRUE(sel.ok()) << sel.status();
  auto rows = sel->result.DecodeRows();
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);  // the aborted INSERT was NOT re-applied
  EXPECT_TRUE(service.Submit(*sid, "INS INTO SCRATCH VALUES (3)").ok());
}

// A script's merged INSERT run meets the same fence as the statements it
// merges: the session loss inside BT aborts the script, and the run is not
// re-submitted one statement at a time into autocommit.
TEST_F(FailoverTest, MergedInsertRunInOpenTxnAbortsScript) {
  vdb::Engine engine;
  service::HyperQService service(&engine, FastOptions());
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(service.Submit(*sid, "CREATE TABLE T (A INTEGER)").ok());

  FaultInjector::Global().Arm(faultpoints::kBackendSessionLost,
                              LoseSessionOnce());
  auto aborted = service.SubmitScript({.session_id = *sid,
                                       .sql = "BT;"
                                              "INS INTO T VALUES (1);"
                                              "INS INTO T VALUES (2);"
                                              "ET;"});
  ASSERT_FALSE(aborted.ok());
  EXPECT_TRUE(aborted.status().IsAborted()) << aborted.status();
  EXPECT_EQ(FaultInjector::Global().fires(faultpoints::kBackendSessionLost),
            1);
  EXPECT_EQ(service.StatsSnapshot().resilience.aborted_in_txn, 1);

  auto sel = service.Submit(*sid, "SEL COUNT(*) FROM T");
  ASSERT_TRUE(sel.ok()) << sel.status();
  auto rows = sel->result.DecodeRows();
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[0][0].int_val(), 0);  // nothing of the txn committed
}

TEST_F(FailoverTest, IdempotentSelectInOpenTxnFailsOver) {
  vdb::Engine engine;
  service::HyperQService service(&engine, FastOptions());
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(
      service.Submit(*sid, "CREATE VOLATILE TABLE SCRATCH (A INTEGER)").ok());
  ASSERT_TRUE(service.Submit(*sid, "INS INTO SCRATCH VALUES (1)").ok());
  ASSERT_TRUE(service.Submit(*sid, "BT").ok());

  FaultInjector::Global().Arm(faultpoints::kBackendSessionLost,
                              LoseSessionOnce());
  // SELECT has no side effects: safe to re-run even inside a transaction.
  auto sel = service.Submit(*sid, "SEL * FROM SCRATCH");
  ASSERT_TRUE(sel.ok()) << sel.status();
  EXPECT_EQ(sel->timing.failovers, 1);
  EXPECT_EQ(service.StatsSnapshot().resilience.aborted_in_txn, 0);
}

TEST_F(FailoverTest, JournalOverflowDegradesToCleanError) {
  vdb::Engine engine;
  auto options = FastOptions();
  options.failover.max_journal_entries = 2;
  service::HyperQService service(&engine, options);
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(
      service.Submit(*sid, "CREATE VOLATILE TABLE SCRATCH (A INTEGER)").ok());
  ASSERT_TRUE(service.Submit(*sid, "INS INTO SCRATCH VALUES (1)").ok());
  // Third replayable effect: past the cap, the journal can no longer
  // reproduce the session and is dropped entirely.
  ASSERT_TRUE(service.Submit(*sid, "INS INTO SCRATCH VALUES (2)").ok());
  EXPECT_EQ(service.journal_size(*sid), 0u);

  FaultInjector::Global().Arm(faultpoints::kBackendSessionLost,
                              LoseSessionOnce());
  auto sel = service.Submit(*sid, "SEL * FROM SCRATCH");
  ASSERT_FALSE(sel.ok());
  EXPECT_TRUE(sel.status().IsUnavailable()) << sel.status();
  EXPECT_NE(sel.status().message().find("overflowed"), std::string::npos)
      << sel.status();
  EXPECT_EQ(service.StatsSnapshot().resilience.journal_overflows, 1);
}

TEST_F(FailoverTest, FailoverDisabledSurfacesCleanUnavailable) {
  vdb::Engine engine;
  auto options = FastOptions();
  options.failover.enabled = false;
  service::HyperQService service(&engine, options);
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());

  FaultInjector::Global().Arm(faultpoints::kBackendSessionLost,
                              LoseSessionOnce());
  auto sel = service.Submit(*sid, "SEL 1");
  ASSERT_FALSE(sel.ok());
  EXPECT_TRUE(sel.status().IsUnavailable()) << sel.status();
  EXPECT_NE(sel.status().message().find("failover disabled"),
            std::string::npos)
      << sel.status();
}

// A request whose client goes away exactly when the backend session is lost
// gets no transparent retry, but the session must still be repaired: the
// next statement finds its volatile table. Runs on the default config (a
// fleet of one) and on a two-replica fleet, which share one failover loop.
class CancelledFailoverTest : public FailoverTest,
                              public ::testing::WithParamInterface<int> {};

TEST_P(CancelledFailoverTest, SessionIsRepairedForTheNextStatement) {
  vdb::Engine engine;
  auto options = FastOptions();
  for (int i = 0; i < GetParam(); ++i) {
    backend::BackendSpec spec;
    spec.name = "r" + std::to_string(i);
    spec.profile = transform::BackendProfile::Vdb();
    options.fleet.backends.push_back(spec);
  }
  service::HyperQService service(&engine, options);
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(
      service.Submit(*sid, "CREATE VOLATILE TABLE SCRATCH (A INTEGER)").ok());
  ASSERT_TRUE(service.Submit(*sid, "INS INTO SCRATCH VALUES (1)").ok());

  FaultInjector::Global().Arm(faultpoints::kBackendSessionLost,
                              LoseSessionOnce());
  QueryContext ctx;
  ctx.SetClientProbe([](bool, CancelCause*) -> Status {
    if (FaultInjector::Global().fires(faultpoints::kBackendSessionLost) == 0) {
      return Status::OK();
    }
    return Status::Cancelled("client gone with the backend session");
  });
  auto died = service.Submit(
      {.session_id = *sid, .sql = "SEL * FROM SCRATCH", .ctx = &ctx});
  ASSERT_FALSE(died.ok());
  EXPECT_TRUE(died.status().IsCancelled()) << died.status();
  EXPECT_EQ(FaultInjector::Global().fires(faultpoints::kBackendSessionLost),
            1);

  auto next = service.Submit(*sid, "SEL * FROM SCRATCH");
  ASSERT_TRUE(next.ok()) << next.status();
  auto rows = next->result.DecodeRows();
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0].int_val(), 1);
}

INSTANTIATE_TEST_SUITE_P(DefaultAndFleet, CancelledFailoverTest,
                         ::testing::Values(0, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param == 0
                                      ? std::string("DefaultConfig")
                                      : std::string("TwoReplicaFleet");
                         });

// Recursion emulation runs many backend statements against session-scoped
// WorkTables; a session loss mid-iteration must replay and re-run cleanly.
TEST_F(FailoverTest, RecursiveQuerySurvivesSessionLoss) {
  vdb::Engine engine;
  service::HyperQService service(&engine, FastOptions());
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(
      service.Submit(*sid, "CREATE TABLE EMP (EMPNO INTEGER, MGRNO INTEGER)")
          .ok());
  for (const char* row :
       {"(1, 7)", "(7, 8)", "(8, 10)", "(9, 10)", "(10, 11)"}) {
    ASSERT_TRUE(
        service.Submit(*sid, std::string("INS INTO EMP VALUES ") + row).ok());
  }

  // Fire in the middle of the WorkTable machinery (3rd backend statement).
  FaultInjector::Global().Arm(faultpoints::kBackendSessionLost,
                              LoseSessionOnce(/*first_hit=*/3));
  auto out = service.Submit(*sid, R"(
    WITH RECURSIVE REPORTS (EMPNO, MGRNO) AS (
      SELECT EMPNO, MGRNO FROM EMP WHERE MGRNO = 10
      UNION ALL
      SELECT EMP.EMPNO, EMP.MGRNO
      FROM EMP, REPORTS
      WHERE REPORTS.EMPNO = EMP.MGRNO
    )
    SELECT EMPNO FROM REPORTS ORDER BY EMPNO)");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->timing.failovers, 1);
  auto rows = out->result.DecodeRows();
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 4u);  // e1, e7, e8, e9
  EXPECT_EQ((*rows)[0][0].int_val(), 1);
  EXPECT_EQ((*rows)[3][0].int_val(), 9);
}

TEST_F(FailoverTest, DropOfVolatileTableCompactsJournal) {
  vdb::Engine engine;
  service::HyperQService service(&engine, FastOptions());
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(
      service.Submit(*sid, "CREATE VOLATILE TABLE SCRATCH (A INTEGER)").ok());
  ASSERT_TRUE(service.Submit(*sid, "INS INTO SCRATCH VALUES (1)").ok());
  EXPECT_EQ(service.journal_size(*sid), 2u);
  // Dropping the table makes its DDL + DML entries dead weight: compacted.
  ASSERT_TRUE(service.Submit(*sid, "DROP TABLE SCRATCH").ok());
  EXPECT_EQ(service.journal_size(*sid), 0u);
  // Mid-tier session settings still journal independently.
  ASSERT_TRUE(service.Submit(*sid, "SET SESSION CHARSET 'UTF8'").ok());
  EXPECT_EQ(service.journal_size(*sid), 1u);
}

// --- Result-path fault points ------------------------------------------------

TEST_F(FailoverTest, TdfAppendTransientFaultIsRetried) {
  vdb::Engine engine;
  service::HyperQService service(&engine, FastOptions());
  auto sid = service.OpenSession("tester");
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(service.Submit(*sid, "CREATE TABLE T (A INTEGER)").ok());
  ASSERT_TRUE(service.Submit(*sid, "INS INTO T VALUES (1)").ok());

  FaultSpec spec;
  spec.kind = FaultKind::kTransient;
  spec.max_fires = 1;
  FaultInjector::Global().Arm(faultpoints::kTdfAppend, spec);
  auto out = service.Submit(*sid, "SEL * FROM T");
  ASSERT_TRUE(out.ok()) << out.status();
  // TDF packaging faults map to fetch-time failures: re-executed once.
  EXPECT_EQ(out->timing.execution_attempts, 2);
  EXPECT_EQ(FaultInjector::Global().fires(faultpoints::kTdfAppend), 1);
}

TEST_F(FailoverTest, ConvertEncodeRowFaultFailsRequestNotServer) {
  vdb::Engine engine;
  service::HyperQService service(&engine, FastOptions());
  TdwpServer server(&service);
  ASSERT_TRUE(server.Start(0).ok());

  TdwpClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  ASSERT_TRUE(client.Logon("alice", "pw").ok());
  ASSERT_TRUE(client.Run("CREATE TABLE T (A INTEGER)").ok());
  ASSERT_TRUE(client.Run("INS INTO T VALUES (1)").ok());

  FaultSpec spec;
  spec.kind = FaultKind::kPermanent;
  spec.max_fires = 1;
  FaultInjector::Global().Arm(faultpoints::kConvertEncodeRow, spec);
  auto bad = client.Run("SEL * FROM T");
  EXPECT_FALSE(bad.ok()) << "converter fault must fail the request";
  // Same connection, same server: the next request succeeds.
  auto good = client.Run("SEL * FROM T");
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_EQ(good->rows.size(), 1u);
  client.Goodbye();
  server.Stop();
}

// Satellite: the wire path must fill conversion_micros (Figure 9) and the
// service-wide wire counters.
TEST_F(FailoverTest, WirePathReportsConversionMicros) {
  vdb::Engine engine;
  service::HyperQService service(&engine, FastOptions());
  TdwpServer server(&service);
  ASSERT_TRUE(server.Start(0).ok());

  TdwpClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  ASSERT_TRUE(client.Logon("alice", "pw").ok());
  ASSERT_TRUE(client.Run("CREATE TABLE T (A INTEGER, B VARCHAR(20))").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client
                    .Run("INS INTO T VALUES (" + std::to_string(i) +
                         ", 'row-" + std::to_string(i) + "')")
                    .ok());
  }
  auto sel = client.Run("SEL * FROM T ORDER BY A");
  ASSERT_TRUE(sel.ok()) << sel.status();
  ASSERT_EQ(sel->rows.size(), 20u);
  EXPECT_GT(sel->conversion_micros, 0.0);

  auto rs = service.StatsSnapshot().resilience;
  EXPECT_GE(rs.wire_requests, 22);  // create + 20 inserts + select
  EXPECT_GT(rs.wire_conversion_micros, 0.0);
  client.Goodbye();
  server.Stop();
}

// --- Server overload protection ----------------------------------------------

// Run() takes a fixed amount of wall clock, then answers.
class SlowHandler : public protocol::RequestHandler {
 public:
  explicit SlowHandler(int run_ms) : run_ms_(run_ms) {}
  Result<protocol::LogonResponse> Logon(
      const protocol::LogonRequest& request) override {
    protocol::LogonResponse resp;
    resp.ok = true;
    resp.session_id = ++sessions_;
    resp.message = "hello " + request.user;
    return resp;
  }
  void Logoff(uint32_t) override {}
  Result<protocol::WireResponse> Run(uint32_t, const std::string&,
                                     QueryContext*) override {
    ++entered_;
    std::this_thread::sleep_for(std::chrono::milliseconds(run_ms_));
    protocol::WireResponse resp;
    resp.success.tag = "OK";
    return resp;
  }
  int entered() const { return entered_.load(); }

 private:
  int run_ms_;
  std::atomic<int> entered_{0};
  std::atomic<uint32_t> sessions_{0};
};

// Acceptance (c): Stop(drain) answers the in-flight request, then refuses
// new connections; stats separate drained from force-closed workers.
TEST_F(FailoverTest, StopWithDrainCompletesInFlightRequests) {
  SlowHandler handler(100);
  TdwpServer server(&handler);
  ASSERT_TRUE(server.Start(0).ok());
  uint16_t port = server.port();

  TdwpClient c1;
  ASSERT_TRUE(c1.Connect(port).ok());
  ASSERT_TRUE(c1.Logon("u", "p").ok());
  bool got_response = false;
  std::thread t1([&] {
    auto r = c1.Run("SELECT 1");
    got_response = r.ok() && r->tag == "OK";
  });
  ASSERT_TRUE(WaitFor([&] { return handler.entered() == 1; }));

  server.Stop(/*drain_deadline_ms=*/2000);
  t1.join();
  EXPECT_TRUE(got_response) << "in-flight request must be answered";
  EXPECT_EQ(server.stats().drained, 1);
  EXPECT_EQ(server.stats().force_closed, 0);
  // New connections are refused: the listener is gone.
  EXPECT_FALSE(protocol::Socket::ConnectLocal(port).ok());
}

TEST_F(FailoverTest, StopDrainDeadlineForceClosesStragglers) {
  SlowHandler handler(400);
  TdwpServer server(&handler);
  ASSERT_TRUE(server.Start(0).ok());

  TdwpClient c1;
  ASSERT_TRUE(c1.Connect(server.port()).ok());
  ASSERT_TRUE(c1.Logon("u", "p").ok());
  std::thread t1([&] {
    auto r = c1.Run("SELECT 1");
    EXPECT_FALSE(r.ok()) << "connection was force-closed mid-request";
  });
  ASSERT_TRUE(WaitFor([&] { return handler.entered() == 1; }));

  server.Stop(/*drain_deadline_ms=*/30);
  EXPECT_EQ(server.stats().force_closed, 1);
  EXPECT_EQ(server.stats().drained, 0);
  t1.join();
}

// Satellite: a client that vanishes mid-request must not leak its worker or
// its admission slot.
TEST_F(FailoverTest, MidStreamClientDisconnectReleasesAdmissionSlot) {
  SlowHandler handler(50);
  TdwpServerOptions options;
  options.max_connections = 1;  // a leaked slot would wedge the server
  TdwpServer server(&handler, options);
  ASSERT_TRUE(server.Start(0).ok());

  {
    auto raw = protocol::Socket::ConnectLocal(server.port());
    ASSERT_TRUE(raw.ok());
    protocol::LogonRequest req{"ghost", "pw", "", "ASCII"};
    protocol::Frame logon{protocol::MessageKind::kLogonRequest, 0,
                          protocol::Encode(req)};
    ASSERT_TRUE(raw->WriteFrame(logon).ok());
    ASSERT_TRUE(raw->ReadFrame().ok());  // logon response
    protocol::RunRequest run{"SELECT 1"};
    protocol::Frame f{protocol::MessageKind::kRunRequest, 0,
                      protocol::Encode(run)};
    ASSERT_TRUE(raw->WriteFrame(f).ok());
    ASSERT_TRUE(WaitFor([&] { return handler.entered() == 1; }));
  }  // client disconnects while the request is in flight

  // The worker finishes the request, fails the write, and abandons the
  // connection — releasing its slot.
  ASSERT_TRUE(WaitFor([&] { return server.active_connections() == 0; }));
  auto st = server.stats();
  EXPECT_EQ(st.admitted, 1);
  EXPECT_EQ(st.shed, 0);

  // The slot is genuinely free: with max_connections=1 a new client gets in.
  TdwpClient next;
  ASSERT_TRUE(next.Connect(server.port()).ok());
  ASSERT_TRUE(next.Logon("u", "p").ok());
  auto r = next.Run("SELECT 1");
  ASSERT_TRUE(r.ok()) << r.status();
  next.Goodbye();
  server.Stop();
  EXPECT_EQ(server.live_workers(), 0u);
}

TEST_F(FailoverTest, ServerAdmitFaultShedsArrivingConnection) {
  SlowHandler handler(0);
  TdwpServer server(&handler);
  ASSERT_TRUE(server.Start(0).ok());

  FaultSpec spec;
  spec.kind = FaultKind::kTransient;
  spec.max_fires = 1;
  FaultInjector::Global().Arm(faultpoints::kServerAdmit, spec);

  auto raw = protocol::Socket::ConnectLocal(server.port());
  ASSERT_TRUE(raw.ok());
  auto frame = raw->ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->kind, protocol::MessageKind::kError);
  EXPECT_EQ(server.stats().shed, 1);

  // The fault is spent: the next connection is served normally.
  TdwpClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  ASSERT_TRUE(client.Logon("u", "p").ok());
  ASSERT_TRUE(client.Run("SELECT 1").ok());
  client.Goodbye();
  server.Stop();
}

}  // namespace
}  // namespace hyperq
