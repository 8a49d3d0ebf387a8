// Resilience suite: fault injection, retry policy, deadlines, and the
// circuit breaker — everything deterministic (fixed seeds, no sleep over
// 50ms) so the robustness claims are provable in CI, including under
// ASan/UBSan (ctest label: faults).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "backend/connector.h"
#include "common/fault.h"
#include "common/query_context.h"
#include "common/retry.h"
#include "common/stopwatch.h"
#include "protocol/socket.h"
#include "service/hyperq_service.h"
#include "vdb/engine.h"

namespace hyperq {
namespace {

// Every test runs against the pristine global injector.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().Reset();
    FaultInjector::Global().SetSeed(0x5EED);
  }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

// --- Status taxonomy --------------------------------------------------------

TEST_F(FaultTest, StatusTaxonomy) {
  EXPECT_TRUE(Status::Unavailable("x").IsRetryable());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsRetryable());
  EXPECT_FALSE(Status::DeadlineExceeded("x").IsRetryable());
  EXPECT_FALSE(Status::ExecutionError("x").IsRetryable());
  EXPECT_FALSE(Status::IoError("x").IsRetryable());
  EXPECT_FALSE(Status::OK().IsRetryable());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_TRUE(Status::DeadlineExceeded("x").IsDeadlineExceeded());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_EQ(StatusCodeName(StatusCode::kUnavailable),
            std::string("unavailable"));
  EXPECT_EQ(StatusCodeName(StatusCode::kDeadlineExceeded),
            std::string("deadline_exceeded"));
  EXPECT_EQ(StatusCodeName(StatusCode::kResourceExhausted),
            std::string("resource_exhausted"));
}

// --- Injector scheduling ----------------------------------------------------

TEST_F(FaultTest, InjectorFiresOnSchedule) {
  auto& inj = FaultInjector::Global();
  FaultSpec spec;
  spec.kind = FaultKind::kTransient;
  spec.first_hit = 3;  // skip the first two hits
  spec.every = 2;      // then every other eligible hit
  spec.max_fires = 2;  // at most twice
  inj.Arm("test.point", spec);

  std::vector<bool> fired;
  for (int i = 0; i < 10; ++i) {
    fired.push_back(!inj.Check("test.point").ok());
  }
  // Hits 3 and 5 fire; max_fires stops everything after that.
  std::vector<bool> expected = {false, false, true, false, true,
                                false, false, false, false, false};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(inj.hits("test.point"), 10);
  EXPECT_EQ(inj.fires("test.point"), 2);
  // Unarmed points never fire and cost almost nothing.
  EXPECT_TRUE(inj.Check("other.point").ok());
}

TEST_F(FaultTest, InjectorKindsMapToTaxonomy) {
  auto& inj = FaultInjector::Global();
  inj.Arm("p.transient", {FaultKind::kTransient, 1, 1, -1, 0, 1.0, ""});
  inj.Arm("p.permanent", {FaultKind::kPermanent, 1, 1, -1, 0, 1.0, ""});
  inj.Arm("p.disconnect", {FaultKind::kDisconnect, 1, 1, -1, 0, 1.0, ""});
  EXPECT_TRUE(inj.Check("p.transient").IsRetryable());
  EXPECT_FALSE(inj.Check("p.permanent").IsRetryable());
  EXPECT_TRUE(inj.Check("p.disconnect").IsUnavailable());

  FaultSpec latency;
  latency.kind = FaultKind::kLatency;
  latency.latency_ms = 5;
  inj.Arm("p.latency", latency);
  Stopwatch sw;
  EXPECT_TRUE(inj.Check("p.latency").ok());  // delays, then proceeds
  EXPECT_GE(sw.ElapsedMillis(), 4.0);
}

TEST_F(FaultTest, ProbabilityPatternIsSeedDeterministic) {
  auto& inj = FaultInjector::Global();
  FaultSpec spec;
  spec.probability = 0.5;
  auto pattern = [&](uint64_t seed) {
    inj.Reset();
    inj.SetSeed(seed);
    inj.Arm("prob.point", spec);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(!inj.Check("prob.point").ok());
    }
    return fired;
  };
  auto a = pattern(42), b = pattern(42), c = pattern(43);
  EXPECT_EQ(a, b);  // identical seed -> identical pattern
  EXPECT_NE(a, c);  // different seed -> different pattern
  int fires = 0;
  for (bool f : a) fires += f ? 1 : 0;
  EXPECT_GT(fires, 10);  // p=0.5 over 64 hits is nowhere near 0 or 64
  EXPECT_LT(fires, 54);
}

TEST_F(FaultTest, EnvStyleConfigRoundTrip) {
  auto& inj = FaultInjector::Global();
  ASSERT_TRUE(inj.Configure("vdb.execute=transient:first=2,max=1;"
                            "socket.read = latency : ms=7 ;"
                            "store.spill=permanent:msg=disk full")
                  .ok());
  auto points = inj.armed_points();
  ASSERT_EQ(points.size(), 3u);
  EXPECT_TRUE(inj.Check(faultpoints::kVdbExecute).ok());    // hit 1: armed at 2
  EXPECT_FALSE(inj.Check(faultpoints::kVdbExecute).ok());   // hit 2: fires
  EXPECT_TRUE(inj.Check(faultpoints::kVdbExecute).ok());    // max=1 reached
  Status spill = FaultInjector::Global().Check(faultpoints::kStoreSpill);
  EXPECT_TRUE(spill.IsExecutionError());
  EXPECT_NE(spill.message().find("disk full"), std::string::npos);

  EXPECT_FALSE(inj.Configure("no_equals_sign").ok());
  EXPECT_FALSE(inj.Configure("p=badkind").ok());
  EXPECT_FALSE(inj.Configure("p=transient:bogus=1").ok());
  EXPECT_FALSE(inj.Configure("p=transient:first=zero").ok());
  EXPECT_FALSE(inj.Configure("p=transient:p=1.5").ok());
}

// --- Retry policy / deadline ------------------------------------------------

TEST_F(FaultTest, BackoffIsCappedExponentialWithDeterministicJitter) {
  RetryPolicy policy;
  policy.base_delay_ms = 4;
  policy.max_delay_ms = 32;
  policy.jitter_seed = 7;
  int prev_step = 0;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    int step = std::min(4 << (attempt - 1), 32);  // pre-jitter exponential
    int d = policy.DelayMs(attempt);
    EXPECT_GE(d, step / 2) << attempt;
    EXPECT_LE(d, step) << attempt;
    EXPECT_EQ(d, policy.DelayMs(attempt)) << "jitter must be deterministic";
    EXPECT_GE(step, prev_step);
    prev_step = step;
  }
  RetryPolicy other = policy;
  other.jitter_seed = 8;
  bool any_diff = false;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    any_diff |= other.DelayMs(attempt) != policy.DelayMs(attempt);
  }
  EXPECT_TRUE(any_diff) << "different seeds should decorrelate";
}

TEST_F(FaultTest, RetryCallRetriesOnlyTransientErrors) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.base_delay_ms = 1;
  policy.max_delay_ms = 2;
  int calls = 0;
  RetryStats stats;
  Status st = RetryCall(policy, Deadline::Infinite(), nullptr, &stats, [&] {
    return ++calls < 3 ? Status::Unavailable("flaky") : Status::OK();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_GT(stats.backoff_micros, 0);

  calls = 0;
  st = RetryCall(policy, Deadline::Infinite(), nullptr, &stats, [&] {
    ++calls;
    return Status::ExecutionError("syntax error near SELECT");
  });
  EXPECT_TRUE(st.IsExecutionError());
  EXPECT_EQ(calls, 1) << "permanent errors must not be retried";

  calls = 0;
  st = RetryCall(policy, Deadline::Infinite(), nullptr, &stats, [&] {
    ++calls;
    return Status::Unavailable("always down");
  });
  EXPECT_TRUE(st.IsUnavailable());
  EXPECT_EQ(calls, 5) << "attempts are capped by the policy";
}

TEST_F(FaultTest, DeadlineEnforcedAcrossRetries) {
  RetryPolicy policy;
  policy.max_attempts = 100;  // deadline, not the cap, must stop the loop
  policy.base_delay_ms = 8;
  policy.max_delay_ms = 8;
  int calls = 0;
  Stopwatch sw;
  Status st = RetryCall(policy, Deadline::After(10), nullptr, nullptr, [&] {
    ++calls;
    return Status::Unavailable("down");
  });
  EXPECT_TRUE(st.IsDeadlineExceeded());
  EXPECT_LT(calls, 5);
  EXPECT_LT(sw.ElapsedMillis(), 50.0);
  // The abort message names the underlying failure for diagnosability.
  EXPECT_NE(st.message().find("down"), std::string::npos);

  // An already-expired deadline aborts before the first attempt.
  calls = 0;
  st = RetryCall(policy, Deadline::After(-1), nullptr, nullptr, [&] {
    ++calls;
    return Status::OK();
  });
  EXPECT_TRUE(st.IsDeadlineExceeded());
  EXPECT_EQ(calls, 0);
}

// --- Circuit breaker --------------------------------------------------------

TEST_F(FaultTest, BreakerOpensHalfOpensAndCloses) {
  CircuitBreakerOptions opts;
  opts.failure_threshold = 3;
  opts.cooldown_ms = 0;  // next Admit() may probe immediately
  CircuitBreaker breaker(opts);

  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.Admit().ok());
    breaker.OnFailure();
  }
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);

  // Cooldown elapsed (0ms): one probe is admitted, concurrent calls are not.
  ASSERT_TRUE(breaker.Admit().ok());
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  Status second = breaker.Admit();
  EXPECT_TRUE(second.IsUnavailable());
  breaker.OnSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 0);

  // A failed probe re-opens.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.Admit().ok());
    breaker.OnFailure();
  }
  ASSERT_TRUE(breaker.Admit().ok());  // half-open probe
  breaker.OnFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
}

TEST_F(FaultTest, OpenBreakerFailsFastWhileCoolingDown) {
  CircuitBreakerOptions opts;
  opts.failure_threshold = 1;
  opts.cooldown_ms = 60000;  // never elapses within the test
  CircuitBreaker breaker(opts);
  ASSERT_TRUE(breaker.Admit().ok());
  breaker.OnFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_TRUE(breaker.Admit().IsUnavailable());
  EXPECT_TRUE(breaker.Admit().IsUnavailable());
  EXPECT_EQ(breaker.rejected_count(), 2);
}

// --- Connector integration --------------------------------------------------

backend::ConnectorOptions FastRetryOptions() {
  backend::ConnectorOptions options;
  options.retry.max_attempts = 4;
  options.retry.base_delay_ms = 1;
  options.retry.max_delay_ms = 2;
  return options;
}

TEST_F(FaultTest, TransientBackendFaultIsRetriedToSuccess) {
  vdb::Engine engine;
  backend::BackendConnector connector(&engine, FastRetryOptions());
  FaultSpec spec;
  spec.kind = FaultKind::kTransient;
  spec.max_fires = 2;
  FaultInjector::Global().Arm(faultpoints::kVdbExecute, spec);

  auto result = connector.Execute("SELECT 1");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->attempts, 3);  // 2 injected failures + 1 success
  EXPECT_GT(result->retry_backoff_micros, 0);
  EXPECT_EQ(FaultInjector::Global().fires(faultpoints::kVdbExecute), 2);
  EXPECT_EQ(connector.breaker()->state(), BreakerState::kClosed);
}

TEST_F(FaultTest, PermanentBackendFaultFailsWithoutRetry) {
  vdb::Engine engine;
  backend::BackendConnector connector(&engine, FastRetryOptions());
  FaultSpec spec;
  spec.kind = FaultKind::kPermanent;
  FaultInjector::Global().Arm(faultpoints::kVdbExecute, spec);

  auto result = connector.Execute("SELECT 1");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsExecutionError());
  EXPECT_EQ(FaultInjector::Global().hits(faultpoints::kVdbExecute), 1)
      << "permanent errors must fail fast, not burn retry attempts";
  EXPECT_EQ(engine.statements_executed(), 0);
}

TEST_F(FaultTest, ConnectorDeadlineAbortsMidRetry) {
  vdb::Engine engine;
  backend::ConnectorOptions options;
  options.retry.max_attempts = 100;
  options.retry.base_delay_ms = 8;
  options.retry.max_delay_ms = 8;
  backend::BackendConnector connector(&engine, options);
  FaultSpec spec;
  spec.kind = FaultKind::kTransient;
  FaultInjector::Global().Arm(faultpoints::kVdbExecute, spec);

  // The request's deadline is its context's; it spans every retry.
  QueryContext ctx;
  ctx.SetDeadline(Deadline::After(10));
  Stopwatch sw;
  auto result = connector.Execute("SELECT 1", &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded());
  EXPECT_LT(sw.ElapsedMillis(), 50.0);
}

TEST_F(FaultTest, ConnectorBreakerOpensThenRecoversViaProbe) {
  vdb::Engine engine;
  backend::ConnectorOptions options;
  options.retry.max_attempts = 1;  // isolate the breaker from the retry loop
  options.breaker.failure_threshold = 2;
  options.breaker.cooldown_ms = 0;
  backend::BackendConnector connector(&engine, options);
  FaultSpec spec;
  spec.kind = FaultKind::kTransient;
  spec.max_fires = 2;
  FaultInjector::Global().Arm(faultpoints::kVdbExecute, spec);

  EXPECT_FALSE(connector.Execute("SELECT 1").ok());
  EXPECT_FALSE(connector.Execute("SELECT 1").ok());
  EXPECT_EQ(connector.breaker()->state(), BreakerState::kOpen);

  // Cooldown 0: the next request is admitted as the half-open probe; the
  // injector is exhausted, so the probe succeeds and the breaker closes.
  auto result = connector.Execute("SELECT 1");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(connector.breaker()->state(), BreakerState::kClosed);
}

TEST_F(FaultTest, OpenConnectorBreakerShieldsTheBackend) {
  vdb::Engine engine;
  backend::ConnectorOptions options;
  options.retry.max_attempts = 1;
  options.breaker.failure_threshold = 2;
  options.breaker.cooldown_ms = 60000;
  backend::BackendConnector connector(&engine, options);
  FaultSpec spec;
  spec.kind = FaultKind::kTransient;
  FaultInjector::Global().Arm(faultpoints::kVdbExecute, spec);

  EXPECT_FALSE(connector.Execute("SELECT 1").ok());
  EXPECT_FALSE(connector.Execute("SELECT 1").ok());
  int64_t hits_when_open =
      FaultInjector::Global().hits(faultpoints::kVdbExecute);

  auto rejected = connector.Execute("SELECT 1");
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsUnavailable());
  EXPECT_NE(rejected.status().message().find("circuit breaker"),
            std::string::npos);
  EXPECT_EQ(FaultInjector::Global().hits(faultpoints::kVdbExecute),
            hits_when_open)
      << "an open breaker must not let requests reach the backend";
  EXPECT_EQ(connector.breaker()->rejected_count(), 1);
}

TEST_F(FaultTest, FetchBatchFaultIsRetriedByReexecution) {
  vdb::Engine engine;
  backend::BackendConnector connector(&engine, FastRetryOptions());
  FaultSpec spec;
  spec.kind = FaultKind::kTransient;
  spec.max_fires = 1;
  FaultInjector::Global().Arm(faultpoints::kConnectorFetchBatch, spec);

  auto result = connector.Execute("SELECT 1");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->attempts, 2);
  // The engine really ran twice: fetch failures recover by re-execution.
  EXPECT_EQ(engine.statements_executed(), 2);
}

TEST_F(FaultTest, SpillFaultIsRetriedLikeAnyFetchFailure) {
  vdb::Engine engine;
  ASSERT_TRUE(engine.ExecuteScript("CREATE TABLE T (A INTEGER);"
                                   "INSERT INTO T VALUES (1);"
                                   "INSERT INTO T VALUES (2);"
                                   "INSERT INTO T VALUES (3)")
                  .ok());
  backend::ConnectorOptions options = FastRetryOptions();
  options.batch_rows = 1;
  options.store_memory_budget = 1;  // every batch beyond the first spills
  backend::BackendConnector connector(&engine, options);
  FaultSpec spec;
  spec.kind = FaultKind::kTransient;
  spec.max_fires = 1;
  FaultInjector::Global().Arm(faultpoints::kStoreSpill, spec);

  auto result = connector.Execute("SELECT A FROM T ORDER BY A");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->attempts, 2);
  EXPECT_EQ(FaultInjector::Global().fires(faultpoints::kStoreSpill), 1);
  auto rows = result->DecodeRows();
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
}

// Satellite (DESIGN.md §8): a failed spill *write* — the disk filling up
// mid-query — surfaces as a typed kIoError and leaves no partial file
// behind, instead of silently truncating the result.
TEST_F(FaultTest, SpillWriteFailureSurfacesTypedIoError) {
  vdb::Engine engine;
  ASSERT_TRUE(engine.ExecuteScript("CREATE TABLE T (A INTEGER);"
                                   "INSERT INTO T VALUES (1);"
                                   "INSERT INTO T VALUES (2);"
                                   "INSERT INTO T VALUES (3)")
                  .ok());
  backend::ConnectorOptions options = FastRetryOptions();
  options.batch_rows = 1;
  options.store_memory_budget = 1;  // every batch beyond the first spills
  std::string dir = "/tmp/hyperq_enospc_XXXXXX";
  {
    std::vector<char> buf(dir.begin(), dir.end());
    buf.push_back('\0');
    ASSERT_NE(mkdtemp(buf.data()), nullptr);
    dir.assign(buf.data());
  }
  options.spill_dir = dir;
  backend::BackendConnector connector(&engine, options);

  FaultSpec spec;
  spec.kind = FaultKind::kPermanent;  // ENOSPC does not heal on retry
  spec.message = "No space left on device";
  FaultInjector::Global().Arm(faultpoints::kStoreSpillWrite, spec);

  auto result = connector.Execute("SELECT A FROM T ORDER BY A");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIoError()) << result.status();
  EXPECT_NE(result.status().message().find("No space left"),
            std::string::npos);
  // IoError is not retryable: the query failed on the first attempt
  // instead of hammering a full disk.
  EXPECT_EQ(FaultInjector::Global().fires(faultpoints::kStoreSpillWrite), 1);

  // The partially written spill file was cleaned up.
  size_t files = 0;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator(dir, ec);
       !ec && it != std::filesystem::directory_iterator(); ++it) {
    ++files;
  }
  EXPECT_EQ(files, 0u) << "spill-write failure must remove the partial file";
  std::filesystem::remove_all(dir);
}

// --- Service: attempts surface in the timing breakdown ----------------------

TEST_F(FaultTest, RetriesSurfaceInTimingBreakdown) {
  vdb::Engine engine;
  service::ServiceOptions options;
  options.connector = FastRetryOptions();
  service::HyperQService service(&engine, options);
  auto session = service.OpenSession("dbc");
  ASSERT_TRUE(session.ok());

  FaultSpec spec;
  spec.kind = FaultKind::kTransient;
  spec.max_fires = 1;
  FaultInjector::Global().Arm(faultpoints::kVdbExecute, spec);
  auto outcome = service.Submit(*session, "SEL 1");
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->timing.execution_attempts, 2);
  EXPECT_GT(outcome->timing.retry_backoff_micros, 0);

  FaultInjector::Global().Reset();
  outcome = service.Submit(*session, "SEL 1");
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->timing.execution_attempts, 1);
  EXPECT_EQ(outcome->timing.retry_backoff_micros, 0);
  service.CloseSession(*session);
}

// --- Wire-level faults ------------------------------------------------------

struct SocketPair {
  protocol::Socket client;
  protocol::Socket server;
};

SocketPair MakeLoopbackPair() {
  auto listener = protocol::ListenSocket::BindLocal(0);
  EXPECT_TRUE(listener.ok());
  auto client = protocol::Socket::ConnectLocal(listener->port());
  EXPECT_TRUE(client.ok());
  auto server = listener->Accept();
  EXPECT_TRUE(server.ok());
  return {std::move(client).value(), std::move(server).value()};
}

TEST_F(FaultTest, InjectedSocketReadDropIsRetryable) {
  SocketPair pair = MakeLoopbackPair();
  protocol::Frame frame{protocol::MessageKind::kGoodbye, 0, {}};
  ASSERT_TRUE(pair.client.WriteFrame(frame).ok());

  FaultSpec spec;
  spec.kind = FaultKind::kDisconnect;
  spec.max_fires = 1;
  FaultInjector::Global().Arm(faultpoints::kSocketRead, spec);
  auto dropped = pair.server.ReadFrame();
  ASSERT_FALSE(dropped.ok());
  EXPECT_TRUE(dropped.status().IsUnavailable());

  // The fault is exhausted; the frame is still in the kernel buffer.
  auto delivered = pair.server.ReadFrame();
  ASSERT_TRUE(delivered.ok());
  EXPECT_EQ(delivered->kind, protocol::MessageKind::kGoodbye);
}

TEST_F(FaultTest, InjectedSocketWriteFaultSurfaces) {
  SocketPair pair = MakeLoopbackPair();
  FaultSpec spec;
  spec.kind = FaultKind::kTransient;
  spec.max_fires = 1;
  FaultInjector::Global().Arm(faultpoints::kSocketWrite, spec);
  protocol::Frame frame{protocol::MessageKind::kGoodbye, 0, {}};
  Status st = pair.client.WriteFrame(frame);
  EXPECT_TRUE(st.IsUnavailable());
  EXPECT_TRUE(pair.client.WriteFrame(frame).ok());
}

TEST_F(FaultTest, RecvTimeoutSurfacesAsDeadlineExceeded) {
  SocketPair pair = MakeLoopbackPair();
  ASSERT_TRUE(pair.server.SetRecvTimeoutMs(20).ok());
  Stopwatch sw;
  auto frame = pair.server.ReadFrame();
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsDeadlineExceeded());
  EXPECT_GE(sw.ElapsedMillis(), 15.0);
  EXPECT_LT(sw.ElapsedMillis(), 50.0);
}

TEST_F(FaultTest, PeerCloseIsUnavailableNotGenericIo) {
  SocketPair pair = MakeLoopbackPair();
  pair.client.Close();
  auto frame = pair.server.ReadFrame();
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsUnavailable());
}

}  // namespace
}  // namespace hyperq
