// Tests for resource governance and the multi-session front-end (ISSUE 6):
// cancellation tokens and deadlines, per-statement memory budgets, the
// admission controller (FIFO, bounded queue, cancellable waits), SET
// session-option statements, end-to-end kills with WAL rollback, and the
// ArrayServer under concurrent submit/cancel/kill traffic. Built both plain
// and under -DSQLARRAY_SANITIZE=thread (tsan_gov_suite).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "engine/exec.h"
#include "gov/admission.h"
#include "gov/gov.h"
#include "mvcc/mvcc.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "sql/parser.h"
#include "sql/session.h"
#include "storage/verify.h"
#include "udfs/register.h"
#include "wal/wal.h"

namespace sqlarray {
namespace {

using engine::Value;

// ---------------------------------------------------------------------------
// CancelSource
// ---------------------------------------------------------------------------

TEST(CancelSource, FirstCancelWinsAndResetClears) {
  gov::CancelSource src;
  EXPECT_TRUE(src.Check().ok());
  EXPECT_TRUE(src.StatusNow().ok());

  src.Cancel(gov::KillReason::kUser, "killed by test");
  src.Cancel(gov::KillReason::kDeadline, "should lose the race");
  Status st = src.Check();
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_NE(st.message().find("killed by test"), std::string::npos);

  src.Reset();
  EXPECT_TRUE(src.Check().ok());
}

TEST(CancelSource, DeadlineFiresViaProbe) {
  gov::CancelSource src;
  src.ArmDeadline(std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1));
  // The watchdog-style probe forces the clock comparison immediately.
  EXPECT_TRUE(src.ProbeDeadline());
  EXPECT_EQ(src.StatusNow().code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(src.ProbeDeadline());  // already fired
  src.Reset();
  EXPECT_TRUE(src.Check().ok());
}

TEST(CancelSource, DeadlineFiresViaStrideSelfCheck) {
  gov::CancelSource src;
  src.ArmDeadline(std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1));
  // Check() reads the clock on the first probe and then every
  // kDeadlineStride probes; within one stride it must have fired.
  Status st = Status::OK();
  for (uint64_t i = 0; i <= gov::CancelSource::kDeadlineStride + 1; ++i) {
    st = src.Check();
    if (!st.ok()) break;
  }
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelSource, DisarmPreventsDeadline) {
  gov::CancelSource src;
  src.ArmDeadline(std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1));
  src.DisarmDeadline();
  EXPECT_FALSE(src.ProbeDeadline());
  EXPECT_TRUE(src.Check().ok());
}

TEST(CancelSource, DisarmClearsAFiredDeadlineButNotAKill) {
  // The watchdog can fire a statement's deadline after the statement has
  // returned; disarming at the statement's end clears that kill, so the
  // next statement runs.
  gov::CancelSource src;
  src.ArmDeadline(std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1));
  EXPECT_TRUE(src.ProbeDeadline());
  src.DisarmDeadline();
  EXPECT_TRUE(src.StatusNow().ok());

  // A user or shutdown kill still aborts the next statement.
  for (gov::KillReason reason :
       {gov::KillReason::kUser, gov::KillReason::kShutdown}) {
    src.ArmDeadline(std::chrono::steady_clock::now() +
                    std::chrono::hours(1));
    src.Cancel(reason, "killed by test");
    src.DisarmDeadline();
    EXPECT_EQ(src.StatusNow().code(), StatusCode::kCancelled);
    src.Reset();
  }
}

// ---------------------------------------------------------------------------
// MemoryBudget
// ---------------------------------------------------------------------------

TEST(MemoryBudget, ChargesAndPeaks) {
  gov::MemoryBudget b;
  b.Reset(1000);
  EXPECT_TRUE(b.Charge(400).ok());
  EXPECT_TRUE(b.Charge(400).ok());
  b.Release(300);
  EXPECT_EQ(b.used(), 500);
  EXPECT_EQ(b.peak(), 800);
  EXPECT_TRUE(b.Charge(400).ok());  // 900 < 1000
  Status st = b.Charge(200);        // 1100 > 1000
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  // The overrun is sticky: every later charge fails until Reset, so all
  // workers of the statement unwind.
  EXPECT_EQ(b.Charge(1).code(), StatusCode::kResourceExhausted);
  b.Reset(1000);
  EXPECT_TRUE(b.Charge(1).ok());
  EXPECT_EQ(b.peak(), 1);
}

TEST(MemoryBudget, CheckFitsChargesNothing) {
  gov::MemoryBudget b;
  b.Reset(1000);
  EXPECT_TRUE(b.Charge(600).ok());
  EXPECT_TRUE(b.CheckFits(400).ok());
  EXPECT_EQ(b.CheckFits(401).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(b.used(), 600);
  // A refused check is not an overrun: the rest of the limit still charges.
  EXPECT_TRUE(b.Charge(400).ok());
  b.Reset(0);
  EXPECT_TRUE(b.CheckFits(int64_t{1} << 40).ok());
}

TEST(MemoryBudget, ZeroLimitMeansUnlimitedAccounting) {
  gov::MemoryBudget b;
  b.Reset(0);
  EXPECT_TRUE(b.Charge(int64_t{1} << 40).ok());
  EXPECT_EQ(b.peak(), int64_t{1} << 40);
}

// ---------------------------------------------------------------------------
// AdmissionController
// ---------------------------------------------------------------------------

TEST(Admission, GrantsUpToCapAndRejectsBeyondQueue) {
  gov::AdmissionConfig cfg;
  cfg.max_concurrent = 2;
  cfg.max_queue = 0;  // no waiting allowed: third caller is rejected
  gov::AdmissionController ac(cfg);

  Result<gov::AdmissionSlot> a = ac.Admit(nullptr);
  Result<gov::AdmissionSlot> b = ac.Admit(nullptr);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Result<gov::AdmissionSlot> c = ac.Admit(nullptr);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(c.status().message().find("retry"), std::string::npos);

  gov::AdmissionController::Stats s = ac.stats();
  EXPECT_EQ(s.admitted, 2);
  EXPECT_EQ(s.rejected, 1);
  EXPECT_EQ(s.running, 2);

  a->Release();
  EXPECT_EQ(ac.stats().running, 1);
  EXPECT_TRUE(ac.Admit(nullptr).ok());
}

TEST(Admission, QueuedWaiterRunsWhenSlotFrees) {
  gov::AdmissionConfig cfg;
  cfg.max_concurrent = 1;
  cfg.max_queue = 4;
  gov::AdmissionController ac(cfg);

  Result<gov::AdmissionSlot> held = ac.Admit(nullptr);
  ASSERT_TRUE(held.ok());

  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    Result<gov::AdmissionSlot> slot = ac.Admit(nullptr);
    EXPECT_TRUE(slot.ok());
    EXPECT_GE(slot->wait_seconds(), 0.0);
    granted.store(true);
  });
  // Give the waiter time to enqueue, then free the slot.
  while (ac.stats().queue_depth == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(granted.load());
  held->Release();
  waiter.join();
  EXPECT_TRUE(granted.load());
  gov::AdmissionController::Stats s = ac.stats();
  EXPECT_EQ(s.admitted, 2);
  EXPECT_EQ(s.queued, 1);
  EXPECT_GE(s.peak_queue_depth, 1);
}

TEST(Admission, CancelledWaiterLeavesWithoutStallingTheQueue) {
  gov::AdmissionConfig cfg;
  cfg.max_concurrent = 1;
  cfg.max_queue = 4;
  gov::AdmissionController ac(cfg);

  Result<gov::AdmissionSlot> held = ac.Admit(nullptr);
  ASSERT_TRUE(held.ok());

  // First waiter will be cancelled mid-queue; the second must still get the
  // slot (a cancelled head ticket must not wedge FIFO order).
  gov::CancelSource cancel_a;
  std::atomic<int> a_code{-1};
  std::thread wa([&] {
    Result<gov::AdmissionSlot> s = ac.Admit(&cancel_a);
    a_code.store(s.ok() ? 0 : static_cast<int>(s.status().code()));
  });
  while (ac.stats().queue_depth < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::atomic<bool> b_granted{false};
  std::thread wb([&] {
    Result<gov::AdmissionSlot> s = ac.Admit(nullptr);
    EXPECT_TRUE(s.ok());
    b_granted.store(true);
  });
  while (ac.stats().queue_depth < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  cancel_a.Cancel(gov::KillReason::kUser, "impatient");
  wa.join();
  EXPECT_EQ(a_code.load(), static_cast<int>(StatusCode::kCancelled));
  EXPECT_FALSE(b_granted.load());

  held->Release();
  wb.join();
  EXPECT_TRUE(b_granted.load());
}

TEST(Admission, DisabledControllerAdmitsEverything) {
  gov::AdmissionConfig cfg;
  cfg.enabled = false;
  cfg.max_concurrent = 1;
  cfg.max_queue = 0;
  gov::AdmissionController ac(cfg);
  std::vector<gov::AdmissionSlot> slots;
  for (int i = 0; i < 8; ++i) {
    Result<gov::AdmissionSlot> s = ac.Admit(nullptr);
    ASSERT_TRUE(s.ok());
    slots.push_back(std::move(s).value());
  }
  EXPECT_EQ(ac.stats().admitted, 8);
  EXPECT_EQ(ac.stats().rejected, 0);
}

// ---------------------------------------------------------------------------
// SET session-option statements
// ---------------------------------------------------------------------------

TEST(Parser, SetSessionOptionsParse) {
  sql::Script s = sql::Parse("SET STATEMENT_TIMEOUT_MS = 250").value();
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0].kind, sql::Statement::Kind::kSetOption);
  EXPECT_EQ(s[0].set_option.option, "STATEMENT_TIMEOUT_MS");
  EXPECT_EQ(s[0].set_option.value, 250);

  s = sql::Parse("set memory_budget_kb = 4096").value();
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0].kind, sql::Statement::Kind::kSetOption);
  EXPECT_EQ(s[0].set_option.option, "MEMORY_BUDGET_KB");
  EXPECT_EQ(s[0].set_option.value, 4096);
}

TEST(Parser, SetSessionOptionErrors) {
  // Negative values are rejected with a specific message.
  auto neg = sql::Parse("SET STATEMENT_TIMEOUT_MS = -5");
  ASSERT_FALSE(neg.ok());
  EXPECT_NE(neg.status().message().find("non-negative"), std::string::npos);

  // Non-integer values are rejected.
  auto str = sql::Parse("SET MEMORY_BUDGET_KB = 'lots'");
  ASSERT_FALSE(str.ok());
  EXPECT_NE(str.status().message().find("integer"), std::string::npos);

  auto flt = sql::Parse("SET STATEMENT_TIMEOUT_MS = 1.5");
  EXPECT_FALSE(flt.ok());

  // Missing '=' is a parse error, and ordinary variable SET still works.
  EXPECT_FALSE(sql::Parse("SET STATEMENT_TIMEOUT_MS 10").ok());
  EXPECT_TRUE(sql::Parse("DECLARE @x BIGINT = 1 SET @x = 2").ok());
}

// ---------------------------------------------------------------------------
// End-to-end session governance
// ---------------------------------------------------------------------------

/// Registers Test.Slow(x): sleeps ~1ms per call and returns x. Drives
/// deterministic "this query takes >= N ms" workloads.
void RegisterSlowUdf(engine::FunctionRegistry* registry) {
  engine::ScalarFunction slow;
  slow.schema = "Test";
  slow.name = "Slow";
  slow.arity = 1;
  slow.boundary = engine::Boundary::kClr;
  slow.fn = [](std::span<const Value> args,
               engine::UdfContext&) -> Result<Value> {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return args[0];
  };
  ASSERT_TRUE(registry->RegisterScalar(std::move(slow)).ok());
}

/// Test.SlowAgg(x): an aggregate that sleeps ~1ms per row and returns
/// NULL, the aggregate counterpart of Test.Slow.
class SlowUda : public engine::Uda {
 public:
  Result<std::vector<uint8_t>> Init(std::span<const Value>,
                                    engine::UdfContext&) override {
    return std::vector<uint8_t>{};
  }
  Result<std::vector<uint8_t>> Accumulate(std::span<const uint8_t> state,
                                          std::span<const Value>,
                                          engine::UdfContext&) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return std::vector<uint8_t>(state.begin(), state.end());
  }
  Result<Value> Terminate(std::span<const uint8_t>,
                          engine::UdfContext&) override {
    return Value::Null();
  }
};

class GovSessionTest : public ::testing::Test {
 protected:
  GovSessionTest()
      : wal_(&db_), mvcc_(&db_, &wal_), executor_(&db_, &registry_) {
    EXPECT_TRUE(udfs::RegisterAllUdfs(&registry_).ok());
    RegisterSlowUdf(&registry_);
    EXPECT_TRUE(registry_
                    .RegisterUda("Test", "SlowAgg",
                                 [] { return std::make_unique<SlowUda>(); })
                    .ok());
  }

  std::vector<engine::ResultSet> Run(sql::Session* s,
                                     const std::string& sqltext) {
    auto r = s->Execute(sqltext);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\nSQL: " << sqltext;
    return r.ok() ? std::move(r).value() : std::vector<engine::ResultSet>{};
  }

  int64_t Count(sql::Session* s, const std::string& table) {
    auto rs = Run(s, "SELECT COUNT(id) FROM " + table);
    return rs.at(0).rows.at(0).at(0).AsInt().value();
  }

  storage::Database db_;
  wal::WalManager wal_;
  mvcc::MvccManager mvcc_;
  engine::FunctionRegistry registry_;
  engine::Executor executor_;
};

TEST_F(GovSessionTest, SetOptionStatementsApply) {
  sql::Session session(&executor_);
  EXPECT_TRUE(session.Execute("SET STATEMENT_TIMEOUT_MS = 123").ok());
  EXPECT_TRUE(session.Execute("SET MEMORY_BUDGET_KB = 77").ok());
  EXPECT_EQ(session.statement_timeout_ms(), 123);
  EXPECT_EQ(session.memory_budget_kb(), 77);
  EXPECT_TRUE(session.Execute("SET STATEMENT_TIMEOUT_MS = 0").ok());
  EXPECT_EQ(session.statement_timeout_ms(), 0);
}

TEST_F(GovSessionTest, StatementTimeoutKillsAndRollsBack) {
  sql::Session session(&executor_);
  Run(&session, "CREATE TABLE t (id BIGINT, v BIGINT)");
  std::string values;
  for (int i = 0; i < 300; ++i) {
    if (i > 0) values += ", ";
    values += "(" + std::to_string(i) + ", 1)";
  }
  Run(&session, "INSERT INTO t VALUES " + values);

  obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  Run(&session, "SET STATEMENT_TIMEOUT_MS = 25");
  // ~1ms per row makes the full DELETE take >= 300ms; the 25ms deadline
  // must kill it within the probe stride's bounded grace.
  auto start = std::chrono::steady_clock::now();
  auto killed =
      session.Execute("DELETE FROM t WHERE Test.Slow(id) >= 0");
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(killed.ok());
  EXPECT_EQ(killed.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            290);  // killed well before the statement could finish

  obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_GE(after.Delta(before, "gov.deadline_kills"), 1);

  // The autocommit wrapper rolled the WAL transaction back: no rows were
  // deleted and storage verifies clean. The session stays usable with the
  // timeout disabled.
  Run(&session, "SET STATEMENT_TIMEOUT_MS = 0");
  EXPECT_EQ(Count(&session, "t"), 300);
  EXPECT_TRUE(storage::VerifyDatabase(&db_).issues.empty());
  EXPECT_FALSE(session.in_transaction());
}

TEST_F(GovSessionTest, StatementTimeoutKillsAWideUdaBlock) {
  sql::Session session(&executor_);
  Run(&session, "CREATE TABLE t (id BIGINT, v BIGINT)");
  std::string values;
  for (int i = 0; i < 300; ++i) {
    if (i > 0) values += ", ";
    values += "(" + std::to_string(i) + ", 1)";
  }
  Run(&session, "INSERT INTO t VALUES " + values);

  // All 300 rows fit one block, and ~1ms per row makes it take >= 300ms.
  // Each UDA call probes the deadline, as each hosted call does, so the
  // 25ms deadline kills the statement inside the block.
  ASSERT_GE(executor_.batch_rows(), 300);
  Run(&session, "SET STATEMENT_TIMEOUT_MS = 25");
  auto start = std::chrono::steady_clock::now();
  auto killed = session.Execute("SELECT Test.SlowAgg(v) FROM t");
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(killed.ok());
  EXPECT_EQ(killed.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            290);

  Run(&session, "SET STATEMENT_TIMEOUT_MS = 0");
  auto done = Run(&session, "SELECT Test.SlowAgg(v) FROM t WHERE id < 3");
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done[0].rows.at(0).at(0).is_null());
}

TEST_F(GovSessionTest, PreCancelledStatementHasZeroSideEffects) {
  sql::Session session(&executor_);
  Run(&session, "CREATE TABLE z (id BIGINT, v BIGINT)");
  Run(&session, "INSERT INTO z VALUES (1, 1)");

  obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  session.cancel_source()->Cancel(gov::KillReason::kUser, "pre-kill");
  auto r = session.Execute("INSERT INTO z VALUES (2, 2)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  // Zero side effects: nothing was written, not even a WAL record.
  EXPECT_EQ(after.Delta(before, "wal.records"), 0);
  EXPECT_EQ(Count(&session, "z"), 1);
  // The kill was consumed: the next statement (the COUNT above) ran fine.
  EXPECT_TRUE(session.cancel_source()->Check().ok());
}

TEST_F(GovSessionTest, MemoryBudgetAbortsQueryNotProcess) {
  sql::Session session(&executor_);
  Run(&session, "CREATE TABLE m (id BIGINT, v BIGINT)");
  std::string values;
  for (int i = 0; i < 500; ++i) {
    if (i > 0) values += ", ";
    values += "(" + std::to_string(i) + ", " + std::to_string(i) + ")";
  }
  Run(&session, "INSERT INTO m VALUES " + values);

  // 500 distinct groups comfortably exceed a 4KB budget.
  obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  Run(&session, "SET MEMORY_BUDGET_KB = 4");
  auto r = session.Execute("SELECT v, COUNT(id) FROM m GROUP BY v");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_GE(after.Delta(before, "gov.budget_kills"), 1);

  // Same query under no budget succeeds, and the peak is reported.
  Run(&session, "SET MEMORY_BUDGET_KB = 0");
  auto ok = Run(&session, "SELECT v, COUNT(id) FROM m GROUP BY v");
  EXPECT_EQ(ok.at(0).rows.size(), 500u);
  EXPECT_GT(session.last_peak_memory_bytes(), 4 * 1024);
}

TEST_F(GovSessionTest, BudgetRefusesOversizedHostedAllocation) {
  // Every statement here runs under a budget: unbudgeted, the oversized
  // calls would ask the allocator for tens of GiB.
  sql::Session session(&executor_);
  Run(&session, "CREATE TABLE c (id BIGINT)");
  std::string values;
  for (int i = 0; i < 2000; ++i) {
    if (i > 0) values += ", ";
    values += "(" + std::to_string(i) + ")";
  }
  Run(&session, "INSERT INTO c VALUES " + values);
  Run(&session, "SET MEMORY_BUDGET_KB = 1024");

  // A 2^31 x 2 FLOAT array (32 GiB) is refused before it is allocated.
  auto big = session.Execute("SELECT FloatArrayMax.Create(2147483647, 2)");
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.status().code(), StatusCode::kResourceExhausted);

  // The check charges nothing, so many small arrays fit the same budget.
  auto small =
      Run(&session, "SELECT COUNT(FloatArrayMax.Create(10, 10)) FROM c");
  ASSERT_EQ(small.size(), 1u);
  EXPECT_EQ(small[0].rows.at(0).at(0).AsInt().value(), 2000);
}

TEST_F(GovSessionTest, InBudgetSessionUnaffectedByOverBudgetNeighbor) {
  sql::Session setup(&executor_);
  Run(&setup, "CREATE TABLE n (id BIGINT, v BIGINT)");
  std::string values;
  for (int i = 0; i < 400; ++i) {
    if (i > 0) values += ", ";
    values += "(" + std::to_string(i) + ", " + std::to_string(i % 13) + ")";
  }
  Run(&setup, "INSERT INTO n VALUES " + values);

  // Reference run: unloaded.
  const std::string q = "SELECT v, SUM(id) FROM n GROUP BY v ORDER BY 1";
  auto reference = Run(&setup, q);

  // A neighbor session keeps blowing its tiny budget while the governed
  // reference query re-runs; results must be byte-identical.
  sql::Session victim(&executor_);
  sql::Session neighbor(&executor_);
  Run(&neighbor, "SET MEMORY_BUDGET_KB = 1");
  std::atomic<bool> stop{false};
  std::thread noisy([&] {
    while (!stop.load()) {
      auto r = neighbor.Execute("SELECT v, COUNT(id) FROM n GROUP BY v");
      EXPECT_FALSE(r.ok());
    }
  });
  for (int i = 0; i < 5; ++i) {
    auto rs = Run(&victim, q);
    ASSERT_EQ(rs.at(0).rows.size(), reference.at(0).rows.size());
    for (size_t j = 0; j < rs.at(0).rows.size(); ++j) {
      EXPECT_EQ(rs.at(0).rows[j].at(0).AsInt().value(),
                reference.at(0).rows[j].at(0).AsInt().value());
      EXPECT_EQ(rs.at(0).rows[j].at(1).AsInt().value(),
                reference.at(0).rows[j].at(1).AsInt().value());
    }
  }
  stop.store(true);
  noisy.join();
}

TEST_F(GovSessionTest, ExplainAnalyzeShowsAdmissionWait) {
  sql::Session session(&executor_);
  Run(&session, "CREATE TABLE e (id BIGINT, v BIGINT)");
  Run(&session, "INSERT INTO e VALUES (1, 1), (2, 2)");
  session.set_admission_wait(0.0042);
  // Profile rows are indented by tree depth; compare the trimmed op name.
  auto op_name = [](const engine::ResultSet& rs, size_t i) {
    std::string op = rs.rows[i].at(0).AsString().value();
    return op.substr(op.find_first_not_of(' '));
  };
  auto rs = Run(&session, "EXPLAIN ANALYZE SELECT SUM(v) FROM e");
  bool found = false;
  for (size_t i = 0; i < rs.at(0).rows.size(); ++i) {
    if (op_name(rs.at(0), i) == "admission") {
      found = true;
      EXPECT_NE(rs.at(0).rows[i].at(1).AsString().value().find("wait_ms=4.2"),
                std::string::npos);
    }
  }
  EXPECT_TRUE(found);
  // The wait is consumed: the next EXPLAIN has no admission row.
  auto rs2 = Run(&session, "EXPLAIN ANALYZE SELECT SUM(v) FROM e");
  for (size_t i = 0; i < rs2.at(0).rows.size(); ++i) {
    EXPECT_NE(op_name(rs2.at(0), i), "admission");
  }
}

// ---------------------------------------------------------------------------
// ArrayServer
// ---------------------------------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  ServerTest()
      : wal_(&db_), mvcc_(&db_, &wal_), executor_(&db_, &registry_) {
    EXPECT_TRUE(udfs::RegisterAllUdfs(&registry_).ok());
    RegisterSlowUdf(&registry_);
  }

  storage::Database db_;
  wal::WalManager wal_;
  mvcc::MvccManager mvcc_;
  engine::FunctionRegistry registry_;
  engine::Executor executor_;
};

TEST_F(ServerTest, SessionsExecuteThroughAdmission) {
  server::ServerConfig cfg;
  cfg.admission.max_concurrent = 2;
  server::ArrayServer srv(&executor_, cfg);
  int64_t a = srv.OpenSession();
  int64_t b = srv.OpenSession();
  EXPECT_EQ(srv.open_sessions(), 2);

  ASSERT_TRUE(srv.Execute(a, "CREATE TABLE s (id BIGINT, v BIGINT)").ok());
  ASSERT_TRUE(srv.Execute(a, "INSERT INTO s VALUES (1, 10), (2, 20)").ok());
  auto rs = srv.Execute(b, "SELECT SUM(v) FROM s");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.result_sets.at(0).rows.at(0).at(0).AsInt().value(), 30);
  EXPECT_GE(srv.admission_stats().admitted, 3);

  EXPECT_TRUE(srv.CloseSession(a).ok());
  EXPECT_TRUE(srv.CloseSession(b).ok());
  EXPECT_EQ(srv.open_sessions(), 0);
  EXPECT_FALSE(srv.Execute(a, "SELECT 1").ok());  // unknown session
}

TEST_F(ServerTest, OverloadRejectsWithRetryAfter) {
  server::ServerConfig cfg;
  cfg.admission.max_concurrent = 1;
  cfg.admission.max_queue = 1;
  server::ArrayServer srv(&executor_, cfg);
  int64_t setup = srv.OpenSession();
  ASSERT_TRUE(srv.Execute(setup, "CREATE TABLE o (id BIGINT, v BIGINT)").ok());
  std::string values;
  for (int i = 0; i < 60; ++i) {
    if (i > 0) values += ", ";
    values += "(" + std::to_string(i) + ", 1)";
  }
  ASSERT_TRUE(srv.Execute(setup, "INSERT INTO o VALUES " + values).ok());

  // Four concurrent slow statements against one slot + one queue seat:
  // at least one must be rejected with kResourceExhausted.
  std::vector<int64_t> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(srv.OpenSession());
  std::atomic<int> rejected{0}, succeeded{0};
  std::vector<std::thread> threads;
  for (int64_t id : ids) {
    threads.emplace_back([&, id] {
      auto r = srv.Execute(
          id, "SELECT SUM(Test.Slow(v)) FROM o");
      if (r.ok()) {
        ++succeeded;
      } else if (r.status.code() == StatusCode::kResourceExhausted) {
        ++rejected;
        // The rejection carries a typed retry-after hint and the frozen
        // numeric code, not just message text.
        EXPECT_GT(r.retry_after_ms, 0);
        EXPECT_EQ(r.error_code,
                  StatusCodeToWire(StatusCode::kResourceExhausted));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GE(rejected.load(), 1);
  EXPECT_GE(succeeded.load(), 1);
  EXPECT_EQ(rejected.load() + succeeded.load(), 4);
  EXPECT_GE(srv.admission_stats().rejected, 1);
}

TEST_F(ServerTest, KillQueryCancelsInFlightStatement) {
  server::ArrayServer srv(&executor_, server::ServerConfig{});
  int64_t id = srv.OpenSession();
  ASSERT_TRUE(srv.Execute(id, "CREATE TABLE k (id BIGINT, v BIGINT)").ok());
  std::string values;
  for (int i = 0; i < 2000; ++i) {
    if (i > 0) values += ", ";
    values += "(" + std::to_string(i) + ", 1)";
  }
  ASSERT_TRUE(srv.Execute(id, "INSERT INTO k VALUES " + values).ok());

  std::atomic<int> code{-1};
  std::thread runner([&] {
    auto r = srv.Execute(id, "SELECT SUM(Test.Slow(v)) FROM k");
    code.store(r.ok() ? 0 : static_cast<int>(r.status.code()));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(srv.KillQuery(id).ok());
  runner.join();
  EXPECT_EQ(code.load(), static_cast<int>(StatusCode::kCancelled));

  // The session is immediately reusable.
  auto rs = srv.Execute(id, "SELECT COUNT(id) FROM k");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.result_sets.at(0).rows.at(0).at(0).AsInt().value(), 2000);
  EXPECT_TRUE(srv.CloseSession(id).ok());
}

TEST_F(ServerTest, KillBetweenStatementsRollsBackTheOpenTransaction) {
  // A kill that lands while the session is idle aborts its next statement
  // at admission, before anything runs. Like a kill that strikes
  // mid-statement, it must not leave the explicit transaction open.
  server::ArrayServer srv(&executor_, server::ServerConfig{});
  int64_t id = srv.OpenSession();
  ASSERT_TRUE(srv.Execute(id, "CREATE TABLE kb (id BIGINT, v BIGINT)").ok());
  ASSERT_TRUE(
      srv.Execute(id, "BEGIN TRANSACTION; INSERT INTO kb VALUES (1, 1)").ok());
  ASSERT_TRUE(srv.session(id)->in_transaction());
  EXPECT_TRUE(srv.KillQuery(id).ok());
  auto killed = srv.Execute(id, "ROLLBACK");
  EXPECT_EQ(killed.status.code(), StatusCode::kCancelled);
  EXPECT_FALSE(srv.session(id)->in_transaction());

  // The session starts clean: BEGIN works and the insert is gone.
  ASSERT_TRUE(srv.Execute(id, "BEGIN TRANSACTION; COMMIT").ok());
  auto rs = srv.Execute(id, "SELECT COUNT(id) FROM kb");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.result_sets.at(0).rows.at(0).at(0).AsInt().value(), 0);
  EXPECT_TRUE(srv.CloseSession(id).ok());
}

/// Creates `cq` with rows (0, 5.0) and (1, 6.0) through session `id`.
void MakeConcatTable(server::ArrayServer* srv, int64_t id) {
  ASSERT_TRUE(srv->Execute(id, "CREATE TABLE cq (id BIGINT, v FLOAT)").ok());
  ASSERT_TRUE(
      srv->Execute(id, "INSERT INTO cq VALUES (0, 5.0), (1, 6.0)").ok());
}

/// Declares the variables ConcatCells reads in session `id`.
void DeclareConcatVariables(server::ArrayServer* srv, int64_t id, int k) {
  ASSERT_TRUE(srv->Execute(id, "DECLARE @k BIGINT = " + std::to_string(k) +
                                   "; DECLARE @l VARBINARY(100) = "
                                   "IntArray.Vector_1(3); "
                                   "DECLARE @r VARBINARY(MAX)")
                  .ok());
}

/// The three cells of the array ConcatQuery builds in session `id` from the
/// rows of `cq` that the session's subquery sees with id below its @k.
std::vector<double> ConcatCells(server::ArrayServer* srv, int64_t id) {
  server::StatementOutcome out = srv->Execute(
      id,
      "SET @r = FloatArrayMax.ConcatQuery(@l, "
      "'SELECT id, v FROM cq WHERE id < @k'); SELECT @r[0], @r[1], @r[2]");
  EXPECT_TRUE(out.ok()) << out.status.ToString();
  std::vector<double> cells;
  if (!out.ok()) return cells;
  for (const Value& v : out.result_sets.at(0).rows.at(0)) {
    cells.push_back(v.AsDouble().value());
  }
  return cells;
}

TEST_F(ServerTest, ConcatQueryReadsItsCallersVariables) {
  server::ArrayServer srv(&executor_, server::ServerConfig{});
  int64_t a = srv.OpenSession();
  MakeConcatTable(&srv, a);
  DeclareConcatVariables(&srv, a, 2);
  int64_t b = srv.OpenSession();
  DeclareConcatVariables(&srv, b, 1);
  EXPECT_EQ(ConcatCells(&srv, a), (std::vector<double>{5, 6, 0}));
  EXPECT_EQ(ConcatCells(&srv, b), (std::vector<double>{5, 0, 0}));
}

TEST_F(ServerTest, ConcatQueryReadsItsCallersTransaction) {
  server::ArrayServer srv(&executor_, server::ServerConfig{});
  int64_t a = srv.OpenSession();
  MakeConcatTable(&srv, a);
  DeclareConcatVariables(&srv, a, 3);
  int64_t b = srv.OpenSession();
  DeclareConcatVariables(&srv, b, 3);
  ASSERT_TRUE(
      srv.Execute(a, "BEGIN TRANSACTION; INSERT INTO cq VALUES (2, 7.0)").ok());
  EXPECT_EQ(ConcatCells(&srv, a), (std::vector<double>{5, 6, 7}));
  EXPECT_EQ(ConcatCells(&srv, b), (std::vector<double>{5, 6, 0}));
  ASSERT_TRUE(srv.Execute(a, "ROLLBACK").ok());
  EXPECT_EQ(ConcatCells(&srv, a), (std::vector<double>{5, 6, 0}));
}

TEST_F(ServerTest, ConcatQueryOutlivesALaterSession) {
  server::ArrayServer srv(&executor_, server::ServerConfig{});
  int64_t a = srv.OpenSession();
  MakeConcatTable(&srv, a);
  DeclareConcatVariables(&srv, a, 2);
  int64_t b = srv.OpenSession();
  ASSERT_TRUE(srv.CloseSession(b).ok());
  EXPECT_EQ(ConcatCells(&srv, a), (std::vector<double>{5, 6, 0}));
}

TEST_F(ServerTest, ConcurrentConcatQueriesReadTheirOwnVariables) {
  server::ArrayServer srv(&executor_, server::ServerConfig{});
  int64_t setup = srv.OpenSession();
  MakeConcatTable(&srv, setup);
  const std::vector<std::vector<double>> want = {{5, 0, 0}, {5, 6, 0}};
  std::vector<int64_t> ids;
  for (int k = 1; k <= 2; ++k) {
    ids.push_back(srv.OpenSession());
    DeclareConcatVariables(&srv, ids.back(), k);
  }
  std::vector<std::thread> threads;
  for (size_t s = 0; s < ids.size(); ++s) {
    threads.emplace_back([&, s] {
      for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(ConcatCells(&srv, ids[s]), want[s]) << "session " << s;
      }
    });
  }
  for (auto& t : threads) t.join();
}

TEST_F(ServerTest, SlowQueryWatchdogKillsRunaways) {
  // Load the table outside the watchdog server so a slow setup INSERT on a
  // busy machine can't trip the slow-query cap; only the runaway query runs
  // under the watchdog.
  {
    sql::Session setup(&executor_);
    ASSERT_TRUE(setup.Execute("CREATE TABLE w (id BIGINT, v BIGINT)").ok());
    std::string values;
    for (int i = 0; i < 500; ++i) {
      if (i > 0) values += ", ";
      values += "(" + std::to_string(i) + ", 1)";
    }
    ASSERT_TRUE(setup.Execute("INSERT INTO w VALUES " + values).ok());
  }

  server::ServerConfig cfg;
  cfg.watchdog_interval_ms = 2;
  cfg.slow_query_ms = 30;
  server::ArrayServer srv(&executor_, cfg);
  int64_t id = srv.OpenSession();
  auto r = srv.Execute(id, "SELECT SUM(Test.Slow(v)) FROM w");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(srv.CloseSession(id).ok());
}

TEST_F(ServerTest, ConcurrentSubmitCancelKillRaces) {
  // The tsan-suite workhorse: many sessions submitting mixed statements
  // while kills fly, all over one shared executor/worker pool. Asserts no
  // crashes, no deadlocks, and that every failure is a governance status.
  server::ServerConfig cfg;
  cfg.admission.max_concurrent = 3;
  cfg.admission.max_queue = 8;
  cfg.watchdog_interval_ms = 2;
  server::ArrayServer srv(&executor_, cfg);
  executor_.set_scan_workers(2);
  executor_.set_min_pages_per_worker(0);

  int64_t setup = srv.OpenSession();
  ASSERT_TRUE(
      srv.Execute(setup, "CREATE TABLE race (id BIGINT, v BIGINT)").ok());
  std::string values;
  for (int i = 0; i < 400; ++i) {
    if (i > 0) values += ", ";
    values += "(" + std::to_string(i) + ", " + std::to_string(i % 7) + ")";
  }
  ASSERT_TRUE(srv.Execute(setup, "INSERT INTO race VALUES " + values).ok());

  constexpr int kSessions = 6;
  constexpr int kOpsPerSession = 8;
  std::vector<int64_t> ids;
  for (int i = 0; i < kSessions; ++i) ids.push_back(srv.OpenSession());

  std::atomic<bool> stop_killer{false};
  std::thread killer([&] {
    size_t i = 0;
    while (!stop_killer.load()) {
      (void)srv.KillQuery(ids[i % ids.size()]);
      ++i;
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });

  std::atomic<int> governance_failures{0}, other_failures{0};
  std::vector<std::thread> drivers;
  for (int s = 0; s < kSessions; ++s) {
    drivers.emplace_back([&, s] {
      int64_t id = ids[s];
      if (s % 2 == 1) {
        (void)srv.Execute(id, "SET STATEMENT_TIMEOUT_MS = 10");
      }
      for (int op = 0; op < kOpsPerSession; ++op) {
        std::string sql;
        switch (op % 3) {
          case 0:
            sql = "SELECT v, SUM(id) FROM race GROUP BY v";
            break;
          case 1:
            sql = "SELECT SUM(Test.Slow(v)) FROM race WHERE id < 40";
            break;
          default:
            sql = "SELECT COUNT(id) FROM race WHERE v = 3";
            break;
        }
        auto r = srv.Execute(id, sql);
        if (!r.ok()) {
          StatusCode c = r.status.code();
          if (c == StatusCode::kCancelled ||
              c == StatusCode::kDeadlineExceeded ||
              c == StatusCode::kResourceExhausted ||
              c == StatusCode::kInvalidArgument) {
            ++governance_failures;
          } else {
            ADD_FAILURE() << "unexpected failure: " << r.status.ToString();
            ++other_failures;
          }
        }
      }
    });
  }
  for (auto& t : drivers) t.join();
  stop_killer.store(true);
  killer.join();
  EXPECT_EQ(other_failures.load(), 0);

  // The store is intact and the table untouched by the read-only barrage.
  auto rs = srv.Execute(setup, "SELECT COUNT(id) FROM race");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.result_sets.at(0).rows.at(0).at(0).AsInt().value(), 400);
  EXPECT_TRUE(storage::VerifyDatabase(&db_).issues.empty());
}

}  // namespace
}  // namespace sqlarray
