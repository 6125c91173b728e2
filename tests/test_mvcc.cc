// Tests for MVCC snapshot isolation and time travel (src/mvcc/): snapshot
// repeatability under concurrent DML, read-your-own-writes inside a
// transaction, first-updater-wins conflicts with the typed retry hint,
// deterministic AS OF reads across worker counts and across crash/recovery,
// version GC keyed off the oldest active snapshot, commit crash steps, and a
// hot-row reader/writer stress that doubles as the tsan_mvcc_suite workload.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "engine/exec.h"
#include "mvcc/mvcc.h"
#include "sql/session.h"
#include "storage/table.h"
#include "storage/verify.h"
#include "udfs/register.h"
#include "wal/wal.h"

namespace sqlarray {
namespace {

using engine::Value;
using mvcc::MvccConfig;
using mvcc::MvccManager;
using mvcc::MvccStats;
using wal::WalManager;

/// A database with WAL + MVCC attached and a shared executor; tests open
/// sql::Session instances over `executor` as independent "connections".
struct Rig {
  storage::Database db;
  WalManager wal;
  MvccManager mvcc;
  engine::FunctionRegistry registry;
  engine::Executor executor;

  explicit Rig(MvccConfig config = {})
      : wal(&db), mvcc(&db, &wal, config), executor(&db, &registry) {
    EXPECT_TRUE(udfs::RegisterAllUdfs(&registry).ok());
  }

  /// Creates `t (id BIGINT, v BIGINT)` holding ids [0, rows) with v=id%7.
  void LoadTable(int64_t rows) {
    sql::Session s(&executor);
    ASSERT_TRUE(s.Execute("CREATE TABLE t (id BIGINT, v BIGINT)").ok());
    std::string values;
    for (int64_t i = 0; i < rows; ++i) {
      if (!values.empty()) values += ", ";
      values += "(" + std::to_string(i) + ", " + std::to_string(i % 7) + ")";
      if (values.size() > 100000 || i + 1 == rows) {
        ASSERT_TRUE(s.Execute("INSERT INTO t VALUES " + values).ok());
        values.clear();
      }
    }
  }
};

/// Runs a batch expected to produce exactly one result set.
engine::ResultSet MustQuery(sql::Session* s, const std::string& sql) {
  Result<std::vector<engine::ResultSet>> r = s->Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status().message();
  if (!r.ok() || r->size() != 1) return {};
  return std::move((*r)[0]);
}

int64_t AsIntOr(const Value& v, int64_t fallback) {
  Result<int64_t> r = v.AsInt();
  return r.ok() ? *r : fallback;
}

std::string AsStrOr(const Value& v, const std::string& fallback) {
  Result<std::string> r = v.AsString();
  return r.ok() ? *r : fallback;
}

int64_t ScalarInt(sql::Session* s, const std::string& sql) {
  engine::ResultSet rs = MustQuery(s, sql);
  if (rs.rows.size() != 1 || rs.rows[0].empty()) return -1;
  return AsIntOr(rs.rows[0][0], -1);
}

/// FNV-1a over a result set's integer cells — the bitwise repeatability
/// fingerprint the determinism properties compare.
uint64_t ResultFingerprint(const engine::ResultSet& rs) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(rs.rows.size());
  for (const std::vector<Value>& row : rs.rows) {
    for (const Value& v : row) {
      mix(static_cast<uint64_t>(AsIntOr(v, 0)));
    }
  }
  return h;
}

// ---------------------------------------------------------------------------
// Snapshot visibility
// ---------------------------------------------------------------------------

TEST(MvccSnapshot, AsOfReadIsRepeatableDespiteLaterCommits) {
  Rig rig;
  ASSERT_NO_FATAL_FAILURE(rig.LoadTable(500));
  sql::Session reader(&rig.executor);
  sql::Session writer(&rig.executor);

  storage::Lsn lsn = rig.mvcc.visible_lsn();
  std::string as_of = "SELECT COUNT(id) FROM t AS OF " + std::to_string(lsn);
  EXPECT_EQ(ScalarInt(&reader, as_of), 500);

  ASSERT_TRUE(writer.Execute("INSERT INTO t VALUES (1000, 1)").ok());
  ASSERT_TRUE(writer.Execute("DELETE FROM t WHERE id < 100").ok());

  // The pinned LSN still sees the pre-DML world; a live read does not.
  EXPECT_EQ(ScalarInt(&reader, as_of), 500);
  EXPECT_EQ(ScalarInt(&reader, "SELECT COUNT(id) FROM t"), 401);
}

TEST(MvccSnapshot, TransactionSeesOwnWritesOthersDoNot) {
  Rig rig;
  ASSERT_NO_FATAL_FAILURE(rig.LoadTable(50));
  sql::Session a(&rig.executor);
  sql::Session b(&rig.executor);

  ASSERT_TRUE(a.Execute("BEGIN TRANSACTION").ok());
  ASSERT_TRUE(a.Execute("INSERT INTO t VALUES (999, 9)").ok());
  ASSERT_TRUE(a.Execute("DELETE FROM t WHERE id = 0").ok());

  // Read-your-own-writes inside the transaction...
  EXPECT_EQ(ScalarInt(&a, "SELECT COUNT(id) FROM t"), 50);
  EXPECT_EQ(ScalarInt(&a, "SELECT COUNT(id) FROM t WHERE id = 999"), 1);
  // ...while another session still sees the committed state (no dirty
  // reads), and is not blocked by the open writer.
  EXPECT_EQ(ScalarInt(&b, "SELECT COUNT(id) FROM t"), 50);
  EXPECT_EQ(ScalarInt(&b, "SELECT COUNT(id) FROM t WHERE id = 999"), 0);

  ASSERT_TRUE(a.Execute("COMMIT").ok());
  EXPECT_EQ(ScalarInt(&b, "SELECT COUNT(id) FROM t WHERE id = 999"), 1);
  EXPECT_EQ(ScalarInt(&b, "SELECT COUNT(id) FROM t WHERE id = 0"), 0);
}

TEST(MvccSnapshot, RolledBackTransactionLeavesNoTrace) {
  Rig rig;
  ASSERT_NO_FATAL_FAILURE(rig.LoadTable(20));
  sql::Session s(&rig.executor);
  ASSERT_TRUE(s.Execute("BEGIN TRANSACTION").ok());
  ASSERT_TRUE(s.Execute("INSERT INTO t VALUES (777, 7)").ok());
  ASSERT_TRUE(s.Execute("DELETE FROM t WHERE id < 5").ok());
  ASSERT_TRUE(s.Execute("ROLLBACK").ok());

  EXPECT_EQ(ScalarInt(&s, "SELECT COUNT(id) FROM t"), 20);
  EXPECT_EQ(ScalarInt(&s, "SELECT COUNT(id) FROM t WHERE id = 777"), 0);
  EXPECT_TRUE(storage::VerifyDatabase(&rig.db).issues.empty());
}

TEST(MvccSnapshot, UncommittedBlobReadFailsTypedUntilCommit) {
  Rig rig;
  sql::Session s(&rig.executor);
  ASSERT_TRUE(s.Execute("CREATE TABLE m (id BIGINT, a VARBINARY(MAX))").ok());
  ASSERT_TRUE(
      s.Execute("INSERT INTO m VALUES (1, FloatArrayMax.Vector_3(1, 2, 3))")
          .ok());
  ASSERT_TRUE(s.Execute("BEGIN TRANSACTION").ok());
  ASSERT_TRUE(
      s.Execute("INSERT INTO m VALUES (2, FloatArrayMax.Vector_3(4, 5, 6))")
          .ok());
  const std::string point =
      "SELECT FloatArrayMax.Item_1(a, 1) FROM m WHERE id = 2";
  const std::string sum = "SELECT SUM(FloatArrayMax.Item_1(a, 0)) FROM m";
  // The shadow insert holds no pages for its blob yet: a typed refusal
  // that names the cause, not a read of page 0.
  for (const std::string& sql : {point, sum}) {
    Result<std::vector<engine::ResultSet>> r = s.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kUnimplemented) << sql;
    EXPECT_NE(r.status().message().find("open transaction"),
              std::string::npos)
        << r.status().ToString();
  }
  // The committed row's blob still reads inside the transaction.
  engine::ResultSet first = MustQuery(
      &s, "SELECT FloatArrayMax.Item_1(a, 1) FROM m WHERE id = 1");
  ASSERT_EQ(first.rows.size(), 1u);
  EXPECT_EQ(first.rows[0][0].AsDouble().value(), 2.0);

  ASSERT_TRUE(s.Execute("COMMIT").ok());
  engine::ResultSet after = MustQuery(&s, point);
  ASSERT_EQ(after.rows.size(), 1u);
  EXPECT_EQ(after.rows[0][0].AsDouble().value(), 5.0);
  engine::ResultSet total = MustQuery(&s, sum);
  ASSERT_EQ(total.rows.size(), 1u);
  EXPECT_EQ(total.rows[0][0].AsDouble().value(), 5.0);
}

TEST(MvccSnapshot, ExplainAnalyzeReportsSnapshotLsn) {
  Rig rig;
  ASSERT_NO_FATAL_FAILURE(rig.LoadTable(10));
  sql::Session s(&rig.executor);
  engine::ResultSet rs =
      MustQuery(&s, "EXPLAIN ANALYZE SELECT COUNT(id) FROM t");
  bool found = false;
  for (const std::vector<Value>& row : rs.rows) {
    std::string op = AsStrOr(row[0], "");
    std::string detail = AsStrOr(row[1], "");
    // Flattened profile rows indent child operators two spaces per level.
    op.erase(0, op.find_first_not_of(' '));
    if (op == "snapshot") {
      found = true;
      EXPECT_EQ(detail.rfind("lsn=", 0), 0u) << detail;
    }
  }
  EXPECT_TRUE(found) << "no snapshot row in the profile";
}

// ---------------------------------------------------------------------------
// Write conflicts: first updater wins
// ---------------------------------------------------------------------------

TEST(MvccConflict, FirstUpdaterWinsWithTypedRetryHint) {
  Rig rig;
  ASSERT_NO_FATAL_FAILURE(rig.LoadTable(50));
  sql::Session a(&rig.executor);
  sql::Session b(&rig.executor);
  int64_t conflicts_before = rig.mvcc.Stats().write_conflicts;

  ASSERT_TRUE(a.Execute("BEGIN TRANSACTION").ok());
  ASSERT_TRUE(b.Execute("BEGIN TRANSACTION").ok());
  ASSERT_TRUE(a.Execute("DELETE FROM t WHERE id = 5").ok());

  // B touches the same clustered key while A's claim is live: B loses
  // immediately (no waiting) with the frozen status and a retry hint.
  Status st = b.Execute("DELETE FROM t WHERE id = 5").status();
  EXPECT_EQ(st.code(), StatusCode::kWriteConflict) << st.ToString();
  EXPECT_GT(st.retry_after_ms(), 0);
  EXPECT_EQ(rig.mvcc.Stats().write_conflicts, conflicts_before + 1);

  // The loser rolls back cleanly; the winner commits.
  ASSERT_TRUE(b.Execute("ROLLBACK").ok());
  ASSERT_TRUE(a.Execute("COMMIT").ok());
  EXPECT_EQ(ScalarInt(&a, "SELECT COUNT(id) FROM t WHERE id = 5"), 0);

  // B retries after the winner committed and proceeds without conflict.
  ASSERT_TRUE(b.Execute("BEGIN TRANSACTION").ok());
  ASSERT_TRUE(b.Execute("INSERT INTO t VALUES (5, 55)").ok());
  ASSERT_TRUE(b.Execute("COMMIT").ok());
  EXPECT_EQ(ScalarInt(&a, "SELECT COUNT(id) FROM t WHERE id = 5"), 1);
  EXPECT_TRUE(storage::VerifyDatabase(&rig.db).issues.empty());
}

TEST(MvccConflict, CommittedWriterBeatsTransactionThatBeganEarlier) {
  Rig rig;
  ASSERT_NO_FATAL_FAILURE(rig.LoadTable(50));
  sql::Session early(&rig.executor);
  sql::Session late(&rig.executor);

  ASSERT_TRUE(early.Execute("BEGIN TRANSACTION").ok());
  // An autocommitted writer claims and commits key 7 after `early` began.
  ASSERT_TRUE(late.Execute("DELETE FROM t WHERE id = 7").ok());

  // `early`'s snapshot predates that commit, so its update of the same key
  // must lose — first updater (the committed one) wins.
  Status st = early.Execute("INSERT INTO t VALUES (7, 70)").status();
  EXPECT_EQ(st.code(), StatusCode::kWriteConflict) << st.ToString();
  ASSERT_TRUE(early.Execute("ROLLBACK").ok());
}

TEST(MvccConflict, WriteConflictWireCodeIsFrozen) {
  // The wire protocol's numeric table is frozen: WRITE_CONFLICT is 13 and
  // carries its retry hint through StatementOutcome like admission does.
  Status st = Status::WriteConflict("loser", 7);
  EXPECT_EQ(static_cast<int32_t>(StatusCode::kWriteConflict), 13);
  EXPECT_EQ(StatusCodeToWire(st.code()), 13);
  EXPECT_EQ(st.retry_after_ms(), 7);
  EXPECT_EQ(StatusCodeName(st.code()), std::string("WRITE_CONFLICT"));
}

// ---------------------------------------------------------------------------
// Determinism: one snapshot LSN, any worker count, identical bytes
// ---------------------------------------------------------------------------

TEST(MvccDeterminism, AsOfFingerprintStableAcrossWorkersUnderDml) {
  Rig rig;
  ASSERT_NO_FATAL_FAILURE(rig.LoadTable(3000));
  storage::Lsn lsn = rig.mvcc.visible_lsn();
  std::string sql =
      "SELECT COUNT(id), SUM(id), SUM(v) FROM t AS OF " + std::to_string(lsn);

  // The reader gets its own executor over the same storage: the sweep below
  // flips set_scan_workers between reads, which is not safe against
  // statements in flight, and the writer threads keep the shared executor
  // busy the whole time.
  engine::Executor reader_exec(&rig.db, &rig.registry);
  sql::Session baseline(&reader_exec);
  uint64_t want = ResultFingerprint(MustQuery(&baseline, sql));

  // Churn the scanned range from two writer threads while the pinned-LSN
  // read runs at 1, 2, and 8 workers: every read must be bitwise identical.
  // The writers get a fixed op budget rather than free-running: each AS OF
  // read replays the log prefix, so unbounded concurrent appends would make
  // every read strictly slower than the last and the test would never
  // terminate. 150 churn ops per writer keeps DML overlapping the early
  // reads while bounding total log growth.
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      sql::Session s(&rig.executor);
      for (int64_t n = 0; n < 150; ++n) {
        int64_t key = (w * 1500 + n * 13) % 3000;
        (void)s.Execute("DELETE FROM t WHERE id = " + std::to_string(key));
        (void)s.Execute("INSERT INTO t VALUES (" + std::to_string(key) +
                        ", -1)");
      }
    });
  }
  for (int workers : {1, 2, 8}) {
    reader_exec.set_scan_workers(workers);
    for (int round = 0; round < 3; ++round) {
      engine::ResultSet rs = MustQuery(&baseline, sql);
      EXPECT_EQ(ResultFingerprint(rs), want)
          << "workers=" << workers << " round=" << round;
    }
  }
  for (std::thread& t : writers) t.join();
  EXPECT_TRUE(storage::VerifyDatabase(&rig.db).issues.empty());
}

// ---------------------------------------------------------------------------
// Time travel across restart/recovery
// ---------------------------------------------------------------------------

TEST(MvccTimeTravel, AsOfWorksAcrossCrashRecovery) {
  Rig rig;
  ASSERT_NO_FATAL_FAILURE(rig.LoadTable(200));
  sql::Session s(&rig.executor);
  storage::Lsn epoch1 = rig.mvcc.visible_lsn();

  ASSERT_TRUE(s.Execute("DELETE FROM t WHERE id < 50").ok());
  ASSERT_TRUE(s.Execute("CHECKPOINT").ok());
  storage::Lsn epoch2 = rig.mvcc.visible_lsn();
  ASSERT_TRUE(s.Execute("INSERT INTO t VALUES (500, 5), (501, 5)").ok());

  rig.wal.SimulateCrash();
  ASSERT_TRUE(rig.wal.Recover().ok());

  // The recovered database answers both live and historical reads.
  EXPECT_EQ(ScalarInt(&s, "SELECT COUNT(id) FROM t"), 152);
  EXPECT_EQ(ScalarInt(&s, "SELECT COUNT(id) FROM t AS OF " +
                              std::to_string(epoch1)),
            200);
  EXPECT_EQ(ScalarInt(&s, "SELECT COUNT(id) FROM t AS OF " +
                              std::to_string(epoch2)),
            150);
  // AS OF CHECKPOINT resolves the last durable checkpoint (taken after the
  // delete, before the insert).
  EXPECT_EQ(ScalarInt(&s, "SELECT COUNT(id) FROM t AS OF CHECKPOINT"), 150);
}

TEST(MvccTimeTravel, AsOfRequiresMvccAndValidLsn) {
  // Without an MVCC manager, AS OF is a typed error, not silent live data.
  storage::Database db;
  engine::FunctionRegistry registry;
  engine::Executor executor(&db, &registry);
  sql::Session s(&executor);
  ASSERT_TRUE(s.Execute("CREATE TABLE t (id BIGINT, v BIGINT)").ok());
  Status st = s.Execute("SELECT COUNT(id) FROM t AS OF 1").status();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);

  Rig rig;
  ASSERT_NO_FATAL_FAILURE(rig.LoadTable(5));
  sql::Session m(&rig.executor);
  // An LSN beyond everything durable is rejected, not misread.
  Status future = m.Execute("SELECT COUNT(id) FROM t AS OF 999999999")
                      .status();
  EXPECT_FALSE(future.ok());
}

// ---------------------------------------------------------------------------
// Version GC
// ---------------------------------------------------------------------------

TEST(MvccGc, OldestSnapshotPinsHistoryReleaseDrainsIt) {
  Rig rig;
  ASSERT_NO_FATAL_FAILURE(rig.LoadTable(300));
  sql::Session s(&rig.executor);

  auto snap = rig.mvcc.AcquireSnapshot();
  ASSERT_TRUE(snap.ok()) << snap.status().message();
  EXPECT_EQ(rig.mvcc.Stats().snapshots_active, 1);

  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(s.Execute("DELETE FROM t WHERE id < 40").ok());
    std::string values;
    for (int64_t i = 0; i < 40; ++i) {
      if (!values.empty()) values += ", ";
      values += "(" + std::to_string(i) + ", " + std::to_string(round) + ")";
    }
    ASSERT_TRUE(s.Execute("INSERT INTO t VALUES " + values).ok());
  }
  MvccStats pinned = rig.mvcc.Stats();
  EXPECT_GT(pinned.versions_created, 0);
  EXPECT_GT(pinned.versions_created - pinned.versions_gc, 0);
  EXPECT_GT(pinned.history_bytes, 0);
  EXPECT_GT(pinned.oldest_snapshot_lsn, 0u);

  // Dropping the last snapshot moves the horizon to infinity: the chains
  // drain completely and the gauges return to zero.
  snap->reset();
  MvccStats drained = rig.mvcc.Stats();
  EXPECT_EQ(drained.snapshots_active, 0);
  EXPECT_EQ(drained.versions_created - drained.versions_gc, 0);
  EXPECT_EQ(drained.history_bytes, 0);
}

TEST(MvccGc, HistoryBudgetRejectsNewSnapshotsWithRetryHint) {
  MvccConfig config;
  config.history_budget_bytes = 4096;  // half a page: trips immediately
  Rig rig(config);
  ASSERT_NO_FATAL_FAILURE(rig.LoadTable(100));
  sql::Session s(&rig.executor);

  auto pin = rig.mvcc.AcquireSnapshot();
  ASSERT_TRUE(pin.ok());
  ASSERT_TRUE(s.Execute("DELETE FROM t WHERE id < 50").ok());
  ASSERT_GT(rig.mvcc.Stats().history_bytes, config.history_budget_bytes);

  Result<std::shared_ptr<storage::PageSource>> rejected =
      rig.mvcc.AcquireSnapshot();
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(rejected.status().retry_after_ms(), 0);

  pin->reset();  // history drains; snapshots admit again
  EXPECT_TRUE(rig.mvcc.AcquireSnapshot().ok());
}

// ---------------------------------------------------------------------------
// Commit crash steps: a transaction dies whole
// ---------------------------------------------------------------------------

TEST(MvccCrash, CommitCrashAtEveryStepRecoversAtomically) {
  for (int step = 1; step <= 3; ++step) {
    SCOPED_TRACE("crash step " + std::to_string(step));
    Rig rig;
    ASSERT_NO_FATAL_FAILURE(rig.LoadTable(60));
    sql::Session s(&rig.executor);

    uint64_t txn = rig.mvcc.Begin().value();
    storage::Table* table = rig.db.GetTable("t").value();
    ASSERT_TRUE(rig.mvcc.ApplyInsert(txn, table, {int64_t{900}, int64_t{9}})
                    .ok());
    ASSERT_TRUE(rig.mvcc.ApplyDelete(txn, table, 3).value());
    rig.mvcc.set_commit_crash_step(step);
    EXPECT_FALSE(rig.mvcc.Commit(txn).ok());

    rig.wal.SimulateCrash();
    ASSERT_TRUE(rig.wal.Recover().ok());

    // Nothing of the doomed transaction may survive, and the database
    // keeps serving reads and commits.
    EXPECT_EQ(ScalarInt(&s, "SELECT COUNT(id) FROM t"), 60);
    EXPECT_EQ(ScalarInt(&s, "SELECT COUNT(id) FROM t WHERE id = 900"), 0);
    EXPECT_EQ(ScalarInt(&s, "SELECT COUNT(id) FROM t WHERE id = 3"), 1);
    ASSERT_TRUE(s.Execute("INSERT INTO t VALUES (901, 1)").ok());
    EXPECT_EQ(ScalarInt(&s, "SELECT COUNT(id) FROM t"), 61);
    EXPECT_TRUE(storage::VerifyDatabase(&rig.db).issues.empty());
  }
}

// ---------------------------------------------------------------------------
// DDL and session lifetime
// ---------------------------------------------------------------------------

// DDL is not transactional: CREATE TABLE inside BEGIN is logged under the
// system transaction. A transaction with no DML commits by rolling back, so
// under its own id the table's record would never be replayed.
TEST(MvccDdl, CreateTableInsideTransactionSurvivesCrash) {
  for (const char* end : {"COMMIT", "ROLLBACK"}) {
    SCOPED_TRACE(end);
    Rig rig;
    sql::Session a(&rig.executor);
    sql::Session b(&rig.executor);
    ASSERT_TRUE(a.Execute("BEGIN TRANSACTION").ok());
    ASSERT_TRUE(a.Execute("CREATE TABLE x (id BIGINT, v BIGINT)").ok());
    ASSERT_TRUE(a.Execute(end).ok());
    ASSERT_TRUE(b.Execute("INSERT INTO x VALUES (1, 10)").ok());

    rig.wal.SimulateCrash();
    ASSERT_TRUE(rig.wal.Recover().ok());
    Status read = b.Execute("SELECT COUNT(id) FROM x").status();
    ASSERT_TRUE(read.ok()) << read.ToString();
    EXPECT_EQ(ScalarInt(&b, "SELECT v FROM x WHERE id = 1"), 10);
  }
}

// CREATE TABLE is durable when it returns, with no later commit to carry
// its log record to the log disk.
TEST(MvccDdl, CreateTableIsDurableWhenItReturns) {
  Rig rig;
  sql::Session s(&rig.executor);
  ASSERT_TRUE(s.Execute("CREATE TABLE y (id BIGINT, v BIGINT)").ok());
  rig.wal.SimulateCrash();
  ASSERT_TRUE(rig.wal.Recover().ok());
  Status read = s.Execute("SELECT COUNT(id) FROM y").status();
  ASSERT_TRUE(read.ok()) << read.ToString();
  EXPECT_EQ(ScalarInt(&s, "SELECT COUNT(id) FROM y"), 0);
}

// A session that goes away with BEGIN open rolls its transaction back;
// otherwise its key claims stay owned and writers of those keys conflict
// for good.
TEST(MvccSession, DestroyedSessionReleasesItsTransaction) {
  Rig rig;
  ASSERT_NO_FATAL_FAILURE(rig.LoadTable(50));
  {
    sql::Session a(&rig.executor);
    ASSERT_TRUE(a.Execute("BEGIN TRANSACTION").ok());
    ASSERT_TRUE(a.Execute("INSERT INTO t VALUES (100, 1)").ok());
  }
  sql::Session b(&rig.executor);
  Status st = b.Execute("INSERT INTO t VALUES (100, 2)").status();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(ScalarInt(&b, "SELECT v FROM t WHERE id = 100"), 2);
  EXPECT_EQ(ScalarInt(&b, "SELECT COUNT(id) FROM t"), 51);
}

// A database with a WAL runs transactions only under MVCC: without an
// MvccManager every statement fails before anything reaches the log.
TEST(MvccSession, WalWithoutMvccRefusesEveryStatement) {
  storage::Database db;
  WalManager wal(&db);
  engine::FunctionRegistry registry;
  engine::Executor executor(&db, &registry);
  sql::Session s(&executor);
  storage::Lsn before = wal.log_writer()->next_lsn();
  for (const char* sql :
       {"BEGIN TRANSACTION", "CREATE TABLE t (id BIGINT, v BIGINT)",
        "INSERT INTO t VALUES (1, 1)", "DELETE FROM t WHERE id = 1",
        "SELECT COUNT(id) FROM t"}) {
    Status st = s.Execute(sql).status();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << sql << ": "
                                                       << st.ToString();
  }
  EXPECT_FALSE(s.in_transaction());
  EXPECT_FALSE(db.GetTable("t").ok());
  EXPECT_EQ(wal.log_writer()->next_lsn(), before);
}

// ---------------------------------------------------------------------------
// Reader/writer stress (the tsan_mvcc_suite workload)
// ---------------------------------------------------------------------------

TEST(MvccStress, HotRowReadersAlwaysSeeAtomicRewrites) {
  // Writers transactionally rewrite all four hot rows to one value per
  // round; snapshot readers must never observe a torn rewrite (mixed
  // values) — the invariant that falls out of statement-level snapshots.
  Rig rig;
  {
    sql::Session setup(&rig.executor);
    ASSERT_TRUE(setup.Execute("CREATE TABLE hot (id BIGINT, v BIGINT)").ok());
    ASSERT_TRUE(
        setup.Execute("INSERT INTO hot VALUES (0,0), (1,0), (2,0), (3,0)")
            .ok());
  }

  constexpr int kWriters = 3, kReaders = 2, kRounds = 25, kReads = 60;
  std::atomic<int64_t> conflicts{0};
  std::atomic<bool> torn{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      sql::Session s(&rig.executor);
      for (int round = 0; round < kRounds; ++round) {
        int64_t val = w * 1000 + round;
        std::string batch = "BEGIN TRANSACTION";
        for (int k = 0; k < 4; ++k) {
          batch += "; DELETE FROM hot WHERE id = " + std::to_string(k) +
                   "; INSERT INTO hot VALUES (" + std::to_string(k) + ", " +
                   std::to_string(val) + ")";
        }
        batch += "; COMMIT";
        for (int attempt = 0; attempt < 200; ++attempt) {
          Status st = s.Execute(batch).status();
          if (st.ok()) break;
          EXPECT_EQ(st.code(), StatusCode::kWriteConflict) << st.ToString();
          conflicts.fetch_add(1, std::memory_order_relaxed);
          (void)s.Execute("ROLLBACK");
          std::this_thread::sleep_for(
              std::chrono::milliseconds(st.retry_after_ms()));
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      sql::Session s(&rig.executor);
      for (int op = 0; op < kReads; ++op) {
        engine::ResultSet rs =
            MustQuery(&s, "SELECT MIN(v), MAX(v), COUNT(id) FROM hot");
        if (rs.rows.size() != 1) continue;
        int64_t lo = AsIntOr(rs.rows[0][0], -1);
        int64_t hi = AsIntOr(rs.rows[0][1], -2);
        int64_t n = AsIntOr(rs.rows[0][2], 0);
        if (lo != hi || n != 4) torn.store(true);
        EXPECT_EQ(n, 4);
        EXPECT_EQ(lo, hi) << "torn rewrite visible";
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(torn.load());
  // Contention on four rows across three writers: conflicts are the norm.
  EXPECT_TRUE(storage::VerifyDatabase(&rig.db).issues.empty());
}

}  // namespace
}  // namespace sqlarray
