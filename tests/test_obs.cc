// Tests for the observability layer (ISSUE 4): the metrics registry under
// concurrent increments, deterministic trace stitching, the RAII
// SubqueryScope, profile-tree determinism across worker counts, the
// EXPLAIN ANALYZE golden shape, and counter conservation (profile == stats
// delta == registry delta). Built both plain and under
// -DSQLARRAY_SANITIZE=thread (the tsan_obs_suite ctest entry).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "engine/exec.h"
#include "engine/query_context.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "sql/session.h"
#include "storage/table.h"
#include "udfs/register.h"

namespace sqlarray {
namespace {

using engine::Value;

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, GetIsGetOrCreateWithStablePointers) {
  obs::MetricsRegistry reg;
  obs::Counter* a = reg.GetCounter("x.count");
  obs::Counter* b = reg.GetCounter("x.count");
  EXPECT_EQ(a, b);
  a->Add(3);
  EXPECT_EQ(reg.Snapshot().ValueOr("x.count"), 3);
  EXPECT_EQ(reg.Snapshot().ValueOr("no.such.metric", -7), -7);

  obs::Gauge* g = reg.GetGauge("x.level");
  g->Set(10);
  g->Add(-4);
  EXPECT_EQ(reg.Snapshot().ValueOr("x.level"), 6);
}

TEST(MetricsRegistry, ConcurrentIncrementsAreExactAfterJoin) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("concurrent.counter");
  obs::Histogram* h = reg.GetHistogram("concurrent.histo");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        c->Add(1);
        h->Observe(t + 1);
        // Snapshots taken while writers run must stay well-formed (monotone
        // lower bounds), which TSan verifies is race-free.
        if (i % 4096 == 0) {
          obs::MetricsSnapshot s = reg.Snapshot();
          EXPECT_GE(s.ValueOr("concurrent.counter"), 0);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  obs::MetricsSnapshot s = reg.Snapshot();
  EXPECT_EQ(s.ValueOr("concurrent.counter"), kThreads * kPerThread);
  EXPECT_EQ(s.ValueOr("concurrent.histo.count"), kThreads * kPerThread);
  // sum = kPerThread * (1 + 2 + ... + kThreads)
  EXPECT_EQ(s.ValueOr("concurrent.histo.sum"),
            static_cast<int64_t>(kPerThread) * kThreads * (kThreads + 1) / 2);
}

TEST(MetricsRegistry, DeltaTreatsMissingInstrumentsAsZero) {
  obs::MetricsRegistry reg;
  obs::MetricsSnapshot before = reg.Snapshot();
  reg.GetCounter("late.arrival")->Add(5);
  obs::MetricsSnapshot after = reg.Snapshot();
  EXPECT_EQ(after.Delta(before, "late.arrival"), 5);
  EXPECT_EQ(after.Delta(before, "never.registered"), 0);
}

TEST(Histogram, BucketsArePowerOfTwoRanges) {
  obs::Histogram h;
  h.Observe(-3);
  h.Observe(0);
  h.Observe(1);
  EXPECT_EQ(h.bucket(0), 3);  // <= 0 and 1 land in bucket 0
  h.Observe(1000);
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.sum(), -3 + 0 + 1 + 1000);
  // 1000 is in [512, 1024) = [2^9, 2^10) -> bucket 10.
  EXPECT_EQ(h.bucket(obs::Histogram::BucketOf(1000)), 1);
  EXPECT_EQ(obs::Histogram::BucketOf(512), obs::Histogram::BucketOf(1000));
  EXPECT_NE(obs::Histogram::BucketOf(1024), obs::Histogram::BucketOf(1000));
}

// ---------------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------------

/// The deterministic projection of a stitched trace (everything but
/// wall_ns).
std::string TraceShape(const obs::TraceSink& sink) {
  std::string out;
  for (const obs::TraceSpan& s : sink.Stitched()) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%lld/%lld/%d:%s\n",
                  static_cast<long long>(s.lane),
                  static_cast<long long>(s.seq), s.depth, s.name.c_str());
    out += buf;
  }
  return out;
}

TEST(Trace, SpansAreNoOpsWithoutABoundSink) {
  SQLARRAY_SPAN("orphan");  // must not crash or record anywhere
}

TEST(Trace, StitchingIsIndependentOfExecutionOrder) {
  // The same logical work executed in two different lane orders (as if
  // different workers had claimed the morsels) stitches identically.
  auto run = [](obs::TraceSink* sink, const std::vector<int64_t>& order) {
    {
      obs::ScopedTrace serial(sink, obs::kSerialLane);
      SQLARRAY_SPAN("exec.query");
      for (int64_t lane : order) {
        obs::ScopedTrace bind(sink, lane);
        SQLARRAY_SPAN("exec.scan.morsel");
        if (lane % 2 == 0) {
          SQLARRAY_SPAN("exec.scan.morsel.filter");  // nested: depth 1
        }
      }
    }
  };
  obs::TraceSink a;
  obs::TraceSink b;
  run(&a, {0, 1, 2, 3});
  run(&b, {3, 1, 0, 2});
  EXPECT_EQ(TraceShape(a), TraceShape(b));
  EXPECT_EQ(a.span_count(), b.span_count());
  EXPECT_GE(a.TotalWallNs("exec.scan.morsel"), 0.0);
  // Nested spans carry their depth.
  bool saw_nested = false;
  for (const obs::TraceSpan& s : a.Stitched()) {
    if (s.name == "exec.scan.morsel.filter") {
      EXPECT_EQ(s.depth, 1);
      saw_nested = true;
    }
  }
  EXPECT_TRUE(saw_nested);
}

TEST(Trace, ConcurrentLanesRecordIndependently) {
  // One sink, eight threads, each bound to its own lane — the TSan build of
  // this test is the race check for the per-binding buffer design.
  obs::TraceSink sink;
  std::vector<std::thread> threads;
  for (int64_t lane = 0; lane < 8; ++lane) {
    threads.emplace_back([&sink, lane]() {
      obs::ScopedTrace bind(&sink, lane);
      for (int i = 0; i < 100; ++i) {
        SQLARRAY_SPAN("exec.scan.morsel");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(sink.span_count(), 8 * 100);
  std::vector<obs::TraceSpan> spans = sink.Stitched();
  for (size_t i = 1; i < spans.size(); ++i) {
    bool ordered = spans[i - 1].lane < spans[i].lane ||
                   (spans[i - 1].lane == spans[i].lane &&
                    spans[i - 1].seq < spans[i].seq);
    EXPECT_TRUE(ordered) << "stitched order broken at " << i;
  }
}

// ---------------------------------------------------------------------------
// SubqueryScope (RAII redesign of set_subquery_runner)
// ---------------------------------------------------------------------------

TEST(SubqueryScope, InstallReleaseAndMove) {
  storage::Database db;
  engine::FunctionRegistry registry;
  engine::Executor executor(&db, &registry);

  engine::SubqueryScope scope = executor.InstallSubqueryRunner(
      [](const std::string&) -> Result<engine::SubqueryResult> {
        return engine::SubqueryResult{};
      });
  EXPECT_TRUE(scope.active());

  // Moving the scope keeps the installation alive and transfers ownership.
  engine::SubqueryScope moved = std::move(scope);
  EXPECT_TRUE(moved.active());
  EXPECT_FALSE(scope.active());  // NOLINT(bugprone-use-after-move)

  // A later install displaces the earlier scope.
  engine::SubqueryScope second = executor.InstallSubqueryRunner(
      [](const std::string&) -> Result<engine::SubqueryResult> {
        return engine::SubqueryResult{};
      });
  EXPECT_TRUE(second.active());
  EXPECT_FALSE(moved.active());

  second.Release();
  EXPECT_FALSE(second.active());
  second.Release();  // idempotent
}

TEST(SubqueryScope, DestructorUninstallsCleanly) {
  storage::Database db;
  engine::FunctionRegistry registry;
  engine::Executor executor(&db, &registry);
  {
    engine::SubqueryScope scope = executor.InstallSubqueryRunner(
        [](const std::string&) -> Result<engine::SubqueryResult> {
          return engine::SubqueryResult{};
        });
    EXPECT_TRUE(scope.active());
  }
  // After the scope died a fresh install must work (no dangling pointer).
  engine::SubqueryScope again = executor.InstallSubqueryRunner(
      [](const std::string&) -> Result<engine::SubqueryResult> {
        return engine::SubqueryResult{};
      });
  EXPECT_TRUE(again.active());
}

// ---------------------------------------------------------------------------
// Profiles end to end
// ---------------------------------------------------------------------------

/// Test rig: one table of `rows` (id, v1, v2) rows behind a session.
class ObsQueryTest : public ::testing::Test {
 protected:
  ObsQueryTest() : executor_(&db_, &registry_), session_(&executor_) {
    EXPECT_TRUE(udfs::RegisterAllUdfs(&registry_).ok());
    executor_.set_min_pages_per_worker(0);  // parallelize tiny test tables
    storage::Schema schema =
        storage::Schema::Create({{"id", storage::ColumnType::kInt64, 0},
                                 {"v1", storage::ColumnType::kFloat64, 0},
                                 {"v2", storage::ColumnType::kFloat64, 0}})
            .value();
    table_ = db_.CreateTable("obs_t", std::move(schema)).value();
    storage::Table::BulkInserter load = table_->StartBulkLoad().value();
    for (int64_t i = 0; i < 20000; ++i) {
      // Association-sensitive v1: merge-order changes would move SUM by ulps.
      EXPECT_TRUE(load.Add({i, static_cast<double>(i) * 0.1 + 1.0 / 3.0,
                            static_cast<double>(i % 7)})
                      .ok());
    }
    EXPECT_TRUE(load.Finish().ok());
  }

  /// Serializes an EXPLAIN ANALYZE result set minus the trailing timing
  /// suffix (modeled_ms, wall_ms) — the deterministic prefix of the profile
  /// contract. wall_ms is measured; modeled_ms folds in the simulated
  /// disk's virtual clock, whose seek model is stateful across queries.
  static std::string DeterministicPrefix(const engine::ResultSet& rs) {
    std::string out;
    for (const std::vector<Value>& row : rs.rows) {
      for (size_t i = 0; i + 2 < row.size(); ++i) {
        const Value& v = row[i];
        char buf[64];
        if (v.kind() == Value::Kind::kString) {
          out += v.AsString().value();
        } else if (v.kind() == Value::Kind::kInt64) {
          std::snprintf(buf, sizeof(buf), "%lld",
                        static_cast<long long>(v.AsInt().value()));
          out += buf;
        } else if (v.kind() == Value::Kind::kFloat64) {
          std::snprintf(buf, sizeof(buf), "%.17g", v.AsDouble().value());
          out += buf;
        }
        out.push_back('|');
      }
      out.push_back('\n');
    }
    return out;
  }

  engine::ResultSet Explain(const std::string& select, int workers) {
    executor_.set_scan_workers(workers);
    db_.ClearCache();  // cold cache: hit/miss split is a function of the scan
    auto results = session_.Execute("EXPLAIN ANALYZE " + select).value();
    EXPECT_EQ(results.size(), 1u);
    return std::move(results[0]);
  }

  storage::Database db_;
  engine::FunctionRegistry registry_;
  engine::Executor executor_;
  sql::Session session_;
  storage::Table* table_ = nullptr;
};

TEST_F(ObsQueryTest, ExplainAnalyzeDeterministicAcrossWorkerCounts) {
  const std::string q = "SELECT v2, SUM(v1) AS s FROM obs_t GROUP BY v2";
  engine::ResultSet ref = Explain(q, 1);
  ASSERT_GT(ref.rows.size(), 0u);
  const std::string want = DeterministicPrefix(ref);
  for (int workers : {1, 2, 8}) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      engine::ResultSet rs = Explain(q, workers);
      EXPECT_EQ(DeterministicPrefix(rs), want)
          << "workers=" << workers << " repeat=" << repeat;
    }
  }
}

TEST_F(ObsQueryTest, ExplainAnalyzeGoldenShape) {
  engine::ResultSet rs = Explain(
      "SELECT v2, SUM(v1) AS s FROM obs_t WHERE id >= 100 GROUP BY v2", 2);
  // Stable column keys, wall_ms last.
  EXPECT_EQ(rs.columns, obs::ProfileColumns());
  ASSERT_EQ(rs.columns.back(), "wall_ms");
  // Preorder operator chain, two-space indent per depth:
  // select > group-by > filter > scan, then the root's vec summary (the
  // key, the SUM argument and the filter run as lanes).
  ASSERT_EQ(rs.rows.size(), 5u);
  EXPECT_EQ(rs.rows[0][0].AsString().value(), "select");
  EXPECT_EQ(rs.rows[0][1].AsString().value(), "group-by");
  EXPECT_EQ(rs.rows[1][0].AsString().value(), "  group-by");
  EXPECT_EQ(rs.rows[2][0].AsString().value(), "    filter");
  EXPECT_EQ(rs.rows[3][0].AsString().value(), "      scan");
  EXPECT_EQ(rs.rows[4][0].AsString().value(), "  vec");
  // `id >= 100` bounds the clustered key: the scan is a seek, and key 100
  // sits on the first of the 82 leaves, so it still reads them all.
  EXPECT_EQ(rs.rows[3][1].AsString().value(),
            "obs_t seek [100, 9223372036854775807] leaves=82/82");
  // The filter keeps 19900 of 20000 rows; the group-by emits 7 groups.
  const auto cell = [&](size_t row, size_t col) {
    return rs.rows[row][col].AsInt().value();
  };
  const size_t kRowsIn = 2;
  const size_t kRowsOut = 3;
  EXPECT_EQ(cell(2, kRowsIn), 20000);   // filter rows_in
  EXPECT_EQ(cell(2, kRowsOut), 19900);  // filter rows_out
  EXPECT_EQ(cell(1, kRowsIn), 19900);   // group-by rows_in
  EXPECT_EQ(cell(1, kRowsOut), 7);      // group-by rows_out
  EXPECT_EQ(cell(3, kRowsOut), 20000);  // scan rows_out
}

TEST_F(ObsQueryTest, ExplainRequiresAnalyzeAndASupportedStatement) {
  EXPECT_FALSE(session_.Execute("EXPLAIN SELECT 1").ok());
  // DML targets are supported since the WAL work; this one matches nothing,
  // profiles the key scan, and leaves the fixture rows alone.
  EXPECT_TRUE(
      session_.Execute("EXPLAIN ANALYZE DELETE FROM obs_t WHERE id < 0").ok());
  EXPECT_FALSE(session_.Execute("EXPLAIN ANALYZE CREATE TABLE nope (x INT)")
                   .ok());
  // EXPLAIN as a statement head is contextual only: it still works as an
  // identifier elsewhere (no new reserved word).
  EXPECT_TRUE(session_.Execute("SELECT 1 AS explain").ok());
}

TEST_F(ObsQueryTest, CountersConserveAcrossProfileStatsAndRegistry) {
  engine::Query q;
  q.table = table_;
  engine::SelectItem sum;
  sum.agg = engine::SelectItem::AggKind::kSum;
  sum.expr = engine::Col("v1");
  // Move-assigned: assigning the literal makes GCC 12 report a false
  // -Wrestrict inside std::string under ASan.
  sum.label = std::string("s");
  q.items.push_back(std::move(sum));
  ASSERT_TRUE(executor_.Bind(&q).ok());

  executor_.set_scan_workers(4);
  db_.ClearCache();
  obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  engine::QueryContext qctx;
  qctx.collect_profile = true;
  engine::ResultSet rs = executor_.Execute(q, nullptr, &qctx).value();
  obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();

  ASSERT_FALSE(qctx.profile.empty());
  // Find the scan leaf.
  const obs::ProfileNode* node = &qctx.profile.root();
  while (!node->children.empty()) node = &node->children[0];
  ASSERT_EQ(node->op, "scan");

  // Conservation: the profile's scan counters, the per-query stats, and the
  // process-wide registry deltas all describe the same physical events.
  EXPECT_GT(node->counters.pages_read, 0);
  EXPECT_EQ(node->counters.pages_read, qctx.stats.io.pages_read);
  EXPECT_EQ(node->counters.pages_read,
            after.Delta(before, "storage.disk.pages_read"));
  EXPECT_EQ(node->counters.cache_hits + node->counters.cache_misses,
            after.Delta(before, "storage.buffer_pool.hits") +
                after.Delta(before, "storage.buffer_pool.misses"));
  EXPECT_EQ(rs.stats.rows_scanned, 20000);
  EXPECT_EQ(qctx.stats.rows_scanned, rs.stats.rows_scanned);

  // The trace recorded the query spine and the morsel work.
  EXPECT_GT(qctx.trace.span_count(), 0);
  int64_t morsel_spans = 0;
  for (const obs::TraceSpan& s : qctx.trace.Stitched()) {
    if (s.name == "exec.scan.morsel") {
      EXPECT_GE(s.lane, 0);  // morsel lanes, not the serial spine
      ++morsel_spans;
    }
  }
  EXPECT_GT(morsel_spans, 0);
}

TEST_F(ObsQueryTest, ProfileTracksUdfBoundaryPerFunction) {
  auto results =
      session_
          .Execute(
              "EXPLAIN ANALYZE SELECT FloatArray.Vector_2(v1, v2) AS a "
              "FROM obs_t WHERE id < 64")
          .value();
  ASSERT_EQ(results.size(), 1u);
  const engine::ResultSet& rs = results[0];
  bool saw_udf = false;
  for (const std::vector<Value>& row : rs.rows) {
    std::string op = row[0].AsString().value();
    if (op.find("udf") != std::string::npos) {
      saw_udf = true;
      EXPECT_EQ(row[1].AsString().value(), "FloatArray.Vector_2");
      EXPECT_EQ(row[7].AsInt().value(), 64);  // udf_calls: one per kept row
      EXPECT_GT(row[8].AsInt().value(), 0);   // udf_bytes
    }
  }
  EXPECT_TRUE(saw_udf);
}

TEST_F(ObsQueryTest, LastStatsSurvivesSubqueries) {
  // The per-statement QueryContext redesign: a reader-style UDF's nested
  // subquery must not clobber the outer statement's session stats.
  ASSERT_TRUE(session_
                  .Execute("DECLARE @l VARBINARY(100) = IntArray.Vector_1(32); "
                           "DECLARE @a VARBINARY(MAX); "
                           "SET @a = FloatArrayMax.ConcatQuery(@l, "
                           "'SELECT id, v1 FROM obs_t WHERE id < 32')")
                  .ok());
  // The outer SET's stats include the subquery's scan, merged explicitly.
  EXPECT_GE(session_.last_stats().rows_scanned, 32);
  EXPECT_GT(session_.last_stats().udf_calls, 0);
}

}  // namespace
}  // namespace sqlarray
