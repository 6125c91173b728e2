// Tests for the morsel-driven parallel engine: determinism of every
// parallel-eligible query shape across worker counts and repeated runs,
// the small-table worker cap, worker-pool lifecycle, work stealing, and
// thread-safety of the shared sharded buffer pool (run this file under
// -DSQLARRAY_SANITIZE=thread; see SQLARRAY_SANITIZER_TESTS in
// CMakeLists.txt).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/exec.h"
#include "engine/parallel.h"
#include "storage/table.h"

namespace sqlarray::engine {
namespace {

/// Serializes a result set's values bit-for-bit (kind tags + raw payload
/// bytes), so "byte-identical" comparisons catch even one-ulp float drift.
std::string Fingerprint(const ResultSet& rs) {
  std::string out;
  for (const std::string& c : rs.columns) {
    out += c;
    out += ';';
  }
  for (const auto& row : rs.rows) {
    for (const Value& v : row) {
      out.push_back(static_cast<char>(v.kind()));
      if (v.is_null()) {
        out += "<null>";
      } else if (v.kind() == Value::Kind::kInt64) {
        int64_t x = v.AsInt().value();
        out.append(reinterpret_cast<const char*>(&x), sizeof(x));
      } else if (v.kind() == Value::Kind::kFloat64) {
        double d = v.AsDouble().value();
        out.append(reinterpret_cast<const char*>(&d), sizeof(d));
      } else if (v.kind() == Value::Kind::kString) {
        out += v.AsString().value();
      }
      out.push_back('|');
    }
    out.push_back('\n');
  }
  return out;
}

class ParallelTest : public ::testing::Test {
 protected:
  ParallelTest() : executor_(&db_, &registry_) {
    // Force real multi-threading even on small test tables: disable the
    // pages-per-worker amortization floor (heuristic behavior is covered
    // separately by TinyTableRunsInline).
    executor_.set_min_pages_per_worker(0);
  }

  /// ~80 leaf pages / several morsels of (id, v1, v2) rows. v1 is chosen so
  /// float summation is association-sensitive: any merge-order change across
  /// worker counts would move the SUM by ulps and break the fingerprint.
  storage::Table* MakeTable(const std::string& name, int64_t rows) {
    storage::Schema schema =
        storage::Schema::Create({{"id", storage::ColumnType::kInt64, 0},
                                 {"v1", storage::ColumnType::kFloat64, 0},
                                 {"v2", storage::ColumnType::kFloat64, 0}})
            .value();
    storage::Table* t = db_.CreateTable(name, std::move(schema)).value();
    storage::Table::BulkInserter load = t->StartBulkLoad().value();
    for (int64_t i = 0; i < rows; ++i) {
      double v1 = static_cast<double>(i) * 0.1 + 1.0 / 3.0;
      double v2 = static_cast<double>(i % 97) * 0.01;
      EXPECT_TRUE(load.Add({i, v1, v2}).ok());
    }
    EXPECT_TRUE(load.Finish().ok());
    return t;
  }

  /// Runs q at each worker count in `workers`, `repeats` times each, and
  /// expects every run byte-identical to the first. When `check_stats` is
  /// set, rows_scanned and the cost accounting must also be bitwise stable
  /// (morsel partial stats merge in morsel order, so they are).
  void ExpectDeterministic(const std::function<Query()>& make_query,
                           bool check_stats) {
    Query ref_q = make_query();
    ASSERT_TRUE(executor_.Bind(&ref_q).ok());
    executor_.set_scan_workers(1);
    ResultSet ref = executor_.Execute(ref_q, nullptr).value();
    std::string want = Fingerprint(ref);
    for (int workers : {1, 2, 3, 8}) {
      executor_.set_scan_workers(workers);
      for (int repeat = 0; repeat < 3; ++repeat) {
        Query q = make_query();
        ASSERT_TRUE(executor_.Bind(&q).ok());
        ResultSet rs = executor_.Execute(q, nullptr).value();
        EXPECT_EQ(Fingerprint(rs), want)
            << "workers=" << workers << " repeat=" << repeat;
        if (check_stats) {
          EXPECT_EQ(rs.stats.rows_scanned, ref.stats.rows_scanned)
              << "workers=" << workers;
          EXPECT_TRUE(rs.stats.cpu_core_seconds == ref.stats.cpu_core_seconds)
              << "workers=" << workers << " cpu drifted by "
              << rs.stats.cpu_core_seconds - ref.stats.cpu_core_seconds;
        }
      }
    }
    executor_.set_scan_workers(1);
  }

  storage::Database db_;
  FunctionRegistry registry_;
  Executor executor_;
};

TEST_F(ParallelTest, UngroupedAggregateDeterministicAcrossWorkers) {
  storage::Table* t = MakeTable("agg", 25000);
  ExpectDeterministic(
      [&] {
        Query q;
        q.table = t;
        for (auto kind :
             {SelectItem::AggKind::kCount, SelectItem::AggKind::kSum,
              SelectItem::AggKind::kMin, SelectItem::AggKind::kMax,
              SelectItem::AggKind::kAvg}) {
          SelectItem item;
          item.agg = kind;
          item.expr = kind == SelectItem::AggKind::kCount ? Star() : Col("v1");
          item.label = "x";
          q.items.push_back(std::move(item));
        }
        q.where = Bin(BinaryOp::kGe, Col("id"), Lit(Value::Int(137)));
        return q;
      },
      /*check_stats=*/true);
}

TEST_F(ParallelTest, FloatSumLocksMergeOrder) {
  // The pure float-sum case: every addend has a nonzero rounding error, so
  // any reassociation (per-worker instead of per-morsel partials, or a
  // merge in completion order) changes the bits of the result.
  storage::Table* t = MakeTable("fsum", 30000);
  ExpectDeterministic(
      [&] {
        Query q;
        q.table = t;
        SelectItem item;
        item.agg = SelectItem::AggKind::kSum;
        item.expr = Bin(BinaryOp::kMul, Col("v1"), Col("v2"));
        item.label = "s";
        q.items.push_back(std::move(item));
        return q;
      },
      /*check_stats=*/true);
}

TEST_F(ParallelTest, GroupByDeterministicAcrossWorkers) {
  storage::Table* t = MakeTable("grp", 25000);
  ExpectDeterministic(
      [&] {
        Query q;
        q.table = t;
        SelectItem key;
        key.expr = Bin(BinaryOp::kMod, Col("id"), Lit(Value::Int(7)));
        key.label = "k";
        q.items.push_back(std::move(key));
        SelectItem cnt;
        cnt.agg = SelectItem::AggKind::kCount;
        cnt.expr = Star();
        cnt.label = "n";
        q.items.push_back(std::move(cnt));
        SelectItem sum;
        sum.agg = SelectItem::AggKind::kSum;
        sum.expr = Col("v1");
        sum.label = "s";
        q.items.push_back(std::move(sum));
        q.group_by.push_back(
            Bin(BinaryOp::kMod, Col("id"), Lit(Value::Int(7))));
        q.where = Bin(BinaryOp::kGe, Col("id"), Lit(Value::Int(59)));
        return q;
      },
      /*check_stats=*/true);
}

TEST_F(ParallelTest, RowModeFilterDeterministicAcrossWorkers) {
  storage::Table* t = MakeTable("rows", 20000);
  ExpectDeterministic(
      [&] {
        Query q;
        q.table = t;
        SelectItem id;
        id.expr = Col("id");
        id.label = "id";
        q.items.push_back(std::move(id));
        SelectItem e;
        e.expr = Bin(BinaryOp::kAdd,
                     Bin(BinaryOp::kMul, Col("v1"), Lit(Value::Double(2.5))),
                     Col("v2"));
        e.label = "e";
        q.items.push_back(std::move(e));
        q.where = Bin(BinaryOp::kEq,
                      Bin(BinaryOp::kMod, Col("id"), Lit(Value::Int(3))),
                      Lit(Value::Int(1)));
        return q;
      },
      /*check_stats=*/true);
}

TEST_F(ParallelTest, TopShortCircuitDeterministicAcrossWorkers) {
  storage::Table* t = MakeTable("top", 20000);
  // TOP result rows are deterministic; rows_scanned is not (concurrent
  // workers may overshoot the limit), so stats stay unchecked.
  ExpectDeterministic(
      [&] {
        Query q;
        q.table = t;
        SelectItem id;
        id.expr = Col("id");
        id.label = "id";
        q.items.push_back(std::move(id));
        q.where = Bin(BinaryOp::kGe, Col("id"), Lit(Value::Int(9000)));
        q.top = 37;
        return q;
      },
      /*check_stats=*/false);
}

TEST_F(ParallelTest, TopShortCircuitSkipsTailAtOneWorker) {
  storage::Table* t = MakeTable("topskip", 20000);
  Query q;
  q.table = t;
  SelectItem id;
  id.expr = Col("id");
  id.label = "id";
  q.items.push_back(std::move(id));
  q.top = 5;
  ASSERT_TRUE(executor_.Bind(&q).ok());
  executor_.set_scan_workers(1);
  ResultSet rs = executor_.Execute(q, nullptr).value();
  ASSERT_EQ(rs.rows.size(), 5u);
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(rs.rows[static_cast<size_t>(i)][0].AsInt().value(), i);
  }
  // Early exit: only the rows needed to fill the limit were scanned.
  EXPECT_EQ(rs.stats.rows_scanned, 5);
}

TEST_F(ParallelTest, TinyTableRunsInline) {
  // With the cost-model worker cap active, a one-page table at 8 requested
  // workers runs inline: no pool threads are ever created, so tiny scans
  // don't pay thread dispatch or extra stream setup (the EXPERIMENTS.md
  // 1/1000-scale regression).
  executor_.set_min_pages_per_worker(-1);  // restore the heuristic
  storage::Table* t = MakeTable("tiny", 300);
  executor_.set_scan_workers(8);

  Query q;
  q.table = t;
  SelectItem sum;
  sum.agg = SelectItem::AggKind::kSum;
  sum.expr = Col("id");
  sum.label = "s";
  q.items.push_back(std::move(sum));
  ASSERT_TRUE(executor_.Bind(&q).ok());
  ResultSet rs = executor_.Execute(q, nullptr).value();
  EXPECT_EQ(rs.ScalarResult().value().AsInt().value(), 300 * 299 / 2);
  EXPECT_EQ(rs.stats.rows_scanned, 300);
  EXPECT_EQ(executor_.worker_pool(), nullptr);
}

TEST_F(ParallelTest, WorkerPoolPersistsAcrossQueries) {
  storage::Table* t = MakeTable("pool", 25000);
  Query q;
  q.table = t;
  SelectItem cnt;
  cnt.agg = SelectItem::AggKind::kCount;
  cnt.expr = Star();
  cnt.label = "n";
  q.items.push_back(std::move(cnt));
  ASSERT_TRUE(executor_.Bind(&q).ok());

  executor_.set_scan_workers(4);
  ASSERT_TRUE(executor_.Execute(q, nullptr).ok());
  WorkerPool* pool = executor_.worker_pool();
  ASSERT_NE(pool, nullptr);
  int threads_after_first = pool->thread_count();
  EXPECT_GE(threads_after_first, 1);

  // Reused, not recreated or regrown, on the next queries.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(executor_.Execute(q, nullptr).ok());
  }
  EXPECT_EQ(executor_.worker_pool(), pool);
  EXPECT_EQ(pool->thread_count(), threads_after_first);
}

// ---------------------------------------------------------------------------
// Scheduler primitives.

TEST(MorselQueueTest, HandsOutEveryMorselExactlyOnce) {
  constexpr size_t kPages = 1000;
  constexpr size_t kMorselPages = 7;
  constexpr int kWorkers = 8;
  MorselQueue queue(kPages, kMorselPages, kWorkers);
  ASSERT_EQ(queue.morsel_count(), (kPages + kMorselPages - 1) / kMorselPages);

  std::vector<std::vector<Morsel>> taken(kWorkers);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([w, &queue, &taken] {
      Morsel m;
      while (queue.Next(w, &m)) taken[static_cast<size_t>(w)].push_back(m);
    });
  }
  for (std::thread& t : threads) t.join();

  std::set<size_t> seen;
  std::vector<bool> page_covered(kPages, false);
  for (const auto& per_worker : taken) {
    for (const Morsel& m : per_worker) {
      EXPECT_TRUE(seen.insert(m.index).second) << "morsel handed out twice";
      EXPECT_EQ(m.page_begin, m.index * kMorselPages);
      EXPECT_LE(m.page_end, kPages);
      for (size_t p = m.page_begin; p < m.page_end; ++p) page_covered[p] = true;
    }
  }
  EXPECT_EQ(seen.size(), queue.morsel_count());
  for (size_t p = 0; p < kPages; ++p) {
    EXPECT_TRUE(page_covered[p]) << "page " << p << " never scheduled";
  }
}

TEST(MorselQueueTest, IdleWorkerStealsFromLoadedVictim) {
  // Two workers, but worker 1 never consumes its own partition: worker 0
  // must drain the whole grid through steals.
  MorselQueue queue(64, 4, 2);
  size_t drained = 0;
  Morsel m;
  while (queue.Next(0, &m)) drained++;
  EXPECT_EQ(drained, queue.morsel_count());
}

TEST(WorkerPoolTest, RunsEveryWorkerAndReusesThreads) {
  WorkerPool pool;
  std::atomic<int> hits{0};
  std::vector<std::atomic<int>> per_slot(8);
  pool.Run(8, [&](int w) {
    per_slot[static_cast<size_t>(w)].fetch_add(1);
    hits.fetch_add(1);
  });
  EXPECT_EQ(hits.load(), 8);
  for (const auto& s : per_slot) EXPECT_EQ(s.load(), 1);
  EXPECT_EQ(pool.thread_count(), 8);

  // A narrower job reuses a subset of the same threads.
  pool.Run(3, [&](int) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 11);
  EXPECT_EQ(pool.thread_count(), 8);
}

// ---------------------------------------------------------------------------
// Shared buffer pool + disk thread-safety (the TSan targets).

TEST(BufferPoolConcurrencyTest, ManyThreadsPinUnpinAndClear) {
  storage::SimulatedDisk disk;
  constexpr int kPages = 64;
  for (int i = 0; i < kPages; ++i) {
    storage::Page page;
    page.bytes.fill(0xab);
    ASSERT_TRUE(disk.WritePage(disk.AllocatePage(), page).ok());
  }
  storage::BufferPool pool(&disk, /*capacity_pages=*/512, /*shards=*/4);
  ASSERT_EQ(pool.shard_count(), 4);

  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &pool, &failed] {
      for (int i = 0; i < kIters && !failed.load(); ++i) {
        // Allocated ids are 1..kPages (page 0 is the reserved null page).
        auto id = static_cast<storage::PageId>(1 + (t * 31 + i * 7) % kPages);
        auto pinned = pool.GetPage(id);
        if (!pinned.ok()) {
          failed.store(true);
          break;
        }
        if ((*pinned)->bytes[0] != 0xab) failed.store(true);
        if (i % 23 == 0) pool.ClearCache();  // only unpinned pages drop
        // PinnedPage unpins on scope exit.
      }
    });
  }
  // Concurrent stats readers race against the counters (atomics) and the
  // disk's locked IoStats snapshot.
  threads.emplace_back([&pool, &disk, &failed] {
    for (int i = 0; i < kIters; ++i) {
      storage::BufferPool::Stats ps = pool.Snapshot();
      if (ps.hits < 0 || ps.misses < 0) failed.store(true);
      storage::IoStats io = disk.stats();
      if (io.pages_read < 0) failed.store(true);
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  storage::BufferPool::Stats stats = pool.Snapshot();
  EXPECT_EQ(stats.pinned_pages, 0);
  EXPECT_GT(stats.hits + stats.misses, 0);
}

TEST(BufferPoolConcurrencyTest, ParallelQueriesShareOneCache) {
  // End-to-end: a parallel scan through the executor leaves its pages in
  // the database's shared pool (not in private per-worker pools), so
  // ClearCache affects parallel reruns exactly like serial ones.
  storage::Database db;
  FunctionRegistry registry;
  Executor executor(&db, &registry);
  executor.set_min_pages_per_worker(0);

  storage::Schema schema =
      storage::Schema::Create({{"id", storage::ColumnType::kInt64, 0},
                               {"v", storage::ColumnType::kFloat64, 0}})
          .value();
  storage::Table* t = db.CreateTable("shared", std::move(schema)).value();
  storage::Table::BulkInserter load = t->StartBulkLoad().value();
  for (int64_t i = 0; i < 30000; ++i) {
    ASSERT_TRUE(load.Add({i, static_cast<double>(i)}).ok());
  }
  ASSERT_TRUE(load.Finish().ok());

  Query q;
  q.table = t;
  SelectItem sum;
  sum.agg = SelectItem::AggKind::kSum;
  sum.expr = Col("v");
  sum.label = "s";
  q.items.push_back(std::move(sum));
  ASSERT_TRUE(executor.Bind(&q).ok());

  executor.set_scan_workers(8);
  db.ClearCache();
  ResultSet cold = executor.Execute(q, nullptr).value();
  ResultSet warm = executor.Execute(q, nullptr).value();
  // The rerun is served from the shared cache: no new physical reads.
  EXPECT_GT(cold.stats.io.pages_read, 0);
  EXPECT_EQ(warm.stats.io.pages_read, 0);
  EXPECT_EQ(cold.ScalarResult().value().AsDouble().value(),
            warm.ScalarResult().value().AsDouble().value());
}

}  // namespace
}  // namespace sqlarray::engine
