// Experiment M1: snapshot isolation under write pressure.
//
// Two measurements on a WAL+MVCC database:
//
//  1. Reader-vs-writer sweep: N snapshot readers run a fixed diet of
//     aggregate scans while M writer sessions (M swept 0 -> 8) commit
//     inserts and hot-row rewrites as fast as they can. Each reader op
//     acquires a fresh snapshot, so the sweep measures what version
//     chains and claim traffic cost a reader. The claim of the MVCC
//     design is that reader latency stays flat as M grows — readers
//     never block on writers, they just read older page images. Each
//     writer count reports reader p50, p90 and p99 over 1,000 samples
//     (BENCH_MVCC_READER_OPS per reader), the writers' commits/s, and the
//     WAL bytes per commit logged inside the sweep window (registry deltas
//     of wal.bytes and wal.commits, so the setup load is not counted).
//
//  2. GC-horizon curve: one snapshot is pinned while rounds of DML churn
//     versions; after each round we record how many page versions the
//     manager retains. Releasing the snapshot moves the GC horizon to
//     infinity and the retained count collapses — the curve makes the
//     "oldest active snapshot pins history" rule visible.
//
// --json output uses the standard {"records", "metrics"} shape
// (cmake/bench_json_smoke.cmake validates it); the mvcc.* counters land
// in the metrics map, which is the whole process's registry: setup loads
// and every sweep included.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "mvcc/mvcc.h"
#include "obs/metrics.h"
#include "wal/wal.h"

namespace sqlarray::bench {
namespace {

int64_t EnvInt(const char* name, int64_t fallback) {
  if (const char* env = std::getenv(name)) return std::atoll(env);
  return fallback;
}

double Pct(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[static_cast<size_t>(p * (v.size() - 1))];
}

/// One database bundle with WAL + MVCC attached and `t` loaded.
struct MvccBench {
  storage::Database db;
  wal::WalManager wal;
  mvcc::MvccManager mvcc;
  engine::FunctionRegistry registry;
  engine::Executor executor;

  explicit MvccBench(int64_t rows)
      : wal(&db), mvcc(&db, &wal), executor(&db, &registry) {
    Check(udfs::RegisterAllUdfs(&registry), "udf registration");
    sql::Session setup(&executor);
    Check(setup.Execute("CREATE TABLE t (id BIGINT, v BIGINT)").status(),
          "create t");
    std::string values;
    for (int64_t i = 0; i < rows; ++i) {
      if (!values.empty()) values += ", ";
      values += "(" + std::to_string(i) + ", " + std::to_string(i % 17) + ")";
      if (values.size() > 200000 || i + 1 == rows) {
        Check(setup.Execute("INSERT INTO t VALUES " + values).status(),
              "load t");
        values.clear();
      }
    }
  }
};

/// Runs `readers` scan sessions (reader_ops ops each) against `writers`
/// sessions committing continuously; returns per-op reader latencies.
struct SweepResult {
  std::vector<double> reader_ms;
  int64_t writer_commits = 0;
  int64_t writer_conflicts = 0;
  double wall_s = 0;
};

SweepResult RunSweep(MvccBench* b, int readers, int reader_ops, int writers,
                     int64_t rows) {
  SweepResult out;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> commits{0};
  std::atomic<int64_t> conflicts{0};

  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> writer_threads;
  for (int w = 0; w < writers; ++w) {
    writer_threads.emplace_back([&, w] {
      sql::Session s(&b->executor);
      // Disjoint insert ranges keep writers off each other's keys; every
      // 4th op rewrites a shared hot row so claims see some contention.
      int64_t base = 1000000 + static_cast<int64_t>(w) * 1000000;
      for (int64_t n = 0; !stop.load(std::memory_order_relaxed); ++n) {
        Status st;
        if (n % 4 == 3) {
          std::string k = std::to_string((w + n) % 4);
          st = s.Execute("BEGIN TRANSACTION; DELETE FROM t WHERE id = " + k +
                         "; INSERT INTO t VALUES (" + k + ", " +
                         std::to_string(w) + "); COMMIT")
                   .status();
        } else {
          st = s.Execute("INSERT INTO t VALUES (" + std::to_string(base + n) +
                         ", " + std::to_string(w) + ")")
                   .status();
        }
        if (st.ok()) {
          commits.fetch_add(1, std::memory_order_relaxed);
        } else if (st.code() == StatusCode::kWriteConflict) {
          conflicts.fetch_add(1, std::memory_order_relaxed);
          (void)s.Execute("ROLLBACK");  // clear the stranded transaction
        } else {
          std::fprintf(stderr, "writer: %s\n", st.ToString().c_str());
          (void)s.Execute("ROLLBACK");
        }
      }
    });
  }

  std::vector<std::vector<double>> per_reader(readers);
  std::vector<std::thread> reader_threads;
  for (int r = 0; r < readers; ++r) {
    reader_threads.emplace_back([&, r] {
      sql::Session s(&b->executor);
      std::string sql = "SELECT COUNT(id), SUM(v) FROM t WHERE id < " +
                        std::to_string(rows);
      for (int op = 0; op < reader_ops; ++op) {
        auto a0 = std::chrono::steady_clock::now();
        Check(s.Execute(sql).status(), "reader scan");
        auto a1 = std::chrono::steady_clock::now();
        per_reader[r].push_back(
            std::chrono::duration<double>(a1 - a0).count() * 1e3);
      }
    });
  }
  for (auto& t : reader_threads) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writer_threads) t.join();
  auto t1 = std::chrono::steady_clock::now();

  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  for (auto& v : per_reader) {
    out.reader_ms.insert(out.reader_ms.end(), v.begin(), v.end());
  }
  out.writer_commits = commits.load();
  out.writer_conflicts = conflicts.load();
  return out;
}

void RunBench() {
  const int64_t rows = std::min<int64_t>(BenchRows(), 20000);
  const int readers = static_cast<int>(EnvInt("BENCH_MVCC_READERS", 4));
  // 4 x 250 = 1,000 reader samples per writer count, so ten lie above the
  // p99 and the percentile is not one outlier.
  const int reader_ops =
      static_cast<int>(EnvInt("BENCH_MVCC_READER_OPS", 250));

  Banner("M1", "snapshot readers vs concurrent writers");
  std::printf("%lld rows, %d readers x %d ops per config\n\n",
              static_cast<long long>(rows), readers, reader_ops);

  for (int writers : {0, 1, 2, 4, 8}) {
    MvccBench b(rows);
    const obs::MetricsSnapshot before =
        obs::MetricsRegistry::Global().Snapshot();
    SweepResult r = RunSweep(&b, readers, reader_ops, writers, rows);
    const obs::MetricsSnapshot after =
        obs::MetricsRegistry::Global().Snapshot();
    const int64_t wal_bytes = after.Delta(before, "wal.bytes");
    const int64_t wal_commits = after.Delta(before, "wal.commits");
    double p50 = Pct(r.reader_ms, 0.5);
    double p90 = Pct(r.reader_ms, 0.9);
    double p99 = Pct(r.reader_ms, 0.99);
    double qps = r.wall_s > 0 ? r.reader_ms.size() / r.wall_s : 0;
    double commits_per_s =
        r.wall_s > 0 ? static_cast<double>(r.writer_commits) / r.wall_s : 0;
    std::printf(
        "writers=%d  reader p50=%.2fms p90=%.2fms p99=%.2fms qps=%.0f | "
        "writer commits=%lld (%.0f/s) conflicts=%lld | wal %lld B in %lld "
        "commits\n",
        writers, p50, p90, p99, qps, static_cast<long long>(r.writer_commits),
        commits_per_s, static_cast<long long>(r.writer_conflicts),
        static_cast<long long>(wal_bytes), static_cast<long long>(wal_commits));
    const std::string w = std::to_string(writers);
    RecordJson("bench_mvcc", "read_w" + w, r.wall_s, qps);
    RecordJson("bench_mvcc", "read_p90_ms_w" + w, r.wall_s, p90);
    RecordJson("bench_mvcc", "read_p99_ms_w" + w, r.wall_s, p99);
    RecordJson("bench_mvcc", "writer_commits_per_s_w" + w, r.wall_s,
               commits_per_s);
    if (wal_commits > 0) {
      RecordJson("bench_mvcc", "wal_bytes_per_commit_w" + w, r.wall_s,
                 static_cast<double>(wal_bytes) /
                     static_cast<double>(wal_commits),
                 {{"wal_bytes", static_cast<double>(wal_bytes)},
                  {"wal_commits", static_cast<double>(wal_commits)}});
    }
  }

  Banner("M2", "versions retained vs GC horizon");
  {
    const int rounds = 6;
    const int64_t churn = std::min<int64_t>(rows, 512);
    MvccBench b(rows);
    sql::Session writer(&b.executor);
    // Pin one snapshot: the GC horizon freezes at its LSN and every page
    // version written after it must be retained.
    auto snap = CheckResult(b.mvcc.AcquireSnapshot(), "pin snapshot");
    for (int round = 0; round < rounds; ++round) {
      for (int64_t i = 0; i < churn; i += 64) {
        Check(writer
                  .Execute("DELETE FROM t WHERE id >= " + std::to_string(i) +
                           " AND id < " + std::to_string(i + 32))
                  .status(),
              "churn delete");
        std::string values;
        for (int64_t k = i; k < i + 32; ++k) {
          if (!values.empty()) values += ", ";
          values += "(" + std::to_string(k) + ", " + std::to_string(round) +
                    ")";
        }
        Check(writer.Execute("INSERT INTO t VALUES " + values).status(),
              "churn insert");
      }
      mvcc::MvccStats st = b.mvcc.Stats();
      int64_t retained = st.versions_created - st.versions_gc;
      std::printf("round %d: versions retained=%lld history=%lld KiB\n",
                  round, static_cast<long long>(retained),
                  static_cast<long long>(st.history_bytes / 1024));
      RecordJson("bench_mvcc", "gc_retained_round" + std::to_string(round),
                 0.0, static_cast<double>(retained));
    }
    snap.reset();  // horizon moves to infinity; GC drains the chains
    mvcc::MvccStats st = b.mvcc.Stats();
    int64_t retained = st.versions_created - st.versions_gc;
    std::printf("after release: versions retained=%lld\n",
                static_cast<long long>(retained));
    RecordJson("bench_mvcc", "gc_retained_after_release", 0.0,
               static_cast<double>(retained));
  }

  FlushJson();
}

}  // namespace
}  // namespace sqlarray::bench

int main(int argc, char** argv) {
  sqlarray::bench::ParseBenchArgs(argc, argv);
  sqlarray::bench::RunBench();
  return 0;
}
