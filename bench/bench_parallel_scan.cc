// Experiment U2: parallel scan scaling under the morsel-driven engine.
//
// Two measurements on the Table 1 workload tables:
//   1. Worker sweep over the cheap Q1 scan, the CPU-bound Q4 UDF aggregate,
//      and a parallel GROUP BY — the plan shapes the morsel engine covers.
//   2. The small-table guard: at 1/1000 scale the worker cap must make 8
//      requested workers cost the same as 1 (the regression EXPERIMENTS.md
//      recorded for the old threads-per-query path).
//
// Parallel results are checked for EXACT equality against 1 worker: the
// morsel grid and merge order are deterministic, so even float sums must
// match bit for bit.
#include <cmath>
#include <thread>

#include "bench/bench_util.h"
#include "common/stopwatch.h"

namespace sqlarray::bench {
namespace {

/// Runs `query` cold-cache and returns wall seconds; verifies the scalar
/// result (when the result is single-cell) matches `*check` exactly,
/// initializing it on the first call (pass null to skip checking).
double TimedRun(BenchServer* server, const std::string& query, double* check) {
  server->db.ClearCache();
  Stopwatch watch;
  auto result = server->session.Execute(query);
  Check(result.status(), query.c_str());
  double seconds = watch.ElapsedSeconds();
  if (check != nullptr) {
    double got = (*result)[0].ScalarResult().value().AsDouble().value();
    if (std::isnan(*check)) {
      *check = got;
    } else if (got != *check) {
      // The morsel grid and merge order are worker-count-invariant, so any
      // drift — even one ulp in a float sum — is a determinism bug.
      std::printf("RESULT MISMATCH on %s: %.17g vs %.17g\n", query.c_str(),
                  got, *check);
    }
  }
  return seconds;
}

void Run() {
  Banner("U2", "parallel scan scaling (morsel-driven, real threads)");
  const int64_t rows = std::min<int64_t>(BenchRows() * 4, 2000000);
  BenchServer server;
  BuildTable1Tables(&server.db, rows);
  unsigned cores = std::thread::hardware_concurrency();
  std::printf("rows: %lld, hardware threads on this host: %u\n",
              static_cast<long long>(rows), cores);
  if (cores <= 1) {
    std::printf("NOTE: single-core host — wall-time speedup cannot exceed "
                "1x here; the tables below verify correctness and overhead, "
                "not scaling.\n");
  }

  const std::string q1 = "SELECT COUNT(*) FROM Tscalar WITH (NOLOCK)";
  const std::string q4 =
      "SELECT SUM(floatarray.Item_1(v, 0)) FROM Tvector WITH (NOLOCK)";
  const std::string qg =
      "SELECT id % 16, SUM(v1), COUNT(*) FROM Tscalar WITH (NOLOCK) "
      "GROUP BY id % 16";

  // --- 1. Worker sweep across the three parallel plan shapes. -------------
  std::printf("\n%8s | %19s | %19s | %19s\n", "workers",
              "Q1 wall s (speedup)", "Q4 wall s (speedup)",
              "GROUP BY s (speedup)");
  std::printf("%s\n", std::string(76, '-').c_str());
  double base_q1 = 0, base_q4 = 0, base_qg = 0;
  double check_q4 = std::nan("");
  for (int workers : {1, 2, 4, 8}) {
    server.executor.set_scan_workers(workers);
    double s1 = TimedRun(&server, q1, nullptr);
    double s4 = TimedRun(&server, q4, &check_q4);
    double sg = TimedRun(&server, qg, nullptr);
    if (workers == 1) {
      base_q1 = s1;
      base_q4 = s4;
      base_qg = sg;
    }
    std::printf("%8d | %10.3f (%5.2fx) | %10.3f (%5.2fx) | %10.3f (%5.2fx)\n",
                workers, s1, base_q1 / s1, s4, base_q4 / s4, sg,
                base_qg / sg);
    std::string n = std::to_string(workers);
    RecordJson("parallel_scan", "Q1_workers_" + n, s1,
               s1 > 0 ? static_cast<double>(rows) / s1 : 0);
    RecordJson("parallel_scan", "Q4_workers_" + n, s4,
               s4 > 0 ? static_cast<double>(rows) / s4 : 0);
    RecordJson("parallel_scan", "GROUPBY_workers_" + n, sg,
               sg > 0 ? static_cast<double>(rows) / sg : 0);
  }

  // --- 2. Small-table guard (the 1/1000-scale regression). ----------------
  // The worker cap (engine/parallel.h) must keep a tiny scan inline: asking
  // for 8 workers on a table of a few pages should cost what 1 does.
  BenchServer small;
  BuildTable1Tables(&small.db, std::max<int64_t>(rows / 1000, 357));
  small.executor.set_scan_workers(1);
  double small_1 = TimedRun(&small, q1, nullptr);
  small.executor.set_scan_workers(8);
  double small_8 = TimedRun(&small, q1, nullptr);
  std::printf("\nsmall-table guard (%lld rows): Q1 %0.6fs at 1 worker, "
              "%0.6fs at 8 requested (capped) — overhead %+.1f%%\n",
              static_cast<long long>(std::max<int64_t>(rows / 1000, 357)),
              small_1, small_8, 100.0 * (small_8 - small_1) / small_1);
  RecordJson("parallel_small", "Q1_small_workers_1", small_1, 0);
  RecordJson("parallel_small", "Q1_small_workers_8", small_8, 0);

  std::printf(
      "\nexpected shape (multicore host): Q4 and GROUP BY scale with workers "
      "(CPU-bound) while the trivial Q1 scan gains less — Table 1's "
      "CPU-bound vs I/O-bound split. On a single-core host the useful "
      "signal is exact result equality and near-zero overhead.\n");
}

}  // namespace
}  // namespace sqlarray::bench

int main(int argc, char** argv) {
  sqlarray::bench::ParseBenchArgs(argc, argv);
  sqlarray::bench::Run();
  sqlarray::bench::FlushJson();
  return 0;
}
