// Experiment S1: overload behavior of the multi-session front-end.
//
// A closed-loop workload: BENCH_SESSIONS concurrent sessions (default 200)
// each drive BENCH_SERVER_OPS statements back-to-back through one
// ArrayServer over a shared executor. The mix is reads (COUNT range
// filters), hash aggregates, per-session INSERTs, and a "runaway" class —
// every 8th session arms a tiny STATEMENT_TIMEOUT_MS and runs a UDF-heavy
// scan that is guaranteed to blow it, so deadline kills happen under load.
//
// The same workload runs with admission control ON (bounded slots +
// bounded FIFO queue, overflow rejected with retry-after) and OFF (every
// statement races the engine directly), five times each, one run after
// another and alternating on/off: one run's throughput moves by half
// between runs. Reported per config: the median and quartiles over the
// runs of throughput and of completed-op p50/p99 latency, and the
// kill/reject census of the median-throughput run. The comparison is the
// point: admission keeps tail latency bounded and sheds load by rejecting,
// instead of letting everything pile up.
//
// --json output carries the standard {"records", "host", "metrics"} shape
// plus a top-level "server" object with both configs' numbers
// (cmake/bench_json_smoke.cmake validates the shape).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "gov/gov.h"
#include "mvcc/mvcc.h"
#include "server/server.h"
#include "wal/wal.h"

namespace sqlarray::bench {
namespace {

int64_t EnvInt(const char* name, int64_t fallback) {
  if (const char* env = std::getenv(name)) return std::atoll(env);
  return fallback;
}

double Seconds(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Registers Gov.Spin(x): burns ~20us of CPU and returns x. The runaway
/// class scans through it so its statements reliably outlive a small
/// statement timeout.
void RegisterSpinUdf(engine::FunctionRegistry* registry) {
  engine::ScalarFunction spin;
  spin.schema = "Gov";
  spin.name = "Spin";
  spin.arity = 1;
  spin.boundary = engine::Boundary::kClr;
  spin.fn = [](std::span<const engine::Value> args,
               engine::UdfContext&) -> Result<engine::Value> {
    auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(20);
    while (std::chrono::steady_clock::now() < until) {
    }
    return args[0];
  };
  Check(registry->RegisterScalar(std::move(spin)), "register Gov.Spin");
}

struct LoadResult {
  /// First submit to completion, including reject/backoff/resubmit cycles.
  std::vector<double> latencies_ms;
  /// The successful attempt only: FIFO queue wait + execution. This is the
  /// latency an admitted statement experiences — the number admission
  /// control is supposed to keep bounded.
  std::vector<double> service_ms;
  int64_t ok = 0;
  int64_t rejected = 0;
  int64_t deadline_kills = 0;
  int64_t cancelled = 0;
  int64_t budget_kills = 0;
  int64_t write_conflicts = 0;
  int64_t other_errors = 0;
  double wall_s = 0;
  int64_t peak_queue_depth = 0;

  static double Pct(const std::vector<double>& samples, double p) {
    if (samples.empty()) return 0;
    std::vector<double> v = samples;
    std::sort(v.begin(), v.end());
    size_t idx = static_cast<size_t>(p * (v.size() - 1));
    return v[idx];
  }
  double Percentile(double p) const { return Pct(latencies_ms, p); }
  double ServicePercentile(double p) const { return Pct(service_ms, p); }
  double Qps() const { return wall_s > 0 ? ok / wall_s : 0; }
};

/// Runs the closed loop against a fresh database/server pair.
LoadResult RunLoad(bool admission_enabled, int sessions, int ops_per_session,
                   int64_t rows) {
  storage::Database db;
  wal::WalManager wal(&db);
  // MVCC front and center: every session's DML runs as a snapshot-isolated
  // transaction, and the hot-row op class below contends on claims so the
  // closed loop exercises the kWriteConflict backoff path.
  mvcc::MvccManager mvcc(&db, &wal);
  engine::FunctionRegistry registry;
  engine::Executor executor(&db, &registry);
  Check(udfs::RegisterAllUdfs(&registry), "udf registration");
  RegisterSpinUdf(&registry);

  server::ServerConfig cfg;
  cfg.admission.enabled = admission_enabled;
  cfg.admission.max_concurrent = 8;
  cfg.admission.max_queue = 64;
  cfg.watchdog_interval_ms = 2;
  server::ArrayServer srv(&executor, cfg);

  // Shared read table plus one private insert target per session.
  int64_t setup = srv.OpenSession();
  Check(srv.Execute(setup, "CREATE TABLE shared (id BIGINT, v BIGINT)")
            .status,
        "create shared");
  {
    std::string values;
    for (int64_t i = 0; i < rows; ++i) {
      if (!values.empty()) values += ", ";
      values +=
          "(" + std::to_string(i) + ", " + std::to_string(i % 17) + ")";
      if (values.size() > 200000 || i + 1 == rows) {
        Check(srv.Execute(setup, "INSERT INTO shared VALUES " + values)
                  .status,
              "load shared");
        values.clear();
      }
    }
  }

  // A tiny hot table: every 4th op rewrites one of 4 rows inside an
  // explicit transaction, so concurrent sessions collide on the same
  // clustered keys and the first-updater-wins path fires under load.
  Check(srv.Execute(setup, "CREATE TABLE hot (id BIGINT, v BIGINT)").status,
        "create hot");
  Check(srv.Execute(setup,
                    "INSERT INTO hot VALUES (0, 0), (1, 0), (2, 0), (3, 0)")
            .status,
        "load hot");

  std::vector<int64_t> ids;
  for (int s = 0; s < sessions; ++s) {
    int64_t id = srv.OpenSession();
    ids.push_back(id);
    Check(srv.Execute(id, "CREATE TABLE p" + std::to_string(s) +
                              " (id BIGINT, v BIGINT)")
              .status,
          "create private");
  }

  std::vector<LoadResult> per_thread(sessions);
  const int64_t spin_rows = std::min<int64_t>(rows, 2000);
  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      LoadResult& out = per_thread[s];
      int64_t id = ids[s];
      const bool runaway = s % 8 == 7;
      // The session's previous outcome, reported next to an unexpected one.
      std::string prev = "none";
      auto execute = [&](const std::string& text) {
        server::StatementOutcome r = srv.Execute(id, text);
        prev = r.status.ToString() + " for \"" + text.substr(0, 40) + "\"";
        return r;
      };
      // Rolls back the session's open transaction, if any (a ROLLBACK with
      // none open fails harmlessly). Admission may reject the ROLLBACK
      // itself; it then backs off and resubmits like any statement.
      auto rollback = [&] {
        for (int attempt = 0; attempt < 200; ++attempt) {
          server::StatementOutcome r = execute("ROLLBACK");
          if (r.status.code() != StatusCode::kResourceExhausted) return;
          std::this_thread::sleep_for(std::chrono::milliseconds(
              r.retry_after_ms << std::min(attempt, 4)));
        }
      };
      if (runaway) {
        (void)execute("SET STATEMENT_TIMEOUT_MS = 5");
      }
      for (int op = 0; op < ops_per_session; ++op) {
        std::string sql;
        if (runaway && op % 2 == 1) {
          sql = "SELECT SUM(Gov.Spin(v)) FROM shared WHERE id < " +
                std::to_string(spin_rows);
        } else {
          switch ((s + op) % 4) {
            case 0:
              sql = "SELECT COUNT(id) FROM shared WHERE id < " +
                    std::to_string((op + 1) * 1000);
              break;
            case 1:
              sql = "SELECT v, SUM(id) FROM shared GROUP BY v";
              break;
            case 2:
              sql = "INSERT INTO p" + std::to_string(s) + " VALUES (" +
                    std::to_string(op) + ", " + std::to_string(s) + ")";
              break;
            default: {
              // Hot-row rewrite: the engine has no UPDATE, so rewrite is a
              // delete+insert of the same clustered key inside one
              // transaction — the claim on the key is what conflicts.
              std::string k = std::to_string((s + op) % 4);
              sql = "BEGIN TRANSACTION; DELETE FROM hot WHERE id = " + k +
                    "; INSERT INTO hot VALUES (" + k + ", " +
                    std::to_string(s) + "); COMMIT";
              break;
            }
          }
        }
        // Closed loop with retry-after: a rejected statement backs off for
        // the controller's advertised delay and resubmits. Latency is
        // end-to-end (first submit to completion), so queueing and backoff
        // both show up in the percentiles. A batch that begins a
        // transaction is resubmitted only after a rollback, so a failed
        // attempt never leaves the next one nested inside its transaction.
        const bool begins_txn = sql.rfind("BEGIN", 0) == 0;
        auto q0 = std::chrono::steady_clock::now();
        for (int attempt = 0; attempt < 200; ++attempt) {
          auto a0 = std::chrono::steady_clock::now();
          const std::string before = prev;
          auto r = execute(sql);
          if (r.ok()) {
            auto a1 = std::chrono::steady_clock::now();
            ++out.ok;
            out.latencies_ms.push_back(Seconds(q0, a1) * 1e3);
            out.service_ms.push_back(Seconds(a0, a1) * 1e3);
            break;
          }
          StatusCode code = r.status.code();
          if (code == StatusCode::kWriteConflict) {
            // First-updater-wins loser: roll the open transaction back
            // (autocommitted losers already rolled back), honor the typed
            // retry-after hint, and resubmit the batch.
            ++out.write_conflicts;
            rollback();
            std::this_thread::sleep_for(std::chrono::milliseconds(
                std::max<int64_t>(r.retry_after_ms, 1)
                << std::min(attempt, 4)));
            continue;
          }
          if (code == StatusCode::kResourceExhausted) {
            // Admission rejection (the workload has no memory budgets).
            // Back off exponentially from the outcome's typed retry-after
            // hint so 200 rejected sessions don't resubmit in lockstep.
            ++out.rejected;
            if (begins_txn) rollback();
            std::this_thread::sleep_for(std::chrono::milliseconds(
                r.retry_after_ms << std::min(attempt, 4)));
            continue;
          }
          if (code == StatusCode::kDeadlineExceeded) {
            ++out.deadline_kills;
          } else if (code == StatusCode::kCancelled) {
            ++out.cancelled;
          } else {
            ++out.other_errors;
            std::fprintf(stderr, "unexpected: %s (previous outcome: %s)\n",
                         r.status.ToString().c_str(), before.c_str());
          }
          // The server rolls back a killed batch's transaction; clear any
          // other failure's so the session's next BEGIN succeeds.
          if (begins_txn) rollback();
          break;  // kills are terminal for the op; move on
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  auto t1 = std::chrono::steady_clock::now();

  LoadResult total;
  total.wall_s = Seconds(t0, t1);
  for (const LoadResult& p : per_thread) {
    total.ok += p.ok;
    total.rejected += p.rejected;
    total.deadline_kills += p.deadline_kills;
    total.cancelled += p.cancelled;
    total.budget_kills += p.budget_kills;
    total.write_conflicts += p.write_conflicts;
    total.other_errors += p.other_errors;
    total.latencies_ms.insert(total.latencies_ms.end(),
                              p.latencies_ms.begin(), p.latencies_ms.end());
    total.service_ms.insert(total.service_ms.end(), p.service_ms.begin(),
                            p.service_ms.end());
  }
  total.peak_queue_depth = srv.admission_stats().peak_queue_depth;
  return total;
}

void PrintResult(const char* label, const LoadResult& r, int sessions) {
  std::printf(
      "%-14s sessions=%d ok=%lld rej=%lld dl_kills=%lld cancel=%lld "
      "conflicts=%lld other=%lld  service p50=%.2fms p99=%.2fms | e2e "
      "p50=%.2fms p99=%.2fms | qps=%.0f wall=%.2fs peakq=%lld\n",
      label, sessions, static_cast<long long>(r.ok),
      static_cast<long long>(r.rejected),
      static_cast<long long>(r.deadline_kills),
      static_cast<long long>(r.cancelled),
      static_cast<long long>(r.write_conflicts),
      static_cast<long long>(r.other_errors), r.ServicePercentile(0.5),
      r.ServicePercentile(0.99), r.Percentile(0.5), r.Percentile(0.99),
      r.Qps(), r.wall_s, static_cast<long long>(r.peak_queue_depth));
}

constexpr int kRuns = 5;

/// The first quartile, median and third quartile of one figure over runs.
struct Spread {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};

Spread SpreadOf(const std::vector<LoadResult>& runs,
                double (*figure)(const LoadResult&)) {
  std::vector<double> v;
  for (const LoadResult& r : runs) v.push_back(figure(r));
  return {LoadResult::Pct(v, 0.25), LoadResult::Pct(v, 0.5),
          LoadResult::Pct(v, 0.75)};
}

double Qps(const LoadResult& r) { return r.Qps(); }
double ServiceP50(const LoadResult& r) { return r.ServicePercentile(0.5); }
double ServiceP99(const LoadResult& r) { return r.ServicePercentile(0.99); }
double E2eP50(const LoadResult& r) { return r.Percentile(0.5); }
double E2eP99(const LoadResult& r) { return r.Percentile(0.99); }

/// The run whose throughput is the median (kRuns is odd).
const LoadResult& MedianRun(const std::vector<LoadResult>& runs) {
  std::vector<const LoadResult*> by_qps;
  for (const LoadResult& r : runs) by_qps.push_back(&r);
  std::sort(by_qps.begin(), by_qps.end(),
            [](const LoadResult* a, const LoadResult* b) {
              return a->Qps() < b->Qps();
            });
  return *by_qps[by_qps.size() / 2];
}

void AppendServerJson(std::FILE* f, const char* key,
                      const std::vector<LoadResult>& runs, bool last) {
  const LoadResult& r = MedianRun(runs);
  const Spread qps = SpreadOf(runs, Qps);
  const Spread p50 = SpreadOf(runs, ServiceP50);
  const Spread p99 = SpreadOf(runs, ServiceP99);
  std::fprintf(f,
               "    \"%s\": {\"ok\": %lld, \"rejected\": %lld, "
               "\"deadline_kills\": %lld, \"cancelled\": %lld, "
               "\"write_conflicts\": %lld, "
               "\"other_errors\": %lld, \"p50_ms\": %.4f, "
               "\"p50_ms_q1\": %.4f, \"p50_ms_q3\": %.4f, "
               "\"p99_ms\": %.4f, \"p99_ms_q1\": %.4f, "
               "\"p99_ms_q3\": %.4f, "
               "\"p50_e2e_ms\": %.4f, \"p99_e2e_ms\": %.4f, "
               "\"qps\": %.2f, \"qps_q1\": %.2f, \"qps_q3\": %.2f, "
               "\"wall_s\": %.4f, \"peak_queue_depth\": %lld}%s\n",
               key, static_cast<long long>(r.ok),
               static_cast<long long>(r.rejected),
               static_cast<long long>(r.deadline_kills),
               static_cast<long long>(r.cancelled),
               static_cast<long long>(r.write_conflicts),
               static_cast<long long>(r.other_errors), p50.median, p50.q1,
               p50.q3, p99.median, p99.q1, p99.q3,
               SpreadOf(runs, E2eP50).median, SpreadOf(runs, E2eP99).median,
               qps.median, qps.q1, qps.q3, r.wall_s,
               static_cast<long long>(r.peak_queue_depth), last ? "" : ",");
}

/// FlushJson with an extra top-level "server" object holding both configs.
void FlushServerJson(int sessions, int ops,
                     const std::vector<LoadResult>& on,
                     const std::vector<LoadResult>& off) {
  FlushJson("server", [&](std::FILE* f) {
    std::fprintf(f,
                 "    \"sessions\": %d,\n    \"ops_per_session\": %d,\n"
                 "    \"runs\": %d,\n",
                 sessions, ops, kRuns);
    AppendServerJson(f, "admission_on", on, /*last=*/false);
    AppendServerJson(f, "admission_off", off, /*last=*/true);
  });
}

void RunBench() {
  const int sessions = static_cast<int>(EnvInt("BENCH_SESSIONS", 200));
  const int ops = static_cast<int>(EnvInt("BENCH_SERVER_OPS", 6));
  const int64_t rows = std::min<int64_t>(BenchRows(), 20000);

  Banner("S1", "overload behavior: admission control on vs off");
  std::printf("closed loop: %d sessions x %d ops, %lld shared rows, %d runs "
              "per config, alternating\n\n",
              sessions, ops, static_cast<long long>(rows), kRuns);

  std::vector<LoadResult> on, off;
  for (int run = 0; run < kRuns; ++run) {
    on.push_back(RunLoad(/*admission_enabled=*/true, sessions, ops, rows));
    PrintResult("admission_on", on.back(), sessions);
    off.push_back(RunLoad(/*admission_enabled=*/false, sessions, ops, rows));
    PrintResult("admission_off", off.back(), sessions);
  }

  const Spread on_qps = SpreadOf(on, Qps), off_qps = SpreadOf(off, Qps);
  std::printf("\nmedian (quartiles) over %d runs: qps %.0f (%.0f-%.0f) "
              "admission on, %.0f (%.0f-%.0f) off\n",
              kRuns, on_qps.median, on_qps.q1, on_qps.q3, off_qps.median,
              off_qps.q1, off_qps.q3);
  const LoadResult& mid_on = MedianRun(on);
  std::printf(
      "service p99 %.2fms (admitted) vs %.2fms (unthrottled, %d-way "
      "contention): admission bounds the latency an accepted statement "
      "sees; the cost is %lld retry-after rejections and e2e p99 %.2fms "
      "for sessions that kept resubmitting (median-throughput run)\n",
      SpreadOf(on, ServiceP99).median, SpreadOf(off, ServiceP99).median,
      sessions, static_cast<long long>(mid_on.rejected),
      mid_on.Percentile(0.99));

  RecordJson("bench_server", "admission_on", mid_on.wall_s, mid_on.Qps());
  const LoadResult& mid_off = MedianRun(off);
  RecordJson("bench_server", "admission_off", mid_off.wall_s, mid_off.Qps());
  FlushServerJson(sessions, ops, on, off);
}

}  // namespace
}  // namespace sqlarray::bench

int main(int argc, char** argv) {
  sqlarray::bench::ParseBenchArgs(argc, argv);
  sqlarray::bench::RunBench();
  return 0;
}
