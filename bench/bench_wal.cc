// Experiment W1: write-ahead-log costs.
//
// Two questions the WAL design leaves open as tunables:
//   (a) commit throughput vs the group-commit window — how much does letting
//       the flush leader linger amortize the per-commit log force when
//       several threads commit concurrently;
//   (b) recovery time vs checkpoint interval — how much replay work a
//       checkpoint saves after a crash.
// Both run the full stack (Database + WalManager on a simulated log disk),
// crash with SimulateCrash() and recover with Recover(), so the numbers
// include the real framing/CRC/redo costs, not just the disk model.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "storage/table.h"
#include "wal/wal.h"

namespace sqlarray::bench {
namespace {

using storage::ColumnType;
using storage::Database;
using storage::Schema;
using storage::Table;
using wal::WalConfig;
using wal::WalManager;

double Seconds(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

Table* MakeLoggedTable(Database* db, WalManager* w, const char* name) {
  Schema schema = CheckResult(
      Schema::Create(
          {{"id", ColumnType::kInt64, 0}, {"v", ColumnType::kInt64, 0}}),
      "schema");
  Table* table =
      CheckResult(db->CreateTable(name, std::move(schema)), "create table");
  Check(w->NoteTableCreated(table), "log create");
  Check(w->log_writer()->FlushAll(), "flush create");
  return table;
}

/// (a) Concurrent committers racing tiny transactions. The DML lock
/// serializes the writes; the commits overlap only in the log force, which
/// is exactly what the group-commit window batches.
void BenchCommitThroughput(int64_t total_txns) {
  constexpr int kThreads = 4;
  const int64_t per_thread = std::max<int64_t>(1, total_txns / kThreads);

  std::printf("%-10s %10s %12s %9s %11s %10s\n", "window", "txns", "txns/s",
              "flushes", "committers", "max_batch");
  for (int64_t window_us : {0, 50, 200, 1000}) {
    Database db;
    WalConfig config;
    config.group_commit_window_us = window_us;
    WalManager w(&db, config);
    Table* table = MakeLoggedTable(&db, &w, "t");

    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int64_t i = 0; i < per_thread; ++i) {
          uint64_t txn = CheckResult(w.Begin(), "begin");
          Check(w.NoteTableTouched(txn, table), "touch");
          int64_t key = t * per_thread + i;
          Check(table->Insert({key, key * 3}), "insert");
          Check(w.Commit(txn), "commit");
        }
      });
    }
    for (std::thread& th : threads) th.join();
    auto t1 = std::chrono::steady_clock::now();

    double s = Seconds(t0, t1);
    int64_t txns = per_thread * kThreads;
    wal::GroupCommitStats gc = w.log_writer()->group_commit_stats();
    std::printf("%7lld us %10lld %12.0f %9lld %11lld %10lld\n",
                static_cast<long long>(window_us),
                static_cast<long long>(txns), txns / s,
                static_cast<long long>(gc.flushes),
                static_cast<long long>(gc.committers),
                static_cast<long long>(gc.max_batch));
    RecordJson("wal_commit", "window_" + std::to_string(window_us) + "us", s,
               txns / s);
  }
}

/// (b) Crash after a fixed workload, recover, and time the redo pass.
/// Checkpoints every `interval` transactions (0 = never) shorten the scan.
void BenchRecovery(int64_t total_txns) {
  constexpr int kRowsPerTxn = 4;

  std::printf("%-12s %10s %9s %11s %11s %10s\n", "ckpt every", "txns",
              "recov_s", "scanned", "redone", "used_ckpt");
  for (int64_t interval : {0, 256, 64}) {
    Database db;
    WalManager w(&db, {});
    Table* table = MakeLoggedTable(&db, &w, "t");

    for (int64_t n = 0; n < total_txns; ++n) {
      uint64_t txn = CheckResult(w.Begin(), "begin");
      Check(w.NoteTableTouched(txn, table), "touch");
      for (int64_t r = 0; r < kRowsPerTxn; ++r) {
        int64_t key = n * kRowsPerTxn + r;
        Check(table->Insert({key, key}), "insert");
      }
      Check(w.Commit(txn), "commit");
      if (interval > 0 && (n + 1) % interval == 0) {
        Check(w.Checkpoint(), "checkpoint");
      }
    }

    w.SimulateCrash();
    auto t0 = std::chrono::steady_clock::now();
    wal::RecoveryStats stats = CheckResult(w.Recover(), "recover");
    auto t1 = std::chrono::steady_clock::now();

    double s = Seconds(t0, t1);
    std::printf("%12s %10lld %9.4f %11lld %11lld %10s\n",
                interval == 0 ? "never" : std::to_string(interval).c_str(),
                static_cast<long long>(total_txns), s,
                static_cast<long long>(stats.records_scanned),
                static_cast<long long>(stats.pages_redone),
                stats.used_checkpoint ? "yes" : "no");
    std::string name =
        interval == 0 ? "no_checkpoint" : "every_" + std::to_string(interval);
    RecordJson("wal_recovery", name, s,
               s > 0 ? stats.pages_redone / s : 0);
  }
}

void Run() {
  Banner("W1", "WAL commit throughput and recovery time");
  // BENCH_ROWS scales both experiments (357 k default -> ~3.5 k tiny txns).
  const int64_t commit_txns =
      std::clamp<int64_t>(BenchRows() / 100, 40, 4000);
  const int64_t recovery_txns =
      std::clamp<int64_t>(BenchRows() / 500, 20, 800);
  std::printf("\n-- commit throughput vs group-commit window "
              "(4 threads, 1-row txns) --\n");
  BenchCommitThroughput(commit_txns);
  std::printf("\n-- recovery time vs checkpoint interval "
              "(%lld txns x %d rows) --\n",
              static_cast<long long>(recovery_txns), 4);
  BenchRecovery(recovery_txns);
}

}  // namespace
}  // namespace sqlarray::bench

int main(int argc, char** argv) {
  sqlarray::bench::ParseBenchArgs(argc, argv);
  sqlarray::bench::Run();
  sqlarray::bench::FlushJson();
  return 0;
}
