// The system under test as one run sees it, and what a run reports.
//
// An Env owns a database and the stack above it. Statements reach it at
// one of three entry points: a NetClient over loopback, ArrayServer in
// process, or a bare sql::Session. The untraced pass uses the path of its
// workload. The traced pass replays samples through all three, so one
// entry point's time minus the next one's is a layer's self time.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "client/net_client.h"
#include "harness/data.h"
#include "harness/util.h"
#include "engine/exec.h"
#include "mvcc/mvcc.h"
#include "net/auth.h"
#include "net/net_server.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "sql/session.h"
#include "storage/table.h"
#include "wal/wal.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir = ".";  ///< where the traced pass writes spans, plans
};

enum class Level { kNet, kServer, kSession };
inline constexpr Level kLevels[3] = {Level::kNet, Level::kServer,
                                     Level::kSession};
const char* LevelSpan(Level lv);

struct Env {
  ~Env();

  Dataset data;
  std::unique_ptr<sqlarray::storage::Database> db;
  std::unique_ptr<sqlarray::wal::WalManager> wal;
  std::unique_ptr<sqlarray::mvcc::MvccManager> mvcc;
  std::unique_ptr<sqlarray::engine::FunctionRegistry> registry;
  std::unique_ptr<sqlarray::engine::Executor> executor;
  /// Bare sessions, one per connection (the kSession entry point).
  std::vector<std::unique_ptr<sqlarray::sql::Session>> sessions;
  std::unique_ptr<sqlarray::server::ArrayServer> server;
  /// In-process server sessions, one per connection (kServer).
  std::vector<int64_t> server_sessions;
  std::unique_ptr<sqlarray::net::AuthManager> auth;
  std::unique_ptr<sqlarray::net::NetServer> net;
  /// Loopback clients, one per connection (kNet).
  std::vector<std::unique_ptr<sqlarray::client::NetClient>> clients;

  /// Database, registry and executor.
  sqlarray::Status Open(int64_t pool_pages);
  /// Attaches a WAL (default config: group-commit window 0) and MVCC.
  void AttachWalMvcc();
  /// One bare session per connection.
  void OpenSessions(int connections);
  /// ArrayServer (admission on, default limits) + NetServer on an
  /// ephemeral loopback port, with one server session and one
  /// authenticated client per connection.
  sqlarray::Status StartServer(int connections);

  /// Runs `sql` on connection `conn` through entry point `lv`. Admission
  /// rejections are retried after the server's retry-after hint, a bounded
  /// number of times.
  sqlarray::server::StatementOutcome Exec(int conn, Level lv,
                                          const std::string& sql);
};

/// One executed statement of a pass.
struct Sample {
  Cls cls = Cls::kPoint;
  int q = -1;  ///< Table 1 statement, or -1
  int conn = 0;
  Level level = Level::kNet;
  double ms = 0;       ///< client-side latency
  double exec_ms = 0;  ///< QueryStats.wall_seconds of the outcome
  int64_t rows_scanned = 0;
  bool ok = false;  ///< right answer
  std::string sql;  ///< kept only in the traced pass
};

/// Counts taken from the metrics registry and the outcomes of a pass.
struct PassCounts {
  sqlarray::obs::MetricsSnapshot before, after;
  int64_t statements = 0;
  int64_t rows_scanned = 0;
  int64_t user_bytes = 0;
  CpuTimes cpu_before, cpu_after;
  /// Per-round (table1_cold) or per-segment (service) values of the counts
  /// whose repeatability the run reports.
  std::vector<std::vector<double>> repeats;
};

/// The repeatability counts, in the order of PassCounts::repeats.
inline constexpr int kNumRepeat = 6;
extern const char* const kRepeatNames[kNumRepeat];
/// The six counts over a registry delta, in kRepeatNames order.
std::vector<double> RepeatCounts(const sqlarray::obs::MetricsSnapshot& before,
                                 const sqlarray::obs::MetricsSnapshot& after,
                                 int64_t statements, int64_t user_bytes);

/// What one run of a workload hands back to main.
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  ///< the first few failures
  MetricList e2e;
  MetricList layers;
  MetricList info;     ///< run-record numbers: sample counts, work size
  std::string record;  ///< JSON object: the data the run used

  void Count(const std::string& error);
};

RunResult RunTable1Cold(const Options& o);
RunResult RunService(const Options& o, bool ingest);

// --- shared by the workloads ---------------------------------------------

/// Sets up nine times from scratch, keeping the last environment; setup_s
/// is the median. Null when a set-up failed (counted in `r`).
std::unique_ptr<Env> SetUp(const std::function<std::unique_ptr<Env>()>& setup,
                           RunResult* r);
/// Runs one statement, checks its answer, and records its latency (and,
/// when `spans` is set, its span and the engine's child span).
Sample RunStmt(Env* env, int conn, Level lv, const Stmt& s, RunResult* r,
               SpanLog* spans, int64_t request);
/// Counts a check that `table` holds `want` rows, read through `lv`.
void CheckRowCount(Env* env, int conn, Level lv, const std::string& table,
                   int64_t want, RunResult* r);
/// The class metrics, each the ClassSum of its samples' client-side
/// latency: scan_ms and the four *_p50_ms are end-to-end. udf_scan_ms (Q4 +
/// Q5) and group_by_ms, the branchiest and most allocation-heavy
/// statements, are per-layer numbers also printed in every run record:
/// between runs of the same code on a 4-vCPU host their medians moved
/// 20-35 % with host phases, more than any regression bound allows.
void AddClassMetrics(const std::vector<Sample>& samples, RunResult* r);

/// Throughput and tail of the timed mix: statements / window, p90 and p99
/// over all statements, with the sample count. Host contention moves them
/// by more than any bound a regression gate could use, so they are per-layer
/// numbers, also printed in every run record.
void ClientMetrics(const std::vector<double>& latencies_ms, double window_s,
                   RunResult* r);
/// The registry-delta and outcome-derived per-layer counts of a pass.
void AddCountMetrics(const PassCounts& c, MetricList* out);
/// Per-class layer splits from traced samples: engine.exec_ms,
/// sql.session_us, server.overhead_us, client.wire_us and sql.parse_us, and
/// engine.group_by_ns_per_row.
void AddClassLayerMetrics(const std::vector<Sample>& traced, MetricList* out);
/// Micro-probes of the layers' entry points on the run's own data:
/// disk, pool, B-tree cursor, blob stream, UDF boundary, snapshot,
/// commit, admission and ping.
void AddProbeMetrics(Env* env, MetricList* out);
/// One EXPLAIN ANALYZE per class on connection 0's bare session, alone
/// (on a cleared pool when `cold`), written to `path`. Returns the rows its
/// INSERT added to w0.
int64_t WriteExplains(Env* env, StmtGen* gen, bool cold,
                      const std::string& path, RunResult* r);
/// Modeled seconds at the paper's 357 M rows and pages read, per Table 1
/// query, each run alone on a cold pool through a bare session.
void AddPaperMetrics(Env* env, RunResult* r);
/// JSON object describing the tables: rows, bytes and pages of each, and
/// the buffer pool's capacity.
std::string DataRecord(Env* env, int64_t pool_pages);
/// A class's value from samples: the median of `field` over the kept
/// samples of each statement kind, summed over the class's kinds (Q1 + Q2 +
/// Q3 for scan, Q4 + Q5 for udf_scan, else the class itself).
double ClassSum(const std::vector<Sample>& s, Cls c,
                const std::function<bool(const Sample&)>& keep,
                const std::function<double(const Sample&)>& field);
inline double SampleMs(const Sample& s) { return s.ms; }

}  // namespace perfbench
