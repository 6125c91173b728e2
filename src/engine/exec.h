// Query executor: clustered index scans with filters, projections,
// aggregates (native and user-defined), and GROUP BY.
//
// Execution is real (results are actually computed); virtual time is
// accounted against the CostModel so benches can report the modeled testbed
// numbers next to measured wall time. Every query with a row source runs
// one morsel-driven plan (engine/parallel.h): per-morsel partial results
// merged in deterministic morsel-index order, on a persistent worker pool
// when the scan is parallel and inline when it is not, so any worker count
// produces bit-identical results.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/cost.h"
#include "engine/expr.h"
#include "engine/parallel.h"
#include "engine/query_context.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/table.h"

namespace sqlarray::engine {

/// One SELECT-list item: either a plain expression (a group key or a
/// row-mode projection) or a single aggregate over an argument expression.
struct SelectItem {
  enum class AggKind { kNone, kCount, kSum, kMin, kMax, kAvg, kUda };

  AggKind agg = AggKind::kNone;
  /// Projection / aggregate argument (null for COUNT(*)).
  ExprPtr expr;
  /// UDA identification and arguments (agg == kUda).
  std::string uda_schema;
  std::string uda_name;
  std::vector<ExprPtr> uda_args;
  /// Output column label.
  std::string label;
};

/// A bound single-source query. The source is a table, a table-valued
/// function, or nothing (FROM-less SELECT).
struct Query {
  storage::Table* table = nullptr;  ///< null unless selecting from a table
  /// Table-valued function source (e.g. FloatArray.ToTable(@a)).
  const TableValuedFunction* tvf = nullptr;
  std::vector<ExprPtr> tvf_args;
  std::vector<SelectItem> items;
  ExprPtr where;                    ///< optional filter
  std::vector<ExprPtr> group_by;    ///< optional grouping keys
  int64_t top = -1;                 ///< row limit, -1 = unlimited
};

/// Materialized query result plus its statistics.
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;
  QueryStats stats;

  /// Convenience for single-cell results.
  Result<Value> ScalarResult() const;
};

/// Executes bound queries against a Database.
class Executor {
 public:
  Executor(storage::Database* db, FunctionRegistry* registry)
      : db_(db), registry_(registry) {}

  storage::Database* db() { return db_; }
  FunctionRegistry* registry() { return registry_; }
  const CostModel& cost_model() const { return cost_; }

  /// Degree of parallelism for morsel-eligible scans (table source, no UDA,
  /// no reader-style UDF): ungrouped aggregates, GROUP BY, and projections
  /// with or without TOP. The effective worker count is additionally capped
  /// by the pages the scan reads so tiny scans skip the fixed per-worker
  /// setup. Every other query runs the same plan as one morsel, inline on
  /// the calling thread: a UDA or reader-style-UDF table plan over the same
  /// planned leaf list (key seek included), a TVF source over its rows.
  /// Results are bit-identical at any worker count: one worker runs the
  /// morsel plan inline (no thread dispatch), and partials always merge in
  /// morsel-index order.
  void set_scan_workers(int workers) { scan_workers_ = workers; }
  int scan_workers() const { return scan_workers_; }

  /// Overrides the leaf-pages-per-worker amortization floor (tests force
  /// real multi-threading on tiny tables with 0); negative restores the
  /// cost-model heuristic.
  void set_min_pages_per_worker(int64_t pages) {
    min_pages_per_worker_ = pages;
  }

  /// The persistent scan worker pool (created on first parallel query and
  /// reused after that; test/introspection access).
  WorkerPool* worker_pool() { return worker_pool_.get(); }

  /// Rows per block. Every query runs the same two chunk bodies (aggregate
  /// and projection) `rows` at a time. A table plan's WHERE, GROUP BY keys
  /// and items compile to columnar programs (engine/vec_expr.h) where they
  /// can; any other expression, and every UDA argument, runs through Eval
  /// once per selected row. Values <= 1 read one row per block and build no
  /// program: the oracle that the differential suites compare every batch
  /// size and worker count against, results and modeled CPU alike.
  void set_batch_rows(int rows) { batch_rows_ = rows; }
  int batch_rows() const { return batch_rows_; }

  /// Evaluates a standalone (FROM-less) expression under the statement's
  /// context: its variables and subquery runner, its limits (bound on the
  /// calling thread for the kernels the expression reaches), and its stats,
  /// which take the UDF boundary costs and any nested-subquery work merged
  /// by reader-style UDFs.
  Result<Value> EvalStandalone(const Expr& expr, QueryContext* qctx);

  /// Binds the query's expressions against the table schema + registry.
  Status Bind(Query* q) const;

  /// Runs a bound query under its statement's context: variables, subquery
  /// runner, limits and snapshot come from qctx; stats are copied into
  /// qctx->stats, trace spans are recorded into qctx->trace (with morsel
  /// work on per-morsel lanes), and — when qctx->collect_profile is set —
  /// the operator profile tree is built into qctx->profile.
  Result<ResultSet> Execute(const Query& q, QueryContext* qctx);

 private:
  /// Evaluation mode of each operator in the plan that ran, as EXPLAIN
  /// ANALYZE reports it.
  struct PlanModes {
    bool vec_filter = false;  ///< WHERE ran as a columnar program
    bool vec_agg = false;     ///< an aggregate argument or key ran as one
    /// The key-range seek's interval and leaves; empty for a full scan.
    std::string seek;
  };

  /// Runs the query: a FROM-less SELECT evaluates its items once; any other
  /// source runs the morsel plan and records its operator modes in `modes`.
  Result<ResultSet> ExecuteInternal(const Query& q, QueryContext* qctx,
                                    PlanModes* modes);
  /// EvalStandalone, charging `stats`: a FROM-less SELECT's result or a TVF
  /// source's morsel.
  Result<Value> EvalCharged(const Expr& expr, QueryContext* qctx,
                            QueryStats* stats);
  /// Builds qctx->profile from the executed query, its plan's operator
  /// modes, the result's stats, the buffer-pool and registry deltas
  /// spanning the execution, and the trace.
  void BuildProfile(const Query& q, const ResultSet& rs,
                    const PlanModes& modes,
                    const storage::BufferPool::Stats& pool_before,
                    const obs::MetricsSnapshot& metrics_before,
                    QueryContext* qctx);
  /// Evaluates a TVF source's arguments and materializes its rows, charging
  /// the boundary costs.
  Result<std::vector<std::vector<Value>>> MaterializeTvf(const Query& q,
                                                        QueryContext* qctx,
                                                        QueryStats* stats);
  /// Runs `body` over every morsel of the grid on `workers` pool threads
  /// (inline when workers == 1); returns the first failure in morsel order.
  /// Each body invocation runs under a trace lane equal to its morsel index,
  /// so spans stitch deterministically, and with the statement's limits
  /// bound to the thread.
  Status RunMorselScan(size_t n_pages, size_t morsel_pages, int workers,
                       QueryContext* qctx,
                       const std::function<Status(const Morsel&)>& body);
  /// Dispatches fn to the persistent pool (inline at 1 worker).
  void RunOnWorkers(int workers, const std::function<void(int)>& fn);

  storage::Database* db_;
  FunctionRegistry* registry_;
  const CostModel cost_;
  int scan_workers_ = 1;
  int batch_rows_ = 1024;
  int64_t min_pages_per_worker_ = -1;
  /// Serializes pool creation and Run: the WorkerPool accepts one job at a
  /// time, and the multi-session front-end can race parallel scans.
  std::mutex pool_mu_;
  std::unique_ptr<WorkerPool> worker_pool_;
};

}  // namespace sqlarray::engine
