// Execution cost model and per-query statistics.
//
// Substitute for the paper's SQL Server + .NET CLR host: queries execute for
// real (all results are computed natively), while a calibrated virtual-time
// model accounts what the same work costs on the paper's testbed. The CLR
// constants are taken from the paper's own measurements (Sec. 7.1): ~2 us
// per CLR UDF call, with marshaling proportional to argument bytes, and UDA
// state (de)serialization on every row (Sec. 4.2). The scan/aggregate
// constants are back-solved from Table 1's Q1/Q3 CPU utilizations.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "storage/disk.h"

namespace sqlarray::engine {

/// Virtual CPU cost constants (nanoseconds) and machine shape. Every
/// constant is a whole or half nanosecond, which keeps QueryStats::cpu_ns
/// exact; an Executor always runs these defaults.
struct CostModel {
  /// Per-row tuple processing during a clustered index scan
  /// (Q1: 45% CPU x 8 cores x 18 s / 357M rows ~ 181 ns).
  double row_scan_ns = 180.0;
  /// Per-row native aggregate update (Q3 minus Q1: ~182 ns).
  double native_agg_step_ns = 180.0;
  /// Flat cost of crossing into a CLR UDF (Sec. 7.1: ~2 us/call).
  double clr_call_ns = 2000.0;
  /// Marshaling cost per argument/result byte crossing the CLR boundary.
  double clr_byte_ns = 0.5;
  /// Managed-code work inside a real (non-empty) UDF body, per call
  /// (Q4 minus Q5: the paper's "+22% above the empty function call").
  double clr_item_work_ns = 500.0;
  /// Per-row cost of streaming a table-valued function's output across the
  /// hosting boundary (IEnumerable iteration in SQL CLR).
  double tvf_row_ns = 300.0;
  /// UDA state serialize + deserialize cost per byte, charged every row
  /// (Sec. 4.2: "the state of aggregation had to be serialized via a binary
  /// stream interface for each row").
  double uda_state_byte_ns = 1.0;
  /// Worker parallelism of the modeled host (two quad-core Xeons).
  int num_cores = 8;
};

/// Statistics for one executed query.
struct QueryStats {
  int64_t rows_scanned = 0;
  /// Rows surviving the WHERE filter (== rows_scanned when there is none).
  int64_t rows_kept = 0;
  /// Native aggregate accumulation steps (the native_agg_step_ns charges).
  int64_t agg_steps = 0;
  int64_t udf_calls = 0;
  int64_t udf_bytes_marshaled = 0;
  int64_t uda_state_bytes = 0;
  /// Boundary-cost attribution for one "schema.function".
  struct UdfFnStats {
    int64_t calls = 0;
    int64_t bytes = 0;
    double cpu_ns = 0;
  };
  /// Per-function attribution, keyed by "schema.function" (lower-cased as
  /// registered). Populated only when track_udf_detail is set — profiled
  /// runs — so the per-call hot path stays one branch otherwise.
  std::map<std::string, UdfFnStats> udf_by_fn;
  bool track_udf_detail = false;
  /// Modeled CPU work in nanoseconds, summed across all workers: the
  /// ledger. Every default charge is a whole or half nanosecond (each
  /// CostModel constant and every managed_work_ns is a whole number, and a
  /// marshaled byte costs 0.5 ns), so this sum is exact below 2^52 ns and
  /// the same in any order: per row or per block, at any worker count.
  double cpu_ns = 0;
  /// The ledger in core-seconds. The engine writes it only as
  /// cpu_ns * 1e-9; benches that project to another scale multiply it.
  double cpu_core_seconds = 0;
  /// I/O deltas attributed to this query.
  storage::IoStats io;
  /// Real (measured) wall-clock seconds of the native execution.
  double wall_seconds = 0;

  void ChargeCpuNs(double ns) {
    cpu_ns += ns;
    cpu_core_seconds = cpu_ns * 1e-9;
  }

  /// Modeled elapsed time: the query is either I/O-bound or CPU-bound
  /// (perfect overlap of the scan pipeline, as in Table 1's analysis).
  double ModeledSeconds(const CostModel& cost) const {
    double cpu_elapsed = cpu_core_seconds / cost.num_cores;
    return cpu_elapsed > io.virtual_read_seconds ? cpu_elapsed
                                                 : io.virtual_read_seconds;
  }
  /// Modeled CPU utilization percentage across all cores.
  double ModeledCpuPct(const CostModel& cost) const {
    double t = ModeledSeconds(cost);
    return t > 0 ? 100.0 * cpu_core_seconds / (t * cost.num_cores) : 0;
  }
  /// Modeled I/O rate in MB/s.
  double ModeledIoMBps(const CostModel& cost) const {
    double t = ModeledSeconds(cost);
    return t > 0 ? static_cast<double>(io.bytes_read) / 1e6 / t : 0;
  }
};

}  // namespace sqlarray::engine
