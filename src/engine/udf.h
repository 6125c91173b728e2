// User-defined function registry and the CLR boundary.
//
// The paper's library surfaces as schema-qualified scalar UDFs
// (FloatArray.Item_1, FloatArrayMax.Subarray, ...) plus user-defined
// aggregates. Each registered function carries a boundary kind: kNative
// (built into the server, e.g. SUM) or kClr (hosted — every invocation pays
// the flat call overhead and per-byte marshaling the paper measures in
// Sec. 7.1, plus any declared managed-work cost).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/wrap_int.h"
#include "core/column.h"
#include "engine/cost.h"
#include "engine/value.h"
#include "gov/gov.h"
#include "storage/schema.h"

namespace sqlarray::engine {

/// Where a function executes; determines boundary-cost accounting.
enum class Boundary { kNative, kClr };

/// Rows plus execution statistics of a nested query.
struct SubqueryResult {
  std::vector<std::vector<Value>> rows;
  QueryStats stats;
};

/// Runs a SQL text subquery and returns its rows — how reader-style UDFs
/// (the paper's Concat-from-query replacement for slow UDAs, Sec. 4.2)
/// pull data without being aggregates themselves. Wired up by the session.
using SubqueryFn = std::function<Result<SubqueryResult>(const std::string&)>;

/// Per-invocation execution context handed to UDF bodies.
struct UdfContext {
  storage::BufferPool* pool = nullptr;  ///< for opening blob streams
  QueryStats* stats = nullptr;          ///< may be null outside queries
  const CostModel* cost = nullptr;
  const SubqueryFn* subquery = nullptr;  ///< null outside a session
  /// Statement governance, probed at every UDF boundary crossing so a long
  /// chain of hosted calls stays cancellable. Null when ungoverned.
  const gov::QueryLimits* limits = nullptr;
};

/// A scalar function implementation.
using ScalarFn =
    std::function<Result<Value>(std::span<const Value>, UdfContext&)>;

/// One argument column of a column-kernel call, row k being the k-th
/// selected row: a numeric lane, or a fixed VARBINARY(n) column read in
/// place out of the gathered batch rows, its lengths already checked
/// against the capacity.
struct CallArg {
  const col::ColumnVec* lane = nullptr;  ///< numeric argument; null: bytes
  const uint8_t* base = nullptr;  ///< bytes: the column in batch row 0
  int64_t stride = 0;             ///< bytes: the batch's row size
  const int32_t* sel = nullptr;   ///< bytes: batch row of row k (null: k)

  /// Bytes: row k's column in the batch.
  const uint8_t* At(int32_t k) const {
    return base + static_cast<int64_t>(sel != nullptr ? sel[k] : k) * stride;
  }
  /// Row k's stored bytes.
  std::span<const uint8_t> Bytes(int32_t k) const {
    return storage::BinaryColumnBytes(At(k));
  }
};

/// A column kernel: the function over `n` rows of argument columns at once,
/// writing n FLOAT results into `out`. It agrees with the row function row
/// by row: the same value, and at the first failing row the same Status.
/// Its results are never NULL.
using ColumnKernel = std::function<Status(std::span<const CallArg> args,
                                          int32_t n, col::ColumnVec* out)>;

/// A registered scalar function.
struct ScalarFunction {
  std::string schema;
  std::string name;
  int arity = 0;  ///< -1 for variadic
  Boundary boundary = Boundary::kClr;
  /// Modeled managed-work nanoseconds per call (0 for the empty function).
  double managed_work_ns = 0;
  /// Reader-style UDFs re-enter the session through ctx.subquery; they are
  /// not safe on parallel scan workers, so a query calling one runs as a
  /// single morsel on the calling thread.
  bool needs_subquery = false;
  ScalarFn fn;
  /// Optional column kernel, registered with the row function. A call whose
  /// arguments are all lanes free of NULL or fixed VARBINARY(n) columns runs
  /// it as one lane instruction per block (engine/vec_expr.h); every other
  /// call runs `fn` once per row.
  ColumnKernel kernel;
};

/// The CLR boundary charges of hosted calls to one function. Invoke charges
/// each call after its body; a call lane (engine/vec_expr.h) charges a
/// block's calls at once. The ledger (QueryStats::cpu_ns) is exact, so both
/// add the same total. Inactive (charges nothing) for a native function or
/// without stats and a cost model.
class CallCharges {
 public:
  CallCharges(const ScalarFunction& fn, const UdfContext& ctx) : fn_(&fn) {
    if (fn.boundary != Boundary::kClr || ctx.stats == nullptr ||
        ctx.cost == nullptr) {
      return;
    }
    stats_ = ctx.stats;
    cost_ = ctx.cost;
    if (stats_->track_udf_detail) {
      detail_ = &stats_->udf_by_fn[fn.schema + "." + fn.name];
    }
  }
  bool active() const { return stats_ != nullptr; }
  /// `calls` calls: each one's flat cost and declared managed work, plus
  /// the per-byte marshaling of `in_bytes` argument bytes in and
  /// `out_bytes` result bytes back.
  void Charge(int64_t calls, int64_t in_bytes, int64_t out_bytes) {
    const int64_t bytes = in_bytes + out_bytes;
    stats_->udf_calls += calls;
    stats_->udf_bytes_marshaled += bytes;
    const double charge_ns =
        static_cast<double>(calls) *
            (cost_->clr_call_ns + fn_->managed_work_ns) +
        cost_->clr_byte_ns * static_cast<double>(bytes);
    stats_->ChargeCpuNs(charge_ns);
    if (detail_ != nullptr) {
      detail_->calls += calls;
      detail_->bytes += bytes;
      detail_->cpu_ns += charge_ns;
    }
  }

 private:
  const ScalarFunction* fn_;
  QueryStats* stats_ = nullptr;
  const CostModel* cost_ = nullptr;
  QueryStats::UdfFnStats* detail_ = nullptr;  ///< when tracked
};

/// A user-defined aggregate. The engine emulates SQL Server's hosting
/// contract: the accumulator state is serialized and deserialized across
/// every row (the Sec. 4.2 bottleneck), which the cost model charges.
class Uda {
 public:
  virtual ~Uda() = default;
  /// Fresh serialized state.
  virtual Result<std::vector<uint8_t>> Init(std::span<const Value> args,
                                            UdfContext& ctx) = 0;
  /// Consumes one row, returning the new serialized state.
  virtual Result<std::vector<uint8_t>> Accumulate(
      std::span<const uint8_t> state, std::span<const Value> row_args,
      UdfContext& ctx) = 0;
  /// Produces the final value from the last state.
  virtual Result<Value> Terminate(std::span<const uint8_t> state,
                                  UdfContext& ctx) = 0;
};

/// Factory so each query gets a fresh aggregate instance.
using UdaFactory = std::function<std::unique_ptr<Uda>()>;

/// A table-valued function: called with scalar arguments, produces rows
/// (the paper's ToTable / MatrixToTable surface, Sec. 5.1). Hosted like any
/// CLR function; each produced row streams across the boundary.
struct TableValuedFunction {
  std::string schema;
  std::string name;
  int arity = 0;
  std::vector<std::string> columns;  ///< output column names
  std::function<Result<std::vector<std::vector<Value>>>(
      std::span<const Value>, UdfContext&)>
      fn;
};

/// Registry of schema-qualified functions.
class FunctionRegistry {
 public:
  Status RegisterScalar(ScalarFunction fn);
  Status RegisterUda(const std::string& schema, const std::string& name,
                     UdaFactory factory);
  Status RegisterTvf(TableValuedFunction tvf);

  /// Resolves "Schema.Name" with the given argument count (exact-arity
  /// match first, then a variadic registration).
  Result<const ScalarFunction*> Resolve(const std::string& schema,
                                        const std::string& name,
                                        int arity) const;
  Result<const UdaFactory*> ResolveUda(const std::string& schema,
                                       const std::string& name) const;
  Result<const TableValuedFunction*> ResolveTvf(const std::string& schema,
                                                const std::string& name) const;

  bool HasScalar(const std::string& schema, const std::string& name) const;

  /// Number of registered scalar functions (catalog introspection).
  int64_t scalar_count() const { return static_cast<int64_t>(scalars_.size()); }
  /// Every registered scalar function, in the order of its lower-cased
  /// "schema.name/arity" key.
  std::vector<const ScalarFunction*> scalars() const;

  /// Invokes a resolved function, charging boundary costs to ctx.stats.
  static Result<Value> Invoke(const ScalarFunction& fn,
                              std::span<const Value> args, UdfContext& ctx);

 private:
  static std::string Key(const std::string& schema, const std::string& name,
                         int arity);
  std::map<std::string, ScalarFunction> scalars_;
  std::map<std::string, UdaFactory> udas_;
  std::map<std::string, TableValuedFunction> tvfs_;
};

}  // namespace sqlarray::engine
