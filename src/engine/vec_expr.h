// Fused columnar expression evaluation.
//
// VecProgram compiles an Expr tree into a flat sequence of column-kernel
// calls (core/vec_kernels.h) over one register file of ColumnVecs — one
// register per instruction, reused across batches so a query allocates its
// registers once. Column loads gather straight out of the row-major
// RowBatch (or alias leaf bytes zero-copy when the batch row IS the lane
// value: a single 8-byte-column table scanned densely); every downstream op
// runs over dense int64/float64 lanes with a validity bitmap.
//
// Compilation is best-effort: Compile returns false for any tree the
// columnar domain does not cover (COUNT(*) stars, binary / VARBINARY(MAX)
// columns outside a call, non-numeric literals or variables, and calls the
// rule below leaves out), and the executor evaluates that whole expression
// with the row evaluator (Eval, engine/expr.h) once per selected row
// instead — per query, per select item. Lanes and Values are the engine's
// only two evaluators.
//
// Hosted calls. A call compiles to one kCall instruction when its function
// carries a column kernel (engine/udf.h) and every argument is either a
// lane subprogram with no NULL literal or variable in it, or a fixed
// VARBINARY(n) column, which the kernel reads in place out of the batch
// rows. A kCheckBytes instruction at that argument's place checks its
// length prefixes against the capacity, so within one row the arguments
// fail in Eval's left-to-right order: a corrupt length before a failing
// index expression after it. A call without a kernel, with a NULL-able
// argument, a VARBINARY(MAX) blob, a bytes or string argument, or a bytes
// or string result runs through Eval. The instruction charges its block's
// calls in one CallCharges::Charge: the calls, bytes and nanoseconds that
// FunctionRegistry::Invoke charges call by call, and the ledger is exact
// in any order, so modeled costs do not move. It probes cancellation once
// per block where Invoke probes once per call.
//
// Semantics contract: Run produces, for every selected row, exactly the
// Value the row-at-a-time evaluator produces (see the numeric contracts in
// core/vec_kernels.h). Lane inference mirrors Value coercion statically:
// the engine's numeric kinds are fixed per leaf (column types, literal and
// variable kinds), so "both operands are BIGINT" is a compile-time fact
// here, not a per-row test. NULL never arises from storage rows — only
// from NULL literals and variables — so nullability flows from kConstNull
// leaves through validity-bitmap intersection; division/modulo kernels take
// the intersected result validity as their error mask, which reproduces the
// row path's "NULL before the zero check" ordering. Instruction-major order
// may surface a different failing row's error than row-major order —
// outcome and success results are identical.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/column.h"
#include "core/vec_kernels.h"
#include "engine/batch.h"
#include "engine/expr.h"

namespace sqlarray::engine::vec {

/// One compiled expression over a table schema.
class VecProgram {
 public:
  /// Compiles `expr` (bound against `schema`) into `out`. Returns false if
  /// any node falls outside the columnar domain; `out` is then unusable and
  /// the caller must evaluate that expression through Eval. Variables are
  /// baked in as constants (they cannot change mid-statement).
  static bool Compile(const Expr& expr, const storage::Schema& schema,
                      const std::map<std::string, Value>* variables,
                      VecProgram* out);

  /// Evaluates over `batch` rows (restricted to `sel` when non-null, one
  /// output lane per selected row, in selection order). `regs` is the
  /// caller-owned register file, resized to num_instrs(); the result is
  /// regs->back(). Hosted calls charge and probe through `udf`.
  Status Run(const RowBatch& batch, const std::vector<int32_t>* sel,
             std::vector<col::ColumnVec>* regs, const UdfContext& udf) const;

  int32_t num_instrs() const { return static_cast<int32_t>(instrs_.size()); }

  /// This program's result register. `regs` may be larger than
  /// num_instrs() when several programs share one register file.
  const col::ColumnVec& Result(const std::vector<col::ColumnVec>& regs) const {
    return regs[instrs_.size() - 1];
  }

 private:
  enum class Op : uint8_t {
    kConstI, kConstF, kConstNull,
    kLoadI32, kLoadI64, kLoadF32, kLoadF64,
    kAddI, kSubI, kMulI, kDivI, kModI,
    kAddF, kSubF, kMulF, kDivF,
    kCmp,
    kAndI, kOrI,
    kNegI, kNegF, kNotI,
    kI2F, kF2I,
    kCheckBytes, kCall,
  };

  struct Instr {
    Op op = Op::kConstI;
    col::CmpOp cmp = col::CmpOp::kEq;
    int32_t a = -1;        ///< operand register indices
    int32_t b = -1;
    int64_t offset = 0;    ///< column byte offset (loads, kCheckBytes)
    int64_t icon = 0;      ///< kConstI: the immediate; kCheckBytes: capacity
    double fcon = 0;       ///< float immediate (kConstF)
    const ScalarFunction* fn = nullptr;  ///< kCall: the function
    int32_t arg_begin = 0;  ///< kCall: its arguments, args_[begin, end)
    int32_t arg_end = 0;
  };

  /// One argument of a kCall: a lane register, or a fixed VARBINARY(n)
  /// column read in place.
  struct CallSlot {
    int32_t reg = -1;    ///< lane register; -1 for a binary column
    int64_t offset = 0;  ///< binary column: byte offset within the row
  };

  /// Emits one instruction; its output register index is its position.
  int32_t Emit(const Instr& in, col::Lane lane);
  /// Lane coercions (no-ops when already in the target lane).
  int32_t ToF64(int32_t r);
  int32_t ToI64(int32_t r);
  /// Recursive tree walk; returns the result register or -1 (unsupported).
  int32_t CompileNode(const Expr& e, const storage::Schema& schema,
                      const std::map<std::string, Value>* variables);
  int32_t CompileCall(const Expr& e, const storage::Schema& schema,
                      const std::map<std::string, Value>* variables);
  /// Runs one kCall's kernel into `out` and charges its n calls.
  Status RunCall(const Instr& in, const uint8_t* base, const int32_t* sel,
                 int32_t n, std::vector<col::ColumnVec>* regs,
                 col::ColumnVec* out, const UdfContext& udf) const;

  std::vector<Instr> instrs_;
  std::vector<col::Lane> lanes_;  ///< output lane per register
  std::vector<CallSlot> args_;    ///< kCall arguments
  int64_t row_size_ = 0;
};

/// Runs a compiled WHERE program densely over the batch and builds the
/// surviving selection (cleared first) with the row path's truthiness:
/// NULL is false, float keep values truncate through int64. `trunc` is
/// caller-owned scratch for that truncation.
Status VecFilter(const VecProgram& prog, const RowBatch& batch,
                 std::vector<col::ColumnVec>* regs, col::ColumnVec* trunc,
                 std::vector<int32_t>* sel, const UdfContext& udf);

/// Materializes a column back into engine Values (Int / Double / Null) —
/// the bridge for consumers that still stitch Value rows.
void ColumnToValues(const col::ColumnVec& c, std::vector<Value>* out);

}  // namespace sqlarray::engine::vec
