// Null-aware vectorized kernels over ColumnVec payloads.
//
// These are the inner loops of the columnar expression pipeline
// (engine/vec_expr.h): elementwise arithmetic, comparisons, boolean
// combine, lane conversions, strided gathers out of row-major batches, and
// the aggregate folds. The loops are plain C++ built -O3, so the compiler
// vectorizes them. Each kernel of the hot elementwise family (+, -, * on
// int64 and float64, the comparisons, AND/OR/NOT, unary -) is one per-lane
// expression compiled twice from the same loop: once for AVX2, chosen at run
// time when the CPU has it (x86-64 only), and once for the baseline ISA.
// The baseline builds are exported under `baseline::` as the reference the
// dispatched kernels must match bit for bit, as Crc32cPortable() backs
// Crc32c() (tests/test_vec.cc compares them).
//
// Numeric contracts (must mirror engine::EvalBinaryOp / EvalUnaryOp and
// AccumulateNative exactly — the row path is the oracle):
//   * int64 +,-,* and unary - wrap, INT64_MIN / -1 is INT64_MIN and
//     x % -1 is 0 (common/wrap_int.h); int64 / and % raise InvalidArgument
//     on a zero divisor AT A VALID LANE ("division by zero" / "modulo by
//     zero");
//     float64 / raises on a divisor that compares equal to 0.0.
//   * comparisons run in the double domain (int64 operands are converted
//     first, matching Value::AsDouble coercion) and yield int64 0/1;
//     NaN compares unordered (only != is true).
//   * AND/OR/NOT truthiness is int64 (float operands truncate first) and is
//     strict, not short-circuit: both operands are always evaluated.
//   * the aggregate folds keep the row loop's exact serial order:
//     sum += d one element at a time, mn/mx via std::min/std::max (whose
//     NaN- and signed-zero asymmetry is part of the contract), so results
//     are bit-identical to row-at-a-time accumulation. Elementwise kernels
//     may vectorize freely — per-lane IEEE ops are exact.
//   * division/modulo kernels write 0 at invalid lanes (deterministic
//     buffers) and skip their zero checks there: NULL operands never raise.
//     The double -> int64 conversion does the same with its range check.
//
// Cancellation: every kernel probes gov::CheckThreadCancel() between
// blocks of kCancelBlock elements, so a runaway vectorized query dies at
// the same granularity as the row loops.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/column.h"

namespace sqlarray::col {

/// Elements per cancellation probe inside the kernel loops.
inline constexpr int32_t kCancelBlock = 8192;

// ---------------------------------------------------------------------------
// Gathers: strided loads out of a row-major batch into a dense lane.
// `sel` selects batch row indices (nullptr = rows 0..n-1); `base` points at
// row 0's column byte, `stride` is the serialized row size.
// ---------------------------------------------------------------------------

void GatherI64FromI32(const uint8_t* base, int64_t stride, const int32_t* sel,
                      int32_t n, int64_t* out);
void GatherI64FromI64(const uint8_t* base, int64_t stride, const int32_t* sel,
                      int32_t n, int64_t* out);
void GatherF64FromF32(const uint8_t* base, int64_t stride, const int32_t* sel,
                      int32_t n, double* out);
void GatherF64FromF64(const uint8_t* base, int64_t stride, const int32_t* sel,
                      int32_t n, double* out);

// ---------------------------------------------------------------------------
// Elementwise kernels (dense, n lanes). `valid` masks the error checks of
// division/modulo (nullptr = every lane valid); value lanes are computed
// unconditionally elsewhere — invalid lanes hold deterministic garbage the
// evaluator never reads.
// ---------------------------------------------------------------------------

Status AddI64(const int64_t* a, const int64_t* b, int32_t n, int64_t* out);
Status SubI64(const int64_t* a, const int64_t* b, int32_t n, int64_t* out);
Status MulI64(const int64_t* a, const int64_t* b, int32_t n, int64_t* out);
Status DivI64(const int64_t* a, const int64_t* b, const uint64_t* valid,
              int32_t n, int64_t* out);
Status ModI64(const int64_t* a, const int64_t* b, const uint64_t* valid,
              int32_t n, int64_t* out);

Status AddF64(const double* a, const double* b, int32_t n, double* out);
Status SubF64(const double* a, const double* b, int32_t n, double* out);
Status MulF64(const double* a, const double* b, int32_t n, double* out);
Status DivF64(const double* a, const double* b, const uint64_t* valid,
              int32_t n, double* out);

/// Comparison operators in the double domain; output is int64 0/1.
enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };
Status CmpF64(CmpOp op, const double* a, const double* b, int32_t n,
              int64_t* out);

/// Strict boolean combine over int64 truthiness: out = 0/1.
Status AndI64(const int64_t* a, const int64_t* b, int32_t n, int64_t* out);
Status OrI64(const int64_t* a, const int64_t* b, int32_t n, int64_t* out);
Status NotI64(const int64_t* a, int32_t n, int64_t* out);

Status NegI64(const int64_t* a, int32_t n, int64_t* out);
Status NegF64(const double* a, int32_t n, double* out);

/// The elementwise kernels above built for the baseline ISA alone: the
/// reference the dispatched ones match byte for byte. On a CPU without AVX2
/// the dispatched kernels run this code.
namespace baseline {
Status AddI64(const int64_t* a, const int64_t* b, int32_t n, int64_t* out);
Status SubI64(const int64_t* a, const int64_t* b, int32_t n, int64_t* out);
Status MulI64(const int64_t* a, const int64_t* b, int32_t n, int64_t* out);
Status AddF64(const double* a, const double* b, int32_t n, double* out);
Status SubF64(const double* a, const double* b, int32_t n, double* out);
Status MulF64(const double* a, const double* b, int32_t n, double* out);
Status CmpF64(CmpOp op, const double* a, const double* b, int32_t n,
              int64_t* out);
Status AndI64(const int64_t* a, const int64_t* b, int32_t n, int64_t* out);
Status OrI64(const int64_t* a, const int64_t* b, int32_t n, int64_t* out);
Status NotI64(const int64_t* a, int32_t n, int64_t* out);
Status NegI64(const int64_t* a, int32_t n, int64_t* out);
Status NegF64(const double* a, int32_t n, double* out);
}  // namespace baseline

/// Lane conversions: int64 -> double widens (static_cast), double -> int64
/// truncates toward zero (Value::AsInt coercion) and, like it, fails with
/// kOutOfRange at a VALID lane that has no BIGINT (NaN, +-inf,
/// |x| >= 2^63); invalid lanes get 0 and no check.
Status I64ToF64(const int64_t* a, int32_t n, double* out);
Status F64ToI64(const double* a, const uint64_t* valid, int32_t n,
                int64_t* out);

/// Broadcast fills for literal/variable operands.
void FillI64(int64_t v, int32_t n, int64_t* out);
void FillF64(double v, int32_t n, double* out);

// ---------------------------------------------------------------------------
// Filter and aggregate consumers
// ---------------------------------------------------------------------------

/// Appends to `sel` every row index with a set validity bit and a nonzero
/// value — SQL truthiness over an int64 keep column (NULL is false).
void BuildSel(const int64_t* v, const uint64_t* valid, int32_t n,
              std::vector<int32_t>* sel);

/// Number of valid rows in [begin, end) (nullptr: every row).
int64_t CountValid(const uint64_t* valid, int32_t begin, int32_t end);

/// One native aggregate accumulator, mirroring engine AggState's numeric
/// fields. Folds CONTINUE the caller's serial chain: seed the struct from
/// the live accumulator, fold, copy back — bit-identical to accumulating
/// row by row.
struct VecAggState {
  int64_t count = 0;
  double sum = 0;
  double mn = 0;
  double mx = 0;
  bool int_only = true;
  int64_t isum = 0;
};

/// Folds the valid int64 lanes of rows [begin, end) in row order: isum += v;
/// count++; sum += double(v); mn/mx via std::min/std::max — exactly
/// AccumulateNative on kInt64 Values.
Status FoldI64(const int64_t* a, const uint64_t* valid, int32_t begin,
               int32_t end, VecAggState* st);
/// Folds the valid float64 lanes of rows [begin, end) (int_only clears per
/// valid row) — exactly AccumulateNative on kFloat64 Values, NaN asymmetry
/// included.
Status FoldF64(const double* a, const uint64_t* valid, int32_t begin,
               int32_t end, VecAggState* st);

}  // namespace sqlarray::col
