// BIGINT arithmetic and conversion shared by both evaluators.
//
// Eval (engine/expr.cc), the lane kernels (core/vec_kernels.cc) and the
// SUM fold (engine/exec.cc) must agree bit for bit, and signed overflow is
// undefined behaviour in C++. So +, -, * and unary - wrap through uint64_t,
// and the one quotient that does not fit, INT64_MIN / -1, is its wrapped
// value INT64_MIN; x % -1 is 0. (x86 raises SIGFPE on both INT64_MIN / -1
// and INT64_MIN % -1.) Division by zero stays an error at each call site.
//
// Converting a FLOAT to BIGINT truncates toward zero. NaN, +-inf and
// |x| >= 2^63 have no BIGINT (the bare cast is undefined behaviour there);
// SQL Server raises an arithmetic overflow, and CheckedF64ToI64 fails with
// kOutOfRange.
#pragma once

#include <cstdint>

#include "common/status.h"

namespace sqlarray {

inline int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
inline int64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}
inline int64_t WrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}
inline int64_t WrapNeg(int64_t a) {
  return static_cast<int64_t>(uint64_t{0} - static_cast<uint64_t>(a));
}
/// Truncating a / b for b != 0.
inline int64_t WrapDiv(int64_t a, int64_t b) {
  return b == -1 ? WrapNeg(a) : a / b;
}
/// a % b for b != 0, with the sign of a.
inline int64_t WrapMod(int64_t a, int64_t b) { return b == -1 ? 0 : a % b; }

/// True when `d` truncates to a BIGINT: -2^63 <= d < 2^63 (NaN fails both
/// comparisons).
inline bool FitsInt64(double d) { return d >= -0x1p63 && d < 0x1p63; }

/// The error of a FLOAT that has no BIGINT.
inline Status Int64Overflow() {
  return Status::OutOfRange("arithmetic overflow converting FLOAT to BIGINT");
}

/// FLOAT -> BIGINT, truncating toward zero; kOutOfRange when `d` does not
/// fit.
inline Result<int64_t> CheckedF64ToI64(double d) {
  if (!FitsInt64(d)) return Int64Overflow();
  return static_cast<int64_t>(d);
}

}  // namespace sqlarray
