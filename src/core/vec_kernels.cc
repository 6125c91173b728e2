#include "core/vec_kernels.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>

#include "common/wrap_int.h"
#include "gov/gov.h"

// The AVX2 variants are compiled whenever the target is x86-64 (function-
// level target attributes, so the baseline ISA build still carries them) and
// the scalar-only build flag is off. SQLARRAY_FORCE_SCALAR_KERNELS removes
// them at compile time — the vec_scalar_suite ctest tree — while
// SetForceScalar(true) disables them at runtime in a normal build.
#if defined(__x86_64__) && !defined(SQLARRAY_FORCE_SCALAR_KERNELS)
#define SQLARRAY_HAVE_AVX2_VARIANTS 1
#include <immintrin.h>
#else
#define SQLARRAY_HAVE_AVX2_VARIANTS 0
#endif

namespace sqlarray::col {
namespace {

std::atomic<bool> g_force_scalar{false};

inline bool BitAt(const uint64_t* words, int32_t i) {
  return (words[i >> 6] >> (static_cast<uint32_t>(i) & 63)) & 1;
}

/// Runs `fn(offset, len)` over n elements in kCancelBlock chunks with a
/// cancellation probe before each chunk.
template <typename Fn>
Status RunBlocked(int32_t n, Fn fn) {
  for (int32_t off = 0; off < n; off += kCancelBlock) {
    SQLARRAY_RETURN_IF_ERROR(gov::CheckThreadCancel());
    fn(off, std::min(kCancelBlock, n - off));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Scalar reference loops. These are the semantics; the AVX2 variants below
// must match them bit for bit (per-lane IEEE ops and int wrap do).
// ---------------------------------------------------------------------------

void AddI64Scalar(const int64_t* a, const int64_t* b, int32_t n,
                  int64_t* out) {
  for (int32_t i = 0; i < n; ++i) out[i] = WrapAdd(a[i], b[i]);
}
void SubI64Scalar(const int64_t* a, const int64_t* b, int32_t n,
                  int64_t* out) {
  for (int32_t i = 0; i < n; ++i) out[i] = WrapSub(a[i], b[i]);
}
void MulI64Scalar(const int64_t* a, const int64_t* b, int32_t n,
                  int64_t* out) {
  for (int32_t i = 0; i < n; ++i) out[i] = WrapMul(a[i], b[i]);
}
void AddF64Scalar(const double* a, const double* b, int32_t n, double* out) {
  for (int32_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}
void SubF64Scalar(const double* a, const double* b, int32_t n, double* out) {
  for (int32_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}
void MulF64Scalar(const double* a, const double* b, int32_t n, double* out) {
  for (int32_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}
void AndI64Scalar(const int64_t* a, const int64_t* b, int32_t n,
                  int64_t* out) {
  for (int32_t i = 0; i < n; ++i) out[i] = (a[i] != 0 && b[i] != 0) ? 1 : 0;
}
void OrI64Scalar(const int64_t* a, const int64_t* b, int32_t n,
                 int64_t* out) {
  for (int32_t i = 0; i < n; ++i) out[i] = (a[i] != 0 || b[i] != 0) ? 1 : 0;
}
void NotI64Scalar(const int64_t* a, int32_t n, int64_t* out) {
  for (int32_t i = 0; i < n; ++i) out[i] = (a[i] == 0) ? 1 : 0;
}
void NegI64Scalar(const int64_t* a, int32_t n, int64_t* out) {
  for (int32_t i = 0; i < n; ++i) out[i] = WrapNeg(a[i]);
}
void NegF64Scalar(const double* a, int32_t n, double* out) {
  for (int32_t i = 0; i < n; ++i) out[i] = -a[i];
}

#define SQLARRAY_CMP_SCALAR(NAME, OP)                                      \
  void NAME(const double* a, const double* b, int32_t n, int64_t* out) {   \
    for (int32_t i = 0; i < n; ++i) out[i] = (a[i] OP b[i]) ? 1 : 0;       \
  }
SQLARRAY_CMP_SCALAR(CmpEqScalar, ==)
SQLARRAY_CMP_SCALAR(CmpNeScalar, !=)
SQLARRAY_CMP_SCALAR(CmpLtScalar, <)
SQLARRAY_CMP_SCALAR(CmpLeScalar, <=)
SQLARRAY_CMP_SCALAR(CmpGtScalar, >)
SQLARRAY_CMP_SCALAR(CmpGeScalar, >=)
#undef SQLARRAY_CMP_SCALAR

// ---------------------------------------------------------------------------
// AVX2 variants (x86-64 only). Tails fall back to the same scalar
// expressions, so mixed execution stays bit-identical.
// ---------------------------------------------------------------------------

#if SQLARRAY_HAVE_AVX2_VARIANTS

__attribute__((target("avx2"))) void AddI64Avx2(const int64_t* a,
                                                const int64_t* b, int32_t n,
                                                int64_t* out) {
  int32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_add_epi64(va, vb));
  }
  for (; i < n; ++i) out[i] = WrapAdd(a[i], b[i]);
}

__attribute__((target("avx2"))) void SubI64Avx2(const int64_t* a,
                                                const int64_t* b, int32_t n,
                                                int64_t* out) {
  int32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_sub_epi64(va, vb));
  }
  for (; i < n; ++i) out[i] = WrapSub(a[i], b[i]);
}

__attribute__((target("avx2"))) void AddF64Avx2(const double* a,
                                                const double* b, int32_t n,
                                                double* out) {
  int32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i,
                     _mm256_add_pd(_mm256_loadu_pd(a + i),
                                   _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

__attribute__((target("avx2"))) void SubF64Avx2(const double* a,
                                                const double* b, int32_t n,
                                                double* out) {
  int32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i,
                     _mm256_sub_pd(_mm256_loadu_pd(a + i),
                                   _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

__attribute__((target("avx2"))) void MulF64Avx2(const double* a,
                                                const double* b, int32_t n,
                                                double* out) {
  int32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i,
                     _mm256_mul_pd(_mm256_loadu_pd(a + i),
                                   _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

// Comparison masks are all-ones/all-zero lanes; AND with 1 yields the row
// path's int64 0/1 encoding. The predicate constants match C++ comparison
// semantics: ordered for ==,<,<=,>,>= (NaN -> false) and unordered-true
// for != (NaN -> true).
#define SQLARRAY_CMP_AVX2(NAME, IMM, OP)                                   \
  __attribute__((target("avx2"))) void NAME(                               \
      const double* a, const double* b, int32_t n, int64_t* out) {         \
    const __m256i one = _mm256_set1_epi64x(1);                             \
    int32_t i = 0;                                                         \
    for (; i + 4 <= n; i += 4) {                                           \
      __m256i m = _mm256_castpd_si256(_mm256_cmp_pd(                       \
          _mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i), IMM));           \
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),             \
                          _mm256_and_si256(m, one));                       \
    }                                                                      \
    for (; i < n; ++i) out[i] = (a[i] OP b[i]) ? 1 : 0;                    \
  }
SQLARRAY_CMP_AVX2(CmpEqAvx2, _CMP_EQ_OQ, ==)
SQLARRAY_CMP_AVX2(CmpNeAvx2, _CMP_NEQ_UQ, !=)
SQLARRAY_CMP_AVX2(CmpLtAvx2, _CMP_LT_OQ, <)
SQLARRAY_CMP_AVX2(CmpLeAvx2, _CMP_LE_OQ, <=)
SQLARRAY_CMP_AVX2(CmpGtAvx2, _CMP_GT_OQ, >)
SQLARRAY_CMP_AVX2(CmpGeAvx2, _CMP_GE_OQ, >=)
#undef SQLARRAY_CMP_AVX2

// Truthiness combine: cmpeq-against-zero gives an all-ones mask where the
// lane is zero (falsy); andnot folds the De Morgan complement in one op.
__attribute__((target("avx2"))) void AndI64Avx2(const int64_t* a,
                                                const int64_t* b, int32_t n,
                                                int64_t* out) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi64x(1);
  int32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i za = _mm256_cmpeq_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)), zero);
    __m256i zb = _mm256_cmpeq_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)), zero);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        _mm256_andnot_si256(_mm256_or_si256(za, zb), one));
  }
  for (; i < n; ++i) out[i] = (a[i] != 0 && b[i] != 0) ? 1 : 0;
}

__attribute__((target("avx2"))) void OrI64Avx2(const int64_t* a,
                                               const int64_t* b, int32_t n,
                                               int64_t* out) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi64x(1);
  int32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i za = _mm256_cmpeq_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)), zero);
    __m256i zb = _mm256_cmpeq_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)), zero);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        _mm256_andnot_si256(_mm256_and_si256(za, zb), one));
  }
  for (; i < n; ++i) out[i] = (a[i] != 0 || b[i] != 0) ? 1 : 0;
}

__attribute__((target("avx2"))) void NotI64Avx2(const int64_t* a, int32_t n,
                                                int64_t* out) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi64x(1);
  int32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i za = _mm256_cmpeq_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)), zero);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_and_si256(za, one));
  }
  for (; i < n; ++i) out[i] = (a[i] == 0) ? 1 : 0;
}

__attribute__((target("avx2"))) void NegI64Avx2(const int64_t* a, int32_t n,
                                                int64_t* out) {
  const __m256i zero = _mm256_setzero_si256();
  int32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        _mm256_sub_epi64(zero, _mm256_loadu_si256(
                                   reinterpret_cast<const __m256i*>(a + i))));
  }
  for (; i < n; ++i) out[i] = WrapNeg(a[i]);
}

// -x flips only the sign bit (also on NaN), exactly what xor with -0.0 does.
__attribute__((target("avx2"))) void NegF64Avx2(const double* a, int32_t n,
                                                double* out) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  int32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_xor_pd(_mm256_loadu_pd(a + i), sign));
  }
  for (; i < n; ++i) out[i] = -a[i];
}

#endif  // SQLARRAY_HAVE_AVX2_VARIANTS

inline bool UseSimd() {
#if SQLARRAY_HAVE_AVX2_VARIANTS
  return SimdAvailable() && !g_force_scalar.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

}  // namespace

void SetForceScalar(bool force) {
  g_force_scalar.store(force, std::memory_order_relaxed);
}
bool ForceScalarActive() {
  return g_force_scalar.load(std::memory_order_relaxed);
}

bool SimdAvailable() {
#if SQLARRAY_HAVE_AVX2_VARIANTS
  static const bool ok = __builtin_cpu_supports("avx2") != 0;
  return ok;
#else
  return false;
#endif
}

// ---------------------------------------------------------------------------
// Gathers
// ---------------------------------------------------------------------------

void GatherI64FromI32(const uint8_t* base, int64_t stride, const int32_t* sel,
                      int32_t n, int64_t* out) {
  for (int32_t i = 0; i < n; ++i) {
    const uint8_t* p = base + (sel != nullptr ? sel[i] : i) * stride;
    int32_t v;
    std::memcpy(&v, p, sizeof(v));
    out[i] = v;  // sign-extends, matching ReadRowColumn on kInt32
  }
}

void GatherI64FromI64(const uint8_t* base, int64_t stride, const int32_t* sel,
                      int32_t n, int64_t* out) {
  for (int32_t i = 0; i < n; ++i) {
    const uint8_t* p = base + (sel != nullptr ? sel[i] : i) * stride;
    std::memcpy(&out[i], p, sizeof(int64_t));
  }
}

void GatherF64FromF32(const uint8_t* base, int64_t stride, const int32_t* sel,
                      int32_t n, double* out) {
  for (int32_t i = 0; i < n; ++i) {
    const uint8_t* p = base + (sel != nullptr ? sel[i] : i) * stride;
    float v;
    std::memcpy(&v, p, sizeof(v));
    out[i] = v;  // float -> double widening is exact
  }
}

void GatherF64FromF64(const uint8_t* base, int64_t stride, const int32_t* sel,
                      int32_t n, double* out) {
  for (int32_t i = 0; i < n; ++i) {
    const uint8_t* p = base + (sel != nullptr ? sel[i] : i) * stride;
    std::memcpy(&out[i], p, sizeof(double));
  }
}

// ---------------------------------------------------------------------------
// Elementwise dispatch
// ---------------------------------------------------------------------------

Status AddI64(const int64_t* a, const int64_t* b, int32_t n, int64_t* out) {
  const bool simd = UseSimd();
  return RunBlocked(n, [&](int32_t off, int32_t len) {
#if SQLARRAY_HAVE_AVX2_VARIANTS
    if (simd) return AddI64Avx2(a + off, b + off, len, out + off);
#else
    (void)simd;
#endif
    AddI64Scalar(a + off, b + off, len, out + off);
  });
}

Status SubI64(const int64_t* a, const int64_t* b, int32_t n, int64_t* out) {
  const bool simd = UseSimd();
  return RunBlocked(n, [&](int32_t off, int32_t len) {
#if SQLARRAY_HAVE_AVX2_VARIANTS
    if (simd) return SubI64Avx2(a + off, b + off, len, out + off);
#else
    (void)simd;
#endif
    SubI64Scalar(a + off, b + off, len, out + off);
  });
}

// No 64-bit lane multiply below AVX-512; the scalar loop is the only
// variant (still auto-vectorizable at -O3 via 32x32 splitting).
Status MulI64(const int64_t* a, const int64_t* b, int32_t n, int64_t* out) {
  return RunBlocked(n, [&](int32_t off, int32_t len) {
    MulI64Scalar(a + off, b + off, len, out + off);
  });
}

Status AddF64(const double* a, const double* b, int32_t n, double* out) {
  const bool simd = UseSimd();
  return RunBlocked(n, [&](int32_t off, int32_t len) {
#if SQLARRAY_HAVE_AVX2_VARIANTS
    if (simd) return AddF64Avx2(a + off, b + off, len, out + off);
#else
    (void)simd;
#endif
    AddF64Scalar(a + off, b + off, len, out + off);
  });
}

Status SubF64(const double* a, const double* b, int32_t n, double* out) {
  const bool simd = UseSimd();
  return RunBlocked(n, [&](int32_t off, int32_t len) {
#if SQLARRAY_HAVE_AVX2_VARIANTS
    if (simd) return SubF64Avx2(a + off, b + off, len, out + off);
#else
    (void)simd;
#endif
    SubF64Scalar(a + off, b + off, len, out + off);
  });
}

Status MulF64(const double* a, const double* b, int32_t n, double* out) {
  const bool simd = UseSimd();
  return RunBlocked(n, [&](int32_t off, int32_t len) {
#if SQLARRAY_HAVE_AVX2_VARIANTS
    if (simd) return MulF64Avx2(a + off, b + off, len, out + off);
#else
    (void)simd;
#endif
    MulF64Scalar(a + off, b + off, len, out + off);
  });
}

Status DivI64(const int64_t* a, const int64_t* b, const uint64_t* valid,
              int32_t n, int64_t* out) {
  for (int32_t off = 0; off < n; off += kCancelBlock) {
    SQLARRAY_RETURN_IF_ERROR(gov::CheckThreadCancel());
    const int32_t end = std::min(n, off + kCancelBlock);
    for (int32_t i = off; i < end; ++i) {
      if (valid != nullptr && !BitAt(valid, i)) {
        out[i] = 0;  // NULL lane: deterministic filler, no error check
        continue;
      }
      if (b[i] == 0) return Status::InvalidArgument("division by zero");
      out[i] = WrapDiv(a[i], b[i]);
    }
  }
  return Status::OK();
}

Status ModI64(const int64_t* a, const int64_t* b, const uint64_t* valid,
              int32_t n, int64_t* out) {
  for (int32_t off = 0; off < n; off += kCancelBlock) {
    SQLARRAY_RETURN_IF_ERROR(gov::CheckThreadCancel());
    const int32_t end = std::min(n, off + kCancelBlock);
    for (int32_t i = off; i < end; ++i) {
      if (valid != nullptr && !BitAt(valid, i)) {
        out[i] = 0;
        continue;
      }
      if (b[i] == 0) return Status::InvalidArgument("modulo by zero");
      out[i] = WrapMod(a[i], b[i]);
    }
  }
  return Status::OK();
}

Status DivF64(const double* a, const double* b, const uint64_t* valid,
              int32_t n, double* out) {
  for (int32_t off = 0; off < n; off += kCancelBlock) {
    SQLARRAY_RETURN_IF_ERROR(gov::CheckThreadCancel());
    const int32_t end = std::min(n, off + kCancelBlock);
    for (int32_t i = off; i < end; ++i) {
      if (valid != nullptr && !BitAt(valid, i)) {
        out[i] = 0;
        continue;
      }
      // The row path rejects a zero divisor (either sign) before dividing,
      // so the columnar path never produces inf/NaN from x/0 either.
      if (b[i] == 0.0) return Status::InvalidArgument("division by zero");
      out[i] = a[i] / b[i];
    }
  }
  return Status::OK();
}

Status CmpF64(CmpOp op, const double* a, const double* b, int32_t n,
              int64_t* out) {
  using CmpFn = void (*)(const double*, const double*, int32_t, int64_t*);
  CmpFn fn = nullptr;
#if SQLARRAY_HAVE_AVX2_VARIANTS
  if (UseSimd()) {
    switch (op) {
      case CmpOp::kEq: fn = CmpEqAvx2; break;
      case CmpOp::kNe: fn = CmpNeAvx2; break;
      case CmpOp::kLt: fn = CmpLtAvx2; break;
      case CmpOp::kLe: fn = CmpLeAvx2; break;
      case CmpOp::kGt: fn = CmpGtAvx2; break;
      case CmpOp::kGe: fn = CmpGeAvx2; break;
    }
  }
#endif
  if (fn == nullptr) {
    switch (op) {
      case CmpOp::kEq: fn = CmpEqScalar; break;
      case CmpOp::kNe: fn = CmpNeScalar; break;
      case CmpOp::kLt: fn = CmpLtScalar; break;
      case CmpOp::kLe: fn = CmpLeScalar; break;
      case CmpOp::kGt: fn = CmpGtScalar; break;
      case CmpOp::kGe: fn = CmpGeScalar; break;
    }
  }
  return RunBlocked(n, [&](int32_t off, int32_t len) {
    fn(a + off, b + off, len, out + off);
  });
}

Status AndI64(const int64_t* a, const int64_t* b, int32_t n, int64_t* out) {
  const bool simd = UseSimd();
  return RunBlocked(n, [&](int32_t off, int32_t len) {
#if SQLARRAY_HAVE_AVX2_VARIANTS
    if (simd) return AndI64Avx2(a + off, b + off, len, out + off);
#else
    (void)simd;
#endif
    AndI64Scalar(a + off, b + off, len, out + off);
  });
}

Status OrI64(const int64_t* a, const int64_t* b, int32_t n, int64_t* out) {
  const bool simd = UseSimd();
  return RunBlocked(n, [&](int32_t off, int32_t len) {
#if SQLARRAY_HAVE_AVX2_VARIANTS
    if (simd) return OrI64Avx2(a + off, b + off, len, out + off);
#else
    (void)simd;
#endif
    OrI64Scalar(a + off, b + off, len, out + off);
  });
}

Status NotI64(const int64_t* a, int32_t n, int64_t* out) {
  const bool simd = UseSimd();
  return RunBlocked(n, [&](int32_t off, int32_t len) {
#if SQLARRAY_HAVE_AVX2_VARIANTS
    if (simd) return NotI64Avx2(a + off, len, out + off);
#else
    (void)simd;
#endif
    NotI64Scalar(a + off, len, out + off);
  });
}

Status NegI64(const int64_t* a, int32_t n, int64_t* out) {
  const bool simd = UseSimd();
  return RunBlocked(n, [&](int32_t off, int32_t len) {
#if SQLARRAY_HAVE_AVX2_VARIANTS
    if (simd) return NegI64Avx2(a + off, len, out + off);
#else
    (void)simd;
#endif
    NegI64Scalar(a + off, len, out + off);
  });
}

Status NegF64(const double* a, int32_t n, double* out) {
  const bool simd = UseSimd();
  return RunBlocked(n, [&](int32_t off, int32_t len) {
#if SQLARRAY_HAVE_AVX2_VARIANTS
    if (simd) return NegF64Avx2(a + off, len, out + off);
#else
    (void)simd;
#endif
    NegF64Scalar(a + off, len, out + off);
  });
}

Status I64ToF64(const int64_t* a, int32_t n, double* out) {
  return RunBlocked(n, [&](int32_t off, int32_t len) {
    for (int32_t i = off; i < off + len; ++i) {
      out[i] = static_cast<double>(a[i]);
    }
  });
}

Status F64ToI64(const double* a, const uint64_t* valid, int32_t n,
                int64_t* out) {
  for (int32_t off = 0; off < n; off += kCancelBlock) {
    SQLARRAY_RETURN_IF_ERROR(gov::CheckThreadCancel());
    const int32_t end = std::min(n, off + kCancelBlock);
    for (int32_t i = off; i < end; ++i) {
      if (valid != nullptr && !BitAt(valid, i)) {
        out[i] = 0;  // NULL lane: deterministic filler, no range check
        continue;
      }
      if (!FitsInt64(a[i])) return Int64Overflow();
      out[i] = static_cast<int64_t>(a[i]);
    }
  }
  return Status::OK();
}

void FillI64(int64_t v, int32_t n, int64_t* out) { std::fill_n(out, n, v); }
void FillF64(double v, int32_t n, double* out) { std::fill_n(out, n, v); }

// ---------------------------------------------------------------------------
// Filter / aggregate consumers
// ---------------------------------------------------------------------------

void BuildSel(const int64_t* v, const uint64_t* valid, int32_t n,
              std::vector<int32_t>* sel) {
  if (valid == nullptr) {
    for (int32_t i = 0; i < n; ++i) {
      if (v[i] != 0) sel->push_back(i);
    }
    return;
  }
  for (int32_t i = 0; i < n; ++i) {
    if (BitAt(valid, i) && v[i] != 0) sel->push_back(i);
  }
}

int64_t CountValid(const uint64_t* valid, int32_t n) {
  if (valid == nullptr) return n;
  int64_t count = 0;
  const int32_t words = ValidityWords(n);
  for (int32_t w = 0; w < words; ++w) {
    count += std::popcount(valid[w]);  // tail bits are zero by contract
  }
  return count;
}

Status FoldI64(const int64_t* a, const uint64_t* valid, int32_t n,
               VecAggState* st) {
  for (int32_t off = 0; off < n; off += kCancelBlock) {
    SQLARRAY_RETURN_IF_ERROR(gov::CheckThreadCancel());
    const int32_t end = std::min(n, off + kCancelBlock);
    for (int32_t i = off; i < end; ++i) {
      if (valid != nullptr && !BitAt(valid, i)) continue;
      const int64_t v = a[i];
      const double d = static_cast<double>(v);
      st->isum = WrapAdd(st->isum, v);
      st->count++;
      st->sum += d;
      st->mn = std::min(st->mn, d);
      st->mx = std::max(st->mx, d);
    }
  }
  return Status::OK();
}

Status FoldF64(const double* a, const uint64_t* valid, int32_t n,
               VecAggState* st) {
  for (int32_t off = 0; off < n; off += kCancelBlock) {
    SQLARRAY_RETURN_IF_ERROR(gov::CheckThreadCancel());
    const int32_t end = std::min(n, off + kCancelBlock);
    for (int32_t i = off; i < end; ++i) {
      if (valid != nullptr && !BitAt(valid, i)) continue;
      const double d = a[i];
      st->int_only = false;
      st->count++;
      st->sum += d;
      st->mn = std::min(st->mn, d);
      st->mx = std::max(st->mx, d);
    }
  }
  return Status::OK();
}

}  // namespace sqlarray::col
