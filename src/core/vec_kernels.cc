#include "core/vec_kernels.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>

#include "common/wrap_int.h"
#include "gov/gov.h"

namespace sqlarray::col {
namespace {

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
// Elementwise lanes. Each kernel is one per-lane expression, run by
// LaneLoop as out[i] = op(a[i]) or op(a[i], b[i]). The loop is inlined
// twice: into LanesAvx2, built for AVX2 (which -O3 vectorizes four lanes
// wide), and into Lanes at the baseline ISA (where GCC 12 vectorizes only
// the add, subtract, negate and float multiply loops). Per-lane IEEE ops
// and integer wraps do not depend on the vector width, so both give the
// same bits; the CPU picks which one runs.
// ---------------------------------------------------------------------------

template <typename Op, typename R, typename... T>
[[gnu::always_inline]] inline void LaneLoop(Op op, int32_t n, R* out,
                                            const T*... in) {
  for (int32_t i = 0; i < n; ++i) out[i] = op(in[i]...);
}

#if defined(__x86_64__)
template <typename Op, typename R, typename... T>
[[gnu::target("avx2")]] void LanesAvx2(Op op, int32_t n, R* out,
                                       const T*... in) {
  LaneLoop(op, n, out, in...);
}
#endif

/// True when this CPU runs AVX2; probed once per process.
bool Avx2() {
#if defined(__x86_64__)
  static const bool ok = __builtin_cpu_supports("avx2") != 0;
  return ok;
#else
  return false;
#endif
}

/// Runs `op` over n lanes in cancellation blocks: on the AVX2 build when
/// `avx2` is set, on the baseline build otherwise.
template <typename Op, typename R, typename... T>
Status Lanes([[maybe_unused]] bool avx2, Op op, int32_t n, R* out,
             const T*... in) {
  return RunBlocked(n, [&](int32_t off, int32_t len) {
#if defined(__x86_64__)
    if (avx2) return LanesAvx2(op, len, out + off, (in + off)...);
#endif
    LaneLoop(op, len, out + off, (in + off)...);
  });
}

// The per-lane expressions.
constexpr auto kAddI64 = [](int64_t x, int64_t y) { return WrapAdd(x, y); };
constexpr auto kSubI64 = [](int64_t x, int64_t y) { return WrapSub(x, y); };
constexpr auto kMulI64 = [](int64_t x, int64_t y) { return WrapMul(x, y); };
constexpr auto kAddF64 = [](double x, double y) { return x + y; };
constexpr auto kSubF64 = [](double x, double y) { return x - y; };
constexpr auto kMulF64 = [](double x, double y) { return x * y; };
/// C++ comparison semantics: NaN makes all but != false.
template <typename Cmp>
constexpr auto kCmp = [](double x, double y) -> int64_t {
  return Cmp{}(x, y) ? 1 : 0;
};
constexpr auto kAndI64 = [](int64_t x, int64_t y) -> int64_t {
  return (x != 0 && y != 0) ? 1 : 0;
};
constexpr auto kOrI64 = [](int64_t x, int64_t y) -> int64_t {
  return (x != 0 || y != 0) ? 1 : 0;
};
constexpr auto kNotI64 = [](int64_t x) -> int64_t { return x == 0 ? 1 : 0; };
constexpr auto kNegI64 = [](int64_t x) { return WrapNeg(x); };
constexpr auto kNegF64 = [](double x) { return -x; };

Status Cmp(bool avx2, CmpOp op, const double* a, const double* b, int32_t n,
           int64_t* out) {
  switch (op) {
    case CmpOp::kEq: return Lanes(avx2, kCmp<std::equal_to<>>, n, out, a, b);
    case CmpOp::kNe:
      return Lanes(avx2, kCmp<std::not_equal_to<>>, n, out, a, b);
    case CmpOp::kLt: return Lanes(avx2, kCmp<std::less<>>, n, out, a, b);
    case CmpOp::kLe: return Lanes(avx2, kCmp<std::less_equal<>>, n, out, a, b);
    case CmpOp::kGt: return Lanes(avx2, kCmp<std::greater<>>, n, out, a, b);
    case CmpOp::kGe:
      return Lanes(avx2, kCmp<std::greater_equal<>>, n, out, a, b);
  }
  return Status::Internal("unknown comparison");
}

}  // namespace

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
// Elementwise kernels: the dispatched entries, then their baseline builds
// ---------------------------------------------------------------------------

Status AddI64(const int64_t* a, const int64_t* b, int32_t n, int64_t* out) {
  return Lanes(Avx2(), kAddI64, n, out, a, b);
}
Status SubI64(const int64_t* a, const int64_t* b, int32_t n, int64_t* out) {
  return Lanes(Avx2(), kSubI64, n, out, a, b);
}
Status MulI64(const int64_t* a, const int64_t* b, int32_t n, int64_t* out) {
  return Lanes(Avx2(), kMulI64, n, out, a, b);
}
Status AddF64(const double* a, const double* b, int32_t n, double* out) {
  return Lanes(Avx2(), kAddF64, n, out, a, b);
}
Status SubF64(const double* a, const double* b, int32_t n, double* out) {
  return Lanes(Avx2(), kSubF64, n, out, a, b);
}
Status MulF64(const double* a, const double* b, int32_t n, double* out) {
  return Lanes(Avx2(), kMulF64, n, out, a, b);
}
Status CmpF64(CmpOp op, const double* a, const double* b, int32_t n,
              int64_t* out) {
  return Cmp(Avx2(), op, a, b, n, out);
}
Status AndI64(const int64_t* a, const int64_t* b, int32_t n, int64_t* out) {
  return Lanes(Avx2(), kAndI64, n, out, a, b);
}
Status OrI64(const int64_t* a, const int64_t* b, int32_t n, int64_t* out) {
  return Lanes(Avx2(), kOrI64, n, out, a, b);
}
Status NotI64(const int64_t* a, int32_t n, int64_t* out) {
  return Lanes(Avx2(), kNotI64, n, out, a);
}
Status NegI64(const int64_t* a, int32_t n, int64_t* out) {
  return Lanes(Avx2(), kNegI64, n, out, a);
}
Status NegF64(const double* a, int32_t n, double* out) {
  return Lanes(Avx2(), kNegF64, n, out, a);
}

namespace baseline {

Status AddI64(const int64_t* a, const int64_t* b, int32_t n, int64_t* out) {
  return Lanes(false, kAddI64, n, out, a, b);
}
Status SubI64(const int64_t* a, const int64_t* b, int32_t n, int64_t* out) {
  return Lanes(false, kSubI64, n, out, a, b);
}
Status MulI64(const int64_t* a, const int64_t* b, int32_t n, int64_t* out) {
  return Lanes(false, kMulI64, n, out, a, b);
}
Status AddF64(const double* a, const double* b, int32_t n, double* out) {
  return Lanes(false, kAddF64, n, out, a, b);
}
Status SubF64(const double* a, const double* b, int32_t n, double* out) {
  return Lanes(false, kSubF64, n, out, a, b);
}
Status MulF64(const double* a, const double* b, int32_t n, double* out) {
  return Lanes(false, kMulF64, n, out, a, b);
}
Status CmpF64(CmpOp op, const double* a, const double* b, int32_t n,
              int64_t* out) {
  return Cmp(false, op, a, b, n, out);
}
Status AndI64(const int64_t* a, const int64_t* b, int32_t n, int64_t* out) {
  return Lanes(false, kAndI64, n, out, a, b);
}
Status OrI64(const int64_t* a, const int64_t* b, int32_t n, int64_t* out) {
  return Lanes(false, kOrI64, n, out, a, b);
}
Status NotI64(const int64_t* a, int32_t n, int64_t* out) {
  return Lanes(false, kNotI64, n, out, a);
}
Status NegI64(const int64_t* a, int32_t n, int64_t* out) {
  return Lanes(false, kNegI64, n, out, a);
}
Status NegF64(const double* a, int32_t n, double* out) {
  return Lanes(false, kNegF64, n, out, a);
}

}  // namespace baseline

// ---------------------------------------------------------------------------
// Division, modulo and conversions: checked per valid lane
// ---------------------------------------------------------------------------

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

int64_t CountValid(const uint64_t* valid, int32_t begin, int32_t end) {
  if (valid == nullptr) return end - begin;
  int64_t count = 0;
  for (int32_t i = begin; i < end; ++i) count += BitAt(valid, i) ? 1 : 0;
  return count;
}

Status FoldI64(const int64_t* a, const uint64_t* valid, int32_t begin,
               int32_t end, VecAggState* st) {
  for (int32_t off = begin; off < end; off += kCancelBlock) {
    SQLARRAY_RETURN_IF_ERROR(gov::CheckThreadCancel());
    const int32_t stop = std::min(end, off + kCancelBlock);
    for (int32_t i = off; i < stop; ++i) {
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

Status FoldF64(const double* a, const uint64_t* valid, int32_t begin,
               int32_t end, VecAggState* st) {
  for (int32_t off = begin; off < end; off += kCancelBlock) {
    SQLARRAY_RETURN_IF_ERROR(gov::CheckThreadCancel());
    const int32_t stop = std::min(end, off + kCancelBlock);
    for (int32_t i = off; i < stop; ++i) {
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
