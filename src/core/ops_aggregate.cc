#include <algorithm>
#include <cmath>
#include <limits>

#include "core/kernels.h"
#include "core/ops.h"
#include "gov/gov.h"

namespace sqlarray {

namespace {

/// Elements between cooperative cancellation probes in boxed loops. The
/// probe is a thread-local load when the query is ungoverned.
constexpr int64_t kCancelMask = 8191;

struct RealAccum {
  double sum = 0;
  double sumsq = 0;
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  int64_t n = 0;

  void Add(double v) {
    sum += v;
    sumsq += v * v;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
    ++n;
  }

  Result<double> Finish(AggKind kind) const {
    switch (kind) {
      case AggKind::kSum:
        return sum;
      case AggKind::kCount:
        return static_cast<double>(n);
      case AggKind::kMin:
        if (n == 0) return Status::InvalidArgument("min of empty array");
        return mn;
      case AggKind::kMax:
        if (n == 0) return Status::InvalidArgument("max of empty array");
        return mx;
      case AggKind::kMean:
        if (n == 0) return Status::InvalidArgument("mean of empty array");
        return sum / static_cast<double>(n);
      case AggKind::kStd: {
        if (n == 0) return Status::InvalidArgument("std of empty array");
        double mean = sum / static_cast<double>(n);
        double var = sumsq / static_cast<double>(n) - mean * mean;
        return std::sqrt(std::max(0.0, var));
      }
    }
    return Status::Internal("unreachable aggregate kind");
  }
};

bool KindNeedsOrdering(AggKind kind) {
  return kind == AggKind::kMin || kind == AggKind::kMax ||
         kind == AggKind::kStd;
}

/// Finishes a kernel ReduceStats with RealAccum's empty-input and variance
/// semantics (the field layouts match by construction).
Result<double> FinishStats(const kernels::ReduceStats& s, AggKind kind) {
  RealAccum acc;
  acc.sum = s.sum;
  acc.sumsq = s.sumsq;
  if (s.n > 0) {
    acc.mn = s.mn;
    acc.mx = s.mx;
  }
  acc.n = s.n;
  return acc.Finish(kind);
}

}  // namespace

Result<double> AggregateAllBoxed(const ArrayRef& a, AggKind kind) {
  if (IsComplexDType(a.dtype())) {
    return Status::TypeMismatch(
        "real aggregate applied to a complex array; use "
        "AggregateAllComplex");
  }
  RealAccum acc;
  const int64_t n = a.num_elements();
  for (int64_t i = 0; i < n; ++i) {
    if ((i & kCancelMask) == 0) {
      SQLARRAY_RETURN_IF_ERROR(gov::CheckThreadCancel());
    }
    acc.Add(a.GetDouble(i).value());
  }
  return acc.Finish(kind);
}

Result<double> AggregateAll(const ArrayRef& a, AggKind kind) {
  if (IsComplexDType(a.dtype())) {
    return Status::TypeMismatch(
        "real aggregate applied to a complex array; use "
        "AggregateAllComplex");
  }
  // SUM/MEAN/COUNT only need the running sum: use the unrolled sum kernel.
  // MIN/MAX/STD take the combined single-pass reduction kernel.
  if (kind == AggKind::kSum || kind == AggKind::kMean ||
      kind == AggKind::kCount) {
    kernels::SumKernelFn fn = kernels::LookupSum(a.dtype());
    if (fn == nullptr) {
      kernels::CountBoxedDispatch();
      return AggregateAllBoxed(a, kind);
    }
    kernels::CountKernelDispatch();
    const int64_t n = a.num_elements();
    if (kind == AggKind::kCount) return static_cast<double>(n);
    if (kind == AggKind::kMean && n == 0) {
      return Status::InvalidArgument("mean of empty array");
    }
    double sum = fn(a.payload().data(), n);
    return kind == AggKind::kSum ? sum : sum / static_cast<double>(n);
  }
  kernels::ReduceKernelFn fn = kernels::LookupReduce(a.dtype());
  if (fn == nullptr) {
    kernels::CountBoxedDispatch();
    return AggregateAllBoxed(a, kind);
  }
  kernels::CountKernelDispatch();
  kernels::ReduceStats stats;
  fn(a.payload().data(), a.num_elements(), &stats);
  return FinishStats(stats, kind);
}

Result<std::complex<double>> AggregateAllComplex(const ArrayRef& a,
                                                 AggKind kind) {
  if (KindNeedsOrdering(kind)) {
    return Status::TypeMismatch(
        "min/max/std are not defined for complex arrays");
  }
  std::complex<double> sum = 0;
  const int64_t n = a.num_elements();
  for (int64_t i = 0; i < n; ++i) {
    if ((i & kCancelMask) == 0) {
      SQLARRAY_RETURN_IF_ERROR(gov::CheckThreadCancel());
    }
    SQLARRAY_ASSIGN_OR_RETURN(std::complex<double> v, a.GetComplex(i));
    sum += v;
  }
  switch (kind) {
    case AggKind::kSum:
      return sum;
    case AggKind::kCount:
      return std::complex<double>(static_cast<double>(n), 0);
    case AggKind::kMean:
      if (n == 0) return Status::InvalidArgument("mean of empty array");
      return sum / static_cast<double>(n);
    default:
      return Status::Internal("unreachable aggregate kind");
  }
}

Result<OwnedArray> AggregateAxis(const ArrayRef& a, int64_t axis,
                                 AggKind kind) {
  if (axis < 0 || axis >= a.rank()) {
    return Status::InvalidArgument("axis " + std::to_string(axis) +
                                   " out of range for rank " +
                                   std::to_string(a.rank()));
  }
  const bool cpx = IsComplexDType(a.dtype());
  if (cpx && KindNeedsOrdering(kind)) {
    return Status::TypeMismatch(
        "min/max/std are not defined for complex arrays");
  }

  // Result shape: input dims with `axis` removed (a rank-1 input reduces to
  // a single-element vector).
  Dims out_dims;
  for (int k = 0; k < a.rank(); ++k) {
    if (k != axis) out_dims.push_back(a.dims()[k]);
  }
  if (out_dims.empty()) out_dims.push_back(1);

  DType out_dtype = cpx ? DType::kComplex128 : DType::kFloat64;
  SQLARRAY_ASSIGN_OR_RETURN(OwnedArray out,
                            OwnedArray::Zeros(out_dtype, out_dims));

  const Dims& dims = a.dims();
  const Dims strides = ColumnMajorStrides(dims);
  const int64_t axis_len = dims[axis];
  const int64_t axis_stride = strides[axis];
  const int64_t out_n = out.num_elements();

  // Axis 0 reduces runs that are contiguous in the column-major payload
  // (strides[0] == 1): output cell o covers elements [o*len, (o+1)*len).
  // That is the kernel-friendly case; other axes walk strided.
  if (!cpx && axis == 0) {
    kernels::ReduceKernelFn fn = kernels::LookupReduce(a.dtype());
    if (fn != nullptr) {
      const uint8_t* base = a.payload().data();
      const int esize = a.elem_size();
      for (int64_t o = 0; o < out_n; ++o) {
        SQLARRAY_RETURN_IF_ERROR(gov::CheckThreadCancel());
        kernels::ReduceStats stats;
        fn(base + o * axis_len * esize, axis_len, &stats);
        SQLARRAY_ASSIGN_OR_RETURN(double v, FinishStats(stats, kind));
        SQLARRAY_RETURN_IF_ERROR(out.SetDouble(o, v));
      }
      return out;
    }
  }

  // Enumerate the reduced index space; for each output cell walk the axis.
  Dims cursor(a.rank(), 0);
  for (int64_t o = 0; o < out_n; ++o) {
    SQLARRAY_RETURN_IF_ERROR(gov::CheckThreadCancel());
    int64_t base = 0;
    for (int k = 0; k < a.rank(); ++k) {
      if (k != axis) base += cursor[k] * strides[k];
    }
    if (cpx) {
      std::complex<double> sum = 0;
      for (int64_t j = 0; j < axis_len; ++j) {
        if ((j & kCancelMask) == 0) {
          SQLARRAY_RETURN_IF_ERROR(gov::CheckThreadCancel());
        }
        sum += a.GetComplex(base + j * axis_stride).value();
      }
      std::complex<double> v = sum;
      if (kind == AggKind::kMean && axis_len > 0) {
        v = sum / static_cast<double>(axis_len);
      } else if (kind == AggKind::kCount) {
        v = {static_cast<double>(axis_len), 0};
      }
      SQLARRAY_RETURN_IF_ERROR(out.SetComplex(o, v));
    } else {
      RealAccum acc;
      for (int64_t j = 0; j < axis_len; ++j) {
        if ((j & kCancelMask) == 0) {
          SQLARRAY_RETURN_IF_ERROR(gov::CheckThreadCancel());
        }
        acc.Add(a.GetDouble(base + j * axis_stride).value());
      }
      SQLARRAY_ASSIGN_OR_RETURN(double v, acc.Finish(kind));
      SQLARRAY_RETURN_IF_ERROR(out.SetDouble(o, v));
    }
    // Column-major increment skipping the reduced axis.
    for (int k = 0; k < a.rank(); ++k) {
      if (k == axis) continue;
      if (++cursor[k] < dims[k]) break;
      cursor[k] = 0;
    }
  }
  return out;
}

}  // namespace sqlarray
