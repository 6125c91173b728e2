// Axis permutation and concatenation.
#include <cstring>
#include <numeric>

#include "core/ops.h"

namespace sqlarray {

Result<OwnedArray> PermuteAxes(const ArrayRef& a,
                               std::span<const int64_t> perm) {
  const int rank = a.rank();
  if (static_cast<int>(perm.size()) != rank) {
    return Status::InvalidArgument("permutation length must equal the rank");
  }
  std::vector<bool> seen(rank, false);
  for (int64_t p : perm) {
    if (p < 0 || p >= rank || seen[p]) {
      return Status::InvalidArgument(
          "axis permutation must mention each axis exactly once");
    }
    seen[p] = true;
  }

  Dims out_dims(rank);
  for (int k = 0; k < rank; ++k) out_dims[k] = a.dims()[perm[k]];
  SQLARRAY_ASSIGN_OR_RETURN(OwnedArray out,
                            OwnedArray::Zeros(a.dtype(), out_dims));

  const Dims src_strides = ColumnMajorStrides(a.dims());
  const int esize = a.elem_size();
  const auto src = a.payload();
  auto dst = out.mutable_payload();

  // Walk the OUTPUT in column-major order; compute the source offset from
  // the permuted index. The output writes sequentially, the source gathers.
  Dims cursor(rank, 0);
  const int64_t n = out.num_elements();
  for (int64_t o = 0; o < n; ++o) {
    int64_t src_linear = 0;
    for (int k = 0; k < rank; ++k) {
      src_linear += cursor[k] * src_strides[perm[k]];
    }
    std::memcpy(dst.data() + o * esize, src.data() + src_linear * esize,
                static_cast<size_t>(esize));
    for (int k = 0; k < rank; ++k) {
      if (++cursor[k] < out_dims[k]) break;
      cursor[k] = 0;
    }
  }
  return out;
}

Result<OwnedArray> Transpose(const ArrayRef& a) {
  Dims perm(a.rank());
  std::iota(perm.begin(), perm.end(), 0);
  std::reverse(perm.begin(), perm.end());
  return PermuteAxes(a, perm);
}

Result<OwnedArray> ConcatAxis(const ArrayRef& a, const ArrayRef& b,
                              int64_t axis) {
  if (a.rank() != b.rank()) {
    return Status::InvalidArgument(
        "concatenation requires arrays of equal rank");
  }
  const int rank = a.rank();
  if (axis < 0 || axis >= rank) {
    return Status::InvalidArgument("concatenation axis out of range");
  }
  for (int k = 0; k < rank; ++k) {
    if (k != axis && a.dims()[k] != b.dims()[k]) {
      return Status::InvalidArgument(
          "non-concatenated dimensions must match");
    }
  }

  DType out_dtype = PromoteDType(a.dtype(), b.dtype());
  Dims out_dims = a.dims();
  out_dims[axis] += b.dims()[axis];
  SQLARRAY_ASSIGN_OR_RETURN(OwnedArray out,
                            OwnedArray::Zeros(out_dtype, out_dims));

  // Generic element-wise copy through the promoted type: simple and correct
  // for every dtype pairing (the hot paths copy same-dtype payloads, which
  // the promotion makes a widening no-op).
  const int64_t n = out.num_elements();
  for (int64_t o = 0; o < n; ++o) {
    Dims idx = Unlinearize(out_dims, o);
    const ArrayRef* src = &a;
    if (idx[axis] >= a.dims()[axis]) {
      idx[axis] -= a.dims()[axis];
      src = &b;
    }
    if (IsComplexDType(out_dtype)) {
      SQLARRAY_ASSIGN_OR_RETURN(std::complex<double> v,
                                src->GetComplexAt(idx));
      SQLARRAY_RETURN_IF_ERROR(out.SetComplex(o, v));
    } else {
      SQLARRAY_ASSIGN_OR_RETURN(double v, src->GetDoubleAt(idx));
      SQLARRAY_RETURN_IF_ERROR(out.SetDouble(o, v));
    }
  }
  return out;
}

}  // namespace sqlarray
