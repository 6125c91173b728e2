#include "core/ops.h"

#include <cstring>

#include "common/wrap_int.h"

namespace sqlarray {

namespace {

/// Validates a subarray request against the source shape.
Status ValidateSubarray(std::span<const int64_t> dims,
                        std::span<const int64_t> offset,
                        std::span<const int64_t> sizes) {
  if (offset.size() != dims.size() || sizes.size() != dims.size()) {
    return Status::InvalidArgument(
        "subarray offset/size rank must match the array rank");
  }
  for (size_t k = 0; k < dims.size(); ++k) {
    if (offset[k] < 0 || sizes[k] < 1 || sizes[k] > dims[k] - offset[k]) {
      return Status::OutOfRange(
          "subarray range [" + std::to_string(offset[k]) + ", " +
          std::to_string(WrapAdd(offset[k], sizes[k])) +
          ") out of bounds for dimension " + std::to_string(k) + " of size " +
          std::to_string(dims[k]));
    }
  }
  return Status::OK();
}

/// Drops length-1 dimensions, keeping at least one dimension.
Dims CollapseDims(std::span<const int64_t> sizes) {
  Dims out;
  for (int64_t s : sizes) {
    if (s != 1) out.push_back(s);
  }
  if (out.empty()) out.push_back(1);
  return out;
}

}  // namespace

Result<OwnedArray> Subarray(const ArrayRef& a, std::span<const int64_t> offset,
                            std::span<const int64_t> sizes, bool collapse) {
  SQLARRAY_RETURN_IF_ERROR(ValidateSubarray(a.dims(), offset, sizes));

  Dims out_dims = collapse ? CollapseDims(sizes)
                           : Dims(sizes.begin(), sizes.end());
  SQLARRAY_ASSIGN_OR_RETURN(OwnedArray out,
                            OwnedArray::Zeros(a.dtype(), out_dims));

  const int esize = a.elem_size();
  const auto src = a.payload();
  auto dst = out.mutable_payload();
  const Dims strides = ColumnMajorStrides(a.dims());
  const int rank = a.rank();

  // Copy runs of sizes[0] consecutive elements; iterate the outer index
  // space in column-major order so the destination is written sequentially.
  const int64_t run_bytes = sizes[0] * esize;
  int64_t outer = 1;
  for (int k = 1; k < rank; ++k) outer *= sizes[k];

  Dims cursor(rank, 0);  // index within the subarray, dims 1..rank-1 used
  uint8_t* d = dst.data();
  for (int64_t block = 0; block < outer; ++block) {
    int64_t src_linear = offset[0];
    for (int k = 1; k < rank; ++k) {
      src_linear += (offset[k] + cursor[k]) * strides[k];
    }
    std::memcpy(d, src.data() + src_linear * esize,
                static_cast<size_t>(run_bytes));
    d += run_bytes;
    // Column-major increment of the outer cursor.
    for (int k = 1; k < rank; ++k) {
      if (++cursor[k] < sizes[k]) break;
      cursor[k] = 0;
    }
  }
  return out;
}

Result<OwnedArray> Reshape(const ArrayRef& a, Dims new_dims) {
  SQLARRAY_RETURN_IF_ERROR(ValidateDims(new_dims));
  if (ElementCount(new_dims) != a.num_elements()) {
    return Status::InvalidArgument(
        "reshape must keep the element count fixed: have " +
        std::to_string(a.num_elements()) + ", requested " +
        std::to_string(ElementCount(new_dims)));
  }
  SQLARRAY_ASSIGN_OR_RETURN(OwnedArray out,
                            OwnedArray::Zeros(a.dtype(), std::move(new_dims)));
  auto src = a.payload();
  auto dst = out.mutable_payload();
  std::memcpy(dst.data(), src.data(), src.size());
  return out;
}

}  // namespace sqlarray
