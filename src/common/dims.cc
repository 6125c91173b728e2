#include "common/dims.h"

#include <string>

namespace sqlarray {

int64_t ElementCount(std::span<const int64_t> dims) {
  int64_t n = 1;
  for (int64_t d : dims) n *= d;
  return n;
}

Dims ColumnMajorStrides(std::span<const int64_t> dims) {
  Dims strides(dims.size());
  int64_t s = 1;
  for (size_t k = 0; k < dims.size(); ++k) {
    strides[k] = s;
    s *= dims[k];
  }
  return strides;
}

Result<int64_t> LinearIndex(std::span<const int64_t> dims,
                            std::span<const int64_t> index) {
  if (index.size() != dims.size()) {
    return Status::InvalidArgument(
        "index rank " + std::to_string(index.size()) +
        " does not match array rank " + std::to_string(dims.size()));
  }
  int64_t linear = 0;
  int64_t stride = 1;
  for (size_t k = 0; k < dims.size(); ++k) {
    if (index[k] < 0 || index[k] >= dims[k]) {
      return Status::OutOfRange("index " + std::to_string(index[k]) +
                                " out of bounds for dimension " +
                                std::to_string(k) + " of size " +
                                std::to_string(dims[k]));
    }
    linear += index[k] * stride;
    stride *= dims[k];
  }
  return linear;
}

Dims Unlinearize(std::span<const int64_t> dims, int64_t linear) {
  Dims index(dims.size());
  for (size_t k = 0; k < dims.size(); ++k) {
    if (dims[k] == 0) {
      index[k] = 0;
      continue;
    }
    index[k] = linear % dims[k];
    linear /= dims[k];
  }
  return index;
}

Status ValidateDims(std::span<const int64_t> dims) {
  if (dims.empty()) {
    return Status::InvalidArgument("array rank must be at least 1");
  }
  int64_t n = 1;
  for (size_t k = 0; k < dims.size(); ++k) {
    if (dims[k] < 0) {
      return Status::InvalidArgument("dimension " + std::to_string(k) +
                                     " has negative size " +
                                     std::to_string(dims[k]));
    }
    if (__builtin_mul_overflow(n, dims[k], &n)) {
      return Status::InvalidArgument("element count overflows int64");
    }
  }
  return Status::OK();
}

}  // namespace sqlarray
