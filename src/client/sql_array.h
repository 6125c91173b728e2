// Client-side array bridging (the Sec. 5.2 .NET interface, in C++).
//
// "On the client-side arrays are visible as binary buffers or streams
// (containing the header) which have to be converted to .NET arrays first."
// SqlArray<T> is the equivalent of the paper's SqlFloatArray family: a typed
// client value that parses server blobs and serializes back to them:
//
//   auto arr = client::SqlArray<double>::FromSqlBuffer(bytes_from_reader);
//   std::vector<double>& v = arr->values();
//   ...
//   std::vector<uint8_t> buffer = arr->ToSqlBuffer();
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/dims.h"
#include "common/status.h"
#include "core/array.h"

namespace sqlarray::client {

/// A typed, client-resident array: shape + values, convertible to and from
/// the server's blob format.
template <typename T>
class SqlArray {
 public:
  /// Parses a server blob (as read from a binary column). The blob's
  /// element type must match T exactly — the client API is strongly typed,
  /// like the paper's per-type SqlXxxArray classes.
  static Result<SqlArray> FromSqlBuffer(std::span<const uint8_t> buffer) {
    SQLARRAY_ASSIGN_OR_RETURN(ArrayRef ref, ArrayRef::Parse(buffer));
    // A copy, not a span: the buffer's alignment is unknown, and a max
    // array's payload starts 16 + 4 * rank bytes in.
    SQLARRAY_ASSIGN_OR_RETURN(std::vector<T> data,
                              ref.template CopyData<T>());
    return SqlArray(ref.dims(), std::move(data));
  }

  /// Wraps a 1-D value list (the paper's `new SqlFloatArray(v)`).
  static SqlArray FromVector(std::vector<T> values) {
    Dims dims{static_cast<int64_t>(values.size())};
    return SqlArray(std::move(dims), std::move(values));
  }

  /// Wraps an N-D value buffer in column-major order.
  static Result<SqlArray> FromValues(Dims dims, std::vector<T> values) {
    SQLARRAY_RETURN_IF_ERROR(ValidateDims(dims));
    if (ElementCount(dims) != static_cast<int64_t>(values.size())) {
      return Status::InvalidArgument(
          "value count does not match the dimension sizes");
    }
    return SqlArray(std::move(dims), std::move(values));
  }

  /// Serializes to the server blob format (`ToSqlBuffer()` in the paper).
  /// The storage class defaults to the smallest that fits.
  Result<std::vector<uint8_t>> ToSqlBuffer(
      std::optional<StorageClass> storage = std::nullopt) const {
    SQLARRAY_ASSIGN_OR_RETURN(
        OwnedArray arr,
        OwnedArray::FromValues<T>(dims_, values_, storage));
    return std::move(arr).TakeBlob();
  }

  const Dims& dims() const { return dims_; }
  int rank() const { return static_cast<int>(dims_.size()); }
  std::vector<T>& values() { return values_; }
  const std::vector<T>& values() const { return values_; }
  int64_t size() const { return static_cast<int64_t>(values_.size()); }

  /// Column-major element access.
  Result<T> At(std::span<const int64_t> index) const {
    SQLARRAY_ASSIGN_OR_RETURN(int64_t linear, LinearIndex(dims_, index));
    return values_[linear];
  }
  Status Set(std::span<const int64_t> index, T value) {
    SQLARRAY_ASSIGN_OR_RETURN(int64_t linear, LinearIndex(dims_, index));
    values_[linear] = value;
    return Status::OK();
  }

 private:
  SqlArray(Dims dims, std::vector<T> values)
      : dims_(std::move(dims)), values_(std::move(values)) {}

  Dims dims_;
  std::vector<T> values_;
};

/// Convenience aliases matching the paper's class names.
using SqlFloatArray = SqlArray<double>;
using SqlRealArray = SqlArray<float>;
using SqlIntArray = SqlArray<int32_t>;
using SqlBigIntArray = SqlArray<int64_t>;

/// Reader-style helper (the paper's `dr.SqlFloatArray(dr.GetSqlBinary(1))`):
/// pulls a typed vector straight out of a blob, converting the element type
/// if needed.
Result<std::vector<double>> ReadDoubleVector(std::span<const uint8_t> buffer);

}  // namespace sqlarray::client
