// Array blob views and owning arrays.
//
// An array travels through the system as a binary blob (header + column-major
// payload). ArrayRef is a cheap non-owning parsed view over such a blob;
// OwnedArray owns the bytes. Both expose typed and generic element access.
#pragma once

#include <algorithm>
#include <complex>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "common/dims.h"
#include "common/status.h"
#include "core/dtype.h"
#include "core/header.h"

namespace sqlarray {

/// Reads one element at byte pointer `p` of type `t`, widened to double.
/// Complex elements are rejected (TypeMismatch).
Result<double> ReadScalarAsDouble(DType t, const uint8_t* p);

/// Reads one element widened to complex<double> (real types get im = 0).
Result<std::complex<double>> ReadScalarAsComplex(DType t, const uint8_t* p);

/// Writes `v` into one element of type `t` at `p`, narrowing as needed.
/// Integer targets round-to-nearest; complex targets get im = 0.
Status WriteScalarFromDouble(DType t, uint8_t* p, double v);

/// Writes a complex value; real targets reject non-zero imaginary parts.
Status WriteScalarFromComplex(DType t, uint8_t* p, std::complex<double> v);

namespace array_internal {

/// Fails unless T is `dtype`'s element type (DATETIME also reads as int64).
template <typename T>
Status CheckElementType(DType dtype) {
  if (DTypeOf<T>() != dtype &&
      !(dtype == DType::kDateTime && DTypeOf<T>() == DType::kInt64)) {
    return Status::TypeMismatch("array holds " +
                                std::string(DTypeName(dtype)) +
                                ", requested a different element type");
  }
  return Status::OK();
}

/// Fails unless `payload` may be viewed as T elements. A max array's
/// payload starts 16 + 4 * rank bytes into its blob, so 8-byte elements of
/// an odd-rank max array are misaligned even in an aligned blob.
template <typename T>
Status CheckAligned(const uint8_t* payload) {
  if (reinterpret_cast<uintptr_t>(payload) % alignof(T) != 0) {
    return Status::InvalidArgument(
        "array payload is not aligned for " + std::to_string(sizeof(T)) +
        "-byte elements; copy them with CopyData/StoreData");
  }
  return Status::OK();
}

}  // namespace array_internal

/// A non-owning, validated view over an array blob.
class ArrayRef {
 public:
  ArrayRef() = default;

  /// Parses and validates the blob. The returned view aliases `blob`, which
  /// must outlive it.
  static Result<ArrayRef> Parse(std::span<const uint8_t> blob);

  const ArrayHeader& header() const { return header_; }
  DType dtype() const { return header_.dtype; }
  StorageClass storage() const { return header_.storage; }
  int rank() const { return header_.rank(); }
  const Dims& dims() const { return header_.dims; }
  int64_t num_elements() const { return header_.num_elements(); }
  int elem_size() const { return DTypeSize(header_.dtype); }

  /// The full blob (header + payload), trimmed to the logical size (fixed
  /// binary columns may pad the stored image).
  std::span<const uint8_t> blob() const { return blob_; }
  /// The element payload only.
  std::span<const uint8_t> payload() const {
    return blob_.subspan(header_.header_size(), header_.data_size());
  }

  /// Typed read-only element span; fails if T does not match the dtype or
  /// the payload is not aligned for T (see CopyData).
  template <typename T>
  Result<std::span<const T>> Data() const {
    SQLARRAY_RETURN_IF_ERROR(array_internal::CheckElementType<T>(dtype()));
    auto pl = payload();
    SQLARRAY_RETURN_IF_ERROR(array_internal::CheckAligned<T>(pl.data()));
    return std::span<const T>(reinterpret_cast<const T*>(pl.data()),
                              static_cast<size_t>(num_elements()));
  }

  /// Copies the elements out; works at any payload alignment. Fails only if
  /// T does not match the dtype.
  template <typename T>
  Result<std::vector<T>> CopyData() const {
    SQLARRAY_RETURN_IF_ERROR(array_internal::CheckElementType<T>(dtype()));
    auto pl = payload();
    std::vector<T> out(static_cast<size_t>(num_elements()));
    if (!pl.empty()) std::memcpy(out.data(), pl.data(), pl.size());
    return out;
  }

  /// Generic element read at a column-major linear offset.
  Result<double> GetDouble(int64_t linear) const;
  Result<std::complex<double>> GetComplex(int64_t linear) const;
  /// Generic element read at a multi-index.
  Result<double> GetDoubleAt(std::span<const int64_t> index) const;
  Result<std::complex<double>> GetComplexAt(std::span<const int64_t> index) const;

 private:
  ArrayHeader header_;
  std::span<const uint8_t> blob_;
};

/// An owning array blob with mutable payload access.
class OwnedArray {
 public:
  OwnedArray() = default;

  /// Creates a zero-filled array. If `storage` is not given, the smallest
  /// class that fits is chosen (short when <= 8000 bytes, rank <= 6).
  static Result<OwnedArray> Zeros(
      DType dtype, Dims dims,
      std::optional<StorageClass> storage = std::nullopt);

  /// Creates an array from typed values (column-major order).
  template <typename T>
  static Result<OwnedArray> FromValues(
      Dims dims, std::span<const T> values,
      std::optional<StorageClass> storage = std::nullopt) {
    if (static_cast<int64_t>(values.size()) != ElementCount(dims)) {
      return Status::InvalidArgument(
          "value count does not match dimension sizes");
    }
    SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a,
                              Zeros(DTypeOf<T>(), std::move(dims), storage));
    SQLARRAY_RETURN_IF_ERROR(a.StoreData<T>(values));
    return a;
  }

  /// Creates a 1-D array from typed values.
  template <typename T>
  static Result<OwnedArray> FromVector(
      std::span<const T> values,
      std::optional<StorageClass> storage = std::nullopt) {
    return FromValues<T>({static_cast<int64_t>(values.size())}, values,
                         storage);
  }

  /// Adopts an existing serialized blob (validating it).
  static Result<OwnedArray> FromBlob(std::vector<uint8_t> blob);

  /// Parses a view and copies it into an owned blob.
  static Result<OwnedArray> CopyOf(const ArrayRef& ref);

  const ArrayHeader& header() const { return header_; }
  DType dtype() const { return header_.dtype; }
  StorageClass storage() const { return header_.storage; }
  int rank() const { return header_.rank(); }
  const Dims& dims() const { return header_.dims; }
  int64_t num_elements() const { return header_.num_elements(); }

  /// Read-only view over this array.
  ArrayRef ref() const;
  std::span<const uint8_t> blob() const { return blob_; }
  /// Releases the underlying blob bytes.
  std::vector<uint8_t> TakeBlob() && { return std::move(blob_); }

  std::span<uint8_t> mutable_payload() {
    return std::span<uint8_t>(blob_.data() + header_.header_size(),
                              static_cast<size_t>(header_.data_size()));
  }

  /// Typed mutable element span; fails on dtype mismatch or when the
  /// payload is not aligned for T (see StoreData).
  template <typename T>
  Result<std::span<T>> MutableData() {
    SQLARRAY_RETURN_IF_ERROR(array_internal::CheckElementType<T>(dtype()));
    auto pl = mutable_payload();
    SQLARRAY_RETURN_IF_ERROR(array_internal::CheckAligned<T>(pl.data()));
    return std::span<T>(reinterpret_cast<T*>(pl.data()),
                        static_cast<size_t>(num_elements()));
  }

  /// Copies `values` (column-major, one per element) into the payload;
  /// works at any payload alignment.
  template <typename T>
  Status StoreData(std::span<const T> values) {
    SQLARRAY_RETURN_IF_ERROR(array_internal::CheckElementType<T>(dtype()));
    if (static_cast<int64_t>(values.size()) != num_elements()) {
      return Status::InvalidArgument(
          "value count does not match the array's element count");
    }
    auto pl = mutable_payload();
    if (!pl.empty()) std::memcpy(pl.data(), values.data(), pl.size());
    return Status::OK();
  }

  /// Generic element write at a column-major linear offset.
  Status SetDouble(int64_t linear, double v);
  Status SetComplex(int64_t linear, std::complex<double> v);
  Status SetDoubleAt(std::span<const int64_t> index, double v);

 private:
  OwnedArray(ArrayHeader header, std::vector<uint8_t> blob)
      : header_(std::move(header)), blob_(std::move(blob)) {}

  ArrayHeader header_;
  std::vector<uint8_t> blob_;
};

}  // namespace sqlarray
