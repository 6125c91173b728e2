#include "core/array.h"

#include <cmath>
#include <limits>
#include <string>

#include "common/bytes.h"
#include "gov/gov.h"

namespace sqlarray {

Result<double> ReadScalarAsDouble(DType t, const uint8_t* p) {
  switch (t) {
    case DType::kInt8:
      return static_cast<double>(DecodeLE<int8_t>(p));
    case DType::kInt16:
      return static_cast<double>(DecodeLE<int16_t>(p));
    case DType::kInt32:
      return static_cast<double>(DecodeLE<int32_t>(p));
    case DType::kInt64:
    case DType::kDateTime:
      return static_cast<double>(DecodeLE<int64_t>(p));
    case DType::kFloat32:
      return static_cast<double>(DecodeLE<float>(p));
    case DType::kFloat64:
      return DecodeLE<double>(p);
    case DType::kComplex64:
    case DType::kComplex128:
      return Status::TypeMismatch(
          "complex element cannot be read as a real scalar");
  }
  return Status::Internal("unreachable dtype");
}

Result<std::complex<double>> ReadScalarAsComplex(DType t, const uint8_t* p) {
  switch (t) {
    case DType::kComplex64:
      return std::complex<double>(DecodeLE<float>(p), DecodeLE<float>(p + 4));
    case DType::kComplex128:
      return std::complex<double>(DecodeLE<double>(p),
                                  DecodeLE<double>(p + 8));
    default: {
      SQLARRAY_ASSIGN_OR_RETURN(double re, ReadScalarAsDouble(t, p));
      return std::complex<double>(re, 0.0);
    }
  }
}

namespace {

template <typename I>
Status WriteRoundedInt(uint8_t* p, double v) {
  double r = std::nearbyint(v);
  // Half-open range check with exact bounds: +-2^(bits-1) are both exactly
  // representable as doubles, whereas (double)max() rounds UP to 2^63 for
  // int64 and would admit the out-of-range value 2^63 (UB on the cast).
  const int bits = 8 * static_cast<int>(sizeof(I));
  const double lo = -std::ldexp(1.0, bits - 1);
  const double hi = std::ldexp(1.0, bits - 1);
  if (!(r >= lo && r < hi)) {  // negated form also rejects NaN
    return Status::OutOfRange("value " + std::to_string(v) +
                              " does not fit the integer element type");
  }
  EncodeLE<I>(p, static_cast<I>(r));
  return Status::OK();
}

}  // namespace

Status WriteScalarFromDouble(DType t, uint8_t* p, double v) {
  switch (t) {
    case DType::kInt8:
      return WriteRoundedInt<int8_t>(p, v);
    case DType::kInt16:
      return WriteRoundedInt<int16_t>(p, v);
    case DType::kInt32:
      return WriteRoundedInt<int32_t>(p, v);
    case DType::kInt64:
    case DType::kDateTime:
      return WriteRoundedInt<int64_t>(p, v);
    case DType::kFloat32:
      EncodeLE<float>(p, static_cast<float>(v));
      return Status::OK();
    case DType::kFloat64:
      EncodeLE<double>(p, v);
      return Status::OK();
    case DType::kComplex64:
      EncodeLE<float>(p, static_cast<float>(v));
      EncodeLE<float>(p + 4, 0.0f);
      return Status::OK();
    case DType::kComplex128:
      EncodeLE<double>(p, v);
      EncodeLE<double>(p + 8, 0.0);
      return Status::OK();
  }
  return Status::Internal("unreachable dtype");
}

Status WriteScalarFromComplex(DType t, uint8_t* p, std::complex<double> v) {
  switch (t) {
    case DType::kComplex64:
      EncodeLE<float>(p, static_cast<float>(v.real()));
      EncodeLE<float>(p + 4, static_cast<float>(v.imag()));
      return Status::OK();
    case DType::kComplex128:
      EncodeLE<double>(p, v.real());
      EncodeLE<double>(p + 8, v.imag());
      return Status::OK();
    default:
      if (v.imag() != 0.0) {
        return Status::TypeMismatch(
            "cannot store a complex value with non-zero imaginary part in a "
            "real element type");
      }
      return WriteScalarFromDouble(t, p, v.real());
  }
}

Result<ArrayRef> ArrayRef::Parse(std::span<const uint8_t> blob) {
  SQLARRAY_ASSIGN_OR_RETURN(ArrayHeader h, DecodeHeader(blob));
  if (blob.size() < static_cast<size_t>(h.blob_size())) {
    return Status::Corruption("array blob shorter than header promises");
  }
  ArrayRef ref;
  ref.header_ = std::move(h);
  ref.blob_ = blob.first(static_cast<size_t>(ref.header_.blob_size()));
  return ref;
}

Result<double> ArrayRef::GetDouble(int64_t linear) const {
  if (linear < 0 || linear >= num_elements()) {
    return Status::OutOfRange("element offset " + std::to_string(linear) +
                              " out of range");
  }
  return ReadScalarAsDouble(dtype(),
                            payload().data() + linear * elem_size());
}

Result<std::complex<double>> ArrayRef::GetComplex(int64_t linear) const {
  if (linear < 0 || linear >= num_elements()) {
    return Status::OutOfRange("element offset " + std::to_string(linear) +
                              " out of range");
  }
  return ReadScalarAsComplex(dtype(),
                             payload().data() + linear * elem_size());
}

Result<double> ArrayRef::GetDoubleAt(std::span<const int64_t> index) const {
  SQLARRAY_ASSIGN_OR_RETURN(int64_t linear, LinearIndex(dims(), index));
  return GetDouble(linear);
}

Result<std::complex<double>> ArrayRef::GetComplexAt(
    std::span<const int64_t> index) const {
  SQLARRAY_ASSIGN_OR_RETURN(int64_t linear, LinearIndex(dims(), index));
  return GetComplex(linear);
}

Result<OwnedArray> OwnedArray::Zeros(DType dtype, Dims dims,
                                     std::optional<StorageClass> storage) {
  StorageClass sc =
      storage.value_or(ChooseStorageClass(dtype, dims));
  // Validate before sizing: blob_size() of an unrepresentable shape
  // overflows.
  SQLARRAY_RETURN_IF_ERROR(ValidateHeader(dtype, dims, sc));
  ArrayHeader h{dtype, sc, std::move(dims)};
  // A shape sized by a call's arguments must fit the statement's budget.
  SQLARRAY_RETURN_IF_ERROR(gov::CheckThreadAllocation(h.blob_size()));
  std::vector<uint8_t> blob;
  blob.reserve(static_cast<size_t>(h.blob_size()));
  SQLARRAY_RETURN_IF_ERROR(AppendHeader(h, &blob));
  blob.resize(static_cast<size_t>(h.blob_size()), 0);
  return OwnedArray(std::move(h), std::move(blob));
}

Result<OwnedArray> OwnedArray::FromBlob(std::vector<uint8_t> blob) {
  SQLARRAY_ASSIGN_OR_RETURN(ArrayHeader h, DecodeHeader(blob));
  if (blob.size() < static_cast<size_t>(h.blob_size())) {
    return Status::Corruption("array blob shorter than header promises");
  }
  blob.resize(static_cast<size_t>(h.blob_size()));
  return OwnedArray(std::move(h), std::move(blob));
}

Result<OwnedArray> OwnedArray::CopyOf(const ArrayRef& ref) {
  std::vector<uint8_t> blob(ref.blob().begin(), ref.blob().end());
  return OwnedArray(ref.header(), std::move(blob));
}

ArrayRef OwnedArray::ref() const {
  // The blob was validated at construction; re-parsing cannot fail.
  auto r = ArrayRef::Parse(blob_);
  return r.value();
}

Status OwnedArray::SetDouble(int64_t linear, double v) {
  if (linear < 0 || linear >= num_elements()) {
    return Status::OutOfRange("element offset " + std::to_string(linear) +
                              " out of range");
  }
  return WriteScalarFromDouble(
      dtype(), mutable_payload().data() + linear * DTypeSize(dtype()), v);
}

Status OwnedArray::SetComplex(int64_t linear, std::complex<double> v) {
  if (linear < 0 || linear >= num_elements()) {
    return Status::OutOfRange("element offset " + std::to_string(linear) +
                              " out of range");
  }
  return WriteScalarFromComplex(
      dtype(), mutable_payload().data() + linear * DTypeSize(dtype()), v);
}

Status OwnedArray::SetDoubleAt(std::span<const int64_t> index, double v) {
  SQLARRAY_ASSIGN_OR_RETURN(int64_t linear, LinearIndex(dims(), index));
  return SetDouble(linear, v);
}

}  // namespace sqlarray
