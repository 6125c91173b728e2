#include "core/ops.h"

#include <algorithm>
#include <cstring>

namespace sqlarray {

Result<double> Item(const ArrayRef& a, std::span<const int64_t> index) {
  return a.GetDoubleAt(index);
}

Result<double> ShortItemReader::ReadMiss(std::span<const uint8_t> blob,
                                         std::span<const int64_t> index) {
  if (!SameHeader(blob)) SQLARRAY_RETURN_IF_ERROR(CheckHeader(blob));
  if (!SameIndex(index)) SQLARRAY_RETURN_IF_ERROR(Locate(index));
  return Load(blob);
}

Status ShortItemReader::CheckHeader(std::span<const uint8_t> blob) {
  if (blob.size() < 2 || blob[1] != 0) {
    // Not short: DecodeHeader's own error, or the class mismatch of a
    // well-formed max array.
    SQLARRAY_ASSIGN_OR_RETURN(ArrayHeader h, DecodeHeader(blob));
    SQLARRAY_RETURN_IF_ERROR(CheckSchemaMatch(h, dtype_, StorageClass::kShort));
    return Status::Internal("short array decoded as max");
  }
  ShortHeader h;
  SQLARRAY_RETURN_IF_ERROR(DecodeShortHeader(blob, &h));
  SQLARRAY_RETURN_IF_ERROR(CheckSchemaMatch(h.dtype, StorageClass::kShort,
                                            dtype_, StorageClass::kShort));
  if (blob.size() < static_cast<size_t>(h.blob_size())) {
    return Status::Corruption("array blob shorter than header promises");
  }
  std::memcpy(header_, blob.data(), sizeof(header_));
  size_ = blob.size();
  shape_ = h;
  located_ = false;
  return Status::OK();
}

Status ShortItemReader::Locate(std::span<const int64_t> index) {
  SQLARRAY_ASSIGN_OR_RETURN(int64_t linear, LinearIndex(shape_.shape(), index));
  std::copy(index.begin(), index.end(), index_);
  offset_ = kShortHeaderSize + linear * DTypeSize(dtype_);
  located_ = true;
  return Status::OK();
}

Result<std::complex<double>> ItemComplex(const ArrayRef& a,
                                         std::span<const int64_t> index) {
  return a.GetComplexAt(index);
}

Result<OwnedArray> UpdateItem(const ArrayRef& a,
                              std::span<const int64_t> index, double v) {
  SQLARRAY_ASSIGN_OR_RETURN(OwnedArray out, OwnedArray::CopyOf(a));
  SQLARRAY_RETURN_IF_ERROR(out.SetDoubleAt(index, v));
  return out;
}

Result<OwnedArray> UpdateItemComplex(const ArrayRef& a,
                                     std::span<const int64_t> index,
                                     std::complex<double> v) {
  SQLARRAY_ASSIGN_OR_RETURN(OwnedArray out, OwnedArray::CopyOf(a));
  SQLARRAY_ASSIGN_OR_RETURN(int64_t linear, LinearIndex(out.dims(), index));
  SQLARRAY_RETURN_IF_ERROR(out.SetComplex(linear, v));
  return out;
}

}  // namespace sqlarray
