#include "core/header.h"

#include <limits>
#include <string>

#include "common/bytes.h"

namespace sqlarray {

namespace {

/// Guards dims decoded from untrusted bytes: ValidateDims rejects negative
/// sizes and element-count overflow, and the payload size must also fit
/// int64 together with the header. Every failure is kCorruption — the bytes
/// claim a shape no writer can produce.
Status ValidateDecodedShape(DType dtype, std::span<const int64_t> dims,
                            int64_t header_size) {
  Status dims_ok = ValidateDims(dims);
  if (!dims_ok.ok()) {
    return Status::Corruption("array header has invalid dimensions: " +
                              dims_ok.message());
  }
  int64_t payload = 0;
  if (__builtin_mul_overflow(ElementCount(dims), int64_t{DTypeSize(dtype)},
                             &payload) ||
      payload > std::numeric_limits<int64_t>::max() - header_size) {
    return Status::Corruption("array payload size overflows int64");
  }
  return Status::OK();
}

/// When the payload is present, makes sure it is not truncated. (Longer is
/// allowed: fixed-width binary columns pad short-array blobs.)
Status CheckPayloadLength(size_t have, int64_t header_size,
                          int64_t blob_size) {
  if (have > static_cast<size_t>(header_size) &&
      have < static_cast<size_t>(blob_size)) {
    return Status::Corruption("array blob payload truncated: have " +
                              std::to_string(have) + " bytes, need " +
                              std::to_string(blob_size));
  }
  return Status::OK();
}

/// The checks every header opens with: length, magic, flags and dtype.
Result<DType> DecodePreamble(std::span<const uint8_t> blob) {
  if (blob.size() < 4) {
    return Status::Corruption("array blob shorter than minimal header");
  }
  if (blob[0] != kArrayMagic) {
    return Status::Corruption("array blob has bad magic byte " +
                              std::to_string(blob[0]));
  }
  if (blob[1] > 1) {
    return Status::Corruption("array blob has unknown flags " +
                              std::to_string(blob[1]));
  }
  return DTypeFromByte(blob[2]);
}

}  // namespace

Status ValidateHeader(DType dtype, std::span<const int64_t> dims,
                      StorageClass storage) {
  SQLARRAY_RETURN_IF_ERROR(ValidateDims(dims));
  if (storage == StorageClass::kShort) {
    if (dims.size() > kMaxShortRank) {
      return Status::InvalidArgument(
          "short arrays support at most 6 dimensions, got " +
          std::to_string(dims.size()));
    }
    for (int64_t d : dims) {
      if (d > kMaxShortDimSize) {
        return Status::InvalidArgument(
            "short array dimension size " + std::to_string(d) +
            " exceeds int16 limit");
      }
    }
    int64_t blob =
        kShortHeaderSize + ElementCount(dims) * DTypeSize(dtype);
    if (blob > kMaxShortBlobBytes) {
      return Status::InvalidArgument(
          "short array blob of " + std::to_string(blob) +
          " bytes exceeds the VARBINARY(8000) on-page limit");
    }
  } else {
    for (int64_t d : dims) {
      if (d > kMaxMaxDimSize) {
        return Status::InvalidArgument(
            "max array dimension size " + std::to_string(d) +
            " exceeds int32 limit");
      }
    }
    // ValidateDims bounds the element count; the byte size must fit too.
    const int64_t header =
        kMaxHeaderPrefixSize + 4 * static_cast<int64_t>(dims.size());
    const int64_t limit =
        (std::numeric_limits<int64_t>::max() - header) / DTypeSize(dtype);
    if (ElementCount(dims) > limit) {
      return Status::InvalidArgument("array payload size overflows int64");
    }
  }
  return Status::OK();
}

StorageClass ChooseStorageClass(DType dtype, std::span<const int64_t> dims) {
  if (ValidateHeader(dtype, dims, StorageClass::kShort).ok()) {
    return StorageClass::kShort;
  }
  return StorageClass::kMax;
}

Status AppendHeader(const ArrayHeader& header, std::vector<uint8_t>* out) {
  SQLARRAY_RETURN_IF_ERROR(
      ValidateHeader(header.dtype, header.dims, header.storage));
  if (header.storage == StorageClass::kShort) {
    size_t base = out->size();
    out->resize(base + kShortHeaderSize, 0);
    uint8_t* p = out->data() + base;
    p[0] = kArrayMagic;
    p[1] = 0;  // flags: short
    p[2] = static_cast<uint8_t>(header.dtype);
    p[3] = static_cast<uint8_t>(header.rank());
    EncodeLE<uint32_t>(p + 4, static_cast<uint32_t>(header.num_elements()));
    for (int k = 0; k < header.rank(); ++k) {
      EncodeLE<int16_t>(p + 8 + 2 * k, static_cast<int16_t>(header.dims[k]));
    }
    // bytes 20..23 reserved (already zero)
  } else {
    size_t base = out->size();
    out->resize(base + kMaxHeaderPrefixSize + 4 * header.dims.size(), 0);
    uint8_t* p = out->data() + base;
    p[0] = kArrayMagic;
    p[1] = 1;  // flags: max
    p[2] = static_cast<uint8_t>(header.dtype);
    p[3] = 0;
    EncodeLE<uint32_t>(p + 4, static_cast<uint32_t>(header.rank()));
    EncodeLE<int64_t>(p + 8, header.num_elements());
    for (int k = 0; k < header.rank(); ++k) {
      EncodeLE<int32_t>(p + kMaxHeaderPrefixSize + 4 * k,
                        static_cast<int32_t>(header.dims[k]));
    }
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> EncodeHeader(const ArrayHeader& header) {
  std::vector<uint8_t> out;
  SQLARRAY_RETURN_IF_ERROR(AppendHeader(header, &out));
  return out;
}

Status DecodeShortHeader(std::span<const uint8_t> blob, ShortHeader* out) {
  SQLARRAY_ASSIGN_OR_RETURN(DType dtype, DecodePreamble(blob));
  if (blob[1] != 0) {
    return Status::InvalidArgument("array blob is not of the short class");
  }
  ShortHeader& h = *out;
  h.dtype = dtype;
  if (blob.size() < kShortHeaderSize) {
    return Status::Corruption("short array blob truncated in header");
  }
  const int rank = blob[3];
  if (rank < 1 || rank > kMaxShortRank) {
    return Status::Corruption("short array has invalid rank " +
                              std::to_string(rank));
  }
  const uint32_t count = DecodeLE<uint32_t>(blob.data() + 4);
  h.rank = rank;
  for (int k = 0; k < rank; ++k) {
    const int16_t d = DecodeLE<int16_t>(blob.data() + 8 + 2 * k);
    if (d < 0) {
      return Status::Corruption("short array has negative dimension size");
    }
    h.dims[k] = d;
  }
  SQLARRAY_RETURN_IF_ERROR(
      ValidateDecodedShape(dtype, h.shape(), kShortHeaderSize));
  h.num_elements = ElementCount(h.shape());
  if (h.num_elements != static_cast<int64_t>(count)) {
    return Status::Corruption(
        "short array element count does not match dimension sizes");
  }
  return CheckPayloadLength(blob.size(), kShortHeaderSize, h.blob_size());
}

Result<ArrayHeader> DecodeHeader(std::span<const uint8_t> blob) {
  SQLARRAY_ASSIGN_OR_RETURN(DType dtype, DecodePreamble(blob));
  ArrayHeader h;
  h.dtype = dtype;
  if (blob[1] == 0) {
    ShortHeader s;
    SQLARRAY_RETURN_IF_ERROR(DecodeShortHeader(blob, &s));
    h.storage = StorageClass::kShort;
    h.dims.assign(s.dims, s.dims + s.rank);
    return h;
  }
  h.storage = StorageClass::kMax;
  if (blob.size() < kMaxHeaderPrefixSize) {
    return Status::Corruption("max array blob truncated in header prefix");
  }
  uint32_t rank = DecodeLE<uint32_t>(blob.data() + 4);
  if (rank < 1 || rank > (1u << 20)) {
    return Status::Corruption("max array has implausible rank " +
                              std::to_string(rank));
  }
  int64_t count = DecodeLE<int64_t>(blob.data() + 8);
  if (blob.size() < static_cast<size_t>(kMaxHeaderPrefixSize) + 4 * rank) {
    return Status::Corruption("max array blob truncated in dim sizes");
  }
  h.dims.resize(rank);
  for (uint32_t k = 0; k < rank; ++k) {
    int32_t d = DecodeLE<int32_t>(blob.data() + kMaxHeaderPrefixSize + 4 * k);
    if (d < 0) {
      return Status::Corruption("max array has negative dimension size");
    }
    h.dims[k] = d;
  }
  SQLARRAY_RETURN_IF_ERROR(
      ValidateDecodedShape(h.dtype, h.dims, h.header_size()));
  if (count < 0 || h.num_elements() != count) {
    return Status::Corruption(
        "max array element count does not match dimension sizes");
  }
  SQLARRAY_RETURN_IF_ERROR(
      CheckPayloadLength(blob.size(), h.header_size(), h.blob_size()));
  return h;
}

Status CheckSchemaMatch(DType have, StorageClass have_class, DType want,
                        StorageClass want_class) {
  if (have != want) {
    return Status::TypeMismatch(
        "array of type " + std::string(DTypeName(have)) + " passed to a " +
        std::string(DTypeName(want)) + " schema function");
  }
  if (have_class != want_class) {
    return Status::TypeMismatch(
        "array storage class does not match the schema (short vs max)");
  }
  return Status::OK();
}

Result<int64_t> PeekHeaderSize(std::span<const uint8_t> prefix) {
  if (prefix.size() < 8) {
    return Status::InvalidArgument("need at least 8 bytes to peek a header");
  }
  if (prefix[0] != kArrayMagic) {
    return Status::Corruption("array blob has bad magic byte");
  }
  if (prefix[1] > 1) {
    return Status::Corruption("array blob has unknown flags " +
                              std::to_string(prefix[1]));
  }
  if (prefix[1] == 0) return static_cast<int64_t>(kShortHeaderSize);
  uint32_t rank = DecodeLE<uint32_t>(prefix.data() + 4);
  if (rank < 1 || rank > (1u << 20)) {
    return Status::Corruption("max array has implausible rank " +
                              std::to_string(rank));
  }
  return static_cast<int64_t>(kMaxHeaderPrefixSize) + 4 * rank;
}

}  // namespace sqlarray
