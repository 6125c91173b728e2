// Serialized array blob header (Sec. 3.5 of the paper).
//
// An array is a binary blob: a small header followed by the elements stored
// consecutively in column-major order. Two storage classes exist:
//
//   SHORT (on-page) arrays — fixed 24-byte header, at most 6 dimensions with
//   int16 sizes, whole blob must fit a VARBINARY(8000) column so it stays on
//   the 8 kB data page.
//
//   MAX (out-of-page) arrays — variable-size header, any rank, int32 sizes,
//   blob stored out-of-page as a B-tree and accessed through a stream that
//   supports partial reads.
//
// Short header layout (24 bytes, little-endian):
//   [0]      magic (0xA7)
//   [1]      flags (bit0 = 1 for max class; 0 here)
//   [2]      dtype byte
//   [3]      rank (1..6)
//   [4..7]   uint32 total element count
//   [8..19]  int16 dim sizes, 6 slots, unused slots zero
//   [20..23] reserved, zero
//
// Max header layout (16 + 4*rank bytes, little-endian):
//   [0]      magic (0xA7)
//   [1]      flags (bit0 = 1)
//   [2]      dtype byte
//   [3]      reserved, zero
//   [4..7]   uint32 rank (>= 1)
//   [8..15]  int64 total element count
//   [16..)   int32 dim sizes, rank entries
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/dims.h"
#include "common/status.h"
#include "core/dtype.h"

namespace sqlarray {

/// Storage class of an array blob (Sec. 3.3).
enum class StorageClass : uint8_t {
  kShort = 0,  ///< on-page, <= 8000-byte blob, rank <= 6, int16 dims
  kMax = 1,    ///< out-of-page, streamed, any rank, int32 dims
};

/// Magic byte opening every array blob.
inline constexpr uint8_t kArrayMagic = 0xA7;
/// Fixed header size of a short array.
inline constexpr int kShortHeaderSize = 24;
/// Fixed prefix size of a max-array header (before the dim sizes).
inline constexpr int kMaxHeaderPrefixSize = 16;
/// Largest blob (header + data) a short array may occupy: VARBINARY(8000).
inline constexpr int64_t kMaxShortBlobBytes = 8000;
/// Largest dimension size of a short array (int16 indices).
inline constexpr int64_t kMaxShortDimSize = 32767;
/// Largest dimension size of a max array (int32 indices).
inline constexpr int64_t kMaxMaxDimSize = 2147483647;

/// Decoded array header.
struct ArrayHeader {
  DType dtype = DType::kFloat64;
  StorageClass storage = StorageClass::kShort;
  Dims dims;

  int rank() const { return static_cast<int>(dims.size()); }
  int64_t num_elements() const {
    return ElementCount(std::span<const int64_t>(dims));
  }
  /// Size in bytes of the serialized header.
  int64_t header_size() const {
    return storage == StorageClass::kShort
               ? kShortHeaderSize
               : kMaxHeaderPrefixSize + 4 * static_cast<int64_t>(dims.size());
  }
  /// Size in bytes of the element payload.
  int64_t data_size() const { return num_elements() * DTypeSize(dtype); }
  /// Total blob size (header + payload).
  int64_t blob_size() const { return header_size() + data_size(); }

  bool operator==(const ArrayHeader& o) const {
    return dtype == o.dtype && storage == o.storage && dims == o.dims;
  }
};

/// Validates that (dtype, dims) is representable in the given storage class.
Status ValidateHeader(DType dtype, std::span<const int64_t> dims,
                      StorageClass storage);

/// Chooses the storage class for (dtype, dims): short when the blob fits the
/// short-class constraints, max otherwise.
StorageClass ChooseStorageClass(DType dtype, std::span<const int64_t> dims);

/// Serializes a header. Fails if the shape violates the class constraints.
Result<std::vector<uint8_t>> EncodeHeader(const ArrayHeader& header);

/// Appends the serialized header to `out` (same validation as EncodeHeader).
Status AppendHeader(const ArrayHeader& header, std::vector<uint8_t>* out);

/// Parses and validates a header from the front of `blob`. The blob may be
/// longer than the header (it normally carries the payload too); the payload
/// length is validated against the header's element count.
Result<ArrayHeader> DecodeHeader(std::span<const uint8_t> blob);

/// A short-class header decoded in place: the dimension sizes live in the
/// struct, so decoding allocates nothing.
struct ShortHeader {
  DType dtype = DType::kFloat64;
  int rank = 0;
  int64_t dims[kMaxShortRank] = {};
  int64_t num_elements = 0;

  std::span<const int64_t> shape() const {
    return {dims, static_cast<size_t>(rank)};
  }
  int64_t blob_size() const {
    return kShortHeaderSize + num_elements * DTypeSize(dtype);
  }
};

/// DecodeHeader for a blob whose flags byte says short class (blob[1] == 0)
/// into `out`: the same checks in the same order with the same Status,
/// payload length included. Fails with kInvalidArgument on a max-class blob.
Status DecodeShortHeader(std::span<const uint8_t> blob, ShortHeader* out);

/// Checks an array's dtype and storage class against what a typed schema
/// function expects ("we can detect type mismatches at runtime when the
/// blobs are passed to the wrong functions", Sec. 3.5): kTypeMismatch, the
/// dtype compared first.
Status CheckSchemaMatch(DType have, StorageClass have_class, DType want,
                        StorageClass want_class);
inline Status CheckSchemaMatch(const ArrayHeader& h, DType want,
                               StorageClass want_class) {
  return CheckSchemaMatch(h.dtype, h.storage, want, want_class);
}

/// Parses only the fixed prefix of a header to learn its total size, for
/// streamed (partial) reads where only a few bytes are available. `prefix`
/// must hold at least kMaxHeaderPrefixSize bytes.
Result<int64_t> PeekHeaderSize(std::span<const uint8_t> prefix);

}  // namespace sqlarray
