// Array manipulation operations (the paper's T-SQL function surface).
//
// Every operation has SQL value semantics: inputs are immutable blobs, and
// mutating operations (UpdateItem) return a new blob. The functions here are
// the typed backbone behind the per-schema UDFs registered in src/udfs.
#pragma once

#include <complex>
#include <cstring>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/dims.h"
#include "common/status.h"
#include "core/array.h"

namespace sqlarray {

// ---------------------------------------------------------------------------
// Item access
// ---------------------------------------------------------------------------

/// Returns the element at `index` widened to double (Item_N in T-SQL).
Result<double> Item(const ArrayRef& a, std::span<const int64_t> index);

/// Reads elements of short `dtype` arrays widened to double, one per call:
/// the element access of the typed Item_N functions, for their row function
/// and their column kernel alike. Read(blob, index) fails as DecodeHeader,
/// CheckSchemaMatch(dtype, kShort), ArrayRef::Parse and Item would, in that
/// order and with the same Status, but reads the header in place and
/// allocates nothing on success.
///
/// A reader remembers the last header that passed those checks (its 24
/// bytes and the blob's stored length) and the last index tuple it located
/// in that header. Every check before the element load is a pure function
/// of those bytes, that length and the index, so a call that repeats them
/// skips the checks and returns exactly what a fresh reader would. A call
/// that does not runs every check in order and is remembered only once it
/// passes. A reader belongs to one thread.
class ShortItemReader {
 public:
  explicit ShortItemReader(DType dtype) : dtype_(dtype) {}

  /// Always inlined: kernels read one element per row through it.
  [[gnu::always_inline]] Result<double> Read(std::span<const uint8_t> blob,
                                             std::span<const int64_t> index) {
    if (SameHeader(blob) && SameIndex(index)) return Load(blob);
    return ReadMiss(blob, index);
  }

 private:
  Result<double> Load(std::span<const uint8_t> blob) const {
    const uint8_t* p = blob.data() + offset_;
    if (dtype_ == DType::kFloat64) return DecodeLE<double>(p);
    return ReadScalarAsDouble(dtype_, p);
  }
  bool SameHeader(std::span<const uint8_t> blob) const {
    if (size_ == 0 || blob.size() != size_) return false;
    uint64_t w[3];
    std::memcpy(w, blob.data(), sizeof(w));
    return ((w[0] ^ header_[0]) | (w[1] ^ header_[1]) | (w[2] ^ header_[2])) ==
           0;
  }
  bool SameIndex(std::span<const int64_t> index) const {
    if (!located_ || index.size() != static_cast<size_t>(shape_.rank)) {
      return false;
    }
    for (size_t d = 0; d < index.size(); ++d) {
      if (index[d] != index_[d]) return false;
    }
    return true;
  }
  /// Read past the memo: the checks it does not cover, then the load.
  Result<double> ReadMiss(std::span<const uint8_t> blob,
                          std::span<const int64_t> index);
  /// The header checks; on success `blob`'s header becomes the remembered
  /// one and no index is located in it yet.
  Status CheckHeader(std::span<const uint8_t> blob);
  /// LinearIndex in the remembered header; on success `index` becomes the
  /// remembered tuple.
  Status Locate(std::span<const int64_t> index);

  DType dtype_;
  /// The last header that passed, as three words, and the stored length of
  /// its blob: 0 until one passes (a passing blob holds the whole header).
  uint64_t header_[3] = {};
  static_assert(sizeof(header_) == kShortHeaderSize);
  size_t size_ = 0;
  ShortHeader shape_;
  /// The last index tuple located in that header, and the byte offset of
  /// its element in the blob.
  bool located_ = false;
  int64_t index_[kMaxShortRank] = {};
  int64_t offset_ = 0;
};

/// Returns the element at `index` as complex (for complex arrays).
Result<std::complex<double>> ItemComplex(const ArrayRef& a,
                                         std::span<const int64_t> index);

/// Returns a copy of `a` with the element at `index` replaced by `v`
/// (UpdateItem_N in T-SQL).
Result<OwnedArray> UpdateItem(const ArrayRef& a,
                              std::span<const int64_t> index, double v);

/// Complex-valued UpdateItem.
Result<OwnedArray> UpdateItemComplex(const ArrayRef& a,
                                     std::span<const int64_t> index,
                                     std::complex<double> v);

// ---------------------------------------------------------------------------
// Subsetting and reshaping
// ---------------------------------------------------------------------------

/// Extracts the contiguous block starting at `offset` with shape `sizes`
/// (Subarray in T-SQL). Only contiguous (hyper-rectangular) subsets are
/// supported, as in the paper. When `collapse` is true, dimensions of
/// length 1 in the result are dropped (e.g. a matrix column becomes a
/// vector); a result that would collapse to rank 0 keeps one dimension.
/// The result's storage class is chosen automatically (a small subset of a
/// max array becomes a short array).
Result<OwnedArray> Subarray(const ArrayRef& a, std::span<const int64_t> offset,
                            std::span<const int64_t> sizes, bool collapse);

/// Reinterprets the array with new dimension sizes without reordering the
/// elements (Reshape in T-SQL). The element counts must match.
Result<OwnedArray> Reshape(const ArrayRef& a, Dims new_dims);

/// Permutes the axes: result dimension k has size dims[perm[k]], and
/// result[i_0, ..] = a[i_{perm^-1(0)}, ..]. perm must be a permutation of
/// 0..rank-1. Transpose of a matrix is PermuteAxes(a, {1, 0}).
Result<OwnedArray> PermuteAxes(const ArrayRef& a,
                               std::span<const int64_t> perm);

/// Matrix transpose / general axis reversal: PermuteAxes with the reversed
/// axis order.
Result<OwnedArray> Transpose(const ArrayRef& a);

/// Concatenates two arrays along `axis`; every other dimension must match.
/// The result dtype is the promotion of the inputs'.
Result<OwnedArray> ConcatAxis(const ArrayRef& a, const ArrayRef& b,
                              int64_t axis);

// ---------------------------------------------------------------------------
// Raw binary bridging
// ---------------------------------------------------------------------------

/// Prefixes raw consecutive element bytes with an array header (Cast in
/// T-SQL). `raw.size()` must equal ElementCount(dims) * DTypeSize(dtype).
Result<OwnedArray> CastFromRaw(DType dtype, Dims dims,
                               std::span<const uint8_t> raw);

/// Strips the header and returns the raw element bytes (Raw in T-SQL).
Result<std::vector<uint8_t>> Raw(const ArrayRef& a);

// ---------------------------------------------------------------------------
// Conversions
// ---------------------------------------------------------------------------

/// Converts the element type, value by value. Narrowing integer conversions
/// that overflow fail; real→complex widens with im = 0; complex→real requires
/// zero imaginary parts.
Result<OwnedArray> ConvertDType(const ArrayRef& a, DType target);

/// Converts the storage class, keeping dtype and shape. Fails when the array
/// does not satisfy the target class's constraints.
Result<OwnedArray> ConvertStorage(const ArrayRef& a, StorageClass target);

/// Renders the array as a string: "float64[2,3]{1 2 3 4 5 6}" with elements
/// in column-major order; complex elements render as "a+bi".
std::string ToArrayString(const ArrayRef& a);

/// Parses the ToArrayString format back into an array.
Result<OwnedArray> FromArrayString(std::string_view text);

// ---------------------------------------------------------------------------
// Aggregates
// ---------------------------------------------------------------------------

/// Aggregation kinds over array elements.
enum class AggKind { kSum, kMin, kMax, kMean, kStd, kCount };

/// Aggregates all elements into a scalar. kMin/kMax/kStd reject complex
/// arrays; kSum/kMean of a complex array return its real part only through
/// this interface (use AggregateAllComplex for the full value).
Result<double> AggregateAll(const ArrayRef& a, AggKind kind);

/// Complex-aware whole-array sum/mean.
Result<std::complex<double>> AggregateAllComplex(const ArrayRef& a,
                                                 AggKind kind);

/// Reduces over one axis, returning an array of rank-1 lower (or rank 1 when
/// the input is rank 1: a single-element array). E.g. summing axis 0 of a
/// [3,4] matrix yields a [4] vector. The result dtype is float64 for real
/// inputs and complex128 for complex inputs.
Result<OwnedArray> AggregateAxis(const ArrayRef& a, int64_t axis,
                                 AggKind kind);

// ---------------------------------------------------------------------------
// Element-wise arithmetic
// ---------------------------------------------------------------------------

/// Binary element-wise operations with dtype promotion.
enum class BinOp { kAdd, kSub, kMul, kDiv };

/// Returns the common promoted dtype of two element types (integer < float32
/// < float64 < complex128, with complex64 promoting real partners to
/// complex64 or above).
DType PromoteDType(DType a, DType b);

/// Element-wise `lhs op rhs`. Shapes must match exactly.
Result<OwnedArray> ElementwiseBinary(const ArrayRef& lhs, const ArrayRef& rhs,
                                     BinOp op);

/// Element-wise `a op scalar` (scalar broadcast).
Result<OwnedArray> ElementwiseScalar(const ArrayRef& a, double scalar,
                                     BinOp op);

/// Dot product of two equal-length rank-1 arrays (complex inputs use the
/// unconjugated product, matching LAPACK's *dotu convention).
Result<std::complex<double>> Dot(const ArrayRef& a, const ArrayRef& b);

/// Euclidean norm of all elements.
Result<double> Norm2(const ArrayRef& a);

// ---------------------------------------------------------------------------
// Boxed reference implementations (differential-test oracles)
// ---------------------------------------------------------------------------
//
// The entry points above dispatch to the monomorphized kernels in
// src/core/kernels.h whenever every operand has a real dtype. The *Boxed
// variants always take the generic per-element GetDouble/GetComplex path;
// tests/test_ops.cc compares the two across the dtype promotion matrix.
// Results are bit-identical for element-wise ops and casts; reductions may
// differ in the final ulp (kernel sums use independent accumulator chains).

Result<OwnedArray> ElementwiseBinaryBoxed(const ArrayRef& lhs,
                                          const ArrayRef& rhs, BinOp op);
Result<OwnedArray> ElementwiseScalarBoxed(const ArrayRef& a, double scalar,
                                          BinOp op);
Result<std::complex<double>> DotBoxed(const ArrayRef& a, const ArrayRef& b);
Result<double> Norm2Boxed(const ArrayRef& a);
Result<double> AggregateAllBoxed(const ArrayRef& a, AggKind kind);
Result<OwnedArray> ConvertDTypeBoxed(const ArrayRef& a, DType target);

}  // namespace sqlarray
