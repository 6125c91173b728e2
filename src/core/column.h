// Columnar vectors for the batched expression pipeline.
//
// A ColumnVec is one expression operand or result over a batch of rows:
// contiguous typed values in one of two lanes (int64 / float64 — the
// engine's numeric value domain), an optional validity bitmap (absent
// bitmap = every row valid), and, at the consumer side, a selection vector
// of surviving row indices. Columns either own their storage (reused across
// batches, so a register file allocates once per query) or are zero-copy
// views over external memory — a B-tree leaf row run or a bench buffer —
// when the source layout is already a contiguous array of the lane type.
//
// Validity convention: an empty bitmap means all rows are valid. A
// materialized bitmap has (n+63)/64 words, bit i of word i/64 set when row
// i is valid, and the tail bits of the last word ZERO, so whole-word
// popcounts and word-wise ANDs need no tail masking.
//
// Invalid rows carry deterministic but meaningless values (kernels write 0
// where they skip); consumers must never read a value whose validity bit is
// clear.
#pragma once

#include <cstdint>
#include <vector>

namespace sqlarray::col {

/// The two value lanes of the expression domain (engine Values are BIGINT
/// or FLOAT once coerced; see engine/value.h).
enum class Lane : uint8_t { kI64, kF64 };

/// Words needed for an n-row validity bitmap.
inline int32_t ValidityWords(int32_t n) { return (n + 63) / 64; }

class ColumnVec {
 public:
  Lane lane() const { return lane_; }
  int32_t size() const { return n_; }
  bool is_view() const { return view_ != nullptr; }

  /// Dense value access. i64()/f64() are valid only for the matching lane.
  const int64_t* i64() const {
    return view_ != nullptr ? static_cast<const int64_t*>(view_) : i64_.data();
  }
  const double* f64() const {
    return view_ != nullptr ? static_cast<const double*>(view_) : f64_.data();
  }

  /// Switches to owned storage of the given lane and size; returns the
  /// mutable payload. Previously grown capacity is reused, never shrunk.
  int64_t* MutableI64(int32_t n) {
    lane_ = Lane::kI64;
    n_ = n;
    view_ = nullptr;
    if (static_cast<int32_t>(i64_.size()) < n) i64_.resize(n);
    return i64_.data();
  }
  double* MutableF64(int32_t n) {
    lane_ = Lane::kF64;
    n_ = n;
    view_ = nullptr;
    if (static_cast<int32_t>(f64_.size()) < n) f64_.resize(n);
    return f64_.data();
  }

  /// Zero-copy views over external contiguous data (a leaf-page row run of
  /// a single-int64-column table, a bench buffer). The data must stay alive
  /// and 8-byte aligned for the view's lifetime; validity resets to
  /// all-valid.
  void ViewI64(const int64_t* data, int32_t n) {
    lane_ = Lane::kI64;
    n_ = n;
    view_ = data;
    valid_.clear();
  }
  void ViewF64(const double* data, int32_t n) {
    lane_ = Lane::kF64;
    n_ = n;
    view_ = data;
    valid_.clear();
  }

  // -- validity ------------------------------------------------------------

  bool all_valid() const { return valid_.empty(); }
  /// Null when every row is valid.
  const uint64_t* valid_words() const {
    return valid_.empty() ? nullptr : valid_.data();
  }
  /// Materializes the bitmap (initialized all-valid, tail bits zero) and
  /// returns it for editing.
  uint64_t* MutableValidity();
  void SetAllValid() { valid_.clear(); }
  /// Marks every row null (materialized zero words).
  void SetAllNull();
  bool ValidAt(int32_t i) const {
    return valid_.empty() ||
           (valid_[i >> 6] >> (static_cast<uint32_t>(i) & 63)) & 1;
  }

  /// Result-validity helper: this row count, validity = AND of the operand
  /// bitmaps (either may be all-valid). Call after Mutable*().
  void IntersectValidity(const ColumnVec& a, const ColumnVec& b);
  /// Copies `a`'s validity (unary ops and lane converts preserve nulls).
  void CopyValidity(const ColumnVec& a);

 private:
  Lane lane_ = Lane::kI64;
  int32_t n_ = 0;
  const void* view_ = nullptr;
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<uint64_t> valid_;
};

}  // namespace sqlarray::col
