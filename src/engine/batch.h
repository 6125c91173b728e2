// Gathered row blocks for the scan's chunk bodies.
//
// The chunk bodies (engine/exec.cc) gather a block of rows out of the leaf
// cursor — Executor::set_batch_rows rows (default 1024), one row for a plan
// with a UDA, at most the rows a TOP still lacks — and evaluate each
// expression over it: a compiled columnar program (engine/vec_expr.h) when
// the expression has one, the row evaluator (Eval) once per selected row
// otherwise.
#pragma once

#include <cstdint>
#include <memory>

namespace sqlarray::engine {

/// A gathered block of fixed-width rows. Rows are copied out of the cursor
/// (cursor row pointers die on Next), so the batch stays valid while the
/// scan advances.
class RowBatch {
 public:
  /// Clears the batch and (re)shapes it for `capacity` rows of
  /// `row_size` bytes. The backing store is allocated once.
  void Reset(int64_t row_size, int32_t capacity) {
    row_size_ = row_size;
    cap_ = capacity;
    n_ = 0;
    const size_t bytes = static_cast<size_t>(row_size) * capacity;
    if (bytes > bytes_) {
      // Left uninitialized: only the rows appended are ever read, so a
      // one-leaf seek touches its rows, not capacity() rows of zeros.
      data_ = std::make_unique_for_overwrite<uint8_t[]>(bytes);
      bytes_ = bytes;
    }
  }
  bool full() const { return n_ == cap_; }
  int32_t size() const { return n_; }
  int32_t capacity() const { return cap_; }
  /// Bulk append: writable space for the next capacity() - size() rows;
  /// after filling the first `n` of them, CommitAppend(n) makes them part
  /// of the batch. ChunkCursor::CopyRows writes one memcpy per leaf-page
  /// run through this.
  uint8_t* AppendSlots() {
    return data_.get() + static_cast<size_t>(n_) * row_size_;
  }
  void CommitAppend(int32_t n) { n_ += n; }
  const uint8_t* row(int32_t i) const {
    return data_.get() + static_cast<size_t>(i) * row_size_;
  }

 private:
  int64_t row_size_ = 0;
  int32_t n_ = 0;
  int32_t cap_ = 0;
  std::unique_ptr<uint8_t[]> data_;
  size_t bytes_ = 0;  ///< allocated size of data_
};

}  // namespace sqlarray::engine
