// Table schemas and the fixed-width row codec.
//
// Tables hold fixed-width rows: scalar columns, fixed-capacity binary
// columns (VARBINARY(n), n <= 8000 — where short arrays live on-page), and
// VARBINARY(MAX) columns stored as 12-byte pointers to out-of-page blob
// B-trees. This mirrors the storage split the paper's two array classes are
// built on (Sec. 3.3).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "storage/page.h"

namespace sqlarray::storage {

/// Column types supported by the mini engine.
enum class ColumnType : uint8_t {
  kInt32 = 0,
  kInt64 = 1,
  kFloat32 = 2,
  kFloat64 = 3,
  kBinary = 4,        ///< fixed-capacity VARBINARY(n), stored on-page
  kVarBinaryMax = 5,  ///< VARBINARY(MAX), stored out-of-page as a blob B-tree
};

/// Reference to an out-of-page blob: root index page + byte size.
struct BlobId {
  PageId root = kNullPage;
  int64_t size = 0;

  bool operator==(const BlobId& o) const {
    return root == o.root && size == o.size;
  }
};

/// A single column definition. `capacity` applies to kBinary only.
struct ColumnDef {
  std::string name;
  ColumnType type = ColumnType::kInt64;
  int32_t capacity = 0;

  /// Serialized width of this column inside a row.
  int64_t Width() const;
};

/// A fixed VARBINARY(n) column serializes as a uint16 length, then the
/// bytes, zero-padded to the capacity. kCorruption when the length stored
/// at `p` (the column's first byte) exceeds `capacity`.
Status CheckBinaryColumn(const uint8_t* p, int32_t capacity);
/// The bytes stored at `p`, in place; the length must already have passed
/// CheckBinaryColumn.
inline std::span<const uint8_t> BinaryColumnBytes(const uint8_t* p) {
  return {p + 2, DecodeLE<uint16_t>(p)};
}

/// One column's runtime value.
using RowValue = std::variant<int32_t, int64_t, float, double,
                              std::vector<uint8_t>, BlobId>;

/// One row's values, in schema column order.
using Row = std::vector<RowValue>;

/// An ordered list of columns with a fixed serialized row size. The first
/// column is the clustered index key and must be kInt64.
class Schema {
 public:
  static Result<Schema> Create(std::vector<ColumnDef> columns);

  int num_columns() const { return static_cast<int>(columns_.size()); }
  const ColumnDef& column(int i) const { return columns_[i]; }
  const std::vector<ColumnDef>& columns() const { return columns_; }
  /// Serialized row size in bytes.
  int64_t row_size() const { return row_size_; }
  /// Byte offset of column `i` inside a serialized row.
  int64_t column_offset(int i) const { return offsets_[i]; }
  /// Index of the named column, or NotFound.
  Result<int> ColumnIndex(std::string_view name) const;

  /// Checks that a row's value kinds match the schema (and binary payloads
  /// fit their capacity).
  Status ValidateRow(const Row& row) const;

  /// Serializes `row` into `dst` (row_size() bytes, caller-provided).
  Status EncodeRow(const Row& row, uint8_t* dst) const;

  /// Deserializes all columns.
  Result<Row> DecodeRow(const uint8_t* src) const;

  /// Deserializes a single column (projection without full row decode —
  /// the fast path for scans that touch few columns).
  Result<RowValue> DecodeColumn(const uint8_t* src, int col) const;

  /// Extracts the clustered key (column 0).
  int64_t DecodeKey(const uint8_t* src) const;

 private:
  std::vector<ColumnDef> columns_;
  std::vector<int64_t> offsets_;
  int64_t row_size_ = 0;
};

}  // namespace sqlarray::storage
