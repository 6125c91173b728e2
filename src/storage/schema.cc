#include "storage/schema.h"

#include <cstring>

#include "common/bytes.h"

namespace sqlarray::storage {

Status CheckBinaryColumn(const uint8_t* p, int32_t capacity) {
  if (DecodeLE<uint16_t>(p) > capacity) {
    return Status::Corruption("binary column length exceeds capacity");
  }
  return Status::OK();
}

int64_t ColumnDef::Width() const {
  switch (type) {
    case ColumnType::kInt32:
    case ColumnType::kFloat32:
      return 4;
    case ColumnType::kInt64:
    case ColumnType::kFloat64:
      return 8;
    case ColumnType::kBinary:
      return 2 + capacity;  // uint16 actual length + capacity payload
    case ColumnType::kVarBinaryMax:
      return 12;  // PageId root + int64 size
  }
  return 0;
}

Result<Schema> Schema::Create(std::vector<ColumnDef> columns) {
  if (columns.empty()) {
    return Status::InvalidArgument("schema needs at least one column");
  }
  if (columns[0].type != ColumnType::kInt64) {
    return Status::InvalidArgument(
        "the first column is the clustered key and must be a BIGINT");
  }
  Schema s;
  s.columns_ = std::move(columns);
  int64_t off = 0;
  for (const ColumnDef& c : s.columns_) {
    if (c.type == ColumnType::kBinary &&
        (c.capacity < 1 || c.capacity > 8000)) {
      return Status::InvalidArgument(
          "fixed binary column capacity must be in [1, 8000]");
    }
    s.offsets_.push_back(off);
    off += c.Width();
  }
  s.row_size_ = off;
  if (s.row_size_ > kPageSize - 64) {
    return Status::InvalidArgument(
        "row size exceeds what fits a single data page");
  }
  return s;
}

Result<int> Schema::ColumnIndex(std::string_view name) const {
  for (int i = 0; i < num_columns(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return Status::NotFound("no column named " + std::string(name));
}

Status Schema::ValidateRow(const Row& row) const {
  if (static_cast<int>(row.size()) != num_columns()) {
    return Status::InvalidArgument("row arity does not match the schema");
  }
  for (int i = 0; i < num_columns(); ++i) {
    const ColumnDef& c = columns_[i];
    bool ok = false;
    switch (c.type) {
      case ColumnType::kInt32:
        ok = std::holds_alternative<int32_t>(row[i]);
        break;
      case ColumnType::kInt64:
        ok = std::holds_alternative<int64_t>(row[i]);
        break;
      case ColumnType::kFloat32:
        ok = std::holds_alternative<float>(row[i]);
        break;
      case ColumnType::kFloat64:
        ok = std::holds_alternative<double>(row[i]);
        break;
      case ColumnType::kBinary: {
        auto* b = std::get_if<std::vector<uint8_t>>(&row[i]);
        ok = b != nullptr && static_cast<int32_t>(b->size()) <= c.capacity;
        break;
      }
      case ColumnType::kVarBinaryMax:
        ok = std::holds_alternative<BlobId>(row[i]);
        break;
    }
    if (!ok) {
      return Status::TypeMismatch("row value " + std::to_string(i) +
                                  " does not match column '" + c.name + "'");
    }
  }
  return Status::OK();
}

Status Schema::EncodeRow(const Row& row, uint8_t* dst) const {
  SQLARRAY_RETURN_IF_ERROR(ValidateRow(row));
  for (int i = 0; i < num_columns(); ++i) {
    uint8_t* p = dst + offsets_[i];
    const ColumnDef& c = columns_[i];
    switch (c.type) {
      case ColumnType::kInt32:
        EncodeLE<int32_t>(p, std::get<int32_t>(row[i]));
        break;
      case ColumnType::kInt64:
        EncodeLE<int64_t>(p, std::get<int64_t>(row[i]));
        break;
      case ColumnType::kFloat32:
        EncodeLE<float>(p, std::get<float>(row[i]));
        break;
      case ColumnType::kFloat64:
        EncodeLE<double>(p, std::get<double>(row[i]));
        break;
      case ColumnType::kBinary: {
        const auto& b = std::get<std::vector<uint8_t>>(row[i]);
        EncodeLE<uint16_t>(p, static_cast<uint16_t>(b.size()));
        std::memcpy(p + 2, b.data(), b.size());
        std::memset(p + 2 + b.size(), 0, c.capacity - b.size());
        break;
      }
      case ColumnType::kVarBinaryMax: {
        const BlobId& blob = std::get<BlobId>(row[i]);
        EncodeLE<uint32_t>(p, blob.root);
        EncodeLE<int64_t>(p + 4, blob.size);
        break;
      }
    }
  }
  return Status::OK();
}

Result<Row> Schema::DecodeRow(const uint8_t* src) const {
  Row row;
  row.reserve(num_columns());
  for (int i = 0; i < num_columns(); ++i) {
    SQLARRAY_ASSIGN_OR_RETURN(RowValue v, DecodeColumn(src, i));
    row.push_back(std::move(v));
  }
  return row;
}

Result<RowValue> Schema::DecodeColumn(const uint8_t* src, int col) const {
  if (col < 0 || col >= num_columns()) {
    return Status::InvalidArgument("column index out of range");
  }
  const uint8_t* p = src + offsets_[col];
  const ColumnDef& c = columns_[col];
  // Each case assigns a named value and returns it: returning a RowValue
  // temporary makes GCC 12 report -Wmaybe-uninitialized under sanitizers.
  RowValue out;
  switch (c.type) {
    case ColumnType::kInt32:
      out = DecodeLE<int32_t>(p);
      return out;
    case ColumnType::kInt64:
      out = DecodeLE<int64_t>(p);
      return out;
    case ColumnType::kFloat32:
      out = DecodeLE<float>(p);
      return out;
    case ColumnType::kFloat64:
      out = DecodeLE<double>(p);
      return out;
    case ColumnType::kBinary: {
      SQLARRAY_RETURN_IF_ERROR(CheckBinaryColumn(p, c.capacity));
      std::span<const uint8_t> bytes = BinaryColumnBytes(p);
      out = std::vector<uint8_t>(bytes.begin(), bytes.end());
      return out;
    }
    case ColumnType::kVarBinaryMax: {
      BlobId blob;
      blob.root = DecodeLE<uint32_t>(p);
      blob.size = DecodeLE<int64_t>(p + 4);
      out = blob;
      return out;
    }
  }
  return Status::Internal("unreachable column type");
}

int64_t Schema::DecodeKey(const uint8_t* src) const {
  return DecodeLE<int64_t>(src + offsets_[0]);
}

}  // namespace sqlarray::storage
