#include "engine/value.h"

#include <cstdio>

#include "common/wrap_int.h"

namespace sqlarray::engine {

Result<int64_t> Value::AsInt() const {
  switch (kind_) {
    case Kind::kInt64:
      return int_;
    case Kind::kFloat64:
      return CheckedF64ToI64(dbl_);
    default:
      return Status::TypeMismatch("value is not numeric");
  }
}

Result<double> Value::AsDouble() const {
  switch (kind_) {
    case Kind::kInt64:
      return static_cast<double>(int_);
    case Kind::kFloat64:
      return dbl_;
    default:
      return Status::TypeMismatch("value is not numeric");
  }
}

Result<std::string> Value::AsString() const {
  if (kind_ != Kind::kString) {
    return Status::TypeMismatch("value is not a string");
  }
  return *str_;
}

Result<const std::vector<uint8_t>*> Value::AsBytes() const {
  if (kind_ != Kind::kBytes) {
    return Status::TypeMismatch("value is not an inline binary");
  }
  return bytes_.get();
}

Result<BlobRef> Value::AsBlob() const {
  if (kind_ != Kind::kBlob) {
    return Status::TypeMismatch("value is not an out-of-page blob");
  }
  return blob_;
}

Result<std::vector<uint8_t>> Value::MaterializeBytes() const {
  if (kind_ == Kind::kBytes) return *bytes_;
  if (kind_ == Kind::kBlob) {
    SQLARRAY_ASSIGN_OR_RETURN(storage::BlobStream stream,
                              storage::BlobStream::Open(blob_.pool, blob_.id));
    std::vector<uint8_t> out(static_cast<size_t>(blob_.id.size));
    SQLARRAY_RETURN_IF_ERROR(stream.ReadAt(0, out));
    return out;
  }
  return Status::TypeMismatch("value has no binary payload");
}

int64_t Value::ByteSize() const {
  switch (kind_) {
    case Kind::kNull:
      return 0;
    case Kind::kInt64:
    case Kind::kFloat64:
      return 8;
    case Kind::kBytes:
      return static_cast<int64_t>(bytes_->size());
    case Kind::kString:
      return static_cast<int64_t>(str_->size());
    case Kind::kBlob:
      return blob_.id.size;
  }
  return 0;
}

std::string Value::ToDisplayString() const {
  switch (kind_) {
    case Kind::kNull:
      return "NULL";
    case Kind::kInt64:
      return std::to_string(int_);
    case Kind::kFloat64: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.10g", dbl_);
      return buf;
    }
    case Kind::kBytes: {
      std::string out = "0x";
      size_t n = std::min<size_t>(bytes_->size(), 16);
      static const char* hex = "0123456789ABCDEF";
      for (size_t i = 0; i < n; ++i) {
        out += hex[(*bytes_)[i] >> 4];
        out += hex[(*bytes_)[i] & 0xF];
      }
      if (bytes_->size() > n) out += "...";
      out += " (" + std::to_string(bytes_->size()) + " bytes)";
      return out;
    }
    case Kind::kString:
      return "'" + *str_ + "'";
    case Kind::kBlob:
      return "<blob " + std::to_string(blob_.id.size) + " bytes>";
  }
  return "?";
}

}  // namespace sqlarray::engine
