// Runtime values flowing through expressions and UDFs.
//
// The engine's value domain mirrors what T-SQL expressions over our tables
// produce: NULL, BIGINT, FLOAT, VARBINARY (inline bytes), strings, and
// out-of-page blob references (VARBINARY(MAX) columns, carried by reference
// so UDFs can stream them instead of materializing).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/blob.h"

namespace sqlarray::engine {

/// A reference to an out-of-page blob plus the pool needed to read it.
struct BlobRef {
  storage::BlobId id;
  storage::BufferPool* pool = nullptr;
};

/// A runtime value. Bytes are shared so copies are cheap (SQL value
/// semantics without defensive copying).
class Value {
 public:
  enum class Kind { kNull, kInt64, kFloat64, kBytes, kString, kBlob };

  Value() : kind_(Kind::kNull) {}
  static Value Null() { return Value(); }
  static Value Int(int64_t v) {
    Value x;
    x.kind_ = Kind::kInt64;
    x.int_ = v;
    return x;
  }
  static Value Double(double v) {
    Value x;
    x.kind_ = Kind::kFloat64;
    x.dbl_ = v;
    return x;
  }
  static Value Bytes(std::vector<uint8_t> bytes) {
    Value x;
    x.kind_ = Kind::kBytes;
    x.bytes_ = std::make_shared<std::vector<uint8_t>>(std::move(bytes));
    return x;
  }
  static Value SharedBytes(std::shared_ptr<std::vector<uint8_t>> bytes) {
    Value x;
    x.kind_ = Kind::kBytes;
    x.bytes_ = std::move(bytes);
    return x;
  }
  static Value Str(std::string s) {
    Value x;
    x.kind_ = Kind::kString;
    x.str_ = std::make_shared<std::string>(std::move(s));
    return x;
  }
  static Value Blob(BlobRef ref) {
    Value x;
    x.kind_ = Kind::kBlob;
    x.blob_ = ref;
    return x;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }

  /// Numeric accessors with SQL-style coercion (int <-> float widen).
  /// AsInt truncates a FLOAT toward zero and fails with kOutOfRange when it
  /// has no BIGINT (NaN, +-inf, |x| >= 2^63; common/wrap_int.h).
  Result<int64_t> AsInt() const;
  Result<double> AsDouble() const;
  Result<std::string> AsString() const;

  /// Inline bytes; fails for blob refs (use Materialize / AsBlob).
  Result<const std::vector<uint8_t>*> AsBytes() const;
  Result<BlobRef> AsBlob() const;

  /// Returns the value's bytes, reading an out-of-page blob if needed.
  Result<std::vector<uint8_t>> MaterializeBytes() const;

  /// Logical payload size in bytes (for marshaling cost accounting).
  int64_t ByteSize() const;

  /// Debug / result rendering.
  std::string ToDisplayString() const;

 private:
  Kind kind_;
  int64_t int_ = 0;
  double dbl_ = 0;
  std::shared_ptr<std::vector<uint8_t>> bytes_;
  std::shared_ptr<std::string> str_;
  BlobRef blob_;
};

}  // namespace sqlarray::engine
