#include "udfs/helpers.h"

#include "common/bytes.h"
#include "common/wrap_int.h"
#include "storage/blob.h"

namespace sqlarray::udfs {

using engine::Value;

namespace {

Result<storage::BlobStream> Open(const engine::BlobRef& ref) {
  return storage::BlobStream::Open(ref.pool, ref.id);
}

}  // namespace

Result<OwnedArray> ArrayFromValue(const Value& v) {
  if (v.kind() == Value::Kind::kBytes) {
    return OwnedArray::FromBlob(*v.AsBytes().value());
  }
  if (v.kind() == Value::Kind::kBlob) {
    SQLARRAY_ASSIGN_OR_RETURN(storage::BlobStream stream,
                              Open(v.AsBlob().value()));
    return StreamReadAll(&stream);
  }
  return Status::TypeMismatch("argument is not an array blob");
}

Result<Dims> DimsFromValue(const Value& v) {
  SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a, ArrayFromValue(v));
  ArrayRef ref = a.ref();
  if (ref.rank() != 1) {
    return Status::InvalidArgument("index vector must be one-dimensional");
  }
  if (!IsIntegerDType(ref.dtype())) {
    return Status::TypeMismatch("index vector must hold integers");
  }
  Dims out(static_cast<size_t>(ref.num_elements()));
  for (int64_t i = 0; i < ref.num_elements(); ++i) {
    SQLARRAY_ASSIGN_OR_RETURN(double d, ref.GetDouble(i));
    SQLARRAY_ASSIGN_OR_RETURN(out[i], CheckedF64ToI64(d));
  }
  return out;
}

Result<ArrayArg> ArrayArg::Of(Arg a) {
  ArrayArg out;
  if (a.value() != nullptr && a.value()->kind() == Value::Kind::kBlob) {
    out.blob = a.value()->AsBlob().value();
    SQLARRAY_ASSIGN_OR_RETURN(storage::BlobStream stream, Open(*out.blob));
    SQLARRAY_ASSIGN_OR_RETURN(out.header, ReadHeaderFromSource(&stream));
    return out;
  }
  std::optional<std::span<const uint8_t>> bytes = a.Bytes();
  if (!bytes) return Status::TypeMismatch("argument is not an array blob");
  out.bytes = *bytes;
  SQLARRAY_ASSIGN_OR_RETURN(out.header, DecodeHeader(out.bytes));
  return out;
}

Result<double> ArrayArg::Item(std::span<const int64_t> index) const {
  if (blob) {
    // Out-of-page argument: read the header plus exactly one element.
    SQLARRAY_ASSIGN_OR_RETURN(storage::BlobStream stream, Open(*blob));
    return StreamItem(&stream, index);
  }
  SQLARRAY_ASSIGN_OR_RETURN(ArrayRef ref, ArrayRef::Parse(bytes));
  return sqlarray::Item(ref, index);
}

Result<OwnedArray> ArrayArg::Subarray(std::span<const int64_t> offset,
                                      std::span<const int64_t> sizes,
                                      bool collapse) const {
  if (blob) {
    SQLARRAY_ASSIGN_OR_RETURN(storage::BlobStream stream, Open(*blob));
    return StreamSubarray(&stream, offset, sizes, collapse);
  }
  SQLARRAY_ASSIGN_OR_RETURN(ArrayRef ref, ArrayRef::Parse(bytes));
  return sqlarray::Subarray(ref, offset, sizes, collapse);
}

Result<OwnedArray> ArrayArg::Whole() const {
  if (blob) {
    SQLARRAY_ASSIGN_OR_RETURN(storage::BlobStream stream, Open(*blob));
    return StreamReadAll(&stream);
  }
  SQLARRAY_ASSIGN_OR_RETURN(ArrayRef ref, ArrayRef::Parse(bytes));
  return OwnedArray::CopyOf(ref);
}

std::vector<uint8_t> EncodeComplexUdt(std::complex<double> v, bool single) {
  std::vector<uint8_t> out;
  if (single) {
    AppendLE<float>(&out, static_cast<float>(v.real()));
    AppendLE<float>(&out, static_cast<float>(v.imag()));
  } else {
    AppendLE<double>(&out, v.real());
    AppendLE<double>(&out, v.imag());
  }
  return out;
}

Result<std::complex<double>> DecodeComplexUdt(std::span<const uint8_t> bytes) {
  if (bytes.size() == 8) {
    return std::complex<double>(DecodeLE<float>(bytes.data()),
                                DecodeLE<float>(bytes.data() + 4));
  }
  if (bytes.size() == 16) {
    return std::complex<double>(DecodeLE<double>(bytes.data()),
                                DecodeLE<double>(bytes.data() + 8));
  }
  return Status::InvalidArgument("complex UDT must be 8 or 16 bytes");
}

}  // namespace sqlarray::udfs
