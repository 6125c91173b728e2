#include "udfs/helpers.h"

#include "common/bytes.h"
#include "common/wrap_int.h"
#include "core/ops.h"
#include "storage/blob.h"

namespace sqlarray::udfs {

using engine::Value;

Result<OwnedArray> ArrayFromValue(const Value& v, engine::UdfContext& ctx) {
  (void)ctx;
  if (v.kind() == Value::Kind::kBytes) {
    SQLARRAY_ASSIGN_OR_RETURN(const std::vector<uint8_t>* bytes, v.AsBytes());
    return OwnedArray::FromBlob(*bytes);
  }
  if (v.kind() == Value::Kind::kBlob) {
    SQLARRAY_ASSIGN_OR_RETURN(engine::BlobRef ref, v.AsBlob());
    SQLARRAY_ASSIGN_OR_RETURN(storage::BlobStream stream,
                              storage::BlobStream::Open(ref.pool, ref.id));
    return StreamReadAll(&stream);
  }
  return Status::TypeMismatch("argument is not an array blob");
}

Result<ArrayHeader> HeaderFromValue(const Value& v, engine::UdfContext& ctx) {
  (void)ctx;
  if (v.kind() == Value::Kind::kBytes) {
    SQLARRAY_ASSIGN_OR_RETURN(const std::vector<uint8_t>* bytes, v.AsBytes());
    return DecodeHeader(*bytes);
  }
  if (v.kind() == Value::Kind::kBlob) {
    SQLARRAY_ASSIGN_OR_RETURN(engine::BlobRef ref, v.AsBlob());
    SQLARRAY_ASSIGN_OR_RETURN(storage::BlobStream stream,
                              storage::BlobStream::Open(ref.pool, ref.id));
    return ReadHeaderFromSource(&stream);
  }
  return Status::TypeMismatch("argument is not an array blob");
}

Result<Dims> DimsFromValue(const Value& v, engine::UdfContext& ctx) {
  SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a, ArrayFromValue(v, ctx));
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

Value ValueFromArray(OwnedArray array) {
  return Value::Bytes(std::move(array).TakeBlob());
}

Result<double> ItemFromValue(const Value& v, std::span<const int64_t> index,
                             engine::UdfContext& ctx) {
  (void)ctx;
  if (v.kind() == Value::Kind::kBlob) {
    // Out-of-page argument: read the header plus exactly one element.
    SQLARRAY_ASSIGN_OR_RETURN(engine::BlobRef ref, v.AsBlob());
    SQLARRAY_ASSIGN_OR_RETURN(storage::BlobStream stream,
                              storage::BlobStream::Open(ref.pool, ref.id));
    return StreamItem(&stream, index);
  }
  SQLARRAY_ASSIGN_OR_RETURN(const std::vector<uint8_t>* bytes, v.AsBytes());
  SQLARRAY_ASSIGN_OR_RETURN(ArrayRef ref, ArrayRef::Parse(*bytes));
  return Item(ref, index);
}

Result<OwnedArray> SubarrayFromValue(const Value& v,
                                     std::span<const int64_t> offset,
                                     std::span<const int64_t> sizes,
                                     bool collapse, engine::UdfContext& ctx) {
  (void)ctx;
  if (v.kind() == Value::Kind::kBlob) {
    SQLARRAY_ASSIGN_OR_RETURN(engine::BlobRef ref, v.AsBlob());
    SQLARRAY_ASSIGN_OR_RETURN(storage::BlobStream stream,
                              storage::BlobStream::Open(ref.pool, ref.id));
    return StreamSubarray(&stream, offset, sizes, collapse);
  }
  SQLARRAY_ASSIGN_OR_RETURN(const std::vector<uint8_t>* bytes, v.AsBytes());
  SQLARRAY_ASSIGN_OR_RETURN(ArrayRef ref, ArrayRef::Parse(*bytes));
  return Subarray(ref, offset, sizes, collapse);
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

Status Reg(engine::FunctionRegistry* reg, std::string schema,
           std::string name, int arity, double work, engine::ScalarFn fn,
           engine::ColumnKernel kernel) {
  engine::ScalarFunction f;
  f.schema = std::move(schema);
  f.name = std::move(name);
  f.arity = arity;
  f.boundary = engine::Boundary::kClr;
  f.managed_work_ns = work;
  f.fn = std::move(fn);
  f.kernel = std::move(kernel);
  return reg->RegisterScalar(std::move(f));
}

Result<Dims> IndexArgs(std::span<const engine::Value> args, size_t first,
                       size_t count) {
  Dims out(count);
  for (size_t k = 0; k < count; ++k) {
    SQLARRAY_ASSIGN_OR_RETURN(int64_t v, args[first + k].AsInt());
    out[k] = v;
  }
  return out;
}

}  // namespace sqlarray::udfs
