#include "core/ops.h"
#include "udfs/helpers.h"
#include "udfs/register.h"

namespace sqlarray::udfs {

void DefineShape(Definer& def, double work) {
  def("Rank", work, [](const ArrayArg& a) -> Result<int64_t> {
    return int64_t{a.header.rank()};
  });
  def("Length", work, [](const ArrayArg& a) -> Result<int64_t> {
    return a.header.num_elements();
  });
  def("DimSize", work, [](const ArrayArg& a, int64_t k) -> Result<int64_t> {
    if (k < 0 || k >= a.header.rank()) {
      return Status::OutOfRange("dimension index out of range");
    }
    return a.header.dims[k];
  });
}

Status RegisterGenericUdfs(engine::FunctionRegistry* registry) {
  Definer def(registry, Schema{"Array"});
  // Array.Item(arr, i, j, ...) — dtype-dispatched on the blob header; the
  // target of the subscript sugar @a[i, j].
  def("Item", 500, [](RowArgs args) -> Result<Value> {
    if (args.size() < 2) {
      return Status::InvalidArgument("Array.Item needs indices");
    }
    SQLARRAY_ASSIGN_OR_RETURN(ArrayArg a, ArrayArg::Of(args[0]));
    Dims idx(args.size() - 1);
    for (size_t k = 0; k < idx.size(); ++k) {
      SQLARRAY_ASSIGN_OR_RETURN(idx[k], args[1 + k].AsInt());
    }
    if (IsComplexDType(a.header.dtype)) {
      SQLARRAY_ASSIGN_OR_RETURN(OwnedArray whole, a.Whole());
      SQLARRAY_ASSIGN_OR_RETURN(std::complex<double> v,
                                ItemComplex(whole.ref(), idx));
      return Value::Bytes(
          EncodeComplexUdt(v, a.header.dtype == DType::kComplex64));
    }
    SQLARRAY_ASSIGN_OR_RETURN(double v, a.Item(idx));
    return Value::Double(v);
  });

  // Array.UpdateItem(arr, i, j, ..., value) — target of SET @a[i, j] = v.
  def("UpdateItem", 800, [](RowArgs args) -> Result<OwnedArray> {
    if (args.size() < 3) {
      return Status::InvalidArgument(
          "Array.UpdateItem needs indices and a value");
    }
    SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a, ArrayFromValue(args[0]));
    Dims idx(args.size() - 2);
    for (size_t k = 0; k < idx.size(); ++k) {
      SQLARRAY_ASSIGN_OR_RETURN(idx[k], args[1 + k].AsInt());
    }
    SQLARRAY_ASSIGN_OR_RETURN(double v, args.values.back().AsDouble());
    return UpdateItem(a.ref(), idx, v);
  });

  // Array.Slice(arr, lo, hi, drop, lo, hi, drop, ...) — target of the range
  // sugar @a[l1:h1, i, ...]: per dimension a [lo, hi) range plus a flag that
  // drops the dimension when it came from a scalar subscript.
  def("Slice", 1200, [](RowArgs args) -> Result<OwnedArray> {
    if (args.size() < 4 || (args.size() - 1) % 3 != 0) {
      return Status::InvalidArgument(
          "Array.Slice takes (lo, hi, drop) triplets per dimension");
    }
    size_t rank = (args.size() - 1) / 3;
    Dims offset(rank), sizes(rank);
    std::vector<bool> drop(rank);
    for (size_t k = 0; k < rank; ++k) {
      SQLARRAY_ASSIGN_OR_RETURN(int64_t lo, args[1 + 3 * k].AsInt());
      SQLARRAY_ASSIGN_OR_RETURN(int64_t hi, args[2 + 3 * k].AsInt());
      SQLARRAY_ASSIGN_OR_RETURN(int64_t flag, args[3 + 3 * k].AsInt());
      if (hi <= lo) {
        return Status::InvalidArgument("slice bounds must satisfy lo < hi");
      }
      offset[k] = lo;
      // A range wider than BIGINT wraps negative; its lo < 0 fails the
      // subarray bounds check.
      sizes[k] = WrapSub(hi, lo);
      drop[k] = flag != 0;
    }
    // Subarray parses the header itself.
    ArrayArg a;
    if (args[0].kind() == Value::Kind::kBlob) {
      a.blob = args[0].AsBlob().value();
    } else {
      SQLARRAY_ASSIGN_OR_RETURN(const std::vector<uint8_t>* bytes,
                                args[0].AsBytes());
      a.bytes = *bytes;
    }
    SQLARRAY_ASSIGN_OR_RETURN(OwnedArray sub,
                              a.Subarray(offset, sizes, /*collapse=*/false));
    // Drop the dimensions that came from scalar subscripts.
    Dims kept;
    for (size_t k = 0; k < rank; ++k) {
      if (!drop[k]) kept.push_back(sizes[k]);
    }
    if (kept.empty()) kept.push_back(1);
    if (kept == sub.dims()) return sub;
    return Reshape(sub.ref(), std::move(kept));
  });

  // Header introspection without a typed schema.
  DefineShape(def, 400);
  def("TypeName", 400, [](const ArrayArg& a) -> Result<std::string> {
    return std::string(DTypeName(a.header.dtype));
  });
  def("ToString", 1500, [](const ArrayRef& a) -> Result<std::string> {
    return ToArrayString(a);
  });
  def("SumAll", 1000,
      [](const ArrayRef& a) { return AggregateAll(a, AggKind::kSum); });

  // dbo.EmptyFunction(v, i): does nothing — measures the pure CLR boundary
  // (Query 5 of Table 1).
  Definer dbo(registry, Schema{"dbo"});
  dbo("EmptyFunction", 0,
      [](Ignored, Ignored) -> Result<double> { return 0.0; });
  return def.status().ok() ? dbo.status() : def.status();
}

}  // namespace sqlarray::udfs
