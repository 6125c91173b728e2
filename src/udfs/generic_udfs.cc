#include "core/ops.h"
#include "core/vec_kernels.h"
#include "udfs/helpers.h"
#include "udfs/register.h"

namespace sqlarray::udfs {

namespace {

using engine::FunctionRegistry;
using engine::UdfContext;
using engine::Value;

}  // namespace

Status RegisterGenericUdfs(FunctionRegistry* registry) {
  // Array.Item(arr, i, j, ...) — dtype-dispatched on the blob header; the
  // target of the subscript sugar @a[i, j].
  SQLARRAY_RETURN_IF_ERROR(Reg(
      registry, "Array", "Item", -1, 500,
      [](std::span<const Value> args, UdfContext& ctx) -> Result<Value> {
        if (args.size() < 2) {
          return Status::InvalidArgument("Array.Item needs indices");
        }
        SQLARRAY_ASSIGN_OR_RETURN(ArrayHeader h, HeaderFromValue(args[0], ctx));
        SQLARRAY_ASSIGN_OR_RETURN(Dims idx, IndexArgs(args, 1, args.size() - 1));
        if (IsComplexDType(h.dtype)) {
          SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a, ArrayFromValue(args[0], ctx));
          SQLARRAY_ASSIGN_OR_RETURN(std::complex<double> v,
                                    ItemComplex(a.ref(), idx));
          return Value::Bytes(
              EncodeComplexUdt(v, h.dtype == DType::kComplex64));
        }
        SQLARRAY_ASSIGN_OR_RETURN(double v, ItemFromValue(args[0], idx, ctx));
        return Value::Double(v);
      }));

  // Array.UpdateItem(arr, i, j, ..., value) — target of SET @a[i, j] = v.
  SQLARRAY_RETURN_IF_ERROR(Reg(
      registry, "Array", "UpdateItem", -1, 800,
      [](std::span<const Value> args, UdfContext& ctx) -> Result<Value> {
        if (args.size() < 3) {
          return Status::InvalidArgument(
              "Array.UpdateItem needs indices and a value");
        }
        SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a, ArrayFromValue(args[0], ctx));
        SQLARRAY_ASSIGN_OR_RETURN(Dims idx, IndexArgs(args, 1, args.size() - 2));
        SQLARRAY_ASSIGN_OR_RETURN(double v, args.back().AsDouble());
        SQLARRAY_ASSIGN_OR_RETURN(OwnedArray out, UpdateItem(a.ref(), idx, v));
        return ValueFromArray(std::move(out));
      }));

  // Array.Slice(arr, lo, hi, drop, lo, hi, drop, ...) — target of the range
  // sugar @a[l1:h1, i, ...]: per dimension a [lo, hi) range plus a flag that
  // drops the dimension when it came from a scalar subscript.
  SQLARRAY_RETURN_IF_ERROR(Reg(
      registry, "Array", "Slice", -1, 1200,
      [](std::span<const Value> args, UdfContext& ctx) -> Result<Value> {
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
          sizes[k] = hi - lo;
          drop[k] = flag != 0;
        }
        SQLARRAY_ASSIGN_OR_RETURN(
            OwnedArray sub,
            SubarrayFromValue(args[0], offset, sizes, /*collapse=*/false, ctx));
        // Drop the dimensions that came from scalar subscripts.
        Dims kept;
        for (size_t k = 0; k < rank; ++k) {
          if (!drop[k]) kept.push_back(sizes[k]);
        }
        if (kept.empty()) kept.push_back(1);
        if (kept == sub.dims()) return ValueFromArray(std::move(sub));
        SQLARRAY_ASSIGN_OR_RETURN(OwnedArray out,
                                  Reshape(sub.ref(), std::move(kept)));
        return ValueFromArray(std::move(out));
      }));

  // Header introspection without a typed schema.
  SQLARRAY_RETURN_IF_ERROR(Reg(
      registry, "Array", "Rank", 1, 400,
      [](std::span<const Value> args, UdfContext& ctx) -> Result<Value> {
        SQLARRAY_ASSIGN_OR_RETURN(ArrayHeader h, HeaderFromValue(args[0], ctx));
        return Value::Int(h.rank());
      }));
  SQLARRAY_RETURN_IF_ERROR(Reg(
      registry, "Array", "Length", 1, 400,
      [](std::span<const Value> args, UdfContext& ctx) -> Result<Value> {
        SQLARRAY_ASSIGN_OR_RETURN(ArrayHeader h, HeaderFromValue(args[0], ctx));
        return Value::Int(h.num_elements());
      }));
  SQLARRAY_RETURN_IF_ERROR(Reg(
      registry, "Array", "DimSize", 2, 400,
      [](std::span<const Value> args, UdfContext& ctx) -> Result<Value> {
        SQLARRAY_ASSIGN_OR_RETURN(ArrayHeader h, HeaderFromValue(args[0], ctx));
        SQLARRAY_ASSIGN_OR_RETURN(int64_t k, args[1].AsInt());
        if (k < 0 || k >= h.rank()) {
          return Status::OutOfRange("dimension index out of range");
        }
        return Value::Int(h.dims[k]);
      }));
  SQLARRAY_RETURN_IF_ERROR(Reg(
      registry, "Array", "TypeName", 1, 400,
      [](std::span<const Value> args, UdfContext& ctx) -> Result<Value> {
        SQLARRAY_ASSIGN_OR_RETURN(ArrayHeader h, HeaderFromValue(args[0], ctx));
        return Value::Str(std::string(DTypeName(h.dtype)));
      }));
  SQLARRAY_RETURN_IF_ERROR(Reg(
      registry, "Array", "ToString", 1, 1500,
      [](std::span<const Value> args, UdfContext& ctx) -> Result<Value> {
        SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a, ArrayFromValue(args[0], ctx));
        return Value::Str(ToArrayString(a.ref()));
      }));
  SQLARRAY_RETURN_IF_ERROR(Reg(
      registry, "Array", "SumAll", 1, 1000,
      [](std::span<const Value> args, UdfContext& ctx) -> Result<Value> {
        SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a, ArrayFromValue(args[0], ctx));
        SQLARRAY_ASSIGN_OR_RETURN(double v,
                                  AggregateAll(a.ref(), AggKind::kSum));
        return Value::Double(v);
      }));

  // dbo.EmptyFunction(v, i): does nothing — measures the pure CLR boundary
  // (Query 5 of Table 1).
  SQLARRAY_RETURN_IF_ERROR(Reg(
      registry, "dbo", "EmptyFunction", 2, 0,
      [](std::span<const Value>, UdfContext&) -> Result<Value> {
        return Value::Double(0.0);
      },
      [](std::span<const engine::CallArg>, int32_t rows,
         col::ColumnVec* out) -> Status {
        col::FillF64(0.0, rows, out->MutableF64(rows));
        return Status::OK();
      }));

  return Status::OK();
}

}  // namespace sqlarray::udfs
