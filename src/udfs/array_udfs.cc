#include <string>

#include "core/build.h"
#include "core/ops.h"
#include "udfs/helpers.h"
#include "udfs/register.h"

namespace sqlarray::udfs {

namespace {

using engine::FunctionRegistry;
using engine::UdfContext;
using engine::Value;

/// Rough managed-work cost constants (ns/call) for the modeled CLR host,
/// scaled around the paper's measured Item cost.
constexpr double kWorkItem = 500;
constexpr double kWorkUpdate = 800;
constexpr double kWorkBuild = 400;
constexpr double kWorkSubarray = 1200;
constexpr double kWorkConvert = 1500;
constexpr double kWorkAggregate = 1000;

/// The column kernel of a short real schema's Item_N: per row what the row
/// function does with an array held in the row (the indices convert, then
/// a ShortItemReader reads the element in place), so the two fail alike.
/// One reader serves the call's rows, so each distinct header and index
/// tuple is checked once per block.
engine::ColumnKernel ShortItemKernel(DType dtype, int n) {
  return [dtype, n](std::span<const engine::CallArg> args, int32_t rows,
                    col::ColumnVec* out) -> Status {
    if (rows > 0 && args[0].lane != nullptr) {
      // A number where the array belongs: the row function's header read
      // rejects it before it converts an index.
      return Status::TypeMismatch("argument is not an array blob");
    }
    double* o = out->MutableF64(rows);
    ShortItemReader reader(dtype);
    int64_t idx[kMaxShortRank];
    const std::span<const int64_t> index(idx, static_cast<size_t>(n));
    for (int32_t k = 0; k < rows; ++k) {
      for (int d = 0; d < n; ++d) {
        SQLARRAY_ASSIGN_OR_RETURN(idx[d], args[1 + d].Int(k));
      }
      SQLARRAY_ASSIGN_OR_RETURN(o[k], reader.Read(args[0].Bytes(k), index));
    }
    return Status::OK();
  };
}

/// Registers every function family for one (dtype, storage class) schema.
Status RegisterSchema(FunctionRegistry* reg, DType dtype, StorageClass sc) {
  const std::string schema = std::string(DTypeSchemaPrefix(dtype)) + "Array" +
                             (sc == StorageClass::kMax ? "Max" : "");
  const bool cpx = IsComplexDType(dtype);
  const bool single = dtype == DType::kComplex64;

  // --- builders ----------------------------------------------------------
  // Vector_N: N elements (complex schemas take re/im pairs, arity 2N).
  for (int n = 1; n <= 8; ++n) {
    int arity = cpx ? 2 * n + 0 : n;
    SQLARRAY_RETURN_IF_ERROR(Reg(
        reg, schema, "Vector_" + std::to_string(n), arity,
        kWorkBuild + 40.0 * n,
        [dtype, sc, n, cpx](std::span<const Value> args,
                            UdfContext&) -> Result<Value> {
          SQLARRAY_ASSIGN_OR_RETURN(
              OwnedArray a, OwnedArray::Zeros(dtype, {n}, sc));
          for (int i = 0; i < n; ++i) {
            if (cpx) {
              SQLARRAY_ASSIGN_OR_RETURN(double re, args[2 * i].AsDouble());
              SQLARRAY_ASSIGN_OR_RETURN(double im, args[2 * i + 1].AsDouble());
              SQLARRAY_RETURN_IF_ERROR(a.SetComplex(i, {re, im}));
            } else {
              SQLARRAY_ASSIGN_OR_RETURN(double v, args[i].AsDouble());
              SQLARRAY_RETURN_IF_ERROR(a.SetDouble(i, v));
            }
          }
          return ValueFromArray(std::move(a));
        }));
  }

  // Matrix_N: an N-by-N matrix from N^2 values in column-major order.
  for (int n = 2; n <= 3; ++n) {
    int elems = n * n;
    int arity = cpx ? 2 * elems : elems;
    SQLARRAY_RETURN_IF_ERROR(Reg(
        reg, schema, "Matrix_" + std::to_string(n), arity,
        kWorkBuild + 40.0 * elems,
        [dtype, sc, n, elems, cpx](std::span<const Value> args,
                                   UdfContext&) -> Result<Value> {
          SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a,
                                    OwnedArray::Zeros(dtype, {n, n}, sc));
          for (int i = 0; i < elems; ++i) {
            if (cpx) {
              SQLARRAY_ASSIGN_OR_RETURN(double re, args[2 * i].AsDouble());
              SQLARRAY_ASSIGN_OR_RETURN(double im, args[2 * i + 1].AsDouble());
              SQLARRAY_RETURN_IF_ERROR(a.SetComplex(i, {re, im}));
            } else {
              SQLARRAY_ASSIGN_OR_RETURN(double v, args[i].AsDouble());
              SQLARRAY_RETURN_IF_ERROR(a.SetDouble(i, v));
            }
          }
          return ValueFromArray(std::move(a));
        }));
  }

  // Create: zero-filled array of the given dimension sizes (variadic).
  SQLARRAY_RETURN_IF_ERROR(Reg(
      reg, schema, "Create", -1, kWorkBuild,
      [dtype, sc](std::span<const Value> args,
                  UdfContext&) -> Result<Value> {
        if (args.empty()) {
          return Status::InvalidArgument("Create needs dimension sizes");
        }
        SQLARRAY_ASSIGN_OR_RETURN(Dims dims, IndexArgs(args, 0, args.size()));
        SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a,
                                  OwnedArray::Zeros(dtype, dims, sc));
        return ValueFromArray(std::move(a));
      }));

  // --- element access ----------------------------------------------------
  for (int n = 1; n <= 6; ++n) {
    // Item_N: real schemas return FLOAT; complex schemas return the complex
    // UDT as its native serialization. A short real array held in the row
    // is read in place, as its column kernel reads it.
    const bool in_place = sc == StorageClass::kShort && !cpx;
    SQLARRAY_RETURN_IF_ERROR(Reg(
        reg, schema, "Item_" + std::to_string(n), n + 1, kWorkItem,
        [dtype, sc, n, cpx, single, in_place](
            std::span<const Value> args, UdfContext& ctx) -> Result<Value> {
          if (in_place && args[0].kind() == Value::Kind::kBytes) {
            int64_t idx[kMaxShortRank];
            for (int d = 0; d < n; ++d) {
              SQLARRAY_ASSIGN_OR_RETURN(idx[d], args[1 + d].AsInt());
            }
            SQLARRAY_ASSIGN_OR_RETURN(
                double v,
                ReadShortItem(*args[0].AsBytes().value(), dtype,
                              {idx, static_cast<size_t>(n)}));
            return Value::Double(v);
          }
          SQLARRAY_ASSIGN_OR_RETURN(ArrayHeader h,
                                    HeaderFromValue(args[0], ctx));
          SQLARRAY_RETURN_IF_ERROR(CheckSchemaMatch(h, dtype, sc));
          SQLARRAY_ASSIGN_OR_RETURN(Dims idx, IndexArgs(args, 1, n));
          if (!cpx) {
            SQLARRAY_ASSIGN_OR_RETURN(double v,
                                      ItemFromValue(args[0], idx, ctx));
            return Value::Double(v);
          }
          SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a,
                                    ArrayFromValue(args[0], ctx));
          SQLARRAY_ASSIGN_OR_RETURN(std::complex<double> v,
                                    ItemComplex(a.ref(), idx));
          return Value::Bytes(EncodeComplexUdt(v, single));
        },
        in_place ? ShortItemKernel(dtype, n) : nullptr));

    // UpdateItem_N: returns a copy with one element replaced.
    SQLARRAY_RETURN_IF_ERROR(Reg(
        reg, schema, "UpdateItem_" + std::to_string(n), n + 2, kWorkUpdate,
        [dtype, sc, n, cpx](std::span<const Value> args,
                            UdfContext& ctx) -> Result<Value> {
          SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a, ArrayFromValue(args[0], ctx));
          SQLARRAY_RETURN_IF_ERROR(CheckSchemaMatch(a.header(), dtype, sc));
          SQLARRAY_ASSIGN_OR_RETURN(Dims idx, IndexArgs(args, 1, n));
          const Value& val = args[n + 1];
          if (cpx && val.kind() == Value::Kind::kBytes) {
            SQLARRAY_ASSIGN_OR_RETURN(const std::vector<uint8_t>* b,
                                      val.AsBytes());
            SQLARRAY_ASSIGN_OR_RETURN(std::complex<double> c,
                                      DecodeComplexUdt(*b));
            SQLARRAY_ASSIGN_OR_RETURN(OwnedArray out,
                                      UpdateItemComplex(a.ref(), idx, c));
            return ValueFromArray(std::move(out));
          }
          SQLARRAY_ASSIGN_OR_RETURN(double v, val.AsDouble());
          SQLARRAY_ASSIGN_OR_RETURN(OwnedArray out,
                                    UpdateItem(a.ref(), idx, v));
          return ValueFromArray(std::move(out));
        }));

    if (cpx) {
      // ItemRe_N / ItemIm_N scalar accessors for complex arrays.
      for (bool re : {true, false}) {
        SQLARRAY_RETURN_IF_ERROR(Reg(
            reg, schema, std::string(re ? "ItemRe_" : "ItemIm_") +
                             std::to_string(n),
            n + 1, kWorkItem,
            [dtype, sc, n, re](std::span<const Value> args,
                               UdfContext& ctx) -> Result<Value> {
              SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a,
                                        ArrayFromValue(args[0], ctx));
              SQLARRAY_RETURN_IF_ERROR(
                  CheckSchemaMatch(a.header(), dtype, sc));
              SQLARRAY_ASSIGN_OR_RETURN(Dims idx, IndexArgs(args, 1, n));
              SQLARRAY_ASSIGN_OR_RETURN(std::complex<double> v,
                                        ItemComplex(a.ref(), idx));
              return Value::Double(re ? v.real() : v.imag());
            }));
      }
    }
  }

  // --- shape -------------------------------------------------------------
  SQLARRAY_RETURN_IF_ERROR(Reg(
      reg, schema, "Rank", 1, kWorkItem,
      [dtype, sc](std::span<const Value> args,
                  UdfContext& ctx) -> Result<Value> {
        SQLARRAY_ASSIGN_OR_RETURN(ArrayHeader h, HeaderFromValue(args[0], ctx));
        SQLARRAY_RETURN_IF_ERROR(CheckSchemaMatch(h, dtype, sc));
        return Value::Int(h.rank());
      }));
  SQLARRAY_RETURN_IF_ERROR(Reg(
      reg, schema, "Length", 1, kWorkItem,
      [dtype, sc](std::span<const Value> args,
                  UdfContext& ctx) -> Result<Value> {
        SQLARRAY_ASSIGN_OR_RETURN(ArrayHeader h, HeaderFromValue(args[0], ctx));
        SQLARRAY_RETURN_IF_ERROR(CheckSchemaMatch(h, dtype, sc));
        return Value::Int(h.num_elements());
      }));
  SQLARRAY_RETURN_IF_ERROR(Reg(
      reg, schema, "DimSize", 2, kWorkItem,
      [dtype, sc](std::span<const Value> args,
                  UdfContext& ctx) -> Result<Value> {
        SQLARRAY_ASSIGN_OR_RETURN(ArrayHeader h, HeaderFromValue(args[0], ctx));
        SQLARRAY_RETURN_IF_ERROR(CheckSchemaMatch(h, dtype, sc));
        SQLARRAY_ASSIGN_OR_RETURN(int64_t k, args[1].AsInt());
        if (k < 0 || k >= h.rank()) {
          return Status::OutOfRange("dimension index out of range");
        }
        return Value::Int(h.dims[k]);
      }));
  SQLARRAY_RETURN_IF_ERROR(Reg(
      reg, schema, "Dims", 1, kWorkItem,
      [dtype, sc](std::span<const Value> args,
                  UdfContext& ctx) -> Result<Value> {
        SQLARRAY_ASSIGN_OR_RETURN(ArrayHeader h, HeaderFromValue(args[0], ctx));
        SQLARRAY_RETURN_IF_ERROR(CheckSchemaMatch(h, dtype, sc));
        SQLARRAY_ASSIGN_OR_RETURN(
            OwnedArray dims,
            OwnedArray::Zeros(DType::kInt32,
                              {static_cast<int64_t>(h.dims.size())}));
        for (size_t i = 0; i < h.dims.size(); ++i) {
          SQLARRAY_RETURN_IF_ERROR(dims.SetDouble(
              static_cast<int64_t>(i), static_cast<double>(h.dims[i])));
        }
        return ValueFromArray(std::move(dims));
      }));

  // --- subsetting / reshaping -------------------------------------------
  SQLARRAY_RETURN_IF_ERROR(Reg(
      reg, schema, "Subarray", 4, kWorkSubarray,
      [dtype, sc](std::span<const Value> args,
                  UdfContext& ctx) -> Result<Value> {
        SQLARRAY_ASSIGN_OR_RETURN(ArrayHeader h, HeaderFromValue(args[0], ctx));
        SQLARRAY_RETURN_IF_ERROR(CheckSchemaMatch(h, dtype, sc));
        SQLARRAY_ASSIGN_OR_RETURN(Dims offset, DimsFromValue(args[1], ctx));
        SQLARRAY_ASSIGN_OR_RETURN(Dims sizes, DimsFromValue(args[2], ctx));
        SQLARRAY_ASSIGN_OR_RETURN(int64_t collapse, args[3].AsInt());
        SQLARRAY_ASSIGN_OR_RETURN(
            OwnedArray out,
            SubarrayFromValue(args[0], offset, sizes, collapse != 0, ctx));
        return ValueFromArray(std::move(out));
      }));

  SQLARRAY_RETURN_IF_ERROR(Reg(
      reg, schema, "Reshape", 2, kWorkSubarray,
      [dtype, sc](std::span<const Value> args,
                  UdfContext& ctx) -> Result<Value> {
        SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a, ArrayFromValue(args[0], ctx));
        SQLARRAY_RETURN_IF_ERROR(CheckSchemaMatch(a.header(), dtype, sc));
        SQLARRAY_ASSIGN_OR_RETURN(Dims dims, DimsFromValue(args[1], ctx));
        SQLARRAY_ASSIGN_OR_RETURN(OwnedArray out,
                                  Reshape(a.ref(), std::move(dims)));
        return ValueFromArray(std::move(out));
      }));

  // --- transforms ----------------------------------------------------------
  SQLARRAY_RETURN_IF_ERROR(Reg(
      reg, schema, "Transpose", 1, kWorkSubarray,
      [dtype, sc](std::span<const Value> args,
                  UdfContext& ctx) -> Result<Value> {
        SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a, ArrayFromValue(args[0], ctx));
        SQLARRAY_RETURN_IF_ERROR(CheckSchemaMatch(a.header(), dtype, sc));
        SQLARRAY_ASSIGN_OR_RETURN(OwnedArray out, Transpose(a.ref()));
        return ValueFromArray(std::move(out));
      }));
  SQLARRAY_RETURN_IF_ERROR(Reg(
      reg, schema, "Permute", 2, kWorkSubarray,
      [dtype, sc](std::span<const Value> args,
                  UdfContext& ctx) -> Result<Value> {
        SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a, ArrayFromValue(args[0], ctx));
        SQLARRAY_RETURN_IF_ERROR(CheckSchemaMatch(a.header(), dtype, sc));
        SQLARRAY_ASSIGN_OR_RETURN(Dims perm64, DimsFromValue(args[1], ctx));
        std::vector<int> perm(perm64.begin(), perm64.end());
        SQLARRAY_ASSIGN_OR_RETURN(OwnedArray out,
                                  PermuteAxes(a.ref(), perm));
        return ValueFromArray(std::move(out));
      }));
  SQLARRAY_RETURN_IF_ERROR(Reg(
      reg, schema, "ConcatAxis", 3, kWorkSubarray,
      [dtype, sc](std::span<const Value> args,
                  UdfContext& ctx) -> Result<Value> {
        SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a, ArrayFromValue(args[0], ctx));
        SQLARRAY_RETURN_IF_ERROR(CheckSchemaMatch(a.header(), dtype, sc));
        SQLARRAY_ASSIGN_OR_RETURN(OwnedArray b, ArrayFromValue(args[1], ctx));
        SQLARRAY_ASSIGN_OR_RETURN(int64_t axis, args[2].AsInt());
        SQLARRAY_ASSIGN_OR_RETURN(
            OwnedArray out,
            ConcatAxis(a.ref(), b.ref(), static_cast<int>(axis)));
        return ValueFromArray(std::move(out));
      }));

  // --- raw bridging ------------------------------------------------------
  SQLARRAY_RETURN_IF_ERROR(Reg(
      reg, schema, "Cast", 2, kWorkConvert,
      [dtype](std::span<const Value> args, UdfContext& ctx) -> Result<Value> {
        SQLARRAY_ASSIGN_OR_RETURN(std::vector<uint8_t> raw,
                                  args[0].MaterializeBytes());
        SQLARRAY_ASSIGN_OR_RETURN(Dims dims, DimsFromValue(args[1], ctx));
        SQLARRAY_ASSIGN_OR_RETURN(OwnedArray out,
                                  CastFromRaw(dtype, std::move(dims), raw));
        return ValueFromArray(std::move(out));
      }));
  SQLARRAY_RETURN_IF_ERROR(Reg(
      reg, schema, "Raw", 1, kWorkConvert,
      [dtype, sc](std::span<const Value> args,
                  UdfContext& ctx) -> Result<Value> {
        SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a, ArrayFromValue(args[0], ctx));
        SQLARRAY_RETURN_IF_ERROR(CheckSchemaMatch(a.header(), dtype, sc));
        SQLARRAY_ASSIGN_OR_RETURN(std::vector<uint8_t> raw, Raw(a.ref()));
        return Value::Bytes(std::move(raw));
      }));

  // --- conversions -------------------------------------------------------
  // From: converts any array (any dtype, any class) into this schema's
  // dtype and storage class.
  SQLARRAY_RETURN_IF_ERROR(Reg(
      reg, schema, "From", 1, kWorkConvert,
      [dtype, sc](std::span<const Value> args,
                  UdfContext& ctx) -> Result<Value> {
        SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a, ArrayFromValue(args[0], ctx));
        SQLARRAY_ASSIGN_OR_RETURN(OwnedArray conv,
                                  ConvertDType(a.ref(), dtype));
        SQLARRAY_ASSIGN_OR_RETURN(OwnedArray out,
                                  ConvertStorage(conv.ref(), sc));
        return ValueFromArray(std::move(out));
      }));

  SQLARRAY_RETURN_IF_ERROR(Reg(
      reg, schema, "ToString", 1, kWorkConvert,
      [dtype, sc](std::span<const Value> args,
                  UdfContext& ctx) -> Result<Value> {
        SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a, ArrayFromValue(args[0], ctx));
        SQLARRAY_RETURN_IF_ERROR(CheckSchemaMatch(a.header(), dtype, sc));
        return Value::Str(ToArrayString(a.ref()));
      }));
  SQLARRAY_RETURN_IF_ERROR(Reg(
      reg, schema, "FromString", 1, kWorkConvert,
      [dtype, sc](std::span<const Value> args,
                  UdfContext& ctx) -> Result<Value> {
        (void)ctx;
        SQLARRAY_ASSIGN_OR_RETURN(std::string text, args[0].AsString());
        SQLARRAY_ASSIGN_OR_RETURN(OwnedArray parsed, FromArrayString(text));
        SQLARRAY_ASSIGN_OR_RETURN(OwnedArray conv,
                                  ConvertDType(parsed.ref(), dtype));
        SQLARRAY_ASSIGN_OR_RETURN(OwnedArray out,
                                  ConvertStorage(conv.ref(), sc));
        return ValueFromArray(std::move(out));
      }));

  // --- aggregates over the array ----------------------------------------
  struct AggDef {
    const char* name;
    AggKind kind;
  };
  for (const AggDef& def :
       {AggDef{"SumAll", AggKind::kSum}, AggDef{"MinAll", AggKind::kMin},
        AggDef{"MaxAll", AggKind::kMax}, AggDef{"MeanAll", AggKind::kMean},
        AggDef{"StdAll", AggKind::kStd}}) {
    AggKind kind = def.kind;
    SQLARRAY_RETURN_IF_ERROR(Reg(
        reg, schema, def.name, 1, kWorkAggregate,
        [dtype, sc, kind, cpx, single](std::span<const Value> args,
                                       UdfContext& ctx) -> Result<Value> {
          SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a,
                                    ArrayFromValue(args[0], ctx));
          SQLARRAY_RETURN_IF_ERROR(CheckSchemaMatch(a.header(), dtype, sc));
          if (cpx) {
            SQLARRAY_ASSIGN_OR_RETURN(std::complex<double> v,
                                      AggregateAllComplex(a.ref(), kind));
            return Value::Bytes(EncodeComplexUdt(v, single));
          }
          SQLARRAY_ASSIGN_OR_RETURN(double v, AggregateAll(a.ref(), kind));
          return Value::Double(v);
        }));
  }
  for (const AggDef& def :
       {AggDef{"SumAxis", AggKind::kSum}, AggDef{"MeanAxis", AggKind::kMean},
        AggDef{"MinAxis", AggKind::kMin}, AggDef{"MaxAxis", AggKind::kMax}}) {
    AggKind kind = def.kind;
    SQLARRAY_RETURN_IF_ERROR(Reg(
        reg, schema, def.name, 2, kWorkAggregate,
        [dtype, sc, kind](std::span<const Value> args,
                          UdfContext& ctx) -> Result<Value> {
          SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a,
                                    ArrayFromValue(args[0], ctx));
          SQLARRAY_RETURN_IF_ERROR(CheckSchemaMatch(a.header(), dtype, sc));
          SQLARRAY_ASSIGN_OR_RETURN(int64_t axis, args[1].AsInt());
          SQLARRAY_ASSIGN_OR_RETURN(
              OwnedArray out,
              AggregateAxis(a.ref(), static_cast<int>(axis), kind));
          return ValueFromArray(std::move(out));
        }));
  }

  // --- element-wise arithmetic ------------------------------------------
  struct BinDef {
    const char* name;
    BinOp op;
  };
  for (const BinDef& def : {BinDef{"Add", BinOp::kAdd},
                            BinDef{"Sub", BinOp::kSub},
                            BinDef{"Mul", BinOp::kMul},
                            BinDef{"Div", BinOp::kDiv}}) {
    BinOp op = def.op;
    SQLARRAY_RETURN_IF_ERROR(Reg(
        reg, schema, def.name, 2, kWorkAggregate,
        [dtype, sc, op](std::span<const Value> args,
                        UdfContext& ctx) -> Result<Value> {
          SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a, ArrayFromValue(args[0], ctx));
          SQLARRAY_RETURN_IF_ERROR(CheckSchemaMatch(a.header(), dtype, sc));
          SQLARRAY_ASSIGN_OR_RETURN(OwnedArray b, ArrayFromValue(args[1], ctx));
          SQLARRAY_ASSIGN_OR_RETURN(OwnedArray out,
                                    ElementwiseBinary(a.ref(), b.ref(), op));
          return ValueFromArray(std::move(out));
        }));
  }
  SQLARRAY_RETURN_IF_ERROR(Reg(
      reg, schema, "Scale", 2, kWorkAggregate,
      [dtype, sc](std::span<const Value> args,
                  UdfContext& ctx) -> Result<Value> {
        SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a, ArrayFromValue(args[0], ctx));
        SQLARRAY_RETURN_IF_ERROR(CheckSchemaMatch(a.header(), dtype, sc));
        SQLARRAY_ASSIGN_OR_RETURN(double s, args[1].AsDouble());
        SQLARRAY_ASSIGN_OR_RETURN(OwnedArray out,
                                  ElementwiseScalar(a.ref(), s, BinOp::kMul));
        return ValueFromArray(std::move(out));
      }));
  if (!cpx) {
    SQLARRAY_RETURN_IF_ERROR(Reg(
        reg, schema, "Dot", 2, kWorkAggregate,
        [dtype, sc](std::span<const Value> args,
                    UdfContext& ctx) -> Result<Value> {
          SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a, ArrayFromValue(args[0], ctx));
          SQLARRAY_RETURN_IF_ERROR(CheckSchemaMatch(a.header(), dtype, sc));
          SQLARRAY_ASSIGN_OR_RETURN(OwnedArray b, ArrayFromValue(args[1], ctx));
          SQLARRAY_ASSIGN_OR_RETURN(std::complex<double> v,
                                    Dot(a.ref(), b.ref()));
          return Value::Double(v.real());
        }));
  }
  SQLARRAY_RETURN_IF_ERROR(Reg(
      reg, schema, "Norm", 1, kWorkAggregate,
      [dtype, sc](std::span<const Value> args,
                  UdfContext& ctx) -> Result<Value> {
        SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a, ArrayFromValue(args[0], ctx));
        SQLARRAY_RETURN_IF_ERROR(CheckSchemaMatch(a.header(), dtype, sc));
        SQLARRAY_ASSIGN_OR_RETURN(double v, Norm2(a.ref()));
        return Value::Double(v);
      }));

  return Status::OK();
}

/// Scalar complex UDT helpers under "Complex"/"DoubleComplex" schemas.
Status RegisterComplexUdt(FunctionRegistry* reg, bool single) {
  const std::string schema = single ? "Complex" : "DoubleComplex";
  SQLARRAY_RETURN_IF_ERROR(Reg(
      reg, schema, "Make", 2, kWorkItem,
      [single](std::span<const Value> args, UdfContext&) -> Result<Value> {
        SQLARRAY_ASSIGN_OR_RETURN(double re, args[0].AsDouble());
        SQLARRAY_ASSIGN_OR_RETURN(double im, args[1].AsDouble());
        return Value::Bytes(EncodeComplexUdt({re, im}, single));
      }));
  for (bool re : {true, false}) {
    SQLARRAY_RETURN_IF_ERROR(Reg(
        reg, schema, re ? "Re" : "Im", 1, kWorkItem,
        [re](std::span<const Value> args, UdfContext&) -> Result<Value> {
          SQLARRAY_ASSIGN_OR_RETURN(const std::vector<uint8_t>* b,
                                    args[0].AsBytes());
          SQLARRAY_ASSIGN_OR_RETURN(std::complex<double> v,
                                    DecodeComplexUdt(*b));
          return Value::Double(re ? v.real() : v.imag());
        }));
  }
  SQLARRAY_RETURN_IF_ERROR(Reg(
      reg, schema, "Abs", 1, kWorkItem,
      [](std::span<const Value> args, UdfContext&) -> Result<Value> {
        SQLARRAY_ASSIGN_OR_RETURN(const std::vector<uint8_t>* b,
                                  args[0].AsBytes());
        SQLARRAY_ASSIGN_OR_RETURN(std::complex<double> v,
                                  DecodeComplexUdt(*b));
        return Value::Double(std::abs(v));
      }));
  return Status::OK();
}

}  // namespace

Status RegisterArraySchemas(FunctionRegistry* registry) {
  for (int d = 0; d < kNumDTypes; ++d) {
    DType dtype = static_cast<DType>(d);
    SQLARRAY_RETURN_IF_ERROR(
        RegisterSchema(registry, dtype, StorageClass::kShort));
    SQLARRAY_RETURN_IF_ERROR(
        RegisterSchema(registry, dtype, StorageClass::kMax));
  }
  SQLARRAY_RETURN_IF_ERROR(RegisterComplexUdt(registry, true));
  SQLARRAY_RETURN_IF_ERROR(RegisterComplexUdt(registry, false));
  return Status::OK();
}

}  // namespace sqlarray::udfs
