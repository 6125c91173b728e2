#include <string>

#include "core/build.h"
#include "core/ops.h"
#include "udfs/helpers.h"
#include "udfs/register.h"

namespace sqlarray::udfs {

namespace {

using engine::FunctionRegistry;

/// Rough managed-work cost constants (ns/call) for the modeled CLR host,
/// scaled around the paper's measured Item cost.
constexpr double kWorkItem = 500;
constexpr double kWorkUpdate = 800;
constexpr double kWorkBuild = 400;
constexpr double kWorkSubarray = 1200;
constexpr double kWorkConvert = 1500;
constexpr double kWorkAggregate = 1000;

/// Calls f.template operator()<N>() for N = 1 .. kCount: a family whose
/// arity grows with N.
template <int kCount, typename F>
void ForEachN(F&& f) {
  [&]<int... N>(std::integer_sequence<int, N...>) {
    (f.template operator()<N + 1>(), ...);
  }(std::make_integer_sequence<int, kCount>());
}

/// Registers every function family for one (dtype, storage class) schema.
Status RegisterSchema(FunctionRegistry* reg, DType dtype, StorageClass sc) {
  Definer def(reg, Schema{std::string(DTypeSchemaPrefix(dtype)) + "Array" +
                              (sc == StorageClass::kMax ? "Max" : ""),
                          dtype, sc});
  const bool cpx = IsComplexDType(dtype);
  const bool single = dtype == DType::kComplex64;

  // --- builders ----------------------------------------------------------
  // Vector_N and Matrix_N: a vector of N or an N-by-N matrix (column-major)
  // from its elements; complex schemas take re/im pairs.
  auto builder = [&]<int kElems>(std::string name, Dims dims) {
    auto make = [=](std::span<const double> v) -> Result<OwnedArray> {
      SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a,
                                OwnedArray::Zeros(dtype, dims, sc));
      for (int i = 0; i < kElems; ++i) {
        SQLARRAY_RETURN_IF_ERROR(cpx ? a.SetComplex(i, {v[2 * i], v[2 * i + 1]})
                                     : a.SetDouble(i, v[i]));
      }
      return a;
    };
    const double work = kWorkBuild + 40.0 * kElems;
    if (cpx) {
      def(name, work,
          [make](std::array<double, 2 * kElems> v) { return make(v); });
    } else {
      def(name, work, [make](std::array<double, kElems> v) { return make(v); });
    }
  };
  ForEachN<8>([&]<int N>() {
    builder.template operator()<N>("Vector_" + std::to_string(N), {N});
  });
  builder.template operator()<4>("Matrix_2", {2, 2});
  builder.template operator()<9>("Matrix_3", {3, 3});

  // Create: zero-filled array of the given dimension sizes (variadic).
  def("Create", kWorkBuild, [dtype, sc](RowArgs args) -> Result<OwnedArray> {
    if (args.size() == 0) {
      return Status::InvalidArgument("Create needs dimension sizes");
    }
    Dims dims(args.size());
    for (size_t k = 0; k < dims.size(); ++k) {
      SQLARRAY_ASSIGN_OR_RETURN(dims[k], args[k].AsInt());
    }
    return OwnedArray::Zeros(dtype, std::move(dims), sc);
  });

  // --- element access ----------------------------------------------------
  ForEachN<kMaxShortRank>([&]<int N>() {
    using Index = std::array<int64_t, N>;
    const std::string n = std::to_string(N);
    // Item_N: real schemas return FLOAT, a short array held in the row read
    // in place; complex schemas return the complex UDT as its native
    // serialization.
    if (!cpx && sc == StorageClass::kShort) {
      def("Item_" + n, kWorkItem,
          [](ShortArray a, Index i) -> Result<double> { return a.Item(i); });
    } else if (!cpx) {
      def("Item_" + n, kWorkItem,
          [](const ArrayArg& a, Index i) -> Result<double> {
            return a.Item(i);
          });
    } else {
      def("Item_" + n, kWorkItem,
          [single](const ArrayArg& a,
                   Index i) -> Result<std::vector<uint8_t>> {
            SQLARRAY_ASSIGN_OR_RETURN(OwnedArray whole, a.Whole());
            SQLARRAY_ASSIGN_OR_RETURN(std::complex<double> v,
                                      ItemComplex(whole.ref(), i));
            return EncodeComplexUdt(v, single);
          });
      // ItemRe_N / ItemIm_N scalar accessors for complex arrays.
      for (bool re : {true, false}) {
        def(std::string(re ? "ItemRe_" : "ItemIm_") + n, kWorkItem,
            [re](const SchemaArray& a, Index i) -> Result<double> {
              SQLARRAY_ASSIGN_OR_RETURN(std::complex<double> v,
                                        ItemComplex(a, i));
              return re ? v.real() : v.imag();
            });
      }
    }

    // UpdateItem_N: returns a copy with one element replaced.
    if (cpx) {
      // The value is a complex UDT, or a number as its real part.
      def("UpdateItem_" + n, kWorkUpdate,
          [](const SchemaArray& a, Index i,
             const Value& v) -> Result<OwnedArray> {
            std::complex<double> c;
            if (v.kind() == Value::Kind::kBytes) {
              SQLARRAY_ASSIGN_OR_RETURN(c,
                                        DecodeComplexUdt(*v.AsBytes().value()));
            } else {
              SQLARRAY_ASSIGN_OR_RETURN(c, v.AsDouble());
            }
            return UpdateItemComplex(a, i, c);
          });
    } else {
      def("UpdateItem_" + n, kWorkUpdate,
          [](const SchemaArray& a, Index i, double v) {
            return UpdateItem(a, i, v);
          });
    }
  });

  // --- shape -------------------------------------------------------------
  DefineShape(def, kWorkItem);
  def("Dims", kWorkItem, [](const ArrayArg& a) {
    const std::vector<int32_t> dims(a.header.dims.begin(),
                                    a.header.dims.end());
    return OwnedArray::FromVector<int32_t>(dims);
  });

  // --- subsetting / reshaping -------------------------------------------
  def("Subarray", kWorkSubarray,
      [](const ArrayArg& a, Dims offset, Dims sizes, int64_t collapse) {
        return a.Subarray(offset, sizes, collapse != 0);
      });
  def("Reshape", kWorkSubarray, [](const SchemaArray& a, Dims dims) {
    return Reshape(a, std::move(dims));
  });

  // --- transforms ----------------------------------------------------------
  def("Transpose", kWorkSubarray,
      [](const SchemaArray& a) { return Transpose(a); });
  def("Permute", kWorkSubarray, [](const SchemaArray& a, Dims perm) {
    return PermuteAxes(a, perm);
  });
  def("ConcatAxis", kWorkSubarray,
      [](const SchemaArray& a, const ArrayRef& b, int64_t axis) {
        return ConcatAxis(a, b, axis);
      });

  // --- raw bridging ------------------------------------------------------
  def("Cast", kWorkConvert, [dtype](std::vector<uint8_t> raw, Dims dims) {
    return CastFromRaw(dtype, std::move(dims), raw);
  });
  def("Raw", kWorkConvert, [](const SchemaArray& a) { return Raw(a); });

  // --- conversions -------------------------------------------------------
  // From: converts any array (any dtype, any class) into this schema's
  // dtype and storage class.
  auto convert = [dtype, sc](const ArrayRef& a) -> Result<OwnedArray> {
    SQLARRAY_ASSIGN_OR_RETURN(OwnedArray conv, ConvertDType(a, dtype));
    return ConvertStorage(conv.ref(), sc);
  };
  def("From", kWorkConvert, convert);
  def("ToString", kWorkConvert,
      [](const SchemaArray& a) -> Result<std::string> {
        return ToArrayString(a);
      });
  def("FromString", kWorkConvert,
      [convert](std::string text) -> Result<OwnedArray> {
        SQLARRAY_ASSIGN_OR_RETURN(OwnedArray parsed, FromArrayString(text));
        return convert(parsed.ref());
      });

  // --- aggregates over the array ----------------------------------------
  struct AggDef {
    const char* name;
    AggKind kind;
  };
  for (const AggDef& agg :
       {AggDef{"SumAll", AggKind::kSum}, AggDef{"MinAll", AggKind::kMin},
        AggDef{"MaxAll", AggKind::kMax}, AggDef{"MeanAll", AggKind::kMean},
        AggDef{"StdAll", AggKind::kStd}}) {
    const AggKind kind = agg.kind;
    if (cpx) {
      def(agg.name, kWorkAggregate,
          [kind, single](const SchemaArray& a) -> Result<std::vector<uint8_t>> {
            SQLARRAY_ASSIGN_OR_RETURN(std::complex<double> v,
                                      AggregateAllComplex(a, kind));
            return EncodeComplexUdt(v, single);
          });
    } else {
      def(agg.name, kWorkAggregate, [kind](const SchemaArray& a) {
        return AggregateAll(a, kind);
      });
    }
  }
  for (const AggDef& agg :
       {AggDef{"SumAxis", AggKind::kSum}, AggDef{"MeanAxis", AggKind::kMean},
        AggDef{"MinAxis", AggKind::kMin}, AggDef{"MaxAxis", AggKind::kMax}}) {
    const AggKind kind = agg.kind;
    def(agg.name, kWorkAggregate, [kind](const SchemaArray& a, int64_t axis) {
      return AggregateAxis(a, axis, kind);
    });
  }

  // --- element-wise arithmetic ------------------------------------------
  struct BinDef {
    const char* name;
    BinOp op;
  };
  for (const BinDef& bin : {BinDef{"Add", BinOp::kAdd},
                            BinDef{"Sub", BinOp::kSub},
                            BinDef{"Mul", BinOp::kMul},
                            BinDef{"Div", BinOp::kDiv}}) {
    const BinOp op = bin.op;
    def(bin.name, kWorkAggregate,
        [op](const SchemaArray& a, const ArrayRef& b) {
          return ElementwiseBinary(a, b, op);
        });
  }
  def("Scale", kWorkAggregate, [](const SchemaArray& a, double s) {
    return ElementwiseScalar(a, s, BinOp::kMul);
  });
  if (!cpx) {
    def("Dot", kWorkAggregate,
        [](const SchemaArray& a, const ArrayRef& b) -> Result<double> {
          SQLARRAY_ASSIGN_OR_RETURN(std::complex<double> v, Dot(a, b));
          return v.real();
        });
  }
  def("Norm", kWorkAggregate, [](const SchemaArray& a) { return Norm2(a); });
  return def.status();
}

/// Scalar complex UDT helpers under "Complex"/"DoubleComplex" schemas.
Status RegisterComplexUdt(FunctionRegistry* reg, bool single) {
  Definer def(reg, Schema{single ? "Complex" : "DoubleComplex"});
  def("Make", kWorkItem,
      [single](double re, double im) -> Result<std::vector<uint8_t>> {
        return EncodeComplexUdt({re, im}, single);
      });
  for (bool re : {true, false}) {
    def(re ? "Re" : "Im", kWorkItem,
        [re](std::span<const uint8_t> b) -> Result<double> {
          SQLARRAY_ASSIGN_OR_RETURN(std::complex<double> v,
                                    DecodeComplexUdt(b));
          return re ? v.real() : v.imag();
        });
  }
  def("Abs", kWorkItem, [](std::span<const uint8_t> b) -> Result<double> {
    SQLARRAY_ASSIGN_OR_RETURN(std::complex<double> v, DecodeComplexUdt(b));
    return std::abs(v);
  });
  return def.status();
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
