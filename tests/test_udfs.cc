// Tests for the registered UDF surface: per-schema functions across dtypes
// and storage classes, generic Array.* dispatch, math bindings, aggregates.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/ops.h"
#include "engine/exec.h"
#include "math/svd.h"
#include "sql/session.h"
#include "storage/table.h"
#include "udfs/helpers.h"
#include "udfs/register.h"

namespace sqlarray::udfs {
namespace {

using engine::FunctionRegistry;
using engine::ScalarFunction;
using engine::UdfContext;
using engine::Value;

class UdfTest : public ::testing::Test {
 protected:
  UdfTest() {
    EXPECT_TRUE(RegisterAllUdfs(&registry_).ok());
  }

  /// Invokes a registered scalar UDF directly.
  Result<Value> Call(const std::string& schema, const std::string& name,
                     std::vector<Value> args) {
    auto fn_or = registry_.Resolve(schema, name, static_cast<int>(args.size()));
    if (!fn_or.ok()) return fn_or.status();
    UdfContext ctx;
    return FunctionRegistry::Invoke(**fn_or, args, ctx);
  }

  Value CallOk(const std::string& schema, const std::string& name,
               std::vector<Value> args) {
    auto v = Call(schema, name, std::move(args));
    EXPECT_TRUE(v.ok()) << schema << "." << name << ": "
                        << v.status().ToString();
    return v.ok() ? std::move(v).value() : Value::Null();
  }

  OwnedArray AsArray(const Value& v) {
    return OwnedArray::FromBlob(v.MaterializeBytes().value()).value();
  }

  FunctionRegistry registry_;
};

TEST_F(UdfTest, CatalogIsComplete) {
  // Every dtype has both storage-class schemas with the core families.
  for (int d = 0; d < kNumDTypes; ++d) {
    DType t = static_cast<DType>(d);
    for (const char* suffix : {"", "Max"}) {
      std::string schema =
          std::string(DTypeSchemaPrefix(t)) + "Array" + suffix;
      for (const char* fn : {"Vector_1", "Vector_8", "Item_1", "Item_6",
                             "UpdateItem_1", "Subarray", "Reshape", "Rank",
                             "Length", "DimSize", "Dims", "Cast", "Raw",
                             "From", "ToString", "FromString", "SumAll",
                             "Create"}) {
        EXPECT_TRUE(registry_.HasScalar(schema, fn))
            << schema << "." << fn;
      }
    }
  }
  // Hundreds of functions in total, as the paper laments ("the enormous
  // number of individual functions").
  EXPECT_GT(registry_.scalar_count(), 500);
}

TEST_F(UdfTest, VectorBuilderPerDType) {
  for (DType t : {DType::kInt8, DType::kInt16, DType::kInt32, DType::kInt64,
                  DType::kFloat32, DType::kFloat64}) {
    std::string schema = std::string(DTypeSchemaPrefix(t)) + "Array";
    Value v = CallOk(schema, "Vector_3",
                     {Value::Int(1), Value::Int(2), Value::Int(3)});
    OwnedArray a = AsArray(v);
    EXPECT_EQ(a.dtype(), t);
    EXPECT_EQ(a.storage(), StorageClass::kShort);
    EXPECT_EQ(a.ref().GetDouble(1).value(), 2.0);
  }
}

TEST_F(UdfTest, MaxSchemaBuildsMaxArrays) {
  Value v = CallOk("FloatArrayMax", "Vector_2",
                   {Value::Double(1), Value::Double(2)});
  EXPECT_EQ(AsArray(v).storage(), StorageClass::kMax);
}

TEST_F(UdfTest, ComplexVectorTakesPairs) {
  Value v = CallOk("DoubleComplexArray", "Vector_2",
                   {Value::Double(1), Value::Double(2), Value::Double(3),
                    Value::Double(4)});
  OwnedArray a = AsArray(v);
  EXPECT_EQ(a.dtype(), DType::kComplex128);
  EXPECT_EQ(a.ref().GetComplex(1).value(), std::complex<double>(3, 4));

  // Item returns the complex UDT; ItemRe/ItemIm return scalars.
  Value item = CallOk("DoubleComplexArray", "Item_1", {v, Value::Int(1)});
  EXPECT_EQ(DecodeComplexUdt(*item.AsBytes().value()).value(),
            std::complex<double>(3, 4));
  EXPECT_EQ(CallOk("DoubleComplexArray", "ItemRe_1", {v, Value::Int(0)})
                .AsDouble()
                .value(),
            1.0);
  EXPECT_EQ(CallOk("DoubleComplexArray", "ItemIm_1", {v, Value::Int(1)})
                .AsDouble()
                .value(),
            4.0);
}

TEST_F(UdfTest, ComplexScalarUdtHelpers) {
  Value c = CallOk("DoubleComplex", "Make", {Value::Double(3),
                                             Value::Double(-4)});
  EXPECT_EQ(CallOk("DoubleComplex", "Re", {c}).AsDouble().value(), 3.0);
  EXPECT_EQ(CallOk("DoubleComplex", "Im", {c}).AsDouble().value(), -4.0);
  EXPECT_EQ(CallOk("DoubleComplex", "Abs", {c}).AsDouble().value(), 5.0);
}

TEST_F(UdfTest, TypeMismatchRejected) {
  Value float_vec = CallOk("FloatArray", "Vector_2",
                           {Value::Double(1), Value::Double(2)});
  EXPECT_FALSE(Call("IntArray", "Item_1", {float_vec, Value::Int(0)}).ok());
  EXPECT_FALSE(
      Call("FloatArrayMax", "Item_1", {float_vec, Value::Int(0)}).ok());
  EXPECT_FALSE(Call("IntArray", "Rank", {float_vec}).ok());
}

TEST_F(UdfTest, ShapeIntrospection) {
  Value dims = CallOk("IntArray", "Vector_2", {Value::Int(3), Value::Int(4)});
  Value m = CallOk("FloatArray", "Create", {Value::Int(3), Value::Int(4)});
  EXPECT_EQ(CallOk("FloatArray", "Rank", {m}).AsInt().value(), 2);
  EXPECT_EQ(CallOk("FloatArray", "Length", {m}).AsInt().value(), 12);
  EXPECT_EQ(CallOk("FloatArray", "DimSize", {m, Value::Int(1)})
                .AsInt().value(),
            4);
  OwnedArray d = AsArray(CallOk("FloatArray", "Dims", {m}));
  EXPECT_EQ(d.ref().GetDouble(0).value(), 3.0);
  EXPECT_EQ(d.ref().GetDouble(1).value(), 4.0);
  EXPECT_FALSE(Call("FloatArray", "DimSize", {m, Value::Int(2)}).ok());
  (void)dims;
}

TEST_F(UdfTest, CastRawRoundTripViaUdfs) {
  Value v = CallOk("FloatArray", "Vector_3",
                   {Value::Double(1), Value::Double(2), Value::Double(3)});
  Value raw = CallOk("FloatArray", "Raw", {v});
  EXPECT_EQ(raw.AsBytes().value()->size(), 24u);
  Value dims = CallOk("IntArray", "Vector_1", {Value::Int(3)});
  Value back = CallOk("FloatArray", "Cast", {raw, dims});
  EXPECT_EQ(AsArray(back).ref().GetDouble(2).value(), 3.0);
}

TEST_F(UdfTest, FromConvertsDTypeAndClass) {
  Value iv = CallOk("IntArray", "Vector_2", {Value::Int(5), Value::Int(6)});
  Value fv = CallOk("FloatArrayMax", "From", {iv});
  OwnedArray a = AsArray(fv);
  EXPECT_EQ(a.dtype(), DType::kFloat64);
  EXPECT_EQ(a.storage(), StorageClass::kMax);
  EXPECT_EQ(a.ref().GetDouble(1).value(), 6.0);
}

TEST_F(UdfTest, StringRoundTripViaUdfs) {
  Value v = CallOk("FloatArray", "Vector_2",
                   {Value::Double(1.5), Value::Double(-2.5)});
  Value s = CallOk("FloatArray", "ToString", {v});
  Value back = CallOk("FloatArray", "FromString", {s});
  EXPECT_EQ(AsArray(back).ref().GetDouble(1).value(), -2.5);
}

TEST_F(UdfTest, AggregatesAndArithmetic) {
  Value v = CallOk("FloatArray", "Vector_4",
                   {Value::Double(1), Value::Double(2), Value::Double(3),
                    Value::Double(4)});
  EXPECT_EQ(CallOk("FloatArray", "SumAll", {v}).AsDouble().value(), 10.0);
  EXPECT_EQ(CallOk("FloatArray", "MeanAll", {v}).AsDouble().value(), 2.5);
  EXPECT_EQ(CallOk("FloatArray", "MaxAll", {v}).AsDouble().value(), 4.0);
  Value w = CallOk("FloatArray", "Scale", {v, Value::Double(2)});
  EXPECT_EQ(CallOk("FloatArray", "SumAll", {w}).AsDouble().value(), 20.0);
  Value sum = CallOk("FloatArray", "Add", {v, v});
  EXPECT_EQ(AsArray(sum).ref().GetDouble(3).value(), 8.0);
  EXPECT_EQ(CallOk("FloatArray", "Dot", {v, v}).AsDouble().value(), 30.0);
  EXPECT_NEAR(CallOk("FloatArray", "Norm", {v}).AsDouble().value(),
              std::sqrt(30.0), 1e-12);
}

TEST_F(UdfTest, AxisAggregateUdf) {
  // 2x3 matrix 1..6 column-major; SumAxis(0) gives column sums.
  Value m = CallOk("FloatArray", "Create", {Value::Int(2), Value::Int(3)});
  OwnedArray ma = AsArray(m);
  for (int64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(ma.SetDouble(i, static_cast<double>(i + 1)).ok());
  }
  Value filled = Value::Bytes(std::vector<uint8_t>(ma.blob().begin(),
                                                   ma.blob().end()));
  OwnedArray sums = AsArray(CallOk("FloatArray", "SumAxis",
                                   {filled, Value::Int(0)}));
  EXPECT_EQ(sums.dims(), (Dims{3}));
  EXPECT_EQ(sums.ref().GetDouble(0).value(), 3.0);
  EXPECT_EQ(sums.ref().GetDouble(2).value(), 11.0);
}

TEST_F(UdfTest, TransposeAndConcatAxisUdfs) {
  Value m = CallOk("FloatArray", "Matrix_2",
                   {Value::Double(1), Value::Double(2), Value::Double(3),
                    Value::Double(4)});
  OwnedArray t = AsArray(CallOk("FloatArray", "Transpose", {m}));
  EXPECT_EQ(t.ref().GetDoubleAt(Dims{0, 1}).value(), 2.0);

  Value a = CallOk("FloatArray", "Vector_2", {Value::Double(1),
                                              Value::Double(2)});
  Value b = CallOk("FloatArray", "Vector_2", {Value::Double(3),
                                              Value::Double(4)});
  OwnedArray ab = AsArray(CallOk("FloatArray", "ConcatAxis",
                                 {a, b, Value::Int(0)}));
  EXPECT_EQ(ab.dims(), (Dims{4}));
  EXPECT_EQ(ab.ref().GetDouble(3).value(), 4.0);

  Value perm = CallOk("IntArray", "Vector_2", {Value::Int(1), Value::Int(0)});
  OwnedArray p = AsArray(CallOk("FloatArray", "Permute", {m, perm}));
  EXPECT_EQ(p.ref().GetDoubleAt(Dims{1, 0}).value(), 3.0);
}

TEST_F(UdfTest, GenericArraySchemaDispatches) {
  Value iv = CallOk("IntArray", "Vector_2", {Value::Int(7), Value::Int(8)});
  EXPECT_EQ(CallOk("Array", "Item", {iv, Value::Int(1)}).AsDouble().value(),
            8.0);
  Value fv = CallOk("FloatArray", "Vector_2",
                    {Value::Double(1.5), Value::Double(2.5)});
  EXPECT_EQ(CallOk("Array", "Item", {fv, Value::Int(0)}).AsDouble().value(),
            1.5);
  EXPECT_EQ(CallOk("Array", "TypeName", {iv}).AsString().value(), "int32");
  EXPECT_EQ(CallOk("Array", "SumAll", {iv}).AsDouble().value(), 15.0);
}

TEST_F(UdfTest, GenericSliceDropsDims) {
  Value m = CallOk("FloatArray", "Matrix_2",
                   {Value::Double(1), Value::Double(2), Value::Double(3),
                    Value::Double(4)});
  // Slice row 1 (drop), columns 0:2 (keep): a vector of (2, 4).
  OwnedArray row = AsArray(CallOk(
      "Array", "Slice",
      {m, Value::Int(1), Value::Int(2), Value::Int(1), Value::Int(0),
       Value::Int(2), Value::Int(0)}));
  EXPECT_EQ(row.dims(), (Dims{2}));
  EXPECT_EQ(row.ref().GetDouble(0).value(), 2.0);
  EXPECT_EQ(row.ref().GetDouble(1).value(), 4.0);
}

TEST_F(UdfTest, SvdUdfReconstructs) {
  // 3x3 matrix via Create + updates; U * diag(S) * VT == A.
  Value m = CallOk("FloatArrayMax", "Create", {Value::Int(3), Value::Int(3)});
  OwnedArray ma = AsArray(m);
  double vals[9] = {2, 0, 1, 0, 3, 0, 1, 0, 2};
  for (int64_t i = 0; i < 9; ++i) {
    ASSERT_TRUE(ma.SetDouble(i, vals[i]).ok());
  }
  Value filled = Value::Bytes(std::vector<uint8_t>(ma.blob().begin(),
                                                   ma.blob().end()));
  OwnedArray u = AsArray(CallOk("FloatArrayMax", "SVD_U", {filled}));
  OwnedArray s = AsArray(CallOk("FloatArrayMax", "SVD_S", {filled}));
  OwnedArray vt = AsArray(CallOk("FloatArrayMax", "SVD_VT", {filled}));
  EXPECT_EQ(u.dims(), (Dims{3, 3}));
  EXPECT_EQ(s.dims(), (Dims{3}));
  EXPECT_EQ(vt.dims(), (Dims{3, 3}));
  // Reconstruct and compare.
  math::SvdResult svd;
  svd.u = math::Matrix(3, 3);
  svd.vt = math::Matrix(3, 3);
  svd.s.resize(3);
  for (int64_t i = 0; i < 9; ++i) {
    svd.u.data()[i] = u.ref().GetDouble(i).value();
    svd.vt.data()[i] = vt.ref().GetDouble(i).value();
  }
  for (int64_t i = 0; i < 3; ++i) s.ref().GetDouble(i).value();
  for (int64_t i = 0; i < 3; ++i) svd.s[i] = s.ref().GetDouble(i).value();
  math::Matrix recon = math::SvdReconstruct(svd);
  for (int64_t i = 0; i < 9; ++i) {
    EXPECT_NEAR(recon.data()[i], vals[i], 1e-9);
  }
}

TEST_F(UdfTest, SolveUdfFitsExactSystem) {
  // A = [[1, 1], [1, 2], [1, 3]], b = [2, 3, 4] -> x = [1, 1].
  Value a = CallOk("FloatArrayMax", "Create", {Value::Int(3), Value::Int(2)});
  OwnedArray aa = AsArray(a);
  double avals[6] = {1, 1, 1, 1, 2, 3};
  for (int64_t i = 0; i < 6; ++i) ASSERT_TRUE(aa.SetDouble(i, avals[i]).ok());
  Value af = Value::Bytes(std::vector<uint8_t>(aa.blob().begin(),
                                               aa.blob().end()));
  Value b = CallOk("FloatArrayMax", "Vector_3",
                   {Value::Double(2), Value::Double(3), Value::Double(4)});
  OwnedArray x = AsArray(CallOk("FloatArrayMax", "Solve", {af, b}));
  EXPECT_NEAR(x.ref().GetDouble(0).value(), 1.0, 1e-10);
  EXPECT_NEAR(x.ref().GetDouble(1).value(), 1.0, 1e-10);

  OwnedArray nn = AsArray(CallOk("FloatArrayMax", "Nnls", {af, b}));
  EXPECT_NEAR(nn.ref().GetDouble(0).value(), 1.0, 1e-8);
  EXPECT_NEAR(nn.ref().GetDouble(1).value(), 1.0, 1e-8);
}

TEST_F(UdfTest, FftUdfRoundTrip) {
  Value v = CallOk("FloatArrayMax", "Vector_4",
                   {Value::Double(1), Value::Double(2), Value::Double(3),
                    Value::Double(4)});
  Value f = CallOk("FloatArrayMax", "FFTForward", {v});
  OwnedArray fa = AsArray(f);
  EXPECT_EQ(fa.dtype(), DType::kComplex128);
  EXPECT_NEAR(fa.ref().GetComplex(0).value().real(), 10.0, 1e-9);
  Value back = CallOk("DoubleComplexArrayMax", "FFTInverse", {f});
  OwnedArray ba = AsArray(back);
  EXPECT_NEAR(ba.ref().GetComplex(2).value().real(), 3.0, 1e-9);
  EXPECT_NEAR(ba.ref().GetComplex(2).value().imag(), 0.0, 1e-9);
}

TEST_F(UdfTest, MatMulUdf) {
  Value a = CallOk("FloatArrayMax", "Create", {Value::Int(2), Value::Int(2)});
  OwnedArray aa = AsArray(a);
  // A = [[1, 3], [2, 4]] column-major {1, 2, 3, 4}.
  for (int64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(aa.SetDouble(i, static_cast<double>(i + 1)).ok());
  }
  Value af = Value::Bytes(std::vector<uint8_t>(aa.blob().begin(),
                                               aa.blob().end()));
  OwnedArray c = AsArray(CallOk("FloatArrayMax", "MatMul", {af, af}));
  // A^2 = [[7, 15], [10, 22]] column-major {7, 10, 15, 22}.
  EXPECT_EQ(c.ref().GetDouble(0).value(), 7.0);
  EXPECT_EQ(c.ref().GetDouble(1).value(), 10.0);
  EXPECT_EQ(c.ref().GetDouble(2).value(), 15.0);
  EXPECT_EQ(c.ref().GetDouble(3).value(), 22.0);
}

TEST_F(UdfTest, DateTimeRoundTripAndFields) {
  Value t = CallOk("DateTime", "FromString",
                   {Value::Str("2011-10-08 12:34:56")});
  EXPECT_EQ(CallOk("DateTime", "Year", {t}).AsInt().value(), 2011);
  EXPECT_EQ(CallOk("DateTime", "Month", {t}).AsInt().value(), 10);
  EXPECT_EQ(CallOk("DateTime", "Day", {t}).AsInt().value(), 8);
  EXPECT_EQ(CallOk("DateTime", "Hour", {t}).AsInt().value(), 12);
  EXPECT_EQ(CallOk("DateTime", "Minute", {t}).AsInt().value(), 34);
  EXPECT_EQ(CallOk("DateTime", "Second", {t}).AsInt().value(), 56);
  EXPECT_EQ(CallOk("DateTime", "ToString", {t}).AsString().value(),
            "2011-10-08 12:34:56");

  Value epoch = CallOk("DateTime", "FromParts",
                       {Value::Int(1970), Value::Int(1), Value::Int(1),
                        Value::Int(0), Value::Int(0), Value::Int(0)});
  EXPECT_EQ(epoch.AsInt().value(), 0);
  Value day = CallOk("DateTime", "FromString", {Value::Str("1970-01-02")});
  EXPECT_EQ(day.AsInt().value(), 86400LL * 1000000);

  Value later = CallOk("DateTime", "AddSeconds", {t, Value::Double(4.0)});
  EXPECT_EQ(CallOk("DateTime", "ToString", {later}).AsString().value(),
            "2011-10-08 12:35:00");

  EXPECT_FALSE(Call("DateTime", "FromString", {Value::Str("nope")}).ok());
  EXPECT_FALSE(Call("DateTime", "FromParts",
                    {Value::Int(2011), Value::Int(13), Value::Int(1),
                     Value::Int(0), Value::Int(0), Value::Int(0)})
                   .ok());
}

TEST_F(UdfTest, DateTimeArrayHoldsTimestamps) {
  Value t1 = CallOk("DateTime", "FromString", {Value::Str("2011-10-08")});
  Value t2 = CallOk("DateTime", "FromString", {Value::Str("2018-09-20")});
  Value arr = CallOk("DateTimeArray", "Vector_2", {t1, t2});
  OwnedArray a = AsArray(arr);
  EXPECT_EQ(a.dtype(), DType::kDateTime);
  Value back = CallOk("DateTimeArray", "Item_1", {arr, Value::Int(1)});
  EXPECT_EQ(static_cast<int64_t>(back.AsDouble().value()),
            t2.AsInt().value());
}

TEST_F(UdfTest, CreateRejectsShapesNoHeaderHolds) {
  // Sizing these shapes' blobs overflows int64: Create fails with the
  // header's own status before it allocates.
  const int64_t kBig = std::numeric_limits<int64_t>::max();
  for (int d = 0; d < kNumDTypes; ++d) {
    const DType t = static_cast<DType>(d);
    for (const char* suffix : {"", "Max"}) {
      const std::string schema =
          std::string(DTypeSchemaPrefix(t)) + "Array" + suffix;
      auto r = Call(schema, "Create", {Value::Int(kBig)});
      ASSERT_FALSE(r.ok()) << schema;
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << schema;
      // A 2^31-1 square: past int16 for short arrays; past int64 bytes for
      // max arrays of 4-byte and wider elements.
      if (*suffix == 0 || DTypeSize(t) >= 4) {
        auto sq = Call(schema, "Create",
                       {Value::Int(2147483647), Value::Int(2147483647)});
        ASSERT_FALSE(sq.ok()) << schema;
        EXPECT_EQ(sq.status().code(), StatusCode::kInvalidArgument)
            << schema << ": " << sq.status().ToString();
      }
    }
  }
}

TEST_F(UdfTest, DateTimeArithmeticOutOfRangeFailsTyped) {
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  for (auto [name, args] :
       {std::pair<const char*, std::vector<Value>>{
            "AddSeconds", {Value::Int(0), Value::Double(1e300)}},
        {"AddSeconds", {Value::Int(kMax), Value::Double(1)}},
        {"AddSeconds", {Value::Int(kMin), Value::Double(-1)}},
        {"FromParts",
         {Value::Int(9223372036854775), Value::Int(1), Value::Int(1),
          Value::Int(0), Value::Int(0), Value::Int(0)}},
        {"FromParts",
         {Value::Int(kMax), Value::Int(1), Value::Int(1), Value::Int(0),
          Value::Int(0), Value::Int(0)}}}) {
    auto r = Call("DateTime", name, args);
    ASSERT_FALSE(r.ok()) << name;
    EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange) << name;
  }
  // The extremes of BIGINT microseconds still have calendar fields.
  EXPECT_EQ(CallOk("DateTime", "ToString", {Value::Int(kMin)})
                .AsString()
                .value(),
            "-290308-12-21 19:59:05");
  EXPECT_EQ(CallOk("DateTime", "ToString", {Value::Int(kMax)})
                .AsString()
                .value(),
            "294247-01-10 04:00:54");
  const int64_t fields[] = {-290308, 12, 21, 19, 59, 5};
  const char* names[] = {"Year", "Month", "Day", "Hour", "Minute", "Second"};
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(CallOk("DateTime", names[i], {Value::Int(kMin)}).AsInt().value(),
              fields[i])
        << names[i];
  }
  EXPECT_EQ(CallOk("DateTime", "AddSeconds", {Value::Int(kMax - 1000000),
                                              Value::Double(1)})
                .AsInt()
                .value(),
            kMax);
}

TEST_F(UdfTest, BigintAxesAreNotNarrowed) {
  // 2^32 and 2^32 + 1 truncate to axes 0 and 1 as int.
  Value m = CallOk("FloatArray", "Matrix_2",
                   {Value::Double(1), Value::Double(2), Value::Double(3),
                    Value::Double(4)});
  for (const char* fn : {"SumAxis", "MeanAxis", "MinAxis", "MaxAxis"}) {
    auto r = Call("FloatArray", fn, {m, Value::Int(4294967296)});
    ASSERT_FALSE(r.ok()) << fn;
    EXPECT_EQ(r.status().ToString(),
              Status::InvalidArgument("axis 4294967296 out of range for rank 2")
                  .ToString());
  }
  auto cat = Call("FloatArray", "ConcatAxis", {m, m, Value::Int(4294967297)});
  ASSERT_FALSE(cat.ok());
  EXPECT_EQ(cat.status().code(), StatusCode::kInvalidArgument);
  Value perm = CallOk("BigIntArray", "Vector_2",
                      {Value::Int(4294967297), Value::Int(0)});
  auto p = Call("FloatArray", "Permute", {m, perm});
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(UdfTest, EmptyFunctionHasNoManagedWork) {
  const ScalarFunction* fn =
      registry_.Resolve("dbo", "EmptyFunction", 2).value();
  EXPECT_EQ(fn->managed_work_ns, 0.0);
  UdfContext ctx;
  engine::QueryStats stats;
  engine::CostModel cost;
  ctx.stats = &stats;
  ctx.cost = &cost;
  std::vector<Value> args{Value::Bytes(std::vector<uint8_t>(64)),
                          Value::Int(0)};
  ASSERT_TRUE(FunctionRegistry::Invoke(*fn, args, ctx).ok());
  EXPECT_EQ(stats.udf_calls, 1);
  // Boundary cost: flat call + 64 arg bytes + 8 int bytes + 8 result bytes.
  double expect_ns = cost.clr_call_ns + cost.clr_byte_ns * (64 + 8 + 8);
  EXPECT_EQ(stats.cpu_core_seconds, expect_ns * 1e-9);
}

TEST_F(UdfTest, EveryChargeIsAWholeOrHalfNanosecond) {
  // The ledger (QueryStats::cpu_ns) is exact in any order only while every
  // charge is a multiple of 0.5 ns.
  auto half_ns = [](double ns) { return std::floor(ns * 2) == ns * 2; };
  const engine::CostModel cost;
  for (double ns : {cost.row_scan_ns, cost.native_agg_step_ns,
                    cost.clr_call_ns, cost.clr_byte_ns, cost.clr_item_work_ns,
                    cost.tvf_row_ns, cost.uda_state_byte_ns}) {
    EXPECT_TRUE(half_ns(ns)) << ns;
  }
  ASSERT_GT(registry_.scalar_count(), 0);
  for (const ScalarFunction* fn : registry_.scalars()) {
    EXPECT_TRUE(half_ns(fn->managed_work_ns))
        << fn->schema << "." << fn->name << " " << fn->managed_work_ns;
  }
}

// ---------------------------------------------------------------------------
// The hosted scalar surface, pinned: every function RegisterAllUdfs
// registers, called through Invoke on 64 seeded argument tuples, its
// outcomes and charges fingerprinted against tests/udf_surface.golden.
// ---------------------------------------------------------------------------

/// A FLOAT to 8 significant digits, so that a tree whose compiler fuses
/// multiply-adds renders the same.
std::string Round8(double d) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.7e", d);
  return buf;
}

/// One call's outcome: the status code and message, or the result's kind,
/// dtype, storage class, dims and elements.
std::string DescribeOutcome(const Result<Value>& r) {
  if (!r.ok()) return "E " + r.status().ToString();
  const Value& v = r.value();
  switch (v.kind()) {
    case Value::Kind::kNull:
      return "NULL";
    case Value::Kind::kInt64:
      return "I " + std::to_string(v.AsInt().value());
    case Value::Kind::kFloat64:
      return "F " + Round8(v.AsDouble().value());
    case Value::Kind::kString:
      return "S " + v.AsString().value();
    case Value::Kind::kBlob:
      return "BLOB";
    case Value::Kind::kBytes:
      break;
  }
  const std::vector<uint8_t>& bytes = *v.AsBytes().value();
  Result<ArrayRef> a = ArrayRef::Parse(bytes);
  std::string out;
  if (a.ok()) {
    out = "A " + std::string(DTypeName(a->dtype())) +
          (a->storage() == StorageClass::kMax ? " max [" : " short [");
    for (int64_t d : a->dims()) out += std::to_string(d) + " ";
    out += "]";
    for (int64_t i = 0; i < a->num_elements(); ++i) {
      std::complex<double> c = a->GetComplex(i).value();
      out += " " + Round8(c.real());
      if (IsComplexDType(a->dtype())) out += "," + Round8(c.imag());
    }
    return out;
  }
  if (bytes.size() == 8 || bytes.size() == 16) {
    std::complex<double> c = DecodeComplexUdt(bytes).value();
    return "C " + Round8(c.real()) + "," + Round8(c.imag());
  }
  out = "B";
  for (uint8_t b : bytes) {
    char hex[4];
    std::snprintf(hex, sizeof(hex), "%02x", b);
    out += hex;
  }
  return out;
}

uint64_t Fnv1a(uint64_t h, const std::string& s) {
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

uint64_t SplitMix(uint64_t* x) {
  uint64_t z = (*x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

class UdfSurfaceTest : public UdfTest {
 protected:
  /// The schema's element type and storage class ("FloatArrayMax" names
  /// float64 max arrays); float64 short for schemas that name none.
  static std::pair<DType, StorageClass> SchemaArrayType(
      const std::string& schema) {
    for (int d = 0; d < kNumDTypes; ++d) {
      const DType t = static_cast<DType>(d);
      const std::string base = std::string(DTypeSchemaPrefix(t)) + "Array";
      if (schema == base) return {t, StorageClass::kShort};
      if (schema == base + "Max") return {t, StorageClass::kMax};
    }
    return {DType::kFloat64, StorageClass::kShort};
  }

  static OwnedArray Filled(DType t, Dims dims, StorageClass sc) {
    OwnedArray a = OwnedArray::Zeros(t, std::move(dims), sc).value();
    for (int64_t i = 0; i < a.num_elements(); ++i) {
      const double v = static_cast<double>((i * 5) % 7) - 2.5;
      EXPECT_TRUE((IsComplexDType(t) ? a.SetComplex(i, {v, 1.0 - i})
                   : IsIntegerDType(t) ? a.SetDouble(i, v + 0.5)
                                       : a.SetDouble(i, v))
                      .ok());
    }
    return a;
  }

  static Value BytesOf(const OwnedArray& a) {
    return Value::Bytes(std::vector<uint8_t>(a.blob().begin(), a.blob().end()));
  }

  /// Pool positions of 0, 1, 2 and 0.5.
  static constexpr size_t kSmall[] = {5, 6, 8, 12};

  /// The argument pool for a function of `schema`: five arrays, then
  /// BIGINTs, FLOATs, NULL and strings.
  const std::vector<Value>& Pool(const std::string& schema) {
    const auto [t, sc] = SchemaArrayType(schema);
    std::vector<Value>& pool = pools_[{t, sc}];
    if (!pool.empty()) return pool;
    // The other dtype's array {1, 1} also serves as a Subarray offset.
    const DType other = t == DType::kInt64 ? DType::kInt32 : DType::kInt64;
    const OwnedArray ones =
        OwnedArray::FromValues<double>({2}, std::vector<double>{1, 1}).value();
    const OwnedArray rank1 = Filled(t, {3}, sc);
    std::vector<uint8_t> truncated(rank1.blob().begin(), rank1.blob().end());
    truncated.pop_back();
    const OwnedArray blob = Filled(t, {2, 3}, StorageClass::kMax);
    const storage::BlobId id =
        db_.blob_store()->Write(blob.blob()).value();
    pool = {BytesOf(rank1),
            BytesOf(Filled(t, {2, 2}, sc)),
            BytesOf(ConvertDType(ones.ref(), other).value()),
            Value::Blob(engine::BlobRef{id, db_.buffer_pool()}),
            Value::Bytes(std::move(truncated)),
            Value::Int(0),
            Value::Int(1),
            Value::Int(-1),
            Value::Int(2),
            Value::Int(int64_t{1} << 32),
            Value::Int(std::numeric_limits<int64_t>::min()),
            Value::Int(std::numeric_limits<int64_t>::max()),
            Value::Double(0.5),
            Value::Double(std::numeric_limits<double>::quiet_NaN()),
            Value::Double(1e300),
            Value::Double(-1e300),
            Value::Null(),
            Value::Str("float64[2]{0.5 1.5}"),
            Value::Str("2011-03-22 10:30:00")};
    return pool;
  }

  /// "<key> <fingerprint> calls=<n> bytes=<n> cpu_ns=<x>" for 64 calls of
  /// `fn` at `arity`.
  std::string SurfaceLine(const ScalarFunction& fn, int arity) {
    const std::string key =
        fn.schema + "." + fn.name + "/" + std::to_string(arity);
    const std::vector<Value>& pool = Pool(fn.schema);
    uint64_t seed = Fnv1a(0xcbf29ce484222325ull, key);
    uint64_t h = 0xcbf29ce484222325ull;
    engine::QueryStats stats;
    engine::CostModel cost;
    UdfContext ctx;
    ctx.pool = db_.buffer_pool();
    ctx.stats = &stats;
    ctx.cost = &cost;
    for (int call = 0; call < 64; ++call) {
      std::vector<Value> args;
      for (int j = 0; j < arity; ++j) {
        // Half the draws favour what the position most often takes (an
        // array first, a small index after it), so calls also succeed.
        const uint64_t r = SplitMix(&seed);
        const size_t pick = r % 2 == 0 ? (r >> 1) % pool.size()
                            : j == 0   ? (r >> 1) % 5
                                       : kSmall[(r >> 1) % 4];
        args.push_back(pool[pick]);
      }
      try {
        h = Fnv1a(h, DescribeOutcome(FunctionRegistry::Invoke(fn, args, ctx)));
      } catch (const std::exception& e) {
        ADD_FAILURE() << key << " call " << call << " threw " << e.what();
      }
      h = Fnv1a(h, "|");
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %016" PRIx64 " calls=", h);
    return key + buf + std::to_string(stats.udf_calls) +
           " bytes=" + std::to_string(stats.udf_bytes_marshaled) +
           " cpu_ns=" + Round8(stats.cpu_core_seconds * 1e9);
  }

  storage::Database db_;
  std::map<std::pair<DType, StorageClass>, std::vector<Value>> pools_;
};

TEST_F(UdfSurfaceTest, EveryScalarMatchesTheGoldenSurface) {
  std::string actual;
  for (const ScalarFunction* fn : registry_.scalars()) {
    if (fn->needs_subquery) continue;
    if (fn->arity >= 0) {
      actual += SurfaceLine(*fn, fn->arity) + "\n";
    } else {
      for (int arity = 1; arity <= 4; ++arity) {
        actual += SurfaceLine(*fn, arity) + "\n";
      }
    }
  }
  std::ifstream in(SQLARRAY_TESTS_DIR "/udf_surface.golden");
  std::stringstream golden;
  golden << in.rdbuf();
  if (golden.str() == actual) return;
  const std::string path = SQLARRAY_TESTS_BINARY_DIR "/udf_surface.actual";
  std::ofstream(path) << actual;
  std::istringstream want(golden.str()), got(actual);
  std::string w, g;
  int shown = 0;
  while (shown < 10 && (static_cast<bool>(std::getline(want, w)) |
                        static_cast<bool>(std::getline(got, g)))) {
    if (w != g) {
      ADD_FAILURE() << "golden: " << w << "\nactual: " << g;
      ++shown;
    }
    w.clear();
    g.clear();
  }
  FAIL() << "the surface differs from tests/udf_surface.golden; the actual "
            "surface is in "
         << path;
}

TEST(UdfStreamedReads, ColdMaxItemAndSubarrayReadPinnedPages) {
  // A cold call over a VARBINARY(MAX) column streams the header plus the
  // range it reads, not the whole blob.
  storage::Database db;
  FunctionRegistry registry;
  ASSERT_TRUE(RegisterAllUdfs(&registry).ok());
  engine::Executor executor(&db, &registry);
  sql::Session session(&executor);
  ASSERT_TRUE(
      session.Execute("CREATE TABLE m (id BIGINT, a VARBINARY(MAX))").ok());
  std::vector<double> vals(64 * 1024);
  for (size_t i = 0; i < vals.size(); ++i) vals[i] = 0.25 * i;
  OwnedArray a =
      OwnedArray::FromValues<double>(Dims{64 * 1024}, vals, StorageClass::kMax)
          .value();
  storage::Table* t = db.GetTable("m").value();
  storage::Row row(2);
  row[0] = int64_t{1};
  row[1] = std::vector<uint8_t>(a.blob().begin(), a.blob().end());
  ASSERT_TRUE(t->Insert(std::move(row)).ok());
  const std::pair<const char*, int64_t> cases[] = {
      {"SELECT FloatArrayMax.Item_1(a, 40000) FROM m", 4},
      {"SELECT FloatArrayMax.Subarray(a, IntArray.Vector_1(30000), "
       "IntArray.Vector_1(1500), 0) FROM m",
       5},
  };
  for (const auto& [text, pages] : cases) {
    db.ClearCache();
    auto r = session.Execute(text);
    ASSERT_TRUE(r.ok()) << text << ": " << r.status().ToString();
    EXPECT_EQ((*r)[0].stats.io.pages_read, pages) << text;
  }
}

}  // namespace
}  // namespace sqlarray::udfs
