// Tests for array operations: Item, UpdateItem, Subarray, Reshape, Cast/Raw,
// conversions, strings, aggregates, element-wise arithmetic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/build.h"
#include "core/ops.h"

namespace sqlarray {
namespace {

OwnedArray Ramp3D(DType dtype, Dims dims) {
  OwnedArray a = OwnedArray::Zeros(dtype, dims).value();
  for (int64_t i = 0; i < a.num_elements(); ++i) {
    EXPECT_TRUE(a.SetDouble(i, static_cast<double>(i)).ok());
  }
  return a;
}

TEST(Item, ReadsByMultiIndex) {
  OwnedArray a = Ramp3D(DType::kFloat64, {3, 4, 5});
  EXPECT_EQ(Item(a.ref(), Dims{0, 0, 0}).value(), 0.0);
  EXPECT_EQ(Item(a.ref(), Dims{2, 3, 4}).value(), 59.0);
  // Column-major: (1, 2, 3) -> 1 + 2*3 + 3*12 = 43.
  EXPECT_EQ(Item(a.ref(), Dims{1, 2, 3}).value(), 43.0);
}

TEST(Item, RejectsBadIndex) {
  OwnedArray a = Ramp3D(DType::kFloat64, {3, 4, 5});
  EXPECT_FALSE(Item(a.ref(), Dims{3, 0, 0}).ok());
  EXPECT_FALSE(Item(a.ref(), Dims{0, 0}).ok());
}

TEST(UpdateItem, ValueSemantics) {
  OwnedArray a = Ramp3D(DType::kInt32, {4});
  OwnedArray b = UpdateItem(a.ref(), Dims{2}, 99).value();
  EXPECT_EQ(Item(a.ref(), Dims{2}).value(), 2.0);   // original untouched
  EXPECT_EQ(Item(b.ref(), Dims{2}).value(), 99.0);  // copy updated
}

TEST(UpdateItem, ComplexValue) {
  OwnedArray a = OwnedArray::Zeros(DType::kComplex64, {2}).value();
  OwnedArray b = UpdateItemComplex(a.ref(), Dims{1}, {3.0, 4.0}).value();
  EXPECT_EQ(ItemComplex(b.ref(), Dims{1}).value(),
            std::complex<double>(3.0, 4.0));
}

// Subarray extraction must agree with direct element indexing for every
// element of the result, across shapes and offsets.
struct SubCase {
  Dims dims;
  Dims offset;
  Dims sizes;
};

class SubarrayAgainstNaive : public ::testing::TestWithParam<SubCase> {};

/// "<d0>x<d1>...": one part of a case's test name.
std::string ShapeName(const Dims& dims) {
  std::string name;
  for (size_t k = 0; k < dims.size(); ++k) {
    name += (k > 0 ? "x" : "") + std::to_string(dims[k]);
  }
  return name;
}

TEST_P(SubarrayAgainstNaive, MatchesElementwiseCopy) {
  const SubCase& c = GetParam();
  OwnedArray a = Ramp3D(DType::kFloat64, c.dims);
  OwnedArray sub = Subarray(a.ref(), c.offset, c.sizes, false).value();
  ASSERT_EQ(sub.dims(), c.sizes);
  const int64_t n = sub.num_elements();
  for (int64_t lin = 0; lin < n; ++lin) {
    Dims local = Unlinearize(c.sizes, lin);
    Dims global(local.size());
    for (size_t k = 0; k < local.size(); ++k) {
      global[k] = local[k] + c.offset[k];
    }
    EXPECT_EQ(sub.ref().GetDouble(lin).value(),
              a.ref().GetDoubleAt(global).value())
        << "element " << lin;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SubarrayAgainstNaive,
    ::testing::Values(
        SubCase{{10}, {3}, {4}},
        SubCase{{10}, {0}, {10}},
        SubCase{{6, 7}, {1, 2}, {3, 4}},
        SubCase{{6, 7}, {0, 0}, {6, 1}},
        SubCase{{5, 5, 5}, {1, 2, 3}, {3, 2, 2}},
        SubCase{{5, 5, 5}, {0, 0, 0}, {5, 5, 5}},
        SubCase{{4, 4, 4, 4}, {1, 1, 1, 1}, {2, 2, 2, 2}},
        SubCase{{3, 4, 5}, {2, 3, 4}, {1, 1, 1}}),
    [](const ::testing::TestParamInfo<SubCase>& info) {
      return ShapeName(info.param.dims) + "_at_" +
             ShapeName(info.param.offset) + "_take_" +
             ShapeName(info.param.sizes);
    });

TEST(Subarray, CollapseDropsUnitDims) {
  OwnedArray a = Ramp3D(DType::kFloat64, {4, 5});
  // One matrix column, collapsed to a vector (the paper's example use).
  OwnedArray col = Subarray(a.ref(), Dims{0, 2}, Dims{4, 1}, true).value();
  EXPECT_EQ(col.dims(), (Dims{4}));
  EXPECT_EQ(col.ref().GetDouble(0).value(), 8.0);  // (0,2) -> 8
  // Fully scalar subset keeps one dimension.
  OwnedArray one = Subarray(a.ref(), Dims{1, 1}, Dims{1, 1}, true).value();
  EXPECT_EQ(one.dims(), (Dims{1}));
  EXPECT_EQ(one.ref().GetDouble(0).value(), 5.0);
}

TEST(Subarray, RejectsOutOfBounds) {
  OwnedArray a = Ramp3D(DType::kFloat64, {4, 5});
  EXPECT_FALSE(Subarray(a.ref(), Dims{3, 0}, Dims{2, 5}, false).ok());
  EXPECT_FALSE(Subarray(a.ref(), Dims{-1, 0}, Dims{1, 1}, false).ok());
  EXPECT_FALSE(Subarray(a.ref(), Dims{0, 0}, Dims{0, 1}, false).ok());
  EXPECT_FALSE(Subarray(a.ref(), Dims{0}, Dims{1}, false).ok());
}

TEST(Subarray, SmallSubsetOfMaxArrayBecomesShort) {
  OwnedArray big =
      OwnedArray::Zeros(DType::kFloat64, {100, 100}, StorageClass::kMax)
          .value();
  OwnedArray sub = Subarray(big.ref(), Dims{0, 0}, Dims{4, 4}, false).value();
  EXPECT_EQ(sub.storage(), StorageClass::kShort);
}

TEST(Reshape, KeepsElementsInOrder) {
  OwnedArray a = Ramp3D(DType::kInt32, {6});
  OwnedArray m = Reshape(a.ref(), {2, 3}).value();
  EXPECT_EQ(m.dims(), (Dims{2, 3}));
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(m.ref().GetDouble(i).value(), static_cast<double>(i));
  }
}

TEST(Reshape, RejectsCountChange) {
  OwnedArray a = Ramp3D(DType::kInt32, {6});
  EXPECT_FALSE(Reshape(a.ref(), {2, 2}).ok());
}

TEST(Transpose, MatrixTransposeSwapsIndices) {
  OwnedArray a = Ramp3D(DType::kFloat64, {2, 3});
  OwnedArray t = Transpose(a.ref()).value();
  EXPECT_EQ(t.dims(), (Dims{3, 2}));
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_EQ(t.ref().GetDoubleAt(Dims{j, i}).value(),
                a.ref().GetDoubleAt(Dims{i, j}).value());
    }
  }
}

TEST(Transpose, DoubleTransposeIsIdentity) {
  OwnedArray a = Ramp3D(DType::kInt32, {3, 4, 5});
  OwnedArray tt = Transpose(Transpose(a.ref()).value().ref()).value();
  ASSERT_EQ(tt.dims(), a.dims());
  for (int64_t i = 0; i < a.num_elements(); ++i) {
    EXPECT_EQ(tt.ref().GetDouble(i).value(), a.ref().GetDouble(i).value());
  }
}

TEST(PermuteAxes, ArbitraryPermutation) {
  OwnedArray a = Ramp3D(DType::kFloat64, {2, 3, 4});
  Dims perm{2, 0, 1};  // out[i,j,k] = a[j,k,i]
  OwnedArray p = PermuteAxes(a.ref(), perm).value();
  EXPECT_EQ(p.dims(), (Dims{4, 2, 3}));
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 2; ++j) {
      for (int64_t k = 0; k < 3; ++k) {
        EXPECT_EQ(p.ref().GetDoubleAt(Dims{i, j, k}).value(),
                  a.ref().GetDoubleAt(Dims{j, k, i}).value());
      }
    }
  }
}

TEST(PermuteAxes, Validation) {
  OwnedArray a = Ramp3D(DType::kFloat64, {2, 3});
  EXPECT_FALSE(PermuteAxes(a.ref(), Dims{0}).ok());
  EXPECT_FALSE(PermuteAxes(a.ref(), Dims{0, 0}).ok());
  EXPECT_FALSE(PermuteAxes(a.ref(), Dims{0, 2}).ok());
}

TEST(ConcatAxis, VectorsAndMatrixColumns) {
  OwnedArray a = MakeVector<double>({1, 2}).value();
  OwnedArray b = MakeVector<double>({3, 4, 5}).value();
  OwnedArray ab = ConcatAxis(a.ref(), b.ref(), 0).value();
  EXPECT_EQ(ab.dims(), (Dims{5}));
  EXPECT_EQ(ab.ref().GetDouble(4).value(), 5.0);

  // Stacking matrix columns (axis 1).
  OwnedArray m1 = Ramp3D(DType::kFloat64, {2, 2});
  OwnedArray m2 = Ramp3D(DType::kFloat64, {2, 3});
  OwnedArray m = ConcatAxis(m1.ref(), m2.ref(), 1).value();
  EXPECT_EQ(m.dims(), (Dims{2, 5}));
  EXPECT_EQ(m.ref().GetDoubleAt(Dims{1, 4}).value(),
            m2.ref().GetDoubleAt(Dims{1, 2}).value());
}

TEST(ConcatAxis, DTypePromotionAndValidation) {
  OwnedArray ints = MakeVector<int32_t>({1, 2}).value();
  OwnedArray doubles = MakeVector<double>({0.5}).value();
  OwnedArray mixed = ConcatAxis(ints.ref(), doubles.ref(), 0).value();
  EXPECT_EQ(mixed.dtype(), DType::kFloat64);
  EXPECT_EQ(mixed.ref().GetDouble(2).value(), 0.5);

  OwnedArray m = Ramp3D(DType::kFloat64, {2, 2});
  OwnedArray v = MakeVector<double>({1}).value();
  EXPECT_FALSE(ConcatAxis(m.ref(), v.ref(), 0).ok());   // rank mismatch
  OwnedArray m2 = Ramp3D(DType::kFloat64, {3, 2});
  EXPECT_FALSE(ConcatAxis(m.ref(), m2.ref(), 1).ok());  // other dims differ
  EXPECT_FALSE(ConcatAxis(m.ref(), m.ref(), 2).ok());   // bad axis
}

TEST(CastRaw, RoundTrip) {
  OwnedArray a = Ramp3D(DType::kFloat32, {3, 2});
  std::vector<uint8_t> raw = Raw(a.ref()).value();
  EXPECT_EQ(raw.size(), 24u);  // 6 floats
  OwnedArray back = CastFromRaw(DType::kFloat32, {3, 2}, raw).value();
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(back.ref().GetDouble(i).value(),
              a.ref().GetDouble(i).value());
  }
}

TEST(CastRaw, RejectsSizeMismatch) {
  std::vector<uint8_t> raw(10);
  EXPECT_FALSE(CastFromRaw(DType::kFloat64, {2}, raw).ok());
}

TEST(ConvertDType, WidenAndNarrow) {
  OwnedArray a = Ramp3D(DType::kInt32, {4});
  OwnedArray d = ConvertDType(a.ref(), DType::kFloat64).value();
  EXPECT_EQ(d.dtype(), DType::kFloat64);
  EXPECT_EQ(d.ref().GetDouble(3).value(), 3.0);
  // Narrowing back is fine for small values...
  OwnedArray i8 = ConvertDType(d.ref(), DType::kInt8).value();
  EXPECT_EQ(i8.ref().GetDouble(3).value(), 3.0);
  // ...but fails when a value cannot fit.
  OwnedArray big = MakeVector<double>({300.0}).value();
  EXPECT_FALSE(ConvertDType(big.ref(), DType::kInt8).ok());
}

TEST(ConvertDType, RealToComplexAndBack) {
  OwnedArray r = MakeVector<double>({1.0, 2.0}).value();
  OwnedArray c = ConvertDType(r.ref(), DType::kComplex128).value();
  EXPECT_EQ(c.ref().GetComplex(1).value(), std::complex<double>(2.0, 0.0));
  OwnedArray back = ConvertDType(c.ref(), DType::kFloat64).value();
  EXPECT_EQ(back.ref().GetDouble(1).value(), 2.0);
  // Complex with non-zero imaginary cannot become real.
  OwnedArray cc = OwnedArray::Zeros(DType::kComplex128, {1}).value();
  ASSERT_TRUE(cc.SetComplex(0, {1, 1}).ok());
  EXPECT_FALSE(ConvertDType(cc.ref(), DType::kFloat64).ok());
}

TEST(ConvertStorage, ShortToMaxAndBack) {
  OwnedArray s = MakeVector<double>({1, 2, 3}).value();
  OwnedArray m = ConvertStorage(s.ref(), StorageClass::kMax).value();
  EXPECT_EQ(m.storage(), StorageClass::kMax);
  OwnedArray back = ConvertStorage(m.ref(), StorageClass::kShort).value();
  EXPECT_EQ(back.storage(), StorageClass::kShort);
  EXPECT_EQ(back.ref().GetDouble(2).value(), 3.0);
}

TEST(ConvertStorage, RejectsOversizedShort) {
  OwnedArray big =
      OwnedArray::Zeros(DType::kFloat64, {5000}, StorageClass::kMax).value();
  EXPECT_FALSE(ConvertStorage(big.ref(), StorageClass::kShort).ok());
}

class StringRoundTrip : public ::testing::TestWithParam<DType> {};

TEST_P(StringRoundTrip, ToStringFromString) {
  DType t = GetParam();
  OwnedArray a = OwnedArray::Zeros(t, {2, 3}).value();
  Rng rng(7);
  for (int64_t i = 0; i < 6; ++i) {
    if (IsComplexDType(t)) {
      ASSERT_TRUE(
          a.SetComplex(i, {rng.Uniform(-5, 5), rng.Uniform(-5, 5)}).ok());
    } else if (IsIntegerDType(t)) {
      ASSERT_TRUE(a.SetDouble(i, rng.UniformInt(-100, 100)).ok());
    } else {
      ASSERT_TRUE(a.SetDouble(i, rng.Uniform(-5, 5)).ok());
    }
  }
  std::string text = ToArrayString(a.ref());
  OwnedArray back = FromArrayString(text).value();
  EXPECT_EQ(back.dtype(), t);
  EXPECT_EQ(back.dims(), a.dims());
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(back.ref().GetComplex(i).value(),
              a.ref().GetComplex(i).value());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDTypes, StringRoundTrip,
    ::testing::Values(DType::kInt8, DType::kInt16, DType::kInt32,
                      DType::kInt64, DType::kFloat32, DType::kFloat64,
                      DType::kComplex64, DType::kComplex128),
    [](const ::testing::TestParamInfo<DType>& info) {
      return std::string(DTypeName(info.param));
    });

TEST(ArrayString, RejectsMalformed) {
  EXPECT_FALSE(FromArrayString("nope").ok());
  EXPECT_FALSE(FromArrayString("float64[2]{1}").ok());       // too few
  EXPECT_FALSE(FromArrayString("float64[2]{1 2 3}").ok());   // too many
  EXPECT_FALSE(FromArrayString("bogus[2]{1 2}").ok());       // bad dtype
}

TEST(Aggregate, AllKinds) {
  OwnedArray a = MakeVector<double>({1.0, 2.0, 3.0, 4.0}).value();
  EXPECT_EQ(AggregateAll(a.ref(), AggKind::kSum).value(), 10.0);
  EXPECT_EQ(AggregateAll(a.ref(), AggKind::kMin).value(), 1.0);
  EXPECT_EQ(AggregateAll(a.ref(), AggKind::kMax).value(), 4.0);
  EXPECT_EQ(AggregateAll(a.ref(), AggKind::kMean).value(), 2.5);
  EXPECT_EQ(AggregateAll(a.ref(), AggKind::kCount).value(), 4.0);
  EXPECT_NEAR(AggregateAll(a.ref(), AggKind::kStd).value(),
              std::sqrt(1.25), 1e-12);
}

TEST(Aggregate, ComplexRules) {
  OwnedArray c = OwnedArray::Zeros(DType::kComplex128, {2}).value();
  ASSERT_TRUE(c.SetComplex(0, {1, 2}).ok());
  ASSERT_TRUE(c.SetComplex(1, {3, -1}).ok());
  EXPECT_FALSE(AggregateAll(c.ref(), AggKind::kSum).ok());
  EXPECT_EQ(AggregateAllComplex(c.ref(), AggKind::kSum).value(),
            std::complex<double>(4, 1));
  EXPECT_FALSE(AggregateAllComplex(c.ref(), AggKind::kMin).ok());
}

TEST(Aggregate, AxisReduction) {
  // [2, 3] matrix, values 0..5 column-major: col j = (2j, 2j+1).
  OwnedArray a = Ramp3D(DType::kFloat64, {2, 3});
  OwnedArray col_sums = AggregateAxis(a.ref(), 0, AggKind::kSum).value();
  EXPECT_EQ(col_sums.dims(), (Dims{3}));
  EXPECT_EQ(col_sums.ref().GetDouble(0).value(), 1.0);   // 0+1
  EXPECT_EQ(col_sums.ref().GetDouble(2).value(), 9.0);   // 4+5
  OwnedArray row_sums = AggregateAxis(a.ref(), 1, AggKind::kSum).value();
  EXPECT_EQ(row_sums.dims(), (Dims{2}));
  EXPECT_EQ(row_sums.ref().GetDouble(0).value(), 6.0);   // 0+2+4
  EXPECT_EQ(row_sums.ref().GetDouble(1).value(), 9.0);   // 1+3+5
}

TEST(Aggregate, AxisReductionRank3MatchesManual) {
  OwnedArray a = Ramp3D(DType::kFloat64, {3, 4, 5});
  for (int axis = 0; axis < 3; ++axis) {
    OwnedArray red = AggregateAxis(a.ref(), axis, AggKind::kMean).value();
    Dims expect_dims;
    for (int k = 0; k < 3; ++k) {
      if (k != axis) expect_dims.push_back(a.dims()[k]);
    }
    ASSERT_EQ(red.dims(), expect_dims);
    // Check one arbitrary output cell against a manual loop.
    Dims out_idx(2, 1);
    Dims idx(3);
    double sum = 0;
    int64_t count = a.dims()[axis];
    for (int64_t j = 0; j < count; ++j) {
      int p = 0;
      for (int k = 0; k < 3; ++k) {
        idx[k] = (k == axis) ? j : out_idx[p++];
      }
      sum += a.ref().GetDoubleAt(idx).value();
    }
    EXPECT_NEAR(red.ref().GetDoubleAt(out_idx).value(), sum / count, 1e-12)
        << "axis " << axis;
  }
}

TEST(Aggregate, AxisOutOfRange) {
  OwnedArray a = Ramp3D(DType::kFloat64, {2, 2});
  EXPECT_FALSE(AggregateAxis(a.ref(), 2, AggKind::kSum).ok());
  EXPECT_FALSE(AggregateAxis(a.ref(), -1, AggKind::kSum).ok());
}

TEST(Elementwise, PromotionRules) {
  EXPECT_EQ(PromoteDType(DType::kInt8, DType::kInt32), DType::kInt32);
  EXPECT_EQ(PromoteDType(DType::kInt64, DType::kFloat32), DType::kFloat32);
  EXPECT_EQ(PromoteDType(DType::kFloat32, DType::kFloat64), DType::kFloat64);
  EXPECT_EQ(PromoteDType(DType::kComplex64, DType::kFloat64),
            DType::kComplex128);
  EXPECT_EQ(PromoteDType(DType::kComplex64, DType::kFloat32),
            DType::kComplex64);
  EXPECT_EQ(PromoteDType(DType::kDateTime, DType::kInt32), DType::kInt64);
}

TEST(Elementwise, BinaryOps) {
  OwnedArray a = MakeVector<double>({1, 2, 3}).value();
  OwnedArray b = MakeVector<double>({10, 20, 30}).value();
  OwnedArray sum = ElementwiseBinary(a.ref(), b.ref(), BinOp::kAdd).value();
  EXPECT_EQ(sum.ref().GetDouble(2).value(), 33.0);
  OwnedArray prod = ElementwiseBinary(a.ref(), b.ref(), BinOp::kMul).value();
  EXPECT_EQ(prod.ref().GetDouble(1).value(), 40.0);
}

TEST(Elementwise, IntDivisionPromotesToFloat) {
  OwnedArray a = MakeVector<int32_t>({1, 3}).value();
  OwnedArray b = MakeVector<int32_t>({2, 2}).value();
  OwnedArray q = ElementwiseBinary(a.ref(), b.ref(), BinOp::kDiv).value();
  EXPECT_EQ(q.dtype(), DType::kFloat64);
  EXPECT_EQ(q.ref().GetDouble(0).value(), 0.5);
}

TEST(Elementwise, ShapeMismatchAndDivZero) {
  OwnedArray a = MakeVector<double>({1, 2}).value();
  OwnedArray b = MakeVector<double>({1, 2, 3}).value();
  EXPECT_FALSE(ElementwiseBinary(a.ref(), b.ref(), BinOp::kAdd).ok());
  OwnedArray z = MakeVector<double>({0, 1}).value();
  EXPECT_FALSE(ElementwiseBinary(a.ref(), z.ref(), BinOp::kDiv).ok());
}

TEST(Elementwise, ScalarBroadcast) {
  OwnedArray a = MakeVector<double>({2, 4}).value();
  OwnedArray scaled = ElementwiseScalar(a.ref(), 0.5, BinOp::kMul).value();
  EXPECT_EQ(scaled.ref().GetDouble(1).value(), 2.0);
}

TEST(Elementwise, DotAndNorm) {
  OwnedArray a = MakeVector<double>({1, 2, 3}).value();
  OwnedArray b = MakeVector<double>({4, 5, 6}).value();
  EXPECT_EQ(Dot(a.ref(), b.ref()).value(), std::complex<double>(32, 0));
  EXPECT_NEAR(Norm2(a.ref()).value(), std::sqrt(14.0), 1e-12);
  OwnedArray m = OwnedArray::Zeros(DType::kFloat64, {2, 2}).value();
  EXPECT_FALSE(Dot(m.ref(), m.ref()).ok());  // rank-1 only
}

// ---------------------------------------------------------------------------
// Kernel vs boxed differential tests.
//
// The kernel fast paths (src/core/kernels.h) must agree with the boxed
// per-element oracles across the full real dtype promotion matrix, including
// NaN / ±0 / ±inf operands and mixed signed widths. Element-wise ops and
// casts are compared bitwise on the output blob; reductions use a relative
// tolerance because kernel sums run independent accumulator chains.
// ---------------------------------------------------------------------------

const DType kRealDTypes[] = {DType::kInt8,    DType::kInt16,
                             DType::kInt32,   DType::kInt64,
                             DType::kFloat32, DType::kFloat64};

/// Interesting operand values for a dtype. Integer magnitudes stay below
/// 2^30 so the double-arithmetic oracle is exact; `nonzero` drops values
/// that would turn every division case into an error.
std::vector<double> DiffValues(DType t, bool nonzero) {
  if (t == DType::kFloat32 || t == DType::kFloat64) {
    std::vector<double> v = {1.5,
                             -2.25,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             1e-30,
                             123456.75,
                             -3.5,
                             0.5,
                             7.0};
    if (!nonzero) {
      v.push_back(0.0);
      v.push_back(-0.0);
    }
    return v;
  }
  double hi;
  switch (t) {
    case DType::kInt8: hi = 127; break;
    case DType::kInt16: hi = 32767; break;
    default: hi = 1073741824.0; break;  // 2^30
  }
  std::vector<double> v = {1, -1, 37, -29, hi, -hi, 100, -100, 7, 2};
  if (!nonzero) v.push_back(0);
  return v;
}

OwnedArray DiffArray(DType t, bool nonzero, int rotate) {
  std::vector<double> vals = DiffValues(t, nonzero);
  std::rotate(vals.begin(), vals.begin() + rotate % vals.size(), vals.end());
  OwnedArray a =
      OwnedArray::Zeros(t, {static_cast<int64_t>(vals.size())}).value();
  for (size_t i = 0; i < vals.size(); ++i) {
    EXPECT_TRUE(a.SetDouble(static_cast<int64_t>(i), vals[i]).ok());
  }
  return a;
}

/// Same outcome: both fail with the same status code, or both succeed with
/// bit-identical output blobs.
void ExpectSameArrayResult(const Result<OwnedArray>& fast,
                           const Result<OwnedArray>& slow,
                           const std::string& what) {
  ASSERT_EQ(fast.ok(), slow.ok())
      << what << ": kernel=" << fast.status().ToString()
      << " boxed=" << slow.status().ToString();
  if (!fast.ok()) {
    EXPECT_EQ(fast.status().code(), slow.status().code()) << what;
    return;
  }
  const OwnedArray& k = fast.value();
  const OwnedArray& b = slow.value();
  ASSERT_EQ(k.blob().size(), b.blob().size()) << what;
  EXPECT_TRUE(std::equal(k.blob().begin(), k.blob().end(), b.blob().begin()))
      << what << ": blobs differ";
}

TEST(KernelDifferential, ElementwiseFullDTypeMatrix) {
  for (DType lt : kRealDTypes) {
    for (DType rt : kRealDTypes) {
      for (BinOp op :
           {BinOp::kAdd, BinOp::kSub, BinOp::kMul, BinOp::kDiv}) {
        OwnedArray lhs = DiffArray(lt, /*nonzero=*/false, 0);
        OwnedArray rhs = DiffArray(rt, /*nonzero=*/true, 3);
        std::string what = std::string(DTypeName(lt)) + " op " +
                           std::string(DTypeName(rt)) + " #" +
                           std::to_string(static_cast<int>(op));
        ExpectSameArrayResult(ElementwiseBinary(lhs.ref(), rhs.ref(), op),
                              ElementwiseBinaryBoxed(lhs.ref(), rhs.ref(), op),
                              what);
      }
    }
  }
}

TEST(KernelDifferential, ElementwiseSmallValuesAlwaysSucceed) {
  // Values small enough that every (op, dtype-pair) combination fits even
  // int8, so this sweep proves the success path of the whole matrix
  // (the large-magnitude matrix above exercises overflow agreement).
  for (DType lt : kRealDTypes) {
    for (DType rt : kRealDTypes) {
      for (BinOp op :
           {BinOp::kAdd, BinOp::kSub, BinOp::kMul, BinOp::kDiv}) {
        const double small[] = {0, 1, -1, 2, -2, 3, -3, 4, 5, -5};
        OwnedArray lhs = OwnedArray::Zeros(lt, {10}).value();
        OwnedArray rhs = OwnedArray::Zeros(rt, {10}).value();
        for (int64_t i = 0; i < 10; ++i) {
          ASSERT_TRUE(lhs.SetDouble(i, small[i]).ok());
          // Offset rhs so no divisor is zero.
          ASSERT_TRUE(rhs.SetDouble(i, small[(i + 3) % 10] == 0
                                           ? 1
                                           : small[(i + 3) % 10])
                          .ok());
        }
        auto fast = ElementwiseBinary(lhs.ref(), rhs.ref(), op);
        auto slow = ElementwiseBinaryBoxed(lhs.ref(), rhs.ref(), op);
        ASSERT_TRUE(fast.ok()) << fast.status().ToString();
        ASSERT_TRUE(slow.ok()) << slow.status().ToString();
        ExpectSameArrayResult(fast, slow,
                              std::string(DTypeName(lt)) + "/" +
                                  std::string(DTypeName(rt)) + " small #" +
                                  std::to_string(static_cast<int>(op)));
      }
    }
  }
}

TEST(KernelDifferential, ElementwiseZeroDivisorStatusMatches) {
  for (DType lt : kRealDTypes) {
    for (DType rt : kRealDTypes) {
      OwnedArray lhs = DiffArray(lt, false, 0);
      OwnedArray rhs = DiffArray(rt, false, 0);  // contains zero(s)
      auto fast = ElementwiseBinary(lhs.ref(), rhs.ref(), BinOp::kDiv);
      auto slow = ElementwiseBinaryBoxed(lhs.ref(), rhs.ref(), BinOp::kDiv);
      ASSERT_FALSE(fast.ok());
      ASSERT_FALSE(slow.ok());
      EXPECT_EQ(fast.status().code(), slow.status().code());
    }
  }
}

TEST(KernelDifferential, ScalarBroadcastMatrix) {
  for (DType t : kRealDTypes) {
    for (BinOp op : {BinOp::kAdd, BinOp::kSub, BinOp::kMul, BinOp::kDiv}) {
      for (double scalar : {1.5, -2.0, 0.0}) {
        OwnedArray a = DiffArray(t, false, 1);
        std::string what = std::string("scalar ") + std::string(DTypeName(t)) +
                           " s=" + std::to_string(scalar) + " #" +
                           std::to_string(static_cast<int>(op));
        ExpectSameArrayResult(ElementwiseScalar(a.ref(), scalar, op),
                              ElementwiseScalarBoxed(a.ref(), scalar, op),
                              what);
      }
    }
  }
}

TEST(KernelDifferential, CastFullDTypeMatrix) {
  // Small in-range values: every (src, dst) pairing must succeed identically.
  for (DType st : kRealDTypes) {
    for (DType dt : kRealDTypes) {
      OwnedArray a =
          OwnedArray::Zeros(st, {6}).value();
      const double vals[] = {0, 1, -1, 100, -100, 37};
      for (int64_t i = 0; i < 6; ++i) {
        ASSERT_TRUE(a.SetDouble(i, vals[i]).ok());
      }
      std::string what = std::string("cast ") + std::string(DTypeName(st)) +
                         "->" + std::string(DTypeName(dt));
      ExpectSameArrayResult(ConvertDType(a.ref(), dt),
                            ConvertDTypeBoxed(a.ref(), dt), what);
    }
  }
  // Fractional float sources exercise round-to-nearest-even on int targets.
  for (DType st : {DType::kFloat32, DType::kFloat64}) {
    for (DType dt : kRealDTypes) {
      OwnedArray a = MakeVector<double>({0.5, 1.5, 2.5, -0.5, -1.5, 126.5})
                         .value();
      OwnedArray src = ConvertDType(a.ref(), st).value();
      std::string what = std::string("frac cast ") +
                         std::string(DTypeName(st)) + "->" +
                         std::string(DTypeName(dt));
      ExpectSameArrayResult(ConvertDType(src.ref(), dt),
                            ConvertDTypeBoxed(src.ref(), dt), what);
    }
  }
  // Out-of-range narrowing fails identically (value and NaN overflow).
  for (DType dt :
       {DType::kInt8, DType::kInt16, DType::kInt32, DType::kInt64}) {
    OwnedArray big = MakeVector<double>({1e300, 0}).value();
    ExpectSameArrayResult(ConvertDType(big.ref(), dt),
                          ConvertDTypeBoxed(big.ref(), dt), "big->int");
    OwnedArray nan =
        MakeVector<double>({std::numeric_limits<double>::quiet_NaN()})
            .value();
    ExpectSameArrayResult(ConvertDType(nan.ref(), dt),
                          ConvertDTypeBoxed(nan.ref(), dt), "nan->int");
  }
  OwnedArray wide = MakeVector<int64_t>({int64_t{1} << 40, 0}).value();
  for (DType dt : {DType::kInt8, DType::kInt16, DType::kInt32}) {
    ExpectSameArrayResult(ConvertDType(wide.ref(), dt),
                          ConvertDTypeBoxed(wide.ref(), dt), "wide->narrow");
  }
}

TEST(KernelDifferential, ReductionsWithinTolerance) {
  for (DType t : kRealDTypes) {
    // No NaN here: kSum of a NaN-poisoned array is covered separately.
    OwnedArray a = OwnedArray::Zeros(t, {257}).value();
    Rng rng(42);
    for (int64_t i = 0; i < 257; ++i) {
      ASSERT_TRUE(a.SetDouble(i, std::floor(rng.Uniform(-100, 100))).ok());
    }
    for (AggKind kind : {AggKind::kSum, AggKind::kMin, AggKind::kMax,
                         AggKind::kMean, AggKind::kStd, AggKind::kCount}) {
      double fast = AggregateAll(a.ref(), kind).value();
      double slow = AggregateAllBoxed(a.ref(), kind).value();
      EXPECT_NEAR(fast, slow, 1e-9 * (std::fabs(slow) + 1))
          << DTypeName(t) << " kind " << static_cast<int>(kind);
    }
    double nf = Norm2(a.ref()).value();
    double nb = Norm2Boxed(a.ref()).value();
    EXPECT_NEAR(nf, nb, 1e-9 * (nb + 1)) << DTypeName(t);
  }
  // Dot: all four float pairings have kernel fast paths.
  for (DType ta : {DType::kFloat32, DType::kFloat64}) {
    for (DType tb : {DType::kFloat32, DType::kFloat64}) {
      OwnedArray raw_a =
          MakeVector<double>({1.5, -2.25, 3.0, 0.5, -7.0, 11.25}).value();
      OwnedArray raw_b =
          MakeVector<double>({2.0, 4.5, -1.5, 8.0, 0.25, -3.0}).value();
      OwnedArray a = ConvertDType(raw_a.ref(), ta).value();
      OwnedArray b = ConvertDType(raw_b.ref(), tb).value();
      std::complex<double> fast = Dot(a.ref(), b.ref()).value();
      std::complex<double> slow = DotBoxed(a.ref(), b.ref()).value();
      EXPECT_NEAR(fast.real(), slow.real(), 1e-9)
          << DTypeName(ta) << "." << DTypeName(tb);
      EXPECT_EQ(fast.imag(), 0.0);
    }
  }
}

TEST(KernelDifferential, NaNPropagatesThroughSum) {
  OwnedArray a =
      MakeVector<double>({1.0, std::numeric_limits<double>::quiet_NaN(), 2.0})
          .value();
  EXPECT_TRUE(std::isnan(AggregateAll(a.ref(), AggKind::kSum).value()));
  EXPECT_TRUE(std::isnan(AggregateAllBoxed(a.ref(), AggKind::kSum).value()));
}

TEST(KernelDifferential, MaxStorageUnalignedPayload) {
  // Rank-3 max-class arrays have a 16 + 4*3 = 28-byte header, so float64
  // payloads start 4-byte-misaligned; kernels must handle that (they access
  // elements through memcpy).
  OwnedArray a =
      OwnedArray::Zeros(DType::kFloat64, {3, 5, 7}, StorageClass::kMax)
          .value();
  OwnedArray b =
      OwnedArray::Zeros(DType::kFloat64, {3, 5, 7}, StorageClass::kMax)
          .value();
  Rng rng(7);
  for (int64_t i = 0; i < a.num_elements(); ++i) {
    ASSERT_TRUE(a.SetDouble(i, rng.Uniform(-10, 10)).ok());
    ASSERT_TRUE(b.SetDouble(i, rng.Uniform(1, 10)).ok());
  }
  for (BinOp op : {BinOp::kAdd, BinOp::kMul, BinOp::kDiv}) {
    ExpectSameArrayResult(ElementwiseBinary(a.ref(), b.ref(), op),
                          ElementwiseBinaryBoxed(a.ref(), b.ref(), op),
                          "max-class op");
  }
  EXPECT_NEAR(AggregateAll(a.ref(), AggKind::kSum).value(),
              AggregateAllBoxed(a.ref(), AggKind::kSum).value(), 1e-9);
}

TEST(KernelDifferential, Int64LargeMagnitudeExact) {
  // Regression: the old boxed-only path round-tripped integers through
  // complex<double>, corrupting int64 values above 2^53. The kernel integer
  // path must be exact all the way to the overflow boundary.
  const int64_t big = std::numeric_limits<int64_t>::max() - 1;
  OwnedArray a = MakeVector<int64_t>({big, big - 2, -big}).value();
  OwnedArray one = MakeVector<int64_t>({1, 2, -1}).value();

  OwnedArray sum = ElementwiseBinary(a.ref(), one.ref(), BinOp::kAdd).value();
  auto data = sum.ref().Data<int64_t>().value();
  EXPECT_EQ(data[0], std::numeric_limits<int64_t>::max());
  EXPECT_EQ(data[1], big);
  EXPECT_EQ(data[2], -big - 1);

  // One past the boundary overflows with OutOfRange instead of wrapping.
  OwnedArray two = MakeVector<int64_t>({2, 0, 0}).value();
  auto overflow = ElementwiseBinary(a.ref(), two.ref(), BinOp::kAdd);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kOutOfRange);

  OwnedArray half = MakeVector<int64_t>({int64_t{1} << 40, 3, 5}).value();
  auto mul = ElementwiseBinary(half.ref(), half.ref(), BinOp::kMul);
  ASSERT_FALSE(mul.ok());
  EXPECT_EQ(mul.status().code(), StatusCode::kOutOfRange);

  // Narrow integer outputs keep exactness too: int32 + int32 -> int32 range
  // checks instead of saturating through double.
  OwnedArray m32 = MakeVector<int32_t>({2000000000, -2000000000}).value();
  auto sum32 = ElementwiseBinary(m32.ref(), m32.ref(), BinOp::kAdd);
  ASSERT_FALSE(sum32.ok());
  EXPECT_EQ(sum32.status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace sqlarray
