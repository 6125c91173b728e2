// Tests for ArrayRef / OwnedArray and element codecs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/array.h"
#include "core/build.h"

namespace sqlarray {
namespace {

TEST(DTypeTraits, SizesAndNames) {
  EXPECT_EQ(DTypeSize(DType::kInt8), 1);
  EXPECT_EQ(DTypeSize(DType::kComplex128), 16);
  EXPECT_EQ(DTypeName(DType::kFloat32), "float32");
  EXPECT_EQ(DTypeFromName("complex64").value(), DType::kComplex64);
  EXPECT_FALSE(DTypeFromName("bogus").ok());
  EXPECT_EQ(DTypeSchemaPrefix(DType::kInt64), "BigInt");
  EXPECT_EQ(DTypeSchemaPrefix(DType::kFloat64), "Float");
}

TEST(DTypeTraits, Classification) {
  EXPECT_TRUE(IsIntegerDType(DType::kDateTime));
  EXPECT_TRUE(IsRealDType(DType::kFloat32));
  EXPECT_TRUE(IsComplexDType(DType::kComplex64));
  EXPECT_FALSE(IsIntegerDType(DType::kFloat64));
}

TEST(OwnedArray, ZerosHasZeroPayload) {
  OwnedArray a = OwnedArray::Zeros(DType::kInt32, {4, 3}).value();
  EXPECT_EQ(a.num_elements(), 12);
  for (int64_t i = 0; i < 12; ++i) {
    EXPECT_EQ(a.ref().GetDouble(i).value(), 0.0);
  }
}

TEST(OwnedArray, FromValuesRoundTrip) {
  std::vector<double> v{1.5, -2.5, 3.25};
  OwnedArray a = OwnedArray::FromVector<double>(v).value();
  auto data = a.ref().Data<double>().value();
  EXPECT_EQ(data[0], 1.5);
  EXPECT_EQ(data[2], 3.25);
}

TEST(OwnedArray, FromValuesCountMismatchFails) {
  std::vector<int32_t> v{1, 2, 3};
  EXPECT_FALSE(OwnedArray::FromValues<int32_t>({2, 2}, v).ok());
}

TEST(OwnedArray, TypedAccessRejectsWrongType) {
  OwnedArray a = OwnedArray::Zeros(DType::kFloat64, {3}).value();
  EXPECT_FALSE(a.ref().Data<float>().ok());
  EXPECT_TRUE(a.ref().Data<double>().ok());
}

TEST(OwnedArray, DateTimeReadsAsInt64) {
  OwnedArray a = OwnedArray::Zeros(DType::kDateTime, {2}).value();
  EXPECT_TRUE(a.MutableData<int64_t>().ok());
  EXPECT_TRUE(a.ref().Data<int64_t>().ok());
}

TEST(OwnedArray, SpanAccessorsRejectMisalignedPayload) {
  // A rank-1 max array's payload starts 20 bytes into its blob: no 8-byte
  // element there is aligned, so the span accessors refuse with a typed
  // error instead of handing out a misaligned span.
  OwnedArray a =
      OwnedArray::Zeros(DType::kFloat64, {4}, StorageClass::kMax).value();
  EXPECT_EQ(a.MutableData<double>().status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(a.ref().Data<double>().status().code(),
            StatusCode::kInvalidArgument);
  // The element type is still checked first.
  EXPECT_EQ(a.ref().Data<float>().status().code(), StatusCode::kTypeMismatch);
  EXPECT_EQ(a.ref().CopyData<float>().status().code(),
            StatusCode::kTypeMismatch);
}

TEST(OwnedArray, CopyAccessorsRoundTripMaxArraysOfRankOneToThree) {
  for (const Dims& dims : {Dims{5}, Dims{2, 3}, Dims{2, 3, 2}}) {
    SCOPED_TRACE(dims.size());
    const int64_t n = ElementCount(dims);
    std::vector<double> f(static_cast<size_t>(n));
    std::vector<int64_t> k(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      f[i] = 0.5 * static_cast<double>(i) - 1.25;
      k[i] = (int64_t{1} << 60) + 3 * i;
    }
    OwnedArray fa =
        OwnedArray::Zeros(DType::kFloat64, dims, StorageClass::kMax).value();
    ASSERT_TRUE(fa.StoreData<double>(f).ok());
    EXPECT_EQ(fa.ref().CopyData<double>().value(), f);
    EXPECT_EQ(fa.ref().GetDouble(n - 1).value(), f.back());

    OwnedArray ka =
        OwnedArray::FromValues<int64_t>(dims, k, StorageClass::kMax).value();
    EXPECT_EQ(ka.storage(), StorageClass::kMax);
    EXPECT_EQ(ka.ref().CopyData<int64_t>().value(), k);
    OwnedArray copy = OwnedArray::FromBlob(
                          std::vector<uint8_t>(ka.blob().begin(),
                                               ka.blob().end()))
                          .value();
    EXPECT_EQ(copy.ref().CopyData<int64_t>().value(), k);
  }
  OwnedArray a =
      OwnedArray::Zeros(DType::kFloat64, {3}, StorageClass::kMax).value();
  std::vector<double> wrong(2, 1.0);
  EXPECT_EQ(a.StoreData<double>(wrong).code(), StatusCode::kInvalidArgument);
}

TEST(OwnedArray, SetGetAtMultiIndex) {
  OwnedArray a = OwnedArray::Zeros(DType::kFloat64, {3, 4}).value();
  ASSERT_TRUE(a.SetDoubleAt(Dims{2, 3}, 9.5).ok());
  EXPECT_EQ(a.ref().GetDoubleAt(Dims{2, 3}).value(), 9.5);
  // Column-major: (2,3) -> 2 + 3*3 = 11.
  EXPECT_EQ(a.ref().GetDouble(11).value(), 9.5);
}

TEST(OwnedArray, OutOfRangeAccessFails) {
  OwnedArray a = OwnedArray::Zeros(DType::kFloat64, {3}).value();
  EXPECT_FALSE(a.ref().GetDouble(3).ok());
  EXPECT_FALSE(a.ref().GetDouble(-1).ok());
  EXPECT_FALSE(a.SetDouble(3, 1.0).ok());
}

TEST(OwnedArray, ComplexStoreAndLoad) {
  OwnedArray a = OwnedArray::Zeros(DType::kComplex128, {2}).value();
  ASSERT_TRUE(a.SetComplex(0, {1.0, -2.0}).ok());
  std::complex<double> v = a.ref().GetComplex(0).value();
  EXPECT_EQ(v.real(), 1.0);
  EXPECT_EQ(v.imag(), -2.0);
  // Real read of a complex array fails.
  EXPECT_FALSE(a.ref().GetDouble(0).ok());
}

TEST(OwnedArray, ComplexIntoRealRequiresZeroImag) {
  OwnedArray a = OwnedArray::Zeros(DType::kFloat64, {1}).value();
  EXPECT_FALSE(a.SetComplex(0, {1.0, 0.5}).ok());
  EXPECT_TRUE(a.SetComplex(0, {1.0, 0.0}).ok());
}

TEST(OwnedArray, IntegerRoundingAndOverflow) {
  OwnedArray a = OwnedArray::Zeros(DType::kInt8, {2}).value();
  ASSERT_TRUE(a.SetDouble(0, 3.6).ok());
  EXPECT_EQ(a.ref().GetDouble(0).value(), 4.0);  // round to nearest
  EXPECT_FALSE(a.SetDouble(1, 1000.0).ok());     // int8 overflow
  EXPECT_FALSE(a.SetDouble(1, std::nan("")).ok());
}

TEST(OwnedArray, FromBlobValidates) {
  OwnedArray a = OwnedArray::Zeros(DType::kInt16, {4}).value();
  std::vector<uint8_t> blob(a.blob().begin(), a.blob().end());
  EXPECT_TRUE(OwnedArray::FromBlob(blob).ok());
  blob[0] = 0;  // corrupt the magic
  EXPECT_FALSE(OwnedArray::FromBlob(blob).ok());
}

TEST(OwnedArray, FromBlobTrimsPadding) {
  OwnedArray a = OwnedArray::Zeros(DType::kInt16, {4}).value();
  std::vector<uint8_t> blob(a.blob().begin(), a.blob().end());
  blob.resize(blob.size() + 64, 0xAB);  // fixed-column padding
  OwnedArray b = OwnedArray::FromBlob(blob).value();
  EXPECT_EQ(b.blob().size(), a.blob().size());
}

TEST(ArrayRef, ParseAliasesBlob) {
  OwnedArray a = OwnedArray::Zeros(DType::kFloat32, {5}).value();
  ArrayRef r = ArrayRef::Parse(a.blob()).value();
  EXPECT_EQ(r.num_elements(), 5);
  EXPECT_EQ(r.payload().size(), 20u);
  EXPECT_EQ(r.blob().data(), a.blob().data());
}

TEST(OwnedArray, CopyOfProducesIndependentBlob) {
  OwnedArray a = OwnedArray::Zeros(DType::kFloat64, {2}).value();
  ASSERT_TRUE(a.SetDouble(0, 5.0).ok());
  OwnedArray b = OwnedArray::CopyOf(a.ref()).value();
  ASSERT_TRUE(b.SetDouble(0, 7.0).ok());
  EXPECT_EQ(a.ref().GetDouble(0).value(), 5.0);
  EXPECT_EQ(b.ref().GetDouble(0).value(), 7.0);
}

TEST(Builders, MakeVectorAndSquareMatrix) {
  OwnedArray v = MakeVector<double>({1, 2, 3, 4, 5}).value();
  EXPECT_EQ(v.dims(), (Dims{5}));
  OwnedArray m = MakeSquareMatrix<double>({1, 2, 3, 4}).value();
  EXPECT_EQ(m.dims(), (Dims{2, 2}));
  // Column-major: element (1, 0) is the second listed value.
  EXPECT_EQ(m.ref().GetDoubleAt(Dims{1, 0}).value(), 2.0);
  EXPECT_FALSE(MakeSquareMatrix<double>({1, 2, 3}).ok());
}

TEST(Builders, MakeFullAndRamp) {
  OwnedArray f = MakeFull(DType::kInt32, {2, 2}, 7).value();
  EXPECT_EQ(f.ref().GetDouble(3).value(), 7.0);
  OwnedArray r = MakeRamp(DType::kFloat64, 4, 1.0, 0.5).value();
  EXPECT_EQ(r.ref().GetDouble(3).value(), 2.5);
}

TEST(Builders, AutoStorageClassSelection) {
  OwnedArray small = OwnedArray::Zeros(DType::kFloat64, {10}).value();
  EXPECT_EQ(small.storage(), StorageClass::kShort);
  OwnedArray big = OwnedArray::Zeros(DType::kFloat64, {10000}).value();
  EXPECT_EQ(big.storage(), StorageClass::kMax);
}

TEST(ScalarCodec, WriteReadEveryRealDType) {
  for (DType t : {DType::kInt8, DType::kInt16, DType::kInt32, DType::kInt64,
                  DType::kFloat32, DType::kFloat64}) {
    uint8_t buf[16] = {0};
    ASSERT_TRUE(WriteScalarFromDouble(t, buf, 42.0).ok());
    EXPECT_EQ(ReadScalarAsDouble(t, buf).value(), 42.0) << DTypeName(t);
    std::complex<double> c = ReadScalarAsComplex(t, buf).value();
    EXPECT_EQ(c, std::complex<double>(42.0, 0.0));
  }
}

}  // namespace
}  // namespace sqlarray
