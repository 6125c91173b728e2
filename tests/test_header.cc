// Tests for the serialized array header codec (Sec. 3.5 format).
#include <gtest/gtest.h>

#include <string>

#include "core/header.h"

namespace sqlarray {
namespace {

TEST(Header, ShortHeaderIs24Bytes) {
  ArrayHeader h{DType::kFloat64, StorageClass::kShort, {5}};
  auto bytes = EncodeHeader(h).value();
  EXPECT_EQ(bytes.size(), 24u);
  EXPECT_EQ(bytes[0], kArrayMagic);
  EXPECT_EQ(bytes[1], 0);  // short flag
}

TEST(Header, MaxHeaderSizeDependsOnRank) {
  ArrayHeader h{DType::kFloat64, StorageClass::kMax, {5, 6, 7}};
  auto bytes = EncodeHeader(h).value();
  EXPECT_EQ(bytes.size(), 16u + 4 * 3);
  EXPECT_EQ(bytes[1], 1);  // max flag
}

TEST(Header, BlobSizeAccounting) {
  ArrayHeader h{DType::kInt16, StorageClass::kShort, {10, 10}};
  EXPECT_EQ(h.header_size(), 24);
  EXPECT_EQ(h.data_size(), 200);
  EXPECT_EQ(h.blob_size(), 224);
}

struct RoundTripCase {
  DType dtype;
  StorageClass storage;
  Dims dims;
};

class HeaderRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(HeaderRoundTrip, EncodeDecode) {
  const RoundTripCase& c = GetParam();
  ArrayHeader h{c.dtype, c.storage, c.dims};
  auto bytes = EncodeHeader(h).value();
  // Pad with payload-sized zeros so payload validation passes.
  bytes.resize(static_cast<size_t>(h.blob_size()), 0);
  ArrayHeader back = DecodeHeader(bytes).value();
  EXPECT_EQ(back, h);
  EXPECT_EQ(PeekHeaderSize(bytes).value(), h.header_size());
}

std::vector<RoundTripCase> RoundTripCases() {
  std::vector<RoundTripCase> cases;
  for (int d = 0; d < kNumDTypes; ++d) {
    DType t = static_cast<DType>(d);
    cases.push_back({t, StorageClass::kShort, {7}});
    cases.push_back({t, StorageClass::kShort, {2, 3}});
    cases.push_back({t, StorageClass::kShort, {2, 2, 2, 2, 2, 2}});
    cases.push_back({t, StorageClass::kMax, {100}});
    cases.push_back({t, StorageClass::kMax, {10, 20, 30}});
    cases.push_back({t, StorageClass::kMax, {2, 2, 2, 2, 2, 2, 2, 2}});
  }
  return cases;
}

/// "<dtype>_<class>_<d0>x<d1>...", e.g. float64_short_2x3.
std::string RoundTripName(
    const ::testing::TestParamInfo<RoundTripCase>& info) {
  const RoundTripCase& c = info.param;
  std::string name = std::string(DTypeName(c.dtype)) +
                     (c.storage == StorageClass::kShort ? "_short_" : "_max_");
  for (size_t k = 0; k < c.dims.size(); ++k) {
    name += (k > 0 ? "x" : "") + std::to_string(c.dims[k]);
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllDTypesAndShapes, HeaderRoundTrip,
                         ::testing::ValuesIn(RoundTripCases()),
                         RoundTripName);

TEST(Header, ShortRejectsRankAbove6) {
  EXPECT_FALSE(ValidateHeader(DType::kInt8, Dims{1, 1, 1, 1, 1, 1, 1},
                              StorageClass::kShort)
                   .ok());
  EXPECT_TRUE(ValidateHeader(DType::kInt8, Dims{1, 1, 1, 1, 1, 1, 1},
                             StorageClass::kMax)
                  .ok());
}

TEST(Header, ShortRejectsBlobOver8000Bytes) {
  // 1000 doubles = 8000 bytes payload + 24 header > 8000.
  EXPECT_FALSE(
      ValidateHeader(DType::kFloat64, Dims{1000}, StorageClass::kShort).ok());
  // 996 doubles + 24 = 7992 <= 8000.
  EXPECT_TRUE(
      ValidateHeader(DType::kFloat64, Dims{996}, StorageClass::kShort).ok());
}

TEST(Header, ShortRejectsDimOverInt16) {
  EXPECT_FALSE(
      ValidateHeader(DType::kInt8, Dims{40000}, StorageClass::kShort).ok());
}

TEST(Header, ChooseStorageClassPicksShortWhenItFits) {
  EXPECT_EQ(ChooseStorageClass(DType::kFloat64, Dims{5}),
            StorageClass::kShort);
  EXPECT_EQ(ChooseStorageClass(DType::kFloat64, Dims{5000}),
            StorageClass::kMax);
  EXPECT_EQ(ChooseStorageClass(DType::kInt8, Dims{1, 1, 1, 1, 1, 1, 1}),
            StorageClass::kMax);
}

TEST(Header, DecodeRejectsBadMagic) {
  ArrayHeader h{DType::kInt32, StorageClass::kShort, {2}};
  auto bytes = EncodeHeader(h).value();
  bytes.resize(static_cast<size_t>(h.blob_size()), 0);
  bytes[0] = 0x00;
  EXPECT_EQ(DecodeHeader(bytes).status().code(), StatusCode::kCorruption);
}

TEST(Header, DecodeRejectsBadDType) {
  ArrayHeader h{DType::kInt32, StorageClass::kShort, {2}};
  auto bytes = EncodeHeader(h).value();
  bytes.resize(static_cast<size_t>(h.blob_size()), 0);
  bytes[2] = 0xEE;
  EXPECT_EQ(DecodeHeader(bytes).status().code(), StatusCode::kCorruption);
}

TEST(Header, DecodeRejectsTruncatedPayload) {
  ArrayHeader h{DType::kFloat64, StorageClass::kShort, {10}};
  auto bytes = EncodeHeader(h).value();
  bytes.resize(static_cast<size_t>(h.blob_size()) - 1, 0);
  EXPECT_EQ(DecodeHeader(bytes).status().code(), StatusCode::kCorruption);
}

TEST(Header, DecodeAcceptsPaddedBlob) {
  // Fixed-width binary columns pad the stored image; extra bytes are fine.
  ArrayHeader h{DType::kFloat64, StorageClass::kShort, {3}};
  auto bytes = EncodeHeader(h).value();
  bytes.resize(static_cast<size_t>(h.blob_size()) + 100, 0);
  EXPECT_TRUE(DecodeHeader(bytes).ok());
}

TEST(Header, DecodeRejectsCountMismatch) {
  ArrayHeader h{DType::kInt8, StorageClass::kShort, {4}};
  auto bytes = EncodeHeader(h).value();
  bytes.resize(static_cast<size_t>(h.blob_size()), 0);
  bytes[4] = 5;  // element count != product of dims
  EXPECT_EQ(DecodeHeader(bytes).status().code(), StatusCode::kCorruption);
}

TEST(Header, DecodeRejectsUnknownFlags) {
  ArrayHeader h{DType::kInt8, StorageClass::kShort, {4}};
  auto bytes = EncodeHeader(h).value();
  bytes.resize(static_cast<size_t>(h.blob_size()), 0);
  bytes[1] = 0x80;
  EXPECT_EQ(DecodeHeader(bytes).status().code(), StatusCode::kCorruption);
}

TEST(Header, ZeroSizedDimensionIsLegal) {
  ArrayHeader h{DType::kFloat32, StorageClass::kShort, {0, 5}};
  auto bytes = EncodeHeader(h).value();
  ArrayHeader back = DecodeHeader(bytes).value();
  EXPECT_EQ(back.num_elements(), 0);
  EXPECT_EQ(back.dims, (Dims{0, 5}));
}

TEST(Header, PeekNeedsAtLeast8Bytes) {
  std::vector<uint8_t> tiny{kArrayMagic, 0, 0};
  EXPECT_FALSE(PeekHeaderSize(tiny).ok());
}

}  // namespace
}  // namespace sqlarray
