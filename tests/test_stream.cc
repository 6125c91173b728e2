// Tests for streamed (partial-read) array operations over ByteSources.
#include <gtest/gtest.h>

#include <string>

#include "core/build.h"
#include "core/byte_source.h"
#include "core/ops.h"
#include "core/stream_ops.h"

namespace sqlarray {
namespace {

/// A ByteSource wrapper that counts bytes actually read.
class CountingSource : public ByteSource {
 public:
  explicit CountingSource(std::span<const uint8_t> bytes) : mem_(bytes) {}

  int64_t size() const override { return mem_.size(); }
  Status ReadAt(int64_t offset, std::span<uint8_t> out) override {
    bytes_read_ += static_cast<int64_t>(out.size());
    ++read_calls_;
    return mem_.ReadAt(offset, out);
  }

  int64_t bytes_read() const { return bytes_read_; }
  int64_t read_calls() const { return read_calls_; }

 private:
  MemoryByteSource mem_;
  int64_t bytes_read_ = 0;
  int64_t read_calls_ = 0;
};

OwnedArray RampMax(Dims dims) {
  OwnedArray a =
      OwnedArray::Zeros(DType::kFloat64, dims, StorageClass::kMax).value();
  for (int64_t i = 0; i < a.num_elements(); ++i) {
    EXPECT_TRUE(a.SetDouble(i, static_cast<double>(i)).ok());
  }
  return a;
}

TEST(StreamOps, ReadHeaderOnly) {
  OwnedArray a = RampMax({20, 30});
  CountingSource src(a.blob());
  ArrayHeader h = ReadHeaderFromSource(&src).value();
  EXPECT_EQ(h.dims, (Dims{20, 30}));
  // Header reads must not touch the payload.
  EXPECT_LT(src.bytes_read(), 64);
}

TEST(StreamOps, StreamItemTouchesOneElement) {
  OwnedArray a = RampMax({100, 100});
  CountingSource src(a.blob());
  double v = StreamItem(&src, Dims{5, 7}).value();
  EXPECT_EQ(v, 705.0);
  // Header (~2 reads) + one 8-byte element.
  EXPECT_LT(src.bytes_read(), 64);
}

TEST(StreamOps, StreamReadAllRoundTrip) {
  OwnedArray a = RampMax({17});
  MemoryByteSource src(a.blob());
  OwnedArray back = StreamReadAll(&src).value();
  EXPECT_EQ(back.dims(), a.dims());
  EXPECT_EQ(back.ref().GetDouble(16).value(), 16.0);
}

struct StreamSubCase {
  Dims dims;
  Dims offset;
  Dims sizes;
};

class StreamSubarrayMatchesLocal
    : public ::testing::TestWithParam<StreamSubCase> {};

/// "<d0>x<d1>...": one part of a case's test name.
std::string ShapeName(const Dims& dims) {
  std::string name;
  for (size_t k = 0; k < dims.size(); ++k) {
    name += (k > 0 ? "x" : "") + std::to_string(dims[k]);
  }
  return name;
}

TEST_P(StreamSubarrayMatchesLocal, SameResult) {
  const StreamSubCase& c = GetParam();
  OwnedArray a = RampMax(c.dims);
  MemoryByteSource src(a.blob());
  OwnedArray streamed =
      StreamSubarray(&src, c.offset, c.sizes, false).value();
  OwnedArray local = Subarray(a.ref(), c.offset, c.sizes, false).value();
  ASSERT_EQ(streamed.dims(), local.dims());
  for (int64_t i = 0; i < streamed.num_elements(); ++i) {
    EXPECT_EQ(streamed.ref().GetDouble(i).value(),
              local.ref().GetDouble(i).value());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StreamSubarrayMatchesLocal,
    ::testing::Values(
        StreamSubCase{{50}, {10}, {20}},
        StreamSubCase{{20, 20}, {3, 5}, {4, 6}},
        StreamSubCase{{20, 20}, {0, 5}, {20, 6}},     // full leading dim
        StreamSubCase{{8, 8, 8}, {2, 2, 2}, {3, 3, 3}},
        StreamSubCase{{8, 8, 8}, {0, 0, 2}, {8, 8, 3}},  // contiguous planes
        StreamSubCase{{8, 8, 8}, {0, 0, 0}, {8, 8, 8}},
        StreamSubCase{{4, 4, 4, 4}, {1, 0, 2, 1}, {2, 4, 1, 3}}),
    [](const ::testing::TestParamInfo<StreamSubCase>& info) {
      return ShapeName(info.param.dims) + "_at_" +
             ShapeName(info.param.offset) + "_take_" +
             ShapeName(info.param.sizes);
    });

TEST(StreamOps, PartialReadIsProportionalToSubset) {
  // A 100x100x100 float64 max array is 8 MB; a 4^3 subset should read only
  // a few KB.
  OwnedArray a =
      OwnedArray::Zeros(DType::kFloat64, {100, 100, 100}, StorageClass::kMax)
          .value();
  CountingSource src(a.blob());
  OwnedArray sub =
      StreamSubarray(&src, Dims{10, 10, 10}, Dims{4, 4, 4}, false).value();
  EXPECT_EQ(sub.num_elements(), 64);
  // 16 runs of 4 elements = 512 payload bytes + header.
  EXPECT_LT(src.bytes_read(), 2000);
  EXPECT_LT(src.bytes_read(), static_cast<int64_t>(a.blob().size()) / 100);
}

TEST(StreamOps, ContiguousPrefixCoalescesReads) {
  OwnedArray a = RampMax({16, 16, 16});
  CountingSource src(a.blob());
  // Full leading two dims: the 16x16x4 block is one contiguous range.
  OwnedArray sub =
      StreamSubarray(&src, Dims{0, 0, 4}, Dims{16, 16, 4}, false).value();
  EXPECT_EQ(sub.num_elements(), 16 * 16 * 4);
  // Header reads + ONE payload read.
  EXPECT_LE(src.read_calls(), 3);
}

TEST(StreamOps, CollapseMatchesLocalSemantics) {
  OwnedArray a = RampMax({6, 7});
  MemoryByteSource src(a.blob());
  OwnedArray streamed = StreamSubarray(&src, Dims{0, 3}, Dims{6, 1}, true)
                            .value();
  EXPECT_EQ(streamed.dims(), (Dims{6}));
  EXPECT_EQ(streamed.ref().GetDouble(0).value(), 18.0);
}

TEST(StreamOps, ValidatesBounds) {
  OwnedArray a = RampMax({10});
  MemoryByteSource src(a.blob());
  EXPECT_FALSE(StreamSubarray(&src, Dims{8}, Dims{4}, false).ok());
  EXPECT_FALSE(StreamItem(&src, Dims{10}).ok());
  EXPECT_FALSE(StreamItem(&src, Dims{0, 0}).ok());
}

TEST(StreamOps, RejectsTruncatedSource) {
  OwnedArray a = RampMax({10});
  auto blob = a.blob();
  MemoryByteSource src(blob.first(blob.size() - 8));
  EXPECT_FALSE(ReadHeaderFromSource(&src).ok());
}

TEST(MemoryByteSource, BoundsChecked) {
  std::vector<uint8_t> bytes(16);
  MemoryByteSource src(bytes);
  std::vector<uint8_t> buf(8);
  EXPECT_TRUE(src.ReadAt(8, buf).ok());
  EXPECT_FALSE(src.ReadAt(9, buf).ok());
  EXPECT_FALSE(src.ReadAt(-1, buf).ok());
}

}  // namespace
}  // namespace sqlarray
