// Tests for Status/Result, dimension math, and byte codecs.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <vector>

#include "common/bytes.h"
#include "common/crc32c.h"
#include "common/dims.h"
#include "common/rng.h"
#include "common/status.h"

namespace sqlarray {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad thing");
}

TEST(Status, CopyIsCheapAndEqual) {
  Status a = Status::Corruption("x");
  Status b = a;
  EXPECT_EQ(a, b);
  EXPECT_EQ(b.code(), StatusCode::kCorruption);
}

TEST(Status, AllCodesHaveNames) {
  for (int i = 0; i <= static_cast<int>(StatusCode::kInternal); ++i) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(i)), "UNKNOWN");
  }
}

TEST(Status, EveryCodeNameIsExact) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "INVALID_ARGUMENT");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OUT_OF_RANGE");
  EXPECT_STREQ(StatusCodeName(StatusCode::kTypeMismatch), "TYPE_MISMATCH");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCorruption), "CORRUPTION");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_STREQ(StatusCodeName(StatusCode::kAlreadyExists), "ALREADY_EXISTS");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "UNIMPLEMENTED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "INTERNAL");
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(Result, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Result, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

Result<int> Doubled(Result<int> in) {
  SQLARRAY_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(Result, AssignOrReturnMacroPropagates) {
  EXPECT_EQ(Doubled(21).value(), 42);
  EXPECT_EQ(Doubled(Status::Internal("x")).status().code(),
            StatusCode::kInternal);
}

TEST(Result, ErrorMessageSurvivesMoves) {
  Result<std::string> a(Status::Corruption("page 17 unreadable"));
  Result<std::string> b = std::move(a);
  Result<std::string> c = std::move(b);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(c.status().message(), "page 17 unreadable");
}

Result<std::vector<int>> Relay(Result<std::vector<int>> in) {
  SQLARRAY_ASSIGN_OR_RETURN(std::vector<int> v, std::move(in));
  return v;
}

TEST(Result, ErrorMessageSurvivesMacroRelayChain) {
  // The message attached at the origin must arrive intact after several
  // SQLARRAY_ASSIGN_OR_RETURN hops — the path every storage fault takes on
  // its way from the disk up to the session.
  auto r = Relay(Relay(Relay(Status::Corruption("checksum mismatch on page 3"))));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(r.status().message(), "checksum mismatch on page 3");
}

TEST(Result, MovedFromValueResultIsReusable) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
  r = Status::NotFound("gone");
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  r = std::vector<int>{4, 5};
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
}

TEST(Crc32c, KnownAnswerVectors) {
  // RFC 3720 appendix test vectors for CRC32C (Castagnoli), through both
  // implementations.
  const char* check = "123456789";
  std::vector<uint8_t> zeros(32, 0), ones(32, 0xFF), up(32), down(32);
  for (int i = 0; i < 32; ++i) {
    up[i] = static_cast<uint8_t>(i);
    down[i] = static_cast<uint8_t>(31 - i);
  }
  using CrcFn = uint32_t (*)(const void*, size_t, uint32_t);
  for (CrcFn crc : std::initializer_list<CrcFn>{&Crc32c, &Crc32cPortable}) {
    EXPECT_EQ(crc(check, 9, 0), 0xE3069283u);
    // Empty input is the seed itself.
    EXPECT_EQ(crc(nullptr, 0, 0), 0u);
    EXPECT_EQ(crc(zeros.data(), zeros.size(), 0), 0x8A9136AAu);
    EXPECT_EQ(crc(ones.data(), ones.size(), 0), 0x62A8AB43u);
    EXPECT_EQ(crc(up.data(), up.size(), 0), 0x46DD794Eu);
    EXPECT_EQ(crc(down.data(), down.size(), 0), 0x113FDB5Cu);
  }
  // Incremental computation matches one-shot.
  std::vector<uint8_t> data(1000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  uint32_t oneshot = Crc32c(data.data(), data.size());
  uint32_t split = Crc32c(data.data() + 400, 600,
                          Crc32c(data.data(), 400));
  EXPECT_EQ(oneshot, split);
  // Sensitivity: any single-bit difference changes the sum.
  data[500] ^= 0x10;
  EXPECT_NE(Crc32c(data.data(), data.size()), oneshot);
}

// Differential suite: the dispatched Crc32c against slicing-by-8. The
// hardware kernel switches to three interleaved streams of kStripe bytes
// (crc32c.cc) at 3 * kStripe, so lengths and splits straddle every stripe
// boundary. On a CPU or build without the kernel both sides are portable
// and the suite still runs.
constexpr size_t kStripe = 2728;

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.NextU64());
  return bytes;
}

TEST(Crc32c, MatchesPortableAtEveryLengthAndOffset) {
  std::printf("Crc32c dispatches to %s%s\n", Crc32cImplementation(),
              std::strcmp(Crc32cImplementation(), "slicing-by-8") == 0
                  ? " (both sides portable)"
                  : "");
  const size_t max_len = 3 * kStripe + 64;
  const std::vector<uint8_t> buf = RandomBytes(max_len + 8, 1);
  Rng seeds(2);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= max_len; ++len) {
      const uint32_t seed = static_cast<uint32_t>(seeds.NextU64());
      const uint8_t* p = buf.data() + offset;
      ASSERT_EQ(Crc32c(p, len, seed), Crc32cPortable(p, len, seed))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32c, IncrementalSplitsAtStripeBoundaries) {
  const size_t total = 7 * kStripe + 13;
  const std::vector<uint8_t> buf = RandomBytes(total, 3);
  const uint32_t whole = Crc32cPortable(buf.data(), buf.size(), 0x5EEDu);
  for (size_t k = 1; k <= 6; ++k) {
    for (size_t split : {k * kStripe - 1, k * kStripe, k * kStripe + 1}) {
      const uint32_t head = Crc32c(buf.data(), split, 0x5EEDu);
      EXPECT_EQ(Crc32c(buf.data() + split, total - split, head), whole)
          << "split at " << split;
    }
  }
}

TEST(Crc32c, SixteenMebibyteBufferMatchesPortable) {
  // The cap on WAL records and wire frames.
  const std::vector<uint8_t> buf = RandomBytes(size_t{16} << 20, 4);
  EXPECT_EQ(Crc32c(buf.data(), buf.size()),
            Crc32cPortable(buf.data(), buf.size()));
}

TEST(Dims, ElementCountAndStrides) {
  Dims d{3, 4, 5};
  EXPECT_EQ(ElementCount(d), 60);
  Dims s = ColumnMajorStrides(d);
  EXPECT_EQ(s, (Dims{1, 3, 12}));
}

TEST(Dims, ElementCountOfEmptyDimIsZero) {
  Dims d{3, 0, 5};
  EXPECT_EQ(ElementCount(d), 0);
}

TEST(Dims, LinearIndexColumnMajor) {
  Dims d{3, 4};
  // (i, j) -> i + 3j: first index varies fastest.
  EXPECT_EQ(LinearIndex(d, Dims{0, 0}).value(), 0);
  EXPECT_EQ(LinearIndex(d, Dims{1, 0}).value(), 1);
  EXPECT_EQ(LinearIndex(d, Dims{0, 1}).value(), 3);
  EXPECT_EQ(LinearIndex(d, Dims{2, 3}).value(), 11);
}

TEST(Dims, LinearIndexValidation) {
  Dims d{3, 4};
  EXPECT_EQ(LinearIndex(d, Dims{3, 0}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(LinearIndex(d, Dims{-1, 0}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(LinearIndex(d, Dims{0}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Dims, UnlinearizeRoundTrip) {
  Dims d{3, 4, 5};
  for (int64_t lin = 0; lin < 60; ++lin) {
    Dims idx = Unlinearize(d, lin);
    EXPECT_EQ(LinearIndex(d, idx).value(), lin);
  }
}

TEST(Dims, ValidateRejectsEmptyAndNegative) {
  EXPECT_FALSE(ValidateDims(Dims{}).ok());
  EXPECT_FALSE(ValidateDims(Dims{2, -1}).ok());
  EXPECT_TRUE(ValidateDims(Dims{2, 0, 3}).ok());
}

TEST(Bytes, RoundTripScalars) {
  uint8_t buf[8];
  EncodeLE<int32_t>(buf, -123456);
  EXPECT_EQ(DecodeLE<int32_t>(buf), -123456);
  EncodeLE<double>(buf, 3.14159);
  EXPECT_DOUBLE_EQ(DecodeLE<double>(buf), 3.14159);
  EncodeLE<int16_t>(buf, -32768);
  EXPECT_EQ(DecodeLE<int16_t>(buf), -32768);
}

TEST(Bytes, LittleEndianLayout) {
  uint8_t buf[4];
  EncodeLE<uint32_t>(buf, 0x01020304);
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(buf[3], 0x01);
}

TEST(Bytes, AppendGrowsVector) {
  std::vector<uint8_t> v;
  AppendLE<int64_t>(&v, 7);
  AppendLE<int16_t>(&v, 1);
  EXPECT_EQ(v.size(), 10u);
  EXPECT_EQ(DecodeLE<int64_t>(v.data()), 7);
}

TEST(Rng, DeterministicWithSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
    int64_t k = rng.UniformInt(-5, 5);
    EXPECT_GE(k, -5);
    EXPECT_LE(k, 5);
  }
}

}  // namespace
}  // namespace sqlarray
