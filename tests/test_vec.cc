// Tests for the columnar expression pipeline: each dispatched elementwise
// kernel against its baseline-ISA build and its per-lane C++ expression,
// null/NaN/selection edge cases, and differential execution — the
// vectorized path must produce BITWISE-identical results to the row path at
// every batch size and worker count (the vec_native_suite ctest entry also
// runs this binary in a -march=native tree).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/wrap_int.h"
#include "core/array.h"
#include "core/column.h"
#include "core/vec_kernels.h"
#include "engine/exec.h"
#include "engine/query_context.h"
#include "gov/gov.h"
#include "obs/metrics.h"
#include "sci/spectrum/pipeline.h"
#include "udfs/helpers.h"
#include "udfs/register.h"

namespace sqlarray::engine {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// Deterministic 64-bit generator (splitmix64) so every run sees the same
// edge-value mix.
uint64_t Mix(uint64_t* s) {
  uint64_t z = (*s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Kernel-level tests
// ---------------------------------------------------------------------------

/// Builds an edge-heavy double buffer: NaN, +/-inf, +/-0, denormals, and
/// pseudorandom values. The seed also shifts where the edges fall, so two
/// buffers of different seeds pair each edge with other values.
std::vector<double> EdgeDoubles(int32_t n, uint64_t seed) {
  std::vector<double> v(n);
  uint64_t s = seed;
  for (int32_t i = 0; i < n; ++i) {
    switch ((i + seed) % 11) {
      case 0: v[i] = kNaN; break;
      case 1: v[i] = kInf; break;
      case 2: v[i] = -kInf; break;
      case 3: v[i] = 0.0; break;
      case 4: v[i] = -0.0; break;
      case 5: v[i] = std::numeric_limits<double>::denorm_min(); break;
      default:
        v[i] = static_cast<double>(static_cast<int64_t>(Mix(&s))) * 1e-6;
    }
  }
  return v;
}

std::vector<int64_t> EdgeInts(int32_t n, uint64_t seed) {
  std::vector<int64_t> v(n);
  uint64_t s = seed;
  for (int32_t i = 0; i < n; ++i) {
    switch ((i + seed) % 7) {
      case 0: v[i] = std::numeric_limits<int64_t>::max(); break;
      case 1: v[i] = std::numeric_limits<int64_t>::min(); break;
      case 2: v[i] = (int64_t{1} << 53) + 1; break;
      case 3: v[i] = 0; break;
      default: v[i] = static_cast<int64_t>(Mix(&s));
    }
  }
  return v;
}

/// Sizes straddling SIMD widths and the cancellation block.
const int32_t kKernelSizes[] = {1, 3, 4, 5, 31, 32, 33, 127, 128, 1000, 9000};

/// Each dispatched kernel (`got`), its baseline build (`ref`) and the
/// per-lane C++ expression (`want`) must agree byte for byte.
template <typename R>
void ExpectSameBytes(const std::vector<R>& got, const std::vector<R>& ref,
                     const std::vector<R>& want, const std::string& what) {
  const size_t bytes = got.size() * sizeof(R);
  EXPECT_EQ(std::memcmp(got.data(), ref.data(), bytes), 0) << what;
  EXPECT_EQ(std::memcmp(ref.data(), want.data(), bytes), 0) << what;
}

TEST(VecKernels, SimdMatchesScalarBitwiseF64) {
  using Fn = Status (*)(const double*, const double*, int32_t, double*);
  struct Case {
    const char* name;
    Fn kernel, baseline;
    double (*lane)(double, double);
  };
  const Case cases[] = {
      {"add", col::AddF64, col::baseline::AddF64,
       [](double x, double y) { return x + y; }},
      {"sub", col::SubF64, col::baseline::SubF64,
       [](double x, double y) { return x - y; }},
      {"mul", col::MulF64, col::baseline::MulF64,
       [](double x, double y) { return x * y; }},
  };
  struct CmpCase {
    col::CmpOp op;
    int64_t (*lane)(double, double);
  };
  const CmpCase cmps[] = {
      {col::CmpOp::kEq, [](double x, double y) -> int64_t { return x == y; }},
      {col::CmpOp::kNe, [](double x, double y) -> int64_t { return x != y; }},
      {col::CmpOp::kLt, [](double x, double y) -> int64_t { return x < y; }},
      {col::CmpOp::kLe, [](double x, double y) -> int64_t { return x <= y; }},
      {col::CmpOp::kGt, [](double x, double y) -> int64_t { return x > y; }},
      {col::CmpOp::kGe, [](double x, double y) -> int64_t { return x >= y; }},
  };
  for (int32_t n : kKernelSizes) {
    const std::vector<double> a = EdgeDoubles(n, 1), b = EdgeDoubles(n, 2);
    for (const Case& c : cases) {
      std::vector<double> got(n), ref(n), want(n);
      ASSERT_TRUE(c.kernel(a.data(), b.data(), n, got.data()).ok());
      ASSERT_TRUE(c.baseline(a.data(), b.data(), n, ref.data()).ok());
      for (int32_t i = 0; i < n; ++i) want[i] = c.lane(a[i], b[i]);
      ExpectSameBytes(got, ref, want, c.name + (" n=" + std::to_string(n)));
    }
    for (const CmpCase& c : cmps) {
      std::vector<int64_t> got(n), ref(n), want(n);
      ASSERT_TRUE(col::CmpF64(c.op, a.data(), b.data(), n, got.data()).ok());
      ASSERT_TRUE(
          col::baseline::CmpF64(c.op, a.data(), b.data(), n, ref.data()).ok());
      for (int32_t i = 0; i < n; ++i) want[i] = c.lane(a[i], b[i]);
      ExpectSameBytes(got, ref, want,
                      "cmp " + std::to_string(static_cast<int>(c.op)) +
                          " n=" + std::to_string(n));
    }
    std::vector<double> got(n), ref(n), want(n);
    ASSERT_TRUE(col::NegF64(a.data(), n, got.data()).ok());
    ASSERT_TRUE(col::baseline::NegF64(a.data(), n, ref.data()).ok());
    for (int32_t i = 0; i < n; ++i) want[i] = -a[i];
    ExpectSameBytes(got, ref, want, "neg n=" + std::to_string(n));
  }
}

TEST(VecKernels, SimdMatchesScalarBitwiseI64) {
  using Fn = Status (*)(const int64_t*, const int64_t*, int32_t, int64_t*);
  using UnaryFn = Status (*)(const int64_t*, int32_t, int64_t*);
  struct Case {
    const char* name;
    Fn kernel, baseline;
    int64_t (*lane)(int64_t, int64_t);
  };
  const Case cases[] = {
      {"add", col::AddI64, col::baseline::AddI64, WrapAdd},
      {"sub", col::SubI64, col::baseline::SubI64, WrapSub},
      {"mul", col::MulI64, col::baseline::MulI64, WrapMul},
      {"and", col::AndI64, col::baseline::AndI64,
       [](int64_t x, int64_t y) -> int64_t { return x != 0 && y != 0; }},
      {"or", col::OrI64, col::baseline::OrI64,
       [](int64_t x, int64_t y) -> int64_t { return x != 0 || y != 0; }},
  };
  struct UnaryCase {
    const char* name;
    UnaryFn kernel, baseline;
    int64_t (*lane)(int64_t);
  };
  const UnaryCase unary[] = {
      {"neg", col::NegI64, col::baseline::NegI64, WrapNeg},
      {"not", col::NotI64, col::baseline::NotI64,
       [](int64_t x) -> int64_t { return x == 0; }},
  };
  for (int32_t n : kKernelSizes) {
    const std::vector<int64_t> a = EdgeInts(n, 3), b = EdgeInts(n, 4);
    for (const Case& c : cases) {
      std::vector<int64_t> got(n), ref(n), want(n);
      ASSERT_TRUE(c.kernel(a.data(), b.data(), n, got.data()).ok());
      ASSERT_TRUE(c.baseline(a.data(), b.data(), n, ref.data()).ok());
      for (int32_t i = 0; i < n; ++i) want[i] = c.lane(a[i], b[i]);
      ExpectSameBytes(got, ref, want, c.name + (" n=" + std::to_string(n)));
    }
    for (const UnaryCase& c : unary) {
      std::vector<int64_t> got(n), ref(n), want(n);
      ASSERT_TRUE(c.kernel(a.data(), n, got.data()).ok());
      ASSERT_TRUE(c.baseline(a.data(), n, ref.data()).ok());
      for (int32_t i = 0; i < n; ++i) want[i] = c.lane(a[i]);
      ExpectSameBytes(got, ref, want, c.name + (" n=" + std::to_string(n)));
    }
  }
}

TEST(VecKernels, CmpNaNSemantics) {
  const double a[] = {kNaN, 1.0, kNaN};
  const double b[] = {1.0, kNaN, kNaN};
  int64_t out[3];
  ASSERT_TRUE(col::CmpF64(col::CmpOp::kEq, a, b, 3, out).ok());
  EXPECT_EQ(out[0], 0); EXPECT_EQ(out[1], 0); EXPECT_EQ(out[2], 0);
  ASSERT_TRUE(col::CmpF64(col::CmpOp::kNe, a, b, 3, out).ok());
  EXPECT_EQ(out[0], 1); EXPECT_EQ(out[1], 1); EXPECT_EQ(out[2], 1);
  ASSERT_TRUE(col::CmpF64(col::CmpOp::kLt, a, b, 3, out).ok());
  EXPECT_EQ(out[0], 0); EXPECT_EQ(out[1], 0); EXPECT_EQ(out[2], 0);
  ASSERT_TRUE(col::CmpF64(col::CmpOp::kGe, a, b, 3, out).ok());
  EXPECT_EQ(out[0], 0);
}

TEST(VecKernels, BuildSelAndCountValidBoundaries) {
  for (int32_t n : {1, 3, 63, 64, 65, 127, 128, 1000}) {
    col::ColumnVec c;
    int64_t* v = c.MutableI64(n);
    for (int32_t i = 0; i < n; ++i) v[i] = i % 3 == 0 ? 1 : 0;
    // All valid: sel = multiples of 3.
    std::vector<int32_t> sel;
    col::BuildSel(c.i64(), c.valid_words(), n, &sel);
    EXPECT_EQ(static_cast<int32_t>(sel.size()), (n + 2) / 3) << "n=" << n;
    for (int32_t idx : sel) EXPECT_EQ(idx % 3, 0);
    EXPECT_EQ(col::CountValid(c.valid_words(), 0, n), n);

    // Ragged validity: only even rows valid — odd truthy rows drop out.
    uint64_t* words = c.MutableValidity();
    for (int32_t i = 1; i < n; i += 2) {
      words[i >> 6] &= ~(uint64_t{1} << (i & 63));
    }
    EXPECT_EQ(col::CountValid(c.valid_words(), 0, n), (n + 1) / 2);
    sel.clear();
    col::BuildSel(c.i64(), c.valid_words(), n, &sel);
    for (int32_t idx : sel) {
      EXPECT_EQ(idx % 2, 0);
      EXPECT_EQ(idx % 3, 0);
    }

    // All null: nothing selected.
    c.SetAllNull();
    EXPECT_EQ(col::CountValid(c.valid_words(), 0, n), 0);
    sel.clear();
    col::BuildSel(c.i64(), c.valid_words(), n, &sel);
    EXPECT_TRUE(sel.empty());
  }
}

TEST(VecKernels, GatherStridesSelectionAndWidening) {
  // Rows of 20 bytes: int32 at 0, int64 at 4, float at 12, padding at 16.
  struct Row { int32_t i32; int64_t i64; float f32; };
  const int32_t n = 57;
  std::vector<uint8_t> rows(n * 20);
  for (int32_t i = 0; i < n; ++i) {
    int32_t a = i % 2 == 0 ? -i - 1 : i;  // negatives: sign extension
    int64_t b = (int64_t{1} << 53) + i;
    float c = 0.1f * static_cast<float>(i);
    std::memcpy(rows.data() + i * 20 + 0, &a, 4);
    std::memcpy(rows.data() + i * 20 + 4, &b, 8);
    std::memcpy(rows.data() + i * 20 + 12, &c, 4);
  }
  std::vector<int64_t> oi(n);
  std::vector<double> of(n);
  // Dense (sel == nullptr).
  col::GatherI64FromI32(rows.data() + 0, 20, nullptr, n, oi.data());
  EXPECT_EQ(oi[2], -3);
  EXPECT_EQ(oi[3], 3);
  col::GatherI64FromI64(rows.data() + 4, 20, nullptr, n, oi.data());
  EXPECT_EQ(oi[5], (int64_t{1} << 53) + 5);
  col::GatherF64FromF32(rows.data() + 12, 20, nullptr, n, of.data());
  EXPECT_EQ(of[7], static_cast<double>(0.1f * 7.0f));  // exact widening
  // Selection vector, including repeats and reverse order.
  const std::vector<int32_t> sel = {n - 1, 0, 0, 13};
  col::GatherI64FromI32(rows.data() + 0, 20, sel.data(),
                        static_cast<int32_t>(sel.size()), oi.data());
  EXPECT_EQ(oi[1], -1);
  EXPECT_EQ(oi[2], -1);
  EXPECT_EQ(oi[3], 13);
}

TEST(VecKernels, FoldsMatchSerialAccumulation) {
  const int32_t n = 501;
  std::vector<double> d = EdgeDoubles(n, 9);
  // Reference: the row loop's serial chain.
  double sum = 0, mn = std::numeric_limits<double>::infinity(),
         mx = -std::numeric_limits<double>::infinity();
  int64_t count = 0;
  for (int32_t i = 0; i < n; ++i) {
    count++;
    sum += d[i];
    mn = std::min(mn, d[i]);
    mx = std::max(mx, d[i]);
  }
  col::VecAggState st;
  st.mn = std::numeric_limits<double>::infinity();
  st.mx = -std::numeric_limits<double>::infinity();
  ASSERT_TRUE(col::FoldF64(d.data(), nullptr, 0, n, &st).ok());
  EXPECT_EQ(st.count, count);
  // Bitwise comparison — NaN sums must match NaN sums.
  EXPECT_EQ(std::memcmp(&st.sum, &sum, 8), 0);
  EXPECT_EQ(std::memcmp(&st.mn, &mn, 8), 0);
  EXPECT_EQ(std::memcmp(&st.mx, &mx, 8), 0);
  EXPECT_FALSE(st.int_only);

  // Int fold with a ragged validity mask.
  std::vector<int64_t> iv = EdgeInts(n, 10);
  col::ColumnVec c;
  int64_t* p = c.MutableI64(n);
  std::memcpy(p, iv.data(), n * 8);
  uint64_t* words = c.MutableValidity();
  for (int32_t i = 0; i < n; i += 5) {
    words[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }
  int64_t isum = 0, icount = 0;
  double dsum = 0, dmn = std::numeric_limits<double>::infinity(),
         dmx = -std::numeric_limits<double>::infinity();
  for (int32_t i = 0; i < n; ++i) {
    if (i % 5 == 0) continue;
    isum = static_cast<int64_t>(static_cast<uint64_t>(isum) +
                                static_cast<uint64_t>(iv[i]));
    icount++;
    const double x = static_cast<double>(iv[i]);
    dsum += x;
    dmn = std::min(dmn, x);
    dmx = std::max(dmx, x);
  }
  col::VecAggState ist;
  ist.mn = std::numeric_limits<double>::infinity();
  ist.mx = -std::numeric_limits<double>::infinity();
  ASSERT_TRUE(col::FoldI64(c.i64(), c.valid_words(), 0, n, &ist).ok());
  EXPECT_EQ(ist.count, icount);
  EXPECT_EQ(ist.isum, isum);
  EXPECT_EQ(std::memcmp(&ist.sum, &dsum, 8), 0);
  EXPECT_EQ(ist.mn, dmn);
  EXPECT_EQ(ist.mx, dmx);
  EXPECT_TRUE(ist.int_only);
}

TEST(VecKernels, DivModZeroMaskingAndMessages) {
  const int32_t n = 4;
  const int64_t a[] = {10, 7, 9, 8};
  const int64_t zero_at_1[] = {2, 0, 3, 4};
  int64_t out[n];
  // Valid zero divisor raises with the row path's exact message.
  Status st = col::DivI64(a, zero_at_1, nullptr, n, out);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "division by zero");
  st = col::ModI64(a, zero_at_1, nullptr, n, out);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "modulo by zero");
  // The same zero masked invalid does not raise; invalid lanes hold 0.
  col::ColumnVec mask;
  mask.MutableI64(n);
  uint64_t* words = mask.MutableValidity();
  words[0] &= ~uint64_t{2};  // lane 1 null
  ASSERT_TRUE(col::DivI64(a, zero_at_1, mask.valid_words(), n, out).ok());
  EXPECT_EQ(out[0], 5);
  EXPECT_EQ(out[1], 0);
  EXPECT_EQ(out[2], 3);
  ASSERT_TRUE(col::ModI64(a, zero_at_1, mask.valid_words(), n, out).ok());
  EXPECT_EQ(out[1], 0);
  EXPECT_EQ(out[3], 0);
  // Float: -0.0 divisor also raises (b == 0.0 compares true).
  const double fa[] = {1.0, 2.0};
  const double fb[] = {1.0, -0.0};
  double fout[2];
  st = col::DivF64(fa, fb, nullptr, 2, fout);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "division by zero");
}

TEST(VecKernels, CancellationProbesInsideKernels) {
  auto cancel = std::make_shared<gov::CancelSource>();
  gov::QueryLimits limits;
  limits.cancel = cancel;
  gov::ScopedThreadLimits thread_limits(&limits);
  cancel->Cancel(gov::KillReason::kUser, "test");
  const int32_t n = col::kCancelBlock * 3;
  std::vector<int64_t> a(n, 1), b(n, 2), out(n);
  Status st = col::AddI64(a.data(), b.data(), n, out.data());
  EXPECT_FALSE(st.ok());
  std::vector<double> fa(n, 1.0), fout(n);
  st = col::NegF64(fa.data(), n, fout.data());
  EXPECT_FALSE(st.ok());
}

TEST(VecKernels, ZeroCopyViewsAliasWithoutCopying) {
  std::vector<int64_t> data = {5, -7, 11};
  col::ColumnVec c;
  c.ViewI64(data.data(), 3);
  EXPECT_TRUE(c.is_view());
  EXPECT_EQ(c.i64(), data.data());
  EXPECT_TRUE(c.all_valid());
  data[1] = 42;
  EXPECT_EQ(c.i64()[1], 42);
}

// ---------------------------------------------------------------------------
// Differential engine tests: vectorized vs row results must be bitwise
// identical across batch sizes and worker counts.
// ---------------------------------------------------------------------------

class VecEngineTest : public ::testing::Test {
 protected:
  static constexpr int64_t kRows = 1000;  // not a multiple of any batch size

  VecEngineTest() : executor_(&db_, &registry_) {
    EXPECT_TRUE(udfs::RegisterAllUdfs(&registry_).ok());
  }

  /// Full numeric dtype matrix with edge values: negative int32s, int64s
  /// past 2^53, NaN / +/-inf / -0.0 doubles and floats.
  storage::Table* MakeMixedTable(const std::string& name, int64_t rows) {
    storage::Schema schema =
        storage::Schema::Create({{"id", storage::ColumnType::kInt64, 0},
                                 {"a", storage::ColumnType::kInt32, 0},
                                 {"b", storage::ColumnType::kInt64, 0},
                                 {"x", storage::ColumnType::kFloat32, 0},
                                 {"y", storage::ColumnType::kFloat64, 0}})
            .value();
    storage::Table* t = db_.CreateTable(name, std::move(schema)).value();
    uint64_t s = 0xabcdef12345ull;
    for (int64_t i = 0; i < rows; ++i) {
      int32_t a = static_cast<int32_t>(Mix(&s) >> 33) - (1 << 29);
      int64_t b = static_cast<int64_t>(Mix(&s) >> 8);
      float x = static_cast<float>(static_cast<int32_t>(Mix(&s) >> 40)) / 64;
      double y = static_cast<double>(static_cast<int64_t>(Mix(&s))) * 1e-9;
      if (i % 97 == 0) y = kNaN;
      if (i % 89 == 0) y = i % 2 == 0 ? kInf : -kInf;
      if (i % 83 == 0) y = -0.0;
      if (i % 79 == 0) b = (int64_t{1} << 53) + i;  // lossy as double
      if (i % 61 == 0) x = std::numeric_limits<float>::quiet_NaN();
      EXPECT_TRUE(t->Insert({i, a, b, x, y}).ok());
    }
    return t;
  }

  /// Bitwise result fingerprint: kind tag + exact payload bytes per value.
  static std::string Fingerprint(const ResultSet& rs) {
    std::string out;
    for (const auto& row : rs.rows) {
      for (const Value& v : row) {
        out.push_back(static_cast<char>(v.kind()));
        if (v.kind() == Value::Kind::kInt64) {
          const int64_t x = v.AsInt().value();
          out.append(reinterpret_cast<const char*>(&x), 8);
        } else if (v.kind() == Value::Kind::kFloat64) {
          const double d = v.AsDouble().value();
          out.append(reinterpret_cast<const char*>(&d), 8);
        }
      }
      out.push_back('|');
    }
    return out;
  }

  struct Outcome {
    bool ok = false;
    std::string payload;  // fingerprint, or "CODE: message" on error
    int64_t rows_scanned = 0;
    int64_t rows_kept = 0;
  };

  Outcome Run(const Query& q, std::map<std::string, Value>* vars, int batch,
              int workers) {
    executor_.set_batch_rows(batch);
    executor_.set_scan_workers(workers);
    QueryContext qctx;
    qctx.variables = vars;
    Result<ResultSet> r = executor_.Execute(q, &qctx);
    Outcome o;
    o.ok = r.ok();
    if (!r.ok()) {
      o.payload = r.status().ToString();
      return o;
    }
    o.payload = Fingerprint(r.value());
    o.rows_scanned = r.value().stats.rows_scanned;
    o.rows_kept = r.value().stats.rows_kept;
    return o;
  }

  /// Asserts every (batch, workers) configuration of the vectorized path
  /// reproduces the row-at-a-time baseline exactly — results bitwise,
  /// stats, and failure outcomes alike.
  void ExpectAllConfigsMatchRowBaseline(const Query& q,
                                        std::map<std::string, Value>* vars) {
    const Outcome base = Run(q, vars, /*batch=*/1, /*workers=*/1);
    const int batches[] = {1, 3, 1024, static_cast<int>(kRows)};
    const int workers[] = {1, 2, 8};
    for (int b : batches) {
      for (int w : workers) {
        const Outcome got = Run(q, vars, b, w);
        EXPECT_EQ(got.ok, base.ok) << "batch=" << b << " workers=" << w;
        if (base.ok) {
          EXPECT_EQ(got.payload, base.payload)
              << "batch=" << b << " workers=" << w;
          EXPECT_EQ(got.rows_scanned, base.rows_scanned);
          EXPECT_EQ(got.rows_kept, base.rows_kept);
        } else {
          // Error-row freedom: batched evaluation may surface a different
          // row's error, but the code and message here carry no row
          // detail, so the rendering matches exactly.
          EXPECT_EQ(got.payload, base.payload)
              << "batch=" << b << " workers=" << w;
        }
      }
    }
  }

  static SelectItem Item(ExprPtr e, SelectItem::AggKind agg,
                         const std::string& label) {
    SelectItem it;
    it.expr = std::move(e);
    it.agg = agg;
    it.label = label;
    return it;
  }

  storage::Database db_;
  FunctionRegistry registry_;
  Executor executor_;
};

TEST_F(VecEngineTest, AggregatesAcrossDtypeMatrix) {
  storage::Table* t = MakeMixedTable("m1", kRows);
  Query q;
  q.table = t;
  q.items.push_back(Item(Col("a"), SelectItem::AggKind::kSum, "sa"));
  q.items.push_back(Item(Col("b"), SelectItem::AggKind::kSum, "sb"));
  q.items.push_back(Item(Col("x"), SelectItem::AggKind::kMin, "mx"));
  q.items.push_back(Item(Col("y"), SelectItem::AggKind::kMax, "my"));
  q.items.push_back(Item(Col("y"), SelectItem::AggKind::kAvg, "ay"));
  q.items.push_back(Item(Col("b"), SelectItem::AggKind::kCount, "cb"));
  q.items.push_back(Item(Star(), SelectItem::AggKind::kCount, "n"));
  ASSERT_TRUE(executor_.Bind(&q).ok());
  ExpectAllConfigsMatchRowBaseline(q, nullptr);
}

TEST_F(VecEngineTest, FusedPredicateAndCompoundExpressions) {
  storage::Table* t = MakeMixedTable("m2", kRows);
  Query q;
  q.table = t;
  // (y > 0.25 AND a % 3 = 1) OR b < 0 — mixed-lane fused predicate.
  q.where = Bin(
      BinaryOp::kOr,
      Bin(BinaryOp::kAnd,
          Bin(BinaryOp::kGt, Col("y"), Lit(Value::Double(0.25))),
          Bin(BinaryOp::kEq,
              Bin(BinaryOp::kMod, Col("a"), Lit(Value::Int(3))),
              Lit(Value::Int(1)))),
      Bin(BinaryOp::kLt, Col("b"), Lit(Value::Int(0))));
  q.items.push_back(Item(
      Bin(BinaryOp::kSub, Bin(BinaryOp::kMul, Col("y"), Col("x")), Col("a")),
      SelectItem::AggKind::kSum, "s"));
  q.items.push_back(Item(Un(UnaryOp::kNeg, Col("b")),
                         SelectItem::AggKind::kMin, "nb"));
  q.items.push_back(Item(Un(UnaryOp::kNot,
                            Bin(BinaryOp::kGt, Col("x"), Lit(Value::Double(0)))),
                         SelectItem::AggKind::kSum, "nn"));
  ASSERT_TRUE(executor_.Bind(&q).ok());
  ExpectAllConfigsMatchRowBaseline(q, nullptr);
}

TEST_F(VecEngineTest, ProjectionRowsAcrossDtypeMatrix) {
  storage::Table* t = MakeMixedTable("m3", kRows);
  Query q;
  q.table = t;
  q.where = Bin(BinaryOp::kNe,
                Bin(BinaryOp::kMod, Col("id"), Lit(Value::Int(7))),
                Lit(Value::Int(0)));
  q.items.push_back(Item(Col("id"), SelectItem::AggKind::kNone, "id"));
  q.items.push_back(Item(Bin(BinaryOp::kAdd, Col("a"), Col("b")),
                         SelectItem::AggKind::kNone, "ab"));
  q.items.push_back(
      Item(Bin(BinaryOp::kDiv, Col("y"), Lit(Value::Double(3.0))),
           SelectItem::AggKind::kNone, "y3"));
  q.items.push_back(
      Item(Bin(BinaryOp::kDiv, Col("b"),
               Bin(BinaryOp::kAdd,
                   Bin(BinaryOp::kMul, Col("id"), Lit(Value::Int(0))),
                   Lit(Value::Int(16)))),
           SelectItem::AggKind::kNone, "b16"));
  q.items.push_back(Item(Bin(BinaryOp::kLe, Col("x"), Col("y")),
                         SelectItem::AggKind::kNone, "cmp"));
  ASSERT_TRUE(executor_.Bind(&q).ok());
  ExpectAllConfigsMatchRowBaseline(q, nullptr);
}

TEST_F(VecEngineTest, NullLiteralsAndVariables) {
  storage::Table* t = MakeMixedTable("m4", kRows);
  std::map<std::string, Value> vars{{"n", Value::Null()},
                                    {"k", Value::Int(5)},
                                    {"f", Value::Double(0.5)}};
  // NULL-propagating projection and aggregate arguments: y + @n is NULL for
  // every row; SUM of it is NULL; COUNT of it is 0.
  Query q;
  q.table = t;
  q.items.push_back(Item(Bin(BinaryOp::kAdd, Col("y"), Var("n")),
                         SelectItem::AggKind::kSum, "sn"));
  q.items.push_back(Item(Bin(BinaryOp::kAdd, Col("y"), Var("n")),
                         SelectItem::AggKind::kCount, "cn"));
  q.items.push_back(Item(Bin(BinaryOp::kMul, Col("b"), Var("k")),
                         SelectItem::AggKind::kSum, "sk"));
  ASSERT_TRUE(executor_.Bind(&q).ok());
  ExpectAllConfigsMatchRowBaseline(q, &vars);

  // NULL WHERE: NULL is false — empty result, every row still scanned.
  Query q2;
  q2.table = t;
  q2.where = Bin(BinaryOp::kGt, Col("y"), Var("n"));
  q2.items.push_back(Item(Col("id"), SelectItem::AggKind::kNone, "id"));
  ASSERT_TRUE(executor_.Bind(&q2).ok());
  ExpectAllConfigsMatchRowBaseline(q2, &vars);

  // NULL literal arithmetic inside a projection.
  Query q3;
  q3.table = t;
  q3.items.push_back(Item(Bin(BinaryOp::kMul, Lit(Value::Null()), Col("y")),
                          SelectItem::AggKind::kNone, "ny"));
  q3.items.push_back(Item(Un(UnaryOp::kNeg, Lit(Value::Null())),
                          SelectItem::AggKind::kNone, "nneg"));
  q3.items.push_back(Item(Col("id"), SelectItem::AggKind::kNone, "id"));
  ASSERT_TRUE(executor_.Bind(&q3).ok());
  ExpectAllConfigsMatchRowBaseline(q3, &vars);
}

TEST_F(VecEngineTest, DivisionAndModuloByZeroOutcomes) {
  storage::Table* t = MakeMixedTable("m5", kRows);
  // id - id = 0 at every row: both paths must fail the query.
  Query q;
  q.table = t;
  q.items.push_back(
      Item(Bin(BinaryOp::kDiv, Col("b"),
               Bin(BinaryOp::kSub, Col("id"), Col("id"))),
           SelectItem::AggKind::kSum, "dz"));
  ASSERT_TRUE(executor_.Bind(&q).ok());
  ExpectAllConfigsMatchRowBaseline(q, nullptr);

  Query q2;
  q2.table = t;
  q2.items.push_back(
      Item(Bin(BinaryOp::kMod, Col("b"),
               Bin(BinaryOp::kSub, Col("id"), Col("id"))),
           SelectItem::AggKind::kSum, "mz"));
  ASSERT_TRUE(executor_.Bind(&q2).ok());
  ExpectAllConfigsMatchRowBaseline(q2, nullptr);

  // Float division by 0.0 (and by -0.0 via the y column's -0.0 rows).
  Query q3;
  q3.table = t;
  q3.items.push_back(Item(Bin(BinaryOp::kDiv, Col("y"), Lit(Value::Double(0))),
                          SelectItem::AggKind::kSum, "fz"));
  ASSERT_TRUE(executor_.Bind(&q3).ok());
  ExpectAllConfigsMatchRowBaseline(q3, nullptr);

  // NULL divisor never raises: NULL lanes mask the zero check.
  std::map<std::string, Value> vars{{"n", Value::Null()}};
  Query q4;
  q4.table = t;
  q4.items.push_back(Item(Bin(BinaryOp::kDiv, Col("b"), Var("n")),
                          SelectItem::AggKind::kSum, "dn"));
  ASSERT_TRUE(executor_.Bind(&q4).ok());
  ExpectAllConfigsMatchRowBaseline(q4, &vars);
}

TEST_F(VecEngineTest, BigintWrapAndDivisionByMinusOne) {
  // BIGINT +, -, * and unary - wrap in both evaluators; INT64_MIN / -1 is
  // INT64_MIN and x % -1 is 0 (the hardware traps on both).
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t edges[] = {kMin, kMax, -1, 7, -7, kMin + 1};
  storage::Schema schema =
      storage::Schema::Create({{"id", storage::ColumnType::kInt64, 0},
                               {"b", storage::ColumnType::kInt64, 0}})
          .value();
  storage::Table* t = db_.CreateTable("w1", std::move(schema)).value();
  for (int64_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(t->Insert({i, edges[i % 6]}).ok());
  }
  auto minus_one = [] { return Lit(Value::Int(-1)); };
  auto one = [] { return Lit(Value::Int(1)); };
  auto exprs = [&] {
    std::vector<ExprPtr> e;
    e.push_back(Bin(BinaryOp::kDiv, Col("b"), minus_one()));
    e.push_back(Bin(BinaryOp::kMod, Col("b"), minus_one()));
    e.push_back(Bin(BinaryOp::kAdd, Col("b"), one()));
    e.push_back(Bin(BinaryOp::kSub, Col("b"), one()));
    e.push_back(Un(UnaryOp::kNeg, Col("b")));
    e.push_back(Bin(BinaryOp::kMul, Col("b"), minus_one()));
    return e;
  };

  Query project;
  project.table = t;
  project.items.push_back(Item(Col("b"), SelectItem::AggKind::kNone, "b"));
  for (ExprPtr& e : exprs()) {
    project.items.push_back(Item(std::move(e), SelectItem::AggKind::kNone, ""));
  }
  ASSERT_TRUE(executor_.Bind(&project).ok());
  ExpectAllConfigsMatchRowBaseline(project, nullptr);

  Query sums;
  sums.table = t;
  for (ExprPtr& e : exprs()) {
    sums.items.push_back(Item(std::move(e), SelectItem::AggKind::kSum, ""));
  }
  ASSERT_TRUE(executor_.Bind(&sums).ok());
  ExpectAllConfigsMatchRowBaseline(sums, nullptr);

  // The lanes compute every item (no row falls back to Eval), and their
  // values are the defined ones.
  const std::vector<int64_t> at_min = {kMin, 0, kMin + 1, kMax, kMin, kMin};
  const std::vector<int64_t> at_max = {-kMax, 0, kMin, kMax - 1, -kMax, -kMax};
  for (int batch : {1, 1024}) {
    executor_.set_batch_rows(batch);
    executor_.set_scan_workers(1);
    obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
    QueryContext qctx;
    Result<ResultSet> r = executor_.Execute(project, &qctx);
    obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(after.Delta(before, "vec.rows"), batch > 1 ? kRows : 0);
    EXPECT_EQ(after.Delta(before, "vec.fallback_rows"), 0);
    for (int row = 0; row < 2; ++row) {
      const std::vector<int64_t>& want = row == 0 ? at_min : at_max;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(r->rows[row][i + 1].AsInt().value(), want[i])
            << "batch=" << batch << " row=" << row << " item=" << i;
      }
    }
  }

  // FROM-less: the same expressions over literals, through Eval.
  Query bare;
  for (ExprPtr& e : exprs()) {
    // Rebind each expression to a literal edge value in place of column b.
    ExprPtr& operand = e->args[0];
    operand = Lit(Value::Int(kMin));
    bare.items.push_back(Item(std::move(e), SelectItem::AggKind::kNone, ""));
  }
  bare.items[2].expr->args[0] = Lit(Value::Int(kMax));  // kMax + 1
  ASSERT_TRUE(executor_.Bind(&bare).ok());
  QueryContext qctx;
  Result<ResultSet> r = executor_.Execute(bare, &qctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::vector<int64_t> bare_want = {kMin, 0, kMin, kMax, kMin, kMin};
  for (size_t i = 0; i < bare_want.size(); ++i) {
    EXPECT_EQ(r->rows[0][i].AsInt().value(), bare_want[i]) << "item=" << i;
  }
}

TEST_F(VecEngineTest, SelectionVectorBoundaries) {
  storage::Table* t = MakeMixedTable("m6", kRows);
  // Constant-false predicate: empty selection in every batch.
  Query none;
  none.table = t;
  none.where = Bin(BinaryOp::kEq, Lit(Value::Int(1)), Lit(Value::Int(0)));
  none.items.push_back(Item(Col("y"), SelectItem::AggKind::kSum, "s"));
  ASSERT_TRUE(executor_.Bind(&none).ok());
  ExpectAllConfigsMatchRowBaseline(none, nullptr);

  // Constant-true predicate: all rows selected.
  Query all;
  all.table = t;
  all.where = Lit(Value::Int(1));
  all.items.push_back(Item(Col("y"), SelectItem::AggKind::kSum, "s"));
  all.items.push_back(Item(Col("id"), SelectItem::AggKind::kNone, "id"));
  ASSERT_TRUE(executor_.Bind(&all).ok());
  ExpectAllConfigsMatchRowBaseline(all, nullptr);

  // Ragged tail: only the final row survives.
  Query tail;
  tail.table = t;
  tail.where = Bin(BinaryOp::kGe, Col("id"), Lit(Value::Int(kRows - 1)));
  tail.items.push_back(Item(Col("b"), SelectItem::AggKind::kSum, "s"));
  ASSERT_TRUE(executor_.Bind(&tail).ok());
  ExpectAllConfigsMatchRowBaseline(tail, nullptr);

  // Single-row table: batch size far beyond the data.
  storage::Table* one = MakeMixedTable("m6_one", 1);
  Query single;
  single.table = one;
  single.items.push_back(Item(Col("y"), SelectItem::AggKind::kSum, "s"));
  ASSERT_TRUE(executor_.Bind(&single).ok());
  const Outcome base = Run(single, nullptr, 1, 1);
  const Outcome vec = Run(single, nullptr, 1024, 8);
  EXPECT_EQ(vec.payload, base.payload);
}

TEST_F(VecEngineTest, ZeroCopyEligibleSingleColumnTable) {
  // One int64 column, row_size == 8: dense loads alias the batch bytes.
  storage::Schema schema =
      storage::Schema::Create({{"k", storage::ColumnType::kInt64, 0}}).value();
  storage::Table* t = db_.CreateTable("zc", std::move(schema)).value();
  for (int64_t i = 0; i < 777; ++i) {
    ASSERT_TRUE(t->Insert({(int64_t{1} << 53) + i * 31}).ok());
  }
  Query q;
  q.table = t;
  q.where = Bin(BinaryOp::kNe,
                Bin(BinaryOp::kMod, Col("k"), Lit(Value::Int(5))),
                Lit(Value::Int(0)));
  q.items.push_back(Item(Col("k"), SelectItem::AggKind::kSum, "s"));
  q.items.push_back(Item(Col("k"), SelectItem::AggKind::kMax, "m"));
  ASSERT_TRUE(executor_.Bind(&q).ok());
  ExpectAllConfigsMatchRowBaseline(q, nullptr);
}

TEST_F(VecEngineTest, VecCountersAndProfileMode) {
  storage::Table* t = MakeMixedTable("m7", kRows);
  Query q;
  q.table = t;
  q.where = Bin(BinaryOp::kGt, Col("y"), Lit(Value::Double(0)));
  q.items.push_back(Item(Col("y"), SelectItem::AggKind::kSum, "s"));
  ASSERT_TRUE(executor_.Bind(&q).ok());

  executor_.set_batch_rows(256);
  executor_.set_scan_workers(2);
  obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  QueryContext qctx;
  qctx.collect_profile = true;
  ASSERT_TRUE(executor_.Execute(q, &qctx).ok());
  obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();

  // Fully vectorizable query: every scanned row went through the columnar
  // pipeline, none fell back.
  EXPECT_EQ(after.Delta(before, "vec.rows"), kRows);
  EXPECT_GT(after.Delta(before, "vec.batches"), 0);
  EXPECT_EQ(after.Delta(before, "vec.fallback_rows"), 0);

  // Profile: aggregate + filter read "vectorized"; the root carries a vec
  // summary child (its last child) with the batch/fallback counts.
  const obs::ProfileNode& root = qctx.profile.root();
  ASSERT_FALSE(root.children.empty());
  const obs::ProfileNode& agg = root.children[0];
  EXPECT_EQ(agg.op, "aggregate");
  EXPECT_EQ(agg.detail, "vectorized");
  ASSERT_FALSE(agg.children.empty());
  EXPECT_EQ(agg.children[0].op, "filter");
  EXPECT_EQ(agg.children[0].detail, "vectorized");
  const obs::ProfileNode& last = root.children.back();
  EXPECT_EQ(last.op, "vec");
  EXPECT_EQ(last.counters.rows_in, kRows);
  EXPECT_NE(last.detail.find("batches="), std::string::npos);
  EXPECT_NE(last.detail.find("fallback_rows=0"), std::string::npos);
}

TEST_F(VecEngineTest, ProfileModesForMixedPlans) {
  // Mixed plans at the default settings: each operator reports the mode its
  // own expressions ran in, independent of its neighbours.
  storage::Schema schema =
      storage::Schema::Create({{"id", storage::ColumnType::kInt64, 0},
                               {"x", storage::ColumnType::kFloat64, 0},
                               {"v", storage::ColumnType::kBinary, 64}})
          .value();
  storage::Table* t = db_.CreateTable("modes", std::move(schema)).value();
  OwnedArray vec = OwnedArray::Zeros(DType::kFloat64, Dims{5}).value();
  for (int64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(vec.SetDouble(0, static_cast<double>(i) * 0.5).ok());
    ASSERT_TRUE(t->Insert({i, static_cast<double>(i) * 0.25,
                           std::vector<uint8_t>(vec.blob().begin(),
                                                vec.blob().end())})
                    .ok());
  }
  executor_.set_batch_rows(1024);
  executor_.set_scan_workers(1);

  // Runs q under EXPLAIN ANALYZE collection and maps each operator name in
  // the profile tree to its mode.
  auto modes = [&](Query q) {
    std::map<std::string, std::string> out;
    EXPECT_TRUE(executor_.Bind(&q).ok());
    QueryContext qctx;
    qctx.collect_profile = true;
    EXPECT_TRUE(executor_.Execute(q, &qctx).ok());
    std::vector<const obs::ProfileNode*> stack{&qctx.profile.root()};
    while (!stack.empty()) {
      const obs::ProfileNode* n = stack.back();
      stack.pop_back();
      if (n->op == "aggregate" || n->op == "group-by" || n->op == "filter") {
        out[n->op] = n->detail;
      }
      for (const obs::ProfileNode& c : n->children) stack.push_back(&c);
    }
    return out;
  };
  auto id_gt_5 = [] {
    return Bin(BinaryOp::kGt, Col("id"), Lit(Value::Int(5)));
  };

  // A call whose function has a column kernel is a lane instruction, so
  // the aggregate runs vectorized with the WHERE.
  Query udf_sum;
  udf_sum.table = t;
  std::vector<ExprPtr> args;
  args.push_back(Col("v"));
  args.push_back(Lit(Value::Int(0)));
  udf_sum.items.push_back(Item(Call("FloatArray", "Item_1", std::move(args)),
                               SelectItem::AggKind::kSum, "s"));
  udf_sum.where = id_gt_5();
  EXPECT_EQ(modes(std::move(udf_sum)),
            (std::map<std::string, std::string>{{"aggregate", "vectorized"},
                                                {"filter", "vectorized"}}));

  // A call without a kernel keeps the aggregate on the row evaluator while
  // the WHERE still compiles to a columnar program.
  Query boxed_sum;
  boxed_sum.table = t;
  std::vector<ExprPtr> boxed_args;
  boxed_args.push_back(Col("v"));
  boxed_args.push_back(Lit(Value::Int(0)));
  boxed_sum.items.push_back(Item(Call("Array", "Item", std::move(boxed_args)),
                                 SelectItem::AggKind::kSum, "s"));
  boxed_sum.where = id_gt_5();
  EXPECT_EQ(modes(std::move(boxed_sum)),
            (std::map<std::string, std::string>{{"aggregate", "row"},
                                                {"filter", "vectorized"}}));

  // TOP runs lanes too; each block holds at most the rows it still lacks,
  // so it stops on the row that completes it.
  Query top;
  top.table = t;
  top.items.push_back(Item(Col("id"), SelectItem::AggKind::kNone, "id"));
  top.where = id_gt_5();
  top.top = 3;
  EXPECT_EQ(modes(std::move(top)),
            (std::map<std::string, std::string>{{"filter", "vectorized"}}));

  // GROUP BY runs its key, its aggregate argument and its filter as lanes.
  Query grouped;
  grouped.table = t;
  grouped.items.push_back(
      Item(Bin(BinaryOp::kMod, Col("id"), Lit(Value::Int(4))),
           SelectItem::AggKind::kNone, "k"));
  grouped.items.push_back(Item(Col("x"), SelectItem::AggKind::kSum, "s"));
  grouped.where = id_gt_5();
  grouped.group_by.push_back(
      Bin(BinaryOp::kMod, Col("id"), Lit(Value::Int(4))));
  EXPECT_EQ(modes(std::move(grouped)),
            (std::map<std::string, std::string>{{"group-by", "vectorized"},
                                                {"filter", "vectorized"}}));

  // A UDA plan reads wide blocks too: its WHERE is a lane program, while
  // the UDA takes each kept row's argument from Eval, a fallback row.
  auto uda = [&] {
    Query q;
    q.table = t;
    SelectItem avg;
    avg.agg = SelectItem::AggKind::kUda;
    avg.uda_schema = "FloatArrayMax";
    avg.uda_name = "AvgVector";
    avg.uda_args.push_back(Col("v"));
    avg.label = "avg";
    q.items.push_back(std::move(avg));
    q.where = id_gt_5();
    return q;
  };
  EXPECT_EQ(modes(uda()),
            (std::map<std::string, std::string>{{"aggregate", "row"},
                                                {"filter", "vectorized"}}));
  Query uda_q = uda();
  ASSERT_TRUE(executor_.Bind(&uda_q).ok());
  QueryContext uda_ctx;
  uda_ctx.collect_profile = true;
  ASSERT_TRUE(executor_.Execute(uda_q, &uda_ctx).ok());
  std::string vec_detail;
  for (const obs::ProfileNode& c : uda_ctx.profile.root().children) {
    if (c.op == "vec") vec_detail = c.detail;
  }
  EXPECT_EQ(vec_detail, "batches=1 fallback_rows=58");  // ids 6..63

  // A plain projection filters in the columnar pipeline.
  Query project;
  project.table = t;
  project.items.push_back(Item(Col("id"), SelectItem::AggKind::kNone, "id"));
  project.items.push_back(Item(Col("x"), SelectItem::AggKind::kNone, "x"));
  project.where = id_gt_5();
  EXPECT_EQ(modes(std::move(project)),
            (std::map<std::string, std::string>{{"filter", "vectorized"}}));
}

TEST_F(VecEngineTest, GovernanceCancelAndBudgetInColumnarPath) {
  storage::Table* t = MakeMixedTable("m8", kRows);
  Query q;
  q.table = t;
  q.items.push_back(Item(Col("y"), SelectItem::AggKind::kSum, "s"));
  ASSERT_TRUE(executor_.Bind(&q).ok());
  executor_.set_batch_rows(128);
  executor_.set_scan_workers(2);

  // Pre-fired cancellation surfaces through the vectorized scan loop.
  {
    QueryContext qctx;
    qctx.limits.cancel = std::make_shared<gov::CancelSource>();
    qctx.limits.cancel->Cancel(gov::KillReason::kUser, "test kill");
    Result<ResultSet> r = executor_.Execute(q, &qctx);
    ASSERT_FALSE(r.ok());
  }
  // A tiny memory budget trips on the columnar register-file charge.
  {
    QueryContext qctx;
    gov::MemoryBudget budget;
    budget.Reset(1024);  // smaller than one 128-row batch
    qctx.limits.budget = &budget;
    Result<ResultSet> r = executor_.Execute(q, &qctx);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  }
}

TEST_F(VecEngineTest, ConcurrentMorselVectorizedStress) {
  // TSan target (ctest tsan_vec_suite): 8 morsel workers share one compiled
  // plan and the global vec counters while each owning private register
  // scratch; repeated runs must agree with the serial row baseline.
  storage::Table* t = MakeMixedTable("m9", kRows);
  Query q;
  q.table = t;
  q.where = Bin(BinaryOp::kGt, Col("y"), Lit(Value::Double(-1.0)));
  q.items.push_back(Item(Bin(BinaryOp::kMul, Col("y"), Col("x")),
                         SelectItem::AggKind::kSum, "s"));
  q.items.push_back(Item(Col("b"), SelectItem::AggKind::kMin, "m"));
  q.items.push_back(Item(Star(), SelectItem::AggKind::kCount, "n"));
  ASSERT_TRUE(executor_.Bind(&q).ok());
  const Outcome base = Run(q, nullptr, 1, 1);
  for (int rep = 0; rep < 4; ++rep) {
    const Outcome got = Run(q, nullptr, 256, 8);
    EXPECT_EQ(got.ok, base.ok);
    EXPECT_EQ(got.payload, base.payload) << "rep=" << rep;
  }
}


// ---------------------------------------------------------------------------
// FLOAT -> BIGINT conversion: NaN, +-inf and |x| >= 2^63 raise kOutOfRange
// in both evaluators (SQL Server's arithmetic overflow), never the
// undefined bare cast.
// ---------------------------------------------------------------------------

TEST_F(VecEngineTest, FloatToBigintOverflowFailsInBothEvaluators) {
  storage::Schema schema =
      storage::Schema::Create({{"id", storage::ColumnType::kInt64, 0},
                               {"x", storage::ColumnType::kFloat64, 0},
                               {"v", storage::ColumnType::kBinary, 64}})
          .value();
  storage::Table* t = db_.CreateTable("f2i", std::move(schema)).value();
  OwnedArray vec = OwnedArray::Zeros(DType::kFloat64, Dims{5}).value();
  const std::vector<uint8_t> blob(vec.blob().begin(), vec.blob().end());
  for (int64_t i = 0; i < 300; ++i) {
    const double x = i == 211 ? 1e300 : static_cast<double>(i % 4);
    ASSERT_TRUE(t->Insert({i, x, blob}).ok());
  }
  std::map<std::string, Value> vars{{"null", Value::Null()}};
  const std::string overflow =
      "OUT_OF_RANGE: arithmetic overflow converting FLOAT to BIGINT";
  auto outcome = [&](Query q, int batch) {
    EXPECT_TRUE(executor_.Bind(&q).ok());
    return Run(q, &vars, batch, /*workers=*/1);
  };
  auto call = [](double index) {
    std::vector<ExprPtr> args;
    args.push_back(Col("v"));
    args.push_back(Lit(Value::Double(index)));
    return Call("FloatArray", "Item_1", std::move(args));
  };
  for (int batch : {1, 1024}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    // SELECT 1e300 % 3 (a FROM-less query: Eval at every width).
    Query mod;
    mod.items.push_back(Item(Bin(BinaryOp::kMod, Lit(Value::Double(1e300)),
                                 Lit(Value::Int(3))),
                             SelectItem::AggKind::kNone, "m"));
    EXPECT_EQ(outcome(std::move(mod), batch).payload, overflow);
    // ... WHERE x: the row's FLOAT truthiness has no BIGINT.
    Query where;
    where.table = t;
    where.where = Col("x");
    where.items.push_back(Item(Star(), SelectItem::AggKind::kCount, "n"));
    EXPECT_EQ(outcome(std::move(where), batch).payload, overflow);
    // ... x % 2 in a projection, and NOT x in an aggregate.
    Query proj;
    proj.table = t;
    proj.items.push_back(
        Item(Bin(BinaryOp::kMod, Col("x"), Lit(Value::Int(2))),
             SelectItem::AggKind::kNone, "m"));
    EXPECT_EQ(outcome(std::move(proj), batch).payload, overflow);
    Query neg;
    neg.table = t;
    neg.items.push_back(Item(Un(UnaryOp::kNot, Col("x")),
                             SelectItem::AggKind::kSum, "s"));
    EXPECT_EQ(outcome(std::move(neg), batch).payload, overflow);
    // ... an Item_N index: the kernel converts its index lanes the way the
    // row function's AsInt does.
    for (double index : {1e300, -1e300, kInf, -kInf, kNaN, 0x1p63}) {
      Query item;
      item.table = t;
      item.items.push_back(
          Item(call(index), SelectItem::AggKind::kSum, "s"));
      EXPECT_EQ(outcome(std::move(item), batch).payload, overflow) << index;
    }
    // -2^63 itself fits (and is then out of the array's bounds).
    Query low;
    low.table = t;
    low.items.push_back(Item(call(-0x1p63), SelectItem::AggKind::kSum, "s"));
    EXPECT_EQ(outcome(std::move(low), batch).payload,
              "OUT_OF_RANGE: index -9223372036854775808 out of bounds for "
              "dimension 0 of size 5");
    // A NULL lane converts nothing: (x + @null) % 2 is NULL, not an error.
    Query null_lane;
    null_lane.table = t;
    null_lane.items.push_back(
        Item(Bin(BinaryOp::kMod, Bin(BinaryOp::kAdd, Col("x"), Var("null")),
                 Lit(Value::Int(2))),
             SelectItem::AggKind::kSum, "s"));
    Outcome o = outcome(std::move(null_lane), batch);
    EXPECT_TRUE(o.ok) << o.payload;
  }
}

// ---------------------------------------------------------------------------
// Hosted calls as lanes: a call to a function with a column kernel is one
// kCall instruction. It must return what Eval returns and charge exactly
// what FunctionRegistry::Invoke charges.
// ---------------------------------------------------------------------------

/// The non-complex dtypes: every short schema whose Item_N has a kernel.
constexpr DType kRealDTypes[] = {DType::kInt8,    DType::kInt16,
                                 DType::kInt32,   DType::kInt64,
                                 DType::kFloat32, DType::kFloat64,
                                 DType::kDateTime};

class CallLaneTest : public VecEngineTest {
 protected:
  static constexpr int64_t kCallRows = 301;
  /// The rank-r column a<r> holds arrays of the first r of these sizes ...
  static constexpr int64_t kDims[kMaxShortRank] = {3, 2, 2, 1, 2, 1};
  /// ... and, every third row, of these, which contain them: every block
  /// wider than one row meets a second header, under which the same index
  /// tuple lands on another element.
  static constexpr int64_t kAltDims[kMaxShortRank] = {4, 3, 2, 1, 2, 1};

  CallLaneTest() : rows_executor_(&db_, &rows_registry_) {
    EXPECT_TRUE(spectrum::RegisterSpectrumUdfs(&registry_).ok());
    EXPECT_TRUE(udfs::RegisterAllUdfs(&rows_registry_).ok());
    EXPECT_TRUE(spectrum::RegisterSpectrumUdfs(&rows_registry_).ok());
    // The oracle: the same functions without their kernels, so every call
    // runs through Eval and Invoke at every batch size.
    for (const ScalarFunction* fn : rows_registry_.scalars()) {
      const_cast<ScalarFunction*>(fn)->kernel = nullptr;
    }
  }

  static std::string SchemaOf(DType dt, StorageClass sc = StorageClass::kShort) {
    return std::string(DTypeSchemaPrefix(dt)) + "Array" +
           (sc == StorageClass::kMax ? "Max" : "");
  }

  /// id BIGINT, k INT (id % 3), x FLOAT (id % 2 + 0.75), then VARBINARY(n)
  /// columns: a1 .. a6, `sc` arrays of `dt` of rank 1 .. 6, shaped by
  /// kAltDims where id % 3 == 0 and by kDims elsewhere; c8 and c16, a
  /// single and a double precision complex UDT; and wl, fl, fg, a six-bin
  /// spectrum's wavelengths, flux and int8 flags.
  storage::Table* MakeArrayTable(DType dt,
                                 StorageClass sc = StorageClass::kShort) {
    std::vector<storage::ColumnDef> cols = {
        {"id", storage::ColumnType::kInt64, 0},
        {"k", storage::ColumnType::kInt32, 0},
        {"x", storage::ColumnType::kFloat64, 0}};
    for (int r = 1; r <= kMaxShortRank; ++r) {
      const Dims widest(kAltDims, kAltDims + r);
      const ArrayHeader h{dt, sc, widest};
      cols.push_back({"a" + std::to_string(r), storage::ColumnType::kBinary,
                      static_cast<int32_t>(h.blob_size())});
    }
    for (auto [name, capacity] :
         {std::pair<const char*, int32_t>{"c8", 8}, {"c16", 16}, {"wl", 72},
          {"fl", 72}, {"fg", 30}}) {
      cols.push_back({name, storage::ColumnType::kBinary, capacity});
    }
    // Batch rows follow one another at the row size: an odd one leaves
    // every column's payload unaligned in every other row.
    if (storage::Schema::Create(cols).value().row_size() % 2 == 0) {
      ++cols.back().capacity;
    }
    storage::Table* t =
        db_.CreateTable("arrays_" + SchemaOf(dt, sc),
                        storage::Schema::Create(std::move(cols)).value())
            .value();
    auto bytes = [](const OwnedArray& a) {
      return std::vector<uint8_t>(a.blob().begin(), a.blob().end());
    };
    for (int64_t i = 0; i < kCallRows; ++i) {
      storage::Row row(3 + kMaxShortRank + 5);
      row[0] = i;
      row[1] = static_cast<int32_t>(i % 3);
      row[2] = static_cast<double>(i % 2) + 0.75;
      for (int r = 1; r <= kMaxShortRank; ++r) {
        const int64_t* dims = i % 3 == 0 ? kAltDims : kDims;
        OwnedArray a = OwnedArray::Zeros(dt, Dims(dims, dims + r), sc).value();
        for (int64_t e = 0; e < a.num_elements(); ++e) {
          const double v = static_cast<double>((i * 7 + e * 13) % 101 - 50);
          EXPECT_TRUE((IsComplexDType(dt)
                           ? a.SetComplex(e, {v * 0.5, 0.25 * e - v})
                       : IsIntegerDType(dt)
                           ? a.SetDouble(e, v)
                           : a.SetDouble(e, v * 0.375 + 0.125 * e))
                          .ok());
        }
        row[2 + r] = bytes(a);
      }
      const std::complex<double> c(0.5 * i - 70, 3.0 - 0.25 * i);
      row[9] = udfs::EncodeComplexUdt(c, true);
      row[10] = udfs::EncodeComplexUdt(c, false);
      std::vector<double> wl(6), fl(6);
      std::vector<int8_t> fg(6);
      for (int b = 0; b < 6; ++b) {
        wl[b] = 4000 + 500 * b + (i % 5);
        fl[b] = 1.0 + 0.125 * ((i + b) % 7);
        fg[b] = static_cast<int8_t>((i + b) % 4 == 0);
      }
      row[11] = bytes(OwnedArray::FromVector<double>(wl).value());
      row[12] = bytes(OwnedArray::FromVector<double>(fl).value());
      row[13] = bytes(OwnedArray::FromVector<int8_t>(fg).value());
      EXPECT_TRUE(t->Insert(row).ok());
    }
    return t;
  }

  /// Index d of a call in one of five forms — a literal, a BIGINT or FLOAT
  /// variable, the INT column k, arithmetic over id, the FLOAT column x —
  /// always inside [0, kDims[d]).
  static ExprPtr Index(int d, int form) {
    const int64_t size = kDims[d];
    switch (form % 5) {
      case 0:
        return Lit(Value::Int(size - 1));
      case 1:
        return Var(size == 1 ? "zero" : d % 2 == 0 ? "one" : "half");
      case 2:
        return size == 3 ? Col("k")
                         : Bin(BinaryOp::kMod, Col("k"), Lit(Value::Int(size)));
      case 3:
        return Bin(BinaryOp::kMod,
                   Bin(BinaryOp::kAdd, Col("id"), Lit(Value::Int(d))),
                   Lit(Value::Int(size)));
      default:
        return size > 1 ? Col("x")
                        : Bin(BinaryOp::kMul, Col("x"), Lit(Value::Double(0)));
    }
  }

  /// <dt>Array.Item_r(a<r>, ...) with index d in form `form + d`.
  static ExprPtr ItemCall(DType dt, int r, int form) {
    std::vector<ExprPtr> args;
    args.push_back(Col("a" + std::to_string(r)));
    for (int d = 0; d < r; ++d) args.push_back(Index(d, form + d));
    return Call(SchemaOf(dt), "Item_" + std::to_string(r), std::move(args));
  }

  static ExprPtr EmptyCall(int r) {
    std::vector<ExprPtr> args;
    args.push_back(Col("a" + std::to_string(r)));
    args.push_back(Col("id"));
    return Call("dbo", "EmptyFunction", std::move(args));
  }

  /// One call of each kernel family over `array` (every array argument)
  /// and `index` (every index): the short and max real Item_1, complex
  /// ItemRe_1 and ItemIm_1, Norm, Dot, the whole-array aggregates, the
  /// generic Array.SumAll, the complex UDT accessors, Spectrum.Integrate
  /// and dbo.EmptyFunction.
  static std::vector<ExprPtr> KernelFamilyCalls(
      const std::function<ExprPtr()>& array,
      const std::function<ExprPtr()>& index) {
    std::vector<ExprPtr> calls;
    auto add = [&](const std::string& schema, const std::string& name,
                   int arrays, bool indexed) {
      std::vector<ExprPtr> args;
      for (int i = 0; i < arrays; ++i) args.push_back(array());
      if (indexed) args.push_back(index());
      calls.push_back(Call(schema, name, std::move(args)));
    };
    add("FloatArray", "Item_1", 1, true);
    add("FloatArrayMax", "Item_1", 1, true);
    add("DoubleComplexArray", "ItemRe_1", 1, true);
    add("ComplexArrayMax", "ItemIm_1", 1, true);
    add("FloatArray", "Norm", 1, false);
    add("ComplexArray", "Norm", 1, false);
    add("FloatArray", "Dot", 2, false);
    for (const char* agg : {"SumAll", "MinAll", "MaxAll", "MeanAll", "StdAll"}) {
      add("FloatArray", agg, 1, false);
    }
    add("Array", "SumAll", 1, false);
    add("Complex", "Re", 1, false);
    add("DoubleComplex", "Abs", 1, false);
    add("dbo", "EmptyFunction", 1, true);
    std::vector<ExprPtr> spectrum;
    for (int i = 0; i < 3; ++i) spectrum.push_back(array());
    spectrum.push_back(index());
    spectrum.push_back(Lit(Value::Double(6000)));
    calls.push_back(Call("Spectrum", "Integrate", std::move(spectrum)));
    return calls;
  }

  /// One run's results, every QueryStats field, the EXPLAIN ANALYZE udf
  /// rows and the rows the lane programs left to Eval.
  struct Snap {
    bool ok = false;
    std::string payload;
    QueryStats stats;
    std::string udf_rows;
    int64_t fallback_rows = 0;
  };

  Snap RunSnap(Executor& ex, const Query& q, std::map<std::string, Value>* vars,
               int batch, int workers) {
    ex.set_batch_rows(batch);
    ex.set_scan_workers(workers);
    db_.ClearCache();
    QueryContext qctx;
    qctx.collect_profile = true;
    qctx.variables = vars;
    obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
    Result<ResultSet> r = ex.Execute(q, &qctx);
    obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
    Snap s;
    s.ok = r.ok();
    if (!r.ok()) {
      s.payload = r.status().ToString();
      return s;
    }
    s.payload = Fingerprint(r.value());
    s.stats = r.value().stats;
    s.fallback_rows = after.Delta(before, "vec.fallback_rows");
    for (const obs::ProfileNode& n : qctx.profile.root().children) {
      if (n.op != "udf") continue;
      const double modeled = n.counters.modeled_seconds;
      s.udf_rows += n.detail + " calls=" + std::to_string(n.counters.udf_calls) +
                    " bytes=" + std::to_string(n.counters.udf_bytes) + " s=";
      s.udf_rows.append(reinterpret_cast<const char*>(&modeled), 8);
      s.udf_rows += ";";
    }
    return s;
  }

  /// The integer QueryStats fields and I/O counts must match exactly.
  static void ExpectSameCounts(const QueryStats& a, const QueryStats& b) {
    EXPECT_EQ(a.rows_scanned, b.rows_scanned);
    EXPECT_EQ(a.rows_kept, b.rows_kept);
    EXPECT_EQ(a.agg_steps, b.agg_steps);
    EXPECT_EQ(a.udf_calls, b.udf_calls);
    EXPECT_EQ(a.udf_bytes_marshaled, b.udf_bytes_marshaled);
    EXPECT_EQ(a.uda_state_bytes, b.uda_state_bytes);
    EXPECT_EQ(a.io.pages_read, b.io.pages_read);
    EXPECT_EQ(a.io.bytes_read, b.io.bytes_read);
    ASSERT_EQ(a.udf_by_fn.size(), b.udf_by_fn.size());
    for (const auto& [fn, d] : a.udf_by_fn) {
      auto it = b.udf_by_fn.find(fn);
      ASSERT_NE(it, b.udf_by_fn.end()) << fn;
      EXPECT_EQ(d.calls, it->second.calls) << fn;
      EXPECT_EQ(d.bytes, it->second.bytes) << fn;
    }
  }

  /// Every configuration of the lane executor against (a) the kernel-free
  /// executor at the same batch size and worker count — every QueryStats
  /// field and udf row bit for bit, as the engine produced before calls had
  /// lanes — and (b) the one-row oracle: results bitwise, counts exact and
  /// modeled CPU equal, since the ledger is exact in any charge order.
  void ExpectCallLanesMatch(const std::function<Query()>& make,
                            std::map<std::string, Value>* vars) {
    Query lane_q = make();
    ASSERT_TRUE(executor_.Bind(&lane_q).ok());
    Query row_q = make();
    ASSERT_TRUE(rows_executor_.Bind(&row_q).ok());
    const Snap base = RunSnap(executor_, lane_q, vars, 1, 1);
    ASSERT_TRUE(base.ok) << base.payload;
    ASSERT_GT(base.stats.udf_calls, 0);
    for (int b : {1, 3, 1024}) {
      for (int w : {1, 2, 8}) {
        SCOPED_TRACE("batch=" + std::to_string(b) +
                     " workers=" + std::to_string(w));
        const Snap lane = RunSnap(executor_, lane_q, vars, b, w);
        const Snap rows = RunSnap(rows_executor_, row_q, vars, b, w);
        ASSERT_TRUE(lane.ok) << lane.payload;
        ASSERT_TRUE(rows.ok) << rows.payload;
        EXPECT_EQ(lane.payload, rows.payload);
        ExpectSameCounts(lane.stats, rows.stats);
        EXPECT_EQ(std::memcmp(&lane.stats.cpu_core_seconds,
                              &rows.stats.cpu_core_seconds, sizeof(double)),
                  0)
            << lane.stats.cpu_core_seconds << " vs "
            << rows.stats.cpu_core_seconds;
        EXPECT_EQ(lane.udf_rows, rows.udf_rows);
        // Every call ran as a lane instruction.
        if (b > 1) {
          EXPECT_EQ(lane.fallback_rows, 0);
        }

        EXPECT_EQ(lane.payload, base.payload);
        ExpectSameCounts(lane.stats, base.stats);
        EXPECT_EQ(lane.stats.cpu_core_seconds, base.stats.cpu_core_seconds);
      }
    }
  }

  FunctionRegistry rows_registry_;
  Executor rows_executor_;
};

TEST_F(CallLaneTest, ItemNDifferentialAcrossDtypesAndRanks) {
  std::map<std::string, Value> vars{{"zero", Value::Int(0)},
                                    {"one", Value::Int(1)},
                                    {"half", Value::Double(1.5)}};
  for (DType dt : kRealDTypes) {
    storage::Table* t = MakeArrayTable(dt);
    for (int r = 1; r <= kMaxShortRank; ++r) {
      SCOPED_TRACE(SchemaOf(dt) + ".Item_" + std::to_string(r));
      // Calls in the WHERE (two of them, charged row-major) and in every
      // native aggregate's argument.
      ExpectCallLanesMatch(
          [&] {
            Query q;
            q.table = t;
            q.where = Bin(BinaryOp::kOr,
                          Bin(BinaryOp::kLt, ItemCall(dt, r, 0),
                              ItemCall(dt, r, 1)),
                          Bin(BinaryOp::kEq, Col("k"), Lit(Value::Int(0))));
            q.items.push_back(
                Item(ItemCall(dt, r, 2), SelectItem::AggKind::kSum, "s"));
            q.items.push_back(Item(Bin(BinaryOp::kMul, ItemCall(dt, r, 3),
                                       Lit(Value::Double(2))),
                                   SelectItem::AggKind::kMin, "mn"));
            q.items.push_back(
                Item(ItemCall(dt, r, 4), SelectItem::AggKind::kMax, "mx"));
            q.items.push_back(
                Item(ItemCall(dt, r, 0), SelectItem::AggKind::kCount, "c"));
            q.items.push_back(
                Item(EmptyCall(r), SelectItem::AggKind::kSum, "e"));
            return q;
          },
          &vars);
      // Projections, with a call nested in another call's index: Eval
      // charges the inner call first.
      ExpectCallLanesMatch(
          [&] {
            Query q;
            q.table = t;
            q.where = Bin(BinaryOp::kNe,
                          Bin(BinaryOp::kMod, Col("id"), Lit(Value::Int(4))),
                          Lit(Value::Int(0)));
            q.items.push_back(Item(Col("id"), SelectItem::AggKind::kNone, "id"));
            q.items.push_back(Item(Bin(BinaryOp::kAdd, ItemCall(dt, r, 1),
                                       Col("k")),
                                   SelectItem::AggKind::kNone, "i"));
            ExprPtr nested = ItemCall(dt, r, 3);
            nested->args[1] = Bin(BinaryOp::kMul, ItemCall(dt, 1, 2),
                                  Lit(Value::Double(0)));
            q.items.push_back(
                Item(std::move(nested), SelectItem::AggKind::kNone, "n"));
            q.items.push_back(
                Item(EmptyCall(r), SelectItem::AggKind::kNone, "e"));
            return q;
          },
          &vars);
    }
  }
}

TEST_F(CallLaneTest, GroupByKeysAndTopRunCallLanes) {
  std::map<std::string, Value> vars{{"zero", Value::Int(0)},
                                    {"one", Value::Int(1)},
                                    {"half", Value::Double(1.5)}};
  for (DType dt : {DType::kInt32, DType::kFloat64}) {
    storage::Table* t = MakeArrayTable(dt);
    for (int r : {1, 2}) {
      SCOPED_TRACE(SchemaOf(dt) + ".Item_" + std::to_string(r));
      // A call key and a column key, a plain item and an aggregate that
      // call, a COUNT(*) and a WHERE call: every call a lane instruction.
      ExpectCallLanesMatch(
          [&] {
            Query q;
            q.table = t;
            q.where = Bin(BinaryOp::kGe, ItemCall(dt, r, 1),
                          Lit(Value::Double(-40)));
            q.group_by.push_back(ItemCall(dt, r, 0));
            q.group_by.push_back(Col("k"));
            q.items.push_back(
                Item(ItemCall(dt, r, 0), SelectItem::AggKind::kNone, "g"));
            q.items.push_back(
                Item(ItemCall(dt, r, 2), SelectItem::AggKind::kNone, "p"));
            q.items.push_back(
                Item(ItemCall(dt, r, 2), SelectItem::AggKind::kSum, "s"));
            q.items.push_back(Item(Star(), SelectItem::AggKind::kCount, "c"));
            return q;
          },
          &vars);
      // TOP, at one worker: several workers may scan a morsel that one
      // worker skips.
      auto top = [&] {
        Query q;
        q.table = t;
        q.where =
            Bin(BinaryOp::kGt, ItemCall(dt, r, 1), Lit(Value::Double(10)));
        q.items.push_back(Item(Col("id"), SelectItem::AggKind::kNone, "id"));
        q.items.push_back(
            Item(ItemCall(dt, r, 0), SelectItem::AggKind::kNone, "v"));
        q.top = 17;
        return q;
      };
      Query lane_q = top();
      ASSERT_TRUE(executor_.Bind(&lane_q).ok());
      Query row_q = top();
      ASSERT_TRUE(rows_executor_.Bind(&row_q).ok());
      const Snap base = RunSnap(executor_, lane_q, &vars, 1, 1);
      ASSERT_TRUE(base.ok) << base.payload;
      ASSERT_LT(base.stats.rows_scanned, kCallRows);
      for (int b : {3, 1024}) {
        SCOPED_TRACE("batch=" + std::to_string(b));
        const Snap lane = RunSnap(executor_, lane_q, &vars, b, 1);
        const Snap rows = RunSnap(rows_executor_, row_q, &vars, b, 1);
        EXPECT_EQ(lane.payload, base.payload);
        EXPECT_EQ(rows.payload, base.payload);
        ExpectSameCounts(lane.stats, base.stats);
        ExpectSameCounts(rows.stats, base.stats);
        EXPECT_EQ(lane.fallback_rows, 0);
      }
    }
  }
}

TEST_F(CallLaneTest, EveryKernelMatchesItsRowFunction) {
  std::map<std::string, Value> vars{{"zero", Value::Int(0)},
                                    {"one", Value::Int(1)},
                                    {"half", Value::Double(1.5)}};
  // Functions a differential here or in ItemNDifferentialAcrossDtypesAndRanks
  // (the short real Item_N, dbo.EmptyFunction) calls.
  std::set<std::string> covered = {"dbo.EmptyFunction/2"};
  for (DType dt : kRealDTypes) {
    for (int r = 1; r <= kMaxShortRank; ++r) {
      covered.insert(SchemaOf(dt) + ".Item_" + std::to_string(r) + "/" +
                     std::to_string(r + 1));
    }
  }
  auto call = [&](const std::string& schema, const std::string& name,
                  std::vector<ExprPtr> args) {
    covered.insert(schema + "." + name + "/" + std::to_string(args.size()));
    return Call(schema, name, std::move(args));
  };
  auto cols = [](std::initializer_list<const char*> names) {
    std::vector<ExprPtr> args;
    for (const char* n : names) args.push_back(Col(n));
    return args;
  };
  for (int d = 0; d < kNumDTypes; ++d) {
    const DType dt = static_cast<DType>(d);
    const bool cpx = IsComplexDType(dt);
    storage::Table* t = nullptr;
    for (StorageClass sc : {StorageClass::kShort, StorageClass::kMax}) {
      t = MakeArrayTable(dt, sc);
      const std::string schema = SchemaOf(dt, sc);
      const std::string p = "a";
      SCOPED_TRACE(schema);
      ExpectCallLanesMatch(
          [&] {
            Query q;
            q.table = t;
            q.where = Bin(
                BinaryOp::kOr,
                Bin(BinaryOp::kGt,
                    call(schema, "Norm", cols({(p + "2").c_str()})),
                    Lit(Value::Double(40))),
                Bin(BinaryOp::kEq, Col("k"), Lit(Value::Int(0))));
            // An element read at every rank, its index in form r.
            for (int r = 1; r <= kMaxShortRank; ++r) {
              if (!cpx && sc == StorageClass::kShort) continue;
              for (const char* name :
                   cpx ? std::vector<const char*>{"ItemRe_", "ItemIm_"}
                       : std::vector<const char*>{"Item_"}) {
                std::vector<ExprPtr> args = cols({(p + std::to_string(r)).c_str()});
                for (int i = 0; i < r; ++i) args.push_back(Index(i, r + i));
                q.items.push_back(Item(call(schema, name + std::to_string(r),
                                            std::move(args)),
                                       SelectItem::AggKind::kSum, "i"));
              }
            }
            q.items.push_back(
                Item(call(schema, "Norm", cols({(p + "1").c_str()})),
                     SelectItem::AggKind::kSum, "n"));
            if (!cpx) {
              q.items.push_back(Item(call(schema, "Dot", cols({"a1", "a1"})),
                                     SelectItem::AggKind::kSum, "d"));
              for (const char* agg :
                   {"SumAll", "MinAll", "MaxAll", "MeanAll", "StdAll"}) {
                q.items.push_back(
                    Item(call(schema, agg, cols({(p + "3").c_str()})),
                         agg[1] == 'i' ? SelectItem::AggKind::kMin
                                       : SelectItem::AggKind::kMax,
                         agg));
              }
            }
            return q;
          },
          &vars);
    }
    if (dt != DType::kFloat64) continue;
    // The schemas that name no array type, in a projection (over the max
    // arrays).
    ExpectCallLanesMatch(
        [&] {
          Query q;
          q.table = t;
          q.items.push_back(Item(Col("id"), SelectItem::AggKind::kNone, "id"));
          q.items.push_back(Item(call("Array", "SumAll", cols({"a4"})),
                                 SelectItem::AggKind::kNone, "s"));
          for (const char* udt : {"Complex", "DoubleComplex"}) {
            const char* c = udt[0] == 'C' ? "c8" : "c16";
            for (const char* name : {"Re", "Im", "Abs"}) {
              q.items.push_back(Item(call(udt, name, cols({c})),
                                     SelectItem::AggKind::kNone, name));
            }
          }
          std::vector<ExprPtr> args = cols({"wl", "fl", "fg"});
          args.push_back(Bin(BinaryOp::kAdd, Col("x"), Lit(Value::Int(4400))));
          args.push_back(Lit(Value::Double(5800)));
          q.items.push_back(Item(call("Spectrum", "Integrate", std::move(args)),
                                 SelectItem::AggKind::kNone, "f"));
          return q;
        },
        &vars);
  }
  // Those are the functions that carry a kernel.
  FunctionRegistry fresh;
  ASSERT_TRUE(udfs::RegisterAllUdfs(&fresh).ok());
  ASSERT_TRUE(spectrum::RegisterSpectrumUdfs(&fresh).ok());
  std::set<std::string> with_kernel;
  for (const ScalarFunction* fn : fresh.scalars()) {
    if (fn->kernel) {
      with_kernel.insert(fn->schema + "." + fn->name + "/" +
                         std::to_string(fn->arity));
    }
  }
  EXPECT_EQ(with_kernel, covered);
}

TEST_F(CallLaneTest, NullableOrBlobArgumentsStayOnEval) {
  storage::Table* t = MakeArrayTable(DType::kFloat64);
  std::map<std::string, Value> vars{{"nothing", Value::Null()}};
  // A NULL variable, a NULL literal inside arithmetic, and a bytes literal:
  // none is a lane the kernel may see, so each call runs through Eval.
  std::vector<ExprPtr> null_var;
  null_var.push_back(Col("a1"));
  null_var.push_back(Var("nothing"));
  std::vector<ExprPtr> null_lit;
  null_lit.push_back(Col("a1"));
  null_lit.push_back(Bin(BinaryOp::kAdd, Col("k"), Lit(Value::Null())));
  OwnedArray one = OwnedArray::Zeros(DType::kFloat64, Dims{3}).value();
  std::vector<ExprPtr> bytes_lit;
  bytes_lit.push_back(Lit(Value::Bytes(
      std::vector<uint8_t>(one.blob().begin(), one.blob().end()))));
  bytes_lit.push_back(Col("k"));
  std::vector<std::vector<ExprPtr>> cases;
  cases.push_back(std::move(null_var));
  cases.push_back(std::move(null_lit));
  cases.push_back(std::move(bytes_lit));
  for (std::vector<ExprPtr>& args : cases) {
    Query q;
    q.table = t;
    q.where = Bin(BinaryOp::kGe, Col("id"), Lit(Value::Int(0)));  // lanes
    q.items.push_back(Item(Call("FloatArray", "Item_1", std::move(args)),
                           SelectItem::AggKind::kCount, "c"));
    ASSERT_TRUE(executor_.Bind(&q).ok());
    const Snap base = RunSnap(executor_, q, &vars, 1, 1);
    const Snap wide = RunSnap(executor_, q, &vars, 1024, 1);
    EXPECT_EQ(wide.ok, base.ok);
    EXPECT_EQ(wide.payload, base.payload);
    if (wide.ok) {
      EXPECT_EQ(wide.fallback_rows, kCallRows);
    }
  }
}

TEST_F(CallLaneTest, MalformedBlobFailsAlikeAtEveryWidth) {
  const std::vector<double> vals = {0.5, 1.5, 2.5, 3.5, 4.5};
  const OwnedArray good =
      OwnedArray::FromValues<double>(Dims{5}, vals).value();
  const std::vector<uint8_t> blob(good.blob().begin(), good.blob().end());
  ASSERT_EQ(blob.size(), 64u);
  auto patched = [&](size_t at, uint8_t byte) {
    std::vector<uint8_t> b = blob;
    b[at] = byte;
    return b;
  };
  std::vector<uint8_t> count = blob;
  EncodeLE<uint32_t>(count.data() + 4, 6);
  const OwnedArray ints = OwnedArray::Zeros(DType::kInt32, Dims{5}).value();
  const OwnedArray max =
      OwnedArray::Zeros(DType::kFloat64, Dims{5}, StorageClass::kMax).value();

  constexpr int64_t kBadRow = 137;
  // The kernel families beyond FloatArray.Item_1 (KernelFamilyCalls) that
  // accept the good blob: where they fail, the failure is the bad row's.
  std::vector<bool> accepts;
  {
    storage::Schema schema =
        storage::Schema::Create({{"id", storage::ColumnType::kInt64, 0},
                                 {"v", storage::ColumnType::kBinary, 64}})
            .value();
    storage::Table* t = db_.CreateTable("good", std::move(schema)).value();
    for (int64_t i = 0; i < 8; ++i) ASSERT_TRUE(t->Insert({i, blob}).ok());
    for (ExprPtr& call : KernelFamilyCalls([] { return Col("v"); },
                                           [] { return Lit(Value::Int(2)); })) {
      Query q;
      q.table = t;
      q.items.push_back(Item(std::move(call), SelectItem::AggKind::kSum, "s"));
      ASSERT_TRUE(executor_.Bind(&q).ok());
      accepts.push_back(Run(q, nullptr, 1, 1).ok);
    }
    ASSERT_TRUE(accepts[0]);
  }
  struct Case {
    std::string name;
    std::vector<uint8_t> bytes;  ///< row kBadRow's blob
    StatusCode code;
    bool oversize_prefix = false;  ///< corrupt the stored length prefix
    bool bad_index = false;        ///< row kBadRow's index is out of range
    /// Row kBadRow's index expression itself fails (0 / (id - kBadRow)):
    /// Eval decodes the column before it evaluates the index, so only a
    /// corrupt length prefix comes before the division by zero.
    bool failing_index = false;
  };
  const Case cases[] = {
      {"bad_magic", patched(0, 0x00), StatusCode::kCorruption},
      {"max_flag", patched(1, 1), StatusCode::kCorruption},
      {"max_array",
       std::vector<uint8_t>(max.blob().begin(), max.blob().end()),
       StatusCode::kTypeMismatch},
      {"wrong_dtype",
       std::vector<uint8_t>(ints.blob().begin(), ints.blob().end()),
       StatusCode::kTypeMismatch},
      {"bad_dtype_byte", patched(2, 0x7f), StatusCode::kCorruption},
      {"rank_0", patched(3, 0), StatusCode::kCorruption},
      {"rank_7", patched(3, 7), StatusCode::kCorruption},
      {"count_mismatch", count, StatusCode::kCorruption},
      {"truncated_payload",
       std::vector<uint8_t>(blob.begin(), blob.begin() + 40),
       StatusCode::kCorruption},
      {"shorter_than_header",
       std::vector<uint8_t>(blob.begin(), blob.begin() + 10),
       StatusCode::kCorruption},
      {"header_only", std::vector<uint8_t>(blob.begin(), blob.begin() + 24),
       StatusCode::kCorruption},
      {"length_above_capacity", blob, StatusCode::kCorruption, true},
      {"index_out_of_range", blob, StatusCode::kOutOfRange, false, true},
      {"length_above_capacity_and_failing_index", blob,
       StatusCode::kCorruption, true, false, true},
      {"bad_magic_and_failing_index", patched(0, 0x00),
       StatusCode::kInvalidArgument, false, false, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    db_.disk()->set_checksums_enabled(!c.oversize_prefix);
    storage::Schema schema =
        storage::Schema::Create({{"id", storage::ColumnType::kInt64, 0},
                                 {"v", storage::ColumnType::kBinary, 64}})
            .value();
    storage::Table* t =
        db_.CreateTable("bad_" + c.name, std::move(schema)).value();
    for (int64_t i = 0; i < 500; ++i) {
      ASSERT_TRUE(t->Insert({i, i == kBadRow ? c.bytes : blob}).ok());
    }
    if (c.oversize_prefix) {
      // Raise the stored length's high byte on disk: 64 becomes 0xff40.
      std::vector<storage::PageId> leaves = t->CollectLeafPages().value();
      uint8_t key[8];
      EncodeLE<int64_t>(key, kBadRow);
      bool found = false;
      for (storage::PageId id : leaves) {
        storage::PinnedPage page = db_.buffer_pool()->GetPage(id).value();
        const uint8_t* b = page->data();
        for (int64_t off = 0; off + 11 <= storage::kPageSize && !found;
             ++off) {
          if (std::memcmp(b + off, key, 8) != 0 || b[off + 8] != 64 ||
              b[off + 9] != 0) {
            continue;
          }
          page = storage::PinnedPage();
          ASSERT_TRUE(db_.disk()->CorruptPageByte(id, off + 9).ok());
          found = true;
        }
        if (found) break;
      }
      ASSERT_TRUE(found);
      db_.ClearCache();
    }
    // One call over the column, in an aggregate, a projection and a WHERE.
    auto call = [&] {
      std::vector<ExprPtr> args;
      args.push_back(Col("v"));
      if (c.bad_index) {
        args.push_back(Bin(
            BinaryOp::kMul,
            Bin(BinaryOp::kEq, Col("id"), Lit(Value::Int(kBadRow))),
            Lit(Value::Int(10))));
      } else if (c.failing_index) {
        args.push_back(Bin(
            BinaryOp::kDiv, Lit(Value::Int(0)),
            Bin(BinaryOp::kSub, Col("id"), Lit(Value::Int(kBadRow)))));
      } else {
        args.push_back(Lit(Value::Int(2)));
      }
      return Call("FloatArray", "Item_1", std::move(args));
    };
    std::vector<Query> queries(3);
    queries[0].items.push_back(Item(call(), SelectItem::AggKind::kSum, "s"));
    queries[1].items.push_back(Item(call(), SelectItem::AggKind::kNone, "i"));
    queries[2].where = Bin(BinaryOp::kGt, call(), Lit(Value::Double(0)));
    queries[2].items.push_back(Item(Col("id"), SelectItem::AggKind::kNone, "id"));
    for (Query& q : queries) {
      q.table = t;
      ASSERT_TRUE(executor_.Bind(&q).ok());
      executor_.set_batch_rows(1);
      executor_.set_scan_workers(1);
      QueryContext qctx;
      Result<ResultSet> row = executor_.Execute(q, &qctx);
      ASSERT_FALSE(row.ok());
      EXPECT_EQ(row.status().code(), c.code) << row.status().ToString();
      for (int w : {1, 2}) {
        const Outcome lane = Run(q, nullptr, 1024, w);
        EXPECT_FALSE(lane.ok);
        EXPECT_EQ(lane.payload, row.status().ToString()) << "workers=" << w;
      }
    }
    // Every other kernel family over the same column and index fails or
    // not alike at every width, with the same Status unless it rejects
    // every row and an argument fails in the bad row: a block evaluates
    // its arguments (the length check, the index) before the call.
    for (size_t f = 1; f < accepts.size(); ++f) {
      auto nth = [&] {
        std::vector<ExprPtr> calls = KernelFamilyCalls(
            [] { return Col("v"); },
            [&] {
              ExprPtr item = call();
              return std::move(item->args[1]);
            });
        return std::move(calls[f]);
      };
      std::vector<Query> more(3);
      more[0].items.push_back(Item(nth(), SelectItem::AggKind::kSum, "s"));
      more[1].items.push_back(Item(nth(), SelectItem::AggKind::kNone, "i"));
      more[2].where = Bin(BinaryOp::kGt, nth(), Lit(Value::Double(0)));
      more[2].items.push_back(Item(Col("id"), SelectItem::AggKind::kNone, "id"));
      for (Query& q : more) {
        q.table = t;
        ASSERT_TRUE(executor_.Bind(&q).ok());
        const Outcome row = Run(q, nullptr, 1, 1);
        for (int w : {1, 2}) {
          const Outcome lane = Run(q, nullptr, 1024, w);
          EXPECT_EQ(lane.ok, row.ok) << "family " << f << " workers=" << w;
          if (accepts[f] || !(c.oversize_prefix || c.failing_index)) {
            EXPECT_EQ(lane.payload, row.payload)
                << "family " << f << " workers=" << w;
          }
        }
      }
    }
    db_.disk()->set_checksums_enabled(true);
  }
}

TEST_F(CallLaneTest, NumberForTheArrayFailsAlikeAtEveryWidth) {
  // Item_1(id, 1e300): the row function's header read rejects the number
  // before the index converts (which would be kOutOfRange); so does the
  // kernel.
  storage::Table* t = MakeArrayTable(DType::kFloat64);
  std::vector<ExprPtr> args;
  args.push_back(Col("id"));
  args.push_back(Lit(Value::Double(1e300)));
  Query q;
  q.table = t;
  q.items.push_back(Item(Call("FloatArray", "Item_1", std::move(args)),
                         SelectItem::AggKind::kSum, "s"));
  ASSERT_TRUE(executor_.Bind(&q).ok());
  const Outcome row = Run(q, nullptr, 1, 1);
  ASSERT_FALSE(row.ok);
  EXPECT_EQ(row.payload,
            Status::TypeMismatch("argument is not an array blob").ToString());
  for (int w : {1, 2}) {
    const Outcome lane = Run(q, nullptr, 1024, w);
    EXPECT_EQ(lane.payload, row.payload) << "workers=" << w;
  }
  // Every other kernel family given a number for each array fails (or,
  // dbo.EmptyFunction, succeeds) alike at every width.
  for (ExprPtr& call :
       KernelFamilyCalls([] { return Col("id"); },
                         [] { return Lit(Value::Double(1e300)); })) {
    const std::string name = call->schema_name + "." + call->func_name;
    Query other;
    other.table = t;
    other.items.push_back(Item(std::move(call), SelectItem::AggKind::kSum, "s"));
    ASSERT_TRUE(executor_.Bind(&other).ok());
    const Outcome first = Run(other, nullptr, 1, 1);
    for (int w : {1, 2}) {
      const Outcome lane = Run(other, nullptr, 1024, w);
      EXPECT_EQ(lane.payload, first.payload) << name << " workers=" << w;
    }
  }
}

TEST_F(CallLaneTest, KernelOnlyPlanSurfacesCancelAndBudget) {
  storage::Table* t = MakeArrayTable(DType::kFloat64);
  Query q;
  q.table = t;
  std::vector<ExprPtr> args;
  args.push_back(Col("a1"));
  args.push_back(Lit(Value::Int(0)));
  q.items.push_back(Item(Call("FloatArray", "Item_1", std::move(args)),
                         SelectItem::AggKind::kSum, "s"));
  ASSERT_TRUE(executor_.Bind(&q).ok());
  executor_.set_batch_rows(1024);
  for (int workers : {1, 2}) {
    executor_.set_scan_workers(workers);
    {
      QueryContext qctx;
      qctx.limits.cancel = std::make_shared<gov::CancelSource>();
      qctx.limits.cancel->Cancel(gov::KillReason::kUser, "test kill");
      Result<ResultSet> r = executor_.Execute(q, &qctx);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
    }
    {
      QueryContext qctx;
      gov::MemoryBudget budget;
      budget.Reset(1024);
      qctx.limits.budget = &budget;
      Result<ResultSet> r = executor_.Execute(q, &qctx);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    }
  }
}

}  // namespace
}  // namespace sqlarray::engine
