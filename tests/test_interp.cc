// Tests for interpolation kernels: Lagrange weights, periodic 1-D/3-D
// interpolation, PCHIP monotonicity.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <string>

#include "common/rng.h"
#include "math/interp.h"

namespace sqlarray::math {
namespace {

TEST(LagrangeWeights, SumToOne) {
  double w[8];
  for (int n : {2, 4, 6, 8}) {
    for (double t : {0.0, 0.25, 0.5, 0.99}) {
      ASSERT_TRUE(LagrangeWeights(n, t, std::span<double>(w, 8)).ok());
      double sum = 0;
      for (int i = 0; i < n; ++i) sum += w[i];
      EXPECT_NEAR(sum, 1.0, 1e-12) << "n=" << n << " t=" << t;
    }
  }
}

TEST(LagrangeWeights, ExactAtNodes) {
  double w[8];
  // t = 0 sits on node -(n/2-1)+... the node with offset 0, index n/2-1.
  for (int n : {4, 6, 8}) {
    ASSERT_TRUE(LagrangeWeights(n, 0.0, std::span<double>(w, 8)).ok());
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(w[i], i == n / 2 - 1 ? 1.0 : 0.0, 1e-12);
    }
  }
}

TEST(LagrangeWeights, RejectsOddWidths) {
  double w[8];
  EXPECT_FALSE(LagrangeWeights(3, 0.5, std::span<double>(w, 8)).ok());
  EXPECT_FALSE(LagrangeWeights(1, 0.5, std::span<double>(w, 8)).ok());
}

/// An N-point Lagrange scheme reproduces polynomials of degree N-1 exactly.
class PolynomialReproduction
    : public ::testing::TestWithParam<InterpScheme> {};

TEST_P(PolynomialReproduction, ExactOnPolynomials) {
  InterpScheme scheme = GetParam();
  int width = StencilWidth(scheme);
  int degree = width - 1;
  // Periodic signal y[i] = P(i) away from the wrap; evaluate mid-domain.
  const int n = 64;
  std::vector<double> y(n);
  auto poly = [&](double x) {
    double v = 0;
    for (int d = 0; d <= degree; ++d) {
      v += (d + 1) * std::pow(x - 30.0, d) / std::pow(8.0, d);
    }
    return v;
  };
  for (int i = 0; i < n; ++i) y[i] = poly(i);
  for (double x : {28.3, 30.0, 31.75, 33.5}) {
    double got = Interp1DPeriodic(scheme, y, x).value();
    EXPECT_NEAR(got, poly(x), 1e-9)
        << "scheme width " << width << " at x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(LagrangeSchemes, PolynomialReproduction,
                         ::testing::Values(InterpScheme::kLinear,
                                           InterpScheme::kLagrange4,
                                           InterpScheme::kLagrange6,
                                           InterpScheme::kLagrange8),
                         // Linear is the 2-point stencil: lagrange2.
                         [](const ::testing::TestParamInfo<InterpScheme>& info) {
                           return "lagrange" +
                                  std::to_string(StencilWidth(info.param));
                         });

TEST(Interp1D, NearestPicksClosestSample) {
  std::vector<double> y{10, 20, 30, 40};
  EXPECT_EQ(Interp1DPeriodic(InterpScheme::kNearest, y, 1.4).value(), 20);
  EXPECT_EQ(Interp1DPeriodic(InterpScheme::kNearest, y, 1.6).value(), 30);
  // Periodic wrap: 3.6 rounds to 4 == index 0.
  EXPECT_EQ(Interp1DPeriodic(InterpScheme::kNearest, y, 3.6).value(), 10);
}

TEST(Interp1D, PeriodicWrapMatchesShiftedEvaluation) {
  Rng rng(3);
  std::vector<double> y(32);
  for (double& v : y) v = rng.Normal();
  for (InterpScheme s : {InterpScheme::kLinear, InterpScheme::kLagrange4,
                         InterpScheme::kLagrange8}) {
    double a = Interp1DPeriodic(s, y, 1.3).value();
    double b = Interp1DPeriodic(s, y, 1.3 + 32.0).value();
    double c = Interp1DPeriodic(s, y, 1.3 - 32.0).value();
    EXPECT_NEAR(a, b, 1e-9);
    EXPECT_NEAR(a, c, 1e-9);
  }
}

TEST(Interp1D, HigherOrderIsMoreAccurateOnSmoothSignal) {
  const int n = 64;
  std::vector<double> y(n);
  for (int i = 0; i < n; ++i) {
    y[i] = std::sin(2 * std::numbers::pi * i / n * 3.0);
  }
  auto exact = [&](double x) {
    return std::sin(2 * std::numbers::pi * x / n * 3.0);
  };
  double err4 = 0, err8 = 0;
  for (int k = 0; k < 50; ++k) {
    double x = 0.37 + k * 1.17;
    err4 = std::max(err4, std::fabs(Interp1DPeriodic(InterpScheme::kLagrange4,
                                                     y, x)
                                        .value() -
                                    exact(x)));
    err8 = std::max(err8, std::fabs(Interp1DPeriodic(InterpScheme::kLagrange8,
                                                     y, x)
                                        .value() -
                                    exact(x)));
  }
  EXPECT_LT(err8, err4);
  EXPECT_LT(err8, 1e-6);
}

TEST(Interp3D, SeparableMatchesTensorProduct) {
  // A product field f(x,y,z) = gx(x) gy(y) gz(z) of degree-3 polynomials is
  // reproduced exactly by the 4-point scheme.
  const int64_t n = 16;
  auto g = [](double x) { return 1.0 + 0.1 * x + 0.01 * x * x; };
  auto fetch = [&](int64_t i, int64_t j, int64_t k) {
    return g(i) * g(j + 1) * g(k + 2);
  };
  double got = Interp3DPeriodic(InterpScheme::kLagrange4, n, fetch, 5.3, 6.7,
                                7.1)
                   .value();
  EXPECT_NEAR(got, g(5.3) * g(7.7) * g(9.1), 1e-9);
}

TEST(Interp3D, NearestAndValidation) {
  auto fetch = [](int64_t i, int64_t j, int64_t k) {
    return static_cast<double>(i * 100 + j * 10 + k);
  };
  EXPECT_EQ(
      Interp3DPeriodic(InterpScheme::kNearest, 8, fetch, 1.2, 2.6, 3.4)
          .value(),
      133.0);  // llround: (1, 3, 3)
  EXPECT_FALSE(
      Interp3DPeriodic(InterpScheme::kPchip, 8, fetch, 1, 2, 3).ok());
}

TEST(Pchip, InterpolatesKnotsExactly) {
  std::vector<double> x{0, 1, 2.5, 4, 7};
  std::vector<double> y{1, 3, 2, 5, 4};
  PchipInterpolator p =
      PchipInterpolator::Create(x, y).value();
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(p.Eval(x[i]), y[i], 1e-12);
  }
}

TEST(Pchip, PreservesMonotonicity) {
  // Monotone data must produce a monotone interpolant (no overshoot).
  std::vector<double> x{0, 1, 2, 3, 4, 5};
  std::vector<double> y{0, 0.1, 0.2, 5.0, 9.8, 10.0};
  PchipInterpolator p = PchipInterpolator::Create(x, y).value();
  double prev = p.Eval(0.0);
  for (double t = 0.01; t <= 5.0; t += 0.01) {
    double v = p.Eval(t);
    EXPECT_GE(v, prev - 1e-12) << "at t=" << t;
    prev = v;
  }
  EXPECT_LE(p.Eval(3.5), 10.0);
  EXPECT_GE(p.Eval(0.5), 0.0);
}

TEST(Pchip, FlatSegmentsStayFlat) {
  std::vector<double> x{0, 1, 2, 3};
  std::vector<double> y{2, 2, 5, 5};
  PchipInterpolator p = PchipInterpolator::Create(x, y).value();
  EXPECT_NEAR(p.Eval(0.5), 2.0, 1e-12);
  EXPECT_NEAR(p.Eval(2.5), 5.0, 1e-9);
}

TEST(Pchip, ClampsOutsideRange) {
  std::vector<double> x{0, 1};
  std::vector<double> y{3, 7};
  PchipInterpolator p = PchipInterpolator::Create(x, y).value();
  EXPECT_EQ(p.Eval(-5), 3);
  EXPECT_EQ(p.Eval(99), 7);
}

TEST(Pchip, Validation) {
  EXPECT_FALSE(PchipInterpolator::Create({1}, {2}).ok());
  EXPECT_FALSE(PchipInterpolator::Create({1, 1}, {2, 3}).ok());
  EXPECT_FALSE(PchipInterpolator::Create({2, 1}, {2, 3}).ok());
}

TEST(StencilWidths, MatchSchemes) {
  EXPECT_EQ(StencilWidth(InterpScheme::kNearest), 1);
  EXPECT_EQ(StencilWidth(InterpScheme::kLinear), 2);
  EXPECT_EQ(StencilWidth(InterpScheme::kLagrange4), 4);
  EXPECT_EQ(StencilWidth(InterpScheme::kLagrange6), 6);
  EXPECT_EQ(StencilWidth(InterpScheme::kLagrange8), 8);
}

}  // namespace
}  // namespace sqlarray::math
