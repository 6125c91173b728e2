// Tests for the spectrum use case: synthesis, flux-conserving resampling,
// normalization, SQL composites, PCA similarity search (Sec. 2.2).
#include <gtest/gtest.h>

#include <cmath>

#include "core/ops.h"
#include "sci/spectrum/datacube.h"
#include "sci/spectrum/pipeline.h"
#include "sci/spectrum/resample.h"
#include "sci/spectrum/spectrum.h"
#include "udfs/register.h"

namespace sqlarray::spectrum {
namespace {

SyntheticSpectrumConfig CleanConfig() {
  SyntheticSpectrumConfig config;
  config.noise_sigma = 0.001;
  config.flagged_fraction = 0.0;
  return config;
}

TEST(Synthetic, ShapesAndDeterminism) {
  SyntheticSpectrumConfig config;
  Rng rng1(5), rng2(5);
  Spectrum a = MakeSyntheticSpectrum(config, &rng1);
  Spectrum b = MakeSyntheticSpectrum(config, &rng2);
  EXPECT_EQ(a.size(), static_cast<size_t>(config.bins));
  EXPECT_EQ(a.flux, b.flux);
  EXPECT_EQ(a.wavelength, b.wavelength);
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_GT(a.wavelength[i], a.wavelength[i - 1]);
  }
  EXPECT_GE(a.redshift, 0.0);
  EXPECT_LE(a.redshift, config.max_redshift);
}

TEST(Synthetic, WavelengthGridsDifferPerSpectrum) {
  SyntheticSpectrumConfig config;
  Rng rng(6);
  Spectrum a = MakeSyntheticSpectrum(config, &rng);
  Spectrum b = MakeSyntheticSpectrum(config, &rng);
  EXPECT_NE(a.wavelength[0], b.wavelength[0]);
}

TEST(Integrate, SkipsFlaggedBins) {
  Spectrum s;
  s.wavelength = {1, 2, 3, 4};
  s.flux = {1, 1, 100, 1};
  s.error = {0, 0, 0, 0};
  s.flags = {0, 0, 1, 0};
  double masked = IntegrateFlux(s, 1, 4);
  s.flags = {0, 0, 0, 0};
  double unmasked = IntegrateFlux(s, 1, 4);
  EXPECT_LT(masked, unmasked);
}

TEST(Normalize, MakesUnitIntegral) {
  Rng rng(7);
  Spectrum s = MakeSyntheticSpectrum(CleanConfig(), &rng);
  double lo = s.wavelength.front(), hi = s.wavelength.back();
  ASSERT_TRUE(NormalizeFlux(&s, lo, hi).ok());
  EXPECT_NEAR(IntegrateFlux(s, lo, hi), 1.0, 1e-9);
}

TEST(Correction, ScalesFluxByWavelengthFunction) {
  Spectrum s;
  s.wavelength = {100, 200};
  s.flux = {1, 1};
  s.error = {0.1, 0.1};
  s.flags = {0, 0};
  ApplyCorrection(&s, [](double lambda) { return lambda / 100.0; });
  EXPECT_EQ(s.flux[0], 1.0);
  EXPECT_EQ(s.flux[1], 2.0);
  EXPECT_NEAR(s.error[1], 0.2, 1e-12);
}

TEST(Resample, ConservesIntegratedFlux) {
  // The defining property: integral over the full range is preserved.
  Rng rng(8);
  Spectrum s = MakeSyntheticSpectrum(CleanConfig(), &rng);
  std::vector<double> grid =
      MakeLogGrid(s.wavelength.front() * 1.02, s.wavelength.back() * 0.98,
                  96);
  Spectrum r = ResampleFluxConserving(s, grid).value();
  double src = IntegrateFlux(s, grid.front(), grid.back());
  double dst = IntegrateFlux(r, grid.front(), grid.back());
  EXPECT_NEAR(dst, src, 0.02 * std::fabs(src));
}

TEST(Resample, ConstantSpectrumStaysConstant) {
  Spectrum s;
  for (int i = 0; i < 50; ++i) {
    s.wavelength.push_back(100.0 + i * 2.0);
    s.flux.push_back(3.0);
    s.error.push_back(0.1);
    s.flags.push_back(0);
  }
  std::vector<double> grid = MakeLogGrid(110, 180, 20);
  Spectrum r = ResampleFluxConserving(s, grid).value();
  for (size_t i = 0; i < r.size(); ++i) {
    ASSERT_EQ(r.flags[i], 0);
    EXPECT_NEAR(r.flux[i], 3.0, 1e-9) << "bin " << i;
  }
}

TEST(Resample, UncoveredBinsAreFlagged) {
  Spectrum s;
  for (int i = 0; i < 10; ++i) {
    s.wavelength.push_back(100.0 + i);
    s.flux.push_back(1.0);
    s.error.push_back(0.1);
    s.flags.push_back(0);
  }
  // Grid extends far beyond the source coverage.
  std::vector<double> grid = MakeLogGrid(50, 300, 40);
  Spectrum r = ResampleFluxConserving(s, grid).value();
  EXPECT_EQ(r.flags.front(), 1);
  EXPECT_EQ(r.flags.back(), 1);
  bool any_unflagged = false;
  for (uint8_t f : r.flags) any_unflagged |= (f == 0);
  EXPECT_TRUE(any_unflagged);
}

TEST(Resample, MaskedSourceBinsExcluded) {
  Spectrum s;
  for (int i = 0; i < 40; ++i) {
    s.wavelength.push_back(100.0 + i);
    s.flux.push_back(i >= 18 && i <= 22 ? 1000.0 : 2.0);
    s.error.push_back(0.1);
    s.flags.push_back(i >= 18 && i <= 22 ? 1 : 0);
  }
  std::vector<double> grid = MakeLogGrid(105, 135, 12);
  Spectrum r = ResampleFluxConserving(s, grid).value();
  for (size_t i = 0; i < r.size(); ++i) {
    if (!r.flags[i]) {
      EXPECT_LT(r.flux[i], 10.0) << "corrupted bin leaked at " << i;
    }
  }
}

TEST(Resample, Validation) {
  Spectrum tiny;
  tiny.wavelength = {1};
  tiny.flux = {1};
  tiny.error = {0};
  tiny.flags = {0};
  EXPECT_FALSE(ResampleFluxConserving(tiny, MakeLogGrid(1, 2, 4)).ok());
}

TEST(Datacube, CollapseEqualsManualSum) {
  Datacube cube = MakeSyntheticCube(32, 5, 4, 3).value();
  Spectrum total = CollapseToSpectrum(cube).value();
  ASSERT_EQ(total.size(), 32u);

  // Manual reduction over all spaxels must match the axis-aggregate path.
  ArrayRef ref = cube.flux.ref();
  for (int w = 0; w < 32; ++w) {
    double sum = 0;
    for (int64_t x = 0; x < 5; ++x) {
      for (int64_t y = 0; y < 4; ++y) {
        sum += ref.GetDoubleAt(Dims{w, x, y}).value();
      }
    }
    ASSERT_NEAR(total.flux[w], sum, 1e-9) << "bin " << w;
  }
}

TEST(Datacube, SpaxelsSumToTotal) {
  Datacube cube = MakeSyntheticCube(24, 3, 3, 4).value();
  Spectrum total = CollapseToSpectrum(cube).value();
  std::vector<double> accum(24, 0.0);
  for (int64_t x = 0; x < 3; ++x) {
    for (int64_t y = 0; y < 3; ++y) {
      Spectrum s = ExtractSpaxel(cube, x, y).value();
      for (int w = 0; w < 24; ++w) accum[w] += s.flux[w];
    }
  }
  for (int w = 0; w < 24; ++w) {
    EXPECT_NEAR(accum[w], total.flux[w], 1e-9);
  }
}

TEST(Datacube, CenterSpaxelIsBrightest) {
  Datacube cube = MakeSyntheticCube(32, 7, 7, 5).value();
  Spectrum center = ExtractSpaxel(cube, 3, 3).value();
  Spectrum corner = ExtractSpaxel(cube, 0, 0).value();
  double fc = 0, fk = 0;
  for (int w = 0; w < 32; ++w) {
    fc += center.flux[w];
    fk += corner.flux[w];
  }
  EXPECT_GT(fc, 2 * fk);  // exponential surface-brightness falloff
}

TEST(Datacube, SlitIsRank2AndConsistent) {
  Datacube cube = MakeSyntheticCube(16, 4, 5, 6).value();
  OwnedArray slit = ExtractSlit(cube).value();
  EXPECT_EQ(slit.dims(), (Dims{16, 4}));
  // Summing the slit over position equals the full collapse.
  OwnedArray total = AggregateAxis(slit.ref(), 1, AggKind::kSum).value();
  Spectrum collapsed = CollapseToSpectrum(cube).value();
  for (int w = 0; w < 16; ++w) {
    EXPECT_NEAR(total.ref().GetDouble(w).value(), collapsed.flux[w], 1e-9);
  }
}

TEST(Datacube, Validation) {
  EXPECT_FALSE(MakeSyntheticCube(4, 2, 2, 1).ok());
  Datacube cube = MakeSyntheticCube(16, 2, 2, 1).value();
  EXPECT_FALSE(ExtractSpaxel(cube, 2, 0).ok());
}

class SpectrumDbTest : public ::testing::Test {
 protected:
  SpectrumDbTest() : executor_(&db_, &registry_), session_(&executor_) {
    EXPECT_TRUE(udfs::RegisterAllUdfs(&registry_).ok());
    EXPECT_TRUE(RegisterSpectrumUdfs(&registry_).ok());
  }

  storage::Database db_;
  engine::FunctionRegistry registry_;
  engine::Executor executor_;
  sql::Session session_;
};

TEST_F(SpectrumDbTest, LoadAndCompositeByRedshift) {
  SyntheticSpectrumConfig config;
  config.bins = 128;
  Rng rng(11);
  std::vector<Spectrum> spectra;
  for (int i = 0; i < 40; ++i) {
    spectra.push_back(MakeSyntheticSpectrum(config, &rng));
  }
  storage::Table* table =
      LoadSpectraTable(&db_, "spectra", spectra, 4, config.max_redshift)
          .value();
  EXPECT_EQ(table->row_count(), 40);

  auto composites =
      CompositeByRedshift(&session_, "spectra", 4200, 9000, 64).value();
  EXPECT_GE(composites.size(), 2u);
  for (const auto& [zbin, flux] : composites) {
    EXPECT_GE(zbin, 0);
    EXPECT_LT(zbin, 4);
    ASSERT_EQ(flux.size(), 64u);
    // Composites are averages of positive-continuum spectra.
    double mean = 0;
    for (double f : flux) mean += f;
    EXPECT_GT(mean / 64, 0.0);
  }
}

TEST_F(SpectrumDbTest, SpectrumUdfsRunInQueries) {
  SyntheticSpectrumConfig config;
  config.bins = 64;
  Rng rng(12);
  std::vector<Spectrum> spectra;
  for (int i = 0; i < 5; ++i) {
    spectra.push_back(MakeSyntheticSpectrum(config, &rng));
  }
  ASSERT_TRUE(
      LoadSpectraTable(&db_, "sp", spectra, 2, config.max_redshift).ok());
  auto results = session_.Execute(
      "SELECT id, Spectrum.Integrate(wl, flux, flags, 4500, 8000) FROM sp");
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ((*results)[0].rows.size(), 5u);
  for (const auto& row : (*results)[0].rows) {
    EXPECT_GT(row[1].AsDouble().value(), 0.0);
  }
}

TEST_F(SpectrumDbTest, ResampleRejectsBinCountsOutsideInt32) {
  // -1 sized a vector from a negative int; 2^32 + 4 narrowed to 4 bins.
  const std::vector<double> wl = {4000, 5000, 6000, 7000};
  const std::vector<double> flux = {1, 2, 3, 4};
  auto vec = [](const std::vector<double>& v) {
    OwnedArray a = OwnedArray::FromVector<double>(v, StorageClass::kMax).value();
    return engine::Value::Bytes(std::move(a).TakeBlob());
  };
  const engine::ScalarFunction* fn =
      registry_.Resolve("Spectrum", "Resample", 6).value();
  for (int64_t bins : {int64_t{-1}, int64_t{0}, int64_t{4294967300}}) {
    std::vector<engine::Value> args = {
        vec(wl),          vec(flux),
        vec({0, 0, 0, 0}), engine::Value::Double(4500),
        engine::Value::Double(6500), engine::Value::Int(bins)};
    engine::UdfContext ctx;
    auto r = engine::FunctionRegistry::Invoke(*fn, args, ctx);
    ASSERT_FALSE(r.ok()) << bins;
    EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange) << bins;
  }
}

TEST_F(SpectrumDbTest, ResampleGridMustFitTheBudget) {
  // Every statement here runs under a budget: unbudgeted, the oversized
  // grid would ask the allocator for 16 GiB.
  ASSERT_TRUE(session_.Execute("CREATE TABLE c (id BIGINT)").ok());
  std::string values;
  for (int i = 0; i < 2000; ++i) {
    values += (i > 0 ? ", (" : "(") + std::to_string(i) + ")";
  }
  ASSERT_TRUE(session_.Execute("INSERT INTO c VALUES " + values).ok());
  ASSERT_TRUE(session_.Execute("SET MEMORY_BUDGET_KB = 1024").ok());
  const std::string spectrum =
      "FloatArray.Vector_3(4000, 5000, 6000), FloatArray.Vector_3(1, 2, 3), "
      "FloatArray.Vector_3(0, 0, 0), 4500, 5500";
  auto grid = session_.Execute("SELECT Spectrum.Resample(" + spectrum +
                               ", 2147483647)");
  ASSERT_FALSE(grid.ok());
  EXPECT_EQ(grid.status().code(), StatusCode::kResourceExhausted);
  // The check charges nothing, so every row's small grid fits.
  auto small = session_.Execute("SELECT COUNT(Spectrum.Resample(" +
                                spectrum + ", 64)) FROM c");
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  EXPECT_EQ((*small)[0].rows.at(0).at(0).AsInt().value(), 2000);
}

TEST(SimilarityIndex, FindsSelfAndSimilarRedshifts) {
  SyntheticSpectrumConfig config;
  config.bins = 128;
  config.noise_sigma = 0.01;
  Rng rng(13);
  std::vector<Spectrum> spectra;
  for (int i = 0; i < 60; ++i) {
    spectra.push_back(MakeSyntheticSpectrum(config, &rng));
  }
  std::vector<double> grid = MakeLogGrid(4300, 8800, 96);
  SimilarityIndex index = SimilarityIndex::Build(spectra, grid, 8).value();

  // Querying with an archive spectrum must return itself first.
  auto ids = index.QuerySimilar(spectra[17], 5).value();
  ASSERT_GE(ids.size(), 1u);
  EXPECT_EQ(ids[0], 17);

  // Neighbors should be close in redshift (the dominant variation).
  double z_query = spectra[17].redshift;
  int closer = 0;
  for (size_t k = 1; k < ids.size(); ++k) {
    if (std::fabs(spectra[ids[k]].redshift - z_query) < 0.08) ++closer;
  }
  EXPECT_GE(closer, 2);
}

TEST(SimilarityIndex, MaskedQueryStillMatches) {
  SyntheticSpectrumConfig config;
  config.bins = 128;
  config.noise_sigma = 0.005;
  config.flagged_fraction = 0.0;
  Rng rng(14);
  std::vector<Spectrum> spectra;
  for (int i = 0; i < 40; ++i) {
    spectra.push_back(MakeSyntheticSpectrum(config, &rng));
  }
  std::vector<double> grid = MakeLogGrid(4300, 8800, 96);
  SimilarityIndex index = SimilarityIndex::Build(spectra, grid, 6).value();

  // Corrupt 10% of a query's bins and flag them: the masked expansion must
  // still find the original.
  Spectrum query = spectra[9];
  for (size_t i = 0; i < query.size(); i += 10) {
    query.flux[i] = 1e4;
    query.flags[i] = 1;
  }
  auto ids = index.QuerySimilar(query, 3).value();
  ASSERT_GE(ids.size(), 1u);
  EXPECT_EQ(ids[0], 9);
}

}  // namespace
}  // namespace sqlarray::spectrum
