#include "sci/spectrum/pipeline.h"

#include <cmath>

#include "core/array.h"
#include "gov/gov.h"
#include "udfs/helpers.h"

namespace sqlarray::udfs {

/// A spectrum given as its (wavelength, flux, flags) vectors.
template <>
struct Param<spectrum::Spectrum> : ParamBase {
  static constexpr int kArgs = 3;
  template <typename Args>
  static Status Read(const Args& args, Stateless&, spectrum::Spectrum* out) {
    Param<ArrayRef>::State held[3];
    ArrayRef a[3];
    for (int i = 0; i < 3; ++i) {
      SQLARRAY_RETURN_IF_ERROR(Param<ArrayRef>::Read(args[i], held[i], &a[i]));
    }
    return Fill(a[0], a[1], a[2], out);
  }

 private:
  static Status Fill(const ArrayRef& wl, const ArrayRef& flux,
                     const ArrayRef& flags, spectrum::Spectrum* s) {
    if (wl.rank() != 1 || flux.rank() != 1 || flags.rank() != 1 ||
        wl.num_elements() != flux.num_elements() ||
        wl.num_elements() != flags.num_elements()) {
      return Status::InvalidArgument(
          "wavelength, flux and flag vectors must share one length");
    }
    const int64_t n = wl.num_elements();
    s->wavelength.resize(n);
    s->flux.resize(n);
    s->error.assign(n, 0.0);
    s->flags.resize(n);
    for (int64_t i = 0; i < n; ++i) {
      SQLARRAY_ASSIGN_OR_RETURN(s->wavelength[i], wl.GetDouble(i));
      SQLARRAY_ASSIGN_OR_RETURN(s->flux[i], flux.GetDouble(i));
      SQLARRAY_ASSIGN_OR_RETURN(double g, flags.GetDouble(i));
      s->flags[i] = g != 0 ? 1 : 0;
    }
    return Status::OK();
  }
};

}  // namespace sqlarray::udfs

namespace sqlarray::spectrum {

namespace {

Result<OwnedArray> VectorOf(std::span<const double> v) {
  return OwnedArray::FromValues<double>({static_cast<int64_t>(v.size())}, v,
                                        StorageClass::kMax);
}

}  // namespace

Status RegisterSpectrumUdfs(engine::FunctionRegistry* registry) {
  udfs::Definer def(registry, udfs::Schema{"Spectrum"});
  // Spectrum.Resample(wl, flux, flags, lo, hi, bins) -> float64 vector of
  // flux on the common log grid (flagged output bins carry 0).
  def("Resample", 5000,
      [](const Spectrum& s, double lo, double hi,
         int64_t bins) -> Result<OwnedArray> {
        if (bins < 1 || bins > INT32_MAX) {
          return Status::OutOfRange("bin count " + std::to_string(bins) +
                                    " outside [1, 2147483647]");
        }
        SQLARRAY_RETURN_IF_ERROR(gov::CheckThreadAllocation(
            bins * static_cast<int64_t>(sizeof(double))));
        std::vector<double> grid =
            MakeLogGrid(lo, hi, static_cast<int>(bins));
        SQLARRAY_ASSIGN_OR_RETURN(Spectrum r, ResampleFluxConserving(s, grid));
        return VectorOf(r.flux);
      });

  // Spectrum.Integrate(wl, flux, flags, lo, hi) -> FLOAT.
  def("Integrate", 3000,
      [](const Spectrum& s, double lo, double hi) -> Result<double> {
        return IntegrateFlux(s, lo, hi);
      });

  // Spectrum.Normalize(wl, flux, flags, lo, hi) -> normalized flux vector.
  def("Normalize", 4000,
      [](Spectrum s, double lo, double hi) -> Result<OwnedArray> {
        SQLARRAY_RETURN_IF_ERROR(NormalizeFlux(&s, lo, hi));
        return VectorOf(s.flux);
      });
  return def.status();
}

Result<storage::Table*> LoadSpectraTable(storage::Database* db,
                                         const std::string& table_name,
                                         std::span<const Spectrum> spectra,
                                         int z_bins, double max_z) {
  std::vector<storage::ColumnDef> cols = {
      {"id", storage::ColumnType::kInt64, 0},
      {"z", storage::ColumnType::kFloat64, 0},
      {"zbin", storage::ColumnType::kInt64, 0},
      {"wl", storage::ColumnType::kVarBinaryMax, 0},
      {"flux", storage::ColumnType::kVarBinaryMax, 0},
      {"err", storage::ColumnType::kVarBinaryMax, 0},
      {"flags", storage::ColumnType::kVarBinaryMax, 0},
  };
  SQLARRAY_ASSIGN_OR_RETURN(storage::Schema schema,
                            storage::Schema::Create(std::move(cols)));
  SQLARRAY_ASSIGN_OR_RETURN(storage::Table * table,
                            db->CreateTable(table_name, std::move(schema)));

  auto to_blob = [](std::span<const double> v) -> Result<std::vector<uint8_t>> {
    SQLARRAY_ASSIGN_OR_RETURN(
        OwnedArray a,
        OwnedArray::FromVector<double>(v, StorageClass::kMax));
    return std::move(a).TakeBlob();
  };

  int64_t id = 0;
  for (const Spectrum& s : spectra) {
    int64_t zbin = std::min<int64_t>(
        z_bins - 1,
        static_cast<int64_t>(s.redshift / max_z * z_bins));
    SQLARRAY_ASSIGN_OR_RETURN(std::vector<uint8_t> wl, to_blob(s.wavelength));
    SQLARRAY_ASSIGN_OR_RETURN(std::vector<uint8_t> flux, to_blob(s.flux));
    SQLARRAY_ASSIGN_OR_RETURN(std::vector<uint8_t> err, to_blob(s.error));
    SQLARRAY_ASSIGN_OR_RETURN(
        OwnedArray flag_arr,
        (OwnedArray::FromValues<int8_t>(
            {static_cast<int64_t>(s.flags.size())},
            std::span<const int8_t>(
                reinterpret_cast<const int8_t*>(s.flags.data()),
                s.flags.size()),
            StorageClass::kMax)));

    storage::Row row(7);
    row[0] = id++;
    row[1] = s.redshift;
    row[2] = zbin;
    row[3] = std::move(wl);
    row[4] = std::move(flux);
    row[5] = std::move(err);
    row[6] = std::move(flag_arr).TakeBlob();
    SQLARRAY_RETURN_IF_ERROR(table->Insert(std::move(row)));
  }
  return table;
}

Result<std::map<int64_t, std::vector<double>>> CompositeByRedshift(
    sql::Session* session, const std::string& table_name, double grid_lo,
    double grid_hi, int grid_bins) {
  // The whole composite computation is ONE SQL statement: resample every
  // spectrum in the select list, average per redshift bin.
  std::string sqltext =
      "SELECT zbin, FloatArrayMax.AvgVector(Spectrum.Resample(wl, flux, "
      "flags, " +
      std::to_string(grid_lo) + ", " + std::to_string(grid_hi) + ", " +
      std::to_string(grid_bins) + ")) FROM " + table_name + " GROUP BY zbin";
  SQLARRAY_ASSIGN_OR_RETURN(std::vector<engine::ResultSet> results,
                            session->Execute(sqltext));
  if (results.size() != 1) {
    return Status::Internal("composite query produced no result set");
  }

  std::map<int64_t, std::vector<double>> out;
  for (const std::vector<engine::Value>& row : results[0].rows) {
    SQLARRAY_ASSIGN_OR_RETURN(int64_t zbin, row[0].AsInt());
    SQLARRAY_ASSIGN_OR_RETURN(std::vector<uint8_t> blob,
                              row[1].MaterializeBytes());
    SQLARRAY_ASSIGN_OR_RETURN(OwnedArray arr,
                              OwnedArray::FromBlob(std::move(blob)));
    SQLARRAY_ASSIGN_OR_RETURN(out[zbin], arr.ref().CopyData<double>());
  }
  return out;
}

Result<std::vector<double>> SimilarityIndex::Expand(const Spectrum& s) const {
  SQLARRAY_ASSIGN_OR_RETURN(Spectrum r, ResampleFluxConserving(s, grid_));
  Spectrum norm = r;
  SQLARRAY_RETURN_IF_ERROR(
      NormalizeFlux(&norm, grid_.front(), grid_.back()));
  // Masked expansion: flagged bins get weight zero (dot products would be
  // biased by masked bins; least squares is required — Sec. 2.2).
  std::vector<double> weights(norm.size());
  for (size_t i = 0; i < norm.size(); ++i) {
    weights[i] = norm.flags[i] ? 0.0 : 1.0;
  }
  return math::PcaProjectMasked(model_, norm.flux, weights);
}

Result<SimilarityIndex> SimilarityIndex::Build(
    std::span<const Spectrum> spectra, const std::vector<double>& grid,
    int components) {
  const int64_t n = static_cast<int64_t>(spectra.size());
  const int64_t d = static_cast<int64_t>(grid.size());
  if (n < 2) {
    return Status::InvalidArgument("need at least two spectra to index");
  }

  // Resample + normalize everything onto the common grid.
  math::Matrix samples(n, d);
  std::vector<std::vector<double>> masks(n);
  for (int64_t i = 0; i < n; ++i) {
    SQLARRAY_ASSIGN_OR_RETURN(Spectrum r,
                              ResampleFluxConserving(spectra[i], grid));
    SQLARRAY_RETURN_IF_ERROR(NormalizeFlux(&r, grid.front(), grid.back()));
    masks[i].resize(d);
    for (int64_t j = 0; j < d; ++j) {
      samples.at(i, j) = r.flags[j] ? 0.0 : r.flux[j];
      masks[i][j] = r.flags[j] ? 0.0 : 1.0;
    }
  }

  SQLARRAY_ASSIGN_OR_RETURN(math::PcaModel model,
                            math::PcaFit(samples.view(), components));

  // Expand every spectrum with masked least squares.
  std::vector<double> coeffs(n * components);
  std::vector<double> sample(d);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < d; ++j) sample[j] = samples.at(i, j);
    SQLARRAY_ASSIGN_OR_RETURN(
        std::vector<double> c,
        math::PcaProjectMasked(model, sample, masks[i]));
    std::copy(c.begin(), c.end(), coeffs.begin() + i * components);
  }

  SQLARRAY_ASSIGN_OR_RETURN(spatial::KdTree tree,
                            spatial::KdTree::Build(coeffs, components));
  return SimilarityIndex(std::move(model), std::move(coeffs), components,
                         grid, std::move(tree));
}

Result<std::vector<int64_t>> SimilarityIndex::QuerySimilar(
    const Spectrum& query, int k) const {
  SQLARRAY_ASSIGN_OR_RETURN(std::vector<double> c, Expand(query));
  std::vector<spatial::Neighbor> nn = tree_.Nearest(c, k);
  std::vector<int64_t> ids;
  ids.reserve(nn.size());
  for (const spatial::Neighbor& n : nn) ids.push_back(n.id);
  return ids;
}

}  // namespace sqlarray::spectrum
