#include "sci/spectrum/datacube.h"

#include <cmath>

#include "core/ops.h"

namespace sqlarray::spectrum {

Result<Datacube> MakeSyntheticCube(int nw, int nx, int ny, uint64_t seed) {
  if (nw < 8 || nx < 1 || ny < 1) {
    return Status::InvalidArgument("cube must have >= 8 bins and >= 1 pixel");
  }
  Rng rng(seed);
  Datacube cube;
  cube.wavelength.resize(nw);
  const double lo = 4000, hi = 7000;
  for (int w = 0; w < nw; ++w) {
    cube.wavelength[w] = lo + (hi - lo) * (w + 0.5) / nw;
  }

  // Filled in a plain vector and copied in: a rank-3 max array's payload is
  // not 8-byte aligned.
  std::vector<double> data(static_cast<size_t>(nw) * nx * ny);

  const double cx = (nx - 1) / 2.0, cy = (ny - 1) / 2.0;
  const double r0 = std::max(1.0, std::min(nx, ny) / 3.0);
  constexpr double kLines[] = {4861.0, 5007.0, 6563.0};

  int64_t idx = 0;
  // Column-major [w, x, y]: wavelength varies fastest.
  for (int y = 0; y < ny; ++y) {
    for (int x = 0; x < nx; ++x) {
      double r = std::hypot(x - cx, y - cy);
      double brightness = std::exp(-r / r0);
      for (int w = 0; w < nw; ++w) {
        double lambda = cube.wavelength[w];
        double f = 0.3 * brightness;  // continuum
        for (double line : kLines) {
          double d = (lambda - line) / 6.0;
          f += 2.0 * brightness * std::exp(-0.5 * d * d);
        }
        data[idx++] = f + rng.Normal(0, 0.01);
      }
    }
  }
  SQLARRAY_ASSIGN_OR_RETURN(
      cube.flux, OwnedArray::FromValues<double>({nw, nx, ny}, data,
                                                StorageClass::kMax));
  return cube;
}

Result<Spectrum> CollapseToSpectrum(const Datacube& cube) {
  // Sum over y (axis 2), then over x (what was axis 1): two applications of
  // the generic axis aggregate.
  ArrayRef ref = cube.flux.ref();
  SQLARRAY_ASSIGN_OR_RETURN(OwnedArray no_y,
                            AggregateAxis(ref, 2, AggKind::kSum));
  SQLARRAY_ASSIGN_OR_RETURN(OwnedArray no_xy,
                            AggregateAxis(no_y.ref(), 1, AggKind::kSum));
  SQLARRAY_ASSIGN_OR_RETURN(std::vector<double> flux,
                            no_xy.ref().CopyData<double>());

  Spectrum out;
  out.wavelength = cube.wavelength;
  out.flux.assign(flux.begin(), flux.end());
  out.error.assign(flux.size(), 0.0);
  out.flags.assign(flux.size(), 0);
  return out;
}

Result<Spectrum> ExtractSpaxel(const Datacube& cube, int64_t x, int64_t y) {
  ArrayRef ref = cube.flux.ref();
  const Dims& dims = ref.dims();
  // A 1 x 1 spatial subset collapsed to a vector: Subarray with collapse.
  SQLARRAY_ASSIGN_OR_RETURN(
      OwnedArray vec,
      Subarray(ref, Dims{0, x, y}, Dims{dims[0], 1, 1}, /*collapse=*/true));
  SQLARRAY_ASSIGN_OR_RETURN(std::vector<double> flux,
                            vec.ref().CopyData<double>());
  Spectrum out;
  out.wavelength = cube.wavelength;
  out.flux.assign(flux.begin(), flux.end());
  out.error.assign(flux.size(), 0.0);
  out.flags.assign(flux.size(), 0);
  return out;
}

Result<OwnedArray> ExtractSlit(const Datacube& cube) {
  return AggregateAxis(cube.flux.ref(), 2, AggKind::kSum);
}

}  // namespace sqlarray::spectrum
