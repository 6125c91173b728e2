#include "core/ops.h"
#include "fft/fft.h"
#include "math/nnls.h"
#include "math/qr.h"
#include "math/svd.h"
#include "udfs/helpers.h"
#include "udfs/register.h"

namespace sqlarray::udfs {

namespace {

using engine::FunctionRegistry;
using engine::UdfContext;
using engine::Value;

/// Loads any real/complex array argument into a complex128 buffer.
Result<std::pair<Dims, std::vector<fft::Complex>>> LoadComplex(
    const Value& v, UdfContext& ctx) {
  SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a, ArrayFromValue(v, ctx));
  ArrayRef ref = a.ref();
  std::vector<fft::Complex> data(static_cast<size_t>(ref.num_elements()));
  for (int64_t i = 0; i < ref.num_elements(); ++i) {
    SQLARRAY_ASSIGN_OR_RETURN(std::complex<double> c, ref.GetComplex(i));
    data[i] = c;
  }
  return std::make_pair(ref.dims(), std::move(data));
}

/// Stores a complex buffer as a complex128 max array.
Result<Value> StoreComplex(const Dims& dims,
                           std::span<const fft::Complex> data) {
  SQLARRAY_ASSIGN_OR_RETURN(
      OwnedArray out,
      OwnedArray::FromValues<fft::Complex>(dims, data, StorageClass::kMax));
  return ValueFromArray(std::move(out));
}

/// Loads a rank-2 float64 array into a math::Matrix (both column-major, so
/// this is a straight copy — the zero-transform LAPACK marshaling the paper
/// gets from its column-major element order).
Result<math::Matrix> LoadMatrix(const Value& v, UdfContext& ctx) {
  SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a, ArrayFromValue(v, ctx));
  ArrayRef ref = a.ref();
  if (ref.rank() != 2) {
    return Status::InvalidArgument("matrix argument must have rank 2");
  }
  math::Matrix m(ref.dims()[0], ref.dims()[1]);
  for (int64_t i = 0; i < ref.num_elements(); ++i) {
    SQLARRAY_ASSIGN_OR_RETURN(double d, ref.GetDouble(i));
    m.data()[i] = d;
  }
  return m;
}

Result<std::vector<double>> LoadVector(const Value& v, UdfContext& ctx) {
  SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a, ArrayFromValue(v, ctx));
  ArrayRef ref = a.ref();
  if (ref.rank() != 1) {
    return Status::InvalidArgument("vector argument must have rank 1");
  }
  std::vector<double> out(static_cast<size_t>(ref.num_elements()));
  for (int64_t i = 0; i < ref.num_elements(); ++i) {
    SQLARRAY_ASSIGN_OR_RETURN(out[i], ref.GetDouble(i));
  }
  return out;
}

Result<Value> StoreMatrix(const math::Matrix& m) {
  SQLARRAY_ASSIGN_OR_RETURN(
      OwnedArray out,
      OwnedArray::FromValues<double>(
          {m.rows(), m.cols()},
          std::span<const double>(m.data(), m.rows() * m.cols()),
          StorageClass::kMax));
  return ValueFromArray(std::move(out));
}

Result<Value> StoreVector(std::span<const double> v) {
  SQLARRAY_ASSIGN_OR_RETURN(
      OwnedArray out,
      OwnedArray::FromValues<double>({static_cast<int64_t>(v.size())}, v,
                                     StorageClass::kMax));
  return ValueFromArray(std::move(out));
}

/// FFT through a plan with FFTW-style aligned buffers (Sec. 5.3: "a memory
/// copy into a pre-aligned buffer is necessary but the performance gain is
/// usually worth the otherwise expensive operation").
Result<Value> FftImpl(const Value& arg, fft::Direction dir,
                      UdfContext& ctx) {
  SQLARRAY_ASSIGN_OR_RETURN(auto loaded, LoadComplex(arg, ctx));
  auto& [dims, data] = loaded;
  SQLARRAY_ASSIGN_OR_RETURN(std::unique_ptr<fft::Plan> plan,
                            fft::Plan::Create(dims));
  std::vector<fft::Complex> out(data.size());
  SQLARRAY_RETURN_IF_ERROR(plan->Execute(data, out, dir));
  return StoreComplex(dims, out);
}

/// Registers the FFT entry points for one schema.
Status RegisterFftFor(FunctionRegistry* reg, const std::string& schema) {
  SQLARRAY_RETURN_IF_ERROR(Reg(
      reg, schema, "FFTForward", 1, 3000,
      [](std::span<const Value> args, UdfContext& ctx) -> Result<Value> {
        return FftImpl(args[0], fft::Direction::kForward, ctx);
      }));
  SQLARRAY_RETURN_IF_ERROR(Reg(
      reg, schema, "FFTInverse", 1, 3000,
      [](std::span<const Value> args, UdfContext& ctx) -> Result<Value> {
        return FftImpl(args[0], fft::Direction::kInverse, ctx);
      }));
  return Status::OK();
}

}  // namespace

Status RegisterMathUdfs(FunctionRegistry* registry) {
  // FFT for the float and complex max schemas (real input produces the
  // complex transform of the same shape).
  for (const char* schema :
       {"FloatArrayMax", "ComplexArrayMax", "DoubleComplexArrayMax",
        "RealArrayMax"}) {
    SQLARRAY_RETURN_IF_ERROR(RegisterFftFor(registry, schema));
  }

  // SVD: the *gesvd contract split over three UDFs so each factor is a
  // separate array value (T-SQL scalar functions return one value).
  struct SvdPart {
    const char* name;
    int part;  // 0 = U, 1 = S, 2 = VT
  };
  for (const SvdPart& part :
       {SvdPart{"SVD_U", 0}, SvdPart{"SVD_S", 1}, SvdPart{"SVD_VT", 2}}) {
    int which = part.part;
    SQLARRAY_RETURN_IF_ERROR(Reg(
        registry, "FloatArrayMax", part.name, 1, 20000,
        [which](std::span<const Value> args, UdfContext& ctx) -> Result<Value> {
          SQLARRAY_ASSIGN_OR_RETURN(math::Matrix m, LoadMatrix(args[0], ctx));
          SQLARRAY_ASSIGN_OR_RETURN(math::SvdResult svd,
                                    math::Gesvd(m.view()));
          if (which == 0) return StoreMatrix(svd.u);
          if (which == 2) return StoreMatrix(svd.vt);
          return StoreVector(svd.s);
        }));
  }

  // Least squares solve: min ||A x - b||.
  SQLARRAY_RETURN_IF_ERROR(Reg(
      registry, "FloatArrayMax", "Solve", 2, 10000,
      [](std::span<const Value> args, UdfContext& ctx) -> Result<Value> {
        SQLARRAY_ASSIGN_OR_RETURN(math::Matrix a, LoadMatrix(args[0], ctx));
        SQLARRAY_ASSIGN_OR_RETURN(std::vector<double> b,
                                  LoadVector(args[1], ctx));
        SQLARRAY_ASSIGN_OR_RETURN(std::vector<double> x,
                                  math::LeastSquares(a.view(), b));
        return StoreVector(x);
      }));

  // Weighted least squares (mask-aware spectrum expansion, Sec. 2.2).
  SQLARRAY_RETURN_IF_ERROR(Reg(
      registry, "FloatArrayMax", "SolveWeighted", 3, 12000,
      [](std::span<const Value> args, UdfContext& ctx) -> Result<Value> {
        SQLARRAY_ASSIGN_OR_RETURN(math::Matrix a, LoadMatrix(args[0], ctx));
        SQLARRAY_ASSIGN_OR_RETURN(std::vector<double> b,
                                  LoadVector(args[1], ctx));
        SQLARRAY_ASSIGN_OR_RETURN(std::vector<double> w,
                                  LoadVector(args[2], ctx));
        SQLARRAY_ASSIGN_OR_RETURN(std::vector<double> x,
                                  math::WeightedLeastSquares(a.view(), b, w));
        return StoreVector(x);
      }));

  // Non-negative least squares (Sec. 2.2).
  SQLARRAY_RETURN_IF_ERROR(Reg(
      registry, "FloatArrayMax", "Nnls", 2, 15000,
      [](std::span<const Value> args, UdfContext& ctx) -> Result<Value> {
        SQLARRAY_ASSIGN_OR_RETURN(math::Matrix a, LoadMatrix(args[0], ctx));
        SQLARRAY_ASSIGN_OR_RETURN(std::vector<double> b,
                                  LoadVector(args[1], ctx));
        SQLARRAY_ASSIGN_OR_RETURN(std::vector<double> x,
                                  math::Nnls(a.view(), b));
        return StoreVector(x);
      }));

  // Matrix multiply, for pipelines that expand spectra on a basis.
  SQLARRAY_RETURN_IF_ERROR(Reg(
      registry, "FloatArrayMax", "MatMul", 2, 8000,
      [](std::span<const Value> args, UdfContext& ctx) -> Result<Value> {
        SQLARRAY_ASSIGN_OR_RETURN(math::Matrix a, LoadMatrix(args[0], ctx));
        SQLARRAY_ASSIGN_OR_RETURN(math::Matrix b, LoadMatrix(args[1], ctx));
        if (a.cols() != b.rows()) {
          return Status::InvalidArgument("inner matrix dimensions disagree");
        }
        math::Matrix c(a.rows(), b.cols());
        math::Gemm(false, false, 1.0, a.view(), b.view(), 0.0, c.view());
        return StoreMatrix(c);
      }));

  return Status::OK();
}

}  // namespace sqlarray::udfs
