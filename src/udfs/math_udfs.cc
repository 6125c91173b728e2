#include "core/ops.h"
#include "fft/fft.h"
#include "math/nnls.h"
#include "math/qr.h"
#include "math/svd.h"
#include "udfs/helpers.h"
#include "udfs/register.h"

namespace sqlarray::udfs {

namespace {

/// Loads any real/complex array into a complex128 buffer.
Result<std::vector<fft::Complex>> LoadComplex(const ArrayRef& ref) {
  std::vector<fft::Complex> data(static_cast<size_t>(ref.num_elements()));
  for (int64_t i = 0; i < ref.num_elements(); ++i) {
    SQLARRAY_ASSIGN_OR_RETURN(data[i], ref.GetComplex(i));
  }
  return data;
}

Result<OwnedArray> StoreMatrix(const math::Matrix& m) {
  return OwnedArray::FromValues<double>(
      {m.rows(), m.cols()},
      std::span<const double>(m.data(), m.rows() * m.cols()),
      StorageClass::kMax);
}

Result<OwnedArray> StoreVector(std::span<const double> v) {
  return OwnedArray::FromValues<double>({static_cast<int64_t>(v.size())}, v,
                                        StorageClass::kMax);
}

/// FFT through a plan with FFTW-style aligned buffers (Sec. 5.3: "a memory
/// copy into a pre-aligned buffer is necessary but the performance gain is
/// usually worth the otherwise expensive operation").
Result<OwnedArray> Fft(const ArrayRef& a, fft::Direction dir) {
  SQLARRAY_ASSIGN_OR_RETURN(std::vector<fft::Complex> data, LoadComplex(a));
  SQLARRAY_ASSIGN_OR_RETURN(std::unique_ptr<fft::Plan> plan,
                            fft::Plan::Create(a.dims()));
  std::vector<fft::Complex> out(data.size());
  SQLARRAY_RETURN_IF_ERROR(plan->Execute(data, out, dir));
  return OwnedArray::FromValues<fft::Complex>(a.dims(), out,
                                              StorageClass::kMax);
}

}  // namespace

/// A rank-2 array argument as a math::Matrix (both column-major, so this is
/// a straight copy — the zero-transform LAPACK marshaling the paper gets
/// from its column-major element order).
template <>
struct Param<math::Matrix> : ParamBase {
  static Status Read(const Value& v, Stateless&, math::Matrix* out) {
    SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a, ArrayFromValue(v));
    ArrayRef ref = a.ref();
    if (ref.rank() != 2) {
      return Status::InvalidArgument("matrix argument must have rank 2");
    }
    *out = math::Matrix(ref.dims()[0], ref.dims()[1]);
    for (int64_t i = 0; i < ref.num_elements(); ++i) {
      SQLARRAY_ASSIGN_OR_RETURN(out->data()[i], ref.GetDouble(i));
    }
    return Status::OK();
  }
};

/// A rank-1 array argument as doubles.
template <>
struct Param<std::vector<double>> : ParamBase {
  static Status Read(const Value& v, Stateless&, std::vector<double>* out) {
    SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a, ArrayFromValue(v));
    ArrayRef ref = a.ref();
    if (ref.rank() != 1) {
      return Status::InvalidArgument("vector argument must have rank 1");
    }
    out->resize(static_cast<size_t>(ref.num_elements()));
    for (int64_t i = 0; i < ref.num_elements(); ++i) {
      SQLARRAY_ASSIGN_OR_RETURN((*out)[i], ref.GetDouble(i));
    }
    return Status::OK();
  }
};

Status RegisterMathUdfs(engine::FunctionRegistry* registry) {
  // FFT for the float and complex max schemas (real input produces the
  // complex transform of the same shape).
  for (const char* schema :
       {"FloatArrayMax", "ComplexArrayMax", "DoubleComplexArrayMax",
        "RealArrayMax"}) {
    Definer def(registry, Schema{schema});
    def("FFTForward", 3000, [](const ArrayRef& a) {
      return Fft(a, fft::Direction::kForward);
    });
    def("FFTInverse", 3000, [](const ArrayRef& a) {
      return Fft(a, fft::Direction::kInverse);
    });
    SQLARRAY_RETURN_IF_ERROR(def.status());
  }

  Definer def(registry, Schema{"FloatArrayMax"});
  // SVD: the *gesvd contract split over three UDFs so each factor is a
  // separate array value (T-SQL scalar functions return one value).
  struct SvdPart {
    const char* name;
    int part;  // 0 = U, 1 = S, 2 = VT
  };
  for (const SvdPart& part :
       {SvdPart{"SVD_U", 0}, SvdPart{"SVD_S", 1}, SvdPart{"SVD_VT", 2}}) {
    const int which = part.part;
    def(part.name, 20000, [which](const math::Matrix& m) -> Result<OwnedArray> {
      SQLARRAY_ASSIGN_OR_RETURN(math::SvdResult svd, math::Gesvd(m.view()));
      if (which == 0) return StoreMatrix(svd.u);
      if (which == 2) return StoreMatrix(svd.vt);
      return StoreVector(svd.s);
    });
  }

  // Least squares solve: min ||A x - b||.
  def("Solve", 10000,
      [](const math::Matrix& a,
         const std::vector<double>& b) -> Result<OwnedArray> {
        SQLARRAY_ASSIGN_OR_RETURN(std::vector<double> x,
                                  math::LeastSquares(a.view(), b));
        return StoreVector(x);
      });

  // Weighted least squares (mask-aware spectrum expansion, Sec. 2.2).
  def("SolveWeighted", 12000,
      [](const math::Matrix& a, const std::vector<double>& b,
         const std::vector<double>& w) -> Result<OwnedArray> {
        SQLARRAY_ASSIGN_OR_RETURN(std::vector<double> x,
                                  math::WeightedLeastSquares(a.view(), b, w));
        return StoreVector(x);
      });

  // Non-negative least squares (Sec. 2.2).
  def("Nnls", 15000,
      [](const math::Matrix& a,
         const std::vector<double>& b) -> Result<OwnedArray> {
        SQLARRAY_ASSIGN_OR_RETURN(std::vector<double> x,
                                  math::Nnls(a.view(), b));
        return StoreVector(x);
      });

  // Matrix multiply, for pipelines that expand spectra on a basis.
  def("MatMul", 8000,
      [](const math::Matrix& a, const math::Matrix& b) -> Result<OwnedArray> {
        if (a.cols() != b.rows()) {
          return Status::InvalidArgument("inner matrix dimensions disagree");
        }
        math::Matrix c(a.rows(), b.cols());
        math::Gemm(false, false, 1.0, a.view(), b.view(), 0.0, c.view());
        return StoreMatrix(c);
      });
  return def.status();
}

}  // namespace sqlarray::udfs
