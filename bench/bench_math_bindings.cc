// Experiment M1 (Sec. 5.3): math-library bindings. Column-major layout
// makes the LAPACK-substitute marshaling a plain copy ("no transformation of
// the in-memory data is necessary"); FFTW-style execution copies into
// aligned plan buffers — "a memory copy into a pre-aligned buffer is
// necessary but the performance gain is usually worth the otherwise
// expensive operation".
#include <benchmark/benchmark.h>

#include <span>

#include "bench/bench_util.h"
#include "fft/fft.h"
#include "math/svd.h"

namespace sqlarray::bench {
namespace {

std::vector<fft::Complex> Signal(int64_t n) {
  Rng rng(42);
  std::vector<fft::Complex> x(n);
  for (auto& c : x) c = {rng.Normal(), rng.Normal()};
  return x;
}

void BM_FftPlanAligned(benchmark::State& state) {
  const int64_t n = state.range(0);
  auto plan = fft::Plan::Create({n}).value();
  std::vector<fft::Complex> x = Signal(n), out(n);
  for (auto _ : state) {
    Check(plan->Execute(x, out, fft::Direction::kForward), "fft");
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FftPlanAligned)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_FftPlanUnaligned(benchmark::State& state) {
  const int64_t n = state.range(0);
  auto plan = fft::Plan::Create({n}).value();
  std::vector<fft::Complex> x = Signal(n), out(n);
  for (auto _ : state) {
    Check(plan->ExecuteUnaligned(x, out, fft::Direction::kForward), "fft");
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FftPlanUnaligned)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

/// Marshaling cost: array blob -> column-major matrix is a straight copy.
void BM_LapackMarshalFromBlob(benchmark::State& state) {
  const int64_t n = state.range(0);
  OwnedArray a = CheckResult(
      OwnedArray::Zeros(DType::kFloat64, {n, n}, StorageClass::kMax),
      "matrix");
  for (auto _ : state) {
    math::Matrix m(n, n);
    auto data = a.ref().Data<double>().value();
    std::copy(data.begin(), data.end(), m.data());
    benchmark::DoNotOptimize(m.data());
  }
  state.SetBytesProcessed(state.iterations() * n * n * 8);
}
BENCHMARK(BM_LapackMarshalFromBlob)->Arg(64)->Arg(256);

void BM_GesvdKernel(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(7);
  math::Matrix m(n, n);
  for (int64_t i = 0; i < n * n; ++i) m.data()[i] = rng.Normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(math::Gesvd(m.view()).value());
  }
}
BENCHMARK(BM_GesvdKernel)->Arg(16)->Arg(32)->Arg(64);

/// The full T-SQL path: FloatArrayMax.SVD_S(@m) including the UDF boundary.
void BM_SvdThroughUdf(benchmark::State& state) {
  const int64_t n = state.range(0);
  BenchServer server;
  // Random matrix (a zero matrix decomposes trivially and would flatter the
  // UDF path).
  Rng rng(9);
  OwnedArray m = CheckResult(
      OwnedArray::Zeros(DType::kFloat64, {n, n}, StorageClass::kMax), "m");
  std::span<double> data = CheckResult(m.MutableData<double>(), "m data");
  for (double& v : data) v = rng.Normal();
  server.session.SetVariable(
      "m", engine::Value::Bytes(
               std::vector<uint8_t>(m.blob().begin(), m.blob().end())));
  Check(server.session.Execute("DECLARE @s VARBINARY(MAX)").status(),
        "declare s");
  for (auto _ : state) {
    Check(server.session.Execute("SET @s = FloatArrayMax.SVD_S(@m)").status(),
          "svd");
  }
}
BENCHMARK(BM_SvdThroughUdf)->Arg(16)->Arg(32);

}  // namespace
}  // namespace sqlarray::bench

int main(int argc, char** argv) {
  sqlarray::bench::ParseBenchArgs(argc, argv);
  sqlarray::bench::Banner("M1", "math bindings: aligned FFT plans, zero-copy "
                                "LAPACK marshaling");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  sqlarray::bench::FlushJson();
  return 0;
}
