// Experiment K1: typed kernel dispatch vs the boxed per-element path.
//
// Sweeps element-wise ops, aggregation, dot product, and dtype casts over an
// (op x dtype x size) grid, timing the kernel-dispatched entry points
// (ElementwiseBinary & co.) against the *Boxed reference implementations —
// the pre-kernel per-element GetComplex/GetDouble code path, kept as the
// differential-test oracle. The boxed column is therefore the in-binary
// "before" of the kernel work; speedups here back the PR's acceptance
// numbers (>= 3x on float64 add, >= 2x on SUM aggregation).
//
// Experiment K2: the fused columnar expression pipeline vs row-at-a-time
// evaluation. Runs predicate/aggregate and predicate/projection queries
// through the executor twice per case — vectorized batches (engine/vec_expr)
// against one-row blocks with no lane program, every expression through
// Eval (batch_rows=1) — sweeping expression shape and batch size over the
// Table 1 scalar table, the perfbench GROUP BY included. Both modes produce
// bit-identical results (tests/test_vec.cc proves it; the bench compares
// every cell bitwise and aborts on divergence), so the ratio isolates the
// evaluation strategy. These
// numbers back the PR's acceptance criteria (>= 4x float elementwise + SUM
// at >= 64k elements from K1, >= 10x fused predicate at 1024-row batches
// from K2).
//
// Experiment K3: hosted calls — SUM(FloatArray.Item_1(v, 0)) and
// SUM(dbo.EmptyFunction(v, 0)) over Tvector (Table 1's Q4 and Q5) through
// the call lane (one kernel call per 1024-row block, the blob read in place)
// against the one-row feed (batch_rows=1: every call through Eval and
// FunctionRegistry::Invoke with boxed Values). Both charge the same modeled
// CLR cost; the bench asserts the sums agree bitwise and reports ns/row.
//
// K2 and K3 run before K1, each on tables it builds, so their rates do not
// depend on which K1 sweep ran (run after it, K2's lane rates moved with
// the sweep's size).
//
// BENCH_ELEMS limits the K1 sweep to a single element count and BENCH_ROWS
// scales the K2 and K3 tables (both used by the bench_smoke ctest target);
// --json out.json records every case.
#include <cinttypes>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "core/ops.h"
#include "engine/exec.h"

namespace sqlarray::bench {
namespace {

std::vector<int64_t> SweepSizes() {
  if (const char* env = std::getenv("BENCH_ELEMS")) {
    return {std::atoll(env)};
  }
  return {4096, 65536, 1 << 20};
}

/// Fills an array of `dtype` with deterministic nonzero values (safe as a
/// division right-hand side).
OwnedArray MakeOperand(DType dtype, int64_t n, uint64_t seed) {
  OwnedArray a =
      CheckResult(OwnedArray::Zeros(dtype, {n}), "bench operand");
  Rng rng(seed);
  // Filled in a plain vector and copied in: a rank-1 max operand's payload
  // is not 8-byte aligned.
  auto fill = [&](auto tag) {
    using T = decltype(tag);
    std::vector<T> data(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      double v = rng.Uniform(1.0, 100.0) * (i % 2 == 0 ? 1 : -1);
      data[i] = static_cast<T>(v);
    }
    Check(a.StoreData<T>(data), "bench operand values");
  };
  switch (dtype) {
    case DType::kInt8: fill(int8_t{}); break;
    case DType::kInt16: fill(int16_t{}); break;
    case DType::kInt32: fill(int32_t{}); break;
    case DType::kInt64: fill(int64_t{}); break;
    case DType::kFloat32: fill(float{}); break;
    case DType::kFloat64: fill(double{}); break;
    default: Check(Status::Internal("unsupported bench dtype"), "dtype");
  }
  return a;
}

/// Times `fn` (re-running it until ~20 ms have elapsed) and returns seconds
/// per call.
template <typename Fn>
double TimePerCall(Fn&& fn) {
  fn();  // warm-up + correctness check
  int reps = 1;
  for (;;) {
    Stopwatch w;
    for (int i = 0; i < reps; ++i) fn();
    double s = w.ElapsedSeconds();
    if (s >= 0.02 || reps >= 1 << 20) return s / reps;
    reps *= 4;
  }
}

struct CasePrinter {
  void Print(const std::string& name, int64_t n, double kernel_s,
             double boxed_s) {
    std::printf("%-28s %9" PRId64 " | %10.1f | %10.1f | %6.2fx\n",
                name.c_str(), n, n / kernel_s / 1e6, n / boxed_s / 1e6,
                boxed_s / kernel_s);
    RecordJson("kernels", name + "/" + std::to_string(n) + "/kernel",
               kernel_s, n / kernel_s);
    RecordJson("kernels", name + "/" + std::to_string(n) + "/boxed", boxed_s,
               n / boxed_s);
  }
};

const char* OpName(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "add";
    case BinOp::kSub: return "sub";
    case BinOp::kMul: return "mul";
    case BinOp::kDiv: return "div";
  }
  return "?";
}

void Run() {
  Banner("K1", "typed kernels vs boxed per-element path");
  std::printf("%-28s %9s | %10s | %10s | %7s\n", "case", "elems",
              "kernel Me/s", "boxed Me/s", "speedup");
  std::printf("%s\n", std::string(76, '-').c_str());

  const DType kDTypes[] = {DType::kInt32, DType::kInt64, DType::kFloat32,
                           DType::kFloat64};
  CasePrinter out;

  for (int64_t n : SweepSizes()) {
    // Element-wise binary: op x dtype (same-dtype pairs plus one mixed pair).
    for (BinOp op : {BinOp::kAdd, BinOp::kMul, BinOp::kDiv}) {
      for (DType dt : kDTypes) {
        OwnedArray lhs = MakeOperand(dt, n, 1);
        OwnedArray rhs = MakeOperand(dt, n, 2);
        double kernel_s = TimePerCall([&] {
          CheckResult(ElementwiseBinary(lhs.ref(), rhs.ref(), op), "kernel");
        });
        double boxed_s = TimePerCall([&] {
          CheckResult(ElementwiseBinaryBoxed(lhs.ref(), rhs.ref(), op),
                      "boxed");
        });
        out.Print(std::string(OpName(op)) + "_" + std::string(DTypeName(dt)), n, kernel_s,
                  boxed_s);
      }
    }
    {
      // Mixed promotion: int32 + float64.
      OwnedArray lhs = MakeOperand(DType::kInt32, n, 3);
      OwnedArray rhs = MakeOperand(DType::kFloat64, n, 4);
      double kernel_s = TimePerCall([&] {
        CheckResult(ElementwiseBinary(lhs.ref(), rhs.ref(), BinOp::kAdd),
                    "kernel");
      });
      double boxed_s = TimePerCall([&] {
        CheckResult(ElementwiseBinaryBoxed(lhs.ref(), rhs.ref(), BinOp::kAdd),
                    "boxed");
      });
      out.Print("add_int32_float64", n, kernel_s, boxed_s);
    }

    // Scalar broadcast.
    {
      OwnedArray a = MakeOperand(DType::kFloat64, n, 5);
      double kernel_s = TimePerCall([&] {
        CheckResult(ElementwiseScalar(a.ref(), 1.5, BinOp::kMul), "kernel");
      });
      double boxed_s = TimePerCall([&] {
        CheckResult(ElementwiseScalarBoxed(a.ref(), 1.5, BinOp::kMul),
                    "boxed");
      });
      out.Print("scalar_mul_float64", n, kernel_s, boxed_s);
    }

    // SUM aggregation.
    for (DType dt : kDTypes) {
      OwnedArray a = MakeOperand(dt, n, 6);
      double kernel_s = TimePerCall([&] {
        CheckResult(AggregateAll(a.ref(), AggKind::kSum), "kernel");
      });
      double boxed_s = TimePerCall([&] {
        CheckResult(AggregateAllBoxed(a.ref(), AggKind::kSum), "boxed");
      });
      out.Print(std::string("sum_") + std::string(DTypeName(dt)), n, kernel_s, boxed_s);
    }

    // Dot product and norm (float dtypes — the kernel fast paths).
    for (DType dt : {DType::kFloat32, DType::kFloat64}) {
      OwnedArray a = MakeOperand(dt, n, 7);
      OwnedArray b = MakeOperand(dt, n, 8);
      double kernel_s = TimePerCall(
          [&] { CheckResult(Dot(a.ref(), b.ref()), "kernel"); });
      double boxed_s = TimePerCall(
          [&] { CheckResult(DotBoxed(a.ref(), b.ref()), "boxed"); });
      out.Print(std::string("dot_") + std::string(DTypeName(dt)), n, kernel_s, boxed_s);

      kernel_s = TimePerCall([&] { CheckResult(Norm2(a.ref()), "kernel"); });
      boxed_s =
          TimePerCall([&] { CheckResult(Norm2Boxed(a.ref()), "boxed"); });
      out.Print(std::string("norm2_") + std::string(DTypeName(dt)), n, kernel_s, boxed_s);
    }

    // Casts.
    const std::pair<DType, DType> kCasts[] = {
        {DType::kFloat64, DType::kFloat32},
        {DType::kInt64, DType::kInt32},
        {DType::kInt32, DType::kFloat64},
        {DType::kFloat64, DType::kInt32},
    };
    for (auto [src, dst] : kCasts) {
      OwnedArray a = MakeOperand(src, n, 9);
      double kernel_s = TimePerCall(
          [&] { CheckResult(ConvertDType(a.ref(), dst), "kernel"); });
      double boxed_s = TimePerCall(
          [&] { CheckResult(ConvertDTypeBoxed(a.ref(), dst), "boxed"); });
      out.Print(std::string("cast_") + std::string(DTypeName(src)) + "_" + std::string(DTypeName(dst)),
                n, kernel_s, boxed_s);
    }
  }
}

// ---------------------------------------------------------------------------
// K2: fused columnar pipeline vs row-mode evaluation
// ---------------------------------------------------------------------------

engine::SelectItem AggItem(engine::ExprPtr e, engine::SelectItem::AggKind agg,
                           const char* label) {
  engine::SelectItem it;
  it.expr = std::move(e);
  it.agg = agg;
  it.label = label;
  return it;
}

/// True when both results hold the same cells: the same kind and, for
/// numbers, the same bits (NaN and -0.0 included).
bool SameCells(const engine::ResultSet& a, const engine::ResultSet& b) {
  if (a.rows.size() != b.rows.size()) return false;
  for (size_t r = 0; r < a.rows.size(); ++r) {
    if (a.rows[r].size() != b.rows[r].size()) return false;
    for (size_t c = 0; c < a.rows[r].size(); ++c) {
      const engine::Value& x = a.rows[r][c];
      const engine::Value& y = b.rows[r][c];
      if (x.kind() != y.kind()) return false;
      if (x.kind() == engine::Value::Kind::kFloat64) {
        const double dx = x.AsDouble().value(), dy = y.AsDouble().value();
        if (std::memcmp(&dx, &dy, sizeof(double)) != 0) return false;
      } else if (x.ToDisplayString() != y.ToDisplayString()) {
        return false;
      }
    }
  }
  return true;
}

/// Runs a bound query under a fresh statement context, as a session runs
/// each statement, and aborts on failure.
engine::ResultSet RunQuery(engine::Executor& ex, const engine::Query& q,
                           const char* what) {
  engine::QueryContext qctx;
  return CheckResult(ex.Execute(q, &qctx), what);
}

/// Times one bound query in vectorized mode (at `batch`) and in row mode
/// (batch_rows=1), aborts unless both modes return the same cells bit for
/// bit, prints the pair, and records both as JSON cases.
void TimeVecVsRow(BenchServer* server, engine::Query* q,
                  const std::string& name, int64_t rows, int batch) {
  engine::Executor& ex = server->executor;
  Check(ex.Bind(q), "bind");

  ex.set_scan_workers(1);
  // One run of each mode, compared and released before anything is timed,
  // so no result set is live while the other mode runs.
  {
    ex.set_batch_rows(batch);
    const engine::ResultSet vec = RunQuery(ex, *q, "vec");
    ex.set_batch_rows(1);
    if (!SameCells(vec, RunQuery(ex, *q, "row"))) {
      Check(Status::Internal("vec/row result divergence in " + name), "K2");
    }
  }

  ex.set_batch_rows(batch);
  double vec_s = TimePerCall([&] { RunQuery(ex, *q, "vec"); });

  ex.set_batch_rows(1);
  double row_s = TimePerCall([&] { RunQuery(ex, *q, "row"); });
  ex.set_batch_rows(1024);

  const std::string case_name = name + "/" + std::to_string(batch);
  std::printf("%-34s %9" PRId64 " | %10.1f | %10.1f | %6.2fx\n",
              case_name.c_str(), rows, rows / vec_s / 1e6, rows / row_s / 1e6,
              row_s / vec_s);
  RecordJson("vec_expr", case_name + "/vec", vec_s, rows / vec_s);
  RecordJson("vec_expr", case_name + "/row", row_s, rows / row_s);
}

void RunVecExpr() {
  Banner("K2", "fused columnar pipeline vs row-mode evaluation");

  BenchServer server;
  const int64_t rows = BenchRows();
  BuildTable1Tables(&server.db, rows);
  storage::Table* t =
      CheckResult(server.db.GetTable("Tscalar"), "Tscalar lookup");

  std::printf("%-34s %9s | %10s | %10s | %7s\n", "case (query/batch)", "rows",
              "vec Mr/s", "row Mr/s", "speedup");
  std::printf("%s\n", std::string(82, '-').c_str());

  using engine::Bin;
  using engine::BinaryOp;
  using engine::Col;
  using engine::Lit;
  using engine::Query;
  using engine::SelectItem;
  using engine::Value;

  // Fused predicate + aggregate, float lanes — the acceptance case: a
  // compound four-conjunct predicate feeding a multi-term projection, the
  // shape where fusing the whole expression over columnar lanes pays most
  // (row mode walks 13 tree nodes per row; the fused program runs 13
  // kernels per batch). Swept across batch sizes; 1024 is the default the
  // criteria pin.
  for (int batch : {256, 1024, 4096}) {
    Query q;
    q.table = t;
    q.where = Bin(
        BinaryOp::kAnd,
        Bin(BinaryOp::kAnd,
            Bin(BinaryOp::kAnd,
                Bin(BinaryOp::kGt, Col("v1"), Lit(Value::Double(-0.25))),
                Bin(BinaryOp::kLt, Col("v2"), Lit(Value::Double(0.5)))),
            Bin(BinaryOp::kGe, Bin(BinaryOp::kMul, Col("v3"), Col("v4")),
                Lit(Value::Double(-0.8)))),
        Bin(BinaryOp::kNe, Col("v5"), Lit(Value::Double(0.125))));
    q.items.push_back(AggItem(
        Bin(BinaryOp::kSub,
            Bin(BinaryOp::kAdd, Bin(BinaryOp::kMul, Col("v1"), Col("v2")),
                Bin(BinaryOp::kMul, Col("v3"), Col("v4"))),
            Bin(BinaryOp::kMul, Col("v5"), Lit(Value::Double(0.5)))),
        SelectItem::AggKind::kSum, "s"));
    TimeVecVsRow(&server, &q, "fused_pred_sum_float", rows, batch);
  }

  // Integer predicate lanes: modulo + comparison over the BIGINT key.
  {
    Query q;
    q.table = t;
    q.where = Bin(BinaryOp::kNe,
                  Bin(BinaryOp::kMod, Col("id"), Lit(Value::Int(7))),
                  Lit(Value::Int(0)));
    q.items.push_back(
        AggItem(Col("id"), SelectItem::AggKind::kSum, "s"));
    TimeVecVsRow(&server, &q, "pred_mod_sum_int", rows, 1024);
  }

  // Unfiltered multi-aggregate: pure fold throughput.
  {
    Query q;
    q.table = t;
    q.items.push_back(AggItem(Col("v1"), SelectItem::AggKind::kSum, "s"));
    q.items.push_back(AggItem(Col("v2"), SelectItem::AggKind::kMin, "mn"));
    q.items.push_back(AggItem(Col("v3"), SelectItem::AggKind::kMax, "mx"));
    TimeVecVsRow(&server, &q, "agg_sum_min_max_float", rows, 1024);
  }

  // The perfbench GROUP BY, SELECT id % 16, SUM(v1), COUNT(*) FROM Tscalar
  // GROUP BY id % 16: the key and the SUM argument run as lanes and each
  // block folds into its groups at once.
  {
    Query q;
    q.table = t;
    auto key = [] {
      return Bin(BinaryOp::kMod, Col("id"), Lit(Value::Int(16)));
    };
    q.items.push_back(AggItem(key(), SelectItem::AggKind::kNone, "k"));
    q.items.push_back(AggItem(Col("v1"), SelectItem::AggKind::kSum, "s"));
    q.items.push_back(
        AggItem(engine::Star(), SelectItem::AggKind::kCount, "n"));
    q.group_by.push_back(key());
    TimeVecVsRow(&server, &q, "group_by_mod16", rows, 1024);
  }

  // Predicate + projection in row mode: column materialization included.
  {
    Query q;
    q.table = t;
    q.where = Bin(BinaryOp::kGt, Col("v1"), Lit(Value::Double(0.5)));
    q.items.push_back(AggItem(Col("id"), SelectItem::AggKind::kNone, "id"));
    q.items.push_back(
        AggItem(Bin(BinaryOp::kSub, Bin(BinaryOp::kMul, Col("v2"), Col("v3")),
                    Col("v4")),
                SelectItem::AggKind::kNone, "e"));
    TimeVecVsRow(&server, &q, "pred_project_rows", rows, 1024);
  }
}

// ---------------------------------------------------------------------------
// K3: hosted calls through the call lane vs the one-row feed
// ---------------------------------------------------------------------------

void RunCallLanes() {
  Banner("K3", "hosted calls: call lane vs one-row feed");

  BenchServer server;
  const int64_t rows = BenchRows();
  BuildTable1Tables(&server.db, rows);
  storage::Table* t =
      CheckResult(server.db.GetTable("Tvector"), "Tvector lookup");
  engine::Executor& ex = server.executor;
  ex.set_scan_workers(1);

  std::printf("%-28s %9s | %12s | %12s | %7s\n", "case", "rows",
              "lane ns/row", "row ns/row", "speedup");
  std::printf("%s\n", std::string(80, '-').c_str());
  for (auto [name, schema, fn] :
       {std::tuple{"sum_item_1", "FloatArray", "Item_1"},
        std::tuple{"sum_empty_function", "dbo", "EmptyFunction"}}) {
    engine::Query q;
    q.table = t;
    std::vector<engine::ExprPtr> args;
    args.push_back(engine::Col("v"));
    args.push_back(engine::Lit(engine::Value::Int(0)));
    q.items.push_back(AggItem(engine::Call(schema, fn, std::move(args)),
                              engine::SelectItem::AggKind::kSum, "s"));
    Check(ex.Bind(&q), "bind");

    double sum[2] = {0, 0};
    double ns_per_row[2] = {0, 0};
    for (int mode = 0; mode < 2; ++mode) {
      ex.set_batch_rows(mode == 0 ? 1024 : 1);
      sum[mode] = RunQuery(ex, q, name).rows[0][0].AsDouble().value();
      ns_per_row[mode] = TimePerCall([&] { RunQuery(ex, q, name); }) /
                         static_cast<double>(rows) * 1e9;
    }
    ex.set_batch_rows(1024);
    if (std::memcmp(&sum[0], &sum[1], sizeof(double)) != 0) {
      Check(Status::Internal(std::string("lane/row divergence in ") + name),
            "K3");
    }
    std::printf("%-28s %9" PRId64 " | %12.1f | %12.1f | %6.2fx\n", name, rows,
                ns_per_row[0], ns_per_row[1], ns_per_row[1] / ns_per_row[0]);
    RecordJson("call_lane", std::string(name) + "/lane",
               ns_per_row[0] * 1e-9 * static_cast<double>(rows),
               1e9 / ns_per_row[0], {{"ns_per_row", ns_per_row[0]}});
    RecordJson("call_lane", std::string(name) + "/row",
               ns_per_row[1] * 1e-9 * static_cast<double>(rows),
               1e9 / ns_per_row[1], {{"ns_per_row", ns_per_row[1]}});
  }
}

}  // namespace
}  // namespace sqlarray::bench

int main(int argc, char** argv) {
  sqlarray::bench::ParseBenchArgs(argc, argv);
  sqlarray::bench::RunVecExpr();
  sqlarray::bench::RunCallLanes();
  sqlarray::bench::Run();
  sqlarray::bench::FlushJson();
  return 0;
}
