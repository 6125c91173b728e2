// Tests for the query engine: values, expressions, executor, aggregates,
// UDF boundary cost accounting.
#include <gtest/gtest.h>

#include "core/array.h"
#include "engine/exec.h"
#include "udfs/register.h"

namespace sqlarray::engine {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : executor_(&db_, &registry_) {
    EXPECT_TRUE(udfs::RegisterAllUdfs(&registry_).ok());
  }

  storage::Table* MakeScalarTable(const std::string& name, int64_t rows) {
    storage::Schema schema =
        storage::Schema::Create({{"id", storage::ColumnType::kInt64, 0},
                                 {"v1", storage::ColumnType::kFloat64, 0},
                                 {"v2", storage::ColumnType::kFloat64, 0}})
            .value();
    storage::Table* t = db_.CreateTable(name, std::move(schema)).value();
    for (int64_t i = 0; i < rows; ++i) {
      EXPECT_TRUE(
          t->Insert({i, static_cast<double>(i), static_cast<double>(2 * i)})
              .ok());
    }
    return t;
  }

  /// Runs a bound query under a fresh statement context.
  Result<ResultSet> Execute(const Query& q) {
    QueryContext qctx;
    return executor_.Execute(q, &qctx);
  }

  /// Evaluates a FROM-less expression under a fresh statement context.
  Result<Value> EvalStandalone(const Expr& e,
                               std::map<std::string, Value>* vars = nullptr) {
    QueryContext qctx;
    qctx.variables = vars;
    return executor_.EvalStandalone(e, &qctx);
  }

  storage::Database db_;
  FunctionRegistry registry_;
  Executor executor_;
};

TEST_F(EngineTest, ValueAccessorsAndCoercion) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(5).AsDouble().value(), 5.0);
  EXPECT_EQ(Value::Double(2.7).AsInt().value(), 2);
  EXPECT_FALSE(Value::Str("x").AsDouble().ok());
  Value bytes = Value::Bytes({1, 2, 3});
  EXPECT_EQ(bytes.ByteSize(), 3);
  EXPECT_EQ((*bytes.AsBytes().value())[1], 2);
  EXPECT_EQ(bytes.MaterializeBytes().value().size(), 3u);
}

TEST_F(EngineTest, StandaloneExpressionArithmetic) {
  // (3 + 4) * 2 - 5 = 9
  ExprPtr e = Bin(BinaryOp::kSub,
                  Bin(BinaryOp::kMul,
                      Bin(BinaryOp::kAdd, Lit(Value::Int(3)),
                          Lit(Value::Int(4))),
                      Lit(Value::Int(2))),
                  Lit(Value::Int(5)));
  EXPECT_EQ(EvalStandalone(*e).value().AsInt().value(), 9);
}

TEST_F(EngineTest, IntVsFloatSemantics) {
  ExprPtr int_div = Bin(BinaryOp::kDiv, Lit(Value::Int(7)),
                        Lit(Value::Int(2)));
  EXPECT_EQ(EvalStandalone(*int_div).value().AsInt().value(), 3);
  ExprPtr float_div = Bin(BinaryOp::kDiv, Lit(Value::Double(7)),
                          Lit(Value::Int(2)));
  EXPECT_EQ(EvalStandalone(*float_div).value().AsDouble().value(), 3.5);
  ExprPtr div0 = Bin(BinaryOp::kDiv, Lit(Value::Int(1)), Lit(Value::Int(0)));
  EXPECT_FALSE(EvalStandalone(*div0).ok());
}

TEST_F(EngineTest, NullPropagation) {
  ExprPtr e = Bin(BinaryOp::kAdd, Lit(Value::Null()), Lit(Value::Int(1)));
  EXPECT_TRUE(EvalStandalone(*e).value().is_null());
}

TEST_F(EngineTest, VariablesResolve) {
  std::map<std::string, Value> vars{{"x", Value::Int(10)}};
  ExprPtr e = Bin(BinaryOp::kMul, Var("x"), Lit(Value::Int(3)));
  EXPECT_EQ(EvalStandalone(*e, &vars).value().AsInt().value(), 30);
  ExprPtr missing = Var("nope");
  EXPECT_FALSE(EvalStandalone(*missing, &vars).ok());
}

TEST_F(EngineTest, CountStarAndSum) {
  storage::Table* t = MakeScalarTable("t1", 100);
  Query q;
  q.table = t;
  {
    SelectItem count;
    count.agg = SelectItem::AggKind::kCount;
    count.expr = Star();
    count.label = "n";
    q.items.push_back(std::move(count));
  }
  {
    SelectItem sum;
    sum.agg = SelectItem::AggKind::kSum;
    sum.expr = Col("v1");
    sum.label = "s";
    q.items.push_back(std::move(sum));
  }
  ASSERT_TRUE(executor_.Bind(&q).ok());
  ResultSet rs = Execute(q).value();
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].AsInt().value(), 100);
  EXPECT_EQ(rs.rows[0][1].AsDouble().value(), 4950.0);
  EXPECT_EQ(rs.stats.rows_scanned, 100);
}

TEST_F(EngineTest, MinMaxAvgAndEmptyTable) {
  storage::Table* t = MakeScalarTable("t2", 10);
  Query q;
  q.table = t;
  for (auto kind : {SelectItem::AggKind::kMin, SelectItem::AggKind::kMax,
                    SelectItem::AggKind::kAvg}) {
    SelectItem item;
    item.agg = kind;
    item.expr = Col("v1");
    item.label = "x";
    q.items.push_back(std::move(item));
  }
  ASSERT_TRUE(executor_.Bind(&q).ok());
  ResultSet rs = Execute(q).value();
  EXPECT_EQ(rs.rows[0][0].AsDouble().value(), 0.0);
  EXPECT_EQ(rs.rows[0][1].AsDouble().value(), 9.0);
  EXPECT_EQ(rs.rows[0][2].AsDouble().value(), 4.5);

  storage::Table* empty = MakeScalarTable("t2e", 0);
  Query qe;
  qe.table = empty;
  SelectItem mn;
  mn.agg = SelectItem::AggKind::kMin;
  mn.expr = Col("v1");
  mn.label = "m";
  qe.items.push_back(std::move(mn));
  ASSERT_TRUE(executor_.Bind(&qe).ok());
  ResultSet rse = Execute(qe).value();
  ASSERT_EQ(rse.rows.size(), 1u);
  EXPECT_TRUE(rse.rows[0][0].is_null());
}

TEST_F(EngineTest, WhereFilterAndTop) {
  storage::Table* t = MakeScalarTable("t3", 50);
  Query q;
  q.table = t;
  SelectItem item;
  item.expr = Col("id");
  item.label = "id";
  q.items.push_back(std::move(item));
  q.where = Bin(BinaryOp::kGe, Col("id"), Lit(Value::Int(40)));
  q.top = 5;
  ASSERT_TRUE(executor_.Bind(&q).ok());
  ResultSet rs = Execute(q).value();
  ASSERT_EQ(rs.rows.size(), 5u);
  EXPECT_EQ(rs.rows[0][0].AsInt().value(), 40);
  EXPECT_EQ(rs.rows[4][0].AsInt().value(), 44);
}

TEST_F(EngineTest, GroupByAggregates) {
  storage::Table* t = MakeScalarTable("t4", 30);
  Query q;
  q.table = t;
  {
    SelectItem key;
    key.expr = Bin(BinaryOp::kMod, Col("id"), Lit(Value::Int(3)));
    key.label = "k";
    q.items.push_back(std::move(key));
  }
  {
    SelectItem cnt;
    cnt.agg = SelectItem::AggKind::kCount;
    cnt.expr = Star();
    cnt.label = "n";
    q.items.push_back(std::move(cnt));
  }
  q.group_by.push_back(Bin(BinaryOp::kMod, Col("id"), Lit(Value::Int(3))));
  ASSERT_TRUE(executor_.Bind(&q).ok());
  ResultSet rs = Execute(q).value();
  ASSERT_EQ(rs.rows.size(), 3u);
  for (const auto& row : rs.rows) {
    EXPECT_EQ(row[1].AsInt().value(), 10);
  }
}

TEST_F(EngineTest, ClrBoundaryCostIsCharged) {
  storage::Table* t = MakeScalarTable("t5", 1000);
  const CostModel& cost = executor_.cost_model();

  // Native query: no UDF calls.
  Query q1;
  q1.table = t;
  SelectItem s1;
  s1.agg = SelectItem::AggKind::kSum;
  s1.expr = Col("v1");
  s1.label = "s";
  q1.items.push_back(std::move(s1));
  ASSERT_TRUE(executor_.Bind(&q1).ok());
  ResultSet r1 = Execute(q1).value();
  EXPECT_EQ(r1.stats.udf_calls, 0);
  double native_cpu = r1.stats.cpu_core_seconds;

  // The same sum through dbo.EmptyFunction: one CLR call per row.
  Query q2;
  q2.table = t;
  SelectItem s2;
  s2.agg = SelectItem::AggKind::kSum;
  std::vector<ExprPtr> args;
  args.push_back(Col("v1"));
  args.push_back(Lit(Value::Int(0)));
  s2.expr = Call("dbo", "EmptyFunction", std::move(args));
  s2.label = "s";
  q2.items.push_back(std::move(s2));
  ASSERT_TRUE(executor_.Bind(&q2).ok());
  ResultSet r2 = Execute(q2).value();
  EXPECT_EQ(r2.stats.udf_calls, 1000);
  // At least rows * clr_call_ns of extra modeled CPU.
  EXPECT_GT(r2.stats.cpu_core_seconds,
            native_cpu + 1000 * cost.clr_call_ns * 1e-9 * 0.99);
}

TEST_F(EngineTest, ModeledMetricsFollowTheCostModel) {
  QueryStats stats;
  stats.cpu_core_seconds = 16.0;  // 2 s on 8 cores
  stats.io.virtual_read_seconds = 1.0;
  stats.io.bytes_read = 1000000000;
  CostModel cost;
  EXPECT_DOUBLE_EQ(stats.ModeledSeconds(cost), 2.0);  // CPU-bound
  EXPECT_DOUBLE_EQ(stats.ModeledCpuPct(cost), 100.0);
  EXPECT_DOUBLE_EQ(stats.ModeledIoMBps(cost), 500.0);

  stats.cpu_core_seconds = 0.8;
  EXPECT_DOUBLE_EQ(stats.ModeledSeconds(cost), 1.0);  // IO-bound
  EXPECT_DOUBLE_EQ(stats.ModeledCpuPct(cost), 10.0);
}

TEST(QueryStatsTest, LedgerIsTheSameInAnyChargeOrder) {
  // One Q4-shaped statement, SUM(FloatArray.Item_1(v, 0)) over 3,000 rows:
  // per row a scan, a hosted call in with 72 argument bytes and back with
  // 8 result bytes, and an aggregate step. Charged row by row, kind by kind
  // and block by block, the ledger reads the same bits.
  const CostModel cost;
  constexpr int kRows = 3000;
  const double charges[] = {
      cost.row_scan_ns,
      cost.clr_call_ns + cost.clr_byte_ns * 72 + cost.clr_item_work_ns,
      cost.clr_byte_ns * 8, cost.native_agg_step_ns};
  QueryStats row_major;
  for (int r = 0; r < kRows; ++r) {
    for (double ns : charges) row_major.ChargeCpuNs(ns);
  }
  QueryStats item_major;
  for (double ns : charges) {
    for (int r = 0; r < kRows; ++r) item_major.ChargeCpuNs(ns);
  }
  QueryStats blocks;
  for (int first = 0; first < kRows; first += 1024) {
    const int n = std::min(1024, kRows - first);
    for (double ns : charges) blocks.ChargeCpuNs(ns * n);
  }
  EXPECT_EQ(row_major.cpu_core_seconds, item_major.cpu_core_seconds);
  EXPECT_EQ(row_major.cpu_core_seconds, blocks.cpu_core_seconds);
  QueryStats whole;
  whole.ChargeCpuNs(2900.0 * kRows);
  EXPECT_EQ(row_major.cpu_core_seconds, whole.cpu_core_seconds);
}

TEST_F(EngineTest, ParallelAggregateMatchesSerial) {
  storage::Table* t = MakeScalarTable("tp", 20000);
  auto make_query = [&]() {
    Query q;
    q.table = t;
    for (auto kind :
         {SelectItem::AggKind::kCount, SelectItem::AggKind::kSum,
          SelectItem::AggKind::kMin, SelectItem::AggKind::kMax,
          SelectItem::AggKind::kAvg}) {
      SelectItem item;
      item.agg = kind;
      item.expr = kind == SelectItem::AggKind::kCount ? Star() : Col("v1");
      item.label = "x";
      q.items.push_back(std::move(item));
    }
    q.where = Bin(BinaryOp::kGe, Col("id"), Lit(Value::Int(137)));
    return q;
  };

  Query serial_q = make_query();
  ASSERT_TRUE(executor_.Bind(&serial_q).ok());
  ResultSet serial = Execute(serial_q).value();

  executor_.set_scan_workers(8);
  Query parallel_q = make_query();
  ASSERT_TRUE(executor_.Bind(&parallel_q).ok());
  ResultSet parallel = Execute(parallel_q).value();
  executor_.set_scan_workers(1);

  ASSERT_EQ(serial.rows.size(), 1u);
  ASSERT_EQ(parallel.rows.size(), 1u);
  for (size_t c = 0; c < serial.rows[0].size(); ++c) {
    EXPECT_EQ(serial.rows[0][c].AsDouble().value(),
              parallel.rows[0][c].AsDouble().value())
        << "column " << c;
  }
  EXPECT_EQ(parallel.stats.rows_scanned, serial.stats.rows_scanned);
  EXPECT_EQ(parallel.stats.cpu_core_seconds, serial.stats.cpu_core_seconds);
}

TEST_F(EngineTest, ParallelAggregateWithUdfExpression) {
  // The Tvector-style workload: a UDF inside the aggregate argument runs on
  // every worker thread.
  storage::Schema schema =
      storage::Schema::Create({{"id", storage::ColumnType::kInt64, 0},
                               {"v", storage::ColumnType::kBinary, 64}})
          .value();
  storage::Table* t = db_.CreateTable("tpv", std::move(schema)).value();
  OwnedArray vec =
      OwnedArray::Zeros(DType::kFloat64, Dims{5}).value();
  double expect = 0;
  for (int64_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(vec.SetDouble(0, static_cast<double>(i)).ok());
    expect += static_cast<double>(i);
    ASSERT_TRUE(
        t->Insert({i, std::vector<uint8_t>(vec.blob().begin(),
                                           vec.blob().end())})
            .ok());
  }

  auto make_query = [&]() {
    Query q;
    q.table = t;
    SelectItem item;
    item.agg = SelectItem::AggKind::kSum;
    std::vector<ExprPtr> args;
    args.push_back(Col("v"));
    args.push_back(Lit(Value::Int(0)));
    item.expr = Call("FloatArray", "Item_1", std::move(args));
    item.label = "s";
    q.items.push_back(std::move(item));
    return q;
  };

  executor_.set_scan_workers(4);
  Query q = make_query();
  ASSERT_TRUE(executor_.Bind(&q).ok());
  ResultSet rs = Execute(q).value();
  executor_.set_scan_workers(1);
  EXPECT_EQ(rs.ScalarResult().value().AsDouble().value(), expect);
  EXPECT_EQ(rs.stats.udf_calls, 5000);
}

TEST_F(EngineTest, ParallelFallsBackForGroupByAndUda) {
  storage::Table* t = MakeScalarTable("tpf", 100);
  executor_.set_scan_workers(8);
  // GROUP BY still works (serial path).
  Query q;
  q.table = t;
  SelectItem key;
  key.expr = Bin(BinaryOp::kMod, Col("id"), Lit(Value::Int(2)));
  key.label = "k";
  q.items.push_back(std::move(key));
  SelectItem cnt;
  cnt.agg = SelectItem::AggKind::kCount;
  cnt.expr = Star();
  cnt.label = "n";
  q.items.push_back(std::move(cnt));
  q.group_by.push_back(Bin(BinaryOp::kMod, Col("id"), Lit(Value::Int(2))));
  ASSERT_TRUE(executor_.Bind(&q).ok());
  ResultSet rs = Execute(q).value();
  executor_.set_scan_workers(1);
  EXPECT_EQ(rs.rows.size(), 2u);
}

// ---------------------------------------------------------------------------
// Batched execution differential tests: batch sizes <= 1 feed the chunk
// bodies one row at a time with no lanes, where Eval is the oracle; results
// and the exact cpu_core_seconds ledger must be identical at any batch
// size, whether an expression runs as a lane program or through Eval per
// batch row.
// DESIGN.md §8 documents the contract.
// ---------------------------------------------------------------------------

TEST_F(EngineTest, BatchedAggregateMatchesRowAtATime) {
  storage::Table* t = MakeScalarTable("tb1", 5000);
  auto make_query = [&]() {
    Query q;
    q.table = t;
    for (auto kind :
         {SelectItem::AggKind::kCount, SelectItem::AggKind::kSum,
          SelectItem::AggKind::kMin, SelectItem::AggKind::kMax,
          SelectItem::AggKind::kAvg}) {
      SelectItem item;
      item.agg = kind;
      item.expr = kind == SelectItem::AggKind::kCount ? Star() : Col("v1");
      item.label = "x";
      q.items.push_back(std::move(item));
    }
    q.where = Bin(BinaryOp::kGe, Col("id"), Lit(Value::Int(321)));
    return q;
  };

  auto run = [&](int batch_rows) {
    executor_.set_batch_rows(batch_rows);
    Query q = make_query();
    EXPECT_TRUE(executor_.Bind(&q).ok());
    ResultSet rs = Execute(q).value();
    executor_.set_batch_rows(1024);
    return rs;
  };

  ResultSet row = run(1);  // row-at-a-time reference
  for (int batch_rows : {7, 1024}) {
    ResultSet batched = run(batch_rows);
    ASSERT_EQ(batched.rows.size(), row.rows.size());
    for (size_t c = 0; c < row.rows[0].size(); ++c) {
      EXPECT_EQ(row.rows[0][c].AsDouble().value(),
                batched.rows[0][c].AsDouble().value())
          << "batch_rows=" << batch_rows << " column " << c;
    }
    EXPECT_EQ(batched.stats.rows_scanned, row.stats.rows_scanned);
    // The accounting must agree bit for bit, not just approximately.
    EXPECT_EQ(batched.stats.cpu_core_seconds, row.stats.cpu_core_seconds)
        << "batch_rows=" << batch_rows;
  }
}

TEST_F(EngineTest, BatchedAggregateWithUdfMatchesRowAtATime) {
  // Q4-shaped: SUM over a UDF of a binary array column — the workload the
  // byte-buffer pool exists for.
  storage::Schema schema =
      storage::Schema::Create({{"id", storage::ColumnType::kInt64, 0},
                               {"v", storage::ColumnType::kBinary, 64}})
          .value();
  storage::Table* t = db_.CreateTable("tbv", std::move(schema)).value();
  OwnedArray vec = OwnedArray::Zeros(DType::kFloat64, Dims{5}).value();
  for (int64_t i = 0; i < 3000; ++i) {
    ASSERT_TRUE(vec.SetDouble(0, static_cast<double>(i) * 0.25).ok());
    ASSERT_TRUE(
        t->Insert({i, std::vector<uint8_t>(vec.blob().begin(),
                                           vec.blob().end())})
            .ok());
  }

  auto make_query = [&]() {
    Query q;
    q.table = t;
    SelectItem item;
    item.agg = SelectItem::AggKind::kSum;
    std::vector<ExprPtr> args;
    args.push_back(Col("v"));
    args.push_back(Lit(Value::Int(0)));
    item.expr = Call("FloatArray", "Item_1", std::move(args));
    item.label = "s";
    q.items.push_back(std::move(item));
    return q;
  };

  auto run = [&](int batch_rows, int workers) {
    executor_.set_batch_rows(batch_rows);
    executor_.set_scan_workers(workers);
    Query q = make_query();
    EXPECT_TRUE(executor_.Bind(&q).ok());
    ResultSet rs = Execute(q).value();
    executor_.set_batch_rows(1024);
    executor_.set_scan_workers(1);
    return rs;
  };

  ResultSet row = run(1, 1);
  for (int batch_rows : {7, 1024}) {
    ResultSet batched = run(batch_rows, 1);
    EXPECT_EQ(row.ScalarResult().value().AsDouble().value(),
              batched.ScalarResult().value().AsDouble().value());
    EXPECT_EQ(batched.stats.udf_calls, row.stats.udf_calls);
    // A wide block charges its scan, calls and steps once each; the ledger
    // is exact, so the total is the one-row feed's bit for bit.
    EXPECT_EQ(batched.stats.cpu_core_seconds, row.stats.cpu_core_seconds);
  }
  // Batched parallel workers agree too (merge order is worker-ordered in
  // both modes).
  ResultSet parallel = run(1024, 4);
  EXPECT_EQ(row.ScalarResult().value().AsDouble().value(),
            parallel.ScalarResult().value().AsDouble().value());
  EXPECT_EQ(parallel.stats.udf_calls, row.stats.udf_calls);
}

TEST_F(EngineTest, BatchedRowModeMatchesRowAtATime) {
  storage::Table* t = MakeScalarTable("tb2", 2500);
  auto make_query = [&]() {
    Query q;
    q.table = t;
    SelectItem id;
    id.expr = Col("id");
    id.label = "id";
    q.items.push_back(std::move(id));
    SelectItem expr;
    expr.expr = Bin(BinaryOp::kAdd,
                    Bin(BinaryOp::kMul, Col("v1"), Lit(Value::Double(2.5))),
                    Col("v2"));
    expr.label = "e";
    q.items.push_back(std::move(expr));
    q.where = Bin(BinaryOp::kGe, Col("id"), Lit(Value::Int(100)));
    return q;
  };

  auto run = [&](int batch_rows) {
    executor_.set_batch_rows(batch_rows);
    Query q = make_query();
    EXPECT_TRUE(executor_.Bind(&q).ok());
    ResultSet rs = Execute(q).value();
    executor_.set_batch_rows(1024);
    return rs;
  };

  ResultSet row = run(1);
  ASSERT_EQ(row.rows.size(), 2400u);
  for (int batch_rows : {7, 1024}) {
    ResultSet batched = run(batch_rows);
    ASSERT_EQ(batched.rows.size(), row.rows.size());
    for (size_t r = 0; r < row.rows.size(); ++r) {
      EXPECT_EQ(row.rows[r][0].AsInt().value(),
                batched.rows[r][0].AsInt().value());
      EXPECT_EQ(row.rows[r][1].AsDouble().value(),
                batched.rows[r][1].AsDouble().value());
    }
    EXPECT_EQ(batched.stats.rows_scanned, row.stats.rows_scanned);
    EXPECT_EQ(batched.stats.cpu_core_seconds, row.stats.cpu_core_seconds);
  }
}

TEST_F(EngineTest, BatchedFallbacksPreserveSemantics) {
  // TOP and GROUP BY are outside the batch gate; they must keep working
  // with batching enabled (the default) and match batch_rows=1 results.
  storage::Table* t = MakeScalarTable("tb3", 200);
  auto run_top = [&](int batch_rows) {
    executor_.set_batch_rows(batch_rows);
    Query q;
    q.table = t;
    SelectItem item;
    item.expr = Col("id");
    item.label = "id";
    q.items.push_back(std::move(item));
    q.where = Bin(BinaryOp::kGe, Col("id"), Lit(Value::Int(50)));
    q.top = 3;
    EXPECT_TRUE(executor_.Bind(&q).ok());
    ResultSet rs = Execute(q).value();
    executor_.set_batch_rows(1024);
    return rs;
  };
  ResultSet a = run_top(1024);
  ResultSet b = run_top(1);
  ASSERT_EQ(a.rows.size(), 3u);
  ASSERT_EQ(b.rows.size(), 3u);
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(a.rows[r][0].AsInt().value(), b.rows[r][0].AsInt().value());
  }
  // TOP keeps the early-exit scan: identical rows_scanned either way.
  EXPECT_EQ(a.stats.rows_scanned, b.stats.rows_scanned);
}

TEST_F(EngineTest, FromLessSelect) {
  Query q;
  SelectItem item;
  item.expr = Bin(BinaryOp::kAdd, Lit(Value::Int(1)), Lit(Value::Int(2)));
  item.label = "three";
  q.items.push_back(std::move(item));
  ASSERT_TRUE(executor_.Bind(&q).ok());
  ResultSet rs = Execute(q).value();
  EXPECT_EQ(rs.ScalarResult().value().AsInt().value(), 3);
}

TEST_F(EngineTest, RegistryResolution) {
  EXPECT_TRUE(registry_.Resolve("FloatArray", "Item_1", 2).ok());
  EXPECT_TRUE(registry_.Resolve("floatarray", "ITEM_1", 2).ok());  // case
  EXPECT_FALSE(registry_.Resolve("FloatArray", "Item_1", 5).ok());
  EXPECT_FALSE(registry_.Resolve("NoSchema", "F", 1).ok());
  EXPECT_TRUE(registry_.Resolve("Array", "Item", 3).ok());  // variadic
  EXPECT_TRUE(registry_.HasScalar("FloatArray", "Vector_5"));
  EXPECT_FALSE(registry_.HasScalar("FloatArray", "Bogus"));
  EXPECT_TRUE(registry_.ResolveUda("FloatArrayMax", "Concat").ok());
  EXPECT_FALSE(registry_.ResolveUda("FloatArrayMax", "Nope").ok());
}

TEST_F(EngineTest, CloneExprDeepCopies) {
  ExprPtr e = Bin(BinaryOp::kAdd, Col("a"), Lit(Value::Int(1)));
  ExprPtr c = CloneExpr(*e);
  e->args[0]->column_name = "changed";
  EXPECT_EQ(c->args[0]->column_name, "a");
  EXPECT_TRUE(NeedsRow(*c));
  EXPECT_FALSE(NeedsRow(*c->args[1]));
}

}  // namespace
}  // namespace sqlarray::engine
