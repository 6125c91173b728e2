// Tests for the T-SQL frontend: lexer, parser, session — including the
// paper's exact Sec. 5.1 statements and the Sec. 8 subscript sugar.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/array.h"
#include "mvcc/mvcc.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/session.h"
#include "udfs/register.h"
#include "wal/wal.h"

namespace sqlarray::sql {
namespace {

using engine::Value;

TEST(Lexer, TokenKinds) {
  auto tokens = Lex("SELECT @a = 1.5, 0xAB12 'str' (x) [1:2]").value();
  ASSERT_GE(tokens.size(), 12u);
  EXPECT_TRUE(tokens[0].IsKeyword("select"));
  EXPECT_EQ(tokens[1].type, TokenType::kVariable);
  EXPECT_EQ(tokens[1].text, "a");
  EXPECT_EQ(tokens[2].type, TokenType::kEq);
  EXPECT_EQ(tokens[3].type, TokenType::kFloat);
  EXPECT_EQ(tokens[3].float_value, 1.5);
  EXPECT_EQ(tokens[5].type, TokenType::kBinary);
  EXPECT_EQ(tokens[5].binary_value, (std::vector<uint8_t>{0xAB, 0x12}));
  EXPECT_EQ(tokens[6].type, TokenType::kString);
  EXPECT_EQ(tokens[6].text, "str");
}

TEST(Lexer, CommentsAndOperators) {
  auto tokens = Lex("a -- line comment\n /* block */ <= <> >= !=").value();
  EXPECT_EQ(tokens[0].type, TokenType::kIdent);
  EXPECT_EQ(tokens[1].type, TokenType::kLe);
  EXPECT_EQ(tokens[2].type, TokenType::kNe);
  EXPECT_EQ(tokens[3].type, TokenType::kGe);
  EXPECT_EQ(tokens[4].type, TokenType::kNe);
}

TEST(Lexer, Errors) {
  EXPECT_FALSE(Lex("'unterminated").ok());
  EXPECT_FALSE(Lex("@ alone").ok());
  EXPECT_FALSE(Lex("0xABC").ok());  // odd hex digits
  EXPECT_FALSE(Lex("/* open").ok());
  EXPECT_FALSE(Lex("a ? b").ok());
}

TEST(Lexer, EscapedQuoteInString) {
  auto tokens = Lex("'it''s'").value();
  EXPECT_EQ(tokens[0].text, "it's");
}

TEST(Parser, ExpressionPrecedence) {
  // 1 + 2 * 3 parses as 1 + (2 * 3).
  engine::ExprPtr e = ParseExpression("1 + 2 * 3").value();
  ASSERT_EQ(e->kind, engine::Expr::Kind::kBinary);
  EXPECT_EQ(e->binary_op, engine::BinaryOp::kAdd);
  EXPECT_EQ(e->args[1]->binary_op, engine::BinaryOp::kMul);
}

TEST(Parser, SchemaQualifiedCall) {
  engine::ExprPtr e =
      ParseExpression("FloatArray.Vector_2(1.0, 2.0)").value();
  ASSERT_EQ(e->kind, engine::Expr::Kind::kCall);
  EXPECT_EQ(e->schema_name, "FloatArray");
  EXPECT_EQ(e->func_name, "Vector_2");
  EXPECT_EQ(e->args.size(), 2u);
}

TEST(Parser, SubscriptSugarDesugarsToItem) {
  engine::ExprPtr e = ParseExpression("@a[1, 2]").value();
  ASSERT_EQ(e->kind, engine::Expr::Kind::kCall);
  EXPECT_EQ(e->schema_name, "Array");
  EXPECT_EQ(e->func_name, "Item");
  EXPECT_EQ(e->args.size(), 3u);
}

TEST(Parser, SliceSugarDesugarsToSlice) {
  engine::ExprPtr e = ParseExpression("@a[1:5, 2]").value();
  ASSERT_EQ(e->kind, engine::Expr::Kind::kCall);
  EXPECT_EQ(e->func_name, "Slice");
  EXPECT_EQ(e->args.size(), 7u);  // arr + 2 dims * 3
}

TEST(Parser, StatementsParse) {
  EXPECT_TRUE(Parse("DECLARE @a VARBINARY(100) = 1").ok());
  EXPECT_TRUE(Parse("SET @a = 2").ok());
  EXPECT_TRUE(Parse("SELECT 1; SELECT 2").ok());
  EXPECT_TRUE(Parse("SELECT TOP 5 id FROM t WITH (NOLOCK) WHERE id > 3 "
                    "GROUP BY id")
                  .ok());
  EXPECT_TRUE(
      Parse("CREATE TABLE t (id BIGINT, v VARBINARY(MAX))").ok());
  EXPECT_TRUE(Parse("INSERT INTO t VALUES (1, 0x00), (2, 0x01)").ok());
  EXPECT_FALSE(Parse("DROP TABLE t").ok());
  EXPECT_FALSE(Parse("SELECT FROM").ok());
}

class SessionTest : public ::testing::Test {
 protected:
  SessionTest()
      : executor_(&db_, &registry_), session_(&executor_) {
    EXPECT_TRUE(udfs::RegisterAllUdfs(&registry_).ok());
  }

  /// Runs a script expecting success.
  std::vector<engine::ResultSet> Run(const std::string& sqltext) {
    auto r = session_.Execute(sqltext);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\nSQL: " << sqltext;
    return r.ok() ? std::move(r).value() : std::vector<engine::ResultSet>{};
  }

  /// Fetches the array currently held by a session variable.
  OwnedArray VarArray(const std::string& name) {
    Value v = session_.GetVariable(name).value();
    return OwnedArray::FromBlob(v.MaterializeBytes().value()).value();
  }

  storage::Database db_;
  engine::FunctionRegistry registry_;
  engine::Executor executor_;
  Session session_;
};

TEST_F(SessionTest, PaperExampleVectorAndItem) {
  // Sec. 5.1: DECLARE @a ... = FloatArray.Vector_5(...); Item_1(@a, 3).
  Run("DECLARE @a VARBINARY(100) = "
      "FloatArray.Vector_5(1.0, 2.0, 3.0, 4.0, 5.0)");
  auto results = Run("SELECT FloatArray.Item_1(@a, 3)");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].ScalarResult().value().AsDouble().value(), 4.0);
}

TEST_F(SessionTest, PaperExampleMatrixItem2) {
  Run("DECLARE @m VARBINARY(100) = "
      "FloatArray.Matrix_2(0.1, 0.2, 0.3, 0.4)");
  auto results = Run("SELECT FloatArray.Item_2(@m, 1, 0)");
  // Column-major: (1,0) is the second listed element.
  EXPECT_NEAR(results[0].ScalarResult().value().AsDouble().value(), 0.2,
              1e-12);
}

TEST_F(SessionTest, PaperExampleUpdateItem) {
  Run("DECLARE @a VARBINARY(100) = FloatArray.Vector_5(1, 2, 3, 4, 5)");
  Run("SET @a = FloatArray.UpdateItem_1(@a, 3, 4.5)");
  auto results = Run("SELECT FloatArray.Item_1(@a, 3)");
  EXPECT_EQ(results[0].ScalarResult().value().AsDouble().value(), 4.5);
}

TEST_F(SessionTest, PaperExampleSubarray) {
  // A 10x10x10 max array of floats, subset 5x5x5 at (1, 4, 6) (Sec. 5.1).
  Run("DECLARE @a VARBINARY(MAX) = FloatArrayMax.Create(12, 12, 12)");
  Run("DECLARE @b VARBINARY(MAX)");
  Run("SET @a = FloatArrayMax.UpdateItem_3(@a, 2, 5, 7, 42.0)");
  Run("SET @b = FloatArrayMax.Subarray(@a, "
      "IntArray.Vector_3(1, 4, 6), IntArray.Vector_3(5, 5, 5), 0)");
  OwnedArray b = VarArray("b");
  EXPECT_EQ(b.dims(), (Dims{5, 5, 5}));
  EXPECT_EQ(b.ref().GetDoubleAt(Dims{1, 1, 1}).value(), 42.0);
}

TEST_F(SessionTest, SubarrayCollapseFlag) {
  Run("DECLARE @m VARBINARY(100) = FloatArray.Matrix_2(1, 2, 3, 4)");
  Run("DECLARE @col VARBINARY(100)");
  Run("SET @col = FloatArray.Subarray(@m, IntArray.Vector_2(0, 1), "
      "IntArray.Vector_2(2, 1), 1)");
  OwnedArray col = VarArray("col");
  EXPECT_EQ(col.dims(), (Dims{2}));
  EXPECT_EQ(col.ref().GetDouble(0).value(), 3.0);
}

TEST_F(SessionTest, TableScanWithAggregates) {
  Run("CREATE TABLE nums (id BIGINT, v FLOAT)");
  Run("INSERT INTO nums VALUES (1, 1.5), (2, 2.5), (3, 3.0)");
  auto results =
      Run("SELECT COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM nums");
  const auto& row = results[0].rows[0];
  EXPECT_EQ(row[0].AsInt().value(), 3);
  EXPECT_EQ(row[1].AsDouble().value(), 7.0);
  EXPECT_EQ(row[2].AsDouble().value(), 1.5);
  EXPECT_EQ(row[3].AsDouble().value(), 3.0);
  EXPECT_NEAR(row[4].AsDouble().value(), 7.0 / 3, 1e-12);
}

TEST_F(SessionTest, NolockScanAndWhere) {
  Run("CREATE TABLE t (id BIGINT, v FLOAT)");
  Run("INSERT INTO t VALUES (1, 10.0), (2, 20.0), (3, 30.0)");
  auto results =
      Run("SELECT SUM(v) FROM t WITH (NOLOCK) WHERE id >= 2");
  EXPECT_EQ(results[0].ScalarResult().value().AsDouble().value(), 50.0);
}

TEST_F(SessionTest, UdaArgumentsEvaluateOncePerRow) {
  // Init and Accumulate share one evaluation of the UDA's arguments, so a
  // CLR call inside them is charged once per row, a group's first row too.
  Run("CREATE TABLE ut (id BIGINT, x FLOAT)");
  std::string values;
  for (int i = 0; i < 30; ++i) {
    if (!values.empty()) values += ", ";
    values += "(" + std::to_string(i) + ", " + std::to_string(i) + ".0)";
  }
  Run("INSERT INTO ut VALUES " + values);
  const std::string avg =
      "SELECT FloatArrayMax.AvgVector(FloatArray.Vector_2(x, x)) FROM ut";
  for (const std::string& sqltext : {avg, avg + " GROUP BY id % 3"}) {
    for (int batch : {1, 1024}) {
      executor_.set_batch_rows(batch);
      auto rs = Run(sqltext);
      ASSERT_EQ(rs.size(), 1u);
      // 30 AvgVector calls plus 30 Vector_2 calls.
      EXPECT_EQ(rs[0].stats.udf_calls, 60) << sqltext << " batch=" << batch;
    }
  }
  executor_.set_batch_rows(1024);
  auto rs = Run(avg);
  ASSERT_EQ(rs.size(), 1u);
  OwnedArray mean =
      OwnedArray::FromBlob(rs[0].rows[0][0].MaterializeBytes().value())
          .value();
  EXPECT_EQ(mean.ref().GetDouble(0).value(), 14.5);
  EXPECT_EQ(mean.ref().GetDouble(1).value(), 14.5);
}

TEST_F(SessionTest, BigintDivisionByMinusOneDoesNotTrap) {
  // The hardware traps on INT64_MIN / -1 and INT64_MIN % -1; both
  // evaluators define them as INT64_MIN and 0.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  const std::string min = "(-9223372036854775807 - 1)";
  auto bare = Run("SELECT " + min + " / -1, " + min + " % -1");
  ASSERT_EQ(bare.size(), 1u);
  EXPECT_EQ(bare[0].rows[0][0].AsInt().value(), kMin);
  EXPECT_EQ(bare[0].rows[0][1].AsInt().value(), 0);
  Run("CREATE TABLE bt (id BIGINT, v BIGINT)");
  Run("INSERT INTO bt VALUES (1, " + min + "), (2, 7)");
  for (int batch : {1, 1024}) {
    executor_.set_batch_rows(batch);
    auto rs = Run("SELECT v / -1, v % -1 FROM bt");
    ASSERT_EQ(rs.size(), 1u);
    ASSERT_EQ(rs[0].rows.size(), 2u);
    EXPECT_EQ(rs[0].rows[0][0].AsInt().value(), kMin) << "batch=" << batch;
    EXPECT_EQ(rs[0].rows[0][1].AsInt().value(), 0) << "batch=" << batch;
    EXPECT_EQ(rs[0].rows[1][0].AsInt().value(), -7) << "batch=" << batch;
  }
  executor_.set_batch_rows(1024);
}

TEST_F(SessionTest, PaperExampleConcatAggregate) {
  // Sec. 5.1: assemble an array from rows with the Concat UDA.
  Run("CREATE TABLE cells (id BIGINT, ix BIGINT, v FLOAT)");
  Run("INSERT INTO cells VALUES (1, 0, 10.0), (2, 1, 11.0), (3, 2, 12.0), "
      "(4, 3, 13.0)");
  Run("DECLARE @l VARBINARY(100) = IntArray.Vector_1(4)");
  Run("DECLARE @a VARBINARY(MAX)");
  Run("SELECT @a = FloatArrayMax.Concat(@l, ix, v) FROM cells");
  OwnedArray a = VarArray("a");
  EXPECT_EQ(a.dims(), (Dims{4}));
  EXPECT_EQ(a.ref().GetDouble(2).value(), 12.0);
}

TEST_F(SessionTest, ReaderStyleConcatQueryMatchesUda) {
  Run("CREATE TABLE cells2 (id BIGINT, ix BIGINT, v FLOAT)");
  Run("INSERT INTO cells2 VALUES (1, 0, 5.0), (2, 1, 6.0), (3, 2, 7.0)");
  Run("DECLARE @l VARBINARY(100) = IntArray.Vector_1(3)");
  Run("DECLARE @u VARBINARY(MAX)");
  Run("DECLARE @r VARBINARY(MAX)");
  Run("SELECT @u = FloatArrayMax.Concat(@l, ix, v) FROM cells2");
  Run("SET @r = FloatArrayMax.ConcatQuery(@l, "
      "'SELECT ix, v FROM cells2')");
  OwnedArray u = VarArray("u");
  OwnedArray r = VarArray("r");
  ASSERT_EQ(u.dims(), r.dims());
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(u.ref().GetDouble(i).value(), r.ref().GetDouble(i).value());
  }
}

TEST_F(SessionTest, ConcatQueryRunsExactlyOneReadingSelect) {
  // The subquery runs inside the statement that calls it, so it may only
  // read: a write, a second statement or an assignment would change the
  // session under that statement.
  Run("CREATE TABLE cells3 (id BIGINT, ix BIGINT, v FLOAT)");
  Run("INSERT INTO cells3 VALUES (1, 0, 5.0), (2, 1, 6.0), (3, 2, 7.0)");
  Run("DECLARE @l VARBINARY(100) = IntArray.Vector_1(3)");
  Run("DECLARE @x FLOAT = 1.0");
  Run("DECLARE @r VARBINARY(MAX)");
  for (const std::string text :
       {"DELETE FROM cells3 WHERE id = 1; SELECT ix, v FROM cells3",
        "DECLARE @y FLOAT",
        "SELECT ix, v FROM cells3; SELECT ix, v FROM cells3",
        "SELECT @x = v FROM cells3"}) {
    auto r = session_.Execute("SET @r = FloatArrayMax.ConcatQuery(@l, '" +
                              text + "')");
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << text;
  }
  auto count = Run("SELECT COUNT(*) FROM cells3");
  EXPECT_EQ(count[0].ScalarResult().value().AsInt().value(), 3);
  EXPECT_EQ(session_.GetVariable("x").value().AsDouble().value(), 1.0);
  EXPECT_FALSE(session_.GetVariable("y").ok());
}

TEST_F(SessionTest, EveryStatementReportsItsOwnStats) {
  Run("CREATE TABLE st (id BIGINT, v FLOAT)");
  Run("INSERT INTO st VALUES (1, 1.0), (2, 2.0), (3, 3.0)");
  Run("SELECT SUM(v) FROM st");
  EXPECT_EQ(session_.last_stats().rows_scanned, 3);
  // The VALUES row calls two hosted functions and scans nothing.
  Run("INSERT INTO st VALUES "
      "(4, FloatArray.Item_1(FloatArray.Vector_2(1.0, 2.0), 1))");
  EXPECT_EQ(session_.last_stats().rows_scanned, 0);
  EXPECT_EQ(session_.last_stats().udf_calls, 2);
  Run("SELECT SUM(v) FROM st");
  EXPECT_EQ(session_.last_stats().rows_scanned, 4);
  Run("DECLARE @a VARBINARY(100) = FloatArray.Vector_2(1.0, 2.0)");
  EXPECT_EQ(session_.last_stats().rows_scanned, 0);
  EXPECT_EQ(session_.last_stats().udf_calls, 1);
}

TEST_F(SessionTest, SubscriptSugarReadsAndSlices) {
  Run("DECLARE @a VARBINARY(100) = FloatArray.Vector_5(10, 20, 30, 40, 50)");
  auto results = Run("SELECT @a[3]");
  EXPECT_EQ(results[0].ScalarResult().value().AsDouble().value(), 40.0);

  Run("DECLARE @m VARBINARY(100) = FloatArray.Matrix_2(1, 2, 3, 4)");
  auto item = Run("SELECT @m[1, 1]");
  EXPECT_EQ(item[0].ScalarResult().value().AsDouble().value(), 4.0);

  // Slice: first column of the matrix as a vector.
  Run("DECLARE @col VARBINARY(100)");
  Run("SET @col = @m[0:2, 0]");
  OwnedArray col = VarArray("col");
  EXPECT_EQ(col.dims(), (Dims{2}));
  EXPECT_EQ(col.ref().GetDouble(1).value(), 2.0);
}

TEST_F(SessionTest, SubscriptSugarAssignment) {
  Run("DECLARE @a VARBINARY(100) = FloatArray.Vector_3(1, 2, 3)");
  Run("SET @a[1] = 99");
  auto results = Run("SELECT @a[1]");
  EXPECT_EQ(results[0].ScalarResult().value().AsDouble().value(), 99.0);
}

TEST_F(SessionTest, ArrayStringAndIntrospection) {
  Run("DECLARE @a VARBINARY(100) = FloatArray.Vector_3(1, 2, 3)");
  auto rank = Run("SELECT Array.Rank(@a)");
  EXPECT_EQ(rank[0].ScalarResult().value().AsInt().value(), 1);
  auto len = Run("SELECT Array.Length(@a)");
  EXPECT_EQ(len[0].ScalarResult().value().AsInt().value(), 3);
  auto name = Run("SELECT Array.TypeName(@a)");
  EXPECT_EQ(name[0].ScalarResult().value().AsString().value(), "float64");
}

TEST_F(SessionTest, ErrorsSurfaceCleanly) {
  EXPECT_FALSE(session_.Execute("SET @undeclared = 1").ok());
  EXPECT_FALSE(session_.Execute("SELECT * FROM missing_table").ok());
  EXPECT_FALSE(session_.Execute("SELECT Bogus.Func(1)").ok());
  Run("DECLARE @a VARBINARY(100) = FloatArray.Vector_2(1, 2)");
  // Out-of-bounds item is a runtime error.
  EXPECT_FALSE(session_.Execute("SELECT FloatArray.Item_1(@a, 7)").ok());
}

TEST_F(SessionTest, TypeMismatchDetectedAtRuntime) {
  // Paper Sec. 3.5: passing a blob to the wrong schema's function fails.
  Run("DECLARE @a VARBINARY(100) = FloatArray.Vector_2(1, 2)");
  EXPECT_FALSE(session_.Execute("SELECT IntArray.Item_1(@a, 0)").ok());
  EXPECT_FALSE(
      session_.Execute("SELECT FloatArrayMax.Item_1(@a, 0)").ok());
}

TEST_F(SessionTest, GroupByInSql) {
  Run("CREATE TABLE g (id BIGINT, k BIGINT, v FLOAT)");
  Run("INSERT INTO g VALUES (1, 0, 1.0), (2, 1, 2.0), (3, 0, 3.0), "
      "(4, 1, 4.0)");
  auto results = Run("SELECT k, SUM(v) FROM g GROUP BY k");
  ASSERT_EQ(results[0].rows.size(), 2u);
  double total = 0;
  for (const auto& row : results[0].rows) {
    total += row[1].AsDouble().value();
  }
  EXPECT_EQ(total, 10.0);
}

TEST_F(SessionTest, GroupKeysDoNotCollide) {
  Run("CREATE TABLE g2 (id BIGINT, a VARBINARY(8), b VARBINARY(8))");
  // Both (a, b) pairs concatenate to the same bytes once each value is
  // followed by the key separator 0x1f; they are still two groups.
  Run("INSERT INTO g2 VALUES (1, 0x41, 0x421f0343), (2, 0x411f0342, 0x43)");
  Run("CREATE TABLE gz (id BIGINT, v FLOAT)");
  Run("INSERT INTO gz VALUES (1, -0.0), (2, 0.0), (3, 0.0)");
  for (int batch_rows : {1, 1024}) {
    SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows));
    executor_.set_batch_rows(batch_rows);
    auto pairs = Run("SELECT a, b, COUNT(*) FROM g2 GROUP BY a, b");
    ASSERT_EQ(pairs[0].rows.size(), 2u);
    for (const auto& row : pairs[0].rows) {
      EXPECT_EQ(row[2].AsInt().value(), 1);
    }
    // -0.0 = 0.0, so the zeros are one group, as WHERE keeps them alike.
    auto kept = Run("SELECT COUNT(*) FROM gz WHERE v = 0");
    EXPECT_EQ(kept[0].ScalarResult().value().AsInt().value(), 3);
    auto zeros = Run("SELECT COUNT(*) FROM gz GROUP BY v");
    ASSERT_EQ(zeros[0].rows.size(), 1u);
    EXPECT_EQ(zeros[0].rows[0][0].AsInt().value(), 3);
  }
}

TEST_F(SessionTest, TableValuedFunctionExplodesArray) {
  // Sec. 5.1: "Arrays can be converted to tables by various table-valued
  // functions, e.g. ToTable, MatrixToTable etc."
  Run("DECLARE @a VARBINARY(100) = FloatArray.Vector_4(10, 20, 30, 40)");
  auto rows = Run("SELECT ix, v FROM FloatArray.ToTable(@a)");
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].rows.size(), 4u);
  EXPECT_EQ(rows[0].rows[2][0].AsInt().value(), 2);
  EXPECT_EQ(rows[0].rows[2][1].AsDouble().value(), 30.0);
}

TEST_F(SessionTest, MatrixToTableYieldsTwoIndexColumns) {
  Run("DECLARE @m VARBINARY(100) = FloatArray.Matrix_2(1, 2, 3, 4)");
  auto rows = Run("SELECT ix, iy, v FROM FloatArray.MatrixToTable(@m)");
  ASSERT_EQ(rows[0].rows.size(), 4u);
  // Column-major: second row is (1, 0, 2.0).
  EXPECT_EQ(rows[0].rows[1][0].AsInt().value(), 1);
  EXPECT_EQ(rows[0].rows[1][1].AsInt().value(), 0);
  EXPECT_EQ(rows[0].rows[1][2].AsDouble().value(), 2.0);
}

TEST_F(SessionTest, TvfWithAggregatesAndWhere) {
  Run("DECLARE @a VARBINARY(100) = FloatArray.Vector_5(1, 2, 3, 4, 5)");
  auto sum = Run("SELECT SUM(v) FROM FloatArray.ToTable(@a) WHERE ix >= 2");
  EXPECT_EQ(sum[0].ScalarResult().value().AsDouble().value(), 12.0);
  auto count = Run("SELECT COUNT(*) FROM FloatArray.ToTable(@a)");
  EXPECT_EQ(count[0].ScalarResult().value().AsInt().value(), 5);
}

TEST_F(SessionTest, TvfRoundTripThroughConcat) {
  // Explode an array to rows and reassemble it with the Concat aggregate.
  Run("DECLARE @a VARBINARY(100) = FloatArray.Vector_3(7, 8, 9)");
  Run("DECLARE @dims VARBINARY(100) = IntArray.Vector_1(3)");
  Run("DECLARE @back VARBINARY(MAX)");
  Run("SELECT @back = FloatArrayMax.Concat(@dims, ix, v) "
      "FROM FloatArray.ToTable(@a)");
  OwnedArray back = VarArray("back");
  EXPECT_EQ(back.dims(), (Dims{3}));
  EXPECT_EQ(back.ref().GetDouble(2).value(), 9.0);
}

TEST_F(SessionTest, TvfErrors) {
  Run("DECLARE @a VARBINARY(100) = FloatArray.Vector_3(1, 2, 3)");
  // Wrong rank for MatrixToTable.
  EXPECT_FALSE(
      session_.Execute("SELECT v FROM FloatArray.MatrixToTable(@a)").ok());
  // Wrong schema.
  EXPECT_FALSE(
      session_.Execute("SELECT v FROM IntArray.ToTable(@a)").ok());
  // Unknown TVF.
  EXPECT_FALSE(
      session_.Execute("SELECT v FROM FloatArray.NoSuchTvf(@a)").ok());
  // Wrong arity.
  EXPECT_FALSE(
      session_.Execute("SELECT v FROM FloatArray.ToTable(@a, 1)").ok());
}

TEST_F(SessionTest, InsertIntoSelectCopiesAndTransforms) {
  Run("CREATE TABLE src (id BIGINT, v FLOAT)");
  Run("INSERT INTO src VALUES (1, 1.5), (2, 2.5), (3, 3.5)");
  Run("CREATE TABLE dst (id BIGINT, doubled FLOAT)");
  Run("INSERT INTO dst SELECT id, v * 2 FROM src");
  auto rows = Run("SELECT doubled FROM dst ORDER BY 1");
  ASSERT_EQ(rows[0].rows.size(), 3u);
  EXPECT_EQ(rows[0].rows[0][0].AsDouble().value(), 3.0);
  EXPECT_EQ(rows[0].rows[2][0].AsDouble().value(), 7.0);
}

TEST_F(SessionTest, InsertIntoSelectBuildsVectorTable) {
  // The paper's own test setup, server-side: pack scalar columns into a
  // vector column with one INSERT ... SELECT.
  Run("CREATE TABLE scalars (id BIGINT, v1 FLOAT, v2 FLOAT)");
  Run("INSERT INTO scalars VALUES (1, 1.0, 2.0), (2, 3.0, 4.0)");
  Run("CREATE TABLE vectors (id BIGINT, v VARBINARY(64))");
  Run("INSERT INTO vectors SELECT id, FloatArray.Vector_2(v1, v2) "
      "FROM scalars");
  auto item =
      Run("SELECT SUM(FloatArray.Item_1(v, 1)) FROM vectors");
  EXPECT_EQ(item[0].ScalarResult().value().AsDouble().value(), 6.0);
}

TEST_F(SessionTest, InsertIntoSelectValidation) {
  Run("CREATE TABLE a2 (id BIGINT, v FLOAT)");
  Run("CREATE TABLE b2 (id BIGINT)");
  Run("INSERT INTO a2 VALUES (1, 1.0)");
  // Arity mismatch.
  EXPECT_FALSE(session_.Execute("INSERT INTO b2 SELECT id, v FROM a2").ok());
  // Duplicate keys from the source.
  Run("INSERT INTO b2 SELECT id FROM a2");
  EXPECT_FALSE(session_.Execute("INSERT INTO b2 SELECT id FROM a2").ok());
}

TEST_F(SessionTest, DeleteFromWithWhere) {
  Run("CREATE TABLE d (id BIGINT, v FLOAT)");
  Run("INSERT INTO d VALUES (1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0)");
  Run("DELETE FROM d WHERE v > 2.5");
  auto rows = Run("SELECT COUNT(*), SUM(v) FROM d");
  EXPECT_EQ(rows[0].rows[0][0].AsInt().value(), 2);
  EXPECT_EQ(rows[0].rows[0][1].AsDouble().value(), 3.0);

  // Unconditional delete empties the table; reinsertion works.
  Run("DELETE FROM d");
  auto empty = Run("SELECT COUNT(*) FROM d");
  EXPECT_EQ(empty[0].ScalarResult().value().AsInt().value(), 0);
  Run("INSERT INTO d VALUES (1, 9.0)");
  auto one = Run("SELECT COUNT(*) FROM d");
  EXPECT_EQ(one[0].ScalarResult().value().AsInt().value(), 1);
  EXPECT_FALSE(session_.Execute("DELETE FROM missing").ok());
}

TEST_F(SessionTest, OrderByOrdinalAndLabel) {
  Run("CREATE TABLE o (id BIGINT, v FLOAT)");
  Run("INSERT INTO o VALUES (1, 3.0), (2, 1.0), (3, 2.0)");
  auto asc = Run("SELECT id, v AS val FROM o ORDER BY 2");
  ASSERT_EQ(asc[0].rows.size(), 3u);
  EXPECT_EQ(asc[0].rows[0][0].AsInt().value(), 2);
  EXPECT_EQ(asc[0].rows[2][0].AsInt().value(), 1);

  auto desc = Run("SELECT id, v AS val FROM o ORDER BY val DESC");
  EXPECT_EQ(desc[0].rows[0][0].AsInt().value(), 1);

  auto grouped = Run(
      "SELECT id % 2, COUNT(*) FROM o GROUP BY id % 2 ORDER BY 1 DESC");
  EXPECT_EQ(grouped[0].rows[0][0].AsInt().value(), 1);
  EXPECT_EQ(grouped[0].rows[1][0].AsInt().value(), 0);

  EXPECT_FALSE(session_.Execute("SELECT id FROM o ORDER BY 5").ok());
  EXPECT_FALSE(session_.Execute("SELECT id FROM o ORDER BY nope").ok());
}

TEST_F(SessionTest, OrderByMultipleKeys) {
  Run("CREATE TABLE m (id BIGINT, a BIGINT, b FLOAT)");
  Run("INSERT INTO m VALUES (1, 1, 2.0), (2, 0, 9.0), (3, 1, 1.0), "
      "(4, 0, 3.0)");
  auto rows = Run("SELECT a, b, id FROM m ORDER BY 1, 2 DESC");
  // a ascending, then b descending within each a.
  EXPECT_EQ(rows[0].rows[0][2].AsInt().value(), 2);  // (0, 9)
  EXPECT_EQ(rows[0].rows[1][2].AsInt().value(), 4);  // (0, 3)
  EXPECT_EQ(rows[0].rows[2][2].AsInt().value(), 1);  // (1, 2)
  EXPECT_EQ(rows[0].rows[3][2].AsInt().value(), 3);  // (1, 1)
}

TEST_F(SessionTest, MathUdfsFromSql) {
  Run("DECLARE @v VARBINARY(MAX) = "
      "FloatArrayMax.From(FloatArray.Vector_4(1, 2, 3, 4))");
  Run("DECLARE @f VARBINARY(MAX)");
  Run("SET @f = FloatArrayMax.FFTForward(@v)");
  OwnedArray f = VarArray("f");
  EXPECT_EQ(f.dtype(), DType::kComplex128);
  // DC bin = sum of inputs.
  EXPECT_NEAR(f.ref().GetComplex(0).value().real(), 10.0, 1e-9);
}

TEST_F(SessionTest, StorageCorruptionSurfacesAsSessionError) {
  // A rotted page under a query must come back to the client as a
  // kCorruption status naming the page — never a crash or a wrong answer.
  Run("CREATE TABLE rot (id BIGINT, v FLOAT)");
  for (int k = 0; k < 40; ++k) {
    Run("INSERT INTO rot VALUES (" + std::to_string(k) + ", 1.5)");
  }
  storage::Table* table = db_.GetTable("rot").value();
  storage::PageId leaf = table->clustered_index().first_leaf_page();
  db_.ClearCache();
  ASSERT_TRUE(db_.disk()->CorruptPageByte(leaf, 200).ok());

  auto r = session_.Execute("SELECT SUM(v) FROM rot");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_NE(r.status().message().find(std::to_string(leaf)),
            std::string::npos)
      << r.status().ToString();

  // Repairing the disk restores service in the same session.
  db_.ClearCache();
  ASSERT_TRUE(db_.disk()->CorruptPageByte(leaf, 200).ok());  // XOR undoes it
  auto ok = session_.Execute("SELECT SUM(v) FROM rot");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value()[0].ScalarResult().value().AsDouble().value(), 60.0);
}

TEST_F(SessionTest, GroupByMaxArrayKeysByValue) {
  // Out-of-page VARBINARY(MAX) keys group by their bytes, exactly like
  // inline VARBINARY keys: two equal arrays share a group, distinct arrays
  // do not.
  Run("CREATE TABLE mx (id BIGINT, m VARBINARY(MAX))");
  Run("INSERT INTO mx VALUES (1, FloatArrayMax.Vector_3(1, 2, 3)), "
      "(2, FloatArrayMax.Vector_3(4, 5, 6)), "
      "(3, FloatArrayMax.Vector_3(1, 2, 3)), "
      "(4, FloatArrayMax.Vector_3(7, 8, 9))");
  auto results = Run("SELECT COUNT(*) FROM mx GROUP BY m");
  ASSERT_EQ(results.size(), 1u);
  std::vector<int64_t> counts;
  for (const auto& row : results[0].rows) {
    counts.push_back(row[0].AsInt().value());
  }
  std::sort(counts.begin(), counts.end());
  EXPECT_EQ(counts, (std::vector<int64_t>{1, 1, 2}));

  // Each group's key column reads back the group's own array.
  auto keyed = Run(
      "SELECT FloatArrayMax.Item_1(m, 0), COUNT(*) FROM mx GROUP BY m "
      "ORDER BY 1");
  ASSERT_EQ(keyed[0].rows.size(), 3u);
  EXPECT_EQ(keyed[0].rows[0][0].AsDouble().value(), 1.0);
  EXPECT_EQ(keyed[0].rows[0][1].AsInt().value(), 2);
  EXPECT_EQ(keyed[0].rows[2][0].AsDouble().value(), 7.0);
}

TEST_F(SessionTest, SelectStarExpandsTableColumns) {
  Run("CREATE TABLE st (id BIGINT, v FLOAT)");
  Run("INSERT INTO st VALUES (1, 1.5), (2, 2.5)");
  auto results = Run("SELECT * FROM st WHERE id >= 1");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].columns, (std::vector<std::string>{"id", "v"}));
  ASSERT_EQ(results[0].rows.size(), 2u);
  EXPECT_EQ(results[0].rows[1][0].AsInt().value(), 2);
  EXPECT_EQ(results[0].rows[1][1].AsDouble().value(), 2.5);

  // A FROM-less SELECT has no columns to expand, and an assignment SELECT
  // binds each item to one variable.
  auto bare = session_.Execute("SELECT *");
  ASSERT_FALSE(bare.ok());
  EXPECT_EQ(bare.status().code(), StatusCode::kInvalidArgument);
  Run("DECLARE @x BIGINT");
  auto assign = session_.Execute("SELECT @x = * FROM st");
  ASSERT_FALSE(assign.ok());
  EXPECT_EQ(assign.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SessionTest, SelectStarExpandsTvfColumns) {
  Run("DECLARE @a VARBINARY(100) = FloatArray.Vector_5(10, 20, 30, 40, 50)");
  auto results = Run("SELECT * FROM FloatArray.ToTable(@a)");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].columns, (std::vector<std::string>{"ix", "v"}));
  ASSERT_EQ(results[0].rows.size(), 5u);
  EXPECT_EQ(results[0].rows[3][0].AsInt().value(), 3);
  EXPECT_EQ(results[0].rows[3][1].AsDouble().value(), 40.0);
}

// ---------------------------------------------------------------------------
// Scan-pipeline differentials for the shapes outside the morsel-eligible
// set: a reader-style UDF called per row, the Concat UDA, and a TVF source.
// Every (batch, workers) configuration must reproduce the batch-1 /
// 1-worker run: the result bit for bit, rows_scanned, and the modeled CPU.
// ---------------------------------------------------------------------------

class ScanShapeTest : public SessionTest {
 protected:
  ScanShapeTest() {
    // Let small tables really fan out at 8 workers (the pages-per-worker
    // floor would otherwise keep every scan here inline).
    executor_.set_min_pages_per_worker(0);
  }

  /// Column labels plus kind tag and exact payload bytes of every value.
  static std::string Fingerprint(const engine::ResultSet& rs) {
    std::string out;
    for (const std::string& c : rs.columns) out += c + ";";
    for (const auto& row : rs.rows) {
      for (const Value& v : row) {
        out.push_back(static_cast<char>(v.kind()));
        if (v.kind() == Value::Kind::kInt64) {
          const int64_t x = v.AsInt().value();
          out.append(reinterpret_cast<const char*>(&x), sizeof(x));
        } else if (v.kind() == Value::Kind::kFloat64) {
          const double d = v.AsDouble().value();
          out.append(reinterpret_cast<const char*>(&d), sizeof(d));
        } else if (v.kind() == Value::Kind::kString) {
          out += v.AsString().value();
        } else if (!v.is_null()) {
          const std::vector<uint8_t> b = v.MaterializeBytes().value();
          out.append(reinterpret_cast<const char*>(b.data()), b.size());
        }
        out.push_back('|');
      }
      out.push_back('\n');
    }
    return out;
  }

  struct Outcome {
    std::string fingerprint;
    int64_t rows_scanned = 0;
    double cpu_core_seconds = 0;
  };

  Outcome RunAt(const std::string& sqltext, int batch, int workers) {
    executor_.set_batch_rows(batch);
    executor_.set_scan_workers(workers);
    auto results = Run(sqltext);
    executor_.set_batch_rows(1024);
    executor_.set_scan_workers(1);
    Outcome o;
    if (results.size() != 1) return o;
    o.fingerprint = Fingerprint(results[0]);
    o.rows_scanned = results[0].stats.rows_scanned;
    o.cpu_core_seconds = results[0].stats.cpu_core_seconds;
    return o;
  }

  /// Runs `sqltext` at batch {1, 3, 1024} x workers {1, 2, 8} against the
  /// batch-1 / 1-worker reference and returns that reference. Modeled CPU
  /// is an exact ledger, so it matches bit for bit.
  Outcome ExpectConfigsMatch(const std::string& sqltext) {
    const Outcome base = RunAt(sqltext, 1, 1);
    EXPECT_FALSE(base.fingerprint.empty()) << sqltext;
    for (int batch : {1, 3, 1024}) {
      for (int workers : {1, 2, 8}) {
        const Outcome got = RunAt(sqltext, batch, workers);
        EXPECT_EQ(got.fingerprint, base.fingerprint)
            << sqltext << " batch=" << batch << " workers=" << workers;
        EXPECT_EQ(got.rows_scanned, base.rows_scanned)
            << sqltext << " batch=" << batch << " workers=" << workers;
        EXPECT_EQ(got.cpu_core_seconds, base.cpu_core_seconds)
            << sqltext << " batch=" << batch << " workers=" << workers;
      }
    }
    return base;
  }

  /// Creates `name (id BIGINT, ix BIGINT, v FLOAT)` with rows
  /// (i, i, i + 5) for i in [0, rows).
  void MakeCells(const std::string& name, int64_t rows) {
    Run("CREATE TABLE " + name + " (id BIGINT, ix BIGINT, v FLOAT)");
    for (int64_t start = 0; start < rows; start += 1000) {
      std::string values;
      for (int64_t i = start; i < std::min(rows, start + 1000); ++i) {
        if (!values.empty()) values += ", ";
        const std::string s = std::to_string(i);
        values += "(" + s + ", " + s + ", " + std::to_string(i + 5) + ".0)";
      }
      Run("INSERT INTO " + name + " VALUES " + values);
    }
  }
};

TEST_F(ScanShapeTest, ReaderUdfPerRowAggregateAndProjection) {
  // The outer scan calls ConcatQuery on every row, so it runs inline; the
  // nested statement scans a table of several morsels and may itself fan
  // out to the worker pool.
  MakeCells("cells", 6000);
  Run("CREATE TABLE outer3 (id BIGINT)");
  Run("INSERT INTO outer3 VALUES (0), (1), (2)");
  Run("DECLARE @l VARBINARY(100) = IntArray.Vector_1(6000)");
  const std::string concat =
      "FloatArrayMax.ConcatQuery(@l, 'SELECT ix, v FROM cells')";

  const Outcome agg = ExpectConfigsMatch(
      "SELECT SUM(FloatArrayMax.Item_1(" + concat + ", 1)), COUNT(*) "
      "FROM outer3");
  auto check = Run("SELECT SUM(FloatArrayMax.Item_1(" + concat +
                   ", 1)), COUNT(*) FROM outer3");
  ASSERT_EQ(check[0].rows.size(), 1u);
  EXPECT_EQ(check[0].rows[0][0].AsDouble().value(), 18.0);
  EXPECT_EQ(check[0].rows[0][1].AsInt().value(), 3);
  // Three outer rows plus three nested scans of the cell table.
  EXPECT_EQ(agg.rows_scanned, 3 + 3 * 6000);

  ExpectConfigsMatch("SELECT id, FloatArrayMax.Item_1(" + concat +
                     ", id) FROM outer3 WHERE id >= 1");
}

TEST_F(ScanShapeTest, ConcatUdaUngroupedGroupedAndEmpty) {
  MakeCells("ucells", 500);
  Run("DECLARE @l VARBINARY(100) = IntArray.Vector_1(500)");
  ExpectConfigsMatch(
      "SELECT FloatArrayMax.Concat(@l, ix, v) FROM ucells WHERE id % 7 <> 3");
  ExpectConfigsMatch(
      "SELECT id % 3, FloatArrayMax.Concat(@l, ix, v), COUNT(*) FROM ucells "
      "GROUP BY id % 3");

  // An empty input still yields the aggregate's one row, NULL.
  Run("CREATE TABLE ucells_empty (id BIGINT, ix BIGINT, v FLOAT)");
  const std::string empty =
      "SELECT FloatArrayMax.Concat(@l, ix, v) FROM ucells_empty";
  ExpectConfigsMatch(empty);
  auto rs = Run(empty);
  ASSERT_EQ(rs[0].rows.size(), 1u);
  EXPECT_TRUE(rs[0].rows[0][0].is_null());
}

TEST_F(ScanShapeTest, ToTableSourceWithFilterAggregateGroupByAndTop) {
  Run("DECLARE @a VARBINARY(100) = "
      "FloatArray.Vector_6(1.5, 2.25, 3.0, 4.125, 5.0, 0.1)");
  const std::string src = " FROM FloatArray.ToTable(@a)";
  ExpectConfigsMatch("SELECT ix, v" + src + " WHERE v > 2");
  ExpectConfigsMatch("SELECT SUM(v), COUNT(*), MIN(ix)" + src +
                     " WHERE ix >= 1");
  ExpectConfigsMatch("SELECT ix % 2, SUM(v), COUNT(*)" + src +
                     " GROUP BY ix % 2");
  const Outcome top = ExpectConfigsMatch("SELECT TOP 2 ix, v" + src +
                                         " WHERE ix > 0");
  // TOP stops the scan once it has its rows.
  EXPECT_EQ(top.rows_scanned, 3);
}

TEST_F(ScanShapeTest, NonLaneExpressionsInBatchedBodies) {
  // Expressions no columnar program covers (UDF calls, binary and
  // VARBINARY(MAX) columns) run through the row evaluator inside the
  // batched bodies: in a WHERE, an aggregate argument, a first-kept-row
  // plain item and a projection item. Each must reproduce batch 1.
  MakeCells("lane_src", 5000);
  Run("CREATE TABLE arr (id BIGINT, x FLOAT, v VARBINARY(64))");
  Run("INSERT INTO arr SELECT id, (id % 7) * 0.5, "
      "FloatArray.Vector_2((id % 7) * 0.5, id) FROM lane_src");
  Run("CREATE TABLE marr (id BIGINT, m VARBINARY(MAX))");
  Run("INSERT INTO marr SELECT id, FloatArrayMax.Vector_2(v, ix) "
      "FROM lane_src WHERE id < 1300");

  // A WHERE that is only a call keeps the rows with id % 7 == 6.
  const std::string only_call =
      "SELECT id, x FROM arr WHERE FloatArray.Item_1(v, 0) > 2.5";
  ExpectConfigsMatch(only_call);
  EXPECT_EQ(Run(only_call)[0].rows.size(), 5000u / 7);

  // A mixed WHERE: a lane comparison ANDed with a call.
  const std::string mixed =
      "SELECT id, FloatArray.Item_1(v, 0) FROM arr "
      "WHERE id >= 10 AND FloatArray.Item_1(v, 1) < 40";
  ExpectConfigsMatch(mixed);
  EXPECT_EQ(Run(mixed)[0].rows.size(), 30u);

  // An ungrouped aggregate whose plain item is a call takes it from the
  // first kept row (id 2000, in the middle of the second 1024-row batch).
  const std::string agg =
      "SELECT FloatArray.Item_1(v, 1), SUM(FloatArray.Item_1(v, 0)), "
      "COUNT(*) FROM arr WHERE id >= 2000";
  ExpectConfigsMatch(agg);
  auto agg_rs = Run(agg);
  ASSERT_EQ(agg_rs[0].rows.size(), 1u);
  EXPECT_EQ(agg_rs[0].rows[0][0].AsDouble().value(), 2000.0);
  EXPECT_EQ(agg_rs[0].rows[0][2].AsInt().value(), 3000);

  // Projections of the binary column, of a call returning bytes, and of a
  // VARBINARY(MAX) column.
  ExpectConfigsMatch(
      "SELECT v, FloatArray.Scale(v, 2), x FROM arr WHERE id % 3 = 0");
  ExpectConfigsMatch("SELECT id, m FROM marr WHERE id % 2 = 1");
  ExpectConfigsMatch("SELECT m, FloatArrayMax.Item_1(m, 1) FROM marr");

  // A call filter that keeps no rows in the middle batches, feeding a
  // projection and an aggregate.
  const std::string gaps =
      " FROM arr WHERE FloatArray.Item_1(v, 1) < 100 OR id >= 4900";
  ExpectConfigsMatch("SELECT id, FloatArray.Item_1(v, 0)" + gaps);
  auto gap_rs = Run("SELECT SUM(x), COUNT(*), MAX(FloatArray.Item_1(v, 1))" +
                    gaps);
  ASSERT_EQ(gap_rs[0].rows.size(), 1u);
  EXPECT_EQ(gap_rs[0].rows[0][1].AsInt().value(), 200);
  EXPECT_EQ(gap_rs[0].rows[0][2].AsDouble().value(), 4999.0);
  ExpectConfigsMatch(
      "SELECT SUM(x), COUNT(*), MAX(FloatArray.Item_1(v, 1))" + gaps);
}

// ---------------------------------------------------------------------------
// Key predicates: every WHERE runs as written and with `(id + 0)` in place of
// the key column. No access path can use the second form, so it reads every
// row; both must give the same answer on every read path the engine has.
// ---------------------------------------------------------------------------

/// Replaces each `$` in `pred` with `key`.
std::string WithKey(const std::string& pred, const std::string& key) {
  std::string out;
  for (char c : pred) {
    if (c == '$') {
      out += key;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// GROUP BY, TOP, TVF and UDA plans read batch_rows rows per block. Each
/// shape runs at batch {1, 3, 1024} x workers {1, 2, 8} against batch 1 at
/// one worker: results bit for bit, every count and the modeled CPU equal,
/// and a failure with the same code and message.
class WidePlanTest : public ScanShapeTest {
 protected:
  static constexpr int kRows = 2400;

  /// wk(id, i, f, s, m): a BIGINT key i = id % 7, a FLOAT f holding -0.0
  /// and 0.0, a short array s = [id % 4, id] and a max array
  /// m = [id % 3, 7]; the wide s column spreads it over several morsels.
  /// @big is a FLOAT vector of kRows elements for the ToTable source.
  void SetUp() override {
    Run("CREATE TABLE wk (id BIGINT, i BIGINT, f FLOAT, s VARBINARY(400), "
        "m VARBINARY(MAX))");
    for (int start = 0; start < kRows; start += 400) {
      std::string values;
      for (int id = start; id < start + 400; ++id) {
        const std::string n = std::to_string(id);
        const std::string f = id % 3 == 0   ? "-0.0"
                              : id % 3 == 1 ? "0.0"
                                            : std::to_string(id % 5) + ".5";
        values += (values.empty() ? "(" : ", (") + n + ", " +
                  std::to_string(id % 7) + ", " + f +
                  ", FloatArray.Vector_2(" + std::to_string(id % 4) + ", " +
                  n + "), FloatArrayMax.Vector_2(" + std::to_string(id % 3) +
                  ", 7))";
      }
      Run("INSERT INTO wk VALUES " + values);
    }
    Run("DECLARE @l VARBINARY(100) = IntArray.Vector_1(" +
        std::to_string(kRows) + ")");
    Run("DECLARE @big VARBINARY(MAX) = NULL");
    Run("SELECT @big = FloatArrayMax.Concat(@l, id, id * 0.5) FROM wk");
  }

  struct Snap {
    bool ok = false;
    std::string payload;  ///< the fingerprint, or the failure
    engine::QueryStats stats;
  };

  Snap At(const std::string& sqltext, int batch, int workers) {
    executor_.set_batch_rows(batch);
    executor_.set_scan_workers(workers);
    db_.ClearCache();
    auto r = session_.Execute(sqltext);
    executor_.set_batch_rows(1024);
    executor_.set_scan_workers(1);
    Snap s;
    s.ok = r.ok();
    if (!r.ok()) {
      s.payload = r.status().ToString();
      return s;
    }
    s.payload = Fingerprint(r.value().back());
    s.stats = r.value().back().stats;
    return s;
  }

  /// Compares every configuration with batch 1 at one worker and returns
  /// that reference. A TOP plan at several workers may scan a morsel that
  /// one worker skips, so its counts are compared at one worker only.
  Snap ExpectWidthsMatch(const std::string& sqltext, bool top = false) {
    SCOPED_TRACE(sqltext);
    const Snap base = At(sqltext, 1, 1);
    for (int batch : {1, 3, 1024}) {
      for (int workers : {1, 2, 8}) {
        SCOPED_TRACE("batch=" + std::to_string(batch) +
                     " workers=" + std::to_string(workers));
        const Snap got = At(sqltext, batch, workers);
        EXPECT_EQ(got.ok, base.ok);
        EXPECT_EQ(got.payload, base.payload);
        if (!base.ok || (top && workers > 1)) continue;
        const engine::QueryStats& a = got.stats;
        const engine::QueryStats& b = base.stats;
        EXPECT_EQ(a.rows_scanned, b.rows_scanned);
        EXPECT_EQ(a.rows_kept, b.rows_kept);
        EXPECT_EQ(a.agg_steps, b.agg_steps);
        EXPECT_EQ(a.udf_calls, b.udf_calls);
        EXPECT_EQ(a.udf_bytes_marshaled, b.udf_bytes_marshaled);
        EXPECT_EQ(a.uda_state_bytes, b.uda_state_bytes);
        EXPECT_EQ(a.io.pages_read, b.io.pages_read);
        EXPECT_EQ(a.cpu_core_seconds, b.cpu_core_seconds);
      }
    }
    return base;
  }
};

TEST_F(WidePlanTest, GroupByKeysOfEveryKind) {
  const std::string aggs = "COUNT(*), SUM(f), MIN(id), MAX(f), AVG(id)";
  for (const char* keys :
       {"i", "f", "s", "m", "NULL", "FloatArray.Item_1(s, 0)",
        "FloatArrayMax.Item_1(m, 0)", "i, f", "s, m", "i, NULL",
        "FloatArray.Item_1(s, 0), FloatArrayMax.Item_1(m, 0)", "f, s"}) {
    const Snap base = ExpectWidthsMatch("SELECT " + std::string(keys) + ", " +
                                        aggs + " FROM wk GROUP BY " + keys);
    ASSERT_TRUE(base.ok) << keys << ": " << base.payload;
  }
  // -0.0 and 0.0 are one group: 1,600 zeros and the 800 rows with id % 3
  // == 2, whose id % 5 gives five values.
  auto zeros = Run("SELECT f, COUNT(*) FROM wk GROUP BY f ORDER BY 2");
  ASSERT_EQ(zeros[0].rows.size(), 6u);
  EXPECT_EQ(zeros[0].rows.back()[1].AsInt().value(), 1600);
  ExpectWidthsMatch("SELECT i, SUM(f) FROM wk WHERE id % 5 <> 2 GROUP BY i");
  ExpectWidthsMatch(
      "SELECT i, COUNT(*) FROM wk WHERE id >= 700 AND id < 1900 GROUP BY i");
}

TEST_F(WidePlanTest, HostedCallsInPlainItemsAndAggregates) {
  // Plain items evaluate on the row that created their group.
  const Snap base = ExpectWidthsMatch(
      "SELECT i, id, FloatArray.Item_1(s, 1), FloatArrayMax.Item_1(m, 0), "
      "SUM(FloatArray.Item_1(s, 1)), SUM(FloatArrayMax.Item_1(m, 0)), "
      "COUNT(FloatArray.Item_1(s, 0)) FROM wk WHERE id > 3 GROUP BY i");
  ASSERT_TRUE(base.ok) << base.payload;
  auto first = Run(
      "SELECT i, id, FloatArray.Item_1(s, 1) FROM wk WHERE id > 3 "
      "GROUP BY i ORDER BY 1");
  ASSERT_EQ(first[0].rows.size(), 7u);
  for (const auto& row : first[0].rows) {
    // Group i's first kept row is the smallest id > 3 with id % 7 == i.
    const int64_t i = row[0].AsInt().value();
    const int64_t id = i > 3 ? i : i + 7;
    EXPECT_EQ(row[1].AsInt().value(), id);
    EXPECT_EQ(row[2].AsDouble().value(), static_cast<double>(id));
  }
  ExpectWidthsMatch(
      "SELECT SUM(FloatArray.Item_1(s, 1)), COUNT(*) FROM wk "
      "GROUP BY FloatArrayMax.Item_1(m, 0), i");
  // Consecutive rows share these groups, so a block folds runs of them.
  ExpectWidthsMatch(
      "SELECT id / 100, id, FloatArray.Item_1(s, 1), COUNT(*), "
      "SUM(FloatArray.Item_1(s, 1)) FROM wk WHERE id % 3 <> 0 "
      "GROUP BY id / 100");
}

TEST_F(WidePlanTest, FailureOnOneRowIsTheSameAtEveryWidth) {
  for (const std::string& sqltext :
       {std::string("SELECT i, SUM(10 / (id - 1234)) FROM wk GROUP BY i"),
        std::string("SELECT COUNT(*) FROM wk GROUP BY 10 / (id - 1234)"),
        std::string("SELECT COUNT(*) FROM wk "
                    "GROUP BY FloatArray.Item_1(s, (id % 1234) / 1233 * 5)"),
        std::string("SELECT i, SUM(FloatArrayMax.Item_1(m, "
                    "(id % 1234) / 1233 * 5)) FROM wk GROUP BY i"),
        std::string("SELECT TOP 2000 id, 10 / (id - 1234) FROM wk"),
        std::string("SELECT ix, 10 / (ix - 1234) "
                    "FROM FloatArrayMax.ToTable(@big)")}) {
    const Snap base = ExpectWidthsMatch(sqltext);
    EXPECT_FALSE(base.ok) << sqltext;
  }
}

TEST_F(WidePlanTest, UdaPlansFoldWideBlocks) {
  // A UDA folds each group's rows in row order at every width, next to a
  // plain item and a SUM over a hosted call, under a compiled WHERE.
  const std::string items =
      "id, FloatArrayMax.Concat(@l, id, f), SUM(FloatArray.Item_1(s, 1))";
  const Snap ungrouped =
      ExpectWidthsMatch("SELECT " + items + " FROM wk WHERE id % 5 <> 2");
  ASSERT_TRUE(ungrouped.ok) << ungrouped.payload;
  const Snap grouped = ExpectWidthsMatch("SELECT i, " + items +
                                         ", COUNT(*) FROM wk "
                                         "WHERE id % 5 <> 2 GROUP BY i");
  ASSERT_TRUE(grouped.ok) << grouped.payload;
  // 1,920 kept rows: one Concat call and one Item_1 call each.
  EXPECT_EQ(grouped.stats.rows_kept, 1920);
  EXPECT_EQ(grouped.stats.udf_calls, 2 * 1920);
  EXPECT_GT(grouped.stats.uda_state_bytes, 0);

  // A UDA argument that fails on one row fails alike at every width.
  for (const std::string& sqltext :
       {std::string("SELECT FloatArrayMax.Concat(@l, id, 10 / (id - 1234)) "
                    "FROM wk WHERE id % 5 <> 2"),
        std::string("SELECT i, FloatArrayMax.Concat(@l, id, "
                    "FloatArray.Item_1(s, (id % 1234) / 1233 * 5)), "
                    "SUM(FloatArray.Item_1(s, 1)) FROM wk GROUP BY i")}) {
    const Snap base = ExpectWidthsMatch(sqltext);
    EXPECT_FALSE(base.ok) << sqltext;
  }
}

TEST_F(WidePlanTest, TopStopsOnTheRowThatCompletesIt) {
  // Within a morsel the scan stops on the row that completes TOP: id 105.
  const Snap first = ExpectWidthsMatch(
      "SELECT TOP 2 id, f FROM wk WHERE id % 100 = 5", true);
  ASSERT_TRUE(first.ok) << first.payload;
  EXPECT_EQ(first.stats.rows_scanned, 106);
  // wk spans at least four 16-page morsels, and the matches at ids 7, 408,
  // 809 and 1210 lie several morsels apart: each morsel before the last
  // reads to its end, and the morsels after it are skipped.
  EXPECT_GE(At("SELECT COUNT(*) FROM wk", 1, 1).stats.io.pages_read, 64);
  const Snap top =
      ExpectWidthsMatch("SELECT TOP 4 id, f FROM wk WHERE id % 401 = 7", true);
  ASSERT_TRUE(top.ok) << top.payload;
  EXPECT_GT(top.stats.rows_scanned, 1210);
  EXPECT_LT(top.stats.rows_scanned, kRows);
  EXPECT_EQ(top.stats.rows_kept, 4);
  ExpectWidthsMatch(
      "SELECT TOP 3 id, FloatArray.Item_1(s, 1) FROM wk "
      "WHERE FloatArray.Item_1(s, 0) = 3 AND id > 1000",
      true);
  ExpectWidthsMatch("SELECT TOP 0 id FROM wk", true);
  ExpectWidthsMatch("SELECT TOP 5000 id FROM wk WHERE id % 2 = 0", true);
  // Over a TVF source, one morsel of materialized rows.
  const Snap tvf = ExpectWidthsMatch(
      "SELECT TOP 4 ix, v FROM FloatArrayMax.ToTable(@big) "
      "WHERE ix % 300 = 299",
      true);
  ASSERT_TRUE(tvf.ok) << tvf.payload;
  EXPECT_EQ(tvf.stats.rows_scanned, 1200);
  ExpectWidthsMatch("SELECT ix % 4, SUM(v), COUNT(*) "
                    "FROM FloatArrayMax.ToTable(@big) GROUP BY ix % 4");
}

TEST_F(ScanShapeTest, KeySeekMatchesForcedScan) {
  // 518-byte rows, 15 to a leaf: 1,000 keys (multiples of 3) fill 67
  // leaves, five morsels of 16 pages. Then the float-boundary keys 2^53,
  // 2^53 + 1 and 2^53 + 2, and both ends of the int64 range.
  std::vector<std::string> load = {
      "CREATE TABLE kt (id BIGINT, v FLOAT, pad VARBINARY(500))"};
  std::string values;
  for (int64_t i = 0; i < 1000; ++i) {
    if (!values.empty()) values += ", ";
    values += "(" + std::to_string(3 * i) + ", " +
              std::to_string((i * 37) % 101) + ".37, 0x00)";
  }
  load.push_back("INSERT INTO kt VALUES " + values);
  load.push_back(
      "INSERT INTO kt VALUES (9007199254740992, 0.5, 0x01), "
      "(9007199254740993, 1.5, 0x02), (9007199254740994, 2.5, 0x03), "
      "(9223372036854775807, 3.5, 0x04), (-9223372036854775807, 4.5, 0x05)");
  // The two cells a reader-style UDF pulls per row.
  load.push_back("CREATE TABLE kq (ix BIGINT, v FLOAT)");
  load.push_back("INSERT INTO kq VALUES (0, 1.25), (1, 2.5)");
  const std::string declare =
      "DECLARE @kbig BIGINT = 9007199254740993; "
      "DECLARE @kfloat FLOAT = 1234.5; DECLARE @kbase BIGINT = 900; "
      "DECLARE @kunset BIGINT; DECLARE @lq VARBINARY(100) = "
      "IntArray.Vector_1(2)";

  // db_ stays single-version for live reads. A second database serves
  // snapshot, transaction, AS OF and DELETE reads: loaded first, then WAL +
  // MVCC attached, so an AS OF view replays a short log over the data disk.
  storage::Database mdb;
  engine::Executor mexec(&mdb, &registry_);
  mexec.set_min_pages_per_worker(0);
  Session loader(&mexec);
  for (Session* s : {&session_, &loader}) {
    for (const std::string& stmt : load) {
      ASSERT_TRUE(s->Execute(stmt).ok()) << stmt;
    }
  }
  wal::WalManager wal(&mdb);
  mvcc::MvccManager mvcc(&mdb, &wal);
  Session msession(&mexec);
  ASSERT_TRUE(session_.Execute(declare).ok());
  ASSERT_TRUE(msession.Execute(declare).ok());
  const storage::Table* live_table = db_.GetTable("kt").value();
  ASSERT_GE(live_table->clustered_index().leaf_page_count(), 4 * 16);
  // One logged commit before the AS OF point, two after it that the AS OF
  // reads must not see.
  ASSERT_TRUE(msession.Execute("INSERT INTO kt VALUES (3000, 8.5, 0x06)").ok());
  const std::string as_of =
      " FROM kt AS OF " + std::to_string(mvcc.visible_lsn());
  ASSERT_TRUE(msession.Execute("INSERT INTO kt VALUES (301, 9.25, 0x07)").ok());
  ASSERT_TRUE(msession.Execute("DELETE FROM kt WHERE id + 0 = 600").ok());

  const std::vector<std::string> preds = {
      "$ = 300",                     // present
      "$ = 302",                     // absent
      "$ = 1.5",                     // no int64 equals it
      "$ < 2.5",
      "3 >= $",
      "$ >= 300 AND $ < 1500",       // several morsels
      "$ >= 1500 AND $ < 300",       // inverted
      "$ >= @kbase AND $ < @kbase + 300",
      "$ = 9007199254740993",        // rounds to 2^53: keys 2^53, 2^53 + 1
      "$ = 9007199254740993.0",
      "$ = 9223372036854775807",
      "$ < -9223372036854775807 + 1",
      "$ = NULL",
      "$ = @kbig",
      "$ <= @kfloat",
      "$ = @kunset",                 // declared, never set: NULL
      "$ = @knone",                  // undeclared: the residual's error
      "$ > 1.0E300",
      "$ = 30 OR $ = 1500",          // OR is not extracted
      "$ >= 30 AND v > 50",
  };
  const std::vector<std::string> shapes = {
      "SELECT SUM(v), COUNT(*), MIN(v), MAX(v)",
      "SELECT id, v",
      "SELECT TOP 7 id, v",
      "SELECT FloatArrayMax.AvgVector(FloatArray.Vector_2(v, v))",  // a UDA
      // A reader-style UDF: one nested statement per kept row.
      "SELECT id, FloatArray.Item_1(FloatArrayMax.ConcatQuery(@lq, "
      "'SELECT ix, v FROM kq'), 1)",
  };

  // The outcome of one batch: its result fingerprints, or its error.
  auto outcome = [](Session* s, const std::string& sqltext) {
    auto r = s->Execute(sqltext);
    if (!r.ok()) return "error: " + r.status().ToString();
    std::string out;
    for (const engine::ResultSet& rs : *r) out += Fingerprint(rs);
    return out;
  };
  auto configure = [&](int batch, int workers) {
    for (engine::Executor* e : {&executor_, &mexec}) {
      e->set_batch_rows(batch);
      e->set_scan_workers(workers);
    }
  };
  auto expect_same = [&](Session* s, const std::string& from,
                         const std::string& label) {
    for (const std::string& pred : preds) {
      for (const std::string& shape : shapes) {
        for (int batch : {1, 1024}) {
          for (int workers : {1, 8}) {
            configure(batch, workers);
            const std::string head = shape + from + " WHERE ";
            EXPECT_EQ(outcome(s, head + WithKey(pred, "id")),
                      outcome(s, head + WithKey(pred, "(id + 0)")))
                << label << ": " << head << pred << " batch=" << batch
                << " workers=" << workers;
          }
        }
      }
    }
    configure(1024, 1);
  };

  expect_same(&session_, " FROM kt", "live");
  expect_same(&msession, " FROM kt", "snapshot");
  expect_same(&msession, as_of, "as of");
  // Inside a transaction, after inserts that split leaves of its shadow tree.
  ASSERT_TRUE(msession.Execute("BEGIN TRANSACTION").ok());
  ASSERT_TRUE(msession
                  .Execute("INSERT INTO kt VALUES (1, 0.125, 0x08), "
                           "(302, 0.25, 0x09), (304, 0.375, 0x0A), "
                           "(307, 0.5, 0x0B), (1000, 0.625, 0x0C)")
                  .ok());
  expect_same(&msession, " FROM kt", "transaction");
  ASSERT_TRUE(msession.Execute("ROLLBACK").ok());

  // DELETE: the same rows go, so the same rows remain.
  for (const std::string& pred : preds) {
    for (int batch : {1, 1024}) {
      for (int workers : {1, 8}) {
        configure(batch, workers);
        std::string got[2];
        for (int form = 0; form < 2; ++form) {
          EXPECT_TRUE(msession.Execute("BEGIN TRANSACTION").ok());
          got[form] = outcome(&msession, "DELETE FROM kt WHERE " +
                                             WithKey(pred, form == 0
                                                               ? "id"
                                                               : "(id + 0)"));
          got[form] += outcome(&msession, "SELECT COUNT(*) FROM kt");
          got[form] += outcome(&msession, "SELECT id, v FROM kt");
          (void)msession.Execute("ROLLBACK");
        }
        EXPECT_EQ(got[0], got[1]) << "delete: " << pred << " batch=" << batch
                                  << " workers=" << workers;
      }
    }
  }
  configure(1024, 1);

  // Spot checks that the predicates mean what their comments say.
  auto count = [&](const std::string& pred) {
    auto rs = Run("SELECT COUNT(*) FROM kt WHERE " + WithKey(pred, "id"));
    return rs.empty() ? -1 : rs[0].rows[0][0].AsInt().value();
  };
  EXPECT_EQ(count("$ = 9007199254740993"), 2);
  EXPECT_EQ(count("$ = 1.5"), 0);
  EXPECT_EQ(count("$ < 2.5"), 2);  // -INT64_MAX and 0
  EXPECT_EQ(count("3 >= $"), 3);
  EXPECT_EQ(count("$ = 9223372036854775807"), 1);
  EXPECT_EQ(count("$ < -9223372036854775807 + 1"), 0);
  EXPECT_EQ(count("$ >= 300 AND $ < 1500"), 400);
  auto reader = Run(shapes[4] + " FROM kt WHERE id >= 300 AND id < 1500");
  ASSERT_EQ(reader.size(), 1u);
  ASSERT_EQ(reader[0].rows.size(), 400u);
  EXPECT_EQ(reader[0].rows[0][1].AsDouble().value(), 2.5);
  auto uda = Run(shapes[3] + " FROM kt WHERE id >= 300 AND id < 1500");
  ASSERT_EQ(uda.size(), 1u);
  EXPECT_FALSE(uda[0].rows[0][0].is_null());

  // TOP stops on the row that completes it. Key 9, the fifth row of the
  // first morsel, fails this WHERE with a division by zero, so TOP 2 must
  // never evaluate it. (9.0 - id is a double: the key -INT64_MAX cannot
  // overflow it.)
  const std::string guard_top = " FROM kt WHERE 10.0 / (9.0 - id) <> 0";
  for (int batch : {1, 1024}) {
    for (int workers : {1, 8}) {
      configure(batch, workers);
      auto top = session_.Execute("SELECT TOP 2 id, v" + guard_top);
      ASSERT_TRUE(top.ok()) << top.status().ToString() << " batch=" << batch
                            << " workers=" << workers;
      EXPECT_EQ((*top)[0].rows.size(), 2u);
      if (workers == 1) {
        EXPECT_EQ((*top)[0].stats.rows_scanned, 2) << "batch=" << batch;
      }
    }
  }
  configure(1024, 1);
  auto no_top = session_.Execute("SELECT id, v" + guard_top);
  ASSERT_FALSE(no_top.ok());
  EXPECT_NE(no_top.status().message().find("division by zero"),
            std::string::npos);

  // A point read touches at most height + 1 pages: the descent (live) or
  // the internal levels plus one leaf (snapshot), then the key's leaf.
  auto scan_row = [&](Session* s, const std::string& sqltext) {
    auto r = s->Execute("EXPLAIN ANALYZE " + sqltext);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::vector<Value> row;
    if (!r.ok()) return row;
    for (const std::vector<Value>& op : (*r)[0].rows) {
      std::string name = op[0].AsString().value();
      name.erase(0, name.find_first_not_of(' '));
      if (name == "scan") row = op;
    }
    return row;
  };
  const int64_t height = live_table->clustered_index().height();
  const int64_t leaves = live_table->clustered_index().leaf_page_count();
  const std::string point = "SELECT v FROM kt WHERE id = 300";
  db_.ClearCache();
  std::vector<Value> live = scan_row(&session_, point);
  ASSERT_EQ(live.size(), 13u);
  EXPECT_EQ(live[1].AsString().value(),
            "kt seek [300, 300] leaves=1/" + std::to_string(leaves));
  EXPECT_LE(live[4].AsInt().value(), height + 1);  // pages_read, cold
  EXPECT_LE(live[5].AsInt().value() + live[6].AsInt().value(), height + 1);
  std::vector<Value> snap = scan_row(&msession, point);
  ASSERT_EQ(snap.size(), 13u);
  EXPECT_LE(snap[5].AsInt().value() + snap[6].AsInt().value(), height + 1);
  // A UDA plan is one morsel over the same leaf list, so it seeks as well.
  const std::string uda_point = shapes[3] + " FROM kt WHERE id = 300";
  db_.ClearCache();
  std::vector<Value> uda_live = scan_row(&session_, uda_point);
  ASSERT_EQ(uda_live.size(), 13u);
  EXPECT_EQ(uda_live[1].AsString().value(),
            "kt seek [300, 300] leaves=1/" + std::to_string(leaves));
  EXPECT_LE(uda_live[4].AsInt().value(), height + 1);
  EXPECT_LE(uda_live[5].AsInt().value() + uda_live[6].AsInt().value(),
            height + 1);
  std::vector<Value> uda_snap = scan_row(&msession, uda_point);
  ASSERT_EQ(uda_snap.size(), 13u);
  EXPECT_EQ(uda_snap[1].AsString().value().rfind("kt seek [300, 300] leaves=1/",
                                                 0),
            0u)
      << uda_snap[1].AsString().value();
  EXPECT_LE(uda_snap[5].AsInt().value() + uda_snap[6].AsInt().value(),
            height + 1);
  // A forced scan reads every leaf.
  db_.ClearCache();
  std::vector<Value> forced =
      scan_row(&session_, "SELECT v FROM kt WHERE id + 0 = 300");
  ASSERT_EQ(forced.size(), 13u);
  EXPECT_EQ(forced[1].AsString().value(), "kt");
  EXPECT_GE(forced[4].AsInt().value(), leaves);

  // The one semantic change: a conjunct that fails only on rows outside
  // the key interval no longer fails the statement, because those rows are
  // never read. Key 2997 sits on the last leaf, far from key 300's.
  const std::string guarded =
      "SELECT COUNT(*) FROM kt WHERE $ = 300 AND 10.0 / ($ - 2997) <> 0";
  for (Session* s : {&session_, &msession}) {
    auto seek = s->Execute(WithKey(guarded, "id"));
    ASSERT_TRUE(seek.ok()) << seek.status().ToString();
    EXPECT_EQ((*seek)[0].rows[0][0].AsInt().value(), 1);
    auto scan = s->Execute(WithKey(guarded, "(id + 0)"));
    ASSERT_FALSE(scan.ok());
    EXPECT_NE(scan.status().message().find("division by zero"),
              std::string::npos);
  }
  // The UDA plan reads the same leaves, so the note covers it too.
  const std::string uda_guarded =
      shapes[3] + " FROM kt WHERE $ = 300 AND 10.0 / ($ - 2997) <> 0";
  for (Session* s : {&session_, &msession}) {
    auto seek = s->Execute(WithKey(uda_guarded, "id"));
    ASSERT_TRUE(seek.ok()) << seek.status().ToString();
    EXPECT_FALSE((*seek)[0].rows[0][0].is_null());
    auto scan = s->Execute(WithKey(uda_guarded, "(id + 0)"));
    ASSERT_FALSE(scan.ok());
    EXPECT_NE(scan.status().message().find("division by zero"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace sqlarray::sql
