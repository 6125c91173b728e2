// Expression trees evaluated per row (or standalone).
//
// Shared between the T-SQL frontend (which builds them by parsing + binding)
// and direct C++ callers (benches build them with the helper constructors).
//
// The engine has two evaluators. Eval (below) computes one Value per row;
// it runs every expression no columnar program covers, every expression of
// a plan without lanes, and it is the oracle the differential tests compare
// against at Executor::set_batch_rows(1). The other is the columnar
// VecProgram (engine/vec_expr.h), which runs numeric expressions, and
// calls to functions with a column kernel, over lanes. Both wrap BIGINT +, -, * and unary -, and define INT64_MIN / -1 as
// INT64_MIN and x % -1 as 0 (common/wrap_int.h).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/udf.h"
#include "storage/schema.h"

namespace sqlarray::engine {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// Binary operator kinds (arithmetic, comparison, logical).
enum class BinaryOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};

/// Unary operator kinds.
enum class UnaryOp { kNeg, kNot };

/// An expression node.
struct Expr {
  enum class Kind {
    kLiteral,    ///< constant value
    kColumn,     ///< table column (resolved to an index by the binder)
    kVariable,   ///< T-SQL @variable
    kUnary,
    kBinary,
    kCall,       ///< schema-qualified scalar function call
    kStar,       ///< '*' inside COUNT(*)
  };

  Kind kind = Kind::kLiteral;
  Value literal;

  // kColumn
  std::string column_name;  ///< as written; resolved by the binder
  int column_index = -1;

  // kVariable
  std::string var_name;

  // kUnary / kBinary
  UnaryOp unary_op = UnaryOp::kNeg;
  BinaryOp binary_op = BinaryOp::kAdd;

  // kCall
  std::string schema_name;
  std::string func_name;
  const ScalarFunction* bound_fn = nullptr;  ///< set by the binder

  std::vector<ExprPtr> args;  ///< operands / call arguments
};

/// Helper constructors for building trees directly from C++.
ExprPtr Lit(Value v);
ExprPtr Col(std::string name);
ExprPtr ColIdx(int index);
ExprPtr Var(std::string name);
ExprPtr Un(UnaryOp op, ExprPtr operand);
ExprPtr Bin(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr Call(std::string schema, std::string name, std::vector<ExprPtr> args);
ExprPtr Star();

/// Deep copy (the SQL layer reuses parsed trees across statements).
ExprPtr CloneExpr(const Expr& e);

/// Evaluation environment for one row.
struct EvalContext {
  /// Row access (null for standalone expressions).
  const storage::Schema* schema = nullptr;
  const uint8_t* row = nullptr;
  /// Alternative row source: already-materialized values (TVF output rows).
  /// Takes precedence over schema/row when set.
  const std::vector<Value>* value_row = nullptr;
  /// T-SQL variables (may be null).
  std::map<std::string, Value>* variables = nullptr;
  /// UDF invocation context (pool + stats + cost model).
  UdfContext udf;
};

/// Evaluates an expression. Column references require a bound column_index
/// and a row in the context. Binary columns decode into fresh buffers;
/// VARBINARY(MAX) columns become blob refs on the context's buffer pool.
/// NULL operands yield NULL.
Result<Value> Eval(const Expr& expr, EvalContext& ctx);

/// Resolves column names to indices against a schema and function calls
/// against a registry, in place. Standalone (row-free) expressions pass a
/// null schema; unresolved columns then fail.
Status BindExpr(Expr* expr, const storage::Schema* schema,
                const FunctionRegistry* registry);

/// BindExpr variant for value-row sources (TVF output): columns resolve
/// against a flat name list instead of a table schema.
Status BindExprToColumns(Expr* expr,
                         const std::vector<std::string>& columns,
                         const FunctionRegistry* registry);

/// True if the tree contains any kColumn/kStar node (i.e. needs a row).
bool NeedsRow(const Expr& expr);

}  // namespace sqlarray::engine
