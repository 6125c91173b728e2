#include "engine/expr.h"

#include <cmath>

#include "common/wrap_int.h"

namespace sqlarray::engine {

ExprPtr Lit(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr Col(std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::kColumn;
  e->column_name = std::move(name);
  return e;
}

ExprPtr ColIdx(int index) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::kColumn;
  e->column_index = index;
  return e;
}

ExprPtr Var(std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::kVariable;
  e->var_name = std::move(name);
  return e;
}

ExprPtr Un(UnaryOp op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::kUnary;
  e->unary_op = op;
  e->args.push_back(std::move(operand));
  return e;
}

ExprPtr Bin(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::kBinary;
  e->binary_op = op;
  e->args.push_back(std::move(lhs));
  e->args.push_back(std::move(rhs));
  return e;
}

ExprPtr Call(std::string schema, std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::kCall;
  e->schema_name = std::move(schema);
  e->func_name = std::move(name);
  e->args = std::move(args);
  return e;
}

ExprPtr Star() {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::kStar;
  return e;
}

ExprPtr CloneExpr(const Expr& e) {
  auto out = std::make_unique<Expr>();
  out->kind = e.kind;
  out->literal = e.literal;
  out->column_name = e.column_name;
  out->column_index = e.column_index;
  out->var_name = e.var_name;
  out->unary_op = e.unary_op;
  out->binary_op = e.binary_op;
  out->schema_name = e.schema_name;
  out->func_name = e.func_name;
  out->bound_fn = e.bound_fn;
  for (const ExprPtr& a : e.args) out->args.push_back(CloneExpr(*a));
  return out;
}

namespace {

/// Decodes one column of a serialized row into a Value.
Result<Value> ReadRowColumn(const storage::Schema& schema, const uint8_t* row,
                            int col, UdfContext& udf) {
  auto rv_or = schema.DecodeColumn(row, col);
  if (!rv_or.ok()) return rv_or.status();
  storage::RowValue& rv = rv_or.value();
  switch (schema.column(col).type) {
    case storage::ColumnType::kInt32:
      return Value::Int(std::get<int32_t>(rv));
    case storage::ColumnType::kInt64:
      return Value::Int(std::get<int64_t>(rv));
    case storage::ColumnType::kFloat32:
      return Value::Double(std::get<float>(rv));
    case storage::ColumnType::kFloat64:
      return Value::Double(std::get<double>(rv));
    case storage::ColumnType::kBinary: {
      std::vector<uint8_t> bytes = std::get<std::vector<uint8_t>>(std::move(rv));
      return Value::Bytes(std::move(bytes));
    }
    case storage::ColumnType::kVarBinaryMax:
      return Value::Blob(BlobRef{std::get<storage::BlobId>(rv), udf.pool});
  }
  return Status::Internal("unreachable column type");
}

Result<Value> EvalBinaryOp(BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();

  auto numeric = [&](auto f) -> Result<Value> {
    SQLARRAY_ASSIGN_OR_RETURN(double a, l.AsDouble());
    SQLARRAY_ASSIGN_OR_RETURN(double b, r.AsDouble());
    return f(a, b);
  };
  const bool both_int =
      l.kind() == Value::Kind::kInt64 && r.kind() == Value::Kind::kInt64;

  switch (op) {
    case BinaryOp::kAdd:
      if (both_int) {
        return Value::Int(WrapAdd(l.AsInt().value(), r.AsInt().value()));
      }
      return numeric([](double a, double b) { return Value::Double(a + b); });
    case BinaryOp::kSub:
      if (both_int) {
        return Value::Int(WrapSub(l.AsInt().value(), r.AsInt().value()));
      }
      return numeric([](double a, double b) { return Value::Double(a - b); });
    case BinaryOp::kMul:
      if (both_int) {
        return Value::Int(WrapMul(l.AsInt().value(), r.AsInt().value()));
      }
      return numeric([](double a, double b) { return Value::Double(a * b); });
    case BinaryOp::kDiv:
      if (both_int) {
        int64_t b = r.AsInt().value();
        if (b == 0) return Status::InvalidArgument("division by zero");
        return Value::Int(WrapDiv(l.AsInt().value(), b));
      }
      return numeric([](double a, double b) -> Result<Value> {
        if (b == 0) return Status::InvalidArgument("division by zero");
        return Value::Double(a / b);
      });
    case BinaryOp::kMod: {
      SQLARRAY_ASSIGN_OR_RETURN(int64_t a, l.AsInt());
      SQLARRAY_ASSIGN_OR_RETURN(int64_t b, r.AsInt());
      if (b == 0) return Status::InvalidArgument("modulo by zero");
      return Value::Int(WrapMod(a, b));
    }
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      SQLARRAY_ASSIGN_OR_RETURN(double a, l.AsDouble());
      SQLARRAY_ASSIGN_OR_RETURN(double b, r.AsDouble());
      bool v = false;
      switch (op) {
        case BinaryOp::kEq: v = a == b; break;
        case BinaryOp::kNe: v = a != b; break;
        case BinaryOp::kLt: v = a < b; break;
        case BinaryOp::kLe: v = a <= b; break;
        case BinaryOp::kGt: v = a > b; break;
        default: v = a >= b; break;
      }
      return Value::Int(v ? 1 : 0);
    }
    case BinaryOp::kAnd: {
      SQLARRAY_ASSIGN_OR_RETURN(int64_t a, l.AsInt());
      SQLARRAY_ASSIGN_OR_RETURN(int64_t b, r.AsInt());
      return Value::Int((a != 0 && b != 0) ? 1 : 0);
    }
    case BinaryOp::kOr: {
      SQLARRAY_ASSIGN_OR_RETURN(int64_t a, l.AsInt());
      SQLARRAY_ASSIGN_OR_RETURN(int64_t b, r.AsInt());
      return Value::Int((a != 0 || b != 0) ? 1 : 0);
    }
  }
  return Status::Internal("unreachable binary op");
}

Result<Value> EvalUnaryOp(UnaryOp op, const Value& v) {
  if (v.is_null()) return Value::Null();
  if (op == UnaryOp::kNeg) {
    if (v.kind() == Value::Kind::kInt64) {
      return Value::Int(WrapNeg(v.AsInt().value()));
    }
    SQLARRAY_ASSIGN_OR_RETURN(double d, v.AsDouble());
    return Value::Double(-d);
  }
  SQLARRAY_ASSIGN_OR_RETURN(int64_t b, v.AsInt());
  return Value::Int(b == 0 ? 1 : 0);
}

}  // namespace

Result<Value> Eval(const Expr& expr, EvalContext& ctx) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return expr.literal;
    case Expr::Kind::kStar:
      return Value::Int(1);
    case Expr::Kind::kColumn: {
      if (expr.column_index < 0) {
        return Status::Internal("unbound column reference: " +
                                expr.column_name);
      }
      if (ctx.value_row != nullptr) {
        if (expr.column_index >= static_cast<int>(ctx.value_row->size())) {
          return Status::Internal("column index out of range for value row");
        }
        return (*ctx.value_row)[expr.column_index];
      }
      if (ctx.schema == nullptr || ctx.row == nullptr) {
        return Status::InvalidArgument(
            "column reference outside a row context");
      }
      return ReadRowColumn(*ctx.schema, ctx.row, expr.column_index, ctx.udf);
    }
    case Expr::Kind::kVariable: {
      if (ctx.variables == nullptr) {
        return Status::InvalidArgument("variables are not available here");
      }
      auto it = ctx.variables->find(expr.var_name);
      if (it == ctx.variables->end()) {
        return Status::NotFound("undeclared variable @" + expr.var_name);
      }
      return it->second;
    }
    case Expr::Kind::kUnary: {
      SQLARRAY_ASSIGN_OR_RETURN(Value v, Eval(*expr.args[0], ctx));
      return EvalUnaryOp(expr.unary_op, v);
    }
    case Expr::Kind::kBinary: {
      SQLARRAY_ASSIGN_OR_RETURN(Value l, Eval(*expr.args[0], ctx));
      SQLARRAY_ASSIGN_OR_RETURN(Value r, Eval(*expr.args[1], ctx));
      return EvalBinaryOp(expr.binary_op, l, r);
    }
    case Expr::Kind::kCall: {
      if (expr.bound_fn == nullptr) {
        return Status::Internal("unbound function call: " + expr.schema_name +
                                "." + expr.func_name);
      }
      std::vector<Value> args;
      args.reserve(expr.args.size());
      for (const ExprPtr& a : expr.args) {
        SQLARRAY_ASSIGN_OR_RETURN(Value v, Eval(*a, ctx));
        args.push_back(std::move(v));
      }
      return FunctionRegistry::Invoke(*expr.bound_fn, args, ctx.udf);
    }
  }
  return Status::Internal("unreachable expr kind");
}

Status BindExpr(Expr* expr, const storage::Schema* schema,
                const FunctionRegistry* registry) {
  switch (expr->kind) {
    case Expr::Kind::kColumn:
      if (expr->column_index < 0) {
        if (schema == nullptr) {
          return Status::InvalidArgument("column '" + expr->column_name +
                                         "' referenced without a table");
        }
        SQLARRAY_ASSIGN_OR_RETURN(int idx,
                                  schema->ColumnIndex(expr->column_name));
        expr->column_index = idx;
      }
      return Status::OK();
    case Expr::Kind::kCall: {
      for (ExprPtr& a : expr->args) {
        SQLARRAY_RETURN_IF_ERROR(BindExpr(a.get(), schema, registry));
      }
      if (expr->bound_fn == nullptr) {
        if (registry == nullptr) {
          return Status::InvalidArgument("no function registry available");
        }
        SQLARRAY_ASSIGN_OR_RETURN(
            const ScalarFunction* fn,
            registry->Resolve(expr->schema_name, expr->func_name,
                              static_cast<int>(expr->args.size())));
        expr->bound_fn = fn;
      }
      return Status::OK();
    }
    default:
      for (ExprPtr& a : expr->args) {
        SQLARRAY_RETURN_IF_ERROR(BindExpr(a.get(), schema, registry));
      }
      return Status::OK();
  }
}

Status BindExprToColumns(Expr* expr,
                         const std::vector<std::string>& columns,
                         const FunctionRegistry* registry) {
  if (expr->kind == Expr::Kind::kColumn && expr->column_index < 0) {
    for (size_t i = 0; i < columns.size(); ++i) {
      if (columns[i] == expr->column_name) {
        expr->column_index = static_cast<int>(i);
        return Status::OK();
      }
    }
    return Status::NotFound("no column named " + expr->column_name);
  }
  if (expr->kind == Expr::Kind::kCall) {
    for (ExprPtr& a : expr->args) {
      SQLARRAY_RETURN_IF_ERROR(BindExprToColumns(a.get(), columns, registry));
    }
    if (expr->bound_fn == nullptr) {
      if (registry == nullptr) {
        return Status::InvalidArgument("no function registry available");
      }
      SQLARRAY_ASSIGN_OR_RETURN(
          const ScalarFunction* fn,
          registry->Resolve(expr->schema_name, expr->func_name,
                            static_cast<int>(expr->args.size())));
      expr->bound_fn = fn;
    }
    return Status::OK();
  }
  for (ExprPtr& a : expr->args) {
    SQLARRAY_RETURN_IF_ERROR(BindExprToColumns(a.get(), columns, registry));
  }
  return Status::OK();
}

bool NeedsRow(const Expr& expr) {
  if (expr.kind == Expr::Kind::kColumn || expr.kind == Expr::Kind::kStar) {
    return true;
  }
  for (const ExprPtr& a : expr.args) {
    if (NeedsRow(*a)) return true;
  }
  return false;
}

}  // namespace sqlarray::engine
