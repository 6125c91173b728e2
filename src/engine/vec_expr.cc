#include "engine/vec_expr.h"

#include <array>
#include <cstdint>

namespace sqlarray::engine::vec {

using col::ColumnVec;
using col::Lane;

namespace {

/// Most arguments a kCall takes (Item_6 takes seven).
constexpr int32_t kMaxCallArgs = 8;

}  // namespace

int32_t VecProgram::Emit(const Instr& in, Lane lane) {
  instrs_.push_back(in);
  lanes_.push_back(lane);
  return static_cast<int32_t>(instrs_.size()) - 1;
}

int32_t VecProgram::ToF64(int32_t r) {
  if (lanes_[r] == Lane::kF64) return r;
  Instr in;
  in.op = Op::kI2F;
  in.a = r;
  return Emit(in, Lane::kF64);
}

int32_t VecProgram::ToI64(int32_t r) {
  if (lanes_[r] == Lane::kI64) return r;
  Instr in;
  in.op = Op::kF2I;
  in.a = r;
  return Emit(in, Lane::kI64);
}

bool VecProgram::Compile(const Expr& expr, const storage::Schema& schema,
                         const std::map<std::string, Value>* variables,
                         VecProgram* out) {
  out->instrs_.clear();
  out->lanes_.clear();
  out->args_.clear();
  out->row_size_ = schema.row_size();
  return out->CompileNode(expr, schema, variables) >= 0;
}

int32_t VecProgram::CompileNode(const Expr& e, const storage::Schema& schema,
                                const std::map<std::string, Value>* variables) {
  switch (e.kind) {
    case Expr::Kind::kLiteral: {
      const Value& v = e.literal;
      Instr in;
      if (v.kind() == Value::Kind::kInt64) {
        in.op = Op::kConstI;
        in.icon = v.AsInt().value();
        return Emit(in, Lane::kI64);
      }
      if (v.kind() == Value::Kind::kFloat64) {
        in.op = Op::kConstF;
        in.fcon = v.AsDouble().value();
        return Emit(in, Lane::kF64);
      }
      if (v.kind() == Value::Kind::kNull) {
        in.op = Op::kConstNull;
        return Emit(in, Lane::kI64);
      }
      return -1;  // bytes/string/blob literals stay on the row path
    }

    case Expr::Kind::kVariable: {
      // Variables are statement constants: bake the value in. An undeclared
      // variable falls back so Eval raises the row path's NotFound.
      if (variables == nullptr) return -1;
      auto it = variables->find(e.var_name);
      if (it == variables->end()) return -1;
      const Value& v = it->second;
      Instr in;
      if (v.kind() == Value::Kind::kInt64) {
        in.op = Op::kConstI;
        in.icon = v.AsInt().value();
        return Emit(in, Lane::kI64);
      }
      if (v.kind() == Value::Kind::kFloat64) {
        in.op = Op::kConstF;
        in.fcon = v.AsDouble().value();
        return Emit(in, Lane::kF64);
      }
      if (v.kind() == Value::Kind::kNull) {
        in.op = Op::kConstNull;
        return Emit(in, Lane::kI64);
      }
      return -1;
    }

    case Expr::Kind::kColumn: {
      if (e.column_index < 0) return -1;
      const storage::ColumnDef& def = schema.column(e.column_index);
      Instr in;
      in.offset = schema.column_offset(e.column_index);
      switch (def.type) {
        case storage::ColumnType::kInt32:
          in.op = Op::kLoadI32;
          return Emit(in, Lane::kI64);
        case storage::ColumnType::kInt64:
          in.op = Op::kLoadI64;
          return Emit(in, Lane::kI64);
        case storage::ColumnType::kFloat32:
          in.op = Op::kLoadF32;
          return Emit(in, Lane::kF64);
        case storage::ColumnType::kFloat64:
          in.op = Op::kLoadF64;
          return Emit(in, Lane::kF64);
        default:
          return -1;  // binary / VARBINARY(MAX) columns are not lane types
      }
    }

    case Expr::Kind::kUnary: {
      if (e.args.size() != 1 || e.args[0] == nullptr) return -1;
      int32_t a = CompileNode(*e.args[0], schema, variables);
      if (a < 0) return -1;
      Instr in;
      if (e.unary_op == UnaryOp::kNeg) {
        // Row path: kInt64 stays integer, everything else negates the
        // AsDouble coercion.
        if (lanes_[a] == Lane::kI64) {
          in.op = Op::kNegI;
          in.a = a;
          return Emit(in, Lane::kI64);
        }
        in.op = Op::kNegF;
        in.a = a;
        return Emit(in, Lane::kF64);
      }
      in.op = Op::kNotI;
      in.a = ToI64(a);  // NOT truthiness is int64 (doubles truncate)
      return Emit(in, Lane::kI64);
    }

    case Expr::Kind::kBinary: {
      if (e.args.size() != 2 || e.args[0] == nullptr || e.args[1] == nullptr) {
        return -1;
      }
      int32_t a = CompileNode(*e.args[0], schema, variables);
      if (a < 0) return -1;
      int32_t b = CompileNode(*e.args[1], schema, variables);
      if (b < 0) return -1;
      const bool both_int = lanes_[a] == Lane::kI64 && lanes_[b] == Lane::kI64;
      Instr in;
      switch (e.binary_op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul: {
          if (both_int) {
            in.op = e.binary_op == BinaryOp::kAdd   ? Op::kAddI
                    : e.binary_op == BinaryOp::kSub ? Op::kSubI
                                                    : Op::kMulI;
            in.a = a;
            in.b = b;
            return Emit(in, Lane::kI64);
          }
          in.op = e.binary_op == BinaryOp::kAdd   ? Op::kAddF
                  : e.binary_op == BinaryOp::kSub ? Op::kSubF
                                                  : Op::kMulF;
          in.a = ToF64(a);
          in.b = ToF64(b);
          return Emit(in, Lane::kF64);
        }
        case BinaryOp::kDiv: {
          if (both_int) {
            in.op = Op::kDivI;
            in.a = a;
            in.b = b;
            return Emit(in, Lane::kI64);
          }
          in.op = Op::kDivF;
          in.a = ToF64(a);
          in.b = ToF64(b);
          return Emit(in, Lane::kF64);
        }
        case BinaryOp::kMod: {
          // Row path coerces BOTH operands through AsInt (truncation).
          in.op = Op::kModI;
          in.a = ToI64(a);
          in.b = ToI64(b);
          return Emit(in, Lane::kI64);
        }
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe: {
          // Comparisons always run in the double domain (even int/int:
          // AsDouble coercion, lossy past 2^53 — part of the contract).
          in.op = Op::kCmp;
          switch (e.binary_op) {
            case BinaryOp::kEq: in.cmp = col::CmpOp::kEq; break;
            case BinaryOp::kNe: in.cmp = col::CmpOp::kNe; break;
            case BinaryOp::kLt: in.cmp = col::CmpOp::kLt; break;
            case BinaryOp::kLe: in.cmp = col::CmpOp::kLe; break;
            case BinaryOp::kGt: in.cmp = col::CmpOp::kGt; break;
            default:            in.cmp = col::CmpOp::kGe; break;
          }
          in.a = ToF64(a);
          in.b = ToF64(b);
          return Emit(in, Lane::kI64);
        }
        case BinaryOp::kAnd:
        case BinaryOp::kOr: {
          in.op = e.binary_op == BinaryOp::kAnd ? Op::kAndI : Op::kOrI;
          in.a = ToI64(a);
          in.b = ToI64(b);
          return Emit(in, Lane::kI64);
        }
      }
      return -1;
    }

    case Expr::Kind::kCall:
      return CompileCall(e, schema, variables);

    case Expr::Kind::kStar:
      return -1;
  }
  return -1;
}

int32_t VecProgram::CompileCall(const Expr& e, const storage::Schema& schema,
                                const std::map<std::string, Value>* variables) {
  const ScalarFunction* fn = e.bound_fn;
  if (fn == nullptr || !fn->kernel ||
      static_cast<int32_t>(e.args.size()) > kMaxCallArgs) {
    return -1;
  }
  std::array<CallSlot, kMaxCallArgs> slots;
  for (size_t j = 0; j < e.args.size(); ++j) {
    const Expr& a = *e.args[j];
    if (a.kind == Expr::Kind::kColumn && a.column_index >= 0 &&
        schema.column(a.column_index).type == storage::ColumnType::kBinary) {
      slots[j].offset = schema.column_offset(a.column_index);
      // Its length prefixes are checked here, in argument order: Eval's
      // column decode rejects a bad one before the next argument runs.
      Instr check;
      check.op = Op::kCheckBytes;
      check.offset = slots[j].offset;
      check.icon = schema.column(a.column_index).capacity;
      Emit(check, Lane::kI64);
      continue;
    }
    // A lane argument: NULL reaches a lane only from a NULL literal or
    // variable, and the row function would see that NULL.
    const size_t first = instrs_.size();
    slots[j].reg = CompileNode(a, schema, variables);
    if (slots[j].reg < 0) return -1;
    for (size_t i = first; i < instrs_.size(); ++i) {
      if (instrs_[i].op == Op::kConstNull) return -1;
    }
  }
  Instr in;
  in.op = Op::kCall;
  in.fn = fn;
  in.arg_begin = static_cast<int32_t>(args_.size());
  args_.insert(args_.end(), slots.begin(), slots.begin() + e.args.size());
  in.arg_end = static_cast<int32_t>(args_.size());
  return Emit(in, Lane::kF64);  // kernels write FLOAT lanes
}

Status VecProgram::RunCall(const Instr& in, const uint8_t* base,
                           const int32_t* sel, int32_t n,
                           std::vector<ColumnVec>* regs, ColumnVec* out,
                           const UdfContext& udf) const {
  if (udf.limits != nullptr) SQLARRAY_RETURN_IF_ERROR(udf.limits->Check());
  std::array<CallArg, kMaxCallArgs> args;
  const int32_t nargs = in.arg_end - in.arg_begin;
  for (int32_t j = 0; j < nargs; ++j) {
    const CallSlot& slot = args_[in.arg_begin + j];
    CallArg& a = args[j];
    if (slot.reg >= 0) {
      a.lane = &(*regs)[slot.reg];
      continue;
    }
    // Read in place; its kCheckBytes instruction checked the lengths.
    a.base = base + slot.offset;
    a.stride = row_size_;
    a.sel = sel;
  }
  SQLARRAY_RETURN_IF_ERROR(
      in.fn->kernel(std::span<const CallArg>(args.data(), nargs), n, out));
  out->SetAllValid();
  // The block's n calls in one charge: what Invoke charges call by call.
  CallCharges charges(*in.fn, udf);
  if (charges.active()) {
    int64_t in_bytes = 0;
    for (int32_t j = 0; j < nargs; ++j) {
      if (args[j].lane != nullptr) {
        in_bytes += int64_t{8} * n;
        continue;
      }
      for (int32_t k = 0; k < n; ++k) {
        in_bytes += static_cast<int64_t>(args[j].Bytes(k).size());
      }
    }
    // Each result is one non-NULL number.
    charges.Charge(n, in_bytes, int64_t{8} * n);
  }
  return Status::OK();
}

Status VecProgram::Run(const RowBatch& batch, const std::vector<int32_t>* sel,
                       std::vector<ColumnVec>* regs,
                       const UdfContext& udf) const {
  const int32_t n =
      sel != nullptr ? static_cast<int32_t>(sel->size()) : batch.size();
  if (regs->size() < instrs_.size()) regs->resize(instrs_.size());
  const int32_t* selp = sel != nullptr ? sel->data() : nullptr;
  const uint8_t* base = batch.size() > 0 ? batch.row(0) : nullptr;

  for (size_t i = 0; i < instrs_.size(); ++i) {
    const Instr& in = instrs_[i];
    ColumnVec& ro = (*regs)[i];
    const ColumnVec* ra = in.a >= 0 ? &(*regs)[in.a] : nullptr;
    const ColumnVec* rb = in.b >= 0 ? &(*regs)[in.b] : nullptr;
    switch (in.op) {
      case Op::kConstI:
        col::FillI64(in.icon, n, ro.MutableI64(n));
        ro.SetAllValid();
        break;
      case Op::kConstF:
        col::FillF64(in.fcon, n, ro.MutableF64(n));
        ro.SetAllValid();
        break;
      case Op::kConstNull:
        col::FillI64(0, n, ro.MutableI64(n));
        ro.SetAllNull();
        break;

      case Op::kLoadI32: {
        int64_t* o = ro.MutableI64(n);
        if (n > 0) col::GatherI64FromI32(base + in.offset, row_size_, selp, n, o);
        ro.SetAllValid();
        break;
      }
      case Op::kLoadI64: {
        // Dense scan of a batch whose whole row IS the value: alias the
        // batch bytes instead of copying.
        if (selp == nullptr && row_size_ == 8 && in.offset == 0 && n > 0 &&
            (reinterpret_cast<uintptr_t>(base) & 7) == 0) {
          ro.ViewI64(reinterpret_cast<const int64_t*>(base), n);
          break;
        }
        int64_t* o = ro.MutableI64(n);
        if (n > 0) col::GatherI64FromI64(base + in.offset, row_size_, selp, n, o);
        ro.SetAllValid();
        break;
      }
      case Op::kLoadF32: {
        double* o = ro.MutableF64(n);
        if (n > 0) col::GatherF64FromF32(base + in.offset, row_size_, selp, n, o);
        ro.SetAllValid();
        break;
      }
      case Op::kLoadF64: {
        if (selp == nullptr && row_size_ == 8 && in.offset == 0 && n > 0 &&
            (reinterpret_cast<uintptr_t>(base) & 7) == 0) {
          ro.ViewF64(reinterpret_cast<const double*>(base), n);
          break;
        }
        double* o = ro.MutableF64(n);
        if (n > 0) col::GatherF64FromF64(base + in.offset, row_size_, selp, n, o);
        ro.SetAllValid();
        break;
      }

      case Op::kAddI:
        SQLARRAY_RETURN_IF_ERROR(col::AddI64(ra->i64(), rb->i64(), n, ro.MutableI64(n)));
        ro.IntersectValidity(*ra, *rb);
        break;
      case Op::kSubI:
        SQLARRAY_RETURN_IF_ERROR(col::SubI64(ra->i64(), rb->i64(), n, ro.MutableI64(n)));
        ro.IntersectValidity(*ra, *rb);
        break;
      case Op::kMulI:
        SQLARRAY_RETURN_IF_ERROR(col::MulI64(ra->i64(), rb->i64(), n, ro.MutableI64(n)));
        ro.IntersectValidity(*ra, *rb);
        break;
      case Op::kDivI: {
        // Validity first: the kernel skips its zero check at NULL lanes.
        int64_t* o = ro.MutableI64(n);
        ro.IntersectValidity(*ra, *rb);
        SQLARRAY_RETURN_IF_ERROR(
            col::DivI64(ra->i64(), rb->i64(), ro.valid_words(), n, o));
        break;
      }
      case Op::kModI: {
        int64_t* o = ro.MutableI64(n);
        ro.IntersectValidity(*ra, *rb);
        SQLARRAY_RETURN_IF_ERROR(
            col::ModI64(ra->i64(), rb->i64(), ro.valid_words(), n, o));
        break;
      }

      case Op::kAddF:
        SQLARRAY_RETURN_IF_ERROR(col::AddF64(ra->f64(), rb->f64(), n, ro.MutableF64(n)));
        ro.IntersectValidity(*ra, *rb);
        break;
      case Op::kSubF:
        SQLARRAY_RETURN_IF_ERROR(col::SubF64(ra->f64(), rb->f64(), n, ro.MutableF64(n)));
        ro.IntersectValidity(*ra, *rb);
        break;
      case Op::kMulF:
        SQLARRAY_RETURN_IF_ERROR(col::MulF64(ra->f64(), rb->f64(), n, ro.MutableF64(n)));
        ro.IntersectValidity(*ra, *rb);
        break;
      case Op::kDivF: {
        double* o = ro.MutableF64(n);
        ro.IntersectValidity(*ra, *rb);
        SQLARRAY_RETURN_IF_ERROR(
            col::DivF64(ra->f64(), rb->f64(), ro.valid_words(), n, o));
        break;
      }

      case Op::kCmp:
        SQLARRAY_RETURN_IF_ERROR(
            col::CmpF64(in.cmp, ra->f64(), rb->f64(), n, ro.MutableI64(n)));
        ro.IntersectValidity(*ra, *rb);
        break;

      case Op::kAndI:
        SQLARRAY_RETURN_IF_ERROR(col::AndI64(ra->i64(), rb->i64(), n, ro.MutableI64(n)));
        ro.IntersectValidity(*ra, *rb);
        break;
      case Op::kOrI:
        SQLARRAY_RETURN_IF_ERROR(col::OrI64(ra->i64(), rb->i64(), n, ro.MutableI64(n)));
        ro.IntersectValidity(*ra, *rb);
        break;

      case Op::kNegI:
        SQLARRAY_RETURN_IF_ERROR(col::NegI64(ra->i64(), n, ro.MutableI64(n)));
        ro.CopyValidity(*ra);
        break;
      case Op::kNegF:
        SQLARRAY_RETURN_IF_ERROR(col::NegF64(ra->f64(), n, ro.MutableF64(n)));
        ro.CopyValidity(*ra);
        break;
      case Op::kNotI:
        SQLARRAY_RETURN_IF_ERROR(col::NotI64(ra->i64(), n, ro.MutableI64(n)));
        ro.CopyValidity(*ra);
        break;

      case Op::kI2F:
        SQLARRAY_RETURN_IF_ERROR(col::I64ToF64(ra->i64(), n, ro.MutableF64(n)));
        ro.CopyValidity(*ra);
        break;
      case Op::kF2I: {
        int64_t* o = ro.MutableI64(n);
        ro.CopyValidity(*ra);
        SQLARRAY_RETURN_IF_ERROR(
            col::F64ToI64(ra->f64(), ro.valid_words(), n, o));
        break;
      }

      case Op::kCheckBytes:
        for (int32_t k = 0; k < n; ++k) {
          const int64_t row = selp != nullptr ? selp[k] : k;
          SQLARRAY_RETURN_IF_ERROR(storage::CheckBinaryColumn(
              base + row * row_size_ + in.offset,
              static_cast<int32_t>(in.icon)));
        }
        break;
      case Op::kCall:
        SQLARRAY_RETURN_IF_ERROR(RunCall(in, base, selp, n, regs, &ro, udf));
        break;
    }
  }
  return Status::OK();
}

Status VecFilter(const VecProgram& prog, const RowBatch& batch,
                 std::vector<ColumnVec>* regs, ColumnVec* trunc,
                 std::vector<int32_t>* sel, const UdfContext& udf) {
  SQLARRAY_RETURN_IF_ERROR(prog.Run(batch, nullptr, regs, udf));
  const ColumnVec& keep = prog.Result(*regs);
  const int32_t n = batch.size();
  const int64_t* v;
  if (keep.lane() == Lane::kF64) {
    // FilterBatch truthiness goes through Value::AsInt: doubles truncate.
    int64_t* t = trunc->MutableI64(n);
    SQLARRAY_RETURN_IF_ERROR(
        col::F64ToI64(keep.f64(), keep.valid_words(), n, t));
    v = t;
  } else {
    v = keep.i64();
  }
  sel->clear();
  col::BuildSel(v, keep.valid_words(), n, sel);
  return Status::OK();
}

void ColumnToValues(const ColumnVec& c, std::vector<Value>* out) {
  const int32_t n = c.size();
  out->resize(n);
  if (c.lane() == Lane::kI64) {
    const int64_t* v = c.i64();
    for (int32_t k = 0; k < n; ++k) {
      (*out)[k] = c.ValidAt(k) ? Value::Int(v[k]) : Value::Null();
    }
    return;
  }
  const double* v = c.f64();
  for (int32_t k = 0; k < n; ++k) {
    (*out)[k] = c.ValidAt(k) ? Value::Double(v[k]) : Value::Null();
  }
}

}  // namespace sqlarray::engine::vec
