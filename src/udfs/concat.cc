// Table -> array assembly: the Concat UDA, its reader-style replacement, and
// the vector-averaging UDA for composite spectra.
//
// Sec. 4.2: the UDA contract forces the accumulator state through a
// serialization boundary on every row, which made the elegant UDA
// "prohibitive"; the paper replaced it with a plain scalar UDF that takes a
// SQL query string and reads rows itself. Both paths are implemented here so
// the A3 experiment can reproduce the comparison.
#include "common/bytes.h"
#include "core/concat.h"
#include "core/ops.h"
#include "udfs/helpers.h"
#include "udfs/register.h"

namespace sqlarray::udfs {

namespace {

using engine::FunctionRegistry;
using engine::Uda;

/// Parses a row's index argument: either an integer (linear offset) or an
/// integer-vector array blob (multi-index).
Result<int64_t> LinearIndexFromValue(const Value& v, const Dims& dims) {
  if (v.kind() == Value::Kind::kInt64 || v.kind() == Value::Kind::kFloat64) {
    return v.AsInt();
  }
  SQLARRAY_ASSIGN_OR_RETURN(Dims idx, DimsFromValue(v));
  return LinearIndex(dims, idx);
}

/// The Concat user-defined aggregate for one element type.
class ConcatUda : public Uda {
 public:
  explicit ConcatUda(DType dtype) : dtype_(dtype) {}

  Result<std::vector<uint8_t>> Init(std::span<const Value> args,
                                    UdfContext&) override {
    if (args.empty()) {
      return Status::InvalidArgument(
          "Concat needs (dims, index, value) arguments");
    }
    SQLARRAY_ASSIGN_OR_RETURN(Dims dims, DimsFromValue(args[0]));
    SQLARRAY_ASSIGN_OR_RETURN(ConcatBuilder builder,
                              ConcatBuilder::Create(dtype_, std::move(dims)));
    return builder.SerializeState();
  }

  Result<std::vector<uint8_t>> Accumulate(std::span<const uint8_t> state,
                                          std::span<const Value> args,
                                          UdfContext&) override {
    if (args.size() != 3) {
      return Status::InvalidArgument(
          "Concat needs (dims, index, value) arguments");
    }
    // The hosting contract: state comes in serialized and must go back out
    // serialized — this is the per-row cost Sec. 4.2 measures.
    SQLARRAY_ASSIGN_OR_RETURN(ConcatBuilder builder,
                              ConcatBuilder::DeserializeState(state));
    SQLARRAY_ASSIGN_OR_RETURN(
        int64_t linear, LinearIndexFromValue(args[1], builder.header().dims));
    SQLARRAY_ASSIGN_OR_RETURN(double v, args[2].AsDouble());
    SQLARRAY_RETURN_IF_ERROR(builder.AddLinear(linear, v));
    return builder.SerializeState();
  }

  Result<Value> Terminate(std::span<const uint8_t> state,
                          UdfContext&) override {
    SQLARRAY_ASSIGN_OR_RETURN(ConcatBuilder builder,
                              ConcatBuilder::DeserializeState(state));
    SQLARRAY_ASSIGN_OR_RETURN(OwnedArray out, std::move(builder).Finish());
    return Value::Bytes(std::move(out).TakeBlob());
  }

 private:
  DType dtype_;
};

/// Element-wise averaging of equal-length float vectors — the composite
/// spectrum aggregate of Sec. 2.2. State: int64 count + float64 sum array.
class AvgVectorUda : public Uda {
 public:
  Result<std::vector<uint8_t>> Init(std::span<const Value>,
                                    UdfContext&) override {
    // Length is learned from the first row.
    std::vector<uint8_t> state;
    AppendLE<int64_t>(&state, 0);
    return state;
  }

  Result<std::vector<uint8_t>> Accumulate(std::span<const uint8_t> state,
                                          std::span<const Value> args,
                                          UdfContext&) override {
    if (args.size() != 1) {
      return Status::InvalidArgument("AvgVector takes one vector argument");
    }
    SQLARRAY_ASSIGN_OR_RETURN(OwnedArray v, ArrayFromValue(args[0]));
    if (v.rank() != 1) {
      return Status::InvalidArgument("AvgVector input must be rank 1");
    }
    int64_t count = DecodeLE<int64_t>(state.data());

    OwnedArray sums;
    if (count == 0) {
      SQLARRAY_ASSIGN_OR_RETURN(
          sums, OwnedArray::Zeros(DType::kFloat64, v.dims(),
                                  StorageClass::kMax));
    } else {
      SQLARRAY_ASSIGN_OR_RETURN(
          sums, OwnedArray::FromBlob(std::vector<uint8_t>(
                    state.begin() + 8, state.end())));
      if (sums.dims() != v.dims()) {
        return Status::InvalidArgument(
            "AvgVector inputs must share one length");
      }
    }
    // A rank-1 max array's payload is not 8-byte aligned, so the sums go
    // through the byte-wise element accessors, not a double span.
    ArrayRef ref = v.ref();
    ArrayRef acc = sums.ref();
    for (int64_t i = 0; i < ref.num_elements(); ++i) {
      SQLARRAY_ASSIGN_OR_RETURN(double x, ref.GetDouble(i));
      SQLARRAY_ASSIGN_OR_RETURN(double sum, acc.GetDouble(i));
      SQLARRAY_RETURN_IF_ERROR(sums.SetDouble(i, sum + x));
    }

    std::vector<uint8_t> out;
    AppendLE<int64_t>(&out, count + 1);
    auto blob = sums.blob();
    out.insert(out.end(), blob.begin(), blob.end());
    return out;
  }

  Result<Value> Terminate(std::span<const uint8_t> state,
                          UdfContext&) override {
    int64_t count = DecodeLE<int64_t>(state.data());
    if (count == 0) return Value::Null();
    SQLARRAY_ASSIGN_OR_RETURN(
        OwnedArray sums,
        OwnedArray::FromBlob(std::vector<uint8_t>(state.begin() + 8,
                                                  state.end())));
    ArrayRef acc = sums.ref();
    for (int64_t i = 0; i < acc.num_elements(); ++i) {
      SQLARRAY_ASSIGN_OR_RETURN(double sum, acc.GetDouble(i));
      SQLARRAY_RETURN_IF_ERROR(
          sums.SetDouble(i, sum / static_cast<double>(count)));
    }
    return Value::Bytes(std::move(sums).TakeBlob());
  }
};

}  // namespace

Status RegisterAggregateUdfs(FunctionRegistry* registry) {
  for (int d = 0; d < kNumDTypes; ++d) {
    DType dtype = static_cast<DType>(d);
    if (IsComplexDType(dtype)) continue;  // Concat assembles scalar rows
    std::string schema = std::string(DTypeSchemaPrefix(dtype)) + "ArrayMax";

    SQLARRAY_RETURN_IF_ERROR(registry->RegisterUda(
        schema, "Concat",
        [dtype]() { return std::make_unique<ConcatUda>(dtype); }));

    // Reader-style replacement (Sec. 4.2): a scalar UDF that takes the
    // dims vector and a SQL query returning (index, value) rows, reads the
    // rows itself, and assembles the array in one call.
    engine::ScalarFunction f = Typed(
        Schema{schema}, "ConcatQuery", 2000,
        [dtype](UdfContext* ctx, Dims dims,
                std::string sqltext) -> Result<OwnedArray> {
          if (ctx->subquery == nullptr || !*ctx->subquery) {
            return Status::InvalidArgument(
                "ConcatQuery requires a session with subquery support");
          }
          SQLARRAY_ASSIGN_OR_RETURN(ConcatBuilder builder,
                                    ConcatBuilder::Create(dtype, dims));
          SQLARRAY_ASSIGN_OR_RETURN(engine::SubqueryResult sub,
                                    (*ctx->subquery)(sqltext));
          // The nested scan's I/O and CPU belong to this query.
          if (ctx->stats != nullptr) {
            ctx->stats->rows_scanned += sub.stats.rows_scanned;
            ctx->stats->udf_calls += sub.stats.udf_calls;
            ctx->stats->ChargeCpuNs(sub.stats.cpu_ns);
          }
          for (const std::vector<Value>& row : sub.rows) {
            if (row.size() != 2) {
              return Status::InvalidArgument(
                  "ConcatQuery subquery must return (index, value) rows");
            }
            SQLARRAY_ASSIGN_OR_RETURN(int64_t linear,
                                      LinearIndexFromValue(row[0], dims));
            SQLARRAY_ASSIGN_OR_RETURN(double v, row[1].AsDouble());
            SQLARRAY_RETURN_IF_ERROR(builder.AddLinear(linear, v));
          }
          return std::move(builder).Finish();
        });
    f.needs_subquery = true;
    SQLARRAY_RETURN_IF_ERROR(registry->RegisterScalar(std::move(f)));
  }

  SQLARRAY_RETURN_IF_ERROR(registry->RegisterUda(
      "FloatArrayMax", "AvgVector",
      []() { return std::make_unique<AvgVectorUda>(); }));
  return Status::OK();
}

Status RegisterAllUdfs(FunctionRegistry* registry) {
  SQLARRAY_RETURN_IF_ERROR(RegisterArraySchemas(registry));
  SQLARRAY_RETURN_IF_ERROR(RegisterGenericUdfs(registry));
  SQLARRAY_RETURN_IF_ERROR(RegisterMathUdfs(registry));
  SQLARRAY_RETURN_IF_ERROR(RegisterAggregateUdfs(registry));
  SQLARRAY_RETURN_IF_ERROR(RegisterTableValuedUdfs(registry));
  SQLARRAY_RETURN_IF_ERROR(RegisterDateTimeUdfs(registry));
  return Status::OK();
}

}  // namespace sqlarray::udfs
