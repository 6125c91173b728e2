// Typed hosted functions, and the plumbing between engine values and array
// blobs.
//
// A hosted scalar function is defined once, as a body plus its work
// constant (Typed, Definer). The body's parameter types fix the function's
// arity and how each argument converts (Param<T>), in parameter order, so
// the first failing argument and its Status are decided here for every
// function; the body's result (a double, an int64, an array, bytes, a
// string or a Value) is boxed here too. From that one body the definition
// builds the boxed row function and, when every parameter can be read from
// a lane or a fixed VARBINARY(n) column and the body returns a double, the
// column kernel, which runs the body over each row of a block with one
// parameter state per kernel call. The row function is the kernel's body at
// width 1.
//
// Array arguments hold either inline bytes (short arrays, or max arrays
// built in expressions) or out-of-page blob references (max arrays read
// from VARBINARY(MAX) columns); a blob-backed header argument streams only
// what its body reads.
#pragma once

#include <array>
#include <complex>
#include <optional>
#include <tuple>
#include <type_traits>

#include "common/dims.h"
#include "common/status.h"
#include "core/array.h"
#include "core/ops.h"
#include "core/stream_ops.h"
#include "engine/udf.h"

namespace sqlarray::udfs {

using engine::CallArg;
using engine::UdfContext;
using engine::Value;

/// Materializes an array argument (full read for blob-backed values).
Result<OwnedArray> ArrayFromValue(const Value& v);

/// Parses an integer vector argument (the paper passes offsets/sizes as
/// IntArray vectors) into a Dims list.
Result<Dims> DimsFromValue(const Value& v);

/// Complex scalar UDT codec (native serialization of the paper's complex
/// UDTs): 8 bytes (two float32) for single precision, 16 (two float64) for
/// double precision.
std::vector<uint8_t> EncodeComplexUdt(std::complex<double> v, bool single);
Result<std::complex<double>> DecodeComplexUdt(std::span<const uint8_t> bytes);

/// Moves `r`'s value into `out`, or returns why there is none.
template <typename T>
Status Assign(Result<T> r, T* out) {
  if (!r.ok()) return r.status();
  *out = std::move(r).value();
  return Status::OK();
}

/// One argument as a parameter reads it: a boxed Value, or row k of a
/// column kernel argument (a lane, or a fixed VARBINARY(n) column, which
/// reads as an inline binary).
class Arg {
 public:
  Arg(const Value& v) : value_(&v) {}  // NOLINT: every Value is an Arg
  Arg(const CallArg& a, int32_t k) : lane_(a.lane), k_(k) {
    if (lane_ == nullptr) bytes_ = a.Bytes(k);
  }

  /// The boxed Value; null in a kernel.
  const Value* value() const { return value_; }
  /// As Value::AsInt and AsDouble, into `out`. Always inlined, as are
  /// Bytes and the reads below that call them: a kernel makes them for
  /// every row.
  [[gnu::always_inline]] Status Int(int64_t* out) const {
    if (value_ != nullptr) return Assign(value_->AsInt(), out);
    if (lane_ == nullptr) return NotNumeric();
    if (lane_->lane() == col::Lane::kI64) {
      *out = lane_->i64()[k_];
      return Status::OK();
    }
    const double d = lane_->f64()[k_];
    if (!FitsInt64(d)) return Int64Overflow();
    *out = static_cast<int64_t>(d);
    return Status::OK();
  }
  [[gnu::always_inline]] Status Double(double* out) const {
    if (value_ != nullptr) return Assign(value_->AsDouble(), out);
    if (lane_ == nullptr) return NotNumeric();
    *out = lane_->lane() == col::Lane::kI64
               ? static_cast<double>(lane_->i64()[k_])
               : lane_->f64()[k_];
    return Status::OK();
  }
  /// Inline bytes, or nothing.
  [[gnu::always_inline]] std::optional<std::span<const uint8_t>> Bytes()
      const {
    if (value_ != nullptr) {
      if (value_->kind() != Value::Kind::kBytes) return std::nullopt;
      return *value_->AsBytes().value();
    }
    if (lane_ != nullptr) return std::nullopt;
    return bytes_;
  }

 private:
  static Status NotNumeric() {
    return Status::TypeMismatch("value is not numeric");
  }

  const Value* value_ = nullptr;
  const col::ColumnVec* lane_ = nullptr;
  int32_t k_ = 0;
  std::span<const uint8_t> bytes_;  ///< a binary column's, in a kernel
};

/// The schema a function registers under. A per-type schema names the
/// element type and storage class its SchemaArray, ArrayArg and ShortArray
/// parameters are checked against.
struct Schema {
  std::string name;
  std::optional<DType> dtype = std::nullopt;
  StorageClass storage = StorageClass::kShort;

  /// CheckSchemaMatch against the named type; OK when none is named.
  Status Check(const ArrayHeader& h) const {
    return dtype ? CheckSchemaMatch(h, *dtype, storage) : Status::OK();
  }
};

/// An array argument read no further than its header: a blob-backed value
/// streams only what the body reads.
struct ArrayArg {
  ArrayHeader header;
  std::span<const uint8_t> bytes;  ///< an inline value or column bytes
  std::optional<engine::BlobRef> blob;

  /// Reads the header of `a`, unchecked.
  static Result<ArrayArg> Of(Arg a);
  Result<double> Item(std::span<const int64_t> index) const;
  Result<OwnedArray> Subarray(std::span<const int64_t> offset,
                              std::span<const int64_t> sizes,
                              bool collapse) const;
  Result<OwnedArray> Whole() const;
};

/// A whole array argument checked against the schema's type.
struct SchemaArray : ArrayRef {};

/// A short array of the schema's type read in place through the call's
/// ShortItemReader. Its bytes are checked when an element is read, after
/// the indices convert; a blob-backed value is read as an ArrayArg.
struct ShortArray {
  ShortItemReader* reader = nullptr;
  std::span<const uint8_t> bytes;
  const ArrayArg* blob = nullptr;

  [[gnu::always_inline]] Result<double> Item(
      std::span<const int64_t> index) const {
    return blob != nullptr ? blob->Item(index) : reader->Read(bytes, index);
  }
};

/// An argument the body ignores.
struct Ignored {};

/// A row function's arguments, and its context.
struct RowArgs {
  std::span<const Value> values;
  UdfContext* ctx;

  const Value& operator[](size_t i) const { return values[i]; }
  size_t size() const { return values.size(); }
  RowArgs subspan(size_t at, size_t n) const {
    return {values.subspan(at, n), ctx};
  }
};

/// Row k of a column kernel's arguments.
struct LaneArgs {
  std::span<const CallArg> args;
  int32_t k;

  Arg operator[](size_t i) const { return Arg(args[i], k); }
  LaneArgs subspan(size_t at, size_t n) const {
    return {args.subspan(at, n), k};
  }
};

/// What a parameter keeps for one call (one row function invocation, or one
/// column kernel block): by default nothing.
struct Stateless {
  explicit Stateless(const Schema&) {}
};

/// Param<T> reads a body parameter of type T into `out` through
/// Read(arg, state, out). One that reads one argument takes an Arg when a
/// column kernel can feed it and a const Value& when only a boxed Value
/// can; one that reads kArgs of them (-1: every one) takes RowArgs or any
/// argument list. Its per-call state is a State.
template <typename T>
struct Param;

/// A Param's defaults: no per-call state.
struct ParamBase {
  using State = Stateless;
};

template <>
struct Param<int64_t> : ParamBase {  // BIGINT
  [[gnu::always_inline]] static Status Read(Arg a, Stateless&, int64_t* out) {
    return a.Int(out);
  }
};

template <>
struct Param<double> : ParamBase {  // FLOAT
  [[gnu::always_inline]] static Status Read(Arg a, Stateless&, double* out) {
    return a.Double(out);
  }
};

/// An inline binary (a complex UDT).
template <>
struct Param<std::span<const uint8_t>> : ParamBase {
  static Status Read(Arg a, Stateless&, std::span<const uint8_t>* out) {
    std::optional<std::span<const uint8_t>> b = a.Bytes();
    if (!b) return Status::TypeMismatch("value is not an inline binary");
    *out = *b;
    return Status::OK();
  }
};

template <>
struct Param<Ignored> : ParamBase {
  [[gnu::always_inline]] static Status Read(Arg, Stateless&, Ignored*) {
    return Status::OK();
  }
};

template <>
struct Param<std::string> : ParamBase {
  static Status Read(const Value& v, Stateless&, std::string* out) {
    return Assign(v.AsString(), out);
  }
};

/// Any binary payload, a blob read whole.
template <>
struct Param<std::vector<uint8_t>> : ParamBase {
  static Status Read(const Value& v, Stateless&, std::vector<uint8_t>* out) {
    return Assign(v.MaterializeBytes(), out);
  }
};

template <>
struct Param<Value> : ParamBase {
  static Status Read(const Value& v, Stateless&, Value* out) {
    *out = v;
    return Status::OK();
  }
};

/// A dims or index vector given as an integer array.
template <>
struct Param<Dims> : ParamBase {
  static Status Read(const Value& v, Stateless&, Dims* out) {
    return Assign(DimsFromValue(v), out);
  }
};

/// The call's context; reads no argument.
template <>
struct Param<UdfContext*> : ParamBase {
  static constexpr int kArgs = 0;
  static Status Read(RowArgs args, Stateless&, UdfContext** out) {
    *out = args.ctx;
    return Status::OK();
  }
};

template <>
struct Param<ArrayArg> {
  struct State {
    explicit State(const Schema& s) : schema(&s) {}
    const Schema* schema;
  };
  static Status Read(Arg a, State& st, ArrayArg* out) {
    SQLARRAY_RETURN_IF_ERROR(Assign(ArrayArg::Of(a), out));
    return st.schema->Check(out->header);
  }
};

/// A whole array of any type: parsed in place, a blob read whole.
template <>
struct Param<ArrayRef> {
  struct State {
    State() = default;
    explicit State(const Schema&) {}
    OwnedArray blob;  ///< a blob-backed value's bytes
  };
  static Status Read(Arg a, State& st, ArrayRef* out) {
    if (std::optional<std::span<const uint8_t>> b = a.Bytes()) {
      return Assign(ArrayRef::Parse(*b), out);
    }
    if (a.value() == nullptr) {
      return Status::TypeMismatch("argument is not an array blob");
    }
    SQLARRAY_RETURN_IF_ERROR(Assign(ArrayFromValue(*a.value()), &st.blob));
    *out = st.blob.ref();
    return Status::OK();
  }
};

template <>
struct Param<SchemaArray> {
  struct State : Param<ArrayRef>::State {
    explicit State(const Schema& s) : schema(&s) {}
    const Schema* schema;
  };
  static Status Read(Arg a, State& st, SchemaArray* out) {
    SQLARRAY_RETURN_IF_ERROR(Param<ArrayRef>::Read(a, st, out));
    return st.schema->Check(out->header());
  }
};

template <>
struct Param<ShortArray> {
  struct State : Param<ArrayArg>::State {
    explicit State(const Schema& s)
        : Param<ArrayArg>::State(s), reader(*s.dtype) {}
    ShortItemReader reader;
    ArrayArg blob;  ///< a blob-backed value's header
  };
  [[gnu::always_inline]] static Status Read(Arg a, State& st,
                                            ShortArray* out) {
    out->reader = &st.reader;
    if (std::optional<std::span<const uint8_t>> b = a.Bytes()) {
      out->bytes = *b;
      return Status::OK();
    }
    out->blob = &st.blob;
    return Param<ArrayArg>::Read(a, st, &st.blob);
  }
};

/// N arguments, each a T (an index tuple of BIGINTs, N FLOATs).
template <typename T, size_t N>
struct Param<std::array<T, N>> : ParamBase {
  static constexpr int kArgs = static_cast<int>(N);
  template <typename Args>
  [[gnu::always_inline]] static Status Read(const Args& args, Stateless& st,
                                            std::array<T, N>* out) {
    for (size_t i = 0; i < N; ++i) {
      SQLARRAY_RETURN_IF_ERROR(Param<T>::Read(args[i], st, &(*out)[i]));
    }
    return Status::OK();
  }
};

/// Every argument, for a variadic function.
template <>
struct Param<RowArgs> : ParamBase {
  static constexpr int kArgs = -1;
  static Status Read(RowArgs args, Stateless&, RowArgs* out) {
    *out = args;
    return Status::OK();
  }
};

namespace internal {

template <typename T>
constexpr int ArgsOf() {
  if constexpr (requires { Param<T>::kArgs; }) {
    return Param<T>::kArgs;
  } else {
    return 1;
  }
}

template <typename T>
using StateOf = typename Param<T>::State;

/// What a T reads from `args` at the cursor `*at`, which it advances: one
/// argument, or the list of kArgs of them when it names kArgs (every one
/// for -1).
template <typename T, typename Args>
decltype(auto) Take(const Args& args, size_t* at) {
  if constexpr (!requires { Param<T>::kArgs; }) {
    return args[(*at)++];
  } else if constexpr (Param<T>::kArgs < 0) {
    return args;
  } else {
    *at += Param<T>::kArgs;
    return args.subspan(*at - Param<T>::kArgs, Param<T>::kArgs);
  }
}

/// True when a column kernel can feed a T.
template <typename T>
constexpr bool kLane =
    requires(const LaneArgs& args, size_t* at, StateOf<T>& s, T* out) {
      Param<T>::Read(Take<T>(args, at), s, out);
    };

/// The parameter types and result of a body (a lambda).
template <typename F>
struct Signature : Signature<decltype(&F::operator())> {};
template <typename C, typename R, typename... A>
struct Signature<R (C::*)(A...) const> {
  using Params = std::tuple<std::decay_t<A>...>;
  using Out = R;  ///< Result<T>
};

inline Value Box(double v) { return Value::Double(v); }
inline Value Box(int64_t v) { return Value::Int(v); }
inline Value Box(OwnedArray a) { return Value::Bytes(std::move(a).TakeBlob()); }
inline Value Box(std::vector<uint8_t> b) { return Value::Bytes(std::move(b)); }
inline Value Box(std::string s) { return Value::Str(std::move(s)); }
inline Value Box(Value v) { return v; }

/// Reads one parameter into `out`; on failure keeps the Status in
/// `*failure` and returns false.
template <typename T, typename Arg>
[[gnu::always_inline]] inline bool ReadInto(Arg&& arg, StateOf<T>& st, T* out,
                                           Status* failure) {
  Status s = Param<T>::Read(std::forward<Arg>(arg), st, out);
  if (s.ok()) return true;
  *failure = std::move(s);
  return false;
}

/// Converts every parameter in order from `args`, stopping at the first
/// failure, then runs the body.
template <typename... P, typename F, typename States, typename Args,
          size_t... I>
[[gnu::always_inline]] inline auto Apply(const F& body, States& st,
                                         const Args& args,
                                         std::index_sequence<I...>)
    -> decltype(body(std::declval<P>()...)) {
  std::tuple<P...> vals;
  Status failure;
  size_t at = 0;
  if (!(ReadInto<P>(Take<P>(args, &at), std::get<I>(st), &std::get<I>(vals),
                    &failure) &&
        ...)) {
    return failure;
  }
  return body(std::move(std::get<I>(vals))...);
}

}  // namespace internal

/// The hosted function `schema.name` with managed work `work` ns per call,
/// running `body`: a lambda whose parameters have Params and whose result
/// is a Result of a double, int64_t, OwnedArray, bytes, string or Value.
template <typename F>
engine::ScalarFunction Typed(const Schema& s, std::string name, double work,
                             F body) {
  using internal::Apply, internal::ArgsOf, internal::Box, internal::kLane,
      internal::StateOf;
  using Out = typename internal::Signature<F>::Out;
  return [&]<typename... P>(std::tuple<P...>*) {
    constexpr int kArity =
        ((ArgsOf<P>() < 0) || ...) ? -1 : (0 + ... + ArgsOf<P>());
    static_assert(kArity >= 0 || ((ArgsOf<P>() <= 0) && ...),
                  "a RowArgs parameter takes every argument");
    engine::ScalarFn fn = [s, body](std::span<const Value> args,
                                    UdfContext& ctx) -> Result<Value> {
      std::tuple<StateOf<P>...> st{StateOf<P>(s)...};
      Out out = Apply<P...>(body, st, RowArgs{args, &ctx},
                            std::index_sequence_for<P...>());
      if (!out.ok()) return out.status();
      return Box(std::move(out).value());
    };
    engine::ColumnKernel kernel;
    if constexpr (std::is_same_v<Out, Result<double>> && (kLane<P> && ...)) {
      kernel = [s, body](std::span<const CallArg> args, int32_t n,
                         col::ColumnVec* out) -> Status {
        double* o = out->MutableF64(n);
        std::tuple<StateOf<P>...> st{StateOf<P>(s)...};
        for (int32_t k = 0; k < n; ++k) {
          SQLARRAY_ASSIGN_OR_RETURN(
              o[k], Apply<P...>(body, st, LaneArgs{args, k},
                                std::index_sequence_for<P...>()));
        }
        return Status::OK();
      };
    }
    return engine::ScalarFunction{.schema = s.name,
                                  .name = std::move(name),
                                  .arity = kArity,
                                  .boundary = engine::Boundary::kClr,
                                  .managed_work_ns = work,
                                  .fn = std::move(fn),
                                  .kernel = std::move(kernel)};
  }(static_cast<typename internal::Signature<F>::Params*>(nullptr));
}

/// Registers typed functions under one schema; the first failure to
/// register is kept for status().
class Definer {
 public:
  Definer(engine::FunctionRegistry* registry, Schema schema)
      : registry_(registry), schema_(std::move(schema)) {}

  template <typename F>
  void operator()(std::string name, double work, F body) {
    if (!status_.ok()) return;
    status_ = registry_->RegisterScalar(
        Typed(schema_, std::move(name), work, std::move(body)));
  }
  const Status& status() const { return status_; }

 private:
  engine::FunctionRegistry* registry_;
  Schema schema_;
  Status status_;
};

/// Defines the header introspection Rank, Length and DimSize, with
/// managed work `work` ns per call.
void DefineShape(Definer& def, double work);

}  // namespace sqlarray::udfs
