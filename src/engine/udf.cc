#include "engine/udf.h"

#include <algorithm>

namespace sqlarray::engine {

namespace {

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

}  // namespace

std::string FunctionRegistry::Key(const std::string& schema,
                                  const std::string& name, int arity) {
  return Lower(schema) + "." + Lower(name) + "/" + std::to_string(arity);
}

Status FunctionRegistry::RegisterScalar(ScalarFunction fn) {
  std::string key = Key(fn.schema, fn.name, fn.arity);
  if (scalars_.count(key) != 0) {
    return Status::AlreadyExists("function already registered: " + key);
  }
  scalars_.emplace(std::move(key), std::move(fn));
  return Status::OK();
}

Status FunctionRegistry::RegisterUda(const std::string& schema,
                                     const std::string& name,
                                     UdaFactory factory) {
  std::string key = Lower(schema) + "." + Lower(name);
  if (udas_.count(key) != 0) {
    return Status::AlreadyExists("aggregate already registered: " + key);
  }
  udas_.emplace(std::move(key), std::move(factory));
  return Status::OK();
}

Result<const ScalarFunction*> FunctionRegistry::Resolve(
    const std::string& schema, const std::string& name, int arity) const {
  auto it = scalars_.find(Key(schema, name, arity));
  if (it == scalars_.end()) {
    it = scalars_.find(Key(schema, name, -1));  // variadic fallback
  }
  if (it == scalars_.end()) {
    return Status::NotFound("no function " + schema + "." + name + " with " +
                            std::to_string(arity) + " arguments");
  }
  return &it->second;
}

Status FunctionRegistry::RegisterTvf(TableValuedFunction tvf) {
  std::string key = Lower(tvf.schema) + "." + Lower(tvf.name);
  if (tvfs_.count(key) != 0) {
    return Status::AlreadyExists("table-valued function already registered: " +
                                 key);
  }
  tvfs_.emplace(std::move(key), std::move(tvf));
  return Status::OK();
}

Result<const TableValuedFunction*> FunctionRegistry::ResolveTvf(
    const std::string& schema, const std::string& name) const {
  auto it = tvfs_.find(Lower(schema) + "." + Lower(name));
  if (it == tvfs_.end()) {
    return Status::NotFound("no table-valued function " + schema + "." +
                            name);
  }
  return &it->second;
}

Result<const UdaFactory*> FunctionRegistry::ResolveUda(
    const std::string& schema, const std::string& name) const {
  auto it = udas_.find(Lower(schema) + "." + Lower(name));
  if (it == udas_.end()) {
    return Status::NotFound("no aggregate " + schema + "." + name);
  }
  return &it->second;
}

bool FunctionRegistry::HasScalar(const std::string& schema,
                                 const std::string& name) const {
  // Arity-insensitive probe used by the binder to classify identifiers.
  std::string prefix = Lower(schema) + "." + Lower(name) + "/";
  auto it = scalars_.lower_bound(prefix);
  return it != scalars_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
}

std::vector<const ScalarFunction*> FunctionRegistry::scalars() const {
  std::vector<const ScalarFunction*> out;
  out.reserve(scalars_.size());
  for (const auto& [key, fn] : scalars_) out.push_back(&fn);
  return out;
}

Result<Value> FunctionRegistry::Invoke(const ScalarFunction& fn,
                                       std::span<const Value> args,
                                       UdfContext& ctx) {
  // UDF boundary crossings are a cancellation point: a query spending its
  // time inside hosted calls still notices a kill between invocations.
  if (ctx.limits != nullptr) {
    SQLARRAY_RETURN_IF_ERROR(ctx.limits->Check());
  }
  Result<Value> out = fn.fn(args, ctx);
  CallCharges charges(fn, ctx);
  if (charges.active()) {
    int64_t arg_bytes = 0;
    for (const Value& v : args) arg_bytes += v.ByteSize();
    // A failing call still crossed in with its arguments.
    charges.Charge(1, arg_bytes, out.ok() ? out->ByteSize() : 0);
  }
  return out;
}

}  // namespace sqlarray::engine
