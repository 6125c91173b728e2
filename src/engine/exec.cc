#include "engine/exec.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <optional>
#include <utility>

#include "common/stopwatch.h"
#include "common/wrap_int.h"
#include "engine/batch.h"
#include "engine/vec_expr.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sqlarray::engine {

Result<Value> ResultSet::ScalarResult() const {
  if (rows.size() != 1 || rows[0].size() != 1) {
    return Status::InvalidArgument("result is not a single scalar");
  }
  return rows[0][0];
}

SubqueryScope::SubqueryScope(Executor* executor, SubqueryFn fn)
    : executor_(executor),
      fn_(std::make_unique<SubqueryFn>(std::move(fn))) {
  executor_->subquery_fn_ = fn_.get();
}

SubqueryScope& SubqueryScope::operator=(SubqueryScope&& o) noexcept {
  Release();
  executor_ = std::exchange(o.executor_, nullptr);
  fn_ = std::move(o.fn_);
  return *this;
}

bool SubqueryScope::active() const {
  return executor_ != nullptr && fn_ != nullptr &&
         executor_->subquery_fn_ == fn_.get();
}

void SubqueryScope::Release() {
  // Only uninstall if the executor still points at THIS scope's function —
  // a scope displaced by a newer install must not tear the newer one down.
  // CAS so a concurrent install from another session cannot be torn down
  // between the check and the clear.
  if (executor_ != nullptr && fn_ != nullptr) {
    const SubqueryFn* expected = fn_.get();
    executor_->subquery_fn_.compare_exchange_strong(expected, nullptr);
  }
  executor_ = nullptr;
  fn_.reset();
}

SubqueryScope Executor::InstallSubqueryRunner(SubqueryFn fn) {
  return SubqueryScope(this, std::move(fn));
}

Result<Value> Executor::EvalStandalone(const Expr& expr,
                                       std::map<std::string, Value>* variables,
                                       QueryStats* stats) {
  EvalContext ctx;
  ctx.variables = variables;
  ctx.udf.pool = db_->buffer_pool();
  ctx.udf.subquery = subquery_fn_;
  ctx.udf.stats = stats;
  ctx.udf.cost = &cost_;
  // Standalone evaluation has no QueryContext; ambient thread limits (the
  // session installs them per statement) keep UDF chains governable.
  ctx.udf.limits = gov::ThreadLimits();
  return Eval(expr, ctx);
}

Status Executor::Bind(Query* q) const {
  if (q->table != nullptr && q->tvf != nullptr) {
    return Status::InvalidArgument("query cannot have two row sources");
  }
  // TVF arguments are standalone expressions (no row context).
  for (ExprPtr& a : q->tvf_args) {
    SQLARRAY_RETURN_IF_ERROR(BindExpr(a.get(), nullptr, registry_));
  }

  auto bind = [&](Expr* e) -> Status {
    if (q->tvf != nullptr) {
      return BindExprToColumns(e, q->tvf->columns, registry_);
    }
    const storage::Schema* schema =
        q->table != nullptr ? &q->table->schema() : nullptr;
    return BindExpr(e, schema, registry_);
  };
  for (SelectItem& item : q->items) {
    if (item.expr != nullptr) {
      SQLARRAY_RETURN_IF_ERROR(bind(item.expr.get()));
    }
    for (ExprPtr& a : item.uda_args) {
      SQLARRAY_RETURN_IF_ERROR(bind(a.get()));
    }
  }
  if (q->where != nullptr) {
    SQLARRAY_RETURN_IF_ERROR(bind(q->where.get()));
  }
  for (ExprPtr& g : q->group_by) {
    SQLARRAY_RETURN_IF_ERROR(bind(g.get()));
  }
  return Status::OK();
}

Result<std::vector<std::vector<Value>>> Executor::MaterializeTvf(
    const Query& q, std::map<std::string, Value>* variables,
    QueryStats* stats) {
  std::vector<Value> args;
  for (const ExprPtr& a : q.tvf_args) {
    SQLARRAY_ASSIGN_OR_RETURN(Value v, EvalStandalone(*a, variables, stats));
    args.push_back(std::move(v));
  }
  UdfContext ctx;
  ctx.pool = db_->buffer_pool();
  ctx.stats = stats;
  ctx.cost = &cost_;
  ctx.subquery = subquery_fn_;
  ctx.limits = gov::ThreadLimits();
  if (ctx.limits != nullptr) {
    SQLARRAY_RETURN_IF_ERROR(ctx.limits->Check());
  }
  SQLARRAY_ASSIGN_OR_RETURN(std::vector<std::vector<Value>> rows,
                            q.tvf->fn(args, ctx));
  if (stats != nullptr) {
    // The hosted TVF streams every produced row across the CLR boundary.
    stats->udf_calls++;
    double charge_ns =
        cost_.clr_call_ns + cost_.tvf_row_ns * static_cast<double>(rows.size());
    stats->ChargeCpuNs(charge_ns);
    if (stats->track_udf_detail) {
      QueryStats::UdfFnStats& d =
          stats->udf_by_fn[q.tvf->schema + "." + q.tvf->name];
      d.calls++;
      d.cpu_ns += charge_ns;
    }
  }
  return rows;
}

namespace {

bool HasAggregates(const Query& q) {
  for (const SelectItem& item : q.items) {
    if (item.agg != SelectItem::AggKind::kNone) return true;
  }
  return false;
}

bool HasUda(const Query& q) {
  for (const SelectItem& item : q.items) {
    if (item.agg == SelectItem::AggKind::kUda) return true;
  }
  return false;
}

/// Accumulator for one aggregate within one group.
struct AggState {
  int64_t count = 0;
  double sum = 0;
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  bool int_only = true;
  int64_t isum = 0;
  // UDA state
  std::unique_ptr<Uda> uda;
  std::vector<uint8_t> uda_state;

  /// Combines a partial accumulator from a later morsel (native aggregate
  /// kinds only; a UDA query is always one morsel, so never merges).
  void Merge(const AggState& other) {
    count += other.count;
    sum += other.sum;
    isum = WrapAdd(isum, other.isum);
    mn = std::min(mn, other.mn);
    mx = std::max(mx, other.mx);
    int_only = int_only && other.int_only;
  }
};

/// Folds one evaluated aggregate argument into the accumulator: the
/// oracle's fold, and what every argument without a lane program runs, so
/// accumulation arithmetic (and therefore results) is identical bit for bit
/// with the columnar fold.
Status AccumulateNative(SelectItem::AggKind agg, const Value& v,
                        AggState* st) {
  if (v.is_null()) return Status::OK();
  if (agg == SelectItem::AggKind::kCount) {
    st->count++;
    return Status::OK();
  }
  SQLARRAY_ASSIGN_OR_RETURN(double d, v.AsDouble());
  if (v.kind() == Value::Kind::kInt64) {
    st->isum = WrapAdd(st->isum, v.AsInt().value());
  } else {
    st->int_only = false;
  }
  st->count++;
  st->sum += d;
  st->mn = std::min(st->mn, d);
  st->mx = std::max(st->mx, d);
  return Status::OK();
}

/// Produces the final output value of a native aggregate.
Result<Value> FinishNative(SelectItem::AggKind agg, const AggState& st) {
  switch (agg) {
    case SelectItem::AggKind::kCount:
      return Value::Int(st.count);
    case SelectItem::AggKind::kSum:
      if (st.count == 0) return Value::Null();
      if (st.int_only) return Value::Int(st.isum);
      return Value::Double(st.sum);
    case SelectItem::AggKind::kMin:
      return st.count == 0 ? Value::Null() : Value::Double(st.mn);
    case SelectItem::AggKind::kMax:
      return st.count == 0 ? Value::Null() : Value::Double(st.mx);
    case SelectItem::AggKind::kAvg:
      return st.count == 0
                 ? Value::Null()
                 : Value::Double(st.sum / static_cast<double>(st.count));
    default:
      return Status::Internal("FinishNative on a non-native aggregate");
  }
}

/// True when COUNT takes the bare-increment shortcut (COUNT(*)): no
/// argument evaluation and no native_agg_step charge.
bool IsCountStar(const SelectItem& item) {
  return item.agg == SelectItem::AggKind::kCount &&
         (item.expr == nullptr || item.expr->kind == Expr::Kind::kStar);
}

/// True for a native aggregate that evaluates its argument, one
/// native_agg_step per kept row.
bool FoldsArgument(const SelectItem& item) {
  return item.agg != SelectItem::AggKind::kNone &&
         item.agg != SelectItem::AggKind::kUda && !IsCountStar(item);
}

/// Evaluates the WHERE for the context's row with SQL truthiness: NULL is
/// false.
Result<bool> RowPasses(const Query& q, EvalContext& ctx) {
  if (q.where == nullptr) return true;
  SQLARRAY_ASSIGN_OR_RETURN(Value keep, Eval(*q.where, ctx));
  if (keep.is_null()) return false;
  SQLARRAY_ASSIGN_OR_RETURN(int64_t truthy, keep.AsInt());
  return truthy != 0;
}

// ---------------------------------------------------------------------------
// Vectorized pipeline glue: per-query compiled programs, scratch registers,
// pipeline counters, and the columnar aggregate bridge.
// ---------------------------------------------------------------------------

// Counters are resolved once per process (GetCounter takes the registry
// mutex); Add is a relaxed atomic, safe from morsel workers.
obs::Counter& VecBatchesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("vec.batches");
  return *c;
}
obs::Counter& VecRowsCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter("vec.rows");
  return *c;
}
obs::Counter& VecFallbackRowsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("vec.fallback_rows");
  return *c;
}

/// Per-query compiled columnar programs: one for WHERE, one per select item
/// and then one per GROUP BY key that the columnar domain covers. Null
/// slots evaluate through Eval. Built once per statement and shared
/// read-only across morsel workers (Run writes only the caller's scratch).
struct VecQueryPlan {
  bool any = false;
  bool where_ok = false;
  vec::VecProgram where;
  std::vector<std::unique_ptr<vec::VecProgram>> progs;
};

/// Compiles the query's expressions best-effort. In aggregate mode the
/// native aggregate arguments and the GROUP BY keys compile (plain items
/// evaluate once per group, COUNT(*) never evaluates); in rows mode every
/// projection item does.
VecQueryPlan BuildVecPlan(const Query& q,
                          const std::map<std::string, Value>* variables,
                          bool rows_mode) {
  VecQueryPlan p;
  const storage::Schema& schema = q.table->schema();
  if (q.where != nullptr) {
    p.where_ok = vec::VecProgram::Compile(*q.where, schema, variables, &p.where);
    p.any = p.any || p.where_ok;
  }
  std::vector<const Expr*> exprs;
  for (const SelectItem& item : q.items) {
    const bool wanted = rows_mode ? item.agg == SelectItem::AggKind::kNone
                                  : FoldsArgument(item);
    exprs.push_back(wanted ? item.expr.get() : nullptr);
  }
  for (const ExprPtr& g : q.group_by) exprs.push_back(g.get());
  for (const Expr* e : exprs) {
    auto prog = std::make_unique<vec::VecProgram>();
    const bool ok = e != nullptr && vec::VecProgram::Compile(
                                        *e, schema, variables, prog.get());
    p.any = p.any || ok;
    p.progs.push_back(ok ? std::move(prog) : nullptr);
  }
  return p;
}

/// Register-file heap footprint for budget accounting: every instruction
/// owns one value lane plus a validity bitmap at batch width.
int64_t VecPlanFootprint(const VecQueryPlan& p, int batch_rows) {
  int64_t instrs = p.where_ok ? p.where.num_instrs() : 0;
  for (const auto& prog : p.progs) {
    if (prog != nullptr) instrs += prog->num_instrs();
  }
  const int64_t per_reg =
      static_cast<int64_t>(batch_rows) * 8 +
      static_cast<int64_t>(col::ValidityWords(batch_rows)) * 8;
  return instrs * per_reg;
}

/// Folds rows [begin, end) of an evaluated columnar aggregate argument into
/// the live AggState. The fold continues the accumulator's serial chain
/// (seed, fold, copy back), so results are bit-identical to
/// AccumulateNative row by row.
Status VecAccumulateColumn(SelectItem::AggKind agg, const col::ColumnVec& c,
                           int32_t begin, int32_t end, AggState* st) {
  if (agg == SelectItem::AggKind::kCount) {
    st->count += col::CountValid(c.valid_words(), begin, end);
    return Status::OK();
  }
  col::VecAggState vs;
  vs.count = st->count;
  vs.sum = st->sum;
  vs.mn = st->mn;
  vs.mx = st->mx;
  vs.int_only = st->int_only;
  vs.isum = st->isum;
  SQLARRAY_RETURN_IF_ERROR(
      c.lane() == col::Lane::kI64
          ? col::FoldI64(c.i64(), c.valid_words(), begin, end, &vs)
          : col::FoldF64(c.f64(), c.valid_words(), begin, end, &vs));
  st->count = vs.count;
  st->sum = vs.sum;
  st->mn = vs.mn;
  st->mx = vs.mx;
  st->int_only = vs.int_only;
  st->isum = vs.isum;
  return Status::OK();
}

/// Serializes a grouping key value into a byte string for hashing: its
/// kind, its bytes and a 0x1f separator. A separator byte inside a string,
/// bytes or blob value is doubled, so distinct key tuples never serialize
/// alike. Binary values key by their bytes, out-of-page VARBINARY(MAX)
/// blobs included, so distinct arrays form distinct groups; NULL is one
/// bucket, and a FLOAT zero keys as +0.0, since -0.0 = 0.0.
Status AppendGroupKey(const Value& v, std::string* out) {
  auto append_escaped = [out](const void* data, size_t n) {
    const char* p = static_cast<const char*>(data);
    for (size_t i = 0; i < n; ++i) {
      out->push_back(p[i]);
      if (p[i] == '\x1f') out->push_back('\x1f');
    }
  };
  out->push_back(static_cast<char>(v.kind()));
  switch (v.kind()) {
    case Value::Kind::kInt64: {
      int64_t x = v.AsInt().value();
      out->append(reinterpret_cast<const char*>(&x), 8);
      break;
    }
    case Value::Kind::kFloat64: {
      double x = v.AsDouble().value();
      if (x == 0) x = 0;
      out->append(reinterpret_cast<const char*>(&x), 8);
      break;
    }
    case Value::Kind::kString: {
      const std::string s = v.AsString().value();
      append_escaped(s.data(), s.size());
      break;
    }
    case Value::Kind::kBytes: {
      const auto* b = v.AsBytes().value();
      append_escaped(b->data(), b->size());
      break;
    }
    case Value::Kind::kBlob: {
      SQLARRAY_ASSIGN_OR_RETURN(std::vector<uint8_t> b, v.MaterializeBytes());
      append_escaped(b.data(), b.size());
      break;
    }
    case Value::Kind::kNull:
      break;
  }
  out->push_back('\x1f');
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The scan pipeline. Every query with a row source runs one morsel plan:
// the planned leaf list is cut into morsels (engine/parallel.h), each morsel
// folds its rows into a private Partial with one of two chunk bodies —
// aggregate or projection, fed a block of rows at a time — and the partials
// merge in morsel-index order. Serial execution is that same plan at one
// worker; a query that cannot split (a UDA, a reader-style UDF, a TVF
// source) is one morsel over its whole source.

/// True if any call node in the tree binds a function matching `pred`.
template <typename Pred>
bool AnyBoundCall(const Expr* e, const Pred& pred) {
  if (e == nullptr) return false;
  if (e->kind == Expr::Kind::kCall && e->bound_fn != nullptr &&
      pred(*e->bound_fn)) {
    return true;
  }
  for (const ExprPtr& a : e->args) {
    if (AnyBoundCall(a.get(), pred)) return true;
  }
  return false;
}

template <typename Pred>
bool QueryHasBoundCall(const Query& q, const Pred& pred) {
  for (const SelectItem& item : q.items) {
    if (AnyBoundCall(item.expr.get(), pred)) return true;
    for (const ExprPtr& a : item.uda_args) {
      if (AnyBoundCall(a.get(), pred)) return true;
    }
  }
  if (AnyBoundCall(q.where.get(), pred)) return true;
  for (const ExprPtr& g : q.group_by) {
    if (AnyBoundCall(g.get(), pred)) return true;
  }
  return false;
}

/// True when a table query may split into many morsels: no UDA items (UDA
/// state marshaling is order-sensitive) and no reader-style UDF (those
/// re-enter the session through the subquery runner).
bool MorselEligible(const Query& q) {
  return q.table != nullptr && !HasUda(q) &&
         !QueryHasBoundCall(
             q, [](const ScalarFunction& f) { return f.needs_subquery; });
}

/// One group's accumulators.
struct GroupAcc {
  std::vector<Value> plain_items;  // first-row values of non-agg items
  std::vector<AggState> aggs;
};

/// Groups keyed by serialized key; an ungrouped aggregate is the one group
/// keyed "".
using GroupMap = std::map<std::string, GroupAcc>;

/// One morsel's partial result.
struct Partial {
  GroupMap groups;                       ///< aggregate plans
  std::vector<std::vector<Value>> rows;  ///< projection plans
  QueryStats stats;
};

/// The statement's snapshot, when one is installed (MVCC / AS OF reads).
inline storage::PageSource* SnapOf(QueryContext* qctx) {
  return qctx != nullptr ? qctx->snapshot.get() : nullptr;
}

// ---------------------------------------------------------------------------
// Key ranges. A top-level AND term `id OP e` or `e OP id` (id = column 0,
// the clustered key; OP one of = < <= > >=; e free of columns, `*` and
// calls) bounds the keys the WHERE can keep. The bounds narrow which leaves
// the morsels read; the whole WHERE still runs on every row read.
// ---------------------------------------------------------------------------

/// The closed interval of clustered keys a WHERE can keep; lo > hi when
/// no key can match.
struct KeyRange {
  bool seek = false;  ///< some conjunct bounds the key
  int64_t lo = std::numeric_limits<int64_t>::min();
  int64_t hi = std::numeric_limits<int64_t>::max();

  bool empty() const { return lo > hi; }
  void SetEmpty() {
    lo = std::numeric_limits<int64_t>::max();
    hi = std::numeric_limits<int64_t>::min();
  }
};

/// True for literals, @variables and operators over them.
bool IsPlanConstant(const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
    case Expr::Kind::kVariable:
      return true;
    case Expr::Kind::kUnary:
    case Expr::Kind::kBinary:
      return std::all_of(e.args.begin(), e.args.end(),
                         [](const ExprPtr& a) { return IsPlanConstant(*a); });
    default:
      return false;
  }
}

bool IsKeyColumn(const Expr& e) {
  return e.kind == Expr::Kind::kColumn && e.column_index == 0;
}

/// The comparison that reads `e OP id` as `id OP' e`.
BinaryOp Mirror(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;
  }
}

/// The smallest int64 k with double(k) > c (`strict`) or >= c: the way
/// EvalBinaryOp and the vec kernels compare a BIGINT with anything.
/// nullopt when no int64 qualifies. double(k) is monotone in k, so a binary
/// search over the whole int64 range finds it.
std::optional<int64_t> FirstKeyAbove(double c, bool strict) {
  auto above = [&](int64_t k) {
    const double d = static_cast<double>(k);
    return strict ? d > c : d >= c;
  };
  int64_t lo = std::numeric_limits<int64_t>::min();
  int64_t hi = std::numeric_limits<int64_t>::max();
  if (!above(hi)) return std::nullopt;
  while (lo < hi) {
    const int64_t mid =
        lo + static_cast<int64_t>(
                 (static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo)) / 2);
    if (above(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

/// Intersects `r` with the keys k for which `double(k) OP c` holds.
void NarrowKeyRange(BinaryOp op, double c, KeyRange* r) {
  if (std::isnan(c)) {
    r->SetEmpty();
    return;
  }
  auto raise_lo = [&](bool strict) {
    std::optional<int64_t> k = FirstKeyAbove(c, strict);
    if (!k.has_value()) {
      r->SetEmpty();
    } else {
      r->lo = std::max(r->lo, *k);
    }
  };
  auto lower_hi = [&](bool strict) {
    std::optional<int64_t> k = FirstKeyAbove(c, strict);
    if (!k.has_value()) return;  // every key qualifies
    if (*k == std::numeric_limits<int64_t>::min()) {
      r->SetEmpty();
    } else {
      r->hi = std::min(r->hi, *k - 1);
    }
  };
  switch (op) {
    case BinaryOp::kGe: raise_lo(false); break;
    case BinaryOp::kGt: raise_lo(true); break;
    case BinaryOp::kLe: lower_hi(true); break;
    case BinaryOp::kLt: lower_hi(false); break;
    default:  // kEq
      raise_lo(false);
      lower_hi(true);
      break;
  }
}

void CollectConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e->kind == Expr::Kind::kBinary && e->binary_op == BinaryOp::kAnd) {
    CollectConjuncts(e->args[0].get(), out);
    CollectConjuncts(e->args[1].get(), out);
    return;
  }
  out->push_back(e);
}

/// The key interval of the WHERE's sargable conjuncts. Each bound is
/// evaluated once, here, with the statement's variables. A bound that fails
/// to evaluate or is not numeric is skipped, so the residual reports its
/// error per row as before; NULL or NaN empties the interval.
KeyRange ExtractKeyRange(const Expr* where,
                         std::map<std::string, Value>* variables) {
  KeyRange r;
  if (where == nullptr) return r;
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(where, &conjuncts);
  for (const Expr* c : conjuncts) {
    if (c->kind != Expr::Kind::kBinary) continue;
    BinaryOp op = c->binary_op;
    if (op != BinaryOp::kEq && op != BinaryOp::kLt && op != BinaryOp::kLe &&
        op != BinaryOp::kGt && op != BinaryOp::kGe) {
      continue;
    }
    const Expr* bound = nullptr;
    if (IsKeyColumn(*c->args[0]) && IsPlanConstant(*c->args[1])) {
      bound = c->args[1].get();
    } else if (IsKeyColumn(*c->args[1]) && IsPlanConstant(*c->args[0])) {
      bound = c->args[0].get();
      op = Mirror(op);
    } else {
      continue;
    }
    EvalContext ctx;
    ctx.variables = variables;
    Result<Value> v = Eval(*bound, ctx);
    if (!v.ok()) continue;
    if (v->is_null()) {
      r.seek = true;
      r.SetEmpty();
      continue;
    }
    if (v->kind() != Value::Kind::kInt64 &&
        v->kind() != Value::Kind::kFloat64) {
      continue;
    }
    r.seek = true;
    NarrowKeyRange(op, v->AsDouble().value(), &r);
  }
  return r;
}

/// The morsel grid and worker count for one scan. Every table plan reads
/// its leaf list, and a key range narrows only the leaves the morsels read,
/// [read_begin, read_end), never the grid. A morsel-eligible table's grid
/// is a pure function of its page count (never of the worker count) so
/// merge order — and therefore float results — cannot depend on the degree
/// of parallelism. Any other table query is one morsel over the whole list,
/// run inline, and a TVF source is one morsel over its materialized rows.
/// Float sums and UDA state then fold in source order, and the subquery
/// runner never runs on a pool thread (a nested statement that goes
/// parallel would wait on the pool from inside it).
struct ScanPlan {
  std::vector<storage::PageId> pages;  ///< the table's leaf pages
  size_t grid_pages = 1;               ///< 1 for a TVF source
  size_t morsel_pages = 1;
  size_t n_morsels = 1;
  int workers = 1;
  size_t read_begin = 0;
  size_t read_end = 0;
};

Result<ScanPlan> PlanScan(const Query& q, bool eligible, const KeyRange& keys,
                          int requested_workers, int64_t min_pages_override,
                          storage::PageSource* snap) {
  ScanPlan plan;
  if (q.table == nullptr) return plan;
  std::pair<size_t, size_t> read;
  if (snap == nullptr) {
    SQLARRAY_ASSIGN_OR_RETURN(plan.pages, q.table->CollectLeafPages());
    read = {0, plan.pages.size()};
    if (keys.seek && !keys.empty()) {
      SQLARRAY_ASSIGN_OR_RETURN(read, q.table->SeekLeaves(keys.lo, keys.hi));
    }
  } else {
    SQLARRAY_ASSIGN_OR_RETURN(storage::BTree::LeafMap map,
                              q.table->ReadLeafMap(snap));
    read = {0, map.pages.size()};
    if (keys.seek && !keys.empty()) read = map.Span(keys.lo, keys.hi);
    plan.pages = std::move(map.pages);
  }
  if (keys.empty()) read = {0, 0};
  plan.read_begin = read.first;
  plan.read_end = read.second;

  const int64_t n_pages = static_cast<int64_t>(plan.pages.size());
  plan.grid_pages = plan.pages.size();
  plan.morsel_pages = eligible ? static_cast<size_t>(MorselPages(n_pages))
                               : std::max<size_t>(1, plan.grid_pages);
  plan.n_morsels =
      (plan.grid_pages + plan.morsel_pages - 1) / plan.morsel_pages;
  if (!eligible) return plan;
  // A CLR call anywhere in the plan makes rows expensive enough that small
  // page ranges already amortize a worker's fixed setup.
  bool cpu_heavy = QueryHasBoundCall(
      q, [](const ScalarFunction& f) { return f.boundary == Boundary::kClr; });
  int64_t floor = min_pages_override >= 0
                      ? min_pages_override
                      : (cpu_heavy ? kClrPagesPerWorker
                                   : kNativePagesPerWorker);
  // Workers are sized from the pages the morsels read, so a point seek
  // runs inline.
  const size_t read_pages = plan.read_end - plan.read_begin;
  const size_t read_morsels =
      read_pages == 0 ? 0
                      : (plan.read_end - 1) / plan.morsel_pages -
                            plan.read_begin / plan.morsel_pages + 1;
  plan.workers = EffectiveWorkers(requested_workers,
                                  static_cast<int64_t>(read_pages),
                                  static_cast<int64_t>(read_morsels), floor);
  return plan;
}

/// The EXPLAIN ANALYZE detail of a seek: its interval and the leaves it
/// reads out of the table's.
std::string SeekDetail(const KeyRange& keys, const ScanPlan& plan) {
  std::string out = "seek ";
  out += keys.empty() ? std::string("empty")
                    : "[" + std::to_string(keys.lo) + ", " +
                          std::to_string(keys.hi) + "]";
  out += " leaves=" + std::to_string(plan.read_end - plan.read_begin) + "/" +
         std::to_string(plan.pages.size());
  return out;
}

/// Probes the statement's cancellation token (no-op when ungoverned).
inline Status GovCheck(const gov::QueryLimits* limits) {
  return limits != nullptr ? limits->Check() : Status::OK();
}

/// Charges query-private memory growth against the statement budget.
inline Status GovCharge(const gov::QueryLimits* limits, int64_t bytes) {
  return limits != nullptr ? limits->Charge(bytes) : Status::OK();
}

/// Approximate heap footprint of one materialized output row or hash-table
/// group entry (Value headers plus container overhead; blob payloads are
/// charged where they are read).
inline int64_t RowFootprint(size_t n_items) {
  return static_cast<int64_t>(n_items * sizeof(Value)) + 32;
}

void MergeStats(QueryStats* into, const QueryStats& part) {
  into->rows_scanned += part.rows_scanned;
  into->rows_kept += part.rows_kept;
  into->agg_steps += part.agg_steps;
  into->udf_calls += part.udf_calls;
  into->udf_bytes_marshaled += part.udf_bytes_marshaled;
  into->uda_state_bytes += part.uda_state_bytes;
  into->ChargeCpuNs(part.cpu_ns);
  for (const auto& [fn, d] : part.udf_by_fn) {
    QueryStats::UdfFnStats& dst = into->udf_by_fn[fn];
    dst.calls += d.calls;
    dst.bytes += d.bytes;
    dst.cpu_ns += d.cpu_ns;
  }
}

/// What every chunk body of one statement reads; shared read-only across
/// the morsel workers.
struct ScanEnv {
  const Query* q = nullptr;
  const storage::Schema* schema = nullptr;  ///< null for a TVF source
  std::map<std::string, Value>* variables = nullptr;
  const FunctionRegistry* registry = nullptr;
  const CostModel* cost = nullptr;
  storage::BufferPool* pool = nullptr;
  /// The session's subquery runner; set only on the inline one-morsel plan.
  const SubqueryFn* subquery = nullptr;
  const gov::QueryLimits* limits = nullptr;
  bool aggregate = false;  ///< aggregate / GROUP BY plan, else projection
  int batch_rows = 1;      ///< rows per block the chunk bodies read
  const VecQueryPlan* vplan = nullptr;

  UdfContext Udf(QueryStats* stats) const {
    UdfContext udf;
    udf.pool = pool;
    udf.stats = stats;
    udf.cost = cost;
    udf.subquery = subquery;
    udf.limits = limits;
    return udf;
  }

  EvalContext RowContext(QueryStats* stats) const {
    EvalContext ctx;
    ctx.schema = schema;
    ctx.variables = variables;
    ctx.udf = Udf(stats);
    return ctx;
  }
};

/// Consecutive selected rows [begin, end) of one block that share a group.
struct GroupRun {
  int32_t begin = 0;
  int32_t end = 0;
  GroupAcc* group = nullptr;
  bool created = false;  ///< the run's first row created the group
};

/// Folds one row into a UDA under SQL Server's hosting contract: the state
/// crosses the CLR boundary (deserialize + serialize) on every row
/// (Sec. 4.2), and the cost model charges it. The arguments evaluate once
/// per row; a group's first row hands the same values to Init. Like
/// Invoke, each call is a cancellation point: a block of UDA rows stays
/// killable between its calls.
Status AccumulateUda(const ScanEnv& env, const SelectItem& item,
                     EvalContext& ctx, AggState* st) {
  SQLARRAY_RETURN_IF_ERROR(GovCheck(env.limits));
  std::vector<Value> args;
  args.reserve(item.uda_args.size());
  for (const ExprPtr& a : item.uda_args) {
    SQLARRAY_ASSIGN_OR_RETURN(Value v, Eval(*a, ctx));
    args.push_back(std::move(v));
  }
  if (st->uda == nullptr) {
    SQLARRAY_ASSIGN_OR_RETURN(
        const UdaFactory* factory,
        env.registry->ResolveUda(item.uda_schema, item.uda_name));
    st->uda = (*factory)();
    SQLARRAY_ASSIGN_OR_RETURN(st->uda_state, st->uda->Init(args, ctx.udf));
  }
  QueryStats& stats = *ctx.udf.stats;
  const int64_t state_bytes = static_cast<int64_t>(st->uda_state.size());
  stats.uda_state_bytes += 2 * state_bytes;
  stats.udf_calls++;
  const double charge_ns =
      env.cost->clr_call_ns +
      2.0 * env.cost->uda_state_byte_ns * static_cast<double>(state_bytes);
  stats.ChargeCpuNs(charge_ns);
  if (stats.track_udf_detail) {
    QueryStats::UdfFnStats& d =
        stats.udf_by_fn[item.uda_schema + "." + item.uda_name];
    d.calls++;
    d.bytes += 2 * state_bytes;
    d.cpu_ns += charge_ns;
  }
  SQLARRAY_ASSIGN_OR_RETURN(
      st->uda_state, st->uda->Accumulate(st->uda_state, args, ctx.udf));
  return Status::OK();
}

/// The chunk bodies' shared front half: reads a morsel's rows block by block
/// (up to env.batch_rows at a time), charges the block's scan cost, and
/// filters the block into `sel` (the compiled WHERE program when there is
/// one, RowPasses per row otherwise). A table block is gathered out of the
/// leaf cursor into `batch`; a TVF block is a window of its materialized
/// rows, which the row context points at in place. An expression without a
/// compiled program runs through Eval once per selected row, on the row
/// context At() points at that row.
class BatchFeed {
 public:
  BatchFeed(const ScanEnv& env, QueryStats* stats,
            storage::BTree::ChunkCursor* cursor)
      : env_(env), stats_(stats), ctx_(env.RowContext(stats)),
        cursor_(cursor) {}
  BatchFeed(const ScanEnv& env, QueryStats* stats,
            const std::vector<std::vector<Value>>* values)
      : env_(env), stats_(stats), ctx_(env.RowContext(stats)),
        values_(values) {}

  /// Charges the gather buffer and, when a columnar plan runs, its register
  /// file: the bodies' private allocations. A TVF source gathers nothing.
  Status Reserve() const {
    if (cursor_ == nullptr) return Status::OK();
    SQLARRAY_RETURN_IF_ERROR(GovCharge(
        env_.limits,
        env_.schema->row_size() * static_cast<int64_t>(env_.batch_rows)));
    if (env_.vplan == nullptr) return Status::OK();
    return GovCharge(env_.limits,
                     VecPlanFootprint(*env_.vplan, env_.batch_rows));
  }

  /// Reads and filters the next block of at most `max_rows` rows; false
  /// once the source is drained.
  Result<bool> Next(int64_t max_rows) {
    SQLARRAY_RETURN_IF_ERROR(GovCheck(env_.limits));
    const int32_t cap = static_cast<int32_t>(
        std::min<int64_t>(env_.batch_rows, max_rows));
    if (cursor_ != nullptr) {
      // One memcpy per leaf-page run; page loads land where a row-by-row
      // walk would load them.
      batch.Reset(env_.schema->row_size(), cap);
      while (!batch.full() && cursor_->valid()) {
        SQLARRAY_ASSIGN_OR_RETURN(
            int32_t got, cursor_->CopyRows(batch.capacity() - batch.size(),
                                           batch.AppendSlots()));
        batch.CommitAppend(got);
      }
      size_ = batch.size();
    } else {
      first_ += static_cast<size_t>(size_);
      size_ = static_cast<int32_t>(
          std::min(static_cast<size_t>(cap), values_->size() - first_));
    }
    if (size_ == 0) return false;
    stats_->rows_scanned += size_;
    stats_->ChargeCpuNs(env_.cost->row_scan_ns * size_);
    const VecQueryPlan* vplan = env_.vplan;
    if (vplan != nullptr) {
      VecBatchesCounter().Add(1);
      VecRowsCounter().Add(size_);
    }
    sel.clear();
    if (env_.q->where == nullptr) {
      for (int32_t r = 0; r < size_; ++r) sel.push_back(r);
    } else if (vplan != nullptr && vplan->where_ok) {
      SQLARRAY_RETURN_IF_ERROR(vec::VecFilter(vplan->where, batch, &regs,
                                              &trunc_, &sel, ctx_.udf));
    } else {
      for (int32_t r = 0; r < size_; ++r) {
        SQLARRAY_ASSIGN_OR_RETURN(bool keep, RowPasses(*env_.q, At(r)));
        if (keep) sel.push_back(r);
      }
      if (vplan != nullptr) VecFallbackRowsCounter().Add(size_);
    }
    stats_->rows_kept += static_cast<int64_t>(sel.size());
    return true;
  }

  /// The row context pointed at block row `r`.
  EvalContext& At(int32_t r) {
    if (cursor_ != nullptr) {
      ctx_.row = batch.row(r);
    } else {
      ctx_.value_row = &(*values_)[first_ + static_cast<size_t>(r)];
    }
    return ctx_;
  }

  /// Evaluates `e` over the selected rows into `out` (the caller's reused
  /// column), in selection order: its compiled program `prog` when it has
  /// one, Eval once per selected row otherwise.
  Status EvalColumn(const Expr& e, const vec::VecProgram* prog,
                    std::vector<Value>* out) {
    if (prog != nullptr) {
      SQLARRAY_RETURN_IF_ERROR(Run(*prog));
      vec::ColumnToValues(prog->Result(regs), out);
      return Status::OK();
    }
    out->clear();
    for (int32_t r : sel) {
      SQLARRAY_ASSIGN_OR_RETURN(Value v, Eval(e, At(r)));
      out->push_back(std::move(v));
    }
    // Rows an expression evaluated through Eval while a columnar plan ran
    // (the vec.fallback_rows counter).
    if (env_.vplan != nullptr) {
      VecFallbackRowsCounter().Add(static_cast<int64_t>(sel.size()));
    }
    return Status::OK();
  }

  /// The compiled program for select item `i` (GROUP BY key `i - items`),
  /// or null.
  const vec::VecProgram* Program(size_t i) const {
    return env_.vplan != nullptr ? env_.vplan->progs[i].get() : nullptr;
  }

  /// Runs a compiled program over the selected rows into the register
  /// scratch.
  Status Run(const vec::VecProgram& prog) {
    return prog.Run(batch, &sel, &regs, ctx_.udf);
  }

  RowBatch batch;  ///< the gathered table block (lane programs read it)
  std::vector<int32_t> sel;
  /// The worker's register file, sized to the largest program run in it.
  std::vector<col::ColumnVec> regs;

 private:
  const ScanEnv& env_;
  QueryStats* stats_;
  EvalContext ctx_;
  col::ColumnVec trunc_;  ///< the filter's truncation column
  storage::BTree::ChunkCursor* cursor_ = nullptr;
  const std::vector<std::vector<Value>>* values_ = nullptr;
  size_t first_ = 0;  ///< the TVF block's first row
  int32_t size_ = 0;  ///< rows in the current block
};

/// Finds the groups of the block's selected rows, as runs, creating each
/// group on the first kept row that reaches it. GROUP BY keys evaluate as
/// projection items do: a lane program where the key has one, Eval per
/// selected row otherwise. GROUP BY charges each fresh group against the
/// budget: the hash table is where grouped aggregation's memory grows. An
/// ungrouped plan keys the whole block "", one run.
Status FindGroups(const ScanEnv& env, BatchFeed& feed, GroupMap* groups,
                  std::vector<std::string>* keys, std::vector<Value>* col,
                  std::vector<GroupRun>* runs) {
  const Query& q = *env.q;
  const int32_t n = static_cast<int32_t>(feed.sel.size());
  keys->assign(q.group_by.empty() ? 1 : n, std::string());
  for (size_t g = 0; g < q.group_by.size(); ++g) {
    SQLARRAY_RETURN_IF_ERROR(feed.EvalColumn(
        *q.group_by[g], feed.Program(q.items.size() + g), col));
    for (int32_t k = 0; k < n; ++k) {
      SQLARRAY_RETURN_IF_ERROR(AppendGroupKey((*col)[k], &(*keys)[k]));
    }
  }
  runs->clear();
  for (int32_t k = 0; k < static_cast<int32_t>(keys->size()); ++k) {
    auto [it, fresh] = groups->try_emplace(std::move((*keys)[k]));
    if (fresh && !q.group_by.empty()) {
      SQLARRAY_RETURN_IF_ERROR(GovCharge(
          env.limits,
          static_cast<int64_t>(it->first.size()) +
              static_cast<int64_t>(q.items.size() * sizeof(AggState)) +
              RowFootprint(q.group_by.size())));
    }
    if (fresh) it->second.aggs.resize(q.items.size());
    if (!runs->empty() && runs->back().group == &it->second) {
      runs->back().end = k + 1;
    } else {
      runs->push_back({k, k + 1, &it->second, fresh});
    }
  }
  if (q.group_by.empty()) runs->back().end = n;
  return Status::OK();
}

/// Aggregate body: one fold at every block width. Each block first finds
/// every kept row's group, then takes each item in order: a plain item
/// evaluates on the row that created its group; an aggregate folds its
/// rows into their groups in row order, a run at a time, and a folded
/// argument charges its block of steps once.
Status AggregateBatch(const ScanEnv& env, BatchFeed& feed, Partial* out) {
  const Query& q = *env.q;
  QueryStats& stats = out->stats;
  SQLARRAY_RETURN_IF_ERROR(feed.Reserve());
  std::vector<std::string> keys;
  std::vector<Value> col;
  std::vector<GroupRun> runs;
  while (true) {
    SQLARRAY_ASSIGN_OR_RETURN(bool more, feed.Next(env.batch_rows));
    if (!more) break;
    const std::vector<int32_t>& sel = feed.sel;
    if (sel.empty()) continue;
    SQLARRAY_RETURN_IF_ERROR(
        FindGroups(env, feed, &out->groups, &keys, &col, &runs));
    for (size_t i = 0; i < q.items.size(); ++i) {
      const SelectItem& item = q.items[i];
      const vec::VecProgram* prog = feed.Program(i);
      if (FoldsArgument(item)) {
        SQLARRAY_RETURN_IF_ERROR(
            prog != nullptr ? feed.Run(*prog)
                            : feed.EvalColumn(*item.expr, nullptr, &col));
        const int64_t steps = static_cast<int64_t>(sel.size());
        stats.agg_steps += steps;
        stats.ChargeCpuNs(env.cost->native_agg_step_ns *
                          static_cast<double>(steps));
      } else if (item.agg == SelectItem::AggKind::kUda &&
                 env.vplan != nullptr) {
        // A UDA's arguments run through Eval on every selected row.
        VecFallbackRowsCounter().Add(
            static_cast<int64_t>(sel.size() * item.uda_args.size()));
      }
      for (const GroupRun& run : runs) {
        AggState& st = run.group->aggs[i];
        if (item.agg == SelectItem::AggKind::kNone) {
          if (!run.created) continue;
          SQLARRAY_ASSIGN_OR_RETURN(Value v,
                                    Eval(*item.expr, feed.At(sel[run.begin])));
          run.group->plain_items.resize(q.items.size());
          run.group->plain_items[i] = std::move(v);
        } else if (item.agg == SelectItem::AggKind::kUda) {
          for (int32_t k = run.begin; k < run.end; ++k) {
            SQLARRAY_RETURN_IF_ERROR(
                AccumulateUda(env, item, feed.At(sel[k]), &st));
          }
        } else if (IsCountStar(item)) {
          // A bare increment folded into the row-scan cost.
          st.count += run.end - run.begin;
        } else if (prog != nullptr) {
          SQLARRAY_RETURN_IF_ERROR(VecAccumulateColumn(
              item.agg, prog->Result(feed.regs), run.begin, run.end, &st));
        } else {
          for (int32_t k = run.begin; k < run.end; ++k) {
            SQLARRAY_RETURN_IF_ERROR(AccumulateNative(item.agg, col[k], &st));
          }
        }
      }
    }
  }
  return Status::OK();
}

/// Projection body: evaluates each block column by column and stitches the
/// columns into rows. Under TOP each block holds at most the rows the
/// morsel still lacks, so the scan stops on the row that completes it, and
/// no later row of the morsel can reach the output prefix.
Status ProjectBatch(const ScanEnv& env, BatchFeed& feed, Partial* out) {
  const Query& q = *env.q;
  const size_t n_items = q.items.size();
  SQLARRAY_RETURN_IF_ERROR(feed.Reserve());
  std::vector<std::vector<Value>> cols(n_items);
  int64_t lack = q.top < 0 ? env.batch_rows : q.top;
  while (lack > 0) {
    SQLARRAY_ASSIGN_OR_RETURN(bool more, feed.Next(lack));
    if (!more) break;
    const std::vector<int32_t>& sel = feed.sel;
    if (q.top >= 0) lack -= static_cast<int64_t>(sel.size());
    if (sel.empty()) continue;
    for (size_t i = 0; i < n_items; ++i) {
      SQLARRAY_RETURN_IF_ERROR(
          feed.EvalColumn(*q.items[i].expr, feed.Program(i), &cols[i]));
    }
    SQLARRAY_RETURN_IF_ERROR(GovCharge(
        env.limits, static_cast<int64_t>(sel.size()) * RowFootprint(n_items)));
    for (size_t k = 0; k < sel.size(); ++k) {
      std::vector<Value> row;
      row.reserve(n_items);
      for (size_t i = 0; i < n_items; ++i) {
        row.push_back(std::move(cols[i][k]));
      }
      out->rows.push_back(std::move(row));
    }
  }
  return Status::OK();
}

/// TOP short-circuit token for projection plans: `frontier_` counts
/// consecutive completed morsels from 0 and `prefix_rows_` their surviving
/// rows. A worker may skip an UNSTARTED morsel m once prefix_rows >= top:
/// the frontier f <= m then, so the first `top` output rows all come from
/// morsels before m and m's buffer can never reach the output.
class TopFrontier {
 public:
  TopFrontier(int64_t top, size_t n_morsels)
      : top_(top), morsel_rows_(top >= 0 ? n_morsels : 0, -1) {}

  /// True (and the morsel marked done, empty) when morsel `index` cannot
  /// reach the output prefix.
  bool Skip(size_t index) {
    if (top_ < 0 || prefix_rows_.load(std::memory_order_relaxed) < top_) {
      return false;
    }
    Done(index, 0);
    return true;
  }

  void Done(size_t index, int64_t rows) {
    if (top_ < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    morsel_rows_[index] = rows;
    while (frontier_ < morsel_rows_.size() && morsel_rows_[frontier_] >= 0) {
      prefix_rows_.fetch_add(morsel_rows_[frontier_],
                             std::memory_order_relaxed);
      ++frontier_;
    }
  }

 private:
  const int64_t top_;
  std::mutex mu_;
  std::vector<int64_t> morsel_rows_;
  size_t frontier_ = 0;
  std::atomic<int64_t> prefix_rows_{0};
};

/// Merges the partials' groups in morsel-index order — the deterministic
/// merge that makes float results independent of the worker count — and
/// finishes each group into an output row, in serialized-key order. An
/// ungrouped aggregate over no rows still yields its one row.
Status FinishAggregate(const ScanEnv& env, std::vector<Partial>* partials,
                       ResultSet* rs) {
  const Query& q = *env.q;
  const size_t n_items = q.items.size();
  GroupMap groups;
  for (Partial& p : *partials) {
    for (auto& [key, g] : p.groups) {
      auto [it, fresh] = groups.try_emplace(key, std::move(g));
      if (fresh) continue;
      // Plain items keep the lowest-morsel (earliest-row) values.
      for (size_t i = 0; i < n_items; ++i) it->second.aggs[i].Merge(g.aggs[i]);
    }
  }
  if (groups.empty() && q.group_by.empty()) groups[""].aggs.resize(n_items);

  UdfContext udf = env.Udf(&rs->stats);
  for (auto& entry : groups) {
    GroupAcc& group = entry.second;
    std::vector<Value> row;
    row.reserve(n_items);
    for (size_t i = 0; i < n_items; ++i) {
      const SelectItem& item = q.items[i];
      AggState& st = group.aggs[i];
      if (item.agg == SelectItem::AggKind::kNone) {
        row.push_back(i < group.plain_items.size()
                          ? std::move(group.plain_items[i])
                          : Value::Null());
      } else if (item.agg == SelectItem::AggKind::kUda) {
        if (st.uda == nullptr) {
          row.push_back(Value::Null());
          continue;
        }
        SQLARRAY_ASSIGN_OR_RETURN(Value v,
                                  st.uda->Terminate(st.uda_state, udf));
        row.push_back(std::move(v));
      } else {
        SQLARRAY_ASSIGN_OR_RETURN(Value v, FinishNative(item.agg, st));
        row.push_back(std::move(v));
      }
    }
    rs->rows.push_back(std::move(row));
  }
  return Status::OK();
}

/// Concatenates the partials' row buffers in page order, truncated at TOP.
void FinishRows(const Query& q, std::vector<Partial>* partials,
                ResultSet* rs) {
  for (Partial& p : *partials) {
    for (std::vector<Value>& row : p.rows) {
      if (q.top >= 0 && static_cast<int64_t>(rs->rows.size()) >= q.top) return;
      rs->rows.push_back(std::move(row));
    }
  }
}

}  // namespace

Result<ResultSet> Executor::Execute(const Query& q,
                                    std::map<std::string, Value>* variables) {
  return Execute(q, variables, nullptr);
}

Result<ResultSet> Executor::Execute(const Query& q,
                                    std::map<std::string, Value>* variables,
                                    QueryContext* qctx) {
  PlanModes modes;
  if (qctx == nullptr) return ExecuteInternal(q, variables, nullptr, &modes);
  // Bind the statement's serial lane for the whole execution; morsel bodies
  // rebind their worker thread to per-morsel lanes underneath this.
  obs::ScopedTrace serial_lane(&qctx->trace, obs::kSerialLane);
  SQLARRAY_SPAN("exec.query");
  storage::BufferPool::Stats pool_before = db_->buffer_pool()->Snapshot();
  obs::MetricsSnapshot metrics_before;
  if (qctx->collect_profile) {
    metrics_before = obs::MetricsRegistry::Global().Snapshot();
  }
  SQLARRAY_ASSIGN_OR_RETURN(ResultSet rs,
                            ExecuteInternal(q, variables, qctx, &modes));
  qctx->stats = rs.stats;
  if (qctx->collect_profile) {
    BuildProfile(q, rs, modes, pool_before, metrics_before, qctx);
  }
  return rs;
}

Result<ResultSet> Executor::ExecuteInternal(
    const Query& q, std::map<std::string, Value>* variables,
    QueryContext* qctx, PlanModes* modes) {
  ResultSet rs;
  rs.stats.track_udf_detail = qctx != nullptr && qctx->collect_profile;
  for (const SelectItem& item : q.items) rs.columns.push_back(item.label);
  if (q.table == nullptr && q.tvf == nullptr) {
    // FROM-less SELECT: evaluate each item once.
    SQLARRAY_SPAN("exec.eval");
    std::vector<Value> row;
    for (const SelectItem& item : q.items) {
      if (item.agg != SelectItem::AggKind::kNone) {
        return Status::InvalidArgument("aggregate without a FROM clause");
      }
      SQLARRAY_ASSIGN_OR_RETURN(
          Value v, EvalStandalone(*item.expr, variables, &rs.stats));
      row.push_back(std::move(v));
    }
    rs.rows.push_back(std::move(row));
    return rs;
  }

  Stopwatch watch;
  storage::IoStats io_before = db_->disk()->stats();
  storage::PageSource* snap = SnapOf(qctx);
  const bool eligible = MorselEligible(q);
  const KeyRange keys = q.table != nullptr
                            ? ExtractKeyRange(q.where.get(), variables)
                            : KeyRange{};
  SQLARRAY_ASSIGN_OR_RETURN(ScanPlan plan,
                            PlanScan(q, eligible, keys, scan_workers_,
                                     min_pages_per_worker_, snap));
  if (keys.seek) modes->seek = SeekDetail(keys, plan);

  ScanEnv env;
  env.q = &q;
  env.schema = q.table != nullptr ? &q.table->schema() : nullptr;
  env.variables = variables;
  env.registry = registry_;
  env.cost = &cost_;
  env.pool = db_->buffer_pool();
  env.subquery = eligible ? nullptr : subquery_fn_.load();
  env.limits = qctx != nullptr ? &qctx->limits : nullptr;
  env.aggregate = HasAggregates(q) || !q.group_by.empty();
  // Every plan reads batch_rows_ rows per block. Lane programs compile for
  // table plans wider than one row, so set_batch_rows(1) builds none: the
  // oracle.
  env.batch_rows = std::max(1, batch_rows_);
  // One compiled columnar plan per statement, shared read-only by every
  // morsel worker (each worker owns its register scratch). EXPLAIN ANALYZE
  // reports the operator modes of exactly this plan.
  VecQueryPlan vplan;
  if (q.table != nullptr && env.batch_rows > 1) {
    vplan = BuildVecPlan(q, variables, /*rows_mode=*/!env.aggregate);
  }
  if (vplan.any) env.vplan = &vplan;
  modes->vec_filter = vplan.where_ok;
  modes->vec_agg =
      env.aggregate && std::any_of(vplan.progs.begin(), vplan.progs.end(),
                                   [](const auto& p) { return p != nullptr; });

  std::vector<Partial> partials(plan.n_morsels);
  for (Partial& p : partials) {
    p.stats.track_udf_detail = rs.stats.track_udf_detail;
  }
  auto fold = [&](BatchFeed& feed, Partial* out) {
    return env.aggregate ? AggregateBatch(env, feed, out)
                         : ProjectBatch(env, feed, out);
  };
  TopFrontier top(q.top, plan.n_morsels);
  SQLARRAY_RETURN_IF_ERROR(RunMorselScan(
      plan.grid_pages, plan.morsel_pages, plan.workers, qctx,
      [&](const Morsel& m) -> Status {
        Partial& out = partials[m.index];
        if (q.tvf != nullptr) {
          SQLARRAY_ASSIGN_OR_RETURN(std::vector<std::vector<Value>> rows,
                                    MaterializeTvf(q, variables, &out.stats));
          BatchFeed feed(env, &out.stats, &rows);
          return fold(feed, &out);
        }
        if (top.Skip(m.index)) return Status::OK();
        const size_t begin = std::max(m.page_begin, plan.read_begin);
        const size_t end = std::min(m.page_end, plan.read_end);
        if (begin >= end) {
          // Wholly outside the seek's leaves: an empty partial, no fetch.
          top.Done(m.index, 0);
          return Status::OK();
        }
        std::vector<storage::PageId> chunk(plan.pages.begin() + begin,
                                           plan.pages.begin() + end);
        SQLARRAY_ASSIGN_OR_RETURN(
            storage::BTree::ChunkCursor cursor,
            snap != nullptr
                ? q.table->ScanChunk(snap, std::move(chunk))
                : q.table->ScanChunk(db_->buffer_pool(), std::move(chunk)));
        BatchFeed feed(env, &out.stats, &cursor);
        SQLARRAY_RETURN_IF_ERROR(fold(feed, &out));
        top.Done(m.index, static_cast<int64_t>(out.rows.size()));
        return Status::OK();
      }));

  SQLARRAY_SPAN("exec.merge");
  for (const Partial& p : partials) MergeStats(&rs.stats, p.stats);
  if (env.aggregate) {
    SQLARRAY_RETURN_IF_ERROR(FinishAggregate(env, &partials, &rs));
  } else {
    FinishRows(q, &partials, &rs);
  }
  rs.stats.io = db_->disk()->stats() - io_before;
  rs.stats.wall_seconds = watch.ElapsedSeconds();
  return rs;
}

void Executor::BuildProfile(const Query& q, const ResultSet& rs,
                            const PlanModes& modes,
                            const storage::BufferPool::Stats& pool_before,
                            const obs::MetricsSnapshot& metrics_before,
                            QueryContext* qctx) {
  const QueryStats& stats = rs.stats;
  obs::MetricsSnapshot now = obs::MetricsRegistry::Global().Snapshot();
  storage::BufferPool::Stats pool_now = db_->buffer_pool()->Snapshot();

  // The plan label is derived from the query shape alone, so the tree is
  // identical at every worker count and batch size.
  const bool from_less = q.table == nullptr && q.tvf == nullptr;
  const bool has_agg = HasAggregates(q) || !q.group_by.empty();
  const char* plan = from_less ? "values"
                     : has_agg
                         ? (q.group_by.empty() ? "aggregate" : "group-by")
                         : "project";

  obs::ProfileNode* root = qctx->profile.mutable_root();
  root->op = "select";
  root->detail = plan;
  root->counters.rows_out = static_cast<int64_t>(rs.rows.size());
  root->counters.udf_calls = stats.udf_calls;
  root->counters.udf_bytes = stats.udf_bytes_marshaled;
  root->counters.kernel_dispatches =
      now.Delta(metrics_before, "core.dispatch.kernel");
  root->counters.boxed_dispatches =
      now.Delta(metrics_before, "core.dispatch.boxed");
  root->counters.modeled_seconds = stats.ModeledSeconds(cost_);
  root->counters.wall_seconds = stats.wall_seconds;

  obs::ProfileNode* parent = root;
  if (!from_less) {
    if (has_agg) {
      obs::ProfileNode* agg =
          parent->AddChild(q.group_by.empty() ? "aggregate" : "group-by",
                           modes.vec_agg ? "vectorized" : "row");
      agg->counters.rows_in = stats.rows_kept;
      agg->counters.rows_out = static_cast<int64_t>(rs.rows.size());
      agg->counters.modeled_seconds = static_cast<double>(stats.agg_steps) *
                                      cost_.native_agg_step_ns * 1e-9;
      agg->counters.wall_seconds =
          static_cast<double>(qctx->trace.TotalWallNs("exec.merge")) * 1e-9;
      parent = agg;
    }
    if (q.where != nullptr) {
      obs::ProfileNode* filter = parent->AddChild(
          "filter", modes.vec_filter ? "vectorized" : "row");
      filter->counters.rows_in = stats.rows_scanned;
      filter->counters.rows_out = stats.rows_kept;
      parent = filter;
    }
    std::string source =
        q.table != nullptr ? q.table->name()
                           : "tvf " + q.tvf->schema + "." + q.tvf->name;
    if (!modes.seek.empty()) source += " " + modes.seek;
    obs::ProfileNode* scan = parent->AddChild("scan", source);
    scan->counters.rows_out = stats.rows_scanned;
    scan->counters.pages_read = stats.io.pages_read;
    scan->counters.cache_hits = pool_now.hits - pool_before.hits;
    scan->counters.cache_misses = pool_now.misses - pool_before.misses;
    scan->counters.modeled_seconds =
        static_cast<double>(stats.rows_scanned) * cost_.row_scan_ns * 1e-9;
    scan->counters.wall_seconds =
        static_cast<double>(qctx->trace.TotalWallNs("exec.scan.morsel")) *
        1e-9;
  }

  // UDF boundary attribution: one child of the root per "schema.function",
  // in key order (std::map) so the shape is deterministic.
  for (const auto& [fn, d] : stats.udf_by_fn) {
    obs::ProfileNode* udf = root->AddChild("udf", fn);
    udf->counters.udf_calls = d.calls;
    udf->counters.udf_bytes = d.bytes;
    udf->counters.modeled_seconds = d.cpu_ns * 1e-9;
  }

  // Columnar-pipeline summary: one root child when any vectorized batches
  // ran during this statement (registry deltas, like the dispatch
  // counters). fallback_rows counts per-expression drops to the row
  // evaluator, so it can exceed rows when several items fall back.
  const int64_t vec_batches = now.Delta(metrics_before, "vec.batches");
  if (vec_batches > 0) {
    const int64_t vec_rows = now.Delta(metrics_before, "vec.rows");
    const int64_t vec_fallback = now.Delta(metrics_before, "vec.fallback_rows");
    obs::ProfileNode* vn = root->AddChild(
        "vec", "batches=" + std::to_string(vec_batches) +
                   " fallback_rows=" + std::to_string(vec_fallback));
    vn->counters.rows_in = vec_rows;
    vn->counters.rows_out = vec_rows;
  }
}

void Executor::RunOnWorkers(int workers, const std::function<void(int)>& fn) {
  if (workers <= 1) {
    // Inline execution: no thread dispatch, but the identical morsel grid
    // and merge order, so the result is the parallel result.
    fn(0);
    return;
  }
  // The pool accepts one job at a time; concurrent sessions' parallel scans
  // queue here rather than corrupting the pool's job state.
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (worker_pool_ == nullptr) worker_pool_ = std::make_unique<WorkerPool>();
  worker_pool_->Run(workers, fn);
}

Status Executor::RunMorselScan(
    size_t n_pages, size_t morsel_pages, int workers, QueryContext* qctx,
    const std::function<Status(const Morsel&)>& body) {
  MorselQueue queue(n_pages, morsel_pages, workers);
  if (queue.morsel_count() == 0) return Status::OK();
  std::vector<Status> morsel_status(queue.morsel_count());
  std::atomic<bool> abort{false};
  obs::TraceSink* trace = qctx != nullptr ? &qctx->trace : nullptr;
  const gov::QueryLimits* limits =
      qctx != nullptr && qctx->limits.governed() ? &qctx->limits : nullptr;
  RunOnWorkers(workers, [&](int w) {
    // Pool workers inherit the statement's governance for the scan so deep
    // kernels (CheckThreadCancel) see it without parameter plumbing.
    gov::ScopedThreadLimits thread_limits(limits);
    Morsel m;
    while (queue.Next(w, &m)) {
      if (abort.load(std::memory_order_relaxed)) break;
      if (limits != nullptr) {
        Status st = limits->Check();
        if (!st.ok()) {
          morsel_status[m.index] = std::move(st);
          abort.store(true, std::memory_order_relaxed);
          break;
        }
      }
      // Each morsel's spans land on a lane equal to its morsel index, so
      // the stitched trace is a pure function of the grid — not of which
      // worker (or how many) ran it.
      obs::ScopedTrace lane(trace, static_cast<int64_t>(m.index));
      SQLARRAY_SPAN("exec.scan.morsel");
      Status st = body(m);
      if (!st.ok()) {
        // Each morsel index is handed out once, so this write is unshared.
        morsel_status[m.index] = std::move(st);
        abort.store(true, std::memory_order_relaxed);
      }
    }
  });
  // Surface the first failure in morsel order (== scan order at 1 worker).
  for (Status& st : morsel_status) {
    SQLARRAY_RETURN_IF_ERROR(st);
  }
  return Status::OK();
}

}  // namespace sqlarray::engine
