#include "sql/session.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>

#include "mvcc/mvcc.h"
#include "obs/metrics.h"
#include "sql/parser.h"
#include "wal/wal.h"

namespace sqlarray::sql {

namespace {

using engine::Expr;
using engine::ExprPtr;
using engine::SelectItem;
using engine::Value;

std::string Upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return s;
}

/// Maps a T-SQL type name onto a storage column type.
Result<storage::ColumnDef> MapColumn(const CreateTableStmt::Column& col) {
  storage::ColumnDef def;
  def.name = col.name;
  std::string t = Upper(col.type_name);
  if (t == "BIGINT") {
    def.type = storage::ColumnType::kInt64;
  } else if (t == "INT" || t == "INTEGER") {
    def.type = storage::ColumnType::kInt32;
  } else if (t == "FLOAT" || t == "DOUBLE") {
    def.type = storage::ColumnType::kFloat64;
  } else if (t == "REAL") {
    def.type = storage::ColumnType::kFloat32;
  } else if (t == "VARBINARY(MAX)") {
    def.type = storage::ColumnType::kVarBinaryMax;
  } else if (t.rfind("VARBINARY(", 0) == 0) {
    def.type = storage::ColumnType::kBinary;
    def.capacity = col.capacity;
  } else {
    return Status::InvalidArgument("unsupported column type " + col.type_name);
  }
  return def;
}

/// Converts an engine value to a storage row value for a column.
Result<storage::RowValue> ToRowValue(const Value& v,
                                     const storage::ColumnDef& col) {
  switch (col.type) {
    case storage::ColumnType::kInt32: {
      SQLARRAY_ASSIGN_OR_RETURN(int64_t x, v.AsInt());
      return storage::RowValue(static_cast<int32_t>(x));
    }
    case storage::ColumnType::kInt64: {
      SQLARRAY_ASSIGN_OR_RETURN(int64_t x, v.AsInt());
      return storage::RowValue(x);
    }
    case storage::ColumnType::kFloat32: {
      SQLARRAY_ASSIGN_OR_RETURN(double x, v.AsDouble());
      return storage::RowValue(static_cast<float>(x));
    }
    case storage::ColumnType::kFloat64: {
      SQLARRAY_ASSIGN_OR_RETURN(double x, v.AsDouble());
      return storage::RowValue(x);
    }
    case storage::ColumnType::kBinary:
    case storage::ColumnType::kVarBinaryMax: {
      SQLARRAY_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                                v.MaterializeBytes());
      return storage::RowValue(std::move(bytes));
    }
  }
  return Status::Internal("unreachable column type");
}

/// Three-way comparison of result values for ORDER BY: NULL first, then by
/// kind, numerics by value, strings and binaries lexicographically.
int CompareValues(const Value& a, const Value& b) {
  auto numeric = [](const Value& v) {
    return v.kind() == Value::Kind::kInt64 ||
           v.kind() == Value::Kind::kFloat64;
  };
  if (a.is_null() || b.is_null()) {
    return (a.is_null() ? 0 : 1) - (b.is_null() ? 0 : 1);
  }
  if (numeric(a) && numeric(b)) {
    double x = a.AsDouble().value(), y = b.AsDouble().value();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (a.kind() != b.kind()) {
    return static_cast<int>(a.kind()) < static_cast<int>(b.kind()) ? -1 : 1;
  }
  if (a.kind() == Value::Kind::kString) {
    return a.AsString().value().compare(b.AsString().value());
  }
  if (a.kind() == Value::Kind::kBytes) {
    const auto* x = a.AsBytes().value();
    const auto* y = b.AsBytes().value();
    if (*x == *y) return 0;
    return std::lexicographical_compare(x->begin(), x->end(), y->begin(),
                                        y->end())
               ? -1
               : 1;
  }
  return 0;  // blobs: no meaningful order
}

/// Applies ORDER BY keys (already resolved to column indices) to a result.
void SortResult(engine::ResultSet* rs,
                const std::vector<std::pair<int, bool>>& keys) {
  std::stable_sort(rs->rows.begin(), rs->rows.end(),
                   [&](const std::vector<Value>& a,
                       const std::vector<Value>& b) {
                     for (const auto& [col, desc] : keys) {
                       int c = CompareValues(a[col], b[col]);
                       if (c != 0) return desc ? c > 0 : c < 0;
                     }
                     return false;
                   });
}

/// Renders a default output label for an expression.
std::string DefaultLabel(const Expr& e, size_t index) {
  switch (e.kind) {
    case Expr::Kind::kColumn:
      return e.column_name.empty() ? "col" + std::to_string(index)
                                   : e.column_name;
    case Expr::Kind::kCall:
      return e.func_name;
    default:
      return "col" + std::to_string(index);
  }
}

/// Expands a bare `*` select item into one column reference per column of
/// the query's source: the table schema or the TVF's output columns.
Status AppendStarColumns(engine::Query* q) {
  std::vector<std::string> names;
  if (q->tvf != nullptr) {
    names = q->tvf->columns;
  } else if (q->table != nullptr) {
    const storage::Schema& schema = q->table->schema();
    for (int c = 0; c < schema.num_columns(); ++c) {
      names.push_back(schema.column(c).name);
    }
  } else {
    return Status::InvalidArgument("SELECT * requires a FROM clause");
  }
  for (std::string& name : names) {
    SelectItem item;
    item.expr = engine::Col(name);
    item.label = std::move(name);
    q->items.push_back(std::move(item));
  }
  return Status::OK();
}

}  // namespace

Session::Session(engine::Executor* executor)
    : executor_(executor),
      subquery_([this](const std::string& sqltext)
                    -> Result<engine::SubqueryResult> {
        SQLARRAY_ASSIGN_OR_RETURN(Script script, Parse(sqltext));
        // Reads only: a nested write would change the data, or the open
        // transaction's overlay, under the scan of the statement calling it.
        if (script.size() != 1 ||
            script[0].kind != Statement::Kind::kSelect ||
            std::any_of(script[0].select.items.begin(),
                        script[0].select.items.end(),
                        [](const SelectListItem& item) {
                          return !item.assign_var.empty();
                        })) {
          return Status::InvalidArgument(
              "a subquery must be exactly one SELECT that assigns no "
              "variable");
        }
        engine::QueryContext qctx;
        InitContext(&qctx);
        SQLARRAY_ASSIGN_OR_RETURN(engine::ResultSet rs,
                                  ExecuteSelect(script[0].select, &qctx));
        return engine::SubqueryResult{std::move(rs.rows), qctx.stats};
      }),
      cancel_source_(std::make_shared<gov::CancelSource>()) {}

void Session::InitContext(engine::QueryContext* qctx) {
  qctx->variables = &variables_;
  qctx->subquery = &subquery_;
  qctx->limits.cancel = cancel_source_;
  qctx->limits.budget = &budget_;
}

Result<std::vector<engine::ResultSet>> Session::Execute(
    std::string_view sqltext) {
  SQLARRAY_ASSIGN_OR_RETURN(Script script, Parse(sqltext));
  std::vector<engine::ResultSet> results;
  for (Statement& stmt : script) {
    // A kill delivered before the statement starts aborts it here, with
    // zero side effects — no WAL records, no table writes, no result rows.
    // The kill is consumed either way: one kill aborts exactly one
    // statement, whether it struck mid-flight or between statements.
    Status pre = cancel_source_->StatusNow();
    if (!pre.ok()) {
      cancel_source_->Reset();
      return pre;
    }
    budget_.Reset(memory_budget_kb_ * 1024);
    if (statement_timeout_ms_ > 0) {
      cancel_source_->ArmDeadline(
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(statement_timeout_ms_));
    }
    engine::QueryContext qctx;
    InitContext(&qctx);
    Status st = RunStatement(stmt, &qctx, &results);
    last_stats_ = qctx.stats;
    cancel_source_->DisarmDeadline();
    if (st.code() == StatusCode::kCancelled ||
        st.code() == StatusCode::kDeadlineExceeded) {
      // One kill aborts exactly one statement: consume the cancellation so
      // the session stays usable.
      cancel_source_->Reset();
    }
    SQLARRAY_RETURN_IF_ERROR(st);
  }
  return results;
}

Result<engine::Value> Session::GetVariable(const std::string& name) const {
  auto it = variables_.find(name);
  if (it == variables_.end()) {
    return Status::NotFound("undeclared variable @" + name);
  }
  return it->second;
}

Status Session::RunStatement(Statement& stmt, engine::QueryContext* qctx,
                             std::vector<engine::ResultSet>* results) {
  mvcc::MvccManager* m = mvcc_manager();
  wal::WalManager* w = wal_manager();
  // Transactions run only under MVCC. A WAL without it would leave DML with
  // no transaction manager, so such a database runs no statement at all.
  if (m == nullptr && w != nullptr) {
    return Status::InvalidArgument(
        "a database with a write-ahead log needs an MvccManager attached "
        "before sessions can run statements");
  }
  // Nor does a log that could not record the tables present at attach.
  if (w != nullptr) SQLARRAY_RETURN_IF_ERROR(w->attach_status());
  // A simulated crash kills the transaction without telling the session.
  // Noticing here keeps the session honest: later DML autocommits instead of
  // writing into a dead transaction, BEGIN works again, and COMMIT/ROLLBACK
  // report "no open transaction".
  if (txn_open_ && (m == nullptr || !m->TxnActive(txn_id_))) {
    txn_open_ = false;
    txn_id_ = 0;
  }
  switch (stmt.kind) {
    case Statement::Kind::kDeclare: {
      Value init;
      if (stmt.declare.init != nullptr) {
        SQLARRAY_RETURN_IF_ERROR(
            engine::BindExpr(stmt.declare.init.get(), nullptr,
                             executor_->registry()));
        SQLARRAY_ASSIGN_OR_RETURN(
            init, executor_->EvalStandalone(*stmt.declare.init, qctx));
      }
      variables_[stmt.declare.name] = std::move(init);
      return Status::OK();
    }
    case Statement::Kind::kSet: {
      SQLARRAY_RETURN_IF_ERROR(engine::BindExpr(stmt.set.value.get(), nullptr,
                                                executor_->registry()));
      SQLARRAY_ASSIGN_OR_RETURN(
          Value v, executor_->EvalStandalone(*stmt.set.value, qctx));
      if (variables_.count(stmt.set.name) == 0) {
        return Status::NotFound("undeclared variable @" + stmt.set.name);
      }
      variables_[stmt.set.name] = std::move(v);
      return Status::OK();
    }
    case Statement::Kind::kSetOption: {
      if (stmt.set_option.option == "STATEMENT_TIMEOUT_MS") {
        statement_timeout_ms_ = stmt.set_option.value;
      } else if (stmt.set_option.option == "MEMORY_BUDGET_KB") {
        memory_budget_kb_ = stmt.set_option.value;
      } else {
        return Status::InvalidArgument("unknown session option " +
                                       stmt.set_option.option);
      }
      return Status::OK();
    }
    case Statement::Kind::kSelect:
      return RunSelect(stmt.select, qctx, results);
    case Statement::Kind::kCreateTable:
      if (m != nullptr) {
        // DDL is non-transactional: it runs serialized under the DML lock and
        // becomes visible to snapshots taken afterwards, even inside BEGIN.
        return m->RunDdl([&] { return RunCreateTable(stmt.create_table); });
      }
      return RunCreateTable(stmt.create_table);
    case Statement::Kind::kInsert:
      return AutoCommit([&] { return RunInsert(stmt.insert, qctx); });
    case Statement::Kind::kDelete:
      return AutoCommit([&] { return RunDelete(stmt.del, qctx); });
    case Statement::Kind::kExplain:
      return RunExplain(stmt.explain, qctx, results);
    case Statement::Kind::kBegin: {
      if (m == nullptr) {
        return Status::InvalidArgument(
            "BEGIN TRANSACTION requires a write-ahead log and an MvccManager "
            "(none attached to this database)");
      }
      if (txn_open_) {
        return Status::InvalidArgument(
            "transaction already open (nested BEGIN is not supported)");
      }
      SQLARRAY_ASSIGN_OR_RETURN(txn_id_, m->Begin());
      txn_open_ = true;
      return Status::OK();
    }
    case Statement::Kind::kCommit:
    case Statement::Kind::kRollback: {
      bool commit = stmt.kind == Statement::Kind::kCommit;
      if (!txn_open_) {
        return Status::InvalidArgument(
            std::string(commit ? "COMMIT" : "ROLLBACK") +
            " without an open transaction");
      }
      uint64_t txn = txn_id_;
      txn_open_ = false;
      txn_id_ = 0;
      return commit ? m->Commit(txn) : m->Rollback(txn);
    }
    case Statement::Kind::kCheckpoint: {
      wal::WalManager* w = wal_manager();
      if (w == nullptr) {
        return Status::InvalidArgument(
            "CHECKPOINT requires a write-ahead log "
            "(no WalManager attached to this database)");
      }
      if (txn_open_) {
        return Status::InvalidArgument(
            "CHECKPOINT cannot run inside an open transaction");
      }
      return w->Checkpoint();
    }
  }
  return Status::Internal("unreachable statement kind");
}

wal::WalManager* Session::wal_manager() const {
  storage::Database* db = executor_->db();
  return db == nullptr ? nullptr : db->wal();
}

mvcc::MvccManager* Session::mvcc_manager() const {
  storage::Database* db = executor_->db();
  return db == nullptr ? nullptr : db->mvcc();
}

Status Session::AutoCommit(const std::function<Status()>& body) {
  mvcc::MvccManager* m = mvcc_manager();
  if (txn_open_ || m == nullptr) return body();
  SQLARRAY_ASSIGN_OR_RETURN(uint64_t txn, m->Begin());
  txn_open_ = true;
  txn_id_ = txn;
  Status st = body();
  txn_open_ = false;
  txn_id_ = 0;
  if (st.ok()) return m->Commit(txn);
  // Surface the original failure, not the rollback's status.
  (void)m->Rollback(txn);
  return st;
}

Status Session::ForceRollback() {
  // Autocommitted statements roll back inside AutoCommit; this covers a
  // statement killed inside an explicit BEGIN, where the server must not
  // leave the transaction dangling on a session it is about to reuse, and a
  // session that goes away with its BEGIN still open. An MVCC rollback only
  // drops the transaction's private state and claims under the manager's
  // lock, so any thread may run it.
  if (!txn_open_) return Status::OK();
  uint64_t txn = txn_id_;
  txn_open_ = false;
  txn_id_ = 0;
  mvcc::MvccManager* m = mvcc_manager();
  if (m == nullptr || !m->TxnActive(txn)) return Status::OK();
  return m->Rollback(txn);
}

Result<engine::ResultSet> Session::ExecuteSelect(SelectStmt& sel,
                                                 engine::QueryContext* qctx) {
  engine::Query q;
  if (sel.from_is_tvf) {
    SQLARRAY_ASSIGN_OR_RETURN(
        q.tvf, executor_->registry()->ResolveTvf(sel.from_schema,
                                                 sel.from_table));
    if (static_cast<int>(sel.from_args.size()) != q.tvf->arity) {
      return Status::InvalidArgument(
          "wrong argument count for table-valued function " +
          sel.from_schema + "." + sel.from_table);
    }
    q.tvf_args = std::move(sel.from_args);
  } else if (!sel.from_table.empty()) {
    SQLARRAY_ASSIGN_OR_RETURN(q.table,
                              executor_->db()->GetTable(sel.from_table));
  }
  q.top = sel.top;

  const bool has_assignment =
      std::any_of(sel.items.begin(), sel.items.end(),
                  [](const SelectListItem& s) { return !s.assign_var.empty(); });
  for (size_t i = 0; i < sel.items.size(); ++i) {
    SelectListItem& src = sel.items[i];
    if (src.expr->kind == Expr::Kind::kStar) {
      // Assignments map select items to result columns one to one.
      if (has_assignment) {
        return Status::InvalidArgument("SELECT * cannot assign variables");
      }
      SQLARRAY_RETURN_IF_ERROR(AppendStarColumns(&q));
      continue;
    }

    SelectItem item;
    item.label = !src.label.empty() ? src.label : DefaultLabel(*src.expr, i);

    // Recognize top-level aggregates: COUNT/SUM/MIN/MAX/AVG (unqualified)
    // and registered schema-qualified UDAs.
    Expr* e = src.expr.get();
    if (e->kind == Expr::Kind::kCall && e->schema_name.empty()) {
      std::string fn = Upper(e->func_name);
      if (fn == "COUNT" || fn == "SUM" || fn == "MIN" || fn == "MAX" ||
          fn == "AVG") {
        if (e->args.size() != 1) {
          return Status::InvalidArgument(fn + " takes exactly one argument");
        }
        item.agg = fn == "COUNT" ? SelectItem::AggKind::kCount
                   : fn == "SUM" ? SelectItem::AggKind::kSum
                   : fn == "MIN" ? SelectItem::AggKind::kMin
                   : fn == "MAX" ? SelectItem::AggKind::kMax
                                 : SelectItem::AggKind::kAvg;
        item.expr = std::move(e->args[0]);
        q.items.push_back(std::move(item));
        continue;
      }
    }
    if (e->kind == Expr::Kind::kCall && !e->schema_name.empty() &&
        executor_->registry()
            ->ResolveUda(e->schema_name, e->func_name)
            .ok()) {
      item.agg = SelectItem::AggKind::kUda;
      item.uda_schema = e->schema_name;
      item.uda_name = e->func_name;
      item.uda_args = std::move(e->args);
      q.items.push_back(std::move(item));
      continue;
    }

    item.expr = std::move(src.expr);
    q.items.push_back(std::move(item));
  }
  q.where = std::move(sel.where);
  q.group_by = std::move(sel.group_by);

  // Resolve the statement's read snapshot. AS OF pins an explicit commit
  // LSN (time travel); otherwise, with an MVCC manager attached, a plain
  // SELECT reads the latest committed snapshot and an in-transaction SELECT
  // reads through the transaction's own shadow view.
  if (sel.as_of != nullptr || sel.as_of_checkpoint) {
    mvcc::MvccManager* m = mvcc_manager();
    if (m == nullptr) {
      return Status::InvalidArgument(
          "AS OF requires an MVCC manager attached to this database");
    }
    if (qctx->snapshot == nullptr) {
      if (sel.as_of_checkpoint) {
        SQLARRAY_ASSIGN_OR_RETURN(qctx->snapshot, m->OpenAsOfCheckpoint());
      } else {
        SQLARRAY_RETURN_IF_ERROR(engine::BindExpr(sel.as_of.get(), nullptr,
                                                  executor_->registry()));
        SQLARRAY_ASSIGN_OR_RETURN(Value v,
                                  executor_->EvalStandalone(*sel.as_of, qctx));
        SQLARRAY_ASSIGN_OR_RETURN(int64_t lsn, v.AsInt());
        SQLARRAY_ASSIGN_OR_RETURN(
            qctx->snapshot, m->OpenAsOf(static_cast<storage::Lsn>(lsn)));
      }
    }
  } else if (q.table != nullptr && qctx->snapshot == nullptr) {
    if (mvcc::MvccManager* m = mvcc_manager(); m != nullptr) {
      if (txn_open_) {
        SQLARRAY_ASSIGN_OR_RETURN(qctx->snapshot, m->TxnView(txn_id_));
      } else {
        SQLARRAY_ASSIGN_OR_RETURN(qctx->snapshot, m->AcquireSnapshot());
      }
    }
  }

  SQLARRAY_RETURN_IF_ERROR(executor_->Bind(&q));
  SQLARRAY_ASSIGN_OR_RETURN(engine::ResultSet rs,
                            executor_->Execute(q, qctx));

  if (!sel.order_by.empty()) {
    std::vector<std::pair<int, bool>> keys;
    for (const SelectStmt::OrderKey& key : sel.order_by) {
      int col = -1;
      if (key.position > 0) {
        col = key.position - 1;
      } else {
        for (size_t c = 0; c < rs.columns.size(); ++c) {
          if (rs.columns[c] == key.label) {
            col = static_cast<int>(c);
            break;
          }
        }
      }
      if (col < 0 || col >= static_cast<int>(rs.columns.size())) {
        return Status::InvalidArgument(
            "ORDER BY key does not match a select-list column");
      }
      keys.emplace_back(col, key.descending);
    }
    SortResult(&rs, keys);
  }

  if (has_assignment) {
    // T-SQL assignment SELECT: variables take the values from the last row;
    // an empty result set is flagged by clearing the columns so the caller
    // does not forward it to the client.
    if (!rs.rows.empty()) {
      const std::vector<Value>& last = rs.rows.back();
      for (size_t i = 0; i < sel.items.size(); ++i) {
        if (sel.items[i].assign_var.empty()) continue;
        if (variables_.count(sel.items[i].assign_var) == 0) {
          return Status::NotFound("undeclared variable @" +
                                  sel.items[i].assign_var);
        }
        variables_[sel.items[i].assign_var] = last[i];
      }
    }
    rs.columns.clear();
    rs.rows.clear();
    return rs;
  }
  return rs;
}

Status Session::RunSelect(SelectStmt& sel, engine::QueryContext* qctx,
                          std::vector<engine::ResultSet>* results) {
  bool has_assignment = false;
  for (const SelectListItem& item : sel.items) {
    if (!item.assign_var.empty()) has_assignment = true;
  }
  SQLARRAY_ASSIGN_OR_RETURN(engine::ResultSet rs, ExecuteSelect(sel, qctx));
  if (!has_assignment) results->push_back(std::move(rs));
  return Status::OK();
}

engine::ResultSet Session::RenderProfile(const engine::QueryContext& qctx) {
  // Render the profile tree as a result set: one row per operator in
  // preorder, the stable ProfileColumns() keys, wall_ms last (the only
  // nondeterministic column).
  engine::ResultSet out;
  out.columns = obs::ProfileColumns();
  for (const obs::ProfileRow& row : obs::FlattenProfile(qctx.profile)) {
    const obs::OpCounters& c = row.counters;
    std::vector<Value> cells;
    cells.push_back(Value::Str(row.op));
    cells.push_back(Value::Str(row.detail));
    cells.push_back(Value::Int(c.rows_in));
    cells.push_back(Value::Int(c.rows_out));
    cells.push_back(Value::Int(c.pages_read));
    cells.push_back(Value::Int(c.cache_hits));
    cells.push_back(Value::Int(c.cache_misses));
    cells.push_back(Value::Int(c.udf_calls));
    cells.push_back(Value::Int(c.udf_bytes));
    cells.push_back(Value::Int(c.kernel_dispatches));
    cells.push_back(Value::Int(c.boxed_dispatches));
    cells.push_back(Value::Double(c.modeled_seconds * 1e3));
    cells.push_back(Value::Double(c.wall_seconds * 1e3));
    out.rows.push_back(std::move(cells));
  }
  out.stats = qctx.stats;
  return out;
}

Status Session::RunExplain(ExplainStmt& stmt, engine::QueryContext* qctx,
                           std::vector<engine::ResultSet>* results) {
  qctx->collect_profile = true;
  if (stmt.target == ExplainStmt::Target::kSelect) {
    SQLARRAY_RETURN_IF_ERROR(ExecuteSelect(stmt.select, qctx).status());
  } else {
    // DML: execute under autocommit, attributing the statement's log
    // traffic (including the commit flush) via metric deltas. The embedded
    // query's plan — the INSERT's source SELECT or the DELETE's key scan —
    // becomes a child of the DML root; log traffic lands in a "wal" child's
    // detail string so the column shape stays identical to SELECT profiles.
    bool is_insert = stmt.target == ExplainStmt::Target::kInsert;
    obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
    int64_t affected = 0;
    SQLARRAY_RETURN_IF_ERROR(AutoCommit([&] {
      return is_insert ? RunInsert(stmt.insert, qctx, &affected)
                       : RunDelete(stmt.del, qctx, &affected);
    }));
    obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();

    obs::ProfileNode root;
    root.op = is_insert ? "insert" : "delete";
    root.detail = is_insert ? stmt.insert.table : stmt.del.table;
    root.counters.rows_out = affected;
    if (!qctx->profile.empty()) {
      root.children.push_back(std::move(*qctx->profile.mutable_root()));
    }
    if (wal_manager() != nullptr) {
      root.AddChild(
          "wal",
          "records=" + std::to_string(after.Delta(before, "wal.records")) +
              " bytes=" + std::to_string(after.Delta(before, "wal.bytes")) +
              " flushes=" +
              std::to_string(after.Delta(before, "wal.flushes")));
    }
    *qctx->profile.mutable_root() = std::move(root);
  }
  if (qctx->snapshot != nullptr) {
    // Surface the statement's snapshot LSN so a profile pins down exactly
    // which version of the data the plan read.
    qctx->profile.mutable_root()->AddChild(
        "snapshot", "lsn=" + std::to_string(qctx->snapshot->lsn()));
  }
  if (admission_wait_seconds_ >= 0.0) {
    // Surface the admission-queue wait as its own profile row so EXPLAIN
    // ANALYZE shows where a statement's latency went under load. The server
    // records the wait just before handing the statement to the session.
    char buf[64];
    std::snprintf(buf, sizeof(buf), "wait_ms=%.3f",
                  admission_wait_seconds_ * 1e3);
    qctx->profile.mutable_root()->AddChild("admission", buf);
    admission_wait_seconds_ = -1.0;
  }
  results->push_back(RenderProfile(*qctx));
  return Status::OK();
}

Status Session::RunDelete(DeleteStmt& del, engine::QueryContext* qctx,
                          int64_t* affected) {
  SQLARRAY_ASSIGN_OR_RETURN(storage::Table * table,
                            executor_->db()->GetTable(del.table));
  mvcc::MvccManager* m = mvcc_manager();
  // Collect matching clustered keys with a scan, then delete them — the
  // two-phase shape a real engine's DELETE plan has (no halloween problem).
  engine::Query q;
  q.table = table;
  engine::SelectItem key_item;
  key_item.expr = engine::ColIdx(0);
  key_item.label = "key";
  q.items.push_back(std::move(key_item));
  if (del.where != nullptr) {
    SQLARRAY_RETURN_IF_ERROR(engine::BindExpr(del.where.get(),
                                              &table->schema(),
                                              executor_->registry()));
    q.where = std::move(del.where);
  }
  SQLARRAY_RETURN_IF_ERROR(executor_->Bind(&q));
  if (m != nullptr) {
    // The key scan reads the transaction's own view: earlier writes in the
    // same transaction are visible, concurrent committers are not.
    SQLARRAY_ASSIGN_OR_RETURN(qctx->snapshot, m->TxnView(txn_id_));
  }
  SQLARRAY_ASSIGN_OR_RETURN(engine::ResultSet rs, executor_->Execute(q, qctx));
  for (const std::vector<Value>& row : rs.rows) {
    SQLARRAY_RETURN_IF_ERROR(cancel_source_->Check());
    SQLARRAY_ASSIGN_OR_RETURN(int64_t key, row[0].AsInt());
    bool removed = false;
    if (m != nullptr) {
      SQLARRAY_ASSIGN_OR_RETURN(removed, m->ApplyDelete(txn_id_, table, key));
    } else {
      SQLARRAY_ASSIGN_OR_RETURN(removed, table->Delete(key));
    }
    if (!removed) {
      return Status::Internal("row vanished between scan and delete");
    }
  }
  if (affected != nullptr) *affected = static_cast<int64_t>(rs.rows.size());
  return Status::OK();
}

Status Session::RunCreateTable(const CreateTableStmt& ct) {
  std::vector<storage::ColumnDef> cols;
  for (const CreateTableStmt::Column& c : ct.columns) {
    SQLARRAY_ASSIGN_OR_RETURN(storage::ColumnDef def, MapColumn(c));
    cols.push_back(std::move(def));
  }
  SQLARRAY_ASSIGN_OR_RETURN(storage::Schema schema,
                            storage::Schema::Create(std::move(cols)));
  SQLARRAY_ASSIGN_OR_RETURN(
      storage::Table * table,
      executor_->db()->CreateTable(ct.name, std::move(schema)));
  if (wal::WalManager* w = wal_manager(); w != nullptr) {
    // DDL is not transactional, so it is durable when it returns, as a
    // commit is: no later commit has to carry its record to the log disk.
    SQLARRAY_RETURN_IF_ERROR(w->NoteTableCreated(table));
    return w->log_writer()->FlushAll();
  }
  return Status::OK();
}

Status Session::RunInsert(InsertStmt& ins, engine::QueryContext* qctx,
                          int64_t* affected) {
  SQLARRAY_ASSIGN_OR_RETURN(storage::Table * table,
                            executor_->db()->GetTable(ins.table));
  const storage::Schema& schema = table->schema();
  mvcc::MvccManager* m = mvcc_manager();
  auto insert_row = [&](storage::Row row) -> Status {
    if (m != nullptr) return m->ApplyInsert(txn_id_, table, std::move(row));
    return table->Insert(std::move(row));
  };

  if (ins.select != nullptr) {
    // INSERT INTO ... SELECT: materialize the query, convert each output
    // row to the target schema.
    SQLARRAY_ASSIGN_OR_RETURN(engine::ResultSet rs,
                              ExecuteSelect(*ins.select, qctx));
    if (static_cast<int>(rs.columns.size()) != schema.num_columns()) {
      return Status::InvalidArgument(
          "INSERT ... SELECT arity does not match the table schema");
    }
    for (const std::vector<Value>& values : rs.rows) {
      SQLARRAY_RETURN_IF_ERROR(cancel_source_->Check());
      storage::Row row;
      for (int i = 0; i < schema.num_columns(); ++i) {
        SQLARRAY_ASSIGN_OR_RETURN(storage::RowValue rv,
                                  ToRowValue(values[i], schema.column(i)));
        row.push_back(std::move(rv));
      }
      SQLARRAY_RETURN_IF_ERROR(insert_row(std::move(row)));
    }
    if (affected != nullptr) *affected = static_cast<int64_t>(rs.rows.size());
    return Status::OK();
  }

  for (std::vector<ExprPtr>& row_exprs : ins.rows) {
    SQLARRAY_RETURN_IF_ERROR(cancel_source_->Check());
    if (static_cast<int>(row_exprs.size()) != schema.num_columns()) {
      return Status::InvalidArgument(
          "INSERT arity does not match the table schema");
    }
    storage::Row row;
    for (int i = 0; i < schema.num_columns(); ++i) {
      SQLARRAY_RETURN_IF_ERROR(engine::BindExpr(row_exprs[i].get(), nullptr,
                                                executor_->registry()));
      SQLARRAY_ASSIGN_OR_RETURN(Value v,
                                executor_->EvalStandalone(*row_exprs[i], qctx));
      SQLARRAY_ASSIGN_OR_RETURN(storage::RowValue rv,
                                ToRowValue(v, schema.column(i)));
      row.push_back(std::move(rv));
    }
    SQLARRAY_RETURN_IF_ERROR(insert_row(std::move(row)));
  }
  if (affected != nullptr) *affected = static_cast<int64_t>(ins.rows.size());
  return Status::OK();
}

}  // namespace sqlarray::sql
