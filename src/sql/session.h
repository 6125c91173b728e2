// Session: executes parsed T-SQL scripts against the engine.
//
// Holds the variable environment across statements (DECLARE/SET), converts
// SELECT statements into bound engine queries (recognizing native aggregates
// and registered UDAs in the select list), and runs DDL/DML.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/exec.h"
#include "gov/gov.h"
#include "sql/ast.h"

namespace sqlarray::wal {
class WalManager;
}  // namespace sqlarray::wal

namespace sqlarray::mvcc {
class MvccManager;
}  // namespace sqlarray::mvcc

namespace sqlarray::sql {

/// An interactive session over one Executor.
class Session {
 public:
  /// Opens a session on `executor`. Its reader-style UDF subqueries
  /// (ConcatQuery) run through this session: its variables, its open
  /// transaction, its cancel source and budget.
  explicit Session(engine::Executor* executor);

  /// Rolls back a transaction the session still holds open, so a client
  /// that disconnects after BEGIN releases its key claims.
  ~Session() { (void)ForceRollback(); }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Parses and executes a batch. Returns one ResultSet per SELECT that
  /// produces client-visible rows (assignment SELECTs produce none;
  /// EXPLAIN ANALYZE produces its profile tree as rows).
  Result<std::vector<engine::ResultSet>> Execute(std::string_view sql);

  /// Reads a session variable (test/bench access).
  Result<engine::Value> GetVariable(const std::string& name) const;
  /// Sets a session variable directly.
  void SetVariable(const std::string& name, engine::Value v) {
    variables_[name] = std::move(v);
  }

  std::map<std::string, engine::Value>* variables() { return &variables_; }
  engine::Executor* executor() { return executor_; }

  /// Statistics of the most recent statement.
  const engine::QueryStats& last_stats() const { return last_stats_; }

  /// True between BEGIN and COMMIT/ROLLBACK.
  bool in_transaction() const { return txn_open_; }

  /// The session's kill switch: a server (or another thread) cancels the
  /// currently running statement via this source. The shared_ptr stays
  /// valid even if the session is torn down mid-kill.
  const std::shared_ptr<gov::CancelSource>& cancel_source() const {
    return cancel_source_;
  }

  /// Session limits (also settable via SET STATEMENT_TIMEOUT_MS /
  /// SET MEMORY_BUDGET_KB). 0 disables the limit.
  void set_statement_timeout_ms(int64_t ms) { statement_timeout_ms_ = ms; }
  int64_t statement_timeout_ms() const { return statement_timeout_ms_; }
  void set_memory_budget_kb(int64_t kb) { memory_budget_kb_ = kb; }
  int64_t memory_budget_kb() const { return memory_budget_kb_; }

  /// Peak query-private memory charged during the last governed statement.
  int64_t last_peak_memory_bytes() const { return budget_.peak(); }

  /// Records how long the statement waited in the admission queue; surfaces
  /// as an "admission" row in the next EXPLAIN ANALYZE profile.
  void set_admission_wait(double seconds) { admission_wait_seconds_ = seconds; }

  /// Rolls back any open transaction: the server's kill path, after a
  /// statement was cancelled mid-flight, and the destructor. A no-op with no
  /// transaction open; safe from any thread.
  Status ForceRollback();

 private:
  /// Fills a fresh statement context with what every statement of this
  /// session runs under: its variables, subquery runner, cancel source and
  /// budget.
  void InitContext(engine::QueryContext* qctx);
  /// Runs one top-level statement under its context `qctx`.
  Status RunStatement(Statement& stmt, engine::QueryContext* qctx,
                      std::vector<engine::ResultSet>* results);
  Status RunSelect(SelectStmt& sel, engine::QueryContext* qctx,
                   std::vector<engine::ResultSet>* results);
  /// Binds and executes one SELECT under the statement's context, applying
  /// ORDER BY and assignment semantics; assignment SELECTs return an empty
  /// result set. Statistics (and the profile, when requested) land in qctx.
  Result<engine::ResultSet> ExecuteSelect(SelectStmt& sel,
                                          engine::QueryContext* qctx);
  /// Runs the EXPLAIN ANALYZE statement and renders its profile tree.
  Status RunExplain(ExplainStmt& stmt, engine::QueryContext* qctx,
                    std::vector<engine::ResultSet>* results);
  Status RunCreateTable(const CreateTableStmt& ct);
  /// DML runners. The embedded query (the INSERT's SELECT source / the
  /// DELETE's key scan) and the VALUES expressions run under `qctx`;
  /// `affected` receives the row count.
  Status RunDelete(DeleteStmt& del, engine::QueryContext* qctx,
                   int64_t* affected = nullptr);
  Status RunInsert(InsertStmt& ins, engine::QueryContext* qctx,
                   int64_t* affected = nullptr);

  /// The database's WAL manager, or null when running without one. The
  /// session uses it only for CHECKPOINT, EXPLAIN's `wal` row and logging
  /// CREATE TABLE; transactions go through the MVCC manager.
  wal::WalManager* wal_manager() const;
  /// The database's MVCC manager: null on a bare database (no WAL, no
  /// transactions). Every statement fails on a database with a WAL but no
  /// MVCC manager. When attached, transactions run as MVCC transactions
  /// (snapshot reads, shadow writes, first-updater-wins conflicts) and every
  /// SELECT reads through a consistent snapshot.
  mvcc::MvccManager* mvcc_manager() const;
  /// Wraps `body` in an MVCC BEGIN/COMMIT when no explicit transaction is
  /// open (statement-level atomicity: a failing statement rolls back
  /// cleanly). On a bare database, or inside BEGIN, runs `body` directly.
  Status AutoCommit(const std::function<Status()>& body);
  /// Renders a profile tree into the EXPLAIN ANALYZE result-set shape.
  static engine::ResultSet RenderProfile(const engine::QueryContext& qctx);

  engine::Executor* executor_;
  std::map<std::string, engine::Value> variables_;
  engine::QueryStats last_stats_;
  /// Runs a reader-style UDF's query text: exactly one SELECT that assigns
  /// no variable, under a fresh context of this session.
  engine::SubqueryFn subquery_;
  bool txn_open_ = false;
  uint64_t txn_id_ = 0;

  // Governance state. The cancel source is shared with whoever might kill
  // this session's statements (the server's watchdog, a test thread); the
  // budget is private and reset per top-level statement.
  std::shared_ptr<gov::CancelSource> cancel_source_;
  gov::MemoryBudget budget_;
  int64_t statement_timeout_ms_ = 0;
  int64_t memory_budget_kb_ = 0;
  /// Negative = statement did not come through an admission controller; the
  /// server records the actual wait (possibly 0) before each statement.
  double admission_wait_seconds_ = -1.0;
};

}  // namespace sqlarray::sql
