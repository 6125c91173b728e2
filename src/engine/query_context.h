// Per-statement execution context: the one carrier of a statement's inputs
// (variables, subquery runner, limits, snapshot) and outputs (stats,
// profile, trace).
//
// Every statement owns one QueryContext for its lifetime, and the executor
// reads nothing else about the session that runs it. The executor fills
// stats, records trace spans into the sink, and — when collect_profile is
// set — builds the operator profile tree that EXPLAIN ANALYZE renders as a
// result set. Nested work (reader-style UDF subqueries) runs under its own
// context and is merged into the enclosing one explicitly by the caller,
// never by mutating shared session state.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "engine/cost.h"
#include "engine/udf.h"
#include "engine/value.h"
#include "gov/gov.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "storage/snapshot.h"

namespace sqlarray::engine {

struct QueryContext {
  QueryStats stats;
  obs::QueryProfile profile;
  obs::TraceSink trace;
  /// Build the operator profile tree (EXPLAIN ANALYZE). Also switches on
  /// per-function UDF boundary attribution in the stats.
  bool collect_profile = false;
  /// The statement's T-SQL variables; null when it has none.
  std::map<std::string, Value>* variables = nullptr;
  /// The session's subquery runner, through which reader-style UDFs
  /// (ConcatQuery) run their query in the caller's session and transaction;
  /// null outside a session.
  const SubqueryFn* subquery = nullptr;
  /// Governance bundle for the statement: cancellation token and memory
  /// budget, both optional. The executor probes the token in every scan
  /// loop and charges the budget where query-private memory grows.
  gov::QueryLimits limits;
  /// When set, every table scan in the statement reads through this
  /// consistent snapshot (MVCC / AS OF) instead of the live tree — serial,
  /// morsel-parallel, and vectorized paths alike, so one statement sees
  /// exactly one version of the world. Null = live reads.
  std::shared_ptr<storage::PageSource> snapshot;
};

}  // namespace sqlarray::engine
