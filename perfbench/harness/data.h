// Seeded inputs of the benchmark: the Table 1 tables, the service tables,
// the statements of every class, and the expected answer of each.
//
// Every stored float is k / 1024 for an integer |k| <= 100000, so every
// SUM the benchmark asks for is exact in double precision whatever order
// the engine adds in. The checks can then demand exact answers.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "server/server.h"
#include "sql/session.h"
#include "storage/table.h"

namespace perfbench {

/// Statement classes. Every workload runs all seven: its own classes in
/// the timed mix, the others in a short serial phase on the same path.
enum class Cls { kScan, kUdfScan, kGroupBy, kPoint, kSubarray, kRange, kWrite };
inline constexpr int kNumCls = 7;
const char* ClsName(Cls c);

/// The six Table 1 statements: Q1..Q5 and the GROUP BY.
inline constexpr int kNumTable1 = 6;
extern const char* const kTable1Sql[kNumTable1];
Cls Table1Cls(int q);

struct Dataset {
  static constexpr int64_t kObsRows = 20000;
  static constexpr int kCubes = 32;
  static constexpr int kCubeN = 32;
  static constexpr int kIngestCubeN = 16;
  static constexpr int kRangeRows = 1000;

  int64_t t1_rows = 0;
  std::vector<double> t1;  ///< t1_rows x 5, shared by Tscalar and Tvector
  double t1_sum_v1 = 0;
  std::array<double, 16> group_sum{};
  std::array<int64_t, 16> group_count{};
  std::vector<double> obs;  ///< kObsRows x 5

  /// Cell (x, y, z) of cube `id`: exact in double.
  static double Cell(int64_t id, int64_t x, int64_t y, int64_t z) {
    return static_cast<double>(((id * 64 + x) * 64 + y) * 64 + z) + 0.5;
  }
  double ObsSum0(int64_t a) const;

  static Dataset Generate(uint64_t seed, int64_t t1_rows);
};

/// Loads the read-only tables through the storage API before any WAL is
/// attached, as the Table 1 bench does: Tscalar / Tvector (bulk-loaded,
/// so leaf pages are packed and contiguous), obs and cubes.
sqlarray::Status LoadTables(sqlarray::storage::Database* db, const Dataset& d);
/// Creates, per connection, a write table w<c> and a max-array table wc<c>.
sqlarray::Status CreateWriteTables(sqlarray::sql::Session* s, int connections);

/// One statement with what its answer must be.
struct Stmt {
  Cls cls = Cls::kPoint;
  std::string sql;
  int q = -1;  ///< Table 1 statement index, or -1
  int64_t key = 0;
  int64_t item = 0;
  int64_t x = 0, y = 0, z = 0;
  int64_t rows_inserted = 0;  ///< rows into w<conn>
  int64_t cube_rows = 0;      ///< rows into wc<conn>
  int64_t user_bytes = 0;     ///< row bytes the statement inserts
};

/// Draws statements for one connection; write keys are private to it.
class StmtGen {
 public:
  StmtGen(uint64_t seed, int conn) : rng_(seed * 1000003 + conn), conn_(conn) {}
  Stmt Point();
  Stmt Subarray();
  Stmt Range();
  /// A single-row autocommit INSERT into w<conn>.
  Stmt WriteRow();
  /// BEGIN; 4 x INSERT; COMMIT into w<conn>, plus one 16^3 max array into
  /// wc<conn> when `with_cube`.
  Stmt WriteTxn(bool with_cube);
  static Stmt Table1(int q);
  Stmt Of(Cls c);

 private:
  std::string RowValues(int64_t key);
  sqlarray::Rng rng_;
  int conn_;
  int64_t next_key_ = 0;
  std::string cube_hex_;
};

/// Checks an outcome against the statement's expected answer. Returns an
/// empty string when right, else what was wrong.
std::string CheckAnswer(const Dataset& d, const Stmt& s,
                        const sqlarray::server::StatementOutcome& out);

/// Row bytes of one w<c> row: BIGINT key + 64-byte short array.
inline constexpr int64_t kRowUserBytes = 8 + 64;

}  // namespace perfbench
