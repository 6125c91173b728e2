#include "harness/data.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <tuple>

#include "core/array.h"

namespace perfbench {

using sqlarray::DType;
using sqlarray::OwnedArray;
using sqlarray::Result;
using sqlarray::Status;
using sqlarray::StorageClass;
using sqlarray::engine::Value;

namespace {

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double Draw(sqlarray::Rng* rng) {
  return static_cast<double>(rng->UniformInt(-100000, 100000)) / 1024.0;
}

std::vector<uint8_t> ShortVector(const double* v) {
  OwnedArray a =
      OwnedArray::Zeros(DType::kFloat64, {5}, StorageClass::kShort).value();
  auto data = a.MutableData<double>().value();
  for (int k = 0; k < 5; ++k) data[k] = v[k];
  return {a.blob().begin(), a.blob().end()};
}

std::vector<uint8_t> Cube(int64_t id, int64_t n) {
  OwnedArray a =
      OwnedArray::Zeros(DType::kFloat64, {n, n, n}, StorageClass::kMax)
          .value();
  for (int64_t z = 0; z < n; ++z) {
    for (int64_t y = 0; y < n; ++y) {
      for (int64_t x = 0; x < n; ++x) {
        // Column-major: x varies fastest.
        (void)a.SetDouble(x + n * (y + n * z), Dataset::Cell(id, x, y, z));
      }
    }
  }
  return {a.blob().begin(), a.blob().end()};
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char* digits = "0123456789ABCDEF";
  std::string out = "0x";
  out.reserve(2 + bytes.size() * 2);
  for (uint8_t b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 15]);
  }
  return out;
}

std::string Vector5(const double* v) {
  return "FloatArray.Vector_5(" + Num(v[0]) + ", " + Num(v[1]) + ", " +
         Num(v[2]) + ", " + Num(v[3]) + ", " + Num(v[4]) + ")";
}

}  // namespace

const char* ClsName(Cls c) {
  switch (c) {
    case Cls::kScan: return "scan";
    case Cls::kUdfScan: return "udf_scan";
    case Cls::kGroupBy: return "group_by";
    case Cls::kPoint: return "point";
    case Cls::kSubarray: return "subarray";
    case Cls::kRange: return "range";
    case Cls::kWrite: return "write";
  }
  return "?";
}

// Table 1 of the paper (Q1..Q5) plus the GROUP BY.
const char* const kTable1Sql[kNumTable1] = {
    "SELECT COUNT(*) FROM Tscalar WITH (NOLOCK)",
    "SELECT COUNT(*) FROM Tvector WITH (NOLOCK)",
    "SELECT SUM(v1) FROM Tscalar WITH (NOLOCK)",
    "SELECT SUM(floatarray.Item_1(v, 0)) FROM Tvector WITH (NOLOCK)",
    "SELECT SUM(dbo.EmptyFunction(v, 0)) FROM Tvector WITH (NOLOCK)",
    "SELECT id % 16, SUM(v1), COUNT(*) FROM Tscalar GROUP BY id % 16",
};

Cls Table1Cls(int q) {
  return q < 3 ? Cls::kScan : q < 5 ? Cls::kUdfScan : Cls::kGroupBy;
}

double Dataset::ObsSum0(int64_t a) const {
  double sum = 0;
  for (int64_t id = a; id < a + kRangeRows; ++id) sum += obs[id * 5];
  return sum;
}

Dataset Dataset::Generate(uint64_t seed, int64_t t1_rows) {
  Dataset d;
  d.t1_rows = t1_rows;
  sqlarray::Rng rng(seed);
  d.t1.resize(static_cast<size_t>(t1_rows) * 5);
  for (int64_t id = 0; id < t1_rows; ++id) {
    for (int k = 0; k < 5; ++k) d.t1[id * 5 + k] = Draw(&rng);
    d.t1_sum_v1 += d.t1[id * 5];
    d.group_sum[id % 16] += d.t1[id * 5];
    d.group_count[id % 16] += 1;
  }
  sqlarray::Rng obs_rng(seed ^ 0x5bd1e995u);
  d.obs.resize(kObsRows * 5);
  for (double& v : d.obs) v = Draw(&obs_rng);
  return d;
}

Status LoadTables(sqlarray::storage::Database* db, const Dataset& d) {
  using sqlarray::storage::ColumnType;
  using sqlarray::storage::Schema;
  using sqlarray::storage::Table;
  auto create = [&](const char* name,
                    std::vector<sqlarray::storage::ColumnDef> cols)
      -> Result<Table*> {
    SQLARRAY_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(cols)));
    return db->CreateTable(name, std::move(schema));
  };
  SQLARRAY_ASSIGN_OR_RETURN(Table * tscalar,
                            create("Tscalar", {{"id", ColumnType::kInt64, 0},
                                               {"v1", ColumnType::kFloat64, 0},
                                               {"v2", ColumnType::kFloat64, 0},
                                               {"v3", ColumnType::kFloat64, 0},
                                               {"v4", ColumnType::kFloat64, 0},
                                               {"v5", ColumnType::kFloat64, 0}}));
  // One table at a time, so each leaf chain occupies contiguous pages.
  {
    SQLARRAY_ASSIGN_OR_RETURN(auto load, tscalar->StartBulkLoad());
    for (int64_t id = 0; id < d.t1_rows; ++id) {
      const double* v = &d.t1[id * 5];
      SQLARRAY_RETURN_IF_ERROR(load.Add({id, v[0], v[1], v[2], v[3], v[4]}));
    }
    SQLARRAY_RETURN_IF_ERROR(load.Finish());
  }
  for (const auto& [name, rows, values] :
       {std::tuple{"Tvector", d.t1_rows, &d.t1},
        std::tuple{"obs", Dataset::kObsRows, &d.obs}}) {
    SQLARRAY_ASSIGN_OR_RETURN(
        Table * t, create(name, {{"id", ColumnType::kInt64, 0},
                                 {"v", ColumnType::kBinary, 64}}));
    SQLARRAY_ASSIGN_OR_RETURN(auto load, t->StartBulkLoad());
    for (int64_t id = 0; id < rows; ++id) {
      SQLARRAY_RETURN_IF_ERROR(load.Add({id, ShortVector(&(*values)[id * 5])}));
    }
    SQLARRAY_RETURN_IF_ERROR(load.Finish());
  }
  SQLARRAY_ASSIGN_OR_RETURN(
      Table * cubes, create("cubes", {{"id", ColumnType::kInt64, 0},
                                      {"cube", ColumnType::kVarBinaryMax, 0}}));
  for (int64_t id = 0; id < Dataset::kCubes; ++id) {
    SQLARRAY_RETURN_IF_ERROR(cubes->Insert({id, Cube(id, Dataset::kCubeN)}));
  }
  return Status::OK();
}

Status CreateWriteTables(sqlarray::sql::Session* s, int connections) {
  for (int c = 0; c < connections; ++c) {
    const std::string n = std::to_string(c);
    for (const std::string& ddl :
         {"CREATE TABLE w" + n + " (id BIGINT, v VARBINARY(64))",
          "CREATE TABLE wc" + n + " (id BIGINT, cube VARBINARY(MAX))"}) {
      auto r = s->Execute(ddl);
      if (!r.ok()) return r.status();
    }
  }
  return Status::OK();
}

Stmt StmtGen::Point() {
  Stmt s;
  s.cls = Cls::kPoint;
  s.key = rng_.UniformInt(0, Dataset::kObsRows - 1);
  s.item = rng_.UniformInt(0, 4);
  s.sql = "SELECT FloatArray.Item_1(v, " + std::to_string(s.item) +
          ") FROM obs WHERE id = " + std::to_string(s.key);
  return s;
}

Stmt StmtGen::Subarray() {
  Stmt s;
  s.cls = Cls::kSubarray;
  s.key = rng_.UniformInt(0, Dataset::kCubes - 1);
  s.x = rng_.UniformInt(0, Dataset::kCubeN - 4);
  s.y = rng_.UniformInt(0, Dataset::kCubeN - 4);
  s.z = rng_.UniformInt(0, Dataset::kCubeN - 4);
  s.sql = "SELECT FloatArrayMax.Subarray(cube, IntArray.Vector_3(" +
          std::to_string(s.x) + ", " + std::to_string(s.y) + ", " +
          std::to_string(s.z) +
          "), IntArray.Vector_3(4, 4, 4), 0) FROM cubes WHERE id = " +
          std::to_string(s.key);
  return s;
}

Stmt StmtGen::Range() {
  Stmt s;
  s.cls = Cls::kRange;
  s.key = rng_.UniformInt(0, Dataset::kObsRows - Dataset::kRangeRows);
  s.sql = "SELECT COUNT(*), SUM(FloatArray.Item_1(v, 0)) FROM obs WHERE id "
          ">= " +
          std::to_string(s.key) + " AND id < " + std::to_string(s.key) +
          " + " + std::to_string(Dataset::kRangeRows);
  return s;
}

std::string StmtGen::RowValues(int64_t key) {
  double v[5];
  for (double& x : v) x = Draw(&rng_);
  return "(" + std::to_string(key) + ", " + Vector5(v) + ")";
}

Stmt StmtGen::WriteRow() {
  Stmt s;
  s.cls = Cls::kWrite;
  s.rows_inserted = 1;
  s.user_bytes = kRowUserBytes;
  s.sql = "INSERT INTO w" + std::to_string(conn_) + " VALUES " +
          RowValues(next_key_++);
  return s;
}

Stmt StmtGen::WriteTxn(bool with_cube) {
  Stmt s;
  s.cls = Cls::kWrite;
  s.sql = "BEGIN TRANSACTION";
  for (int i = 0; i < 4; ++i) {
    s.sql += "; INSERT INTO w" + std::to_string(conn_) + " VALUES " +
             RowValues(next_key_++);
  }
  s.rows_inserted = 4;
  s.user_bytes = 4 * kRowUserBytes;
  if (with_cube) {
    if (cube_hex_.empty()) {
      std::vector<uint8_t> cube = Cube(conn_, Dataset::kIngestCubeN);
      cube_hex_ = Hex(cube);
    }
    s.sql += "; INSERT INTO wc" + std::to_string(conn_) + " VALUES (" +
             std::to_string(next_key_++) + ", " + cube_hex_ + ")";
    s.cube_rows = 1;
    s.user_bytes += 8 + static_cast<int64_t>(cube_hex_.size() - 2) / 2;
  }
  s.sql += "; COMMIT";
  return s;
}

Stmt StmtGen::Table1(int q) {
  Stmt s;
  s.cls = Table1Cls(q);
  s.q = q;
  s.sql = kTable1Sql[q];
  return s;
}

Stmt StmtGen::Of(Cls c) {
  switch (c) {
    case Cls::kPoint: return Point();
    case Cls::kSubarray: return Subarray();
    case Cls::kRange: return Range();
    default: return WriteRow();
  }
}

namespace {

std::string Expect(const char* what, double got, double want) {
  // Every expected value is exact; the 1e-9 relative slack is the
  // tolerance the benchmark promises, not one it needs.
  double tol = 1e-9 * std::max(1.0, std::abs(want));
  if (std::abs(got - want) <= tol) return "";
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: got %.17g, want %.17g", what, got,
                want);
  return buf;
}

Result<double> Cell(const sqlarray::server::StatementOutcome& out, size_t row,
                    size_t col) {
  if (out.result_sets.size() != 1 || out.result_sets[0].rows.size() <= row ||
      out.result_sets[0].rows[row].size() <= col) {
    return Status::InvalidArgument("result has the wrong shape");
  }
  return out.result_sets[0].rows[row][col].AsDouble();
}

std::string CheckTable1(const Dataset& d, const Stmt& s,
                        const sqlarray::server::StatementOutcome& out) {
  if (s.q == 5) {
    if (out.result_sets.size() != 1 ||
        out.result_sets[0].rows.size() != 16) {
      return "GROUP BY: expected 16 groups";
    }
    int64_t total = 0;
    for (const auto& row : out.result_sets[0].rows) {
      if (row.size() != 3) return "GROUP BY: expected 3 columns";
      auto g = row[0].AsInt();
      auto sum = row[1].AsDouble();
      auto count = row[2].AsInt();
      if (!g.ok() || !sum.ok() || !count.ok() || *g < 0 || *g >= 16) {
        return "GROUP BY: bad row";
      }
      if (*count != d.group_count[*g]) return "GROUP BY: wrong count";
      std::string e = Expect("GROUP BY sum", *sum, d.group_sum[*g]);
      if (!e.empty()) return e;
      total += *count;
    }
    return total == d.t1_rows ? "" : "GROUP BY: counts do not sum to rows";
  }
  Result<double> v = Cell(out, 0, 0);
  if (!v.ok()) return "Q" + std::to_string(s.q + 1) + ": " + v.status().ToString();
  switch (s.q) {
    case 0:
    case 1: return Expect("COUNT", *v, static_cast<double>(d.t1_rows));
    case 2:
    case 3: return Expect("SUM(v1)", *v, d.t1_sum_v1);
    default: return Expect("SUM(EmptyFunction)", *v, 0);
  }
}

}  // namespace

std::string CheckAnswer(const Dataset& d, const Stmt& s,
                        const sqlarray::server::StatementOutcome& out) {
  if (!out.ok()) return out.status.ToString();
  if (s.q >= 0) return CheckTable1(d, s, out);
  switch (s.cls) {
    case Cls::kPoint: {
      Result<double> v = Cell(out, 0, 0);
      if (!v.ok()) return "point: " + v.status().ToString();
      return Expect("point", *v, d.obs[s.key * 5 + s.item]);
    }
    case Cls::kSubarray: {
      if (out.result_sets.size() != 1 ||
          out.result_sets[0].rows.size() != 1 ||
          out.result_sets[0].rows[0].empty()) {
        return "subarray: expected one value";
      }
      auto bytes = out.result_sets[0].rows[0][0].MaterializeBytes();
      if (!bytes.ok()) return "subarray: " + bytes.status().ToString();
      auto arr = sqlarray::ArrayRef::Parse(*bytes);
      if (!arr.ok()) return "subarray: " + arr.status().ToString();
      if (arr->dims() != sqlarray::Dims{4, 4, 4}) return "subarray: dims";
      for (int64_t c = 0; c < 4; ++c) {
        for (int64_t b = 0; b < 4; ++b) {
          for (int64_t a = 0; a < 4; ++a) {
            const int64_t idx[3] = {a, b, c};
            auto v = arr->GetDoubleAt(idx);
            if (!v.ok()) return "subarray: " + v.status().ToString();
            std::string e =
                Expect("subarray cell", *v,
                       Dataset::Cell(s.key, s.x + a, s.y + b, s.z + c));
            if (!e.empty()) return e;
          }
        }
      }
      return "";
    }
    case Cls::kRange: {
      Result<double> count = Cell(out, 0, 0);
      Result<double> sum = Cell(out, 0, 1);
      if (!count.ok() || !sum.ok()) return "range: wrong shape";
      std::string e = Expect("range COUNT", *count, Dataset::kRangeRows);
      return e.empty() ? Expect("range SUM", *sum, d.ObsSum0(s.key)) : e;
    }
    case Cls::kWrite:
      return "";
    default:
      return "unexpected class";
  }
}

}  // namespace perfbench
