// Shared helpers for the experiment benches.
//
// Builds the Table 1 workload tables and prints paper-vs-measured tables.
// Scale: the paper uses 357 M rows on a Dell PowerVault testbed; benches
// default to a 1/1000 scale (357 k rows) and project modeled full-scale
// numbers by linear scaling (the scan workload is embarrassingly linear).
// Override with the BENCH_ROWS environment variable.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/array.h"
#include "engine/exec.h"
#include "obs/metrics.h"
#include "sql/session.h"
#include "storage/table.h"
#include "udfs/register.h"

namespace sqlarray::bench {

/// Row count of the paper's test tables (Sec. 6.2).
inline constexpr int64_t kPaperRows = 357000000;

/// Default bench scale (1/1000 of the paper).
inline int64_t BenchRows() {
  if (const char* env = std::getenv("BENCH_ROWS")) {
    return std::atoll(env);
  }
  return 357000;
}

/// Aborts with a message when a Status is not OK (bench-only convenience).
inline void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
    std::abort();
  }
}

template <typename T>
T CheckResult(Result<T> result, const char* what) {
  Check(result.status(), what);
  return std::move(result).value();
}

/// Builds Tscalar (five FLOAT columns) and Tvector (one packed 5-vector in a
/// fixed binary column), both keyed by BIGINT id, with identical values
/// (Sec. 6.2). Uses the bulk loader so loading stays linear.
inline void BuildTable1Tables(storage::Database* db, int64_t rows) {
  using storage::ColumnType;

  storage::Schema scalar_schema = CheckResult(
      storage::Schema::Create({{"id", ColumnType::kInt64, 0},
                               {"v1", ColumnType::kFloat64, 0},
                               {"v2", ColumnType::kFloat64, 0},
                               {"v3", ColumnType::kFloat64, 0},
                               {"v4", ColumnType::kFloat64, 0},
                               {"v5", ColumnType::kFloat64, 0}}),
      "scalar schema");
  // A 5-double short array blob is 24 + 40 = 64 bytes.
  storage::Schema vector_schema = CheckResult(
      storage::Schema::Create(
          {{"id", ColumnType::kInt64, 0}, {"v", ColumnType::kBinary, 64}}),
      "vector schema");

  storage::Table* tscalar = CheckResult(
      db->CreateTable("Tscalar", std::move(scalar_schema)), "Tscalar");
  storage::Table* tvector = CheckResult(
      db->CreateTable("Tvector", std::move(vector_schema)), "Tvector");

  // Load one table at a time so each table's leaf chain occupies contiguous
  // pages (the disk model distinguishes sequential from random reads). The
  // same seed makes the two tables hold identical values.
  {
    auto load = CheckResult(tscalar->StartBulkLoad(), "scalar bulk loader");
    Rng rng(20110324);
    for (int64_t id = 0; id < rows; ++id) {
      double v[5];
      for (int k = 0; k < 5; ++k) v[k] = rng.Uniform(-1, 1);
      Check(load.Add({id, v[0], v[1], v[2], v[3], v[4]}), "scalar insert");
    }
    Check(load.Finish(), "scalar finish");
  }
  {
    auto load = CheckResult(tvector->StartBulkLoad(), "vector bulk loader");
    Rng rng(20110324);
    OwnedArray vec = CheckResult(
        OwnedArray::Zeros(DType::kFloat64, {5}, StorageClass::kShort),
        "vector template");
    for (int64_t id = 0; id < rows; ++id) {
      auto data = vec.MutableData<double>().value();
      for (int k = 0; k < 5; ++k) data[k] = rng.Uniform(-1, 1);
      Check(load.Add({id, std::vector<uint8_t>(vec.blob().begin(),
                                               vec.blob().end())}),
            "vector insert");
    }
    Check(load.Finish(), "vector finish");
  }
}

/// An engine + registry + session bundle with all UDFs registered.
struct BenchServer {
  storage::Database db;
  engine::FunctionRegistry registry;
  engine::Executor executor;
  sql::Session session;

  BenchServer() : executor(&db, &registry), session(&executor) {
    Check(udfs::RegisterAllUdfs(&registry), "udf registration");
  }
};

/// Prints a standard experiment banner.
inline void Banner(const char* id, const char* title) {
  std::printf("\n=== %s — %s ===\n", id, title);
}

// ---------------------------------------------------------------------------
// Machine-readable results: pass `--json out.json` to any bench and FlushJson
// writes {"records": [...], "host": {...}, "metrics": {...}} — every
// RecordJson call as a {"bench": ..., "case": ..., "wall_s": ...,
// "throughput": ...} record (plus any bench-specific named values), the
// machine and build the numbers came from, and a final MetricsRegistry
// snapshot (engine-wide counters such as storage.disk.pages_read and
// core.dispatch.kernel). Throughput units are bench-specific (rows/s or
// elements/s); wall_s is measured wall time.
// ---------------------------------------------------------------------------

#ifndef SQLARRAY_BUILD_TYPE
#define SQLARRAY_BUILD_TYPE "unknown"
#endif

struct JsonRecord {
  std::string bench;
  std::string case_name;
  double wall_s = 0;
  double throughput = 0;
  /// Bench-specific named values, written after the standard members.
  std::vector<std::pair<std::string, double>> extra;
};

struct JsonSink {
  std::string path;
  std::vector<JsonRecord> records;
};

inline JsonSink& GlobalJsonSink() {
  static JsonSink sink;
  return sink;
}

/// Parses bench command-line flags. Supports `--json <path>` and
/// `--json=<path>`; unknown arguments are ignored so benches stay tolerant
/// of harness-supplied flags.
inline void ParseBenchArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      GlobalJsonSink().path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      GlobalJsonSink().path = arg.substr(7);
    }
  }
}

/// Records one case's result; written out by FlushJson when --json was given.
inline void RecordJson(
    const std::string& bench, const std::string& case_name, double wall_s,
    double throughput,
    std::vector<std::pair<std::string, double>> extra = {}) {
  GlobalJsonSink().records.push_back(
      {bench, case_name, wall_s, throughput, std::move(extra)});
}

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Writes the "host" member: hardware threads, the SIMD flags the kernels
/// dispatch on, the build type, and the CRC32C implementation every page
/// read, WAL record and wire frame runs through.
inline void WriteHostJson(std::FILE* f) {
  bool sse42 = false;
  bool avx2 = false;
#if defined(__x86_64__)
  sse42 = __builtin_cpu_supports("sse4.2") != 0;
  avx2 = __builtin_cpu_supports("avx2") != 0;
#endif
  std::fprintf(f,
               "  \"host\": {\"nproc\": %u, \"sse4_2\": %s, \"avx2\": %s, "
               "\"build_type\": \"%s\", \"crc32c\": \"%s\"},\n",
               std::thread::hardware_concurrency(), sse42 ? "true" : "false",
               avx2 ? "true" : "false", SQLARRAY_BUILD_TYPE,
               Crc32cImplementation());
}

/// Writes the recorded cases to the --json path (no-op without the flag).
/// Call once at the end of main. A bench with results that do not fit the
/// record shape passes `section`, the name of an extra top-level object, and
/// `write_section`, which prints its members (four-space indent, comma
/// separated).
inline void FlushJson(
    const char* section = nullptr,
    const std::function<void(std::FILE*)>& write_section = nullptr) {
  JsonSink& sink = GlobalJsonSink();
  if (sink.path.empty()) return;
  std::FILE* f = std::fopen(sink.path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FATAL: cannot open %s for writing\n",
                 sink.path.c_str());
    std::abort();
  }
  std::fprintf(f, "{\n  \"records\": [\n");
  for (size_t i = 0; i < sink.records.size(); ++i) {
    const JsonRecord& r = sink.records[i];
    std::fprintf(f,
                 "    {\"bench\": \"%s\", \"case\": \"%s\", \"wall_s\": %.9g, "
                 "\"throughput\": %.9g",
                 JsonEscape(r.bench).c_str(), JsonEscape(r.case_name).c_str(),
                 r.wall_s, r.throughput);
    for (const auto& [name, value] : r.extra) {
      std::fprintf(f, ", \"%s\": %.9g", JsonEscape(name).c_str(), value);
    }
    std::fprintf(f, "}%s\n", i + 1 < sink.records.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  WriteHostJson(f);
  if (section != nullptr) {
    std::fprintf(f, "  \"%s\": {\n", section);
    write_section(f);
    std::fprintf(f, "  },\n");
  }
  std::fprintf(f, "  \"metrics\": {\n");
  const std::map<std::string, int64_t> metrics =
      obs::MetricsRegistry::Global().Snapshot().values();
  size_t emitted = 0;
  for (const auto& [name, value] : metrics) {
    std::fprintf(f, "    \"%s\": %lld%s\n", JsonEscape(name).c_str(),
                 static_cast<long long>(value),
                 ++emitted < metrics.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %zu JSON records to %s\n", sink.records.size(),
              sink.path.c_str());
}

}  // namespace sqlarray::bench
