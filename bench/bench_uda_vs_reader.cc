// Experiment A3 (Sec. 4.2): the Concat UDA serializes its whole accumulator
// state on every row, which made it "prohibitive"; the paper replaced it
// with a reader-style scalar UDF that takes a SQL query string. Both paths
// are run over growing tables; the UDA's modeled per-row cost grows with the
// array size while the reader's stays flat. `--json` records each size's
// UDA and reader case: wall_s, rows/s, and wall_ms and modeled_cpu_s.
#include "bench/bench_util.h"
#include "common/stopwatch.h"

namespace sqlarray::bench {
namespace {

void Run() {
  Banner("A3", "Concat UDA vs reader-style ConcatQuery");

  std::printf("%8s | %30s | %30s | %14s\n", "elements",
              "UDA (wall ms, modeled CPU s)",
              "reader (wall ms, modeled CPU s)", "modeled ratio");
  std::printf("%s\n", std::string(94, '-').c_str());

  for (int64_t n : {256, 1024, 4096, 16384}) {
    BenchServer server;
    // One table with n (index, value) rows.
    Check(server.session
              .Execute("CREATE TABLE cells (id BIGINT, ix BIGINT, v FLOAT)")
              .status(),
          "create");
    storage::Table* table =
        CheckResult(server.db.GetTable("cells"), "cells");
    auto load = CheckResult(table->StartBulkLoad(), "bulk");
    for (int64_t i = 0; i < n; ++i) {
      Check(load.Add({i, i, static_cast<double>(i) * 0.5}), "insert");
    }
    Check(load.Finish(), "finish");

    Check(server.session
              .Execute("DECLARE @l VARBINARY(100) = IntArray.Vector_1(" +
                       std::to_string(n) + ")")
              .status(),
          "declare dims");
    Check(server.session.Execute("DECLARE @a VARBINARY(MAX)").status(),
          "declare a");
    Check(server.session.Execute("DECLARE @r VARBINARY(MAX)").status(),
          "declare r");

    Stopwatch uda_watch;
    Check(server.session
              .Execute("SELECT @a = FloatArrayMax.Concat(@l, ix, v) "
                       "FROM cells")
              .status(),
          "uda");
    double uda_wall = uda_watch.ElapsedSeconds();
    engine::QueryStats uda_stats = server.session.last_stats();

    Stopwatch reader_watch;
    Check(server.session
              .Execute("SET @r = FloatArrayMax.ConcatQuery(@l, "
                       "'SELECT ix, v FROM cells')")
              .status(),
          "reader");
    double reader_wall = reader_watch.ElapsedSeconds();
    engine::QueryStats reader_stats = server.session.last_stats();

    // Verify both built the same array.
    auto a = server.session.GetVariable("a").value().MaterializeBytes();
    auto r = server.session.GetVariable("r").value().MaterializeBytes();
    if (!(a.value() == r.value())) {
      std::printf("MISMATCH between UDA and reader results!\n");
    }

    // Reader stats: one CLR boundary crossing plus the nested scan's work,
    // all merged into the SET statement's stats by the session.
    double reader_cpu = reader_stats.cpu_core_seconds;
    double ratio = uda_stats.cpu_core_seconds / std::max(1e-12, reader_cpu);
    std::printf("%8lld | %16.1f %13.4f | %16.1f %13.4f | %12.1fx\n",
                static_cast<long long>(n), uda_wall * 1e3,
                uda_stats.cpu_core_seconds, reader_wall * 1e3, reader_cpu,
                ratio);
    auto record = [&](const char* path, double wall, double cpu) {
      RecordJson("uda_vs_reader", std::string(path) + "_" + std::to_string(n),
                 wall, wall > 0 ? static_cast<double>(n) / wall : 0,
                 {{"wall_ms", wall * 1e3}, {"modeled_cpu_s", cpu}});
    };
    record("uda", uda_wall, uda_stats.cpu_core_seconds);
    record("reader", reader_wall, reader_cpu);
  }
  std::printf(
      "\nexpected shape: the UDA's modeled CPU grows ~quadratically (state "
      "of ~8n bytes serialized twice per row); the reader grows linearly. "
      "This is why the paper abandoned the UDA (Sec. 4.2).\n");
}

}  // namespace
}  // namespace sqlarray::bench

int main(int argc, char** argv) {
  sqlarray::bench::ParseBenchArgs(argc, argv);
  sqlarray::bench::Run();
  sqlarray::bench::FlushJson();
  return 0;
}
