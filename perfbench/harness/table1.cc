// table1_cold: the paper's Table 1 queries plus a GROUP BY, one at a time
// through a bare sql::Session with one scan worker, the buffer pool
// cleared before every statement. 357 k rows per table in a 2,048-page
// (16 MB) pool, so every scan streams more data than the cache holds.
//
// The service classes (point, subarray, range, write) run after each round
// on the same path, cold as well, so that every class has a number on this
// in-process path with no wire, admission or WAL. Spread over the whole run
// rather than bunched at its end, their medians do not hang on one host
// phase.
#include <algorithm>

#include "harness/workload.h"

namespace perfbench {

namespace {

constexpr int64_t kRows = 357000;
constexpr int64_t kPoolPages = 2048;
// Rounds of the six statements per second of --seconds, measured on a
// 4-vCPU host: fixed work, so a faster engine finishes sooner instead of
// doing more.
constexpr double kRoundsPerSecond = 2.0;
constexpr int kSidePerRound = 3;

std::unique_ptr<Env> Setup(uint64_t seed, int workers, RunResult* r) {
  auto env = std::make_unique<Env>();
  env->data = Dataset::Generate(seed, kRows);
  sqlarray::Status st = env->Open(kPoolPages);
  if (st.ok()) {
    env->executor->set_scan_workers(workers);
    st = LoadTables(env->db.get(), env->data);
  }
  if (st.ok()) {
    env->OpenSessions(1);
    st = CreateWriteTables(env->sessions[0].get(), 1);
  }
  if (!st.ok()) {
    r->Count("setup: " + st.ToString());
    return nullptr;
  }
  return env;
}

/// One statement at entry point `lv`, on a cleared pool.
Sample RunCold(Env* env, Level lv, const Stmt& s, RunResult* r,
               SpanLog* spans, int64_t request) {
  env->db->ClearCache();
  return RunStmt(env, 0, lv, s, r, spans, request);
}

/// The service classes, serially and cold, through each of `levels`.
std::vector<Sample> SidePhase(Env* env, StmtGen* gen, int reps,
                              const std::vector<Level>& levels, RunResult* r,
                              SpanLog* spans, int64_t* request,
                              int64_t* acked) {
  std::vector<Sample> out;
  for (int rep = 0; rep < reps; ++rep) {
    for (Cls c : {Cls::kPoint, Cls::kSubarray, Cls::kRange, Cls::kWrite}) {
      for (Level lv : levels) {
        Stmt s = gen->Of(c);
        out.push_back(RunCold(env, lv, s, r, spans, (*request)++));
        if (out.back().ok) *acked += s.rows_inserted;
      }
    }
  }
  return out;
}

}  // namespace

RunResult RunTable1Cold(const Options& o) {
  RunResult r;
  // One scan worker: at nproc workers the parallel Q4 / Q5 time spread
  // 34 % (IQR over median) across runs on a 4-vCPU host, against 5 % serial.
  const int workers = 1;
  std::unique_ptr<Env> env =
      SetUp([&] { return Setup(o.seed, workers, &r); }, &r);
  if (env == nullptr) return r;
  const int rounds =
      std::max(2, static_cast<int>(o.seconds * kRoundsPerSecond + 0.5));
  StmtGen gen(o.seed, 0);
  int64_t acked = 0;
  int64_t request = 1;

  // Untraced pass: every round runs the six Table 1 statements, then
  // kSidePerRound of each service class.
  PassCounts counts;
  std::vector<Sample> mix, side;
  counts.before = sqlarray::obs::MetricsRegistry::Global().Snapshot();
  counts.cpu_before = ReadCpuTimes();
  auto t0 = Clock::now();
  for (int round = 0; round < rounds; ++round) {
    auto round_before = sqlarray::obs::MetricsRegistry::Global().Snapshot();
    for (int q = 0; q < kNumTable1; ++q) {
      mix.push_back(RunCold(env.get(), Level::kSession, StmtGen::Table1(q), &r,
                            nullptr, 0));
      counts.rows_scanned += mix.back().rows_scanned;
    }
    counts.repeats.push_back(RepeatCounts(
        round_before, sqlarray::obs::MetricsRegistry::Global().Snapshot(),
        kNumTable1, 0));
    std::vector<Sample> more = SidePhase(env.get(), &gen, kSidePerRound,
                                         {Level::kSession}, &r, nullptr,
                                         &request, &acked);
    side.insert(side.end(), more.begin(), more.end());
  }
  const double window_s = MsSince(t0) / 1e3;
  counts.cpu_after = ReadCpuTimes();
  for (const Sample& s : side) {
    counts.rows_scanned += s.rows_scanned;
    if (s.cls == Cls::kWrite) counts.user_bytes += kRowUserBytes;
  }
  counts.after = sqlarray::obs::MetricsRegistry::Global().Snapshot();
  counts.statements = static_cast<int64_t>(mix.size() + side.size());
  CheckRowCount(env.get(), 0, Level::kSession, "w0", acked, &r);

  std::vector<Sample> untraced = mix;
  untraced.insert(untraced.end(), side.begin(), side.end());
  std::vector<double> lat;
  for (const Sample& s : untraced) lat.push_back(s.ms);
  AddClassMetrics(untraced, &r);
  ClientMetrics(lat, window_s, &r);
  r.info.Set("rounds", rounds, "count");
  r.info.Set("window_s", window_s, "s");
  r.info.Set("scan_workers", workers, "count");

  if (o.trace) {
    MetricList& l = r.layers;
    AddCountMetrics(counts, &l);

    // Traced pass: the same statements, each replayed cold through all
    // three entry points.
    sqlarray::Status st = env->StartServer(1);
    if (!st.ok()) {
      r.Count("server start: " + st.ToString());
      return r;
    }
    SpanLog spans;
    std::vector<Sample> traced;
    const int trace_rounds = std::max(2, rounds / 2);
    for (int round = 0; round < trace_rounds; ++round) {
      for (int q = 0; q < kNumTable1; ++q) {
        for (Level lv : kLevels) {
          traced.push_back(RunCold(env.get(), lv, StmtGen::Table1(q), &r,
                                   &spans, request++));
        }
      }
    }
    std::vector<Sample> traced_side =
        SidePhase(env.get(), &gen, trace_rounds,
                  {Level::kNet, Level::kServer, Level::kSession}, &r, &spans,
                  &request, &acked);
    traced.insert(traced.end(), traced_side.begin(), traced_side.end());
    AddClassLayerMetrics(traced, &l);

    // Tracing overhead on the untraced pass's own path and statements.
    auto all = [](const Sample&) { return true; };
    auto session = [](const Sample& s) { return s.level == Level::kSession; };
    double untraced_ms = 0, traced_ms = 0;
    for (Cls c : {Cls::kScan, Cls::kUdfScan, Cls::kGroupBy}) {
      untraced_ms += ClassSum(mix, c, all, SampleMs);
      traced_ms += ClassSum(traced, c, session, SampleMs);
    }
    l.Set("obs.trace_overhead_pct", 100.0 * (traced_ms / untraced_ms - 1),
          "%");
    acked += WriteExplains(env.get(), &gen, /*cold=*/true,
                           o.out_dir + "/explain-table1_cold.txt", &r);
    AddPaperMetrics(env.get(), &r);
    CheckRowCount(env.get(), 0, Level::kSession, "w0", acked, &r);
    AddProbeMetrics(env.get(), &l);
    spans.WriteJsonLines(o.out_dir + "/spans-table1_cold.jsonl");
  }
  r.record = DataRecord(env.get(), kPoolPages);
  return r;
}

}  // namespace perfbench
