// array_service and array_ingest: nproc NetClient connections over
// loopback in a closed loop, a fixed number of statements each, against an
// in-process NetServer -> ArrayServer (admission on) on a WAL + MVCC
// database whose tables fit the default 64 MB pool.
//
//   array_service  point -> subarray -> range -> write, so 75 % reads; a
//                  write is one autocommit INSERT.
//   array_ingest   three write transactions (BEGIN; 4 x INSERT; COMMIT,
//                  every 16th with a 16^3 max array) per read, the read
//                  class rotating, with a fixed think time between a
//                  connection's statements.
//
// Writes go to the connection's own tables and reads to tables no write
// touches, so there are no write conflicts and a read costs the same all
// run. The timed mix runs in eight segments; after each, Table 1's
// statements run a few rounds serially, in process, on small (20 k row)
// warm copies of Tscalar / Tvector, so every class has a number on the WAL
// + MVCC (snapshot read) database too, spread over the whole run. They skip
// the wire: over it, their run-to-run spread was 35-54 % (IQR / median) on
// a 4-vCPU host.
#include <atomic>
#include <chrono>
#include <thread>

#include "harness/workload.h"

namespace perfbench {

namespace {

constexpr int64_t kT1Rows = 20000;
constexpr int64_t kPoolPages = 8192;
// Statements per connection per second of --seconds: fixed work, so the
// tables and the log end the same size however fast commits are. On a
// 4-vCPU host array_service's window lasts about --seconds; array_ingest
// runs an eighth as many statements, since every transaction logs ~45 KB
// that is never truncated.
constexpr double kServiceOpsPerConnPerSecond = 1000;
constexpr double kIngestOpsPerConnPerSecond = 125;
// array_ingest's statements are few (see above), so back to back they
// finished in ~2.5 s and their medians swung 20-35 % with host contention.
// A think time spreads them over about --seconds and keeps the load below
// the vCPU count.
constexpr std::chrono::microseconds kIngestThink{6000};
constexpr int kSegments = 8;
constexpr int kSideRoundsPerSegment = 8;

std::unique_ptr<Env> Setup(uint64_t seed, int conns, RunResult* r) {
  auto env = std::make_unique<Env>();
  env->data = Dataset::Generate(seed, kT1Rows);
  sqlarray::Status st = env->Open(kPoolPages);
  if (st.ok()) st = LoadTables(env->db.get(), env->data);
  if (st.ok()) {
    env->AttachWalMvcc();
    env->OpenSessions(conns);
    st = CreateWriteTables(env->sessions[0].get(), conns);
  }
  if (st.ok()) st = env->StartServer(conns);
  if (!st.ok()) {
    r->Count("setup: " + st.ToString());
    return nullptr;
  }
  return env;
}

/// Per-connection state that outlives one pass.
struct Conn {
  explicit Conn(uint64_t seed, int c) : gen(seed, c) {}
  StmtGen gen;
  int64_t op = 0;
  int64_t txns = 0;
  int64_t acked_w = 0;   ///< rows acknowledged into w<c>
  int64_t acked_wc = 0;  ///< rows acknowledged into wc<c>
};

Stmt NextStmt(Conn* conn, int c, bool ingest) {
  const int64_t i = conn->op++;
  if (!ingest) {
    static const Cls kMix[4] = {Cls::kPoint, Cls::kSubarray, Cls::kRange,
                                Cls::kWrite};
    return conn->gen.Of(kMix[(c + i) % 4]);
  }
  if ((c + i) % 4 != 3) {
    return conn->gen.WriteTxn(conn->txns++ % 16 == 15);
  }
  static const Cls kReads[3] = {Cls::kPoint, Cls::kSubarray, Cls::kRange};
  return conn->gen.Of(kReads[((c + i) / 4) % 3]);
}

struct Pass {
  std::vector<Sample> samples;
  PassCounts counts;
  double window_s = 0;
};

/// Runs `ops` statements on every connection at once. Untraced, all go
/// over the wire; traced, connection 0 moves to the next entry point every
/// twelve statements (one full rotation of every class in both mixes)
/// while the others keep the load on.
Pass RunPass(Env* env, std::vector<Conn>* conns, bool ingest, int64_t ops,
             SpanLog* spans, RunResult* r) {
  const auto think = ingest ? kIngestThink : std::chrono::microseconds(0);
  const int n = static_cast<int>(conns->size());
  Pass p;
  std::vector<std::vector<Sample>> per(n);
  std::vector<RunResult> results(n);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int64_t> done_bytes{0}, request{1};

  auto body = [&](int c) {
    Conn& conn = (*conns)[c];
    per[c].reserve(static_cast<size_t>(ops));
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (int64_t i = 0; i < ops; ++i) {
      Stmt s = NextStmt(&conn, c, ingest);
      Level lv =
          spans != nullptr && c == 0 ? kLevels[(i / 12) % 3] : Level::kNet;
      per[c].push_back(
          RunStmt(env, c, lv, s, &results[c], spans, request.fetch_add(1)));
      if (per[c].back().ok) {
        conn.acked_w += s.rows_inserted;
        conn.acked_wc += s.cube_rows;
      }
      done_bytes.fetch_add(s.user_bytes, std::memory_order_relaxed);
      if (think.count() > 0) std::this_thread::sleep_for(think);
    }
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) threads.emplace_back(body, c);
  while (ready.load() < n) std::this_thread::yield();
  p.counts.before = sqlarray::obs::MetricsRegistry::Global().Snapshot();
  auto t0 = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  p.window_s = MsSince(t0) / 1e3;
  p.counts.after = sqlarray::obs::MetricsRegistry::Global().Snapshot();
  p.counts.user_bytes = done_bytes.load();
  for (int c = 0; c < n; ++c) {
    for (const Sample& s : per[c]) p.counts.rows_scanned += s.rows_scanned;
    p.samples.insert(p.samples.end(), per[c].begin(), per[c].end());
    r->attempted += results[c].attempted;
    r->failed += results[c].failed;
    for (auto& e : results[c].errors) {
      if (r->errors.size() < 8) r->errors.push_back(e);
    }
  }
  p.counts.statements = static_cast<int64_t>(p.samples.size());
  return p;
}

/// Table 1's statements serially on connection 0, through `levels`.
std::vector<Sample> SidePhase(Env* env, int rounds,
                              const std::vector<Level>& levels, RunResult* r,
                              SpanLog* spans) {
  std::vector<Sample> out;
  int64_t request = 1 << 30;
  for (int round = 0; round < rounds; ++round) {
    for (int q = 0; q < kNumTable1; ++q) {
      for (Level lv : levels) {
        out.push_back(
            RunStmt(env, 0, lv, StmtGen::Table1(q), r, spans, request++));
      }
    }
  }
  return out;
}

void CheckRowCounts(Env* env, const std::vector<Conn>& conns, RunResult* r) {
  for (size_t c = 0; c < conns.size(); ++c) {
    const int conn = static_cast<int>(c);
    const std::string n = std::to_string(c);
    CheckRowCount(env, conn, Level::kNet, "w" + n, conns[c].acked_w, r);
    CheckRowCount(env, conn, Level::kNet, "wc" + n, conns[c].acked_wc, r);
  }
}

}  // namespace

RunResult RunService(const Options& o, bool ingest) {
  RunResult r;
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  std::unique_ptr<Env> env = SetUp([&] { return Setup(o.seed, n, &r); }, &r);
  if (env == nullptr) return r;
  std::vector<Conn> conns;
  for (int c = 0; c < n; ++c) conns.emplace_back(o.seed, c);
  const int64_t ops = std::max<int64_t>(
      16, static_cast<int64_t>(o.seconds * (ingest ? kIngestOpsPerConnPerSecond
                                                   : kServiceOpsPerConnPerSecond)));

  // Untraced pass: segments of the timed mix, each followed by a few
  // serial rounds of Table 1's statements.
  Pass untraced;
  std::vector<Sample> side;
  PassCounts& counts = untraced.counts;
  counts.before = sqlarray::obs::MetricsRegistry::Global().Snapshot();
  counts.cpu_before = ReadCpuTimes();
  for (int seg = 0; seg < kSegments; ++seg) {
    Pass p = RunPass(env.get(), &conns, ingest, ops / kSegments, nullptr, &r);
    counts.repeats.push_back(RepeatCounts(p.counts.before, p.counts.after,
                                          p.counts.statements,
                                          p.counts.user_bytes));
    counts.user_bytes += p.counts.user_bytes;
    counts.rows_scanned += p.counts.rows_scanned;
    untraced.window_s += p.window_s;
    untraced.samples.insert(untraced.samples.end(), p.samples.begin(),
                            p.samples.end());
    std::vector<Sample> more = SidePhase(env.get(), kSideRoundsPerSegment,
                                         {Level::kSession}, &r, nullptr);
    side.insert(side.end(), more.begin(), more.end());
  }
  for (const Sample& s : side) counts.rows_scanned += s.rows_scanned;
  counts.cpu_after = ReadCpuTimes();
  counts.after = sqlarray::obs::MetricsRegistry::Global().Snapshot();
  counts.statements =
      static_cast<int64_t>(untraced.samples.size() + side.size());
  CheckRowCounts(env.get(), conns, &r);

  std::vector<double> lat;
  for (const Sample& s : untraced.samples) lat.push_back(s.ms);
  std::vector<Sample> all_samples = untraced.samples;
  all_samples.insert(all_samples.end(), side.begin(), side.end());
  AddClassMetrics(all_samples, &r);
  ClientMetrics(lat, untraced.window_s, &r);
  r.info.Set("connections", n, "count");
  r.info.Set("ops_per_connection",
             static_cast<double>(ops / kSegments * kSegments), "count");
  r.info.Set("window_s", untraced.window_s, "s");

  if (o.trace) {
    MetricList& l = r.layers;
    AddCountMetrics(untraced.counts, &l);

    SpanLog spans;
    Pass traced = RunPass(env.get(), &conns, ingest, std::max<int64_t>(16, ops / 2),
                          &spans, &r);
    std::vector<Sample> traced_side =
        SidePhase(env.get(), kSideRoundsPerSegment * 2,
                  {Level::kNet, Level::kServer, Level::kSession}, &r, &spans);
    std::vector<Sample> replay;
    for (const Sample& s : traced.samples) {
      if (s.conn == 0) replay.push_back(s);
    }
    replay.insert(replay.end(), traced_side.begin(), traced_side.end());
    AddClassLayerMetrics(replay, &l);

    // Tracing overhead on the connections that kept the plain path.
    auto others = [](const Sample& s) { return s.conn != 0; };
    double untraced_ms = 0, traced_ms = 0;
    for (Cls c : {Cls::kPoint, Cls::kSubarray, Cls::kRange, Cls::kWrite}) {
      untraced_ms += ClassSum(untraced.samples, c, others, SampleMs);
      traced_ms += ClassSum(traced.samples, c, others, SampleMs);
    }
    l.Set("obs.trace_overhead_pct", 100.0 * (traced_ms / untraced_ms - 1),
          "%");
    conns[0].acked_w += WriteExplains(
        env.get(), &conns[0].gen, /*cold=*/false,
        o.out_dir + "/explain-" + o.workload + ".txt", &r);
    AddPaperMetrics(env.get(), &r);
    CheckRowCounts(env.get(), conns, &r);
    AddProbeMetrics(env.get(), &l);
    spans.WriteJsonLines(o.out_dir + "/spans-" + o.workload + ".jsonl");
  }
  r.record = DataRecord(env.get(), kPoolPages);
  return r;
}

}  // namespace perfbench
