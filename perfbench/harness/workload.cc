#include "harness/workload.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <thread>

#include "sql/parser.h"
#include "udfs/register.h"

namespace perfbench {

using sqlarray::Status;
using sqlarray::StatusCode;
using sqlarray::server::StatementOutcome;

const char* LevelSpan(Level lv) {
  switch (lv) {
    case Level::kNet: return "client.NetClient::Execute";
    case Level::kServer: return "server.ArrayServer::Execute";
    case Level::kSession: return "sql.Session::Execute";
  }
  return "?";
}

Env::~Env() {
  // Clients say GOODBYE before the server stops; the server drains its
  // sessions before the executor and database go.
  clients.clear();
  if (net != nullptr) net->Stop();
}

Status Env::Open(int64_t pool_pages) {
  db = std::make_unique<sqlarray::storage::Database>(
      sqlarray::storage::DiskConfig{}, pool_pages);
  registry = std::make_unique<sqlarray::engine::FunctionRegistry>();
  SQLARRAY_RETURN_IF_ERROR(sqlarray::udfs::RegisterAllUdfs(registry.get()));
  executor = std::make_unique<sqlarray::engine::Executor>(db.get(),
                                                          registry.get());
  return Status::OK();
}

void Env::AttachWalMvcc() {
  wal = std::make_unique<sqlarray::wal::WalManager>(db.get());
  mvcc = std::make_unique<sqlarray::mvcc::MvccManager>(db.get(), wal.get());
}

void Env::OpenSessions(int connections) {
  while (static_cast<int>(sessions.size()) < connections) {
    sessions.push_back(std::make_unique<sqlarray::sql::Session>(executor.get()));
  }
}

Status Env::StartServer(int connections) {
  server = std::make_unique<sqlarray::server::ArrayServer>(
      executor.get(), sqlarray::server::ServerConfig{});
  auth = std::make_unique<sqlarray::net::AuthManager>();
  SQLARRAY_RETURN_IF_ERROR(auth->AddUser("bench", "bench-pw"));
  net = std::make_unique<sqlarray::net::NetServer>(server.get(), auth.get());
  SQLARRAY_RETURN_IF_ERROR(net->Start());
  for (int c = 0; c < connections; ++c) {
    server_sessions.push_back(server->OpenSession());
    SQLARRAY_ASSIGN_OR_RETURN(
        auto client,
        sqlarray::client::NetClient::Connect("127.0.0.1", net->port()));
    SQLARRAY_RETURN_IF_ERROR(client->Authenticate("bench", "bench-pw"));
    clients.push_back(std::move(client));
  }
  return Status::OK();
}

StatementOutcome Env::Exec(int conn, Level lv, const std::string& sql) {
  constexpr int kMaxAttempts = 200;
  StatementOutcome out;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    switch (lv) {
      case Level::kNet:
        out = clients[conn]->Execute(sql);
        break;
      case Level::kServer:
        out = server->Execute(server_sessions[conn], sql);
        break;
      case Level::kSession: {
        sqlarray::sql::Session* s = sessions[conn].get();
        auto r = s->Execute(sql);
        if (!r.ok()) return StatementOutcome::FromStatus(r.status());
        out = StatementOutcome{};
        out.result_sets = std::move(r).value();
        out.stats = s->last_stats();
        return out;
      }
    }
    if (out.status.code() != StatusCode::kResourceExhausted) return out;
    std::this_thread::sleep_for(std::chrono::milliseconds(
        std::max<int64_t>(out.retry_after_ms, 1)));
  }
  return out;
}

std::unique_ptr<Env> SetUp(const std::function<std::unique_ptr<Env>()>& setup,
                           RunResult* r) {
  constexpr int kSetups = 9;
  std::vector<double> seconds;
  std::unique_ptr<Env> env;
  for (int i = 0; i < kSetups; ++i) {
    env.reset();
    auto t0 = Clock::now();
    env = setup();
    if (env == nullptr) return nullptr;
    seconds.push_back(MsSince(t0) / 1e3);
  }
  r->e2e.Set("setup_s", Median(seconds), "s");
  return env;
}

Sample RunStmt(Env* env, int conn, Level lv, const Stmt& s, RunResult* r,
               SpanLog* spans, int64_t request) {
  const int64_t t0 = NowNs();
  StatementOutcome out = env->Exec(conn, lv, s.sql);
  const int64_t t1 = NowNs();
  const std::string err = CheckAnswer(env->data, s, out);
  r->Count(err);
  Sample x;
  x.cls = s.cls;
  x.q = s.q;
  x.conn = conn;
  x.level = lv;
  x.ok = err.empty();
  x.ms = static_cast<double>(t1 - t0) / 1e6;
  // An INSERT returns no QueryStats of its own.
  x.exec_ms = s.cls == Cls::kWrite ? 0 : out.stats.wall_seconds * 1e3;
  x.rows_scanned = out.stats.rows_scanned;
  if (spans != nullptr) {
    if (lv == Level::kSession) x.sql = s.sql;
    const int64_t id = spans->Add(LevelSpan(lv), request, 0, t0, t1);
    spans->Add("engine.exec", request, id,
               t1 - static_cast<int64_t>(x.exec_ms * 1e6), t1);
  }
  return x;
}

void CheckRowCount(Env* env, int conn, Level lv, const std::string& table,
                   int64_t want, RunResult* r) {
  StatementOutcome out = env->Exec(conn, lv, "SELECT COUNT(*) FROM " + table);
  std::string err = out.ok() ? "" : out.status.ToString();
  if (err.empty()) {
    bool right = false;
    if (!out.result_sets.empty()) {
      auto v = out.result_sets[0].ScalarResult();
      right = v.ok() && v->AsInt().ok() && *v->AsInt() == want;
    }
    if (!right) {
      err = table + " holds a different row count than the acknowledged "
                    "inserts";
    }
  }
  r->Count(err);
}

void AddClassMetrics(const std::vector<Sample>& samples, RunResult* r) {
  auto all = [](const Sample&) { return true; };
  r->e2e.Set("scan_ms", ClassSum(samples, Cls::kScan, all, SampleMs), "ms");
  for (Cls c : {Cls::kPoint, Cls::kSubarray, Cls::kRange, Cls::kWrite}) {
    r->e2e.Set(std::string(ClsName(c)) + "_p50_ms",
               ClassSum(samples, c, all, SampleMs), "ms");
  }
  for (MetricList* m : {&r->info, &r->layers}) {
    m->Set("udf_scan_ms", ClassSum(samples, Cls::kUdfScan, all, SampleMs),
           "ms");
    m->Set("group_by_ms", ClassSum(samples, Cls::kGroupBy, all, SampleMs),
           "ms");
  }
}

void RunResult::Count(const std::string& error) {
  ++attempted;
  if (error.empty()) return;
  ++failed;
  if (errors.size() < 8) errors.push_back(error);
}

const char* const kRepeatNames[kNumRepeat] = {
    "storage.pages_read_per_query", "engine.fallback_rows_per_query",
    "wal.bytes_per_user_byte",      "wal.flushes_per_commit",
    "net.bytes_per_op",             "mvcc.versions_per_commit",
};

std::vector<double> RepeatCounts(const sqlarray::obs::MetricsSnapshot& b,
                                 const sqlarray::obs::MetricsSnapshot& a,
                                 int64_t statements, int64_t user_bytes) {
  auto d = [&](const char* name) {
    return static_cast<double>(a.Delta(b, name));
  };
  const double n = static_cast<double>(statements);
  const double commits = d("wal.commits");
  return {
      Ratio(d("storage.disk.pages_read"), n),
      Ratio(d("vec.fallback_rows"), n),
      Ratio(d("wal.bytes"), static_cast<double>(user_bytes)),
      Ratio(d("wal.flushes"), commits),
      Ratio(d("net.bytes_sent") + d("net.bytes_received"), n),
      Ratio(d("mvcc.versions_created"), commits),
  };
}

void ClientMetrics(const std::vector<double>& lat, double window_s,
                   RunResult* r) {
  for (MetricList* m : {&r->info, &r->layers}) {
    m->Set("client.ops_per_s", static_cast<double>(lat.size()) / window_s,
           "1/s");
    m->Set("client.p90_ms", Quantile(lat, 0.9), "ms");
    m->Set("client.p99_ms", Quantile(lat, 0.99), "ms");
    m->Set("client.samples", static_cast<double>(lat.size()), "count");
  }
}

void AddCountMetrics(const PassCounts& c, MetricList* out) {
  auto d = [&](const char* name) {
    return static_cast<double>(c.after.Delta(c.before, name));
  };
  const double n = static_cast<double>(c.statements);
  std::vector<double> counts =
      RepeatCounts(c.before, c.after, c.statements, c.user_bytes);
  for (int i = 0; i < kNumRepeat; ++i) {
    out->Set(kRepeatNames[i], counts[i], "count");
    std::vector<double> series;
    for (const auto& slice : c.repeats) series.push_back(slice[i]);
    out->Set(std::string(kRepeatNames[i]) + ".spread",
             RelativeSpread(series), "ratio");
  }
  const double hits = d("storage.buffer_pool.hits");
  out->Set("storage.pool.hit_share",
           Ratio(hits, hits + d("storage.buffer_pool.misses")), "ratio");
  out->Set("storage.disk.write_bytes_per_user_byte",
           Ratio(d("storage.disk.bytes_written"),
                 static_cast<double>(c.user_bytes)),
           "count");
  out->Set("engine.vec_row_share",
           Ratio(d("vec.rows"), static_cast<double>(c.rows_scanned)),
           "ratio");
  const double kernel = d("core.dispatch.kernel");
  out->Set("engine.kernel_dispatch_share",
           Ratio(kernel, kernel + d("core.dispatch.boxed")), "ratio");
  out->Set("engine.morsel_steals_per_query", Ratio(d("exec.morsel.steals"), n),
           "count");
  out->Set("wal.group_commit_batch",
           Ratio(d("wal.group_commit.batch.sum"),
                 d("wal.group_commit.batch.count")),
           "count");
  // Share of admitted statements that queued for a slot; 0 while the
  // connections never outnumber the slots.
  out->Set("gov.queued_share", Ratio(d("gov.queued"), d("gov.admitted")),
           "ratio");
  out->Set("host.steal_pct", StealPct(c.cpu_before, c.cpu_after), "%");
}

double ClassSum(const std::vector<Sample>& s, Cls c,
                const std::function<bool(const Sample&)>& keep,
                const std::function<double(const Sample&)>& field) {
  std::map<int, std::vector<double>> kinds;
  for (const Sample& x : s) {
    if (x.cls == c && keep(x)) kinds[x.q].push_back(field(x));
  }
  double sum = 0;
  for (const auto& [q, v] : kinds) sum += Median(v);
  return sum;
}

void AddClassLayerMetrics(const std::vector<Sample>& traced, MetricList* out) {
  auto at = [](Level lv) {
    return [lv](const Sample& s) { return s.level == lv; };
  };
  auto all = [](const Sample&) { return true; };
  auto exec = [](const Sample& s) { return s.exec_ms; };
  for (int i = 0; i < kNumCls; ++i) {
    const Cls c = static_cast<Cls>(i);
    const std::string name = ClsName(c);
    const double exec_ms = ClassSum(traced, c, all, exec);
    const double session_ms = ClassSum(traced, c, at(Level::kSession), SampleMs);
    const double server_ms = ClassSum(traced, c, at(Level::kServer), SampleMs);
    const double net_ms = ClassSum(traced, c, at(Level::kNet), SampleMs);
    // A write's engine time stays inside sql.session_us.write.
    if (c != Cls::kWrite) out->Set("engine.exec_ms." + name, exec_ms, "ms");
    out->Set("sql.session_us." + name,
             1e3 * ClassSum(traced, c, at(Level::kSession),
                            [](const Sample& s) { return s.ms - s.exec_ms; }),
             "us");
    out->Set("server.overhead_us." + name, 1e3 * (server_ms - session_ms),
             "us");
    out->Set("client.wire_us." + name, 1e3 * (net_ms - server_ms), "us");
    // Parse cost of the same statement texts, timed alone.
    std::vector<Sample> parsed;
    for (const Sample& s : traced) {
      if (s.cls != c || s.level != Level::kSession) continue;
      Sample p = s;
      auto t0 = Clock::now();
      for (int k = 0; k < 8; ++k) (void)sqlarray::sql::Parse(s.sql);
      p.ms = MsSince(t0) / 8;
      parsed.push_back(std::move(p));
    }
    out->Set("sql.parse_us." + name, 1e3 * ClassSum(parsed, c, all, SampleMs),
             "us");
  }
  const double gb_rows =
      ClassSum(traced, Cls::kGroupBy, all,
               [](const Sample& s) { return double(s.rows_scanned); });
  out->Set("engine.group_by_ns_per_row",
           1e6 * out->Get("engine.exec_ms.group_by") / std::max(1.0, gb_rows),
           "ns");
}

int64_t WriteExplains(Env* env, StmtGen* gen, bool cold,
                      const std::string& path, RunResult* r) {
  std::vector<Stmt> per_class;
  for (int q : {0, 3, 5}) per_class.push_back(StmtGen::Table1(q));
  for (Cls c : {Cls::kPoint, Cls::kSubarray, Cls::kRange, Cls::kWrite}) {
    per_class.push_back(gen->Of(c));
  }
  int64_t inserted = 0;
  std::FILE* f = std::fopen(path.c_str(), "w");
  for (const Stmt& s : per_class) {
    if (cold) env->db->ClearCache();
    StatementOutcome out =
        env->Exec(0, Level::kSession, "EXPLAIN ANALYZE " + s.sql);
    r->Count(out.ok() ? "" : "EXPLAIN ANALYZE: " + out.status.ToString());
    if (out.ok()) inserted += s.rows_inserted;
    if (f == nullptr) continue;
    std::fprintf(f, "== %s: EXPLAIN ANALYZE %.200s\n", ClsName(s.cls),
                 s.sql.c_str());
    for (const auto& rs : out.result_sets) {
      for (size_t i = 0; i < rs.columns.size(); ++i) {
        std::fprintf(f, "%s%s", i ? " | " : "  ", rs.columns[i].c_str());
      }
      std::fprintf(f, "\n");
      for (const auto& row : rs.rows) {
        for (size_t i = 0; i < row.size(); ++i) {
          std::fprintf(f, "%s%s", i ? " | " : "  ",
                       row[i].ToDisplayString().c_str());
        }
        std::fprintf(f, "\n");
      }
    }
  }
  if (f != nullptr) std::fclose(f);
  return inserted;
}

void AddPaperMetrics(Env* env, RunResult* r) {
  constexpr double kPaperRows = 357000000.0;
  const auto& cost = env->executor->cost_model();
  const double scale = kPaperRows / static_cast<double>(env->data.t1_rows);
  for (int q = 0; q < 5; ++q) {
    env->db->ClearCache();
    Stmt s = StmtGen::Table1(q);
    StatementOutcome out = env->Exec(0, Level::kSession, s.sql);
    r->Count(CheckAnswer(env->data, s, out));
    sqlarray::engine::QueryStats full = out.stats;
    full.cpu_core_seconds *= scale;
    full.io.virtual_read_seconds *= scale;
    const std::string name = "paper.q" + std::to_string(q + 1);
    // A cost-model output, not a measured time: it must repeat exactly.
    r->layers.Set(name + ".modeled_s", full.ModeledSeconds(cost), "model_s");
    r->layers.Set(name + ".pages_read",
                  static_cast<double>(out.stats.io.pages_read), "count");
  }
}

std::string DataRecord(Env* env, int64_t pool_pages) {
  std::string out = "{\"pool_pages\": " + std::to_string(pool_pages) +
                    ", \"tables\": {";
  bool first = true;
  for (const std::string& name : env->db->TableNames()) {
    auto t = env->db->GetTable(name);
    if (!t.ok()) continue;
    out += std::string(first ? "" : ", ") + JsonQuote(name) +
           ": {\"rows\": " + std::to_string((*t)->row_count()) +
           ", \"bytes\": " + std::to_string((*t)->data_bytes()) +
           ", \"pages\": " + std::to_string((*t)->data_page_count()) + "}";
    first = false;
  }
  return out + "}}";
}

}  // namespace perfbench
