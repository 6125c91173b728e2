// Experiment N1: wire-protocol overhead of the networked front-end.
//
// The same closed-loop query mix runs twice against one ArrayServer:
// in-process (threads calling Execute directly — the bench_server baseline
// path) and networked (each thread a NetClient over loopback TCP, speaking
// the length-prefixed frame protocol through NetServer's per-connection
// threads). BENCH_NET_CONNECTIONS concurrent clients (default 8)
// each run BENCH_NET_OPS statements (default 40): COUNT range filters, hash
// aggregates, chunk-streamed wide SELECTs, and per-connection INSERTs.
//
// Reported per path: p50/p99 statement latency and saturation qps; the
// delta is the cost of framing + CRC + socket hops + the connection
// thread's wake on each frame. Loopback numbers are a floor for real
// networks, but catching a serialization regression is the point.
//
// --json output carries the standard {"records", "host", "metrics"} shape
// plus a top-level "net" object with both paths' numbers
// (cmake/bench_json_smoke.cmake validates the shape).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "client/net_client.h"
#include "mvcc/mvcc.h"
#include "net/auth.h"
#include "net/net_server.h"
#include "server/server.h"
#include "wal/wal.h"

namespace sqlarray::bench {
namespace {

int64_t EnvInt(const char* name, int64_t fallback) {
  if (const char* env = std::getenv(name)) return std::atoll(env);
  return fallback;
}

double Seconds(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

struct PathResult {
  std::vector<double> latencies_ms;
  int64_t ok = 0;
  int64_t errors = 0;
  double wall_s = 0;

  double Percentile(double p) const {
    if (latencies_ms.empty()) return 0;
    std::vector<double> v = latencies_ms;
    std::sort(v.begin(), v.end());
    return v[static_cast<size_t>(p * (v.size() - 1))];
  }
  double Qps() const { return wall_s > 0 ? ok / wall_s : 0; }
};

/// The statement for (connection c, op i). The mix matches bench_server's
/// read classes plus a wide multi-chunk SELECT that exercises ROWS
/// streaming, plus private INSERTs so the WAL path is on both sides.
/// key_base keeps the two paths' INSERT keys disjoint — they share one
/// database, and the clustered key rejects duplicates.
std::string MixStatement(int c, int op, int64_t rows, int64_t key_base) {
  switch ((c + op) % 4) {
    case 0:
      return "SELECT COUNT(id) FROM shared WHERE id < " +
             std::to_string((op % 20 + 1) * (rows / 20 + 1));
    case 1:
      return "SELECT v, SUM(id) FROM shared GROUP BY v";
    case 2:
      return "SELECT id, v, id + v FROM shared WHERE id < 600";
    default:
      return "INSERT INTO n" + std::to_string(c) + " VALUES (" +
             std::to_string(key_base + op) + ", " + std::to_string(c) + ")";
  }
}

/// One statement executor: the in-process and networked closed loops differ
/// only in this callback's implementation.
template <typename ExecuteFn>
void RunClosedLoop(int connections, int ops, int64_t rows, int64_t key_base,
                   std::vector<PathResult>* per_thread, ExecuteFn make_exec) {
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      auto exec = make_exec(c);
      PathResult& out = (*per_thread)[c];
      for (int op = 0; op < ops; ++op) {
        std::string sql = MixStatement(c, op, rows, key_base);
        auto a0 = std::chrono::steady_clock::now();
        server::StatementOutcome r = exec(sql);
        auto a1 = std::chrono::steady_clock::now();
        if (r.ok()) {
          ++out.ok;
          out.latencies_ms.push_back(Seconds(a0, a1) * 1e3);
        } else if (r.status.code() == StatusCode::kResourceExhausted) {
          // Closed loop under the default (generous) admission config;
          // back off from the typed hint and retry once.
          std::this_thread::sleep_for(
              std::chrono::milliseconds(std::max<int64_t>(
                  r.retry_after_ms, 1)));
          --op;
        } else {
          ++out.errors;
          std::fprintf(stderr, "unexpected: %s\n", r.status.ToString().c_str());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
}

PathResult Collect(std::vector<PathResult> per_thread, double wall_s) {
  PathResult total;
  total.wall_s = wall_s;
  for (PathResult& p : per_thread) {
    total.ok += p.ok;
    total.errors += p.errors;
    total.latencies_ms.insert(total.latencies_ms.end(),
                              p.latencies_ms.begin(), p.latencies_ms.end());
  }
  return total;
}

void PrintResult(const char* label, const PathResult& r, int connections) {
  std::printf(
      "%-12s connections=%d ok=%lld errors=%lld  p50=%.3fms p99=%.3fms "
      "qps=%.0f wall=%.2fs\n",
      label, connections, static_cast<long long>(r.ok),
      static_cast<long long>(r.errors), r.Percentile(0.5), r.Percentile(0.99),
      r.Qps(), r.wall_s);
}

void AppendPathJson(std::FILE* f, const char* key, const PathResult& r,
                    bool last) {
  std::fprintf(f,
               "    \"%s\": {\"ok\": %lld, \"errors\": %lld, "
               "\"p50_ms\": %.4f, \"p99_ms\": %.4f, \"qps\": %.2f, "
               "\"wall_s\": %.4f}%s\n",
               key, static_cast<long long>(r.ok),
               static_cast<long long>(r.errors), r.Percentile(0.5),
               r.Percentile(0.99), r.Qps(), r.wall_s, last ? "" : ",");
}

/// FlushJson with an extra top-level "net" object holding both paths.
void FlushNetJson(int connections, int ops, const PathResult& inproc,
                  const PathResult& net) {
  FlushJson("net", [&](std::FILE* f) {
    std::fprintf(f,
                 "    \"connections\": %d,\n    \"ops_per_connection\": %d,\n",
                 connections, ops);
    AppendPathJson(f, "in_process", inproc, /*last=*/false);
    AppendPathJson(f, "networked", net, /*last=*/true);
  });
}

void RunBench() {
  const int connections =
      static_cast<int>(EnvInt("BENCH_NET_CONNECTIONS", 8));
  const int ops = static_cast<int>(EnvInt("BENCH_NET_OPS", 40));
  const int64_t rows = std::min<int64_t>(BenchRows(), 20000);

  Banner("N1", "wire-protocol overhead: networked vs in-process front-end");
  std::printf("closed loop: %d connections x %d ops, %lld shared rows\n\n",
              connections, ops, static_cast<long long>(rows));

  storage::Database db;
  wal::WalManager wal(&db);
  mvcc::MvccManager mvcc(&db, &wal);
  engine::FunctionRegistry registry;
  engine::Executor executor(&db, &registry);
  Check(udfs::RegisterAllUdfs(&registry), "udf registration");

  server::ServerConfig cfg;
  cfg.admission.max_concurrent = 8;
  cfg.admission.max_queue = 256;
  server::ArrayServer srv(&executor, cfg);

  int64_t setup = srv.OpenSession();
  Check(srv.Execute(setup, "CREATE TABLE shared (id BIGINT, v BIGINT)").status,
        "create shared");
  {
    std::string values;
    for (int64_t i = 0; i < rows; ++i) {
      if (!values.empty()) values += ", ";
      values += "(" + std::to_string(i) + ", " + std::to_string(i % 17) + ")";
      if (values.size() > 200000 || i + 1 == rows) {
        Check(srv.Execute(setup, "INSERT INTO shared VALUES " + values).status,
              "load shared");
        values.clear();
      }
    }
  }
  for (int c = 0; c < connections; ++c) {
    Check(srv.Execute(setup, "CREATE TABLE n" + std::to_string(c) +
                                 " (id BIGINT, v BIGINT)")
              .status,
          "create private");
  }

  // In-process baseline: the bench_server path, one session per thread.
  PathResult inproc;
  {
    std::vector<PathResult> per_thread(connections);
    std::vector<int64_t> ids;
    for (int c = 0; c < connections; ++c) ids.push_back(srv.OpenSession());
    auto t0 = std::chrono::steady_clock::now();
    RunClosedLoop(connections, ops, rows, /*key_base=*/0, &per_thread,
                  [&](int c) {
      int64_t id = ids[c];
      return [&srv, id](const std::string& sql) {
        return srv.Execute(id, sql);
      };
    });
    auto t1 = std::chrono::steady_clock::now();
    for (int64_t id : ids) Check(srv.CloseSession(id), "close session");
    inproc = Collect(std::move(per_thread), Seconds(t0, t1));
  }
  PrintResult("in_process", inproc, connections);

  // Networked: same mix through HELLO/AUTH + QUERY frames over loopback.
  net::AuthManager auth;
  Check(auth.AddUser("bench", "bench-pw"), "add user");
  net::NetServer netsrv(&srv, &auth);
  Check(netsrv.Start(), "net start");
  PathResult netres;
  {
    std::vector<PathResult> per_thread(connections);
    std::vector<std::unique_ptr<client::NetClient>> clients;
    for (int c = 0; c < connections; ++c) {
      clients.push_back(CheckResult(
          client::NetClient::Connect("127.0.0.1", netsrv.port()), "connect"));
      Check(clients.back()->Authenticate("bench", "bench-pw"), "auth");
    }
    auto t0 = std::chrono::steady_clock::now();
    RunClosedLoop(connections, ops, rows, /*key_base=*/1000000, &per_thread,
                  [&](int c) {
      client::NetClient* cl = clients[c].get();
      return [cl](const std::string& sql) { return cl->Execute(sql); };
    });
    auto t1 = std::chrono::steady_clock::now();
    for (auto& cl : clients) cl->Close();
    netres = Collect(std::move(per_thread), Seconds(t0, t1));
  }
  netsrv.Stop();
  PrintResult("networked", netres, connections);

  std::printf(
      "\nwire overhead: p50 %+.3fms, p99 %+.3fms per statement; qps %.0f -> "
      "%.0f (loopback floor: framing + CRC32C + 2 socket hops)\n",
      netres.Percentile(0.5) - inproc.Percentile(0.5),
      netres.Percentile(0.99) - inproc.Percentile(0.99), inproc.Qps(),
      netres.Qps());

  RecordJson("bench_net", "in_process", inproc.wall_s, inproc.Qps());
  RecordJson("bench_net", "networked", netres.wall_s, netres.Qps());
  FlushNetJson(connections, ops, inproc, netres);
}

}  // namespace
}  // namespace sqlarray::bench

int main(int argc, char** argv) {
  sqlarray::bench::ParseBenchArgs(argc, argv);
  sqlarray::bench::RunBench();
  return 0;
}
