// Micro-probes: each layer's public entry point timed from outside, on the
// run's own data, with no other statement running. A probe reports the
// median of several timed batches.
#include <thread>

#include "core/array.h"
#include "harness/workload.h"
#include "gov/admission.h"

namespace perfbench {

namespace {

using sqlarray::Status;
using sqlarray::engine::Value;
using sqlarray::storage::Page;
using sqlarray::storage::PageId;

/// Median over `batches` of the time of one batch divided by `per_batch`,
/// in nanoseconds.
template <typename Fn>
double NsPerOp(int batches, int64_t per_batch, Fn fn) {
  std::vector<double> v;
  for (int b = 0; b < batches; ++b) {
    const int64_t t0 = NowNs();
    fn();
    v.push_back(static_cast<double>(NowNs() - t0) /
                static_cast<double>(per_batch));
  }
  return Median(v);
}

const sqlarray::engine::ScalarFunction* Udf(Env* env, const char* schema,
                                            const char* name, int arity) {
  auto f = env->registry->Resolve(schema, name, arity);
  return f.ok() ? *f : nullptr;
}

void DiskAndPool(Env* env, MetricList* out) {
  auto tv = env->db->GetTable("Tvector");
  if (!tv.ok()) return;
  auto leaves = (*tv)->CollectLeafPages();
  if (!leaves.ok() || leaves->empty()) return;
  // Half the smallest pool (2,048 pages), so the hit probe finds every page
  // resident.
  std::vector<PageId> pages(leaves->begin(),
                            leaves->begin() + std::min<size_t>(
                                                  leaves->size(), 1024));
  const int64_t n = static_cast<int64_t>(pages.size());
  auto* disk = env->db->disk();
  auto* pool = env->db->buffer_pool();
  Page page;
  out->Set("storage.disk.read_us", 1e-3 * NsPerOp(5, n, [&] {
             for (PageId id : pages) (void)disk->ReadPage(id, &page);
           }),
           "us");

  const int threads = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<double> per_thread(threads);
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      Page mine;
      per_thread[t] = 1e-3 * NsPerOp(5, n, [&] {
        for (PageId id : pages) (void)disk->ReadPage(id, &mine);
      });
    });
  }
  for (auto& t : ts) t.join();
  out->Set("storage.disk.read_us_par", Median(per_thread), "us");

  std::vector<double> miss, hit;
  for (int b = 0; b < 5; ++b) {
    env->db->ClearCache();
    int64_t t0 = NowNs();
    for (PageId id : pages) (void)pool->GetPage(id);
    miss.push_back(static_cast<double>(NowNs() - t0) / n);
    t0 = NowNs();
    for (PageId id : pages) (void)pool->GetPage(id);
    hit.push_back(static_cast<double>(NowNs() - t0) / n);
  }
  out->Set("storage.pool.miss_us", 1e-3 * Median(miss), "us");
  out->Set("storage.pool.hit_ns", Median(hit), "ns");
}

void BtreeScan(Env* env, MetricList* out) {
  auto obs = env->db->GetTable("obs");
  if (!obs.ok()) return;
  auto walk = [&] {
    auto cur = (*obs)->Scan();
    if (!cur.ok()) return;
    uint64_t acc = 0;
    while (cur->valid()) {
      acc += cur->row()[0];
      if (!cur->Next().ok()) break;
    }
    asm volatile("" : : "r"(acc));
  };
  walk();  // resident from here on
  out->Set("storage.btree.scan_ns_per_row",
           NsPerOp(5, (*obs)->row_count(), walk), "ns");
}

/// The first stored blob of `table`, column `col`.
sqlarray::Result<sqlarray::storage::BlobId> FirstBlob(Env* env,
                                                      const char* table) {
  SQLARRAY_ASSIGN_OR_RETURN(auto* t, env->db->GetTable(table));
  SQLARRAY_ASSIGN_OR_RETURN(auto cur, t->Scan());
  if (!cur.valid()) return Status::NotFound("empty table");
  SQLARRAY_ASSIGN_OR_RETURN(auto v, t->schema().DecodeColumn(cur.row().data(), 1));
  if (!std::holds_alternative<sqlarray::storage::BlobId>(v)) {
    return Status::InvalidArgument("not a blob column");
  }
  return std::get<sqlarray::storage::BlobId>(v);
}

void BlobAndUdfs(Env* env, MetricList* out) {
  auto* pool = env->db->buffer_pool();
  sqlarray::engine::QueryStats stats;
  sqlarray::engine::UdfContext ctx;
  ctx.pool = pool;
  ctx.stats = &stats;
  ctx.cost = &env->executor->cost_model();

  // One stored obs blob: the argument of the Q4 / Q5 style calls.
  auto obs = env->db->GetTable("obs");
  if (obs.ok()) {
    auto cur = (*obs)->Scan();
    if (cur.ok() && cur->valid()) {
      auto v = (*obs)->schema().DecodeColumn(cur->row().data(), 1);
      if (v.ok() && std::holds_alternative<std::vector<uint8_t>>(*v)) {
        const Value args[2] = {
            Value::Bytes(std::get<std::vector<uint8_t>>(*v)), Value::Int(0)};
        constexpr int64_t kCalls = 20000;
        for (auto [schema, name, metric] :
             {std::tuple{"FloatArray", "Item_1", "udfs.item_ns"},
              std::tuple{"dbo", "EmptyFunction", "udfs.empty_ns"}}) {
          const auto* fn = Udf(env, schema, name, 2);
          if (fn == nullptr) continue;
          out->Set(metric, NsPerOp(5, kCalls, [&] {
                     for (int64_t i = 0; i < kCalls; ++i) {
                       (void)sqlarray::engine::FunctionRegistry::Invoke(
                           *fn, args, ctx);
                     }
                   }),
                   "ns");
        }
      }
    }
  }

  auto cube = FirstBlob(env, "cubes");
  if (!cube.ok()) return;
  const int64_t n = Dataset::kCubeN;
  const int64_t header = cube->size - 8 * n * n * n;
  sqlarray::Rng rng(7);
  auto stream = sqlarray::storage::BlobStream::Open(pool, *cube);
  if (!stream.ok()) return;
  double cells[4];
  auto block = [&] {
    // One 4^3 block: 16 column-major runs of 4 doubles.
    int64_t x = rng.UniformInt(0, n - 4), y = rng.UniformInt(0, n - 4),
            z = rng.UniformInt(0, n - 4);
    for (int64_t k = 0; k < 4; ++k) {
      for (int64_t j = 0; j < 4; ++j) {
        int64_t off = header + 8 * (x + n * ((y + j) + n * (z + k)));
        (void)stream->ReadAt(off, std::span<uint8_t>(
                                      reinterpret_cast<uint8_t*>(cells), 32));
      }
    }
  };
  for (int i = 0; i < 64; ++i) block();  // resident from here on
  out->Set("storage.blob.read_us", 1e-3 * NsPerOp(5, 200, [&] {
             for (int i = 0; i < 200; ++i) block();
           }),
           "us");

  const auto* vec3 = Udf(env, "IntArray", "Vector_3", 3);
  const auto* sub = Udf(env, "FloatArrayMax", "Subarray", 4);
  if (vec3 == nullptr || sub == nullptr) return;
  const Value four[3] = {Value::Int(4), Value::Int(4), Value::Int(4)};
  const Value off_args[3] = {Value::Int(8), Value::Int(9), Value::Int(10)};
  auto sizes = sqlarray::engine::FunctionRegistry::Invoke(*vec3, four, ctx);
  auto offset =
      sqlarray::engine::FunctionRegistry::Invoke(*vec3, off_args, ctx);
  if (!sizes.ok() || !offset.ok()) return;
  const Value args[4] = {Value::Blob({*cube, pool}), *offset, *sizes,
                         Value::Int(0)};
  out->Set("udfs.subarray_us", 1e-3 * NsPerOp(5, 200, [&] {
             for (int i = 0; i < 200; ++i) {
               (void)sqlarray::engine::FunctionRegistry::Invoke(*sub, args,
                                                                ctx);
             }
           }),
           "us");
}

void MvccProbes(Env* env, MetricList* out) {
  // table1_cold has no WAL: its probes run on a scratch durable database.
  std::unique_ptr<Env> scratch;
  Env* e = env;
  if (env->mvcc == nullptr) {
    scratch = std::make_unique<Env>();
    if (!scratch->Open(256).ok()) return;
    scratch->AttachWalMvcc();
    e = scratch.get();
  }
  e->OpenSessions(1);
  if (!e->sessions[0]
           ->Execute("CREATE TABLE probe_scratch (id BIGINT, v VARBINARY(64))")
           .ok()) {
    return;
  }
  auto table = e->db->GetTable("probe_scratch");
  if (!table.ok()) return;
  constexpr int64_t kSnaps = 2000;
  out->Set("mvcc.snapshot_us", 1e-3 * NsPerOp(5, kSnaps, [&] {
             for (int64_t i = 0; i < kSnaps; ++i) {
               auto snap = e->mvcc->AcquireSnapshot();
             }
           }),
           "us");
  const std::vector<uint8_t> v(64, 0);
  int64_t key = 0;
  constexpr int64_t kTxns = 100;
  out->Set("mvcc.commit_us", 1e-3 * NsPerOp(5, kTxns, [&] {
             for (int64_t i = 0; i < kTxns; ++i) {
               auto txn = e->mvcc->Begin();
               if (!txn.ok()) return;
               for (int k = 0; k < 4; ++k) {
                 (void)e->mvcc->ApplyInsert(*txn, *table, {key++, v});
               }
               (void)e->mvcc->Commit(*txn);
             }
           }),
           "us");
}

void GovAndNet(Env* env, MetricList* out) {
  sqlarray::gov::AdmissionController admission({});
  sqlarray::gov::CancelSource cancel;
  constexpr int64_t kAdmits = 10000;
  out->Set("gov.admit_us", 1e-3 * NsPerOp(5, kAdmits, [&] {
             for (int64_t i = 0; i < kAdmits; ++i) {
               auto slot = admission.Admit(&cancel);
             }
           }),
           "us");
  if (env->clients.empty()) return;
  std::vector<double> rtt;
  for (int i = 0; i < 400; ++i) {
    const int64_t t0 = NowNs();
    (void)env->clients[0]->Ping();
    rtt.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  out->Set("net.roundtrip_us", Median(rtt), "us");
}

}  // namespace

void AddProbeMetrics(Env* env, MetricList* out) {
  DiskAndPool(env, out);
  BtreeScan(env, out);
  BlobAndUdfs(env, out);
  MvccProbes(env, out);
  GovAndNet(env, out);
}

}  // namespace perfbench
