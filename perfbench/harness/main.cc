// perfbench: runs one workload of the repository benchmark and
// prints, as its last line, {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload <table1_cold|array_service|array_ingest>
//                    --seed <n> --seconds <n> --trace <0|1>
//                    [--out-dir <dir>] [--git-sha <sha>] [--src-hash <hash>]
//
// --trace 0 reports the end-to-end metrics of the untraced pass; --trace 1
// runs the same untraced pass, then the traced pass and the probes, and
// reports the per-layer metrics. The line before the result is the run
// record: host, code, seed, data and the run's own sample counts.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "harness/workload.h"

namespace {

int Usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  return 2;
}

std::string CpuFlags() {
  std::string out;
  __builtin_cpu_init();
  auto add = [&](const char* name, bool on) {
    out += std::string(out.empty() ? "" : ", ") + "\"" + name +
           "\": " + (on ? "true" : "false");
  };
  add("sse4.2", __builtin_cpu_supports("sse4.2"));
  add("avx2", __builtin_cpu_supports("avx2"));
  add("avx512f", __builtin_cpu_supports("avx512f"));
  return "{" + out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  std::string git_sha = "unknown", src_hash = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--src-hash") {
      src_hash = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (o.seconds < 1) return Usage("--seconds must be at least 1");

  const HostProbe start = ProbeHost();
  RunResult r;
  if (o.workload == "table1_cold") {
    r = RunTable1Cold(o);
  } else if (o.workload == "array_service") {
    r = RunService(o, /*ingest=*/false);
  } else if (o.workload == "array_ingest") {
    r = RunService(o, /*ingest=*/true);
  } else {
    return Usage("--workload must be table1_cold, array_service or "
                 "array_ingest");
  }
  r.e2e.Set("rss_mb", PeakRssMb(), "MB");
  const HostProbe end = ProbeHost();
  MetricList host;
  host.Set("host.memcpy_gbps", (start.memcpy_gbps + end.memcpy_gbps) / 2,
           "GB/s");
  host.Set("common.crc32c_gbps", (start.crc32c_gbps + end.crc32c_gbps) / 2,
           "GB/s");
  host.Set("host.spin_ms", start.spin_ms, "ms");
  host.Set("host.spin_ms_end", end.spin_ms, "ms");
  if (o.trace) {
    r.layers.Set("host.memcpy_gbps", host.Get("host.memcpy_gbps"), "GB/s");
    r.layers.Set("common.crc32c_gbps", host.Get("common.crc32c_gbps"), "GB/s");
    r.layers.Set("host.spin_ms", start.spin_ms, "ms");
    r.layers.Set("host.spin_ms_end", end.spin_ms, "ms");
  }

  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "perfbench: failed: %s\n", e.c_str());
  }
  std::printf(
      "{\"record\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %d, "
      "\"trace\": %d, \"host\": {\"nproc\": %u, \"cpu_flags\": %s, "
      "\"build_type\": %s, \"probe\": %s}, \"code\": {\"git_sha\": %s, "
      "\"src_hash\": %s}, \"data\": %s, \"run\": %s, \"end_to_end\": %s}}\n",
      JsonQuote(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
      o.seconds, o.trace ? 1 : 0, std::thread::hardware_concurrency(),
      CpuFlags().c_str(), JsonQuote(PERFBENCH_BUILD_TYPE).c_str(),
      host.ToJson().c_str(), JsonQuote(git_sha).c_str(),
      JsonQuote(src_hash).c_str(), r.record.empty() ? "{}" : r.record.c_str(),
      r.info.ToJson().c_str(), r.e2e.ToJson().c_str());
  const MetricList& metrics = o.trace ? r.layers : r.e2e;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              r.failed == 0 && r.attempted > 0 ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(r.attempted, 1)),
              static_cast<long long>(r.failed), metrics.ToJson().c_str());
  return 0;
}
