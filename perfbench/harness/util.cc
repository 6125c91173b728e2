#include "harness/util.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/crc32c.h"

namespace perfbench {

namespace {

constexpr size_t kPage = 8192;
constexpr size_t kProbePages = 512;  // 4 MB: stays in the last-level cache

/// Best of `trials` timings of `fn`, in seconds.
template <typename Fn>
double BestSeconds(int trials, Fn fn) {
  double best = 1e30;
  for (int t = 0; t < trials; ++t) {
    auto t0 = Clock::now();
    fn();
    best = std::min(best,
                    std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return best;
}

}  // namespace

HostProbe ProbeHost() {
  std::vector<uint8_t> src(kPage * kProbePages), dst(kPage * kProbePages);
  for (size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  const double bytes = static_cast<double>(src.size());
  HostProbe p;
  double copy_s = BestSeconds(7, [&] {
    for (size_t k = 0; k < kProbePages; ++k) {
      std::memcpy(dst.data() + k * kPage, src.data() + k * kPage, kPage);
    }
    asm volatile("" : : "r"(dst.data()) : "memory");
  });
  p.memcpy_gbps = bytes / copy_s / 1e9;
  uint32_t acc = 0;
  double crc_s = BestSeconds(7, [&] {
    for (size_t k = 0; k < kProbePages; ++k) {
      acc ^= sqlarray::Crc32c(src.data() + k * kPage, kPage);
    }
    asm volatile("" : : "r"(acc) : "memory");
  });
  p.crc32c_gbps = bytes / crc_s / 1e9;
  // A dependent multiply-add chain: fixed work, no memory traffic.
  uint64_t x = 0x9E3779B97F4A7C15ull;
  p.spin_ms = 1e3 * BestSeconds(3, [&] {
                for (int i = 0; i < 20000000; ++i) {
                  x = x * 6364136223846793005ull + 1442695040888963407ull;
                }
                asm volatile("" : : "r"(x));
              });
  return p;
}

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return t;
  // user nice system idle iowait irq softirq steal guest guest_nice
  int64_t v[10] = {};
  for (int i = 0; i < 10 && (in >> v[i]); ++i) {
  }
  // guest time is already included in user / nice.
  for (int i = 0; i < 8; ++i) t.total += v[i];
  t.steal = v[7];
  return t;
}

double StealPct(const CpuTimes& a, const CpuTimes& b) {
  return 100.0 * Ratio(static_cast<double>(b.steal - a.steal),
                       static_cast<double>(b.total - a.total));
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

int64_t SpanLog::Add(std::string name, int64_t request, int64_t parent,
                     int64_t start_ns, int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = static_cast<int64_t>(spans_.size()) + 1;
  s.parent = parent;
  s.request = request;
  s.name = std::move(name);
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\": %lld, \"parent\": %lld, \"request\": %lld, "
                 "\"name\": %s, \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request), JsonQuote(s.name).c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

void MetricList::Set(const std::string& name, double value,
                     const std::string& unit) {
  if (!std::isfinite(value)) value = 0;
  auto it = index_.find(name);
  if (it != index_.end()) {
    entries_[it->second] = {name, value, unit};
    return;
  }
  index_[name] = entries_.size();
  entries_.push_back({name, value, unit});
}

double MetricList::Get(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? 0 : entries_[it->second].value;
}

std::string MetricList::ToJson() const {
  std::string out = "{";
  char num[64];
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    std::snprintf(num, sizeof(num), "%.17g", e.value);
    if (i > 0) out += ", ";
    out += JsonQuote(e.name) + ": {\"value\": " + num +
           ", \"unit\": " + JsonQuote(e.unit) + "}";
  }
  return out + "}";
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

}  // namespace perfbench
