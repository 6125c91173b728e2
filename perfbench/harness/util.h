// Measurement helpers shared by the workloads: clocks and order
// statistics, host probes (memcpy / CRC32C / spin loop / stolen time /
// peak RSS), the in-memory span log of the traced pass, and the metric
// list that becomes the result line.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// (max - min) / median: 0 when a count repeats exactly.
inline double RelativeSpread(const std::vector<double>& v) {
  if (v.empty()) return 0;
  auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  double med = Median(v);
  return med == 0 ? (*hi == *lo ? 0 : 1) : (*hi - *lo) / med;
}

/// a / b, or 0 when the base is empty (the layer did no work).
inline double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

/// Roofline and drift probe: memcpy and CRC32C bandwidth over 8 KB page
/// images, and a fixed integer loop whose time tracks the core's speed.
struct HostProbe {
  double memcpy_gbps = 0;
  double crc32c_gbps = 0;
  double spin_ms = 0;
};
HostProbe ProbeHost();

/// Cumulative jiffies from the first line of /proc/stat.
struct CpuTimes {
  int64_t steal = 0;
  int64_t total = 0;
};
CpuTimes ReadCpuTimes();
/// Share of all CPU time in (a, b] that the hypervisor gave to others.
double StealPct(const CpuTimes& a, const CpuTimes& b);

/// Peak resident set (VmHWM) in MB.
double PeakRssMb();

/// One span of the traced pass: `<module>.<call>`, its interval, the span
/// that caused it (0 = none) and the operation it belongs to.
struct Span {
  int64_t id = 0;
  int64_t parent = 0;
  int64_t request = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Spans are kept in memory while the workload runs and written out once,
/// as JSON lines, when the run ends.
class SpanLog {
 public:
  int64_t Add(std::string name, int64_t request, int64_t parent,
              int64_t start_ns, int64_t end_ns);
  bool WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Named metrics in insertion order, printed as the result line's
/// "metrics" object.
class MetricList {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  double Get(const std::string& name) const;
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  std::map<std::string, size_t> index_;
};

/// JSON string escaping for names and messages.
std::string JsonQuote(const std::string& s);

}  // namespace perfbench
