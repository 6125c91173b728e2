// Experiment R1: cost of page checksums (PAGE_VERIFY CHECKSUM stand-in).
//
// Measures CRC32C throughput over 8 kB pages, for the implementation
// Crc32c() dispatches to (SSE4.2 on x86-64 CPUs that have it) and for the
// portable slicing-by-8, and the wall-clock cost checksumming adds to the
// simulated disk's write and read paths. The point of reference is the
// ~7 us of modeled transfer time per page at the paper's 1150 MB/s; the
// target is a checksummed read within 1.5x of an unchecked one.
//
// --json records every case's wall time, MB/s and us/page; the checksummed
// read also carries its ratio to the unchecked read.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/crc32c.h"
#include "storage/disk.h"

namespace sqlarray::bench {
namespace {

using storage::DiskConfig;
using storage::kPageSize;
using storage::Page;
using storage::PageId;
using storage::SimulatedDisk;

constexpr int kReps = 3;

/// Best-of-kReps wall seconds of fn().
template <typename Fn>
double BestSeconds(Fn fn) {
  double best = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

/// Prints and records MB/s and us/page for `seconds` spent on `pages` pages.
void Report(const char* label, const char* json_case, double seconds,
            int64_t pages,
            std::vector<std::pair<std::string, double>> extra = {}) {
  const double mb_per_s = pages * kPageSize / seconds / 1e6;
  const double us_per_page = seconds / pages * 1e6;
  std::printf("%-28s: %8.0f MB/s  (%.3f us/page)\n", label, mb_per_s,
              us_per_page);
  extra.insert(extra.begin(), {"us_per_page", us_per_page});
  RecordJson("bench_checksum", json_case, seconds, mb_per_s,
             std::move(extra));
}

/// CRC32C throughput over page-sized buffers. Byte 0 changes every page so
/// no result can be reused, and the returned accumulator folds every CRC in
/// order (a multiply-add: an XOR of these CRCs would cancel by linearity).
template <typename CrcFn>
uint32_t BenchRawCrc(const char* label, const char* json_case, CrcFn crc,
                     int64_t pages) {
  std::vector<uint8_t> buf(kPageSize);
  for (int64_t i = 0; i < kPageSize; ++i) {
    buf[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  uint32_t acc = 0;
  const double s = BestSeconds([&] {
    acc = 0;
    for (int64_t i = 0; i < pages; ++i) {
      buf[0] = static_cast<uint8_t>(i);
      acc = acc * 0x9E3779B1u + crc(buf.data(), buf.size());
    }
  });
  Report(label, json_case, s, pages);
  return acc;
}

struct DiskTimes {
  double write_s = 0;
  double read_s = 0;
};

/// Write and read passes over every page of a simulated disk.
DiskTimes BenchDiskPath(bool verify, int64_t pages) {
  DiskConfig config;
  config.verify_checksums = verify;
  SimulatedDisk disk(config);
  std::vector<PageId> ids;
  for (int64_t i = 0; i < pages; ++i) ids.push_back(disk.AllocatePage());

  Page page;
  for (int64_t i = 0; i < kPageSize; ++i) {
    page.data()[i] = static_cast<uint8_t>(i);
  }
  DiskTimes t;
  t.write_s = BestSeconds([&] {
    for (PageId id : ids) Check(disk.WritePage(id, page), "page write");
  });
  Page out;
  t.read_s = BestSeconds([&] {
    for (PageId id : ids) Check(disk.ReadPage(id, &out), "page read");
  });
  return t;
}

void Run() {
  Banner("R1", "page checksum overhead (CRC32C, 8 kB pages)");
  const int64_t pages = 20000;
  std::printf("Crc32c dispatches to %s\n", Crc32cImplementation());

  const uint32_t dispatched_acc = BenchRawCrc(
      "CRC32C dispatched", "crc32c_dispatched",
      [](const void* p, size_t n) { return Crc32c(p, n); }, pages);
  const uint32_t portable_acc = BenchRawCrc(
      "CRC32C portable slicing-by-8", "crc32c_portable",
      [](const void* p, size_t n) { return Crc32cPortable(p, n); }, pages);
  if (dispatched_acc != portable_acc) {
    std::fprintf(stderr,
                 "FATAL: CRC32C implementations disagree: %08x vs %08x\n",
                 dispatched_acc, portable_acc);
    std::abort();
  }
  std::printf("both implementations agree on %lld pages (acc=%08x)\n",
              static_cast<long long>(pages), dispatched_acc);

  const DiskTimes unchecked = BenchDiskPath(false, pages);
  const DiskTimes checked = BenchDiskPath(true, pages);
  const double ratio = checked.read_s / unchecked.read_s;
  Report("disk write unchecked", "disk_write_unchecked", unchecked.write_s,
         pages);
  Report("disk write checksummed", "disk_write_checksummed", checked.write_s,
         pages);
  Report("disk read unchecked", "disk_read_unchecked", unchecked.read_s,
         pages);
  Report("disk read checksummed", "disk_read_checksummed", checked.read_s,
         pages, {{"vs_unchecked_read", ratio}});
  std::printf("checksummed read / unchecked read: %.2fx (target <= 1.5x)\n",
              ratio);
  std::printf("modeled transfer time per page at 1150 MB/s: %.3f us\n",
              kPageSize / 1150.0);
}

}  // namespace
}  // namespace sqlarray::bench

int main(int argc, char** argv) {
  sqlarray::bench::ParseBenchArgs(argc, argv);
  sqlarray::bench::Run();
  sqlarray::bench::FlushJson();
  return 0;
}
