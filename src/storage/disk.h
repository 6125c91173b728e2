// Simulated disk with a calibrated I/O cost model.
//
// Substitute for the paper's testbed I/O subsystem (a RAID array sustaining
// ~1150 MB/s sequential reads, Sec. 6.1). Pages live in memory; every read
// and write is accounted in IoStats, including a virtual-time model that
// distinguishes sequential from random access so benches can report
// projected full-scale timings alongside real wall-clock measurements.
//
// Robustness: every written page is stamped with a CRC32C (the PAGE_VERIFY
// CHECKSUM stand-in) verified on read, and a seeded FaultInjector can
// subject the media to transient read errors, bit flips, torn writes, and
// dropped writes — see storage/fault.h. Transient faults are healed by the
// buffer pool's bounded retry; persistent corruption surfaces as
// kCorruption naming the offending page.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "storage/fault.h"
#include "storage/page.h"

namespace sqlarray::storage {

/// Disk performance model. Defaults are calibrated to the paper's hardware.
struct DiskConfig {
  /// Sustained sequential throughput (Sec. 6.1: "above 1 GB/s", measured
  /// 1150 MB/s in Table 1).
  double sequential_mb_per_s = 1150.0;
  /// Non-contiguous reads pay a DISTANCE-DEPENDENT seek:
  ///   min_seek_us + seek_us_per_mb * |gap in MB|, capped at
  ///   random_latency_us (a full-stroke seek + rotational settle).
  /// Short hops (neighbouring extents, as a space-filling-curve layout
  /// produces) are much cheaper than cross-table jumps.
  double random_latency_us = 400.0;
  double min_seek_us = 50.0;
  double seek_us_per_mb = 10.0;
  /// Write throughput (writes are not on the measured paths but are modeled
  /// for completeness).
  double write_mb_per_s = 800.0;
  /// Stamp every written page with a CRC32C and verify it on read
  /// (PAGE_VERIFY CHECKSUM). Turning this off models PAGE_VERIFY NONE:
  /// corruption flows through undetected.
  bool verify_checksums = true;
  /// Virtual time charged per read retry attempt by the buffer pool
  /// (doubled each attempt — the controller's retry/backoff schedule).
  double retry_backoff_us = 100.0;
};

/// I/O accounting, including virtual (modeled) elapsed time and the
/// robustness counters the corruption-recovery tests assert on.
struct IoStats {
  int64_t pages_read = 0;
  int64_t pages_written = 0;
  int64_t sequential_reads = 0;
  int64_t random_reads = 0;
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  double virtual_read_seconds = 0;
  double virtual_write_seconds = 0;
  /// Reads that failed verification or errored (before any retry).
  int64_t read_errors = 0;
  /// Retry attempts issued by the buffer pool.
  int64_t read_retries = 0;
  /// Reads that failed at least once but succeeded on a retry.
  int64_t transient_faults_healed = 0;
  /// Reads rejected with a checksum mismatch.
  int64_t checksum_failures = 0;

  IoStats operator-(const IoStats& o) const {
    return {pages_read - o.pages_read,
            pages_written - o.pages_written,
            sequential_reads - o.sequential_reads,
            random_reads - o.random_reads,
            bytes_read - o.bytes_read,
            bytes_written - o.bytes_written,
            virtual_read_seconds - o.virtual_read_seconds,
            virtual_write_seconds - o.virtual_write_seconds,
            read_errors - o.read_errors,
            read_retries - o.read_retries,
            transient_faults_healed - o.transient_faults_healed,
            checksum_failures - o.checksum_failures};
  }
};

/// An in-memory page store that models disk timing. Thread-safe: parallel
/// scan workers may read concurrently; sequential-vs-random classification
/// is tracked per thread (each worker models one read-ahead stream, as a
/// real engine's parallel scan does).
class SimulatedDisk {
 public:
  explicit SimulatedDisk(DiskConfig config = {})
      : config_(config), checksums_enabled_(config.verify_checksums) {}

  /// Allocates a zeroed page and returns its id (never kNullPage).
  PageId AllocatePage();

  /// Grows the allocation so that page `id` exists (no-op when it already
  /// does). Recovery uses this when replaying a log that references pages
  /// beyond the current allocation frontier.
  void EnsureAllocated(PageId id);

  /// Number of allocated pages (excluding the reserved null page).
  int64_t page_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<int64_t>(pages_.size());
  }
  int64_t allocated_bytes() const { return page_count() * kPageSize; }

  /// Reads a page image, charging the I/O model. Fails with kInternal for
  /// transient faults (worth retrying) and kCorruption for checksum
  /// mismatches; both name the page id.
  Status ReadPage(PageId id, Page* out);

  /// Writes a page image, charging the I/O model.
  Status WritePage(PageId id, const Page& page);

  /// Snapshot of the accumulated I/O statistics, taken under the disk lock
  /// so readers never observe a torn update from a concurrent scan worker.
  IoStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }
  void ResetStats() {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_ = IoStats{};
    last_read_by_thread_.clear();
  }
  const DiskConfig& config() const { return config_; }

  /// Installs a seeded fault injector (replacing any previous one); pass a
  /// default-constructed config with all rates zero to disarm. Returns the
  /// injector for targeted arming and stats access; owned by the disk.
  FaultInjector* EnableFaults(FaultConfig config);
  /// Removes the fault injector.
  void DisableFaults();
  /// The active injector, or null.
  FaultInjector* fault_injector() { return injector_.get(); }

  /// Flips one byte of a stored page WITHOUT refreshing its checksum —
  /// simulates media corruption that page verification must catch.
  Status CorruptPageByte(PageId id, int64_t offset);

  /// Page checksum verification (on by default, like PAGE_VERIFY CHECKSUM).
  /// A page written while verification is off carries no checksum until it
  /// is rewritten with verification on, as after SQL Server switches from
  /// PAGE_VERIFY NONE to CHECKSUM.
  void set_checksums_enabled(bool enabled) { checksums_enabled_ = enabled; }
  bool checksums_enabled() const { return checksums_enabled_; }

  /// Accounting hooks for the buffer pool's bounded retry: each retry
  /// charges backoff virtual time (doubling per attempt) and bumps
  /// read_retries; a read that eventually succeeds after failures counts as
  /// a healed transient fault.
  void NoteReadRetry(int attempt);
  void NoteFaultHealed();

 private:
  DiskConfig config_;
  std::vector<std::unique_ptr<Page>> pages_;
  IoStats stats_;
  /// Per-thread read-ahead stream position for seq/random classification.
  std::unordered_map<std::thread::id, PageId> last_read_by_thread_;
  /// CRC32C of each written page (PAGE_VERIFY CHECKSUM stand-in).
  std::unordered_map<PageId, uint32_t> checksums_;
  bool checksums_enabled_ = true;
  std::unique_ptr<FaultInjector> injector_;
  mutable std::mutex mutex_;

  /// Engine-wide registry mirrors of the monotone IoStats fields, resolved
  /// once at construction and bumped beside stats_ under the disk lock.
  obs::Counter* reg_pages_read_ =
      obs::MetricsRegistry::Global().GetCounter("storage.disk.pages_read");
  obs::Counter* reg_pages_written_ =
      obs::MetricsRegistry::Global().GetCounter("storage.disk.pages_written");
  obs::Counter* reg_bytes_read_ =
      obs::MetricsRegistry::Global().GetCounter("storage.disk.bytes_read");
  obs::Counter* reg_bytes_written_ =
      obs::MetricsRegistry::Global().GetCounter("storage.disk.bytes_written");
  obs::Counter* reg_read_errors_ =
      obs::MetricsRegistry::Global().GetCounter("storage.disk.read_errors");
  obs::Counter* reg_checksum_failures_ = obs::MetricsRegistry::Global()
                                             .GetCounter(
                                                 "storage.disk.checksum_failures");
  obs::Counter* reg_read_retries_ =
      obs::MetricsRegistry::Global().GetCounter("storage.disk.read_retries");
};

}  // namespace sqlarray::storage
