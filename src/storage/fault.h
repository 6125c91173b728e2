// Deterministic storage fault injection.
//
// Production array stores treat torn writes, bit rot, and transient I/O
// errors as facts of life; this hook lets tests and benches subject the
// SimulatedDisk to the same weather, reproducibly. A FaultInjector is seeded
// and drawn from under the disk's mutex, so a given (seed, workload) pair
// injects exactly the same faults on every run.
//
// Fault classes (mirroring the failure modes a page store must survive):
//   * transient read errors — the read fails once (controller hiccup, path
//     timeout); an immediate retry sees good data. Healed by the buffer
//     pool's bounded retry.
//   * bit flips — one stored bit is inverted WITHOUT refreshing the page
//     checksum (media rot). Permanent: every later read of the page fails
//     verification, so retries exhaust and kCorruption escalates.
//   * torn writes — only a prefix of a write reaches the media while the
//     checksum of the full intended image is recorded (power cut mid-write).
//     Permanent, detected on next read.
//   * dropped writes — the write is acknowledged but never hits the media,
//     while the checksum of the intended image is recorded (lost write with
//     a lying controller). Detected on next read as a checksum mismatch.
//
// Probabilistic faults are drawn per read/write; targeted faults are armed
// per page id, or as a one-shot corruption N reads ahead, and fire
// deterministically.
#pragma once

#include <cstdint>
#include <random>
#include <unordered_map>

#include "storage/page.h"

namespace sqlarray::storage {

/// Probabilities of each fault class, drawn independently per I/O.
struct FaultConfig {
  uint64_t seed = 0x5EED;
  /// P(a read fails once with a transient error).
  double transient_read_error_rate = 0.0;
  /// P(a read first flips one stored bit of the page, permanently).
  double bit_flip_rate = 0.0;
  /// P(a write persists only a random prefix of the page).
  double torn_write_rate = 0.0;
  /// P(a write is acknowledged but dropped entirely).
  double dropped_write_rate = 0.0;
};

/// Counts of injected faults (distinct from IoStats, which counts what the
/// upper layers observed — e.g. retries and healed reads).
struct FaultStats {
  int64_t transient_read_errors = 0;
  int64_t bit_flips = 0;
  int64_t torn_writes = 0;
  int64_t dropped_writes = 0;

  int64_t total() const {
    return transient_read_errors + bit_flips + torn_writes + dropped_writes;
  }
};

/// Seeded fault decision engine. Not thread-safe by itself; the SimulatedDisk
/// calls it only under its own mutex.
class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config = {})
      : config_(config), rng_(config.seed) {}

  const FaultConfig& config() const { return config_; }
  const FaultStats& stats() const { return stats_; }

  /// Arms `count` deterministic transient read errors against one page: the
  /// next `count` reads of `id` fail, later ones succeed.
  void ArmTransientReadErrors(PageId id, int count) {
    targeted_transient_[id] = count;
  }

  /// Arms a one-shot read fault: after `reads` further reads of any page,
  /// the next read fails with kCorruption. A negative count disarms.
  void ArmReadFaultAfter(int64_t reads) { read_fault_countdown_ = reads; }

  /// Counts this read against the armed one-shot fault; true (and disarmed)
  /// when it is the read that fails. Checked before every other read fault.
  bool ShouldFailArmedRead();

  /// Draws whether this read fails transiently (targeted faults fire first).
  bool ShouldFailRead(PageId id);

  /// Draws whether to flip a stored bit before serving this read. On true,
  /// *byte_offset / *bit name the position to flip.
  bool ShouldFlipBit(int64_t* byte_offset, int* bit);

  /// Draws whether this write tears. On true, *keep_bytes in [1, kPageSize)
  /// is the prefix that reaches the media.
  bool ShouldTearWrite(int64_t* keep_bytes);

  /// Draws whether this write is dropped entirely.
  bool ShouldDropWrite();

 private:
  bool Draw(double p) {
    return p > 0.0 && std::uniform_real_distribution<double>(0.0, 1.0)(rng_) < p;
  }

  FaultConfig config_;
  FaultStats stats_;
  std::mt19937_64 rng_;
  /// Page id -> remaining targeted transient read errors.
  std::unordered_map<PageId, int> targeted_transient_;
  /// Reads left before the armed one-shot fault; -1 when disarmed.
  int64_t read_fault_countdown_ = -1;
};

}  // namespace sqlarray::storage
