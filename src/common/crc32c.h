// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78).
//
// The checksum production storage engines put on every page (SQL Server's
// PAGE_VERIFY CHECKSUM, LevelDB/RocksDB block trailers, ext4 metadata). The
// storage layer stamps each written page with a CRC32C and verifies it on
// read so torn writes and media bit rot surface as kCorruption instead of
// silently wrong query results; WAL record frames, log pages and wire frames
// use the same code.
//
// Two implementations compute identical values. On x86-64 CPUs with SSE4.2,
// Crc32c() runs the `crc32` instruction over three interleaved streams and
// folds them with a shift table: 19-22 GB/s against 1.4-1.6 GB/s for
// slicing-by-8 on a 4-vCPU Xeon (RelWithDebInfo), which takes a checksummed
// 8 KB SimulatedDisk read from 6.2-6.4 us to 1.3-1.4 us, next to ~1 us
// unchecked (bench/bench_checksum measures both). Everywhere else — other
// ISAs, CPUs without SSE4.2, and builds with SQLARRAY_FORCE_SCALAR_KERNELS —
// slicing-by-8 is the only path. It stays exported as Crc32cPortable(), the
// reference the hardware kernel is tested against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace sqlarray {

/// CRC32C of `data`, starting from `seed` (pass a previous return value to
/// checksum a byte sequence incrementally). The seed/result are plain CRC
/// values — the pre/post inversion is handled internally.
uint32_t Crc32c(std::span<const uint8_t> data, uint32_t seed = 0);

/// Convenience overload for raw buffers.
inline uint32_t Crc32c(const void* data, size_t size, uint32_t seed = 0) {
  return Crc32c(
      std::span<const uint8_t>(static_cast<const uint8_t*>(data), size), seed);
}

/// Slicing-by-8 CRC32C: the fallback Crc32c() uses when the hardware kernel
/// is unavailable, callable directly as the differential reference.
uint32_t Crc32cPortable(std::span<const uint8_t> data, uint32_t seed = 0);

inline uint32_t Crc32cPortable(const void* data, size_t size,
                               uint32_t seed = 0) {
  return Crc32cPortable(
      std::span<const uint8_t>(static_cast<const uint8_t*>(data), size), seed);
}

/// Name of the implementation Crc32c() runs on this CPU and build:
/// "sse4.2" or "slicing-by-8".
const char* Crc32cImplementation();

}  // namespace sqlarray
