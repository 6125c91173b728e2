#include "common/crc32c.h"

#include <array>
#include <cstring>

// The SSE4.2 kernel is compiled whenever the target is x86-64 (a function-
// level target attribute, so the baseline ISA build still carries it).
#if defined(__x86_64__)
#define SQLARRAY_HAVE_SSE42_CRC 1
#include <nmmintrin.h>
#else
#define SQLARRAY_HAVE_SSE42_CRC 0
#endif

namespace sqlarray {

namespace {

/// Bytes per hardware stream. Three stripes plus one 8-byte word cover an
/// 8 KB page (3 x 2,728 + 8 = 8,192); must be a multiple of 8.
constexpr size_t kStripe = 2728;
static_assert(kStripe % 8 == 0);

/// Lookup tables, generated once at first use.
struct Crc32cTables {
  /// 8 slicing tables. Table 0 is the classic byte-at-a-time table; table k
  /// folds a byte k positions ahead.
  std::array<std::array<uint32_t, 256>, 8> t;
  /// shift[k][b] is the CRC register b << 8k advanced over kStripe zero
  /// bytes. XORing the four lookups for a register's bytes multiplies it by
  /// x^(8 * kStripe) mod P, which moves a stream's partial CRC past the
  /// stripe that follows it.
  std::array<std::array<uint32_t, 256>, 4> shift;

  Crc32cTables() {
    constexpr uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = t[0][i];
      for (int k = 1; k < 8; ++k) {
        crc = (crc >> 8) ^ t[0][crc & 0xFF];
        t[k][i] = crc;
      }
    }
    // The shift is linear, so advance the 32 single-bit registers and
    // compose every table entry from them.
    std::array<uint32_t, 32> bit_shift;
    for (int j = 0; j < 32; ++j) {
      uint32_t crc = 1u << j;
      for (size_t n = 0; n < kStripe; ++n) crc = (crc >> 8) ^ t[0][crc & 0xFF];
      bit_shift[j] = crc;
    }
    for (int k = 0; k < 4; ++k) {
      for (uint32_t b = 0; b < 256; ++b) {
        uint32_t crc = 0;
        for (int bit = 0; bit < 8; ++bit) {
          if ((b >> bit) & 1) crc ^= bit_shift[8 * k + bit];
        }
        shift[k][b] = crc;
      }
    }
  }
};

const Crc32cTables& Tables() {
  static const Crc32cTables tables;
  return tables;
}

#if SQLARRAY_HAVE_SSE42_CRC

inline uint64_t Load64(const uint8_t* p) {
  uint64_t word;
  std::memcpy(&word, p, 8);
  return word;
}

/// Advances the raw (pre-inverted) register `crc` over n bytes. Inputs of at
/// least three stripes run three independent `crc32` chains, which hides the
/// instruction's 3-cycle latency; the tail runs one chain.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const uint8_t* p,
                                                       size_t n,
                                                       uint32_t crc) {
  if (n >= 3 * kStripe) {
    const auto& shift = Tables().shift;
    auto advance = [&shift](uint32_t v) {
      return shift[0][v & 0xFF] ^ shift[1][(v >> 8) & 0xFF] ^
             shift[2][(v >> 16) & 0xFF] ^ shift[3][v >> 24];
    };
    do {
      uint64_t a = crc, b = 0, c = 0;
      for (size_t i = 0; i < kStripe; i += 8) {
        a = _mm_crc32_u64(a, Load64(p + i));
        b = _mm_crc32_u64(b, Load64(p + kStripe + i));
        c = _mm_crc32_u64(c, Load64(p + 2 * kStripe + i));
      }
      // Streams b and c started from zero: by linearity the register over
      // the whole block is a shifted past b, XOR b, shifted past c, XOR c.
      crc = advance(advance(static_cast<uint32_t>(a)) ^
                    static_cast<uint32_t>(b)) ^
            static_cast<uint32_t>(c);
      p += 3 * kStripe;
      n -= 3 * kStripe;
    } while (n >= 3 * kStripe);
  }
  uint64_t wide = crc;
  for (; n >= 8; p += 8, n -= 8) wide = _mm_crc32_u64(wide, Load64(p));
  crc = static_cast<uint32_t>(wide);
  for (; n > 0; ++p, --n) crc = _mm_crc32_u8(crc, *p);
  return crc;
}

bool HaveSse42() {
  static const bool ok = __builtin_cpu_supports("sse4.2") != 0;
  return ok;
}

#endif  // SQLARRAY_HAVE_SSE42_CRC

}  // namespace

uint32_t Crc32cPortable(std::span<const uint8_t> data, uint32_t seed) {
  const auto& t = Tables().t;
  uint32_t crc = ~seed;
  const uint8_t* p = data.data();
  size_t n = data.size();

  // Byte-align is unnecessary: we load via memcpy. Process 8 bytes a round.
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    // Little-endian fold: low 4 bytes mix with the running crc.
    crc ^= static_cast<uint32_t>(word);
    uint32_t high = static_cast<uint32_t>(word >> 32);
    crc = t[7][crc & 0xFF] ^ t[6][(crc >> 8) & 0xFF] ^
          t[5][(crc >> 16) & 0xFF] ^ t[4][crc >> 24] ^
          t[3][high & 0xFF] ^ t[2][(high >> 8) & 0xFF] ^
          t[1][(high >> 16) & 0xFF] ^ t[0][high >> 24];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFF];
    ++p;
    --n;
  }
  return ~crc;
}

uint32_t Crc32c(std::span<const uint8_t> data, uint32_t seed) {
#if SQLARRAY_HAVE_SSE42_CRC
  if (HaveSse42()) return ~Crc32cSse42(data.data(), data.size(), ~seed);
#endif
  return Crc32cPortable(data, seed);
}

const char* Crc32cImplementation() {
#if SQLARRAY_HAVE_SSE42_CRC
  if (HaveSse42()) return "sse4.2";
#endif
  return "slicing-by-8";
}

}  // namespace sqlarray
