// DateTime scalar helpers. The array library stores datetime elements as
// int64 microseconds since the Unix epoch (Sec. 3.4 lists datetime among
// the supported base types); these UDFs convert to and from calendar form
// so DateTimeArray columns are usable from T-SQL.
#include <array>
#include <cinttypes>
#include <cstdio>

#include "udfs/helpers.h"
#include "udfs/register.h"

namespace sqlarray::udfs {

namespace {

/// Days from civil date (proleptic Gregorian), Howard Hinnant's algorithm.
int64_t DaysFromCivil(int64_t y, int64_t m, int64_t d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const int64_t yoe = y - era * 400;
  const int64_t doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const int64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + doe - 719468;
}

/// Inverse of DaysFromCivil.
void CivilFromDays(int64_t z, int64_t* y, int64_t* m, int64_t* d) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const int64_t doe = z - era * 146097;
  const int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t yr = yoe + era * 400;
  const int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const int64_t mp = (5 * doy + 2) / 153;
  *d = doy - (153 * mp + 2) / 5 + 1;
  *m = mp + (mp < 10 ? 3 : -9);
  *y = yr + (*m <= 2);
}

constexpr int64_t kMicrosPerSecond = 1000000;
constexpr int64_t kMicrosPerDay = 86400 * kMicrosPerSecond;

/// Years past this bound overflow DaysFromCivil's era arithmetic.
constexpr int64_t kMaxAbsYear = INT64_MAX / 366;

Result<int64_t> MicrosFromParts(int64_t y, int64_t mo, int64_t d, int64_t h,
                                int64_t mi, int64_t s) {
  if (mo < 1 || mo > 12 || d < 1 || d > 31 || h < 0 || h > 23 || mi < 0 ||
      mi > 59 || s < 0 || s > 59) {
    return Status::InvalidArgument("calendar field out of range");
  }
  int64_t micros = 0;
  if (y < -kMaxAbsYear || y > kMaxAbsYear ||
      __builtin_mul_overflow(DaysFromCivil(y, mo, d), kMicrosPerDay,
                             &micros) ||
      __builtin_add_overflow(
          micros, ((h * 60 + mi) * 60 + s) * kMicrosPerSecond, &micros)) {
    return Status::OutOfRange("datetime out of BIGINT microsecond range");
  }
  return micros;
}

/// Calendar fields of `micros`: year, month, day, hour, minute, second.
std::array<int64_t, 6> CivilFields(int64_t micros) {
  // Floor division without the overflow of (micros - kMicrosPerDay + 1).
  int64_t days = micros / kMicrosPerDay;
  int64_t rem = micros % kMicrosPerDay;
  if (rem < 0) {
    rem += kMicrosPerDay;
    --days;
  }
  int64_t y, mo, d;
  CivilFromDays(days, &y, &mo, &d);
  const int64_t secs = rem / kMicrosPerSecond;
  return {y, mo, d, secs / 3600, (secs / 60) % 60, secs % 60};
}

}  // namespace

Status RegisterDateTimeUdfs(engine::FunctionRegistry* registry) {
  Definer def(registry, Schema{"DateTime"});
  constexpr double kWork = 300;
  // DateTime.FromParts(y, m, d, h, mi, s) -> BIGINT microseconds.
  def("FromParts", kWork, [](int64_t y, int64_t mo, int64_t d, int64_t h,
                             int64_t mi, int64_t s) {
    return MicrosFromParts(y, mo, d, h, mi, s);
  });

  // DateTime.FromString('YYYY-MM-DD[ HH:MM:SS]').
  def("FromString", kWork, [](std::string text) -> Result<int64_t> {
    int64_t y = 0, mo = 0, d = 0, h = 0, mi = 0, s = 0;
    int fields = std::sscanf(text.c_str(),
                             "%" SCNd64 "-%" SCNd64 "-%" SCNd64 " %" SCNd64
                             ":%" SCNd64 ":%" SCNd64,
                             &y, &mo, &d, &h, &mi, &s);
    if (fields != 3 && fields != 6) {
      return Status::InvalidArgument(
          "datetime must be 'YYYY-MM-DD' or 'YYYY-MM-DD HH:MM:SS'");
    }
    return MicrosFromParts(y, mo, d, h, mi, s);
  });

  // DateTime.ToString(micros) -> 'YYYY-MM-DD HH:MM:SS'.
  def("ToString", kWork, [](int64_t micros) -> Result<std::string> {
    const std::array<int64_t, 6> f = CivilFields(micros);
    char buf[32];
    std::snprintf(buf, sizeof(buf),
                  "%04" PRId64 "-%02" PRId64 "-%02" PRId64 " %02" PRId64
                  ":%02" PRId64 ":%02" PRId64,
                  f[0], f[1], f[2], f[3], f[4], f[5]);
    return std::string(buf);
  });

  // Calendar field extractors.
  const char* kFields[] = {"Year", "Month", "Day", "Hour", "Minute", "Second"};
  for (int index = 0; index < 6; ++index) {
    def(kFields[index], kWork, [index](int64_t micros) -> Result<int64_t> {
      return CivilFields(micros)[index];
    });
  }

  // DateTime.AddSeconds(micros, s): interval arithmetic.
  def("AddSeconds", kWork, [](int64_t micros, double s) -> Result<int64_t> {
    SQLARRAY_ASSIGN_OR_RETURN(
        int64_t delta,
        CheckedF64ToI64(s * static_cast<double>(kMicrosPerSecond)));
    if (__builtin_add_overflow(micros, delta, &micros)) {
      return Status::OutOfRange("datetime out of BIGINT microsecond range");
    }
    return micros;
  });
  return def.status();
}

}  // namespace sqlarray::udfs
