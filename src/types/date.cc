#include "types/date.h"

#include <cstdio>

namespace hyperq {

// Howard Hinnant's days_from_civil / civil_from_days algorithms.
int32_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);  // [0, 399]
  const unsigned doy =
      (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;         // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
  return era * 146097 + static_cast<int>(doe) - 719468;
}

void CivilFromDays(int32_t z, int* year, int* month, int* day) {
  z += 719468;
  const int era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int y = static_cast<int>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;
  const unsigned m = mp + (mp < 10 ? 3 : -9);
  *year = y + (m <= 2);
  *month = static_cast<int>(m);
  *day = static_cast<int>(d);
}

bool IsValidCivil(int year, int month, int day) {
  if (month < 1 || month > 12 || day < 1) return false;
  static const int kDays[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  int max_day = kDays[month - 1];
  bool leap = (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
  if (month == 2 && leap) max_day = 29;
  return day <= max_day;
}

Result<int32_t> TeradataIntToDate(int64_t encoded) {
  int64_t ymd = encoded;
  int d = static_cast<int>(ymd % 100);
  int m = static_cast<int>((ymd / 100) % 100);
  int y = static_cast<int>(ymd / 10000) + 1900;
  if (!IsValidCivil(y, m, d)) {
    return Status::InvalidArgument("integer ", encoded,
                                   " is not a valid Teradata date");
  }
  return DaysFromCivil(y, m, d);
}

Result<int32_t> ParseDate(const std::string& text) {
  int y, m, d;
  if (std::sscanf(text.c_str(), "%d-%d-%d", &y, &m, &d) != 3 &&
      std::sscanf(text.c_str(), "%d/%d/%d", &y, &m, &d) != 3) {
    return Status::InvalidArgument("cannot parse date '", text, "'");
  }
  if (!IsValidCivil(y, m, d)) {
    return Status::InvalidArgument("invalid date '", text, "'");
  }
  return DaysFromCivil(y, m, d);
}

std::string FormatDate(int32_t days) {
  int y, m, d;
  CivilFromDays(days, &y, &m, &d);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
  return buf;
}

Result<int64_t> ParseTimestamp(const std::string& text) {
  int y, m, d, hh = 0, mm = 0;
  double ss = 0.0;
  int n = std::sscanf(text.c_str(), "%d-%d-%d %d:%d:%lf", &y, &m, &d, &hh,
                      &mm, &ss);
  if (n != 3 && n != 6) {
    return Status::InvalidArgument("cannot parse timestamp '", text, "'");
  }
  if (!IsValidCivil(y, m, d) || hh < 0 || hh > 23 || mm < 0 || mm > 59 ||
      ss < 0 || ss >= 60) {
    return Status::InvalidArgument("invalid timestamp '", text, "'");
  }
  int64_t days = DaysFromCivil(y, m, d);
  int64_t micros = days * 86400000000LL + hh * 3600000000LL + mm * 60000000LL +
                   static_cast<int64_t>(ss * 1e6 + 0.5);
  return micros;
}

std::string FormatTimestamp(int64_t micros) {
  int64_t days = micros / 86400000000LL;
  int64_t rem = micros % 86400000000LL;
  if (rem < 0) {
    rem += 86400000000LL;
    days -= 1;
  }
  std::string out = FormatDate(static_cast<int32_t>(days));
  out += ' ';
  out += FormatTime(rem);
  return out;
}

Result<int64_t> ParseTime(const std::string& text) {
  int hh, mm;
  double ss = 0.0;
  if (std::sscanf(text.c_str(), "%d:%d:%lf", &hh, &mm, &ss) != 3) {
    return Status::InvalidArgument("cannot parse time '", text, "'");
  }
  if (hh < 0 || hh > 23 || mm < 0 || mm > 59 || ss < 0 || ss >= 60) {
    return Status::InvalidArgument("invalid time '", text, "'");
  }
  return hh * 3600000000LL + mm * 60000000LL +
         static_cast<int64_t>(ss * 1e6 + 0.5);
}

std::string FormatTime(int64_t micros) {
  int hh = static_cast<int>(micros / 3600000000LL);
  int mm = static_cast<int>((micros / 60000000LL) % 60);
  int ss = static_cast<int>((micros / 1000000LL) % 60);
  int frac = static_cast<int>(micros % 1000000LL);
  char buf[32];
  if (frac == 0) {
    std::snprintf(buf, sizeof(buf), "%02d:%02d:%02d", hh, mm, ss);
  } else {
    std::snprintf(buf, sizeof(buf), "%02d:%02d:%02d.%06d", hh, mm, ss, frac);
  }
  return buf;
}

int ExtractYear(int32_t days) {
  int y, m, d;
  CivilFromDays(days, &y, &m, &d);
  return y;
}
int ExtractMonth(int32_t days) {
  int y, m, d;
  CivilFromDays(days, &y, &m, &d);
  return m;
}
int ExtractDay(int32_t days) {
  int y, m, d;
  CivilFromDays(days, &y, &m, &d);
  return d;
}

int32_t AddMonths(int32_t days, int months) {
  int y, m, d;
  CivilFromDays(days, &y, &m, &d);
  int total = y * 12 + (m - 1) + months;
  int ny = total / 12;
  int nm = total % 12;
  if (nm < 0) {
    nm += 12;
    ny -= 1;
  }
  nm += 1;
  while (d > 28 && !IsValidCivil(ny, nm, d)) --d;
  return DaysFromCivil(ny, nm, d);
}

}  // namespace hyperq
