// Calendar date arithmetic and the Teradata integer date encoding.
//
// Dates are stored as int32 days since the Unix epoch (1970-01-01).
// Teradata's legacy encoding — the one Example 2 of the paper exploits with
// `SALES_DATE > 1140101` — is (year - 1900) * 10000 + month * 100 + day;
// 1140101 therefore means 2014-01-01.

#pragma once

#include <cstdint>
#include <string>

#include "common/result.h"

namespace hyperq {

/// \brief Days since 1970-01-01 for a civil date (proleptic Gregorian).
int32_t DaysFromCivil(int year, int month, int day);

/// \brief Inverse of DaysFromCivil.
void CivilFromDays(int32_t days, int* year, int* month, int* day);

/// \brief True if (year, month, day) is a real calendar date.
bool IsValidCivil(int year, int month, int day);

/// \brief Teradata integer encoding of a date value. Inline: the wire
/// encoders call it once per DATE field. Days within about 33,000 years
/// before and 2.9 million years after the epoch take Neri and Schneider's
/// civil-from-days on 32-bit unsigned arithmetic (shifted by 82 whole
/// 400-year eras so every such day is non-negative; every division is by
/// a constant or a power of two); days outside that go through
/// CivilFromDays.
inline int64_t DateToTeradataInt(int32_t days) {
  constexpr uint32_t kEras = 82;
  constexpr int64_t kShift = 719468 + 146097 * int64_t{kEras};
  if (days < -kShift || days >= (int64_t{1} << 30) - kShift) {
    int y, m, d;
    CivilFromDays(days, &y, &m, &d);
    return static_cast<int64_t>(y - 1900) * 10000 + m * 100 + d;
  }
  const uint32_t n = static_cast<uint32_t>(days + kShift);  // < 2^30
  const uint32_t n1 = 4 * n + 3;
  const uint32_t century = n1 / 146097;
  const uint32_t n2 = n1 % 146097 / 4 * 4 + 3;
  const uint64_t p2 = uint64_t{2939745} * n2;
  const uint32_t year_of_century = static_cast<uint32_t>(p2 >> 32);
  const uint32_t day_of_year = static_cast<uint32_t>(p2) / 2939745 / 4;
  const uint32_t n3 = 2141 * day_of_year + 197913;  // March-based
  const uint32_t day = (n3 & 0xFFFF) / 2141 + 1;
  const uint32_t jan_feb = day_of_year >= 306 ? 1 : 0;
  const uint32_t month = (n3 >> 16) - 12 * jan_feb;
  const int64_t year = int64_t{100} * century + year_of_century -
                       400 * int64_t{kEras} + jan_feb;
  return (year - 1900) * 10000 + month * 100 + day;
}

/// \brief Decodes a Teradata date integer; fails on non-dates.
Result<int32_t> TeradataIntToDate(int64_t encoded);

/// \brief Parses 'YYYY-MM-DD' (also accepts 'YYYY/MM/DD').
Result<int32_t> ParseDate(const std::string& text);

/// \brief Formats as 'YYYY-MM-DD'.
std::string FormatDate(int32_t days);

/// \brief Parses 'YYYY-MM-DD[ HH:MM:SS[.ffffff]]' to micros since epoch.
Result<int64_t> ParseTimestamp(const std::string& text);

/// \brief Formats micros since epoch as 'YYYY-MM-DD HH:MM:SS.ffffff'
/// (fractional part omitted when zero).
std::string FormatTimestamp(int64_t micros);

/// \brief Parses 'HH:MM:SS[.ffffff]' to micros since midnight.
Result<int64_t> ParseTime(const std::string& text);

/// \brief Formats micros since midnight as 'HH:MM:SS[.ffffff]'.
std::string FormatTime(int64_t micros);

/// EXTRACT field helpers.
int ExtractYear(int32_t days);
int ExtractMonth(int32_t days);
int ExtractDay(int32_t days);

/// \brief Adds `months` calendar months, clamping the day-of-month (ANSI
/// ADD_MONTHS semantics).
int32_t AddMonths(int32_t days, int months);

}  // namespace hyperq
