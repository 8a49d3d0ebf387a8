// Unit + property tests for the type system: Datum, Decimal, dates, and
// the Teradata integer date encoding.

#include <gtest/gtest.h>

#include <climits>

#include "types/datum.h"
#include "types/date.h"
#include "types/decimal.h"
#include "types/type.h"

namespace hyperq {
namespace {

TEST(DecimalTest, ParseAndToString) {
  auto d = Decimal::Parse("-1.25");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->value, -125);
  EXPECT_EQ(d->scale, 2);
  EXPECT_EQ(d->ToString(), "-1.25");
  EXPECT_EQ(Decimal::Parse("0.05")->ToString(), "0.05");
  EXPECT_EQ(Decimal::Parse("7")->ToString(), "7");
  EXPECT_FALSE(Decimal::Parse("1.2.3").ok());
  EXPECT_FALSE(Decimal::Parse("abc").ok());
}

TEST(DecimalTest, ArithmeticAlignsScales) {
  Decimal a{150, 2};   // 1.50
  Decimal b{25, 1};    // 2.5
  EXPECT_EQ(Decimal::Add(a, b).ToString(), "4.00");
  EXPECT_EQ(Decimal::Sub(b, a).ToString(), "1.00");
  EXPECT_EQ(Decimal::Mul(a, b).ToString(), "3.750");
}

TEST(DecimalTest, CompareAcrossScales) {
  EXPECT_EQ(Decimal::Compare({150, 2}, {15, 1}), 0);
  EXPECT_LT(Decimal::Compare({149, 2}, {15, 1}), 0);
  EXPECT_GT(Decimal::Compare({-1, 0}, {-200, 2}), 0);
}

TEST(DecimalTest, MulClampsScale) {
  Decimal tiny{1, 8};
  Decimal d = Decimal::Mul(tiny, tiny);
  EXPECT_LE(d.scale, Decimal::kMaxScale);
}

TEST(DateTest, CivilRoundTripProperty) {
  for (int32_t days : {-1000, 0, 1, 365, 10000, 19000, 40000}) {
    int y, m, d;
    CivilFromDays(days, &y, &m, &d);
    EXPECT_EQ(DaysFromCivil(y, m, d), days);
  }
}

TEST(DateTest, TeradataIntEncoding) {
  // Paper: 1140101 encodes 2014-01-01.
  int32_t days = DaysFromCivil(2014, 1, 1);
  EXPECT_EQ(DateToTeradataInt(days), 1140101);
  auto back = TeradataIntToDate(1140101);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, days);
  EXPECT_FALSE(TeradataIntToDate(1141399).ok());  // month 13 invalid
  EXPECT_FALSE(TeradataIntToDate(1140230).ok());  // Feb 30 invalid
}

TEST(DateTest, LeapYears) {
  EXPECT_TRUE(IsValidCivil(2000, 2, 29));   // 400-divisible
  EXPECT_FALSE(IsValidCivil(1900, 2, 29));  // 100-divisible
  EXPECT_TRUE(IsValidCivil(2016, 2, 29));
  EXPECT_FALSE(IsValidCivil(2015, 2, 29));
}

TEST(DateTest, ParseAndFormat) {
  auto d = ParseDate("2014-06-15");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(FormatDate(*d), "2014-06-15");
  EXPECT_TRUE(ParseDate("2014/06/15").ok());
  EXPECT_FALSE(ParseDate("2014-13-01").ok());
  EXPECT_FALSE(ParseDate("nonsense").ok());
}

TEST(DateTest, TimestampRoundTrip) {
  auto ts = ParseTimestamp("2014-06-15 13:45:30.5");
  ASSERT_TRUE(ts.ok());
  EXPECT_EQ(FormatTimestamp(*ts), "2014-06-15 13:45:30.500000");
  auto date_only = ParseTimestamp("2014-06-15");
  ASSERT_TRUE(date_only.ok());
  EXPECT_EQ(FormatTimestamp(*date_only), "2014-06-15 00:00:00");
}

TEST(DateTest, AddMonthsClampsDay) {
  int32_t jan31 = DaysFromCivil(2014, 1, 31);
  EXPECT_EQ(FormatDate(AddMonths(jan31, 1)), "2014-02-28");
  EXPECT_EQ(FormatDate(AddMonths(jan31, -2)), "2013-11-30");
  EXPECT_EQ(FormatDate(AddMonths(DaysFromCivil(2014, 6, 15), 12)),
            "2015-06-15");
}

TEST(DatumTest, NullSemantics) {
  Datum n = Datum::Null();
  EXPECT_TRUE(n.is_null());
  EXPECT_TRUE(Datum::GroupEquals(n, Datum::Null()));
  EXPECT_FALSE(Datum::GroupEquals(n, Datum::Int(0)));
  EXPECT_FALSE(Datum::Compare(n, Datum::Int(1)).ok());
}

TEST(DatumTest, CrossNumericComparison) {
  EXPECT_EQ(*Datum::Compare(Datum::Int(2),
                            Datum::MakeDecimal(Decimal{200, 2})),
            0);
  EXPECT_LT(*Datum::Compare(Datum::MakeDecimal(Decimal{199, 2}),
                            Datum::Int(2)),
            0);
  EXPECT_GT(*Datum::Compare(Datum::MakeDouble(2.5), Datum::Int(2)), 0);
}

TEST(DatumTest, CharComparisonIgnoresTrailingBlanks) {
  EXPECT_EQ(*Datum::Compare(Datum::String("abc   "), Datum::String("abc")),
            0);
  EXPECT_TRUE(Datum::GroupEquals(Datum::String("abc "),
                                 Datum::String("abc")));
  EXPECT_EQ(Datum::String("abc ").Hash(), Datum::String("abc").Hash());
}

TEST(DatumTest, HashConsistentWithGroupEqualsAcrossKinds) {
  Datum a = Datum::Int(5);
  Datum b = Datum::MakeDecimal(Decimal{500, 2});
  ASSERT_TRUE(Datum::GroupEquals(a, b));
  EXPECT_EQ(a.Hash(), b.Hash());
  Datum c = Datum::MakeDouble(5.0);
  EXPECT_EQ(a.Hash(), c.Hash());
}

TEST(DatumTest, CastMatrix) {
  EXPECT_EQ(Datum::String("42").CastTo(SqlType::Int())->int_val(), 42);
  EXPECT_EQ(Datum::Int(3).CastTo(SqlType::Decimal(10, 2))
                ->decimal_val()
                .ToString(),
            "3.00");
  EXPECT_EQ(Datum::MakeDouble(2.345)
                .CastTo(SqlType::Decimal(10, 2))
                ->decimal_val()
                .ToString(),
            "2.35");  // rounded
  // CHAR pads, VARCHAR truncates at max length.
  EXPECT_EQ(Datum::String("ab").CastTo(SqlType::Char(4))->string_val(),
            "ab  ");
  EXPECT_EQ(Datum::String("abcdef")
                .CastTo(SqlType::Varchar(3))
                ->string_val(),
            "abc");
  // Teradata legacy: DATE <-> INT via the encoding.
  Datum d = Datum::Date(DaysFromCivil(2014, 1, 1));
  EXPECT_EQ(d.CastTo(SqlType::Int())->int_val(), 1140101);
  EXPECT_EQ(Datum::Int(1140101).CastTo(SqlType::Date())->date_val(),
            d.date_val());
  EXPECT_FALSE(Datum::String("zzz").CastTo(SqlType::Int()).ok());
}

TEST(DatumTest, DateTimestampComparison) {
  Datum d = Datum::Date(100);
  Datum ts_same = Datum::Timestamp(100LL * 86400000000LL);
  Datum ts_later = Datum::Timestamp(100LL * 86400000000LL + 1);
  EXPECT_EQ(*Datum::Compare(d, ts_same), 0);
  EXPECT_LT(*Datum::Compare(d, ts_later), 0);
}

TEST(DatumTest, ToStringStyles) {
  EXPECT_EQ(Datum::Null().ToString(), "NULL");
  EXPECT_EQ(Datum::Null().ToString(/*teradata_style=*/true), "?");
  EXPECT_EQ(Datum::Date(DaysFromCivil(2014, 6, 1)).ToString(), "2014-06-01");
  EXPECT_EQ(Datum::Period(0, 31).ToString(),
            "PERIOD(1970-01-01, 1970-02-01)");
}

TEST(TypeTest, CommonSuperTypePromotions) {
  EXPECT_EQ(CommonSuperType(SqlType::Int(), SqlType::BigInt()).kind,
            TypeKind::kBigInt);
  EXPECT_EQ(CommonSuperType(SqlType::Int(), SqlType::Double()).kind,
            TypeKind::kDouble);
  EXPECT_EQ(
      CommonSuperType(SqlType::Char(3), SqlType::Varchar(10)).kind,
      TypeKind::kVarchar);
  EXPECT_EQ(CommonSuperType(SqlType::Date(), SqlType::Timestamp()).kind,
            TypeKind::kTimestamp);
  EXPECT_EQ(CommonSuperType(SqlType::Date(), SqlType::Bool()).kind,
            TypeKind::kNull);  // incompatible
  EXPECT_EQ(CommonSuperType(SqlType::Null(), SqlType::Int()).kind,
            TypeKind::kInt);
}

TEST(TypeTest, ArithmeticResultTypes) {
  EXPECT_EQ(ArithmeticResultType(SqlType::Date(), SqlType::Int(), '+').kind,
            TypeKind::kDate);
  EXPECT_EQ(ArithmeticResultType(SqlType::Date(), SqlType::Date(), '-').kind,
            TypeKind::kInt);
  EXPECT_EQ(
      ArithmeticResultType(SqlType::Int(), SqlType::Int(), '/').kind,
      TypeKind::kDouble);  // division is approximate in the runtime model
  auto dec = ArithmeticResultType(SqlType::Decimal(10, 2),
                                  SqlType::Decimal(10, 3), '*');
  EXPECT_EQ(dec.scale, 5);
}

TEST(TypeTest, RenderedNames) {
  EXPECT_EQ(SqlType::Decimal(15, 2).ToString(), "DECIMAL(15,2)");
  EXPECT_EQ(SqlType::Varchar(25).ToString(), "VARCHAR(25)");
  EXPECT_EQ(SqlType::Varchar(0).ToString(), "VARCHAR");
  EXPECT_EQ(SqlType::PeriodDate().ToString(), "PERIOD(DATE)");
}

// Property sweep: Teradata encode/decode round-trips for every day in a
// multi-decade span.
class DateEncodingProperty : public ::testing::TestWithParam<int> {};

TEST_P(DateEncodingProperty, RoundTrip) {
  int32_t base = DaysFromCivil(1960 + GetParam() * 10, 1, 1);
  for (int32_t offset = 0; offset < 400; offset += 7) {
    int32_t days = base + offset;
    auto back = TeradataIntToDate(DateToTeradataInt(days));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, days);
  }
}

INSTANTIATE_TEST_SUITE_P(Decades, DateEncodingProperty,
                         ::testing::Range(0, 8));

// The inline encoder against the decoder for every day of 1900-2100 (so
// every pre-1970 day of the century too), and against CivilFromDays on
// both sides of its fast path's range and out to the int32 limits.
TEST(TypeTest, DateToTeradataIntRoundTripsEveryDayOf1900To2100) {
  const int32_t first = DaysFromCivil(1900, 1, 1);
  const int32_t last = DaysFromCivil(2100, 12, 31);
  ASSERT_LT(first, 0);
  for (int32_t days = first; days <= last; ++days) {
    const int64_t encoded = DateToTeradataInt(days);
    auto back = TeradataIntToDate(encoded);
    ASSERT_TRUE(back.ok()) << days << " -> " << encoded;
    ASSERT_EQ(*back, days) << encoded;
  }
  EXPECT_EQ(DateToTeradataInt(first), 101);
  EXPECT_EQ(DateToTeradataInt(DaysFromCivil(1969, 12, 31)), 691231);
  EXPECT_EQ(DateToTeradataInt(last), 2001231);
  for (int64_t days : {int64_t{INT32_MIN}, int64_t{-12699423},
                       int64_t{-12699422}, int64_t{1061042401},
                       int64_t{1061042402}, int64_t{-1000000}, int64_t{-719469},
                       int64_t{-719468}, int64_t{-25568}, int64_t{-1},
                       int64_t{0}, int64_t{2932896},
                       int64_t{INT32_MAX} - 719468}) {
    int y, m, d;
    CivilFromDays(static_cast<int32_t>(days), &y, &m, &d);
    EXPECT_EQ(DateToTeradataInt(static_cast<int32_t>(days)),
              static_cast<int64_t>(y - 1900) * 10000 + m * 100 + d)
        << days;
  }
}

}  // namespace
}  // namespace hyperq
