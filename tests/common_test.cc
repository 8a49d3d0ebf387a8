// Tests for the common runtime: Status/Result, buffers, strings, features.

#include <gtest/gtest.h>

#include "common/buffer.h"
#include "common/features.h"
#include "common/result.h"
#include "common/status.h"
#include "common/str_util.h"

namespace hyperq {
namespace {

TEST(StatusTest, OkIsCheapAndEmpty) {
  Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.code(), StatusCode::kOk);
  EXPECT_EQ(ok.ToString(), "ok");
}

TEST(StatusTest, FactoriesStreamParts) {
  Status s = Status::BindError("column '", "X", "' missing in table ", 42);
  EXPECT_TRUE(s.IsBindError());
  EXPECT_EQ(s.message(), "column 'X' missing in table 42");
  EXPECT_EQ(s.ToString(), "bind_error: column 'X' missing in table 42");
}

TEST(StatusTest, WithContextPrepends) {
  Status s = Status::IoError("disk full").WithContext("spilling batch 3");
  EXPECT_EQ(s.message(), "spilling batch 3: disk full");
  EXPECT_TRUE(s.IsIoError());
  EXPECT_TRUE(Status::OK().WithContext("x").ok());
}

// Regression (DESIGN.md §11): adding call-path context must not strip the
// typed detail — callers route on detail() (e.g. the fleet failover loop
// stops re-routing on kRetryBudgetExhausted), so losing it would silently
// re-enable the very amplification the detail exists to stop.
TEST(StatusTest, WithContextPreservesDetail) {
  Status budget = Status::Unavailable("no tokens")
                      .WithDetail(StatusDetail::kRetryBudgetExhausted)
                      .WithContext("replaying journal");
  EXPECT_EQ(budget.detail(), StatusDetail::kRetryBudgetExhausted);
  EXPECT_NE(budget.ToString().find("[retry_budget_exhausted]"),
            std::string::npos)
      << budget.ToString();
}

TEST(StatusTest, CopyAndMove) {
  Status s = Status::Internal("boom");
  Status copy = s;
  EXPECT_EQ(copy.message(), "boom");
  Status moved = std::move(s);
  EXPECT_EQ(moved.message(), "boom");
}

TEST(ResultTest, ValueAndStatusPaths) {
  Result<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  Result<int> e = Status::NotSupported("nope");
  EXPECT_FALSE(e.ok());
  EXPECT_TRUE(e.status().IsNotSupported());
  EXPECT_EQ(std::move(e).ValueOr(7), 7);
}

TEST(ResultTest, OkStatusIntoResultIsInternalError) {
  Result<int> bad = Status::OK();
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInternal());
}

TEST(BufferTest, LittleEndianRoundTrip) {
  BufferWriter w;
  w.PutU8(0xAB);
  w.PutI16(-2);
  w.PutI32(123456);
  w.PutI64(-9876543210LL);
  w.PutF64(3.25);
  w.PutLenBytes("hello");
  BufferReader r(w.data(), w.size());
  EXPECT_EQ(*r.GetU8(), 0xAB);
  EXPECT_EQ(*r.GetI16(), -2);
  EXPECT_EQ(*r.GetI32(), 123456);
  EXPECT_EQ(*r.GetI64(), -9876543210LL);
  EXPECT_DOUBLE_EQ(*r.GetF64(), 3.25);
  EXPECT_EQ(*r.GetLenBytes(), "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(BufferTest, UnderrunIsProtocolError) {
  BufferWriter w;
  w.PutU16(7);
  BufferReader r(w.data(), w.size());
  EXPECT_FALSE(r.GetU32().ok());
  EXPECT_FALSE(r.Skip(100).ok());
}

TEST(BufferTest, PatchBackfillsLength) {
  BufferWriter w;
  w.PutU32(0);  // placeholder
  w.PutBytes("abcd", 4);
  w.PatchU32(0, 4);
  BufferReader r(w.data(), w.size());
  EXPECT_EQ(*r.GetU32(), 4u);
}

TEST(StrUtilTest, CaseHelpers) {
  EXPECT_EQ(ToUpper("MiXeD_09"), "MIXED_09");
  EXPECT_EQ(ToLower("MiXeD"), "mixed");
  EXPECT_TRUE(EqualsIgnoreCase("select", "SELECT"));
  EXPECT_FALSE(EqualsIgnoreCase("sel", "select"));
  EXPECT_TRUE(StartsWithIgnoreCase("SELECT * FROM", "select"));
}

TEST(StrUtilTest, TrimSplitJoin) {
  EXPECT_EQ(Trim("  a b  "), "a b");
  EXPECT_EQ(Trim(""), "");
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Join({"x", "y", "z"}, ", "), "x, y, z");
}

TEST(StrUtilTest, QuoteSqlDoublesQuotes) {
  EXPECT_EQ(QuoteSql("it's", '\''), "'it''s'");
  EXPECT_EQ(QuoteSql("plain", '"'), "\"plain\"");
}

TEST(FeatureTest, ClassPartitioning) {
  EXPECT_EQ(FeatureClass(Feature::kSelAbbrev), RewriteClass::kTranslation);
  EXPECT_EQ(FeatureClass(Feature::kQualify),
            RewriteClass::kTransformation);
  EXPECT_EQ(FeatureClass(Feature::kMacros), RewriteClass::kEmulation);
  // Exactly 9 features per class (paper §7.1).
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < kNumFeatures; ++i) {
    ++counts[static_cast<int>(FeatureClass(static_cast<Feature>(i)))];
  }
  EXPECT_EQ(counts[0], kFeaturesPerClass);
  EXPECT_EQ(counts[1], kFeaturesPerClass);
  EXPECT_EQ(counts[2], kFeaturesPerClass);
}

TEST(FeatureTest, SetOperations) {
  FeatureSet fs;
  EXPECT_TRUE(fs.empty());
  fs.Record(Feature::kQualify);
  fs.Record(Feature::kQualify);  // idempotent
  EXPECT_TRUE(fs.Has(Feature::kQualify));
  EXPECT_TRUE(fs.HasClass(RewriteClass::kTransformation));
  EXPECT_FALSE(fs.HasClass(RewriteClass::kEmulation));
  FeatureSet other;
  other.Record(Feature::kMerge);
  fs.Merge(other);
  EXPECT_TRUE(fs.Has(Feature::kMerge));
  EXPECT_NE(fs.ToString().find("QUALIFY"), std::string::npos);
}

TEST(FeatureTest, WorkloadStatsFractions) {
  WorkloadFeatureStats stats;
  FeatureSet q1;
  q1.Record(Feature::kQualify);
  FeatureSet q2;
  q2.Record(Feature::kSelAbbrev);
  q2.Record(Feature::kQualify);
  FeatureSet plain;
  stats.AddQuery(q1);
  stats.AddQuery(q2);
  stats.AddQuery(plain);
  stats.AddQuery(plain);
  EXPECT_EQ(stats.total_queries, 4);
  EXPECT_DOUBLE_EQ(stats.QueryFraction(RewriteClass::kTransformation), 0.5);
  EXPECT_DOUBLE_EQ(stats.QueryFraction(RewriteClass::kTranslation), 0.25);
  EXPECT_DOUBLE_EQ(stats.QueryFraction(RewriteClass::kEmulation), 0.0);
  // Coverage: 1 of 9 transformation features seen.
  EXPECT_NEAR(stats.FeatureCoverage(RewriteClass::kTransformation), 1.0 / 9,
              1e-9);
}

}  // namespace
}  // namespace hyperq
