// Workload generator tests: TPC-H cardinalities/determinism and the
// customer-workload synthesizer hitting the paper's Figure 8 fractions.

#include <gtest/gtest.h>

#include "service/hyperq_service.h"
#include "vdb/engine.h"
#include "workload/customer.h"
#include "workload/tpch.h"

namespace hyperq::workload {
namespace {

TEST(TpchGenTest, CardinalitiesScale) {
  auto c = CardinalitiesFor(0.01);
  EXPECT_EQ(c.region, 5);
  EXPECT_EQ(c.nation, 25);
  EXPECT_EQ(c.supplier, 100);
  EXPECT_EQ(c.part, 2000);
  EXPECT_EQ(c.partsupp, 8000);
  EXPECT_EQ(c.customer, 1500);
  EXPECT_EQ(c.orders, 15000);
}

TEST(TpchGenTest, LoadIsDeterministic) {
  auto load = [](vdb::Engine* engine) {
    service::HyperQService service(engine);
    auto sid = service.OpenSession("x");
    ASSERT_TRUE(sid.ok());
    ASSERT_TRUE(LoadTpch(&service, *sid, engine, {0.001, 99}).ok());
  };
  vdb::Engine a, b;
  load(&a);
  load(&b);
  auto ra = a.Execute("SELECT SUM(L_ORDERKEY), COUNT(*) FROM LINEITEM");
  auto rb = b.Execute("SELECT SUM(L_ORDERKEY), COUNT(*) FROM LINEITEM");
  ASSERT_TRUE(ra.ok() && rb.ok());
  ra->EnsureRows();
  rb->EnsureRows();
  EXPECT_EQ(ra->rows[0][0].int_val(), rb->rows[0][0].int_val());
  EXPECT_EQ(ra->rows[0][1].int_val(), rb->rows[0][1].int_val());
  EXPECT_GT(ra->rows[0][1].int_val(), 0);
}

TEST(TpchGenTest, SchemaFlowsThroughDdlTranslation) {
  vdb::Engine engine;
  service::HyperQService service(&engine);
  auto sid = service.OpenSession("x");
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(LoadTpch(&service, *sid, &engine, {0.001, 1}).ok());
  // Both the DTM catalog and the target know the 8 tables.
  for (const char* t : {"REGION", "NATION", "SUPPLIER", "PART", "PARTSUPP",
                        "CUSTOMER", "ORDERS", "LINEITEM"}) {
    EXPECT_TRUE(service.catalog()->HasTable(t)) << t;
    EXPECT_TRUE(engine.storage()->HasTable(t)) << t;
  }
  EXPECT_EQ(TpchQueries().size(), 22u);
}

TEST(TpchGenTest, ReferentialIntegrityHolds) {
  vdb::Engine engine;
  service::HyperQService service(&engine);
  auto sid = service.OpenSession("x");
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(LoadTpch(&service, *sid, &engine, {0.001, 5}).ok());
  // Every lineitem points at an existing order; every order at a customer.
  auto orphans = engine.Execute(
      "SELECT COUNT(*) FROM LINEITEM WHERE L_ORDERKEY NOT IN "
      "(SELECT O_ORDERKEY FROM ORDERS)");
  ASSERT_TRUE(orphans.ok()) << orphans.status();
  orphans->EnsureRows();
  EXPECT_EQ(orphans->rows[0][0].int_val(), 0);
  auto cust = engine.Execute(
      "SELECT COUNT(*) FROM ORDERS WHERE O_CUSTKEY NOT IN "
      "(SELECT C_CUSTKEY FROM CUSTOMER)");
  ASSERT_TRUE(cust.ok());
  cust->EnsureRows();
  EXPECT_EQ(cust->rows[0][0].int_val(), 0);
}

TEST(CustomerWorkloadTest, ProfilesMatchTable1) {
  auto p1 = CustomerProfile::Customer1Health();
  EXPECT_EQ(p1.total_queries, 39731);
  EXPECT_EQ(p1.distinct_queries, 3778);
  auto p2 = CustomerProfile::Customer2Telco();
  EXPECT_EQ(p2.total_queries, 192753);
  EXPECT_EQ(p2.distinct_queries, 10446);
}

TEST(CustomerWorkloadTest, ReplayCountsPreserveTotals) {
  auto p = CustomerProfile::Customer1Health();
  auto queries = SynthesizeWorkload(p, 1.0);
  EXPECT_EQ(static_cast<int64_t>(queries.size()), p.distinct_queries);
  int64_t total = 0;
  for (const auto& q : queries) total += q.replay_count;
  EXPECT_EQ(total, p.total_queries);
}

// The synthesized workloads, re-measured through the instrumented
// translator, must land on the paper's Figure 8 fractions. The parameter is
// the workload number; it is a plain int so the printed value, and with it
// the ctest test name, is the same on every build.
class Figure8Property : public ::testing::TestWithParam<int> {};

TEST_P(Figure8Property, MeasuredFractionsMatchPaper) {
  bool is_w1 = GetParam() == 1;
  auto profile = is_w1 ? CustomerProfile::Customer1Health()
                       : CustomerProfile::Customer2Telco();
  vdb::Engine engine;
  service::HyperQService service(&engine);
  auto sid = service.OpenSession("x");
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(SetUpCustomerSchema(&service, *sid).ok());

  WorkloadFeatureStats stats;
  for (const auto& q : SynthesizeWorkload(profile, 0.2)) {
    FeatureSet features;
    auto t = service.Translate(q.sql, &features);
    ASSERT_TRUE(t.ok()) << q.sql << "\n" << t.status();
    stats.AddQuery(features);
  }
  // Figure 8(a): feature coverage per class.
  EXPECT_NEAR(stats.FeatureCoverage(RewriteClass::kTranslation),
              profile.translation_features.size() / 9.0, 1e-9);
  EXPECT_NEAR(stats.FeatureCoverage(RewriteClass::kTransformation),
              profile.transformation_features.size() / 9.0, 1e-9);
  EXPECT_NEAR(stats.FeatureCoverage(RewriteClass::kEmulation),
              profile.emulation_features.size() / 9.0, 1e-9);
  // Figure 8(b): affected-query fractions (±1.5pp at this scale).
  EXPECT_NEAR(stats.QueryFraction(RewriteClass::kTranslation),
              profile.translation_fraction, 0.015);
  EXPECT_NEAR(stats.QueryFraction(RewriteClass::kTransformation),
              profile.transformation_fraction, 0.015);
  EXPECT_NEAR(stats.QueryFraction(RewriteClass::kEmulation),
              profile.emulation_fraction, 0.015);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, Figure8Property,
    ::testing::Values(1, 2), [](const auto& info) {
      return std::string(info.param == 1 ? "health" : "telco");
    });

TEST(CustomerWorkloadTest, GeneratorOracleAgreesWithInstrumentation) {
  // For every feature query the generator claims, the instrumented engine
  // must detect at least the intended features (the oracle check that the
  // measurement is not circular).
  vdb::Engine engine;
  service::HyperQService service(&engine);
  auto sid = service.OpenSession("x");
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(SetUpCustomerSchema(&service, *sid).ok());
  auto queries =
      SynthesizeWorkload(CustomerProfile::Customer1Health(), 0.05);
  for (const auto& q : queries) {
    if (q.intended.empty()) continue;
    FeatureSet measured;
    ASSERT_TRUE(service.Translate(q.sql, &measured).ok()) << q.sql;
    for (int i = 0; i < kNumFeatures; ++i) {
      Feature f = static_cast<Feature>(i);
      if (q.intended.Has(f)) {
        EXPECT_TRUE(measured.Has(f))
            << FeatureName(f) << " not detected in: " << q.sql;
      }
    }
  }
}

}  // namespace
}  // namespace hyperq::workload
