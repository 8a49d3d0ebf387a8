#include "workload/tpch.h"

#include <cmath>
#include <initializer_list>

#include "types/date.h"

namespace hyperq::workload {

namespace {

// Deterministic splitmix64 RNG.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  int64_t Uniform(int64_t lo, int64_t hi) {  // inclusive
    return lo + static_cast<int64_t>(Next() % (hi - lo + 1));
  }
  double Fraction() { return (Next() >> 11) * (1.0 / (1ull << 53)); }
  template <typename T>
  const T& Pick(const std::vector<T>& v) {
    return v[Next() % v.size()];
  }

 private:
  uint64_t state_;
};

const std::vector<std::string> kRegions = {"AFRICA", "AMERICA", "ASIA",
                                           "EUROPE", "MIDDLE EAST"};
const std::vector<std::string> kNations = {
    "ALGERIA", "ARGENTINA", "BRAZIL",  "CANADA",         "EGYPT",
    "ETHIOPIA", "FRANCE",   "GERMANY", "INDIA",          "INDONESIA",
    "IRAN",     "IRAQ",     "JAPAN",   "JORDAN",         "KENYA",
    "MOROCCO",  "MOZAMBIQUE", "PERU",  "CHINA",          "ROMANIA",
    "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
    "UNITED STATES"};
// region of each nation (TPC-H mapping).
const int kNationRegion[25] = {0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2,
                               4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1};

const std::vector<std::string> kTypes1 = {"STANDARD", "SMALL",   "MEDIUM",
                                          "LARGE",    "ECONOMY", "PROMO"};
const std::vector<std::string> kTypes2 = {"ANODIZED", "BURNISHED", "PLATED",
                                          "POLISHED", "BRUSHED"};
const std::vector<std::string> kTypes3 = {"TIN", "NICKEL", "BRASS", "STEEL",
                                          "COPPER"};
const std::vector<std::string> kContainers = {
    "SM CASE", "SM BOX",  "MED BAG", "MED BOX", "LG CASE",
    "LG BOX",  "JUMBO PKG", "WRAP CASE", "WRAP BOX", "JUMBO BOX"};
const std::vector<std::string> kColors = {
    "green",  "blue",  "red",    "ivory", "salmon", "peach",
    "yellow", "azure", "plum",   "khaki", "linen",  "navy"};
const std::vector<std::string> kNouns = {
    "packages", "ideas",   "accounts", "theodolites", "dependencies",
    "foxes",    "pinto beans", "instructions", "requests", "deposits"};
const std::vector<std::string> kSegments = {"AUTOMOBILE", "BUILDING",
                                            "FURNITURE", "MACHINERY",
                                            "HOUSEHOLD"};
const std::vector<std::string> kPriorities = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                              "4-NOT SPECIFIED", "5-LOW"};
const std::vector<std::string> kShipModes = {"REG AIR", "AIR",  "RAIL",
                                             "SHIP",    "TRUCK", "MAIL",
                                             "FOB"};
const std::vector<std::string> kInstructs = {
    "DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"};

std::string Comment(Rng& rng, int max_len) {
  std::string c = rng.Pick(kColors) + " " + rng.Pick(kNouns) + " " +
                  (rng.Next() % 20 == 0 ? "special requests "
                                        : rng.Pick(kColors) + " ") +
                  (rng.Next() % 30 == 0 ? "Customer Complaints"
                                        : rng.Pick(kNouns));
  if (static_cast<int>(c.size()) > max_len) c.resize(max_len);
  return c;
}

std::string Phone(Rng& rng, int nation) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%02d-%03d-%03d-%04d", 10 + nation,
                static_cast<int>(rng.Uniform(100, 999)),
                static_cast<int>(rng.Uniform(100, 999)),
                static_cast<int>(rng.Uniform(1000, 9999)));
  return buf;
}

Datum Dec2(int64_t cents) { return Datum::MakeDecimal(Decimal{cents, 2}); }

// Appends one row to `rows`, a value per column. The values come as a
// braced list, which evaluates them in order, so the RNG draws inside them
// keep their order.
void AppendRow(vdb::BatchBuilder* rows, std::initializer_list<Datum> values) {
  size_t c = 0;
  for (const Datum& v : values) rows->Append(c++, v);
}

}  // namespace

TpchCardinalities CardinalitiesFor(double sf) {
  TpchCardinalities c;
  c.region = 5;
  c.nation = 25;
  c.supplier = std::max<int64_t>(3, static_cast<int64_t>(10000 * sf));
  c.part = std::max<int64_t>(10, static_cast<int64_t>(200000 * sf));
  c.partsupp = c.part * 4;
  c.customer = std::max<int64_t>(5, static_cast<int64_t>(150000 * sf));
  c.orders = c.customer * 10;
  c.lineitem = 0;  // derived: ~4 per order
  return c;
}

std::vector<std::string> TpchSchemaSqlA() {
  return {
      "CREATE TABLE REGION (R_REGIONKEY INTEGER NOT NULL, R_NAME CHAR(25), "
      "R_COMMENT VARCHAR(152))",
      "CREATE TABLE NATION (N_NATIONKEY INTEGER NOT NULL, N_NAME CHAR(25), "
      "N_REGIONKEY INTEGER, N_COMMENT VARCHAR(152))",
      "CREATE TABLE SUPPLIER (S_SUPPKEY INTEGER NOT NULL, S_NAME CHAR(25), "
      "S_ADDRESS VARCHAR(40), S_NATIONKEY INTEGER, S_PHONE CHAR(15), "
      "S_ACCTBAL DECIMAL(15,2), S_COMMENT VARCHAR(101))",
      "CREATE TABLE PART (P_PARTKEY INTEGER NOT NULL, P_NAME VARCHAR(55), "
      "P_MFGR CHAR(25), P_BRAND CHAR(10), P_TYPE VARCHAR(25), P_SIZE "
      "INTEGER, P_CONTAINER CHAR(10), P_RETAILPRICE DECIMAL(15,2), "
      "P_COMMENT VARCHAR(23))",
      "CREATE TABLE PARTSUPP (PS_PARTKEY INTEGER NOT NULL, PS_SUPPKEY "
      "INTEGER NOT NULL, PS_AVAILQTY INTEGER, PS_SUPPLYCOST DECIMAL(15,2), "
      "PS_COMMENT VARCHAR(199))",
      "CREATE TABLE CUSTOMER (C_CUSTKEY INTEGER NOT NULL, C_NAME "
      "VARCHAR(25), C_ADDRESS VARCHAR(40), C_NATIONKEY INTEGER, C_PHONE "
      "CHAR(15), C_ACCTBAL DECIMAL(15,2), C_MKTSEGMENT CHAR(10), C_COMMENT "
      "VARCHAR(117))",
      "CREATE TABLE ORDERS (O_ORDERKEY INTEGER NOT NULL, O_CUSTKEY INTEGER, "
      "O_ORDERSTATUS CHAR(1), O_TOTALPRICE DECIMAL(15,2), O_ORDERDATE DATE, "
      "O_ORDERPRIORITY CHAR(15), O_CLERK CHAR(15), O_SHIPPRIORITY INTEGER, "
      "O_COMMENT VARCHAR(79))",
      "CREATE TABLE LINEITEM (L_ORDERKEY INTEGER NOT NULL, L_PARTKEY "
      "INTEGER, L_SUPPKEY INTEGER, L_LINENUMBER INTEGER, L_QUANTITY "
      "DECIMAL(15,2), L_EXTENDEDPRICE DECIMAL(15,2), L_DISCOUNT "
      "DECIMAL(15,2), L_TAX DECIMAL(15,2), L_RETURNFLAG CHAR(1), "
      "L_LINESTATUS CHAR(1), L_SHIPDATE DATE, L_COMMITDATE DATE, "
      "L_RECEIPTDATE DATE, L_SHIPINSTRUCT CHAR(25), L_SHIPMODE CHAR(10), "
      "L_COMMENT VARCHAR(44))",
  };
}

Status LoadTpch(service::HyperQService* service, uint32_t session_id,
                vdb::Engine* engine, const TpchOptions& options) {
  // Schema flows through Hyper-Q's DDL translation.
  for (const std::string& ddl : TpchSchemaSqlA()) {
    auto r = service->Submit(session_id, ddl);
    HQ_RETURN_IF_ERROR(r.status());
  }

  // Bulk data load (content transfer, paper Appendix A.2) goes straight to
  // the target's storage: each table's rows are built as one batch and
  // appended once.
  Rng rng(options.seed);
  TpchCardinalities n = CardinalitiesFor(options.scale_factor);
  struct Load {
    vdb::Table* table;
    vdb::BatchBuilder rows;
  };
  auto load = [&](const char* name, int64_t reserve) -> Result<Load> {
    HQ_ASSIGN_OR_RETURN(vdb::Table * t, engine->storage()->GetTable(name));
    Load l{t, vdb::BatchBuilder(t->ColumnTypes())};
    l.rows.Reserve(static_cast<size_t>(reserve));
    return l;
  };

  {
    HQ_ASSIGN_OR_RETURN(Load t, load("REGION", n.region));
    for (int64_t i = 0; i < n.region; ++i) {
      AppendRow(&t.rows, {Datum::Int(i), Datum::String(kRegions[i]),
                          Datum::String(Comment(rng, 100))});
    }
    t.table->Append(t.rows.Finish());
  }
  {
    HQ_ASSIGN_OR_RETURN(Load t, load("NATION", n.nation));
    for (int64_t i = 0; i < n.nation; ++i) {
      AppendRow(&t.rows, {Datum::Int(i), Datum::String(kNations[i]),
                          Datum::Int(kNationRegion[i]),
                          Datum::String(Comment(rng, 100))});
    }
    t.table->Append(t.rows.Finish());
  }
  {
    HQ_ASSIGN_OR_RETURN(Load t, load("SUPPLIER", n.supplier));
    for (int64_t i = 1; i <= n.supplier; ++i) {
      int nation = static_cast<int>(rng.Uniform(0, 24));
      AppendRow(&t.rows,
          {Datum::Int(i), Datum::String("Supplier#" + std::to_string(i)),
           Datum::String("addr " + std::to_string(rng.Uniform(1, 9999))),
           Datum::Int(nation), Datum::String(Phone(rng, nation)),
           Dec2(rng.Uniform(-99999, 999999)),
           Datum::String(Comment(rng, 101))});
    }
    t.table->Append(t.rows.Finish());
  }
  {
    HQ_ASSIGN_OR_RETURN(Load t, load("PART", n.part));
    for (int64_t i = 1; i <= n.part; ++i) {
      int m = static_cast<int>(rng.Uniform(1, 5));
      int nb = static_cast<int>(rng.Uniform(1, 5));
      std::string type = rng.Pick(kTypes1) + " " + rng.Pick(kTypes2) + " " +
                         rng.Pick(kTypes3);
      AppendRow(&t.rows,
          {Datum::Int(i),
           Datum::String(rng.Pick(kColors) + " " + rng.Pick(kColors) + " " +
                         rng.Pick(kNouns)),
           Datum::String("Manufacturer#" + std::to_string(m)),
           Datum::String("Brand#" + std::to_string(m) + std::to_string(nb)),
           Datum::String(type), Datum::Int(rng.Uniform(1, 50)),
           Datum::String(rng.Pick(kContainers)),
           Dec2(90000 + (i % 200) * 100), Datum::String(Comment(rng, 23))});
    }
    t.table->Append(t.rows.Finish());
  }
  {
    HQ_ASSIGN_OR_RETURN(Load t, load("PARTSUPP", n.partsupp));
    for (int64_t p = 1; p <= n.part; ++p) {
      for (int s = 0; s < 4; ++s) {
        int64_t suppkey = 1 + (p + s * (n.supplier / 4 + 1)) % n.supplier;
        AppendRow(&t.rows, {Datum::Int(p), Datum::Int(suppkey),
                            Datum::Int(rng.Uniform(1, 9999)),
                            Dec2(rng.Uniform(100, 100000)),
                            Datum::String(Comment(rng, 150))});
      }
    }
    t.table->Append(t.rows.Finish());
  }
  {
    HQ_ASSIGN_OR_RETURN(Load t, load("CUSTOMER", n.customer));
    for (int64_t i = 1; i <= n.customer; ++i) {
      int nation = static_cast<int>(rng.Uniform(0, 24));
      AppendRow(&t.rows,
          {Datum::Int(i),
           Datum::String("Customer#" + std::to_string(i)),
           Datum::String("addr " + std::to_string(rng.Uniform(1, 9999))),
           Datum::Int(nation), Datum::String(Phone(rng, nation)),
           Dec2(rng.Uniform(-99999, 999999)),
           Datum::String(rng.Pick(kSegments)),
           Datum::String(Comment(rng, 117))});
    }
    t.table->Append(t.rows.Finish());
  }
  int32_t epoch92 = DaysFromCivil(1992, 1, 1);
  int32_t last_order_day = DaysFromCivil(1998, 8, 2);
  {
    HQ_ASSIGN_OR_RETURN(Load orders, load("ORDERS", n.orders));
    // An order draws 1 to 7 lines, so LINEITEM's builder grows as it goes.
    HQ_ASSIGN_OR_RETURN(Load lineitem, load("LINEITEM", 0));
    for (int64_t o = 1; o <= n.orders; ++o) {
      int64_t cust = rng.Uniform(1, n.customer);
      int32_t odate = static_cast<int32_t>(
          rng.Uniform(epoch92, last_order_day - 151));
      int nlines = static_cast<int>(rng.Uniform(1, 7));
      int64_t total_cents = 0;
      int open_lines = 0;
      for (int l = 1; l <= nlines; ++l) {
        int64_t part = rng.Uniform(1, n.part);
        int64_t supp = 1 + (part + l) % n.supplier;
        int64_t qty = rng.Uniform(1, 50);
        int64_t price_cents = qty * (90000 + (part % 200) * 100) / 10;
        int64_t disc = rng.Uniform(0, 10);   // 0.00 - 0.10
        int64_t tax = rng.Uniform(0, 8);     // 0.00 - 0.08
        int32_t sdate = odate + static_cast<int32_t>(rng.Uniform(1, 121));
        int32_t cdate = odate + static_cast<int32_t>(rng.Uniform(30, 90));
        int32_t rdate = sdate + static_cast<int32_t>(rng.Uniform(1, 30));
        const char* rflag;
        const char* lstatus;
        int32_t cutoff = DaysFromCivil(1995, 6, 17);
        if (rdate <= cutoff) {
          rflag = rng.Next() % 2 ? "R" : "A";
          lstatus = "F";
        } else {
          rflag = "N";
          lstatus = sdate > cutoff ? "O" : "F";
          if (lstatus[0] == 'O') ++open_lines;
        }
        total_cents += price_cents;
        AppendRow(&lineitem.rows,
            {Datum::Int(o), Datum::Int(part), Datum::Int(supp), Datum::Int(l),
             Dec2(qty * 100), Dec2(price_cents), Dec2(disc), Dec2(tax),
             Datum::String(rflag), Datum::String(lstatus), Datum::Date(sdate),
             Datum::Date(cdate), Datum::Date(rdate),
             Datum::String(rng.Pick(kInstructs)),
             Datum::String(rng.Pick(kShipModes)),
             Datum::String(Comment(rng, 44))});
      }
      const char* ostatus = open_lines == nlines ? "O"
                            : open_lines == 0    ? "F"
                                                 : "P";
      AppendRow(&orders.rows,
          {Datum::Int(o), Datum::Int(cust), Datum::String(ostatus),
           Dec2(total_cents), Datum::Date(odate),
           Datum::String(rng.Pick(kPriorities)),
           Datum::String("Clerk#" + std::to_string(rng.Uniform(1, 1000))),
           Datum::Int(0), Datum::String(Comment(rng, 79))});
    }
    orders.table->Append(orders.rows.Finish());
    lineitem.table->Append(lineitem.rows.Finish());
  }
  return Status::OK();
}

const std::vector<std::string>& TpchQueries() {
  static const std::vector<std::string> kQueries = {
      // Q1: pricing summary report.
      R"(SEL L_RETURNFLAG, L_LINESTATUS,
  SUM(L_QUANTITY) AS SUM_QTY,
  SUM(L_EXTENDEDPRICE) AS SUM_BASE_PRICE,
  SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT)) AS SUM_DISC_PRICE,
  SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT) * (1 + L_TAX)) AS SUM_CHARGE,
  AVG(L_QUANTITY) AS AVG_QTY,
  AVG(L_EXTENDEDPRICE) AS AVG_PRICE,
  AVG(L_DISCOUNT) AS AVG_DISC,
  COUNT(*) AS COUNT_ORDER
FROM LINEITEM
WHERE L_SHIPDATE <= DATE '1998-12-01' - 90
GROUP BY L_RETURNFLAG, L_LINESTATUS
ORDER BY L_RETURNFLAG, L_LINESTATUS)",

      // Q2: minimum cost supplier.
      R"(SEL TOP 100 S_ACCTBAL, S_NAME, N_NAME, P_PARTKEY, P_MFGR,
  S_ADDRESS, S_PHONE, S_COMMENT
FROM PART, SUPPLIER, PARTSUPP, NATION, REGION
WHERE P_PARTKEY = PS_PARTKEY AND S_SUPPKEY = PS_SUPPKEY
  AND P_SIZE = 15 AND P_TYPE LIKE '%BRASS'
  AND S_NATIONKEY = N_NATIONKEY AND N_REGIONKEY = R_REGIONKEY
  AND R_NAME = 'EUROPE'
  AND PS_SUPPLYCOST = (
    SEL MIN(PS_SUPPLYCOST)
    FROM PARTSUPP, SUPPLIER, NATION, REGION
    WHERE P_PARTKEY = PS_PARTKEY AND S_SUPPKEY = PS_SUPPKEY
      AND S_NATIONKEY = N_NATIONKEY AND N_REGIONKEY = R_REGIONKEY
      AND R_NAME = 'EUROPE')
ORDER BY S_ACCTBAL DESC, N_NAME, S_NAME, P_PARTKEY)",

      // Q3: shipping priority.
      R"(SEL TOP 10 L_ORDERKEY,
  SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT)) AS REVENUE,
  O_ORDERDATE, O_SHIPPRIORITY
FROM CUSTOMER, ORDERS, LINEITEM
WHERE C_MKTSEGMENT = 'BUILDING' AND C_CUSTKEY = O_CUSTKEY
  AND L_ORDERKEY = O_ORDERKEY
  AND O_ORDERDATE < DATE '1995-03-15' AND L_SHIPDATE > DATE '1995-03-15'
GROUP BY L_ORDERKEY, O_ORDERDATE, O_SHIPPRIORITY
ORDER BY REVENUE DESC, O_ORDERDATE)",

      // Q4: order priority checking.
      R"(SEL O_ORDERPRIORITY, COUNT(*) AS ORDER_COUNT
FROM ORDERS
WHERE O_ORDERDATE >= DATE '1993-07-01'
  AND O_ORDERDATE < DATE '1993-07-01' + INTERVAL '3' MONTH
  AND EXISTS (
    SEL * FROM LINEITEM
    WHERE L_ORDERKEY = O_ORDERKEY AND L_COMMITDATE < L_RECEIPTDATE)
GROUP BY O_ORDERPRIORITY
ORDER BY O_ORDERPRIORITY)",

      // Q5: local supplier volume.
      R"(SEL N_NAME, SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT)) AS REVENUE
FROM CUSTOMER, ORDERS, LINEITEM, SUPPLIER, NATION, REGION
WHERE C_CUSTKEY = O_CUSTKEY AND L_ORDERKEY = O_ORDERKEY
  AND L_SUPPKEY = S_SUPPKEY AND C_NATIONKEY = S_NATIONKEY
  AND S_NATIONKEY = N_NATIONKEY AND N_REGIONKEY = R_REGIONKEY
  AND R_NAME = 'ASIA'
  AND O_ORDERDATE >= DATE '1994-01-01'
  AND O_ORDERDATE < DATE '1994-01-01' + INTERVAL '1' YEAR
GROUP BY N_NAME
ORDER BY REVENUE DESC)",

      // Q6: forecasting revenue change.
      R"(SEL SUM(L_EXTENDEDPRICE * L_DISCOUNT) AS REVENUE
FROM LINEITEM
WHERE L_SHIPDATE >= DATE '1994-01-01'
  AND L_SHIPDATE < DATE '1994-01-01' + INTERVAL '1' YEAR
  AND L_DISCOUNT BETWEEN 0.05 AND 0.07
  AND L_QUANTITY < 24)",

      // Q7: volume shipping.
      R"(SEL SUPP_NATION, CUST_NATION, L_YEAR, SUM(VOLUME) AS REVENUE
FROM (
  SEL N1.N_NAME AS SUPP_NATION, N2.N_NAME AS CUST_NATION,
    EXTRACT(YEAR FROM L_SHIPDATE) AS L_YEAR,
    L_EXTENDEDPRICE * (1 - L_DISCOUNT) AS VOLUME
  FROM SUPPLIER, LINEITEM, ORDERS, CUSTOMER, NATION N1, NATION N2
  WHERE S_SUPPKEY = L_SUPPKEY AND O_ORDERKEY = L_ORDERKEY
    AND C_CUSTKEY = O_CUSTKEY AND S_NATIONKEY = N1.N_NATIONKEY
    AND C_NATIONKEY = N2.N_NATIONKEY
    AND ((N1.N_NAME = 'FRANCE' AND N2.N_NAME = 'GERMANY')
      OR (N1.N_NAME = 'GERMANY' AND N2.N_NAME = 'FRANCE'))
    AND L_SHIPDATE BETWEEN DATE '1995-01-01' AND DATE '1996-12-31'
) AS SHIPPING
GROUP BY SUPP_NATION, CUST_NATION, L_YEAR
ORDER BY SUPP_NATION, CUST_NATION, L_YEAR)",

      // Q8: national market share.
      R"(SEL O_YEAR,
  SUM(CASE WHEN NATION = 'BRAZIL' THEN VOLUME ELSE 0 END) / SUM(VOLUME)
    AS MKT_SHARE
FROM (
  SEL EXTRACT(YEAR FROM O_ORDERDATE) AS O_YEAR,
    L_EXTENDEDPRICE * (1 - L_DISCOUNT) AS VOLUME,
    N2.N_NAME AS NATION
  FROM PART, SUPPLIER, LINEITEM, ORDERS, CUSTOMER, NATION N1, NATION N2,
    REGION
  WHERE P_PARTKEY = L_PARTKEY AND S_SUPPKEY = L_SUPPKEY
    AND L_ORDERKEY = O_ORDERKEY AND O_CUSTKEY = C_CUSTKEY
    AND C_NATIONKEY = N1.N_NATIONKEY AND N1.N_REGIONKEY = R_REGIONKEY
    AND R_NAME = 'AMERICA' AND S_NATIONKEY = N2.N_NATIONKEY
    AND O_ORDERDATE BETWEEN DATE '1995-01-01' AND DATE '1996-12-31'
    AND P_TYPE = 'ECONOMY ANODIZED STEEL'
) AS ALL_NATIONS
GROUP BY O_YEAR
ORDER BY O_YEAR)",

      // Q9: product type profit measure.
      R"(SEL NATION, O_YEAR, SUM(AMOUNT) AS SUM_PROFIT
FROM (
  SEL N_NAME AS NATION, EXTRACT(YEAR FROM O_ORDERDATE) AS O_YEAR,
    L_EXTENDEDPRICE * (1 - L_DISCOUNT) - PS_SUPPLYCOST * L_QUANTITY
      AS AMOUNT
  FROM PART, SUPPLIER, LINEITEM, PARTSUPP, ORDERS, NATION
  WHERE S_SUPPKEY = L_SUPPKEY AND PS_SUPPKEY = L_SUPPKEY
    AND PS_PARTKEY = L_PARTKEY AND P_PARTKEY = L_PARTKEY
    AND O_ORDERKEY = L_ORDERKEY AND S_NATIONKEY = N_NATIONKEY
    AND P_NAME LIKE '%green%'
) AS PROFIT
GROUP BY NATION, O_YEAR
ORDER BY NATION, O_YEAR DESC)",

      // Q10: returned item reporting.
      R"(SEL TOP 20 C_CUSTKEY, C_NAME,
  SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT)) AS REVENUE,
  C_ACCTBAL, N_NAME, C_ADDRESS, C_PHONE, C_COMMENT
FROM CUSTOMER, ORDERS, LINEITEM, NATION
WHERE C_CUSTKEY = O_CUSTKEY AND L_ORDERKEY = O_ORDERKEY
  AND O_ORDERDATE >= DATE '1993-10-01'
  AND O_ORDERDATE < DATE '1993-10-01' + INTERVAL '3' MONTH
  AND L_RETURNFLAG = 'R' AND C_NATIONKEY = N_NATIONKEY
GROUP BY C_CUSTKEY, C_NAME, C_ACCTBAL, C_PHONE, N_NAME, C_ADDRESS,
  C_COMMENT
ORDER BY REVENUE DESC)",

      // Q11: important stock identification.
      R"(SEL PS_PARTKEY, SUM(PS_SUPPLYCOST * PS_AVAILQTY) AS VALUE1
FROM PARTSUPP, SUPPLIER, NATION
WHERE PS_SUPPKEY = S_SUPPKEY AND S_NATIONKEY = N_NATIONKEY
  AND N_NAME = 'GERMANY'
GROUP BY PS_PARTKEY
HAVING SUM(PS_SUPPLYCOST * PS_AVAILQTY) > (
  SEL SUM(PS_SUPPLYCOST * PS_AVAILQTY) * 0.001
  FROM PARTSUPP, SUPPLIER, NATION
  WHERE PS_SUPPKEY = S_SUPPKEY AND S_NATIONKEY = N_NATIONKEY
    AND N_NAME = 'GERMANY')
ORDER BY VALUE1 DESC)",

      // Q12: shipping modes and order priority.
      R"(SEL L_SHIPMODE,
  SUM(CASE WHEN O_ORDERPRIORITY = '1-URGENT'
        OR O_ORDERPRIORITY = '2-HIGH' THEN 1 ELSE 0 END)
    AS HIGH_LINE_COUNT,
  SUM(CASE WHEN O_ORDERPRIORITY <> '1-URGENT'
        AND O_ORDERPRIORITY <> '2-HIGH' THEN 1 ELSE 0 END)
    AS LOW_LINE_COUNT
FROM ORDERS, LINEITEM
WHERE O_ORDERKEY = L_ORDERKEY AND L_SHIPMODE IN ('MAIL', 'SHIP')
  AND L_COMMITDATE < L_RECEIPTDATE AND L_SHIPDATE < L_COMMITDATE
  AND L_RECEIPTDATE >= DATE '1994-01-01'
  AND L_RECEIPTDATE < DATE '1994-01-01' + INTERVAL '1' YEAR
GROUP BY L_SHIPMODE
ORDER BY L_SHIPMODE)",

      // Q13: customer distribution (derived-table column aliases).
      R"(SEL C_COUNT, COUNT(*) AS CUSTDIST
FROM (
  SEL C_CUSTKEY, COUNT(O_ORDERKEY)
  FROM CUSTOMER LEFT OUTER JOIN ORDERS
    ON C_CUSTKEY = O_CUSTKEY
    AND O_COMMENT NOT LIKE '%special%requests%'
  GROUP BY C_CUSTKEY
) AS C_ORDERS (C_CUSTKEY, C_COUNT)
GROUP BY C_COUNT
ORDER BY CUSTDIST DESC, C_COUNT DESC)",

      // Q14: promotion effect.
      R"(SEL 100.00 * SUM(CASE WHEN P_TYPE LIKE 'PROMO%'
    THEN L_EXTENDEDPRICE * (1 - L_DISCOUNT) ELSE 0 END)
  / SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT)) AS PROMO_REVENUE
FROM LINEITEM, PART
WHERE L_PARTKEY = P_PARTKEY
  AND L_SHIPDATE >= DATE '1995-09-01'
  AND L_SHIPDATE < DATE '1995-09-01' + INTERVAL '1' MONTH)",

      // Q15: top supplier (common table expression).
      R"(WITH REVENUE (SUPPLIER_NO, TOTAL_REVENUE) AS (
  SEL L_SUPPKEY, SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT))
  FROM LINEITEM
  WHERE L_SHIPDATE >= DATE '1996-01-01'
    AND L_SHIPDATE < DATE '1996-01-01' + INTERVAL '3' MONTH
  GROUP BY L_SUPPKEY)
SEL S_SUPPKEY, S_NAME, S_ADDRESS, S_PHONE, TOTAL_REVENUE
FROM SUPPLIER, REVENUE
WHERE S_SUPPKEY = SUPPLIER_NO
  AND TOTAL_REVENUE = (SEL MAX(TOTAL_REVENUE) FROM REVENUE)
ORDER BY S_SUPPKEY)",

      // Q16: parts/supplier relationship.
      R"(SEL P_BRAND, P_TYPE, P_SIZE,
  COUNT(DISTINCT PS_SUPPKEY) AS SUPPLIER_CNT
FROM PARTSUPP, PART
WHERE P_PARTKEY = PS_PARTKEY AND P_BRAND <> 'Brand#45'
  AND P_TYPE NOT LIKE 'MEDIUM POLISHED%'
  AND P_SIZE IN (49, 14, 23, 45, 19, 3, 36, 9)
  AND PS_SUPPKEY NOT IN (
    SEL S_SUPPKEY FROM SUPPLIER
    WHERE S_COMMENT LIKE '%Customer%Complaints%')
GROUP BY P_BRAND, P_TYPE, P_SIZE
ORDER BY SUPPLIER_CNT DESC, P_BRAND, P_TYPE, P_SIZE)",

      // Q17: small-quantity-order revenue.
      R"(SEL SUM(L_EXTENDEDPRICE) / 7.0 AS AVG_YEARLY
FROM LINEITEM, PART
WHERE P_PARTKEY = L_PARTKEY AND P_BRAND = 'Brand#23'
  AND P_CONTAINER = 'MED BOX'
  AND L_QUANTITY < (
    SEL 0.2 * AVG(L_QUANTITY) FROM LINEITEM
    WHERE L_PARTKEY = P_PARTKEY))",

      // Q18: large volume customers.
      R"(SEL TOP 100 C_NAME, C_CUSTKEY, O_ORDERKEY, O_ORDERDATE,
  O_TOTALPRICE, SUM(L_QUANTITY) AS TOTAL_QTY
FROM CUSTOMER, ORDERS, LINEITEM
WHERE O_ORDERKEY IN (
    SEL L_ORDERKEY FROM LINEITEM
    GROUP BY L_ORDERKEY HAVING SUM(L_QUANTITY) > 200)
  AND C_CUSTKEY = O_CUSTKEY AND O_ORDERKEY = L_ORDERKEY
GROUP BY C_NAME, C_CUSTKEY, O_ORDERKEY, O_ORDERDATE, O_TOTALPRICE
ORDER BY O_TOTALPRICE DESC, O_ORDERDATE)",

      // Q19: discounted revenue.
      R"(SEL SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT)) AS REVENUE
FROM LINEITEM, PART
WHERE (P_PARTKEY = L_PARTKEY AND P_BRAND = 'Brand#12'
    AND P_CONTAINER IN ('SM CASE', 'SM BOX')
    AND L_QUANTITY >= 1 AND L_QUANTITY <= 11
    AND P_SIZE BETWEEN 1 AND 5
    AND L_SHIPMODE IN ('AIR', 'REG AIR')
    AND L_SHIPINSTRUCT = 'DELIVER IN PERSON')
  OR (P_PARTKEY = L_PARTKEY AND P_BRAND = 'Brand#23'
    AND P_CONTAINER IN ('MED BAG', 'MED BOX')
    AND L_QUANTITY >= 10 AND L_QUANTITY <= 20
    AND P_SIZE BETWEEN 1 AND 10
    AND L_SHIPMODE IN ('AIR', 'REG AIR')
    AND L_SHIPINSTRUCT = 'DELIVER IN PERSON')
  OR (P_PARTKEY = L_PARTKEY AND P_BRAND = 'Brand#34'
    AND P_CONTAINER IN ('LG CASE', 'LG BOX')
    AND L_QUANTITY >= 20 AND L_QUANTITY <= 30
    AND P_SIZE BETWEEN 1 AND 15
    AND L_SHIPMODE IN ('AIR', 'REG AIR')
    AND L_SHIPINSTRUCT = 'DELIVER IN PERSON'))",

      // Q20: potential part promotion.
      R"(SEL S_NAME, S_ADDRESS
FROM SUPPLIER, NATION
WHERE S_SUPPKEY IN (
    SEL PS_SUPPKEY FROM PARTSUPP
    WHERE PS_PARTKEY IN (
        SEL P_PARTKEY FROM PART WHERE P_NAME LIKE 'green%')
      AND PS_AVAILQTY > (
        SEL 0.5 * SUM(L_QUANTITY) FROM LINEITEM
        WHERE L_PARTKEY = PS_PARTKEY AND L_SUPPKEY = PS_SUPPKEY
          AND L_SHIPDATE >= DATE '1994-01-01'
          AND L_SHIPDATE < DATE '1994-01-01' + INTERVAL '1' YEAR))
  AND S_NATIONKEY = N_NATIONKEY AND N_NAME = 'CANADA'
ORDER BY S_NAME)",

      // Q21: suppliers who kept orders waiting.
      R"(SEL TOP 100 S_NAME, COUNT(*) AS NUMWAIT
FROM SUPPLIER, LINEITEM L1, ORDERS, NATION
WHERE S_SUPPKEY = L1.L_SUPPKEY AND O_ORDERKEY = L1.L_ORDERKEY
  AND O_ORDERSTATUS = 'F' AND L1.L_RECEIPTDATE > L1.L_COMMITDATE
  AND EXISTS (
    SEL * FROM LINEITEM L2
    WHERE L2.L_ORDERKEY = L1.L_ORDERKEY
      AND L2.L_SUPPKEY <> L1.L_SUPPKEY)
  AND NOT EXISTS (
    SEL * FROM LINEITEM L3
    WHERE L3.L_ORDERKEY = L1.L_ORDERKEY
      AND L3.L_SUPPKEY <> L1.L_SUPPKEY
      AND L3.L_RECEIPTDATE > L3.L_COMMITDATE)
  AND S_NATIONKEY = N_NATIONKEY AND N_NAME = 'SAUDI ARABIA'
GROUP BY S_NAME
ORDER BY NUMWAIT DESC, S_NAME)",

      // Q22: global sales opportunity.
      R"(SEL CNTRYCODE, COUNT(*) AS NUMCUST, SUM(C_ACCTBAL) AS TOTACCTBAL
FROM (
  SEL SUBSTR(C_PHONE, 1, 2) AS CNTRYCODE, C_ACCTBAL
  FROM CUSTOMER
  WHERE SUBSTR(C_PHONE, 1, 2) IN ('13', '31', '23', '29', '30', '18', '17')
    AND C_ACCTBAL > (
      SEL AVG(C_ACCTBAL) FROM CUSTOMER
      WHERE C_ACCTBAL > 0.00
        AND SUBSTR(C_PHONE, 1, 2)
          IN ('13', '31', '23', '29', '30', '18', '17'))
    AND NOT EXISTS (
      SEL * FROM ORDERS WHERE O_CUSTKEY = C_CUSTKEY)
) AS CUSTSALE
GROUP BY CNTRYCODE
ORDER BY CNTRYCODE)",
  };
  return kQueries;
}

}  // namespace hyperq::workload
