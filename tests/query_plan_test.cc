#include <gtest/gtest.h>

#include "data/generator.h"
#include "query/predicate.h"
#include "query/qep.h"
#include "query/query.h"

namespace edgelet::query {
namespace {

using data::Value;

// --- Predicates -----------------------------------------------------------

TEST(PredicateTest, NumericComparisons) {
  data::Schema schema({{"age", data::ValueType::kInt64}});
  data::Tuple row{Value(int64_t{70})};
  auto eval = [&](CompareOp op, int64_t lit) {
    Predicate p{"age", op, Value(lit)};
    auto r = p.Evaluate(row, schema);
    EXPECT_TRUE(r.ok());
    return *r;
  };
  EXPECT_TRUE(eval(CompareOp::kGt, 65));
  EXPECT_FALSE(eval(CompareOp::kGt, 70));
  EXPECT_TRUE(eval(CompareOp::kGe, 70));
  EXPECT_TRUE(eval(CompareOp::kLt, 80));
  EXPECT_TRUE(eval(CompareOp::kLe, 70));
  EXPECT_TRUE(eval(CompareOp::kEq, 70));
  EXPECT_TRUE(eval(CompareOp::kNe, 71));
  EXPECT_FALSE(eval(CompareOp::kNe, 70));
}

TEST(PredicateTest, MixedNumericTypesCompare) {
  data::Schema schema({{"bmi", data::ValueType::kDouble}});
  data::Tuple row{Value(27.5)};
  Predicate p{"bmi", CompareOp::kGt, Value(int64_t{25})};
  auto r = p.Evaluate(row, schema);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
}

TEST(PredicateTest, StringComparison) {
  data::Schema schema({{"sex", data::ValueType::kString}});
  data::Tuple row{Value("F")};
  Predicate p{"sex", CompareOp::kEq, Value("F")};
  EXPECT_TRUE(*p.Evaluate(row, schema));
}

TEST(PredicateTest, NullNeverMatches) {
  data::Schema schema({{"age", data::ValueType::kInt64}});
  data::Tuple row{Value::Null()};
  for (auto op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                  CompareOp::kGe}) {
    Predicate p{"age", op, Value(int64_t{1})};
    auto r = p.Evaluate(row, schema);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(*r);
  }
}

TEST(PredicateTest, TypeMismatchFails) {
  data::Schema schema({{"age", data::ValueType::kInt64}});
  data::Tuple row{Value(int64_t{70})};
  Predicate p{"age", CompareOp::kEq, Value("seventy")};
  EXPECT_FALSE(p.Evaluate(row, schema).ok());
}

TEST(PredicateTest, ApplyConjunction) {
  data::HealthDataParams params;
  params.num_individuals = 500;
  data::Table t = data::GenerateHealthData(params, 3);
  std::vector<Predicate> preds = {
      {"age", CompareOp::kGt, Value(int64_t{65})},
      {"sex", CompareOp::kEq, Value("F")}};
  auto filtered = ApplyPredicates(t, preds);
  ASSERT_TRUE(filtered.ok());
  EXPECT_GT(filtered->num_rows(), 0u);
  EXPECT_LT(filtered->num_rows(), t.num_rows());
  for (const auto& row : filtered->rows()) {
    EXPECT_GT(row[1].AsInt64(), 65);
    EXPECT_EQ(row[2].AsString(), "F");
  }
}

TEST(PredicateTest, ToStringReadable) {
  Predicate p{"age", CompareOp::kGt, Value(int64_t{65})};
  EXPECT_EQ(p.ToString(), "age > 65");
  Predicate q{"sex", CompareOp::kEq, Value("F")};
  EXPECT_EQ(q.ToString(), "sex = 'F'");
}

// --- Query -----------------------------------------------------------------

Query DemoGroupingSetsQuery() {
  Query q;
  q.name = "health survey";
  q.kind = QueryKind::kGroupingSets;
  q.predicates = {{"age", CompareOp::kGt, Value(int64_t{65})}};
  q.snapshot_cardinality = 2000;
  q.grouping_sets =
      GroupingSetsSpec{{{"region"}, {"sex"}},
                       {{AggregateFunction::kCount, "*"},
                        {AggregateFunction::kAvg, "bmi"}}};
  return q;
}

Query DemoKMeansQuery() {
  Query q;
  q.name = "dependency clustering";
  q.kind = QueryKind::kKMeans;
  q.snapshot_cardinality = 2000;
  q.kmeans.k = 4;
  q.kmeans.features = data::HealthNumericFeatures();
  q.kmeans.cluster_aggregates = {{AggregateFunction::kAvg, "dependency"}};
  return q;
}

TEST(QueryTest, RequiredColumnsGroupingSets) {
  Query q = DemoGroupingSetsQuery();
  EXPECT_EQ(q.RequiredColumns(),
            (std::vector<std::string>{"region", "sex", "bmi"}));
}

TEST(QueryTest, RequiredColumnsKMeans) {
  Query q = DemoKMeansQuery();
  auto cols = q.RequiredColumns();
  EXPECT_EQ(cols.size(), 5u);  // 4 features + dependency
}

TEST(QueryTest, ValidateAgainstSchema) {
  data::Schema schema = data::HealthSchema();
  EXPECT_TRUE(DemoGroupingSetsQuery().Validate(schema).ok());
  EXPECT_TRUE(DemoKMeansQuery().Validate(schema).ok());

  Query bad = DemoGroupingSetsQuery();
  bad.grouping_sets.sets[0][0] = "ghost_column";
  EXPECT_FALSE(bad.Validate(schema).ok());

  Query bad2 = DemoKMeansQuery();
  bad2.kmeans.k = 0;
  EXPECT_FALSE(bad2.Validate(schema).ok());

  Query bad3 = DemoKMeansQuery();
  bad3.kmeans.features = {"sex"};  // not numeric
  EXPECT_FALSE(bad3.Validate(schema).ok());

  Query bad4 = DemoGroupingSetsQuery();
  bad4.snapshot_cardinality = 0;
  EXPECT_FALSE(bad4.Validate(schema).ok());

  Query bad5 = DemoGroupingSetsQuery();
  bad5.grouping_sets.aggregates.clear();
  EXPECT_FALSE(bad5.Validate(schema).ok());
}

TEST(QueryTest, ValidateRejectsQuantileOverNonNumericColumn) {
  data::Schema schema = data::HealthSchema();
  const AggregateSpec median{AggregateFunction::kQuantile, "region", 0.5};
  Query gs = DemoGroupingSetsQuery();
  gs.grouping_sets.aggregates.push_back(median);
  EXPECT_FALSE(gs.Validate(schema).ok());
  Query km = DemoKMeansQuery();
  km.kmeans.cluster_aggregates.push_back(median);
  EXPECT_FALSE(km.Validate(schema).ok());

  // The same sketch over a numeric column is fine.
  gs.grouping_sets.aggregates.back().column = "bmi";
  km.kmeans.cluster_aggregates.back().column = "bmi";
  EXPECT_TRUE(gs.Validate(schema).ok());
  EXPECT_TRUE(km.Validate(schema).ok());
}

// --- QEP ---------------------------------------------------------------------

Qep SmallPlan() {
  Qep qep;
  qep.SetPartitioning(2, 1);
  uint64_t querier = qep.AddVertex({.role = OperatorRole::kQuerier});
  uint64_t combiner = qep.AddVertex({.role = OperatorRole::kCombiner});
  uint64_t backup = qep.AddVertex({.role = OperatorRole::kCombinerBackup});
  EXPECT_TRUE(qep.AddEdge(combiner, querier).ok());
  EXPECT_TRUE(qep.AddEdge(backup, querier).ok());
  for (int p = 0; p < 3; ++p) {
    uint64_t sb = qep.AddVertex({.role = OperatorRole::kSnapshotBuilder,
                                 .partition = p,
                                 .attributes = {"region", "bmi"}});
    uint64_t comp = qep.AddVertex({.role = OperatorRole::kComputer,
                                   .partition = p,
                                   .vgroup = 0,
                                   .attributes = {"region", "bmi"}});
    EXPECT_TRUE(qep.AddEdge(sb, comp).ok());
    EXPECT_TRUE(qep.AddEdge(comp, combiner).ok());
    EXPECT_TRUE(qep.AddEdge(comp, backup).ok());
  }
  return qep;
}

TEST(QepTest, RolesAndCounts) {
  Qep qep = SmallPlan();
  EXPECT_EQ(qep.CountByRole(OperatorRole::kSnapshotBuilder), 3u);
  EXPECT_EQ(qep.CountByRole(OperatorRole::kComputer), 3u);
  EXPECT_EQ(qep.CountByRole(OperatorRole::kCombiner), 1u);
  EXPECT_EQ(qep.CountByRole(OperatorRole::kQuerier), 1u);
  EXPECT_EQ(qep.total_partitions(), 3);
}

TEST(QepTest, ValidatePasses) {
  Qep qep = SmallPlan();
  EXPECT_TRUE(qep.Validate().ok()) << qep.Validate().ToString();
}

TEST(QepTest, ValidateCatchesMissingCombiner) {
  Qep qep;
  qep.AddVertex({.role = OperatorRole::kQuerier});
  EXPECT_FALSE(qep.Validate().ok());
}

TEST(QepTest, ValidateCatchesNonTerminalQuerier) {
  Qep qep;
  uint64_t q1 = qep.AddVertex({.role = OperatorRole::kQuerier});
  uint64_t c = qep.AddVertex({.role = OperatorRole::kCombiner});
  ASSERT_TRUE(qep.AddEdge(q1, c).ok());
  EXPECT_FALSE(qep.Validate().ok());
}

TEST(QepTest, ValidateCatchesPartitionOutOfRange) {
  Qep qep = SmallPlan();
  qep.SetPartitioning(1, 0);  // 3 partitions now out of range
  EXPECT_FALSE(qep.Validate().ok());
}

TEST(QepTest, ValidateCatchesDanglingProcessor) {
  Qep qep = SmallPlan();
  qep.AddVertex({.role = OperatorRole::kComputer, .partition = 0});
  EXPECT_FALSE(qep.Validate().ok());
}

TEST(QepTest, AddEdgeBoundsChecked) {
  Qep qep;
  EXPECT_FALSE(qep.AddEdge(0, 1).ok());
}

TEST(QepTest, ToStringMentionsStructure) {
  Qep qep = SmallPlan();
  std::string s = qep.ToString();
  EXPECT_NE(s.find("n=2"), std::string::npos);
  EXPECT_NE(s.find("m=1"), std::string::npos);
  EXPECT_NE(s.find("SnapshotBuilder x3"), std::string::npos);
  EXPECT_NE(s.find("Computer x3"), std::string::npos);
}

}  // namespace
}  // namespace edgelet::query
