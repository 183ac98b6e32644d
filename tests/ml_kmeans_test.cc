#include "ml/kmeans.h"

#include <gtest/gtest.h>

#include <cmath>

#include "data/generator.h"
#include "data/partition.h"
#include "ml/metrics.h"
#include "table_views.h"

namespace edgelet::ml {
namespace {

// Three well-separated 2-D blobs.
Matrix Blobs(int per_blob, uint64_t seed) {
  Rng rng(seed);
  const double centers[3][2] = {{0, 0}, {10, 10}, {-10, 10}};
  Matrix points;
  for (int b = 0; b < 3; ++b) {
    for (int i = 0; i < per_blob; ++i) {
      points.push_back({centers[b][0] + rng.NextGaussian() * 0.5,
                        centers[b][1] + rng.NextGaussian() * 0.5});
    }
  }
  return points;
}

TEST(KMeansTest, SquaredDistance) {
  EXPECT_DOUBLE_EQ(SquaredDistance({0, 0}, {3, 4}), 25.0);
  EXPECT_DOUBLE_EQ(SquaredDistance({1, 1}, {1, 1}), 0.0);
}

TEST(KMeansTest, ExtractPoints) {
  data::HealthDataParams params;
  params.num_individuals = 50;
  const data::TableView t =
      testutil::ViewOf(data::GenerateHealthColumns(params, 2));
  auto points = ExtractPoints(t, {"age", "bmi"});
  ASSERT_TRUE(points.ok());
  EXPECT_EQ(points->size(), 50u);
  EXPECT_EQ((*points)[0].size(), 2u);
  EXPECT_FALSE(ExtractPoints(t, {"sex"}).ok());  // non-numeric
  EXPECT_FALSE(ExtractPoints(t, {"ghost"}).ok());
}

TEST(KMeansTest, PlusPlusInitPicksDistinctSpreadCentroids) {
  Matrix points = Blobs(50, 1);
  Rng rng(5);
  auto centroids = KMeansPlusPlusInit(points, 3, &rng);
  ASSERT_TRUE(centroids.ok());
  EXPECT_EQ(centroids->size(), 3u);
  // Spread: pairwise distance should be large (one per blob with high
  // probability thanks to D^2 weighting).
  double min_pair = 1e18;
  for (int i = 0; i < 3; ++i) {
    for (int j = i + 1; j < 3; ++j) {
      min_pair = std::min(min_pair,
                          SquaredDistance((*centroids)[i], (*centroids)[j]));
    }
  }
  EXPECT_GT(min_pair, 25.0);
}

TEST(KMeansTest, PlusPlusHandlesDegenerateInputs) {
  Rng rng(1);
  Matrix identical(10, {1.0, 2.0});
  auto c = KMeansPlusPlusInit(identical, 3, &rng);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->size(), 3u);
  EXPECT_FALSE(KMeansPlusPlusInit({}, 2, &rng).ok());
  EXPECT_FALSE(KMeansPlusPlusInit(identical, 0, &rng).ok());
}

TEST(KMeansTest, LloydStepReducesInertia) {
  Matrix points = Blobs(100, 3);
  Rng rng(7);
  auto init = KMeansPlusPlusInit(points, 3, &rng);
  ASSERT_TRUE(init.ok());
  auto s1 = RunLloydStep(points, *init);
  ASSERT_TRUE(s1.ok());
  auto s2 = RunLloydStep(points, s1->knowledge.centroids);
  ASSERT_TRUE(s2.ok());
  EXPECT_LE(s2->inertia, s1->inertia + 1e-9);
}

TEST(KMeansTest, LloydCountsSumToPoints) {
  Matrix points = Blobs(40, 9);
  Rng rng(11);
  auto init = KMeansPlusPlusInit(points, 3, &rng);
  ASSERT_TRUE(init.ok());
  auto step = RunLloydStep(points, *init);
  ASSERT_TRUE(step.ok());
  uint64_t total = 0;
  for (uint64_t c : step->knowledge.counts) total += c;
  EXPECT_EQ(total, points.size());
}

TEST(KMeansTest, EmptyClusterKeepsCentroid) {
  Matrix points = {{0, 0}, {0.1, 0}};
  Matrix centroids = {{0, 0}, {100, 100}};  // second gets nothing
  auto step = RunLloydStep(points, centroids);
  ASSERT_TRUE(step.ok());
  EXPECT_EQ(step->knowledge.counts[1], 0u);
  EXPECT_EQ(step->knowledge.centroids[1], (std::vector<double>{100, 100}));
}

TEST(KMeansTest, FullRunRecoversBlobs) {
  Matrix points = Blobs(100, 13);
  KMeansConfig config;
  config.k = 3;
  config.seed = 4;
  auto result = RunKMeans(points, config);
  ASSERT_TRUE(result.ok());
  auto inertia = Inertia(points, result->centroids);
  ASSERT_TRUE(inertia.ok());
  // Blobs have sigma 0.5 in 2D: per-point E[d^2] ~ 0.5, total ~150.
  EXPECT_LT(*inertia, 400.0);
  // Each recovered centroid is near one of the true centers.
  Matrix truth = {{0, 0}, {10, 10}, {-10, 10}};
  auto rmse = MatchedCentroidRmse(result->centroids, truth);
  ASSERT_TRUE(rmse.ok());
  EXPECT_LT(*rmse, 0.5);
}

TEST(KMeansTest, DeterministicForSeed) {
  Matrix points = Blobs(60, 17);
  KMeansConfig config;
  config.k = 3;
  config.seed = 21;
  auto a = RunKMeans(points, config);
  auto b = RunKMeans(points, config);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(KMeansTest, MergeKnowledgeWeightedBarycenter) {
  KMeansKnowledge a{{{0.0, 0.0}}, {10}};
  KMeansKnowledge b{{{10.0, 10.0}}, {30}};
  auto merged = MergeKnowledge({a, b});
  ASSERT_TRUE(merged.ok());
  EXPECT_DOUBLE_EQ(merged->centroids[0][0], 7.5);
  EXPECT_EQ(merged->counts[0], 40u);
}

TEST(KMeansTest, MergeHandlesZeroWeights) {
  KMeansKnowledge a{{{5.0, 5.0}}, {0}};
  KMeansKnowledge b{{{9.0, 9.0}}, {0}};
  auto merged = MergeKnowledge({a, b});
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->centroids[0], (std::vector<double>{5.0, 5.0}));
}

TEST(KMeansTest, MergeShapeMismatchFails) {
  KMeansKnowledge a{{{1.0, 2.0}}, {1}};
  KMeansKnowledge b{{{1.0, 2.0}, {3.0, 4.0}}, {1, 1}};
  EXPECT_FALSE(MergeKnowledge({a, b}).ok());
  EXPECT_FALSE(MergeKnowledge({}).ok());
}

TEST(KMeansTest, KnowledgeSerializationRoundTrip) {
  KMeansKnowledge k{{{1.5, -2.5}, {3.0, 4.0}}, {7, 9}};
  Writer w;
  k.Serialize(&w);
  Reader r(w.data());
  auto back = KMeansKnowledge::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, k);
}

// The federated property the paper's execution relies on: one global Lloyd
// step == merging per-partition Lloyd steps computed from the SAME
// centroids.
TEST(KMeansTest, DistributedLloydStepEqualsCentralized) {
  Matrix points = Blobs(80, 23);
  Rng rng(3);
  auto init = KMeansPlusPlusInit(points, 3, &rng);
  ASSERT_TRUE(init.ok());

  auto central = RunLloydStep(points, *init);
  ASSERT_TRUE(central.ok());

  // Split points into 4 arbitrary partitions.
  std::vector<Matrix> parts(4);
  for (size_t i = 0; i < points.size(); ++i) {
    parts[i % 4].push_back(points[i]);
  }
  std::vector<KMeansKnowledge> partials;
  for (const auto& p : parts) {
    auto step = RunLloydStep(p, *init);
    ASSERT_TRUE(step.ok());
    partials.push_back(step->knowledge);
  }
  auto merged = MergeKnowledge(partials);
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(merged->centroids.size(), central->knowledge.centroids.size());
  for (size_t c = 0; c < merged->centroids.size(); ++c) {
    EXPECT_EQ(merged->counts[c], central->knowledge.counts[c]);
    for (size_t d = 0; d < merged->centroids[c].size(); ++d) {
      EXPECT_NEAR(merged->centroids[c][d],
                  central->knowledge.centroids[c][d], 1e-9);
    }
  }
}

TEST(KMeansTest, AssignFindsNearest) {
  Matrix centroids = {{0, 0}, {10, 0}};
  auto a = Assign({{1, 0}, {9, 0}, {4.9, 0}, {5.1, 0}}, centroids);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, (std::vector<int>{0, 1, 0, 1}));
}

TEST(KMeansTest, AssignValidatesInputs) {
  EXPECT_FALSE(Assign({{1, 2}}, {}).ok());
  EXPECT_FALSE(Assign({{1, 2, 3}}, {{1, 2}}).ok());
}

// --- Metrics -----------------------------------------------------------------

TEST(HungarianTest, IdentityAssignment) {
  Matrix cost = {{0, 9, 9}, {9, 0, 9}, {9, 9, 0}};
  auto a = HungarianAssign(cost);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, (std::vector<int>{0, 1, 2}));
}

TEST(HungarianTest, PermutedAssignment) {
  Matrix cost = {{9, 0, 9}, {9, 9, 0}, {0, 9, 9}};
  auto a = HungarianAssign(cost);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, (std::vector<int>{1, 2, 0}));
}

TEST(HungarianTest, MinimizesTotalCost) {
  Matrix cost = {{4, 1, 3}, {2, 0, 5}, {3, 2, 2}};
  auto a = HungarianAssign(cost);
  ASSERT_TRUE(a.ok());
  double total = 0;
  for (int i = 0; i < 3; ++i) total += cost[i][(*a)[i]];
  EXPECT_DOUBLE_EQ(total, 5.0);  // 1 + 2 + 2
}

TEST(HungarianTest, RejectsBadMatrices) {
  EXPECT_FALSE(HungarianAssign({}).ok());
  EXPECT_FALSE(HungarianAssign({{1, 2}, {3}}).ok());
}

TEST(MetricsTest, MatchedRmseInvariantToPermutation) {
  Matrix a = {{0, 0}, {10, 10}};
  Matrix b = {{10, 10}, {0, 0}};  // same set, swapped
  auto rmse = MatchedCentroidRmse(a, b);
  ASSERT_TRUE(rmse.ok());
  EXPECT_NEAR(*rmse, 0.0, 1e-12);
}

TEST(MetricsTest, MatchedRmseMeasuresDrift) {
  Matrix a = {{0, 0}};
  Matrix b = {{3, 4}};
  auto rmse = MatchedCentroidRmse(a, b);
  ASSERT_TRUE(rmse.ok());
  EXPECT_NEAR(*rmse, 5.0 / std::sqrt(2.0), 1e-9);
}

TEST(MetricsTest, InertiaRatioAtLeastOneForWorseCentroids) {
  Matrix points = Blobs(60, 29);
  KMeansConfig config;
  config.k = 3;
  auto good = RunKMeans(points, config);
  ASSERT_TRUE(good.ok());
  Matrix bad = {{0, 0}, {1, 0}, {0, 1}};  // all near one blob
  auto ratio = InertiaRatio(points, bad, good->centroids);
  ASSERT_TRUE(ratio.ok());
  EXPECT_GT(*ratio, 1.0);
}

TEST(MetricsTest, RandIndex) {
  EXPECT_DOUBLE_EQ(*RandIndex({0, 0, 1, 1}, {1, 1, 0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(*RandIndex({0, 1, 0, 1}, {0, 0, 1, 1}), 1.0 / 3.0);
  EXPECT_FALSE(RandIndex({0}, {0, 1}).ok());
  EXPECT_DOUBLE_EQ(*RandIndex({0}, {5}), 1.0);
}

}  // namespace
}  // namespace edgelet::ml
