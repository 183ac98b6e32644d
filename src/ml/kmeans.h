#ifndef EDGELET_ML_KMEANS_H_
#define EDGELET_ML_KMEANS_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "common/status.h"
#include "data/column_table.h"

namespace edgelet::ml {

// Row-major points / centroids: points[i] is a d-dimensional vector.
using Matrix = std::vector<std::vector<double>>;

// Extracts the named numeric feature columns of `view` into a point
// matrix, reading the typed columns straight from its store. Fails on a
// string or NULL cell.
Result<Matrix> ExtractPoints(const data::TableView& view,
                             const std::vector<std::string>& features);

double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b);

// The "knowledge" exchanged between K-Means Computers (paper §2.2): the
// centroids plus per-centroid weights so merging computes the exact
// barycenter of the contributing partitions.
struct KMeansKnowledge {
  Matrix centroids;
  std::vector<uint64_t> counts;  // points assigned to each centroid

  void Serialize(Writer* w) const;
  static Result<KMeansKnowledge> Deserialize(Reader* r);
  bool operator==(const KMeansKnowledge& other) const {
    return centroids == other.centroids && counts == other.counts;
  }
};

// k-means++ seeding (deterministic for a given rng state). Requires
// points.size() >= 1; with fewer distinct points than k, duplicates fill
// the remainder.
Result<Matrix> KMeansPlusPlusInit(const Matrix& points, int k, Rng* rng);

// One Lloyd iteration from `centroids`: assign + recompute. Empty clusters
// keep their previous centroid. Returns the updated knowledge and the
// assignment inertia (sum of squared distances under the *input*
// centroids).
struct LloydStep {
  KMeansKnowledge knowledge;
  double inertia = 0.0;
};
Result<LloydStep> RunLloydStep(const Matrix& points, const Matrix& centroids);

// One Mini-batch K-Means step (Sculley, WWW'10 — cited by the paper for
// tolerating per-iteration resampling): samples `batch_size` points,
// assigns them, and moves each touched centroid toward the batch mean with
// a per-centroid learning rate 1/assignments_so_far. `counts` carries the
// cumulative per-centroid assignment counters across steps.
Status RunMiniBatchStep(const Matrix& points, size_t batch_size, Rng* rng,
                        Matrix* centroids, std::vector<uint64_t>* counts);

// Full centralized Mini-batch K-Means (++ init, `iterations` batches).
struct MiniBatchConfig {
  int k = 4;
  size_t batch_size = 32;
  int iterations = 50;
  uint64_t seed = 1;
};
Result<KMeansKnowledge> RunMiniBatchKMeans(const Matrix& points,
                                           const MiniBatchConfig& config);

// Full centralized K-Means: ++ init then Lloyd until convergence (centroid
// movement below tolerance) or max_iterations.
struct KMeansConfig {
  int k = 4;
  int max_iterations = 50;
  double tolerance = 1e-6;
  uint64_t seed = 1;
};
Result<KMeansKnowledge> RunKMeans(const Matrix& points,
                                  const KMeansConfig& config);

// Merges knowledge from several computers: per-index weighted barycenter
// (paper §2.2: "the barycenter for each centroid"). All inputs must agree
// on k and dimension; zero-weight centroids fall back to the first input's
// coordinates.
Result<KMeansKnowledge> MergeKnowledge(
    const std::vector<KMeansKnowledge>& parts);

// Sum of squared distances from each point to its closest centroid.
Result<double> Inertia(const Matrix& points, const Matrix& centroids);

// Index of the closest centroid for each point.
Result<std::vector<int>> Assign(const Matrix& points, const Matrix& centroids);

}  // namespace edgelet::ml

#endif  // EDGELET_ML_KMEANS_H_
