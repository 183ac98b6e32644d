#ifndef EDGELET_QUERY_QUERY_H_
#define EDGELET_QUERY_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/grouping_sets.h"
#include "query/predicate.h"

namespace edgelet::query {

enum class QueryKind : uint8_t {
  // Demo query (i): GROUPING SETS over the snapshot.
  kGroupingSets = 0,
  // Demo query (ii): K-Means over clinical features, followed by a Group-By
  // on the resulting clusters.
  kKMeans = 1,
};

std::string_view QueryKindName(QueryKind kind);

// K-Means parameters carried by the query. The iterative execution itself
// (heartbeats, knowledge exchange) lives in exec/; the numerical kernel in
// ml/.
struct KMeansQuerySpec {
  int k = 4;
  std::vector<std::string> features;
  // Lloyd iterations run in each local-convergence phase between two
  // heartbeats (paper §2.2: phase 1).
  int local_iterations = 2;
  // When > 0, each local-convergence phase resamples a mini-batch of this
  // size instead of sweeping the whole partition (Mini-batch K-Means —
  // the paper notes resampling per iteration "sometimes even produces
  // better accuracy").
  int64_t batch_size = 0;
  // Aggregates reported per final cluster (the "Group By on the resulting
  // clusters" of demo query ii). Always includes COUNT implicitly.
  std::vector<AggregateSpec> cluster_aggregates;

  bool operator==(const KMeansQuerySpec& other) const {
    return k == other.k && features == other.features &&
           local_iterations == other.local_iterations &&
           batch_size == other.batch_size &&
           cluster_aggregates == other.cluster_aggregates;
  }
};

// A complete Edgelet query: what Santé Publique France (the Querier)
// submits. Contributor-side selection + snapshot cardinality + the
// processing to run.
struct Query {
  uint64_t query_id = 1;
  std::string name;
  QueryKind kind = QueryKind::kGroupingSets;

  // Contributor-side selection (e.g. age > 65), evaluated inside each
  // contributor's enclave.
  std::vector<Predicate> predicates;

  // Snapshot cardinality C: how many qualifying individuals the result
  // must represent.
  uint64_t snapshot_cardinality = 1000;

  GroupingSetsSpec grouping_sets;  // when kind == kGroupingSets
  KMeansQuerySpec kmeans;          // when kind == kKMeans

  // Every data column the processing touches (excluding predicate-only
  // columns, which never leave the contributor).
  std::vector<std::string> RequiredColumns() const;

  // Structural validation against the shared schema.
  Status Validate(const data::Schema& schema) const;
};

}  // namespace edgelet::query

#endif  // EDGELET_QUERY_QUERY_H_
