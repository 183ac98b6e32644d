#ifndef EDGELET_DATA_GENERATOR_H_
#define EDGELET_DATA_GENERATOR_H_

#include <cstdint>

#include "common/rng.h"
#include "data/column_table.h"
#include "data/table.h"

namespace edgelet::data {

// Synthetic stand-in for the DomYcile population (the paper's field data:
// 8,000 elderly people receiving home care in the Yvelines district, whose
// medical records live on secure home boxes). Records carry demographic and
// clinical attributes plus a dependency level; rows are drawn from latent
// profiles so clustering experiments (K-Means) have recoverable structure.
//
// Schema:
//   contributor_id INT64   -- stable id of the owning individual: row + 1
//   age            INT64   -- years
//   sex            STRING  -- "F" / "M"
//   region         STRING  -- district name
//   bmi            DOUBLE  -- body-mass index
//   systolic_bp    DOUBLE  -- mm Hg
//   chronic_count  INT64   -- number of chronic conditions
//   dependency     INT64   -- GIR-style dependency level, 1 (high) .. 6 (low)
//   latent_profile INT64   -- ground-truth cluster (kept for evaluation only;
//                              never sent to data processors)
struct HealthDataParams {
  uint64_t num_individuals = 1000;
  // Number of latent health profiles (ground truth for clustering).
  int num_profiles = 4;
  // Minimum age of the generated population (the demo query targets > 65).
  int min_age = 60;
  int max_age = 100;
};

// Columns that identify the latent structure; excluded from query payloads.
inline constexpr char kLatentProfileColumn[] = "latent_profile";
inline constexpr char kContributorIdColumn[] = "contributor_id";

Schema HealthSchema();

// Deterministic for a given (params, seed). Streams rows directly into
// one columnar slab — the representation crowd-scale populations live in
// (the framework shares it with every device through TableViews).
ColumnTable GenerateHealthColumns(const HealthDataParams& params,
                                  uint64_t seed);

// Row-store variant: same values, materialized as tuples. Small
// populations and tests only — at crowd scale use GenerateHealthColumns.
Table GenerateHealthData(const HealthDataParams& params, uint64_t seed);

// Convenience: the attribute names holding numeric clinical features used
// by K-Means experiments.
std::vector<std::string> HealthNumericFeatures();

}  // namespace edgelet::data

#endif  // EDGELET_DATA_GENERATOR_H_
