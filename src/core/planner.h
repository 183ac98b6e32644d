#ifndef EDGELET_CORE_PLANNER_H_
#define EDGELET_CORE_PLANNER_H_

#include "exec/execution.h"
#include "privacy/exposure.h"
#include "resilience/overcollection.h"

namespace edgelet::core {

// Privacy knobs the demo lets attendees turn (paper §3.2 Part 1):
// horizontal partitioning via the per-edgelet raw-tuple cap, vertical
// partitioning via attribute-pair separation constraints.
struct PrivacyConfig {
  // Maximum raw tuples any single Data Processor edgelet may hold
  // (0 = unbounded => a single partition). Drives n = ceil(C / cap).
  uint64_t max_tuples_per_edgelet = 0;
  // Attribute pairs that must never co-reside (quasi-identifiers).
  std::vector<privacy::SeparationConstraint> separation;
  // Optional cap on attributes per computer (0 = unbounded).
  size_t max_attributes_per_group = 0;
};

// Execution-context traits that drive the strategy choice (the taxonomy
// of [14]: Overcollection wherever the processing is distributive and
// approximate results are acceptable; Backup otherwise, at a higher cost).
struct StrategyContext {
  // The querier demands the exact snapshot (no resampling tolerance).
  bool exact_result_required = false;
  // The crowd is barely larger than the snapshot: overcollecting
  // (n+m)/n times the data is not feasible.
  bool crowd_is_scarce = false;
};

// Recommends a resiliency strategy for `query` under `context`. Both demo
// queries are distributive, so Overcollection is the default; Backup is
// selected when the context rules Overcollection out.
exec::Strategy RecommendStrategy(const query::Query& query,
                                 const StrategyContext& context);

// The planner of the Edgelet framework: turns (query, privacy, resilience,
// strategy) into a physical Deployment, exactly the plan-shaping the demo
// visualizes — Figure 2 (partitioned QEP) and Figure 3 (Overcollection).
class Planner {
 public:
  explicit Planner(data::Schema schema) : schema_(std::move(schema)) {}

  struct Input {
    query::Query query;
    PrivacyConfig privacy;
    resilience::ResilienceConfig resilience;
    exec::Strategy strategy = exec::Strategy::kOvercollection;
    // Rank-ordered candidate hosts for Data Processor operators.
    std::vector<net::NodeId> processor_pool;
    net::NodeId querier = 0;
    // The count of the QEP's contributor leaf; does not affect execution.
    size_t num_contributors = 0;
    uint64_t seed = 1;
  };

  Result<exec::Deployment> Plan(const Input& input) const;

  // Plan-time exposure analysis for a deployment (demo Q3).
  static privacy::ExposureReport Exposure(const exec::Deployment& deployment);

 private:
  data::Schema schema_;
};

}  // namespace edgelet::core

#endif  // EDGELET_CORE_PLANNER_H_
