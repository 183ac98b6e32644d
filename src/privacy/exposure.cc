#include "privacy/exposure.h"

#include <algorithm>
#include <sstream>

namespace edgelet::privacy {

ExposureReport ComputeExposure(const query::Qep& qep,
                               uint64_t snapshot_cardinality) {
  ExposureReport report;
  const int n = std::max(qep.n(), 1);
  const uint64_t partition_quota =
      (snapshot_cardinality + n - 1) / static_cast<uint64_t>(n);

  for (const auto& v : qep.vertices()) {
    OperatorExposure e;
    e.vertex_id = v.id;
    e.role = std::string(query::OperatorRoleName(v.role));
    switch (v.role) {
      case query::OperatorRole::kDataContributor:
        // One leaf for the whole tier. Each contributor sees only its own
        // record: exposure 1 tuple, but it is the owner's data — not
        // counted as leakage.
        e.tuples = 0;
        break;
      case query::OperatorRole::kSnapshotBuilder:
      case query::OperatorRole::kComputer:
        e.tuples = partition_quota;
        break;
      case query::OperatorRole::kCombiner:
      case query::OperatorRole::kCombinerBackup:
      case query::OperatorRole::kQuerier:
        // Receives only aggregates.
        e.tuples = 0;
        break;
    }
    e.num_attributes = v.attributes.size();
    e.cells = e.tuples * e.num_attributes;
    report.max_tuples_per_edgelet =
        std::max(report.max_tuples_per_edgelet, e.tuples);
    report.max_cells_per_edgelet =
        std::max(report.max_cells_per_edgelet, e.cells);
    report.total_cells += e.cells;
    report.per_operator.push_back(std::move(e));
  }
  if (snapshot_cardinality > 0) {
    report.worst_snapshot_fraction =
        static_cast<double>(report.max_tuples_per_edgelet) /
        static_cast<double>(snapshot_cardinality);
  }
  return report;
}

Status ValidateSeparation(
    const query::Qep& qep,
    const std::vector<SeparationConstraint>& constraints) {
  for (const auto& v : qep.vertices()) {
    // Contributors hold their own full record by definition.
    if (v.role == query::OperatorRole::kDataContributor) continue;
    if (ViolatesSeparation(v.attributes, constraints)) {
      return Status::FailedPrecondition(
          "operator " + std::to_string(v.id) + " (" +
          std::string(query::OperatorRoleName(v.role)) +
          ") co-exposes a separated attribute pair");
    }
  }
  return Status::OK();
}

std::string ExposureReport::ToString() const {
  std::ostringstream out;
  out << "Exposure report (sealed-glass threat model)\n";
  out << "  max raw tuples on one edgelet : " << max_tuples_per_edgelet
      << "\n";
  out << "  max raw cells on one edgelet  : " << max_cells_per_edgelet
      << "\n";
  out << "  worst snapshot fraction       : " << worst_snapshot_fraction
      << "\n";
  return out.str();
}

}  // namespace edgelet::privacy
