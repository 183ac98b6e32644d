#ifndef EDGELET_QUERY_QEP_H_
#define EDGELET_QUERY_QEP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace edgelet::query {

// Roles of the operators in an Edgelet Query Execution Plan (paper §2.1).
enum class OperatorRole : uint8_t {
  kDataContributor = 0,  // the contributing edgelets: one counted leaf
  kSnapshotBuilder = 1,  // collects a representative partition of size C/n
  kComputer = 2,         // computes on one (partition, vertical-group) slice
  kCombiner = 3,         // Computing Combiner: merges partials
  kCombinerBackup = 4,   // Active Backup of the combiner (runs in parallel)
  kQuerier = 5,          // receives the final result
};

std::string_view OperatorRoleName(OperatorRole role);

// A vertex of the QEP: an operator instance, its data slice, the
// attributes it sees in cleartext, and its dataflow edges.
struct OperatorVertex {
  uint64_t id = 0;
  OperatorRole role = OperatorRole::kDataContributor;
  // Horizontal partition index in [0, n+m) for builders/computers; -1
  // otherwise.
  int partition = -1;
  // Vertical group index for computers; -1 when not vertically partitioned.
  int vgroup = -1;
  // Attributes this operator decrypts (exposure accounting input).
  std::vector<std::string> attributes;
  // Grouping-set indices this computer evaluates (GROUPING SETS queries).
  std::vector<size_t> set_indices;
  // Ids of vertices receiving this operator's output.
  std::vector<uint64_t> downstream;
  // Device (net::NodeId) hosting the operator; 0 until assignment.
  uint64_t device = 0;
  // Operator instances this vertex stands for: the contributor tier is one
  // leaf counting every contributor device, so a plan's size does not grow
  // with the crowd. 1 for every other role.
  uint64_t count = 1;
};

// Query Execution Plan: a DAG of operators. Built by the planner
// (core/planner.h) from the query + privacy + resilience configuration;
// rendered shapes correspond to the paper's Figures 2 and 3.
class Qep {
 public:
  Qep() = default;

  uint64_t AddVertex(OperatorVertex v);

  size_t num_vertices() const { return vertices_.size(); }
  const OperatorVertex& vertex(uint64_t id) const;
  OperatorVertex& mutable_vertex(uint64_t id);
  const std::vector<OperatorVertex>& vertices() const { return vertices_; }

  std::vector<const OperatorVertex*> ByRole(OperatorRole role) const;
  // Operator instances of `role`: the sum of its vertices' counts.
  size_t CountByRole(OperatorRole role) const;

  // Horizontal partitioning parameters (Overcollection: n + m partitions).
  void SetPartitioning(int n, int m) {
    n_ = n;
    m_ = m;
  }
  int n() const { return n_; }
  int m() const { return m_; }
  int total_partitions() const { return n_ + m_; }

  void set_num_vertical_groups(int g) { num_vertical_groups_ = g; }
  int num_vertical_groups() const { return num_vertical_groups_; }

  Status AddEdge(uint64_t from, uint64_t to);

  // Sanity checks: edges resolve, partition indices in range, combiner
  // present, querier terminal.
  Status Validate() const;

  // Figure-2/3-style textual rendering of the plan.
  std::string ToString() const;

 private:
  std::vector<OperatorVertex> vertices_;  // vertices_[i].id == i
  int n_ = 1;
  int m_ = 0;
  int num_vertical_groups_ = 1;
};

}  // namespace edgelet::query

#endif  // EDGELET_QUERY_QEP_H_
