#include "query/qep.h"

#include <cassert>
#include <sstream>

namespace edgelet::query {

std::string_view OperatorRoleName(OperatorRole role) {
  switch (role) {
    case OperatorRole::kDataContributor:
      return "DataContributor";
    case OperatorRole::kSnapshotBuilder:
      return "SnapshotBuilder";
    case OperatorRole::kComputer:
      return "Computer";
    case OperatorRole::kCombiner:
      return "Combiner";
    case OperatorRole::kCombinerBackup:
      return "CombinerBackup";
    case OperatorRole::kQuerier:
      return "Querier";
  }
  return "?";
}

uint64_t Qep::AddVertex(OperatorVertex v) {
  v.id = vertices_.size();
  vertices_.push_back(std::move(v));
  return vertices_.back().id;
}

const OperatorVertex& Qep::vertex(uint64_t id) const {
  assert(id < vertices_.size());
  return vertices_[id];
}

OperatorVertex& Qep::mutable_vertex(uint64_t id) {
  assert(id < vertices_.size());
  return vertices_[id];
}

std::vector<const OperatorVertex*> Qep::ByRole(OperatorRole role) const {
  std::vector<const OperatorVertex*> out;
  for (const auto& v : vertices_) {
    if (v.role == role) out.push_back(&v);
  }
  return out;
}

size_t Qep::CountByRole(OperatorRole role) const {
  size_t total = 0;
  for (const auto& v : vertices_) {
    if (v.role == role) total += v.count;
  }
  return total;
}

Status Qep::AddEdge(uint64_t from, uint64_t to) {
  if (from >= vertices_.size() || to >= vertices_.size()) {
    return Status::OutOfRange("QEP edge endpoint out of range");
  }
  vertices_[from].downstream.push_back(to);
  return Status::OK();
}

Status Qep::Validate() const {
  if (n_ < 1 || m_ < 0) {
    return Status::FailedPrecondition("bad partitioning: n=" +
                                      std::to_string(n_) + " m=" +
                                      std::to_string(m_));
  }
  size_t queriers = 0, combiners = 0;
  for (const auto& v : vertices_) {
    for (uint64_t d : v.downstream) {
      if (d >= vertices_.size()) {
        return Status::FailedPrecondition("dangling QEP edge");
      }
    }
    switch (v.role) {
      case OperatorRole::kQuerier:
        ++queriers;
        if (!v.downstream.empty()) {
          return Status::FailedPrecondition("querier must be terminal");
        }
        break;
      case OperatorRole::kCombiner:
        ++combiners;
        break;
      case OperatorRole::kSnapshotBuilder:
      case OperatorRole::kComputer:
        if (v.partition < 0 || v.partition >= total_partitions()) {
          return Status::FailedPrecondition(
              "partition index out of range on vertex " +
              std::to_string(v.id));
        }
        if (v.downstream.empty()) {
          return Status::FailedPrecondition(
              "data processor with no downstream: vertex " +
              std::to_string(v.id));
        }
        break;
      default:
        break;
    }
  }
  if (queriers != 1) {
    return Status::FailedPrecondition("QEP needs exactly one querier");
  }
  if (combiners != 1) {
    return Status::FailedPrecondition("QEP needs exactly one combiner");
  }
  return Status::OK();
}

std::string Qep::ToString() const {
  std::ostringstream out;
  out << "QEP: n=" << n_ << " (+m=" << m_ << " overcollected)"
      << ", vertical groups=" << num_vertical_groups_ << "\n";
  auto print_role = [&](OperatorRole role) {
    auto vs = ByRole(role);
    if (vs.empty()) return;
    out << "  " << OperatorRoleName(role) << " x" << CountByRole(role)
        << "\n";
    // The contributor tier is one counted leaf: its header line says it.
    if (role == OperatorRole::kDataContributor) return;
    for (const auto* v : vs) {
      out << "    [" << v->id << "]";
      if (v->partition >= 0) out << " part=" << v->partition;
      if (v->vgroup >= 0) out << " vgroup=" << v->vgroup;
      if (!v->attributes.empty()) {
        out << " attrs={";
        for (size_t i = 0; i < v->attributes.size(); ++i) {
          if (i) out << ",";
          out << v->attributes[i];
        }
        out << "}";
      }
      if (!v->downstream.empty()) {
        out << " ->";
        for (uint64_t d : v->downstream) out << " " << d;
      }
      if (v->device != 0) out << " @dev" << v->device;
      out << "\n";
    }
  };
  print_role(OperatorRole::kDataContributor);
  print_role(OperatorRole::kSnapshotBuilder);
  print_role(OperatorRole::kComputer);
  print_role(OperatorRole::kCombiner);
  print_role(OperatorRole::kCombinerBackup);
  print_role(OperatorRole::kQuerier);
  return out.str();
}

}  // namespace edgelet::query
