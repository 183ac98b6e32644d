#include "core/planner.h"

#include <algorithm>

#include "common/hash.h"
#include "privacy/vertical_partitioner.h"

namespace edgelet::core {

namespace {

using exec::Strategy;
using query::OperatorRole;
using query::OperatorVertex;

// "Secure assignment by hashing public keys": a deterministic pseudo-random
// order over the processor pool that no single party controls.
std::vector<net::NodeId> HashOrder(std::vector<net::NodeId> pool,
                                   uint64_t seed) {
  std::sort(pool.begin(), pool.end(),
            [seed](net::NodeId a, net::NodeId b) {
              uint64_t ha = Mix64(a ^ seed);
              uint64_t hb = Mix64(b ^ seed);
              if (ha != hb) return ha < hb;
              return a < b;
            });
  return pool;
}

}  // namespace

exec::Strategy RecommendStrategy(const query::Query& query,
                                 const StrategyContext& context) {
  // Overcollection needs (1) a distributive/mergeable processing — both
  // supported kinds qualify: Grouping Sets aggregates merge exactly and
  // K-Means knowledge merges approximately — and (2) tolerance for a
  // resampled snapshot plus the larger crowd it consumes.
  if (context.crowd_is_scarce) return Strategy::kBackup;
  if (context.exact_result_required &&
      query.kind == query::QueryKind::kKMeans) {
    // Iterative ML under Overcollection is inherently approximate.
    return Strategy::kBackup;
  }
  return Strategy::kOvercollection;
}

Result<exec::Deployment> Planner::Plan(const Input& input) const {
  const query::Query& q = input.query;
  EDGELET_RETURN_NOT_OK(q.Validate(schema_));
  if (input.querier == 0) {
    return Status::InvalidArgument("querier node required");
  }

  exec::Deployment d;
  d.query = q;
  d.strategy = input.strategy;

  // --- Horizontal partitioning: n from the per-edgelet exposure cap.
  uint64_t cap = input.privacy.max_tuples_per_edgelet;
  if (cap == 0 || cap >= q.snapshot_cardinality) {
    d.n = 1;
  } else {
    d.n = static_cast<int>((q.snapshot_cardinality + cap - 1) / cap);
  }
  d.quota = (q.snapshot_cardinality + d.n - 1) / d.n;

  // --- Vertical partitioning from co-access sets + separation constraints.
  if (q.kind == query::QueryKind::kGroupingSets) {
    std::vector<privacy::CoAccessSet> co_access;
    co_access.reserve(q.grouping_sets.sets.size());
    for (size_t i = 0; i < q.grouping_sets.sets.size(); ++i) {
      co_access.push_back(q.grouping_sets.ColumnsForSet(i));
    }
    auto vp = privacy::PartitionAttributes(
        co_access, input.privacy.separation,
        input.privacy.max_attributes_per_group);
    if (!vp.ok()) return vp.status();
    d.vgroup_columns = vp->groups;
    d.vgroup_set_indices.assign(vp->groups.size(), {});
    for (size_t set = 0; set < vp->set_to_group.size(); ++set) {
      d.vgroup_set_indices[vp->set_to_group[set]].push_back(set);
    }
  } else {
    // K-Means needs all features (and cluster-aggregate inputs) together.
    privacy::CoAccessSet features = q.RequiredColumns();
    if (privacy::ViolatesSeparation(features, input.privacy.separation)) {
      return Status::FailedPrecondition(
          "K-Means features violate a separation constraint; clustering "
          "cannot be vertically split");
    }
    d.vgroup_columns = {features};
    d.vgroup_set_indices = {{}};
  }
  const int vgroups = static_cast<int>(d.vgroup_columns.size());

  // --- Resiliency sizing.
  int replicas = 1;  // devices per operator (Backup: b+1)
  if (input.strategy == Strategy::kOvercollection) {
    // A partition survives only if every one of its operators does: one
    // snapshot builder AND one computer per vertical group — 2 * vgroups
    // devices. (An earlier sizing used 1 + vgroups, as if the builders of
    // a partition were a single device; it under-provisions m for every
    // multi-vertical-group plan.)
    auto m = resilience::MinOvercollection(
        d.n, input.resilience.failure_probability,
        input.resilience.reliability_target,
        /*ops_per_partition=*/2 * vgroups);
    if (!m.ok()) return m.status();
    d.m = *m;
  } else {
    d.m = 0;
    int num_operators = d.n * 2 * vgroups + 1;  // builders+computers+comb
    auto b = resilience::MinBackupReplicas(
        num_operators, input.resilience.failure_probability,
        input.resilience.reliability_target);
    if (!b.ok()) return b.status();
    replicas = *b + 1;
  }
  const int total = d.n + d.m;

  // --- Device assignment.
  const size_t combiner_count =
      input.strategy == Strategy::kOvercollection
          ? 2  // Combiner + Active Backup, both live
          : static_cast<size_t>(replicas);
  // Per partition: one builder chain and one computer per vertical group.
  const size_t needed =
      static_cast<size_t>(total) * 2 * vgroups * replicas + combiner_count;
  std::vector<net::NodeId> order = HashOrder(input.processor_pool,
                                             Mix64(q.query_id) ^ input.seed);
  if (order.size() < needed) {
    return Status::FailedPrecondition(
        "processor pool too small: need " + std::to_string(needed) +
        " devices, have " + std::to_string(order.size()));
  }
  size_t next = 0;
  auto take = [&order, &next](size_t count) {
    std::vector<net::NodeId> group(order.begin() + next,
                                   order.begin() + next + count);
    next += count;
    return group;
  };

  d.sb_groups.reserve(total);
  d.computer_groups.reserve(total);
  for (int p = 0; p < total; ++p) {
    std::vector<std::vector<net::NodeId>> sb_per_vgroup;
    std::vector<std::vector<net::NodeId>> comp_per_vgroup;
    sb_per_vgroup.reserve(vgroups);
    comp_per_vgroup.reserve(vgroups);
    for (int vg = 0; vg < vgroups; ++vg) {
      sb_per_vgroup.push_back(take(replicas));
      comp_per_vgroup.push_back(take(replicas));
    }
    d.sb_groups.push_back(std::move(sb_per_vgroup));
    d.computer_groups.push_back(std::move(comp_per_vgroup));
  }
  d.combiner_group = take(combiner_count);
  d.querier = input.querier;
  // Whatever the hash order left unassigned becomes the rank-ordered spare
  // pool for mid-query repair: provisioned with the published plan, idle
  // (and free) unless a repair controller recruits them.
  d.spare_pool.assign(order.begin() + next, order.end());

  // --- Logical QEP (rendering + exposure analysis).
  query::Qep& qep = d.qep;
  qep.SetPartitioning(d.n, d.m);
  qep.set_num_vertical_groups(vgroups);

  uint64_t querier_v = qep.AddVertex({.role = OperatorRole::kQuerier});
  std::vector<uint64_t> combiner_vs;
  for (size_t i = 0; i < d.combiner_group.size(); ++i) {
    OperatorVertex v;
    v.role = (i == 0) ? OperatorRole::kCombiner
                      : OperatorRole::kCombinerBackup;
    v.device = d.combiner_group[i];
    uint64_t id = qep.AddVertex(std::move(v));
    combiner_vs.push_back(id);
    EDGELET_RETURN_NOT_OK(qep.AddEdge(id, querier_v));
  }

  for (int p = 0; p < total; ++p) {
    for (int vg = 0; vg < vgroups; ++vg) {
      std::vector<uint64_t> sb_vs;
      for (net::NodeId dev : d.sb_groups[p][vg]) {
        OperatorVertex v;
        v.role = OperatorRole::kSnapshotBuilder;
        v.partition = p;
        v.vgroup = vg;
        v.attributes = d.vgroup_columns[vg];
        v.device = dev;
        sb_vs.push_back(qep.AddVertex(std::move(v)));
      }
      for (net::NodeId dev : d.computer_groups[p][vg]) {
        OperatorVertex v;
        v.role = OperatorRole::kComputer;
        v.partition = p;
        v.vgroup = vg;
        v.attributes = d.vgroup_columns[vg];
        v.set_indices = d.vgroup_set_indices[vg];
        v.device = dev;
        uint64_t id = qep.AddVertex(std::move(v));
        for (uint64_t sb : sb_vs) {
          EDGELET_RETURN_NOT_OK(qep.AddEdge(sb, id));
        }
        for (uint64_t cv : combiner_vs) {
          EDGELET_RETURN_NOT_OK(qep.AddEdge(id, cv));
        }
      }
    }
  }

  // The contributor tier: one leaf counting every contributor device, so
  // the plan stays O(operators) whatever the crowd. Contributors hold their
  // own record (all columns); exempt from the separation audit by role.
  if (input.num_contributors > 0) {
    OperatorVertex v;
    v.role = OperatorRole::kDataContributor;
    v.count = input.num_contributors;
    for (const auto& group : d.vgroup_columns) {
      for (const auto& c : group) {
        if (std::find(v.attributes.begin(), v.attributes.end(), c) ==
            v.attributes.end()) {
          v.attributes.push_back(c);
        }
      }
    }
    qep.AddVertex(std::move(v));
  }

  EDGELET_RETURN_NOT_OK(qep.Validate());
  EDGELET_RETURN_NOT_OK(
      privacy::ValidateSeparation(qep, input.privacy.separation));
  return d;
}

privacy::ExposureReport Planner::Exposure(const exec::Deployment& d) {
  return privacy::ComputeExposure(d.qep, d.query.snapshot_cardinality);
}

}  // namespace edgelet::core
