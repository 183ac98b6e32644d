#include "device/fleet.h"

#include <algorithm>

namespace edgelet::device {

Fleet::Fleet(net::Network* network, const tee::TrustAuthority* authority,
             const FleetConfig& config, uint64_t seed)
    : enable_churn_(config.enable_churn),
      contributor_members_(config.num_contributors),
      cohort_size_(std::max<size_t>(1, config.contributor_cohort_size)) {
  Rng rng(seed);
  auto make = [&](const DeviceMix& mix) {
    DeviceProfile profile = SampleProfile(mix, &rng);
    if (!enable_churn_) profile.churn = net::ChurnModel::AlwaysOn();
    auto dev = std::make_unique<Device>(network, authority, profile,
                                        config.code_identity);
    Device* raw = dev.get();
    devices_.push_back(std::move(dev));
    by_node_.emplace(raw->id(), raw);
    return raw;
  };
  const size_t contributor_devices =
      (contributor_members_ + cohort_size_ - 1) / cohort_size_;
  contributors_.reserve(contributor_devices);
  for (size_t i = 0; i < contributor_devices; ++i) {
    contributors_.push_back(make(config.contributor_mix));
  }
  processors_.reserve(config.num_processors);
  for (size_t i = 0; i < config.num_processors; ++i) {
    processors_.push_back(make(config.processor_mix));
  }
}

DeviceProfile Fleet::SampleProfile(const DeviceMix& mix, Rng* rng) const {
  double total = mix.pc + mix.smartphone + mix.home_box;
  if (total <= 0) return DeviceProfile::Pc();
  double pick = rng->NextDouble() * total;
  if (pick < mix.pc) return DeviceProfile::Pc();
  if (pick < mix.pc + mix.smartphone) return DeviceProfile::Smartphone();
  return DeviceProfile::HomeBox();
}

Device* Fleet::by_node(net::NodeId id) const {
  auto it = by_node_.find(id);
  return it == by_node_.end() ? nullptr : it->second;
}

Status Fleet::DistributeData(data::TableView population) {
  if (population.num_rows() != contributor_members_) {
    return Status::InvalidArgument(
        "row count " + std::to_string(population.num_rows()) +
        " != contributor member count " +
        std::to_string(contributor_members_));
  }
  // Row i belongs to member i; device d hosts the contiguous block
  // [d * cohort_size, ...) — one row per device in the classic fleet.
  // Each device's view shares the population store: distribution is
  // O(devices) pointer work, not O(rows) copies.
  size_t row = 0;
  const size_t total = population.num_rows();
  for (size_t d = 0; d < contributors_.size(); ++d) {
    size_t take = std::min(cohort_size_, total - row);
    contributors_[d]->SetLocalView(population.Slice(row, take));
    row += take;
  }
  return Status::OK();
}

Status Fleet::ProvisionAll() {
  for (const auto& dev : devices_) {
    EDGELET_RETURN_NOT_OK(dev->enclave().Provision());
  }
  return Status::OK();
}

FailurePlan PlanFailures(const std::vector<net::NodeId>& targets,
                         double failure_probability, SimTime window_start,
                         SimTime window_end, Rng* rng) {
  FailurePlan plan;
  if (window_end < window_start) window_end = window_start;
  for (net::NodeId id : targets) {
    if (!rng->NextBernoulli(failure_probability)) continue;
    SimTime t = window_start;
    if (window_end > window_start) {
      t += rng->NextBelow(window_end - window_start);
    }
    plan.kills.emplace_back(id, t);
  }
  return plan;
}

void ScheduleFailures(net::Network* network, const FailurePlan& plan) {
  for (const auto& [id, when] : plan.kills) {
    // The kill runs on the victim's own timeline so that under a sharded
    // engine only the owning shard mutates its state.
    network->engine()->ScheduleAt(
        id, when, [network, id = id]() { network->Kill(id); });
  }
}

RebootPlan PlanReboots(const std::vector<net::NodeId>& targets,
                       double crash_probability, SimTime window_start,
                       SimTime window_end, SimDuration min_down,
                       SimDuration max_down, Rng* rng) {
  RebootPlan plan;
  if (window_end < window_start) window_end = window_start;
  if (max_down < min_down) max_down = min_down;
  for (net::NodeId id : targets) {
    if (!rng->NextBernoulli(crash_probability)) continue;
    RebootPlan::Event e;
    e.id = id;
    e.down_at = window_start;
    if (window_end > window_start) {
      e.down_at += rng->NextBelow(window_end - window_start);
    }
    SimDuration down_time = min_down;
    if (max_down > min_down) down_time += rng->NextBelow(max_down - min_down);
    e.up_at = SatAdd(e.down_at, down_time);
    plan.events.push_back(e);
  }
  return plan;
}

void ScheduleReboots(net::Network* network, const RebootPlan& plan) {
  for (const RebootPlan::Event& e : plan.events) {
    // Crash and restart both run on the victim's own timeline (shard
    // ownership, as in ScheduleFailures).
    network->engine()->ScheduleAt(
        e.id, e.down_at, [network, id = e.id]() { network->Crash(id); });
    network->engine()->ScheduleAt(
        e.id, e.up_at, [network, id = e.id]() { network->Restart(id); });
  }
}

}  // namespace edgelet::device
