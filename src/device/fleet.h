#ifndef EDGELET_DEVICE_FLEET_H_
#define EDGELET_DEVICE_FLEET_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "device/device.h"

namespace edgelet::device {

// Mix of device classes in a fleet (fractions normalized internally).
struct DeviceMix {
  double pc = 0.3;
  double smartphone = 0.4;
  double home_box = 0.3;
};

struct FleetConfig {
  size_t num_contributors = 100;
  size_t num_processors = 32;
  // Contributor-only individuals folded per device: the fleet creates
  // ceil(num_contributors / contributor_cohort_size) contributor devices,
  // each hosting that many members' rows (one exec::ContributorActor per
  // device replays their individual contributions). 1 = the classic
  // one-device-per-contributor fleet. Memory becomes O(operators + cohorts) instead of O(devices) —
  // the knob that unlocks million-member sweeps.
  size_t contributor_cohort_size = 1;
  DeviceMix contributor_mix;
  DeviceMix processor_mix;
  // When false, devices never churn on their own (useful for isolating
  // crash-failure experiments from disconnections).
  bool enable_churn = true;
  std::string code_identity = "edgelet-runtime-v1";
};

// Owns the personal devices of one experiment: Data Contributors (each
// holding one individual's record) and the Data Processor pool from which
// the planner draws operator hosts.
class Fleet {
 public:
  Fleet(net::Network* network, const tee::TrustAuthority* authority,
        const FleetConfig& config, uint64_t seed);

  // Contributor DEVICES: one per individual in the classic fleet, one per
  // cohort when contributor_cohort_size > 1.
  const std::vector<Device*>& contributors() const { return contributors_; }
  const std::vector<Device*>& processors() const { return processors_; }
  // Individuals represented by the contributor devices (== num_contributors
  // from the config; >= contributors().size()).
  size_t contributor_members() const { return contributor_members_; }
  Device* by_node(net::NodeId id) const;
  size_t size() const { return devices_.size(); }

  // Makes an externally-owned device (e.g. the querier endpoint)
  // resolvable through by_node(). The fleet does not take ownership.
  void RegisterExternal(Device* device) {
    by_node_.emplace(device->id(), device);
  }

  // Loads the population onto the contributor devices: row i belongs to
  // member i, and each device receives a zero-copy view of its members'
  // contiguous row block inside the shared columnar store (one row per
  // device in the classic fleet). The view's row count must equal
  // contributor_members(). No per-device row copies are made.
  Status DistributeData(data::TableView population);

  // Provisions every enclave with the query-group key (models remote
  // attestation of the published query code).
  Status ProvisionAll();

 private:
  DeviceProfile SampleProfile(const DeviceMix& mix, Rng* rng) const;

  std::vector<std::unique_ptr<Device>> devices_;
  std::vector<Device*> contributors_;
  std::vector<Device*> processors_;
  std::unordered_map<net::NodeId, Device*> by_node_;
  bool enable_churn_;
  size_t contributor_members_ = 0;
  size_t cohort_size_ = 1;
};

// Crash-failure plan: each target dies at a uniform time inside the window
// with probability `failure_probability`. Deterministic for a given rng.
struct FailurePlan {
  std::vector<std::pair<net::NodeId, SimTime>> kills;
};

FailurePlan PlanFailures(const std::vector<net::NodeId>& targets,
                         double failure_probability, SimTime window_start,
                         SimTime window_end, Rng* rng);

// Schedules the kills on the simulator.
void ScheduleFailures(net::Network* network, const FailurePlan& plan);

// Crash-with-recovery plan: each target crashes at a uniform time inside
// [window_start, window_end) with probability `crash_probability`, then
// reboots after a down-time drawn uniformly from [min_down, max_down].
// Deterministic for a given rng, like PlanFailures.
struct RebootPlan {
  struct Event {
    net::NodeId id = 0;
    SimTime down_at = 0;
    SimTime up_at = 0;
  };
  std::vector<Event> events;
};

RebootPlan PlanReboots(const std::vector<net::NodeId>& targets,
                       double crash_probability, SimTime window_start,
                       SimTime window_end, SimDuration min_down,
                       SimDuration max_down, Rng* rng);

// Schedules each crash and its matching restart on the victim's timeline.
void ScheduleReboots(net::Network* network, const RebootPlan& plan);

}  // namespace edgelet::device

#endif  // EDGELET_DEVICE_FLEET_H_
