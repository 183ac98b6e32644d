#ifndef EDGELET_EXEC_DEFAULTS_H_
#define EDGELET_EXEC_DEFAULTS_H_

#include "common/sim_time.h"

namespace edgelet::exec {

// Liveness / retransmission timing of the execution protocol, defined once.
// Replica leaders ping every kPingPeriod and standby r promotes after
// r * kFailoverTimeout of silence; every re-emitted one-shot message (slices,
// partials, results, recruits, recovery hellos) backs off from
// kResendInterval. Only ReplicaRole::Config and CombinerActor::Config carry
// a field for these, defaulting to them, so unit tests can compress the
// schedule; executions always run these values.
inline constexpr SimDuration kPingPeriod = 5 * kSecond;
inline constexpr SimDuration kFailoverTimeout = 20 * kSecond;
inline constexpr SimDuration kResendInterval = 15 * kSecond;

}  // namespace edgelet::exec

#endif  // EDGELET_EXEC_DEFAULTS_H_
