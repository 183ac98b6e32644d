#ifndef EDGELET_DATA_PARTITION_H_
#define EDGELET_DATA_PARTITION_H_

#include <cstdint>

namespace edgelet::data {

// Horizontal partitioning by hashing the contributor key (the paper assigns
// Data Contributors to Snapshot Builders "by hashing their public key").
// Hash assignment keeps every partition an i.i.d. sample of the snapshot,
// which is what makes each of the n+m overcollected partitions
// "representative" in the validity argument.
//
// Returns the partition index in [0, num_partitions) for a contributor key.
uint32_t PartitionForKey(uint64_t contributor_key, uint32_t num_partitions);

}  // namespace edgelet::data

#endif  // EDGELET_DATA_PARTITION_H_
