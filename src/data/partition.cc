#include "data/partition.h"

#include "common/hash.h"

namespace edgelet::data {

uint32_t PartitionForKey(uint64_t contributor_key, uint32_t num_partitions) {
  return static_cast<uint32_t>(Mix64(contributor_key) % num_partitions);
}

}  // namespace edgelet::data
