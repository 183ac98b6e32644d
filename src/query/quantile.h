#ifndef EDGELET_QUERY_QUANTILE_H_
#define EDGELET_QUERY_QUANTILE_H_

#include <cstdint>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "common/status.h"

namespace edgelet::query {

// Mergeable quantile sketch (simplified KLL: per-level compactors of width
// k, halving with a random offset on overflow). Exact quantiles are not
// distributive; the sketch is mergeable with bounded rank error
// O(1/k * levels), which is what makes QUANTILE aggregation compatible with
// the Overcollection strategy. Like K-Means, quantile answers are
// approximate — the Validity property holds up to the sketch's rank error.
class QuantileSketch {
 public:
  explicit QuantileSketch(size_t k = 128);

  // Number of items fed into the sketch.
  uint64_t count() const { return count_; }
  size_t compactor_width() const { return k_; }

  void Add(double value);

  // Union; compactor widths must match.
  Status Merge(const QuantileSketch& other);

  // Value at rank q*count, q in [0, 1]. Fails on an empty sketch.
  Result<double> Quantile(double q) const;

  // Retained items across all levels (memory/wire footprint driver).
  size_t RetainedItems() const;

  template <typename M>
  static auto Fields(M& m) {
    return wire::Tie(wire::Varint(m.k_), wire::Varint(m.count_), m.levels_);
  }
  // Checks the decoded level count and makes the sketch the one
  // QuantileSketch(k) would be: the width clamped, the RNG seeded from it.
  Status FinishDecode();

  bool operator==(const QuantileSketch& other) const {
    return k_ == other.k_ && count_ == other.count_ &&
           levels_ == other.levels_;
  }

 private:
  void CompactLevel(size_t h);
  void CompactIfNeeded();

  size_t k_;
  uint64_t count_ = 0;
  // levels_[h] holds items of weight 2^h, unsorted between compactions.
  std::vector<std::vector<double>> levels_;
  // Coin flips for compaction offsets; seeded deterministically so a given
  // insertion order reproduces bit-for-bit.
  Rng rng_;
};

}  // namespace edgelet::query

#endif  // EDGELET_QUERY_QUANTILE_H_
