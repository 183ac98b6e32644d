#include "query/quantile.h"

#include <algorithm>
#include <cmath>

namespace edgelet::query {

QuantileSketch::QuantileSketch(size_t k)
    : k_(std::max<size_t>(k, 8)), levels_(1), rng_(0x5EEDBA5E ^ k_) {}

void QuantileSketch::Add(double value) {
  levels_[0].push_back(value);
  ++count_;
  CompactIfNeeded();
}

void QuantileSketch::CompactLevel(size_t h) {
  if (h + 1 >= levels_.size()) levels_.resize(h + 2);
  auto& level = levels_[h];
  std::sort(level.begin(), level.end());
  // Keep every other item, starting at a random parity: survivors carry
  // double weight one level up.
  size_t offset = rng_.NextBelow(2);
  for (size_t i = offset; i < level.size(); i += 2) {
    levels_[h + 1].push_back(level[i]);
  }
  level.clear();
}

void QuantileSketch::CompactIfNeeded() {
  for (size_t h = 0; h < levels_.size(); ++h) {
    if (levels_[h].size() >= k_) CompactLevel(h);
  }
}

Status QuantileSketch::Merge(const QuantileSketch& other) {
  if (k_ != other.k_) {
    return Status::InvalidArgument("quantile sketch width mismatch");
  }
  if (other.levels_.size() > levels_.size()) {
    levels_.resize(other.levels_.size());
  }
  for (size_t h = 0; h < other.levels_.size(); ++h) {
    levels_[h].insert(levels_[h].end(), other.levels_[h].begin(),
                      other.levels_[h].end());
  }
  count_ += other.count_;
  CompactIfNeeded();
  return Status::OK();
}

Result<double> QuantileSketch::Quantile(double q) const {
  if (count_ == 0) return Status::FailedPrecondition("empty sketch");
  q = std::clamp(q, 0.0, 1.0);

  std::vector<std::pair<double, uint64_t>> weighted;  // (value, weight)
  weighted.reserve(RetainedItems());
  uint64_t total_weight = 0;
  for (size_t h = 0; h < levels_.size(); ++h) {
    uint64_t w = static_cast<uint64_t>(1) << h;
    for (double v : levels_[h]) {
      weighted.emplace_back(v, w);
      total_weight += w;
    }
  }
  if (weighted.empty()) return Status::Internal("sketch lost all items");
  std::sort(weighted.begin(), weighted.end());

  // Target rank over the retained weight (which approximates count_).
  double target = q * static_cast<double>(total_weight);
  uint64_t cumulative = 0;
  for (const auto& [value, weight] : weighted) {
    cumulative += weight;
    if (static_cast<double>(cumulative) >= target) return value;
  }
  return weighted.back().first;
}

size_t QuantileSketch::RetainedItems() const {
  size_t total = 0;
  for (const auto& level : levels_) total += level.size();
  return total;
}

Status QuantileSketch::FinishDecode() {
  if (levels_.empty() || levels_.size() > 64) {
    return Status::Corruption("bad quantile sketch level count");
  }
  const QuantileSketch fresh(k_);
  k_ = fresh.k_;
  rng_ = fresh.rng_;
  return Status::OK();
}

}  // namespace edgelet::query
