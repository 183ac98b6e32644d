#include "query/aggregate.h"

#include <algorithm>
#include <cmath>

namespace edgelet::query {

std::string_view AggregateFunctionName(AggregateFunction fn) {
  switch (fn) {
    case AggregateFunction::kCount:
      return "COUNT";
    case AggregateFunction::kSum:
      return "SUM";
    case AggregateFunction::kMin:
      return "MIN";
    case AggregateFunction::kMax:
      return "MAX";
    case AggregateFunction::kAvg:
      return "AVG";
    case AggregateFunction::kVariance:
      return "VAR";
    case AggregateFunction::kStdDev:
      return "STDDEV";
    case AggregateFunction::kCountDistinct:
      return "COUNT_DISTINCT";
    case AggregateFunction::kQuantile:
      return "Q";
  }
  return "?";
}

bool AggregateYieldsInteger(AggregateFunction fn) {
  return fn == AggregateFunction::kCount ||
         fn == AggregateFunction::kCountDistinct;
}

std::string AggregateSpec::OutputName() const {
  if (fn == AggregateFunction::kQuantile) {
    return "Q" + std::to_string(static_cast<int>(std::lround(
               parameter * 100))) + "(" + column + ")";
  }
  return std::string(AggregateFunctionName(fn)) + "(" + column + ")";
}

Status AggregateState::Add(const data::Value& v, bool count_star) {
  if (v.is_null()) {
    if (count_star) ++count_;
    return Status::OK();
  }
  ++count_;
  if (v.type() == data::ValueType::kString) {
    // Strings only support COUNT; numeric accumulators stay untouched.
    return Status::OK();
  }
  auto d = v.ToDouble();
  if (!d.ok()) return d.status();
  if (!has_numeric_) {
    min_ = max_ = *d;
    has_numeric_ = true;
  } else {
    min_ = std::min(min_, *d);
    max_ = std::max(max_, *d);
  }
  sum_ += *d;
  sum_sq_ += *d * *d;
  return Status::OK();
}

void AggregateState::AddDistinct(const data::Value& v) {
  if (v.is_null()) return;
  if (!hll_.has_value()) hll_.emplace();
  hll_->AddHash(v.Hash());
  ++count_;
}

Status AggregateState::AddQuantile(const data::Value& v) {
  if (v.is_null()) return Status::OK();
  auto d = v.ToDouble();
  if (!d.ok()) return d.status();
  if (!sketch_.has_value()) sketch_.emplace();
  sketch_->Add(*d);
  ++count_;
  return Status::OK();
}

Status AggregateState::Accumulate(AggregateFunction fn, const data::Value& v,
                                  bool count_star) {
  if (count_star) return Add(data::Value::Null(), /*count_star=*/true);
  switch (fn) {
    case AggregateFunction::kCountDistinct:
      AddDistinct(v);
      return Status::OK();
    case AggregateFunction::kQuantile:
      return AddQuantile(v);
    default:
      return Add(v);
  }
}

Status AggregateState::Merge(const AggregateState& other) {
  if (other.sketch_.has_value()) {
    if (!sketch_.has_value()) {
      sketch_ = other.sketch_;
    } else {
      EDGELET_RETURN_NOT_OK(sketch_->Merge(*other.sketch_));
    }
  }
  if (other.hll_.has_value()) {
    if (!hll_.has_value()) {
      hll_ = other.hll_;
    } else {
      EDGELET_RETURN_NOT_OK(hll_->Merge(*other.hll_));
    }
  }
  count_ += other.count_;
  sum_ += other.sum_;
  sum_sq_ += other.sum_sq_;
  if (other.has_numeric_) {
    if (!has_numeric_) {
      min_ = other.min_;
      max_ = other.max_;
      has_numeric_ = true;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
  }
  return Status::OK();
}

data::Value AggregateState::Finalize(const AggregateSpec& spec) const {
  if (spec.fn == AggregateFunction::kQuantile) {
    if (!sketch_.has_value()) return data::Value::Null();
    auto q = sketch_->Quantile(spec.parameter);
    if (!q.ok()) return data::Value::Null();
    return data::Value(*q);
  }
  return Finalize(spec.fn);
}

data::Value AggregateState::Finalize(AggregateFunction fn) const {
  switch (fn) {
    case AggregateFunction::kCount:
      return data::Value(static_cast<int64_t>(count_));
    case AggregateFunction::kSum:
      if (!has_numeric_) return data::Value::Null();
      return data::Value(sum_);
    case AggregateFunction::kMin:
      if (!has_numeric_) return data::Value::Null();
      return data::Value(min_);
    case AggregateFunction::kMax:
      if (!has_numeric_) return data::Value::Null();
      return data::Value(max_);
    case AggregateFunction::kAvg:
      if (!has_numeric_ || count_ == 0) return data::Value::Null();
      return data::Value(sum_ / static_cast<double>(count_));
    case AggregateFunction::kVariance: {
      if (!has_numeric_ || count_ == 0) return data::Value::Null();
      double mean = sum_ / static_cast<double>(count_);
      double var = sum_sq_ / static_cast<double>(count_) - mean * mean;
      return data::Value(std::max(var, 0.0));
    }
    case AggregateFunction::kStdDev: {
      data::Value var = Finalize(AggregateFunction::kVariance);
      if (var.is_null()) return var;
      return data::Value(std::sqrt(var.AsDouble()));
    }
    case AggregateFunction::kCountDistinct: {
      if (!hll_.has_value()) return data::Value(int64_t{0});
      return data::Value(
          static_cast<int64_t>(std::llround(hll_->Estimate())));
    }
    case AggregateFunction::kQuantile: {
      if (!sketch_.has_value()) return data::Value::Null();
      auto q = sketch_->Quantile(0.5);
      if (!q.ok()) return data::Value::Null();
      return data::Value(*q);
    }
  }
  return data::Value::Null();
}

bool AggregateState::operator==(const AggregateState& other) const {
  return count_ == other.count_ && sum_ == other.sum_ &&
         sum_sq_ == other.sum_sq_ && min_ == other.min_ &&
         max_ == other.max_ && has_numeric_ == other.has_numeric_ &&
         hll_ == other.hll_ && sketch_ == other.sketch_;
}

}  // namespace edgelet::query
