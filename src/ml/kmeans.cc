#include "ml/kmeans.h"

#include <cmath>
#include <limits>

namespace edgelet::ml {

Result<Matrix> ExtractPoints(const data::TableView& view,
                             const std::vector<std::string>& features) {
  Matrix out;
  if (!view.has_store()) {
    if (features.empty()) return out;
    return Status::NotFound("column not in schema: " + features[0]);
  }
  const data::ColumnTable& store = view.store();
  std::vector<size_t> idx;
  idx.reserve(features.size());
  for (const auto& f : features) {
    auto i = store.schema().IndexOf(f);
    if (!i.ok()) return i.status();
    idx.push_back(*i);
  }
  const size_t n = view.num_rows();
  out.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    const size_t row = view.StoreRow(r);
    std::vector<double> p;
    p.reserve(idx.size());
    for (size_t i : idx) {
      // Fast path: typed numeric columns read straight from the slab.
      // NULLs and non-numeric columns go through Value::ToDouble for its
      // error status.
      data::ValueType t = store.schema().column(i).type;
      if (!store.IsNull(row, i) && t == data::ValueType::kInt64) {
        p.push_back(static_cast<double>(store.Int64At(row, i)));
      } else if (!store.IsNull(row, i) && t == data::ValueType::kDouble) {
        p.push_back(store.DoubleAt(row, i));
      } else {
        auto d = store.ValueAt(row, i).ToDouble();
        if (!d.ok()) return d.status();
        p.push_back(*d);
      }
    }
    out.push_back(std::move(p));
  }
  return out;
}

double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b) {
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

void KMeansKnowledge::Serialize(Writer* w) const {
  w->PutVarint(centroids.size());
  w->PutVarint(centroids.empty() ? 0 : centroids[0].size());
  for (const auto& c : centroids) {
    for (double v : c) w->PutDouble(v);
  }
  for (uint64_t c : counts) w->PutVarint(c);
}

Result<KMeansKnowledge> KMeansKnowledge::Deserialize(Reader* r) {
  KMeansKnowledge out;
  auto k = r->GetVarint();
  if (!k.ok()) return k.status();
  auto d = r->GetVarint();
  if (!d.ok()) return d.status();
  // k counts of at least a byte each, and k centroids of d doubles.
  EDGELET_RETURN_NOT_OK(r->CheckCount(*k));
  if (*k > 0) {
    EDGELET_RETURN_NOT_OK(r->CheckCount(*d, *k * sizeof(double)));
  }
  out.centroids.resize(*k, std::vector<double>(*d));
  for (uint64_t i = 0; i < *k; ++i) {
    for (uint64_t j = 0; j < *d; ++j) {
      auto v = r->GetDouble();
      if (!v.ok()) return v.status();
      out.centroids[i][j] = *v;
    }
  }
  out.counts.resize(*k);
  for (uint64_t i = 0; i < *k; ++i) {
    auto c = r->GetVarint();
    if (!c.ok()) return c.status();
    out.counts[i] = *c;
  }
  return out;
}

Result<Matrix> KMeansPlusPlusInit(const Matrix& points, int k, Rng* rng) {
  if (points.empty()) return Status::InvalidArgument("no points");
  if (k < 1) return Status::InvalidArgument("k must be >= 1");

  Matrix centroids;
  centroids.reserve(k);
  centroids.push_back(points[rng->NextBelow(points.size())]);

  std::vector<double> dist2(points.size());
  while (static_cast<int>(centroids.size()) < k) {
    double total = 0.0;
    for (size_t i = 0; i < points.size(); ++i) {
      double best = std::numeric_limits<double>::max();
      for (const auto& c : centroids) {
        best = std::min(best, SquaredDistance(points[i], c));
      }
      dist2[i] = best;
      total += best;
    }
    if (total <= 0.0) {
      // All points coincide with chosen centroids; duplicate to fill.
      centroids.push_back(centroids.back());
      continue;
    }
    double pick = rng->NextDouble() * total;
    size_t chosen = points.size() - 1;
    double acc = 0.0;
    for (size_t i = 0; i < points.size(); ++i) {
      acc += dist2[i];
      if (acc >= pick) {
        chosen = i;
        break;
      }
    }
    centroids.push_back(points[chosen]);
  }
  return centroids;
}

Result<std::vector<int>> Assign(const Matrix& points,
                                const Matrix& centroids) {
  if (centroids.empty()) return Status::InvalidArgument("no centroids");
  std::vector<int> out(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    if (points[i].size() != centroids[0].size()) {
      return Status::InvalidArgument("dimension mismatch");
    }
    double best = std::numeric_limits<double>::max();
    int best_c = 0;
    for (size_t c = 0; c < centroids.size(); ++c) {
      double d = SquaredDistance(points[i], centroids[c]);
      if (d < best) {
        best = d;
        best_c = static_cast<int>(c);
      }
    }
    out[i] = best_c;
  }
  return out;
}

Result<LloydStep> RunLloydStep(const Matrix& points,
                               const Matrix& centroids) {
  auto assignment = Assign(points, centroids);
  if (!assignment.ok()) return assignment.status();
  const size_t k = centroids.size();
  const size_t d = centroids[0].size();

  LloydStep step;
  step.knowledge.centroids.assign(k, std::vector<double>(d, 0.0));
  step.knowledge.counts.assign(k, 0);
  for (size_t i = 0; i < points.size(); ++i) {
    int c = (*assignment)[i];
    step.inertia += SquaredDistance(points[i], centroids[c]);
    ++step.knowledge.counts[c];
    for (size_t j = 0; j < d; ++j) {
      step.knowledge.centroids[c][j] += points[i][j];
    }
  }
  for (size_t c = 0; c < k; ++c) {
    if (step.knowledge.counts[c] == 0) {
      step.knowledge.centroids[c] = centroids[c];  // keep empty clusters put
    } else {
      for (size_t j = 0; j < d; ++j) {
        step.knowledge.centroids[c][j] /=
            static_cast<double>(step.knowledge.counts[c]);
      }
    }
  }
  return step;
}

Status RunMiniBatchStep(const Matrix& points, size_t batch_size, Rng* rng,
                        Matrix* centroids, std::vector<uint64_t>* counts) {
  if (centroids->empty()) return Status::InvalidArgument("no centroids");
  if (points.empty()) return Status::OK();
  if (counts->size() != centroids->size()) {
    counts->assign(centroids->size(), 0);
  }
  batch_size = std::min(batch_size, points.size());
  // Sample with replacement (cheap, unbiased enough for SGD-style updates).
  std::vector<size_t> batch(batch_size);
  for (auto& idx : batch) idx = rng->NextBelow(points.size());

  std::vector<int> assignment(batch_size);
  for (size_t b = 0; b < batch_size; ++b) {
    const auto& p = points[batch[b]];
    double best = std::numeric_limits<double>::max();
    int best_c = 0;
    for (size_t c = 0; c < centroids->size(); ++c) {
      double d = SquaredDistance(p, (*centroids)[c]);
      if (d < best) {
        best = d;
        best_c = static_cast<int>(c);
      }
    }
    assignment[b] = best_c;
  }
  for (size_t b = 0; b < batch_size; ++b) {
    int c = assignment[b];
    ++(*counts)[c];
    double eta = 1.0 / static_cast<double>((*counts)[c]);
    auto& centroid = (*centroids)[c];
    const auto& p = points[batch[b]];
    for (size_t j = 0; j < centroid.size(); ++j) {
      centroid[j] += eta * (p[j] - centroid[j]);
    }
  }
  return Status::OK();
}

Result<KMeansKnowledge> RunMiniBatchKMeans(const Matrix& points,
                                           const MiniBatchConfig& config) {
  Rng rng(config.seed);
  auto init = KMeansPlusPlusInit(points, config.k, &rng);
  if (!init.ok()) return init.status();
  Matrix centroids = std::move(*init);
  std::vector<uint64_t> counts(centroids.size(), 0);
  for (int iter = 0; iter < config.iterations; ++iter) {
    EDGELET_RETURN_NOT_OK(
        RunMiniBatchStep(points, config.batch_size, &rng, &centroids,
                         &counts));
  }
  // Final hard assignment so the reported counts reflect the data.
  auto step = RunLloydStep(points, centroids);
  if (!step.ok()) return step.status();
  return step->knowledge;
}

Result<KMeansKnowledge> RunKMeans(const Matrix& points,
                                  const KMeansConfig& config) {
  Rng rng(config.seed);
  auto init = KMeansPlusPlusInit(points, config.k, &rng);
  if (!init.ok()) return init.status();
  Matrix centroids = std::move(*init);
  KMeansKnowledge knowledge;
  for (int iter = 0; iter < config.max_iterations; ++iter) {
    auto step = RunLloydStep(points, centroids);
    if (!step.ok()) return step.status();
    double moved = 0.0;
    for (size_t c = 0; c < centroids.size(); ++c) {
      moved += SquaredDistance(centroids[c], step->knowledge.centroids[c]);
    }
    knowledge = std::move(step->knowledge);
    centroids = knowledge.centroids;
    if (moved < config.tolerance) break;
  }
  return knowledge;
}

Result<KMeansKnowledge> MergeKnowledge(
    const std::vector<KMeansKnowledge>& parts) {
  if (parts.empty()) return Status::InvalidArgument("no knowledge to merge");
  const size_t k = parts[0].centroids.size();
  const size_t d = k > 0 ? parts[0].centroids[0].size() : 0;

  KMeansKnowledge out;
  out.centroids.assign(k, std::vector<double>(d, 0.0));
  out.counts.assign(k, 0);
  for (const auto& part : parts) {
    if (part.centroids.size() != k || part.counts.size() != k ||
        (k > 0 && part.centroids[0].size() != d)) {
      return Status::InvalidArgument("knowledge shape mismatch");
    }
    for (size_t c = 0; c < k; ++c) {
      out.counts[c] += part.counts[c];
      for (size_t j = 0; j < d; ++j) {
        out.centroids[c][j] +=
            part.centroids[c][j] * static_cast<double>(part.counts[c]);
      }
    }
  }
  for (size_t c = 0; c < k; ++c) {
    if (out.counts[c] == 0) {
      out.centroids[c] = parts[0].centroids[c];
    } else {
      for (size_t j = 0; j < d; ++j) {
        out.centroids[c][j] /= static_cast<double>(out.counts[c]);
      }
    }
  }
  return out;
}

Result<double> Inertia(const Matrix& points, const Matrix& centroids) {
  auto assignment = Assign(points, centroids);
  if (!assignment.ok()) return assignment.status();
  double total = 0.0;
  for (size_t i = 0; i < points.size(); ++i) {
    total += SquaredDistance(points[i], centroids[(*assignment)[i]]);
  }
  return total;
}

}  // namespace edgelet::ml
