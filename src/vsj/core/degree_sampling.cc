#include "vsj/core/degree_sampling.h"

#include <algorithm>
#include <cmath>

#include "vsj/util/check.h"

namespace vsj {

DegreeSamplingOptions ResolveDegreeSamplingOptions(
    uint64_t n, DegreeSamplingOptions options) {
  const double size = static_cast<double>(std::max<uint64_t>(n, 2));
  const auto sqrt_nlogn =
      static_cast<uint64_t>(std::ceil(std::sqrt(size * std::log2(size))));
  if (options.num_vertices == 0) options.num_vertices = sqrt_nlogn;
  if (options.coarse_probes == 0) {
    options.coarse_probes = std::max<uint64_t>(1, sqrt_nlogn / 4);
  }
  if (options.refined_probes == 0) {
    options.refined_probes = 4 * options.coarse_probes;
  }
  return options;
}

DegreeSamplingEstimator::DegreeSamplingEstimator(
    DatasetView dataset, SimilarityMeasure measure,
    DegreeSamplingOptions options)
    : dataset_(dataset), measure_(measure) {
  VSJ_CHECK(dataset.size() >= 2);
  options = ResolveDegreeSamplingOptions(dataset.size(), options);
  num_vertices_ = options.num_vertices;
  coarse_probes_ = options.coarse_probes;
  refined_probes_ = options.refined_probes;
}

EstimationResult DegreeSamplingEstimator::Estimate(double tau,
                                                   Rng& rng) const {
  EstimationResult result;
  const size_t n = dataset_.size();
  const uint64_t total_pairs = dataset_.NumPairs();
  if (tau <= 0.0) {
    result.estimate = static_cast<double>(total_pairs);
    return result;
  }

  // Probe `probes` random partners of u; returns the hit count.
  auto probe = [&](VectorId u, uint64_t probes) {
    uint64_t hits = 0;
    for (uint64_t p = 0; p < probes; ++p) {
      auto v = static_cast<VectorId>(rng.Below(n - 1));
      if (v >= u) ++v;
      if (Similarity(measure_, dataset_[u], dataset_[v]) >= tau) {
        ++hits;
      }
    }
    result.pairs_evaluated += probes;
    return hits;
  };

  double degree_sum = 0.0;
  bool any_refined = false;
  for (uint64_t s = 0; s < num_vertices_; ++s) {
    const auto u = static_cast<VectorId>(rng.Below(n));
    const uint64_t coarse_hits = probe(u, coarse_probes_);
    if (coarse_hits == 0) continue;  // sparse vertex: contributes ≈ 0
    // Dense-looking vertex: refine with the longer focal length.
    any_refined = true;
    const uint64_t refined_hits = probe(u, refined_probes_);
    const double deg = static_cast<double>(coarse_hits + refined_hits) /
                       static_cast<double>(coarse_probes_ + refined_probes_) *
                       static_cast<double>(n - 1);
    degree_sum += deg;
  }

  const double scale =
      static_cast<double>(n) / static_cast<double>(num_vertices_);
  result.estimate = ClampEstimate(scale * degree_sum / 2.0, total_pairs);
  // With no dense vertex found the estimate is an unguaranteed zero — the
  // high-threshold failure mode the paper points out.
  result.guaranteed = any_refined;
  return result;
}

}  // namespace vsj
