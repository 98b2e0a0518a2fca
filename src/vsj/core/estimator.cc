#include "vsj/core/estimator.h"

#include <algorithm>

namespace vsj {

std::vector<EstimationResult> JoinSizeEstimator::EstimateSweep(
    std::span<const double> taus, const Rng& rng) const {
  std::vector<EstimationResult> results;
  results.reserve(taus.size());
  for (const double tau : taus) {
    Rng copy = rng;
    results.push_back(Estimate(tau, copy));
  }
  return results;
}

Rng TrialStream(uint64_t seed, size_t t) {
  return Rng(seed).Fork(0).Fork(t);
}

double ClampEstimate(double estimate, uint64_t max_pairs) {
  return std::clamp(estimate, 0.0, static_cast<double>(max_pairs));
}

}  // namespace vsj
