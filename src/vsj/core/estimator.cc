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

double ClampEstimate(double estimate, uint64_t max_pairs) {
  return std::clamp(estimate, 0.0, static_cast<double>(max_pairs));
}

}  // namespace vsj
