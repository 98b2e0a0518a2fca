#include "vsj/core/lattice_counting.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "vsj/util/check.h"
#include "vsj/util/hash.h"

namespace vsj {

namespace {

/// ∫_{lo}^{hi} x^a dx with the a = −1 singularity handled.
double PowerIntegral(double a, double lo, double hi) {
  if (hi <= lo) return 0.0;
  if (std::fabs(a + 1.0) < 1e-9) return std::log(hi / lo);
  return (std::pow(hi, a + 1.0) - std::pow(lo, a + 1.0)) / (a + 1.0);
}

}  // namespace

LatticeCountingEstimator::LatticeCountingEstimator(
    DatasetView dataset, const LshFamily& family,
    LatticeCountingOptions options)
    : family_(&family) {
  VSJ_CHECK(dataset.size() >= 2);
  if (options.signature_length == 0) options.signature_length = 20;
  VSJ_CHECK(options.min_support >= 2);
  const uint64_t n = dataset.size();
  total_pairs_ = n * (n - 1) / 2;
  x_min_ = std::max(family.CollisionProbability(0.0), 1e-6);
  ComputeMoments(dataset, family, options);
  FitPowerLaw();
}

void LatticeCountingEstimator::ComputeMoments(
    DatasetView dataset, const LshFamily& family,
    const LatticeCountingOptions& options) {
  const uint32_t k = options.signature_length;
  const SignatureDatabase signatures(family, dataset, k);
  const size_t n = dataset.size();
  moments_.assign(kLatticeMoments, 0.0);

  // Deterministic subset enumeration: order-t subset r is positions
  // {Mix64(r, t, j) mod k : j < t} (deduplicated); order 1 uses each
  // position exactly once.
  Rng subset_rng(0x5ca1ab1e);
  std::unordered_map<uint64_t, uint32_t> groups;
  groups.reserve(n);

  for (uint32_t order = 1; order <= kLatticeMoments; ++order) {
    const uint32_t num_subsets =
        order == 1 ? k : std::min(kLatticeSubsetsPerOrder, k);
    double sum_over_subsets = 0.0;
    for (uint32_t r = 0; r < num_subsets; ++r) {
      // Choose `order` distinct positions.
      std::vector<uint32_t> positions;
      if (order == 1) {
        positions.push_back(r);
      } else {
        while (positions.size() < order) {
          auto pos = static_cast<uint32_t>(subset_rng.Below(k));
          if (std::find(positions.begin(), positions.end(), pos) ==
              positions.end()) {
            positions.push_back(pos);
          }
        }
      }
      // Group vectors by the projected signature; count pairs per group.
      groups.clear();
      for (VectorId id = 0; id < n; ++id) {
        auto sig = signatures.Of(id);
        uint64_t key = 0x9ae16a3b2f90404fULL;
        for (uint32_t pos : positions) key = HashCombine(key, sig[pos]);
        ++groups[key];
      }
      uint64_t agreeing_pairs = 0;
      for (const auto& [key, count] : groups) {
        if (count < options.min_support) continue;
        agreeing_pairs += static_cast<uint64_t>(count) * (count - 1) / 2;
      }
      sum_over_subsets += static_cast<double>(agreeing_pairs);
    }
    moments_[order - 1] = sum_over_subsets / num_subsets;
  }
}

void LatticeCountingEstimator::FitPowerLaw() {
  // Match the ratio M_1 / M_2 = I_1(a) / I_2(a), where
  // I_t(a) = ∫_{x_min}^1 x^{a+t} dx, by bisection over the exponent a. The
  // ratio is monotone decreasing in a (larger a shifts mass toward 1 where
  // x^2 ≈ x).
  const double m1 = moments_[0];
  const double m2 = moments_[1];
  if (m1 <= 0.0 || m2 <= 0.0) {
    // Degenerate signature database (e.g. all-identical or all-distinct):
    // fall back to a flat density carrying M_1.
    exponent_ = 0.0;
    scale_ = m1 > 0.0 ? m1 / PowerIntegral(1.0, x_min_, 1.0) : 0.0;
    return;
  }
  const double target = m1 / m2;
  auto ratio = [&](double a) {
    return PowerIntegral(a + 1.0, x_min_, 1.0) /
           PowerIntegral(a + 2.0, x_min_, 1.0);
  };
  double lo = -40.0;
  double hi = 40.0;
  // ratio(lo) is large (mass near x_min), ratio(hi) → 1 (mass near 1).
  if (target >= ratio(lo)) {
    exponent_ = lo;
  } else if (target <= ratio(hi)) {
    exponent_ = hi;
  } else {
    for (int iter = 0; iter < 200; ++iter) {
      const double mid = 0.5 * (lo + hi);
      if (ratio(mid) > target) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    exponent_ = 0.5 * (lo + hi);
  }
  scale_ = m1 / PowerIntegral(exponent_ + 1.0, x_min_, 1.0);
}

EstimationResult LatticeCountingEstimator::Estimate(double tau,
                                                    Rng& rng) const {
  (void)rng;  // the analysis is deterministic given the signature database
  EstimationResult result;
  if (tau <= 0.0) {
    result.estimate = static_cast<double>(total_pairs_);
    return result;
  }
  // Pairs with similarity ≥ τ are those with collision probability
  // ≥ p(τ) under the fitted density.
  const double p_tau =
      std::max(family_->CollisionProbability(tau), x_min_);
  const double estimate = scale_ * PowerIntegral(exponent_, p_tau, 1.0);
  result.estimate = ClampEstimate(estimate, total_pairs_);
  result.guaranteed = false;  // model-based; no distribution-free bound
  return result;
}

}  // namespace vsj
