// Optimizer-facing cardinality facade over the EstimationService.
//
// Query optimizers don't want estimator names, trial counts and RNG seeds —
// they want "how many pairs survive ON sim(u,v) >= τ, and how sure are
// you?". CardinalityProvider pins those knobs once at construction (the
// summary-object idiom of cardinality estimators in cost-based optimizers)
// and exposes a single call, EstimateJoin(τ), returning a JoinSizeSummary
// with the cardinality, its selectivity relative to the M = C(n,2) pair
// universe, and the interval the join size lies in. Repeated probes at
// nearby thresholds are served from the service's cache without
// re-sampling.

#ifndef VSJ_SERVICE_CARDINALITY_PROVIDER_H_
#define VSJ_SERVICE_CARDINALITY_PROVIDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "vsj/service/estimation_service.h"

namespace vsj {

/// Cardinality answer for one join predicate sim(u, v) >= τ.
struct JoinSizeSummary {
  double tau = 0.0;

  /// Estimated join output cardinality Ĵ(τ), clamped to [0, M].
  double cardinality = 0.0;

  /// Ĵ / M: the predicate's selectivity over the C(n, 2) pair universe.
  double selectivity = 0.0;

  /// The interval of the join size at 95% (EstimateInterval): what a plan
  /// cost should be robust across. Both 0 for an estimator that states no
  /// interval.
  double lower = 0.0;
  double upper = 0.0;

  /// M = C(n, 2), the join's worst-case output.
  uint64_t max_pairs = 0;

  /// True when the summary was served from the estimate cache.
  bool from_cache = false;

  std::string estimator_name;
};

/// Per-provider estimation policy.
struct CardinalityProviderOptions {
  std::string estimator_name = "LSH-SS";
  /// Independent trials averaged per summary; >1 buys an error bar.
  size_t trials = 3;
  uint64_t seed = 1;
};

/// Facade bound to one EstimationService (which must outlive it).
class CardinalityProvider {
 public:
  explicit CardinalityProvider(EstimationService& service,
                               CardinalityProviderOptions options = {});

  /// Cardinality of the self-join at threshold τ.
  JoinSizeSummary EstimateJoin(double tau);

  /// Batched variant: one summary per threshold, computed concurrently on
  /// the service's pool.
  std::vector<JoinSizeSummary> EstimateJoinBatch(
      const std::vector<double>& taus);

  const CardinalityProviderOptions& options() const { return options_; }
  const EstimationService& service() const { return service_; }

 private:
  JoinSizeSummary Summarize(const EstimateResponse& response) const;

  EstimationService& service_;
  CardinalityProviderOptions options_;
};

}  // namespace vsj

#endif  // VSJ_SERVICE_CARDINALITY_PROVIDER_H_
