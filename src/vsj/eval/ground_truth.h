// Ground-truth oracle: exact J(τ) for a dataset at a set of thresholds.
//
// One pass over an inverted index computes, for every unordered pair with
// at least one shared dimension, its exact similarity and counts it against
// every registered τ. Pairs sharing no dimension have similarity 0 under
// both cosine and Jaccard and meet no τ > 0. The cost is
// O(Σ_d C(df_d, 2)) whatever the number of thresholds, parallelized over
// probe vectors. join/brute_force_join is the O(n²) reference the tests
// pin this oracle against.

#ifndef VSJ_EVAL_GROUND_TRUTH_H_
#define VSJ_EVAL_GROUND_TRUTH_H_

#include <cstdint>
#include <vector>

#include "vsj/vector/similarity.h"
#include "vsj/vector/dataset_view.h"

namespace vsj {

/// The paper's standard threshold grid {0.1, 0.2, ..., 1.0}.
std::vector<double> StandardThresholds();

/// Exact join sizes of one dataset at a registered set of thresholds.
class GroundTruth {
 public:
  /// Computes J(τ) for every τ in `thresholds` (each must lie in (0, 1])
  /// in one pass; `num_threads` 0 means hardware concurrency.
  GroundTruth(DatasetView dataset, SimilarityMeasure measure,
              std::vector<double> thresholds, unsigned num_threads = 0);

  /// Exact J(τ); τ ≤ 0 returns M. Aborts if τ > 0 was not registered.
  uint64_t JoinSize(double tau) const;

  /// J(τ) / M.
  double Selectivity(double tau) const;

  /// M = C(n, 2).
  uint64_t TotalPairs() const { return total_pairs_; }

  /// The registered thresholds, ascending.
  const std::vector<double>& thresholds() const { return thresholds_; }

 private:
  std::vector<double> thresholds_;    // ascending
  std::vector<uint64_t> join_sizes_;  // J(thresholds_[t])
  uint64_t total_pairs_ = 0;
};

}  // namespace vsj

#endif  // VSJ_EVAL_GROUND_TRUTH_H_
