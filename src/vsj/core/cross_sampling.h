// RS(cross): cross sampling (Haas et al., PODS 1993; paper §3.1).
//
// Sample ⌈√m⌉ records and evaluate *all* pairs among them, scaling the hit
// count by M / C(r, 2). Compared with RS(pop) it reuses each sampled record
// against every other, trading independence of the sampled pairs for fewer
// record fetches.

#ifndef VSJ_CORE_CROSS_SAMPLING_H_
#define VSJ_CORE_CROSS_SAMPLING_H_

#include <cstddef>

#include "vsj/core/estimator.h"
#include "vsj/vector/similarity.h"
#include "vsj/vector/dataset_view.h"

namespace vsj {

/// Options of RS(cross).
struct CrossSamplingOptions {
  /// Pair budget m; 0 means DefaultRsSampleSize(n)
  /// (random_pair_sampling.h). The number of sampled records is ⌈√m⌉.
  uint64_t sample_size = 0;
};

/// Cross sampling over a without-replacement record sample.
class CrossSampling final : public JoinSizeEstimator {
 public:
  CrossSampling(DatasetView dataset, SimilarityMeasure measure,
                CrossSamplingOptions options = {});

  EstimationResult Estimate(double tau, Rng& rng) const override;
  std::string name() const override { return "RS(cross)"; }

  /// Number of records drawn per estimate.
  size_t num_records() const { return num_records_; }

 private:
  DatasetView dataset_;
  SimilarityMeasure measure_;
  size_t num_records_;
};

}  // namespace vsj

#endif  // VSJ_CORE_CROSS_SAMPLING_H_
