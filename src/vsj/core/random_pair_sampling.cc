#include "vsj/core/random_pair_sampling.h"

#include "vsj/util/check.h"

namespace vsj {

RandomPairSampling::RandomPairSampling(DatasetView dataset,
                                       SimilarityMeasure measure,
                                       RandomPairSamplingOptions options)
    : dataset_(dataset), measure_(measure) {
  VSJ_CHECK(dataset.size() >= 2);
  const uint64_t sample_size = options.sample_size != 0
                                   ? options.sample_size
                                   : DefaultRsSampleSize(dataset.size());
  VSJ_CHECK(sample_size > 0);
  plan_ = {.total_pairs = dataset.NumPairs(),
           .num_pairs_h = dataset.NumPairs(),
           .m_h = sample_size};
}

std::vector<EstimationResult> RandomPairSampling::Sweep(
    std::span<const double> taus, Rng& rng) const {
  const uint64_t n = dataset_.size();
  // Stratum L is empty, so the second source never draws.
  const auto draw = [n](Rng& r) { return SampleDistinctPair(n, r); };
  return EstimateStratified(dataset_, measure_, plan_, taus, draw, draw,
                            rng);
}

}  // namespace vsj
