// Virtual-bucket estimator over multiple LSH tables (paper Appendix B.2.1).
//
// A pair is "in the same (virtual) bucket" iff it shares a bucket in ANY of
// the ℓ tables, which relaxes an overly selective g (large k): stratum H
// becomes the union ∪_t SH_t, capturing more true pairs. Algorithm 1 then
// runs unchanged against the virtual strata — this estimator only binds
// their sizes and pair sources to EstimateStratified (stratified_sampling.h):
//   * N_H is computed exactly by deduplicating the same-bucket pairs of all
//     tables (their total count is Σ_t N_H^t, small by LSH design).
//   * Uniform sampling from the union uses multiplicity rejection: draw a
//     table ∝ N_H^t, a pair within it, and accept with probability
//     1/multiplicity(pair) where multiplicity counts the tables in which the
//     pair shares a bucket.
//   * Stratum L draws a uniform pair and rejects it when it shares a bucket
//     in any table.

#ifndef VSJ_CORE_VIRTUAL_BUCKET_ESTIMATOR_H_
#define VSJ_CORE_VIRTUAL_BUCKET_ESTIMATOR_H_

#include <memory>
#include <span>
#include <vector>

#include "vsj/core/estimator.h"
#include "vsj/core/lsh_ss_estimator.h"
#include "vsj/lsh/lsh_index.h"
#include "vsj/util/alias_table.h"
#include "vsj/vector/similarity.h"

namespace vsj {

/// LSH-SS over virtual buckets (union of per-table strata H).
class VirtualBucketEstimator final : public StratifiedEstimator {
 public:
  VirtualBucketEstimator(DatasetView dataset, const LshIndex& index,
                         SimilarityMeasure measure, LshSsOptions options = {});

  std::string name() const override { return "LSH-SS(vbucket)"; }

 private:
  std::vector<EstimationResult> Sweep(std::span<const double> taus,
                                      Rng& rng) const override;
  VectorPair SampleVirtualPair(Rng& rng) const;
  uint32_t Multiplicity(VectorId u, VectorId v) const;

  DatasetView dataset_;
  const LshIndex* index_;
  SimilarityMeasure measure_;
  LshSsRules rules_;
  uint64_t num_pairs_h_ = 0;  // |∪_t SH_t|, the exact virtual stratum-H size
  std::unique_ptr<AliasTable> table_picker_;  // weight N_H^t per table
};

}  // namespace vsj

#endif  // VSJ_CORE_VIRTUAL_BUCKET_ESTIMATOR_H_
