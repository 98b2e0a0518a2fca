#include "vsj/core/virtual_bucket_estimator.h"

#include <unordered_set>

#include "vsj/util/check.h"

namespace vsj {

namespace {

inline uint64_t PackPair(VectorId u, VectorId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | v;
}

}  // namespace

VirtualBucketEstimator::VirtualBucketEstimator(DatasetView dataset,
                                               const LshIndex& index,
                                               SimilarityMeasure measure,
                                               LshSsOptions options)
    : dataset_(dataset), index_(&index), measure_(measure) {
  VSJ_CHECK(dataset.size() >= 2);
  rules_ = MakeLshSsRules(options, dataset.size());
  // Exact |∪_t SH_t| by deduplication; the per-table totals are small by
  // LSH design (Σ_t N_H^t ≈ ℓ·n in any healthy index).
  std::unordered_set<uint64_t> distinct;
  std::vector<double> table_weights;
  for (uint32_t t = 0; t < index.num_tables(); ++t) {
    const LshTable& table = index.table(t);
    table_weights.push_back(static_cast<double>(table.NumSameBucketPairs()));
    for (size_t b = 0; b < table.num_buckets(); ++b) {
      const auto& members = table.bucket(b);
      for (size_t i = 0; i < members.size(); ++i) {
        for (size_t j = i + 1; j < members.size(); ++j) {
          distinct.insert(PackPair(members[i], members[j]));
        }
      }
    }
  }
  num_pairs_h_ = distinct.size();
  bool any_positive = false;
  for (double w : table_weights) any_positive |= w > 0.0;
  if (any_positive) {
    table_picker_ = std::make_unique<AliasTable>(table_weights);
  }
}

uint32_t VirtualBucketEstimator::Multiplicity(VectorId u, VectorId v) const {
  uint32_t count = 0;
  for (uint32_t t = 0; t < index_->num_tables(); ++t) {
    if (index_->table(t).SameBucket(u, v)) ++count;
  }
  return count;
}

VectorPair VirtualBucketEstimator::SampleVirtualPair(Rng& rng) const {
  // Multiplicity rejection makes the draw uniform over the union.
  while (true) {
    const auto t = static_cast<uint32_t>(table_picker_->Sample(rng));
    const VectorPair pair = index_->table(t).SampleSameBucketPair(rng);
    const uint32_t mult = Multiplicity(pair.first, pair.second);
    VSJ_DCHECK(mult >= 1);
    if (mult == 1 || rng.NextDouble() < 1.0 / mult) return pair;
  }
}

std::vector<EstimationResult> VirtualBucketEstimator::Sweep(
    std::span<const double> taus, Rng& rng) const {
  const auto n = static_cast<uint64_t>(dataset_.size());
  // SampleL: a uniform pair, rejected while it shares a bucket in any
  // table. N_L > 0 guarantees an accepting pair exists.
  return EstimateStratified(
      dataset_, measure_, taus, rng,
      Stratum{num_pairs_h_, rules_.h,
              [&](Rng& r) { return SampleVirtualPair(r); }},
      Stratum{dataset_.NumPairs() - num_pairs_h_, rules_.l, [&](Rng& r) {
                VectorPair pair;
                do {
                  pair = SampleDistinctPair(n, r);
                } while (index_->SameBucketInAnyTable(pair.first, pair.second));
                return pair;
              }});
}

}  // namespace vsj
