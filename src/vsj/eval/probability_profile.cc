#include "vsj/eval/probability_profile.h"

#include <algorithm>
#include <cmath>

#include "vsj/util/check.h"

namespace vsj {

std::vector<ProbabilityRow> ComputeProbabilityProfile(
    DatasetView dataset, const LshTable& table,
    SimilarityMeasure measure, const GroundTruth& truth) {
  VSJ_CHECK(table.num_vectors() == dataset.size());
  const std::vector<double>& taus = truth.thresholds();

  // Count, per threshold, the true pairs inside buckets: one pass over all
  // same-bucket pairs (N_H similarity evaluations).
  std::vector<uint64_t> true_in_h(taus.size(), 0);
  for (size_t b = 0; b < table.num_buckets(); ++b) {
    const auto& members = table.bucket(b);
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        const double sim =
            Similarity(measure, dataset[members[i]], dataset[members[j]]);
        auto it = std::upper_bound(taus.begin(), taus.end(), sim);
        for (size_t t = 0; t < static_cast<size_t>(it - taus.begin()); ++t) {
          ++true_in_h[t];
        }
      }
    }
  }

  const double total_pairs = static_cast<double>(truth.TotalPairs());
  const double n_h = static_cast<double>(table.NumSameBucketPairs());
  const double n_l = static_cast<double>(table.NumCrossBucketPairs());

  std::vector<ProbabilityRow> rows;
  rows.reserve(taus.size());
  for (size_t t = 0; t < taus.size(); ++t) {
    ProbabilityRow row;
    row.tau = taus[t];
    row.join_size = truth.JoinSize(taus[t]);
    row.true_in_h = true_in_h[t];
    const double j = static_cast<double>(row.join_size);
    const double j_h = static_cast<double>(row.true_in_h);
    row.p_true = total_pairs > 0.0 ? j / total_pairs : 0.0;
    row.p_true_given_h = n_h > 0.0 ? j_h / n_h : 0.0;
    row.p_h_given_true = j > 0.0 ? j_h / j : 0.0;
    row.p_true_given_l = n_l > 0.0 ? (j - j_h) / n_l : 0.0;
    rows.push_back(row);
  }
  return rows;
}

TheoremThresholds ComputeTheoremThresholds(size_t n) {
  TheoremThresholds t;
  const double dn = static_cast<double>(n);
  t.alpha_floor = std::log2(dn) / dn;
  t.beta_high_ceiling = 1.0 / dn;
  return t;
}

}  // namespace vsj
