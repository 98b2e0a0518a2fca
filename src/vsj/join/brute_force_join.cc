#include "vsj/join/brute_force_join.h"

#include "vsj/vector/pair_eval.h"

namespace vsj {

uint64_t BruteForceJoinSize(DatasetView dataset,
                            SimilarityMeasure measure, double tau) {
  // The O(n²) triangle runs through the batched pair evaluator: same
  // per-pair arithmetic as the scalar Similarity loop (the acceptance suite
  // compares estimators against this count, so it must stay exact), but
  // with the refs materialized once per batch and the intersection kernel
  // SIMD-dispatched.
  uint64_t count = 0;
  const size_t n = dataset.size();
  VectorId firsts[kPairEvalBatch];
  VectorId seconds[kPairEvalBatch];
  size_t fill = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      firsts[fill] = static_cast<VectorId>(i);
      seconds[fill] = static_cast<VectorId>(j);
      if (++fill == kPairEvalBatch) {
        count += EvaluatePairBatch(measure, dataset, firsts, seconds, fill,
                                   tau, nullptr);
        fill = 0;
      }
    }
  }
  count += EvaluatePairBatch(measure, dataset, firsts, seconds, fill, tau,
                             nullptr);
  return count;
}

std::vector<JoinPair> BruteForceJoinPairs(DatasetView dataset,
                                          SimilarityMeasure measure,
                                          double tau) {
  // Needs the similarity *values*, not just the count, so this stays a
  // per-pair loop — the Dot underneath is the same dispatched kernel.
  std::vector<JoinPair> pairs;
  const size_t n = dataset.size();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double sim = Similarity(measure, dataset[i], dataset[j]);
      if (sim >= tau) {
        pairs.push_back(JoinPair{static_cast<VectorId>(i),
                                 static_cast<VectorId>(j), sim});
      }
    }
  }
  return pairs;
}

uint64_t BruteForceGeneralJoinSize(DatasetView left,
                                   DatasetView right,
                                   SimilarityMeasure measure, double tau) {
  // Two distinct views, so the single-dataset batch entry point does not
  // apply; the per-pair Similarity still runs the dispatched kernel.
  uint64_t count = 0;
  for (size_t i = 0; i < left.size(); ++i) {
    for (size_t j = 0; j < right.size(); ++j) {
      if (Similarity(measure, left[i], right[j]) >= tau) ++count;
    }
  }
  return count;
}

}  // namespace vsj
