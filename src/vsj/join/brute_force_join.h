// O(n²) reference join. The correctness anchor for every other component:
// the ground-truth oracle, exact joins and estimators are all tested
// against it.

#ifndef VSJ_JOIN_BRUTE_FORCE_JOIN_H_
#define VSJ_JOIN_BRUTE_FORCE_JOIN_H_

#include <cstdint>
#include <vector>

#include "vsj/vector/similarity.h"
#include "vsj/vector/dataset_view.h"

namespace vsj {

/// A joined pair with its similarity.
struct JoinPair {
  VectorId first;
  VectorId second;
  double similarity;
};

/// Self-join size |{(u,v) : sim(u,v) ≥ τ, u ≠ v}| over unordered pairs.
uint64_t BruteForceJoinSize(DatasetView dataset,
                            SimilarityMeasure measure, double tau);

/// Self-join result pairs (first < second), in lexicographic order.
std::vector<JoinPair> BruteForceJoinPairs(DatasetView dataset,
                                          SimilarityMeasure measure,
                                          double tau);

/// General join size between two collections (Definition 5, Appendix B.2.2).
uint64_t BruteForceGeneralJoinSize(DatasetView left,
                                   DatasetView right,
                                   SimilarityMeasure measure, double tau);

}  // namespace vsj

#endif  // VSJ_JOIN_BRUTE_FORCE_JOIN_H_
