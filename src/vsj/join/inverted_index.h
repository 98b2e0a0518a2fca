// Inverted index: postings list per dimension.
//
// Shared substrate of the exact-join algorithms: the All-Pairs join and the
// ground-truth oracle (eval/ground_truth) both enumerate candidate pairs
// through postings of shared dimensions.

#ifndef VSJ_JOIN_INVERTED_INDEX_H_
#define VSJ_JOIN_INVERTED_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "vsj/vector/dataset_view.h"

namespace vsj {

/// One posting: a vector containing the dimension, with its weight.
struct Posting {
  VectorId id;
  float weight;
};

/// Immutable inverted index over a dataset.
class InvertedIndex {
 public:
  explicit InvertedIndex(DatasetView dataset);

  size_t num_dimensions() const { return postings_.size(); }

  /// Postings of dimension `dim` in increasing vector-id order; empty for
  /// out-of-range dimensions.
  const std::vector<Posting>& postings(DimId dim) const {
    static const std::vector<Posting> kEmpty;
    return dim < postings_.size() ? postings_[dim] : kEmpty;
  }

  /// Document frequency of `dim`.
  size_t DocFrequency(DimId dim) const { return postings(dim).size(); }

  /// Σ_d C(df_d, 2): the number of accumulate operations an index-based
  /// exact join performs; useful for cost estimation and tests.
  uint64_t NumCandidateOperations() const;

 private:
  std::vector<std::vector<Posting>> postings_;
};

}  // namespace vsj

#endif  // VSJ_JOIN_INVERTED_INDEX_H_
