// Quickstart: estimate a vector similarity join size with LSH-SS.
//
// Builds a small synthetic document corpus, indexes it with one SimHash
// LSH table (k = 20 hash functions), and estimates the number of pairs with
// cosine similarity ≥ τ — comparing the estimate against the exact answer.
//
//   $ ./quickstart [n] [tau]

#include <cstdlib>
#include <iostream>

#include "vsj/core/lsh_ss_estimator.h"
#include "vsj/eval/ground_truth.h"
#include "vsj/gen/workloads.h"
#include "vsj/lsh/lsh_table.h"
#include "vsj/lsh/simhash.h"

int main(int argc, char** argv) {
  const size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 5000;
  const double tau = argc > 2 ? std::strtod(argv[2], nullptr) : 0.7;

  // 1. A dataset: any collection of sparse vectors. Here, a synthetic
  //    DBLP-flavoured corpus (binary bag-of-words titles).
  vsj::VectorDataset docs = vsj::GenerateCorpus(vsj::DblpLikeConfig(n));
  std::cout << "corpus: " << docs.size() << " documents, "
            << docs.NumPairs() << " pairs\n";

  // 2. An LSH table. SimHash is locality sensitive for cosine similarity;
  //    the table stores bucket counts (the paper's only index extension).
  vsj::SimHashFamily family(/*seed=*/42);
  vsj::LshTable table(family, docs, /*k=*/20);
  std::cout << "LSH table: " << table.num_buckets() << " buckets, N_H = "
            << table.NumSameBucketPairs() << " same-bucket pairs\n";

  // 3. The estimator. LSH-SS stratifies pairs into same-bucket /
  //    cross-bucket strata and samples each appropriately (Algorithm 1).
  vsj::LshSsEstimator estimator(docs, table, vsj::SimilarityMeasure::kCosine);
  vsj::Rng rng(7);
  const vsj::EstimationResult result = estimator.Estimate(tau, rng);
  std::cout << "estimate at tau = " << tau << ": " << result.estimate
            << "  (pairs evaluated: " << result.pairs_evaluated << ")\n";
  for (size_t s = 0; s < result.strata.size(); ++s) {
    std::cout << "  stratum " << (s == 0 ? 'H' : 'L') << ": "
              << result.strata[s].hits << " of " << result.strata[s].draws
              << " sampled pairs meet tau\n";
  }

  // 4. Sanity check against the exact join size (one inverted-index pass).
  const vsj::GroundTruth truth(docs, vsj::SimilarityMeasure::kCosine, {tau});
  std::cout << "exact join size: " << truth.JoinSize(tau) << "\n";
  return 0;
}
