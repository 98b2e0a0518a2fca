#include "vsj/eval/ground_truth.h"

// Arithmetic relative to Similarity() (vector/similarity.h): the cosine
// numerator is the same sum of double products in increasing-dimension
// order and the denominator the same norm product, so cosine similarities
// are bit-identical to CosineSimilarity. The Jaccard denominator is
// l1(u) + l1(v) − Σmin rather than JaccardSimilarity's merged Σmax, which
// may round differently; ground_truth_test pins the counts against the
// brute-force reference on every generator and both measures.

#include <algorithm>
#include <atomic>
#include <thread>

#include "vsj/join/inverted_index.h"
#include "vsj/util/check.h"

namespace vsj {

namespace {

/// Per-thread accumulation state.
struct Worker {
  std::vector<double> acc;        // shared-weight accumulator per partner
  std::vector<VectorId> touched;  // partners with non-zero accumulator
  // hits[m]: pairs whose similarity meets exactly the m smallest thresholds.
  std::vector<uint64_t> hits;
};

}  // namespace

std::vector<double> StandardThresholds() {
  return {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
}

GroundTruth::GroundTruth(DatasetView dataset, SimilarityMeasure measure,
                         std::vector<double> thresholds, unsigned num_threads)
    : thresholds_(std::move(thresholds)) {
  std::sort(thresholds_.begin(), thresholds_.end());
  for (double tau : thresholds_) {
    VSJ_CHECK_MSG(tau > 0.0 && tau <= 1.0,
                  "exact thresholds must lie in (0, 1], got %f", tau);
  }
  join_sizes_.assign(thresholds_.size(), 0);
  const uint64_t n = dataset.size();
  total_pairs_ = n * (n - 1) / 2;
  if (n < 2) return;

  const InvertedIndex index(dataset);
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  num_threads = std::min<unsigned>(num_threads, static_cast<unsigned>(n));

  std::vector<Worker> workers(num_threads);
  std::atomic<VectorId> next_probe{1};  // probe 0 has no smaller partners

  auto run = [&](Worker& w) {
    w.acc.assign(n, 0.0);
    w.hits.assign(thresholds_.size() + 1, 0);
    while (true) {
      const VectorId i = next_probe.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      const VectorRef u = dataset[i];

      // Accumulate, for every partner j < i sharing a dimension with u,
      // the cosine numerator (dot product) or the Jaccard numerator
      // (Σ min weights) in one pass over u's postings.
      for (const Feature f : u) {
        for (const Posting& p : index.postings(f.dim)) {
          if (p.id >= i) break;  // postings are in increasing id order
          const double contribution =
              measure == SimilarityMeasure::kCosine
                  ? static_cast<double>(f.weight) * p.weight
                  : std::min<double>(f.weight, p.weight);
          if (contribution <= 0.0) continue;  // avoid re-pushing on underflow
          if (w.acc[p.id] == 0.0) w.touched.push_back(p.id);
          w.acc[p.id] += contribution;
        }
      }

      for (VectorId j : w.touched) {
        const VectorRef v = dataset[j];
        double sim;
        if (measure == SimilarityMeasure::kCosine) {
          const double denom = u.norm() * v.norm();
          sim = denom > 0.0 ? std::min(w.acc[j] / denom, 1.0) : 0.0;
        } else {
          const double min_sum = w.acc[j];
          const double union_sum = u.l1_norm() + v.l1_norm() - min_sum;
          sim = union_sum > 0.0 ? std::min(min_sum / union_sum, 1.0) : 0.0;
        }
        w.acc[j] = 0.0;
        ++w.hits[std::upper_bound(thresholds_.begin(), thresholds_.end(),
                                  SnapUnitSimilarity(sim)) -
                 thresholds_.begin()];
      }
      w.touched.clear();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (Worker& w : workers) threads.emplace_back(run, std::ref(w));
  for (std::thread& t : threads) t.join();

  // A pair meeting the m smallest thresholds counts toward J of each.
  for (const Worker& w : workers) {
    uint64_t at_least = 0;
    for (size_t t = thresholds_.size(); t-- > 0;) {
      at_least += w.hits[t + 1];
      join_sizes_[t] += at_least;
    }
  }
}

uint64_t GroundTruth::JoinSize(double tau) const {
  if (tau <= 0.0) return total_pairs_;
  auto it = std::lower_bound(thresholds_.begin(), thresholds_.end(), tau);
  VSJ_CHECK_MSG(it != thresholds_.end() && *it == tau,
                "threshold %f was not registered for exact counting", tau);
  return join_sizes_[it - thresholds_.begin()];
}

double GroundTruth::Selectivity(double tau) const {
  if (total_pairs_ == 0) return 0.0;
  return static_cast<double>(JoinSize(tau)) /
         static_cast<double>(total_pairs_);
}

}  // namespace vsj
