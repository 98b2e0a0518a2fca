#include "vsj/eval/experiment.h"

#include "vsj/util/timer.h"

namespace vsj {

std::vector<TrialSeries> RunTrials(const JoinSizeEstimator& estimator,
                                   const std::vector<double>& taus,
                                   size_t trials, uint64_t seed) {
  std::vector<TrialSeries> series(taus.size());
  for (size_t j = 0; j < taus.size(); ++j) {
    series[j].tau = taus[j];
    series[j].estimates.reserve(trials);
    series[j].pairs_evaluated.reserve(trials);
  }
  double total_ms = 0.0;
  for (size_t t = 0; t < trials; ++t) {
    Timer timer;
    const std::vector<EstimationResult> results =
        estimator.EstimateSweep(taus, TrialStream(seed, t));
    total_ms += timer.ElapsedMillis();
    for (size_t j = 0; j < taus.size(); ++j) {
      series[j].estimates.push_back(results[j].estimate);
      series[j].pairs_evaluated.push_back(results[j].pairs_evaluated);
      if (!results[j].guaranteed) ++series[j].num_unguaranteed;
    }
  }
  for (TrialSeries& s : series) {
    s.mean_runtime_ms = trials > 0 ? total_ms / trials : 0.0;
  }
  return series;
}

}  // namespace vsj
