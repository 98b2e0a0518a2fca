// Appendix B.1 (extension): the Optimal-k Problem (Definition 4).
//
// Sweeps k, reporting the estimated precision α = P(T|H) and recall
// P(H|T) trade-off the appendix describes (larger k → higher precision,
// lower recall), then runs the FindOptimalK search for a target (ε, p) and
// reports the chosen k. Also validates the appendix's closing remark that
// "slightly smaller k values, say between 5 and 15, generally give better
// accuracy" by scoring LSH-SS at each probed k.

#include <iostream>

#include "bench_common.h"
#include "vsj/core/lsh_ss_estimator.h"
#include "vsj/core/optimal_k.h"
#include "vsj/eval/probability_profile.h"

int main() {
  using namespace vsj;
  using namespace vsj::bench;

  const Scale scale = LoadScale(/*default_n=*/10000, /*default_k=*/20,
                                /*default_trials=*/30);
  Workbench bench =
      BuildWorkbench(DblpLikeConfig(scale.n, scale.seed), scale.k);
  const double tau = 0.8;
  const double true_j = static_cast<double>(bench.truth->JoinSize(tau));

  TablePrinter table("Appendix B.1: precision/recall/accuracy vs k at tau " +
                     TablePrinter::Fmt(tau, 1));
  table.SetHeader({"k", "alpha=P(T|H)", "P(H|T)", "N_H",
                   "LSH-SS |rel err|"});
  for (uint32_t k : {4u, 6u, 8u, 10u, 15u, 20u, 30u}) {
    LshIndex index(*bench.family, bench.dataset, k, 1);
    const auto rows = ComputeProbabilityProfile(
        bench.dataset, index.table(0), SimilarityMeasure::kCosine,
        *bench.truth);
    double alpha = 0.0, recall = 0.0;
    for (const ProbabilityRow& row : rows) {
      if (row.tau == tau) {
        alpha = row.p_true_given_h;
        recall = row.p_h_given_true;
      }
    }
    std::string err = "-";
    if (true_j > 0.0) {
      LshSsEstimator est(bench.dataset, index.table(0),
                         SimilarityMeasure::kCosine);
      const TrialSeries series =
          RunTrials(est, {tau}, scale.trials, scale.seed).front();
      const ErrorStats stats =
          ComputeErrorStats(series.estimates, true_j);
      err = TablePrinter::Pct(stats.mean_absolute_relative_error);
    }
    table.AddRow({std::to_string(k), TablePrinter::Sci(alpha),
                  TablePrinter::Sci(recall),
                  std::to_string(index.table(0).NumSameBucketPairs()), err});
  }
  table.Print(std::cout);

  // The search of Definition 4 with a concrete (ε, p) target.
  const double epsilon = 0.5;
  const double probability = 0.95;
  const double rho =
      PrecisionFloor(epsilon, probability, bench.dataset.size());
  Rng rng(scale.seed);
  const OptimalKResult result = FindOptimalK(
      bench.dataset, *bench.family, tau, rho, rng,
      {.min_k = 2, .max_k = 40, .samples_per_k = 4000, .step = 2});
  std::cout << "\n# Definition 4 search: epsilon = " << epsilon
            << ", p = " << probability
            << " -> rho = " << TablePrinter::Sci(rho) << "; optimal k = ";
  if (result.best_k != 0) {
    std::cout << result.best_k << " (alpha = "
              << TablePrinter::Sci(result.probed.back().alpha) << ")\n";
  } else {
    std::cout << "not found within the probed range\n";
  }
  return 0;
}
