// Appendix B.2.2 (extension): non-self join estimation between two
// collections U and V, comparing general LSH-SS against general RS(pop) and
// exact ground truth (brute force, feasible at bench scale).

#include <iostream>

#include "bench_common.h"
#include "vsj/core/general_join.h"
#include "vsj/join/brute_force_join.h"

int main() {
  using namespace vsj;
  using namespace vsj::bench;

  const Scale scale = LoadScale(/*default_n=*/3000, /*default_k=*/10,
                                /*default_trials=*/30);

  // Two overlapping collections: same generator family, different seeds,
  // plus a shared near-duplicate core via a common seed block.
  CorpusConfig left_config = DblpLikeConfig(scale.n, scale.seed);
  left_config.cluster_fraction = 0.15;
  CorpusConfig right_config = DblpLikeConfig(scale.n, scale.seed);
  right_config.cluster_fraction = 0.15;
  right_config.seed = scale.seed;  // same seed → overlapping content
  VectorDataset left = GenerateCorpus(left_config);
  VectorDataset right = GenerateCorpus(right_config);

  SimHashFamily family(scale.seed ^ 0xfeed);
  LshTable left_table(family, left, scale.k);
  LshTable right_table(family, right, scale.k);

  GeneralLshSsEstimator lsh_ss(left, right, left_table, right_table,
                               SimilarityMeasure::kCosine);
  GeneralRandomPairSampling rs(left, right, SimilarityMeasure::kCosine);

  // N_H and N_L are the sizes of any sampled estimate's two strata.
  Rng probe(scale.seed);
  const StratumTallies strata = lsh_ss.Estimate(1.0, probe).strata;
  std::cout << "# general join: |U| = " << left.size() << ", |V| = "
            << right.size() << ", N_H = " << strata[0].size << " of "
            << strata[0].size + strata[1].size << " pairs\n\n";

  TablePrinter table("Appendix B.2.2: general (non-self) join estimation");
  table.SetHeader({"tau", "true J", "LSH-SS mean est", "LSH-SS |err|",
                   "RS mean est", "RS |err|"});
  std::vector<double> taus;
  std::vector<double> true_j;
  for (double tau : {0.3, 0.5, 0.7, 0.9}) {
    const uint64_t j = BruteForceGeneralJoinSize(
        left, right, SimilarityMeasure::kCosine, tau);
    if (j == 0) continue;
    taus.push_back(tau);
    true_j.push_back(static_cast<double>(j));
  }
  const std::vector<TrialSeries> lsh_ss_series =
      RunTrials(lsh_ss, taus, scale.trials, scale.seed);
  const std::vector<TrialSeries> rs_series =
      RunTrials(rs, taus, scale.trials, scale.seed);
  for (size_t j = 0; j < taus.size(); ++j) {
    std::vector<std::string> row = {TablePrinter::Fmt(taus[j], 1),
                                    TablePrinter::Count(true_j[j])};
    for (const std::vector<TrialSeries>* series :
         {&lsh_ss_series, &rs_series}) {
      const ErrorStats stats =
          ComputeErrorStats((*series)[j].estimates, true_j[j]);
      row.push_back(TablePrinter::Count(stats.mean_estimate));
      row.push_back(
          TablePrinter::Pct(stats.mean_absolute_relative_error));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  return 0;
}
