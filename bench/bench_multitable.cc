// Appendix B.2.1 (extension): multi-table estimators — the median estimator
// and the virtual-bucket estimator — ablated against single-table LSH-SS.
//
// Expected behavior per the paper's analysis: the median (with a per-table
// budget equal to the single-table budget, i.e. an ℓ-fold total sample)
// deviates less often; virtual buckets enlarge stratum H and help when k is
// overly selective.

#include <iostream>

#include "bench_common.h"
#include "vsj/core/median_estimator.h"
#include "vsj/core/virtual_bucket_estimator.h"

int main() {
  using namespace vsj;
  using namespace vsj::bench;

  const Scale scale = LoadScale(/*default_n=*/10000, /*default_k=*/20,
                                /*default_trials=*/30);
  const uint32_t num_tables = 5;
  Workbench bench = BuildWorkbench(DblpLikeConfig(scale.n, scale.seed),
                                   scale.k, num_tables);

  LshSsEstimator single(bench.dataset, bench.index->table(0),
                        SimilarityMeasure::kCosine);
  MedianEstimator median(bench.dataset, *bench.index,
                         SimilarityMeasure::kCosine);
  VirtualBucketEstimator vbucket(bench.dataset, *bench.index,
                                 SimilarityMeasure::kCosine);
  const JoinSizeEstimator* estimators[] = {&single, &median, &vbucket};

  // The virtual N_H is the first stratum's size in any sampled estimate.
  Rng probe(scale.seed);
  std::cout << "# stratum H sizes: single table N_H = "
            << bench.index->table(0).NumSameBucketPairs()
            << ", virtual (union over " << num_tables << " tables) N_H = "
            << vbucket.Estimate(1.0, probe).strata[0].size << "\n\n";

  // One RunTrials sweep per estimator feeds both tables.
  const std::vector<double> taus =
      DefinedThresholds(bench, StandardThresholds());
  std::vector<std::vector<TrialSeries>> series;
  for (const JoinSizeEstimator* estimator : estimators) {
    series.push_back(RunTrials(*estimator, taus, scale.trials, scale.seed));
  }

  TablePrinter table("Appendix B.2.1: multi-table estimators (" +
                     std::to_string(num_tables) + " tables)");
  table.SetHeader({"tau", "true J", "LSH-SS over/under",
                   "median over/under", "vbucket over/under"});
  for (size_t j = 0; j < taus.size(); ++j) {
    const double true_j = static_cast<double>(bench.truth->JoinSize(taus[j]));
    std::vector<std::string> row = {TablePrinter::Fmt(taus[j], 1),
                                    TablePrinter::Count(true_j)};
    for (size_t e = 0; e < 3; ++e) {
      const ErrorStats stats =
          ComputeErrorStats(series[e][j].estimates, true_j);
      row.push_back(TablePrinter::Pct(stats.mean_overestimation) + " / " +
                    TablePrinter::Pct(stats.mean_underestimation));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);

  // Reliability: large deviations (off by more than 3x) per estimator.
  TablePrinter reliability("Large deviations (estimate off by > 3x), "
                           "summed over thresholds");
  reliability.SetHeader({"estimator", "# trials off > 3x"});
  const char* names[] = {"LSH-SS (1 table)", "median", "virtual bucket"};
  for (size_t e = 0; e < 3; ++e) {
    size_t large = 0;
    for (const TrialSeries& cell : series[e]) {
      const double true_j =
          static_cast<double>(bench.truth->JoinSize(cell.tau));
      for (double est : cell.estimates) {
        if (est > 3.0 * true_j || est < true_j / 3.0) ++large;
      }
    }
    reliability.AddRow({names[e], std::to_string(large)});
  }
  std::cout << "\n";
  reliability.Print(std::cout);
  return 0;
}
