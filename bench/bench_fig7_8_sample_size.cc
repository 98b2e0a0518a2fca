// Figures 7 and 8 (Appendix C.2.2): impact of the sample size m, with
// δ fixed at log n.
//   m ∈ {√n, n/log n, 0.5n, n, 2n, n log n} for LSH-SS (and m_R = 1.5m for
//   RS(pop), as in the paper's protocol).
//   Figure 7: average absolute relative error; Figure 8: # τ with big error.
//
// Paper signatures: m < 0.5n causes serious underestimation in both
// algorithms; LSH-SS with m = n log n gives no large errors.

#include <cmath>
#include <iostream>

#include "bench_common.h"
#include "vsj/core/random_pair_sampling.h"

int main() {
  using namespace vsj;
  using namespace vsj::bench;

  const Scale scale = LoadScale(/*default_n=*/20000);
  Workbench bench =
      BuildWorkbench(DblpLikeConfig(scale.n, scale.seed), scale.k);
  const double n = static_cast<double>(bench.dataset.size());
  const double log_n = std::log2(n);

  struct Variant {
    std::string label;
    uint64_t m;
  };
  const std::vector<Variant> variants = {
      {"sqrt(n)", static_cast<uint64_t>(std::sqrt(n))},
      {"n/logn", static_cast<uint64_t>(n / log_n)},
      {"0.5n", static_cast<uint64_t>(0.5 * n)},
      {"n", static_cast<uint64_t>(n)},
      {"2n", static_cast<uint64_t>(2 * n)},
      {"nlogn", static_cast<uint64_t>(n * log_n)},
  };

  TablePrinter fig7("Figure 7: average relative error varying m (delta = logn)");
  fig7.SetHeader({"m", "LSH-SS", "RS(pop)"});
  TablePrinter fig8("Figure 8: # tau with big error (x10) varying m");
  fig8.SetHeader(
      {"m", "LSH-SS under", "LSH-SS over", "RS under", "RS over"});

  for (const Variant& variant : variants) {
    EstimatorContext context = MakeContext(bench);
    context.lsh_ss.sample_size_h = variant.m;
    context.lsh_ss.sample_size_l = variant.m;
    const RandomPairSampling rs(
        bench.dataset, context.measure,
        {.sample_size =
             static_cast<uint64_t>(1.5 * static_cast<double>(variant.m))});
    const SweepSummary summary[2] = {
        Summarize(ScoreSweep(bench, *CreateEstimator("LSH-SS", context),
                             "LSH-SS", StandardThresholds(), scale.trials,
                             scale.seed)),
        Summarize(ScoreSweep(bench, rs, "RS(pop)", StandardThresholds(),
                             scale.trials, scale.seed))};
    fig7.AddRow({variant.label, TablePrinter::Fmt(summary[0].avg_error, 3),
                 TablePrinter::Fmt(summary[1].avg_error, 3)});
    fig8.AddRow({variant.label, std::to_string(summary[0].big_under),
                 std::to_string(summary[0].big_over),
                 std::to_string(summary[1].big_under),
                 std::to_string(summary[1].big_over)});
  }
  fig7.Print(std::cout);
  std::cout << "\n";
  fig8.Print(std::cout);
  return 0;
}
