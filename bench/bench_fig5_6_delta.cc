// Figures 5 and 6 (Appendix C.2.1): impact of the answer-size threshold δ
// in SampleL, with the overall sample size fixed at m = n.
//   Figure 5: average absolute relative error over τ ∈ {0.1, ..., 1.0}
//   Figure 6: number of τ values with a big error (Ĵ/J ≥ 10 or J/Ĵ ≥ 10)
// for δ ∈ {0.5 log n, log n, 2 log n, √n}, plus RS(pop) at m = 1.5n.
//
// Paper signatures: δ > 2 log n underestimates badly (e.g. δ = √n gives
// < 10% of the true size at 4 of 10 thresholds); δ = log n balances.

#include <cmath>
#include <iostream>

#include "bench_common.h"

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
    std::string estimator;
    uint64_t delta;  // 0 for RS
  };
  const std::vector<Variant> variants = {
      {"LSH-SS d=0.5logn", "LSH-SS",
       static_cast<uint64_t>(std::max(1.0, 0.5 * log_n))},
      {"LSH-SS d=logn", "LSH-SS", static_cast<uint64_t>(log_n)},
      {"LSH-SS d=2logn", "LSH-SS", static_cast<uint64_t>(2 * log_n)},
      {"LSH-SS d=sqrt(n)", "LSH-SS",
       static_cast<uint64_t>(std::sqrt(n))},
      {"RS(pop) m=1.5n", "RS(pop)", 0},
  };

  TablePrinter fig5("Figure 5: average relative error varying delta (m = n)");
  fig5.SetHeader({"variant", "avg |rel error|"});
  TablePrinter fig6("Figure 6: # tau with big error (x10) varying delta");
  fig6.SetHeader({"variant", "big underest.", "big overest."});

  for (const Variant& variant : variants) {
    EstimatorContext context = MakeContext(bench);
    if (variant.delta != 0) context.lsh_ss.delta = variant.delta;
    auto estimator = CreateEstimator(variant.estimator, context);

    const SweepSummary summary =
        Summarize(ScoreSweep(bench, *estimator, variant.label,
                             StandardThresholds(), scale.trials, scale.seed));
    fig5.AddRow({variant.label, TablePrinter::Fmt(summary.avg_error, 3)});
    fig6.AddRow({variant.label, std::to_string(summary.big_under),
                 std::to_string(summary.big_over)});
  }
  fig5.Print(std::cout);
  std::cout << "\n";
  fig6.Print(std::cout);
  return 0;
}
