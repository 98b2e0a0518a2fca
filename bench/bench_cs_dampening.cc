// Appendix C.3: impact of the dampened scale-up factor c_s.
//
// Compares LSH-SS (safe lower bound), fixed c_s ∈ {0.1, 0.5, 1.0} and the
// adaptive c_s = n_L/δ used by LSH-SS(D), reporting over/underestimation
// per threshold.
//
// Paper signatures: larger c_s reduces underestimation but causes
// overestimation with large variance (c_s = 1 gives +100%..900% at high
// thresholds; c_s = 0.1 keeps overestimation under ~62%); 0.1 ≤ c_s ≤ 0.5
// is the recommended range when variance matters.

#include "bench_common.h"
#include "vsj/core/lsh_ss_estimator.h"

int main() {
  using namespace vsj;
  using namespace vsj::bench;

  const Scale scale = LoadScale(/*default_n=*/20000);
  Workbench bench =
      BuildWorkbench(DblpLikeConfig(scale.n, scale.seed), scale.k);

  struct Variant {
    std::string label;
    DampeningMode mode;
    double cs;
  };
  const std::vector<Variant> variants = {
      {"safe lower bound", DampeningMode::kSafeLowerBound, 1.0},
      {"cs=0.1", DampeningMode::kFixedFactor, 0.1},
      {"cs=0.5", DampeningMode::kFixedFactor, 0.5},
      {"cs=1.0", DampeningMode::kFixedFactor, 1.0},
      {"cs=nL/delta (D)", DampeningMode::kAdaptiveNlOverDelta, 1.0},
  };

  std::vector<AccuracyCell> cells;
  for (const Variant& variant : variants) {
    LshSsOptions options;
    options.dampening = variant.mode;
    options.dampening_factor = variant.cs;
    const LshSsEstimator estimator(bench.dataset, bench.index->table(0),
                                   SimilarityMeasure::kCosine, options);
    const std::vector<AccuracyCell> scored =
        ScoreSweep(bench, estimator, variant.label, StandardThresholds(),
                   scale.trials, scale.seed);
    cells.insert(cells.end(), scored.begin(), scored.end());
  }
  PrintAccuracyFigure("Appendix C.3: varying c_s", cells);
  return 0;
}
