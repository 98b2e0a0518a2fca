// Bifocal-style vertex/degree sampling (adapted from Ganguly, Gibbons,
// Matias & Silberschatz, SIGMOD 1996; discussed in paper §2).
//
// Bifocal sampling fights skew in equi-join size estimation by treating
// high-frequency ("dense") and low-frequency ("sparse") join values with
// separate procedures. The natural VSJ analogue works on the similarity
// graph: J = Σ_u deg(u) / 2 with deg(u) = |{v : sim(u,v) ≥ τ}|.
//
//   1. Sample s vertices; probe each with a coarse round of m₁ random
//      partners to estimate its degree.
//   2. Vertices that look dense (≥ 1 coarse hit) get a refined round of
//      m₂ » m₁ partner probes — the "second focal length".
//   3. Ĵ = (n / 2s) Σ_u d̂eg(u).
//
// As the paper argues, the equi-join guarantee (good estimates for join
// sizes Ω(n log n)) does not transfer: at high thresholds every coarse
// round comes back empty and the estimator collapses to 0. The bench suite
// uses this estimator to demonstrate exactly that failure mode.

#ifndef VSJ_CORE_DEGREE_SAMPLING_H_
#define VSJ_CORE_DEGREE_SAMPLING_H_

#include "vsj/core/estimator.h"
#include "vsj/vector/similarity.h"
#include "vsj/vector/dataset_view.h"

namespace vsj {

/// Options of the bifocal-style estimator. Defaults follow the √(n log n)
/// budgets of the original scheme.
struct DegreeSamplingOptions {
  /// Vertex sample size s; 0 means ⌈√(n·log₂ n)⌉.
  uint64_t num_vertices = 0;
  /// Coarse partner probes m₁ per vertex; 0 means ⌈√(n·log₂ n)⌉ / 4.
  uint64_t coarse_probes = 0;
  /// Refined partner probes m₂ for dense-looking vertices; 0 means 4·m₁.
  uint64_t refined_probes = 0;
};

/// `options` with each zero budget replaced by its default for a dataset of
/// n vectors (n < 2 counts as 2). The estimator's constructor and the
/// server's admission check both size a trial from this one function.
DegreeSamplingOptions ResolveDegreeSamplingOptions(
    uint64_t n, DegreeSamplingOptions options = {});

/// The adapted bifocal estimator. One trial draws at most s · (m₁ + m₂)
/// pairs: m₁ coarse probes per sampled vertex, m₂ more for each one that
/// looks dense.
class DegreeSamplingEstimator final : public JoinSizeEstimator {
 public:
  DegreeSamplingEstimator(DatasetView dataset,
                          SimilarityMeasure measure,
                          DegreeSamplingOptions options = {});

  EstimationResult Estimate(double tau, Rng& rng) const override;
  std::string name() const override { return "Bifocal"; }

  uint64_t num_vertices() const { return num_vertices_; }
  uint64_t coarse_probes() const { return coarse_probes_; }
  uint64_t refined_probes() const { return refined_probes_; }

 private:
  DatasetView dataset_;
  SimilarityMeasure measure_;
  uint64_t num_vertices_;
  uint64_t coarse_probes_;
  uint64_t refined_probes_;
};

}  // namespace vsj

#endif  // VSJ_CORE_DEGREE_SAMPLING_H_
