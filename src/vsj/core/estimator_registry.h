// Name-based estimator construction, shared by the benches, examples and
// integration tests so every experiment configures algorithms identically.

#ifndef VSJ_CORE_ESTIMATOR_REGISTRY_H_
#define VSJ_CORE_ESTIMATOR_REGISTRY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "vsj/core/estimator.h"
#include "vsj/core/stratified_sampling.h"
#include "vsj/lsh/lsh_index.h"
#include "vsj/vector/dataset_view.h"

namespace vsj {

/// Everything an estimator might need. Every estimator runs with its
/// defaults (the paper's §5.1/§6 budgets) except the four LSH-SS variants,
/// which take `lsh_ss`; a caller that needs another estimator at other
/// options constructs it directly.
struct EstimatorContext {
  DatasetView dataset;
  /// Required by LSH-based estimators; estimators use table 0 of the index
  /// unless they are explicitly multi-table.
  const LshIndex* index = nullptr;
  SimilarityMeasure measure = SimilarityMeasure::kCosine;
  LshSsOptions lsh_ss;
};

/// Creates the estimator registered under `name`. Known names:
///   "LSH-SS", "LSH-SS(D)", "RS(pop)", "RS(cross)", "LSH-S", "J_U", "LC",
///   "Adaptive", "Bifocal", "LSH-SS(median)", "LSH-SS(vbucket)".
/// Aborts on unknown names or missing context pieces.
std::unique_ptr<JoinSizeEstimator> CreateEstimator(
    std::string_view name, const EstimatorContext& context);

/// The four algorithms of the paper's headline comparison (Figures 2/3).
std::vector<std::string> HeadlineEstimatorNames();

/// Every registered name.
std::vector<std::string> AllEstimatorNames();

}  // namespace vsj

#endif  // VSJ_CORE_ESTIMATOR_REGISTRY_H_
