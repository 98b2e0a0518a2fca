#include "vsj/core/estimator_registry.h"

#include "vsj/core/adaptive_sampling.h"
#include "vsj/core/cross_sampling.h"
#include "vsj/core/degree_sampling.h"
#include "vsj/core/lattice_counting.h"
#include "vsj/core/lsh_s_estimator.h"
#include "vsj/core/lsh_ss_estimator.h"
#include "vsj/core/median_estimator.h"
#include "vsj/core/random_pair_sampling.h"
#include "vsj/core/uniformity_estimator.h"
#include "vsj/core/virtual_bucket_estimator.h"
#include "vsj/util/check.h"

namespace vsj {

namespace {

const LshIndex& RequireIndex(const EstimatorContext& context,
                             std::string_view name) {
  VSJ_CHECK_MSG(context.index != nullptr,
                "estimator %.*s requires an LSH index",
                static_cast<int>(name.size()), name.data());
  return *context.index;
}

}  // namespace

std::unique_ptr<JoinSizeEstimator> CreateEstimator(
    std::string_view name, const EstimatorContext& context) {
  VSJ_CHECK_MSG(context.dataset.valid(), "EstimatorContext needs a dataset");
  const DatasetView dataset = context.dataset;

  if (name == "RS(pop)") {
    return std::make_unique<RandomPairSampling>(dataset, context.measure);
  }
  if (name == "RS(cross)") {
    return std::make_unique<CrossSampling>(dataset, context.measure);
  }
  if (name == "Bifocal") {
    return std::make_unique<DegreeSamplingEstimator>(dataset,
                                                     context.measure);
  }
  if (name == "Adaptive") {
    return std::make_unique<AdaptiveSamplingEstimator>(dataset,
                                                       context.measure);
  }
  if (name == "LSH-SS") {
    LshSsOptions options = context.lsh_ss;
    options.dampening = DampeningMode::kSafeLowerBound;
    return std::make_unique<LshSsEstimator>(
        dataset, RequireIndex(context, name).table(0), context.measure,
        options);
  }
  if (name == "LSH-SS(D)") {
    LshSsOptions options = context.lsh_ss;
    options.dampening = DampeningMode::kAdaptiveNlOverDelta;
    return std::make_unique<LshSsEstimator>(
        dataset, RequireIndex(context, name).table(0), context.measure,
        options);
  }
  if (name == "LSH-S") {
    const LshIndex& index = RequireIndex(context, name);
    return std::make_unique<LshSEstimator>(dataset, index.family(),
                                           index.table(0));
  }
  if (name == "J_U") {
    const LshIndex& index = RequireIndex(context, name);
    return std::make_unique<UniformityEstimator>(index.table(0),
                                                 index.family());
  }
  if (name == "LC") {
    const LshIndex& index = RequireIndex(context, name);
    return std::make_unique<LatticeCountingEstimator>(
        dataset, index.family(),
        LatticeCountingOptions{.signature_length = index.k()});
  }
  if (name == "LSH-SS(median)") {
    return std::make_unique<MedianEstimator>(
        dataset, RequireIndex(context, name), context.measure,
        context.lsh_ss);
  }
  if (name == "LSH-SS(vbucket)") {
    return std::make_unique<VirtualBucketEstimator>(
        dataset, RequireIndex(context, name), context.measure,
        context.lsh_ss);
  }
  VSJ_CHECK_MSG(false, "unknown estimator name: %.*s",
                static_cast<int>(name.size()), name.data());
  return nullptr;
}

std::vector<std::string> HeadlineEstimatorNames() {
  return {"LSH-SS", "LSH-SS(D)", "RS(pop)", "RS(cross)"};
}

std::vector<std::string> AllEstimatorNames() {
  return {"LSH-SS",    "LSH-SS(D)", "RS(pop)",        "RS(cross)",
          "LSH-S",     "J_U",       "LC",             "Adaptive",
          "Bifocal",   "LSH-SS(median)", "LSH-SS(vbucket)"};
}

}  // namespace vsj
