// Static join-size estimation engine: the static pair source of the
// engine core (estimation_engine.h).
//
// The estimator core answers one (estimator, τ) question at a time on one
// thread; this engine owns the dataset and the LSH index, builds the ℓ
// tables in parallel, and serves any registered estimator over them. The
// pool, the cache and the batch protocol come from EstimationEngine.
//
// Determinism (estimation_engine.h): a response is a pure function of
// (request, dataset) — not of the thread count, the batch or the cache
// history (tests/service/estimation_service_test.cc and, for τ-sweep
// groups, tests/service/sweep_sharing_test.cc pin this down).

#ifndef VSJ_SERVICE_ESTIMATION_SERVICE_H_
#define VSJ_SERVICE_ESTIMATION_SERVICE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "vsj/core/estimator_registry.h"
#include "vsj/lsh/lsh_index.h"
#include "vsj/service/estimation_engine.h"
#include "vsj/vector/dataset_view.h"
#include "vsj/vector/vector_dataset.h"

namespace vsj {

/// Construction-time configuration of an EstimationService.
struct EstimationServiceOptions : EstimationEngineOptions {
  /// Sampling budgets of the LSH-SS variants (0 = the §5.1 defaults);
  /// every other estimator runs with its defaults.
  LshSsOptions lsh_ss;
};

/// Long-lived, thread-pooled estimation engine over one dataset.
class EstimationService final : public EstimationEngine {
 public:
  /// Takes ownership of `dataset` and builds the ℓ-table LSH index (in
  /// parallel when options.num_threads > 1).
  explicit EstimationService(VectorDataset dataset,
                             EstimationServiceOptions options = {});

  /// Non-owning flavor: serves any DatasetView — in particular a
  /// memory-mapped VSJB v2 arena (MappedCsrStorage), where vectors are
  /// read zero-copy from the file pages. The backing storage must outlive
  /// the service.
  explicit EstimationService(DatasetView dataset,
                             EstimationServiceOptions options = {});

  DatasetView dataset() const { return view_; }
  const LshIndex& index() const { return *index_; }
  const EstimationServiceOptions& options() const { return options_; }

  /// Wall-clock seconds the constructor spent building the LSH index.
  double index_build_seconds() const { return index_build_seconds_; }

  /// See EstimationEngine::EstimateBatch. An overridden request gets an
  /// estimator instance local to its batch, shared by its sweep group.
  using EstimationEngine::EstimateBatch;
  std::vector<EstimateResponse> EstimateBatch(
      const std::vector<EstimateRequest>& requests,
      const ReadySink& on_ready) override;

  /// Any registered estimator (AllEstimatorNames); sampling overrides only
  /// for the four that run on the LSH-SS options.
  const char* CheckEstimator(const EstimateRequest& request) const override;

 private:
  /// Shared tail of both constructors: index build + estimator context.
  void BuildIndexAndContext();

  /// Returns the shared instance of estimator `name` over the engine's
  /// configured options, constructed on first use. Estimate() is const on
  /// estimators, so one instance serves all threads.
  const JoinSizeEstimator& SharedEstimator(const std::string& name);

  EstimationServiceOptions options_;
  VectorDataset dataset_;  // empty in the non-owning flavor
  DatasetView view_;
  std::unique_ptr<LshIndex> index_;
  double index_build_seconds_ = 0.0;
  EstimatorContext context_;

  std::mutex estimators_mutex_;
  std::unordered_map<std::string, std::unique_ptr<JoinSizeEstimator>>
      estimators_;
};

}  // namespace vsj

#endif  // VSJ_SERVICE_ESTIMATION_SERVICE_H_
