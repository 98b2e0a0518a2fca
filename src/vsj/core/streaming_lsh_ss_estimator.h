// Streaming LSH-SS: Algorithm 1 run directly over a live DynamicLshIndex.
//
// The static LshSsEstimator is bound to an immutable LshTable covering the
// whole dataset; under churn the live subset changes and every stratum
// quantity (N_H, N_L, n) moves with it. This estimator re-reads those
// quantities from the dynamic index on every call, so a single instance
// stays valid across arbitrarily many Insert/Remove operations — the
// paper's "minimal addition to the existing LSH index" claim made good for
// an online index. It lifts the EstimateStratified logic that used to live
// in tests/integration/streaming_estimation_test.cc into a reusable core
// path (StreamingEstimationService is the other caller).
//
// Differences from the static algorithm, all forced by dynamism:
//   * defaults m_H = m_L = n and δ = log₂ n are resolved (ResolveBudget)
//     per call from the current live count, not frozen at construction;
//   * SampleL draws uniform live pairs through the index's live-id list
//     (the static table's rejection sampler assumes ids 0..n−1 are all
//     present) and rejects same-bucket pairs of the chosen table.

#ifndef VSJ_CORE_STREAMING_LSH_SS_ESTIMATOR_H_
#define VSJ_CORE_STREAMING_LSH_SS_ESTIMATOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "vsj/core/estimator.h"
#include "vsj/core/stratified_sampling.h"
#include "vsj/lsh/dynamic_lsh_index.h"
#include "vsj/vector/similarity.h"
#include "vsj/vector/dataset_view.h"

namespace vsj {

/// Options of streaming LSH-SS: the sampling budgets alone, with zero
/// meaning "derive from the live count n at call time".
using StreamingLshSsOptions = SamplingBudget;

/// Flat per-table bucket-of arrays amortizing the SampleL index walk across
/// every trial of a batch. The rejection test `table.SameBucket(u, v)` costs
/// two hash-map lookups per drawn pair; with ~n draws per trial and T·R
/// trials per batch that dominates the SampleL walk. Build() exports each
/// table's membership once, after which the test is two array loads.
/// Equality on the arrays answers exactly SameBucket for live ids (live ids
/// are present in every table), so accept/reject decisions — and therefore
/// every RNG draw — are bit-identical to the uncontexted path.
///
/// Validity: the arrays snapshot the index's state at Build() time; any
/// Insert/Remove invalidates them. The service rebuilds per batch (its
/// mutations are serialized against batches).
struct StreamingSampleContext {
  /// Pre-fill for ids absent from a table. Two absent ids compare equal
  /// under it — indistinguishable from sharing a bucket — which SampleL
  /// never observes: it draws only live ids.
  static constexpr uint32_t kAbsentBucket = UINT32_MAX;

  std::vector<std::vector<uint32_t>> bucket_of;  // [table][id] -> bucket slot

  /// (Re)builds the arrays from the index's current membership. `id_bound`
  /// must exceed every live id (the backing dataset's size qualifies).
  void Build(const DynamicLshIndex& index, size_t id_bound);

  bool empty() const { return bucket_of.empty(); }
};

/// Algorithm 1 over the live subset of a DynamicLshIndex. Estimate and
/// EstimateSweep stratify by table 0 with the constructor options.
class StreamingLshSsEstimator final : public StratifiedEstimator {
 public:
  /// `dataset` is the backing store the index's ids refer to; both must
  /// outlive the estimator. The index may mutate freely between calls (but
  /// not during one).
  StreamingLshSsEstimator(DatasetView dataset,
                          const DynamicLshIndex& index,
                          SimilarityMeasure measure,
                          StreamingLshSsOptions options = {});

  /// Estimate, stratifying by table `t` — callers with ℓ > 1 tables can spread
  /// independent trials across tables to decorrelate the stratification.
  ///
  /// `context`, when non-null and built, replaces the SameBucket hash-map
  /// rejection test with the context's flat arrays (same decisions, same
  /// draws — see StreamingSampleContext). `override_options`, when
  /// non-null, replaces the constructor options for this call only (zero
  /// fields still mean "derive from n") — how per-request sampling
  /// overrides reach a shared estimator without rebuilding it.
  EstimationResult EstimateWithTable(
      double tau, uint32_t t, Rng& rng,
      const StreamingSampleContext* context = nullptr,
      const StreamingLshSsOptions* override_options = nullptr) const;

  /// The sweep form of EstimateWithTable: one shared SampleH/SampleL pass
  /// answers every τ; result j is bit-identical to
  /// EstimateWithTable(taus[j], t, copy of rng, context, override_options).
  std::vector<EstimationResult> EstimateSweepWithTable(
      std::span<const double> taus, uint32_t t, const Rng& rng,
      const StreamingSampleContext* context = nullptr,
      const StreamingLshSsOptions* override_options = nullptr) const;

  std::string name() const override;

 private:
  std::vector<EstimationResult> Sweep(std::span<const double> taus,
                                      Rng& rng) const override;
  /// Algorithm 1 over `taus` on table `t`, advancing `rng` past the shared
  /// pass.
  std::vector<EstimationResult> Sweep(
      std::span<const double> taus, uint32_t t, Rng& rng,
      const StreamingSampleContext* context,
      const StreamingLshSsOptions* override_options) const;

  DatasetView dataset_;
  const DynamicLshIndex* index_;
  SimilarityMeasure measure_;
  StreamingLshSsOptions options_;
};

}  // namespace vsj

#endif  // VSJ_CORE_STREAMING_LSH_SS_ESTIMATOR_H_
