#include "vsj/service/streaming_estimation_service.h"

#include <optional>
#include <span>
#include <utility>

#include "vsj/lsh/gaussian_projection_cache.h"
#include "vsj/obs/obs.h"
#include "vsj/util/check.h"

namespace vsj {

namespace {

StreamingCsrStorage RepackIntoArena(const VectorDataset& dataset,
                                    const StreamingStorageOptions& options) {
  StreamingCsrStorage store(options);
  for (VectorRef v : DatasetView(dataset)) store.Append(v);
  return store;
}

}  // namespace

StreamingEstimationService::StreamingEstimationService(
    VectorDataset dataset, StreamingEstimationServiceOptions options)
    : EstimationEngine(options),
      options_(options),
      store_(RepackIntoArena(dataset, options.storage)),
      index_(family(), options.k, options.num_tables),
      // The estimator reads vectors by stable id through the store's slot
      // table, never through the view's size (n comes from the live index),
      // so the view stays usable as AddVector grows the id space.
      estimator_(DatasetView::IdAddressed(store_), index_, options.measure,
                 options.lsh_ss) {
  BuildProjectionCache();
}

void StreamingEstimationService::BuildProjectionCache() {
  projection_cache_ = family().MakeProjectionCache(
      DatasetView(store_), options_.k * options_.num_tables, pool());
  index_.AttachProjectionCache(projection_cache_.get());
}

void StreamingEstimationService::BumpEpoch() {
  ++epoch_;
  // One counter per mutation — the only per-mutation instrumentation on
  // the streaming path, protecting the sub-µs mutation budget.
  VSJ_COUNTER_ADD("service.mutations", 1);
}

VectorId StreamingEstimationService::AddVector(const SparseVector& vector) {
  const VectorId id = store_.Append(vector.ref());
  // The cache stays: the new vector is not live until Insert.
  BumpEpoch();
  return id;
}

void StreamingEstimationService::Insert(VectorId id) {
  VSJ_CHECK_MSG(store_.Contains(id), "vector %u not in backing store", id);
  index_.Insert(id, store_.Ref(id));
  cache().Clear();
  BumpEpoch();
}

void StreamingEstimationService::Remove(VectorId id) {
  index_.Remove(id);
  cache().Clear();
  BumpEpoch();
}

void StreamingEstimationService::Erase(VectorId id) {
  if (index_.Contains(id)) index_.Remove(id);
  store_.Remove(id);
  cache().Clear();
  BumpEpoch();
}

std::vector<EstimateResponse> StreamingEstimationService::EstimateBatch(
    const std::vector<EstimateRequest>& requests, const ReadySink& on_ready) {
  // The batch's sample context: flat bucket-of arrays amortizing the
  // SampleL rejection test across every trial of every miss. Built lazily
  // on the first miss — still in the sequential pre-pass, so a fully
  // cache-served batch never pays the O(ℓ·n) export and workers only
  // read. Mutations are externally synchronized against EstimateBatch, so
  // the arrays stay valid for the whole batch.
  StreamingSampleContext context;
  // Per-leader sampling overrides, folded over the engine's options in the
  // pre-pass (nullopt: none engaged). Sweep-group members share them.
  std::vector<std::optional<SamplingBudget>> overrides(requests.size());
  const uint32_t num_tables = index_.num_tables();
  return RunCachedBatch(
      requests,
      [&](size_t i) {
        if (context.empty()) context.Build(index_, dataset().size());
        if (requests[i].HasSamplingOverrides()) {
          overrides[i] = options_.lsh_ss;
          ApplySamplingOverrides(requests[i], &*overrides[i]);
        }
        return estimator_.SharesSweeps();
      },
      // Spread trials round-robin across the ℓ tables: each table is an
      // independent stratification of the same pair set, so averaging
      // across them decorrelates the estimate at no extra cost.
      [&](size_t leader, size_t t, std::span<const double> taus,
          const Rng& rng) {
        return estimator_.EstimateSweepWithTable(
            taus, static_cast<uint32_t>(t % num_tables), rng, &context,
            overrides[leader] ? &*overrides[leader] : nullptr);
      },
      on_ready);
}

const char* StreamingEstimationService::CheckEstimator(
    const EstimateRequest& request) const {
  return request.estimator_name == "LSH-SS"
             ? nullptr
             : "streaming engine only serves LSH-SS";
}

}  // namespace vsj
