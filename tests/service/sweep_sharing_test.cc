// τ-sweep sharing: requests that differ only in τ run as one sweep group
// — each drawn pair is evaluated once for every τ — and every response
// must stay byte-identical to computing that τ alone. The reference is
// always a batch of one on a cache-less engine, compared through the wire
// serializer (net::MakeEstimatePayload), so "identical" means the bytes a
// client would see. Covered: static LSH-SS and LSH-SS(D), 9-τ RS(pop) and
// Adaptive sweeps, streaming LSH-SS after a seeded churn history, sampling
// overrides, error-bound early exit at different trials per τ, duplicate
// τ, τ = 1.0, a sweep split over two batches, a mixed batch with a
// non-sharing estimator and LSH-SS(vbucket) sweeps, a cached answer
// that must not depend on the batch that filled the cache, 1 vs N pool
// threads, one group's trials spread over the pool in chunks (aggregated
// once, and an error-bound group run as chunks one checkpoint at a time,
// so it stops on checkpoints only — also when the task shapes share one
// batch),
// overrides folded per batch (independent of override history and equal
// to configured budgets, on both engines), the estimator-level
// sweep entry points (cosine and Jaccard), the stratum tallies a response
// pools over its trials, and the obs counters that make sharing visible.

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "vsj/core/estimator_registry.h"
#include "vsj/core/streaming_lsh_ss_estimator.h"
#include "vsj/eval/ground_truth.h"
#include "vsj/net/protocol.h"
#include "vsj/obs/metrics.h"
#include "vsj/obs/obs.h"
#include "vsj/service/estimation_service.h"
#include "vsj/service/streaming_estimation_service.h"

namespace vsj {
namespace {

std::string Bytes(const EstimateResponse& response) {
  return net::MakeEstimatePayload(0, response);
}

EstimateRequest Request(const char* estimator, double tau, size_t trials = 4,
                        uint64_t seed = 42) {
  EstimateRequest request;
  request.estimator_name = estimator;
  request.tau = tau;
  request.trials = trials;
  request.seed = seed;
  return request;
}

std::vector<EstimateRequest> Sweep(const char* estimator,
                                   const std::vector<double>& taus,
                                   size_t trials = 4, uint64_t seed = 42) {
  std::vector<EstimateRequest> sweep;
  for (double tau : taus) {
    sweep.push_back(Request(estimator, tau, trials, seed));
  }
  return sweep;
}

/// The 9-τ session servebench's sweep_cold asks.
std::vector<double> NineTaus() {
  return {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
}

EstimationServiceOptions StaticOptions(size_t threads) {
  EstimationServiceOptions options;
  options.k = 8;
  options.num_tables = 1;
  options.num_threads = threads;
  options.family_seed = 0x5eed;
  options.cache_capacity = 0;
  return options;
}

StreamingEstimationServiceOptions StreamOptions(size_t threads, bool cache,
                                                SamplingBudget lsh_ss) {
  StreamingEstimationServiceOptions options;
  options.k = 8;
  options.num_tables = 2;  // trials alternate tables
  options.num_threads = threads;
  options.family_seed = 0xfeed;
  options.cache_capacity = cache ? 1024 : 0;
  options.lsh_ss = lsh_ss;
  return options;
}

/// A seeded churn history: inserts, removals, re-inserts and erasures, so
/// the live set, bucket orders and id space differ from a fresh build.
std::unique_ptr<StreamingEstimationService> ChurnedStream(
    size_t threads, bool cache = false, SamplingBudget lsh_ss = {}) {
  auto service = std::make_unique<StreamingEstimationService>(
      testing::SmallClusteredCorpus(500, 31),
      StreamOptions(threads, cache, lsh_ss));
  Rng rng(2024);
  for (VectorId id = 0; id < 420; ++id) service->Insert(id);
  for (int step = 0; step < 300; ++step) {
    const auto id = static_cast<VectorId>(rng.Below(420));
    if (service->Contains(id)) {
      service->Remove(id);
    } else {
      service->Insert(id);
    }
  }
  for (VectorId id = 420; id < 440; ++id) service->Erase(id);
  return service;
}

/// Answers `batch` through EstimateBatch and checks every response against
/// the same request answered alone.
template <typename Engine>
void ExpectMatchesSingles(Engine& engine,
                          const std::vector<EstimateRequest>& batch) {
  const std::vector<EstimateResponse> shared = engine.EstimateBatch(batch);
  ASSERT_EQ(shared.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const EstimateResponse alone = engine.Estimate(batch[i]);
    EXPECT_EQ(Bytes(shared[i]), Bytes(alone))
        << batch[i].estimator_name << " tau=" << batch[i].tau;
  }
}

class SweepSharingTest : public ::testing::TestWithParam<size_t> {
 protected:
  size_t threads() const { return GetParam(); }
};

TEST_P(SweepSharingTest, StaticLshSsMatchesPerTauAnswers) {
  EstimationService service(testing::SmallClusteredCorpus(600, 7),
                            StaticOptions(threads()));
  for (const char* name : {"LSH-SS", "LSH-SS(D)"}) {
    ExpectMatchesSingles(service, Sweep(name, StandardThresholds()));
  }
}

TEST_P(SweepSharingTest, UniformPairBaselinesMatchPerTauAnswers) {
  // RS(pop) and Adaptive: one-stratum pair sources of the same pass.
  EstimationService service(testing::SmallClusteredCorpus(600, 7),
                            StaticOptions(threads()));
  for (const char* name : {"RS(pop)", "Adaptive"}) {
    ExpectMatchesSingles(service, Sweep(name, NineTaus()));
  }
}

TEST_P(SweepSharingTest, StreamingLshSsAfterChurnMatchesPerTauAnswers) {
  const auto service = ChurnedStream(threads());
  ExpectMatchesSingles(*service, Sweep("LSH-SS", StandardThresholds()));
}

TEST_P(SweepSharingTest, SamplingOverridesMatchPerTauAnswers) {
  std::vector<EstimateRequest> sweep = Sweep("LSH-SS", StandardThresholds());
  for (EstimateRequest& request : sweep) {
    request.sample_size_h = 50;
    request.sample_size_l = 90;
    request.delta = 3;
  }
  EstimationService service(testing::SmallClusteredCorpus(600, 7),
                            StaticOptions(threads()));
  ExpectMatchesSingles(service, sweep);
  const auto stream = ChurnedStream(threads());
  ExpectMatchesSingles(*stream, sweep);
}

/// Sets every sampling override of `requests` to `budget`.
void Override(std::vector<EstimateRequest>& requests,
              const SamplingBudget& budget) {
  for (EstimateRequest& request : requests) {
    request.sample_size_h = budget.sample_size_h;
    request.sample_size_l = budget.sample_size_l;
    request.delta = budget.delta;
  }
}

/// Asks `engine` single requests under many distinct overrides.
template <typename Engine>
void AskDistinctOverrides(Engine& engine, const char* estimator) {
  for (uint64_t v = 1; v <= 24; ++v) {
    std::vector<EstimateRequest> ask = {Request(estimator, 0.6, 2)};
    Override(ask, {.sample_size_h = 10 + v,
                   .sample_size_l = 30 + v,
                   .delta = 1 + v % 5});
    engine.EstimateBatch(ask);
  }
}

/// An overridden sweep answers byte-identically on a fresh engine, on one
/// that has served many other distinct overrides, and on one whose
/// configured budgets equal the overrides: an override is folded per
/// batch, never into state that outlives it.
template <typename Engine>
void ExpectOverridesIndependentOfHistory(
    Engine& fresh, Engine& used, Engine& configured, const char* estimator,
    const SamplingBudget& budget) {
  std::vector<EstimateRequest> sweep = Sweep(estimator, {0.4, 0.6, 0.8});
  Override(sweep, budget);
  AskDistinctOverrides(used, estimator);
  const auto expected = fresh.EstimateBatch(sweep);
  const auto after_history = used.EstimateBatch(sweep);
  const auto overridden_again = configured.EstimateBatch(sweep);
  for (size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_EQ(Bytes(after_history[i]), Bytes(expected[i]))
        << estimator << " tau=" << sweep[i].tau;
    EXPECT_EQ(Bytes(overridden_again[i]), Bytes(expected[i]))
        << estimator << " tau=" << sweep[i].tau;
    EstimateRequest plain = sweep[i];
    plain.sample_size_h.reset();
    plain.sample_size_l.reset();
    plain.delta.reset();
    EXPECT_EQ(Bytes(configured.Estimate(plain)), Bytes(expected[i]))
        << estimator << " tau=" << sweep[i].tau;
  }
}

TEST_P(SweepSharingTest, OverridesAreFoldedPerBatchOnBothEngines) {
  const SamplingBudget budget{
      .sample_size_h = 60, .sample_size_l = 120, .delta = 4};
  EstimationServiceOptions configured_options = StaticOptions(threads());
  configured_options.lsh_ss.sample_size_h = budget.sample_size_h;
  configured_options.lsh_ss.sample_size_l = budget.sample_size_l;
  configured_options.lsh_ss.delta = budget.delta;
  for (const char* name : {"LSH-SS", "LSH-SS(vbucket)"}) {
    EstimationService fresh(testing::SmallClusteredCorpus(600, 7),
                            StaticOptions(threads()));
    EstimationService used(testing::SmallClusteredCorpus(600, 7),
                           StaticOptions(threads()));
    EstimationService configured(testing::SmallClusteredCorpus(600, 7),
                                 configured_options);
    ExpectOverridesIndependentOfHistory(fresh, used, configured, name,
                                        budget);
  }
  const auto fresh = ChurnedStream(threads());
  const auto used = ChurnedStream(threads());
  const auto configured = ChurnedStream(threads(), /*cache=*/false, budget);
  ExpectOverridesIndependentOfHistory(*fresh, *used, *configured, "LSH-SS",
                                      budget);
}

TEST_P(SweepSharingTest, ErrorBoundExitsEachTauAtItsOwnTrial) {
  std::vector<EstimateRequest> sweep =
      Sweep("LSH-SS", StandardThresholds(), /*trials=*/16);
  for (EstimateRequest& request : sweep) request.max_rel_error = 0.3;
  EstimationService service(testing::SmallClusteredCorpus(600, 7),
                            StaticOptions(threads()));
  ExpectMatchesSingles(service, sweep);
  const auto stream = ChurnedStream(threads());
  ExpectMatchesSingles(*stream, sweep);

  // The case must actually exercise per-τ exits: some τ stop early, not
  // all at the same trial, and each on a checkpoint.
  std::set<size_t> trial_counts;
  for (const EstimateResponse& r : service.EstimateBatch(sweep)) {
    trial_counts.insert(r.trials);
  }
  EXPECT_GE(trial_counts.size(), 2u);
  EXPECT_LT(*trial_counts.begin(), 16u);
  for (const size_t trials : trial_counts) {
    EXPECT_TRUE(trials == 2 || trials == 4 || trials == 8 || trials == 16)
        << trials;
  }
}

TEST_P(SweepSharingTest, DuplicateAndUnitTauMatchPerTauAnswers) {
  // τ = 0.5 twice (the second is an exact-τ follower) and τ = 1.0, where
  // only identical vectors qualify.
  const std::vector<EstimateRequest> sweep =
      Sweep("LSH-SS", {0.5, 0.9, 0.5, 1.0, 0.3});
  EstimationService service(testing::SmallClusteredCorpus(600, 7),
                            StaticOptions(threads()));
  ExpectMatchesSingles(service, sweep);
  const auto stream = ChurnedStream(threads());
  ExpectMatchesSingles(*stream, sweep);
  const auto responses = service.EstimateBatch(sweep);
  EXPECT_EQ(Bytes(responses[0]), Bytes(responses[2]));
}

TEST_P(SweepSharingTest, SweepSplitAcrossBatchesMatchesPerTauAnswers) {
  const std::vector<EstimateRequest> sweep =
      Sweep("LSH-SS", StandardThresholds());
  const std::vector<EstimateRequest> first(sweep.begin(), sweep.begin() + 4);
  const std::vector<EstimateRequest> second(sweep.begin() + 4, sweep.end());
  EstimationService service(testing::SmallClusteredCorpus(600, 7),
                            StaticOptions(threads()));
  ExpectMatchesSingles(service, first);
  ExpectMatchesSingles(service, second);
  const auto stream = ChurnedStream(threads());
  ExpectMatchesSingles(*stream, first);
  ExpectMatchesSingles(*stream, second);
}

TEST_P(SweepSharingTest, MixedBatchKeepsPerTauComputeForOtherEstimators) {
  // RS(cross) interleaved with two LSH-SS sweeps of different seeds and
  // LSH-SS(D) and LSH-SS(vbucket) sweeps: the sweeps group by estimator and
  // seed, RS(cross) runs one τ at a time.
  std::vector<EstimateRequest> batch;
  for (double tau : {0.4, 0.6, 0.8}) {
    batch.push_back(Request("LSH-SS", tau, 3, 42));
    batch.push_back(Request("RS(cross)", tau, 3, 42));
    batch.push_back(Request("LSH-SS", tau, 3, 43));
    batch.push_back(Request("LSH-SS(D)", tau, 3, 42));
    batch.push_back(Request("LSH-SS(vbucket)", tau, 3, 42));
  }
  EstimationService service(testing::SmallClusteredCorpus(600, 7),
                            StaticOptions(threads()));
  ExpectMatchesSingles(service, batch);
}

/// Asks `b` after a batch {a, b} on `warm` (cache on) and checks that the
/// cached answer is byte-identical to `b` computed by `cold` (cache off):
/// a cached response must not depend on the batch that filled the cache.
template <typename Engine>
void ExpectCacheHistoryIrrelevant(Engine& warm, Engine& cold,
                                  const EstimateRequest& a,
                                  const EstimateRequest& b) {
  warm.EstimateBatch({a, b});
  const EstimateResponse served = warm.Estimate(b);
  EXPECT_TRUE(served.from_cache);
  EstimateResponse fresh = cold.Estimate(b);
  EXPECT_FALSE(fresh.from_cache);
  fresh.from_cache = true;  // the one field a cache hit may change
  EXPECT_EQ(Bytes(served), Bytes(fresh))
      << b.estimator_name << " tau=" << b.tau;
}

TEST_P(SweepSharingTest, CachedAnswerDoesNotDependOnBatchHistory) {
  EstimationServiceOptions cached = StaticOptions(threads());
  cached.cache_capacity = 1024;
  for (const char* name : {"LSH-SS", "RS(pop)"}) {
    EstimationService warm(testing::SmallClusteredCorpus(600, 7), cached);
    EstimationService cold(testing::SmallClusteredCorpus(600, 7),
                           StaticOptions(threads()));
    ExpectCacheHistoryIrrelevant(warm, cold, Request(name, 0.3),
                                 Request(name, 0.6));
  }
  const auto warm_stream = ChurnedStream(threads(), /*cache=*/true);
  const auto cold_stream = ChurnedStream(threads());
  ExpectCacheHistoryIrrelevant(*warm_stream, *cold_stream,
                               Request("LSH-SS", 0.3),
                               Request("LSH-SS", 0.6));
}

TEST_P(SweepSharingTest, ThreadCountNeverChangesSharedBatches) {
  std::vector<EstimateRequest> batch = Sweep("LSH-SS", StandardThresholds());
  const std::vector<EstimateRequest> other =
      Sweep("LSH-SS", StandardThresholds(), 4, /*seed=*/77);
  batch.insert(batch.end(), other.begin(), other.end());
  EstimationService one(testing::SmallClusteredCorpus(600, 7),
                        StaticOptions(1));
  EstimationService many(testing::SmallClusteredCorpus(600, 7),
                         StaticOptions(threads()));
  const auto a = one.EstimateBatch(batch);
  const auto b = many.EstimateBatch(batch);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(Bytes(a[i]), Bytes(b[i])) << i;
  }
  const auto stream_one = ChurnedStream(1);
  const auto stream_many = ChurnedStream(threads());
  const auto c = stream_one->EstimateBatch(batch);
  const auto d = stream_many->EstimateBatch(batch);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(Bytes(c[i]), Bytes(d[i])) << i;
  }
}

TEST(SweepSharingTrialTasksTest, OneGroupsTrialsMatchAcrossThreadCounts) {
  // A batch holding a single sweep group: its six trials run as six
  // one-trial chunks on four threads, and as four chunks on one. The bytes
  // must not tell which.
  const std::vector<EstimateRequest> sweep =
      Sweep("LSH-SS", NineTaus(), /*trials=*/6);
  EstimationService one(testing::SmallClusteredCorpus(600, 7),
                        StaticOptions(1));
  EstimationService four(testing::SmallClusteredCorpus(600, 7),
                         StaticOptions(4));
  const auto a = one.EstimateBatch(sweep);
  const auto b = four.EstimateBatch(sweep);
  const auto stream_one = ChurnedStream(1);
  const auto stream_four = ChurnedStream(4);
  const auto c = stream_one->EstimateBatch(sweep);
  const auto d = stream_four->EstimateBatch(sweep);
  for (size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_EQ(a[i].trials, 6u);
    EXPECT_EQ(Bytes(a[i]), Bytes(b[i])) << "static tau=" << sweep[i].tau;
    EXPECT_EQ(c[i].trials, 6u);
    EXPECT_EQ(Bytes(c[i]), Bytes(d[i])) << "streaming tau=" << sweep[i].tau;
  }
  ExpectMatchesSingles(four, sweep);
  ExpectMatchesSingles(*stream_four, sweep);

  // An oracle outside the engine: trial t is the estimator's sweep on
  // TrialStream(request.seed, t), aggregated in trial order.
  const EstimatorContext context{.dataset = four.dataset(),
                                 .index = &four.index(),
                                 .measure = four.options().measure,
                                 .lsh_ss = four.options().lsh_ss};
  const auto estimator = CreateEstimator("LSH-SS", context);
  const std::vector<double> taus = NineTaus();
  std::vector<double> sums(taus.size(), 0.0);
  std::vector<uint64_t> pairs(taus.size(), 0);
  for (size_t t = 0; t < 6; ++t) {
    const auto trial =
        estimator->EstimateSweep(taus, TrialStream(sweep.front().seed, t));
    for (size_t j = 0; j < taus.size(); ++j) {
      sums[j] += trial[j].estimate;
      pairs[j] += trial[j].pairs_evaluated;
    }
  }
  for (size_t j = 0; j < taus.size(); ++j) {
    EXPECT_EQ(b[j].mean_estimate, sums[j] / 6.0) << "tau=" << taus[j];
    EXPECT_EQ(b[j].pairs_evaluated, pairs[j]) << "tau=" << taus[j];
  }
}

TEST(SweepSharingTrialTasksTest, ChunkedGroupIsAggregatedOnce) {
  // 40 trials on two threads: eight chunks of five consecutive trials. The
  // bytes match one thread's four chunks of ten (and an inline engine's:
  // num_threads 0 counts as one), every trial runs once,
  // and each member is finished — counted, and its latency recorded —
  // exactly once, after the pool barrier.
  const std::vector<EstimateRequest> sweep =
      Sweep("LSH-SS", NineTaus(), /*trials=*/40);
  EstimationService one(testing::SmallClusteredCorpus(600, 7),
                        StaticOptions(1));
  EstimationService two(testing::SmallClusteredCorpus(600, 7),
                        StaticOptions(2));
  EstimationService inline_engine(testing::SmallClusteredCorpus(600, 7),
                                  StaticOptions(0));
  const auto a = one.EstimateBatch(sweep);
  const auto z = inline_engine.EstimateBatch(sweep);
  obs::EnableMetrics(true);
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  registry.ResetValues();
  const auto b = two.EstimateBatch(sweep);
  for (size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_EQ(Bytes(z[i]), Bytes(a[i])) << "inline tau=" << sweep[i].tau;
    EXPECT_EQ(b[i].trials, 40u);
    EXPECT_EQ(Bytes(a[i]), Bytes(b[i])) << "tau=" << sweep[i].tau;
  }
  const uint64_t tasks =
      registry.GetHistogram("estimate.execute_ns").Snapshot().count;
  const uint64_t trials_timed =
      registry.GetHistogram("estimate.trial_ns").Snapshot().count;
  const uint64_t requests = registry.GetCounter("estimate.requests").Value();
  const uint64_t trials = registry.GetCounter("estimate.trials").Value();
  std::vector<uint64_t> latencies;
  for (const EstimateRequest& request : sweep) {
    char name[64];
    std::snprintf(name, sizeof(name), "estimate.latency_ns.LSH-SS.tau%.1f",
                  request.tau);
    latencies.push_back(registry.GetHistogram(name).Snapshot().count);
  }
  obs::EnableMetrics(false);
  EXPECT_EQ(tasks, 8u);
  EXPECT_EQ(trials_timed, 40u);
  EXPECT_EQ(requests, sweep.size());
  EXPECT_EQ(trials, 40u * sweep.size());
  EXPECT_EQ(latencies, std::vector<uint64_t>(sweep.size(), 1));
  ExpectMatchesSingles(two, sweep);
}

/// Pool tasks an error-bounded group of `trials` trials runs on `threads`
/// pool threads when its last member stops after `run` trials: one stage
/// per checkpoint 2, 4, 8, …, each split into at most 4 × threads chunks.
size_t BoundedGroupTasks(size_t trials, size_t run, size_t threads) {
  size_t tasks = 0;
  for (size_t done = 0; done < run;) {
    const size_t checkpoint = std::min(trials, std::max<size_t>(2, 2 * done));
    tasks += std::min(checkpoint - done, 4 * threads);
    done = checkpoint;
  }
  return tasks;
}

TEST(SweepSharingTrialTasksTest, ErrorBoundGroupStopsOnCheckpoints) {
  // An error-bounded group runs each stage between checkpoints as parallel
  // chunks, and its τs stop on the checkpoints 2, 4, 8, 16 only, so the
  // bytes do not depend on the thread count.
  std::vector<EstimateRequest> sweep =
      Sweep("LSH-SS", NineTaus(), /*trials=*/16);
  for (EstimateRequest& request : sweep) request.max_rel_error = 3.0;
  EstimationService one(testing::SmallClusteredCorpus(600, 7),
                        StaticOptions(1));
  EstimationService four(testing::SmallClusteredCorpus(600, 7),
                         StaticOptions(4));
  const auto a = one.EstimateBatch(sweep);
  obs::EnableMetrics(true);
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  registry.ResetValues();
  const auto b = four.EstimateBatch(sweep);
  std::set<size_t> stops;
  size_t trials_run = 0;  // the group runs until its last τ stops
  for (size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_EQ(a[i].trials, b[i].trials) << "tau=" << sweep[i].tau;
    EXPECT_EQ(Bytes(a[i]), Bytes(b[i])) << "tau=" << sweep[i].tau;
    stops.insert(b[i].trials);
    trials_run = std::max(trials_run, b[i].trials);
  }
  const uint64_t saved = registry.GetCounter("estimate.trials_saved").Value();
  const uint64_t tasks =
      registry.GetHistogram("estimate.execute_ns").Snapshot().count;
  const uint64_t trials_timed =
      registry.GetHistogram("estimate.trial_ns").Snapshot().count;
  obs::EnableMetrics(false);
  EXPECT_GE(stops.size(), 2u);
  for (const size_t stop : stops) {
    EXPECT_TRUE(stop == 2 || stop == 4 || stop == 8) << stop;
  }
  EXPECT_GT(saved, 0u);
  // Trials past the group's last stop are never computed, not merely
  // ignored: one estimate.trial_ns span per trial actually run, and the
  // stages before it ran as chunks.
  EXPECT_LT(trials_run, 16u);
  EXPECT_EQ(trials_timed, trials_run);
  EXPECT_EQ(tasks, BoundedGroupTasks(16, trials_run, 4));
  EXPECT_GT(tasks, 2u);
  const auto stream_one = ChurnedStream(1);
  const auto stream_four = ChurnedStream(4);
  const auto c = stream_one->EstimateBatch(sweep);
  const auto d = stream_four->EstimateBatch(sweep);
  for (size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_EQ(Bytes(c[i]), Bytes(d[i])) << "streaming tau=" << sweep[i].tau;
  }
}

TEST(SweepSharingTrialTasksTest, MixedTaskShapesShareThePool) {
  // One batch on four threads mixes the task shapes: a chunked 9-τ LSH-SS
  // group (six one-trial chunks), an error-bounded group run as chunks one
  // checkpoint at a time, and RS(cross), which groups with nothing (three
  // one-trial chunks per τ). Every response matches the same request asked
  // alone on one thread, every trial actually run is timed once, and every
  // response records one latency sample.
  std::vector<EstimateRequest> batch =
      Sweep("LSH-SS", NineTaus(), /*trials=*/6);
  std::vector<EstimateRequest> bounded =
      Sweep("LSH-SS", NineTaus(), /*trials=*/16);
  for (EstimateRequest& request : bounded) request.max_rel_error = 3.0;
  batch.insert(batch.end(), bounded.begin(), bounded.end());
  const std::vector<double> rs_taus = {0.3, 0.7};
  for (double tau : rs_taus) batch.push_back(Request("RS(cross)", tau, 3));
  EstimationService one(testing::SmallClusteredCorpus(600, 7),
                        StaticOptions(1));
  EstimationService four(testing::SmallClusteredCorpus(600, 7),
                         StaticOptions(4));
  obs::EnableMetrics(true);
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  registry.ResetValues();
  const auto mixed = four.EstimateBatch(batch);
  const uint64_t tasks =
      registry.GetHistogram("estimate.execute_ns").Snapshot().count;
  const uint64_t trials_timed =
      registry.GetHistogram("estimate.trial_ns").Snapshot().count;
  // Requests per latency histogram: the two LSH-SS groups share τ buckets.
  std::map<std::string, uint64_t> expected_latencies;
  for (const EstimateRequest& request : batch) {
    char name[64];
    std::snprintf(name, sizeof(name), "estimate.latency_ns.%s.tau%.1f",
                  request.estimator_name.c_str(), request.tau);
    ++expected_latencies[name];
  }
  std::map<std::string, uint64_t> latencies;
  for (const auto& [name, count] : expected_latencies) {
    latencies[name] = registry.GetHistogram(name).Snapshot().count;
  }
  obs::EnableMetrics(false);

  ASSERT_EQ(mixed.size(), batch.size());
  size_t bounded_run = 0;  // the bounded group runs until its last τ stops
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(Bytes(mixed[i]), Bytes(one.Estimate(batch[i])))
        << batch[i].estimator_name << " tau=" << batch[i].tau
        << " trials=" << batch[i].trials;
    if (batch[i].max_rel_error > 0.0) {
      bounded_run = std::max(bounded_run, mixed[i].trials);
    }
  }
  EXPECT_LT(bounded_run, 16u);
  EXPECT_EQ(tasks, 6u + BoundedGroupTasks(16, bounded_run, 4) +
                       3u * rs_taus.size());
  EXPECT_EQ(trials_timed, 6u + bounded_run + 3u * rs_taus.size());
  EXPECT_EQ(latencies, expected_latencies);
}

INSTANTIATE_TEST_SUITE_P(PoolThreads, SweepSharingTest,
                         ::testing::Values(size_t{1}, size_t{4}));

bool SameResult(const EstimationResult& a, const EstimationResult& b) {
  return a.estimate == b.estimate && a.pairs_evaluated == b.pairs_evaluated &&
         a.guaranteed == b.guaranteed && a.strata == b.strata;
}

/// Every registry estimator over `context`: result j of EstimateSweep is
/// Estimate(τ_j) on a copy of the stream, including τ <= 0 (answered M
/// without sampling). LSH-SS, LSH-SS(D), LSH-SS(vbucket), RS(pop) and
/// Adaptive override EstimateSweep with the shared pass; the rest take the
/// default.
void ExpectRegistrySweepsLikeSingleCalls(const EstimatorContext& context) {
  std::vector<double> taus = StandardThresholds();
  taus.push_back(1.0);
  taus.push_back(0.0);
  for (const std::string& name : AllEstimatorNames()) {
    const auto estimator = CreateEstimator(name, context);
    const Rng stream = Rng(9).Fork(3);
    const std::vector<EstimationResult> swept =
        estimator->EstimateSweep(taus, stream);
    ASSERT_EQ(swept.size(), taus.size());
    for (size_t j = 0; j < taus.size(); ++j) {
      Rng copy = stream;
      EXPECT_TRUE(SameResult(swept[j], estimator->Estimate(taus[j], copy)))
          << name << " tau=" << taus[j];
    }
    EXPECT_EQ(estimator->SharesSweeps(), name == "LSH-SS" ||
                                             name == "LSH-SS(D)" ||
                                             name == "LSH-SS(vbucket)" ||
                                             name == "RS(pop)" ||
                                             name == "Adaptive")
        << name;
  }
}

TEST(SweepSharingEstimatorTest, RegistryEstimatorsSweepLikeSingleCalls) {
  const testing::CosineSetup cosine = testing::MakeCosineSetup(500, 8, 1, 5);
  EstimatorContext context;
  context.dataset = DatasetView(cosine.dataset);
  context.index = cosine.index.get();
  ExpectRegistrySweepsLikeSingleCalls(context);

  const testing::JaccardSetup jaccard = testing::MakeJaccardSetup(500, 6, 1, 6);
  context.dataset = DatasetView(jaccard.dataset);
  context.index = jaccard.index.get();
  context.measure = SimilarityMeasure::kJaccard;
  ExpectRegistrySweepsLikeSingleCalls(context);
}

TEST(SweepSharingEstimatorTest, StreamingSweepWithTableMatchesSingleCalls) {
  const auto service = ChurnedStream(1);
  const StreamingLshSsEstimator estimator(service->dataset(),
                                          service->index(),
                                          service->options().measure);
  StreamingSampleContext context;
  context.Build(service->index(), service->dataset().size());
  StreamingLshSsOptions overrides;
  overrides.sample_size_l = 70;
  overrides.delta = 5;
  const std::vector<double> taus = StandardThresholds();
  for (uint32_t t = 0; t < service->index().num_tables(); ++t) {
    const StreamingLshSsOptions* variants[] = {nullptr, &overrides};
    for (const StreamingLshSsOptions* opts : variants) {
      const Rng stream = Rng(5).Fork(t);
      const auto swept =
          estimator.EstimateSweepWithTable(taus, t, stream, &context, opts);
      for (size_t j = 0; j < taus.size(); ++j) {
        Rng copy = stream;
        EXPECT_TRUE(SameResult(
            swept[j],
            estimator.EstimateWithTable(taus[j], t, copy, &context, opts)))
            << "t=" << t << " tau=" << taus[j];
      }
    }
  }
}

/// Per τ, the tallies of `trials` trials of `sweep(taus, TrialStream(seed,
/// t))` pooled the way the engine pools them.
template <typename SweepFn>
std::vector<StratumTallies> PooledTallies(const std::vector<double>& taus,
                                          size_t trials, uint64_t seed,
                                          const SweepFn& sweep) {
  std::vector<StratumTallies> pooled(taus.size());
  for (size_t t = 0; t < trials; ++t) {
    const std::vector<EstimationResult> results =
        sweep(t, TrialStream(seed, t));
    for (size_t j = 0; j < taus.size(); ++j) pooled[j] += results[j].strata;
  }
  return pooled;
}

TEST(SweepSharingTallyTest, ResponseTalliesPoolTheTrials) {
  // A 4-trial sweep group spread over the pool one trial per chunk: each
  // response's tallies are the sum of EstimateSweep(taus, TrialStream(seed,
  // t))'s for t = 0..3 — one stratum for RS(pop) and Adaptive, two for the
  // LSH-SS family — on the static and the streaming engine.
  constexpr size_t kTrials = 4;
  constexpr uint64_t kSeed = 42;
  const std::vector<double> taus = NineTaus();
  EstimationService service(testing::SmallClusteredCorpus(600, 7),
                            StaticOptions(4));
  const EstimatorContext context{.dataset = service.dataset(),
                                 .index = &service.index(),
                                 .measure = service.options().measure,
                                 .lsh_ss = service.options().lsh_ss};
  const std::pair<const char*, size_t> estimators[] = {
      {"LSH-SS", 2}, {"LSH-SS(D)", 2}, {"LSH-SS(vbucket)", 2},
      {"RS(pop)", 1}, {"Adaptive", 1}};
  for (const auto& [name, strata] : estimators) {
    const auto estimator = CreateEstimator(name, context);
    const std::vector<StratumTallies> expected = PooledTallies(
        taus, kTrials, kSeed, [&](size_t, const Rng& stream) {
          return estimator->EstimateSweep(taus, stream);
        });
    const std::vector<EstimateResponse> served =
        service.EstimateBatch(Sweep(name, taus, kTrials, kSeed));
    for (size_t j = 0; j < taus.size(); ++j) {
      EXPECT_EQ(served[j].strata.size(), strata) << name;
      EXPECT_EQ(served[j].strata, expected[j])
          << name << " tau=" << taus[j];
    }
  }

  const auto stream = ChurnedStream(4);
  const StreamingLshSsEstimator estimator(stream->dataset(), stream->index(),
                                          stream->options().measure);
  const uint32_t tables = stream->index().num_tables();
  const std::vector<StratumTallies> expected = PooledTallies(
      taus, kTrials, kSeed, [&](size_t t, const Rng& rng) {
        return estimator.EstimateSweepWithTable(
            taus, static_cast<uint32_t>(t % tables), rng);
      });
  const std::vector<EstimateResponse> served =
      stream->EstimateBatch(Sweep("LSH-SS", taus, kTrials, kSeed));
  for (size_t j = 0; j < taus.size(); ++j) {
    EXPECT_EQ(served[j].strata.size(), 2u);
    EXPECT_EQ(served[j].strata, expected[j]) << "stream tau=" << taus[j];
  }
}

TEST(SweepSharingObsTest, CountersShowSharedGroupsAndPhysicalPairs) {
  EstimationService service(testing::SmallClusteredCorpus(600, 7),
                            StaticOptions(1));
  std::vector<EstimateRequest> batch = Sweep("LSH-SS", StandardThresholds());
  batch.push_back(Request("RS(cross)", 0.5));
  batch.push_back(Request("RS(cross)", 0.7));
  obs::EnableMetrics(true);
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  registry.ResetValues();
  const auto responses = service.EstimateBatch(batch);
  const uint64_t groups = registry.GetCounter("estimate.sweep_groups").Value();
  const uint64_t taus = registry.GetCounter("estimate.sweep_taus").Value();
  const uint64_t physical = registry.GetCounter("estimate.pairs_h").Value() +
                            registry.GetCounter("estimate.pairs_l").Value();
  obs::EnableMetrics(false);
  EXPECT_EQ(groups, 1u);  // the LSH-SS sweep; RS(cross) is not grouped
  EXPECT_EQ(taus, StandardThresholds().size());
  // pairs_evaluated stays the per-τ sample count; the stratum counters
  // count each shared draw once, so they sum to far less.
  uint64_t logical = 0;
  for (size_t i = 0; i < StandardThresholds().size(); ++i) {
    logical += responses[i].pairs_evaluated;
  }
  EXPECT_GT(physical, 0u);
  EXPECT_LT(physical, logical);
}

}  // namespace
}  // namespace vsj
