// The ready-sink contract of EstimationEngine::EstimateBatch, on both
// engines. A batch hands each response to its sink the moment it exists —
// cache hits at the end of the pre-pass, each sweep group (members and
// their followers) from the pool task that finished its last trial chunk —
// and the sink changes nothing else. Over seeded random batches mixing
// cache hits, duplicate keys (followers), sweep groups, max_rel_error
// groups and sampling overrides:
//
//   * every batch index is reported exactly once, and sink calls never
//     overlap, though they run on pool threads;
//   * a reported response equals the returned one byte for byte, and the
//     same request answered alone by a cache-less engine (through the wire
//     serializer, net::MakeEstimatePayload, from_cache aside);
//   * the cache hits are reported first, before any trial runs;
//   * a twin engine fed the same batches without a sink returns the same
//     bytes, from_cache flags included — so the sink leaves the cache as
//     a sink-less call would, and the next batch sees the same hits.

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "vsj/net/protocol.h"
#include "vsj/obs/metrics.h"
#include "vsj/obs/obs.h"
#include "vsj/service/estimate_request.h"
#include "vsj/service/estimation_service.h"
#include "vsj/service/streaming_estimation_service.h"
#include "vsj/util/rng.h"

namespace vsj {
namespace {

std::string Bytes(const EstimateResponse& response) {
  return net::MakeEstimatePayload(0, response);
}

/// A random batch over few seeds and τs, so sweep groups and followers
/// form, and over batches, cache hits. `estimators` are the names the
/// engine serves; overrides apply to LSH-SS only.
std::vector<EstimateRequest> RandomBatch(Rng& rng,
                                         const std::vector<const char*>&
                                             estimators) {
  static constexpr double kTaus[] = {0.3, 0.5, 0.7, 0.9};
  std::vector<EstimateRequest> batch(1 + rng.Below(20));
  for (EstimateRequest& request : batch) {
    request.estimator_name = estimators[rng.Below(estimators.size())];
    request.tau = kTaus[rng.Below(4)];
    request.seed = 1 + rng.Below(3);
    request.trials = 1 + rng.Below(6);
    if (rng.Below(4) == 0) {
      request.max_rel_error = 6.0;  // met at a checkpoint, or never
      request.trials = 2 + rng.Below(7);
    }
    if (request.estimator_name == "LSH-SS" && rng.Below(4) == 0) {
      request.sample_size_l = 40 + 20 * rng.Below(2);
      if (rng.Below(2) == 0) request.delta = 8;
    }
  }
  return batch;
}

/// Counts metrics only while a test runs, then restores the default.
class ReadySinkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::MetricRegistry::Global().ResetValues();
    obs::EnableMetrics(true);
  }
  void TearDown() override { obs::EnableMetrics(false); }

  /// Feeds `rounds` random batches to `engine` with a sink and to `twin`
  /// without one, and checks the contract against `solo` (cache-less,
  /// inline).
  template <typename Engine>
  void CheckContract(Engine& engine, Engine& twin, Engine& solo,
                     const std::vector<const char*>& estimators,
                     uint64_t seed, size_t rounds) {
    Rng rng(seed);
    std::map<std::string, std::string> solo_bytes;  // ExactKey -> payload
    // One record per pool task, as the task starts.
    obs::Histogram& tasks_started =
        obs::MetricRegistry::Global().GetHistogram("estimate.queue_wait_ns");
    size_t hits_seen = 0;
    size_t followers_seen = 0;
    for (size_t round = 0; round < rounds; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      const std::vector<EstimateRequest> batch =
          RandomBatch(rng, estimators);
      std::vector<EstimateResponse> reported(batch.size());
      std::vector<size_t> times_reported(batch.size(), 0);
      std::vector<size_t> call_of(batch.size(), 0);
      size_t calls = 0;
      std::atomic<bool> inside{false};
      bool overlapped = false;
      const uint64_t tasks_before = tasks_started.Snapshot().count;
      uint64_t tasks_at_first_call = 0;
      const auto returned = engine.EstimateBatch(
          batch, [&](std::span<const size_t> ready,
                     std::span<const EstimateResponse> responses) {
            if (inside.exchange(true)) overlapped = true;
            if (calls == 0) {
              tasks_at_first_call = tasks_started.Snapshot().count;
            }
            ++calls;
            for (const size_t i : ready) {
              ASSERT_LT(i, batch.size());
              ++times_reported[i];
              reported[i] = responses[i];
              call_of[i] = calls;
            }
            inside.store(false);
          });
      const auto expected = twin.EstimateBatch(batch);
      EXPECT_FALSE(overlapped);
      ASSERT_EQ(returned.size(), batch.size());

      bool any_hit = false;
      for (size_t i = 0; i < batch.size(); ++i) {
        SCOPED_TRACE("index " + std::to_string(i));
        ASSERT_EQ(times_reported[i], 1u);
        EXPECT_EQ(Bytes(reported[i]), Bytes(returned[i]));
        EXPECT_EQ(Bytes(returned[i]), Bytes(expected[i]));
        EXPECT_EQ(returned[i].from_cache, expected[i].from_cache);
        std::string& alone = solo_bytes[ExactKey(batch[i])];
        if (alone.empty()) alone = Bytes(solo.Estimate(batch[i]));
        EstimateResponse computed = reported[i];
        computed.from_cache = false;
        EXPECT_EQ(Bytes(computed), alone);
        if (returned[i].from_cache) {
          any_hit = true;
          ++hits_seen;
          // Every hit went out in the first call, before any trial ran.
          EXPECT_EQ(call_of[i], 1u);
        } else if (call_of[i] == 1 && any_hit) {
          ADD_FAILURE() << "a computed response shares the hits' call";
        }
      }
      if (any_hit) {
        EXPECT_EQ(tasks_at_first_call, tasks_before);
        for (size_t i = 0; i < batch.size(); ++i) {
          if (call_of[i] == 1) {
            EXPECT_TRUE(returned[i].from_cache);
          }
        }
      }
      for (size_t i = 0; i < batch.size(); ++i) {
        for (size_t j = 0; j < i; ++j) {
          if (!returned[i].from_cache && !returned[j].from_cache &&
              ExactKey(batch[i]) == ExactKey(batch[j])) {
            ++followers_seen;
            break;
          }
        }
      }
    }
    // The random batches exercised what the contract is about.
    EXPECT_GT(hits_seen, 0u);
    EXPECT_GT(followers_seen, 0u);
    EXPECT_GT(obs::MetricRegistry::Global()
                  .GetCounter("estimate.sweep_groups")
                  .Value(),
              0u);
    EXPECT_GT(
        obs::MetricRegistry::Global().GetCounter("estimate.early_exit").Value(),
        0u);
  }
};

EstimationServiceOptions StaticOptions(size_t threads, size_t cache) {
  EstimationServiceOptions options;
  options.k = 8;
  options.num_tables = 1;
  options.num_threads = threads;
  options.family_seed = 0x5eed;
  options.cache_capacity = cache;
  return options;
}

StreamingEstimationServiceOptions StreamOptions(size_t threads,
                                                size_t cache) {
  StreamingEstimationServiceOptions options;
  options.k = 8;
  options.num_tables = 2;
  options.num_threads = threads;
  options.family_seed = 0xfeed;
  options.cache_capacity = cache;
  return options;
}

TEST_F(ReadySinkTest, StaticEngineReportsEachResponseOnceAsItFinishes) {
  const VectorDataset corpus = testing::SmallClusteredCorpus(400, 41);
  EstimationService engine(corpus, StaticOptions(3, 1024));
  EstimationService twin(corpus, StaticOptions(3, 1024));
  EstimationService solo(corpus, StaticOptions(1, 0));
  CheckContract(engine, twin, solo, {"LSH-SS", "LSH-SS(D)", "RS(pop)"},
                /*seed=*/7, /*rounds=*/24);
}

TEST_F(ReadySinkTest, StreamingEngineReportsEachResponseOnceAsItFinishes) {
  const auto make = [](size_t threads, size_t cache) {
    auto engine = std::make_unique<StreamingEstimationService>(
        testing::SmallClusteredCorpus(400, 43), StreamOptions(threads, cache));
    for (VectorId id = 0; id < 360; ++id) engine->Insert(id);
    for (VectorId id = 0; id < 360; id += 7) engine->Remove(id);
    return engine;
  };
  auto engine = make(3, 1024);
  auto twin = make(3, 1024);
  auto solo = make(1, 0);
  CheckContract(*engine, *twin, *solo, {"LSH-SS"}, /*seed=*/11,
                /*rounds=*/24);
}

TEST_F(ReadySinkTest, AnInlineEngineReportsInGroupOrder) {
  // With no pool threads the groups finish in order on the caller, so the
  // sink sees them in order: the first group before the second.
  EstimationService engine(testing::SmallClusteredCorpus(300, 45),
                           StaticOptions(1, 0));
  std::vector<EstimateRequest> batch(4);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].estimator_name = "LSH-SS";
    batch[i].tau = i % 2 == 0 ? 0.5 : 0.8;
    batch[i].trials = 3;
    batch[i].seed = i < 2 ? 1 : 2;  // two sweep groups of two τs
  }
  std::vector<std::vector<size_t>> calls;
  engine.EstimateBatch(batch, [&](std::span<const size_t> ready,
                                  std::span<const EstimateResponse>) {
    calls.emplace_back(ready.begin(), ready.end());
  });
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[0], (std::vector<size_t>{0, 1}));
  EXPECT_EQ(calls[1], (std::vector<size_t>{2, 3}));
}

}  // namespace
}  // namespace vsj
