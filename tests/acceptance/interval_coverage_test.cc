// Coverage of the served interval: an estimate's [lower, upper]
// (EstimateInterval, core/stratified_sampling.h) must hold the exact join
// size J at its stated confidence. Run through the engines, as a client
// asks, not through the estimators directly:
//
//   * the static engine at vsjoin_estimate's defaults (n = 4000, k = 20,
//     ℓ = 1, 4 trials, m_H = m_L = n, δ = log₂ n) on the nyt, dblp and
//     pubmed corpora × τ 0.1 … 0.9 × 20 seeds, for LSH-SS and LSH-SS(D):
//     four corpus seeds c, each generating the corpus and the LSH family
//     as `vsjoin_estimate --synthetic KIND --seed c` does, times five
//     request seeds for the trial streams;
//   * the streaming engine at ℓ = 2 after a seeded churn, on each corpus ×
//     τ 0.1 … 0.9 × 20 request seeds, against J of the live set;
//   * every cell of ROADMAP's "Where we are" table (n = 4000, 8 trials,
//     seed 3, τ 0.3 / 0.5 / 0.7 / 0.9), where the spread-based error bar
//     read 0.1–0.2 while J was 1.3–3.8 times the estimate.
//
// The interval must hold J in at least 95% of the cells of each engine,
// and in every cell of the table. Everything is seeded, so the counts are
// deterministic.

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "vsj/core/stratified_sampling.h"
#include "vsj/eval/ground_truth.h"
#include "vsj/gen/corpus_generator.h"
#include "vsj/gen/workloads.h"
#include "vsj/service/estimation_service.h"
#include "vsj/service/streaming_estimation_service.h"
#include "vsj/util/rng.h"

namespace vsj {
namespace {

constexpr size_t kN = 4000;
constexpr uint64_t kCorpusSeeds = 4;
constexpr uint64_t kRequestSeeds = 5;
constexpr uint64_t kSeeds = kCorpusSeeds * kRequestSeeds;
const std::vector<double> kTaus = {0.1, 0.2, 0.3, 0.4, 0.5,
                                   0.6, 0.7, 0.8, 0.9};
const char* const kCorpora[] = {"nyt", "dblp", "pubmed"};

VectorDataset Corpus(const std::string& kind, uint64_t seed) {
  if (kind == "nyt") return GenerateCorpus(NytLikeConfig(kN, seed));
  if (kind == "dblp") return GenerateCorpus(DblpLikeConfig(kN, seed));
  return GenerateCorpus(PubmedLikeConfig(kN, seed));
}

/// vsjoin_estimate's engine options for `--seed seed`.
EstimationServiceOptions CliOptions(uint64_t seed) {
  EstimationServiceOptions options;
  options.k = 20;
  options.num_tables = 1;
  options.num_threads = 2;
  options.family_seed = seed ^ 0x5eedULL;
  options.cache_capacity = 0;
  return options;
}

std::vector<EstimateRequest> Sweep(const char* estimator,
                                   const std::vector<double>& taus,
                                   size_t trials, uint64_t seed) {
  std::vector<EstimateRequest> sweep;
  for (const double tau : taus) {
    EstimateRequest request;
    request.estimator_name = estimator;
    request.tau = tau;
    request.trials = trials;
    request.seed = seed;
    sweep.push_back(request);
  }
  return sweep;
}

bool Holds(const EstimateResponse& response, uint64_t exact) {
  const auto j = static_cast<double>(exact);
  const Interval interval = EstimateInterval(response.strata, response.trials);
  return interval.lower <= j && j <= interval.upper;
}

/// Cells whose interval held J, out of all cells.
struct Coverage {
  size_t cells = 0;
  size_t held = 0;

  void Add(const std::vector<EstimateResponse>& responses,
           const GroundTruth& truth) {
    for (const EstimateResponse& response : responses) {
      ++cells;
      if (Holds(response, truth.JoinSize(response.tau))) ++held;
    }
  }
  double Rate() const {
    return static_cast<double>(held) / static_cast<double>(cells);
  }
};

TEST(IntervalCoverageTest, StaticEngineHoldsJAtTheCliDefaults) {
  Coverage total;
  for (const char* kind : kCorpora) {
    Coverage corpus_coverage;
    for (uint64_t corpus_seed = 1; corpus_seed <= kCorpusSeeds;
         ++corpus_seed) {
      VectorDataset corpus = Corpus(kind, corpus_seed);
      const GroundTruth truth(DatasetView(corpus), SimilarityMeasure::kCosine,
                              kTaus, 2);
      EstimationService service(std::move(corpus), CliOptions(corpus_seed));
      for (uint64_t seed = 1; seed <= kRequestSeeds; ++seed) {
        for (const char* estimator : {"LSH-SS", "LSH-SS(D)"}) {
          corpus_coverage.Add(
              service.EstimateBatch(Sweep(estimator, kTaus, 4, seed)), truth);
        }
      }
    }
    std::printf("  static %-6s interval holds J in %zu of %zu cells\n", kind,
                corpus_coverage.held, corpus_coverage.cells);
    total.cells += corpus_coverage.cells;
    total.held += corpus_coverage.held;
  }
  EXPECT_EQ(total.cells, 3 * kSeeds * 2 * kTaus.size());
  EXPECT_GE(total.Rate(), 0.95) << total.held << " of " << total.cells;
}

TEST(IntervalCoverageTest, StreamingEngineHoldsJAfterChurn) {
  Coverage total;
  for (const char* kind : kCorpora) {
    VectorDataset corpus = Corpus(kind, 1);
    const VectorDataset backing = corpus;
    StreamingEstimationServiceOptions options;
    options.k = 20;
    options.num_tables = 2;  // trial t samples table t mod 2
    options.num_threads = 2;
    options.family_seed = 0xfeed;
    options.cache_capacity = 0;
    StreamingEstimationService service(std::move(corpus), options);
    // Seeded churn: insert everything, then remove, re-insert and erase
    // at random, so the live set and the bucket orders differ from a
    // fresh build.
    std::set<VectorId> live;
    for (VectorId id = 0; id < kN; ++id) {
      service.Insert(id);
      live.insert(id);
    }
    Rng rng(2024);
    for (int step = 0; step < 1200; ++step) {
      const auto id = static_cast<VectorId>(rng.Below(kN - 100));
      if (live.erase(id) > 0) {
        service.Remove(id);
      } else {
        service.Insert(id);
        live.insert(id);
      }
    }
    for (VectorId id = kN - 100; id < kN; id += 2) {
      service.Erase(id);
      live.erase(id);
    }
    VectorDataset live_set;
    for (const VectorId id : live) live_set.Add(backing[id]);
    const GroundTruth truth(DatasetView(live_set), SimilarityMeasure::kCosine,
                            kTaus, 2);
    Coverage corpus_coverage;
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
      corpus_coverage.Add(
          service.EstimateBatch(Sweep("LSH-SS", kTaus, 4, seed)), truth);
    }
    std::printf("  streaming %-6s interval holds J in %zu of %zu cells\n",
                kind, corpus_coverage.held, corpus_coverage.cells);
    total.cells += corpus_coverage.cells;
    total.held += corpus_coverage.held;
  }
  EXPECT_GE(total.Rate(), 0.95) << total.held << " of " << total.cells;
}

TEST(IntervalCoverageTest, EveryCellOfTheWhereWeAreTableHoldsJ) {
  const std::vector<double> taus = {0.3, 0.5, 0.7, 0.9};
  constexpr uint64_t kSeed = 3;
  for (const char* kind : kCorpora) {
    VectorDataset corpus = Corpus(kind, kSeed);
    const GroundTruth truth(DatasetView(corpus), SimilarityMeasure::kCosine,
                            taus, 2);
    EstimationService service(std::move(corpus), CliOptions(kSeed));
    for (const EstimateResponse& response :
         service.EstimateBatch(Sweep("LSH-SS", taus, 8, kSeed))) {
      const uint64_t exact = truth.JoinSize(response.tau);
      const Interval interval =
          EstimateInterval(response.strata, response.trials);
      std::printf("  %-6s tau=%.1f  %.1f in [%.0f, %.0f]  J = %llu\n", kind,
                  response.tau, response.mean_estimate, interval.lower,
                  interval.upper, static_cast<unsigned long long>(exact));
      EXPECT_TRUE(Holds(response, exact))
          << kind << " tau=" << response.tau << ": [" << interval.lower
          << ", " << interval.upper << "] misses J = " << exact;
    }
  }
}

}  // namespace
}  // namespace vsj
