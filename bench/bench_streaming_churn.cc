// Streaming engine under churn: estimates/sec while documents arrive and
// expire at configurable rates.
//
// Not a paper figure: this bench measures the streaming layer built on top
// of the reproduction. It maintains a sliding window over a synthetic DBLP
// corpus through a StreamingEstimationService and, for each churn rate c,
// alternates rounds of c mutations (expire the c oldest documents, admit c
// new ones) with one batch of streaming LSH-SS estimates across the
// standard thresholds. Reported per churn rate: mutations/sec of the
// dynamic ℓ-table maintenance, estimates/sec of the batch path, and the
// fraction of batch answers served from the cache (0% whenever c > 0 —
// every mutation clears the cache, so nothing stale is reusable).
//
// The final row is the client fan-out scenario: VSJ_CLIENTS concurrent
// clients each submit the same standard-threshold sweep between churn
// bursts. Cross-request miss grouping computes each distinct (estimator, τ)
// once per batch and serves the other copies from the leader's response, so
// estimates/sec scales with the client count instead of paying a full
// re-sample per duplicate. Its JSON row, estimates_per_sec_fanout<N>_dedup,
// therefore measures deduplication, not sampling compute.
//
// Scale knobs (see bench_common.h): VSJ_N (corpus size, default 6000),
// VSJ_K (functions per table, default 12), VSJ_TRIALS (trials per request,
// default 2), VSJ_SEED; VSJ_TABLES (default 2), VSJ_ROUNDS (default 8),
// VSJ_CLIENTS (fan-out width, default 512), VSJ_ITERS (runs per row,
// default 3; each reported rate is the fastest run's, with the rate at the
// median run time beside it).
// `--json <path>` writes per-churn-rate numbers as JSON.

#include <deque>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "vsj/service/streaming_estimation_service.h"
#include "vsj/util/timer.h"

namespace {

std::vector<vsj::EstimateRequest> MakeBatch(size_t trials, uint64_t seed) {
  std::vector<vsj::EstimateRequest> batch;
  for (double tau : vsj::StandardThresholds()) {
    vsj::EstimateRequest request;
    request.estimator_name = "LSH-SS";
    request.tau = tau;
    request.trials = trials;
    request.seed = seed;
    batch.push_back(request);
  }
  return batch;
}

/// A streaming service whose window holds the `window` oldest ids; the
/// remaining ids are the arrival queue.
struct SlidingWindow {
  SlidingWindow(const vsj::CorpusConfig& config,
                const vsj::StreamingEstimationServiceOptions& options,
                size_t window)
      : service(vsj::GenerateCorpus(config), options) {
    for (; next < window; ++next) {
      service.Insert(next);
      live.push_back(next);
    }
  }

  /// Expires the `churn` oldest live documents and admits the same number
  /// of fresh arrivals.
  void Churn(size_t churn) {
    const auto universe = static_cast<vsj::VectorId>(service.dataset().size());
    for (size_t c = 0; c < churn; ++c) {
      service.Remove(live.front());
      live.pop_front();
      // Admit the next non-live id, recycling expired ids on wraparound.
      while (service.Contains(next)) next = (next + 1) % universe;
      service.Insert(next);
      live.push_back(next);
      next = (next + 1) % universe;
    }
  }

  vsj::StreamingEstimationService service;
  std::deque<vsj::VectorId> live;
  vsj::VectorId next = 0;
};

/// A row's runs, each from a fresh window: `rounds` rounds of `churn`
/// mutations, then one batch, the two phases timed apart.
struct RowRuns {
  std::vector<double> mutation_seconds;
  std::vector<double> batch_seconds;
  double hit_rate = 0.0;  ///< The last run's cache hit rate.
};

RowRuns RunRow(const vsj::CorpusConfig& config,
               const vsj::StreamingEstimationServiceOptions& options,
               size_t window, size_t churn,
               const std::vector<vsj::EstimateRequest>& batch, size_t rounds,
               size_t runs) {
  RowRuns row{std::vector<double>(runs, 0.0), std::vector<double>(runs, 0.0)};
  for (size_t run = 0; run < runs; ++run) {
    SlidingWindow sliding(config, options, window);
    for (size_t round = 0; round < rounds; ++round) {
      vsj::Timer mutation_timer;
      sliding.Churn(churn);
      row.mutation_seconds[run] += mutation_timer.ElapsedSeconds();

      vsj::Timer batch_timer;
      sliding.service.EstimateBatch(batch);
      row.batch_seconds[run] += batch_timer.ElapsedSeconds();
    }
    row.hit_rate = sliding.service.cache().stats().HitRate();
  }
  return row;
}

/// `count` events per second, from a row's per-run times: the fastest
/// run's rate (reported as the value) and the rate at the median time.
vsj::bench::Timing Rates(double count, vsj::bench::Timing seconds) {
  return {count / seconds.min, count / seconds.median};
}

}  // namespace

int main(int argc, char** argv) {
  const vsj::bench::Scale scale = vsj::bench::LoadScale(6000, 12, 2);
  vsj::bench::BenchJson json(argc, argv, "bench_streaming_churn");
  const uint32_t tables = vsj::bench::EnvCount("VSJ_TABLES", 2, 1);
  const size_t rounds = vsj::bench::EnvCount("VSJ_ROUNDS", 8, 1);
  const size_t clients = vsj::bench::EnvCount("VSJ_CLIENTS", 512, 1);
  const size_t window = scale.n / 2;
  std::cout << "streaming churn bench: n = " << scale.n << " (window "
            << window << "), k = " << scale.k << ", " << tables
            << " table(s), " << scale.trials << " trial(s)/request, "
            << rounds << " round(s)/rate\n\n";

  const vsj::CorpusConfig config = vsj::DblpLikeConfig(scale.n, scale.seed);
  const std::vector<vsj::EstimateRequest> batch =
      MakeBatch(scale.trials, scale.seed);

  vsj::TablePrinter report(
      "StreamingEstimationService under churn (LSH-SS, synthetic dblp)");
  report.SetHeader({"churn/round", "mutations/s", "batch ms", "estimates/s",
                    "cache hit rate"});

  vsj::StreamingEstimationServiceOptions options;
  options.k = scale.k;
  options.num_tables = tables;
  options.family_seed = scale.seed ^ 0x5eedULL;

  // Each row runs VSJ_ITERS times; a rate is reported for the fastest run
  // and at the median run time.
  for (const size_t churn : {size_t{0}, size_t{16}, size_t{128}, window / 4}) {
    const RowRuns row =
        RunRow(config, options, window, churn, batch, rounds, scale.iters);
    const vsj::bench::Timing batch_time =
        vsj::bench::MinMedian(row.batch_seconds);
    const vsj::bench::Timing estimate_rate =
        Rates(static_cast<double>(batch.size() * rounds), batch_time);
    std::string mutation_cell = "-";
    if (churn > 0) {
      const vsj::bench::Timing mutation_rate =
          Rates(static_cast<double>(churn * rounds),
                vsj::bench::MinMedian(row.mutation_seconds));
      json.Add("mutations_per_sec_churn" + std::to_string(churn),
               "mutations_per_sec", mutation_rate, scale.iters);
      mutation_cell = vsj::TablePrinter::Fmt(mutation_rate.median, 0);
    }
    json.Add("estimates_per_sec_churn" + std::to_string(churn),
             "estimates_per_sec", estimate_rate, scale.iters);
    report.AddRow({std::to_string(churn), mutation_cell,
                   vsj::TablePrinter::Fmt(batch_time.median * 1e3 /
                                              static_cast<double>(rounds),
                                          1),
                   vsj::TablePrinter::Fmt(estimate_rate.median, 1),
                   vsj::TablePrinter::Pct(row.hit_rate)});
  }

  // Client fan-out: every round churns 16 documents (so the cleared cache
  // forces a full recompute — no stale cache hits) and then submits one
  // batch holding `clients` copies of the standard sweep. Miss grouping
  // elects one leader per distinct (estimator, τ) and the other clients
  // ride along.
  const size_t fan_churn = 16;
  {
    std::vector<vsj::EstimateRequest> fan_batch;
    fan_batch.reserve(clients * batch.size());
    for (size_t c = 0; c < clients; ++c) {
      fan_batch.insert(fan_batch.end(), batch.begin(), batch.end());
    }

    const RowRuns row = RunRow(config, options, window, fan_churn, fan_batch,
                               rounds, scale.iters);
    const vsj::bench::Timing batch_time =
        vsj::bench::MinMedian(row.batch_seconds);
    const vsj::bench::Timing estimate_rate =
        Rates(static_cast<double>(fan_batch.size() * rounds), batch_time);
    json.Add("estimates_per_sec_fanout" + std::to_string(clients) + "_dedup",
             "estimates_per_sec", estimate_rate, scale.iters);
    report.AddRow(
        {std::to_string(fan_churn) + " x" + std::to_string(clients) +
             " clients",
         "-",
         vsj::TablePrinter::Fmt(batch_time.median * 1e3 /
                                    static_cast<double>(rounds),
                                1),
         vsj::TablePrinter::Fmt(estimate_rate.median, 1),
         vsj::TablePrinter::Pct(row.hit_rate)});
  }
  report.Print(std::cout);
  json.AddMetricsSnapshot();
  if (!json.Write()) return 1;
  std::cout << "\nchurned batches recompute (epoch invalidation); only the "
               "churn-0 row can hit the cache\n";
  return 0;
}
