// Throughput of the concurrent estimation service at 1, 2, 4 and 8 threads.
//
// Not a paper figure: this bench measures the engineering layer above the
// reproduction — EstimationService batch estimation and the parallel LSH
// index build — on the synthetic DBLP workload. For each thread count it
// builds the service (timing the ℓ-table index build), submits one batch of
// estimation requests sweeping τ with the cache disabled (so every request
// is computed, not memoized), and reports estimates/sec plus the speedup
// over the single-threaded run. It also cross-checks that every thread
// count produced bit-identical estimates, the service's determinism
// contract.
//
// Scale knobs (see bench_common.h): VSJ_N (corpus size, default 8000),
// VSJ_K (functions per table, default 20), VSJ_TRIALS (trials per request,
// default 4), VSJ_SEED.

#include <iostream>
#include <vector>

#include "bench/bench_common.h"
#include "vsj/service/estimation_service.h"
#include "vsj/util/timer.h"

namespace {

constexpr size_t kRequestsPerBatch = 64;

std::vector<vsj::EstimateRequest> MakeBatch(size_t trials, uint64_t seed) {
  const std::vector<double> taus = vsj::StandardThresholds();
  std::vector<vsj::EstimateRequest> batch;
  batch.reserve(kRequestsPerBatch);
  for (size_t i = 0; i < kRequestsPerBatch; ++i) {
    vsj::EstimateRequest request;
    request.estimator_name = "LSH-SS";
    request.tau = taus[i % taus.size()];
    request.trials = trials;
    request.seed = seed;
    batch.push_back(request);
  }
  return batch;
}

}  // namespace

int main() {
  const vsj::bench::Scale scale = vsj::bench::LoadScale(8000, 20, 4);
  std::cout << "service throughput bench: n = " << scale.n
            << ", k = " << scale.k << ", " << kRequestsPerBatch
            << " requests/batch, " << scale.trials << " trial(s)/request\n\n";

  const vsj::CorpusConfig config = vsj::DblpLikeConfig(scale.n, scale.seed);
  const std::vector<vsj::EstimateRequest> batch =
      MakeBatch(scale.trials, scale.seed);

  vsj::TablePrinter report("EstimationService batch throughput (LSH-SS, "
                           "synthetic dblp)");
  report.SetHeader({"threads", "index build s", "batch ms", "estimates/s",
                    "speedup"});

  std::vector<double> baseline;  // single-thread estimates, for determinism
  double single_thread_rate = 0.0;
  for (size_t threads : {1, 2, 4, 8}) {
    // Regenerate the corpus per run so every service builds from identical
    // inputs (the service takes ownership of its dataset).
    vsj::EstimationServiceOptions options;
    options.k = scale.k;
    options.num_threads = threads;
    options.family_seed = scale.seed ^ 0x5eedULL;
    options.cache_capacity = 0;
    vsj::EstimationService service(vsj::GenerateCorpus(config), options);

    vsj::Timer timer;
    const std::vector<vsj::EstimateResponse> responses =
        service.EstimateBatch(batch);
    const double batch_seconds = timer.ElapsedSeconds();
    const double rate =
        static_cast<double>(responses.size()) / batch_seconds;
    if (threads == 1) single_thread_rate = rate;

    std::vector<double> estimates;
    estimates.reserve(responses.size());
    for (const auto& response : responses) {
      estimates.push_back(response.mean_estimate);
    }
    if (threads == 1) {
      baseline = estimates;
    } else if (estimates != baseline) {
      std::cout << "DETERMINISM VIOLATION at " << threads << " threads\n";
      return 1;
    }

    report.AddRow({std::to_string(threads),
                   vsj::TablePrinter::Fmt(service.index_build_seconds(), 3),
                   vsj::TablePrinter::Fmt(batch_seconds * 1e3, 1),
                   vsj::TablePrinter::Fmt(rate, 1),
                   vsj::TablePrinter::Fmt(rate / single_thread_rate, 2) +
                       "x"});
  }
  report.Print(std::cout);
  std::cout << "\nall thread counts returned bit-identical estimates\n";
  return 0;
}
