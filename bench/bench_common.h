// Shared harness of the reproduction benches (one binary per paper
// table/figure; see DESIGN.md §4).
//
// Every bench follows the same protocol as the paper's §6: build a corpus
// and a pre-built LSH index, compute exact ground truth once, run each
// estimator for R independent trials — one sweep over every threshold per
// trial, on TrialStream(seed, t) (eval/experiment.h), the computation a
// server runs for the same question — and report over/under relative
// errors, STD and runtime. Every cell uses the scale's seed. Scale knobs
// come from the environment, each a decimal integer at or above its
// minimum (an unset knob takes the bench's default; anything else exits 2
// naming the knob and its value):
//   VSJ_N        dataset size             min 2  (default: per bench)
//   VSJ_TRIALS   trials per data point    min 1  (default 50; paper: 100)
//   VSJ_SEED     corpus / RNG seed        min 0  (default 1)
//   VSJ_K        LSH functions per table  min 1  (default: per bench, often 20)
//   VSJ_ITERS    timed repeats            min 1  (default 3)
// and, read by the benches that use them:
//   VSJ_TABLES   LSH tables               min 1  (lsh_build, streaming_churn)
//   VSJ_PAIRS    pairs per measurement    min 8  (dot_kernel)
//   VSJ_ROUNDS   churn rounds per rate    min 1  (streaming_churn)
//   VSJ_CLIENTS  fan-out clients          min 1  (streaming_churn)

#ifndef VSJ_BENCH_BENCH_COMMON_H_
#define VSJ_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "vsj/core/estimator_registry.h"
#include "vsj/eval/experiment.h"
#include "vsj/eval/ground_truth.h"
#include "vsj/gen/workloads.h"
#include "vsj/lsh/lsh_index.h"
#include "vsj/lsh/simhash.h"
#include "vsj/util/table_printer.h"
#include "vsj/util/timer.h"

namespace vsj::bench {

/// The one reader of the knobs above: environment variable `name` as a
/// decimal integer in [min, max], or `fallback` when it is unset. Prints
/// "bad NAME value (need an integer >= MIN): VALUE" (or "<= MAX") and
/// exits 2 on anything else: garbage, a sign, an empty or too-large value.
/// Counts stop at 2^32 - 1; only a seed needs the full 64 bits.
uint64_t EnvCount(const char* name, uint64_t fallback, uint64_t min,
                  uint64_t max = UINT32_MAX);

/// Scale parameters resolved from the environment.
struct Scale {
  size_t n;
  size_t trials;
  uint64_t seed;
  uint32_t k;
  size_t iters;
};

/// Reads VSJ_N / VSJ_TRIALS / VSJ_SEED / VSJ_K / VSJ_ITERS with the given
/// defaults (VSJ_ITERS defaults to 3).
Scale LoadScale(size_t default_n, uint32_t default_k = 20,
                size_t default_trials = 50);

/// The fastest and the median of repeated timed runs.
struct Timing {
  double min = 0.0;
  double median = 0.0;
  /// Both statistics times `factor` (seconds to ms, or to ns per pair).
  Timing Scaled(double factor) const { return {min * factor, median * factor}; }
};

/// The min and median of `seconds` (non-empty).
inline Timing MinMedian(std::vector<double> seconds) {
  std::sort(seconds.begin(), seconds.end());
  const size_t n = seconds.size();
  return {seconds.front(), (seconds[(n - 1) / 2] + seconds[n / 2]) / 2};
}

/// Runs `body` `iters` (>= 1) times and returns the min and median of its
/// wall times in seconds.
template <typename Body>
Timing TimeRuns(size_t iters, Body&& body) {
  std::vector<double> seconds(iters);
  for (double& s : seconds) {
    Timer timer;
    body();
    s = timer.ElapsedSeconds();
  }
  return MinMedian(std::move(seconds));
}

/// Everything a bench needs for one corpus.
struct Workbench {
  CorpusConfig config;
  VectorDataset dataset;
  std::unique_ptr<SimHashFamily> family;
  std::unique_ptr<LshIndex> index;
  std::unique_ptr<GroundTruth> truth;
  double index_build_seconds = 0.0;
  double ground_truth_seconds = 0.0;
};

/// Generates the corpus, builds `tables` LSH tables with `k` functions and
/// computes exact ground truth at the standard thresholds. Prints a short
/// provenance banner (dataset stats, timings) to stdout.
Workbench BuildWorkbench(CorpusConfig config, uint32_t k,
                         uint32_t tables = 1,
                         std::vector<double> taus = StandardThresholds());

/// Per-(estimator, τ) aggregation used by the accuracy figures.
struct AccuracyCell {
  std::string estimator;
  double tau = 0.0;
  double true_size = 0.0;
  ErrorStats stats;
  double mean_runtime_ms = 0.0;
  size_t num_unguaranteed = 0;
};

/// The τ of `taus` whose true join size is positive: relative error is
/// undefined at J = 0, so the paper's protocol skips those thresholds.
std::vector<double> DefinedThresholds(const Workbench& bench,
                                      const std::vector<double>& taus);

/// Runs `trials` sweeps of `estimator` over DefinedThresholds(taus) with
/// one RunTrials call, and scores each τ against the bench's exact J.
/// Cells are labelled `label`.
std::vector<AccuracyCell> ScoreSweep(const Workbench& bench,
                                     const JoinSizeEstimator& estimator,
                                     const std::string& label,
                                     const std::vector<double>& taus,
                                     size_t trials, uint64_t seed);

/// ScoreSweep for each registered estimator of `estimator_names`, in order.
std::vector<AccuracyCell> RunAccuracyGrid(
    const Workbench& bench, const EstimatorContext& context,
    const std::vector<std::string>& estimator_names,
    const std::vector<double>& taus, size_t trials, uint64_t seed);

/// Appendix C.2's summary of one estimator's cells: the average |relative
/// error| over τ, and the number of τ whose mean estimate is off by 10× or
/// more in each direction (a zero estimate of a positive J counts as a big
/// underestimate).
struct SweepSummary {
  double avg_error = 0.0;
  size_t big_under = 0;
  size_t big_over = 0;
};
SweepSummary Summarize(const std::vector<AccuracyCell>& cells);

/// Prints the three panels of a paper accuracy figure (e.g. Figure 2):
/// (a) relative error of overestimation, (b) of underestimation, (c) STD.
void PrintAccuracyFigure(const std::string& figure_title,
                         const std::vector<AccuracyCell>& cells);

/// Prints the mean runtime of one sweep trial per estimator (the §6.2
/// runtime text, with every τ of the grid answered by one trial).
void PrintRuntimeSummary(const std::vector<AccuracyCell>& cells);

/// Default estimator context for a workbench.
EstimatorContext MakeContext(const Workbench& bench);

/// Machine-readable bench output: `--json <path>` on a bench's command line
/// makes the bench write its headline numbers as one JSON document, so CI
/// can archive a BENCH_*.json perf trajectory across PRs. The document
/// opens with a "host" block (CPU model, nproc, SIMD level, compiler, build
/// type, git sha) so a number never travels without the machine and commit
/// that produced it. Without a path every method is a no-op.
class BenchJson {
 public:
  /// Resolves the output path from argv (`--json <path>`); `bench_name`
  /// is recorded in the document.
  BenchJson(int argc, char** argv, const std::string& bench_name);

  bool enabled() const { return !path_.empty(); }

  /// Records one measurement. `name` identifies the series ("static_build",
  /// ...), `unit` its unit ("ms", "mutations_per_sec"), `iterations` how
  /// many repetitions produced `value`.
  void Add(const std::string& name, const std::string& unit, double value,
           size_t iterations);

  /// Records a measurement of `iterations` timed runs: `value` is their
  /// min and `median` sits beside it.
  void Add(const std::string& name, const std::string& unit, Timing timing,
           size_t iterations);

  /// Captures the global MetricRegistry as a "metrics" section of the
  /// document (counters, gauges, histogram percentiles). Call after the
  /// measured work, before Write(). A no-op without an output path or when
  /// metrics never recorded anything.
  void AddMetricsSnapshot();

  /// Writes the document; returns false (after printing to stderr) when the
  /// file cannot be written. Call once at the end of main.
  bool Write() const;

 private:
  struct Record {
    std::string name;
    std::string unit;
    double value;
    std::optional<double> median;  // set when `value` is a min of repeats
    size_t iterations;
  };
  std::string bench_name_;
  std::string path_;
  std::vector<Record> records_;
  std::string metrics_json_;  // serialized registry snapshot, may be empty
};

}  // namespace vsj::bench

#endif  // VSJ_BENCH_BENCH_COMMON_H_
