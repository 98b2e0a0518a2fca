#include "bench_common.h"

#include <sys/wait.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include "vsj/net/json.h"
#include "vsj/obs/metrics.h"
#include "vsj/obs/stat_reporter.h"
#include "vsj/util/cpu.h"
#include "vsj/util/timer.h"

namespace vsj::bench {

namespace {

/// First "model name" of /proc/cpuinfo, or "unknown".
std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon == std::string::npos) break;
      const size_t begin = line.find_first_not_of(" \t", colon + 1);
      return begin == std::string::npos ? "" : line.substr(begin);
    }
  }
  return "unknown";
}

/// Runs `git ARGS` in the checkout the bench was built from and returns
/// its stdout; `status`, when given, gets its wait status (-1 if it never
/// ran). GIT_CEILING_DIRECTORIES keeps git from answering with an
/// enclosing repository.
std::string Git(const std::string& args, int* status = nullptr) {
  const std::string source = VSJ_BENCH_SOURCE_DIR;
  const std::string command = "GIT_CEILING_DIRECTORIES='" +
                              source.substr(0, source.rfind('/')) +
                              "' git -C '" + source + "' " + args +
                              " 2>/dev/null";
  std::string out;
  int result = -1;
  if (FILE* pipe = ::popen(command.c_str(), "r")) {
    char buf[64];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
    result = ::pclose(pipe);
  }
  if (status != nullptr) *status = result;
  return out;
}

/// HEAD of the checkout the bench was built from, with "-dirty" when a
/// tracked file differs from HEAD (the numbers then come from code no
/// commit holds), or a note saying there is no checkout.
std::string GitSha() {
  std::string sha = Git("rev-parse HEAD");
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  if (sha.empty()) return "unknown (not a git checkout)";
  int status = 0;
  Git("diff --quiet HEAD --", &status);
  if (WIFEXITED(status) && WEXITSTATUS(status) == 1) sha += "-dirty";
  return sha;
}

/// The host block of a BENCH document: the same fields servebench's
/// provenance record carries.
std::string HostJson() {
  std::string out = "{\"cpu_model\": ";
  net::JsonValue::AppendQuoted(&out, CpuModel());
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"simd\": ";
  net::JsonValue::AppendQuoted(&out, SimdLevelName(ActiveSimdLevel()));
  out += ", \"compiler\": ";
  net::JsonValue::AppendQuoted(&out, __VERSION__);
  out += ", \"build_type\": ";
  net::JsonValue::AppendQuoted(&out, VSJ_BENCH_BUILD_TYPE);
  out += ", \"git_sha\": ";
  net::JsonValue::AppendQuoted(&out, GitSha());
  out += "}";
  return out;
}

}  // namespace

uint64_t EnvCount(const char* name, uint64_t fallback, uint64_t min,
                  uint64_t max) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  const char* end = raw + std::strlen(raw);
  uint64_t value = 0;
  // from_chars takes no sign, space or trailing text for an unsigned type.
  const auto [ptr, ec] = std::from_chars(raw, end, value);
  if (ec != std::errc() || ptr != end || value < min || value > max) {
    const bool too_big = ec == std::errc::result_out_of_range || value > max;
    std::fprintf(stderr, "bad %s value (need an integer %s %llu): %s\n",
                 name, too_big ? "<=" : ">=",
                 static_cast<unsigned long long>(too_big ? max : min), raw);
    std::exit(2);
  }
  return value;
}

Scale LoadScale(size_t default_n, uint32_t default_k, size_t default_trials) {
  Scale scale;
  scale.n = EnvCount("VSJ_N", default_n, 2);
  scale.trials = EnvCount("VSJ_TRIALS", default_trials, 1);
  scale.seed = EnvCount("VSJ_SEED", 1, 0, UINT64_MAX);
  scale.k = EnvCount("VSJ_K", default_k, 1);
  scale.iters = EnvCount("VSJ_ITERS", 3, 1);
  return scale;
}

Workbench BuildWorkbench(CorpusConfig config, uint32_t k, uint32_t tables,
                         std::vector<double> taus) {
  Workbench bench;
  bench.config = config;
  Timer timer;
  bench.dataset = GenerateCorpus(config);
  const double gen_seconds = timer.ElapsedSeconds();

  bench.family = std::make_unique<SimHashFamily>(config.seed ^ 0x5eedULL);
  timer.Reset();
  bench.index =
      std::make_unique<LshIndex>(*bench.family, bench.dataset, k, tables);
  bench.index_build_seconds = timer.ElapsedSeconds();

  timer.Reset();
  bench.truth = std::make_unique<GroundTruth>(
      bench.dataset, SimilarityMeasure::kCosine, std::move(taus));
  bench.ground_truth_seconds = timer.ElapsedSeconds();

  const DatasetStats stats = bench.dataset.ComputeStats();
  std::cout << "# corpus " << config.name << ": n = " << stats.num_vectors
            << ", dims = " << stats.num_dimensions
            << ", avg features = " << stats.avg_features << " ["
            << stats.min_features << ", " << stats.max_features << "]\n"
            << "# generated in " << TablePrinter::Fmt(gen_seconds, 2)
            << "s; LSH index (k = " << k << ", tables = " << tables
            << ") built in "
            << TablePrinter::Fmt(bench.index_build_seconds, 2)
            << "s; exact ground truth in "
            << TablePrinter::Fmt(bench.ground_truth_seconds, 2) << "s\n";
  return bench;
}

EstimatorContext MakeContext(const Workbench& bench) {
  EstimatorContext context;
  context.dataset = bench.dataset;
  context.index = bench.index.get();
  context.measure = SimilarityMeasure::kCosine;
  return context;
}

std::vector<double> DefinedThresholds(const Workbench& bench,
                                      const std::vector<double>& taus) {
  std::vector<double> defined;
  for (double tau : taus) {
    if (bench.truth->JoinSize(tau) > 0) defined.push_back(tau);
  }
  return defined;
}

std::vector<AccuracyCell> ScoreSweep(const Workbench& bench,
                                     const JoinSizeEstimator& estimator,
                                     const std::string& label,
                                     const std::vector<double>& taus,
                                     size_t trials, uint64_t seed) {
  std::vector<AccuracyCell> cells;
  for (const TrialSeries& series : RunTrials(
           estimator, DefinedThresholds(bench, taus), trials, seed)) {
    AccuracyCell cell;
    cell.estimator = label;
    cell.tau = series.tau;
    cell.true_size = static_cast<double>(bench.truth->JoinSize(series.tau));
    cell.stats = ComputeErrorStats(series.estimates, cell.true_size);
    cell.mean_runtime_ms = series.mean_runtime_ms;
    cell.num_unguaranteed = series.num_unguaranteed;
    cells.push_back(std::move(cell));
  }
  return cells;
}

std::vector<AccuracyCell> RunAccuracyGrid(
    const Workbench& bench, const EstimatorContext& context,
    const std::vector<std::string>& estimator_names,
    const std::vector<double>& taus, size_t trials, uint64_t seed) {
  std::vector<AccuracyCell> cells;
  for (const std::string& name : estimator_names) {
    const std::vector<AccuracyCell> scored = ScoreSweep(
        bench, *CreateEstimator(name, context), name, taus, trials, seed);
    cells.insert(cells.end(), scored.begin(), scored.end());
  }
  return cells;
}

SweepSummary Summarize(const std::vector<AccuracyCell>& cells) {
  SweepSummary summary;
  for (const AccuracyCell& cell : cells) {
    const double mean = cell.stats.mean_estimate;
    summary.avg_error += cell.stats.mean_absolute_relative_error;
    if (mean == 0.0 || cell.true_size / mean >= 10.0) ++summary.big_under;
    if (mean / cell.true_size >= 10.0) ++summary.big_over;
  }
  if (!cells.empty()) summary.avg_error /= static_cast<double>(cells.size());
  return summary;
}

namespace {

/// cells grouped as tau → estimator → cell.
std::map<double, std::map<std::string, const AccuracyCell*>> GroupCells(
    const std::vector<AccuracyCell>& cells,
    std::vector<std::string>* estimator_order) {
  std::map<double, std::map<std::string, const AccuracyCell*>> grouped;
  for (const AccuracyCell& cell : cells) {
    grouped[cell.tau][cell.estimator] = &cell;
    if (std::find(estimator_order->begin(), estimator_order->end(),
                  cell.estimator) == estimator_order->end()) {
      estimator_order->push_back(cell.estimator);
    }
  }
  return grouped;
}

}  // namespace

void PrintAccuracyFigure(const std::string& figure_title,
                         const std::vector<AccuracyCell>& cells) {
  std::vector<std::string> estimators;
  const auto grouped = GroupCells(cells, &estimators);

  auto print_panel = [&](const std::string& panel,
                         auto value_of) {
    TablePrinter table(figure_title + " — " + panel);
    std::vector<std::string> header = {"tau", "true J"};
    header.insert(header.end(), estimators.begin(), estimators.end());
    table.SetHeader(std::move(header));
    for (const auto& [tau, row] : grouped) {
      std::vector<std::string> cells_out = {
          TablePrinter::Fmt(tau, 1),
          TablePrinter::Count(row.begin()->second->true_size)};
      for (const std::string& est : estimators) {
        auto it = row.find(est);
        cells_out.push_back(it == row.end() ? "-" : value_of(*it->second));
      }
      table.AddRow(std::move(cells_out));
    }
    table.Print(std::cout);
    std::cout << "\n";
  };

  print_panel("(a) relative error, overestimation (%)",
              [](const AccuracyCell& c) {
                return c.stats.num_overestimates == 0
                           ? std::string("0.0%")
                           : TablePrinter::Pct(c.stats.mean_overestimation);
              });
  print_panel("(b) relative error, underestimation (%)",
              [](const AccuracyCell& c) {
                return c.stats.num_underestimates == 0
                           ? std::string("0.0%")
                           : TablePrinter::Pct(c.stats.mean_underestimation);
              });
  print_panel("(c) STD of estimates",
              [](const AccuracyCell& c) {
                return TablePrinter::Sci(c.stats.std_dev, 1);
              });
}

void PrintRuntimeSummary(const std::vector<AccuracyCell>& cells) {
  // Every cell of one estimator carries the same sweep-trial time.
  TablePrinter table("Mean runtime of one sweep trial (all thresholds)");
  table.SetHeader({"estimator", "mean sweep trial (ms)"});
  std::vector<std::string> seen;
  for (const AccuracyCell& cell : cells) {
    if (std::find(seen.begin(), seen.end(), cell.estimator) != seen.end()) {
      continue;
    }
    seen.push_back(cell.estimator);
    table.AddRow({cell.estimator, TablePrinter::Fmt(cell.mean_runtime_ms, 2)});
  }
  table.Print(std::cout);
  std::cout << "\n";
}

BenchJson::BenchJson(int argc, char** argv, const std::string& bench_name)
    : bench_name_(bench_name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "BenchJson: --json needs a path; no JSON will be "
                     "written\n";
        return;
      }
      path_ = argv[i + 1];
      return;
    }
  }
}

void BenchJson::Add(const std::string& name, const std::string& unit,
                    double value, size_t iterations) {
  if (!enabled()) return;
  records_.push_back(Record{name, unit, value, std::nullopt, iterations});
}

void BenchJson::Add(const std::string& name, const std::string& unit,
                    Timing timing, size_t iterations) {
  if (!enabled()) return;
  records_.push_back(
      Record{name, unit, timing.min, timing.median, iterations});
}

void BenchJson::AddMetricsSnapshot() {
  if (!enabled()) return;
  const obs::RegistrySnapshot snapshot =
      obs::MetricRegistry::Global().Snapshot();
  if (snapshot.samples.empty()) return;
  std::ostringstream out;
  obs::AppendMetricsJson(snapshot, out);
  metrics_json_ = out.str();
}

bool BenchJson::Write() const {
  if (!enabled()) return true;
  using net::JsonValue;
  std::string out = "{\n  \"bench\": ";
  JsonValue::AppendQuoted(&out, bench_name_);
  out += ",\n  \"host\": " + HostJson() + ",\n  \"results\": [";
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out += i == 0 ? "\n    {\"name\": " : ",\n    {\"name\": ";
    JsonValue::AppendQuoted(&out, r.name);
    out += ", \"unit\": ";
    JsonValue::AppendQuoted(&out, r.unit);
    out += ", \"value\": ";
    JsonValue::AppendNumber(&out, r.value);
    if (r.median) {
      out += ", \"median\": ";
      JsonValue::AppendNumber(&out, *r.median);
    }
    out += ", \"iterations\": ";
    JsonValue::AppendNumber(&out, static_cast<double>(r.iterations));
    out += "}";
  }
  out += "\n  ]";
  if (!metrics_json_.empty()) out += ",\n  \"metrics\": " + metrics_json_;
  out += "\n}\n";
  std::ofstream os(path_);
  os << out;
  if (!os) {
    std::cerr << "BenchJson: cannot write " << path_ << "\n";
    return false;
  }
  return true;
}

}  // namespace vsj::bench
