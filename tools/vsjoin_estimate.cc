// vsjoin_estimate: command-line join-size estimation.
//
//   vsjoin_estimate --dataset corpus.vsjd --tau 0.8 [--estimator LSH-SS]
//                   [--k 20] [--tables 1] [--trials 1] [--seed 1]
//   vsjoin_estimate --synthetic dblp --n 20000 --tau 0.8 [...]
//   vsjoin_estimate --synthetic dblp --threads 4 --batch-taus 0.7,0.8,0.9
//   vsjoin_estimate --dataset corpus.vsjd --stream ops.txt
//
// Loads a persisted dataset (vsj/io) or generates a synthetic corpus and
// routes every estimate through the EstimationService: the LSH index is
// built in parallel with --threads workers, the τ list of --batch-taus is
// estimated as one concurrent batch, and --repeat re-submits the batch to
// exercise the estimate cache (repeats are served without re-sampling).
// Each row reports the mean over --trials runs, the standard error of that
// mean (n/a below two trials — a single draw has no measurable spread; it
// is the trials' disagreement, not an error bound), the 95% interval of J
// (n/a for an estimator that states none; see DESIGN.md "One interval"),
// and the number of pair-similarity evaluations performed. --max-rel-error
// E lets every request stop at the first of the trial checkpoints 2, 4,
// 8, … where the interval's half-width is within E · estimate (the row
// then shows the trials that actually ran). --json FILE mirrors every
// report row as one JSON object per line. With --exact it also computes
// the exact join size of every τ for comparison, in one inverted-index
// pass with --threads workers (eval/ground_truth.h).
//
// --stream OPFILE switches to the StreamingEstimationService: the dataset
// becomes the backing store (no vector starts live) and OPFILE is replayed
// line by line. Format (ids refer to dataset positions; '#' comments):
//   insert <id> [<id-end>]       make ids [id, id-end] live
//   remove <id> [<id-end>]       expire ids [id, id-end]
//   erase <id> [<id-end>]        expire AND tombstone ids (payload is
//                                reclaimed by arena compaction; the ids
//                                can never be re-inserted)
//   estimate <tau> [<tau> ...]   batched streaming LSH-SS estimates
//   checkpoint <path>            snapshot the full engine state (VSJS)
//   restore <path>               replace the engine with a snapshot
// Every estimate row reports the epoch and live count it was answered at;
// a mutation bumps the epoch, so repeats of a τ after churn are recomputed
// rather than served from cache.
//
// Persistence flags:
//   --save-dataset PATH   re-save the loaded/generated dataset as VSJB v2
//   --mmap                open --dataset zero-copy via mmap (VSJB v2 only)
//   --save-snapshot PATH  checkpoint the streaming engine after the op file
//   --load-snapshot PATH  start the streaming engine from a snapshot
//                         (replaces --dataset/--synthetic; needs --stream)
//
// Observability flags (all output goes to stderr or files — stdout stays
// reserved for the report tables, keeping the golden CLI fixtures intact):
//   --metrics             end-of-run profiling table on stderr
//   --metrics-json PATH   write the metrics snapshot as one JSON document
//   --trace PATH          write collected spans as Chrome trace_event JSON
//                         (loadable in chrome://tracing / Perfetto)
//   --stats-interval MS   live profiling table on stderr every MS ms while
//                         the op stream replays (needs --stream)

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <fstream>

#include "vsj/core/estimator_registry.h"
#include "vsj/core/stratified_sampling.h"
#include "vsj/eval/ground_truth.h"
#include "vsj/io/dataset_io.h"
#include "vsj/vector/mapped_csr_storage.h"
#include "vsj/gen/workloads.h"
#include "vsj/net/protocol.h"
#include "vsj/obs/obs.h"
#include "vsj/obs/stat_reporter.h"
#include "vsj/service/estimation_service.h"
#include "vsj/service/streaming_estimation_service.h"
#include "vsj/util/cpu.h"
#include "vsj/util/flags.h"
#include "vsj/util/table_printer.h"
#include "vsj/util/timer.h"

namespace {

struct Args {
  std::string dataset_path;
  std::string synthetic;  // dblp | nyt | pubmed
  std::string estimator = "LSH-SS";
  size_t n = 20000;
  std::vector<double> taus = {0.8};
  uint32_t k = 20;
  uint32_t tables = 1;
  size_t trials = 1;
  uint64_t seed = 1;
  size_t threads = 1;
  size_t repeat = 1;
  /// Any-τ early exit (EstimateRequest::max_rel_error); 0 = run every
  /// trial of the --trials budget.
  double max_rel_error = 0.0;
  bool exact = false;
  std::string json_path;  // JSON-lines estimate log (one object per row)
  std::string stream_ops_path;
  std::string save_dataset_path;
  std::string save_snapshot_path;
  std::string load_snapshot_path;
  bool use_mmap = false;
  bool taus_set = false;       // --tau / --batch-taus given explicitly
  bool estimator_set = false;  // --estimator given explicitly

  // Observability flags. All of their output goes to stderr or to files,
  // never stdout — the golden CLI fixtures diff stdout only and must stay
  // byte-identical with metrics enabled.
  bool metrics = false;            // end-of-run profiling table on stderr
  std::string metrics_json_path;   // one metrics JSON document
  std::string trace_path;          // Chrome trace_event JSON
  int stats_interval_ms = 0;       // live table period (--stream only)
};

/// Strict numeric parse: the whole token must be consumed.
bool ParseDouble(const std::string& token, double* out) {
  char* end = nullptr;
  *out = std::strtod(token.c_str(), &end);
  return end != token.c_str() && *end == '\0';
}

/// Parses and validates one join threshold given to `flag`; prints the
/// offending token to stderr on failure, after `where` (an op file's
/// "line N: "). `what` names the flag's value in the parse error ("value"
/// or "list").
bool ParseTau(const std::string& item, const char* flag, const char* what,
              double* tau, const std::string& where = "") {
  if (!ParseDouble(item, tau)) {
    std::cerr << where << "could not parse " << flag << " " << what << ": "
              << item << "\n";
    return false;
  }
  // A join threshold is a similarity in (0, 1]; out-of-range values used
  // to pass through silently and estimate nonsense (τ ≤ 0 returns every
  // pair, τ > 1 returns none). NaN fails the first comparison.
  if (!(*tau > 0.0) || *tau > 1.0) {
    std::cerr << where << "out-of-range " << flag
              << " value (tau must be in (0, 1]): " << item << "\n";
    return false;
  }
  return true;
}

/// Parses and validates the --batch-taus CSV; prints the offending token
/// to stderr on failure.
bool ParseTauList(const char* value, std::vector<double>* taus) {
  taus->clear();
  std::stringstream stream(value);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (item.empty()) continue;
    double tau = 0.0;
    if (!ParseTau(item, "--batch-taus", "list", &tau)) return false;
    // Duplicates used to burn a full re-sample per copy for an answer the
    // batch already carries.
    for (double seen : *taus) {
      if (seen == tau) {
        std::cerr << "duplicate --batch-taus value: " << item << "\n";
        return false;
      }
    }
    taus->push_back(tau);
  }
  if (taus->empty()) {
    std::cerr << "could not parse --batch-taus list: " << value << "\n";
    return false;
  }
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << name << "\n";
        return nullptr;
      }
      return argv[++i];
    };
    // An unsigned count; `min` and `max` bound it, naming flag and token.
    auto next_u64 = [&](const char* name, uint64_t* out, uint64_t min = 0,
                        uint64_t max = UINT64_MAX) -> bool {
      return vsj::ParseFlagU64(name, i + 1 < argc ? argv[++i] : nullptr, out,
                               min, max);
    };
    uint64_t count = 0;
    if (flag == "--dataset") {
      const char* v = next("--dataset");
      if (!v) return false;
      args->dataset_path = v;
    } else if (flag == "--synthetic") {
      const char* v = next("--synthetic");
      if (!v) return false;
      args->synthetic = v;
    } else if (flag == "--estimator") {
      const char* v = next("--estimator");
      if (!v) return false;
      args->estimator = v;
      args->estimator_set = true;
    } else if (flag == "--n") {
      if (!next_u64("--n", &count)) return false;
      args->n = count;
    } else if (flag == "--tau") {
      const char* v = next("--tau");
      if (!v) return false;
      double tau = 0.0;
      if (!ParseTau(v, "--tau", "value", &tau)) return false;
      args->taus = {tau};
      args->taus_set = true;
    } else if (flag == "--batch-taus") {
      const char* v = next("--batch-taus");
      if (!v) return false;
      if (!ParseTauList(v, &args->taus)) return false;
      args->taus_set = true;
    } else if (flag == "--k") {
      if (!next_u64("--k", &count, 1, vsj::kMaxHashFunctions)) return false;
      args->k = static_cast<uint32_t>(count);
    } else if (flag == "--tables") {
      if (!next_u64("--tables", &count, 1, vsj::kMaxHashFunctions)) {
        return false;
      }
      args->tables = static_cast<uint32_t>(count);
    } else if (flag == "--trials") {
      if (!next_u64("--trials", &count, 1, vsj::kMaxTrials)) return false;
      args->trials = count;
    } else if (flag == "--seed") {
      if (!next_u64("--seed", &args->seed)) return false;
    } else if (flag == "--threads") {
      if (!next_u64("--threads", &count, 1)) return false;
      args->threads = count;
    } else if (flag == "--repeat") {
      if (!next_u64("--repeat", &count, 1)) return false;
      args->repeat = count;
    } else if (flag == "--max-rel-error") {
      const char* v = next("--max-rel-error");
      if (!v) return false;
      if (!ParseDouble(v, &args->max_rel_error) ||
          !std::isfinite(args->max_rel_error) || args->max_rel_error < 0.0) {
        std::cerr << "--max-rel-error needs a finite non-negative bound: "
                  << v << "\n";
        return false;
      }
    } else if (flag == "--json") {
      const char* v = next("--json");
      if (!v) return false;
      args->json_path = v;
    } else if (flag == "--exact") {
      args->exact = true;
    } else if (flag == "--stream") {
      const char* v = next("--stream");
      if (!v) return false;
      args->stream_ops_path = v;
    } else if (flag == "--save-dataset") {
      const char* v = next("--save-dataset");
      if (!v) return false;
      args->save_dataset_path = v;
    } else if (flag == "--save-snapshot") {
      const char* v = next("--save-snapshot");
      if (!v) return false;
      args->save_snapshot_path = v;
    } else if (flag == "--load-snapshot") {
      const char* v = next("--load-snapshot");
      if (!v) return false;
      args->load_snapshot_path = v;
    } else if (flag == "--mmap") {
      args->use_mmap = true;
    } else if (flag == "--metrics") {
      args->metrics = true;
    } else if (flag == "--metrics-json") {
      const char* v = next("--metrics-json");
      if (!v) return false;
      args->metrics_json_path = v;
    } else if (flag == "--trace") {
      const char* v = next("--trace");
      if (!v) return false;
      args->trace_path = v;
    } else if (flag == "--stats-interval") {
      if (!next_u64("--stats-interval", &count, 1, INT_MAX)) return false;
      args->stats_interval_ms = static_cast<int>(count);
    } else if (flag == "--help" || flag == "-h") {
      return false;
    } else {
      std::cerr << "unknown flag: " << flag << "\n";
      return false;
    }
  }
  if (!vsj::CheckHashFunctionCount(args->k, args->tables,
                                   vsj::kMaxHashFunctions)) {
    return false;
  }
  const std::vector<std::string> known = vsj::AllEstimatorNames();
  if (std::find(known.begin(), known.end(), args->estimator) == known.end()) {
    std::cerr << "unknown --estimator name: " << args->estimator << "\n";
    return false;
  }
  if (!args->stream_ops_path.empty()) {
    // Stream mode replays the op file; the batch-mode question flags would
    // be silently ignored, so reject them instead of misleading the user.
    if (args->estimator_set && args->estimator != "LSH-SS") {
      std::cerr << "--stream only serves LSH-SS (got --estimator "
                << args->estimator << ")\n";
      return false;
    }
    if (args->taus_set || args->repeat != 1 || args->exact) {
      std::cerr << "--stream takes its taus from 'estimate' ops; "
                   "--tau/--batch-taus/--repeat/--exact do not apply\n";
      return false;
    }
  }
  if (args->use_mmap) {
    if (args->dataset_path.empty()) {
      std::cerr << "--mmap opens a VSJB v2 file in place; it needs "
                   "--dataset FILE\n";
      return false;
    }
    if (!args->stream_ops_path.empty()) {
      std::cerr << "--mmap serves the read-only batch path; the streaming "
                   "engine owns a mutable arena and cannot run over a "
                   "mapped file\n";
      return false;
    }
  }
  if (args->stats_interval_ms > 0 && args->stream_ops_path.empty()) {
    std::cerr << "--stats-interval prints live tables while an op stream "
                 "replays; it needs --stream OPFILE (batch runs report "
                 "once via --metrics)\n";
    return false;
  }
  if (!args->save_snapshot_path.empty() && args->stream_ops_path.empty()) {
    std::cerr << "--save-snapshot checkpoints the streaming engine; it "
                 "needs --stream OPFILE\n";
    return false;
  }
  if (!args->load_snapshot_path.empty()) {
    if (args->stream_ops_path.empty()) {
      std::cerr << "--load-snapshot restores the streaming engine; it "
                   "needs --stream OPFILE\n";
      return false;
    }
    if (!args->dataset_path.empty() || !args->synthetic.empty()) {
      std::cerr << "--load-snapshot carries its own dataset; drop "
                   "--dataset/--synthetic\n";
      return false;
    }
    if (!args->save_dataset_path.empty()) {
      std::cerr << "--save-dataset exports a loaded/generated dataset; it "
                   "does not apply to --load-snapshot (use 'checkpoint' "
                   "ops or --save-snapshot to persist the engine)\n";
      return false;
    }
    return true;
  }
  return !args->dataset_path.empty() || !args->synthetic.empty();
}

void PrintUsage() {
  std::cerr
      << "usage: vsjoin_estimate (--dataset FILE | --synthetic "
         "dblp|nyt|pubmed | --load-snapshot FILE) --tau T\n"
         "       [--batch-taus T1,T2,...] [--estimator NAME] [--n N]\n"
         "       [--k K] [--tables L] [--trials R] [--seed S]\n"
         "       [--threads T] [--repeat R] [--max-rel-error E]\n"
         "       [--json FILE] [--exact] [--stream OPFILE]\n"
         "       [--mmap] [--save-dataset FILE] [--save-snapshot FILE]\n"
         "       [--metrics] [--metrics-json FILE] [--trace FILE]\n"
         "       [--stats-interval MS]\n"
         "estimators: LSH-SS LSH-SS(D) RS(pop) RS(cross) LSH-S J_U LC\n"
         "            Adaptive Bifocal LSH-SS(median) LSH-SS(vbucket)\n"
         "stream op file: 'insert I [J]' | 'remove I [J]' | "
         "'erase I [J]' | "
         "'estimate T...' | 'checkpoint PATH' | 'restore PATH'\n";
}

/// std error column: a single trial has no spread to measure, so the 0.0
/// the aggregator leaves behind would read as "perfectly converged".
std::string FmtStdError(const vsj::EstimateResponse& response) {
  if (response.trials < 2) return "n/a";
  return vsj::TablePrinter::Fmt(response.std_error, 1);
}

/// interval column: [lower, upper] of J, or n/a for an estimator that
/// states none (the wire omits the fields alike).
std::string FmtInterval(const vsj::EstimateResponse& response) {
  if (response.strata.size() == 0) return "n/a";
  const vsj::Interval interval =
      vsj::EstimateInterval(response.strata, response.trials);
  return "[" + vsj::TablePrinter::Fmt(interval.lower, 0) + ", " +
         vsj::TablePrinter::Fmt(interval.upper, 0) + "]";
}

/// One response as a JSON-lines object for --json: the row prefix `extra`
/// and the fields of the wire payload (net::AppendEstimateFields), so the
/// server smoke test can diff served bytes against these lines.
void AppendResponseJson(std::ostream& out, const std::string& extra,
                        const vsj::EstimateResponse& response) {
  std::string line = "{" + extra;
  vsj::net::AppendEstimateFields(&line, response);
  out << line << "}\n";
}

/// Flips the runtime observability switches requested on the command line.
void ArmObservability(const Args& args) {
  const bool want_metrics = args.metrics || !args.metrics_json_path.empty() ||
                            args.stats_interval_ms > 0;
  if (want_metrics) vsj::obs::EnableMetrics(true);
  if (!args.trace_path.empty()) vsj::obs::EnableTracing(true);
}

/// Emits the end-of-run observability artifacts on destruction, so every
/// exit path of main reports: the profiling table on stderr (--metrics),
/// one metrics JSON document (--metrics-json) and the Chrome trace file
/// (--trace). Stdout is never touched.
struct ObservabilityGuard {
  explicit ObservabilityGuard(const Args& args) : args(args) {}

  ~ObservabilityGuard() {
    if (args.metrics || !args.metrics_json_path.empty()) {
      const vsj::obs::RegistrySnapshot snapshot =
          vsj::obs::MetricRegistry::Global().Snapshot();
      if (args.metrics) {
        vsj::obs::PrintMetricsTable(snapshot, nullptr, std::cerr, "metrics");
      }
      if (!args.metrics_json_path.empty()) {
        std::string error;
        if (!vsj::obs::WriteMetricsJson(snapshot, args.metrics_json_path,
                                        &error)) {
          std::cerr << "failed to write metrics json: " << error << "\n";
        }
      }
    }
    if (!args.trace_path.empty()) {
      const vsj::obs::TraceCollector& collector =
          vsj::obs::TraceCollector::Global();
      std::string error;
      if (!collector.WriteChromeTraceFile(args.trace_path, &error)) {
        std::cerr << "failed to write trace: " << error << "\n";
      } else {
        std::cerr << "trace: " << collector.size() << " span(s) written to "
                  << args.trace_path;
        if (collector.dropped() > 0) {
          std::cerr << " (" << collector.dropped() << " dropped)";
        }
        std::cerr << "\n";
      }
    }
  }

  const Args& args;
};

/// Fills the engine block both engines share from the command line.
void SetEngineOptions(const Args& args,
                      vsj::EstimationEngineOptions* options) {
  options->k = args.k;
  options->num_tables = args.tables;
  options->num_threads = args.threads;
  options->family_seed = args.seed ^ 0x5eedULL;
}

/// The request the command line asks at threshold `tau` (stream mode only
/// accepts --estimator LSH-SS, so both modes share it).
vsj::EstimateRequest RequestAt(const Args& args, double tau) {
  vsj::EstimateRequest request;
  request.estimator_name = args.estimator;
  request.tau = tau;
  request.trials = args.trials;
  request.seed = args.seed;
  request.max_rel_error = args.max_rel_error;
  return request;
}

vsj::StreamingEstimationServiceOptions StreamOptions(const Args& args) {
  vsj::StreamingEstimationServiceOptions options;
  SetEngineOptions(args, &options);
  return options;
}

/// Replays `args.stream_ops_path` against the streaming engine (freshly
/// built over a dataset, or restored from a snapshot). Returns the process
/// exit code.
int RunStreamMode(std::unique_ptr<vsj::StreamingEstimationService> service,
                  const Args& args) {
  std::ifstream ops(args.stream_ops_path);
  if (!ops) {
    std::cerr << "failed to open op file " << args.stream_ops_path << "\n";
    return 1;
  }

  // Live profiling tables on stderr while the op file replays; the
  // reporter's destructor emits one final tick on every return path below.
  std::unique_ptr<vsj::obs::StatReporter> reporter;
  if (args.stats_interval_ms > 0) {
    vsj::obs::StatReporterOptions reporter_options;
    reporter_options.interval_ms = args.stats_interval_ms;
    reporter_options.out = &std::cerr;
    reporter = std::make_unique<vsj::obs::StatReporter>(reporter_options);
  }

  std::ofstream json_out;
  if (!args.json_path.empty()) {
    json_out.open(args.json_path, std::ios::trunc);
    if (!json_out) {
      std::cerr << "failed to open --json file " << args.json_path << "\n";
      return 1;
    }
  }

  vsj::TablePrinter report("streaming estimates (LSH-SS, " +
                           std::to_string(args.trials) + " trial(s) each)");
  report.SetHeader({"line", "epoch", "live", "tau", "estimate", "std error",
                    "interval", "pairs eval", "unguaranteed", "cached"});

  size_t line_number = 0;
  size_t mutations = 0;
  std::string line;
  while (std::getline(ops, line)) {
    ++line_number;
    const size_t comment = line.find('#');
    if (comment != std::string::npos) line = line.substr(0, comment);
    std::stringstream tokens(line);
    std::vector<std::string> words;
    std::string word;
    while (tokens >> word) words.push_back(word);
    if (words.empty()) continue;  // blank line
    const std::string& op = words.front();

    if (op == "insert" || op == "remove" || op == "erase") {
      uint64_t first = 0;
      uint64_t last = 0;
      if (words.size() < 2 || words.size() > 3 ||
          !vsj::ParseU64(words[1], &first) ||
          !(words.size() == 2 ? (last = first, true)
                              : vsj::ParseU64(words[2], &last))) {
        std::cerr << "line " << line_number << ": expected '" << op
                  << " <id> [<id-end>]'\n";
        return 1;
      }
      if (last < first) {
        std::cerr << "line " << line_number << ": empty range " << first
                  << ".." << last << "\n";
        return 1;
      }
      for (uint64_t id = first; id <= last; ++id) {
        const auto vector_id = static_cast<vsj::VectorId>(id);
        if (id >= service->dataset().size()) {
          std::cerr << "line " << line_number << ": id " << id
                    << " outside the dataset (n = "
                    << service->dataset().size() << ")\n";
          return 1;
        }
        if (op == "insert") {
          if (service->Contains(vector_id)) {
            std::cerr << "line " << line_number << ": id " << id
                      << " is already live\n";
            return 1;
          }
          if (!service->store().Contains(vector_id)) {
            std::cerr << "line " << line_number << ": id " << id
                      << " was erased and cannot return\n";
            return 1;
          }
          VSJ_TRACE_SPAN(op_span, "stream.op.insert_ns");
          service->Insert(vector_id);
        } else if (op == "erase") {
          if (!service->store().Contains(vector_id)) {
            std::cerr << "line " << line_number << ": id " << id
                      << " was already erased\n";
            return 1;
          }
          VSJ_TRACE_SPAN(op_span, "stream.op.erase_ns");
          service->Erase(vector_id);
        } else {
          if (!service->Contains(vector_id)) {
            std::cerr << "line " << line_number << ": id " << id
                      << " is not live\n";
            return 1;
          }
          VSJ_TRACE_SPAN(op_span, "stream.op.remove_ns");
          service->Remove(vector_id);
        }
        ++mutations;
        VSJ_COUNTER_ADD("stream.mutations", 1);
      }
    } else if (op == "estimate") {
      std::vector<vsj::EstimateRequest> batch;
      for (size_t w = 1; w < words.size(); ++w) {
        double tau = 0.0;
        if (!ParseTau(words[w], "estimate", "tau", &tau,
                      "line " + std::to_string(line_number) + ": ")) {
          return 1;
        }
        batch.push_back(RequestAt(args, tau));
      }
      if (batch.empty()) {
        std::cerr << "line " << line_number << ": estimate needs a tau\n";
        return 1;
      }
      std::vector<vsj::EstimateResponse> responses;
      {
        VSJ_TRACE_SPAN(op_span, "stream.op.estimate_ns");
        responses = service->EstimateBatch(batch);
      }
      for (const vsj::EstimateResponse& response : responses) {
        report.AddRow({std::to_string(line_number),
                       std::to_string(service->epoch()),
                       std::to_string(service->num_live()),
                       vsj::TablePrinter::Fmt(response.tau, 2),
                       vsj::TablePrinter::Fmt(response.mean_estimate, 1),
                       FmtStdError(response), FmtInterval(response),
                       std::to_string(response.pairs_evaluated),
                       std::to_string(response.num_unguaranteed),
                       response.from_cache ? "yes" : "no"});
        if (json_out.is_open()) {
          AppendResponseJson(
              json_out,
              "\"line\":" + std::to_string(line_number) +
                  ",\"epoch\":" + std::to_string(service->epoch()) +
                  ",\"live\":" + std::to_string(service->num_live()) + ",",
              response);
        }
      }
    } else if (op == "checkpoint" || op == "restore") {
      if (words.size() != 2) {
        std::cerr << "line " << line_number << ": expected '" << op
                  << " <path>'\n";
        return 1;
      }
      if (op == "checkpoint") {
        VSJ_TRACE_SPAN(op_span, "stream.op.checkpoint_ns");
        const vsj::IoStatus status = service->Checkpoint(words[1]);
        if (!status.ok()) {
          std::cerr << "line " << line_number
                    << ": checkpoint failed: " << status.ToString() << "\n";
          return 1;
        }
      } else {
        VSJ_TRACE_SPAN(op_span, "stream.op.restore_ns");
        std::unique_ptr<vsj::StreamingEstimationService> restored;
        const vsj::IoStatus status = vsj::StreamingEstimationService::Restore(
            words[1], &restored, StreamOptions(args));
        if (!status.ok()) {
          std::cerr << "line " << line_number
                    << ": restore failed: " << status.ToString() << "\n";
          return 1;
        }
        service = std::move(restored);
      }
    } else {
      std::cerr << "line " << line_number << ": unknown op '" << op << "'\n";
      return 1;
    }
  }

  if (!args.save_snapshot_path.empty()) {
    const vsj::IoStatus status =
        service->Checkpoint(args.save_snapshot_path);
    if (!status.ok()) {
      std::cerr << "checkpoint failed: " << status.ToString() << "\n";
      return 1;
    }
    std::cerr << "snapshot saved to " << args.save_snapshot_path << "\n";
  }

  report.Print(std::cout);
  const vsj::EstimateCacheStats cache_stats = service->cache().stats();
  std::cout << "stream: " << mutations << " mutation(s), final epoch "
            << service->epoch() << ", " << service->num_live() << " live\n"
            << "cache: " << cache_stats.hits << " hit(s), "
            << cache_stats.misses << " miss(es), " << service->epoch()
            << " invalidation(s)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    PrintUsage();
    return 2;
  }
  ArmObservability(args);
  ObservabilityGuard observability(args);
  // Recorded after arming so the --metrics table reports the dispatch
  // level in effect (0 scalar, 2 avx2; VSJ_FORCE_SCALAR=1 pins 0).
  VSJ_GAUGE_SET("simd.active_level",
                static_cast<int64_t>(vsj::ActiveSimdLevel()));

  // Snapshot-restored stream mode carries its own dataset.
  if (!args.load_snapshot_path.empty()) {
    std::unique_ptr<vsj::StreamingEstimationService> restored;
    const vsj::IoStatus status = vsj::StreamingEstimationService::Restore(
        args.load_snapshot_path, &restored, StreamOptions(args));
    if (!status.ok()) {
      std::cerr << "failed to restore snapshot: " << status.ToString()
                << "\n";
      return 1;
    }
    std::cerr << "snapshot: " << restored->num_live() << " live at epoch "
              << restored->epoch() << "\n";
    return RunStreamMode(std::move(restored), args);
  }

  // --mmap serves the batch path zero-copy; the mapped storage must stay
  // alive for the lifetime of the service below.
  vsj::MappedCsrStorage mapped;
  vsj::VectorDataset dataset;
  if (args.use_mmap) {
    const vsj::IoStatus status =
        vsj::MappedCsrStorage::Open(args.dataset_path, &mapped);
    if (!status.ok()) {
      std::cerr << "failed to map dataset: " << status.ToString() << "\n";
      return 1;
    }
  } else if (!args.dataset_path.empty()) {
    const vsj::IoStatus status =
        vsj::LoadDatasetFromFile(args.dataset_path, &dataset);
    if (!status.ok()) {
      std::cerr << "failed to load dataset: " << status.ToString() << "\n";
      return 1;
    }
  } else if (args.synthetic == "dblp") {
    dataset = vsj::GenerateCorpus(vsj::DblpLikeConfig(args.n, args.seed));
  } else if (args.synthetic == "nyt") {
    dataset = vsj::GenerateCorpus(vsj::NytLikeConfig(args.n, args.seed));
  } else if (args.synthetic == "pubmed") {
    dataset = vsj::GenerateCorpus(vsj::PubmedLikeConfig(args.n, args.seed));
  } else {
    std::cerr << "unknown synthetic corpus: " << args.synthetic << "\n";
    return 2;
  }
  const vsj::DatasetView view =
      args.use_mmap ? vsj::DatasetView(mapped) : vsj::DatasetView(dataset);

  if (!args.save_dataset_path.empty()) {
    const vsj::IoStatus status =
        vsj::SaveDatasetToFile(view, args.save_dataset_path);
    if (!status.ok()) {
      std::cerr << "failed to save dataset: " << status.ToString() << "\n";
      return 1;
    }
    std::cerr << "dataset saved (VSJB v2) to " << args.save_dataset_path
              << "\n";
  }

  const vsj::DatasetStats stats = vsj::ComputeStats(view);
  std::cerr << "dataset: n = " << stats.num_vectors
            << ", avg features = " << stats.avg_features
            << (args.use_mmap ? " (mmap)" : "") << "\n";
  if (stats.num_vectors < 2) {
    std::cerr << "need at least two vectors\n";
    return 1;
  }

  if (!args.stream_ops_path.empty()) {
    auto service = std::make_unique<vsj::StreamingEstimationService>(
        std::move(dataset), StreamOptions(args));
    return RunStreamMode(std::move(service), args);
  }

  vsj::EstimationServiceOptions options;
  SetEngineOptions(args, &options);
  // The owning flavor consumes the loaded dataset; --mmap serves the
  // estimators straight from the mapped file pages.
  auto service_ptr =
      args.use_mmap
          ? std::make_unique<vsj::EstimationService>(view, options)
          : std::make_unique<vsj::EstimationService>(std::move(dataset),
                                                     options);
  vsj::EstimationService& service = *service_ptr;
  std::cerr << "index: " << args.tables << " table(s), k = " << args.k
            << ", built in " << vsj::TablePrinter::Fmt(
                   service.index_build_seconds() * 1e3, 1)
            << " ms with " << args.threads << " thread(s)\n";

  std::vector<vsj::EstimateRequest> batch;
  for (double tau : args.taus) batch.push_back(RequestAt(args, tau));

  std::ofstream json_out;
  if (!args.json_path.empty()) {
    json_out.open(args.json_path, std::ios::trunc);
    if (!json_out) {
      std::cerr << "failed to open --json file " << args.json_path << "\n";
      return 1;
    }
  }

  vsj::TablePrinter report("estimates (" + args.estimator + ", " +
                           std::to_string(args.trials) + " trial(s) each)");
  report.SetHeader({"pass", "tau", "estimate", "std error", "interval",
                    "pairs eval", "unguaranteed", "cached"});
  for (size_t pass = 0; pass < args.repeat; ++pass) {
    vsj::Timer timer;
    const std::vector<vsj::EstimateResponse> responses =
        service.EstimateBatch(batch);
    const double batch_ms = timer.ElapsedMillis();
    for (const vsj::EstimateResponse& response : responses) {
      report.AddRow({std::to_string(pass + 1),
                     vsj::TablePrinter::Fmt(response.tau, 2),
                     vsj::TablePrinter::Fmt(response.mean_estimate, 1),
                     FmtStdError(response), FmtInterval(response),
                     std::to_string(response.pairs_evaluated),
                     std::to_string(response.num_unguaranteed),
                     response.from_cache ? "yes" : "no"});
      if (json_out.is_open()) {
        AppendResponseJson(json_out,
                           "\"pass\":" + std::to_string(pass + 1) + ",",
                           response);
      }
    }
    std::cerr << "pass " << pass + 1 << ": " << responses.size()
              << " estimate(s) in " << vsj::TablePrinter::Fmt(batch_ms, 1)
              << " ms\n";
  }
  report.Print(std::cout);

  const vsj::EstimateCacheStats cache_stats = service.cache().stats();
  std::cout << "cache: " << cache_stats.hits << " hit(s), "
            << cache_stats.misses << " miss(es), hit rate "
            << vsj::TablePrinter::Pct(cache_stats.HitRate()) << "\n";

  if (args.exact) {
    const vsj::GroundTruth truth(service.dataset(), service.options().measure,
                                 args.taus,
                                 static_cast<unsigned>(args.threads));
    for (double tau : args.taus) {
      std::cout << "exact(tau=" << tau << ") = " << truth.JoinSize(tau)
                << "\n";
    }
  }
  return 0;
}
