// vsjoin_server: the network serving daemon.
//
//   vsjoin_server --root snapshots/ [--port 7077] [--workers 2]
//                 [--max-resident 8] [--max-inflight 1024]
//                 [--default-timeout-ms 0] [--max-batch 64]
//                 [--max-pairs-per-request 67108864]
//                 [--k 20] [--tables 1] [--threads 1] [--seed 1]
//                 [--port-file PATH]
//                 [--metrics] [--metrics-json PATH]
//                 [--stats-interval MS] [--stats-json PATH]
//
// Serves every snapshot under --root as a tenant: <name>.vsjs restores a
// mutable streaming engine, <name>.vsjb mmaps a static dataset behind an
// EstimationService (see vsj/service/tenant_registry.h). Tenants open
// lazily on first request and at most --max-resident stay open (LRU, with
// dirty streaming tenants checkpointed back on eviction).
//
// --max-pairs-per-request bounds an estimate's predicted work before it is
// admitted: trials × (m_H + m_L) pair draws, with the request's
// sample_size_h / sample_size_l overrides folded in and unset budgets
// resolved from the tenant's vector count n (m_H = m_L = n), times ℓ for
// LSH-SS(median), which samples every table; Bifocal is bounded by its own
// s · (m₁ + m₂) draws per trial, s = ⌈√(n log₂ n)⌉. A request above the
// limit gets a bad_request naming both numbers. The default,
// 2^26, admits the paper's budgets at n = 10^6 with 32 trials.
//
// The wire protocol is length-prefixed JSON (vsj/net/protocol.h); the
// paired load generator / request client is vsjoin_client. --k/--tables/
// --threads/--seed configure the engines of *static* tenants (streaming
// snapshots carry their own index recipe); the LSH family seed derives as
// seed ^ 0x5eed, matching vsjoin_estimate, so a static tenant served here
// answers bit-identically to `vsjoin_estimate --dataset <name>.vsjb
// --mmap --seed <seed> ...` with the same parameters.
//
// SIGTERM / SIGINT begin a graceful drain: no new connections or
// requests, everything admitted finishes and flushes, then the process
// writes dirty tenants back and exits. --port-file publishes the bound
// port (useful with --port 0) for scripts; --stats-interval prints the
// live per-tenant profiling table (requests, latency, batch size, queue
// depth) to stderr every MS milliseconds, and --stats-json appends one
// JSON line per tick.

#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "vsj/fault/fault.h"
#include "vsj/net/server.h"
#include "vsj/obs/obs.h"
#include "vsj/obs/stat_reporter.h"
#include "vsj/service/tenant_registry.h"
#include "vsj/util/flags.h"

namespace {

struct Args {
  std::string root;
  uint16_t port = 7077;
  std::string port_file;
  size_t workers = 2;
  size_t max_resident = 8;
  size_t max_inflight = 1024;
  size_t max_batch = 64;
  uint64_t default_timeout_ms = 0;
  uint32_t max_frame_bytes = 1u << 20;
  uint64_t max_pairs_per_request = uint64_t{1} << 26;

  // Static-tenant engine knobs (streaming snapshots carry their own).
  uint32_t k = 20;
  uint32_t tables = 1;
  size_t threads = 1;
  uint64_t seed = 1;

  bool metrics = false;
  std::string metrics_json_path;
  int stats_interval_ms = 0;
  std::string stats_json_path;
};

void Usage() {
  std::cerr
      << "usage: vsjoin_server --root DIR [--port N] [--port-file PATH]\n"
         "                     [--workers N] [--max-resident N]\n"
         "                     [--max-inflight N] [--max-batch N]\n"
         "                     [--default-timeout-ms N]\n"
         "                     [--max-pairs-per-request N]\n"
         "                     [--max-frame-bytes N]\n"
         "                     [--k N] [--tables N] [--threads N] "
         "[--seed N]\n"
         "                     [--metrics] [--metrics-json PATH]\n"
         "                     [--stats-interval MS] [--stats-json PATH]\n"
         "  --max-pairs-per-request N  refuse an estimate whose trials x "
         "(m_H + m_L)\n"
         "                             exceeds N pair draws (default "
         "67108864 = 2^26)\n";
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // An unsigned value in [min, max]; a rejection names flag and token.
    uint64_t u = 0;
    const auto next_u64 = [&](uint64_t min, uint64_t max = UINT64_MAX) {
      return vsj::ParseFlagU64(flag.c_str(), next(), &u, min, max);
    };
    if (flag == "--root") {
      const char* v = next();
      if (v == nullptr) return false;
      args->root = v;
    } else if (flag == "--port") {
      if (!next_u64(0, 65535)) return false;
      args->port = static_cast<uint16_t>(u);
    } else if (flag == "--port-file") {
      const char* v = next();
      if (v == nullptr) return false;
      args->port_file = v;
    } else if (flag == "--workers") {
      if (!next_u64(1)) return false;
      args->workers = u;
    } else if (flag == "--max-resident") {
      if (!next_u64(0)) return false;
      args->max_resident = u;
    } else if (flag == "--max-inflight") {
      if (!next_u64(1)) return false;
      args->max_inflight = u;
    } else if (flag == "--max-batch") {
      if (!next_u64(1)) return false;
      args->max_batch = u;
    } else if (flag == "--default-timeout-ms") {
      if (!next_u64(0)) return false;
      args->default_timeout_ms = u;
    } else if (flag == "--max-frame-bytes") {
      if (!next_u64(1, UINT32_MAX)) return false;
      args->max_frame_bytes = static_cast<uint32_t>(u);
    } else if (flag == "--max-pairs-per-request") {
      if (!next_u64(1)) return false;
      args->max_pairs_per_request = u;
    } else if (flag == "--k") {
      if (!next_u64(1, vsj::kMaxHashFunctions)) return false;
      args->k = static_cast<uint32_t>(u);
    } else if (flag == "--tables") {
      if (!next_u64(1, vsj::kMaxHashFunctions)) return false;
      args->tables = static_cast<uint32_t>(u);
    } else if (flag == "--threads") {
      if (!next_u64(1)) return false;
      args->threads = u;
    } else if (flag == "--seed") {
      if (!next_u64(0)) return false;
      args->seed = u;
    } else if (flag == "--metrics") {
      args->metrics = true;
    } else if (flag == "--metrics-json") {
      const char* v = next();
      if (v == nullptr) return false;
      args->metrics_json_path = v;
    } else if (flag == "--stats-interval") {
      if (!next_u64(1, INT_MAX)) return false;
      args->stats_interval_ms = static_cast<int>(u);
    } else if (flag == "--stats-json") {
      const char* v = next();
      if (v == nullptr) return false;
      args->stats_json_path = v;
    } else if (flag == "--help" || flag == "-h") {
      return false;
    } else {
      std::cerr << "unknown flag '" << flag << "'\n";
      return false;
    }
  }
  return !args->root.empty() &&
         vsj::CheckHashFunctionCount(args->k, args->tables,
                                     vsj::kMaxHashFunctions);
}

vsj::net::Server* g_server = nullptr;

// Only async-signal-safe work here: BeginDrain is an atomic store plus an
// eventfd write.
void HandleSignal(int) {
  if (g_server != nullptr) g_server->BeginDrain();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }

  const bool want_metrics = args.metrics || !args.metrics_json_path.empty() ||
                            args.stats_interval_ms > 0 ||
                            !args.stats_json_path.empty();
  if (want_metrics) vsj::obs::EnableMetrics(true);

  // Operators (and the crash drill) arm fault points via VSJ_FAULTS; a
  // server that will fail on purpose must say so in its log.
  if (vsj::fault::Enabled()) {
    const std::vector<std::string> points = vsj::fault::ArmedPoints();
    std::cerr << "vsjoin_server: fault injection armed at " << points.size()
              << " point(s):";
    for (const std::string& point : points) std::cerr << " " << point;
    std::cerr << "\n";
  }

  vsj::TenantRegistryOptions registry_options;
  registry_options.root = args.root;
  registry_options.max_resident = args.max_resident;
  registry_options.static_options.k = args.k;
  registry_options.static_options.num_tables = args.tables;
  registry_options.static_options.num_threads = args.threads;
  registry_options.static_options.family_seed = args.seed ^ 0x5eedULL;
  registry_options.streaming_options.num_threads = args.threads;
  registry_options.max_pairs_per_request = args.max_pairs_per_request;
  vsj::TenantRegistry registry(registry_options);
  if (registry.swept_tmp_files() > 0) {
    std::cerr << "vsjoin_server: swept " << registry.swept_tmp_files()
              << " orphaned tmp file(s) from " << args.root << "\n";
  }

  vsj::net::ServerOptions server_options;
  server_options.port = args.port;
  server_options.num_workers = args.workers;
  server_options.max_inflight = args.max_inflight;
  server_options.max_batch = args.max_batch;
  server_options.default_timeout_ms = args.default_timeout_ms;
  server_options.max_frame_bytes = args.max_frame_bytes;
  server_options.registry = &registry;
  vsj::net::Server server(server_options);

  const vsj::IoStatus status = server.Start();
  if (!status.ok()) {
    std::cerr << "vsjoin_server: " << status.ToString() << "\n";
    return 1;
  }
  if (!args.port_file.empty()) {
    std::ofstream out(args.port_file, std::ios::trunc);
    out << server.port() << "\n";
    if (!out) {
      std::cerr << "vsjoin_server: cannot write " << args.port_file << "\n";
      return 1;
    }
  }
  std::cerr << "vsjoin_server: serving " << args.root << " on port "
            << server.port() << " (" << args.workers << " workers, cap "
            << args.max_resident << " resident tenants)\n";

  g_server = &server;
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  // A peer vanishing mid-write must surface as a write error, not kill
  // the process.
  std::signal(SIGPIPE, SIG_IGN);

  std::unique_ptr<vsj::obs::StatReporter> reporter;
  if (args.stats_interval_ms > 0 || !args.stats_json_path.empty()) {
    vsj::obs::StatReporterOptions reporter_options;
    reporter_options.interval_ms =
        args.stats_interval_ms > 0 ? args.stats_interval_ms : 1000;
    reporter_options.out = args.stats_interval_ms > 0 ? &std::cerr : nullptr;
    reporter_options.jsonl_path = args.stats_json_path;
    reporter = std::make_unique<vsj::obs::StatReporter>(reporter_options);
  }

  server.WaitUntilStopped();
  g_server = nullptr;
  if (reporter != nullptr) reporter->Stop();

  // Mutations applied over the wire persist across restarts.
  const vsj::IoStatus flush = registry.Flush();
  if (!flush.ok()) {
    std::cerr << "vsjoin_server: write-back failed: " << flush.ToString()
              << "\n";
    return 1;
  }

  if (args.metrics) {
    vsj::obs::PrintMetricsTable(vsj::obs::MetricRegistry::Global().Snapshot(),
                                nullptr, std::cerr, "vsjoin_server");
  }
  if (!args.metrics_json_path.empty()) {
    std::string error;
    if (!vsj::obs::WriteMetricsJson(
            vsj::obs::MetricRegistry::Global().Snapshot(),
            args.metrics_json_path, &error)) {
      std::cerr << "vsjoin_server: " << error << "\n";
      return 1;
    }
  }
  std::cerr << "vsjoin_server: drained\n";
  return 0;
}
