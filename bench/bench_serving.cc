// Loopback throughput of the network serving layer (src/vsj/net).
//
// Not a paper figure: this bench measures the serving stack end to end —
// epoll loop, length-prefixed JSON protocol, per-tenant queues and
// cross-connection batching — against an in-process
// vsj::net::Server on an ephemeral loopback port. The workload is the
// serving sweet spot the layer is built for: many connections issuing
// estimate RPCs against one churn-style streaming tenant with a small set
// of popular thresholds, so the sharded EstimateCache absorbs repeats and
// concurrent connections amortize into shared batches.
//
// For each connection count it runs a closed-loop pipelined load (every
// connection keeps `kPipeline` requests outstanding), reports estimates/s,
// client-observed p50/p99 latency and the server's mean cross-connection
// batch size, and cross-checks that two connections asking the same
// question get byte-identical payloads (the packing-independence
// contract of EstimateBatch).
//
// Scale knobs (see bench_common.h): VSJ_N (corpus size, default 4000),
// VSJ_K, VSJ_TRIALS (trials per request, default 3), VSJ_SEED; plus
// VSJ_REQS (requests per connection, default 400). `--json PATH` (or
// VSJ_BENCH_JSON) writes the headline rows as BENCH_serving.json.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "vsj/net/server.h"
#include "vsj/net/wire.h"
#include "vsj/obs/metrics.h"
#include "vsj/obs/obs.h"
#include "vsj/service/streaming_estimation_service.h"
#include "vsj/service/tenant_registry.h"
#include "vsj/util/timer.h"

namespace {

constexpr size_t kPipeline = 8;  // outstanding requests per connection

// The popular-threshold mix: mostly duplicates, so steady state is cache
// hits plus the occasional recompute.
const std::vector<double> kTaus = {0.5, 0.6, 0.7, 0.8};

uint64_t MonotonicNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

int DialLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

std::string EncodeEstimate(uint64_t id, double tau, size_t trials,
                           uint64_t seed) {
  char body[256];
  std::snprintf(body, sizeof(body),
                "{\"id\":%llu,\"op\":\"estimate\",\"tenant\":\"churn\","
                "\"estimator\":\"LSH-SS\",\"tau\":%.3f,\"trials\":%zu,"
                "\"seed\":%llu}",
                static_cast<unsigned long long>(id), tau, trials,
                static_cast<unsigned long long>(seed));
  std::string frame;
  vsj::net::AppendFrame(&frame, body);
  return frame;
}

/// Sends every frame in `frames` over one blocking connection keeping
/// `pipeline` outstanding, recording client-observed latency per request.
/// Returns false on any transport error or `"ok":false` response.
bool RunConnection(uint16_t port, const std::vector<std::string>& frames,
                   size_t pipeline, vsj::obs::Histogram* latency) {
  const int fd = DialLoopback(port);
  if (fd < 0) return false;
  vsj::net::FrameDecoder decoder(1u << 20);
  std::vector<uint64_t> sent_ns(frames.size(), 0);
  size_t next_send = 0;
  size_t received = 0;
  bool ok = true;
  char buf[64 * 1024];

  const auto send_one = [&]() -> bool {
    const std::string& f = frames[next_send];
    sent_ns[next_send] = MonotonicNs();
    ++next_send;
    for (size_t off = 0; off < f.size();) {
      const ssize_t n = ::write(fd, f.data() + off, f.size() - off);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  };

  for (size_t i = 0; i < pipeline && next_send < frames.size(); ++i) {
    if (!send_one()) ok = false;
  }
  while (ok && received < frames.size()) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      ok = false;
      break;
    }
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    std::string_view payload;
    vsj::net::FrameDecoder::Status status;
    while ((status = decoder.Next(&payload)) ==
           vsj::net::FrameDecoder::Status::kFrame) {
      // Responses come back in send order on a single connection (one
      // tenant, FIFO queue), so the send timestamp is just `received`.
      if (payload.find("\"ok\":true") == std::string_view::npos) ok = false;
      latency->Record(MonotonicNs() - sent_ns[received]);
      ++received;
      if (next_send < frames.size() && !send_one()) ok = false;
    }
    if (status == vsj::net::FrameDecoder::Status::kTooLarge) ok = false;
  }
  ::close(fd);
  return ok && received == frames.size();
}

/// One request/response over a fresh connection; returns the raw payload.
std::string AskOnce(uint16_t port, const std::string& frame) {
  const int fd = DialLoopback(port);
  if (fd < 0) return {};
  for (size_t off = 0; off < frame.size();) {
    const ssize_t n = ::write(fd, frame.data() + off, frame.size() - off);
    if (n <= 0) {
      ::close(fd);
      return {};
    }
    off += static_cast<size_t>(n);
  }
  vsj::net::FrameDecoder decoder(1u << 20);
  char buf[8192];
  std::string result;
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    std::string_view payload;
    if (decoder.Next(&payload) == vsj::net::FrameDecoder::Status::kFrame) {
      result.assign(payload);
      break;
    }
  }
  ::close(fd);
  return result;
}

size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<size_t>(std::strtoull(v, nullptr, 10));
}

}  // namespace

int main(int argc, char** argv) {
  const vsj::bench::Scale scale = vsj::bench::LoadScale(4000, 20, 3);
  const size_t reqs_per_conn = EnvSize("VSJ_REQS", 400);
  std::cout << "serving bench: n = " << scale.n << ", k = " << scale.k
            << ", " << scale.trials << " trial(s)/request, "
            << reqs_per_conn << " requests/connection, pipeline "
            << kPipeline << "\n\n";
  vsj::bench::BenchJson json(argc, argv, "bench_serving");
  vsj::obs::EnableMetrics(true);

  // Build the churn tenant: a streaming engine with every vector live,
  // checkpointed into a throwaway snapshot root the registry serves from.
  char root_template[] = "/tmp/vsj_bench_serving_XXXXXX";
  const char* root = ::mkdtemp(root_template);
  if (root == nullptr) {
    std::cerr << "mkdtemp failed\n";
    return 1;
  }
  {
    vsj::StreamingEstimationServiceOptions streaming_options;
    streaming_options.k = scale.k;
    streaming_options.family_seed = scale.seed ^ 0x5eedULL;
    vsj::StreamingEstimationService engine(
        vsj::GenerateCorpus(vsj::DblpLikeConfig(scale.n, scale.seed)),
        streaming_options);
    for (size_t id = 0; id < scale.n; ++id) {
      engine.Insert(static_cast<vsj::VectorId>(id));
    }
    const vsj::IoStatus status =
        engine.Checkpoint(std::string(root) + "/churn.vsjs");
    if (!status.ok()) {
      std::cerr << "checkpoint failed: " << status.ToString() << "\n";
      return 1;
    }
  }

  vsj::TenantRegistryOptions registry_options;
  registry_options.root = root;
  registry_options.streaming_options.num_threads = 2;
  vsj::TenantRegistry registry(registry_options);

  vsj::net::ServerOptions server_options;
  server_options.port = 0;
  server_options.num_workers = 2;
  server_options.max_batch = 64;
  server_options.registry = &registry;
  vsj::net::Server server(server_options);
  const vsj::IoStatus status = server.Start();
  if (!status.ok()) {
    std::cerr << "server start failed: " << status.ToString() << "\n";
    return 1;
  }

  // Packing-independence spot check: the same question on two fresh
  // connections (different batch packings, by construction) must yield
  // byte-identical payloads, modulo the from_cache marker (the second ask
  // is a cache hit by design).
  const auto strip_cache_marker = [](std::string payload) {
    const size_t pos = payload.find(",\"from_cache\":");
    if (pos != std::string::npos) {
      payload.erase(pos, payload.find_first_of(",}", pos + 1) - pos);
    }
    return payload;
  };
  const std::string probe = EncodeEstimate(1, kTaus[0], scale.trials,
                                           scale.seed);
  const std::string first = strip_cache_marker(AskOnce(server.port(), probe));
  const std::string second =
      strip_cache_marker(AskOnce(server.port(), probe));
  if (first.empty() || first != second) {
    std::cerr << "DETERMINISM VIOLATION: repeated request differed\n"
              << "  first:  " << first << "\n  second: " << second << "\n";
    return 1;
  }

  vsj::TablePrinter report(
      "loopback serving throughput (churn tenant, LSH-SS)");
  report.SetHeader({"conns", "requests", "elapsed ms", "estimates/s",
                    "p50 us", "p99 us", "batch mean"});

  bool failed = false;
  for (const size_t conns : {size_t{1}, size_t{8}, size_t{64}}) {
    // Per-connection request streams; ids only matter per connection.
    std::vector<std::vector<std::string>> frames(conns);
    for (size_t c = 0; c < conns; ++c) {
      frames[c].reserve(reqs_per_conn);
      for (size_t i = 0; i < reqs_per_conn; ++i) {
        frames[c].push_back(EncodeEstimate(
            i, kTaus[(c + i) % kTaus.size()], scale.trials, scale.seed));
      }
    }

    auto& batch_hist =
        vsj::obs::MetricRegistry::Global().GetHistogram("server.batch_size");
    batch_hist.Reset();
    auto latency = std::make_unique<vsj::obs::Histogram>();
    std::atomic<size_t> errors{0};

    vsj::Timer timer;
    std::vector<std::thread> threads;
    threads.reserve(conns);
    for (size_t c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        if (!RunConnection(server.port(), frames[c], kPipeline,
                           latency.get())) {
          errors.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
    const double elapsed = timer.ElapsedSeconds();

    if (errors.load() != 0) {
      std::cerr << errors.load() << " connection(s) failed at " << conns
                << " conns\n";
      failed = true;
      continue;
    }

    const size_t total = conns * reqs_per_conn;
    const double rate = static_cast<double>(total) / elapsed;
    const vsj::obs::HistogramSnapshot lat = latency->Snapshot();
    const double p50_us =
        static_cast<double>(lat.ValueAtPercentile(50)) / 1e3;
    const double p99_us =
        static_cast<double>(lat.ValueAtPercentile(99)) / 1e3;
    const double batch_mean = batch_hist.Snapshot().Mean();

    report.AddRow({std::to_string(conns), std::to_string(total),
                   vsj::TablePrinter::Fmt(elapsed * 1e3, 1),
                   vsj::TablePrinter::Fmt(rate, 0),
                   vsj::TablePrinter::Fmt(p50_us, 1),
                   vsj::TablePrinter::Fmt(p99_us, 1),
                   vsj::TablePrinter::Fmt(batch_mean, 2)});

    const std::string suffix = "_conn" + std::to_string(conns);
    json.Add("estimates_per_sec" + suffix, "estimates_per_sec", rate, total);
    json.Add("latency_p50_us" + suffix, "us", p50_us, total);
    json.Add("latency_p99_us" + suffix, "us", p99_us, total);
    json.Add("batch_size_mean" + suffix, "requests", batch_mean, total);
  }
  report.Print(std::cout);
  std::cout << "\nrepeated requests returned byte-identical payloads\n";

  server.BeginDrain();
  server.WaitUntilStopped();
  // Throwaway snapshot root; remove what this bench created.
  ::remove((std::string(root) + "/churn.vsjs").c_str());
  ::rmdir(root);

  json.AddMetricsSnapshot();
  if (!json.Write()) return 1;
  return failed ? 1 : 0;
}
