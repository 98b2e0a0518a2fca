// layers: per-layer timings, in-process. Each metric times calls into one
// layer's public functions, replaying the workload's own generated
// requests against engines opened from the same snapshots the server
// serves. Nothing here runs inside the server; run.py adds the server-side
// counters (queue wait, batch size, stratum shares) from the traced
// server's metrics dump.
//
// A layer the workload does not touch reports 0 (e.g. lsh.insert_us on
// sweep_cold, whose only tenant is static). Streaming-tenant layers
// (context build, insert/remove) are timed whenever the workload serves
// that tenant.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "commands.h"
#include "vsj/core/estimator_registry.h"
#include "vsj/core/streaming_lsh_ss_estimator.h"
#include "vsj/net/json.h"
#include "vsj/net/protocol.h"
#include "vsj/net/wire.h"
#include "vsj/service/estimation_service.h"
#include "vsj/service/streaming_estimation_service.h"
#include "vsj/service/tenant_registry.h"
#include "vsj/vector/mapped_csr_storage.h"
#include "vsj/vector/pair_eval.h"
#include "workload.h"

namespace servebench {

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedSeconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Runs `body` (which returns its own measured value) at least `min_reps`
/// times and until `budget` seconds have passed, at most `max_reps` times;
/// returns the median value.
double Repeat(double budget, size_t min_reps, size_t max_reps,
              const std::function<double()>& body) {
  std::vector<double> values;
  const Clock::time_point start = Clock::now();
  while (values.size() < max_reps &&
         (values.size() < min_reps || ElapsedSeconds(start) < budget)) {
    values.push_back(body());
  }
  return Median(values);
}

/// Seconds one call of `fn` takes.
double Time(const std::function<void()>& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return ElapsedSeconds(start);
}

/// The workload's traffic for one tenant, as a flat request stream.
std::vector<vsj::EstimateRequest> TrafficFor(const Workload& workload,
                                             uint64_t seed,
                                             const std::string& tenant,
                                             size_t count) {
  std::vector<vsj::EstimateRequest> out;
  TrafficGen gen(workload, seed, 1);
  while (out.size() < count) {
    const Ask ask = gen.Next();
    if (ask.tenant == tenant) out.push_back(ask.request);
  }
  return out;
}

struct PairSample {
  std::vector<vsj::VectorId> firsts, seconds;
};

/// 64-pair batches: half same-bucket pairs, half uniform pairs, interleaved
/// per batch as SampleH and SampleL would see them.
double PairNs(vsj::DatasetView view, const std::vector<PairSample>& batches,
              double budget, double* span_mb) {
  std::vector<double> spans;
  for (const PairSample& batch : batches) {
    uintptr_t lo = UINTPTR_MAX, hi = 0;
    for (size_t i = 0; i < batch.firsts.size(); ++i) {
      for (vsj::VectorId id : {batch.firsts[i], batch.seconds[i]}) {
        const vsj::VectorRef ref = view[id];
        const uintptr_t begin = reinterpret_cast<uintptr_t>(ref.dims());
        lo = std::min(lo, begin);
        hi = std::max(hi, begin + ref.size() * sizeof(vsj::DimId));
      }
    }
    spans.push_back(static_cast<double>(hi - lo) / (1 << 20));
  }
  *span_mb = Median(spans);
  uint64_t sink = 0;
  const double ns = Repeat(budget, 5, 1000, [&] {
    const double seconds = Time([&] {
      for (const PairSample& batch : batches) {
        uint64_t mask = 0;
        sink += vsj::EvaluatePairBatch(vsj::SimilarityMeasure::kCosine, view,
                                       batch.firsts.data(), batch.seconds.data(),
                                       batch.firsts.size(), 0.5,
                                       vsj::kPairPrefetchDistance, &mask);
      }
    });
    return seconds * 1e9 / (batches.size() * vsj::kPairEvalBatch);
  });
  if (sink == UINT64_MAX) std::fprintf(stderr, "unreachable\n");
  return ns;
}

}  // namespace

int RunLayers(const Flags& flags) {
  Workload workload;
  Scale scale;
  if (!LookupWorkload(flags.Get("workload", ""), &workload) ||
      !LookupScale(flags.Get("scale", "full"), &scale)) {
    std::cerr << "layers: unknown --workload or --scale\n";
    return 2;
  }
  const uint64_t seed = flags.GetU64("seed", 1);
  const std::string root = flags.Get("root", "");
  const double budget = flags.GetDouble("budget", 1.0);
  const size_t batch_size = std::max<uint64_t>(1, flags.GetU64("batch-size", 1));
  EngineConfig engine;
  engine.threads = flags.GetU64("threads", engine.threads);
  const vsj::TenantRegistryOptions options = RegistryOptions(root, engine);
  const bool primary_static = workload.primary == kStaticTenant;
  const bool has_stream =
      std::find(workload.tenants.begin(), workload.tenants.end(),
                std::string(kStreamingTenant)) != workload.tenants.end();
  vsj::net::JsonValue out = vsj::net::JsonValue::Object();
  const auto put = [&](const char* name, double value) {
    out.Set(name, vsj::net::JsonValue::Number(value));
  };

  // io: cold Acquire of every tenant the workload touches (summed).
  double open_s = 0.0;
  for (const std::string& tenant : workload.tenants) {
    open_s += Repeat(0.0, 3, 3, [&] {
      vsj::TenantRegistry registry(options);
      std::shared_ptr<vsj::Tenant> handle;
      return Time([&] {
        if (!registry.Acquire(tenant, &handle).ok()) {
          std::cerr << "layers: cannot open tenant " << tenant << "\n";
          std::exit(1);
        }
      });
    });
  }
  put("io.open_s", open_s);

  // service: resident Acquire, and EstimateBatchShared on batches shaped
  // like the server's (its mean batch size, the workload's requests).
  vsj::TenantRegistry registry(options);
  std::shared_ptr<vsj::Tenant> tenant;
  if (!registry.Acquire(workload.primary, &tenant).ok()) return 1;
  put("service.acquire_us", 1e6 * Repeat(budget / 4, 200, 20000, [&] {
        std::shared_ptr<vsj::Tenant> again;
        return Time([&] { registry.Acquire(workload.primary, &again); });
      }));
  const std::vector<vsj::EstimateRequest> traffic =
      TrafficFor(workload, seed, workload.primary, batch_size * 64);
  if (workload.kind == WorkloadKind::kPointHot) {
    std::vector<vsj::EstimateRequest> warm;
    for (const Ask& ask : HotKeys()) {
      if (ask.tenant == workload.primary) warm.push_back(ask.request);
    }
    tenant->EstimateBatchShared(warm);
  }
  std::vector<vsj::EstimateResponse> responses;
  size_t next_batch = 0;
  put("service.batch_ms", 1e3 * Repeat(budget, 3, 64, [&] {
        const std::vector<vsj::EstimateRequest> batch(
            traffic.begin() + next_batch * batch_size,
            traffic.begin() + (next_batch + 1) * batch_size);
        ++next_batch;
        return Time([&] {
          const std::vector<vsj::EstimateResponse> answers =
              tenant->EstimateBatchShared(batch);
          responses.insert(responses.end(), answers.begin(), answers.end());
        });
      }));

  // net: decode of the workload's request frames, encode of the answers.
  std::vector<std::string> frames;
  {
    TrafficGen gen(workload, seed, 2);
    for (uint64_t id = 1; frames.size() < 512; ++id) {
      frames.push_back(EncodeEstimate(id, gen.Next()));
    }
  }
  size_t next_frame = 0;
  put("net.decode_us", 1e6 * Repeat(budget / 4, 512, 100000, [&] {
        const std::string& frame = frames[next_frame++ % frames.size()];
        return Time([&] {
          vsj::net::JsonValue doc;
          vsj::net::RpcRequest request;
          std::string error;
          if (!vsj::net::ParseJson(frame, &doc, &error) ||
              vsj::net::ParseRpcRequest(doc, &request, &error) !=
                  vsj::net::RpcError::kNone) {
            std::cerr << "layers: request frame rejected: " << error << "\n";
            std::exit(1);
          }
        });
      }));
  size_t next_response = 0;
  std::string wire;
  put("net.encode_us", 1e6 * Repeat(budget / 4, 512, 100000, [&] {
        const vsj::EstimateResponse& response =
            responses[next_response++ % responses.size()];
        wire.clear();
        return Time([&] {
          vsj::net::AppendFrame(&wire,
                                vsj::net::MakeEstimatePayload(next_response, response));
        });
      }));

  // core + vector + lsh on the primary tenant's engine, opened directly.
  const std::vector<double> taus = SweepThresholds();
  vsj::Rng rng(seed ^ 0x1a7e55ULL);
  std::vector<PairSample> pair_batches(64);
  double trial_ms = 0.0, pairs_per_trial = 0.0, build_s = 0.0;
  double context_ms = 0.0, insert_us = 0.0, remove_us = 0.0;
  double pair_ns = 0.0, span_mb = 0.0;
  if (primary_static) {
    vsj::MappedCsrStorage storage;
    if (!vsj::MappedCsrStorage::Open(root + "/" + kStaticTenant + ".vsjb", &storage)
             .ok()) {
      return 1;
    }
    vsj::EstimationService service(vsj::DatasetView(storage),
                                   options.static_options);
    build_s = service.index_build_seconds();
    vsj::EstimatorContext context;
    context.dataset = service.dataset();
    context.index = &service.index();
    const std::unique_ptr<vsj::JoinSizeEstimator> estimator =
        vsj::CreateEstimator("LSH-SS", context);
    uint64_t pairs = 0, trials = 0;
    trial_ms = 1e3 * Repeat(budget, 9, 400, [&] {
      vsj::Rng trial_rng = rng.Fork(trials);
      const double tau = taus[trials++ % taus.size()];
      return Time([&] { pairs += estimator->Estimate(tau, trial_rng).pairs_evaluated; });
    });
    pairs_per_trial = static_cast<double>(pairs) / trials;
    const vsj::LshTable& table = service.index().table(0);
    const size_t n = service.dataset().size();
    for (PairSample& batch : pair_batches) {
      for (uint64_t i = 0; i < vsj::kPairEvalBatch; ++i) {
        vsj::VectorPair pair;
        if (i % 2 == 0 && table.NumSameBucketPairs() > 0) {
          pair = table.SampleSameBucketPair(rng);
        } else {
          pair.first = static_cast<vsj::VectorId>(rng.Below(n));
          do {
            pair.second = static_cast<vsj::VectorId>(rng.Below(n));
          } while (pair.second == pair.first);
        }
        batch.firsts.push_back(pair.first);
        batch.seconds.push_back(pair.second);
      }
    }
    pair_ns = PairNs(service.dataset(), pair_batches, budget / 2, &span_mb);
  } else {
    std::unique_ptr<vsj::StreamingEstimationService> service;
    build_s = Time([&] {
      if (!vsj::StreamingEstimationService::Restore(
               root + "/" + kStreamingTenant + ".vsjs", &service,
               options.streaming_options)
               .ok()) {
        std::cerr << "layers: cannot restore the streaming tenant\n";
        std::exit(1);
      }
    });
    const vsj::DatasetView view = service->dataset();
    vsj::StreamingSampleContext context;
    context_ms = 1e3 * Repeat(budget / 2, 5, 200, [&] {
      return Time([&] { context.Build(service->index(), view.size()); });
    });
    const vsj::StreamingLshSsEstimator estimator(
        view, service->index(), service->options().measure,
        service->options().lsh_ss);
    uint64_t pairs = 0, trials = 0;
    trial_ms = 1e3 * Repeat(budget, 9, 400, [&] {
      vsj::Rng trial_rng = rng.Fork(trials);
      const double tau = taus[trials++ % taus.size()];
      return Time([&] {
        pairs += estimator.EstimateWithTable(tau, 0, trial_rng, &context)
                     .pairs_evaluated;
      });
    });
    pairs_per_trial = static_cast<double>(pairs) / trials;
    // Same-bucket pairs: live ids grouped by their table-0 bucket.
    const std::vector<vsj::VectorId>& live = service->index().live_ids();
    std::vector<vsj::VectorId> by_bucket = live;
    const std::vector<uint32_t>& bucket_of = context.bucket_of[0];
    std::sort(by_bucket.begin(), by_bucket.end(), [&](vsj::VectorId a, vsj::VectorId b) {
      return bucket_of[a] != bucket_of[b] ? bucket_of[a] < bucket_of[b] : a < b;
    });
    std::vector<std::pair<vsj::VectorId, vsj::VectorId>> same;
    for (size_t i = 1; i < by_bucket.size(); ++i) {
      if (bucket_of[by_bucket[i]] == bucket_of[by_bucket[i - 1]]) {
        same.emplace_back(by_bucket[i - 1], by_bucket[i]);
      }
    }
    for (PairSample& batch : pair_batches) {
      for (uint64_t i = 0; i < vsj::kPairEvalBatch; ++i) {
        vsj::VectorId a = 0, b = 0;
        if (i % 2 == 0 && !same.empty()) {
          std::tie(a, b) = same[rng.Below(same.size())];
        } else {
          a = live[rng.Below(live.size())];
          do {
            b = live[rng.Below(live.size())];
          } while (b == a);
        }
        batch.firsts.push_back(a);
        batch.seconds.push_back(b);
      }
    }
    pair_ns = PairNs(view, pair_batches, budget / 2, &span_mb);
  }
  if (has_stream && primary_static) {
    // The streaming tenant is secondary here; its context build still
    // runs on every batch it serves.
    std::unique_ptr<vsj::StreamingEstimationService> service;
    if (!vsj::StreamingEstimationService::Restore(
             root + "/" + kStreamingTenant + ".vsjs", &service,
             options.streaming_options)
             .ok()) {
      return 1;
    }
    vsj::StreamingSampleContext context;
    context_ms = 1e3 * Repeat(budget / 2, 5, 200, [&] {
      return Time([&] { context.Build(service->index(), service->dataset().size()); });
    });
  }
  if (has_stream) {
    // The writer's op stream, replayed through the tenant API.
    std::shared_ptr<vsj::Tenant> stream;
    if (!registry.Acquire(kStreamingTenant, &stream).ok()) return 1;
    std::vector<double> inserts, removes;
    const Clock::time_point start = Clock::now();
    for (uint64_t i = 0; i < 20000 && (i < 200 || ElapsedSeconds(start) < budget);
         ++i) {
      const WriterOp op = WriterOpAt(scale, i);
      bool ok = false;
      const double seconds = Time([&] {
        ok = (op.insert ? stream->Insert(op.id) : stream->Remove(op.id)).ok();
      });
      if (!ok) {
        std::cerr << "layers: writer op " << i << " refused\n";
        return 1;
      }
      (op.insert ? inserts : removes).push_back(seconds * 1e6);
    }
    insert_us = Median(inserts);
    remove_us = Median(removes);
  }
  put("core.trial_ms", trial_ms);
  put("core.pairs_per_trial", pairs_per_trial);
  put("vector.pair_ns", pair_ns);
  put("vector.batch_span_mb", span_mb);
  put("service.context_build_ms", context_ms);
  put("lsh.index_build_s", build_s);
  put("lsh.insert_us", insert_us);
  put("lsh.remove_us", remove_us);
  std::printf("%s\n", out.Serialize().c_str());
  return 0;
}

}  // namespace servebench
