#include "workload.h"

#include "vsj/net/json.h"

namespace servebench {

namespace {

// Wire seeds travel as JSON numbers, so every seed stays below 2^53.
// Traffic seeds: run seed (19 bits) | connection (4 bits) | counter (28
// bits), plus one; fixed seeds (verification, hot keys) sit at 2^52 and
// above, out of the traffic range.
constexpr uint64_t kFixedSeedBase = uint64_t{1} << 52;

uint64_t TrafficSeedBase(uint64_t run_seed, size_t connection) {
  return ((run_seed & ((uint64_t{1} << 19) - 1)) << 32) |
         (static_cast<uint64_t>(connection & 15) << 28);
}

constexpr double kHotStaticShare = 0.7;

}  // namespace

std::vector<double> SweepThresholds() {
  return {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
}

bool LookupScale(const std::string& name, Scale* scale) {
  if (name == "full") {
    *scale = Scale{"full", 4000, 8000, 4000, 500};
  } else if (name == "tiny") {
    *scale = Scale{"tiny", 400, 600, 300, 40};
  } else {
    return false;
  }
  return true;
}

vsj::TenantRegistryOptions RegistryOptions(const std::string& root,
                                           const EngineConfig& engine) {
  vsj::TenantRegistryOptions options;
  options.root = root;
  options.max_resident = 8;
  options.static_options.k = engine.k;
  options.static_options.num_tables = engine.tables;
  options.static_options.num_threads = engine.threads;
  options.static_options.family_seed = engine.seed ^ 0x5eedULL;
  options.streaming_options.num_threads = engine.threads;
  return options;
}

bool LookupWorkload(const std::string& name, Workload* workload) {
  Workload w;
  w.name = name;
  if (name == "sweep_cold") {
    w.kind = WorkloadKind::kSweepCold;
    w.tenants = {kStaticTenant};
    w.primary = kStaticTenant;
    w.connections = 4;
    w.pipeline = SweepThresholds().size();
    // The four sessions start together, so every round hands the server
    // the same 36 asks at once. Left to drift, the connections' sessions
    // met the server in ever-changing groups, and over five seeds
    // estimates_per_s and p50 spread 0.07 and 0.05, against 0.04 and 0.03
    // in rounds. A round takes about 0.4 s, so the sub-millisecond gap
    // between rounds costs nothing.
    w.rounds = 1;
  } else if (name == "point_hot") {
    w.kind = WorkloadKind::kPointHot;
    w.tenants = {kStaticTenant, kStreamingTenant};
    w.primary = kStaticTenant;
    w.connections = 4;
    w.pipeline = 2048;
    // Connections paging independently drifted into and out of step, and
    // p50 flipped between two levels 40% apart from one second to the next.
    // Rounds keep all four in step. With two in flight the next round is
    // queued before the server runs dry, so its threads do not sleep and
    // wake between rounds; on a shared VM each wake can wait for the host.
    // Host stalls of 10 ms and more still come, and they moved p99 by up
    // to 0.5 over four seeds with rounds of 512 asks; rounds of 8192 make
    // a latency of about 100 ms, which such a stall moves little.
    w.rounds = 2;
  } else if (name == "churn_mixed") {
    w.kind = WorkloadKind::kChurnMixed;
    w.tenants = {kStreamingTenant};
    w.primary = kStreamingTenant;
    w.connections = 4;  // one writer + three readers
    w.pipeline = 1;
    // Ingest arrives at a fixed rate. A closed-loop writer competed with
    // the readers for the tenant FIFO, and the split it settled on moved
    // from run to run (spread 0.23-0.28 on a shared host).
    w.writer_rate = 500.0;
  } else {
    return false;
  }
  *workload = w;
  return true;
}

TrafficGen::TrafficGen(const Workload& workload, uint64_t run_seed,
                       size_t connection)
    : workload_(&workload),
      rng_(vsj::Rng(run_seed ^ 0x7a11c0deULL).Fork(connection)),
      seed_base_(TrafficSeedBase(run_seed, connection)) {}

Ask TrafficGen::Next() {
  const std::vector<double> taus = SweepThresholds();
  Ask ask;
  ask.request.estimator_name = "LSH-SS";
  ask.request.trials = kTrials;
  switch (workload_->kind) {
    case WorkloadKind::kSweepCold: {
      const uint64_t position = counter_ % taus.size();
      if (position == 0) session_seed_ = seed_base_ + counter_ / taus.size() + 1;
      ask.tenant = kStaticTenant;
      ask.request.tau = taus[position];
      ask.request.seed = session_seed_;
      break;
    }
    case WorkloadKind::kPointHot: {
      static const std::vector<Ask> keys = HotKeys();
      size_t num_static = 0;
      while (num_static < keys.size() && keys[num_static].tenant == kStaticTenant) {
        ++num_static;
      }
      const bool pick_static = rng_.NextDouble() < kHotStaticShare;
      const size_t index =
          pick_static ? rng_.Below(num_static)
                      : num_static + rng_.Below(keys.size() - num_static);
      ask = keys[index];
      break;
    }
    case WorkloadKind::kChurnMixed:
      ask.tenant = kStreamingTenant;
      ask.request.tau = taus[rng_.Below(taus.size())];
      ask.request.seed = seed_base_ + counter_ + 1;
      break;
  }
  ++counter_;
  return ask;
}

std::vector<Ask> HotKeys() {
  // Static tenant first (TrafficGen relies on the order): 9 τ × 2 seeds
  // there, 9 τ × 1 seed on the streaming tenant — 27 keys in all.
  std::vector<Ask> keys;
  uint64_t next_seed = kFixedSeedBase + 1000;
  for (const char* tenant : {kStaticTenant, kStreamingTenant}) {
    const int seeds = tenant == kStaticTenant ? 2 : 1;
    for (int s = 0; s < seeds; ++s, ++next_seed) {
      for (double tau : SweepThresholds()) {
        Ask ask;
        ask.tenant = tenant;
        ask.request.estimator_name = "LSH-SS";
        ask.request.tau = tau;
        ask.request.trials = kTrials;
        ask.request.seed = next_seed;
        keys.push_back(ask);
      }
    }
  }
  return keys;
}

WriterOp WriterOpAt(const Scale& scale, uint64_t index) {
  const uint64_t slide = scale.dblp_history + index / 2;
  WriterOp op;
  op.insert = (index % 2) == 1;
  op.id = static_cast<vsj::VectorId>(
      (op.insert ? slide + scale.dblp_live : slide) % scale.dblp_n);
  return op;
}

std::vector<vsj::EstimateRequest> VerifySweep() {
  std::vector<vsj::EstimateRequest> sweep;
  for (double tau : SweepThresholds()) {
    vsj::EstimateRequest request;
    request.estimator_name = "LSH-SS";
    request.tau = tau;
    request.trials = kVerifyTrials;
    request.seed = kFixedSeedBase + 7;
    sweep.push_back(request);
  }
  return sweep;
}

std::string EncodeEstimate(uint64_t id, const Ask& ask) {
  std::string out = "{\"id\":";
  vsj::net::JsonValue::AppendNumber(&out, static_cast<double>(id));
  out += ",\"op\":\"estimate\",\"tenant\":";
  vsj::net::JsonValue::AppendQuoted(&out, ask.tenant);
  out += ",\"estimator\":";
  vsj::net::JsonValue::AppendQuoted(&out, ask.request.estimator_name);
  out += ",\"tau\":";
  vsj::net::JsonValue::AppendNumber(&out, ask.request.tau);
  out += ",\"trials\":";
  vsj::net::JsonValue::AppendNumber(&out,
                                    static_cast<double>(ask.request.trials));
  out += ",\"seed\":";
  vsj::net::JsonValue::AppendNumber(&out,
                                    static_cast<double>(ask.request.seed));
  out += "}";
  return out;
}

std::string EncodeWriterOp(uint64_t id, const WriterOp& op) {
  std::string out = "{\"id\":";
  vsj::net::JsonValue::AppendNumber(&out, static_cast<double>(id));
  out += op.insert ? ",\"op\":\"insert\"" : ",\"op\":\"remove\"";
  out += ",\"tenant\":";
  vsj::net::JsonValue::AppendQuoted(&out, kStreamingTenant);
  out += ",\"vector_id\":";
  vsj::net::JsonValue::AppendNumber(&out, static_cast<double>(op.id));
  out += "}";
  return out;
}

std::string StripVolatileFields(const std::string& payload) {
  std::string out = payload;
  const size_t ok = out.find("\"ok\":");
  if (out.rfind("{\"id\":", 0) == 0 && ok != std::string::npos) {
    out.erase(1, ok - 1);
  }
  const std::string cache_field = ",\"from_cache\":";
  const size_t cache = out.find(cache_field);
  if (cache != std::string::npos) {
    size_t end = cache + cache_field.size();
    while (end < out.size() && out[end] != ',' && out[end] != '}') ++end;
    out.erase(cache, end - cache);
  }
  return out;
}

}  // namespace servebench
