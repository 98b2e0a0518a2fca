// Workload definitions shared by every servebench subcommand.
//
// A workload is a traffic mix over one or two tenants. The relations (the
// tenants' corpora and the streaming tenant's starting live set) are fixed
// per scale, so exact ground truth is computed once and cached; the run
// seed drives only the traffic: estimate seeds, threshold picks and which
// hot key is asked next. Every generator here is a pure function of its
// arguments, so the load generator and the in-process layer timer replay
// the same requests.

#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "vsj/service/estimate_request.h"
#include "vsj/service/tenant_registry.h"
#include "vsj/util/rng.h"

namespace servebench {

/// Tenant names as they appear under the snapshot root.
inline constexpr const char* kStaticTenant = "nyt";     // nyt.vsjb
inline constexpr const char* kStreamingTenant = "dblp";  // dblp.vsjs

/// The τ grid of a plan-costing sweep: 0.1 … 0.9.
std::vector<double> SweepThresholds();

/// Trials per request of the fixed-seed verification sweep behind
/// rel_error.
inline constexpr size_t kVerifyTrials = 4;
/// Trials per timed estimate request.
inline constexpr size_t kTrials = 2;

/// Corpus sizes and traffic shape; "full" is the benchmark, "tiny" the
/// self-test.
struct Scale {
  std::string name;
  size_t nyt_n = 0;         ///< static NYT-like tenant size
  size_t dblp_n = 0;        ///< streaming DBLP-like universe (id space)
  size_t dblp_live = 0;     ///< live window size (half the universe)
  size_t dblp_history = 0;  ///< window slides applied before checkpoint
};

/// "full" or "tiny"; false on an unknown name.
bool LookupScale(const std::string& name, Scale* scale);

/// The server's engine configuration, shared with the in-process reference
/// so both answer bit-identically (vsjoin_server --k/--tables/--seed/
/// --threads; the family seed derives as seed ^ 0x5eed there too).
struct EngineConfig {
  uint32_t k = 20;
  uint32_t tables = 1;
  uint64_t seed = 1;
  size_t threads = 4;
};
vsj::TenantRegistryOptions RegistryOptions(const std::string& root,
                                           const EngineConfig& engine);

enum class WorkloadKind { kSweepCold, kPointHot, kChurnMixed };

/// Traffic shape of one workload.
struct Workload {
  WorkloadKind kind = WorkloadKind::kSweepCold;
  std::string name;
  std::vector<std::string> tenants;  ///< tenants the workload touches
  std::string primary;               ///< tenant the layer timer profiles
  size_t connections = 4;            ///< total, writer included
  /// Requests per reader: its page in a round, or else its pipeline.
  size_t pipeline = 1;
  /// When > 0, every reader sends a page of `pipeline` requests (a sweep
  /// session, a dashboard refresh) at the same moment as the others (a
  /// round), and a new round starts once the oldest of `rounds` in flight
  /// is wholly answered. When 0, each reader refills its pipeline as
  /// answers arrive.
  size_t rounds = 0;
  /// churn_mixed: the writer is open-loop at this many ops per second
  /// (0 = no writer connection).
  double writer_rate = 0.0;
};

/// "sweep_cold", "point_hot" or "churn_mixed"; false otherwise.
bool LookupWorkload(const std::string& name, Workload* workload);

/// One estimate the traffic asks for.
struct Ask {
  std::string tenant;
  vsj::EstimateRequest request;
};

/// Deterministic traffic source for one reader connection. Calls to Next()
/// yield that connection's request sequence; for sweep_cold every 9
/// consecutive asks form one session (one fresh seed, all nine τ).
class TrafficGen {
 public:
  TrafficGen(const Workload& workload, uint64_t run_seed, size_t connection);
  Ask Next();

 private:
  const Workload* workload_;
  vsj::Rng rng_;
  uint64_t seed_base_;
  uint64_t counter_ = 0;
  uint64_t session_seed_ = 0;
};

/// The hot keys of point_hot, each asked with the same (τ, seed): small
/// enough to sit in every tenant's EstimateCache.
std::vector<Ask> HotKeys();

/// One churn_mixed writer op: remove or insert one vector id.
struct WriterOp {
  bool insert = false;
  vsj::VectorId id = 0;
};

/// The writer's fixed op sequence, op `index` of it: the live window
/// [lo, lo + live) slides one step per remove/insert pair around the id
/// ring of size dblp_n, starting where the prepared history left it.
WriterOp WriterOpAt(const Scale& scale, uint64_t index);

/// The verification sweep of one tenant (fixed seed, every τ).
std::vector<vsj::EstimateRequest> VerifySweep();

/// Request payload as the load generator puts it on the wire.
std::string EncodeEstimate(uint64_t id, const Ask& ask);
std::string EncodeWriterOp(uint64_t id, const WriterOp& op);

/// Served payload with the connection-specific fields (id, from_cache)
/// removed, for byte comparison against an in-process answer.
std::string StripVolatileFields(const std::string& payload);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
