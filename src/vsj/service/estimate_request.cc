#include "vsj/service/estimate_request.h"

#include <bit>
#include <cmath>

#include "vsj/core/stratified_sampling.h"
#include "vsj/util/decimal.h"

namespace vsj {

namespace {

/// The exact bit pattern of `value`: keys must distinguish every distinct
/// double (0.70 vs 0.72 vs the next representable neighbor), which decimal
/// formatting cannot guarantee.
uint64_t DoubleBits(double value) { return std::bit_cast<uint64_t>(value); }

}  // namespace

const char* ValidateEstimateRequest(const EstimateRequest& request) {
  if (request.trials == 0) {
    return "trials must be > 0";
  }
  static_assert(kMaxTrials == 65536, "the message below names the cap");
  if (request.trials > kMaxTrials) {
    return "trials must be <= 65536";
  }
  // τ is a similarity threshold: a non-finite value (which the network
  // layer can produce from JSON like 1e999) or anything outside (0, 1]
  // reaches the sampling loops as nonsense — τ ≤ 0 selects every pair,
  // τ > 1 none, NaN poisons every comparison. One named diagnostic per
  // shape so a rejected RPC can say exactly what was wrong.
  if (std::isnan(request.tau)) {
    return "tau must not be NaN";
  }
  if (!std::isfinite(request.tau)) {
    return "tau must be finite";
  }
  if (!(request.tau > 0.0) || request.tau > 1.0) {
    return "tau must be in (0, 1]";
  }
  if (std::isnan(request.max_rel_error)) {
    return "max_rel_error must not be NaN";
  }
  if (!std::isfinite(request.max_rel_error) || request.max_rel_error < 0.0) {
    return "max_rel_error must be finite and >= 0";
  }
  if (request.sample_size_h.has_value() && *request.sample_size_h == 0) {
    return "sample_size_h override must be > 0";
  }
  if (request.sample_size_l.has_value() && *request.sample_size_l == 0) {
    return "sample_size_l override must be > 0";
  }
  if (request.delta.has_value() && *request.delta == 0) {
    return "delta override must be > 0";
  }
  return nullptr;
}

void ApplySamplingOverrides(const EstimateRequest& request,
                            SamplingBudget* budget) {
  if (request.sample_size_h) budget->sample_size_h = *request.sample_size_h;
  if (request.sample_size_l) budget->sample_size_l = *request.sample_size_l;
  if (request.delta) budget->delta = *request.delta;
}

std::string SweepKey(const EstimateRequest& request) {
  // Room for every field at its widest (20 digits) and the separators of
  // the exact key and the cache key, so neither regrows this string.
  std::string key;
  key.reserve(request.estimator_name.size() + 168);
  key.append(request.estimator_name);
  key.push_back('|');
  AppendDecimal(&key, request.trials);
  key.push_back('|');
  AppendDecimal(&key, request.seed);
  key.push_back('|');
  AppendDecimal(&key, DoubleBits(request.max_rel_error));
  for (const auto& field : {request.sample_size_h, request.sample_size_l,
                            request.delta}) {
    key.push_back('|');
    if (field.has_value()) {
      AppendDecimal(&key, *field);
    } else {
      key.push_back('-');
    }
  }
  return key;
}

std::string ExactKey(const EstimateRequest& request) {
  std::string key = SweepKey(request);
  key.push_back('|');
  AppendDecimal(&key, DoubleBits(request.tau));
  return key;
}

}  // namespace vsj
