#include "vsj/net/protocol.h"

#include <cmath>
#include <limits>
#include <optional>
#include <string_view>

#include "vsj/core/stratified_sampling.h"
#include "vsj/util/decimal.h"

namespace vsj::net {

const char* RpcErrorName(RpcError error) {
  switch (error) {
    case RpcError::kNone:
      return "none";
    case RpcError::kBadFrame:
      return "bad_frame";
    case RpcError::kBadJson:
      return "bad_json";
    case RpcError::kBadRequest:
      return "bad_request";
    case RpcError::kUnknownOp:
      return "unknown_op";
    case RpcError::kUnknownTenant:
      return "unknown_tenant";
    case RpcError::kTenantUnavailable:
      return "tenant_unavailable";
    case RpcError::kUnsupported:
      return "unsupported";
    case RpcError::kOverloaded:
      return "overloaded";
    case RpcError::kTimeout:
      return "timeout";
    case RpcError::kShuttingDown:
      return "shutting_down";
  }
  return "unknown";
}

bool RpcErrorRetryable(RpcError error) {
  switch (error) {
    case RpcError::kOverloaded:
    case RpcError::kTimeout:
    case RpcError::kShuttingDown:
      return true;
    default:
      return false;
  }
}

const char* RpcOpName(RpcOp op) {
  switch (op) {
    case RpcOp::kEstimate:
      return "estimate";
    case RpcOp::kInsert:
      return "insert";
    case RpcOp::kRemove:
      return "remove";
    case RpcOp::kErase:
      return "erase";
    case RpcOp::kAddVector:
      return "add_vector";
    case RpcOp::kPing:
      return "ping";
    case RpcOp::kStats:
      return "stats";
    case RpcOp::kSleep:
      return "sleep";
  }
  return "unknown";
}

namespace {

/// The request fields the protocol reads. Every other key is validated by
/// the parser and then dropped (forward compatibility).
enum Field : unsigned {
  kId,
  kOp,
  kTenant,
  kTimeoutMs,
  kEstimator,
  kTau,
  kTrials,
  kSeed,
  kMaxRelError,
  kSampleSizeH,
  kSampleSizeL,
  kDelta,
  kVectorId,
  kFeatures,
  kSleepMs,
  kFieldCount,
};

/// Wire names, in Field order.
constexpr std::string_view kFieldNames[kFieldCount] = {
    "id",
    "op",
    "tenant",
    "timeout_ms",
    "estimator",
    "tau",
    "trials",
    "seed",
    "max_rel_error",
    "sample_size_h",
    "sample_size_l",
    "delta",
    "vector_id",
    "features",
    "sleep_ms",
};
static_assert(!kFieldNames[kFieldCount - 1].empty(), "a field has no name");

/// The last value each known field took in a request object. Both decode
/// entry points fill it, and the field rules below read nothing else.
class FieldTable {
 public:
  /// Last one wins, as with JsonValue::Find.
  void Take(std::string_view key, const JsonMemberValue& value) {
    for (unsigned f = 0; f < kFieldCount; ++f) {
      if (key == kFieldNames[f]) {
        values_[f] = value;
        present_ |= 1u << f;
        return;
      }
    }
  }

  /// The field's value; nullptr when the request did not carry it.
  const JsonMemberValue* Find(Field field) const {
    return (present_ >> field & 1u) != 0 ? &values_[field] : nullptr;
  }

 private:
  JsonMemberValue values_[kFieldCount];
  uint32_t present_ = 0;
};

/// Field extraction helpers. Each returns false and fills `*error` with a
/// "<field> <problem>" diagnostic on a type/range violation; an absent
/// field leaves the output untouched and returns true (defaults apply).

bool TakeString(const FieldTable& fields, Field field, std::string* out,
                std::string* error) {
  const JsonMemberValue* v = fields.Find(field);
  if (v == nullptr) return true;
  if (v->type != JsonValue::Type::kString) {
    *error = std::string(kFieldNames[field]) + " must be a string";
    return false;
  }
  out->assign(v->string);
  return true;
}

bool TakeDouble(const FieldTable& fields, Field field, double* out,
                std::string* error, bool* present = nullptr) {
  const JsonMemberValue* v = fields.Find(field);
  if (v == nullptr) return true;
  if (v->type != JsonValue::Type::kNumber) {
    *error = std::string(kFieldNames[field]) + " must be a number";
    return false;
  }
  *out = v->number;
  if (present != nullptr) *present = true;
  return true;
}

/// Integer fields arrive as JSON doubles; reject non-integral values and
/// anything outside [0, max] instead of truncating. 2^53 bounds what a
/// double can represent exactly, which comfortably covers every id, count
/// and millisecond field of the protocol.
bool TakeUint(const FieldTable& fields, Field field, uint64_t max,
              uint64_t* out, std::string* error, bool* present = nullptr) {
  const JsonMemberValue* v = fields.Find(field);
  if (v == nullptr) return true;
  if (v->type != JsonValue::Type::kNumber) {
    *error = std::string(kFieldNames[field]) + " must be a number";
    return false;
  }
  const double d = v->number;
  constexpr double kExactLimit = 9007199254740992.0;  // 2^53
  if (!std::isfinite(d) || d < 0.0 || d != std::floor(d) ||
      d >= kExactLimit) {
    *error = std::string(kFieldNames[field]) +
             " must be a non-negative integer";
    return false;
  }
  const uint64_t u = static_cast<uint64_t>(d);
  if (u > max) {
    *error = std::string(kFieldNames[field]) + " is out of range";
    return false;
  }
  *out = u;
  if (present != nullptr) *present = true;
  return true;
}

/// An optional sampling budget: engaged only when the request carries it.
bool TakeOptionalUint(const FieldTable& fields, Field field,
                      std::optional<uint64_t>* out, std::string* error) {
  uint64_t value = 0;
  bool present = false;
  if (!TakeUint(fields, field, std::numeric_limits<uint64_t>::max(), &value,
                error, &present)) {
    return false;
  }
  if (present) *out = value;
  return true;
}

bool ParseFeatures(const FieldTable& fields, std::vector<Feature>* out,
                   std::string* error) {
  const JsonMemberValue* v = fields.Find(kFeatures);
  if (v == nullptr || v->type != JsonValue::Type::kArray) {
    *error = "features must be an array of [dim, weight] pairs";
    return false;
  }
  const JsonValue& pairs = *v->nested;
  out->clear();
  out->reserve(pairs.size());
  uint64_t last_dim = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const JsonValue& pair = pairs[i];
    if (!pair.is_array() || pair.size() != 2 || !pair[0].is_number() ||
        !pair[1].is_number()) {
      *error = "features must be an array of [dim, weight] pairs";
      return false;
    }
    const double dim = pair[0].AsNumber();
    const double weight = pair[1].AsNumber();
    if (!std::isfinite(dim) || dim < 0.0 || dim != std::floor(dim) ||
        dim > std::numeric_limits<DimId>::max()) {
      *error = "feature dim must be an integer vector dimension";
      return false;
    }
    // SparseVector requires strictly increasing dims and positive finite
    // weights; checking here turns a would-be VSJ_CHECK abort into a
    // bad_request response.
    if (i > 0 && static_cast<uint64_t>(dim) <= last_dim) {
      *error = "feature dims must be strictly increasing";
      return false;
    }
    if (!std::isfinite(weight) || weight <= 0.0) {
      *error = "feature weights must be finite and positive";
      return false;
    }
    last_dim = static_cast<uint64_t>(dim);
    out->push_back(Feature{static_cast<DimId>(dim),
                           static_cast<float>(weight)});
  }
  if (out->empty()) {
    *error = "features must not be empty";
    return false;
  }
  return true;
}

/// The field rules, once, over the table either entry point filled.
RpcError ReadRequest(const FieldTable& fields, RpcRequest* request,
                     std::string* error) {
  // The correlation id is read first so even a failed request can be
  // correlated by the client.
  if (!TakeUint(fields, kId, std::numeric_limits<uint64_t>::max(),
                &request->id, error)) {
    return RpcError::kBadRequest;
  }

  const JsonMemberValue* op = fields.Find(kOp);
  if (op == nullptr || op->type != JsonValue::Type::kString) {
    *error = "op must be a string";
    return RpcError::kBadRequest;
  }
  const std::string_view op_name = op->string;
  if (op_name == "estimate") {
    request->op = RpcOp::kEstimate;
  } else if (op_name == "insert") {
    request->op = RpcOp::kInsert;
  } else if (op_name == "remove") {
    request->op = RpcOp::kRemove;
  } else if (op_name == "erase") {
    request->op = RpcOp::kErase;
  } else if (op_name == "add_vector") {
    request->op = RpcOp::kAddVector;
  } else if (op_name == "ping") {
    request->op = RpcOp::kPing;
  } else if (op_name == "stats") {
    request->op = RpcOp::kStats;
  } else if (op_name == "sleep") {
    request->op = RpcOp::kSleep;
  } else {
    *error = "unknown op '" + std::string(op_name) + "'";
    return RpcError::kUnknownOp;
  }

  if (!TakeString(fields, kTenant, &request->tenant, error)) {
    return RpcError::kBadRequest;
  }
  if (!TakeUint(fields, kTimeoutMs, 86400000ull, &request->timeout_ms,
                error)) {
    return RpcError::kBadRequest;
  }

  const bool needs_tenant =
      request->op != RpcOp::kPing && request->op != RpcOp::kSleep;
  if (needs_tenant && request->tenant.empty()) {
    *error = "tenant is required";
    return RpcError::kBadRequest;
  }

  switch (request->op) {
    case RpcOp::kEstimate: {
      EstimateRequest& e = request->estimate;
      if (!TakeString(fields, kEstimator, &e.estimator_name, error)) {
        return RpcError::kBadRequest;
      }
      bool has_tau = false;
      // tau passes through unchecked (NaN/inf included): the validation
      // layer owns the range rules and names the violated one.
      if (!TakeDouble(fields, kTau, &e.tau, error, &has_tau)) {
        return RpcError::kBadRequest;
      }
      if (!has_tau) {
        *error = "tau is required";
        return RpcError::kBadRequest;
      }
      uint64_t trials = 1;
      if (!TakeUint(fields, kTrials, kMaxTrials, &trials, error)) {
        return RpcError::kBadRequest;
      }
      e.trials = static_cast<size_t>(trials);
      if (!TakeUint(fields, kSeed, std::numeric_limits<uint64_t>::max(),
                    &e.seed, error) ||
          !TakeDouble(fields, kMaxRelError, &e.max_rel_error, error) ||
          !TakeOptionalUint(fields, kSampleSizeH, &e.sample_size_h, error) ||
          !TakeOptionalUint(fields, kSampleSizeL, &e.sample_size_l, error) ||
          !TakeOptionalUint(fields, kDelta, &e.delta, error)) {
        return RpcError::kBadRequest;
      }
      break;
    }
    case RpcOp::kInsert:
    case RpcOp::kRemove:
    case RpcOp::kErase: {
      uint64_t id = 0;
      bool present = false;
      if (!TakeUint(fields, kVectorId, std::numeric_limits<VectorId>::max(),
                    &id, error, &present)) {
        return RpcError::kBadRequest;
      }
      if (!present) {
        *error = "vector_id is required";
        return RpcError::kBadRequest;
      }
      request->vector_id = static_cast<VectorId>(id);
      break;
    }
    case RpcOp::kAddVector:
      if (!ParseFeatures(fields, &request->features, error)) {
        return RpcError::kBadRequest;
      }
      break;
    case RpcOp::kSleep:
      // Capped at 10 s: sleep exists for tests, not for wedging workers.
      if (!TakeUint(fields, kSleepMs, 10000ull, &request->sleep_ms, error)) {
        return RpcError::kBadRequest;
      }
      break;
    case RpcOp::kPing:
    case RpcOp::kStats:
      break;
  }
  return RpcError::kNone;
}

}  // namespace

RpcError DecodeRpcRequest(std::string_view frame, RpcRequest* request,
                          std::string* error) {
  *request = RpcRequest{};
  FieldTable fields;
  JsonMemberStore store;
  bool is_object = false;
  if (!ParseJsonMembers(
          frame,
          [&fields](std::string_view key, const JsonMemberValue& value) {
            fields.Take(key, value);
          },
          &store, &is_object, error)) {
    return RpcError::kBadJson;
  }
  if (!is_object) {
    *error = "request must be a JSON object";
    return RpcError::kBadJson;
  }
  return ReadRequest(fields, request, error);
}

RpcError ParseRpcRequest(const JsonValue& doc, RpcRequest* request,
                         std::string* error) {
  *request = RpcRequest{};
  if (!doc.is_object()) {
    *error = "request must be a JSON object";
    return RpcError::kBadJson;
  }
  FieldTable fields;
  for (const auto& [key, value] : doc.members()) {
    fields.Take(key, JsonMemberValue::Of(value));
  }
  return ReadRequest(fields, request, error);
}

std::string MakeErrorPayload(uint64_t id, RpcError error,
                             const std::string& message) {
  std::string out = "{\"id\":";
  JsonValue::AppendNumber(&out, static_cast<double>(id));
  out += ",\"ok\":false,\"error\":\"";
  out += RpcErrorName(error);
  out += "\",\"retryable\":";
  out += RpcErrorRetryable(error) ? "true" : "false";
  out += ",\"message\":";
  JsonValue::AppendQuoted(&out, message);
  out += "}";
  return out;
}

void AppendEstimateFields(std::string* out,
                          const EstimateResponse& response) {
  out->append("\"estimator\":");
  JsonValue::AppendQuoted(out, response.estimator_name);
  out->append(",\"tau\":");
  JsonValue::AppendDouble(out, response.tau);
  out->append(",\"trials\":");
  AppendDecimal(out, response.trials);
  out->append(",\"estimate\":");
  JsonValue::AppendDouble(out, response.mean_estimate);
  if (response.trials >= 2) {
    out->append(",\"std_dev\":");
    JsonValue::AppendDouble(out, response.std_dev);
    out->append(",\"std_error\":");
    JsonValue::AppendDouble(out, response.std_error);
  }
  // The interval's ends are whole pairs: as integers they print the bytes
  // %.17g would, for less work.
  if (response.strata.size() > 0) {
    const Interval interval =
        EstimateInterval(response.strata, response.trials);
    out->append(",\"lower\":");
    AppendDecimal(out, static_cast<uint64_t>(interval.lower));
    out->append(",\"upper\":");
    AppendDecimal(out, static_cast<uint64_t>(interval.upper));
  }
  out->append(",\"pairs_evaluated\":");
  AppendDecimal(out, response.pairs_evaluated);
  out->append(",\"num_unguaranteed\":");
  AppendDecimal(out, response.num_unguaranteed);
  out->append(",\"from_cache\":");
  out->append(response.from_cache ? "true" : "false");
}

void AppendEstimatePayload(std::string* out, uint64_t id,
                           const EstimateResponse& response) {
  out->append("{\"id\":");
  JsonValue::AppendNumber(out, static_cast<double>(id));
  out->append(",\"ok\":true,");
  AppendEstimateFields(out, response);
  out->push_back('}');
}

std::string MakeEstimatePayload(uint64_t id,
                                const EstimateResponse& response) {
  // Room for a typical payload (about 270 bytes with the std and interval
  // fields), so it is built without regrowing.
  std::string out;
  out.reserve(288 + response.estimator_name.size());
  AppendEstimatePayload(&out, id, response);
  return out;
}

JsonValue MakeOkResponse(uint64_t id) {
  JsonValue v = JsonValue::Object();
  v.Set("id", JsonValue::Number(static_cast<double>(id)));
  v.Set("ok", JsonValue::Bool(true));
  return v;
}

}  // namespace vsj::net
