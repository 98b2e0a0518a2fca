#include "vsj/net/protocol.h"

#include <cmath>
#include <limits>

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

/// Field extraction helpers. Each returns false and fills `*error` with a
/// "<field> <problem>" diagnostic on a type/range violation; an absent
/// field leaves the output untouched and returns true (defaults apply).

bool TakeString(const JsonValue& doc, const char* key, std::string* out,
                std::string* error, bool* present = nullptr) {
  const JsonValue* v = doc.Find(key);
  if (v == nullptr) return true;
  if (!v->is_string()) {
    *error = std::string(key) + " must be a string";
    return false;
  }
  *out = v->AsString();
  if (present != nullptr) *present = true;
  return true;
}

bool TakeDouble(const JsonValue& doc, const char* key, double* out,
                std::string* error, bool* present = nullptr) {
  const JsonValue* v = doc.Find(key);
  if (v == nullptr) return true;
  if (!v->is_number()) {
    *error = std::string(key) + " must be a number";
    return false;
  }
  *out = v->AsNumber();
  if (present != nullptr) *present = true;
  return true;
}

/// Integer fields arrive as JSON doubles; reject non-integral values and
/// anything outside [0, max] instead of truncating. 2^53 bounds what a
/// double can represent exactly, which comfortably covers every id, count
/// and millisecond field of the protocol.
bool TakeUint(const JsonValue& doc, const char* key, uint64_t max,
              uint64_t* out, std::string* error, bool* present = nullptr) {
  const JsonValue* v = doc.Find(key);
  if (v == nullptr) return true;
  if (!v->is_number()) {
    *error = std::string(key) + " must be a number";
    return false;
  }
  const double d = v->AsNumber();
  constexpr double kExactLimit = 9007199254740992.0;  // 2^53
  if (!std::isfinite(d) || d < 0.0 || d != std::floor(d) ||
      d >= kExactLimit) {
    *error = std::string(key) + " must be a non-negative integer";
    return false;
  }
  const uint64_t u = static_cast<uint64_t>(d);
  if (u > max) {
    *error = std::string(key) + " is out of range";
    return false;
  }
  *out = u;
  if (present != nullptr) *present = true;
  return true;
}

bool ParseFeatures(const JsonValue& doc, std::vector<Feature>* out,
                   std::string* error) {
  const JsonValue* v = doc.Find("features");
  if (v == nullptr || !v->is_array()) {
    *error = "features must be an array of [dim, weight] pairs";
    return false;
  }
  out->clear();
  out->reserve(v->size());
  uint64_t last_dim = 0;
  for (size_t i = 0; i < v->size(); ++i) {
    const JsonValue& pair = (*v)[i];
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

}  // namespace

RpcError ParseRpcRequest(const JsonValue& doc, RpcRequest* request,
                         std::string* error) {
  *request = RpcRequest{};
  if (!doc.is_object()) {
    *error = "request must be a JSON object";
    return RpcError::kBadJson;
  }
  // The correlation id parses first so even a failed parse can be
  // correlated by the client.
  if (!TakeUint(doc, "id", std::numeric_limits<uint64_t>::max(), &request->id,
                error)) {
    return RpcError::kBadRequest;
  }

  const JsonValue* op = doc.Find("op");
  if (op == nullptr || !op->is_string()) {
    *error = "op must be a string";
    return RpcError::kBadRequest;
  }
  const std::string& op_name = op->AsString();
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
    *error = "unknown op '" + op_name + "'";
    return RpcError::kUnknownOp;
  }

  if (!TakeString(doc, "tenant", &request->tenant, error)) {
    return RpcError::kBadRequest;
  }
  if (!TakeUint(doc, "timeout_ms", 86400000ull, &request->timeout_ms,
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
      if (!TakeString(doc, "estimator", &e.estimator_name, error)) {
        return RpcError::kBadRequest;
      }
      bool has_tau = false;
      // tau passes through unchecked (NaN/inf included): the validation
      // layer owns the range rules and names the violated one.
      if (!TakeDouble(doc, "tau", &e.tau, error, &has_tau)) {
        return RpcError::kBadRequest;
      }
      if (!has_tau) {
        *error = "tau is required";
        return RpcError::kBadRequest;
      }
      uint64_t trials = 1;
      if (!TakeUint(doc, "trials", 1u << 20, &trials, error)) {
        return RpcError::kBadRequest;
      }
      e.trials = static_cast<size_t>(trials);
      if (!TakeUint(doc, "seed", std::numeric_limits<uint64_t>::max(),
                    &e.seed, error)) {
        return RpcError::kBadRequest;
      }
      if (!TakeDouble(doc, "max_rel_error", &e.max_rel_error, error)) {
        return RpcError::kBadRequest;
      }
      uint64_t value = 0;
      bool present = false;
      if (!TakeUint(doc, "sample_size_h", std::numeric_limits<uint64_t>::max(),
                    &value, error, &present)) {
        return RpcError::kBadRequest;
      }
      if (present) e.sample_size_h = value;
      present = false;
      if (!TakeUint(doc, "sample_size_l", std::numeric_limits<uint64_t>::max(),
                    &value, error, &present)) {
        return RpcError::kBadRequest;
      }
      if (present) e.sample_size_l = value;
      present = false;
      if (!TakeUint(doc, "delta", std::numeric_limits<uint64_t>::max(), &value,
                    error, &present)) {
        return RpcError::kBadRequest;
      }
      if (present) e.delta = value;
      break;
    }
    case RpcOp::kInsert:
    case RpcOp::kRemove:
    case RpcOp::kErase: {
      uint64_t id = 0;
      bool present = false;
      if (!TakeUint(doc, "vector_id", std::numeric_limits<VectorId>::max(),
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
      if (!ParseFeatures(doc, &request->features, error)) {
        return RpcError::kBadRequest;
      }
      break;
    case RpcOp::kSleep:
      // Capped at 10 s: sleep exists for tests, not for wedging workers.
      if (!TakeUint(doc, "sleep_ms", 10000ull, &request->sleep_ms, error)) {
        return RpcError::kBadRequest;
      }
      break;
    case RpcOp::kPing:
    case RpcOp::kStats:
      break;
  }
  return RpcError::kNone;
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
  out->append(",\"pairs_evaluated\":");
  AppendDecimal(out, response.pairs_evaluated);
  out->append(",\"num_unguaranteed\":");
  AppendDecimal(out, response.num_unguaranteed);
  out->append(",\"from_cache\":");
  out->append(response.from_cache ? "true" : "false");
}

std::string MakeEstimatePayload(uint64_t id,
                                const EstimateResponse& response) {
  // Room for a typical payload (about 240 bytes with the std fields), so
  // it is built without regrowing. The widest numbers need ~330; reserving
  // that for every one of thousands of in-flight responses costs memory.
  std::string out;
  out.reserve(256 + response.estimator_name.size());
  out += "{\"id\":";
  JsonValue::AppendNumber(&out, static_cast<double>(id));
  out += ",\"ok\":true,";
  AppendEstimateFields(&out, response);
  out += "}";
  return out;
}

JsonValue MakeOkResponse(uint64_t id) {
  JsonValue v = JsonValue::Object();
  v.Set("id", JsonValue::Number(static_cast<double>(id)));
  v.Set("ok", JsonValue::Bool(true));
  return v;
}

}  // namespace vsj::net
