// RPC protocol of the serving layer: request parsing and response
// building over net/json framing.
//
// Every frame carries one JSON object. Requests name an op, a tenant and
// op-specific fields; responses echo the client correlation id and either
// the op's result ("ok":true) or a typed error ("ok":false, "error":
// "<code>", "message":"<diagnostic>"). The error codes are the protocol's
// stable vocabulary — tests and clients match on them, never on message
// text.
//
// Request schema (estimate shown; other ops use a subset):
//
//   {"id": 7, "op": "estimate", "tenant": "wiki",
//    "estimator": "LSH-SS", "tau": 0.8, "trials": 4, "seed": 1,
//    "max_rel_error": 0.0, "sample_size_h": 100, "sample_size_l": 100,
//    "delta": 10, "timeout_ms": 250}
//
// A frame is decoded in one pass (DecodeRpcRequest): the JSON parser hands
// each top-level member straight to a fixed table of the fields below, and
// one set of field rules reads that table. ParseRpcRequest fills the same
// table from an already-parsed document, so both give the same request,
// error code and message for the same bytes.
//
// Parsing is strict about types and ranges but lenient about unknown
// keys (forward compatibility). Numeric fields arrive as doubles (JSON);
// integer fields reject non-integral or out-of-range values rather than
// silently truncating. Non-finite tau/max_rel_error survive parsing on
// purpose — ValidateEstimateRequest rejects them with a named diagnostic
// (the "1e999" regression), which the server maps to kBadRequest.
//
// Estimate responses reuse the vsjoin_estimate --json field conventions
// (%.17g doubles, std_dev/std_error omitted below two trials, lower/upper
// only from a stratified estimator) so the loopback smoke test can diff
// server output against the CLI's golden.

#ifndef VSJ_NET_PROTOCOL_H_
#define VSJ_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "vsj/net/json.h"
#include "vsj/service/estimate_request.h"
#include "vsj/vector/sparse_vector.h"

namespace vsj::net {

/// Operations a frame can request.
enum class RpcOp {
  kEstimate,    ///< Run one estimate on the tenant's engine.
  kInsert,      ///< Make backing-store vector `vector_id` live.
  kRemove,      ///< Expire live vector `vector_id`.
  kErase,       ///< Expire and tombstone `vector_id`.
  kAddVector,   ///< Append a new vector; response carries its id.
  kPing,        ///< Liveness probe; no tenant required.
  kStats,       ///< Tenant engine stats (epoch, live count, cache).
  kSleep,       ///< Debug: hold a worker for sleep_ms. Used by the
                ///< admission-control and timeout tests to occupy the
                ///< server deterministically; disabled unless the server
                ///< runs with enable_debug_ops.
};

/// Stable protocol error vocabulary.
enum class RpcError {
  kNone = 0,           ///< Not an error (parse succeeded).
  kBadFrame,           ///< Framing violation (oversized length prefix).
  kBadJson,            ///< Payload is not a well-formed JSON object.
  kBadRequest,         ///< Schema/type/range violation, or the request
                       ///< failed ValidateEstimateRequest.
  kUnknownOp,          ///< "op" names no known operation.
  kUnknownTenant,      ///< No snapshot by that name under the root.
  kTenantUnavailable,  ///< The snapshot exists but failed to open/restore.
  kUnsupported,        ///< Op not supported by this tenant flavor (e.g.
                       ///< mutations on a static mmap tenant).
  kOverloaded,         ///< Admission control: too many requests in flight.
  kTimeout,            ///< The per-request deadline expired in queue.
  kShuttingDown,       ///< Server is draining; request not accepted.
};

/// Wire name of an error code ("bad_request", "timeout", ...).
const char* RpcErrorName(RpcError error);

/// True when a client may retry the identical request and reasonably
/// expect success: transient server conditions (kOverloaded, kTimeout,
/// kShuttingDown — another replica, or the same one post-restart, can
/// serve it). False for request defects (bad_json, bad_request,
/// unknown_*, unsupported) where a retry would fail identically, and for
/// kTenantUnavailable, which needs operator intervention. Error payloads
/// carry this as "retryable" so clients don't hard-code the taxonomy.
bool RpcErrorRetryable(RpcError error);

/// Wire name of an op ("estimate", "add_vector", ...).
const char* RpcOpName(RpcOp op);

/// One parsed request frame.
struct RpcRequest {
  /// Client correlation id, echoed verbatim in the response (0 when the
  /// client omits it).
  uint64_t id = 0;
  RpcOp op = RpcOp::kPing;
  std::string tenant;

  /// kEstimate payload.
  EstimateRequest estimate;

  /// kInsert / kRemove / kErase target.
  VectorId vector_id = 0;

  /// kAddVector payload: strictly increasing dims, positive weights
  /// (checked by the parser so SparseVector construction cannot abort).
  std::vector<Feature> features;

  /// Per-request deadline override; 0 = server default.
  uint64_t timeout_ms = 0;

  /// kSleep hold duration.
  uint64_t sleep_ms = 0;
};

/// Decodes one frame payload into `*request` in one pass, without a JSON
/// DOM for the request object. Returns kNone on success; otherwise the
/// error to respond with, with a human diagnostic in `*error`: kBadJson
/// with ParseJson's message for malformed JSON or a non-object document,
/// and the field rules' code and message otherwise. On failure
/// `request->id` is still filled in when the frame carried a valid id, so
/// the error response can be correlated (it stays 0 on kBadJson).
RpcError DecodeRpcRequest(std::string_view frame, RpcRequest* request,
                          std::string* error);

/// The same decode over a document ParseJson already built: the same
/// fields, rules, codes and messages as DecodeRpcRequest on its bytes.
RpcError ParseRpcRequest(const JsonValue& doc, RpcRequest* request,
                         std::string* error);

/// Builds an "ok":false response payload.
std::string MakeErrorPayload(uint64_t id, RpcError error,
                             const std::string& message);

/// Appends the estimate fields of `response` — "estimator" through
/// "from_cache", comma-separated, no enclosing braces — to `*out`. The one
/// serializer of an estimate: the wire payload and vsjoin_estimate --json
/// both wrap it. std_dev/std_error appear only when the response
/// aggregated at least two trials (one draw has no measurable spread), and
/// lower/upper, after them, only when it carries strata (a stratified
/// estimator's interval of J); doubles print through
/// JsonValue::AppendDouble (%.17g form, non-finite as null), counts and
/// the interval's whole-pair ends as exact integers.
void AppendEstimateFields(std::string* out, const EstimateResponse& response);

/// Appends the "ok":true payload for an estimate response to `*out`: the
/// RPC envelope (id, ok) followed by AppendEstimateFields. The server
/// writes it straight into a frame (wire.h BeginFrame/EndFrame).
void AppendEstimatePayload(std::string* out, uint64_t id,
                           const EstimateResponse& response);

/// AppendEstimatePayload into a new string.
std::string MakeEstimatePayload(uint64_t id, const EstimateResponse& response);

/// Starts an "ok":true response object with the correlation id set; the
/// caller chains .Set(...) for op-specific fields and serializes.
JsonValue MakeOkResponse(uint64_t id);

}  // namespace vsj::net

#endif  // VSJ_NET_PROTOCOL_H_
