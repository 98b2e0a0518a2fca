// Response payload bytes, pinned as checked-in literals. The server smoke
// test and server_test compare a build's wire bytes with the same build's
// serializer; these literals hold the bytes themselves fixed across builds,
// so a change to the number writer, the field order, the std-field rule or
// the interval rule shows up here as a diff against text, not as two
// builds agreeing.
//
// Request decoding has two entry points, the one-pass DecodeRpcRequest the
// server runs and ParseJson + ParseRpcRequest; the differential test below
// holds them to the same result on a seeded corpus of valid, damaged and
// hostile frames.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "vsj/core/estimator_registry.h"
#include "vsj/core/stratified_sampling.h"
#include "vsj/net/protocol.h"
#include "vsj/service/estimation_service.h"

namespace vsj::net {
namespace {

EstimateResponse Response(const char* estimator, double tau, size_t trials) {
  EstimateResponse response;
  response.estimator_name = estimator;
  response.tau = tau;
  response.trials = trials;
  return response;
}

TEST(EstimatePayloadTest, OneTrialOmitsTheStdFields) {
  EstimateResponse response = Response("LSH-SS", 0.1, 1);
  response.mean_estimate = 27.802916666666665;
  response.std_dev = 3.5;  // not on the wire below two trials
  response.pairs_evaluated = uint64_t{1} << 40;
  EXPECT_EQ(MakeEstimatePayload(7, response),
            "{\"id\":7,\"ok\":true,\"estimator\":\"LSH-SS\","
            "\"tau\":0.10000000000000001,\"trials\":1,"
            "\"estimate\":27.802916666666665,"
            "\"pairs_evaluated\":1099511627776,\"num_unguaranteed\":0,"
            "\"from_cache\":false}");
}

TEST(EstimatePayloadTest, FourTrialsCarryTheStdFields) {
  EstimateResponse response = Response("LSH-SS(median)", 0.7, 4);
  response.mean_estimate = 1234.5678;
  response.std_dev = 12.0;
  response.std_error = 1.0 / 3.0;
  response.pairs_evaluated = 8000;
  response.num_unguaranteed = 1;
  response.from_cache = true;
  EXPECT_EQ(MakeEstimatePayload(123456789, response),
            "{\"id\":123456789,\"ok\":true,\"estimator\":\"LSH-SS(median)\","
            "\"tau\":0.69999999999999996,\"trials\":4,"
            "\"estimate\":1234.5678,\"std_dev\":12,"
            "\"std_error\":0.33333333333333331,\"pairs_evaluated\":8000,"
            "\"num_unguaranteed\":1,\"from_cache\":true}");
}

TEST(EstimatePayloadTest, NonFiniteFieldsAreNullAndZeroKeepsItsSign) {
  EstimateResponse response = Response("Bifocal", 0.7, 4);
  response.mean_estimate = -0.0;
  response.std_dev = std::numeric_limits<double>::quiet_NaN();
  response.std_error = std::numeric_limits<double>::infinity();
  response.pairs_evaluated = 0;
  response.num_unguaranteed = 4;
  EXPECT_EQ(MakeEstimatePayload(0, response),
            "{\"id\":0,\"ok\":true,\"estimator\":\"Bifocal\","
            "\"tau\":0.69999999999999996,\"trials\":4,\"estimate\":-0,"
            "\"std_dev\":null,\"std_error\":null,\"pairs_evaluated\":0,"
            "\"num_unguaranteed\":4,\"from_cache\":false}");
}

TEST(EstimatePayloadTest, StrataAddTheIntervalAfterTheStdFields) {
  // A stratified estimator's response carries "lower" and "upper" after
  // "estimate" (and the std fields, from two trials) and before
  // "pairs_evaluated", as the integers its whole-pair ends are
  // (EstimateInterval of the strata over the trials); every other member
  // keeps its bytes and place.
  EstimateResponse response = Response("LSH-SS", 0.5, 4);
  response.mean_estimate = 42.75;
  response.std_dev = 0.5;
  response.std_error = 0.25;
  response.pairs_evaluated = 32000;
  response.num_unguaranteed = 4;
  // Four trials of N_H = 90 and N_L = 7997910; SampleL missed δ in each.
  response.strata.push_back(
      {.size = 360, .draws = 360, .evaluated = 360, .hits = 171});
  response.strata.push_back({.size = 31991640,
                             .draws = 31640,
                             .evaluated = 31640,
                             .hits = 0,
                             .adaptive = true});
  EXPECT_EQ(MakeEstimatePayload(9, response),
            "{\"id\":9,\"ok\":true,\"estimator\":\"LSH-SS\","
            "\"tau\":0.5,\"trials\":4,\"estimate\":42.75,"
            "\"std_dev\":0.5,\"std_error\":0.25,"
            "\"lower\":37,\"upper\":1318,"
            "\"pairs_evaluated\":32000,\"num_unguaranteed\":4,"
            "\"from_cache\":false}");
  response.trials = 1;
  EXPECT_EQ(MakeEstimatePayload(9, response),
            "{\"id\":9,\"ok\":true,\"estimator\":\"LSH-SS\","
            "\"tau\":0.5,\"trials\":1,\"estimate\":42.75,"
            "\"lower\":150,\"upper\":5272,"
            "\"pairs_evaluated\":32000,\"num_unguaranteed\":4,"
            "\"from_cache\":false}");
}

/// The members of `payload` from "lower" up to "pairs_evaluated", or ""
/// when it carries no interval.
std::string IntervalBytes(const std::string& payload) {
  const size_t begin = payload.find(",\"lower\":");
  if (begin == std::string::npos) return "";
  return payload.substr(begin, payload.find(",\"pairs_evaluated\":") - begin);
}

TEST(EstimatePayloadTest, ServedLayoutKeepsServebenchsScanAndTheInterval) {
  // servebench's load generator reads a served estimate without a JSON
  // tree (servebench/load.cc, ScanEstimateReply): the payload must start
  // {"id":N,"ok":true,"estimator": and end ,"from_cache":true} or false}.
  // Served end to end here, on every estimator of the registry: the
  // stratified ones (LSH-SS, LSH-SS(D), RS(pop), Adaptive,
  // LSH-SS(vbucket)) carry the interval, the rest do not, and a cache hit
  // serves the computed answer's interval bytes.
  EstimationServiceOptions options;
  options.k = 8;
  options.num_threads = 2;
  EstimationService service(testing::SmallClusteredCorpus(300, 3), options);
  const std::set<std::string> stratified = {
      "LSH-SS", "LSH-SS(D)", "RS(pop)", "Adaptive", "LSH-SS(vbucket)"};
  for (const std::string& name : AllEstimatorNames()) {
    SCOPED_TRACE(name);
    EstimateRequest request;
    request.estimator_name = name;
    request.tau = 0.6;
    request.trials = 2;
    const EstimateResponse computed = service.Estimate(request);
    const EstimateResponse hit = service.Estimate(request);
    ASSERT_TRUE(hit.from_cache);
    const std::string computed_bytes = MakeEstimatePayload(5, computed);
    const std::string hit_bytes = MakeEstimatePayload(5, hit);
    for (const std::string& payload : {computed_bytes, hit_bytes}) {
      EXPECT_EQ(payload.rfind("{\"id\":5,\"ok\":true,\"estimator\":", 0), 0u);
    }
    EXPECT_TRUE(computed_bytes.ends_with(",\"from_cache\":false}"));
    EXPECT_TRUE(hit_bytes.ends_with(",\"from_cache\":true}"));
    const std::string interval = IntervalBytes(computed_bytes);
    EXPECT_EQ(interval.empty(), stratified.count(name) == 0);
    EXPECT_EQ(IntervalBytes(hit_bytes), interval);
    if (!interval.empty()) {
      // Right after the std fields, right before pairs_evaluated.
      EXPECT_NE(computed_bytes.find(",\"std_error\":"), std::string::npos);
      EXPECT_LT(computed_bytes.find(",\"std_error\":"),
                computed_bytes.find(",\"lower\":"));
      const Interval bounds =
          EstimateInterval(computed.strata, computed.trials);
      EXPECT_LE(bounds.lower, bounds.upper);
    }
  }
}

TEST(ErrorPayloadTest, CarriesCodeRetryabilityAndEscapedMessage) {
  EXPECT_EQ(MakeErrorPayload(42, RpcError::kOverloaded, "queue \"full\"\n"),
            "{\"id\":42,\"ok\":false,\"error\":\"overloaded\","
            "\"retryable\":true,\"message\":\"queue \\\"full\\\"\\n\"}");
  EXPECT_EQ(MakeErrorPayload(uint64_t{1} << 40, RpcError::kBadRequest,
                             "tau must be finite"),
            "{\"id\":1099511627776,\"ok\":false,\"error\":\"bad_request\","
            "\"retryable\":false,\"message\":\"tau must be finite\"}");
}

/// One valid request of every op.
const char* const kValidRequests[] = {
    R"({"id":7,"op":"estimate","tenant":"wiki","estimator":"LSH-SS",)"
    R"("tau":0.8,"trials":4,"seed":1,"max_rel_error":0.05,)"
    R"("sample_size_h":100,"sample_size_l":200,"delta":10,"timeout_ms":250})",
    R"({"id":8,"op":"insert","tenant":"churn","vector_id":42})",
    R"({"id":9,"op":"remove","tenant":"churn","vector_id":0})",
    R"({"id":10,"op":"erase","tenant":"churn","vector_id":4294967295})",
    R"({"id":11,"op":"add_vector","tenant":"churn",)"
    R"("features":[[1,0.5],[7,2],[4096,1e-3]]})",
    R"({"id":12,"op":"ping"})",
    R"({"id":13,"op":"stats","tenant":"wiki"})",
    R"({"id":14,"op":"sleep","sleep_ms":20})",
};

/// The seeded corpus: the valid requests, every truncation and one byte
/// flip per byte of each, whitespace inserted at every offset, and
/// hand-written frames for escapes, duplicate keys, nesting, saturating
/// numbers, non-object documents and the depth limit.
std::vector<std::string> DecodeCorpus() {
  std::vector<std::string> corpus;
  std::mt19937_64 rng(20261019);
  for (const char* request : kValidRequests) {
    const std::string valid = request;
    corpus.push_back(valid);
    for (size_t i = 0; i < valid.size(); ++i) {
      corpus.push_back(valid.substr(0, i));
      std::string flipped = valid;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 + rng() % 255));
      corpus.push_back(flipped);
    }
    for (size_t i = 0; i <= valid.size(); ++i) {
      std::string spaced = valid;
      spaced.insert(i, " \t\n\r");
      corpus.push_back(spaced);
    }
  }
  const std::string estimate = R"("op":"estimate","tenant":"wiki")";
  const char* const kMembers[] = {
      // Keys and values written with escapes.
      R"("tau":0.5)",
      R"("id":3,"tau":0.5)",
      R"("ta\u0000u":0.5,"tau":0.25)",
      R"("op\"":1,"tau":0.5)",
      R"("estimator":"LSH\/SS","tau":0.5)",
      R"("estimator":"a very long estimator name é😀","tau":1)",
      R"("tenant":"wiki","tau":0.5)",
      R"("tenant":"\"\\\b\f\n\r\t","tau":0.5)",
      R"("tau":0.5,"estimator":"\ud800")",
      R"("tau":0.5,"estimator":"\udc00")",
      R"("tau":0.5,"estimator":"\u12G4")",
      R"("tau":0.5,"estimator":"\x")",
      // Duplicate keys whose type changes: the last one counts.
      R"("tau":0.5,"tau":"x")",
      R"("tau":"x","tau":0.5)",
      R"("id":"a","id":5,"tau":0.5)",
      R"("id":5,"id":-1,"tau":0.5)",
      R"("tenant":"a","tenant":null,"tau":0.5)",
      R"("tau":0.5,"trials":2,"trials":true)",
      R"("tau":0.5,"seed":[1],"seed":2)",
      // Nested values under known and unknown keys.
      R"("tau":[0.5])",
      R"("tau":{"v":0.5})",
      R"("id":[],"tau":0.5)",
      R"("tenant":["wiki"],"tau":0.5)",
      R"("tau":0.5,"extra":{"a":[1,{"b":[true,false,null]}]})",
      R"("tau":0.5,"extra":[[[[]]]],"more":"A")",
      R"("tau":0.5,"extra":{"a":1,})",
      R"("tau":0.5,"extra":[1,])",
      // Numbers that saturate, and signed zeros.
      R"("tau":1e999)",
      R"("tau":-1e999)",
      R"("tau":-1e-400)",
      R"("tau":-0)",
      R"("tau":2.4e-324)",
      R"("tau":0.5,"max_rel_error":1e999)",
      R"("tau":0.5,"max_rel_error":-0)",
      R"("id":1e999,"tau":0.5)",
      R"("id":-0,"tau":0.5)",
      R"("id":-1e-400,"tau":0.5)",
      R"("id":9007199254740992,"tau":0.5)",
      R"("id":9007199254740991,"tau":0.5)",
      R"("tau":0.5,"trials":1048577)",
      R"("tau":0.5,"trials":65537)",
      R"("tau":0.5,"trials":1.5)",
      R"("tau":0.5,"seed":-0,"sample_size_h":0,"sample_size_l":-0,"delta":0)",
      R"("tau":0.5,"sample_size_h":1e999)",
      R"("tau":0.5,"timeout_ms":86400001)",
      R"("tau":0.5,"timeout_ms":-1e-400)",
      R"("tau":01)",
      R"("tau":.5)",
      R"("tau":+1)",
      R"("tau":1.)",
      R"("tau":1e)",
      R"("tau":NaN)",
      R"("tau":Infinity)",
      R"("tau":nul)",
  };
  for (const char* members : kMembers) {
    corpus.push_back("{\"id\":1," + estimate + "," + members + "}");
  }
  const std::string kFrames[] = {
      // Other ops with damaged or saturating fields.
      R"({"id":2,"op":"insert","tenant":"churn","vector_id":-0})",
      R"({"id":2,"op":"insert","tenant":"churn","vector_id":4294967296})",
      R"({"id":2,"op":"remove","tenant":"churn"})",
      R"({"id":2,"op":"erase","tenant":"churn","vector_id":"1"})",
      R"({"id":2,"op":"sleep","sleep_ms":10001})",
      R"({"id":2,"op":"sleep","sleep_ms":1e999})",
      R"({"id":2,"op":"stats"})",
      R"({"id":2,"op":"stats","tenant":""})",
      R"({"id":2,"op":"ping","tenant":5})",
      R"({"id":2,"op":"ping","timeout_ms":"x"})",
      R"({"id":2,"op":"launch","tenant":"wiki"})",
      R"({"id":2,"op":5})",
      R"({"id":2})",
      R"({"op":"ping"})",
      // features arrays.
      R"({"op":"add_vector","tenant":"c","features":[]})",
      R"({"op":"add_vector","tenant":"c","features":[[1,1],[1,2]]})",
      R"({"op":"add_vector","tenant":"c","features":[[2,1],[1,2]]})",
      R"({"op":"add_vector","tenant":"c","features":[[1,0]]})",
      R"({"op":"add_vector","tenant":"c","features":[[1,-0]]})",
      R"({"op":"add_vector","tenant":"c","features":[[1,1e999]]})",
      R"({"op":"add_vector","tenant":"c","features":[[-1,1]]})",
      R"({"op":"add_vector","tenant":"c","features":[[1.5,1]]})",
      R"({"op":"add_vector","tenant":"c","features":[[4294967296,1]]})",
      R"({"op":"add_vector","tenant":"c","features":[[1,1,1]]})",
      R"({"op":"add_vector","tenant":"c","features":[[1,{"w":1}]]})",
      R"({"op":"add_vector","tenant":"c","features":[1,1]})",
      R"({"op":"add_vector","tenant":"c","features":{"1":1}})",
      R"({"op":"add_vector","tenant":"c"})",
      R"({"op":"add_vector","tenant":"c","features":[[3,0.1],[9,1e-45]]})",
      R"({"op":"add_vector","tenant":"c","features":[[1,1]],)"
      R"("features":[[2,2]]})",
      // Documents that are not a request object.
      "",
      " ",
      "[]",
      "[1,2]",
      "5",
      "-0",
      "\"s\"",
      "null",
      "true",
      "false",
      "{}",
      " {} ",
      "{} x",
      "{}{}",
      "{,}",
      "{\"a\"}",
      "{\"a\":}",
      "{\"a\" 1}",
      "{1:2}",
      "{\"op\":\"ping\",}",
      "{\"op\":\"ping\"",
      "{\"op\":\"ping\" \"id\":1}",
      "\xEF\xBB\xBF{}",
      std::string("{\"op\":\"ping\"}\0", 14),
      std::string("{\"op\":\"pi\0ng\"}", 14),
  };
  for (const std::string& frame : kFrames) corpus.push_back(frame);
  // Nesting around the depth limit (64): the top-level object is depth 0.
  for (const size_t depth : {63, 64, 65}) {
    const std::string open(depth, '['), close(depth, ']');
    corpus.push_back(open + close);
    corpus.push_back(R"({"op":"ping","extra":)" + open + close + "}");
    corpus.push_back(R"({"op":"add_vector","tenant":"c","features":)" + open +
                     close + "}");
  }
  return corpus;
}

/// Every output of a decode, doubles by bit pattern, as one line.
std::string Describe(RpcError code, const std::string& error,
                     const RpcRequest& request) {
  const auto bits = [](double v) {
    uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return static_cast<unsigned long long>(u);
  };
  const auto optional = [](const std::optional<uint64_t>& v) {
    return v.has_value() ? std::to_string(*v) : std::string("none");
  };
  const EstimateRequest& e = request.estimate;
  char numbers[512];
  std::snprintf(numbers, sizeof(numbers),
                " id=%llu op=%d tau=%016llx trials=%zu seed=%llu "
                "max_rel_error=%016llx vector_id=%llu timeout_ms=%llu "
                "sleep_ms=%llu",
                static_cast<unsigned long long>(request.id),
                static_cast<int>(request.op), bits(e.tau), e.trials,
                static_cast<unsigned long long>(e.seed),
                bits(e.max_rel_error),
                static_cast<unsigned long long>(request.vector_id),
                static_cast<unsigned long long>(request.timeout_ms),
                static_cast<unsigned long long>(request.sleep_ms));
  std::string out = std::string(RpcErrorName(code)) + " [" + error + "]" +
                    numbers + " tenant=[" + request.tenant + "] estimator=[" +
                    e.estimator_name + "] h=" + optional(e.sample_size_h) +
                    " l=" + optional(e.sample_size_l) +
                    " delta=" + optional(e.delta) + " features=";
  for (const Feature& f : request.features) {
    float weight = f.weight;
    uint32_t weight_bits = 0;
    std::memcpy(&weight_bits, &weight, sizeof(weight_bits));
    out += std::to_string(f.dim) + ":" + std::to_string(weight_bits) + ",";
  }
  return out;
}

TEST(DecodeRpcRequestTest, MatchesParseJsonThenParseRpcRequest) {
  const std::vector<std::string> corpus = DecodeCorpus();
  std::map<RpcError, size_t> codes;
  for (const std::string& frame : corpus) {
    RpcRequest decoded;
    std::string decode_error;
    const RpcError decode_code =
        DecodeRpcRequest(frame, &decoded, &decode_error);

    // The server's decode before it ran in one pass.
    RpcRequest parsed;
    std::string parse_error;
    JsonValue doc;
    const RpcError parse_code =
        ParseJson(frame, &doc, &parse_error)
            ? ParseRpcRequest(doc, &parsed, &parse_error)
            : RpcError::kBadJson;

    EXPECT_EQ(Describe(decode_code, decode_error, decoded),
              Describe(parse_code, parse_error, parsed))
        << "frame: " << ::testing::PrintToString(frame);
    ++codes[decode_code];
  }
  // The corpus reaches every outcome the decoder has.
  EXPECT_GT(codes[RpcError::kNone], 50u);
  EXPECT_GT(codes[RpcError::kBadJson], 500u);
  EXPECT_GT(codes[RpcError::kBadRequest], 50u);
  EXPECT_GT(codes[RpcError::kUnknownOp], 5u);
}

TEST(DecodeRpcRequestTest, CapsTrialsAtTheValidationCap) {
  RpcRequest request;
  std::string error;
  EXPECT_EQ(DecodeRpcRequest(
                R"({"op":"estimate","tenant":"w","tau":0.5,"trials":65537})",
                &request, &error),
            RpcError::kBadRequest);
  EXPECT_EQ(error, "trials is out of range");
  EXPECT_EQ(DecodeRpcRequest(
                R"({"op":"estimate","tenant":"w","tau":0.5,"trials":65536})",
                &request, &error),
            RpcError::kNone);
  EXPECT_EQ(request.estimate.trials, kMaxTrials);
}

TEST(DecodeRpcRequestTest, FillsTheIdOfARejectedRequest) {
  RpcRequest request;
  std::string error;
  EXPECT_EQ(DecodeRpcRequest(R"({"id":41,"op":"estimate","tenant":"w"})",
                             &request, &error),
            RpcError::kBadRequest);
  EXPECT_EQ(request.id, 41u);
  EXPECT_EQ(error, "tau is required");
  EXPECT_EQ(DecodeRpcRequest(R"({"id":41,"op":"ping"} x)", &request, &error),
            RpcError::kBadJson);
  EXPECT_EQ(request.id, 0u);
  EXPECT_EQ(error, "trailing bytes after document at byte 22");
}

}  // namespace
}  // namespace vsj::net
