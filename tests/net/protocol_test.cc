// Response payload bytes, pinned as checked-in literals. The server smoke
// test and server_test compare a build's wire bytes with the same build's
// serializer; these literals hold the bytes themselves fixed across builds,
// so a change to the number writer, the field order or the std-field rule
// shows up here as a diff against text, not as two builds agreeing.

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "vsj/net/protocol.h"

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

TEST(ErrorPayloadTest, CarriesCodeRetryabilityAndEscapedMessage) {
  EXPECT_EQ(MakeErrorPayload(42, RpcError::kOverloaded, "queue \"full\"\n"),
            "{\"id\":42,\"ok\":false,\"error\":\"overloaded\","
            "\"retryable\":true,\"message\":\"queue \\\"full\\\"\\n\"}");
  EXPECT_EQ(MakeErrorPayload(uint64_t{1} << 40, RpcError::kBadRequest,
                             "tau must be finite"),
            "{\"id\":1099511627776,\"ok\":false,\"error\":\"bad_request\","
            "\"retryable\":false,\"message\":\"tau must be finite\"}");
}

}  // namespace
}  // namespace vsj::net
