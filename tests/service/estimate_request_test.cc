// Tests of the EstimateRequest validation layer: the zero-budget NaN edges
// of the sampling templates must be rejected before they reach an engine.

#include "vsj/service/estimate_request.h"

#include <limits>

#include <gtest/gtest.h>

namespace vsj {
namespace {

TEST(EstimateRequestTest, DefaultRequestIsValid) {
  EXPECT_EQ(ValidateEstimateRequest(EstimateRequest{}), nullptr);
}

TEST(EstimateRequestTest, EngagedOverridesAreValidWhenPositive) {
  EstimateRequest request;
  request.sample_size_h = 100;
  request.sample_size_l = 100;
  request.delta = 8;
  request.max_rel_error = 0.05;
  EXPECT_EQ(ValidateEstimateRequest(request), nullptr);
  EXPECT_TRUE(request.HasSamplingOverrides());
  EXPECT_FALSE(EstimateRequest{}.HasSamplingOverrides());
}

TEST(EstimateRequestTest, RejectsZeroTrials) {
  EstimateRequest request;
  request.trials = 0;
  EXPECT_NE(ValidateEstimateRequest(request), nullptr);
}

TEST(EstimateRequestTest, RejectsTrialsAboveTheCap) {
  EstimateRequest request;
  request.trials = kMaxTrials;
  EXPECT_EQ(ValidateEstimateRequest(request), nullptr);
  request.trials = kMaxTrials + 1;
  EXPECT_STREQ(ValidateEstimateRequest(request), "trials must be <= 65536");
}

TEST(EstimateRequestTest, RejectsNonFiniteTau) {
  EstimateRequest request;
  request.tau = std::numeric_limits<double>::infinity();
  EXPECT_NE(ValidateEstimateRequest(request), nullptr);
  request.tau = -std::numeric_limits<double>::infinity();
  EXPECT_NE(ValidateEstimateRequest(request), nullptr);
  request.tau = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(ValidateEstimateRequest(request), nullptr);
}

// Pre-PR regression: τ outside (0, 1] used to pass validation and reach
// the sampling loops (τ ≤ 0 selects every pair, τ > 1 none) — the CLI had
// its own range check but the service API accepted nonsense, so any
// network request could smuggle it in.
TEST(EstimateRequestTest, RejectsOutOfRangeTau) {
  EstimateRequest request;
  request.tau = 0.0;
  EXPECT_NE(ValidateEstimateRequest(request), nullptr);
  request.tau = -0.5;
  EXPECT_NE(ValidateEstimateRequest(request), nullptr);
  request.tau = 1.0000001;
  EXPECT_NE(ValidateEstimateRequest(request), nullptr);
  request.tau = 1.0;  // the inclusive upper edge stays valid
  EXPECT_EQ(ValidateEstimateRequest(request), nullptr);
  request.tau = 1e-9;  // tiny but positive stays valid
  EXPECT_EQ(ValidateEstimateRequest(request), nullptr);
}

// The named-diagnostic contract: NaN, ±inf and out-of-range each get a
// distinct message, so a typed RPC error can name the exact violation.
TEST(EstimateRequestTest, DiagnosticsNameTheViolation) {
  EstimateRequest request;
  request.tau = std::numeric_limits<double>::quiet_NaN();
  EXPECT_STREQ(ValidateEstimateRequest(request), "tau must not be NaN");
  request.tau = std::numeric_limits<double>::infinity();
  EXPECT_STREQ(ValidateEstimateRequest(request), "tau must be finite");
  request.tau = 2.0;
  EXPECT_STREQ(ValidateEstimateRequest(request), "tau must be in (0, 1]");
  request.tau = 0.8;
  request.max_rel_error = std::numeric_limits<double>::quiet_NaN();
  EXPECT_STREQ(ValidateEstimateRequest(request),
               "max_rel_error must not be NaN");
}

TEST(EstimateRequestTest, RejectsBadErrorBound) {
  EstimateRequest request;
  request.max_rel_error = -0.1;
  EXPECT_NE(ValidateEstimateRequest(request), nullptr);
  request.max_rel_error = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(ValidateEstimateRequest(request), nullptr);
}

TEST(EstimateRequestTest, RejectsEngagedZeroBudgets) {
  // delta = 0 and zero sample budgets are the NaN edges of SampleStratumL /
  // SampleStratumH; an engaged zero must be refused, while nullopt (defer
  // to engine defaults) stays valid.
  EstimateRequest request;
  request.delta = 0;
  EXPECT_NE(ValidateEstimateRequest(request), nullptr);
  request.delta.reset();
  request.sample_size_h = 0;
  EXPECT_NE(ValidateEstimateRequest(request), nullptr);
  request.sample_size_h.reset();
  request.sample_size_l = 0;
  EXPECT_NE(ValidateEstimateRequest(request), nullptr);
  request.sample_size_l.reset();
  EXPECT_EQ(ValidateEstimateRequest(request), nullptr);
}

}  // namespace
}  // namespace vsj
