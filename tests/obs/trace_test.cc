// TraceSpan and TraceCollector: spans feed the registry histogram and the
// collector under the right enable flags, End() is idempotent, and the
// Chrome trace serialization keeps nanosecond resolution as zero-padded
// microsecond fractions.
//
// The collector and registry are process singletons; every test uses
// unique span names, clears the global collector, and restores both
// enable flags to off.

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "vsj/obs/metrics.h"
#include "vsj/obs/trace.h"

namespace vsj::obs {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EnableMetrics(false);
    EnableTracing(false);
    TraceCollector::Global().Clear();
  }
  void TearDown() override {
    EnableMetrics(false);
    EnableTracing(false);
    TraceCollector::Global().Clear();
  }
};

TEST_F(TraceTest, SpanFeedsHistogramWhenMetricsOn) {
  EnableMetrics(true);
  {
    TraceSpan span("tracetest.metrics_only_ns");
  }
  EnableMetrics(false);
  const RegistrySnapshot snapshot = MetricRegistry::Global().Snapshot();
  const MetricSample* sample = snapshot.Find("tracetest.metrics_only_ns");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->histogram.count, 1u);
  // Metrics without tracing: no collector event.
  EXPECT_EQ(TraceCollector::Global().size(), 0u);
}

TEST_F(TraceTest, SpanFeedsCollectorWhenTracingOn) {
  EnableTracing(true);
  {
    TraceSpan span("tracetest.tracing_only_ns");
  }
  EnableTracing(false);
  EXPECT_EQ(TraceCollector::Global().size(), 1u);
  // Tracing without metrics: the histogram name must not even register.
  const RegistrySnapshot snapshot = MetricRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.Find("tracetest.tracing_only_ns"), nullptr);
}

TEST_F(TraceTest, SpanIsInertWhenBothOff) {
  {
    TraceSpan span("tracetest.inert_ns");
  }
  EXPECT_EQ(TraceCollector::Global().size(), 0u);
  EXPECT_EQ(
      MetricRegistry::Global().Snapshot().Find("tracetest.inert_ns"),
      nullptr);
}

TEST_F(TraceTest, EndIsIdempotent) {
  EnableMetrics(true);
  EnableTracing(true);
  TraceSpan span("tracetest.idempotent_ns");
  span.End();
  span.End();  // second End and the destructor must both be no-ops
  EnableMetrics(false);
  EnableTracing(false);
  EXPECT_EQ(TraceCollector::Global().size(), 1u);
  const RegistrySnapshot snapshot = MetricRegistry::Global().Snapshot();
  const MetricSample* sample = snapshot.Find("tracetest.idempotent_ns");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->histogram.count, 1u);
}

TEST_F(TraceTest, ChromeTraceKeepsNanosecondResolution) {
  TraceCollector collector;
  collector.Append("alpha", 12005, 3);        // ts 12.005us, dur 0.003us
  collector.Append("beta", 2000000, 1500000); // ts 2000.000us, dur 1500.000us
  std::ostringstream out;
  collector.WriteChromeTrace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Sub-microsecond parts appear as zero-padded fractions.
  EXPECT_NE(json.find("\"ts\":12.005"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":0.003"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":2000.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1500.000"), std::string::npos);
}

TEST_F(TraceTest, ClearResetsSizeAndDropped) {
  TraceCollector collector;
  collector.Append("x", 1, 1);
  collector.Append("y", 2, 2);
  EXPECT_EQ(collector.size(), 2u);
  collector.Clear();
  EXPECT_EQ(collector.size(), 0u);
  EXPECT_EQ(collector.dropped(), 0u);
  std::ostringstream out;
  collector.WriteChromeTrace(out);
  EXPECT_NE(out.str().find("{\"traceEvents\":["), std::string::npos);
}

TEST_F(TraceTest, EventsBeyondTheCapCountAsDropped) {
  TraceCollector collector;
  for (size_t i = 0; i < TraceCollector::kMaxEvents; ++i) {
    collector.Append("fill", i, 1);
  }
  EXPECT_EQ(collector.size(), TraceCollector::kMaxEvents);
  EXPECT_EQ(collector.dropped(), 0u);
  collector.Append("overflow", 0, 1);
  collector.Append("overflow", 1, 1);
  EXPECT_EQ(collector.size(), TraceCollector::kMaxEvents);
  EXPECT_EQ(collector.dropped(), 2u);
  collector.Clear();
  EXPECT_EQ(collector.dropped(), 0u);
}

}  // namespace
}  // namespace vsj::obs
