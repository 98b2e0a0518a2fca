// MetricRegistry behavior: name → stable primitive, sorted snapshots,
// value reset, the runtime enable flag, and the instrumentation macros'
// no-op contract when metrics are disabled.
//
// The registry is a process-wide singleton, so every test uses unique
// metric names ("regtest.*") and restores EnableMetrics(false) on exit.

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "vsj/obs/metrics.h"
#include "vsj/obs/obs.h"

namespace vsj::obs {
namespace {

class MetricRegistryTest : public ::testing::Test {
 protected:
  void TearDown() override { EnableMetrics(false); }
};

TEST_F(MetricRegistryTest, SameNameReturnsSameObject) {
  Counter& a = MetricRegistry::Global().GetCounter("regtest.same_name");
  Counter& b = MetricRegistry::Global().GetCounter("regtest.same_name");
  EXPECT_EQ(&a, &b);
  Histogram& ha = MetricRegistry::Global().GetHistogram("regtest.same_hist");
  Histogram& hb = MetricRegistry::Global().GetHistogram("regtest.same_hist");
  EXPECT_EQ(&ha, &hb);
}

TEST_F(MetricRegistryTest, CounterSumsAcrossThreads) {
  Counter& counter =
      MetricRegistry::Global().GetCounter("regtest.threaded_counter");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST_F(MetricRegistryTest, GaugeSetAndAdd) {
  Gauge& gauge = MetricRegistry::Global().GetGauge("regtest.gauge");
  gauge.Set(42);
  EXPECT_EQ(gauge.Value(), 42);
  gauge.Add(-50);
  EXPECT_EQ(gauge.Value(), -8);
}

TEST_F(MetricRegistryTest, SnapshotIsNameSortedAndFindable) {
  MetricRegistry::Global().GetCounter("regtest.snap.zzz").Add(3);
  MetricRegistry::Global().GetCounter("regtest.snap.aaa").Add(7);
  MetricRegistry::Global().GetGauge("regtest.snap.mmm").Set(-2);
  const RegistrySnapshot snapshot = MetricRegistry::Global().Snapshot();
  ASSERT_GE(snapshot.samples.size(), 3u);
  for (size_t i = 1; i < snapshot.samples.size(); ++i) {
    EXPECT_LT(snapshot.samples[i - 1].name, snapshot.samples[i].name);
  }
  const MetricSample* aaa = snapshot.Find("regtest.snap.aaa");
  ASSERT_NE(aaa, nullptr);
  EXPECT_EQ(aaa->type, MetricType::kCounter);
  EXPECT_EQ(aaa->counter_value, 7u);
  const MetricSample* mmm = snapshot.Find("regtest.snap.mmm");
  ASSERT_NE(mmm, nullptr);
  EXPECT_EQ(mmm->gauge_value, -2);
  EXPECT_EQ(snapshot.Find("regtest.snap.absent"), nullptr);
  EXPECT_GT(snapshot.taken_at_ns, 0u);
}

TEST_F(MetricRegistryTest, ResetValuesKeepsRegistrations) {
  Counter& counter = MetricRegistry::Global().GetCounter("regtest.reset.c");
  Histogram& hist = MetricRegistry::Global().GetHistogram("regtest.reset.h");
  counter.Add(5);
  hist.Record(100);
  const size_t size_before = MetricRegistry::Global().size();
  MetricRegistry::Global().ResetValues();
  EXPECT_EQ(MetricRegistry::Global().size(), size_before);
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_EQ(hist.Snapshot().count, 0u);
  // The same references are still live and recordable.
  counter.Add(2);
  EXPECT_EQ(counter.Value(), 2u);
}

TEST_F(MetricRegistryTest, MacrosAreNoOpsWhenDisabled) {
  EnableMetrics(false);
  VSJ_COUNTER_ADD("regtest.macro.disabled", 10);
  VSJ_HIST_RECORD("regtest.macro.disabled_hist", 123);
  VSJ_GAUGE_SET("regtest.macro.disabled_gauge", 9);
  const RegistrySnapshot snapshot = MetricRegistry::Global().Snapshot();
  // Disabled at runtime: the macro must not even register the name.
  EXPECT_EQ(snapshot.Find("regtest.macro.disabled"), nullptr);
  EXPECT_EQ(snapshot.Find("regtest.macro.disabled_hist"), nullptr);
  EXPECT_EQ(snapshot.Find("regtest.macro.disabled_gauge"), nullptr);
}

TEST_F(MetricRegistryTest, MacrosRecordWhenEnabled) {
  EnableMetrics(true);
  VSJ_COUNTER_ADD("regtest.macro.enabled", 4);
  VSJ_COUNTER_ADD("regtest.macro.enabled", 6);
  VSJ_HIST_RECORD("regtest.macro.enabled_hist", 77);
  VSJ_GAUGE_SET("regtest.macro.enabled_gauge", -3);
  EnableMetrics(false);
  const RegistrySnapshot snapshot = MetricRegistry::Global().Snapshot();
  const MetricSample* counter = snapshot.Find("regtest.macro.enabled");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->counter_value, 10u);
  const MetricSample* hist = snapshot.Find("regtest.macro.enabled_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->histogram.count, 1u);
  EXPECT_EQ(hist->histogram.max, 77u);
  const MetricSample* gauge = snapshot.Find("regtest.macro.enabled_gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->gauge_value, -3);
}

TEST_F(MetricRegistryTest, MonotonicClockAdvances) {
  const uint64_t a = MonotonicNowNs();
  const uint64_t b = MonotonicNowNs();
  EXPECT_LE(a, b);
}

TEST_F(MetricRegistryTest, ConcurrentGetAndSnapshot) {
  // Races between name registration and Snapshot must be benign.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 200; ++i) {
        const std::string name =
            "regtest.concurrent." + std::to_string(t) + "." +
            std::to_string(i % 10);
        MetricRegistry::Global().GetCounter(name).Add(1);
      }
    });
  }
  for (int s = 0; s < 20; ++s) {
    (void)MetricRegistry::Global().Snapshot();
  }
  for (std::thread& t : threads) t.join();
  const RegistrySnapshot snapshot = MetricRegistry::Global().Snapshot();
  const MetricSample* sample = snapshot.Find("regtest.concurrent.0.0");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->counter_value, 20u);
}

}  // namespace
}  // namespace vsj::obs
