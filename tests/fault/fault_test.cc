// Unit tests of the fault-injection framework itself: spec parsing,
// activation determinism (nth / repeat / probability), the macro gate,
// IoStatus mapping, and the kCrash death path.

#include "vsj/fault/fault.h"

#include <csignal>
#include <chrono>
#include <string>

#include <gtest/gtest.h>

namespace vsj::fault {
namespace {

class FaultTest : public testing::Test {
 protected:
  void SetUp() override { ClearAll(); }
  void TearDown() override { ClearAll(); }
};

TEST_F(FaultTest, ParseMinimalSpec) {
  FaultSpec spec;
  std::string error;
  ASSERT_TRUE(ParseFaultSpec("io.atomic.rename", &spec, &error)) << error;
  EXPECT_EQ(spec.point, "io.atomic.rename");
  EXPECT_EQ(spec.kind, FaultKind::kIoError);
  EXPECT_EQ(spec.nth, 1u);
  EXPECT_FALSE(spec.repeat);
  EXPECT_EQ(spec.probability, 0.0);
}

TEST_F(FaultTest, ParseFullSpec) {
  FaultSpec spec;
  std::string error;
  ASSERT_TRUE(ParseFaultSpec(
      "net.write:kind=short_write:nth=3:repeat:seed=7:arg=5", &spec, &error))
      << error;
  EXPECT_EQ(spec.point, "net.write");
  EXPECT_EQ(spec.kind, FaultKind::kShortWrite);
  EXPECT_EQ(spec.nth, 3u);
  EXPECT_TRUE(spec.repeat);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_EQ(spec.arg, 5u);
}

TEST_F(FaultTest, ParseProbabilitySpec) {
  FaultSpec spec;
  std::string error;
  ASSERT_TRUE(ParseFaultSpec("net.frame:p=0.25:kind=reset", &spec, &error))
      << error;
  EXPECT_DOUBLE_EQ(spec.probability, 0.25);
  EXPECT_EQ(spec.kind, FaultKind::kReset);
}

TEST_F(FaultTest, ParseRejectsMalformedSpecs) {
  FaultSpec spec;
  std::string error;
  EXPECT_FALSE(ParseFaultSpec("", &spec, &error));
  EXPECT_FALSE(ParseFaultSpec("point:garbage", &spec, &error));
  EXPECT_FALSE(ParseFaultSpec("point:kind=nope", &spec, &error));
  EXPECT_FALSE(ParseFaultSpec("point:nth=0", &spec, &error));
  EXPECT_FALSE(ParseFaultSpec("point:p=1.5", &spec, &error));
  EXPECT_FALSE(ParseFaultSpec("point:p=abc", &spec, &error));
  EXPECT_FALSE(ParseFaultSpec("point:unknown=1", &spec, &error));
  EXPECT_FALSE(error.empty());
}

TEST_F(FaultTest, ArmFromStringArmsEveryPoint) {
  std::string error;
  ASSERT_TRUE(
      ArmFromString("a.one,b.two:nth=2,c.three:kind=crash", &error))
      << error;
  const std::vector<std::string> points = ArmedPoints();
  EXPECT_EQ(points.size(), 3u);
  EXPECT_TRUE(Enabled());
  EXPECT_TRUE(Disarm("a.one"));
  EXPECT_FALSE(Disarm("a.one"));
  ClearAll();
  EXPECT_FALSE(Enabled());
}

TEST_F(FaultTest, ArmFromStringRejectsBadItem) {
  std::string error;
  EXPECT_FALSE(ArmFromString("good.point,bad:point:kind=nope", &error));
  EXPECT_FALSE(error.empty());
}

TEST_F(FaultTest, KindNamesRoundTrip) {
  EXPECT_STREQ(FaultKindName(FaultKind::kCrash), "crash");
  EXPECT_STREQ(FaultKindName(FaultKind::kChecksumMismatch), "checksum");
  FaultSpec spec;
  std::string error;
  for (const char* name :
       {"io_error", "not_found", "bad_magic", "unsupported_version",
        "corrupt", "checksum", "short_write", "reset", "stall", "torn",
        "crash"}) {
    ASSERT_TRUE(
        ParseFaultSpec(std::string("p:kind=") + name, &spec, &error))
        << name;
    EXPECT_STREQ(FaultKindName(spec.kind), name);
  }
}

TEST_F(FaultTest, InjectedIoStatusMapsKinds) {
  const IoStatus io =
      InjectedIoStatus("x.y", FaultKind::kIoError, "/tmp/f");
  EXPECT_EQ(io.code, IoError::kIoError);
  EXPECT_EQ(io.path, "/tmp/f");
  EXPECT_NE(io.reason.find("x.y"), std::string::npos);
  EXPECT_EQ(InjectedIoStatus("p", FaultKind::kNotFound, "").code,
            IoError::kNotFound);
  EXPECT_EQ(InjectedIoStatus("p", FaultKind::kBadMagic, "").code,
            IoError::kBadMagic);
  EXPECT_EQ(InjectedIoStatus("p", FaultKind::kUnsupportedVersion, "").code,
            IoError::kUnsupportedVersion);
  EXPECT_EQ(InjectedIoStatus("p", FaultKind::kCorrupt, "").code,
            IoError::kCorrupt);
  EXPECT_EQ(InjectedIoStatus("p", FaultKind::kChecksumMismatch, "").code,
            IoError::kChecksumMismatch);
  // Non-io kinds degrade to the generic io error if routed here.
  EXPECT_EQ(InjectedIoStatus("p", FaultKind::kReset, "").code,
            IoError::kIoError);
}

TEST_F(FaultTest, CheckHitFiresExactlyOnNth) {
  FaultSpec spec;
  spec.point = "t.nth";
  spec.nth = 3;
  Arm(spec);
  EXPECT_FALSE(CheckHit("t.nth").fired());
  EXPECT_FALSE(CheckHit("t.nth").fired());
  EXPECT_TRUE(CheckHit("t.nth").fired());
  EXPECT_FALSE(CheckHit("t.nth").fired());  // once, not from-nth-on
  EXPECT_EQ(HitCount("t.nth"), 4u);
  EXPECT_EQ(FiredCount("t.nth"), 1u);
}

TEST_F(FaultTest, CheckHitRepeatFiresFromNthOn) {
  FaultSpec spec;
  spec.point = "t.repeat";
  spec.nth = 2;
  spec.repeat = true;
  Arm(spec);
  EXPECT_FALSE(CheckHit("t.repeat").fired());
  EXPECT_TRUE(CheckHit("t.repeat").fired());
  EXPECT_TRUE(CheckHit("t.repeat").fired());
  EXPECT_EQ(FiredCount("t.repeat"), 2u);
}

TEST_F(FaultTest, ProbabilityActivationIsSeedDeterministic) {
  const auto run = [](uint64_t seed) {
    FaultSpec spec;
    spec.point = "t.prob";
    spec.probability = 0.5;
    spec.seed = seed;
    Arm(spec);
    std::string pattern;
    for (int i = 0; i < 64; ++i) {
      pattern += CheckHit("t.prob").fired() ? '1' : '0';
    }
    ClearAll();
    return pattern;
  };
  const std::string first = run(11);
  EXPECT_EQ(first, run(11));        // same seed → same firing pattern
  EXPECT_NE(first, run(12));        // different seed → different pattern
  EXPECT_NE(first.find('1'), std::string::npos);
  EXPECT_NE(first.find('0'), std::string::npos);
}

TEST_F(FaultTest, UnarmedPointNeverFires) {
  EXPECT_FALSE(CheckHit("never.armed").fired());
  EXPECT_EQ(HitCount("never.armed"), 0u);
}

TEST_F(FaultTest, HitCarriesKindAndArg) {
  FaultSpec spec;
  spec.point = "t.arg";
  spec.kind = FaultKind::kShortWrite;
  spec.arg = 7;
  Arm(spec);
  const FaultHit hit = CheckHit("t.arg");
  ASSERT_TRUE(hit.fired());
  EXPECT_EQ(hit.kind, FaultKind::kShortWrite);
  EXPECT_EQ(hit.arg, 7u);
}

TEST_F(FaultTest, StallSleepsThenProceeds) {
  FaultSpec spec;
  spec.point = "t.stall";
  spec.kind = FaultKind::kStall;
  spec.arg = 30;  // ms
  Arm(spec);
  const auto start = std::chrono::steady_clock::now();
  const FaultHit hit = CheckHit("t.stall");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(hit.fired());  // the op proceeds after the stall
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            25);
  EXPECT_EQ(FiredCount("t.stall"), 1u);
}

TEST_F(FaultTest, MacroRespectsRuntimeGate) {
  // Nothing armed: the macro is inert.
  EXPECT_FALSE(VSJ_FAULT_HIT("t.macro").fired());
  FaultSpec spec;
  spec.point = "t.macro";
  Arm(spec);
  EXPECT_TRUE(VSJ_FAULT_HIT("t.macro").fired());
}

IoStatus FunctionWithFaultPoint(const std::string& path) {
  VSJ_FAULT_IO("t.io_macro", path);
  return IoStatus::Ok();
}

TEST_F(FaultTest, IoMacroReturnsInjectedStatus) {
  EXPECT_TRUE(FunctionWithFaultPoint("/x").ok());
  FaultSpec spec;
  spec.point = "t.io_macro";
  spec.kind = FaultKind::kCorrupt;
  Arm(spec);
  const IoStatus status = FunctionWithFaultPoint("/x");
  EXPECT_EQ(status.code, IoError::kCorrupt);
  EXPECT_EQ(status.path, "/x");
  EXPECT_NE(status.reason.find("t.io_macro"), std::string::npos);
}

using FaultDeathTest = FaultTest;

TEST_F(FaultDeathTest, CrashKindKillsTheProcessWithSigkill) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        FaultSpec spec;
        spec.point = "t.crash";
        spec.kind = FaultKind::kCrash;
        Arm(spec);
        (void)CheckHit("t.crash");
      },
      testing::KilledBySignal(SIGKILL), "");
}

}  // namespace
}  // namespace vsj::fault
