// AtomicFileWriter: the commit succeeds atomically or the target file is
// untouched — under normal operation and under every injected failure.

#include "vsj/io/atomic_file_writer.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "vsj/fault/fault.h"

namespace vsj {
namespace {

std::string TempPath(const char* name) {
  const testing::TestInfo* info =
      testing::UnitTest::GetInstance()->current_test_info();
  return testing::TempDir() + "afw_" + info->name() + "_" + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream out;
  out << is.rdbuf();
  return out.str();
}

bool Exists(const std::string& path) {
  std::ifstream is(path);
  return static_cast<bool>(is);
}

class AtomicFileWriterTest : public testing::Test {
 protected:
  void SetUp() override { fault::ClearAll(); }
  void TearDown() override { fault::ClearAll(); }
};

TEST_F(AtomicFileWriterTest, CommitReplacesTheFile) {
  const std::string path = TempPath("roundtrip");
  {
    std::ofstream os(path, std::ios::binary);
    os << "old contents";
  }
  AtomicFileWriter writer(path);
  ASSERT_TRUE(writer.Open().ok());
  writer.stream() << "new contents";
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_EQ(ReadAll(path), "new contents");
  EXPECT_FALSE(Exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST_F(AtomicFileWriterTest, CommitCreatesAMissingFile) {
  const std::string path = TempPath("fresh");
  AtomicFileWriter writer(path);
  ASSERT_TRUE(writer.Open().ok());
  writer.stream() << "fresh";
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_EQ(ReadAll(path), "fresh");
  std::remove(path.c_str());
}

TEST_F(AtomicFileWriterTest, AbortLeavesTheOldFile) {
  const std::string path = TempPath("abort");
  {
    std::ofstream os(path, std::ios::binary);
    os << "old contents";
  }
  {
    AtomicFileWriter writer(path);
    ASSERT_TRUE(writer.Open().ok());
    writer.stream() << "half-written";
    writer.Abort();
  }
  EXPECT_EQ(ReadAll(path), "old contents");
  EXPECT_FALSE(Exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST_F(AtomicFileWriterTest, DestructorWithoutCommitCleansUp) {
  const std::string path = TempPath("dtor");
  {
    AtomicFileWriter writer(path);
    ASSERT_TRUE(writer.Open().ok());
    writer.stream() << "abandoned";
  }
  EXPECT_FALSE(Exists(path));
  EXPECT_FALSE(Exists(path + ".tmp"));
}

TEST_F(AtomicFileWriterTest, CommitWithoutOpenFails) {
  AtomicFileWriter writer(TempPath("noopen"));
  EXPECT_FALSE(writer.Commit().ok());
}

TEST_F(AtomicFileWriterTest, OpenFailsInUnwritableDirectory) {
  AtomicFileWriter writer("/nonexistent-dir-vsj/file.bin");
  const IoStatus status = writer.Open();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code, IoError::kIoError);
}

TEST_F(AtomicFileWriterTest, InjectedFsyncFailureKeepsOldFile) {
  const std::string path = TempPath("fsync_fault");
  {
    std::ofstream os(path, std::ios::binary);
    os << "old contents";
  }
  fault::FaultSpec spec;
  spec.point = "io.atomic.fsync";
  fault::Arm(spec);
  AtomicFileWriter writer(path);
  ASSERT_TRUE(writer.Open().ok());
  writer.stream() << "never lands";
  const IoStatus status = writer.Commit();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.reason.find("io.atomic.fsync"), std::string::npos);
  EXPECT_EQ(ReadAll(path), "old contents");
  EXPECT_FALSE(Exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST_F(AtomicFileWriterTest, InjectedRenameFailureKeepsOldFile) {
  const std::string path = TempPath("rename_fault");
  {
    std::ofstream os(path, std::ios::binary);
    os << "old contents";
  }
  fault::FaultSpec spec;
  spec.point = "io.atomic.rename";
  fault::Arm(spec);
  AtomicFileWriter writer(path);
  ASSERT_TRUE(writer.Open().ok());
  writer.stream() << "never lands";
  EXPECT_FALSE(writer.Commit().ok());
  EXPECT_EQ(ReadAll(path), "old contents");
  EXPECT_FALSE(Exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST_F(AtomicFileWriterTest, InjectedOpenFailureTouchesNothing) {
  const std::string path = TempPath("open_fault");
  fault::FaultSpec spec;
  spec.point = "io.atomic.open";
  spec.kind = fault::FaultKind::kNotFound;
  fault::Arm(spec);
  AtomicFileWriter writer(path);
  const IoStatus status = writer.Open();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code, IoError::kNotFound);
  EXPECT_FALSE(Exists(path + ".tmp"));
}

TEST_F(AtomicFileWriterTest, TornCommitPromotesTruncatedBytes) {
  const std::string path = TempPath("torn");
  fault::FaultSpec spec;
  spec.point = "io.atomic.commit";
  spec.kind = fault::FaultKind::kTorn;
  spec.arg = 4;
  fault::Arm(spec);
  AtomicFileWriter writer(path);
  ASSERT_TRUE(writer.Open().ok());
  writer.stream() << "0123456789";
  // The torn commit reports Ok — it models a writer that *believed* it
  // succeeded (no fsync) while the platter kept only a prefix.
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_EQ(ReadAll(path), "0123");
  EXPECT_FALSE(Exists(path + ".tmp"));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vsj
