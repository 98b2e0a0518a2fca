// Torn-write restore fuzz: a VSJS checkpoint truncated at every section
// boundary — and at byte-offset samples inside each section — must make
// Restore return a named IoStatus: never crash, never half-restore, and
// the error names the offending section (or the truncated structure).
//
// The torn files are produced two ways:
//   * through the io.atomic.commit kind=torn fault point, which drives
//     the real writer down the unsafe path (truncate + skip fsync +
//     rename) a power cut would expose — proving the *writer's* failure
//     mode is survivable end to end;
//   * by truncating byte copies of an intact snapshot, the exhaustive
//     sweep over every boundary.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "vsj/fault/fault.h"
#include "vsj/gen/corpus_generator.h"
#include "vsj/gen/workloads.h"
#include "vsj/io/vsjb_format.h"
#include "vsj/service/streaming_estimation_service.h"

namespace vsj {
namespace {

constexpr size_t kCorpusSize = 120;

class TornSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::ClearAll();
    path_ = ::testing::TempDir() + "/torn_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".vsjs";
    StreamingEstimationServiceOptions options;
    options.k = 8;
    options.family_seed = 0x5eedULL;
    engine_ = std::make_unique<StreamingEstimationService>(
        GenerateCorpus(DblpLikeConfig(kCorpusSize, 3)), options);
    for (VectorId id = 0; id < kCorpusSize; ++id) engine_->Insert(id);
    ASSERT_TRUE(engine_->Checkpoint(path_).ok());

    std::ifstream is(path_, std::ios::binary);
    std::ostringstream buffer;
    buffer << is.rdbuf();
    intact_ = buffer.str();
    ASSERT_GT(intact_.size(), sizeof(VsjbHeader));

    ASSERT_TRUE(ValidateVsjbImage(intact_.data(), intact_.size(), kVsjsMagic,
                                  kVsjsVersion, /*verify_checksums=*/true,
                                  &contents_)
                    .ok());
    ASSERT_GT(contents_.entries.size(), 3u);
  }

  void TearDown() override {
    fault::ClearAll();
    std::remove(path_.c_str());
  }

  void WriteTruncated(uint64_t length) {
    std::ofstream os(path_, std::ios::binary | std::ios::trunc);
    os.write(intact_.data(),
             static_cast<std::streamsize>(
                 std::min<uint64_t>(length, intact_.size())));
  }

  // Restore must fail with a named reason and leave *service null.
  IoStatus ExpectNamedFailure(uint64_t cut) {
    std::unique_ptr<StreamingEstimationService> service;
    const IoStatus status =
        StreamingEstimationService::Restore(path_, &service);
    EXPECT_FALSE(status.ok()) << "cut at byte " << cut
                              << " restored successfully";
    EXPECT_EQ(service, nullptr) << "half-restored at cut " << cut;
    EXPECT_FALSE(status.reason.empty()) << "unnamed failure at cut " << cut;
    EXPECT_EQ(status.path, path_);
    return status;
  }

  std::string path_;
  std::string intact_;
  VsjbImage contents_;  // the section table of intact_
  std::unique_ptr<StreamingEstimationService> engine_;
};

TEST_F(TornSnapshotTest, TruncationAtEveryBoundaryFailsNamed) {
  // Cut points: inside the header, at the name/table boundary, at every
  // section's start, a sample inside every section, and just before EOF.
  std::set<uint64_t> cuts = {0, 1, sizeof(VsjbHeader) / 2,
                             sizeof(VsjbHeader), intact_.size() - 1};
  for (const VsjbSectionEntry& entry : contents_.entries) {
    cuts.insert(entry.offset);
    if (entry.length > 1) cuts.insert(entry.offset + entry.length / 2);
    cuts.insert(entry.offset + entry.length);
  }
  size_t named_section = 0;
  for (const uint64_t cut : cuts) {
    if (cut >= intact_.size()) continue;
    WriteTruncated(cut);
    const IoStatus status = ExpectNamedFailure(cut);
    // Every failure class a truncation can produce is structural.
    EXPECT_TRUE(status.code == IoError::kCorrupt ||
                status.code == IoError::kChecksumMismatch)
        << "cut " << cut << ": " << status.ToString();
    if (status.reason.find("section") != std::string::npos) ++named_section;
  }
  // Most cuts land inside section payloads; those errors must name the
  // section ("section XXXX is truncated" / checksum "section XXXX").
  EXPECT_GE(named_section, contents_.entries.size());
}

TEST_F(TornSnapshotTest, BitFlipInEverySectionFailsChecksum) {
  for (const VsjbSectionEntry& entry : contents_.entries) {
    if (entry.length == 0) continue;
    std::string flipped = intact_;
    flipped[entry.offset + entry.length / 2] ^= 0x40;
    {
      std::ofstream os(path_, std::ios::binary | std::ios::trunc);
      os.write(flipped.data(),
               static_cast<std::streamsize>(flipped.size()));
    }
    std::unique_ptr<StreamingEstimationService> service;
    const IoStatus status =
        StreamingEstimationService::Restore(path_, &service);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(service, nullptr);
    EXPECT_EQ(status.code, IoError::kChecksumMismatch);
    EXPECT_NE(status.reason.find("section"), std::string::npos);
  }
}

TEST_F(TornSnapshotTest, IntactSnapshotStillRestores) {
  std::unique_ptr<StreamingEstimationService> service;
  ASSERT_TRUE(StreamingEstimationService::Restore(path_, &service).ok());
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(service->num_live(), kCorpusSize);
}

TEST_F(TornSnapshotTest, TornCommitFaultProducesNamedRestoreFailure) {
  // Drive the writer itself down the power-loss path at a few depths.
  for (const uint64_t torn_bytes :
       {uint64_t{0}, uint64_t{64}, uint64_t{1024},
        uint64_t{intact_.size() / 2}}) {
    fault::FaultSpec spec;
    spec.point = "io.atomic.commit";
    spec.kind = fault::FaultKind::kTorn;
    spec.arg = torn_bytes;
    fault::Arm(spec);
    ASSERT_TRUE(engine_->Checkpoint(path_).ok());  // believes it succeeded
    fault::ClearAll();
    ExpectNamedFailure(torn_bytes);
    // The drill contract: a failed restore leaves the torn bytes in
    // place for forensics; rewriting the checkpoint cleanly recovers.
    ASSERT_TRUE(engine_->Checkpoint(path_).ok());
    std::unique_ptr<StreamingEstimationService> service;
    ASSERT_TRUE(StreamingEstimationService::Restore(path_, &service).ok());
  }
}

TEST_F(TornSnapshotTest, InjectedSectionWriteFailureLeavesOldSnapshot) {
  // Fail the Nth section write inside VsjbFileWriter::WriteTo for every
  // section: Checkpoint must report the failure and the previous
  // snapshot must stay byte-intact (AtomicFileWriter never promoted).
  for (uint64_t nth = 1; nth <= contents_.entries.size(); ++nth) {
    fault::FaultSpec spec;
    spec.point = "io.vsjb.write_section";
    spec.nth = nth;
    fault::Arm(spec);
    const IoStatus status = engine_->Checkpoint(path_);
    fault::ClearAll();
    ASSERT_FALSE(status.ok()) << "section " << nth;
    std::ifstream is(path_, std::ios::binary);
    std::ostringstream buffer;
    buffer << is.rdbuf();
    ASSERT_EQ(buffer.str(), intact_) << "section " << nth;
  }
}

TEST_F(TornSnapshotTest, InjectedRestoreFaultIsNamed) {
  fault::FaultSpec spec;
  spec.point = "service.restore";
  spec.kind = fault::FaultKind::kIoError;
  fault::Arm(spec);
  const IoStatus status = ExpectNamedFailure(0);
  EXPECT_EQ(status.code, IoError::kIoError);
  EXPECT_NE(status.reason.find("service.restore"), std::string::npos);
}

}  // namespace
}  // namespace vsj
