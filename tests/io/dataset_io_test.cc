#include "vsj/io/dataset_io.h"

#include <cstdio>
#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "vsj/fault/fault.h"
#include "vsj/io/vsjb_format.h"
#include "vsj/service/streaming_estimation_service.h"
#include "vsj/vector/mapped_csr_storage.h"

namespace vsj {
namespace {

void ExpectEqualDatasets(const VectorDataset& a, const VectorDataset& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.name(), b.name());
  for (VectorId id = 0; id < a.size(); ++id) {
    EXPECT_EQ(a[id], b[id]) << "vector " << id;
  }
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

/// Swaps the first two dims of the first vector with at least two features
/// in a VSJB or VSJS image and recomputes the DIMS section checksum, so
/// only the dims-order check can catch it. Returns that vector's index.
uint64_t SwapTwoDimsKeepingChecksums(const char (&magic)[4], uint32_t version,
                                     std::string* bytes) {
  // The validator reads the image through typed pointers: parse an
  // 8-byte-aligned copy.
  std::vector<uint64_t> aligned((bytes->size() + 7) / 8);
  std::memcpy(aligned.data(), bytes->data(), bytes->size());
  VsjbImage image;
  VsjbColumnView columns;
  EXPECT_TRUE(ValidateVsjbImage(aligned.data(), bytes->size(), magic,
                                version, true, &image)
                  .ok());
  EXPECT_TRUE(ResolveVsjbColumns(image, &columns).ok());
  uint64_t vector = 0;
  while (columns.offsets[vector + 1] - columns.offsets[vector] < 2) {
    ++vector;
  }
  const int index = FindVsjbSection(image.entries, kSecDims);
  const VsjbSectionEntry& dims = image.entries[index];
  char* first =
      bytes->data() + dims.offset + columns.offsets[vector] * sizeof(DimId);
  std::swap_ranges(first, first + sizeof(DimId), first + sizeof(DimId));

  VsjbSectionEntry patched = dims;
  patched.checksum = VsjbChecksum(bytes->data() + dims.offset, dims.length);
  const uint64_t table =
      VsjbAlignUp(sizeof(VsjbHeader) + image.header.name_length);
  std::memcpy(bytes->data() + table + index * sizeof(VsjbSectionEntry),
              &patched, sizeof(patched));
  return vector;
}

/// A dataset whose DIMS and WGTS sections each hold over 1 MiB, the size
/// at which a verified open checksums a section on a thread of its own.
VectorDataset LargeSectionDataset() {
  VectorDataset dataset("large-sections");
  std::vector<DimId> dims(256);
  for (uint32_t v = 0; v < 1040; ++v) {
    for (uint32_t f = 0; f < 256; ++f) dims[f] = f * 5 + v % 5;
    dataset.Add(SparseVector::FromDims(dims).ref());
  }
  return dataset;
}

/// The table entry of section `id` in a VSJB or VSJS image.
VsjbSectionEntry SectionEntry(const std::string& bytes,
                              const char (&magic)[4], uint32_t version,
                              uint32_t id) {
  std::vector<uint64_t> aligned((bytes.size() + 7) / 8);
  std::memcpy(aligned.data(), bytes.data(), bytes.size());
  VsjbImage image;
  EXPECT_TRUE(ValidateVsjbImage(aligned.data(), bytes.size(), magic, version,
                                false, &image)
                  .ok());
  const int index = FindVsjbSection(image.entries, id);
  EXPECT_GE(index, 0);
  return image.entries[index];
}

TEST(DatasetIoTest, RoundTripThroughStream) {
  VectorDataset original = testing::SmallClusteredCorpus(150, 1);
  std::stringstream buffer;
  ASSERT_TRUE(WriteDataset(original, buffer).ok());
  VectorDataset loaded;
  uint32_t version = 0;
  ASSERT_TRUE(ReadDataset(buffer, &loaded, &version).ok());
  EXPECT_EQ(version, kVsjbVersion);
  ExpectEqualDatasets(original, loaded);
}

TEST(DatasetIoTest, RoundTripPreservesNormsVerbatim) {
  VectorDataset original = testing::SmallClusteredCorpus(60, 4);
  std::stringstream buffer;
  ASSERT_TRUE(WriteDataset(original, buffer).ok());
  VectorDataset loaded;
  ASSERT_TRUE(ReadDataset(buffer, &loaded).ok());
  for (VectorId id = 0; id < original.size(); ++id) {
    // Bit-identical, not approximately equal: v2 stores the cached norms
    // and the loader adopts them without recomputation.
    EXPECT_EQ(original[id].norm(), loaded[id].norm()) << "vector " << id;
    EXPECT_EQ(original[id].l1_norm(), loaded[id].l1_norm())
        << "vector " << id;
  }
}

TEST(DatasetIoTest, RoundTripEmptyDataset) {
  VectorDataset original("empty");
  std::stringstream buffer;
  ASSERT_TRUE(WriteDataset(original, buffer).ok());
  VectorDataset loaded;
  ASSERT_TRUE(ReadDataset(buffer, &loaded).ok());
  EXPECT_EQ(loaded.size(), 0u);
  EXPECT_EQ(loaded.name(), "empty");
}

TEST(DatasetIoTest, RoundTripDatasetWithEmptyVectors) {
  VectorDataset original("zeros");
  original.Add(SparseVector());
  original.Add(SparseVector({{3, 1.5f}}));
  original.Add(SparseVector());
  std::stringstream buffer;
  ASSERT_TRUE(WriteDataset(original, buffer).ok());
  VectorDataset loaded;
  ASSERT_TRUE(ReadDataset(buffer, &loaded).ok());
  ExpectEqualDatasets(original, loaded);
  EXPECT_EQ(loaded[0].size(), 0u);
  EXPECT_EQ(loaded[2].size(), 0u);
}

TEST(DatasetIoTest, RoundTripPreservesWeights) {
  VectorDataset original("weights");
  original.Add(SparseVector({{1, 0.125f}, {1000000, 3.5f}}));
  std::stringstream buffer;
  ASSERT_TRUE(WriteDataset(original, buffer).ok());
  VectorDataset loaded;
  ASSERT_TRUE(ReadDataset(buffer, &loaded).ok());
  ASSERT_EQ(loaded[0].size(), 2u);
  EXPECT_FLOAT_EQ(loaded[0][0].weight, 0.125f);
  EXPECT_EQ(loaded[0][1].dim, 1000000u);
}

TEST(DatasetIoTest, V1RoundTripStillReadable) {
  VectorDataset original = testing::SmallClusteredCorpus(80, 2);
  std::stringstream buffer;
  ASSERT_TRUE(WriteDatasetV1(original, buffer).ok());
  VectorDataset loaded;
  uint32_t version = 0;
  ASSERT_TRUE(ReadDataset(buffer, &loaded, &version).ok());
  EXPECT_EQ(version, kVsjdVersion);
  ExpectEqualDatasets(original, loaded);
}

TEST(DatasetIoTest, RejectsBadMagic) {
  std::stringstream buffer;
  buffer << "NOTVSJDATA";
  VectorDataset loaded;
  const IoStatus status = ReadDataset(buffer, &loaded);
  EXPECT_EQ(status.code, IoError::kBadMagic);
  EXPECT_EQ(status.byte_offset, 0u);
}

TEST(DatasetIoTest, RejectsFutureVersion) {
  // A v2 file whose version field claims 99: structurally plausible,
  // semantically from the future.
  VectorDataset original = testing::SmallClusteredCorpus(10, 5);
  std::stringstream buffer;
  ASSERT_TRUE(WriteDataset(original, buffer).ok());
  std::string bytes = buffer.str();
  const uint32_t future = 99;
  std::memcpy(bytes.data() + 4, &future, sizeof(future));
  std::stringstream tampered(bytes);
  VectorDataset loaded;
  const IoStatus status = ReadDataset(tampered, &loaded);
  EXPECT_EQ(status.code, IoError::kUnsupportedVersion);
  EXPECT_NE(status.reason.find("99"), std::string::npos) << status.ToString();
}

TEST(DatasetIoTest, RejectsFutureV1Version) {
  VectorDataset original = testing::SmallClusteredCorpus(10, 5);
  std::stringstream buffer;
  ASSERT_TRUE(WriteDatasetV1(original, buffer).ok());
  std::string bytes = buffer.str();
  const uint32_t future = 7;
  std::memcpy(bytes.data() + 4, &future, sizeof(future));
  std::stringstream tampered(bytes);
  VectorDataset loaded;
  EXPECT_EQ(ReadDataset(tampered, &loaded).code,
            IoError::kUnsupportedVersion);
}

TEST(DatasetIoTest, RejectsTruncatedStream) {
  for (const bool v1 : {false, true}) {
    VectorDataset original = testing::SmallClusteredCorpus(50, 2);
    std::stringstream buffer;
    ASSERT_TRUE((v1 ? WriteDatasetV1(original, buffer)
                    : WriteDataset(original, buffer))
                    .ok());
    const std::string full = buffer.str();
    std::stringstream truncated(full.substr(0, full.size() / 2));
    VectorDataset loaded;
    const IoStatus status = ReadDataset(truncated, &loaded);
    EXPECT_EQ(status.code, IoError::kCorrupt) << "v1=" << v1;
    EXPECT_FALSE(status.reason.empty());
  }
  // Headers that claim far more bytes than the file holds are truncations
  // too: a named kCorrupt, never an allocation sized from the claim.
  for (const std::string& hostile : testing::HostileDatasetFiles()) {
    std::stringstream stream(hostile);
    VectorDataset loaded;
    const IoStatus status = ReadDataset(stream, &loaded);
    EXPECT_EQ(status.code, IoError::kCorrupt) << status.ToString();
    EXPECT_FALSE(status.reason.empty());
  }
}

TEST(DatasetIoTest, AliasedSectionIsCorruptForEveryLoader) {
  // A valid 6-vector file plus a sixth table entry, XTRA, whose payload
  // aliases DIMS: sections must follow the table in order, so the heap
  // loader and the mmap opener both refuse it.
  const VectorDataset original = testing::SmallClusteredCorpus(6, 3);
  const VsjbColumns columns = MaterializeVsjbColumns(original);
  VsjbFileWriter writer(kVsjbMagic, kVsjbVersion, original.size(),
                        columns.dims.size(), original.name());
  writer.AddVectorSection(kSecOffsets, columns.offsets);
  writer.AddVectorSection(kSecDims, columns.dims);
  writer.AddVectorSection(kSecWeights, columns.weights);
  writer.AddVectorSection(kSecNorms, columns.norms);
  writer.AddVectorSection(kSecL1Norms, columns.l1_norms);
  writer.AddVectorSection(VsjbSectionId("XTRA"), columns.dims);
  std::stringstream buffer;
  ASSERT_TRUE(writer.WriteTo(buffer).ok());
  std::string bytes = buffer.str();
  const uint64_t table =
      VsjbAlignUp(sizeof(VsjbHeader) + original.name().size());
  VsjbSectionEntry dims;
  VsjbSectionEntry extra;
  std::memcpy(&dims, bytes.data() + table + 1 * sizeof(VsjbSectionEntry),
              sizeof(dims));
  std::memcpy(&extra, bytes.data() + table + 5 * sizeof(VsjbSectionEntry),
              sizeof(extra));
  extra.offset = dims.offset;
  std::memcpy(bytes.data() + table + 5 * sizeof(VsjbSectionEntry), &extra,
              sizeof(extra));

  std::stringstream tampered(bytes);
  VectorDataset loaded;
  const IoStatus read = ReadDataset(tampered, &loaded);
  EXPECT_EQ(read.code, IoError::kCorrupt) << read.ToString();
  EXPECT_NE(read.reason.find("XTRA"), std::string::npos) << read.ToString();

  const std::string path = ::testing::TempDir() + "/vsj_aliased_xtra.vsjb";
  testing::WriteBytes(path, bytes);
  MappedCsrStorage mapped;
  const IoStatus open = MappedCsrStorage::Open(path, &mapped);
  EXPECT_EQ(open.code, IoError::kCorrupt) << open.ToString();
  EXPECT_EQ(open.reason, read.reason);
  EXPECT_FALSE(mapped.mapped());
  std::remove(path.c_str());
}

TEST(DatasetIoTest, DetectsChecksumMismatch) {
  VectorDataset original = testing::SmallClusteredCorpus(50, 3);
  std::stringstream buffer;
  ASSERT_TRUE(WriteDataset(original, buffer).ok());
  std::string bytes = buffer.str();
  // Flip one bit in the last section's payload (the file tail).
  bytes[bytes.size() - 5] ^= 0x40;
  std::stringstream tampered(bytes);
  VectorDataset loaded;
  const IoStatus status = ReadDataset(tampered, &loaded);
  EXPECT_EQ(status.code, IoError::kChecksumMismatch);
  EXPECT_GT(status.byte_offset, 0u);
}

TEST(DatasetIoTest, RejectsEmptyStream) {
  std::stringstream buffer;
  VectorDataset loaded;
  EXPECT_EQ(ReadDataset(buffer, &loaded).code, IoError::kCorrupt);
}

TEST(DatasetIoTest, FileRoundTrip) {
  VectorDataset original = testing::SmallClusteredCorpus(80, 3);
  const std::string path = ::testing::TempDir() + "/vsj_dataset_io_test.bin";
  ASSERT_TRUE(SaveDatasetToFile(original, path).ok());
  VectorDataset loaded;
  ASSERT_TRUE(LoadDatasetFromFile(path, &loaded).ok());
  ExpectEqualDatasets(original, loaded);
  std::remove(path.c_str());
}

TEST(DatasetIoTest, MissingFileIsNotFoundWithPath) {
  VectorDataset loaded;
  const IoStatus status =
      LoadDatasetFromFile("/nonexistent/path/ds.bin", &loaded);
  EXPECT_EQ(status.code, IoError::kNotFound);
  EXPECT_EQ(status.path, "/nonexistent/path/ds.bin");
  // Distinguishable from corruption: a corrupt file reports a different
  // class and carries the failure offset.
  EXPECT_NE(status.code, IoError::kCorrupt);
}

TEST(DatasetIoTest, CorruptFileReportsPathAndOffset) {
  VectorDataset original = testing::SmallClusteredCorpus(30, 9);
  const std::string path = ::testing::TempDir() + "/vsj_corrupt_test.bin";
  ASSERT_TRUE(SaveDatasetToFile(original, path).ok());
  {
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(-3, std::ios::end);
    const char original_byte = static_cast<char>(f.get());
    f.seekp(-3, std::ios::end);
    f.put(static_cast<char>(original_byte ^ 0x20));
  }
  VectorDataset loaded;
  const IoStatus status = LoadDatasetFromFile(path, &loaded);
  EXPECT_EQ(status.code, IoError::kChecksumMismatch);
  EXPECT_EQ(status.path, path);
  EXPECT_NE(status.ToString().find(path), std::string::npos);
  // Hostile headers: corrupt, with the path, never std::bad_alloc.
  for (const std::string& hostile : testing::HostileDatasetFiles()) {
    testing::WriteBytes(path, hostile);
    const IoStatus named = LoadDatasetFromFile(path, &loaded);
    EXPECT_EQ(named.code, IoError::kCorrupt) << named.ToString();
    EXPECT_EQ(named.path, path);
  }
  std::remove(path.c_str());
}

TEST(DatasetIoTest, SaveLeavesNoTmpFileBehind) {
  // SaveDatasetToFile goes through AtomicFileWriter: on success the
  // <path>.tmp staging file must have been renamed away.
  VectorDataset original = testing::SmallClusteredCorpus(40, 2);
  const std::string path = ::testing::TempDir() + "/vsj_no_tmp_test.bin";
  ASSERT_TRUE(SaveDatasetToFile(original, path).ok());
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(static_cast<bool>(tmp));
  std::remove(path.c_str());
}

TEST(DatasetIoTest, FailedSaveKeepsTheOldFileReadable) {
  VectorDataset original = testing::SmallClusteredCorpus(40, 5);
  const std::string path = ::testing::TempDir() + "/vsj_save_fault_test.bin";
  ASSERT_TRUE(SaveDatasetToFile(original, path).ok());

  // Every step of a replacement save can die; the original must survive
  // each of them byte-readable, with no staging litter.
  for (const char* point : {"io.atomic.open", "io.vsjb.write_section",
                            "io.atomic.fsync", "io.atomic.rename"}) {
    fault::FaultSpec spec;
    spec.point = point;
    fault::Arm(spec);
    const IoStatus status =
        SaveDatasetToFile(testing::SmallClusteredCorpus(10, 6), path);
    fault::ClearAll();
    ASSERT_FALSE(status.ok()) << point;
    VectorDataset loaded;
    ASSERT_TRUE(LoadDatasetFromFile(path, &loaded).ok()) << point;
    ExpectEqualDatasets(original, loaded);
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(static_cast<bool>(tmp)) << point;
  }
  std::remove(path.c_str());
}

TEST(DatasetIoTest, ChecksumFaultFailsEveryLoaderNamed) {
  // io.checksum sits in the one container validator: armed once, it must
  // fail each loader with kChecksumMismatch naming a section.
  const VectorDataset original = testing::SmallClusteredCorpus(30, 4);
  const std::string dataset_path =
      ::testing::TempDir() + "/vsj_checksum_fault.vsjb";
  const std::string snapshot_path =
      ::testing::TempDir() + "/vsj_checksum_fault.vsjs";
  ASSERT_TRUE(SaveDatasetToFile(original, dataset_path).ok());
  {
    StreamingEstimationServiceOptions options;
    options.k = 6;
    StreamingEstimationService engine(VectorDataset(original), options);
    for (VectorId id = 0; id < original.size(); ++id) engine.Insert(id);
    ASSERT_TRUE(engine.Checkpoint(snapshot_path).ok());
  }
  std::stringstream buffer;
  ASSERT_TRUE(WriteDataset(original, buffer).ok());
  const std::string bytes = buffer.str();

  const auto expect_named = [](const char* loader, const IoStatus& status) {
    EXPECT_EQ(status.code, IoError::kChecksumMismatch)
        << loader << ": " << status.ToString();
    EXPECT_NE(status.reason.find("section"), std::string::npos)
        << loader << ": " << status.ToString();
  };
  const auto arm = [] {
    fault::FaultSpec spec;
    spec.point = "io.checksum";
    fault::Arm(spec);
  };
  VectorDataset loaded;
  arm();
  std::stringstream stream(bytes);
  expect_named("ReadDataset", ReadDataset(stream, &loaded));
  arm();
  expect_named("LoadDatasetFromFile",
               LoadDatasetFromFile(dataset_path, &loaded));
  arm();
  MappedCsrStorage mapped;
  expect_named("MappedCsrStorage::Open",
               MappedCsrStorage::Open(dataset_path, &mapped));
  arm();
  std::unique_ptr<StreamingEstimationService> restored;
  expect_named("Restore",
               StreamingEstimationService::Restore(snapshot_path, &restored));
  EXPECT_EQ(restored, nullptr);
  fault::ClearAll();

  // Disarmed, every loader accepts the same bytes again.
  EXPECT_TRUE(LoadDatasetFromFile(dataset_path, &loaded).ok());
  EXPECT_TRUE(MappedCsrStorage::Open(dataset_path, &mapped).ok());
  EXPECT_TRUE(
      StreamingEstimationService::Restore(snapshot_path, &restored).ok());
  std::remove(dataset_path.c_str());
  std::remove(snapshot_path.c_str());
}

TEST(DatasetIoTest, ConcurrentVerifyNamesTheFirstBadSectionInTableOrder) {
  // DIMS and WGTS are large enough to be checksummed side by side. However
  // the threads finish, each loader must name the first failing section in
  // table order (DIMS before WGTS), at that section's offset.
  const VectorDataset original = LargeSectionDataset();
  const std::string dataset_path =
      ::testing::TempDir() + "/vsj_concurrent_verify.vsjb";
  const std::string snapshot_path =
      ::testing::TempDir() + "/vsj_concurrent_verify.vsjs";
  ASSERT_TRUE(SaveDatasetToFile(original, dataset_path).ok());
  {
    StreamingEstimationServiceOptions options;
    options.k = 6;
    StreamingEstimationService engine(VectorDataset(original), options);
    for (VectorId id = 0; id < original.size(); ++id) engine.Insert(id);
    ASSERT_TRUE(engine.Checkpoint(snapshot_path).ok());
  }
  const std::string dataset_bytes = ReadFileBytes(dataset_path);
  const std::string snapshot_bytes = ReadFileBytes(snapshot_path);

  struct Case {
    const char* name;
    std::vector<uint32_t> corrupted;
    uint32_t first;
    const char* reason;
  };
  for (const Case& c :
       {Case{"WGTS alone", {kSecWeights}, kSecWeights, "section WGTS"},
        Case{"DIMS and WGTS", {kSecDims, kSecWeights}, kSecDims,
             "section DIMS"}}) {
    // Flips one byte mid-section in each corrupted section, writes the
    // file, and returns the offset of the section that must be named.
    const auto corrupt = [&](std::string bytes, const char (&magic)[4],
                             uint32_t version, const std::string& path) {
      for (const uint32_t id : c.corrupted) {
        const VsjbSectionEntry entry = SectionEntry(bytes, magic, version, id);
        EXPECT_GE(entry.length, uint64_t{1} << 20) << c.name;
        bytes[entry.offset + entry.length / 2] ^= 0x01;
      }
      testing::WriteBytes(path, bytes);
      return SectionEntry(bytes, magic, version, c.first).offset;
    };
    const uint64_t dataset_offset =
        corrupt(dataset_bytes, kVsjbMagic, kVsjbVersion, dataset_path);
    const uint64_t snapshot_offset =
        corrupt(snapshot_bytes, kVsjsMagic, kVsjsVersion, snapshot_path);
    const auto expect_first = [&](const char* loader, const IoStatus& status,
                                  uint64_t offset) {
      EXPECT_EQ(status.code, IoError::kChecksumMismatch)
          << c.name << ", " << loader << ": " << status.ToString();
      EXPECT_EQ(status.reason, c.reason)
          << c.name << ", " << loader << ": " << status.ToString();
      EXPECT_EQ(status.byte_offset, offset)
          << c.name << ", " << loader << ": " << status.ToString();
    };
    MappedCsrStorage mapped;
    expect_first("MappedCsrStorage::Open",
                 MappedCsrStorage::Open(dataset_path, &mapped),
                 dataset_offset);
    EXPECT_FALSE(mapped.mapped());
    VectorDataset loaded;
    expect_first("LoadDatasetFromFile",
                 LoadDatasetFromFile(dataset_path, &loaded), dataset_offset);
    std::unique_ptr<StreamingEstimationService> restored;
    expect_first("Restore",
                 StreamingEstimationService::Restore(snapshot_path, &restored),
                 snapshot_offset);
    EXPECT_EQ(restored, nullptr);
  }
  std::remove(dataset_path.c_str());
  std::remove(snapshot_path.c_str());
}

TEST(DatasetIoTest, UnsortedDimsAreCorruptForEveryLoader) {
  // Checksums that hold over dims that do not strictly increase: the three
  // loaders share ResolveVsjbColumns, and each must refuse the file with a
  // kCorrupt that names the vector.
  const VectorDataset original = testing::SmallClusteredCorpus(30, 5);
  const std::string dataset_path =
      ::testing::TempDir() + "/vsj_unsorted_dims.vsjb";
  const std::string snapshot_path =
      ::testing::TempDir() + "/vsj_unsorted_dims.vsjs";
  ASSERT_TRUE(SaveDatasetToFile(original, dataset_path).ok());
  {
    StreamingEstimationServiceOptions options;
    options.k = 6;
    StreamingEstimationService engine(VectorDataset(original), options);
    for (VectorId id = 0; id < original.size(); ++id) engine.Insert(id);
    ASSERT_TRUE(engine.Checkpoint(snapshot_path).ok());
  }
  std::string dataset_bytes = ReadFileBytes(dataset_path);
  std::string snapshot_bytes = ReadFileBytes(snapshot_path);
  const uint64_t dataset_vector =
      SwapTwoDimsKeepingChecksums(kVsjbMagic, kVsjbVersion, &dataset_bytes);
  const uint64_t snapshot_vector =
      SwapTwoDimsKeepingChecksums(kVsjsMagic, kVsjsVersion, &snapshot_bytes);
  testing::WriteBytes(dataset_path, dataset_bytes);
  testing::WriteBytes(snapshot_path, snapshot_bytes);

  const auto expect_named = [](const char* loader, const IoStatus& status,
                               uint64_t vector) {
    EXPECT_EQ(status.code, IoError::kCorrupt)
        << loader << ": " << status.ToString();
    EXPECT_EQ(status.reason, "dims are not strictly increasing in vector " +
                                 std::to_string(vector))
        << loader << ": " << status.ToString();
  };
  VectorDataset loaded;
  std::stringstream stream(dataset_bytes);
  expect_named("ReadDataset", ReadDataset(stream, &loaded), dataset_vector);
  expect_named("LoadDatasetFromFile",
               LoadDatasetFromFile(dataset_path, &loaded), dataset_vector);
  MappedCsrStorage mapped;
  expect_named("MappedCsrStorage::Open",
               MappedCsrStorage::Open(dataset_path, &mapped), dataset_vector);
  EXPECT_FALSE(mapped.mapped());
  std::unique_ptr<StreamingEstimationService> restored;
  expect_named("Restore",
               StreamingEstimationService::Restore(snapshot_path, &restored),
               snapshot_vector);
  EXPECT_EQ(restored, nullptr);
  std::remove(dataset_path.c_str());
  std::remove(snapshot_path.c_str());
}

}  // namespace
}  // namespace vsj
