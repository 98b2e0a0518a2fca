// Checkpoint/Restore of the streaming engine. The headline invariant (an
// acceptance criterion of the snapshot layer): a churned service that is
// checkpointed and restored by a process-fresh Restore answers every
// estimate bit-identically — same means, same std errors, same pair
// counts — with the epoch round-tripping exactly. Also covered: continued
// mutation after restore (id-space continuity), erased-id permanence,
// multi-table engines, cold-cache semantics, snapshots whose reserved META
// word holds an old dataset fingerprint, and corrupt-snapshot error paths.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "vsj/io/vsjb_format.h"
#include "vsj/net/protocol.h"
#include "vsj/service/streaming_estimation_service.h"

namespace vsj {
namespace {

StreamingEstimationServiceOptions EngineOptions(uint32_t tables = 2,
                                                size_t threads = 1) {
  StreamingEstimationServiceOptions options;
  options.k = 8;
  options.num_tables = tables;
  options.num_threads = threads;
  options.family_seed = 0xfeedULL;
  return options;
}

EstimateRequest LshSsRequest(double tau, size_t trials = 8,
                             uint64_t seed = 42) {
  EstimateRequest request;
  request.estimator_name = "LSH-SS";
  request.tau = tau;
  request.trials = trials;
  request.seed = seed;
  return request;
}

/// Heavy churn: inserts, removals, re-inserts, erasures, and appended
/// vectors — enough history that bucket member order, live-list order, and
/// the id space all differ from any fresh build.
void Churn(StreamingEstimationService& service) {
  for (VectorId id = 0; id < 400; ++id) service.Insert(id);
  for (VectorId id = 0; id < 400; id += 3) service.Remove(id);
  for (VectorId id = 0; id < 400; id += 6) service.Insert(id);  // re-insert
  for (VectorId id = 200; id < 260; ++id) service.Erase(id);
  const VectorId added =
      service.AddVector(SparseVector({{7, 1.0f}, {900001, 2.0f}}));
  service.Insert(added);
}

std::string SnapshotPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Overwrites the META word at byte `offset` of its payload with `value`
/// in the snapshot at `path` and recomputes the META checksum, so only
/// Restore's own checks can refuse the result. META starts with k (bytes
/// 0–3) and ℓ (4–7); bytes 24–31 are the reserved word that once held a
/// dataset fingerprint.
template <typename Word>
void PatchMetaKeepingChecksums(const std::string& path, size_t offset,
                               Word value) {
  std::string bytes = ReadBytes(path);
  // The validator reads the image through typed pointers: parse an
  // 8-byte-aligned copy.
  std::vector<uint64_t> aligned((bytes.size() + 7) / 8);
  std::memcpy(aligned.data(), bytes.data(), bytes.size());
  VsjbImage image;
  ASSERT_TRUE(ValidateVsjbImage(aligned.data(), bytes.size(), kVsjsMagic,
                                kVsjsVersion, true, &image)
                  .ok());
  const int index = FindVsjbSection(image.entries, kSecSnapshotMeta);
  ASSERT_GE(index, 0);
  VsjbSectionEntry meta = image.entries[index];
  ASSERT_LE(offset + sizeof(value), meta.length);
  std::memcpy(bytes.data() + meta.offset + offset, &value, sizeof(value));
  meta.checksum = VsjbChecksum(bytes.data() + meta.offset, meta.length);
  const uint64_t table =
      VsjbAlignUp(sizeof(VsjbHeader) + image.header.name_length);
  std::memcpy(bytes.data() + table + index * sizeof(VsjbSectionEntry), &meta,
              sizeof(meta));
  testing::WriteBytes(path, bytes);
}

class ServiceSnapshotTest : public ::testing::Test {
 protected:
  std::unique_ptr<StreamingEstimationService> MakeChurned(
      StreamingEstimationServiceOptions options) {
    auto service = std::make_unique<StreamingEstimationService>(
        testing::SmallClusteredCorpus(450, 17), options);
    Churn(*service);
    return service;
  }
};

TEST_F(ServiceSnapshotTest, RestoreYieldsBitIdenticalEstimates) {
  const std::string path = SnapshotPath("vsj_snapshot_roundtrip.vsjs");
  const auto original = MakeChurned(EngineOptions());
  ASSERT_TRUE(original->Checkpoint(path).ok());

  std::unique_ptr<StreamingEstimationService> restored;
  ASSERT_TRUE(StreamingEstimationService::Restore(path, &restored,
                                                  EngineOptions())
                  .ok());

  // Identity round-trips exactly.
  EXPECT_EQ(restored->epoch(), original->epoch());
  EXPECT_EQ(restored->num_live(), original->num_live());
  EXPECT_EQ(restored->store().num_ids(), original->store().num_ids());
  EXPECT_EQ(restored->index().live_ids(), original->index().live_ids());

  // The acceptance pin: batches answer bit-identically.
  std::vector<EstimateRequest> batch;
  for (const double tau : {0.3, 0.5, 0.7, 0.9}) {
    batch.push_back(LshSsRequest(tau));
  }
  const auto original_responses = original->EstimateBatch(batch);
  const auto restored_responses = restored->EstimateBatch(batch);
  ASSERT_EQ(original_responses.size(), restored_responses.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(original_responses[i].mean_estimate,
              restored_responses[i].mean_estimate)
        << "tau=" << batch[i].tau;
    EXPECT_EQ(original_responses[i].std_error,
              restored_responses[i].std_error)
        << "tau=" << batch[i].tau;
    EXPECT_EQ(original_responses[i].pairs_evaluated,
              restored_responses[i].pairs_evaluated)
        << "tau=" << batch[i].tau;
  }
  std::remove(path.c_str());
}

TEST_F(ServiceSnapshotTest, RestoredEngineStaysBitIdenticalUnderMutation) {
  // Checkpoint, then apply the same further mutations to both engines —
  // the restored one must keep tracking the original exactly, including
  // the ids that AddVector hands out (id-space continuity across erased
  // slots).
  const std::string path = SnapshotPath("vsj_snapshot_mutate.vsjs");
  const auto original = MakeChurned(EngineOptions());
  ASSERT_TRUE(original->Checkpoint(path).ok());
  std::unique_ptr<StreamingEstimationService> restored;
  ASSERT_TRUE(StreamingEstimationService::Restore(path, &restored,
                                                  EngineOptions())
                  .ok());

  const SparseVector fresh({{11, 1.0f}, {22, 0.5f}, {33, 2.0f}});
  const VectorId id_a = original->AddVector(fresh);
  const VectorId id_b = restored->AddVector(fresh);
  EXPECT_EQ(id_a, id_b);
  original->Insert(id_a);
  restored->Insert(id_b);
  original->Remove(1);
  restored->Remove(1);
  EXPECT_EQ(original->epoch(), restored->epoch());

  const EstimateRequest request = LshSsRequest(0.5);
  EXPECT_EQ(original->Estimate(request).mean_estimate,
            restored->Estimate(request).mean_estimate);

  // Erased ids stay gone after restore.
  EXPECT_FALSE(restored->store().Contains(210));
  EXPECT_FALSE(restored->Contains(210));
  std::remove(path.c_str());
}

TEST_F(ServiceSnapshotTest, RuntimeOptionsComeFromCallerFormatFromFile) {
  const std::string path = SnapshotPath("vsj_snapshot_options.vsjs");
  const auto original = MakeChurned(EngineOptions(/*tables=*/3));
  ASSERT_TRUE(original->Checkpoint(path).ok());

  StreamingEstimationServiceOptions runtime = EngineOptions();
  runtime.k = 99;                  // overwritten by the snapshot
  runtime.num_tables = 1;          // overwritten by the snapshot
  runtime.family_seed = 123;       // overwritten by the snapshot
  runtime.num_threads = 4;         // honored
  runtime.cache_capacity = 7;      // honored
  std::unique_ptr<StreamingEstimationService> restored;
  ASSERT_TRUE(
      StreamingEstimationService::Restore(path, &restored, runtime).ok());
  EXPECT_EQ(restored->options().k, 8u);
  EXPECT_EQ(restored->options().num_tables, 3u);
  EXPECT_EQ(restored->options().family_seed, 0xfeedULL);
  EXPECT_EQ(restored->options().num_threads, 4u);
  EXPECT_EQ(restored->cache().capacity(), 7u);
  EXPECT_EQ(restored->index().num_tables(), 3u);

  // Thread count never changes results (the PR-1 determinism contract).
  const EstimateRequest request = LshSsRequest(0.6);
  EXPECT_EQ(original->Estimate(request).mean_estimate,
            restored->Estimate(request).mean_estimate);
  std::remove(path.c_str());
}

TEST_F(ServiceSnapshotTest, RestoreHonorsRuntimeOptions) {
  // Every runtime field of the shared engine block must reach the restored
  // engine: cache capacity (0 = no cache) and thread count.
  const std::string path = SnapshotPath("vsj_snapshot_runtime.vsjs");
  const auto original = MakeChurned(EngineOptions());
  ASSERT_TRUE(original->Checkpoint(path).ok());

  StreamingEstimationServiceOptions runtime = EngineOptions();
  runtime.cache_capacity = 77;
  runtime.num_threads = 3;
  std::unique_ptr<StreamingEstimationService> restored;
  ASSERT_TRUE(
      StreamingEstimationService::Restore(path, &restored, runtime).ok());
  EXPECT_EQ(restored->cache().capacity(), 77u);
  EXPECT_EQ(restored->num_threads(), 3u);
  const EstimateRequest request = LshSsRequest(0.5, /*trials=*/2);
  restored->Estimate(request);
  EXPECT_TRUE(restored->Estimate(request).from_cache);

  runtime.cache_capacity = 0;
  ASSERT_TRUE(
      StreamingEstimationService::Restore(path, &restored, runtime).ok());
  restored->Estimate(request);
  EXPECT_FALSE(restored->Estimate(request).from_cache);
  EXPECT_EQ(restored->cache().size(), 0u);
  std::remove(path.c_str());
}

TEST_F(ServiceSnapshotTest, ColdCacheRecomputesIdenticalAnswers) {
  const std::string path = SnapshotPath("vsj_snapshot_cache.vsjs");
  const auto original = MakeChurned(EngineOptions());
  const EstimateRequest request = LshSsRequest(0.5);
  const EstimateResponse warm = original->Estimate(request);
  ASSERT_TRUE(original->Checkpoint(path).ok());

  std::unique_ptr<StreamingEstimationService> restored;
  ASSERT_TRUE(StreamingEstimationService::Restore(path, &restored,
                                                  EngineOptions())
                  .ok());
  const EstimateResponse cold = restored->Estimate(request);
  // Entries are not persisted: the restored engine recomputes...
  EXPECT_FALSE(cold.from_cache);
  // ...but determinism makes the recomputed answer bit-identical, and a
  // repeat is now a hit.
  EXPECT_EQ(cold.mean_estimate, warm.mean_estimate);
  EXPECT_TRUE(restored->Estimate(request).from_cache);
  std::remove(path.c_str());
}

TEST_F(ServiceSnapshotTest, OldFingerprintWordIsIgnoredOnRestore) {
  // Snapshots written before the META fingerprint word was reserved carry
  // a nonzero hash there. They restore to the same engine as the unpatched
  // file: same epoch, the same bytes for every answer, and a checkpoint
  // that writes the word as 0 again.
  const std::string path = SnapshotPath("vsj_snapshot_old_fingerprint.vsjs");
  const std::string again = SnapshotPath("vsj_snapshot_rewritten.vsjs");
  const auto original = MakeChurned(EngineOptions());
  ASSERT_TRUE(original->Checkpoint(path).ok());
  const std::string clean_bytes = ReadBytes(path);
  std::unique_ptr<StreamingEstimationService> clean;
  ASSERT_TRUE(StreamingEstimationService::Restore(path, &clean,
                                                  EngineOptions())
                  .ok());

  PatchMetaKeepingChecksums(path, 24, uint64_t{0x0123456789abcdefULL});
  ASSERT_NE(ReadBytes(path), clean_bytes);
  std::unique_ptr<StreamingEstimationService> patched;
  ASSERT_TRUE(StreamingEstimationService::Restore(path, &patched,
                                                  EngineOptions())
                  .ok());
  EXPECT_EQ(patched->epoch(), clean->epoch());
  for (const double tau : {0.3, 0.5, 0.7, 0.9}) {
    const EstimateRequest request = LshSsRequest(tau);
    EXPECT_EQ(net::MakeEstimatePayload(1, patched->Estimate(request)),
              net::MakeEstimatePayload(1, clean->Estimate(request)))
        << "tau=" << tau;
  }
  ASSERT_TRUE(patched->Checkpoint(again).ok());
  EXPECT_EQ(ReadBytes(again), clean_bytes);
  std::remove(path.c_str());
  std::remove(again.c_str());
}

TEST_F(ServiceSnapshotTest, RestoreErrorsAreStatusNotAborts) {
  std::unique_ptr<StreamingEstimationService> restored;
  EXPECT_EQ(StreamingEstimationService::Restore("/nonexistent/snap.vsjs",
                                                &restored)
                .code,
            IoError::kNotFound);
  EXPECT_EQ(restored, nullptr);

  // A dataset file is not a snapshot.
  const std::string path = SnapshotPath("vsj_snapshot_not_a_snapshot.vsjs");
  {
    const auto service = MakeChurned(EngineOptions());
    ASSERT_TRUE(service->Checkpoint(path).ok());
  }
  // Corrupt the tail (a section payload) — checksummed, so kChecksumMismatch.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -1, SEEK_END);
    const int last = std::fgetc(f);
    std::fseek(f, -1, SEEK_END);
    std::fputc(last ^ 0x04, f);
    std::fclose(f);
  }
  EXPECT_EQ(StreamingEstimationService::Restore(path, &restored).code,
            IoError::kChecksumMismatch);
  EXPECT_EQ(restored, nullptr);

  // A bare 64-byte header claiming a 2^40-byte name: a named kCorrupt,
  // never an allocation sized from the claim.
  testing::WriteBytes(path, testing::HostileNameHeader(kVsjsMagic,
                                                       kVsjsVersion));
  const IoStatus hostile = StreamingEstimationService::Restore(path, &restored);
  EXPECT_EQ(hostile.code, IoError::kCorrupt) << hostile.ToString();
  EXPECT_EQ(hostile.path, path);
  EXPECT_EQ(restored, nullptr);
  std::remove(path.c_str());
}

TEST_F(ServiceSnapshotTest, HugeHashFunctionCountIsCorruptBeforeAllocating) {
  // META's k and ℓ size the index, the projection cache and every insert's
  // signature scratch. An empty live set with ℓ = 2^31 passes every section
  // shape check (TBLS holds ℓ · 0 ids), and so does one live vector with
  // k = 2^31: both must be a named kCorrupt, answered at once.
  struct Case {
    bool one_live;
    uint32_t k;
    uint32_t num_tables;
  };
  const std::string path = SnapshotPath("vsj_snapshot_huge_meta.vsjs");
  for (const Case& hostile :
       {Case{false, 8, 1u << 31}, Case{true, 1u << 31, 1}}) {
    {
      StreamingEstimationService service(testing::SmallClusteredCorpus(50, 3),
                                         EngineOptions(/*tables=*/1));
      if (hostile.one_live) service.Insert(0);
      ASSERT_TRUE(service.Checkpoint(path).ok());
    }
    PatchMetaKeepingChecksums(path, 0, hostile.k);
    PatchMetaKeepingChecksums(path, sizeof(uint32_t), hostile.num_tables);
    std::unique_ptr<StreamingEstimationService> restored;
    const auto start = std::chrono::steady_clock::now();
    const IoStatus status =
        StreamingEstimationService::Restore(path, &restored);
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(1));
    EXPECT_EQ(status.code, IoError::kCorrupt) << status.ToString();
    EXPECT_NE(status.ToString().find("hash functions"), std::string::npos)
        << status.ToString();
    EXPECT_EQ(restored, nullptr);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vsj
