// The multi-tenant dataset registry behind the network server: lazy
// snapshot opening of both tenant flavors, the LRU residency cap,
// refcount-safe eviction (in-flight requests keep an evicted tenant
// alive), dirty write-back on eviction, and the failure taxonomy
// (missing vs corrupt snapshots, tenant-name traversal guard).

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "vsj/fault/fault.h"
#include "vsj/gen/corpus_generator.h"
#include "vsj/gen/workloads.h"
#include "vsj/io/dataset_io.h"
#include "vsj/service/streaming_estimation_service.h"
#include "vsj/service/tenant_registry.h"

namespace vsj {
namespace {

constexpr size_t kCorpusSize = 120;

std::string ReadAll(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream out;
  out << is.rdbuf();
  return out.str();
}

bool FileExists(const std::string& path) {
  struct ::stat st;
  return ::stat(path.c_str(), &st) == 0;
}

EstimateRequest LshSsRequest(double tau = 0.7) {
  EstimateRequest request;
  request.estimator_name = "LSH-SS";
  request.tau = tau;
  request.trials = 2;
  request.seed = 7;
  return request;
}

class TenantRegistryTest : public ::testing::Test {
 protected:
  // One snapshot root per test, populated with a streaming tenant
  // ("churn", every vector live) and a static one ("wiki").
  void SetUp() override {
    fault::ClearAll();
    root_ = ::testing::TempDir() + "/tenant_registry_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::remove((root_ + "/churn.vsjs").c_str());
    std::remove((root_ + "/wiki.vsjb").c_str());
    ::mkdir(root_.c_str(), 0755);

    StreamingEstimationServiceOptions streaming_options;
    streaming_options.k = 8;
    streaming_options.family_seed = 0x5eedULL;
    StreamingEstimationService engine(
        GenerateCorpus(DblpLikeConfig(kCorpusSize, 3)), streaming_options);
    for (VectorId id = 0; id < kCorpusSize; ++id) engine.Insert(id);
    ASSERT_TRUE(engine.Checkpoint(root_ + "/churn.vsjs").ok());

    const VectorDataset dataset = GenerateCorpus(DblpLikeConfig(kCorpusSize, 4));
    ASSERT_TRUE(SaveDatasetToFile(dataset, root_ + "/wiki.vsjb").ok());
  }

  void TearDown() override { fault::ClearAll(); }

  TenantRegistryOptions Options(size_t max_resident = 8) {
    TenantRegistryOptions options;
    options.root = root_;
    options.max_resident = max_resident;
    options.static_options.k = 8;
    options.static_options.family_seed = 0x5eedULL;
    return options;
  }

  /// Adds `count` extra streaming snapshots named cold0..coldN-1, for
  /// eviction-pressure tests.
  void AddColdTenants(size_t count) {
    StreamingEstimationServiceOptions streaming_options;
    streaming_options.k = 4;
    for (size_t i = 0; i < count; ++i) {
      StreamingEstimationService engine(
          GenerateCorpus(DblpLikeConfig(40, 10 + i)), streaming_options);
      for (VectorId id = 0; id < 40; ++id) engine.Insert(id);
      ASSERT_TRUE(engine
                      .Checkpoint(root_ + "/cold" + std::to_string(i) +
                                  ".vsjs")
                      .ok());
    }
  }

  std::string root_;
};

TEST_F(TenantRegistryTest, ColdOpensBothFlavors) {
  TenantRegistry registry(Options());
  EXPECT_EQ(registry.num_resident(), 0u);

  std::shared_ptr<Tenant> churn;
  ASSERT_TRUE(registry.Acquire("churn", &churn).ok());
  EXPECT_TRUE(churn->is_streaming());
  EXPECT_EQ(churn->Stats().num_live, kCorpusSize);

  std::shared_ptr<Tenant> wiki;
  ASSERT_TRUE(registry.Acquire("wiki", &wiki).ok());
  EXPECT_FALSE(wiki->is_streaming());
  EXPECT_EQ(wiki->Stats().num_vectors, kCorpusSize);
  EXPECT_EQ(registry.num_resident(), 2u);

  // Both flavors answer estimates.
  for (const auto& tenant : {churn, wiki}) {
    const EstimateRequest request = LshSsRequest();
    ASSERT_TRUE(tenant->ValidateEstimate(request).ok());
    const std::vector<EstimateResponse> responses =
        tenant->EstimateBatchShared({request});
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_GE(responses[0].mean_estimate, 0.0);
  }
}

TEST_F(TenantRegistryTest, SecondAcquireIsTheSameResident) {
  TenantRegistry registry(Options());
  std::shared_ptr<Tenant> first;
  std::shared_ptr<Tenant> second;
  ASSERT_TRUE(registry.Acquire("churn", &first).ok());
  ASSERT_TRUE(registry.Acquire("churn", &second).ok());
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(registry.num_resident(), 1u);
}

TEST_F(TenantRegistryTest, StreamingTakesPriorityOverStatic) {
  // Drop a same-named .vsjb next to churn.vsjs; the .vsjs must win.
  const VectorDataset dataset = GenerateCorpus(DblpLikeConfig(50, 9));
  ASSERT_TRUE(SaveDatasetToFile(dataset, root_ + "/churn.vsjb").ok());
  TenantRegistry registry(Options());
  std::shared_ptr<Tenant> tenant;
  ASSERT_TRUE(registry.Acquire("churn", &tenant).ok());
  EXPECT_TRUE(tenant->is_streaming());
}

TEST_F(TenantRegistryTest, MissingTenantIsNotFoundWithPath) {
  TenantRegistry registry(Options());
  std::shared_ptr<Tenant> tenant;
  const IoStatus status = registry.Acquire("nope", &tenant);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code, IoError::kNotFound);
  // The diagnostic names what was actually tried.
  EXPECT_NE(status.ToString().find("nope"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(registry.num_resident(), 0u);
}

TEST_F(TenantRegistryTest, CorruptSnapshotSurfacesReason) {
  {
    std::ofstream out(root_ + "/broken.vsjb", std::ios::trunc);
    out << "this is not a VSJB file";
  }
  TenantRegistry registry(Options());
  std::shared_ptr<Tenant> tenant;
  const IoStatus status = registry.Acquire("broken", &tenant);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.code, IoError::kNotFound);  // it exists, it's bad

  // A 64-byte snapshot header claiming a 2^40-byte name is corrupt too —
  // a named status, not a std::bad_alloc out of the registry.
  testing::WriteBytes(root_ + "/bad.vsjs",
                      testing::HostileNameHeader(kVsjsMagic, kVsjsVersion));
  const IoStatus hostile = registry.Acquire("bad", &tenant);
  EXPECT_EQ(hostile.code, IoError::kCorrupt) << hostile.ToString();

  // A failed open leaves nothing resident; the registry keeps serving.
  EXPECT_EQ(registry.num_resident(), 0u);
  std::shared_ptr<Tenant> churn;
  EXPECT_TRUE(registry.Acquire("churn", &churn).ok());
}

TEST_F(TenantRegistryTest, TenantNameGuard) {
  EXPECT_TRUE(ValidTenantName("wiki"));
  EXPECT_TRUE(ValidTenantName("a-b_c.d2"));
  EXPECT_TRUE(ValidTenantName(std::string(128, 'x')));
  EXPECT_FALSE(ValidTenantName(""));
  EXPECT_FALSE(ValidTenantName(std::string(129, 'x')));
  EXPECT_FALSE(ValidTenantName(".hidden"));
  EXPECT_FALSE(ValidTenantName("../../etc/passwd"));
  EXPECT_FALSE(ValidTenantName("a/b"));
  EXPECT_FALSE(ValidTenantName("a b"));
  EXPECT_FALSE(ValidTenantName("a\x01z"));

  // And the guard is wired into Acquire: traversal names are kNotFound,
  // never a filesystem probe.
  TenantRegistry registry(Options());
  std::shared_ptr<Tenant> tenant;
  const IoStatus status = registry.Acquire("../churn", &tenant);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code, IoError::kNotFound);
}

TEST_F(TenantRegistryTest, LruEvictionUnderCap) {
  AddColdTenants(3);
  TenantRegistry registry(Options(/*max_resident=*/2));
  std::shared_ptr<Tenant> tenant;
  ASSERT_TRUE(registry.Acquire("cold0", &tenant).ok());
  tenant.reset();
  ASSERT_TRUE(registry.Acquire("cold1", &tenant).ok());
  tenant.reset();
  EXPECT_EQ(registry.num_resident(), 2u);

  // Re-touch cold0 so cold1 is now the LRU, then bring in a third.
  ASSERT_TRUE(registry.Acquire("cold0", &tenant).ok());
  tenant.reset();
  ASSERT_TRUE(registry.Acquire("cold2", &tenant).ok());
  tenant.reset();

  EXPECT_EQ(registry.num_resident(), 2u);
  const std::vector<std::string> resident = registry.ResidentNames();
  ASSERT_EQ(resident.size(), 2u);
  EXPECT_EQ(resident[0], "cold2");  // MRU first
  EXPECT_EQ(resident[1], "cold0");
}

TEST_F(TenantRegistryTest, EvictedTenantStaysUsableWhilePinned) {
  AddColdTenants(2);
  TenantRegistry registry(Options(/*max_resident=*/1));
  std::shared_ptr<Tenant> pinned;
  ASSERT_TRUE(registry.Acquire("churn", &pinned).ok());

  // Evict churn by acquiring others past the cap.
  std::shared_ptr<Tenant> other;
  ASSERT_TRUE(registry.Acquire("cold0", &other).ok());
  other.reset();
  ASSERT_TRUE(registry.Acquire("cold1", &other).ok());
  other.reset();
  EXPECT_EQ(registry.num_resident(), 1u);
  EXPECT_EQ(registry.ResidentNames()[0], "cold1");

  // The in-flight holder still has a fully working engine (refcount
  // safety: eviction drops the registry's reference, not ours).
  const EstimateRequest request = LshSsRequest();
  ASSERT_TRUE(pinned->ValidateEstimate(request).ok());
  const std::vector<EstimateResponse> responses =
      pinned->EstimateBatchShared({request});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_GE(responses[0].mean_estimate, 0.0);
  const TenantOpResult added = pinned->AddVector({{1, 1.0f}});
  ASSERT_TRUE(added.ok());
  EXPECT_TRUE(pinned->Insert(static_cast<VectorId>(added.value)).ok());
}

TEST_F(TenantRegistryTest, DirtyEvictionWritesBack) {
  AddColdTenants(2);
  const uint64_t base_epoch = [&] {
    TenantRegistry registry(Options());
    std::shared_ptr<Tenant> churn;
    EXPECT_TRUE(registry.Acquire("churn", &churn).ok());
    return churn->Stats().epoch;
  }();

  {
    TenantRegistry registry(Options(/*max_resident=*/1));
    std::shared_ptr<Tenant> churn;
    ASSERT_TRUE(registry.Acquire("churn", &churn).ok());
    ASSERT_TRUE(churn->Remove(5).ok());
    ASSERT_TRUE(churn->Remove(6).ok());
    EXPECT_TRUE(churn->dirty());
    churn.reset();  // unpinned and dirty: eviction must checkpoint

    std::shared_ptr<Tenant> other;
    ASSERT_TRUE(registry.Acquire("cold0", &other).ok());
    EXPECT_EQ(registry.ResidentNames(),
              std::vector<std::string>{"cold0"});
  }

  // A fresh registry restores the written-back state: the two removals
  // persisted (epoch advanced, live set shrank).
  TenantRegistry registry(Options());
  std::shared_ptr<Tenant> churn;
  ASSERT_TRUE(registry.Acquire("churn", &churn).ok());
  EXPECT_EQ(churn->Stats().epoch, base_epoch + 2);
  EXPECT_EQ(churn->Stats().num_live, kCorpusSize - 2);
  EXPECT_FALSE(churn->dirty());
}

TEST_F(TenantRegistryTest, FlushPersistsDirtyResidents) {
  {
    TenantRegistry registry(Options());
    std::shared_ptr<Tenant> churn;
    ASSERT_TRUE(registry.Acquire("churn", &churn).ok());
    ASSERT_TRUE(churn->Remove(0).ok());
    churn.reset();
    ASSERT_TRUE(registry.Flush().ok());
    // Flush, not eviction: the tenant stays resident but is clean now.
    EXPECT_EQ(registry.num_resident(), 1u);
    ASSERT_TRUE(registry.Acquire("churn", &churn).ok());
    EXPECT_FALSE(churn->dirty());
  }
  TenantRegistry registry(Options());
  std::shared_ptr<Tenant> churn;
  ASSERT_TRUE(registry.Acquire("churn", &churn).ok());
  EXPECT_EQ(churn->Stats().num_live, kCorpusSize - 1);
}

TEST_F(TenantRegistryTest, MutationTaxonomy) {
  TenantRegistry registry(Options());
  std::shared_ptr<Tenant> churn;
  std::shared_ptr<Tenant> wiki;
  ASSERT_TRUE(registry.Acquire("churn", &churn).ok());
  ASSERT_TRUE(registry.Acquire("wiki", &wiki).ok());

  // Static tenants reject every mutation as unsupported.
  EXPECT_EQ(wiki->Insert(0).code, TenantOpResult::Code::kUnsupported);
  EXPECT_EQ(wiki->Remove(0).code, TenantOpResult::Code::kUnsupported);
  EXPECT_EQ(wiki->Erase(0).code, TenantOpResult::Code::kUnsupported);
  EXPECT_EQ(wiki->AddVector({{1, 1.0f}}).code,
            TenantOpResult::Code::kUnsupported);

  // Streaming preconditions come back as bad_request, never an abort.
  EXPECT_EQ(churn->Insert(0).code, TenantOpResult::Code::kBadRequest)
      << "double insert";
  EXPECT_EQ(churn->Remove(999999).code, TenantOpResult::Code::kBadRequest);
  EXPECT_TRUE(churn->Remove(3).ok());
  EXPECT_TRUE(churn->Insert(3).ok());  // re-insert after remove is fine

  // Estimator-name rules: streaming engines answer LSH-SS only, and the
  // check happens in validation, not via VSJ_CHECK.
  EstimateRequest request = LshSsRequest();
  request.estimator_name = "LSH-S";
  EXPECT_EQ(churn->ValidateEstimate(request).code,
            TenantOpResult::Code::kBadRequest);
  EXPECT_TRUE(wiki->ValidateEstimate(request).ok());
  request.estimator_name = "no-such-estimator";
  EXPECT_EQ(wiki->ValidateEstimate(request).code,
            TenantOpResult::Code::kBadRequest);
  // Sampling overrides reach only the estimators that read them.
  request.estimator_name = "RS(pop)";
  request.delta = 4;
  EXPECT_EQ(wiki->ValidateEstimate(request).code,
            TenantOpResult::Code::kBadRequest);
  request.estimator_name = "LSH-SS";
  EXPECT_TRUE(wiki->ValidateEstimate(request).ok());
  request = LshSsRequest();
  // What an "1e999" wire literal parses to; must be a named rejection.
  request.tau = std::numeric_limits<double>::infinity();
  const TenantOpResult result = churn->ValidateEstimate(request);
  EXPECT_EQ(result.code, TenantOpResult::Code::kBadRequest);
  EXPECT_NE(result.message.find("finite"), std::string::npos)
      << result.message;
}

TEST_F(TenantRegistryTest, AdmissionByPredictedWorkTracksTheLiveCount) {
  // Unset budgets resolve to m_H = m_L = n, so 2 trials predict 4n pair
  // draws: a limit of 4n - 1 refuses them until a removal shrinks n.
  const uint64_t n = kCorpusSize;
  TenantRegistryOptions options = Options();
  options.max_pairs_per_request = 4 * n - 1;
  TenantRegistry registry(options);
  std::shared_ptr<Tenant> churn;
  std::shared_ptr<Tenant> wiki;
  ASSERT_TRUE(registry.Acquire("churn", &churn).ok());
  ASSERT_TRUE(registry.Acquire("wiki", &wiki).ok());

  EstimateRequest request = LshSsRequest();  // 2 trials
  const TenantOpResult refused = churn->ValidateEstimate(request);
  EXPECT_EQ(refused.code, TenantOpResult::Code::kBadRequest);
  EXPECT_NE(refused.message.find("= " + std::to_string(4 * n) +
                                 " pair draws exceeds "
                                 "--max-pairs-per-request " +
                                 std::to_string(4 * n - 1)),
            std::string::npos)
      << refused.message;
  EXPECT_EQ(wiki->ValidateEstimate(request).code,
            TenantOpResult::Code::kBadRequest);

  ASSERT_TRUE(churn->Remove(3).ok());
  EXPECT_TRUE(churn->ValidateEstimate(request).ok());
  ASSERT_TRUE(churn->Insert(3).ok());
  EXPECT_EQ(churn->ValidateEstimate(request).code,
            TenantOpResult::Code::kBadRequest);

  // Overrides are folded in before the check, in both directions.
  request.sample_size_l = 1;
  EXPECT_TRUE(wiki->ValidateEstimate(request).ok());
  request.sample_size_h = std::numeric_limits<uint64_t>::max();
  const TenantOpResult overflow = wiki->ValidateEstimate(request);
  EXPECT_EQ(overflow.code, TenantOpResult::Code::kBadRequest);
  EXPECT_NE(overflow.message.find("more than 2^64"), std::string::npos)
      << overflow.message;
}

TEST_F(TenantRegistryTest, AdmissionCountsEveryTableOfTheMedianEstimator) {
  // LSH-SS(median) runs one LSH-SS per table: on an ℓ = 4 tenant its 2
  // trials predict 4 · 2 · (n + n) = 16n pair draws where LSH-SS predicts
  // 4n. A limit between the two admits LSH-SS and refuses the median.
  const uint64_t n = kCorpusSize;
  TenantRegistryOptions options = Options();
  options.static_options.num_tables = 4;
  options.max_pairs_per_request = 16 * n - 1;
  TenantRegistry registry(options);
  std::shared_ptr<Tenant> wiki;
  ASSERT_TRUE(registry.Acquire("wiki", &wiki).ok());

  EstimateRequest request = LshSsRequest();  // 2 trials
  EXPECT_TRUE(wiki->ValidateEstimate(request).ok());
  request.estimator_name = "LSH-SS(median)";
  const TenantOpResult refused = wiki->ValidateEstimate(request);
  EXPECT_EQ(refused.code, TenantOpResult::Code::kBadRequest);
  EXPECT_NE(refused.message.find(") x 4 tables = " + std::to_string(16 * n) +
                                 " pair draws exceeds "
                                 "--max-pairs-per-request " +
                                 std::to_string(16 * n - 1)),
            std::string::npos)
      << refused.message;

  // At exactly 16n the same request is admitted.
  options.max_pairs_per_request = 16 * n;
  TenantRegistry roomier(options);
  ASSERT_TRUE(roomier.Acquire("wiki", &wiki).ok());
  EXPECT_TRUE(wiki->ValidateEstimate(request).ok());
}

TEST_F(TenantRegistryTest, AdmissionBoundsBifocalByItsOwnBudget) {
  // A Bifocal trial probes m₁ partners of each of its s vertices and m₂
  // more of each one that looks dense: up to s · (m₁ + m₂) pair draws. At
  // n = 120, s = ⌈√(120 · log₂ 120)⌉ = 29, m₁ = ⌊29 / 4⌋ = 7 and m₂ = 28, so
  // 2 trials may draw 2 · 29 · 35 = 2030 pairs where LSH-SS predicts
  // 2 · (n + n) = 480. A limit between the two admits LSH-SS and refuses
  // Bifocal, naming its formula.
  const uint64_t n = kCorpusSize;
  TenantRegistryOptions options = Options();
  options.max_pairs_per_request = 4 * n;
  TenantRegistry registry(options);
  std::shared_ptr<Tenant> wiki;
  ASSERT_TRUE(registry.Acquire("wiki", &wiki).ok());

  EstimateRequest request = LshSsRequest();  // 2 trials
  EXPECT_TRUE(wiki->ValidateEstimate(request).ok());
  request.estimator_name = "Bifocal";
  const TenantOpResult refused = wiki->ValidateEstimate(request);
  EXPECT_EQ(refused.code, TenantOpResult::Code::kBadRequest);
  EXPECT_NE(refused.message.find("2 trials x Bifocal s 29 x (m1 7 + m2 28) "
                                 "= 2030 pair draws exceeds "
                                 "--max-pairs-per-request 480"),
            std::string::npos)
      << refused.message;

  // At exactly 2030 the same request is admitted.
  options.max_pairs_per_request = 2030;
  TenantRegistry roomier(options);
  ASSERT_TRUE(roomier.Acquire("wiki", &wiki).ok());
  EXPECT_TRUE(wiki->ValidateEstimate(request).ok());
}

TEST_F(TenantRegistryTest, StartupSweepRemovesOrphanedTmpFiles) {
  // A crash between AtomicFileWriter::Open and Commit leaves *.tmp
  // litter next to the snapshots; registry construction removes it.
  for (const char* name : {"churn.vsjs.tmp", "wiki.vsjb.tmp", "junk.tmp"}) {
    std::ofstream out(root_ + "/" + name, std::ios::trunc);
    out << "half-written";
  }
  TenantRegistry registry(Options());
  EXPECT_EQ(registry.swept_tmp_files(), 3u);
  EXPECT_FALSE(FileExists(root_ + "/churn.vsjs.tmp"));
  EXPECT_FALSE(FileExists(root_ + "/wiki.vsjb.tmp"));
  EXPECT_FALSE(FileExists(root_ + "/junk.tmp"));
  // The snapshots themselves survive the sweep.
  std::shared_ptr<Tenant> churn;
  EXPECT_TRUE(registry.Acquire("churn", &churn).ok());
}

TEST_F(TenantRegistryTest, WriteBackFailureKeepsTenantResidentAndDirty) {
  AddColdTenants(1);
  const std::string snapshot = root_ + "/churn.vsjs";
  const std::string intact = ReadAll(snapshot);

  TenantRegistry registry(Options(/*max_resident=*/1));
  std::shared_ptr<Tenant> churn;
  ASSERT_TRUE(registry.Acquire("churn", &churn).ok());
  ASSERT_TRUE(churn->Remove(5).ok());
  EXPECT_TRUE(churn->dirty());
  churn.reset();

  // Every durable write-back now dies at the fsync step.
  fault::FaultSpec spec;
  spec.point = "io.atomic.fsync";
  spec.repeat = true;
  fault::Arm(spec);

  // Eviction pressure: cold0 pushes churn past the cap, but the
  // write-back fails — the registry must refuse to drop unpersisted
  // state, running over the cap in degraded mode instead.
  std::shared_ptr<Tenant> other;
  ASSERT_TRUE(registry.Acquire("cold0", &other).ok());
  other.reset();
  const std::vector<std::string> resident = registry.ResidentNames();
  EXPECT_NE(std::find(resident.begin(), resident.end(), "churn"),
            resident.end())
      << "dirty tenant dropped after a failed write-back";
  EXPECT_EQ(registry.num_resident(), 2u);  // deliberately over the cap

  // The degraded state is observable, and the mutation is still held.
  ASSERT_TRUE(registry.Acquire("churn", &churn).ok());
  EXPECT_TRUE(churn->dirty());
  EXPECT_GE(churn->checkpoint_failures(), 1u);
  EXPECT_NE(churn->last_write_back_error().find("io.atomic.fsync"),
            std::string::npos)
      << churn->last_write_back_error();
  TenantStats stats = churn->Stats();
  EXPECT_TRUE(stats.dirty);
  EXPECT_GE(stats.checkpoint_failures, 1u);
  EXPECT_EQ(stats.num_live, kCorpusSize - 1);
  churn.reset();

  // Failed write-backs never promoted a torn file over the snapshot.
  EXPECT_EQ(ReadAll(snapshot), intact);
  EXPECT_FALSE(FileExists(snapshot + ".tmp"));

  // The disk recovers → the next flush persists and clears the flag.
  fault::ClearAll();
  ASSERT_TRUE(registry.Flush().ok());
  ASSERT_TRUE(registry.Acquire("churn", &churn).ok());
  EXPECT_FALSE(churn->dirty());
  EXPECT_FALSE(churn->Stats().dirty);
  EXPECT_NE(ReadAll(snapshot), intact);
}

TEST_F(TenantRegistryTest, InjectedOpenFailureSurfacesAndRecovers) {
  TenantRegistry registry(Options());
  fault::FaultSpec spec;
  spec.point = "registry.open";
  fault::Arm(spec);
  std::shared_ptr<Tenant> churn;
  const IoStatus status = registry.Acquire("churn", &churn);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.reason.find("registry.open"), std::string::npos);
  EXPECT_EQ(registry.num_resident(), 0u);
  // One-shot fault: the next acquire succeeds.
  EXPECT_TRUE(registry.Acquire("churn", &churn).ok());
}

}  // namespace
}  // namespace vsj
