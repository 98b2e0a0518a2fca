// Snapshot-io bench: what the VSJB v2 columnar format buys at load time.
//
// Three ways to open the same DBLP-like corpus:
//   v1 load   — the legacy VSJD row stream, parsed vector-by-vector into
//               the CSR arena (what every startup paid before this layer);
//   v2 load   — bulk column reads + checksum verify into a heap arena;
//   v2 mmap   — MappedCsrStorage::Open, zero-copy: the estimators read
//               straight from the file pages (timed with and without
//               checksum verification; without, the open reads only the
//               header, the section table and the offsets and dims
//               columns that ResolveVsjbColumns checks).
// The headline criterion is v2 mmap open ≥ 10× faster than the v1 stream
// load; the bench also verifies that all registered estimators are
// bit-identical over mapped vs heap storage, so the fast path cannot
// silently change answers. A final section times a streaming-engine
// Checkpoint/Restore round trip at the same scale.
//
// Scale knobs: VSJ_N (corpus size, default 20000), VSJ_ITERS (timing
// repetitions, best-of, default 3), VSJ_SEED.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "vsj/core/estimator_registry.h"
#include "vsj/io/dataset_io.h"
#include "vsj/lsh/simhash.h"
#include "vsj/service/streaming_estimation_service.h"
#include "vsj/util/check.h"
#include "vsj/util/rng.h"
#include "vsj/util/table_printer.h"
#include "vsj/vector/mapped_csr_storage.h"

int main() {
  const vsj::bench::Scale scale = vsj::bench::LoadScale(20000);
  const size_t n = scale.n, iters = scale.iters;
  const uint64_t seed = scale.seed;

  vsj::VectorDataset dataset =
      vsj::GenerateCorpus(vsj::DblpLikeConfig(n, seed));
  const vsj::DatasetStats stats = dataset.ComputeStats();
  std::printf("snapshot-io bench: DBLP-like n = %zu, %zu features, %zu\n",
              stats.num_vectors, stats.total_features, iters);

  const std::string v1_path = "/tmp/vsj_bench_snapshot_v1.vsjd";
  const std::string v2_path = "/tmp/vsj_bench_snapshot_v2.vsjb";
  {
    std::ofstream v1(v1_path, std::ios::binary);
    VSJ_CHECK(vsj::WriteDatasetV1(dataset, v1).ok());
  }
  VSJ_CHECK(vsj::SaveDatasetToFile(dataset, v2_path).ok());

  // --- Load-path timings. ---
  const double v1_load_ms = vsj::bench::TimeRuns(iters, [&] {
    vsj::VectorDataset loaded;
    VSJ_CHECK(vsj::LoadDatasetFromFile(v1_path, &loaded).ok());
    VSJ_CHECK(loaded.size() == dataset.size());
  }).min * 1e3;
  const double v2_load_ms = vsj::bench::TimeRuns(iters, [&] {
    vsj::VectorDataset loaded;
    VSJ_CHECK(vsj::LoadDatasetFromFile(v2_path, &loaded).ok());
    VSJ_CHECK(loaded.size() == dataset.size());
  }).min * 1e3;
  const double v2_mmap_verified_ms = vsj::bench::TimeRuns(iters, [&] {
    vsj::MappedCsrStorage mapped;
    VSJ_CHECK(vsj::MappedCsrStorage::Open(v2_path, &mapped).ok());
    VSJ_CHECK(mapped.size() == dataset.size());
  }).min * 1e3;
  vsj::MappedCsrStorage::OpenOptions unverified;
  unverified.verify_checksums = false;
  const double v2_mmap_ms = vsj::bench::TimeRuns(iters, [&] {
    vsj::MappedCsrStorage mapped;
    VSJ_CHECK(vsj::MappedCsrStorage::Open(v2_path, &mapped, unverified).ok());
    VSJ_CHECK(mapped.size() == dataset.size());
  }).min * 1e3;

  vsj::TablePrinter table("dataset open paths (best of " +
                          std::to_string(iters) + ")");
  table.SetHeader({"path", "ms", "speedup vs v1"});
  const auto row = [&](const char* label, double ms) {
    table.AddRow({label, vsj::TablePrinter::Fmt(ms, 3),
                  vsj::TablePrinter::Fmt(v1_load_ms / ms, 1) + "x"});
  };
  row("VSJD v1 stream load", v1_load_ms);
  row("VSJB v2 column load", v2_load_ms);
  row("VSJB v2 mmap open (verify)", v2_mmap_verified_ms);
  row("VSJB v2 mmap open", v2_mmap_ms);
  table.Print(std::cout);

  const double mmap_speedup = v1_load_ms / v2_mmap_ms;
  std::printf("criterion: v2 mmap open %.1fx faster than v1 stream load "
              "(>= 10x required) %s\n",
              mmap_speedup, mmap_speedup >= 10.0 ? "PASS" : "FAIL");

  // --- Mapped vs heap estimator bit-identity (all registry estimators).
  vsj::MappedCsrStorage mapped;
  VSJ_CHECK(vsj::MappedCsrStorage::Open(v2_path, &mapped).ok());
  vsj::SimHashFamily family(seed ^ 0xabcdULL);
  const vsj::LshIndex heap_index(family, dataset, /*k=*/8, /*num_tables=*/1);
  const vsj::LshIndex mapped_index(family, vsj::DatasetView(mapped), 8, 1);
  size_t checked = 0;
  for (const std::string& name : vsj::AllEstimatorNames()) {
    vsj::EstimatorContext heap_context;
    heap_context.dataset = dataset;
    heap_context.index = &heap_index;
    heap_context.measure = vsj::SimilarityMeasure::kCosine;
    vsj::EstimatorContext mapped_context = heap_context;
    mapped_context.dataset = vsj::DatasetView(mapped);
    mapped_context.index = &mapped_index;
    const auto heap_estimator = vsj::CreateEstimator(name, heap_context);
    const auto mapped_estimator = vsj::CreateEstimator(name, mapped_context);
    for (const double tau : {0.5, 0.8}) {
      vsj::Rng heap_rng(seed + 101);
      vsj::Rng mapped_rng(seed + 101);
      const double a = heap_estimator->Estimate(tau, heap_rng).estimate;
      const double b = mapped_estimator->Estimate(tau, mapped_rng).estimate;
      VSJ_CHECK_MSG(a == b, "%s diverged over mapped storage at tau %.2f",
                    name.c_str(), tau);
    }
    ++checked;
  }
  std::printf("mapped-vs-heap: %zu estimators bit-identical\n", checked);

  // --- Streaming-engine checkpoint/restore round trip. ---
  const std::string snapshot_path = "/tmp/vsj_bench_snapshot.vsjs";
  vsj::StreamingEstimationServiceOptions engine_options;
  engine_options.k = 8;
  engine_options.num_tables = 2;
  engine_options.family_seed = seed ^ 0x5eedULL;
  vsj::StreamingEstimationService engine(std::move(dataset), engine_options);
  for (vsj::VectorId id = 0; id < stats.num_vectors; ++id) engine.Insert(id);
  for (vsj::VectorId id = 0; id < stats.num_vectors / 4; ++id) {
    engine.Remove(id);
  }
  const double checkpoint_ms = vsj::bench::TimeRuns(iters, [&] {
    VSJ_CHECK(engine.Checkpoint(snapshot_path).ok());
  }).min * 1e3;
  std::unique_ptr<vsj::StreamingEstimationService> restored;
  const double restore_ms = vsj::bench::TimeRuns(iters, [&] {
    VSJ_CHECK(vsj::StreamingEstimationService::Restore(snapshot_path,
                                                       &restored,
                                                       engine_options)
                  .ok());
  }).min * 1e3;
  VSJ_CHECK(restored->epoch() == engine.epoch());
  VSJ_CHECK(restored->index().live_ids() == engine.index().live_ids());
  std::printf("engine snapshot: checkpoint %.2f ms, restore %.2f ms "
              "(%zu live, epoch and live ids round-trip)\n",
              checkpoint_ms, restore_ms, restored->num_live());

  std::remove(v1_path.c_str());
  std::remove(v2_path.c_str());
  std::remove(snapshot_path.c_str());
  return 0;
}
