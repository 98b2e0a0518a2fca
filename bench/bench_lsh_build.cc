// LSH index-build microbench: the historical hashing/grouping path vs. the
// vectorized build (Gaussian projection cache + SIMD lane kernels, buckets
// grouped by first sighting into the CSR bucket arena).
//
// Not a paper figure: this pins the hot-path vectorization claim. The
// baseline is a faithful replica of the historical build kept inside this
// bench — per-call scratch allocations, a Box–Muller Gaussian derived for
// every (feature, function) pair, and unordered_map bucket grouping into
// per-bucket vectors. Both paths run over the same corpus and the bench
// *asserts* they produce identical bucket keys and bucket structure before
// reporting: the speedup is only meaningful because the output is
// bit-identical. A third row forces the scalar kernels (the projection
// cache stays on), isolating the SIMD contribution from the memoization.
// A last row times a static tenant's cold open over the same corpus saved
// as VSJB: the checksum-verified MappedCsrStorage::Open plus the
// EstimationService (2 engine threads) that builds the index over it.
//
// Scale knobs: VSJ_N (corpus size, default 20000), VSJ_K (functions per
// table, default 10), VSJ_TABLES (tables, default 10), VSJ_ITERS (best-of
// repetitions, default 3 — CI smoke runs set 1), VSJ_SEED. `--json <path>`
// writes BENCH_lsh_build-style JSON.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "vsj/io/dataset_io.h"
#include "vsj/lsh/lsh_table.h"
#include "vsj/service/estimation_service.h"
#include "vsj/util/cpu.h"
#include "vsj/util/check.h"
#include "vsj/util/hash.h"
#include "vsj/vector/dataset_view.h"
#include "vsj/vector/mapped_csr_storage.h"

namespace {

using vsj::DatasetView;
using vsj::Feature;
using vsj::VectorId;
using vsj::VectorRef;

/// The pre-vectorization SimHashFamily::HashRange, verbatim: two scratch
/// vectors allocated per call, one hash-derived Gaussian per
/// (feature, function) pair.
void BaselineHashRange(uint64_t mixed_seed, VectorRef v,
                       uint32_t function_offset, uint32_t k, uint64_t* out) {
  std::vector<double> projections(k, 0.0);
  std::vector<uint64_t> fn_seeds(k);
  for (uint32_t j = 0; j < k; ++j) {
    fn_seeds[j] = vsj::HashCombine(mixed_seed, function_offset + j);
  }
  for (const Feature f : v) {
    for (uint32_t j = 0; j < k; ++j) {
      projections[j] += f.weight * vsj::GaussianFromHash(f.dim, fn_seeds[j]);
    }
  }
  for (uint32_t j = 0; j < k; ++j) out[j] = projections[j] >= 0.0 ? 1 : 0;
}

/// The pre-vectorization bucket build: hash-map grouping into per-bucket
/// vectors (the structure LshTable now derives from the CSR arena).
struct BaselineTable {
  std::vector<std::vector<VectorId>> buckets;
  std::vector<uint64_t> bucket_keys;
  std::vector<uint32_t> bucket_of;
};

BaselineTable BaselineBuildTable(uint64_t mixed_seed, DatasetView dataset,
                                 uint32_t k, uint32_t function_offset,
                                 std::vector<uint64_t>* keys_out) {
  const size_t n = dataset.size();
  std::vector<uint64_t> keys(n);
  std::vector<uint64_t> signature(k);
  for (VectorId id = 0; id < n; ++id) {
    BaselineHashRange(mixed_seed, dataset[id], function_offset, k,
                      signature.data());
    uint64_t key = 0x2545f4914f6cdd1dULL;
    for (uint32_t j = 0; j < k; ++j) {
      key = vsj::HashCombine(key, signature[j]);
    }
    keys[id] = key;
  }

  BaselineTable table;
  table.bucket_of.resize(n);
  std::unordered_map<uint64_t, uint32_t> key_to_bucket;
  key_to_bucket.reserve(n);
  for (VectorId id = 0; id < n; ++id) {
    auto [it, inserted] = key_to_bucket.try_emplace(
        keys[id], static_cast<uint32_t>(table.buckets.size()));
    if (inserted) {
      table.buckets.emplace_back();
      table.bucket_keys.push_back(keys[id]);
    }
    table.buckets[it->second].push_back(id);
    table.bucket_of[id] = it->second;
  }
  *keys_out = std::move(keys);
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  const vsj::bench::Scale scale = vsj::bench::LoadScale(20000, 10);
  const uint32_t tables = vsj::bench::EnvCount("VSJ_TABLES", 10, 1);
  const size_t iters = scale.iters;
  vsj::bench::BenchJson json(argc, argv, "bench_lsh_build");

  std::cout << "lsh build bench: n = " << scale.n << ", k = " << scale.k
            << ", " << tables << " table(s), best of " << iters
            << " iteration(s); kernels dispatch to "
            << vsj::SimdLevelName(vsj::ActiveSimdLevel()) << "\n";

  const vsj::VectorDataset dataset =
      vsj::GenerateCorpus(vsj::DblpLikeConfig(scale.n, scale.seed));
  const vsj::DatasetStats stats = dataset.ComputeStats();
  std::cout << "corpus: " << stats.num_vectors << " vectors, "
            << stats.num_dimensions << " dims, avg " << stats.avg_features
            << " features\n\n";

  const uint64_t family_seed = scale.seed ^ 0x5eedULL;
  const vsj::SimHashFamily family(family_seed);
  const uint64_t mixed_seed = vsj::Mix64(family_seed);
  const DatasetView view(dataset);

  // --- Baseline: the historical build, replicated above. ---
  std::vector<BaselineTable> baseline_tables(tables);
  std::vector<std::vector<uint64_t>> baseline_keys(tables);
  const vsj::bench::Timing baseline = vsj::bench::TimeRuns(iters, [&] {
    for (uint32_t t = 0; t < tables; ++t) {
      baseline_tables[t] = BaselineBuildTable(mixed_seed, view, scale.k,
                                              t * scale.k, &baseline_keys[t]);
    }
  }).Scaled(1e3);

  // --- Vectorized: the production LshIndex build (projection cache + SIMD
  // kernels + CSR arena), plus a scalar-kernel run isolating SIMD. ---
  auto measure_index = [&](vsj::SimdLevel level) {
    vsj::SetSimdLevel(level);
    std::unique_ptr<vsj::LshIndex> index;
    const vsj::bench::Timing timing = vsj::bench::TimeRuns(iters, [&] {
      index = std::make_unique<vsj::LshIndex>(family, view, scale.k, tables);
    });
    vsj::ResetSimdLevel();
    return std::pair{timing.Scaled(1e3), std::move(index)};
  };
  auto [simd, index] = measure_index(vsj::ActiveSimdLevel());
  auto [scalar, scalar_index] = measure_index(vsj::SimdLevel::kScalar);

  // --- Bit-identity: the speedup only counts if the output is the same
  // index the baseline would have built. ---
  for (uint32_t t = 0; t < tables; ++t) {
    const vsj::LshTable& built = index->table(t);
    const BaselineTable& expected = baseline_tables[t];
    if (built.num_buckets() != expected.buckets.size()) {
      std::cerr << "FATAL: table " << t << " bucket count diverged\n";
      return 1;
    }
    for (size_t b = 0; b < built.num_buckets(); ++b) {
      const auto members = built.bucket(b);
      if (built.BucketKey(b) != expected.bucket_keys[b] ||
          !std::equal(members.begin(), members.end(),
                      expected.buckets[b].begin(),
                      expected.buckets[b].end())) {
        std::cerr << "FATAL: table " << t << " bucket " << b << " diverged\n";
        return 1;
      }
    }
    if (built.NumSameBucketPairs() !=
        scalar_index->table(t).NumSameBucketPairs()) {
      std::cerr << "FATAL: scalar and SIMD builds diverged\n";
      return 1;
    }
  }
  std::cout << "bit-identity: all " << tables
            << " tables match the baseline build exactly\n\n";

  vsj::TablePrinter report("Static index build (" + std::to_string(scale.n) +
                           " vectors, k = " + std::to_string(scale.k) +
                           ", " + std::to_string(tables) + " tables)");
  report.SetHeader({"path", "build ms", "speedup"});
  auto ms = [](double millis) { return vsj::TablePrinter::Fmt(millis, 1); };
  report.AddRow({"baseline (alloc + per-pair gaussians + hash-map)",
                 ms(baseline.min), "1.00x"});
  report.AddRow({"vectorized, scalar kernels (cache + CSR arena)",
                 ms(scalar.min),
                 vsj::TablePrinter::Fmt(baseline.min / scalar.min, 2) + "x"});
  report.AddRow({std::string("vectorized, ") +
                     vsj::SimdLevelName(vsj::ActiveSimdLevel()) + " kernels",
                 ms(simd.min),
                 vsj::TablePrinter::Fmt(baseline.min / simd.min, 2) + "x"});
  report.Print(std::cout);

  // --- Cold open: what a static tenant pays before its first estimate. ---
  const std::string path = "/tmp/vsj_bench_lsh_build_open.vsjb";
  VSJ_CHECK(vsj::SaveDatasetToFile(dataset, path).ok());
  vsj::EstimationServiceOptions open_options;
  open_options.k = scale.k;
  open_options.num_tables = tables;
  open_options.num_threads = 2;
  open_options.family_seed = family_seed;
  const vsj::bench::Timing open = vsj::bench::TimeRuns(iters, [&] {
    vsj::MappedCsrStorage storage;
    VSJ_CHECK(vsj::MappedCsrStorage::Open(path, &storage).ok());
    const vsj::EstimationService service(vsj::DatasetView(storage),
                                         open_options);
  }).Scaled(1e3);
  std::remove(path.c_str());
  std::cout << "\nstatic tenant cold open (verified mmap + engine, 2 engine "
               "threads): "
            << ms(open.min) << " ms min, " << ms(open.median)
            << " ms median\n";

  json.Add("static_build_baseline", "ms", baseline, iters);
  json.Add("static_build_scalar_kernels", "ms", scalar, iters);
  json.Add(std::string("static_build_") +
               vsj::SimdLevelName(vsj::ActiveSimdLevel()) + "_kernels",
           "ms", simd, iters);
  json.Add("static_build_speedup", "x",
           {baseline.min / simd.min, baseline.median / simd.median},
           iters);
  json.Add("static_open_ms", "ms", open, iters);
  json.AddMetricsSnapshot();
  if (!json.Write()) return 1;
  std::cout << "\nper-build wall time is the unit (1-core dev containers "
               "show no parallel speedup); baseline replica is pre-PR code\n";
  return 0;
}
