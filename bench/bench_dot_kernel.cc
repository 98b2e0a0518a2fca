// Dot-kernel microbench: per-pair cost of SparseVector::Dot over the old
// per-vector heap layout vs. the columnar CSR arena, plus the galloping
// merge on skewed pairs, and the batched evaluator per SIMD level over
// synthetic shapes and a NYT-like corpus (the regime servebench serves).
//
// Not a paper figure: this pins down the storage-core claim of the
// columnar refactor. Layout A holds each vector as an individually
// heap-allocated SparseVector (the pre-refactor representation: every Dot
// chases two fresh pointers); layout B reads the same payloads from one
// contiguous CsrStorage arena through VectorRefs. Both run the identical
// kernel over the identical pair list, so the delta is purely memory
// layout. A third section isolates the galloping merge by timing skewed
// pairs (small · ratio = large) at ratios 1/8/64 against the arena, at the
// dispatched SIMD level and forced scalar.
//
// Scale knobs: VSJ_N (corpus size, default 4000), VSJ_PAIRS (pairs per
// measurement, default 200000), VSJ_ITERS (measurement repetitions,
// default 3 — CI smoke runs set 1), VSJ_SEED. `--json <path>` writes the
// headline numbers as JSON.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "vsj/util/cpu.h"
#include "vsj/util/hash.h"
#include "vsj/util/rng.h"
#include "vsj/vector/csr_storage.h"
#include "vsj/vector/dataset_view.h"
#include "vsj/vector/pair_eval.h"

namespace {

using vsj::VectorId;
using vsj::VectorRef;

struct PairList {
  std::vector<VectorId> first;
  std::vector<VectorId> second;
};

PairList SamplePairs(size_t n, size_t count, uint64_t seed) {
  PairList pairs;
  pairs.first.reserve(count);
  pairs.second.reserve(count);
  vsj::Rng rng(seed);
  for (size_t i = 0; i < count; ++i) {
    const vsj::VectorPair pair = vsj::SampleDistinctPair(n, rng);
    pairs.first.push_back(pair.first);
    pairs.second.push_back(pair.second);
  }
  return pairs;
}

/// Times `iters` passes of `dot(first, second)` over the pair list and
/// returns the ns/pair (plus the checksum so the work cannot be optimized
/// away).
template <typename Dot>
std::pair<vsj::bench::Timing, double> MeasureDot(const PairList& pairs,
                                                 size_t iters, Dot&& dot) {
  double checksum = 0.0;
  const vsj::bench::Timing timing = vsj::bench::TimeRuns(iters, [&] {
    double sum = 0.0;
    for (size_t i = 0; i < pairs.first.size(); ++i) {
      sum += dot(pairs.first[i], pairs.second[i]);
    }
    checksum = sum;
  });
  return {timing.Scaled(1e9 / static_cast<double>(pairs.first.size())),
          checksum};
}

/// Builds a cache-resident arena of `copies` (small, large) pairs whose
/// dims are drawn from [0, vocab) — vocab controls intersection density —
/// plus the aligned pair list addressing them.
struct BatchArena {
  vsj::CsrStorage storage;
  PairList pairs;
};

BatchArena BuildBatchArena(size_t small_size, size_t large_size, size_t vocab,
                           size_t num_pairs, uint64_t seed) {
  BatchArena arena;
  vsj::Rng rng(seed);
  const size_t copies = 512;
  for (size_t c = 0; c < copies; ++c) {
    std::vector<vsj::DimId> small_dims, large_dims;
    for (size_t i = 0; i < small_size; ++i) {
      small_dims.push_back(static_cast<vsj::DimId>(rng.Below(vocab)));
    }
    for (size_t i = 0; i < large_size; ++i) {
      large_dims.push_back(static_cast<vsj::DimId>(rng.Below(vocab)));
    }
    arena.storage.Append(vsj::SparseVector::FromDims(small_dims).ref());
    arena.storage.Append(vsj::SparseVector::FromDims(large_dims).ref());
  }
  for (size_t i = 0; i < num_pairs; ++i) {
    const auto c = static_cast<VectorId>(2 * (i % copies));
    arena.pairs.first.push_back(c);
    arena.pairs.second.push_back(c + 1);
  }
  return arena;
}

/// ns/pair of CountPairsAtOrAbove over `pairs` of `view` at the
/// *currently installed* SIMD level over `iters` runs.
vsj::bench::Timing MeasureBatched(vsj::DatasetView view,
                                  const PairList& pairs, size_t iters,
                                  double tau) {
  const vsj::bench::Timing timing = vsj::bench::TimeRuns(iters, [&] {
    vsj::CountPairsAtOrAbove(vsj::SimilarityMeasure::kCosine, view,
                             pairs.first.data(), pairs.second.data(),
                             pairs.first.size(), tau);
  });
  return timing.Scaled(1e9 / static_cast<double>(pairs.first.size()));
}

/// A hash of the bit patterns of every pair's cosine at the currently
/// installed SIMD level, in pair order: the cross-level bit-identity check
/// of the batched section (equal hit counts alone would let a last-bit
/// difference through).
uint64_t SimilarityBitsHash(vsj::DatasetView view, const PairList& pairs) {
  uint64_t hash = 0;
  for (size_t off = 0; off < pairs.first.size(); off += vsj::kPairEvalBatch) {
    const size_t count = std::min<size_t>(vsj::kPairEvalBatch,
                                          pairs.first.size() - off);
    double similarities[vsj::kPairEvalBatch];
    vsj::EvaluatePairSimilarities(
        vsj::SimilarityMeasure::kCosine, view, pairs.first.data() + off,
        pairs.second.data() + off, count, similarities);
    for (size_t i = 0; i < count; ++i) {
      hash = vsj::HashCombine(hash, std::bit_cast<uint64_t>(similarities[i]));
    }
  }
  return hash;
}

/// The SIMD levels this host can run, widest-first for the table.
std::vector<vsj::SimdLevel> BenchLevels() {
  std::vector<vsj::SimdLevel> levels;
  const vsj::SimdLevel max = vsj::DetectSimdLevel();
  if (max >= vsj::SimdLevel::kAvx2) levels.push_back(vsj::SimdLevel::kAvx2);
  levels.push_back(vsj::SimdLevel::kScalar);
  return levels;
}

}  // namespace

int main(int argc, char** argv) {
  const vsj::bench::Scale scale = vsj::bench::LoadScale(4000);
  vsj::bench::BenchJson json(argc, argv, "bench_dot_kernel");
  // Every section times a list of num_pairs / 8 pairs or more.
  const size_t num_pairs = vsj::bench::EnvCount("VSJ_PAIRS", 200000, 8);
  const size_t iters = scale.iters;
  std::cout << "dot kernel bench: n = " << scale.n << ", " << num_pairs
            << " pairs, best of " << iters << " iteration(s)\n";

  const vsj::VectorDataset dataset =
      vsj::GenerateCorpus(vsj::DblpLikeConfig(scale.n, scale.seed));
  const vsj::DatasetStats stats = dataset.ComputeStats();
  std::cout << "corpus: " << stats.num_vectors << " vectors, avg "
            << stats.avg_features << " features\n\n";

  // Layout A: one heap-allocated SparseVector per vector (the pre-columnar
  // representation — header array contiguous, payloads scattered).
  std::vector<vsj::SparseVector> scattered;
  scattered.reserve(dataset.size());
  for (VectorRef v : vsj::DatasetView(dataset)) {
    scattered.emplace_back(v);
  }
  // Layout B: the contiguous arena the dataset already owns.
  const vsj::CsrStorage& arena = dataset.storage();

  const PairList pairs = SamplePairs(dataset.size(), num_pairs, scale.seed);

  const auto [old_ns, old_sum] =
      MeasureDot(pairs, iters, [&](VectorId a, VectorId b) {
        return scattered[a].ref().Dot(scattered[b].ref());
      });
  const auto [csr_ns, csr_sum] =
      MeasureDot(pairs, iters, [&](VectorId a, VectorId b) {
        return arena.Ref(a).Dot(arena.Ref(b));
      });
  if (old_sum != csr_sum) {
    std::cerr << "FATAL: layouts disagree (" << old_sum << " vs " << csr_sum
              << ")\n";
    return 1;
  }

  vsj::TablePrinter layout("Dot cost by storage layout (identical pairs)");
  layout.SetHeader({"layout", "ns/pair", "vs per-vector"});
  layout.AddRow(
      {"per-vector heap", vsj::TablePrinter::Fmt(old_ns.min, 1), "1.00x"});
  layout.AddRow({"CSR arena", vsj::TablePrinter::Fmt(csr_ns.min, 1),
                 vsj::TablePrinter::Fmt(old_ns.min / csr_ns.min, 2) + "x"});
  layout.Print(std::cout);
  json.Add("dot_per_vector_heap", "ns_per_pair", old_ns, iters);
  json.Add("dot_csr_arena", "ns_per_pair", csr_ns, iters);

  // Skewed pairs: small vectors dotted against ratio-times-longer ones;
  // ratios >= 8 take the galloping path. The last column is the same
  // production Dot with the kernels forced scalar; its sums must match.
  std::cout << "\n";
  vsj::TablePrinter skew("Skewed-pair Dot (small size 32, CSR arena)");
  skew.SetHeader({"size ratio", "merge", "ns/pair", "scalar ns/pair"});
  for (const size_t ratio : {size_t{1}, size_t{8}, size_t{64}}) {
    const BatchArena skewed = BuildBatchArena(
        32, 32 * ratio, 4 * 32 * ratio, num_pairs / 8, scale.seed ^ ratio);
    const auto [ns, sum] =
        MeasureDot(skewed.pairs, iters, [&](VectorId a, VectorId b) {
          return skewed.storage.Ref(a).Dot(skewed.storage.Ref(b));
        });
    vsj::SetSimdLevel(vsj::SimdLevel::kScalar);
    const auto [scalar_ns, scalar_sum] =
        MeasureDot(skewed.pairs, iters, [&](VectorId a, VectorId b) {
          return skewed.storage.Ref(a).Dot(skewed.storage.Ref(b));
        });
    vsj::ResetSimdLevel();
    if (sum != scalar_sum) {
      std::cerr << "FATAL: dispatched and scalar Dot disagree\n";
      return 1;
    }
    skew.AddRow({std::to_string(ratio) + ":1",
                 ratio >= vsj::kGallopRatio ? "gallop" : "linear",
                 vsj::TablePrinter::Fmt(ns.min, 1),
                 vsj::TablePrinter::Fmt(scalar_ns.min, 1)});
    json.Add("dot_skew_" + std::to_string(ratio) + "to1", "ns_per_pair", ns,
             iters);
  }
  skew.Print(std::cout);

  // Batched pair evaluation (CountPairsAtOrAbove → EvaluatePairBatch): the
  // path the estimators actually run, measured per dispatched level over the
  // skew ratios and an intersection-density sweep. dense_14 mirrors the
  // dblp-like common case (the AVX2 full-residency rung); the 32-dim rows
  // sweep density at the 17..32 rung; skew >= 8 takes the gallop at every
  // level; len_64 is a synthetic balanced shape on the scatter-probe
  // (long side > 32 dims). len_220 is the served regime: random pairs of a
  // NYT-like TF-IDF corpus (~220 features a vector, an arena far larger
  // than L2), and len_120 the same over a PubMed-like corpus, next to the
  // cache-resident synthetic rows. Every pair's similarity must have the
  // same bits at every level — bit-identity is what makes the level a pure
  // throughput knob.
  struct BatchedRow {
    const char* name;
    size_t small, large, vocab;
  };
  const BatchedRow batched_rows[] = {
      {"skew_1to1", 32, 32, 4 * 32},
      {"skew_8to1", 32, 256, 4 * 256},
      {"skew_64to1", 32, 2048, 4 * 2048},
      {"density_dense_14", 14, 14, 28},
      {"density_dense_32", 32, 32, 64},
      {"density_mid_32", 32, 32, 256},
      {"density_sparse_32", 32, 32, 2048},
      {"len_64", 64, 64, 1024},
  };
  const std::vector<vsj::SimdLevel> levels = BenchLevels();
  std::cout << "\n";
  vsj::TablePrinter batched("Batched pair evaluation by SIMD level");
  std::vector<std::string> header = {"row", "pair shape"};
  for (const vsj::SimdLevel level : levels) {
    header.push_back(std::string(vsj::SimdLevelName(level)) + " ns/pair");
  }
  header.push_back("best vs scalar");
  batched.SetHeader(header);
  const auto measure_row = [&](const std::string& name,
                               const std::string& shape,
                               vsj::DatasetView view, const PairList& pairs) {
    std::vector<std::string> cells = {name, shape};
    double scalar_ns = 0.0, best_ns = 0.0;
    uint64_t reference_bits = 0;
    bool first_level = true;
    for (const vsj::SimdLevel level : levels) {
      vsj::SetSimdLevel(level);
      const vsj::bench::Timing timing =
          MeasureBatched(view, pairs, iters, 0.5);
      const uint64_t bits = SimilarityBitsHash(view, pairs);
      vsj::ResetSimdLevel();
      const double ns = timing.min;
      if (first_level) {
        reference_bits = bits;
        best_ns = ns;
        first_level = false;
      } else if (bits != reference_bits) {
        std::cerr << "FATAL: batched similarities differ across levels ("
                  << name << ")\n";
        return false;
      }
      if (level == vsj::SimdLevel::kScalar) scalar_ns = ns;
      best_ns = std::min(best_ns, ns);
      cells.push_back(vsj::TablePrinter::Fmt(ns, 1));
      json.Add("batched_" + name + "_" + vsj::SimdLevelName(level),
               "ns_per_pair", timing, iters);
    }
    cells.push_back(vsj::TablePrinter::Fmt(scalar_ns / best_ns, 2) + "x");
    batched.AddRow(cells);
    return true;
  };
  for (const BatchedRow& row : batched_rows) {
    const BatchArena arena = BuildBatchArena(
        row.small, row.large, row.vocab, num_pairs / 8, scale.seed ^ row.vocab);
    if (!measure_row(row.name,
                     std::to_string(row.small) + "x" +
                         std::to_string(row.large),
                     vsj::DatasetView(arena.storage), arena.pairs)) {
      return 1;
    }
  }
  const std::pair<const char*, vsj::CorpusConfig> corpus_rows[] = {
      {"len_220", vsj::NytLikeConfig(scale.n, scale.seed)},
      {"len_120", vsj::PubmedLikeConfig(scale.n, scale.seed)},
  };
  for (const auto& [name, config] : corpus_rows) {
    const vsj::VectorDataset corpus = vsj::GenerateCorpus(config);
    const double features = corpus.ComputeStats().avg_features;
    if (!measure_row(name,
                     config.name + " ~" + vsj::TablePrinter::Fmt(features, 0),
                     vsj::DatasetView(corpus),
                     SamplePairs(corpus.size(), num_pairs / 8, scale.seed))) {
      return 1;
    }
  }
  batched.Print(std::cout);
  json.AddMetricsSnapshot();
  if (!json.Write()) return 1;
  std::cout << "\nper-pair cost is the paper-relevant unit (1-core dev "
               "containers show no parallel speedup)\n";
  return 0;
}
