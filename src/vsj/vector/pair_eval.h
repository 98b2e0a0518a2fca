// Batch pair evaluation: the innermost kernel of every estimator.
//
// Everything the library does with a sampled pair — SampleH hit counting,
// SampleL adaptive verification, brute-force joins, the acceptance suite's
// ground truth — bottoms out in "intersect two sorted sparse vectors and
// accumulate the matched products". This header owns that kernel in two
// shapes:
//
//  * PairDotCount / PairDot / PairOverlap: one pair, runtime-dispatched
//    (AVX2 or scalar via util/cpu.h). Three strategies find the matching
//    dims, chosen by the pair's shape:
//      - merge / gallop: the linear merge, and the galloping skip for
//        pairs whose long side is >= kGallopRatio× the short one;
//      - AVX2 rungs: broadcast-compare search with the long side resident
//        in registers (at most 32 dims), and a 4-wide window search for
//        longer pairs the scatter-probe declines;
//      - scatter-probe for long balanced pairs: the short side's positions
//        scattered into a per-thread table indexed by dim and tagged with
//        a per-call epoch (so the table is never cleared), the long side
//        probed against it without a data-dependent branch — 8 dims a
//        step with a gather at AVX2, one at a time at scalar.
//    Every strategy only *finds* matches; the FP accumulation of matched
//    products stays scalar, in increasing-dimension order, so every
//    strategy and level returns bit-identical doubles (DESIGN.md "Batch
//    pair evaluation").
//
//  * EvaluatePairSimilarities, with EvaluatePairBatch / CountPairsAtOrAbove
//    as its thresholded forms: up to kPairEvalBatch pairs at once. The
//    batch form materializes every VectorRef once (instead of re-deriving
//    it per prefetch and per evaluation), then evaluates in *locality
//    order* — sorted by the arena offset of the pair's feature columns,
//    NeedleTail-style — with the feature columns of the pair
//    kPairPrefetchDistance ahead prefetched. Reordering is legal because
//    each pair's similarity (and hit bit) is keyed by its original batch
//    index and a hit count is an order-insensitive sum; draws are never
//    reordered, so the sample set is bit-identical to the unbatched loop.

#ifndef VSJ_VECTOR_PAIR_EVAL_H_
#define VSJ_VECTOR_PAIR_EVAL_H_

#include <cstddef>
#include <cstdint>

#include "vsj/vector/dataset_view.h"
#include "vsj/vector/similarity.h"
#include "vsj/vector/vector_ref.h"

namespace vsj {

/// Pairs evaluated per batch by the sampling loops and the brute-force
/// joins, and how many pairs ahead of the (locality-ordered) evaluation
/// cursor the feature columns are prefetched. Tuning constants: neither
/// changes any draw or result. kPairEvalBatch must stay <= 64 so a batch's
/// hit set fits one uint64_t mask.
inline constexpr uint64_t kPairEvalBatch = 64;
inline constexpr uint64_t kPairPrefetchDistance = 8;

/// Locality reordering engages only when the batch's feature columns span
/// more address space than this (roughly an L2's worth): within a
/// cache-scale span, evaluation order cannot change residency and the sort
/// would be pure overhead. Policy knob only — hit results never depend on
/// evaluation order.
inline constexpr uint64_t kLocalitySortSpanBytes = uint64_t{2} << 20;

/// Dot product plus intersection size from one traversal.
struct PairDotResult {
  double dot = 0.0;
  uint32_t matches = 0;
};

/// Inner product and shared-dimension count of two sparse vectors: merge
/// join over the sorted dims, galloping when one side is >= kGallopRatio×
/// longer, the AVX2 rungs for long sides of at most 32 dims, the
/// scatter-probe above that. Pairs with an empty side or fully
/// disjoint dim ranges short-circuit to {0.0, 0} before any level-specific
/// code runs, so the scalar and SIMD paths cannot diverge on degenerate
/// input (the regression pair_eval_test pins this).
PairDotResult PairDotCount(VectorRef a, VectorRef b);

/// Inner product only (VectorRef::Dot routes here).
inline double PairDot(VectorRef a, VectorRef b) {
  return PairDotCount(a, b).dot;
}

/// Shared-dimension count only (VectorRef::OverlapSize routes here).
inline size_t PairOverlap(VectorRef a, VectorRef b) {
  return PairDotCount(a, b).matches;
}

/// Evaluates up to kPairEvalBatch pairs (firsts[i], seconds[i]) under
/// `measure` and writes pair i's similarity to similarities[i], in the
/// *original* order. The per-pair arithmetic is exactly Similarity() — same
/// kernel, same unit snap — so a threshold test on these values decides
/// every τ exactly as the unbatched loop would. Evaluation runs in locality
/// order (see file comment) with prefetching. A similarity does not depend
/// on τ, which is what lets one evaluation answer a whole τ-sweep.
/// Requires count <= kPairEvalBatch.
void EvaluatePairSimilarities(SimilarityMeasure measure, DatasetView dataset,
                              const VectorId* firsts, const VectorId* seconds,
                              size_t count, double* similarities);

/// Bit i set iff similarities[i] >= tau: one τ's hits over a batch of
/// EvaluatePairSimilarities output. Requires count <= kPairEvalBatch.
uint64_t SimilarityHitMask(const double* similarities, size_t count,
                           double tau);

/// EvaluatePairSimilarities thresholded at `tau`: returns the hit count and,
/// when `hit_mask` is non-null, stores SimilarityHitMask in *hit_mask — bit
/// i is pair i in the *original* order, which is what lets SampleL
/// reconstruct the exact draw its unbatched loop would have stopped on.
uint64_t EvaluatePairBatch(SimilarityMeasure measure, DatasetView dataset,
                           const VectorId* firsts, const VectorId* seconds,
                           size_t count, double tau, uint64_t* hit_mask);

/// The same, in the form that still names a prefetch distance, which it
/// ignores: servebench/layers.cc calls this form. Goes with that argument.
inline uint64_t EvaluatePairBatch(SimilarityMeasure measure,
                                  DatasetView dataset, const VectorId* firsts,
                                  const VectorId* seconds, size_t count,
                                  double tau, size_t /*prefetch_distance*/,
                                  uint64_t* hit_mask) {
  return EvaluatePairBatch(measure, dataset, firsts, seconds, count, tau,
                           hit_mask);
}

/// Counts how many of the `count` pairs have similarity >= tau, chunking
/// through EvaluatePairBatch. Order-independent by construction: any
/// permutation of the pair list returns the same count.
uint64_t CountPairsAtOrAbove(SimilarityMeasure measure, DatasetView dataset,
                             const VectorId* firsts, const VectorId* seconds,
                             size_t count, double tau);

}  // namespace vsj

#endif  // VSJ_VECTOR_PAIR_EVAL_H_
