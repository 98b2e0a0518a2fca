// Bit-identity and correctness suite for the batch pair-evaluation engine
// (vector/pair_eval.h). The contract under test, from DESIGN.md "Batch pair
// evaluation":
//
//  * Every strategy of the sparse-intersection kernel — scalar merge,
//    galloping merge, the AVX2 small-vector fast paths (long side <= 16 and
//    17..32 dims) and the scatter-probe for long balanced pairs (and the
//    paths it declines to — the level kernel, AVX2's window search — for
//    short-side dim spans over 2^16 and short sides of 65535+ entries)
//    — returns doubles bit-identical to a
//    plain linear merge at every level, because only the *search* for
//    matching dims differs while the FP accumulation stays scalar in
//    increasing-dimension order.
//  * On unsorted dims (which the loaders refuse, but a VectorRef can still
//    hold) every path stays in bounds and returns a finite value.
//  * Degenerate pairs (an empty side, fully disjoint dim ranges) short-
//    circuit to {0.0, 0} before any level-specific code runs.
//  * EvaluatePairBatch's hit mask equals the unbatched Similarity() loop
//    bit for bit, keyed by original batch index, regardless of the internal
//    locality reordering; CountPairsAtOrAbove is invariant under any
//    permutation of its pair list.
//
// CI runs this binary twice — default dispatch and VSJ_FORCE_SCALAR=1 —
// like the hashing-side simd_dispatch_test.

#include "vsj/vector/pair_eval.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "vsj/core/estimator_registry.h"
#include "vsj/lsh/lsh_index.h"
#include "vsj/lsh/minhash.h"
#include "vsj/util/cpu.h"
#include "vsj/util/rng.h"
#include "vsj/vector/csr_storage.h"
#include "vsj/vector/dataset_view.h"
#include "vsj/vector/similarity.h"
#include "vsj/vector/sparse_vector.h"
#include "vsj/vector/vector_dataset.h"

namespace vsj {
namespace {

constexpr uint64_t kSeed = 0x9a17e7a1ULL;

std::vector<SimdLevel> SupportedLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  const SimdLevel detected = DetectSimdLevel();
  if (detected >= SimdLevel::kAvx2) levels.push_back(SimdLevel::kAvx2);
  return levels;
}

template <typename Body>
auto RunAtEveryLevel(Body&& body) -> std::vector<decltype(body())> {
  std::vector<decltype(body())> results;
  for (const SimdLevel level : SupportedLevels()) {
    EXPECT_EQ(SetSimdLevel(level), level)
        << "host cannot force " << SimdLevelName(level);
    results.push_back(body());
  }
  ResetSimdLevel();
  return results;
}

/// The reference the kernels are measured against: a plain linear merge,
/// no gallop, no windows — one double multiply + add per match in
/// increasing-dimension order. Written locally so a bug in the production
/// scalar path cannot hide by also being the oracle.
PairDotResult ReferenceDotCount(VectorRef a, VectorRef b) {
  PairDotResult r;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a.dim(i) < b.dim(j)) {
      ++i;
    } else if (a.dim(i) > b.dim(j)) {
      ++j;
    } else {
      r.dot += static_cast<double>(a.weight(i)) * b.weight(j);
      ++r.matches;
      ++i;
      ++j;
    }
  }
  return r;
}

/// Random strictly-increasing dims: `len` distinct ids from [0, range),
/// weights in (0.1, 2.1). `range` controls intersection density — a tight
/// range forces dense overlap, a wide one makes matches rare.
SparseVector RandomSortedVector(Rng& rng, size_t len, uint32_t range) {
  std::set<DimId> dims;
  while (dims.size() < len) {
    dims.insert(static_cast<DimId>(rng.Below(range)));
  }
  std::vector<Feature> features;
  features.reserve(len);
  for (const DimId d : dims) {
    features.push_back(
        Feature{d, static_cast<float>(0.1 + rng.NextDouble() * 2.0)});
  }
  return SparseVector(std::move(features));
}

/// `len` strictly increasing dims whose first is `first` and last is
/// `first + span - 1` (len >= 2, span >= len), the rest drawn from between;
/// `len == span` gives the contiguous run. Weights as RandomSortedVector.
SparseVector SpanVector(Rng& rng, size_t len, DimId first, uint32_t span) {
  std::set<DimId> dims = {first, first + (span - 1)};
  if (len == span) {
    for (uint32_t d = 1; d + 1 < span; ++d) dims.insert(first + d);
  }
  while (dims.size() < len) {
    dims.insert(first + static_cast<DimId>(rng.Below(span)));
  }
  std::vector<Feature> features;
  features.reserve(len);
  for (const DimId d : dims) {
    features.push_back(
        Feature{d, static_cast<float>(0.1 + rng.NextDouble() * 2.0)});
  }
  return SparseVector(std::move(features));
}

/// A partner for `a` of `len` strictly increasing dims: about half taken
/// from `a` (so matches are plentiful and include a's last dim), the rest
/// drawn from [lo, lo + range).
SparseVector PartnerVector(Rng& rng, const SparseVector& a, size_t len,
                           DimId lo, uint32_t range) {
  std::set<DimId> dims = {a.ref().dim(a.size() - 1)};
  while (dims.size() < len / 2 && dims.size() < a.size()) {
    dims.insert(a.ref().dim(rng.Below(a.size())));
  }
  while (dims.size() < len) {
    dims.insert(lo + static_cast<DimId>(rng.Below(range)));
  }
  std::vector<Feature> features;
  features.reserve(len);
  for (const DimId d : dims) {
    features.push_back(
        Feature{d, static_cast<float>(0.1 + rng.NextDouble() * 2.0)});
  }
  return SparseVector(std::move(features));
}

/// Asserts PairDotCount(a, b) and PairDotCount(b, a) equal the linear-merge
/// reference bit for bit at every level.
void ExpectMatchesReferenceAtEveryLevel(const SparseVector& a,
                                        const SparseVector& b,
                                        const std::string& label) {
  const PairDotResult want = ReferenceDotCount(a, b);
  const auto results = RunAtEveryLevel([&] {
    return std::pair<PairDotResult, PairDotResult>(PairDotCount(a, b),
                                                   PairDotCount(b, a));
  });
  for (size_t l = 0; l < results.size(); ++l) {
    const auto& [fwd, rev] = results[l];
    EXPECT_EQ(std::bit_cast<uint64_t>(fwd.dot),
              std::bit_cast<uint64_t>(want.dot))
        << label << " level " << l;
    EXPECT_EQ(fwd.matches, want.matches) << label << " level " << l;
    EXPECT_EQ(std::bit_cast<uint64_t>(rev.dot),
              std::bit_cast<uint64_t>(want.dot))
        << label << " swapped, level " << l;
    EXPECT_EQ(rev.matches, want.matches) << label << " swapped, level " << l;
  }
}

// ---------------------------------------------------------------------------
// Satellite regression: degenerate pairs must short-circuit identically at
// every level. Empty sides and fully disjoint dim ranges return {0.0, 0}
// before any kernel-specific code runs, so scalar and SIMD cannot diverge
// even in principle.

TEST(PairEvalTest, EmptyAndDisjointPairsShortCircuitAtEveryLevel) {
  const SparseVector empty;
  const SparseVector low = SparseVector::FromDims({1, 4, 9});
  const SparseVector high = SparseVector::FromDims({1000, 1004, 1009});
  const SparseVector touching = SparseVector::FromDims({9, 500, 1000});

  for (const SimdLevel level : SupportedLevels()) {
    SetSimdLevel(level);
    for (const auto& [a, b] : std::vector<std::pair<VectorRef, VectorRef>>{
             {empty, empty},
             {empty, low},
             {low, empty},
             {low, high},   // ranges fully disjoint
             {high, low}}) {
      const PairDotResult r = PairDotCount(a, b);
      EXPECT_EQ(r.dot, 0.0) << SimdLevelName(level);
      EXPECT_EQ(r.matches, 0u) << SimdLevelName(level);
      EXPECT_EQ(PairOverlap(a, b), 0u) << SimdLevelName(level);
      EXPECT_EQ(PairDot(a, b), 0.0) << SimdLevelName(level);
    }
    // Ranges that merely *touch* must not be treated as disjoint.
    const PairDotResult t = PairDotCount(low, touching);
    EXPECT_EQ(t.matches, 1u) << SimdLevelName(level);
    EXPECT_EQ(t.dot, 1.0) << SimdLevelName(level);
  }
  ResetSimdLevel();
}

TEST(PairEvalTest, BatchWithEmptyVectorsMatchesUnbatchedLoop) {
  // An arena holding empty vectors alongside real ones: pairs touching an
  // empty side must behave identically in the batch path (which
  // materializes refs and reorders) and the plain Similarity loop.
  CsrStorage storage;
  Rng rng(kSeed ^ 0xe);
  const SparseVector empty;
  for (int i = 0; i < 24; ++i) {
    if (i % 3 == 0) {
      storage.Append(empty);
    } else {
      storage.Append(RandomSortedVector(rng, 1 + rng.Below(12), 64));
    }
  }
  const DatasetView view(storage);
  std::vector<VectorId> firsts, seconds;
  for (VectorId i = 0; i < 24; ++i) {
    for (VectorId j = 0; j < 24; ++j) {
      firsts.push_back(i);
      seconds.push_back(j);
    }
  }
  for (const auto measure :
       {SimilarityMeasure::kCosine, SimilarityMeasure::kJaccard}) {
    const auto counts = RunAtEveryLevel([&] {
      return CountPairsAtOrAbove(measure, view, firsts.data(), seconds.data(),
                                 firsts.size(), 0.3);
    });
    uint64_t expected = 0;
    for (size_t p = 0; p < firsts.size(); ++p) {
      if (Similarity(measure, view[firsts[p]], view[seconds[p]]) >= 0.3) {
        ++expected;
      }
    }
    for (const uint64_t c : counts) {
      EXPECT_EQ(c, expected) << SimilarityMeasureName(measure);
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized property grid: every kernel path bitwise-equal to the local
// linear-merge reference across skew (gallop engages at >= kGallopRatio),
// long-side length (the AVX2 <=16 / 17..32 rungs, the scatter-probe above
// 32) and dim range (intersection density from near-total overlap to
// near-disjoint), then the scatter-probe's edges: short-side dim spans at
// and past its 2^16 table, dims near UINT32_MAX, and short sides too long
// for its uint16_t positions.

TEST(PairEvalTest, KernelGridMatchesLinearMergeReferenceBitwise) {
  // (short length, long length): chosen to land in every traversal path.
  const std::pair<size_t, size_t> kShapes[] = {
      {1, 1},   {2, 5},   {7, 14},  {13, 16}, {16, 16},  // AVX2 <=16 rung
      {9, 24},  {17, 32},                                // AVX2 17..32 rung
      {20, 40}, {33, 48}, {40, 64},                      // scatter-probe
      {33, 33}, {40, 300}, {200, 234}, {250, 1000},      // long balanced,
                                                         // across chunks
      {1, 12},  {2, 30},  {4, 64},  {3, 200},            // gallop (>=8x skew)
  };
  ASSERT_GE(kGallopRatio, 8u) << "gallop rows above assume ratio 8";

  uint64_t trial_seed = kSeed;
  for (const auto& [short_len, long_len] : kShapes) {
    for (const uint32_t range_factor : {2u, 4u, 16u}) {
      const auto range =
          static_cast<uint32_t>(std::max<size_t>(long_len * range_factor, 2));
      for (int trial = 0; trial < 4; ++trial) {
        Rng rng(++trial_seed);
        const SparseVector a = RandomSortedVector(rng, short_len, range);
        const SparseVector b = RandomSortedVector(rng, long_len, range);
        const PairDotResult want = ReferenceDotCount(a, b);

        // Both argument orders: the small/large swap must not change the
        // accumulation order (matches arrive by increasing dim either way).
        const auto results = RunAtEveryLevel([&] {
          const PairDotResult fwd = PairDotCount(a, b);
          const PairDotResult rev = PairDotCount(b, a);
          return std::pair<PairDotResult, PairDotResult>(fwd, rev);
        });
        for (size_t l = 0; l < results.size(); ++l) {
          const auto& [fwd, rev] = results[l];
          ASSERT_EQ(fwd.dot, want.dot)
              << short_len << "x" << long_len << " range " << range
              << " level " << l;
          ASSERT_EQ(fwd.matches, want.matches)
              << short_len << "x" << long_len << " range " << range
              << " level " << l;
          ASSERT_EQ(rev.dot, want.dot) << "swapped, level " << l;
          ASSERT_EQ(rev.matches, want.matches) << "swapped, level " << l;
        }
      }
    }
  }

  // Short-side dim spans around the scatter table's 2^16 entries: 65535
  // and 65536 fit it, 65537 is declined to the level kernel. Each partner
  // shares the short side's last dim, the slot at the table's far end.
  Rng rng(kSeed ^ 0x5ca7);
  for (const uint32_t span : {65535u, 65536u, 65537u}) {
    for (const DimId first : {DimId{0}, DimId{1000}}) {
      const SparseVector a = SpanVector(rng, 120, first, span);
      const SparseVector b =
          PartnerVector(rng, a, 300, first > 0 ? first - 500 : 0, span + 1000);
      ExpectMatchesReferenceAtEveryLevel(
          a, b, "span " + std::to_string(span) + " from " +
                    std::to_string(first));
    }
  }

  // Dims near UINT32_MAX: the span arithmetic must not wrap, and long-side
  // dims below the short side's first dim must miss, not alias a slot.
  constexpr DimId kTop = std::numeric_limits<DimId>::max();
  for (const uint32_t span : {64u, 5000u, 65536u}) {
    const SparseVector a = SpanVector(rng, 48, kTop - (span - 1), span);
    const SparseVector b = PartnerVector(rng, a, 90, kTop - 2 * span, 2 * span);
    ExpectMatchesReferenceAtEveryLevel(
        a, b, "top span " + std::to_string(span));
  }

  // Short sides of 65535 and 65536 entries: the second's last position
  // does not fit uint16_t + 1, so the scatter-probe must decline it (a
  // wrapped position would drop the match on the short side's last dim).
  for (const size_t len : {size_t{65535}, size_t{65536}}) {
    const auto span = static_cast<uint32_t>(len);
    const SparseVector a = SpanVector(rng, len, 7, span);
    const SparseVector b = PartnerVector(rng, a, len + 400, 0, span + 400);
    ExpectMatchesReferenceAtEveryLevel(a, b,
                                       "short side " + std::to_string(len));
  }
}

// ---------------------------------------------------------------------------
// Hostile input: a VectorRef with unsorted dims (the VSJB/VSJS loaders
// refuse such files, but the kernels must not rely on that for memory
// safety). Every path — merge, gallop, SIMD rungs, scatter-probe and its
// declines — must stay in bounds (the ASan/UBSan leg runs this) and return
// a finite value; the value itself is meaningless.

TEST(PairEvalTest, UnsortedDimsStayInBoundsAndFinite) {
  Rng rng(kSeed ^ 0xbad);
  CsrStorage storage;
  // Column storage for the hand-built refs; reserved so no pointer moves.
  std::vector<std::vector<DimId>> dims;
  std::vector<std::vector<float>> weights;
  dims.reserve(64);
  weights.reserve(64);
  const auto add = [&](std::vector<DimId> d) {
    std::vector<float> w(d.size());
    double norm2 = 0.0, l1 = 0.0;
    for (float& x : w) {
      x = static_cast<float>(0.1 + rng.NextDouble());
      norm2 += static_cast<double>(x) * x;
      l1 += x;
    }
    dims.push_back(std::move(d));
    weights.push_back(std::move(w));
    storage.Append(VectorRef(dims.back().data(), weights.back().data(),
                             static_cast<uint32_t>(dims.back().size()),
                             std::sqrt(norm2), l1));
  };
  for (const size_t len : {3u, 12u, 20u, 33u, 64u, 234u, 700u}) {
    std::vector<DimId> shuffled(len);
    for (size_t i = 0; i < len; ++i) {
      shuffled[i] = static_cast<DimId>(rng.Below(4 * len + 1));
    }
    add(shuffled);  // random order, duplicates allowed
    std::vector<DimId> descending = shuffled;
    std::sort(descending.rbegin(), descending.rend());
    add(descending);  // last dim below the first
    std::vector<DimId> wild = shuffled;
    wild.front() = 1000;  // first < last, middle dims below the first
    wild.back() = 1000 + static_cast<DimId>(len);
    add(wild);
    std::vector<DimId> extremes = shuffled;
    extremes[len / 2] = std::numeric_limits<DimId>::max();
    extremes.front() = 0;
    extremes.back() = 70000;  // span past the scatter table
    add(extremes);
  }
  const DatasetView view(storage);
  std::vector<VectorId> firsts, seconds;
  for (VectorId i = 0; i < view.size(); ++i) {
    for (VectorId j = 0; j < view.size(); ++j) {
      firsts.push_back(i);
      seconds.push_back(j);
    }
  }
  RunAtEveryLevel([&] {
    for (size_t p = 0; p < firsts.size(); ++p) {
      const PairDotResult r =
          PairDotCount(view[firsts[p]], view[seconds[p]]);
      EXPECT_TRUE(std::isfinite(r.dot)) << "pair " << p;
    }
    for (size_t off = 0; off < firsts.size(); off += kPairEvalBatch) {
      const size_t count =
          std::min<size_t>(kPairEvalBatch, firsts.size() - off);
      double similarities[kPairEvalBatch];
      EvaluatePairSimilarities(SimilarityMeasure::kCosine, view,
                               firsts.data() + off, seconds.data() + off,
                               count, similarities);
      for (size_t i = 0; i < count; ++i) {
        EXPECT_TRUE(std::isfinite(similarities[i])) << "pair " << off + i;
      }
    }
    return 0;
  });
}

// ---------------------------------------------------------------------------
// The scatter-probe's table is never cleared: each call tags its slots with
// the thread's 16-bit epoch, and the table is zeroed only when it grows or
// the epoch wraps (every 65535 calls). These cases make a stale slot able to
// match if either rule broke, and cover the 8-wide probe's tails and chunks.

TEST(PairEvalTest, ScatterProbeEpochWrapAndGrowthMatchReference) {
  // Call c pairs the short side S(k), k = (c + 7) mod 65536, with a long
  // side that also holds S(k + 1)'s own dim. All short sides span dims 0 to
  // a shared top dim, so their spans overlap and share slot indices; S(k)'s
  // own dim 5 + k is in no other short side, so its slot keeps the tag of
  // S(k)'s last call, 65535 calls back: the same epoch value after one
  // wrap. A probe that skipped the zeroing at the wrap, or reused an epoch,
  // would count that slot as a match. The top dim moves from 8191 to 65535
  // at call 4096, so the table grows mid-run. Each level runs on a fresh
  // thread — a fresh table and epoch — for two wraps' worth of calls, every
  // call checked bitwise.
  constexpr size_t kCalls = 2 * 65536 + 64;
  constexpr size_t kUnique = 65530;  // own dims 5 .. 65534
  const auto short_side = [](size_t c, size_t k) {
    std::vector<DimId> dims = {0, 1, 2, 3, 4};
    if (k < kUnique) dims.push_back(static_cast<DimId>(5 + k));
    dims.push_back(c < 4096 ? 8191 : 65535);
    return dims;
  };
  const auto long_side = [&](size_t c, size_t k) {
    std::vector<DimId> dims = short_side(c, k);
    const size_t next = (k + 1) % 65536;
    if (next < kUnique) dims.push_back(static_cast<DimId>(5 + next));
    // Past every short side's span: these probe the sentinel slot.
    for (DimId d = 0; d < 30; ++d) dims.push_back(70000 + d);
    std::sort(dims.begin(), dims.end());
    return dims;
  };
  const auto weighted = [](const std::vector<DimId>& dims, float scale) {
    std::vector<Feature> features;
    for (const DimId d : dims) {
      features.push_back(
          Feature{d, scale + static_cast<float>(d % 97) * 0.01f});
    }
    return SparseVector(std::move(features));
  };
  for (const SimdLevel level : SupportedLevels()) {
    ASSERT_EQ(SetSimdLevel(level), level);
    size_t mismatches = 0;
    size_t first_mismatch = kCalls;
    std::thread worker([&] {
      for (size_t c = 0; c < kCalls; ++c) {
        const size_t k = (c + 7) % 65536;
        const SparseVector a = weighted(short_side(c, k), 1.0f);
        const SparseVector b = weighted(long_side(c, k), 0.5f);
        const PairDotResult want = ReferenceDotCount(a, b);
        const PairDotResult got = PairDotCount(a, b);
        if (std::bit_cast<uint64_t>(got.dot) !=
                std::bit_cast<uint64_t>(want.dot) ||
            got.matches != want.matches) {
          if (mismatches++ == 0) first_mismatch = c;
        }
      }
    });
    worker.join();
    EXPECT_EQ(mismatches, 0u) << SimdLevelName(level) << ", first at call "
                              << first_mismatch;
  }
  ResetSimdLevel();
}

TEST(PairEvalTest, ScatterProbeTailsAndChunksMatchReference) {
  // Long sides of 33..48 dims leave every tail length mod 8 after the
  // 8-wide steps; long sides past 128 dims (the probe's chunk) cross one or
  // more chunk ends. Short sides stay within the gallop ratio, and a tight
  // dim range makes hits dense, so every left-pack mask shape occurs.
  Rng rng(kSeed ^ 0x7a11);
  std::vector<size_t> long_lengths;
  for (size_t len = 33; len <= 48; ++len) long_lengths.push_back(len);
  for (const size_t len : {127u, 128u, 129u, 135u, 255u, 256u, 257u, 700u}) {
    long_lengths.push_back(len);
  }
  for (const size_t long_len : long_lengths) {
    for (const size_t short_len : {long_len / 7 + 1, long_len / 2, long_len}) {
      for (const uint32_t range_factor : {1u, 2u, 8u}) {
        const auto range = static_cast<uint32_t>(long_len * range_factor);
        const SparseVector a = RandomSortedVector(rng, short_len, range);
        const SparseVector b = RandomSortedVector(rng, long_len, range);
        ExpectMatchesReferenceAtEveryLevel(
            a, b,
            std::to_string(short_len) + "x" + std::to_string(long_len) +
                " range " + std::to_string(range));
      }
    }
  }
}

TEST(PairEvalTest, DenseIdenticalVectorsMatchEveryLane) {
  // Every probe hits, across all lane positions of the small kernels: the
  // valid-lane masking must not drop lane 15 / 31 and dim id 0 must not
  // alias a masked-out zero lane (weights differ so a false lane-0 match
  // would change the sum).
  for (const size_t len : {1u, 8u, 15u, 16u, 17u, 24u, 31u, 32u, 33u, 48u}) {
    std::vector<Feature> fa, fb;
    for (size_t d = 0; d < len; ++d) {
      fa.push_back(Feature{static_cast<DimId>(d), 1.0f + d * 0.25f});
      fb.push_back(Feature{static_cast<DimId>(d), 2.0f - d * 0.03f});
    }
    const SparseVector a(std::move(fa));
    const SparseVector b(std::move(fb));
    const PairDotResult want = ReferenceDotCount(a, b);
    ASSERT_EQ(want.matches, len);
    const auto results = RunAtEveryLevel([&] { return PairDotCount(a, b); });
    for (size_t l = 0; l < results.size(); ++l) {
      ASSERT_EQ(results[l].dot, want.dot) << "len " << len << " level " << l;
      ASSERT_EQ(results[l].matches, len) << "len " << len << " level " << l;
    }
  }
}

// ---------------------------------------------------------------------------
// Batch semantics: hit mask bit-identical to the unbatched Similarity loop,
// keyed by original index; counts invariant under pair-list permutation.

TEST(PairEvalTest, BatchHitMaskMatchesUnbatchedSimilarityLoop) {
  const VectorDataset dataset = testing::SmallClusteredCorpus(300, 29);
  const DatasetView view(dataset);
  Rng pair_rng(kSeed ^ 0x5);
  for (const auto measure :
       {SimilarityMeasure::kCosine, SimilarityMeasure::kJaccard}) {
    for (const double tau : {0.1, 0.5, 0.9}) {
      // Odd count: exercises a partial batch alongside full ones.
      constexpr size_t kCount = 37;
      VectorId firsts[kCount], seconds[kCount];
      for (size_t i = 0; i < kCount; ++i) {
        firsts[i] = static_cast<VectorId>(pair_rng.Below(view.size()));
        seconds[i] = static_cast<VectorId>(pair_rng.Below(view.size()));
      }
      uint64_t expected_mask = 0;
      for (size_t i = 0; i < kCount; ++i) {
        if (Similarity(measure, view[firsts[i]], view[seconds[i]]) >= tau) {
          expected_mask |= uint64_t{1} << i;
        }
      }
      const auto masks = RunAtEveryLevel([&] {
        uint64_t mask = 0;
        const uint64_t hits =
            EvaluatePairBatch(measure, view, firsts, seconds, kCount, tau,
                              &mask);
        EXPECT_EQ(hits, static_cast<uint64_t>(__builtin_popcountll(mask)));
        return mask;
      });
      for (const uint64_t mask : masks) {
        ASSERT_EQ(mask, expected_mask)
            << SimilarityMeasureName(measure) << " tau " << tau;
      }
    }
  }
}

TEST(PairEvalTest, EmptyBatchIsANoOp) {
  const VectorDataset dataset = testing::SmallClusteredCorpus(16, 3);
  const DatasetView view(dataset);
  uint64_t mask = ~uint64_t{0};
  EXPECT_EQ(EvaluatePairBatch(SimilarityMeasure::kCosine, view, nullptr,
                              nullptr, 0, 0.5, &mask),
            0u);
  EXPECT_EQ(mask, 0u);
  EXPECT_EQ(CountPairsAtOrAbove(SimilarityMeasure::kCosine, view, nullptr,
                                nullptr, 0, 0.5),
            0u);
}

TEST(PairEvalTest, CountPairsIsReorderInvariant) {
  const VectorDataset dataset = testing::SmallClusteredCorpus(400, 31);
  const DatasetView view(dataset);
  Rng rng(kSeed ^ 0x7);
  // 300 pairs: four full batches plus a 44-pair tail.
  constexpr size_t kCount = 300;
  std::vector<VectorId> firsts(kCount), seconds(kCount);
  for (size_t i = 0; i < kCount; ++i) {
    firsts[i] = static_cast<VectorId>(rng.Below(view.size()));
    seconds[i] = static_cast<VectorId>(rng.Below(view.size()));
  }
  const uint64_t baseline =
      CountPairsAtOrAbove(SimilarityMeasure::kCosine, view, firsts.data(),
                          seconds.data(), kCount, 0.4);
  for (int round = 0; round < 3; ++round) {
    // Deterministic Fisher–Yates, pairs kept aligned.
    for (size_t i = kCount - 1; i > 0; --i) {
      const size_t j = rng.Below(i + 1);
      std::swap(firsts[i], firsts[j]);
      std::swap(seconds[i], seconds[j]);
    }
    const auto counts = RunAtEveryLevel([&] {
      return CountPairsAtOrAbove(SimilarityMeasure::kCosine, view,
                                 firsts.data(), seconds.data(), kCount, 0.4);
    });
    for (const uint64_t c : counts) EXPECT_EQ(c, baseline);
  }
}

// ---------------------------------------------------------------------------
// Symmetry: SampleH's collapse to distinct pairs keys a draw and its swapped
// orientation as one unordered pair and evaluates it once, in (min id,
// max id) order. That is sound only if swapping the arguments never
// changes a similarity by even one bit — pinned here for both measures at
// every level, on equal-length, skewed (gallop) and short (<= 16 / <= 32
// dims, the AVX2 fast-path rungs) pairs, through Similarity() and through
// the batch evaluator.

TEST(PairEvalTest, SimilarityIsBitSymmetricUnderSwappedArguments) {
  // (length of a, length of b, dim range factor): b is longer or equal.
  struct Shape {
    size_t a_len, b_len;
    uint32_t range_factor;
  };
  const Shape kShapes[] = {
      {40, 40, 2},   {220, 220, 4}, {33, 33, 16},  // equal length
      {4, 64, 2},    {3, 200, 4},   {30, 600, 2},  // skewed: gallop
      {5, 12, 2},    {16, 16, 2},   {11, 16, 4},   // <= 16 rung
      {20, 32, 2},   {17, 32, 4},   {32, 32, 2},   // <= 32 rung
  };
  VectorDataset dataset;
  Rng rng(kSeed ^ 0x51);
  for (const Shape& shape : kShapes) {
    const uint32_t range = static_cast<uint32_t>(shape.b_len) *
                           shape.range_factor;
    for (int copy = 0; copy < 3; ++copy) {
      dataset.Add(RandomSortedVector(rng, shape.a_len, range).ref());
      dataset.Add(RandomSortedVector(rng, shape.b_len, range).ref());
    }
  }
  const DatasetView view(dataset);
  const size_t num_pairs = view.size() / 2;
  ASSERT_LE(num_pairs, kPairEvalBatch);
  std::vector<VectorId> firsts, seconds;
  for (size_t p = 0; p < num_pairs; ++p) {
    firsts.push_back(static_cast<VectorId>(2 * p));
    seconds.push_back(static_cast<VectorId>(2 * p + 1));
  }
  for (const auto measure :
       {SimilarityMeasure::kCosine, SimilarityMeasure::kJaccard}) {
    const auto levels = RunAtEveryLevel([&] {
      std::vector<double> forward(num_pairs), swapped(num_pairs);
      EvaluatePairSimilarities(measure, view, firsts.data(), seconds.data(),
                               num_pairs, forward.data());
      EvaluatePairSimilarities(measure, view, seconds.data(), firsts.data(),
                               num_pairs, swapped.data());
      for (size_t p = 0; p < num_pairs; ++p) {
        const double uv = Similarity(measure, view[firsts[p]],
                                     view[seconds[p]]);
        const double vu = Similarity(measure, view[seconds[p]],
                                     view[firsts[p]]);
        EXPECT_EQ(std::bit_cast<uint64_t>(uv), std::bit_cast<uint64_t>(vu))
            << SimilarityMeasureName(measure) << " pair " << p;
        EXPECT_EQ(std::bit_cast<uint64_t>(forward[p]),
                  std::bit_cast<uint64_t>(uv))
            << SimilarityMeasureName(measure) << " pair " << p;
        EXPECT_EQ(std::bit_cast<uint64_t>(swapped[p]),
                  std::bit_cast<uint64_t>(uv))
            << SimilarityMeasureName(measure) << " pair " << p;
      }
      return forward;
    });
    for (size_t l = 1; l < levels.size(); ++l) {
      EXPECT_EQ(levels[l], levels[0]) << SimilarityMeasureName(measure);
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: the estimators reach pair evaluation through SampleH/SampleL;
// the whole registry must be bit-identical across levels under the Jaccard
// measure too (the cosine leg lives in lsh/simd_dispatch_test — together
// they pin both batch-evaluator paths).

TEST(PairEvalTest, AllEstimatorsBitIdenticalAcrossLevelsUnderJaccard) {
  const VectorDataset dataset = testing::SmallClusteredCorpus(250, 19);
  const MinHashFamily family(kSeed ^ 0xb);
  for (const std::string& name : AllEstimatorNames()) {
    const auto results = RunAtEveryLevel([&] {
      const LshIndex index(family, dataset, 6, 2);
      EstimatorContext context;
      context.dataset = DatasetView(dataset);
      context.index = &index;
      context.measure = SimilarityMeasure::kJaccard;
      const auto estimator = CreateEstimator(name, context);
      std::vector<double> estimates;
      for (const double tau : {0.3, 0.6, 0.9}) {
        Rng rng(kSeed ^ static_cast<uint64_t>(tau * 512));
        estimates.push_back(estimator->Estimate(tau, rng).estimate);
      }
      return estimates;
    });
    for (size_t l = 1; l < results.size(); ++l) {
      ASSERT_EQ(results[l], results[0]) << name << " level " << l;
    }
  }
}

}  // namespace
}  // namespace vsj
