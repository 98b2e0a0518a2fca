// Deterministic pseudo-random number generation.
//
// All randomized components of the library (samplers, LSH function seeds,
// corpus generators) draw from `vsj::Rng`, a xoshiro256** generator seeded
// through SplitMix64. Compared to std::mt19937_64 it is faster, has a tiny
// state, and — more importantly for reproducible experiments — its behaviour
// is fully specified here rather than delegated to the standard library
// (std::uniform_int_distribution is not bit-reproducible across toolchains).

#ifndef VSJ_UTIL_RNG_H_
#define VSJ_UTIL_RNG_H_

#include <cstdint>

#include "vsj/util/check.h"

namespace vsj {

/// xoshiro256** 1.0 (Blackman & Vigna) seeded via SplitMix64.
///
/// Satisfies the C++ UniformRandomBitGenerator concept so it can also be
/// plugged into <random> distributions when exact reproducibility across
/// toolchains is not required.
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the four 64-bit words of state from `seed` via SplitMix64.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  Rng(const Rng&) = default;
  Rng& operator=(const Rng&) = default;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next 64 uniformly random bits. Inline (as are Below/NextDouble): the
  /// samplers draw millions of times per estimate request, and the
  /// out-of-line call was measurable in the draw-path profile. The bodies
  /// are unchanged — the output streams are bit-identical to the previous
  /// out-of-line definitions.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }
  result_type operator()() { return Next(); }

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses Lemire's
  /// nearly-divisionless unbiased bounded generation.
  uint64_t Below(uint64_t bound) {
    VSJ_DCHECK(bound > 0);
    // Lemire (2019): multiply-shift with rejection to remove modulo bias.
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t low = static_cast<uint64_t>(m);
    if (low < bound) {
      uint64_t threshold = -bound % bound;
      while (low < threshold) {
        x = Next();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t Uniform(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Standard normal variate (Box-Muller; caches the spare value).
  double NextGaussian();

  /// Bernoulli draw with success probability `p`.
  bool NextBool(double p);

  /// Derives an independent generator; useful for giving each LSH function
  /// or trial its own stream. Advances this generator.
  Rng Split();

  /// Derives the `stream_id`-th independent stream of this generator
  /// *without* advancing it: Fork(i) is a pure function of (state, i), so a
  /// parent can hand out any number of streams in any order — or from
  /// several threads — and stream i is always the same generator. This is
  /// the facility behind deterministic parallel batch estimation: trial t
  /// of a request draws from Fork(0).Fork(t) regardless of which thread
  /// runs it or where the request sits in its batch.
  Rng Fork(uint64_t stream_id) const;

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
  double spare_gaussian_ = 0.0;
  bool has_spare_gaussian_ = false;
};

/// SplitMix64 step: advances `state` and returns the next output. Exposed
/// because hash-derived values elsewhere (e.g. SimHash hyperplanes) reuse it.
uint64_t SplitMix64(uint64_t& state);

}  // namespace vsj

#endif  // VSJ_UTIL_RNG_H_
