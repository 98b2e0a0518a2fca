// Runtime microbenchmarks (google-benchmark): the §6.2 runtime comparison
// (LSH-SS ≪ RS at paper scale; LSH-S and LC slower) and the Appendix C.1
// index build times, at bench scale.
//
// Paper numbers (DBLP, n = 794K, Java): LSH-SS < 750 ms, LSH-S ≈ 1 s,
// LC ≈ 3 s, RS ≈ 780 s (RS compares m = 1.5n full-vector pairs without an
// index; the gap shrinks at small n but the ordering holds).

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "vsj/core/lattice_counting.h"

namespace {

using vsj::bench::BuildWorkbench;
using vsj::bench::MakeContext;
using vsj::bench::Scale;

struct Fixture {
  Fixture() {
    const Scale scale = vsj::bench::LoadScale(/*default_n=*/10000);
    bench = std::make_unique<vsj::bench::Workbench>(
        BuildWorkbench(vsj::DblpLikeConfig(scale.n, scale.seed), scale.k));
  }
  std::unique_ptr<vsj::bench::Workbench> bench;
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

void EstimationRuntime(benchmark::State& state, const char* name,
                       double tau) {
  Fixture& fixture = GetFixture();
  const vsj::EstimatorContext context = MakeContext(*fixture.bench);
  auto estimator = vsj::CreateEstimator(name, context);
  uint64_t seed = 0;
  for (auto _ : state) {
    vsj::Rng rng(++seed);
    benchmark::DoNotOptimize(estimator->Estimate(tau, rng));
  }
}

void BM_LshSs(benchmark::State& state) {
  EstimationRuntime(state, "LSH-SS", 0.5);
}
void BM_LshSsD(benchmark::State& state) {
  EstimationRuntime(state, "LSH-SS(D)", 0.5);
}
void BM_LshS(benchmark::State& state) {
  EstimationRuntime(state, "LSH-S", 0.5);
}
void BM_RsPop(benchmark::State& state) {
  EstimationRuntime(state, "RS(pop)", 0.5);
}
void BM_RsCross(benchmark::State& state) {
  EstimationRuntime(state, "RS(cross)", 0.5);
}
void BM_Ju(benchmark::State& state) { EstimationRuntime(state, "J_U", 0.5); }

void BM_LatticeCountingBuildAndEstimate(benchmark::State& state) {
  // LC's cost is dominated by the signature analysis at build time.
  Fixture& fixture = GetFixture();
  for (auto _ : state) {
    vsj::LatticeCountingEstimator lc(fixture.bench->dataset,
                                     *fixture.bench->family, {});
    vsj::Rng rng(1);
    benchmark::DoNotOptimize(lc.Estimate(0.5, rng));
  }
}

void BM_LshIndexBuild(benchmark::State& state) {
  // Appendix C.1: "it takes 4.7/4.6/5.6 seconds to build LSH indexes".
  Fixture& fixture = GetFixture();
  const auto k = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    vsj::LshTable table(*fixture.bench->family, fixture.bench->dataset, k);
    benchmark::DoNotOptimize(table.NumSameBucketPairs());
  }
  state.counters["buckets"] = static_cast<double>(
      vsj::LshTable(*fixture.bench->family, fixture.bench->dataset, k)
          .num_buckets());
}

void BM_GroundTruth(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  for (auto _ : state) {
    vsj::GroundTruth truth(fixture.bench->dataset,
                           vsj::SimilarityMeasure::kCosine, {0.5});
    benchmark::DoNotOptimize(truth.JoinSize(0.5));
  }
}

BENCHMARK(BM_LshSs)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LshSsD)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LshS)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RsPop)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RsCross)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Ju)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LatticeCountingBuildAndEstimate)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LshIndexBuild)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GroundTruth)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
