// Query-optimizer scenario: use join-size estimates to pick a plan.
//
// The paper's motivation (§1): a similarity join is a primitive operator,
// and the optimizer needs its output cardinality to order operators. This
// example models a two-step query
//
//     SELECT * FROM Docs d1 JOIN Docs d2 ON cos(d1, d2) >= tau
//                           WHERE category_filter(d1)
//
// which can be executed as filter-then-join or join-then-filter. The right
// choice depends on the join cardinality: at high τ the join output is tiny
// and running the (indexed) join first is cheap; at low τ the join explodes
// and filtering first wins.
//
// The optimizer-facing statistics object here is CardinalityProvider: a
// facade over the EstimationService that owns the corpus and its LSH index,
// answers EstimateJoin(τ) with a JoinSizeSummary (cardinality, selectivity,
// the interval of J), and serves repeated probes at nearby thresholds from
// its cache. The example costs both plans from the summaries and validates
// the choices against exact join sizes.

#include <iostream>

#include "vsj/eval/ground_truth.h"
#include "vsj/gen/workloads.h"
#include "vsj/service/cardinality_provider.h"
#include "vsj/util/table_printer.h"

namespace {

/// Toy cost model: filter costs 1 unit per input row; the downstream
/// operator costs 1 unit per surviving join pair. `selectivity` is the
/// fraction of documents passing the category filter.
struct PlanCosts {
  double filter_then_join;
  double join_then_filter;
};

PlanCosts CostPlans(double n, double estimated_join, double selectivity) {
  PlanCosts costs;
  // Filter first: scan n rows, then join the surviving fraction; pair count
  // scales with selectivity² for a self-join.
  costs.filter_then_join = n + estimated_join * selectivity * selectivity;
  // Join first: produce all join pairs, then filter each.
  costs.join_then_filter = estimated_join + n * selectivity;
  return costs;
}

}  // namespace

int main() {
  const size_t n = 8000;
  const double filter_selectivity = 0.1;

  vsj::VectorDataset docs = vsj::GenerateCorpus(vsj::DblpLikeConfig(n));
  vsj::GroundTruth truth(docs, vsj::SimilarityMeasure::kCosine,
                         vsj::StandardThresholds());

  // Long-lived statistics service: owns the corpus, builds the LSH index
  // across 4 threads, caches responses for repeated optimizer probes.
  vsj::EstimationServiceOptions service_options;
  service_options.k = 20;
  service_options.num_threads = 4;
  service_options.family_seed = 3;
  vsj::EstimationService service(std::move(docs), service_options);

  vsj::CardinalityProviderOptions provider_options;
  provider_options.estimator_name = "LSH-SS";
  provider_options.trials = 3;
  provider_options.seed = 99;
  vsj::CardinalityProvider provider(service, provider_options);

  vsj::TablePrinter report("Plan choice per similarity threshold "
                           "(filter selectivity 10%)");
  report.SetHeader({"tau", "estimated J", "95% interval", "true J",
                    "chosen plan", "oracle plan", "agreement"});

  int agreements = 0;
  int rows = 0;
  // One batched probe for the whole threshold sweep; the service fans the
  // requests out across its pool.
  const std::vector<vsj::JoinSizeSummary> summaries =
      provider.EstimateJoinBatch(vsj::StandardThresholds());
  for (const vsj::JoinSizeSummary& summary : summaries) {
    const auto true_j = static_cast<double>(truth.JoinSize(summary.tau));

    const PlanCosts est_costs = CostPlans(static_cast<double>(n),
                                          summary.cardinality,
                                          filter_selectivity);
    const PlanCosts true_costs =
        CostPlans(static_cast<double>(n), true_j, filter_selectivity);
    const bool pick_filter_first =
        est_costs.filter_then_join <= est_costs.join_then_filter;
    const bool oracle_filter_first =
        true_costs.filter_then_join <= true_costs.join_then_filter;
    agreements += pick_filter_first == oracle_filter_first ? 1 : 0;
    ++rows;

    report.AddRow({vsj::TablePrinter::Fmt(summary.tau, 1),
                   vsj::TablePrinter::Count(summary.cardinality),
                   "[" + vsj::TablePrinter::Count(summary.lower) + ", " +
                       vsj::TablePrinter::Count(summary.upper) + "]",
                   vsj::TablePrinter::Count(true_j),
                   pick_filter_first ? "filter->join" : "join->filter",
                   oracle_filter_first ? "filter->join" : "join->filter",
                   pick_filter_first == oracle_filter_first ? "yes" : "NO"});
  }
  report.Print(std::cout);
  std::cout << "\nplan agreement with oracle: " << agreements << "/" << rows
            << " thresholds\n";

  // A second sweep over the same thresholds is answered from the cache —
  // the optimizer can re-cost plans for free.
  const auto cached = provider.EstimateJoinBatch(vsj::StandardThresholds());
  size_t cache_hits = 0;
  for (const auto& summary : cached) cache_hits += summary.from_cache ? 1 : 0;
  const vsj::EstimateCacheStats stats = service.cache().stats();
  std::cout << "second sweep: " << cache_hits << "/" << cached.size()
            << " summaries from cache (service hit rate "
            << vsj::TablePrinter::Pct(stats.HitRate()) << ")\n";
  return 0;
}
