// Figure 4 (§6.3): impact of the number of hash functions k on accuracy at
// τ = 0.5 and τ = 0.8 (LSH-SS vs LSH-S), plus the §6.3 inline table of LSH
// table size vs k.
//
// Paper signatures: LSH-SS is insensitive to k (any reasonable k works);
// LSH-S is highly sensitive. Table size grows sublinearly in k as buckets
// saturate (3.2 / 7.5 / 12.6 / 14.1 / 16.5 MB for k = 10..50 on DBLP).

#include <iostream>
#include <map>
#include <string>

#include "bench_common.h"

int main() {
  using namespace vsj;
  using namespace vsj::bench;

  const Scale scale = LoadScale(/*default_n=*/20000);
  const CorpusConfig config = DblpLikeConfig(scale.n, scale.seed);
  const std::vector<uint32_t> ks = {10, 20, 30, 40, 50};
  const std::vector<double> taus = {0.5, 0.8};

  // Build the corpus + ground truth once; per-k only the index changes.
  Workbench base = BuildWorkbench(config, /*k=*/ks.front());

  struct Cell {
    double over = 0.0;
    double under = 0.0;
    bool defined = false;
  };
  std::map<uint32_t, std::map<std::string, std::map<double, Cell>>> grid;
  std::map<uint32_t, size_t> table_bytes;

  const std::vector<std::string> names = {"LSH-SS", "LSH-S"};
  for (uint32_t k : ks) {
    LshIndex index(*base.family, base.dataset, k, 1);
    table_bytes[k] = index.MemoryBytes();
    EstimatorContext context = MakeContext(base);
    context.index = &index;
    for (const AccuracyCell& cell : RunAccuracyGrid(
             base, context, names, taus, scale.trials, scale.seed)) {
      grid[k][cell.estimator][cell.tau] = {cell.stats.mean_overestimation,
                                           cell.stats.mean_underestimation,
                                           true};
    }
  }

  for (double tau : taus) {
    TablePrinter table("Figure 4: relative error vs k at tau = " +
                       TablePrinter::Fmt(tau, 1));
    table.SetHeader({"k", "LSH-SS over", "LSH-SS under", "LSH-S over",
                     "LSH-S under"});
    for (uint32_t k : ks) {
      std::vector<std::string> row = {std::to_string(k)};
      for (const std::string& name : names) {
        const Cell& cell = grid[k][name][tau];
        if (!cell.defined) {
          row.push_back("-");
          row.push_back("-");
        } else {
          row.push_back(TablePrinter::Pct(cell.over));
          row.push_back(TablePrinter::Pct(cell.under));
        }
      }
      table.AddRow(std::move(row));
    }
    table.Print(std::cout);
    std::cout << "\n";
  }

  TablePrinter size_table("LSH table size vs k (paper's accounting)");
  size_table.SetHeader({"k", "size (MB)"});
  for (uint32_t k : ks) {
    size_table.AddRow({std::to_string(k),
                       TablePrinter::Fmt(
                           static_cast<double>(table_bytes[k]) / 1e6, 2)});
  }
  size_table.Print(std::cout);
  return 0;
}
