// Ablations beyond the paper's figures:
//
//  1. Conjunction model. §7.2.3 attributes the minuscule quality gaps of
//     Fig. 14 partly to Formula 10 (noisy-or), whose value races to 1 as
//     preferences accumulate, and speculates that "a different model ...
//     might have resulted in larger differences among approaches". We test
//     that claim by re-running the quality comparison under the capped-sum
//     model doi(Px) = min(1, Σ doi).
//
//  2. Multi-objective personalization (§8 future work): the Pareto front
//     of (doi, cost) for one instance, and weighted-scalarization solutions
//     sweeping the cost weight.

#include <cstdio>

#include "bench_util.h"
#include "construct/query_builder.h"
#include "cqp/multi_objective.h"
#include "exec/executor.h"
#include "exec/personalized_exec.h"

namespace {

using namespace cqp::bench;  // NOLINT

constexpr double kCellBudgetSeconds = 20.0;
const char* const kHeuristics[] = {"D-HeurDoi", "C-MaxBounds",
                                   "D-SingleMaxDoi"};

void ConjunctionAblation(const std::vector<cqp::workload::Instance>& base) {
  std::printf(
      "\n[1] quality difference (x 1e-7) under both conjunction models "
      "(K=%zu)\n", base.empty() ? 0 : base[0].space.K());
  std::printf("%-22s %13s %13s %13s\n", "model / %supreme", kHeuristics[0],
              kHeuristics[1], kHeuristics[2]);

  for (auto model : {cqp::prefs::ConjunctionModel::kNoisyOr,
                     cqp::prefs::ConjunctionModel::kSumCapped}) {
    // Same preferences, different doi combination: flip the model the
    // evaluators use.
    std::vector<cqp::workload::Instance> instances;
    instances.reserve(base.size());
    for (const auto& inst : base) {
      cqp::workload::Instance copy = inst;
      copy.space.conjunction_model = model;
      instances.push_back(std::move(copy));
    }
    const char* model_name =
        model == cqp::prefs::ConjunctionModel::kNoisyOr ? "noisy-or (paper)"
                                                        : "capped-sum";
    for (int pct : {10, 20, 50}) {
      auto problems = FractionProblems(instances, pct / 100.0);
      auto reference = ReferenceDois("C-Boundaries", instances, problems);
      std::printf("%-16s %3d%%", model_name, pct);
      for (const char* name : kHeuristics) {
        Cell cell = RunCell(name, instances, problems, reference,
                            kCellBudgetSeconds);
        if (cell.scored_runs == 0) {
          std::printf(" %12s ", "n/a");
        } else {
          std::printf(" %s",
                      FormatCell(cell.mean_quality_diff * 1e7, cell).c_str());
        }
      }
      std::printf("\n");
    }
  }
}

void MultiObjectiveDemo(const cqp::workload::Instance& inst) {
  std::printf("\n[2] multi-objective personalization (one K=%zu instance)\n",
              inst.space.K());
  cqp::cqp::MultiObjectiveSpec spec;
  spec.doi_weight = 1.0;
  spec.cost_weight = 1.0;
  spec.cost_scale = inst.supreme_cost_ms;
  spec.size_scale = std::max(inst.space.base.size, 1.0);

  cqp::cqp::SearchContext pareto_ctx;
  auto front = cqp::cqp::ParetoFront(inst.space, spec, pareto_ctx);
  const cqp::cqp::SearchMetrics& metrics = pareto_ctx.metrics;
  if (!front.ok()) {
    std::printf("pareto: %s\n", front.status().ToString().c_str());
    return;
  }
  std::printf("Pareto front of (doi up, cost down): %zu points "
              "(%.1f ms, %llu states)\n",
              front->size(), metrics.wall_ms,
              static_cast<unsigned long long>(metrics.states_examined));
  std::printf("%12s %12s %6s\n", "cost[ms]", "doi", "|Px|");
  for (const auto& p : *front) {
    std::printf("%12.1f %12.8f %6zu\n", p.params.cost_ms, p.params.doi,
                p.chosen.size());
  }

  std::printf("\nscalarized optima while sweeping the cost weight:\n");
  std::printf("%10s %12s %12s %6s\n", "w_cost", "cost[ms]", "doi", "|Px|");
  for (double wc : {0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0}) {
    spec.cost_weight = wc;
    cqp::cqp::SearchContext scalar_ctx;
    auto sol = cqp::cqp::SolveScalarized(inst.space, spec, scalar_ctx);
    if (!sol.ok() || !sol->feasible) {
      std::printf("%10.2f %12s\n", wc, "infeasible");
      continue;
    }
    std::printf("%10.2f %12.1f %12.6f %6zu\n", wc, sol->params.cost_ms,
                sol->params.doi, sol->chosen.size());
  }
  std::printf("higher cost weights slide the optimum down the front.\n");
}

void MergeAblation(const cqp::storage::Database& db,
                   const std::vector<cqp::workload::Instance>& instances) {
  std::printf(
      "\n[3] footnote 1: merging join-free preferences into one sub-query\n"
      "(same Problem 2 solutions executed with and without the merge)\n");
  cqp::exec::Executor executor(&db);
  double plain_ms = 0, merged_ms = 0;
  size_t runs = 0, mismatches = 0;
  for (const auto& inst : instances) {
    const cqp::cqp::Algorithm* algo = *cqp::cqp::GetAlgorithm("C-Boundaries");
    cqp::SearchBudget budget;
    budget.max_expansions = kStateLimitPerRun;
    cqp::cqp::SearchContext search_ctx(budget);
    auto sol = algo->Solve(inst.space, cqp::cqp::ProblemSpec::Problem2(400),
                           search_ctx);
    if (!sol.ok() || !sol->feasible || sol->chosen.empty()) continue;

    auto run_variant = [&](bool merge) -> double {
      cqp::construct::BuildOptions options;
      options.merge_compatible = merge;
      auto pq = cqp::construct::BuildPersonalizedQuery(
          db, inst.space.query, inst.space.prefs, sol->chosen, options);
      if (!pq.ok() || pq->subqueries.empty()) return -1;
      cqp::exec::ExecStats stats;
      auto rows = cqp::exec::ExecutePersonalized(
          executor, pq->subqueries, pq->dois,
          cqp::exec::CombineMode::kIntersection, &stats);
      if (!rows.ok()) return -1;
      return stats.SimulatedMillis(cqp::exec::CostModelParams());
    };
    double a = run_variant(false);
    double b = run_variant(true);
    if (a < 0 || b < 0) continue;
    plain_ms += a;
    merged_ms += b;
    ++runs;
    if (b > a + 1e-9) ++mismatches;  // merge should never cost more
  }
  if (runs == 0) {
    std::printf("no feasible instances\n");
    return;
  }
  std::printf("mean simulated exec: %.1f ms unmerged vs %.1f ms merged "
              "(%zu runs, %zu regressions)\n",
              plain_ms / static_cast<double>(runs),
              merged_ms / static_cast<double>(runs), runs, mismatches);
}

int Run() {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::printf("Ablations (extensions beyond the paper's figures)\n");
  auto config = DefaultConfig();
  config.n_profiles = 3;
  config.query.n_queries = 3;
  auto ctx_or = cqp::workload::ExperimentContext::Create(config);
  if (!ctx_or.ok()) {
    std::fprintf(stderr, "%s\n", ctx_or.status().ToString().c_str());
    return 1;
  }
  auto ctx = *std::move(ctx_or);
  auto instances_or = cqp::workload::BuildInstances(ctx, 15);
  if (!instances_or.ok()) {
    std::fprintf(stderr, "%s\n", instances_or.status().ToString().c_str());
    return 1;
  }
  auto instances = *std::move(instances_or);

  ConjunctionAblation(instances);
  MultiObjectiveDemo(instances.front());
  MergeAblation(ctx.db(), instances);
  return 0;
}

}  // namespace

int main() { return Run(); }
