#include <algorithm>

#include "common/stopwatch.h"
#include "cqp/algorithms.h"
#include "cqp/search_util.h"
#include "cqp/transitions.h"

namespace cqp::cqp {

bool DMaxDoiAlgorithm::Supports(const ProblemSpec& problem) const {
  return problem.Validate().ok() &&
         problem.objective == Objective::kMaximizeDoi;
}

bool DMaxDoiAlgorithm::IsExactFor(const ProblemSpec& problem) const {
  // Exact when feasibility coincides with the binding bound (Theorem 3);
  // with an smax constraint the chain endpoints may skip feasible interior
  // states, so only best-effort there.
  return Supports(problem) && !problem.smax.has_value() &&
         !problem.dmin.has_value();
}

StatusOr<Solution> DMaxDoiAlgorithm::Solve(
    const space::PreferenceSpaceResult& space, const ProblemSpec& problem,
    SearchContext& ctx) const {
  CQP_RETURN_IF_ERROR(problem.Validate());
  Stopwatch timer;
  SearchMetrics& metrics = ctx.metrics;
  estimation::StateEvaluator evaluator = space.MakeEvaluator(ctx.eval_cache);
  SpaceView view =
      SpaceView::ForKind(&evaluator, &problem, SpaceKind::kDoi, space);
  const size_t k = view.K();

  Solution best = InfeasibleSolution(evaluator);
  // The empty state (original query) is the fallback candidate.
  {
    estimation::StateParams empty = evaluator.EmptyState();
    ++metrics.states_examined;
    if (problem.IsFeasible(empty)) {
      best.feasible = true;
      best.params = empty;
    }
  }
  if (k == 0) {
    metrics.wall_ms = timer.ElapsedMillis();
    return best;
  }

  // Phase 1 collects every chain endpoint (FINDOPTIMAL, Fig. 9); phase 2
  // scans them with the BestExpectedDoi early exit (D_FINDMAXDOI). Phase 1
  // explores "unevenly larger parts of the search space" (§7.2.1) exactly
  // as the original.
  VisitedSet visited(metrics);
  StateQueue queue(metrics);
  IndexSet first({0});
  visited.CheckAndInsert(first);
  queue.PushBack(std::move(first));

  // Chain solutions found by phase 1, scanned by phase 2.
  std::vector<std::pair<IndexSet, estimation::StateParams>> solutions;

  while (!queue.empty()) {
    if (ctx.ShouldStop()) break;
    IndexSet state = queue.PopFront();
    estimation::StateParams params = view.Evaluate(state, metrics);

    IndexSet frontier;  // first chain node violating the bound (if any)
    bool have_frontier = false;
    if (view.WithinBound(params)) {
      // Apply Horizontal transitions while the bound holds.
      IndexSet chain = state;
      estimation::StateParams chain_params = params;
      while (!ctx.ShouldStop()) {
        ++metrics.transitions;
        std::optional<IndexSet> next = Horizontal(chain, k);
        if (!next.has_value()) break;
        estimation::StateParams next_params = view.Evaluate(*next, metrics);
        if (!view.WithinBound(next_params)) {
          frontier = std::move(*next);
          have_frontier = true;
          break;
        }
        chain = std::move(*next);
        chain_params = next_params;
      }
      ++metrics.boundaries_found;
      metrics.memory.Allocate(chain.MemoryBytes());
      solutions.emplace_back(chain, chain_params);
      if (!have_frontier) {
        // The chain ran to the last position; explore the endpoint's
        // Vertical neighbors so sibling maximal chains are not missed
        // (defensive generalization of the pseudocode, which leaves this
        // case unspecified).
        frontier = std::move(chain);
        have_frontier = true;
      }
    } else {
      frontier = std::move(state);
      have_frontier = true;
    }

    if (have_frontier) {
      for (IndexSet& v : VerticalNeighbors(frontier, k)) {
        ++metrics.transitions;
        if (visited.CheckAndInsert(v)) continue;
        queue.PushFront(std::move(v));
      }
    }
  }

  // ---- Phase 2: D_FINDMAXDOI over the collected solutions, largest group
  // first, with the BestExpectedDoi early exit. ----
  std::sort(solutions.begin(), solutions.end(),
            [](const auto& a, const auto& b) {
              if (a.first.size() != b.first.size()) {
                return a.first.size() > b.first.size();
              }
              return a.first < b.first;
            });
  size_t current_group = SIZE_MAX;
  for (const auto& [state, params] : solutions) {
    if (state.size() != current_group) {
      current_group = state.size();
      double bound = view.BestExpectedDoi(current_group);
      if (best.feasible && best.params.doi > bound) break;
    }
    if (!view.Feasible(params)) continue;
    if (!best.feasible || problem.Better(params, best.params)) {
      best = MakeSolution(view, state, params);
    }
  }

  best.degraded = ctx.exhausted();
  metrics.wall_ms = timer.ElapsedMillis();
  return best;
}

}  // namespace cqp::cqp
