#ifndef CQP_CQP_ALGORITHMS_H_
#define CQP_CQP_ALGORITHMS_H_

#include "cqp/algorithm.h"

namespace cqp::cqp {

/// Exhaustive O(2^K) baseline (paper §5.2 opening). Exact for every CQP
/// problem; refuses K > 25 to bound runtime.
class ExhaustiveAlgorithm : public Algorithm {
 public:
  const char* name() const override { return "Exhaustive"; }
  bool Supports(const ProblemSpec& problem) const override;
  bool IsExactFor(const ProblemSpec& problem) const override;
  StatusOr<Solution> Solve(const space::PreferenceSpaceResult& space,
                           const ProblemSpec& problem,
                           SearchContext& ctx) const override;
};

/// C-BOUNDARIES (paper Fig. 5): exact two-phase boundary search on the
/// cost (or size) state space for doi-maximization problems.
class CBoundariesAlgorithm : public Algorithm {
 public:
  const char* name() const override { return "C-Boundaries"; }
  bool Supports(const ProblemSpec& problem) const override;
  bool IsExactFor(const ProblemSpec& problem) const override;
  StatusOr<Solution> Solve(const space::PreferenceSpaceResult& space,
                           const ProblemSpec& problem,
                           SearchContext& ctx) const override;
};

/// C-MAXBOUNDS (paper Fig. 7): heuristic maximal-boundary construction on
/// the cost (or size) state space.
class CMaxBoundsAlgorithm : public Algorithm {
 public:
  const char* name() const override { return "C-MaxBounds"; }
  bool Supports(const ProblemSpec& problem) const override;
  bool IsExactFor(const ProblemSpec& problem) const override;
  StatusOr<Solution> Solve(const space::PreferenceSpaceResult& space,
                           const ProblemSpec& problem,
                           SearchContext& ctx) const override;
};

/// D-MAXDOI (paper Fig. 9): exact chain search on the doi state space.
class DMaxDoiAlgorithm : public Algorithm {
 public:
  const char* name() const override { return "D-MaxDoi"; }
  bool Supports(const ProblemSpec& problem) const override;
  bool IsExactFor(const ProblemSpec& problem) const override;
  StatusOr<Solution> Solve(const space::PreferenceSpaceResult& space,
                           const ProblemSpec& problem,
                           SearchContext& ctx) const override;
};

/// D-SINGLEMAXDOI (paper Fig. 10): single-phase greedy maximal-set search
/// on the doi state space.
class DSingleMaxDoiAlgorithm : public Algorithm {
 public:
  const char* name() const override { return "D-SingleMaxDoi"; }
  bool Supports(const ProblemSpec& problem) const override;
  bool IsExactFor(const ProblemSpec& problem) const override;
  StatusOr<Solution> Solve(const space::PreferenceSpaceResult& space,
                           const ProblemSpec& problem,
                           SearchContext& ctx) const override;
};

/// D-HEURDOI (paper Fig. 11): greedy fill with prefix-drop refinement on
/// the doi state space.
class DHeurDoiAlgorithm : public Algorithm {
 public:
  const char* name() const override { return "D-HeurDoi"; }
  bool Supports(const ProblemSpec& problem) const override;
  bool IsExactFor(const ProblemSpec& problem) const override;
  StatusOr<Solution> Solve(const space::PreferenceSpaceResult& space,
                           const ProblemSpec& problem,
                           SearchContext& ctx) const override;
};

/// Exact branch-and-bound for the cost-minimization problems (4-6). The
/// paper states all its algorithms adapt to every CQP problem (§6) without
/// giving pseudocode for the MIN-cost family; this is our adaptation: a
/// depth-first search in cost-ascending order with the cost of the best
/// feasible state as bound and the monotone doi/size properties as prunes.
class MinCostBranchBoundAlgorithm : public Algorithm {
 public:
  const char* name() const override { return "MinCost-BB"; }
  bool Supports(const ProblemSpec& problem) const override;
  bool IsExactFor(const ProblemSpec& problem) const override;
  StatusOr<Solution> Solve(const space::PreferenceSpaceResult& space,
                           const ProblemSpec& problem,
                           SearchContext& ctx) const override;
};

/// The paper's motivating strawman (§1): integrate *all* related
/// preferences, maximizing interest with no regard for the constraints.
/// Solve() returns the full preference set; `feasible` reports whether the
/// over-personalized query happens to satisfy the problem's bounds (it
/// usually does not — it is expensive and frequently has an empty answer).
/// Used as the baseline in bench/motivation_bench.
class AllPreferencesAlgorithm : public Algorithm {
 public:
  const char* name() const override { return "All-Preferences"; }
  bool Supports(const ProblemSpec& problem) const override;
  bool IsExactFor(const ProblemSpec& problem) const override;
  StatusOr<Solution> Solve(const space::PreferenceSpaceResult& space,
                           const ProblemSpec& problem,
                           SearchContext& ctx) const override;
};

/// Greedy heuristic for the cost-minimization problems (4-6): adds the
/// preference with the best doi-per-cost ratio until feasible, then drops
/// redundant members.
class MinCostGreedyAlgorithm : public Algorithm {
 public:
  const char* name() const override { return "MinCost-Greedy"; }
  bool Supports(const ProblemSpec& problem) const override;
  bool IsExactFor(const ProblemSpec& problem) const override;
  StatusOr<Solution> Solve(const space::PreferenceSpaceResult& space,
                           const ProblemSpec& problem,
                           SearchContext& ctx) const override;
};

}  // namespace cqp::cqp

#endif  // CQP_CQP_ALGORITHMS_H_
