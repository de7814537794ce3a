#include "common/str_util.h"
#include "cqp/algorithms.h"

namespace cqp::cqp {

namespace {

/// Registered singletons in presentation order (matching the paper's
/// figures, with our additions last).
const Algorithm* const* Registered(size_t* count) {
  static const ExhaustiveAlgorithm exhaustive;
  static const CBoundariesAlgorithm c_boundaries;
  static const CMaxBoundsAlgorithm c_maxbounds;
  static const DMaxDoiAlgorithm d_maxdoi;
  static const DSingleMaxDoiAlgorithm d_singlemaxdoi;
  static const DHeurDoiAlgorithm d_heurdoi;
  static const MinCostBranchBoundAlgorithm mincost_bb;
  static const MinCostGreedyAlgorithm mincost_greedy;
  static const AllPreferencesAlgorithm all_preferences;
  static const Algorithm* const algorithms[] = {
      &d_maxdoi,  &d_singlemaxdoi, &c_boundaries,   &c_maxbounds,
      &d_heurdoi, &exhaustive,     &mincost_bb,     &mincost_greedy,
      &all_preferences,
  };
  *count = sizeof(algorithms) / sizeof(algorithms[0]);
  return algorithms;
}

}  // namespace

std::vector<std::string> AlgorithmNames() {
  size_t count = 0;
  const Algorithm* const* algorithms = Registered(&count);
  std::vector<std::string> names;
  names.reserve(count);
  for (size_t i = 0; i < count; ++i) names.push_back(algorithms[i]->name());
  return names;
}

StatusOr<const Algorithm*> GetAlgorithm(const std::string& name) {
  size_t count = 0;
  const Algorithm* const* algorithms = Registered(&count);
  for (size_t i = 0; i < count; ++i) {
    if (EqualsIgnoreCase(algorithms[i]->name(), name)) return algorithms[i];
  }
  return NotFound("algorithm " + name);
}

}  // namespace cqp::cqp
