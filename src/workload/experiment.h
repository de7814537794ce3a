#ifndef CQP_WORKLOAD_EXPERIMENT_H_
#define CQP_WORKLOAD_EXPERIMENT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "cqp/algorithm.h"
#include "prefs/graph.h"
#include "space/preference_space.h"
#include "sql/ast.h"
#include "storage/database.h"
#include "workload/movie_gen.h"
#include "workload/profile_gen.h"
#include "workload/query_gen.h"

namespace cqp::workload {

/// Configuration of the paper's evaluation setting (§7.2): a movie
/// database, `n_profiles` user profiles × `n_queries` queries. Every
/// reported number is the mean over the n_profiles × n_queries runs.
struct ExperimentConfig {
  MovieDbConfig db;
  ProfileGenConfig profile;
  QueryGenConfig query;
  size_t n_profiles = 20;
  uint64_t profile_seed_base = 1000;
};

/// Prepared evaluation context: the database plus per-user graphs and the
/// query workload.
class ExperimentContext {
 public:
  static StatusOr<ExperimentContext> Create(const ExperimentConfig& config);

  ExperimentContext(ExperimentContext&&) = default;
  ExperimentContext& operator=(ExperimentContext&&) = default;

  const storage::Database& db() const { return db_; }
  const std::vector<prefs::PersonalizationGraph>& graphs() const {
    return graphs_;
  }
  const std::vector<sql::SelectQuery>& queries() const { return queries_; }

 private:
  ExperimentContext() = default;

  storage::Database db_;
  std::vector<prefs::PersonalizationGraph> graphs_;
  std::vector<sql::SelectQuery> queries_;
};

/// One prepared (profile, query) instance: the extracted preference space
/// (top-K by doi, unconstrained) plus its Supreme Cost — the cost of the
/// query incorporating all K preferences (§7.2).
struct Instance {
  space::PreferenceSpaceResult space;
  double supreme_cost_ms = 0.0;
  /// Wall time of preference extraction with D only / with C and S as well
  /// (Fig. 12(b): D_PrefSelTime and C_PrefSelTime).
  double d_prefsel_ms = 0.0;
  double c_prefsel_ms = 0.0;
};

/// Builds all (profile × query) instances at preference-space size `k`.
/// Instances whose preference space ends up smaller than `k` (profile too
/// small for the query) are dropped, so aggregates stay comparable.
StatusOr<std::vector<Instance>> BuildInstances(const ExperimentContext& ctx,
                                               size_t k);

/// Aggregated per-algorithm measurements over a set of runs.
struct AlgoAggregate {
  double mean_wall_ms = 0.0;
  double mean_peak_kbytes = 0.0;
  double mean_states = 0.0;
  /// Mean of (doi_optimal − doi_found); the reference optimum is D-MaxDoi
  /// (provably exact for the bound-only problems), as in the paper §7.2.3.
  double mean_quality_diff = 0.0;
  size_t runs = 0;
  size_t infeasible = 0;
};

/// Runs `algorithm_names` on every instance under Problem 2 with a
/// per-instance cost bound of `supreme_fraction` × the instance's Supreme
/// Cost (Fig. 12(c)/(d), 13(b), 14(b)), and aggregates. If
/// `reference_algorithm` is non-empty it is solved first per instance and
/// used as the quality reference.
StatusOr<std::map<std::string, AlgoAggregate>> RunAlgorithmsAtFraction(
    const std::vector<Instance>& instances, double supreme_fraction,
    const std::vector<std::string>& algorithm_names,
    const std::string& reference_algorithm);

}  // namespace cqp::workload

#endif  // CQP_WORKLOAD_EXPERIMENT_H_
