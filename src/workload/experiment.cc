#include "workload/experiment.h"

#include <limits>

#include "common/stopwatch.h"
#include "estimation/estimate.h"

namespace cqp::workload {

StatusOr<ExperimentContext> ExperimentContext::Create(
    const ExperimentConfig& config) {
  ExperimentContext ctx;
  CQP_ASSIGN_OR_RETURN(ctx.db_, BuildMovieDatabase(config.db));
  ctx.graphs_.reserve(config.n_profiles);
  for (size_t u = 0; u < config.n_profiles; ++u) {
    ProfileGenConfig pc = config.profile;
    pc.seed = config.profile_seed_base + u;
    CQP_ASSIGN_OR_RETURN(prefs::Profile profile,
                         GenerateProfile(pc, config.db));
    CQP_ASSIGN_OR_RETURN(prefs::PersonalizationGraph graph,
                         prefs::PersonalizationGraph::Build(
                             std::move(profile), ctx.db_));
    ctx.graphs_.push_back(std::move(graph));
  }
  CQP_ASSIGN_OR_RETURN(ctx.queries_, GenerateQueries(config.query, config.db));
  return ctx;
}

StatusOr<std::vector<Instance>> BuildInstances(const ExperimentContext& ctx,
                                               size_t k) {
  estimation::ParameterEstimator estimator(&ctx.db());
  // Extraction must not be constrained: the paper fixes P = the top-K
  // preferences by doi and then sweeps cmax as a fraction of Supreme Cost.
  cqp::ProblemSpec unconstrained =
      cqp::ProblemSpec::Problem2(std::numeric_limits<double>::max());

  std::vector<Instance> instances;
  for (const prefs::PersonalizationGraph& graph : ctx.graphs()) {
    for (const sql::SelectQuery& query : ctx.queries()) {
      Instance inst;
      space::PreferenceSpaceOptions options;
      options.max_k = k;

      // Fig. 12(b) timings: D-only extraction vs full (C and S ranked).
      {
        space::PreferenceSpaceOptions d_only = options;
        d_only.build_cost_size_vectors = false;
        Stopwatch timer;
        CQP_ASSIGN_OR_RETURN(
            space::PreferenceSpaceResult ignored,
            space::ExtractPreferenceSpace(query, graph, estimator,
                                          unconstrained, d_only));
        inst.d_prefsel_ms = timer.ElapsedMillis();
        (void)ignored;
      }
      Stopwatch timer;
      CQP_ASSIGN_OR_RETURN(
          inst.space, space::ExtractPreferenceSpace(query, graph, estimator,
                                                    unconstrained, options));
      inst.c_prefsel_ms = timer.ElapsedMillis();

      if (inst.space.K() < k) continue;  // profile too small for this query
      inst.supreme_cost_ms = inst.space.MakeEvaluator().SupremeState().cost_ms;
      instances.push_back(std::move(inst));
    }
  }
  if (instances.empty()) {
    return FailedPrecondition(
        "no (profile, query) instance yields a preference space of size " +
        std::to_string(k));
  }
  return instances;
}

namespace {

StatusOr<std::map<std::string, AlgoAggregate>> RunImpl(
    const std::vector<Instance>& instances,
    const std::vector<cqp::ProblemSpec>& problems,
    const std::vector<std::string>& algorithm_names,
    const std::string& reference_algorithm) {
  CQP_CHECK_EQ(instances.size(), problems.size());
  std::map<std::string, AlgoAggregate> out;

  for (size_t i = 0; i < instances.size(); ++i) {
    const Instance& inst = instances[i];
    const cqp::ProblemSpec& problem = problems[i];

    double reference_doi = 0.0;
    bool have_reference = false;
    if (!reference_algorithm.empty()) {
      CQP_ASSIGN_OR_RETURN(const cqp::Algorithm* ref,
                           cqp::GetAlgorithm(reference_algorithm));
      cqp::SearchContext ctx;
      CQP_ASSIGN_OR_RETURN(cqp::Solution sol,
                           ref->Solve(inst.space, problem, ctx));
      if (sol.feasible) {
        reference_doi = sol.params.doi;
        have_reference = true;
      }
    }

    for (const std::string& name : algorithm_names) {
      CQP_ASSIGN_OR_RETURN(const cqp::Algorithm* algorithm,
                           cqp::GetAlgorithm(name));
      cqp::SearchContext ctx;
      CQP_ASSIGN_OR_RETURN(cqp::Solution sol,
                           algorithm->Solve(inst.space, problem, ctx));
      const cqp::SearchMetrics& metrics = ctx.metrics;
      AlgoAggregate& agg = out[name];
      agg.mean_wall_ms += metrics.wall_ms;
      agg.mean_peak_kbytes += metrics.memory.peak_kbytes();
      agg.mean_states += static_cast<double>(metrics.states_examined);
      if (sol.feasible && have_reference) {
        agg.mean_quality_diff += reference_doi - sol.params.doi;
      }
      if (!sol.feasible) ++agg.infeasible;
      ++agg.runs;
    }
  }

  for (auto& [name, agg] : out) {
    if (agg.runs == 0) continue;
    double n = static_cast<double>(agg.runs);
    agg.mean_wall_ms /= n;
    agg.mean_peak_kbytes /= n;
    agg.mean_states /= n;
    agg.mean_quality_diff /= n;
  }
  return out;
}

}  // namespace

StatusOr<std::map<std::string, AlgoAggregate>> RunAlgorithmsAtFraction(
    const std::vector<Instance>& instances, double supreme_fraction,
    const std::vector<std::string>& algorithm_names,
    const std::string& reference_algorithm) {
  std::vector<cqp::ProblemSpec> problems;
  problems.reserve(instances.size());
  for (const Instance& inst : instances) {
    problems.push_back(cqp::ProblemSpec::Problem2(supreme_fraction *
                                                  inst.supreme_cost_ms));
  }
  return RunImpl(instances, problems, algorithm_names, reference_algorithm);
}

}  // namespace cqp::workload
