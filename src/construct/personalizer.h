#ifndef CQP_CONSTRUCT_PERSONALIZER_H_
#define CQP_CONSTRUCT_PERSONALIZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include <memory>

#include "common/budget.h"
#include "common/status.h"
#include "construct/plan_cache.h"
#include "construct/query_builder.h"
#include "cqp/algorithm.h"
#include "cqp/problem.h"
#include "exec/personalized_exec.h"
#include "prefs/graph.h"
#include "space/preference_space.h"
#include "space/prepared_space.h"
#include "sql/ast.h"
#include "storage/database.h"

namespace cqp::construct {

/// The degradation ladder a personalization request descends when its
/// budget runs out or a component fails. Each rung is strictly cheaper
/// than the one above; the last always answers.
enum class FallbackRung {
  kPrimary = 0,  ///< the requested (or auto-selected) algorithm
  kHeuristic,    ///< a cheap heuristic solver for the same objective
  kTopK,         ///< greedy doi-descending prefix scan of P
  kOriginal,     ///< the unpersonalized original query
};

/// Stable human-readable name, e.g. "Primary".
const char* FallbackRungName(FallbackRung rung);

/// How Personalize() reacts to budget exhaustion or component failure.
struct FallbackPolicy {
  /// When false, errors and exhausted-infeasible searches propagate to the
  /// caller instead of descending the ladder.
  bool enabled = true;
  /// Heuristic-rung algorithm name; empty picks one matching the problem's
  /// objective (D-HeurDoi for doi maximization, MinCost-Greedy for cost
  /// minimization).
  std::string heuristic;
};

/// One end-to-end personalization request.
struct PersonalizeRequest {
  /// The original query, as SQL text. Ignored if `query` is set.
  std::string sql;
  /// Alternatively, the parsed query (used when from is non-empty).
  sql::SelectQuery query;
  /// The CQP problem derived from the search context.
  cqp::ProblemSpec problem;
  /// Search algorithm name (see cqp::AlgorithmNames()), or "auto" to pick
  /// the exact solver matching the problem's objective.
  std::string algorithm = "C-MaxBounds";
  /// Resource limits for the whole request. The deadline is absolute, so
  /// fallback rungs only get the time earlier rungs left over.
  SearchBudget budget;
  /// Degradation behavior when the budget is exhausted or a stage fails.
  FallbackPolicy fallback;
  space::PreferenceSpaceOptions space_options;
  BuildOptions build_options;
  /// Per-request profile override; nullptr uses the personalizer's graph.
  /// Lets one batch serve several users' profiles side by side.
  const prefs::PersonalizationGraph* graph = nullptr;
  /// Caller-owned evaluation memo for this request's (query, profile)
  /// pair; nullptr gives the request a private cache for the duration of
  /// its fallback ladder. Share one cache across requests ONLY when they
  /// personalize the same query under the same profile AND the same
  /// monotone prune bounds (space::ProblemPruneKey) — the cache key is the
  /// preference subset alone, and different bounds index different
  /// per-problem views (see estimation/eval_cache.h).
  estimation::EvalCache* eval_cache = nullptr;
  /// Forces every rung onto the scalar evaluation path (no SoA/SIMD batch
  /// kernels; docs/simd.md). The batch path is bit-for-bit identical, so
  /// this exists for differential testing and benchmarking, not accuracy.
  bool disable_batch_eval = false;
  /// Caller-owned cache of PreparedSpace artifacts; nullptr prepares from
  /// scratch. When set, `profile_id` + `profile_version` MUST identify the
  /// personalization graph this request runs against (the effective graph —
  /// the override above or the personalizer's own) or stale artifacts
  /// become reachable. The server keys by profile snapshot version; the
  /// shell bumps a session version whenever its profile changes.
  PlanCache* plan_cache = nullptr;
  std::string profile_id;
  uint64_t profile_version = 0;
};

/// The reusable, query-dependent half of a personalization request: parsed
/// query, canonical fingerprint and the shared PreparedSpace artifact. One
/// PreparedQuery may be Solve()d any number of times under any ProblemSpec.
struct PreparedQuery {
  sql::SelectQuery query;
  uint64_t fingerprint = 0;  ///< sql::QueryFingerprint(query)
  std::shared_ptr<const space::PreparedSpace> space;  ///< never null when OK
  bool cache_hit = false;  ///< true when `space` came from the plan cache
};

/// Everything a caller needs from a personalization run.
struct PersonalizeResult {
  /// The per-problem view of the preference space the search ran on
  /// (solution.chosen indexes into space->prefs). Shared with the
  /// PreparedSpace artifact — never null after a successful run, and valid
  /// independent of any cache's lifetime.
  std::shared_ptr<const space::PreferenceSpaceResult> space;
  cqp::Solution solution;              ///< chosen subset of P
  cqp::SearchMetrics metrics;          ///< search instrumentation
  PersonalizedQuery personalized;      ///< constructed rewriting
  std::string final_sql;               ///< rendered SQL text
  /// Which rung of the degradation ladder produced the answer.
  FallbackRung rung = FallbackRung::kPrimary;
  /// True when preparation was served from the request's plan cache.
  bool plan_cache_hit = false;
  /// Diagnostic trail: one line per rung tried before (and including) the
  /// answering one, e.g. "C-Boundaries: deadline exceeded".
  std::vector<std::string> attempts;

  /// True when the answer is not the requested algorithm's full result —
  /// either the search itself was truncated or a lower rung answered.
  bool degraded() const {
    return solution.degraded || rung != FallbackRung::kPrimary;
  }
};

/// Options for Personalizer::PersonalizeBatch().
struct BatchOptions {
  /// Worker-pool size; 0 means std::thread::hardware_concurrency.
  size_t num_threads = 0;
};

/// Aggregate outcome of one PersonalizeBatch() run. `results[i]` answers
/// `requests[i]`; every per-request record (metrics, attempts trail, rung)
/// stays inside its PersonalizeResult. The totals below are sums over the
/// OK results, computed single-threaded after the pool drains — workers
/// never mutate shared counters (see the rule in cqp/metrics.h).
struct BatchResult {
  std::vector<StatusOr<PersonalizeResult>> results;
  std::vector<double> latencies_ms;  ///< per-request wall time
  double wall_ms = 0.0;              ///< whole-batch wall time
  uint64_t states_examined = 0;
  uint64_t eval_cache_hits = 0;
  uint64_t eval_cache_misses = 0;
  uint64_t frontiers_evaluated = 0;     ///< batch evaluation calls
  uint64_t frontier_states = 0;         ///< states inside those frontiers
  uint64_t frontier_lanes_wasted = 0;   ///< SIMD padding lanes burned
  uint64_t plan_cache_hits = 0;  ///< requests whose Prepare() hit the cache
  size_t degraded = 0;  ///< OK results answered below Primary or truncated

  size_t ok_count() const {
    size_t n = 0;
    for (const auto& r : results) {
      if (r.ok()) ++n;
    }
    return n;
  }
};

/// Facade wiring the full §4.2 architecture: Preference Space → CQP State
/// Space Search → Personalized Query Construction (execution is exposed
/// separately so callers can inspect the query first).
class Personalizer {
 public:
  /// `db` must be Analyze()d and outlive the personalizer; `graph` is the
  /// user's personalization graph.
  Personalizer(const storage::Database* db,
               const prefs::PersonalizationGraph* graph,
               exec::CostModelParams cost_params = exec::CostModelParams());

  /// Runs preference extraction, search and query construction.
  /// Equivalent to Prepare() + Solve(); repeated queries should pass a
  /// request.plan_cache so the Prepare() half is paid once.
  /// When no feasible personalized query exists (not even the original
  /// query satisfies the constraints), the result's solution.feasible is
  /// false and the original query is returned unmodified.
  ///
  /// With request.fallback.enabled (the default), a budget-exhausted or
  /// failing stage never surfaces as an error: the request descends the
  /// FallbackRung ladder and the last rung — the unpersonalized original
  /// query — always produces an OK result.
  StatusOr<PersonalizeResult> Personalize(
      const PersonalizeRequest& request) const;

  /// The query-dependent, problem-independent half: parse, fingerprint,
  /// plan-cache lookup, and (on a miss) the unpruned preference-space
  /// extraction. Problem/algorithm fields of `request` are ignored here.
  /// Errors (parse, estimation) always surface — the fallback ladder is
  /// Solve-side policy; Personalize() is where the two are stitched
  /// together with the original-query terminal rung.
  StatusOr<PreparedQuery> Prepare(const PersonalizeRequest& request) const;

  /// The problem-dependent half: derives the per-problem view of
  /// `prepared.space`, runs the algorithm + degradation ladder, constructs
  /// the personalized query. `request` supplies problem, algorithm, budget,
  /// fallback policy and eval cache; its sql/query fields are ignored in
  /// favor of `prepared.query`. Bit-for-bit identical to Personalize() on
  /// the same inputs, however `prepared` was obtained (cold or cached).
  StatusOr<PersonalizeResult> Solve(const PreparedQuery& prepared,
                                    const PersonalizeRequest& request) const;

  /// Fans `requests` across a fixed worker pool and blocks until every one
  /// has answered. Requests are fully independent: each gets its own
  /// SearchContext (budget, metrics, degradation ladder) and — unless the
  /// request carries a shared eval_cache — its own evaluation memo, so
  /// results are element-for-element identical to sequential Personalize()
  /// calls. Cooperative cancellation works unchanged: a CancelToken in a
  /// request's budget makes that request degrade to its original query,
  /// never tearing the batch.
  BatchResult PersonalizeBatch(
      const std::vector<PersonalizeRequest>& requests,
      const BatchOptions& options = BatchOptions()) const;

  /// Executes a personalization result against the database, returning
  /// doi-ranked rows. Runs the plain query when no preference was chosen.
  StatusOr<exec::PersonalizedResultSet> Execute(
      const PersonalizeResult& result, exec::ExecStats* stats) const;

  const storage::Database& db() const { return *db_; }

 private:
  struct ResolvedAlgorithm {
    const cqp::Algorithm* algorithm = nullptr;
    std::string name;
    bool doi_objective = false;
  };

  /// Validates the problem and resolves "auto"/named algorithms; the error
  /// ordering (problem first, then algorithm) is part of the API.
  StatusOr<ResolvedAlgorithm> ResolveAlgorithm(
      const PersonalizeRequest& request) const;

  /// Prepare() after parsing: fingerprint, cache lookup, extraction.
  StatusOr<PreparedQuery> PrepareParsed(
      sql::SelectQuery query, const PersonalizeRequest& request) const;

  /// Solve() after algorithm resolution: ladder + construction.
  StatusOr<PersonalizeResult> SolveResolved(
      const PreparedQuery& prepared, const PersonalizeRequest& request,
      const ResolvedAlgorithm& resolved) const;

  const storage::Database* db_;
  const prefs::PersonalizationGraph* graph_;
  exec::CostModelParams cost_params_;
};

}  // namespace cqp::construct

#endif  // CQP_CONSTRUCT_PERSONALIZER_H_
