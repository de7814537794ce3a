#ifndef CQP_TESTING_PIPELINE_CHECK_H_
#define CQP_TESTING_PIPELINE_CHECK_H_

#include <cstdint>

#include "testing/oracle.h"

namespace cqp::testing {

/// Configuration of the end-to-end execution-path parity sweep.
struct PipelineCheckConfig {
  uint64_t seed = 1;
  size_t n_queries = 4;
  size_t n_profiles = 2;
  /// Preference-space cap for every request (keeps K small enough for
  /// exact solvers on every query).
  size_t max_k = 10;
  bool check_batch = true;       ///< serial vs PersonalizeBatch
  bool check_shared_cache = true;///< private vs shared warm EvalCache
  bool check_server = true;      ///< direct vs loopback server round trip
  bool check_failpoints = true;  ///< injected faults + tight budgets degrade
  bool check_prepared = true;    ///< Prepare()+Solve(), cold and plan-cached,
                                 ///< vs direct Personalize()
  bool check_batch_eval = true;  ///< SoA/SIMD batch evaluation vs forced
                                 ///< scalar (disable_batch_eval) answers
  bool check_rewrite = true;     ///< DiffEmissions (rewrite_check.h) on
                                 ///< every reference answer, unmerged and
                                 ///< merged (docs/rewriting.md)
};

struct PipelineCheckResult {
  CheckReport report;     ///< violations across all paths
  size_t requests = 0;    ///< personalization requests compared
};

/// Tentpole check (d)+(e) at the whole-pipeline level: builds a synthetic
/// movie database, generated profiles and an SPJ query workload, then
/// requires field-for-field agreement between
///   * sequential Personalize() calls (the reference),
///   * PersonalizeBatch() over the same requests,
///   * Personalize() with a shared, pre-warmed EvalCache,
///   * explicit Prepare()+Solve(), cold and with a warm plan cache,
///   * a loopback server round trip (JSON wire protocol),
///   * Personalize() with the SoA/SIMD batch evaluation path disabled
///     (objective-level for cost minimization, where branch-and-bound
///     tie-breaking may legitimately pick a different optimal set),
/// and — under injected failpoints plus tight expansion budgets — that
/// every answer is still OK, feasible solutions verify against their
/// problem bounds, and non-Primary answers are tagged degraded.
PipelineCheckResult RunPipelineCheck(
    const PipelineCheckConfig& config = PipelineCheckConfig());

}  // namespace cqp::testing

#endif  // CQP_TESTING_PIPELINE_CHECK_H_
