#ifndef CQP_TESTING_REWRITE_CHECK_H_
#define CQP_TESTING_REWRITE_CHECK_H_

#include <cstdint>
#include <string>

#include "construct/personalizer.h"
#include "storage/database.h"
#include "testing/oracle.h"

namespace cqp::testing {

/// The emission oracle of the rewrite layer (docs/rewriting.md). Returns ""
/// when the chosen set of `r`, emitted under `options` once optimized and
/// once unoptimized, executes to the same rows (dois within 1e-9 —
/// noisy-or regrouping is the only permitted difference); else the first
/// difference. Both emissions are memo-free: they analyze their own
/// branches. `r` must answer a request whose parsed query is
/// r.space->query (an uncached Personalize() does). When `served` is true,
/// `r` was answered under `options` and
/// its emission — which reuses the prepared view's memoized analyses when
/// it may — must also equal the memo-free optimized one byte for byte:
/// SQL, subquery_prefs, the bit patterns of the dois and the rewrite
/// counters.
std::string DiffEmissions(const storage::Database& db,
                          const construct::Personalizer& personalizer,
                          const construct::PersonalizeResult& r,
                          construct::BuildOptions options, bool served);

/// Configuration of the semantic-rewrite metamorphic sweep (docs/
/// rewriting.md). One run builds a synthetic database, mines its integrity
/// constraints, personalizes a generated workload with the rewrite layer on,
/// and checks the three soundness obligations below.
struct RewriteCheckConfig {
  uint64_t seed = 1;
  size_t n_queries = 5;
  size_t n_profiles = 2;
  size_t max_k = 10;
  /// Metamorphic equivalence: for every request, DiffEmissions unmerged
  /// and with merge_compatible (the served emission checked against the
  /// memo-free one under the options it was served with).
  bool check_equivalence = true;
  /// Vacuity: no branch of the pipeline's emission is
  /// rewrite::ConjunctsUnsatisfiable (pruning is the only contradiction
  /// check, so it must be complete), and every preference the pre-search
  /// pruning pass would reject must build a sub-query that executes to
  /// ZERO rows on the (constraint-valid, because constraints were mined
  /// from it) data.
  bool check_vacuity = true;
  /// Constraint-revision invalidation: SetConstraints() must detach cached
  /// plans (next Prepare misses) and the re-solve under identical
  /// constraints must answer identically.
  bool check_revision = true;
};

struct RewriteCheckResult {
  CheckReport report;
  size_t requests = 0;          ///< personalization requests checked
  uint64_t conjuncts_dropped = 0;
  uint64_t branches_subsumed = 0;
  uint64_t prefs_pruned = 0;    ///< candidates rejected pre-search
  uint64_t vacuity_probes = 0;  ///< pruned-candidate zero-row executions
};

/// Runs the sweep; an empty report means every obligation held.
RewriteCheckResult RunRewriteCheck(
    const RewriteCheckConfig& config = RewriteCheckConfig());

}  // namespace cqp::testing

#endif  // CQP_TESTING_REWRITE_CHECK_H_
