#ifndef CQP_SPACE_PREPARED_SPACE_H_
#define CQP_SPACE_PREPARED_SPACE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "cqp/problem.h"
#include "rewrite/passes.h"
#include "space/preference_space.h"

namespace cqp::estimation {
class BatchEvaluator;
}  // namespace cqp::estimation

namespace cqp::space {

/// Canonical key of the monotone prune bounds a ProblemSpec applies to a
/// preference space: the exact bit patterns of cmax_ms and smin ("-" when
/// absent). Two problems with equal keys admit exactly the same preferences
/// from any extracted space, so per-problem views — and the EvalCaches built
/// over them — may be shared across such problems.
std::string ProblemPruneKey(const cqp::ProblemSpec& problem);

/// The immutable, shareable artifact of the query-dependent half of the
/// pipeline (paper Fig. 3): one problem-independent extraction — P with its
/// estimated parameters and pointer vectors — from which the per-problem
/// views required by the search half are derived on demand.
///
/// A PreparedSpace is created once (Personalizer::Prepare, or directly from
/// an extraction result) and then only read: ForProblem() memoizes derived
/// views under a mutex but never changes what any earlier caller observed.
/// All returned pointers own their referent, so views stay valid even after
/// the PreparedSpace itself is destroyed — there is no lifetime footgun in
/// handing them to evaluators or keeping them inside PersonalizeResults.
class PreparedSpace {
 public:
  /// Wraps an extraction result (from the problem-free
  /// ExtractPreferenceSpace) as a shared immutable artifact.
  static std::shared_ptr<const PreparedSpace> Create(
      PreferenceSpaceResult unpruned);

  /// The full unpruned space (K = options.max_k-capped extraction).
  const std::shared_ptr<const PreferenceSpaceResult>& unpruned() const {
    return unpruned_;
  }
  size_t K() const { return unpruned_->K(); }

  /// The view of this space admitted by `problem`'s monotone bounds
  /// (PruneSpaceForProblem), memoized per ProblemPruneKey. When nothing is
  /// pruned the unpruned artifact itself is returned — no copy is made for
  /// the common unconstrained case.
  std::shared_ptr<const PreferenceSpaceResult> ForProblem(
      const cqp::ProblemSpec& problem) const;

  /// Shared SoA batch evaluator over the `problem`-admitted view
  /// (docs/simd.md), memoized per ProblemPruneKey next to the view itself
  /// so concurrent solves of equal-bound problems reuse one set of arrays.
  /// Returns nullptr when the admitted space does not fit a uint64 state
  /// mask (K >= 64). The returned pointer keeps the view it was built
  /// over alive.
  std::shared_ptr<const estimation::BatchEvaluator> BatchForProblem(
      const cqp::ProblemSpec& problem) const;

  /// Builds the rewrite analyses of a view (construct::AnalyzeViewBranches);
  /// returns nullptr when it cannot.
  using AnalysisBuilder =
      std::function<std::shared_ptr<const rewrite::ViewAnalysis>(
          const PreferenceSpaceResult& view)>;

  /// The rewrite analyses (docs/rewriting.md) of the `problem`-admitted
  /// view's branches, memoized per ProblemPruneKey and constraint revision:
  /// the query, each preference and the constraint set — everything an
  /// analysis reads — are fixed by those. On a miss `build` runs on the
  /// view outside the lock; when callers race, the first result stored
  /// wins and every caller gets it. A null result is not stored.
  std::shared_ptr<const rewrite::ViewAnalysis> AnalysisForProblem(
      const cqp::ProblemSpec& problem, uint64_t constraint_revision,
      const AnalysisBuilder& build) const;

 private:
  explicit PreparedSpace(PreferenceSpaceResult unpruned)
      : unpruned_(std::make_shared<const PreferenceSpaceResult>(
            std::move(unpruned))) {}

  std::shared_ptr<const PreferenceSpaceResult> unpruned_;
  mutable std::mutex mu_;
  mutable std::map<std::string, std::shared_ptr<const PreferenceSpaceResult>>
      views_;
  mutable std::map<std::string,
                   std::shared_ptr<const estimation::BatchEvaluator>>
      batch_evals_;
  mutable std::map<std::string, std::shared_ptr<const rewrite::ViewAnalysis>>
      analyses_;
};

}  // namespace cqp::space

#endif  // CQP_SPACE_PREPARED_SPACE_H_
