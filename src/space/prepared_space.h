#ifndef CQP_SPACE_PREPARED_SPACE_H_
#define CQP_SPACE_PREPARED_SPACE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "cqp/problem.h"
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
};

}  // namespace cqp::space

#endif  // CQP_SPACE_PREPARED_SPACE_H_
