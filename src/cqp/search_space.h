#ifndef CQP_CQP_SEARCH_SPACE_H_
#define CQP_CQP_SEARCH_SPACE_H_

#include <cstdint>
#include <vector>

#include "common/index_set.h"
#include "cqp/metrics.h"
#include "cqp/problem.h"
#include "estimation/batch_evaluator.h"
#include "estimation/evaluator.h"
#include "space/preference_space.h"

namespace cqp::cqp {

/// Which pointer vector orders the positions of a search space.
enum class SpaceKind {
  kCost,  ///< C: cost(Q ∧ p) descending — position 0 is the most expensive
  kDoi,   ///< D: doi descending — position 0 is the most interesting
  kSize,  ///< S: size(Q ∧ p) ascending — position 0 shrinks the result most
};

/// A view of the preference space P as a state space over one pointer
/// vector, bundled with the problem's constraints (paper §5.1, §6).
///
/// States are IndexSets of *positions*; the view translates them to P
/// indices for evaluation. It also classifies the problem's constraints:
///
///  * the *binding bound* — the monotonically degrading constraint matching
///    the space's key (cost ≤ cmax in the cost space, size ≥ smin in the
///    size space; their conjunction in the doi space, where only Horizontal
///    monotonicity is needed). Phase-1 boundary search is steered by this
///    bound; once a state violates it, every Horizontal successor does too.
///  * full feasibility — all of the problem's constraints; the ones not in
///    the binding bound are enforced during phase 2.
class SpaceView {
 public:
  /// `result` and `evaluator` must outlive the view. `order` is the pointer
  /// vector matching `kind` (C, D or S from the PreferenceSpaceResult).
  SpaceView(const estimation::StateEvaluator* evaluator,
            const ProblemSpec* problem, SpaceKind kind,
            std::vector<int32_t> order);

  /// Convenience factory picking the right pointer vector from `result`.
  static SpaceView ForKind(const estimation::StateEvaluator* evaluator,
                           const ProblemSpec* problem, SpaceKind kind,
                           const space::PreferenceSpaceResult& result);

  size_t K() const { return order_.size(); }
  SpaceKind kind() const { return kind_; }
  const ProblemSpec& problem() const { return *problem_; }
  const estimation::StateEvaluator& evaluator() const { return *evaluator_; }

  /// P index stored at `position`.
  int32_t PrefIndexAt(int32_t position) const {
    return order_[static_cast<size_t>(position)];
  }

  /// Translates a position-set into the P-index set it denotes.
  IndexSet ToPrefIndices(const IndexSet& positions) const;

  /// Evaluates the state's parameters; bumps metrics.states_examined.
  estimation::StateParams Evaluate(const IndexSet& positions,
                                   SearchMetrics& metrics) const;

  /// Incremental evaluation of `positions ∪ {position}` given the parent's
  /// parameters.
  estimation::StateParams ExtendWith(const estimation::StateParams& parent,
                                     int32_t position,
                                     SearchMetrics& metrics) const;

  /// The binding (monotonically degrading) bound.
  bool WithinBound(const estimation::StateParams& params) const;

  /// All constraints of the problem.
  bool Feasible(const estimation::StateParams& params) const {
    return problem_->IsFeasible(params);
  }

  /// True when feasibility equals the binding bound, i.e. no smax/dmin
  /// constraint exists. In that case the greedy slot-swap scan below a
  /// boundary (C_FINDMAXDOI) is exact; otherwise a region scan is needed.
  bool GreedyPhase2Exact() const;

  /// Upper bound on the doi of any state with `n` preferences: the doi of
  /// the n best preferences of P (P is doi-sorted).
  double BestExpectedDoi(size_t n) const;

  // --- SoA/SIMD batch evaluation (docs/simd.md) ---------------------------

  /// Attaches a batch evaluator built over the same preference space (see
  /// search_util's ResolveBatchEvaluator). nullptr detaches. A view is
  /// single-solve/single-threaded, so the frontier scratch is per-view.
  void set_batch(const estimation::BatchEvaluator* batch) { batch_ = batch; }
  const estimation::BatchEvaluator* batch() const { return batch_; }

  /// True when batch entry points below may be used: a batch evaluator is
  /// attached and states fit in a uint64 position mask.
  bool batch_enabled() const { return batch_ != nullptr && K() < 64; }

  /// Translates a position bitmask into the P-index bitmask it denotes.
  uint64_t PositionsToPrefBits(uint64_t pos_bits) const;

  /// Batch-evaluates `n` sibling states given as position bitmasks, each in
  /// canonical ascending P-index order (bit-for-bit equal to Evaluate()).
  /// Bumps states_examined and the frontier counters; the batch path is
  /// cacheless by design, so eval_cache_hits/misses stay untouched.
  void EvaluateFrontierBits(const uint64_t* pos_bits, size_t n,
                            estimation::BatchEvaluator::Results* out,
                            SearchMetrics& metrics) const;

  /// Batch ExtendWith: lane l is `parent` ⊕ positions[l] (bit-for-bit equal
  /// to ExtendWith per lane). Bumps states_examined/transitions per lane
  /// plus the frontier counters.
  void ExtendFrontier(const estimation::StateParams& parent,
                      const int32_t* positions, size_t n,
                      estimation::BatchEvaluator::Results* out,
                      SearchMetrics& metrics) const;

 private:
  void BumpFrontierCounters(size_t n, SearchMetrics& metrics) const;

  const estimation::StateEvaluator* evaluator_;
  const ProblemSpec* problem_;
  SpaceKind kind_;
  std::vector<int32_t> order_;
  const estimation::BatchEvaluator* batch_ = nullptr;
  mutable std::vector<uint64_t> frontier_scratch_;  ///< pref-bit masks
  mutable std::vector<int32_t> extend_scratch_;     ///< pref indices
};

}  // namespace cqp::cqp

#endif  // CQP_CQP_SEARCH_SPACE_H_
