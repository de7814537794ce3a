#ifndef CQP_ESTIMATION_BATCH_EVALUATOR_H_
#define CQP_ESTIMATION_BATCH_EVALUATOR_H_

#include <cstdint>
#include <vector>

#include "estimation/batch_kernel_impl.h"
#include "estimation/estimate.h"
#include "estimation/evaluator.h"
#include "prefs/doi.h"

namespace cqp::estimation {

/// Structure-of-arrays batch evaluation of Formulas 6/8/10 for a whole
/// frontier of sibling states at once (docs/simd.md).
///
/// Where StateEvaluator walks one IndexSet at a time through pointer-rich
/// ScoredPreference structs, BatchEvaluator copies the admitted space into
/// contiguous per-preference arrays at construction ("Prepare time" — a
/// shared instance rides on space::PreparedSpace) and evaluates N sibling
/// states per call through a SIMD kernel: lanes are states, the preference
/// sequence is walked in canonical ascending P-index order, and per-lane
/// membership masks select which lanes each update applies to.
///
/// Parity contract: every lane executes exactly the floating-point op
/// sequence of the scalar StateEvaluator chain (EvaluateBits /
/// ExtendWith), so results are bit-for-bit identical to the scalar oracle
/// — the differential harness compares with operator==, not a tolerance.
/// Kernels must therefore never reassociate, fuse (FMA) or reorder the
/// per-lane arithmetic; see batch_kernel_impl.h.
///
/// Kernel selection happens once per construction: AVX2 (4 lanes) when
/// compiled in (CQP_ENABLE_AVX2) and the CPU reports it, else SSE2
/// (2 lanes) on x86-64, else the portable scalar instantiation of the
/// same template. Setting CQP_FORCE_SCALAR_EVAL=1 in the environment
/// forces the scalar kernel regardless (differential testing).
///
/// Like StateEvaluator, the preference vector is BORROWED and must
/// outlive this object; the rvalue overload is deleted. All evaluation
/// entry points are const and thread-safe (no mutable state), so one
/// instance may be shared across concurrent solves.
class BatchEvaluator {
 public:
  /// SoA result container. Arrays are padded up to the lane width; `n` is
  /// the logical lane count requested by the caller.
  struct Results {
    std::vector<double> doi;
    std::vector<double> cost_ms;
    std::vector<double> size;
    std::vector<uint32_t> count;
    size_t n = 0;

    StateParams Get(size_t i) const {
      StateParams s;
      s.doi = doi[i];
      s.cost_ms = cost_ms[i];
      s.size = size[i];
      s.count = count[i];
      return s;
    }
  };

  BatchEvaluator(const QueryBaseEstimate& base,
                 const std::vector<ScoredPreference>& prefs,
                 prefs::ConjunctionModel model =
                     prefs::ConjunctionModel::kNoisyOr);
  BatchEvaluator(const QueryBaseEstimate& base,
                 std::vector<ScoredPreference>&& prefs,
                 prefs::ConjunctionModel model =
                     prefs::ConjunctionModel::kNoisyOr) = delete;

  size_t K() const { return cost_ms_.size(); }
  const QueryBaseEstimate& base() const { return base_; }
  prefs::ConjunctionModel conjunction_model() const { return model_; }
  size_t lane_width() const { return kernel_.width; }
  const char* kernel_name() const { return kernel_.name; }

  /// Identity of the borrowed preference vector — callers holding a
  /// PreferenceSpaceResult use this to tell whether a shared artifact was
  /// built over the same (pruned) space before trusting it.
  const std::vector<ScoredPreference>* prefs_identity() const {
    return prefs_;
  }

  /// Parameters of the empty state (the original query).
  StateParams EmptyState() const;

  /// Scalar-identical O(1) incremental extension (used for frontier
  /// parents between batch calls; same expressions as
  /// StateEvaluator::ExtendWith).
  StateParams ExtendWith(const StateParams& parent, int32_t i) const;

  /// Evaluates `n` arbitrary subsets given as P-index bitmasks, each in
  /// canonical ascending P-index order from the empty state. Requires
  /// K() < 64.
  void EvaluateMasks(const uint64_t* member_bits, size_t n,
                     Results* out) const;

  /// Evaluates `n` sibling states: lane l is `parent` extended with
  /// { seq[j] : bit j of lane_masks[l] }, applied in sequence order.
  /// `seq` holds distinct P indices not in the parent; seq_len <= 64.
  void EvaluateSequence(const StateParams& parent, const int32_t* seq,
                        size_t seq_len, const uint64_t* lane_masks, size_t n,
                        Results* out) const;

  /// Evaluates `n` single-preference extensions of `parent`: lane l is
  /// parent ⊕ pref_idx[l] (bit-identical to ExtendWith per lane).
  void ExtendBatch(const StateParams& parent, const int32_t* pref_idx,
                   size_t n, Results* out) const;

  /// Lanes the kernel actually runs for `n` logical lanes (padding burns
  /// roundup(n, width) - n lanes; SearchMetrics::frontier_lanes_wasted).
  size_t PaddedLanes(size_t n) const {
    return (n + kernel_.width - 1) / kernel_.width * kernel_.width;
  }

 private:
  void RunKernel(internal::KernelArgs args, size_t n, Results* out) const;

  QueryBaseEstimate base_;
  const std::vector<ScoredPreference>* prefs_;  ///< borrowed, never null
  prefs::ConjunctionModel model_;
  internal::KernelChoice kernel_;
  // The SoA mirror of *prefs_ (contiguous, indexed by P index).
  std::vector<double> cost_ms_;
  std::vector<double> selectivity_;
  std::vector<double> doi_;
  std::vector<double> one_minus_doi_;
  std::vector<int32_t> identity_seq_;  ///< 0..K-1, EvaluateMasks' sequence
};

}  // namespace cqp::estimation

#endif  // CQP_ESTIMATION_BATCH_EVALUATOR_H_
