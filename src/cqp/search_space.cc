#include "cqp/search_space.h"

#include <bit>

#include "common/logging.h"

namespace cqp::cqp {

SpaceView::SpaceView(const estimation::StateEvaluator* evaluator,
                     const ProblemSpec* problem, SpaceKind kind,
                     std::vector<int32_t> order)
    : evaluator_(evaluator),
      problem_(problem),
      kind_(kind),
      order_(std::move(order)) {
  CQP_CHECK(evaluator_ != nullptr);
  CQP_CHECK(problem_ != nullptr);
  CQP_CHECK_EQ(order_.size(), evaluator_->K());
}

SpaceView SpaceView::ForKind(const estimation::StateEvaluator* evaluator,
                             const ProblemSpec* problem, SpaceKind kind,
                             const space::PreferenceSpaceResult& result) {
  switch (kind) {
    case SpaceKind::kCost:
      CQP_CHECK_EQ(result.C.size(), result.prefs.size())
          << "cost vector missing: extract with build_cost_size_vectors";
      return SpaceView(evaluator, problem, kind, result.C);
    case SpaceKind::kDoi:
      return SpaceView(evaluator, problem, kind, result.D);
    case SpaceKind::kSize:
      CQP_CHECK_EQ(result.S.size(), result.prefs.size())
          << "size vector missing: extract with build_cost_size_vectors";
      return SpaceView(evaluator, problem, kind, result.S);
  }
  CQP_CHECK(false) << "unreachable";
  return SpaceView(evaluator, problem, kind, {});
}

IndexSet SpaceView::ToPrefIndices(const IndexSet& positions) const {
  std::vector<int32_t> indices;
  indices.reserve(positions.size());
  for (int32_t pos : positions) {
    indices.push_back(order_[static_cast<size_t>(pos)]);
  }
  return IndexSet::FromUnsorted(std::move(indices));
}

estimation::StateParams SpaceView::Evaluate(const IndexSet& positions,
                                            SearchMetrics& metrics) const {
  ++metrics.states_examined;
  if (evaluator_->K() < 64) {
    // Canonical path: integrate in ascending P-index order regardless of
    // this view's position order, so every space (C, D, S) computes
    // bit-for-bit identical floats for the same preference set — the
    // property that makes one EvalCache shareable across algorithms.
    uint64_t bits = 0;
    for (int32_t pos : positions) {
      bits |= uint64_t{1} << order_[static_cast<size_t>(pos)];
    }
    bool cache_hit = false;
    estimation::StateParams params =
        evaluator_->EvaluateBitsCached(bits, &cache_hit);
    if (evaluator_->cache() != nullptr) {
      if (cache_hit) {
        ++metrics.eval_cache_hits;
      } else {
        ++metrics.eval_cache_misses;
      }
    }
    return params;
  }
  // K >= 64 (never served — the wire, the server's default and the shell
  // all cap max_k at 63 — but a library caller or a synthetic test can
  // ask for more): no uint64_t key exists, so evaluate directly — still in
  // ascending P-index order for consistency with the cached path.
  return evaluator_->Evaluate(ToPrefIndices(positions));
}

estimation::StateParams SpaceView::ExtendWith(
    const estimation::StateParams& parent, int32_t position,
    SearchMetrics& metrics) const {
  ++metrics.states_examined;
  ++metrics.transitions;
  return evaluator_->ExtendWith(parent,
                                order_[static_cast<size_t>(position)]);
}

bool SpaceView::WithinBound(const estimation::StateParams& params) const {
  switch (kind_) {
    case SpaceKind::kCost:
      // Phase-1 boundary search in the cost space is steered by the cost
      // bound only; other constraints are checked in phase 2, because
      // Vertical moves in this space have a known effect on cost alone.
      return !problem_->cmax_ms || params.cost_ms <= *problem_->cmax_ms;
    case SpaceKind::kSize:
      return !problem_->smin || params.size >= *problem_->smin;
    case SpaceKind::kDoi:
      // The doi-space chain algorithms only rely on the bound degrading
      // monotonically along Horizontal moves, which holds for the
      // conjunction of both degrading constraints.
      if (problem_->cmax_ms && params.cost_ms > *problem_->cmax_ms) {
        return false;
      }
      if (problem_->smin && params.size < *problem_->smin) return false;
      return true;
  }
  return true;
}

bool SpaceView::GreedyPhase2Exact() const {
  // The slot-swap scan below a boundary (C_FINDMAXDOI) relies on every swap
  // preserving the bound, which is only guaranteed for the space's own key
  // parameter. Constraints on other parameters force a region scan.
  switch (kind_) {
    case SpaceKind::kCost:
      return !problem_->smin.has_value() && !problem_->smax.has_value();
    case SpaceKind::kSize:
      return !problem_->cmax_ms.has_value() && !problem_->smax.has_value();
    case SpaceKind::kDoi:
      return false;  // phase-2 swaps are not used in the doi space
  }
  return false;
}

uint64_t SpaceView::PositionsToPrefBits(uint64_t pos_bits) const {
  uint64_t bits = 0;
  for (uint64_t rest = pos_bits; rest != 0; rest &= rest - 1) {
    bits |= uint64_t{1}
            << order_[static_cast<size_t>(std::countr_zero(rest))];
  }
  return bits;
}

void SpaceView::BumpFrontierCounters(size_t n, SearchMetrics& metrics) const {
  metrics.states_examined += n;
  ++metrics.frontiers_evaluated;
  metrics.frontier_states += n;
  metrics.frontier_lanes_wasted += batch_->PaddedLanes(n) - n;
}

void SpaceView::EvaluateFrontierBits(
    const uint64_t* pos_bits, size_t n,
    estimation::BatchEvaluator::Results* out, SearchMetrics& metrics) const {
  CQP_CHECK(batch_enabled());
  frontier_scratch_.resize(n);
  for (size_t l = 0; l < n; ++l) {
    frontier_scratch_[l] = PositionsToPrefBits(pos_bits[l]);
  }
  batch_->EvaluateMasks(frontier_scratch_.data(), n, out);
  BumpFrontierCounters(n, metrics);
}

void SpaceView::ExtendFrontier(const estimation::StateParams& parent,
                               const int32_t* positions, size_t n,
                               estimation::BatchEvaluator::Results* out,
                               SearchMetrics& metrics) const {
  CQP_CHECK(batch_enabled());
  extend_scratch_.resize(n);
  for (size_t l = 0; l < n; ++l) {
    extend_scratch_[l] = order_[static_cast<size_t>(positions[l])];
  }
  batch_->ExtendBatch(parent, extend_scratch_.data(), n, out);
  metrics.transitions += n;
  BumpFrontierCounters(n, metrics);
}

double SpaceView::BestExpectedDoi(size_t n) const {
  estimation::StateParams params = evaluator_->EmptyState();
  size_t limit = std::min(n, evaluator_->K());
  // P is sorted by doi descending, so the first `limit` P-indices are the
  // best preferences.
  for (size_t i = 0; i < limit; ++i) {
    params = evaluator_->ExtendWith(params, static_cast<int32_t>(i));
  }
  return params.doi;
}

}  // namespace cqp::cqp
