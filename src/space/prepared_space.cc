#include "space/prepared_space.h"

#include <bit>
#include <cstdint>
#include <utility>

#include "common/str_util.h"
#include "estimation/batch_evaluator.h"

namespace cqp::space {

namespace {

/// Owner of a shared BatchEvaluator: the evaluator borrows the view's
/// preference vector, so the two must live and die together. Handed out
/// via an aliasing shared_ptr pointing at `batch`.
struct BatchHolder {
  std::shared_ptr<const PreferenceSpaceResult> view;
  estimation::BatchEvaluator batch;

  explicit BatchHolder(std::shared_ptr<const PreferenceSpaceResult> v)
      : view(std::move(v)),
        batch(view->base, view->prefs, view->conjunction_model) {}
};

std::string BoundBits(const std::optional<double>& bound) {
  if (!bound.has_value()) return "-";
  return StrFormat("%llx", static_cast<unsigned long long>(
                               std::bit_cast<uint64_t>(*bound)));
}

}  // namespace

std::string ProblemPruneKey(const cqp::ProblemSpec& problem) {
  return "c" + BoundBits(problem.cmax_ms) + ":s" + BoundBits(problem.smin);
}

std::shared_ptr<const PreparedSpace> PreparedSpace::Create(
    PreferenceSpaceResult unpruned) {
  return std::shared_ptr<const PreparedSpace>(
      new PreparedSpace(std::move(unpruned)));
}

std::shared_ptr<const PreferenceSpaceResult> PreparedSpace::ForProblem(
    const cqp::ProblemSpec& problem) const {
  if (!problem.cmax_ms.has_value() && !problem.smin.has_value()) {
    return unpruned_;  // no bound can prune: the full space IS the view
  }
  const std::string key = ProblemPruneKey(problem);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = views_.find(key);
  if (it != views_.end()) return it->second;
  PreferenceSpaceResult view = PruneSpaceForProblem(*unpruned_, problem);
  std::shared_ptr<const PreferenceSpaceResult> stored =
      view.prefs.size() == unpruned_->prefs.size()
          ? unpruned_  // bounds admitted everything: share, don't duplicate
          : std::make_shared<const PreferenceSpaceResult>(std::move(view));
  views_.emplace(key, stored);
  return stored;
}

std::shared_ptr<const estimation::BatchEvaluator>
PreparedSpace::BatchForProblem(const cqp::ProblemSpec& problem) const {
  std::shared_ptr<const PreferenceSpaceResult> view = ForProblem(problem);
  if (view->prefs.size() >= 64) return nullptr;
  const std::string key = ProblemPruneKey(problem);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = batch_evals_.find(key);
  if (it != batch_evals_.end()) return it->second;
  auto holder = std::make_shared<BatchHolder>(std::move(view));
  std::shared_ptr<const estimation::BatchEvaluator> batch(holder,
                                                          &holder->batch);
  batch_evals_.emplace(key, batch);
  return batch;
}

std::shared_ptr<const rewrite::ViewAnalysis> PreparedSpace::AnalysisForProblem(
    const cqp::ProblemSpec& problem, uint64_t constraint_revision,
    const AnalysisBuilder& build) const {
  const std::string key =
      ProblemPruneKey(problem) +
      StrFormat(":r%llu", static_cast<unsigned long long>(constraint_revision));
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = analyses_.find(key);
    if (it != analyses_.end()) return it->second;
  }
  std::shared_ptr<const rewrite::ViewAnalysis> built =
      build(*ForProblem(problem));
  if (built == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  return analyses_.emplace(key, std::move(built)).first->second;
}

}  // namespace cqp::space
