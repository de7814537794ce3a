#include "space/preference_space.h"

#include <algorithm>
#include <queue>
#include <set>

#include "common/failpoint.h"
#include "common/str_util.h"
#include "rewrite/passes.h"

namespace cqp::space {

namespace {

using estimation::PreferenceEstimate;
using estimation::ScoredPreference;
using prefs::AtomicJoin;
using prefs::AtomicSelection;
using prefs::ImplicitPreference;

/// A queue entry: either a complete implicit preference (join path ending in
/// a selection) or a partial join-only path still being expanded.
struct Candidate {
  double doi = 0.0;  // composed doi of the conditions present so far
  bool complete = false;
  ImplicitPreference pref;        // valid when complete
  std::vector<AtomicJoin> joins;  // the path so far (also set when complete)
  std::string tie_break;          // deterministic ordering among equal dois

  std::string TailRelation() const {
    return joins.empty() ? pref.selection.relation : joins.back().to_relation;
  }
};

struct CandidateLess {
  bool operator()(const Candidate& a, const Candidate& b) const {
    if (a.doi != b.doi) return a.doi < b.doi;  // max-heap by doi
    return a.tie_break > b.tie_break;
  }
};

double ComposeJoins(const std::vector<AtomicJoin>& joins,
                    prefs::PathComposition mode) {
  std::vector<double> dois;
  dois.reserve(joins.size());
  for (const AtomicJoin& j : joins) dois.push_back(j.doi);
  if (dois.empty()) return 1.0;
  return prefs::ComposePathDoi(dois, mode);
}

bool PathAcyclicWith(const std::vector<AtomicJoin>& joins,
                     const std::string& anchor, const AtomicJoin& next) {
  if (joins.empty()) {
    return !EqualsIgnoreCase(anchor, next.to_relation);
  }
  if (EqualsIgnoreCase(anchor, next.to_relation)) return false;
  for (const AtomicJoin& j : joins) {
    if (EqualsIgnoreCase(j.to_relation, next.to_relation)) return false;
  }
  return true;
}

}  // namespace

StatusOr<PreferenceSpaceResult> ExtractPreferenceSpace(
    const sql::SelectQuery& q, const prefs::PersonalizationGraph& graph,
    const estimation::ParameterEstimator& estimator,
    const PreferenceSpaceOptions& options) {
  CQP_FAILPOINT("space.extract");

  PreferenceSpaceResult result;
  result.query = q;
  result.conjunction_model = options.conjunction_model;
  CQP_ASSIGN_OR_RETURN(result.base, estimator.EstimateBase(q));

  // Anchor relations: the relations of Q (deduplicated).
  std::set<std::string> anchors;
  for (const sql::TableRef& t : q.from) anchors.insert(ToUpper(t.relation));

  std::priority_queue<Candidate, std::vector<Candidate>, CandidateLess> qp;

  // Seed with the atomic preferences attached to Q's relations.
  for (const std::string& anchor : anchors) {
    for (const AtomicSelection* sel : graph.SelectionsFrom(anchor)) {
      Candidate c;
      c.complete = true;
      c.pref.selection = *sel;
      c.pref.doi = sel->doi;
      c.doi = sel->doi;
      c.tie_break = c.pref.ConditionString();
      qp.push(std::move(c));
    }
    if (options.max_path_joins == 0) continue;
    for (const AtomicJoin* join : graph.JoinsFrom(anchor)) {
      if (EqualsIgnoreCase(join->to_relation, anchor)) continue;
      Candidate c;
      c.complete = false;
      c.joins = {*join};
      c.doi = ComposeJoins(c.joins, options.path_composition);
      c.tie_break = join->ConditionString();
      qp.push(std::move(c));
    }
  }

  std::set<std::string> seen_conditions;
  std::vector<ScoredPreference> prefs;
  static const catalog::ConstraintSet kNoConstraints;
  const catalog::ConstraintSet& constraints =
      options.constraints != nullptr ? *options.constraints : kNoConstraints;

  while (!qp.empty() && prefs.size() < options.max_k) {
    Candidate c = qp.top();
    qp.pop();

    // Candidates pop in non-increasing doi order, so once the best
    // remaining doi is below the floor nothing else qualifies.
    if (c.doi <= options.min_doi) break;

    if (c.complete) {
      std::string key = ToUpper(c.pref.ConditionString());
      if (!seen_conditions.insert(key).second) continue;

      // Pre-search semantic pruning: a preference whose branch provably
      // contradicts Q's own conjuncts or the integrity constraints can only
      // produce a vacuous branch — keep it out of P (it occupies no
      // max_k slot either; the next-best candidate takes its place).
      if (options.constraint_prune &&
          PreferenceContradictsQuery(q, c.pref, constraints)) {
        ++result.constraint_pruned;
        continue;
      }

      CQP_ASSIGN_OR_RETURN(PreferenceEstimate est,
                           estimator.EstimatePreference(result.base, c.pref));
      ScoredPreference scored;
      scored.pref = c.pref;
      scored.pref.doi = c.doi;
      scored.doi = c.doi;
      scored.cost_ms = est.cost_ms;
      scored.size = est.size;
      scored.selectivity = est.selectivity;
      prefs.push_back(std::move(scored));
      continue;
    }

    const std::string tail = c.TailRelation();
    const std::string anchor = c.joins.front().from_relation;
    for (const AtomicSelection* sel : graph.SelectionsFrom(tail)) {
      Candidate next;
      next.complete = true;
      next.joins = c.joins;
      next.pref.joins = c.joins;
      next.pref.selection = *sel;
      next.pref.doi = next.pref.ComputeDoi(options.path_composition);
      next.doi = next.pref.doi;
      next.tie_break = next.pref.ConditionString();
      qp.push(std::move(next));
    }
    if (c.joins.size() < options.max_path_joins) {
      for (const AtomicJoin* join : graph.JoinsFrom(tail)) {
        if (!PathAcyclicWith(c.joins, anchor, *join)) continue;
        Candidate next;
        next.complete = false;
        next.joins = c.joins;
        next.joins.push_back(*join);
        next.doi = ComposeJoins(next.joins, options.path_composition);
        next.tie_break = join->ConditionString();
        qp.push(std::move(next));
      }
    }
  }

  // P is already in non-increasing doi order; make the order canonical for
  // ties (stable by extraction order is fine and deterministic).
  result.prefs = std::move(prefs);
  if (options.build_cost_size_vectors) {
    BuildPointerVectors(result.prefs, &result.D, &result.C, &result.S);
  } else {
    result.D.resize(result.prefs.size());
    for (size_t i = 0; i < result.prefs.size(); ++i) {
      result.D[i] = static_cast<int32_t>(i);
    }
  }
  return result;
}

StatusOr<sql::SelectQuery> BuildPreferenceBranch(
    sql::SelectQuery q, const ImplicitPreference& pref, int ordinal) {
  const sql::TableRef* anchor = nullptr;
  for (const sql::TableRef& t : q.from) {
    if (EqualsIgnoreCase(t.relation, pref.AnchorRelation())) {
      anchor = &t;
      break;
    }
  }
  if (anchor == nullptr) {
    return InvalidArgument("preference anchor relation " +
                           pref.AnchorRelation() +
                           " does not appear in the query");
  }
  std::string prev_alias = anchor->EffectiveAlias();
  for (const AtomicJoin& join : pref.joins) {
    std::string alias =
        StrFormat("p%d_%s", ordinal, ToLower(join.to_relation).c_str());
    q.from.push_back(sql::TableRef{join.to_relation, alias});
    q.where.push_back(sql::Predicate::Join(
        sql::ColumnRef{prev_alias, join.from_attribute},
        catalog::CompareOp::kEq, sql::ColumnRef{alias, join.to_attribute}));
    prev_alias = std::move(alias);
  }
  q.where.push_back(sql::Predicate::Selection(
      sql::ColumnRef{prev_alias, pref.selection.attribute}, pref.selection.op,
      pref.selection.value));
  return q;
}

bool PreferenceContradictsQuery(const sql::SelectQuery& q,
                                const ImplicitPreference& pref,
                                const catalog::ConstraintSet& constraints) {
  // Satisfiability reads only FROM (the alias map) and WHERE, so the
  // projection and delivery clauses are left out of the copy.
  sql::SelectQuery shape;
  shape.from = q.from;
  shape.where = q.where;
  StatusOr<sql::SelectQuery> branch =
      BuildPreferenceBranch(std::move(shape), pref, /*ordinal=*/1);
  if (!branch.ok()) return false;  // not related to Q; nothing to prove
  return rewrite::ConjunctsUnsatisfiable(
      branch->where, rewrite::BuildAliasMap(*branch), constraints);
}

bool PrunedByProblem(const ScoredPreference& pref,
                     const cqp::ProblemSpec& problem) {
  // Monotone constraint pruning: a preference whose own sub-query violates
  // the cost bound (Formula 7) or whose size already undershoots smin
  // (Formula 8) can never appear in a feasible personalized query.
  if (problem.cmax_ms && pref.cost_ms > *problem.cmax_ms) return true;
  if (problem.smin && pref.size < *problem.smin) return true;
  return false;
}

PreferenceSpaceResult PruneSpaceForProblem(const PreferenceSpaceResult& space,
                                           const cqp::ProblemSpec& problem) {
  PreferenceSpaceResult view;
  view.query = space.query;
  view.base = space.base;
  view.conjunction_model = space.conjunction_model;
  view.constraint_pruned = space.constraint_pruned;
  view.prefs.reserve(space.prefs.size());
  for (const ScoredPreference& p : space.prefs) {
    if (!PrunedByProblem(p, problem)) view.prefs.push_back(p);
  }
  // Filtering a doi-descending list keeps it doi-descending, so the view
  // satisfies the D = identity requirement of the search algorithms. C/S are
  // rebuilt only when the source space carried them (build_cost_size_vectors).
  if (!space.C.empty()) {
    BuildPointerVectors(view.prefs, &view.D, &view.C, &view.S);
  } else {
    view.D.resize(view.prefs.size());
    for (size_t i = 0; i < view.prefs.size(); ++i) {
      view.D[i] = static_cast<int32_t>(i);
    }
  }
  return view;
}

StatusOr<PreferenceSpaceResult> ExtractPreferenceSpace(
    const sql::SelectQuery& q, const prefs::PersonalizationGraph& graph,
    const estimation::ParameterEstimator& estimator,
    const cqp::ProblemSpec& problem, const PreferenceSpaceOptions& options) {
  CQP_RETURN_IF_ERROR(problem.Validate());
  CQP_ASSIGN_OR_RETURN(PreferenceSpaceResult unpruned,
                       ExtractPreferenceSpace(q, graph, estimator, options));
  return PruneSpaceForProblem(unpruned, problem);
}

void BuildPointerVectors(const std::vector<ScoredPreference>& prefs,
                         std::vector<int32_t>* d, std::vector<int32_t>* c,
                         std::vector<int32_t>* s) {
  const size_t k = prefs.size();
  d->resize(k);
  for (size_t i = 0; i < k; ++i) (*d)[i] = static_cast<int32_t>(i);
  // P is doi-sorted by construction, but D is re-derived here so the
  // function is also correct for hand-built preference lists (tests).
  std::sort(d->begin(), d->end(), [&](int32_t a, int32_t b) {
    const auto& pa = prefs[static_cast<size_t>(a)];
    const auto& pb = prefs[static_cast<size_t>(b)];
    if (pa.doi != pb.doi) return pa.doi > pb.doi;
    return a < b;
  });
  *c = *d;
  std::sort(c->begin(), c->end(), [&](int32_t a, int32_t b) {
    const auto& pa = prefs[static_cast<size_t>(a)];
    const auto& pb = prefs[static_cast<size_t>(b)];
    if (pa.cost_ms != pb.cost_ms) return pa.cost_ms > pb.cost_ms;
    return a < b;
  });
  *s = *d;
  std::sort(s->begin(), s->end(), [&](int32_t a, int32_t b) {
    const auto& pa = prefs[static_cast<size_t>(a)];
    const auto& pb = prefs[static_cast<size_t>(b)];
    if (pa.size != pb.size) return pa.size < pb.size;
    return a < b;
  });
}

}  // namespace cqp::space
