#include "construct/query_builder.h"

#include <cctype>
#include <string>
#include <utility>

#include "common/str_util.h"
#include "prefs/doi.h"
#include "rewrite/passes.h"
#include "space/preference_space.h"

namespace cqp::construct {

namespace {

using prefs::ImplicitPreference;
using sql::ColumnRef;
using sql::SelectQuery;
using sql::TableRef;

/// `canonical` (a CanonicalizeSelectList result) as the common start of
/// every branch. ORDER BY / LIMIT belong to result delivery, not to the
/// union's inputs (a LIMIT inside a sub-query would change which rows can
/// intersect). The personalized result is doi-ranked; the base LIMIT is
/// re-applied by Personalizer::Execute after ranking.
SelectQuery BranchBase(SelectQuery canonical) {
  canonical.order_by.clear();
  canonical.limit.reset();
  return canonical;
}

/// True when `name` reads p<N>_..., the spelling of the fresh aliases
/// space::BuildPreferenceBranch adds.
bool SpelledLikeFreshAlias(const std::string& name) {
  if (name.empty() || (name[0] != 'p' && name[0] != 'P')) return false;
  size_t i = 1;
  while (i < name.size() && std::isdigit(static_cast<unsigned char>(name[i]))) {
    ++i;
  }
  return i > 1 && i < name.size() && name[i] == '_';
}

/// True when a relation, alias or qualifier of `q` could equal a fresh
/// alias. Analyses built with other ordinals then need not hold for q's
/// branches.
bool UsesFreshAliasSpelling(const SelectQuery& q) {
  for (const TableRef& t : q.from) {
    if (SpelledLikeFreshAlias(t.relation) || SpelledLikeFreshAlias(t.alias)) {
      return true;
    }
  }
  for (const ColumnRef& c : q.select_list) {
    if (SpelledLikeFreshAlias(c.qualifier)) return true;
  }
  for (const sql::Predicate& p : q.where) {
    if (SpelledLikeFreshAlias(p.lhs.qualifier) ||
        SpelledLikeFreshAlias(p.rhs.qualifier)) {
      return true;
    }
  }
  return false;
}

}  // namespace

StatusOr<SelectQuery> CanonicalizeSelectList(const storage::Database& db,
                                             const SelectQuery& base) {
  SelectQuery out = base;
  out.select_list.clear();
  if (base.select_list.empty()) {
    // Expand SELECT * over the base relations, in FROM order.
    for (const TableRef& t : base.from) {
      CQP_ASSIGN_OR_RETURN(const storage::Table* table,
                           db.GetTable(t.relation));
      for (size_t c = 0; c < table->schema().arity(); ++c) {
        out.select_list.push_back(
            ColumnRef{t.EffectiveAlias(), table->schema().attribute(c).name});
      }
    }
    return out;
  }
  for (const ColumnRef& col : base.select_list) {
    if (!col.qualifier.empty()) {
      out.select_list.push_back(col);
      continue;
    }
    // Resolve the unqualified attribute against the base relations.
    const TableRef* owner = nullptr;
    for (const TableRef& t : base.from) {
      CQP_ASSIGN_OR_RETURN(const storage::Table* table,
                           db.GetTable(t.relation));
      if (!table->schema().HasAttribute(col.attribute)) continue;
      if (owner != nullptr) {
        return InvalidArgument("ambiguous column " + col.attribute);
      }
      owner = &t;
    }
    if (owner == nullptr) return NotFound("column " + col.attribute);
    out.select_list.push_back(ColumnRef{owner->EffectiveAlias(), col.attribute});
  }
  return out;
}

StatusOr<SelectQuery> BuildSubQuery(const storage::Database& db,
                                    const SelectQuery& base,
                                    const ImplicitPreference& pref,
                                    int ordinal) {
  CQP_ASSIGN_OR_RETURN(SelectQuery canonical,
                       CanonicalizeSelectList(db, base));
  return space::BuildPreferenceBranch(BranchBase(std::move(canonical)), pref,
                                      ordinal);
}

StatusOr<PersonalizedQuery> BuildPersonalizedQuery(
    const storage::Database& db, const SelectQuery& base,
    const std::vector<estimation::ScoredPreference>& prefs,
    const IndexSet& chosen, const BuildOptions& options,
    const rewrite::ViewAnalysis* analysis) {
  PersonalizedQuery out;
  CQP_ASSIGN_OR_RETURN(out.base, CanonicalizeSelectList(db, base));

  // Group choice: each group becomes one sub-query. Default is one group
  // per preference; with merge_compatible, join-free preferences share one.
  std::vector<std::vector<int32_t>> groups;
  std::vector<int32_t> mergeable;
  for (int32_t i : chosen) {
    const estimation::ScoredPreference& p = prefs[static_cast<size_t>(i)];
    if (options.merge_compatible && p.pref.joins.empty()) {
      mergeable.push_back(i);
    } else {
      groups.push_back({i});
    }
  }
  if (!mergeable.empty()) groups.push_back(std::move(mergeable));

  const SelectQuery branch_base = BranchBase(out.base);
  std::vector<rewrite::BranchIR> branches;
  branches.reserve(groups.size());
  int ordinal = 0;
  for (std::vector<int32_t>& group : groups) {
    ++ordinal;
    // Build the sub-query for the first member, then AND in the remaining
    // members' conditions (they are join-free by construction of groups
    // with more than one member, so each adds only its selection).
    rewrite::BranchIR branch;
    CQP_ASSIGN_OR_RETURN(
        branch.query,
        space::BuildPreferenceBranch(
            branch_base, prefs[static_cast<size_t>(group[0])].pref, ordinal));
    std::vector<double> dois{prefs[static_cast<size_t>(group[0])].doi};
    for (size_t m = 1; m < group.size(); ++m) {
      const estimation::ScoredPreference& extra =
          prefs[static_cast<size_t>(group[m])];
      CQP_ASSIGN_OR_RETURN(branch.query,
                           space::BuildPreferenceBranch(
                               std::move(branch.query), extra.pref, ordinal));
      dois.push_back(extra.doi);
    }
    branch.prefs = std::move(group);
    branch.doi =
        prefs::CombineConjunctionDoi(dois, prefs::ConjunctionModel::kNoisyOr);
    branches.push_back(std::move(branch));
  }

  if (options.optimize && !branches.empty()) {
    const bool reuse = analysis != nullptr && !options.merge_compatible &&
                       analysis->branches.size() == prefs.size() &&
                       !UsesFreshAliasSpelling(base) &&
                       analysis->query_sql == base.ToSql();
    std::vector<rewrite::BranchAnalysis> own;
    std::vector<const rewrite::BranchAnalysis*> analyses;
    analyses.reserve(branches.size());
    if (reuse) {
      for (const rewrite::BranchIR& branch : branches) {
        analyses.push_back(
            &analysis->branches[static_cast<size_t>(branch.prefs[0])]);
      }
    } else {
      rewrite::ShapeInterner interner;
      own.reserve(branches.size());
      for (const rewrite::BranchIR& branch : branches) {
        own.push_back(
            rewrite::AnalyzeBranch(branch.query, db.constraints(), &interner));
        analyses.push_back(&own.back());
      }
    }
    rewrite::ApplyAnalyses(analyses, &branches, &out.rewrite);
  }

  out.subqueries.reserve(branches.size());
  out.subquery_prefs.reserve(branches.size());
  out.dois.reserve(branches.size());
  for (rewrite::BranchIR& branch : branches) {
    out.subqueries.push_back(std::move(branch.query));
    out.subquery_prefs.push_back(std::move(branch.prefs));
    out.dois.push_back(branch.doi);
  }
  return out;
}

StatusOr<rewrite::ViewAnalysis> AnalyzeViewBranches(
    const storage::Database& db, const SelectQuery& query,
    const std::vector<estimation::ScoredPreference>& prefs) {
  CQP_ASSIGN_OR_RETURN(SelectQuery canonical,
                       CanonicalizeSelectList(db, query));
  const SelectQuery branch_base = BranchBase(std::move(canonical));
  rewrite::ViewAnalysis out;
  out.query_sql = query.ToSql();
  out.branches.reserve(prefs.size());
  rewrite::ShapeInterner interner;
  for (size_t i = 0; i < prefs.size(); ++i) {
    CQP_ASSIGN_OR_RETURN(
        SelectQuery branch,
        space::BuildPreferenceBranch(branch_base, prefs[i].pref,
                                     static_cast<int>(i) + 1));
    out.branches.push_back(
        rewrite::AnalyzeBranch(branch, db.constraints(), &interner));
  }
  return out;
}

sql::UnionGroupQuery PersonalizedQuery::UnionGroupForm() const {
  CQP_CHECK(!subqueries.empty())
      << "no rewriting for an empty preference set";
  sql::UnionGroupQuery q;
  // The grouped columns are the projected attributes (unqualified: every
  // branch projects them in the same order).
  q.select_list.reserve(base.select_list.size());
  for (const sql::ColumnRef& c : base.select_list) {
    q.select_list.push_back(sql::ColumnRef{"", c.attribute});
  }
  q.branches = subqueries;
  for (sql::SelectQuery& branch : q.branches) branch.distinct = true;
  q.having_count = static_cast<int64_t>(subqueries.size());
  return q;
}

std::string PersonalizedQuery::ToSql() const {
  if (subqueries.empty()) return base.ToSql();
  return UnionGroupForm().ToSql();
}

}  // namespace cqp::construct
