#include "construct/query_builder.h"

#include <map>

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
  CQP_ASSIGN_OR_RETURN(SelectQuery sub, CanonicalizeSelectList(db, base));
  // ORDER BY / LIMIT belong to result delivery, not to the union's inputs
  // (a LIMIT inside a sub-query would change which rows can intersect).
  // The personalized result is doi-ranked; the base LIMIT is re-applied by
  // Personalizer::Execute after ranking.
  sub.order_by.clear();
  sub.limit.reset();
  return space::BuildPreferenceBranch(std::move(sub), pref, ordinal);
}

StatusOr<PersonalizedQuery> BuildPersonalizedQuery(
    const storage::Database& db, const SelectQuery& base,
    const std::vector<estimation::ScoredPreference>& prefs,
    const IndexSet& chosen, const BuildOptions& options) {
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

  int ordinal = 0;
  for (const std::vector<int32_t>& group : groups) {
    ++ordinal;
    // Build the sub-query for the first member, then AND in the remaining
    // members' conditions (they are join-free by construction of groups
    // with more than one member, so each adds only its selection).
    const ImplicitPreference& first =
        prefs[static_cast<size_t>(group[0])].pref;
    CQP_ASSIGN_OR_RETURN(SelectQuery sub,
                         BuildSubQuery(db, base, first, ordinal));
    std::vector<double> dois{prefs[static_cast<size_t>(group[0])].doi};
    for (size_t m = 1; m < group.size(); ++m) {
      const ImplicitPreference& extra =
          prefs[static_cast<size_t>(group[m])].pref;
      CQP_ASSIGN_OR_RETURN(
          sub, space::BuildPreferenceBranch(std::move(sub), extra, ordinal));
      dois.push_back(prefs[static_cast<size_t>(group[m])].doi);
    }
    out.subqueries.push_back(std::move(sub));
    out.subquery_prefs.push_back(group);
    out.dois.push_back(
        prefs::CombineConjunctionDoi(dois, prefs::ConjunctionModel::kNoisyOr));
  }

  if (options.optimize && !out.subqueries.empty()) {
    rewrite::QueryIR ir;
    ir.base = out.base;
    ir.branches.reserve(out.subqueries.size());
    for (size_t b = 0; b < out.subqueries.size(); ++b) {
      rewrite::BranchIR branch;
      branch.query = out.subqueries[b];
      branch.prefs = out.subquery_prefs[b];
      branch.doi = out.dois[b];
      ir.branches.push_back(std::move(branch));
    }
    rewrite::RewriteStats stats;
    ir = rewrite::OptimizeQueryIR(std::move(ir), db.constraints(), &stats);
    if (stats.changed()) {
      out.subqueries.clear();
      out.subquery_prefs.clear();
      out.dois.clear();
      for (rewrite::BranchIR& branch : ir.branches) {
        out.subqueries.push_back(std::move(branch.query));
        out.subquery_prefs.push_back(std::move(branch.prefs));
        out.dois.push_back(branch.doi);
      }
    }
    out.rewrite = stats;
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
