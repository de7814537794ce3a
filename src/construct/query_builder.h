#ifndef CQP_CONSTRUCT_QUERY_BUILDER_H_
#define CQP_CONSTRUCT_QUERY_BUILDER_H_

#include <string>
#include <vector>

#include "common/index_set.h"
#include "common/status.h"
#include "estimation/evaluator.h"
#include "prefs/preference.h"
#include "rewrite/ir.h"
#include "rewrite/passes.h"
#include "sql/ast.h"
#include "storage/database.h"

namespace cqp::construct {

/// The personalized query of §4.2: the original query's projection computed
/// as the UNION ALL of one sub-query per integrated preference, grouped by
/// the projected row with HAVING COUNT(*) = L.
struct PersonalizedQuery {
  sql::SelectQuery base;  ///< Q with its select list canonicalized
  std::vector<sql::SelectQuery> subqueries;
  /// Preference P-indices integrated by each sub-query (singletons unless
  /// compatible preferences were merged).
  std::vector<std::vector<int32_t>> subquery_prefs;
  /// Combined doi of each sub-query's preferences (used for ranking).
  std::vector<double> dois;

  /// What the semantic optimizer did to this rewriting (all zero when
  /// BuildOptions.optimize is off or no pass fired).
  rewrite::RewriteStats rewrite;

  size_t L() const { return subqueries.size(); }

  /// The rewriting as a first-class SQL statement: DISTINCT branches (so
  /// the standard UNION ALL / HAVING COUNT(*) semantics equal the exact
  /// intersection semantics of exec::ExecutePersonalized), grouped by the
  /// projected row. Requires L() >= 1. The result round-trips: it can be
  /// parsed back with sql::ParseUnionGroup and run with
  /// exec::Executor::ExecuteUnionGroup, yielding the same rows.
  sql::UnionGroupQuery UnionGroupForm() const;

  /// Renders the full rewriting as SQL text (the base query when no
  /// preference is integrated, UnionGroupForm().ToSql() otherwise).
  std::string ToSql() const;
};

/// Options controlling query construction.
struct BuildOptions {
  /// Footnote 1 of the paper: merge preferences into one sub-query when
  /// provably safe. We merge only join-free preferences (selections
  /// directly on the query's own relations), which constrain the same base
  /// row; merging path preferences can change semantics (two genre
  /// preferences require two GENRE rows, not one).
  bool merge_compatible = false;
  /// Run the semantic optimizer (docs/rewriting.md) over the assembled
  /// rewriting: constraint-redundant conjuncts are dropped and subsumed
  /// branches merged. Row-preserving on databases that satisfy
  /// db.constraints(); an empty constraint set still enables the
  /// pure-logic passes (duplicate conjuncts, subsumption).
  bool optimize = true;
};

/// Builds one sub-query integrating `pref` into `base`: the branch
/// space::BuildPreferenceBranch builds (the one the pre-search pruning
/// checks) over base with its select list canonicalized and its ORDER BY
/// and LIMIT dropped. `ordinal` namespaces the fresh aliases
/// (p<ordinal>_<rel>).
StatusOr<sql::SelectQuery> BuildSubQuery(const storage::Database& db,
                                         const sql::SelectQuery& base,
                                         const prefs::ImplicitPreference& pref,
                                         int ordinal);

/// Builds the full personalized query for the chosen preference subset
/// (P-indices into `prefs`). An empty subset yields a PersonalizedQuery
/// with no sub-queries (the original query).
///
/// `analysis`, when given, is AnalyzeViewBranches(db, q, prefs) under the
/// database's current constraints for some query q. The optimizer then
/// takes each branch's analysis from it instead of analyzing the branch
/// again — but only when `base` prints the same SQL as q (so conjunct
/// indices line up), merge_compatible is off (the analyses are of
/// single-preference branches) and no name in `base` is spelled like a
/// fresh alias (p<N>_...). Otherwise the branches are analyzed here, with
/// the same functions. The emission is printed from `base` either way and
/// is byte-identical with or without `analysis`.
StatusOr<PersonalizedQuery> BuildPersonalizedQuery(
    const storage::Database& db, const sql::SelectQuery& base,
    const std::vector<estimation::ScoredPreference>& prefs,
    const IndexSet& chosen, const BuildOptions& options = BuildOptions(),
    const rewrite::ViewAnalysis* analysis = nullptr);

/// The rewrite analyses of `query`'s single-preference branches, one per
/// element of `prefs`, under db.constraints(): what
/// BuildPersonalizedQuery reuses across requests (space::PreparedSpace
/// memoizes it per prepared view).
StatusOr<rewrite::ViewAnalysis> AnalyzeViewBranches(
    const storage::Database& db, const sql::SelectQuery& query,
    const std::vector<estimation::ScoredPreference>& prefs);

/// Rewrites `base` so its select list is explicit (expanding SELECT *) and
/// every column is qualified with its table alias. Sub-queries add tables,
/// so unqualified names could otherwise become ambiguous.
StatusOr<sql::SelectQuery> CanonicalizeSelectList(const storage::Database& db,
                                                  const sql::SelectQuery& base);

}  // namespace cqp::construct

#endif  // CQP_CONSTRUCT_QUERY_BUILDER_H_
