#ifndef CQP_REWRITE_IR_H_
#define CQP_REWRITE_IR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sql/ast.h"

namespace cqp::rewrite {

/// One UNION ALL branch of the §4.2 rewriting: a conjunctive SPJ query
/// (base relations + preference path aliases + conjuncts) together with the
/// preference indices it integrates and their combined doi. The branch's
/// WHERE list is the conjunct set the passes operate on.
struct BranchIR {
  sql::SelectQuery query;
  /// P-indices (into the preference space the solution chose from)
  /// integrated by this branch. Subsumption merging unions these.
  std::vector<int32_t> prefs;
  /// Combined doi of `prefs` (noisy-or, Formula 10) — the delivery weight
  /// exec::ExecutePersonalized assigns the branch.
  double doi = 0.0;
};

/// The logical rewrite IR: the canonicalized original query plus the union
/// branches. Zero branches means "the original query" (the empty rewriting
/// every pass degrades to, never an empty union). The executable form is
/// intersection semantics: a row must appear in every branch
/// (HAVING COUNT(*) = |branches| over DISTINCT branches).
struct QueryIR {
  sql::SelectQuery base;
  std::vector<BranchIR> branches;
};

/// Counters reported by the semantic optimizer. The space-side pre-search
/// pass contributes prefs_pruned; the IR passes fill the rest.
struct RewriteStats {
  uint64_t conjuncts_dropped = 0;  ///< redundancy elimination
  uint64_t branches_subsumed = 0;  ///< weaker branches merged away
  uint64_t prefs_pruned = 0;  ///< constraint-contradicted prefs never admitted

  bool changed() const {
    return conjuncts_dropped != 0 || branches_subsumed != 0;
  }
  void Add(const RewriteStats& other) {
    conjuncts_dropped += other.conjuncts_dropped;
    branches_subsumed += other.branches_subsumed;
    prefs_pruned += other.prefs_pruned;
  }
};

/// alias (upper-cased effective alias) → relation (upper-cased), the lens
/// through which passes resolve a conjunct's qualifier to the catalog
/// relation whose constraints apply.
using AliasMap = std::map<std::string, std::string>;

/// Builds the alias map of one SPJ query's FROM list.
AliasMap BuildAliasMap(const sql::SelectQuery& q);

}  // namespace cqp::rewrite

#endif  // CQP_REWRITE_IR_H_
