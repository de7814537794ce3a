#ifndef CQP_REWRITE_PASSES_H_
#define CQP_REWRITE_PASSES_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/constraints.h"
#include "rewrite/ir.h"
#include "sql/ast.h"

namespace cqp::rewrite {

/// True when `conjuncts` ∧ the domain/implication constraints of the
/// aliases' relations is provably unsatisfiable (some attribute's value
/// range is empty). Join conjuncts are ignored (conservative); a provable
/// contradiction means the conjunction returns zero rows on every
/// constraint-valid database. This is the one vacuity decision: the
/// pre-search preference pruning in space::ExtractPreferenceSpace applies
/// it to each candidate's branch, so no emitted branch is vacuous unless
/// the caller turned pruning off or merged contradictory preferences —
/// and then the empty answer is the right one.
bool ConjunctsUnsatisfiable(const std::vector<sql::Predicate>& conjuncts,
                            const AliasMap& aliases,
                            const catalog::ConstraintSet& constraints);

// Each pass is split in two. The *analysis* of a branch reads that branch
// alone (its FROM, WHERE and select list, plus the constraints) and records
// what redundancy elimination drops and the branch's canonical shape. The
// *apply* step drops those conjuncts and merges subsumed branches by
// comparing shapes. A branch's analysis is therefore reusable wherever the
// same branch is emitted again: space::PreparedSpace memoizes one per
// preference of a prepared view (docs/rewriting.md).

/// Interns canonical texts as dense integers. Shapes interned through one
/// interner compare as integer sets; shapes from two interners do not.
class ShapeInterner {
 public:
  int32_t Intern(const std::string& text);

 private:
  std::unordered_map<std::string, int32_t> ids_;
};

/// A branch's canonical FROM, WHERE and select shape (sql::CanonicalShapeOf,
/// interned): the subsumption pass's comparison key.
struct BranchShape {
  std::vector<int32_t> from;   ///< sorted FROM qualifiers
  std::vector<int32_t> where;  ///< sorted, deduplicated surviving conjuncts
  int32_t select = 0;          ///< the select list
};

/// What the passes decide about one branch on its own.
struct BranchAnalysis {
  /// WHERE indices redundancy elimination drops, ascending. Each is implied
  /// by the branch's remaining conjuncts plus the constraints: a duplicate
  /// (selection or join, modulo the canonical mirror ordering), a
  /// constraint tautology (year >= 1900 under domain [1930, 2005]), or an
  /// implication-constraint redundancy (rating >= 'PG' in a branch that
  /// already demands genre = 'horror' under horror ⇒ rating >= 'R').
  std::vector<uint32_t> dropped;
  /// The shape of the branch once `dropped` is gone.
  BranchShape shape;
};

/// Analyzes `branch`. Interning through `interner` makes the shape
/// comparable with every other shape interned there.
BranchAnalysis AnalyzeBranch(const sql::SelectQuery& branch,
                             const catalog::ConstraintSet& constraints,
                             ShapeInterner* interner);

/// The analyses of one prepared view: one per preference, each of the
/// single-preference branch construction builds for it, all interned
/// through one interner. space::PreparedSpace memoizes it.
struct ViewAnalysis {
  /// ToSql() of the query every branch extends. A request reuses the
  /// analyses only when its own query prints the same, so that conjunct
  /// indices line up.
  std::string query_sql;
  /// branches[i] analyzes the view's preference i, built with fresh-alias
  /// ordinal i + 1. Fresh aliases matter to the passes only through
  /// equality with other names, so the analysis holds for any ordinal that
  /// is distinct from the other branches' and from the base query's names.
  std::vector<BranchAnalysis> branches;
};

/// The apply step. `analyses[b]` must analyze `(*branches)[b]` (or a
/// branch with the same conjunct layout and the same names up to fresh
/// aliases), and all of them must share one interner. Drops each branch's
/// redundant conjuncts, then merges subsumed branches: when branch A's FROM
/// and conjunct sets are subsets of branch B's, A is the semantically
/// WEAKER branch — rows(A) ⊇ rows(B), so under the intersection semantics
/// of the rewriting A constrains nothing beyond B. A is dropped and folded
/// into B — B inherits A's preference indices and the dois combine by
/// noisy-or (Formula 10 is associative, so per-row delivery dois are
/// unchanged) — and the union's implied HAVING COUNT drops by one. Exact
/// duplicates (mutual subsumption, e.g. join-mirrored spellings of one
/// branch) keep the earlier branch. Both steps preserve the result rows on
/// every constraint-valid database. Counts into `stats`.
void ApplyAnalyses(const std::vector<const BranchAnalysis*>& analyses,
                   std::vector<BranchIR>* branches, RewriteStats* stats);

/// Redundancy elimination alone: every branch loses the conjuncts its
/// analysis drops. Counts into stats->conjuncts_dropped.
QueryIR EliminateRedundantConjuncts(QueryIR ir,
                                    const catalog::ConstraintSet& constraints,
                                    RewriteStats* stats);

/// Subsumption merging alone, over every branch's full conjunct set.
/// Counts into stats->branches_subsumed.
QueryIR MergeSubsumedBranches(QueryIR ir, RewriteStats* stats);

/// The standard pass order: analyze every branch, then apply (redundancy
/// elimination exposes subsumption). The optimized and unoptimized
/// emissions of one chosen set execute to the same rows.
QueryIR OptimizeQueryIR(QueryIR ir, const catalog::ConstraintSet& constraints,
                        RewriteStats* stats);

}  // namespace cqp::rewrite

#endif  // CQP_REWRITE_PASSES_H_
