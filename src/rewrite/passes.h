#ifndef CQP_REWRITE_PASSES_H_
#define CQP_REWRITE_PASSES_H_

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

/// Conjunct redundancy elimination. Per branch, drops every conjunct
/// implied by the remaining conjuncts plus the constraints: duplicates
/// (selection or join, modulo the canonical mirror ordering), constraint
/// tautologies (year >= 1900 under domain [1930, 2005]), and
/// implication-constraint redundancies (rating >= 'PG' in a branch that
/// already demands genre = 'horror' under horror ⇒ rating >= 'R').
/// Result-preserving on constraint-valid data: an implied conjunct filters
/// nothing. Pure IR → IR; counts into stats->conjuncts_dropped.
QueryIR EliminateRedundantConjuncts(QueryIR ir,
                                    const catalog::ConstraintSet& constraints,
                                    RewriteStats* stats);

/// Branch subsumption merging. When branch A's canonical FROM and
/// conjunct sets are subsets of branch B's, A is the semantically WEAKER
/// branch: rows(A) ⊇ rows(B), so under the intersection semantics of the
/// rewriting A constrains nothing beyond B. A is dropped and folded into B
/// — B inherits A's preference indices and the dois combine by noisy-or
/// (Formula 10 is associative, so per-row delivery dois are unchanged) —
/// and the union's implied HAVING COUNT drops by one. Exact duplicates
/// (mutual subsumption, e.g. join-mirrored spellings of one branch) keep
/// the earlier branch. Counts into stats->branches_subsumed.
QueryIR MergeSubsumedBranches(QueryIR ir, RewriteStats* stats);

/// The standard pass order: redundancy elimination (exposes subsumption),
/// then subsumption merging. Both preserve the result rows on every
/// constraint-valid database, so the optimized and unoptimized emissions
/// of one chosen set execute to the same rows.
QueryIR OptimizeQueryIR(QueryIR ir, const catalog::ConstraintSet& constraints,
                        RewriteStats* stats);

}  // namespace cqp::rewrite

#endif  // CQP_REWRITE_PASSES_H_
