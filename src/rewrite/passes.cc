#include "rewrite/passes.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>

#include "common/str_util.h"
#include "rewrite/range.h"
#include "sql/fingerprint.h"

namespace cqp::rewrite {

namespace {

using catalog::CompareOp;
using catalog::ConstraintSet;
using catalog::DomainConstraint;
using catalog::ImplicationConstraint;
using catalog::Value;
using catalog::ValueType;
using sql::Predicate;
using sql::SelectQuery;

bool IsNumeric(const Value& v) { return v.type() != ValueType::kString; }

/// Type-tolerant equality (1 == 1.0; never crashes on a type mix).
bool ValuesEqual(const Value& a, const Value& b) {
  if (IsNumeric(a) != IsNumeric(b)) return false;
  if (!IsNumeric(a)) return a.AsString() == b.AsString();
  if (a.type() == ValueType::kInt && b.type() == ValueType::kInt) {
    return a.AsInt() == b.AsInt();
  }
  return a.AsNumeric() == b.AsNumeric();
}

/// Upper-cased qualifier of a column reference; an unqualified reference in
/// a single-table scope resolves to that table's alias, otherwise to "" (a
/// separate fact bucket that no constraint seeds — conservative).
std::string ResolveQualifier(const sql::ColumnRef& ref,
                             const AliasMap& aliases) {
  if (!ref.qualifier.empty()) return ToUpper(ref.qualifier);
  if (aliases.size() == 1) return aliases.begin()->first;
  return "";
}

/// The constraints that speak about one alias: its relation's domain and
/// implication constraints. Both are empty for a qualifier that names no
/// FROM entry.
struct AliasConstraints {
  std::vector<const DomainConstraint*> domains;
  std::vector<const ImplicationConstraint*> implications;
};

AliasConstraints ConstraintsOf(const std::string& alias,
                               const AliasMap& aliases,
                               const ConstraintSet& constraints) {
  AliasConstraints out;
  auto it = aliases.find(alias);
  if (it == aliases.end()) return out;
  for (const DomainConstraint& d : constraints.domains()) {
    if (EqualsIgnoreCase(d.relation, it->second)) out.domains.push_back(&d);
  }
  out.implications = constraints.ImplicationsFor(it->second);
  return out;
}

/// Calls on_fact(attribute, op, value) for every fact about one alias, in
/// the order the range engine sees them: the relation's domain bounds, then
/// `conjuncts` (selections on that alias), then the consequent of every
/// implication the equalities fire, to fixpoint (an equality conjunct — or
/// a derived equality consequent — on a.x triggers every `x = v ⇒ ...`
/// implication of a's relation). Facts never cross aliases: domain seeds,
/// conjuncts and fired implications are each keyed by one alias, and join
/// conjuncts contribute nothing (conservative: no cross-alias
/// propagation). Attributes are passed as written; compare them ignoring
/// case.
template <typename OnFact>
void ForEachFact(const AliasConstraints& scope,
                 const std::vector<const Predicate*>& conjuncts,
                 OnFact&& on_fact) {
  for (const DomainConstraint* d : scope.domains) {
    if (d->min.has_value()) on_fact(d->attribute, CompareOp::kGe, *d->min);
    if (d->max.has_value()) on_fact(d->attribute, CompareOp::kLe, *d->max);
  }
  std::deque<std::pair<std::string_view, const Value*>> work;
  for (const Predicate* p : conjuncts) {
    on_fact(p->lhs.attribute, p->op, p->literal);
    if (p->op == CompareOp::kEq) {
      work.emplace_back(p->lhs.attribute, &p->literal);
    }
  }
  std::vector<bool> fired(scope.implications.size(), false);
  while (!work.empty()) {
    auto [attribute, value] = work.front();
    work.pop_front();
    for (size_t k = 0; k < scope.implications.size(); ++k) {
      const ImplicationConstraint& imp = *scope.implications[k];
      if (fired[k] || !EqualsIgnoreCase(imp.if_attribute, attribute) ||
          !ValuesEqual(imp.if_value, *value)) {
        continue;
      }
      fired[k] = true;
      on_fact(imp.then_attribute, imp.then_op, imp.then_value);
      if (imp.then_op == CompareOp::kEq) {
        work.emplace_back(imp.then_attribute, &imp.then_value);
      }
    }
  }
}

CompareOp MirrorOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt: return CompareOp::kGt;
    case CompareOp::kLe: return CompareOp::kGe;
    case CompareOp::kGt: return CompareOp::kLt;
    case CompareOp::kGe: return CompareOp::kLe;
    case CompareOp::kEq:
    case CompareOp::kNe: return op;
  }
  return op;
}

/// Mirror-normalized spelling of a join conjunct using the branch's own
/// aliases (within one branch the spelling is consistent, so this is enough
/// to catch duplicates; cross-branch comparison goes through the
/// relation-resolved sql::CanonicalShapeOf instead).
std::string LocalJoinKey(const Predicate& p) {
  std::string lhs = ToUpper(p.lhs.qualifier) + "." + ToUpper(p.lhs.attribute);
  std::string rhs = ToUpper(p.rhs.qualifier) + "." + ToUpper(p.rhs.attribute);
  CompareOp op = p.op;
  if (rhs < lhs) {
    std::swap(lhs, rhs);
    op = MirrorOp(op);
  }
  return lhs + catalog::CompareOpSql(op) + rhs;
}

/// Redundancy elimination's analysis: the WHERE indices implied by the
/// remaining conjuncts plus the constraints, ascending.
std::vector<uint32_t> RedundantConjuncts(const SelectQuery& branch,
                                         const ConstraintSet& constraints) {
  const std::vector<Predicate>& where = branch.where;
  const AliasMap aliases = BuildAliasMap(branch);
  std::vector<bool> alive(where.size(), true);

  // Join conjuncts: only exact (mirror-normalized) duplicates are
  // redundant; the range engine does not reason about join edges.
  std::set<std::string> seen_joins;
  for (size_t i = 0; i < where.size(); ++i) {
    if (where[i].kind != Predicate::Kind::kJoin) continue;
    if (!seen_joins.insert(LocalJoinKey(where[i])).second) alive[i] = false;
  }

  // Selection conjuncts: drop each one implied by the constraints plus the
  // REMAINING conjuncts (duplicates fall out of the same test — the
  // surviving copy implies the dropped one). Only facts on the conjunct's
  // own alias can imply it, so it is judged against the live selections on
  // that alias alone.
  std::vector<std::string> alias_of(where.size());
  std::map<std::string, AliasConstraints> scopes;
  for (size_t i = 0; i < where.size(); ++i) {
    if (where[i].kind != Predicate::Kind::kSelection) continue;
    alias_of[i] = ResolveQualifier(where[i].lhs, aliases);
    if (scopes.find(alias_of[i]) == scopes.end()) {
      scopes.emplace(alias_of[i],
                     ConstraintsOf(alias_of[i], aliases, constraints));
    }
  }
  std::vector<const Predicate*> others;
  for (size_t i = 0; i < where.size(); ++i) {
    if (!alive[i] || where[i].kind != Predicate::Kind::kSelection) continue;
    const Predicate& p = where[i];
    others.clear();
    for (size_t j = 0; j < where.size(); ++j) {
      if (j != i && alive[j] && where[j].kind == Predicate::Kind::kSelection &&
          alias_of[j] == alias_of[i]) {
        others.push_back(&where[j]);
      }
    }
    ValueRange range;
    ForEachFact(scopes.at(alias_of[i]), others,
                [&](std::string_view attribute, CompareOp op, const Value& v) {
                  if (EqualsIgnoreCase(attribute, p.lhs.attribute)) {
                    range.Intersect(op, v);
                  }
                });
    if (range.Implies(p.op, p.literal)) alive[i] = false;
  }

  std::vector<uint32_t> dropped;
  for (size_t i = 0; i < where.size(); ++i) {
    if (!alive[i]) dropped.push_back(static_cast<uint32_t>(i));
  }
  return dropped;
}

/// The interned shape of `branch` with the conjuncts at `dropped` left out.
BranchShape ShapeOf(const SelectQuery& branch,
                    const std::vector<uint32_t>& dropped,
                    ShapeInterner* interner) {
  sql::CanonicalShape canonical = sql::CanonicalShapeOf(branch);
  BranchShape shape;
  shape.from.reserve(canonical.from.size());
  for (const std::string& text : canonical.from) {
    shape.from.push_back(interner->Intern(text));
  }
  std::sort(shape.from.begin(), shape.from.end());
  shape.where.reserve(canonical.where.size());
  size_t d = 0;
  for (size_t i = 0; i < canonical.where.size(); ++i) {
    if (d < dropped.size() && dropped[d] == i) {
      ++d;
      continue;
    }
    shape.where.push_back(interner->Intern(canonical.where[i]));
  }
  std::sort(shape.where.begin(), shape.where.end());
  shape.where.erase(std::unique(shape.where.begin(), shape.where.end()),
                    shape.where.end());
  shape.select = interner->Intern(canonical.select);
  return shape;
}

void DropConjuncts(const std::vector<uint32_t>& dropped,
                   std::vector<Predicate>* where) {
  if (dropped.empty()) return;
  std::vector<Predicate> kept;
  kept.reserve(where->size() - dropped.size());
  size_t d = 0;
  for (size_t i = 0; i < where->size(); ++i) {
    if (d < dropped.size() && dropped[d] == i) {
      ++d;
      continue;
    }
    kept.push_back(std::move((*where)[i]));
  }
  *where = std::move(kept);
}

bool SubsetOf(const std::vector<int32_t>& a, const std::vector<int32_t>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

/// Noisy-or doi combination (Formula 10) — the model query construction
/// uses for branch dois; associative, so merging a subsumed branch's doi
/// into its survivor leaves every delivered row's doi unchanged.
double NoisyOr(double a, double b) { return 1.0 - (1.0 - a) * (1.0 - b); }

/// Subsumption merging: shapes[b] describes (*branches)[b].
void MergeByShape(const std::vector<const BranchShape*>& shapes,
                  std::vector<BranchIR>* branches, RewriteStats* stats) {
  const size_t n = branches->size();
  std::vector<bool> alive(n, true);
  for (size_t i = 0; i < n; ++i) {
    if (!alive[i]) continue;
    const BranchShape& weaker_shape = *shapes[i];
    for (size_t j = 0; j < n; ++j) {
      if (j == i || !alive[j]) continue;
      const BranchShape& other = *shapes[j];
      if (weaker_shape.select != other.select) continue;
      if (!SubsetOf(weaker_shape.from, other.from) ||
          !SubsetOf(weaker_shape.where, other.where)) {
        continue;
      }
      const bool equal = weaker_shape.from == other.from &&
                         weaker_shape.where == other.where;
      // A strict subset means branch i is the weaker one (superset of
      // rows): fold it into j. Exact duplicates keep the earlier branch.
      if (equal && j > i) continue;
      BranchIR& survivor = (*branches)[j];
      BranchIR& weaker = (*branches)[i];
      survivor.prefs.insert(survivor.prefs.end(), weaker.prefs.begin(),
                            weaker.prefs.end());
      std::sort(survivor.prefs.begin(), survivor.prefs.end());
      survivor.prefs.erase(
          std::unique(survivor.prefs.begin(), survivor.prefs.end()),
          survivor.prefs.end());
      survivor.doi = NoisyOr(survivor.doi, weaker.doi);
      alive[i] = false;
      if (stats != nullptr) ++stats->branches_subsumed;
      break;
    }
  }
  if (std::find(alive.begin(), alive.end(), false) == alive.end()) return;
  std::vector<BranchIR> kept;
  kept.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (alive[i]) kept.push_back(std::move((*branches)[i]));
  }
  *branches = std::move(kept);
}

}  // namespace

int32_t ShapeInterner::Intern(const std::string& text) {
  return ids_.try_emplace(text, static_cast<int32_t>(ids_.size()))
      .first->second;
}

bool ConjunctsUnsatisfiable(const std::vector<Predicate>& conjuncts,
                            const AliasMap& aliases,
                            const ConstraintSet& constraints) {
  // Every FROM alias is checked, conjuncts or not: its domain seeds alone
  // may already be contradictory.
  std::map<std::string, std::vector<const Predicate*>> by_alias;
  for (const auto& [alias, relation] : aliases) by_alias[alias];
  for (const Predicate& p : conjuncts) {
    if (p.kind != Predicate::Kind::kSelection) continue;
    by_alias[ResolveQualifier(p.lhs, aliases)].push_back(&p);
  }
  for (const auto& [alias, selections] : by_alias) {
    std::map<std::string, ValueRange> facts;
    ForEachFact(ConstraintsOf(alias, aliases, constraints), selections,
                [&](std::string_view attribute, CompareOp op, const Value& v) {
                  facts[ToUpper(attribute)].Intersect(op, v);
                });
    for (const auto& [attribute, range] : facts) {
      if (range.Empty()) return true;
    }
  }
  return false;
}

BranchAnalysis AnalyzeBranch(const SelectQuery& branch,
                             const ConstraintSet& constraints,
                             ShapeInterner* interner) {
  BranchAnalysis analysis;
  analysis.dropped = RedundantConjuncts(branch, constraints);
  analysis.shape = ShapeOf(branch, analysis.dropped, interner);
  return analysis;
}

void ApplyAnalyses(const std::vector<const BranchAnalysis*>& analyses,
                   std::vector<BranchIR>* branches, RewriteStats* stats) {
  std::vector<const BranchShape*> shapes;
  shapes.reserve(analyses.size());
  for (size_t b = 0; b < branches->size(); ++b) {
    DropConjuncts(analyses[b]->dropped, &(*branches)[b].query.where);
    if (stats != nullptr) {
      stats->conjuncts_dropped += analyses[b]->dropped.size();
    }
    shapes.push_back(&analyses[b]->shape);
  }
  MergeByShape(shapes, branches, stats);
}

QueryIR EliminateRedundantConjuncts(QueryIR ir,
                                    const ConstraintSet& constraints,
                                    RewriteStats* stats) {
  for (BranchIR& branch : ir.branches) {
    std::vector<uint32_t> dropped =
        RedundantConjuncts(branch.query, constraints);
    DropConjuncts(dropped, &branch.query.where);
    if (stats != nullptr) stats->conjuncts_dropped += dropped.size();
  }
  return ir;
}

QueryIR MergeSubsumedBranches(QueryIR ir, RewriteStats* stats) {
  ShapeInterner interner;
  std::vector<BranchShape> shapes;
  shapes.reserve(ir.branches.size());
  for (const BranchIR& branch : ir.branches) {
    shapes.push_back(ShapeOf(branch.query, {}, &interner));
  }
  std::vector<const BranchShape*> pointers;
  for (const BranchShape& shape : shapes) pointers.push_back(&shape);
  MergeByShape(pointers, &ir.branches, stats);
  return ir;
}

QueryIR OptimizeQueryIR(QueryIR ir, const ConstraintSet& constraints,
                        RewriteStats* stats) {
  ShapeInterner interner;
  std::vector<BranchAnalysis> analyses;
  analyses.reserve(ir.branches.size());
  for (const BranchIR& branch : ir.branches) {
    analyses.push_back(AnalyzeBranch(branch.query, constraints, &interner));
  }
  std::vector<const BranchAnalysis*> pointers;
  for (const BranchAnalysis& analysis : analyses) pointers.push_back(&analysis);
  ApplyAnalyses(pointers, &ir.branches, stats);
  return ir;
}

}  // namespace cqp::rewrite
