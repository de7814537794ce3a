#include "rewrite/passes.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <string>
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

/// (alias, attribute), both upper-cased: one tracked value range.
using FactKey = std::pair<std::string, std::string>;
using Facts = std::map<FactKey, ValueRange>;

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

void SeedDomainFacts(const AliasMap& aliases, const ConstraintSet& constraints,
                     Facts* facts) {
  for (const auto& [alias, relation] : aliases) {
    for (const DomainConstraint& d : constraints.domains()) {
      if (!EqualsIgnoreCase(d.relation, relation)) continue;
      ValueRange& range = (*facts)[{alias, ToUpper(d.attribute)}];
      if (d.min.has_value()) range.Intersect(CompareOp::kGe, *d.min);
      if (d.max.has_value()) range.Intersect(CompareOp::kLe, *d.max);
    }
  }
}

/// Accumulates the selection conjuncts into per-attribute ranges and fires
/// the implication constraints to fixpoint (an equality conjunct — or a
/// derived equality consequent — on alias.a triggers every `a = v ⇒ ...`
/// implication of the alias's relation). Join conjuncts contribute nothing
/// (conservative: no cross-alias propagation).
Facts BuildFacts(const std::vector<const Predicate*>& conjuncts,
                 const AliasMap& aliases, const ConstraintSet& constraints,
                 RewriteStats* /*stats*/ = nullptr) {
  Facts facts;
  SeedDomainFacts(aliases, constraints, &facts);

  struct Equality {
    std::string alias;     // upper
    std::string relation;  // upper
    std::string attribute;
    Value value;
  };
  std::deque<Equality> work;

  auto push_equality = [&](const std::string& alias,
                           const std::string& attribute, const Value& value) {
    auto it = aliases.find(alias);
    if (it == aliases.end()) return;
    work.push_back(Equality{alias, it->second, attribute, value});
  };

  for (const Predicate* p : conjuncts) {
    if (p->kind != Predicate::Kind::kSelection) continue;
    std::string alias = ResolveQualifier(p->lhs, aliases);
    std::string attr = ToUpper(p->lhs.attribute);
    facts[{alias, attr}].Intersect(p->op, p->literal);
    if (p->op == CompareOp::kEq) push_equality(alias, attr, p->literal);
  }

  std::set<std::pair<const ImplicationConstraint*, std::string>> fired;
  while (!work.empty()) {
    Equality eq = std::move(work.front());
    work.pop_front();
    for (const ImplicationConstraint* imp :
         constraints.ImplicationsFor(eq.relation)) {
      if (!EqualsIgnoreCase(imp->if_attribute, eq.attribute)) continue;
      if (!ValuesEqual(imp->if_value, eq.value)) continue;
      if (!fired.insert({imp, eq.alias}).second) continue;
      std::string then_attr = ToUpper(imp->then_attribute);
      facts[{eq.alias, then_attr}].Intersect(imp->then_op, imp->then_value);
      if (imp->then_op == CompareOp::kEq) {
        push_equality(eq.alias, then_attr, imp->then_value);
      }
    }
  }
  return facts;
}

bool AnyRangeEmpty(const Facts& facts) {
  for (const auto& [key, range] : facts) {
    if (range.Empty()) return true;
  }
  return false;
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
/// relation-resolved sql::CanonicalWhereConjuncts instead).
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

/// Deduplicated sorted canonical conjunct/FROM sets of one branch, the
/// subsumption pass's comparison key.
struct BranchShape {
  std::vector<std::string> from;
  std::vector<std::string> where;
  std::string select;
};

BranchShape ShapeOf(const SelectQuery& q) {
  BranchShape shape;
  shape.from = sql::CanonicalFromRelations(q);
  shape.where = sql::CanonicalWhereConjuncts(q);
  shape.where.erase(std::unique(shape.where.begin(), shape.where.end()),
                    shape.where.end());
  shape.select = sql::CanonicalSelectText(q);
  return shape;
}

bool SubsetOf(const std::vector<std::string>& a,
              const std::vector<std::string>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

/// Noisy-or doi combination (Formula 10) — the model query construction
/// uses for branch dois; associative, so merging a subsumed branch's doi
/// into its survivor leaves every delivered row's doi unchanged.
double NoisyOr(double a, double b) { return 1.0 - (1.0 - a) * (1.0 - b); }

}  // namespace

bool ConjunctsUnsatisfiable(const std::vector<Predicate>& conjuncts,
                            const AliasMap& aliases,
                            const ConstraintSet& constraints) {
  std::vector<const Predicate*> ptrs;
  ptrs.reserve(conjuncts.size());
  for (const Predicate& p : conjuncts) ptrs.push_back(&p);
  return AnyRangeEmpty(BuildFacts(ptrs, aliases, constraints));
}

QueryIR EliminateRedundantConjuncts(QueryIR ir,
                                    const ConstraintSet& constraints,
                                    RewriteStats* stats) {
  for (BranchIR& branch : ir.branches) {
    std::vector<Predicate>& where = branch.query.where;
    const AliasMap aliases = BuildAliasMap(branch.query);
    std::vector<bool> alive(where.size(), true);

    // Join conjuncts: only exact (mirror-normalized) duplicates are
    // redundant; the range engine does not reason about join edges.
    std::set<std::string> seen_joins;
    for (size_t i = 0; i < where.size(); ++i) {
      if (where[i].kind != Predicate::Kind::kJoin) continue;
      if (!seen_joins.insert(LocalJoinKey(where[i])).second) {
        alive[i] = false;
        if (stats != nullptr) ++stats->conjuncts_dropped;
      }
    }

    // Selection conjuncts: drop each one implied by the constraints plus
    // the REMAINING conjuncts (duplicates fall out of the same test — the
    // surviving copy implies the dropped one).
    for (size_t i = 0; i < where.size(); ++i) {
      if (!alive[i] || where[i].kind != Predicate::Kind::kSelection) continue;
      std::vector<const Predicate*> others;
      others.reserve(where.size());
      for (size_t j = 0; j < where.size(); ++j) {
        if (j != i && alive[j]) others.push_back(&where[j]);
      }
      Facts facts = BuildFacts(others, aliases, constraints);
      FactKey key{ResolveQualifier(where[i].lhs, aliases),
                  ToUpper(where[i].lhs.attribute)};
      auto it = facts.find(key);
      if (it != facts.end() &&
          it->second.Implies(where[i].op, where[i].literal)) {
        alive[i] = false;
        if (stats != nullptr) ++stats->conjuncts_dropped;
      }
    }

    std::vector<Predicate> kept;
    kept.reserve(where.size());
    for (size_t i = 0; i < where.size(); ++i) {
      if (alive[i]) kept.push_back(std::move(where[i]));
    }
    where = std::move(kept);
  }
  return ir;
}

QueryIR MergeSubsumedBranches(QueryIR ir, RewriteStats* stats) {
  const size_t n = ir.branches.size();
  std::vector<BranchShape> shapes;
  shapes.reserve(n);
  for (const BranchIR& b : ir.branches) shapes.push_back(ShapeOf(b.query));
  std::vector<bool> alive(n, true);

  for (size_t i = 0; i < n; ++i) {
    if (!alive[i]) continue;
    for (size_t j = 0; j < n; ++j) {
      if (j == i || !alive[j]) continue;
      if (shapes[i].select != shapes[j].select) continue;
      if (!SubsetOf(shapes[i].from, shapes[j].from) ||
          !SubsetOf(shapes[i].where, shapes[j].where)) {
        continue;
      }
      const bool equal = shapes[i].from == shapes[j].from &&
                         shapes[i].where == shapes[j].where;
      // A strict subset means branch i is the weaker one (superset of
      // rows): fold it into j. Exact duplicates keep the earlier branch.
      if (equal && j > i) continue;
      BranchIR& survivor = ir.branches[j];
      BranchIR& weaker = ir.branches[i];
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

  std::vector<BranchIR> kept;
  kept.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (alive[i]) kept.push_back(std::move(ir.branches[i]));
  }
  ir.branches = std::move(kept);
  return ir;
}

QueryIR OptimizeQueryIR(QueryIR ir, const ConstraintSet& constraints,
                        RewriteStats* stats) {
  ir = EliminateRedundantConjuncts(std::move(ir), constraints, stats);
  ir = MergeSubsumedBranches(std::move(ir), stats);
  return ir;
}

}  // namespace cqp::rewrite
