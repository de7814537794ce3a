#ifndef CQP_SQL_FINGERPRINT_H_
#define CQP_SQL_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sql/ast.h"

namespace cqp::sql {

/// Canonical serialization of a parsed query, built so that semantically
/// identical spellings collapse to one string:
///   * identifiers are upper-cased (the engine resolves names
///     case-insensitively) and whitespace differences disappear with the
///     original text;
///   * a qualifier that is an alias is replaced by its relation name when
///     that relation occurs exactly once in FROM (self-joins keep aliases);
///   * WHERE conjuncts are sorted (conjunction is commutative), and the two
///     sides of =/<> joins are ordered lexicographically (a.x = b.y and
///     b.y = a.x are the same condition; <, <= joins are mirrored to the
///     canonical side order);
///   * numeric literals are value-canonical: 1990, 1990.0 and 1.99e3 render
///     identically (integral doubles inside the exact-int53 range print as
///     integers, everything else as shortest-round-trip %.17g).
/// ORDER BY and FROM keep their written order — output order and, for
/// SELECT *, column order are semantic there.
std::string CanonicalQueryText(const SelectQuery& q);

/// 64-bit FNV-1a hash of CanonicalQueryText(q): the plan-cache key
/// component identifying "the same query modulo spelling".
uint64_t QueryFingerprint(const SelectQuery& q);

/// Canonical serialization of a §4.2 union rewriting. Branches are
/// rendered with CanonicalQueryText and SORTED, so two rewritings that
/// differ only in branch order (UNION ALL inputs under the HAVING COUNT
/// grouping are order-insensitive) collapse to one string — the PlanCache
/// dedupes them.
std::string CanonicalQueryText(const UnionGroupQuery& q);
uint64_t QueryFingerprint(const UnionGroupQuery& q);

/// The canonical pieces of one SPJ query, all resolved through one
/// qualifier map the way CanonicalQueryText resolves them (an alias of a
/// uniquely-occurring relation becomes the relation name; =/<> join sides
/// are mirror-ordered). The rewrite layer's subsumption pass compares two
/// branches as sets over these: the branch whose FROM and WHERE sets are
/// subsets of the other's is the semantically weaker one (superset of
/// rows).
struct CanonicalShape {
  std::vector<std::string> from;   ///< one per FROM entry, written order
  std::vector<std::string> where;  ///< one per WHERE conjunct, written order
  std::string select;              ///< the select list, written order
};
CanonicalShape CanonicalShapeOf(const SelectQuery& q);

}  // namespace cqp::sql

#endif  // CQP_SQL_FINGERPRINT_H_
