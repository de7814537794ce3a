#include "sql/fingerprint.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "common/str_util.h"

namespace cqp::sql {

namespace {

/// Largest double whose integer neighborhood is exactly representable;
/// integral doubles beyond it must keep the %.17g rendering to stay
/// collision-free against distinct int64 literals.
constexpr double kExactInt = 9007199254740992.0;  // 2^53

std::string CanonicalLiteral(const catalog::Value& v) {
  switch (v.type()) {
    case catalog::ValueType::kInt:
      return StrFormat("%lld", static_cast<long long>(v.AsInt()));
    case catalog::ValueType::kDouble: {
      double d = v.AsDouble();
      if (std::nearbyint(d) == d && std::fabs(d) < kExactInt) {
        return StrFormat("%lld", static_cast<long long>(d));
      }
      return StrFormat("%.17g", d);
    }
    case catalog::ValueType::kString: {
      std::string out = "'";
      for (char ch : v.AsString()) {
        if (ch == '\'') out += "''";
        else out += ch;
      }
      out += "'";
      return out;
    }
  }
  return v.ToSqlLiteral();
}

/// Maps every written qualifier (alias or bare relation, upper-cased) to
/// the canonical qualifier used in the fingerprint.
class QualifierMap {
 public:
  explicit QualifierMap(const std::vector<TableRef>& from) {
    std::map<std::string, int> relation_count;
    for (const TableRef& t : from) ++relation_count[ToUpper(t.relation)];
    for (const TableRef& t : from) {
      std::string relation = ToUpper(t.relation);
      // An alias for a uniquely-occurring relation is pure spelling; a
      // self-join's aliases are semantic and must stay distinct.
      const bool unique = relation_count[relation] == 1;
      map_[ToUpper(t.EffectiveAlias())] =
          unique ? relation : ToUpper(t.EffectiveAlias());
      if (unique) map_[relation] = relation;
    }
  }

  std::string Resolve(const std::string& qualifier) const {
    if (qualifier.empty()) return "";
    std::string upper = ToUpper(qualifier);
    auto it = map_.find(upper);
    return it == map_.end() ? upper : it->second;
  }

 private:
  std::map<std::string, std::string> map_;
};

std::string CanonicalRef(const ColumnRef& ref, const QualifierMap& quals) {
  std::string q = quals.Resolve(ref.qualifier);
  std::string attr = ToUpper(ref.attribute);
  return q.empty() ? attr : q + "." + attr;
}

catalog::CompareOp MirrorOp(catalog::CompareOp op) {
  switch (op) {
    case catalog::CompareOp::kLt: return catalog::CompareOp::kGt;
    case catalog::CompareOp::kLe: return catalog::CompareOp::kGe;
    case catalog::CompareOp::kGt: return catalog::CompareOp::kLt;
    case catalog::CompareOp::kGe: return catalog::CompareOp::kLe;
    case catalog::CompareOp::kEq:
    case catalog::CompareOp::kNe: return op;
  }
  return op;
}

std::string CanonicalPredicate(const Predicate& p, const QualifierMap& quals) {
  std::string lhs = CanonicalRef(p.lhs, quals);
  if (p.kind == Predicate::Kind::kSelection) {
    return lhs + catalog::CompareOpSql(p.op) + CanonicalLiteral(p.literal);
  }
  // Join: `a.x op b.y` and its mirrored spelling are one condition; order
  // the sides lexicographically and mirror the operator along with them.
  std::string rhs = CanonicalRef(p.rhs, quals);
  catalog::CompareOp op = p.op;
  if (rhs < lhs) {
    std::swap(lhs, rhs);
    op = MirrorOp(op);
  }
  return lhs + catalog::CompareOpSql(op) + rhs;
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  for (unsigned char ch : text) {
    h ^= ch;
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

}  // namespace

std::string CanonicalQueryText(const SelectQuery& q) {
  QualifierMap quals(q.from);
  std::string out = "SELECT";
  if (q.distinct) out += " DISTINCT";
  if (q.select_list.empty()) {
    out += " *";
  } else {
    for (size_t i = 0; i < q.select_list.size(); ++i) {
      out += i == 0 ? " " : ",";
      out += CanonicalRef(q.select_list[i], quals);
    }
  }
  out += "|FROM";
  for (size_t i = 0; i < q.from.size(); ++i) {
    out += i == 0 ? " " : ",";
    out += quals.Resolve(q.from[i].EffectiveAlias());
  }
  if (!q.where.empty()) {
    std::vector<std::string> conjuncts;
    conjuncts.reserve(q.where.size());
    for (const Predicate& p : q.where) {
      conjuncts.push_back(CanonicalPredicate(p, quals));
    }
    std::sort(conjuncts.begin(), conjuncts.end());
    out += "|WHERE " + Join(conjuncts, " AND ");
  }
  if (!q.order_by.empty()) {
    out += "|ORDER";
    for (size_t i = 0; i < q.order_by.size(); ++i) {
      out += i == 0 ? " " : ",";
      out += CanonicalRef(q.order_by[i].column, quals);
      out += q.order_by[i].descending ? " DESC" : " ASC";
    }
  }
  if (q.limit.has_value()) {
    out += StrFormat("|LIMIT %lld", static_cast<long long>(*q.limit));
  }
  return out;
}

uint64_t QueryFingerprint(const SelectQuery& q) {
  return Fnv1a(CanonicalQueryText(q));
}

std::string CanonicalQueryText(const UnionGroupQuery& q) {
  // The outer select list is unqualified output columns; no qualifier map
  // applies. Branch texts are sorted: the UNION ALL inputs feed a grouped
  // intersection, so their order carries no semantics.
  std::string out = "UNION";
  for (size_t i = 0; i < q.select_list.size(); ++i) {
    out += i == 0 ? " " : ",";
    out += ToUpper(q.select_list[i].attribute);
  }
  out += StrFormat("|HAVING %lld", static_cast<long long>(q.having_count));
  std::vector<std::string> branches;
  branches.reserve(q.branches.size());
  for (const SelectQuery& b : q.branches) {
    branches.push_back(CanonicalQueryText(b));
  }
  std::sort(branches.begin(), branches.end());
  for (const std::string& b : branches) out += "|BRANCH " + b;
  return out;
}

uint64_t QueryFingerprint(const UnionGroupQuery& q) {
  return Fnv1a(CanonicalQueryText(q));
}

CanonicalShape CanonicalShapeOf(const SelectQuery& q) {
  QualifierMap quals(q.from);
  CanonicalShape shape;
  shape.from.reserve(q.from.size());
  for (const TableRef& t : q.from) {
    shape.from.push_back(quals.Resolve(t.EffectiveAlias()));
  }
  shape.where.reserve(q.where.size());
  for (const Predicate& p : q.where) {
    shape.where.push_back(CanonicalPredicate(p, quals));
  }
  for (size_t i = 0; i < q.select_list.size(); ++i) {
    if (i != 0) shape.select += ",";
    shape.select += CanonicalRef(q.select_list[i], quals);
  }
  return shape;
}

}  // namespace cqp::sql
