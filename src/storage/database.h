#ifndef CQP_STORAGE_DATABASE_H_
#define CQP_STORAGE_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/constraints.h"
#include "catalog/schema.h"
#include "catalog/stats.h"
#include "common/status.h"
#include "storage/table.h"

namespace cqp::storage {

/// An in-memory database: named tables plus their ANALYZE statistics.
///
/// Relation names are case-insensitive (stored upper-cased), matching the
/// SQL front end.
class Database {
 public:
  Database() = default;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  /// Creates an empty table; fails with AlreadyExists on name clash.
  StatusOr<Table*> CreateTable(catalog::RelationDef schema);

  /// Looks up a table; fails with NotFound.
  StatusOr<const Table*> GetTable(const std::string& name) const;

  bool HasTable(const std::string& name) const;

  /// Names of all tables, sorted.
  std::vector<std::string> TableNames() const;

  /// Recomputes statistics for every table (exact NDV/min/max, MCV list of
  /// at most `mcv_limit` entries per attribute).
  void Analyze(size_t mcv_limit = 16);

  /// Statistics for `name`; requires a prior Analyze(). NotFound otherwise.
  StatusOr<const catalog::RelationStats*> GetStats(
      const std::string& name) const;

  /// The declarative integrity constraints the semantic rewrite layer may
  /// assume hold on this database (docs/rewriting.md). Empty by default.
  const catalog::ConstraintSet& constraints() const { return constraints_; }

  /// Replaces the constraint set and bumps the constraint revision. The
  /// revision joins the plan-cache config key, so prepared artifacts built
  /// under the old constraints become unreachable (never served stale).
  void SetConstraints(catalog::ConstraintSet constraints) {
    constraints_ = std::move(constraints);
    ++constraint_revision_;
  }

  /// Monotone counter, bumped by every SetConstraints() call. Starts at 0
  /// (the empty, constraint-free catalog).
  uint64_t constraint_revision() const { return constraint_revision_; }

 private:
  static std::string Key(const std::string& name);

  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::map<std::string, catalog::RelationStats> stats_;
  catalog::ConstraintSet constraints_;
  uint64_t constraint_revision_ = 0;
};

/// Computes ANALYZE statistics for one table (exposed for tests).
catalog::RelationStats ComputeStats(const Table& table, size_t mcv_limit);

}  // namespace cqp::storage

#endif  // CQP_STORAGE_DATABASE_H_
