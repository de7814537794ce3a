#include "storage/database.h"

#include <algorithm>
#include <unordered_map>

#include "common/str_util.h"

namespace cqp::storage {

std::string Database::Key(const std::string& name) { return ToUpper(name); }

StatusOr<Table*> Database::CreateTable(catalog::RelationDef schema) {
  std::string key = Key(schema.name());
  if (tables_.count(key) > 0) {
    return AlreadyExists("table " + schema.name());
  }
  auto table = std::make_unique<Table>(std::move(schema));
  Table* raw = table.get();
  tables_.emplace(std::move(key), std::move(table));
  return raw;
}

StatusOr<const Table*> Database::GetTable(const std::string& name) const {
  auto it = tables_.find(Key(name));
  if (it == tables_.end()) return NotFound("table " + name);
  return const_cast<const Table*>(it->second.get());
}

bool Database::HasTable(const std::string& name) const {
  return tables_.count(Key(name)) > 0;
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [key, table] : tables_) names.push_back(table->name());
  std::sort(names.begin(), names.end());
  return names;
}

void Database::Analyze(size_t mcv_limit) {
  stats_.clear();
  for (const auto& [key, table] : tables_) {
    stats_.emplace(key, ComputeStats(*table, mcv_limit));
  }
}

StatusOr<const catalog::RelationStats*> Database::GetStats(
    const std::string& name) const {
  auto it = stats_.find(Key(name));
  if (it == stats_.end()) {
    return NotFound("statistics for table " + name + " (run Analyze first)");
  }
  return &it->second;
}

catalog::RelationStats ComputeStats(const Table& table, size_t mcv_limit) {
  catalog::RelationStats stats;
  stats.row_count = table.row_count();
  stats.blocks = table.blocks();
  stats.attributes.reserve(table.schema().arity());

  for (size_t col = 0; col < table.schema().arity(); ++col) {
    std::unordered_map<catalog::Value, uint64_t, catalog::ValueHash> counts;
    std::optional<double> min_numeric;
    std::optional<double> max_numeric;
    bool numeric = table.schema().attribute(col).type != catalog::ValueType::kString;
    for (const Tuple& row : table.rows()) {
      const catalog::Value& v = row.at(col);
      ++counts[v];
      if (numeric) {
        double x = v.AsNumeric();
        if (!min_numeric || x < *min_numeric) min_numeric = x;
        if (!max_numeric || x > *max_numeric) max_numeric = x;
      }
    }
    std::vector<catalog::McvEntry> mcvs;
    mcvs.reserve(counts.size());
    for (const auto& [value, count] : counts) {
      mcvs.push_back({value, count});
    }
    // Deterministic MCV selection: by count descending, then value ascending
    // (values within a column share a type, so Value::operator< is safe).
    std::sort(mcvs.begin(), mcvs.end(),
              [](const catalog::McvEntry& a, const catalog::McvEntry& b) {
                if (a.count != b.count) return a.count > b.count;
                return a.value < b.value;
              });
    if (mcvs.size() > mcv_limit) mcvs.resize(mcv_limit);
    stats.attributes.emplace_back(stats.row_count, counts.size(), min_numeric,
                                  max_numeric, std::move(mcvs));
  }
  return stats;
}

}  // namespace cqp::storage
