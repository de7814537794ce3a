#include "testing/rewrite_check.h"

#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "construct/personalizer.h"
#include "exec/executor.h"
#include "prefs/graph.h"
#include "rewrite/passes.h"
#include "space/preference_space.h"
#include "sql/parser.h"
#include "storage/constraints.h"
#include "workload/movie_gen.h"
#include "workload/profile_gen.h"
#include "workload/query_gen.h"

namespace cqp::testing {

namespace {

/// Executed result set keyed by rendered row text. The §4.2 delivery orders
/// by doi then row text, but near-equal dois may legitimately swap under
/// noisy-or regrouping, so equality is checked as a keyed multiset with a
/// doi epsilon instead of as an ordered sequence.
using RowMap = std::map<std::string, double>;

RowMap ToRowMap(const exec::PersonalizedResultSet& rows) {
  RowMap out;
  for (const exec::PersonalizedRow& row : rows.rows) {
    out[row.row.ToString()] = row.doi;
  }
  return out;
}

/// "" when the two executed result sets agree (same rows, dois within
/// epsilon), else a description of the first difference.
std::string DiffRowMaps(const RowMap& opt, const RowMap& unopt) {
  if (opt.size() != unopt.size()) {
    return StrFormat("%zu rows optimized vs %zu unoptimized", opt.size(),
                     unopt.size());
  }
  auto a = opt.begin();
  auto b = unopt.begin();
  for (; a != opt.end(); ++a, ++b) {
    if (a->first != b->first) {
      return "row '" + a->first + "' vs '" + b->first + "'";
    }
    if (std::fabs(a->second - b->second) > 1e-9) {
      return StrFormat("doi %.17g vs %.17g for row '%s'", a->second,
                       b->second, a->first.c_str());
    }
  }
  return "";
}

/// "" when two emissions of one chosen set are byte-identical.
std::string DiffEmissionBytes(const construct::PersonalizedQuery& served,
                              const construct::PersonalizedQuery& memo_free) {
  if (served.ToSql() != memo_free.ToSql()) {
    return "served SQL '" + served.ToSql() + "' vs memo-free '" +
           memo_free.ToSql() + "'";
  }
  if (served.subquery_prefs != memo_free.subquery_prefs) {
    return "served subquery_prefs differ from the memo-free emission's";
  }
  if (served.dois.size() != memo_free.dois.size()) {
    return "served dois differ in count from the memo-free emission's";
  }
  for (size_t b = 0; b < served.dois.size(); ++b) {
    if (std::bit_cast<uint64_t>(served.dois[b]) !=
        std::bit_cast<uint64_t>(memo_free.dois[b])) {
      return StrFormat("served doi %.17g vs memo-free %.17g in branch %zu",
                       served.dois[b], memo_free.dois[b], b);
    }
  }
  const rewrite::RewriteStats& a = served.rewrite;
  const rewrite::RewriteStats& b = memo_free.rewrite;
  if (a.conjuncts_dropped != b.conjuncts_dropped ||
      a.branches_subsumed != b.branches_subsumed ||
      a.prefs_pruned != b.prefs_pruned) {
    return StrFormat(
        "served rewrite counters %llu/%llu/%llu vs memo-free %llu/%llu/%llu",
        static_cast<unsigned long long>(a.conjuncts_dropped),
        static_cast<unsigned long long>(a.branches_subsumed),
        static_cast<unsigned long long>(a.prefs_pruned),
        static_cast<unsigned long long>(b.conjuncts_dropped),
        static_cast<unsigned long long>(b.branches_subsumed),
        static_cast<unsigned long long>(b.prefs_pruned));
  }
  return "";
}

}  // namespace

std::string DiffEmissions(const storage::Database& db,
                          const construct::Personalizer& personalizer,
                          const construct::PersonalizeResult& r,
                          construct::BuildOptions options, bool served) {
  const IndexSet chosen = r.solution.feasible ? r.solution.chosen : IndexSet();
  construct::PersonalizeResult opt;  // Execute reads only `personalized`
  construct::PersonalizeResult unopt;
  options.optimize = true;
  auto built_opt = construct::BuildPersonalizedQuery(
      db, r.space->query, r.space->prefs, chosen, options);
  options.optimize = false;
  auto built_unopt = construct::BuildPersonalizedQuery(
      db, r.space->query, r.space->prefs, chosen, options);
  if (!built_opt.ok() || !built_unopt.ok()) {
    return "emission: " + (built_opt.ok() ? built_unopt.status().ToString()
                                          : built_opt.status().ToString());
  }
  if (served) {
    std::string diff = DiffEmissionBytes(r.personalized, *built_opt);
    if (!diff.empty()) return diff;
  }
  opt.personalized = *std::move(built_opt);
  unopt.personalized = *std::move(built_unopt);
  exec::ExecStats stats;
  auto rows_opt = personalizer.Execute(opt, &stats);
  auto rows_unopt = personalizer.Execute(unopt, &stats);
  if (!rows_opt.ok() || !rows_unopt.ok()) {
    return "execution: " + (rows_opt.ok() ? rows_unopt.status().ToString()
                                          : rows_opt.status().ToString());
  }
  return DiffRowMaps(ToRowMap(*rows_opt), ToRowMap(*rows_unopt));
}

namespace {

std::string DiffAnswers(const construct::PersonalizeResult& a,
                        const construct::PersonalizeResult& b) {
  if (a.final_sql != b.final_sql) {
    return "final_sql '" + a.final_sql + "' vs '" + b.final_sql + "'";
  }
  return DiffSolutions(a.solution, b.solution);
}

cqp::ProblemSpec ProblemFor(size_t i) {
  switch (i % 4) {
    case 0: return cqp::ProblemSpec::Problem2(400.0);
    case 1: return cqp::ProblemSpec::Problem4(0.3);
    case 2: return cqp::ProblemSpec::Problem3(500.0, 1.0, 1e7);
    default: return cqp::ProblemSpec::Problem6(1.0, 1e6);
  }
}

}  // namespace

RewriteCheckResult RunRewriteCheck(const RewriteCheckConfig& config) {
  RewriteCheckResult result;
  CheckReport& report = result.report;

  workload::MovieDbConfig movie_config;
  movie_config.seed = config.seed;
  movie_config.n_movies = 400;
  movie_config.n_directors = 40;
  movie_config.n_actors = 80;
  movie_config.cast_per_movie = 2;
  auto db = workload::BuildMovieDatabase(movie_config);
  if (!db.ok()) {
    report.Add("rewrite-setup", "",
               "BuildMovieDatabase: " + std::string(db.status().message()));
    return result;
  }

  // The integrity constraints are mined from the data itself, so they hold
  // by construction and every constraint-based rewrite is result-preserving
  // on this database. CheckConstraints guards the miner, not the data.
  auto derived = storage::DeriveConstraints(*db);
  if (!derived.ok()) {
    report.Add("rewrite-setup", "",
               "DeriveConstraints: " + std::string(derived.status().message()));
    return result;
  }
  Status checked = storage::CheckConstraints(*db, *derived);
  if (!checked.ok()) {
    report.Add("rewrite-derive", "",
               "mined constraints fail on their own data: " +
                   std::string(checked.message()));
    return result;
  }
  db->SetConstraints(*std::move(derived));

  struct User {
    std::string id;
    std::shared_ptr<prefs::PersonalizationGraph> graph;
  };
  std::vector<User> users;
  for (size_t u = 0; u < config.n_profiles; ++u) {
    workload::ProfileGenConfig profile_config;
    profile_config.seed = config.seed + 100 + u;
    auto profile = workload::GenerateProfile(profile_config, movie_config);
    if (!profile.ok()) {
      report.Add("rewrite-setup", "",
                 "GenerateProfile: " + std::string(profile.status().message()));
      return result;
    }
    auto graph = prefs::PersonalizationGraph::Build(*profile, *db);
    if (!graph.ok()) {
      report.Add("rewrite-setup", "",
                 "Graph build: " + std::string(graph.status().message()));
      return result;
    }
    users.push_back({"u" + std::to_string(u),
                     std::make_shared<prefs::PersonalizationGraph>(
                         *std::move(graph))});
  }

  workload::QueryGenConfig query_config;
  query_config.seed = config.seed + 200;
  query_config.n_queries = config.n_queries;
  auto queries = workload::GenerateQueries(query_config, movie_config);
  if (!queries.ok()) {
    report.Add("rewrite-setup", "",
               "GenerateQueries: " + std::string(queries.status().message()));
    return result;
  }

  construct::Personalizer personalizer(&*db, users[0].graph.get());
  estimation::ParameterEstimator estimator(&*db);
  exec::Executor executor(&*db);

  for (size_t u = 0; u < users.size(); ++u) {
    for (size_t q = 0; q < queries->size(); ++q) {
      std::string label = users[u].id + "/q" + std::to_string(q);
      construct::PersonalizeRequest request;
      request.sql = (*queries)[q].ToSql();
      request.problem = ProblemFor(u * queries->size() + q);
      request.algorithm = "auto";
      request.space_options.max_k = config.max_k;
      request.graph = users[u].graph.get();

      auto r = personalizer.Personalize(request);
      if (!r.ok()) {
        report.Add("rewrite-solve", label, std::string(r.status().message()));
        continue;
      }
      ++result.requests;
      result.conjuncts_dropped += r->personalized.rewrite.conjuncts_dropped;
      result.branches_subsumed += r->personalized.rewrite.branches_subsumed;
      result.prefs_pruned += r->space->constraint_pruned;

      // ---- Obligation 1: metamorphic emission equivalence. ----
      // The pre-search pruning legitimately changes WHICH solution the
      // search picks, so the comparison fixes the solution: the same chosen
      // subset is emitted optimized and unoptimized — one branch per
      // preference, and with the join-free ones merged (footnote 1) — and
      // each pair must execute to the same personalized result set.
      if (config.check_equivalence) {
        for (bool merge : {false, true}) {
          construct::BuildOptions options = request.build_options;
          options.merge_compatible = merge;
          std::string diff =
              DiffEmissions(*db, personalizer, *r, options,
                            merge == request.build_options.merge_compatible);
          if (!diff.empty()) {
            report.Add("rewrite-equivalence",
                       merge ? label + "/merged" : label, diff);
          }
        }
      }

      // ---- Obligation 2: pruning is the one vacuity decision. ----
      // Complete: no branch the pipeline emits is provably vacuous — one
      // would empty the answer, and nothing after pruning drops it. Sound:
      // re-extract without pruning, flag each candidate the pruning pass
      // would reject, and require its actual sub-query to return zero rows.
      // A single row would prove the contradiction detector unsound.
      if (config.check_vacuity) {
        for (const sql::SelectQuery& branch : r->personalized.subqueries) {
          if (rewrite::ConjunctsUnsatisfiable(branch.where,
                                              rewrite::BuildAliasMap(branch),
                                              db->constraints())) {
            report.Add("rewrite-vacuity", label,
                       "emitted branch is unsatisfiable: " + branch.ToSql());
          }
        }
        auto parsed = sql::ParseSelect(request.sql);
        if (!parsed.ok()) {
          report.Add("rewrite-vacuity", label,
                     "parse: " + std::string(parsed.status().message()));
          continue;
        }
        space::PreferenceSpaceOptions unpruned_options = request.space_options;
        unpruned_options.constraint_prune = false;
        auto unpruned = space::ExtractPreferenceSpace(
            *parsed, *users[u].graph, estimator, unpruned_options);
        if (!unpruned.ok()) {
          report.Add("rewrite-vacuity", label,
                     "extract: " + std::string(unpruned.status().message()));
          continue;
        }
        for (const estimation::ScoredPreference& p : unpruned->prefs) {
          if (!space::PreferenceContradictsQuery(*parsed, p.pref,
                                                 db->constraints())) {
            continue;
          }
          ++result.vacuity_probes;
          auto sub = construct::BuildSubQuery(*db, *parsed, p.pref, 1);
          if (!sub.ok()) {
            report.Add("rewrite-vacuity", label,
                       "BuildSubQuery: " + std::string(sub.status().message()));
            continue;
          }
          exec::ExecStats stats;
          auto rows = executor.Execute(*sub, &stats);
          if (!rows.ok()) {
            report.Add("rewrite-vacuity", label,
                       "execute: " + std::string(rows.status().message()));
            continue;
          }
          if (rows->row_count() != 0) {
            report.Add("rewrite-vacuity", label,
                       StrFormat("pruned preference '%s' returned %zu rows",
                                 p.pref.ConditionString().c_str(),
                                 rows->row_count()));
          }
        }
      }
    }
  }

  // ---- Obligation 3: constraint-revision plan invalidation. ----
  if (config.check_revision && !queries->empty()) {
    construct::PlanCache plan_cache;
    construct::PersonalizeRequest request;
    request.sql = (*queries)[0].ToSql();
    request.problem = ProblemFor(0);
    request.algorithm = "auto";
    request.space_options.max_k = config.max_k;
    request.graph = users[0].graph.get();
    request.plan_cache = &plan_cache;
    request.profile_id = "rw";
    request.profile_version = 1;
    auto cold = personalizer.Personalize(request);
    auto warm = personalizer.Personalize(request);
    if (!cold.ok() || !warm.ok()) {
      report.Add("rewrite-revision", "",
                 (cold.ok() ? warm.status() : cold.status()).ToString());
    } else {
      if (!warm->plan_cache_hit) {
        report.Add("rewrite-revision", "",
                   "second Personalize missed the plan cache");
      }
      // Bump the revision with a VALUE-identical constraint set: every
      // cached plan must become unreachable, and the fresh extraction must
      // reproduce the previous answer exactly.
      db->SetConstraints(catalog::ConstraintSet(db->constraints()));
      auto fresh = personalizer.Personalize(request);
      if (!fresh.ok()) {
        report.Add("rewrite-revision", "", fresh.status().ToString());
      } else {
        if (fresh->plan_cache_hit) {
          report.Add("rewrite-revision", "",
                     "stale plan served after SetConstraints bumped the "
                     "revision");
        }
        std::string diff = DiffAnswers(*warm, *fresh);
        if (!diff.empty()) {
          report.Add("rewrite-revision", "", "re-solve parity: " + diff);
        }
      }
    }
  }

  return result;
}

}  // namespace cqp::testing
