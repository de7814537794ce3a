// Measures what the semantic rewrite layer (docs/rewriting.md) buys on
// constraint-rich instances, one BENCH_rewrite.json record:
//
//   * states_after_prune / k_reduction_pct — admitted preference-space size
//     with the constraint pruning on, vs the same extraction with the
//     rewrite layer disabled. The driver makes every profile constraint-rich
//     by appending out-of-domain "vacuous" preferences (high doi, provably
//     empty under the mined domain constraints) to the generated profiles —
//     the adversarial shape the pre-search pruning exists for.
//   * cost_qx_ms / cost_reduction_pct — estimated execution cost of the
//     emitted rewriting (sum of per-branch EstimateBase costs; the §4.2
//     rewriting executes every UNION ALL branch). Apples to apples: the
//     SAME chosen solution is emitted twice — unoptimized vs through the
//     semantic optimizer — exactly the pairing the metamorphic equivalence
//     harness executes for row-identity (src/testing/rewrite_check.cc).
//   * conjuncts_dropped / branches_eliminated / prefs_pruned — optimizer
//     activity counters across the sweep.
//
// Cells: one per cost budget ("generous" = cmax far above Supreme Cost, so
// the search integrates everything it can; "tight" = cmax at 2x the base
// query's cost). The >= 20% reduction targets are judged on the generous
// cell, where the unoptimized emission demonstrably carries vacuous and
// tautological branches. Every cell is a seeded count, not a timing; the
// record carries the machine fingerprint (bench_record.h).
//
// Usage: rewrite_bench [--smoke] [--json PATH]
//        --smoke    tiny database and sweep (CI)
//        --json P   write the record to P (default BENCH_rewrite.json)

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_record.h"
#include "common/str_util.h"
#include "construct/personalizer.h"
#include "estimation/estimate.h"
#include "prefs/graph.h"
#include "prefs/profile.h"
#include "server/json.h"
#include "storage/constraints.h"
#include "workload/movie_gen.h"
#include "workload/profile_gen.h"
#include "workload/query_gen.h"

namespace cqp::bench {
namespace {

using server::JsonValue;

/// Makes a generated profile constraint-rich, the adversarial shape the
/// rewrite layer exists for. Two families of high-doi preferences are
/// appended, each exercising a different half of the layer:
///   * vacuous — out-of-domain selections, provably empty under the mined
///     constraints. The unpruned search integrates them (they are cheap and
///     high-doi), poisoning the intersection semantics; the pre-search
///     pruning removes them from the admitted space (K reduction).
///   * tautological — selections implied by the mined domains, satisfied by
///     every row. Their branches survive the search but collapse to the
///     bare base query under redundancy elimination and are then subsumed
///     into any real branch (cost(Qx) reduction).
std::string AugmentProfile(const std::string& profile_text,
                           const catalog::ConstraintSet& constraints) {
  std::string out = profile_text;
  double doi = 0.93;
  auto next_doi = [&] { return doi -= 0.01; };
  auto augment = [&](const char* attribute, bool tautological) {
    auto domains = constraints.DomainsFor("MOVIE", attribute);
    if (domains.empty()) return;
    const catalog::DomainConstraint& d = *domains[0];
    long long lo = d.min.has_value() ? d.min->AsInt() : 0;
    long long hi = d.max.has_value() ? d.max->AsInt() : 0;
    if (tautological) {
      if (d.min.has_value()) {
        out += StrFormat("\ndoi(MOVIE.%s >= %lld) = %.2f", attribute, lo - 5,
                         next_doi());
      }
      if (d.max.has_value()) {
        out += StrFormat("\ndoi(MOVIE.%s <= %lld) = %.2f", attribute, hi + 5,
                         next_doi());
      }
    } else {
      for (long long offset : {37, 81}) {
        if (d.max.has_value()) {
          out += StrFormat("\ndoi(MOVIE.%s >= %lld) = %.2f", attribute,
                           hi + offset, next_doi());
        }
        if (d.min.has_value()) {
          out += StrFormat("\ndoi(MOVIE.%s <= %lld) = %.2f", attribute,
                           lo - offset, next_doi());
        }
      }
    }
  };
  augment("year", /*tautological=*/false);
  augment("duration", /*tautological=*/false);
  augment("mid", /*tautological=*/false);
  augment("did", /*tautological=*/false);
  augment("year", /*tautological=*/true);
  augment("duration", /*tautological=*/true);
  out += "\n";
  return out;
}

/// Estimated cost of executing the emitted rewriting: every UNION ALL
/// branch runs, or the base query when no preference was integrated.
double EstimateQxCostMs(const estimation::ParameterEstimator& estimator,
                        const construct::PersonalizedQuery& qx) {
  if (qx.L() == 0) {
    auto base = estimator.EstimateBase(qx.base);
    return base.ok() ? base->cost_ms : 0.0;
  }
  double total = 0.0;
  for (const sql::SelectQuery& branch : qx.subqueries) {
    auto est = estimator.EstimateBase(branch);
    if (est.ok()) total += est->cost_ms;
  }
  return total;
}

struct CellAccum {
  size_t requests = 0;
  double k_baseline = 0.0;
  double k_pruned = 0.0;
  double cost_baseline_ms = 0.0;
  double cost_qx_ms = 0.0;
  uint64_t conjuncts_dropped = 0;
  uint64_t branches_eliminated = 0;
  uint64_t prefs_pruned = 0;
};

double ReductionPct(double baseline, double value) {
  if (baseline <= 0.0) return 0.0;
  return 100.0 * (baseline - value) / baseline;
}

JsonValue CellToJson(const std::string& budget, const CellAccum& cell) {
  double n = cell.requests > 0 ? static_cast<double>(cell.requests) : 1.0;
  JsonValue out = JsonValue::Object();
  out.Set("budget", JsonValue::Str(budget));
  out.Set("requests", JsonValue::Number(static_cast<double>(cell.requests)));
  out.Set("k_baseline", JsonValue::Number(cell.k_baseline / n));
  out.Set("states_after_prune", JsonValue::Number(cell.k_pruned / n));
  out.Set("k_reduction_pct",
          JsonValue::Number(ReductionPct(cell.k_baseline, cell.k_pruned)));
  out.Set("cost_baseline_ms", JsonValue::Number(cell.cost_baseline_ms / n));
  out.Set("cost_qx_ms", JsonValue::Number(cell.cost_qx_ms / n));
  out.Set("cost_reduction_pct",
          JsonValue::Number(
              ReductionPct(cell.cost_baseline_ms, cell.cost_qx_ms)));
  out.Set("conjuncts_dropped",
          JsonValue::Number(static_cast<double>(cell.conjuncts_dropped)));
  out.Set("branches_eliminated",
          JsonValue::Number(static_cast<double>(cell.branches_eliminated)));
  out.Set("prefs_pruned",
          JsonValue::Number(static_cast<double>(cell.prefs_pruned)));
  return out;
}

int Run(bool smoke, const std::string& json_path) {
  workload::MovieDbConfig movie_config;
  movie_config.seed = 11;
  movie_config.n_movies = smoke ? 400 : 2000;
  movie_config.n_directors = smoke ? 40 : 200;
  movie_config.n_actors = smoke ? 80 : 400;
  auto db = workload::BuildMovieDatabase(movie_config);
  if (!db.ok()) {
    std::fprintf(stderr, "movie db: %s\n", db.status().ToString().c_str());
    return 1;
  }
  auto derived = storage::DeriveConstraints(*db);
  if (!derived.ok()) {
    std::fprintf(stderr, "derive: %s\n", derived.status().ToString().c_str());
    return 1;
  }
  Status checked = storage::CheckConstraints(*db, *derived);
  if (!checked.ok()) {
    std::fprintf(stderr, "check: %s\n", checked.ToString().c_str());
    return 1;
  }
  db->SetConstraints(*derived);

  const size_t n_profiles = smoke ? 2 : 5;
  std::vector<std::shared_ptr<prefs::PersonalizationGraph>> graphs;
  for (size_t u = 0; u < n_profiles; ++u) {
    workload::ProfileGenConfig profile_config;
    profile_config.seed = 500 + u;
    auto profile = workload::GenerateProfile(profile_config, movie_config);
    if (!profile.ok()) {
      std::fprintf(stderr, "profile: %s\n",
                   profile.status().ToString().c_str());
      return 1;
    }
    auto rich = prefs::Profile::Parse(
        AugmentProfile(profile->ToText(), db->constraints()));
    if (!rich.ok()) {
      std::fprintf(stderr, "augment: %s\n", rich.status().ToString().c_str());
      return 1;
    }
    auto graph = prefs::PersonalizationGraph::Build(*std::move(rich), *db);
    if (!graph.ok()) {
      std::fprintf(stderr, "graph: %s\n", graph.status().ToString().c_str());
      return 1;
    }
    graphs.push_back(std::make_shared<prefs::PersonalizationGraph>(
        *std::move(graph)));
  }

  workload::QueryGenConfig query_config;
  query_config.seed = 900;
  query_config.n_queries = smoke ? 3 : 6;
  auto queries = workload::GenerateQueries(query_config, movie_config);
  if (!queries.ok()) {
    std::fprintf(stderr, "queries: %s\n",
                 queries.status().ToString().c_str());
    return 1;
  }

  construct::Personalizer personalizer(&*db, graphs[0].get());
  estimation::ParameterEstimator estimator(&*db);

  struct Budget {
    const char* name;
    bool generous;
  };
  const std::vector<Budget> budgets = {{"generous", true}, {"tight", false}};

  JsonValue record = JsonValue::Object();
  record.Set("bench", JsonValue::Str("rewrite"));
  record.Set("smoke", JsonValue::Bool(smoke));
  JsonValue cells = JsonValue::Array();
  bool k_target_met = false;
  bool cost_target_met = false;

  for (const Budget& budget : budgets) {
    CellAccum cell;
    for (size_t u = 0; u < graphs.size(); ++u) {
      for (size_t q = 0; q < queries->size(); ++q) {
        construct::PersonalizeRequest request;
        request.sql = (*queries)[q].ToSql();
        // Heuristic search: the bench measures the space and the emitted
        // query, not solver quality, and the heuristic stays fast on the
        // deliberately uncapped candidate space.
        request.algorithm = "D-HeurDoi";
        request.space_options.max_k = 256;
        request.graph = graphs[u].get();

        // The tight budget sits at the base query's own cost, forcing the
        // search to be selective; the generous one admits everything.
        auto base_est = estimator.EstimateBase((*queries)[q]);
        if (!base_est.ok()) continue;
        request.problem = cqp::ProblemSpec::Problem2(
            budget.generous ? 1e9 : 2.0 * base_est->cost_ms);

        construct::PersonalizeRequest baseline_request = request;
        baseline_request.space_options.constraint_prune = false;
        baseline_request.build_options.optimize = false;
        auto baseline = personalizer.Personalize(baseline_request);
        auto rewritten = personalizer.Personalize(request);
        if (!baseline.ok() || !rewritten.ok()) {
          std::fprintf(stderr, "personalize u%zu/q%zu: %s\n", u, q,
                       (baseline.ok() ? rewritten.status() : baseline.status())
                           .ToString()
                           .c_str());
          continue;
        }

        // Re-emit the BASELINE's chosen solution through the optimizer:
        // the cost delta isolates what the IR passes remove from one and
        // the same personalized query.
        auto reopt = construct::BuildPersonalizedQuery(
            *db, baseline->space->query, baseline->space->prefs,
            baseline->solution.feasible ? baseline->solution.chosen
                                        : IndexSet(),
            request.build_options);
        if (!reopt.ok()) {
          std::fprintf(stderr, "re-emit u%zu/q%zu: %s\n", u, q,
                       reopt.status().ToString().c_str());
          continue;
        }

        ++cell.requests;
        cell.k_baseline += static_cast<double>(baseline->space->K());
        cell.k_pruned += static_cast<double>(rewritten->space->K());
        cell.cost_baseline_ms +=
            EstimateQxCostMs(estimator, baseline->personalized);
        cell.cost_qx_ms += EstimateQxCostMs(estimator, *reopt);
        cell.conjuncts_dropped += reopt->rewrite.conjuncts_dropped;
        cell.branches_eliminated += reopt->rewrite.branches_subsumed;
        cell.prefs_pruned += rewritten->space->constraint_pruned;
      }
    }
    double k_cut = ReductionPct(cell.k_baseline, cell.k_pruned);
    double cost_cut = ReductionPct(cell.cost_baseline_ms, cell.cost_qx_ms);
    if (budget.generous) {
      k_target_met = k_cut >= 20.0;
      cost_target_met = cost_cut >= 20.0;
    }
    std::printf(
        "%-9s %3zu requests  K %5.1f -> %5.1f (-%4.1f%%)  "
        "cost(Qx) %9.1f -> %9.1f ms (-%4.1f%%)  "
        "%llu conjuncts, %llu branches, %llu prefs pruned\n",
        budget.name, cell.requests, cell.k_baseline / cell.requests,
        cell.k_pruned / cell.requests, k_cut,
        cell.cost_baseline_ms / cell.requests,
        cell.cost_qx_ms / cell.requests, cost_cut,
        static_cast<unsigned long long>(cell.conjuncts_dropped),
        static_cast<unsigned long long>(cell.branches_eliminated),
        static_cast<unsigned long long>(cell.prefs_pruned));
    cells.Append(CellToJson(budget.name, cell));
  }

  record.Set("cells", std::move(cells));
  record.Set("k_reduction_target_met", JsonValue::Bool(k_target_met));
  record.Set("cost_reduction_target_met", JsonValue::Bool(cost_target_met));
  if (!k_target_met || !cost_target_met) {
    std::fprintf(stderr,
                 "WARNING: generous cell under the 20%% reduction target "
                 "(K met: %d, cost met: %d)\n",
                 k_target_met, cost_target_met);
  }

  return WriteRecord(std::move(record), json_path) ? 0 : 1;
}

}  // namespace
}  // namespace cqp::bench

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_rewrite.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json PATH]\n", argv[0]);
      return 2;
    }
  }
  return cqp::bench::Run(smoke, json_path);
}
