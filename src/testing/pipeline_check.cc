#include "testing/pipeline_check.h"

#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/str_util.h"
#include "construct/personalizer.h"
#include "estimation/eval_cache.h"
#include "prefs/graph.h"
#include "server/client.h"
#include "server/profile_store.h"
#include "server/protocol.h"
#include "server/server.h"
#include "testing/rewrite_check.h"
#include "workload/movie_gen.h"
#include "workload/profile_gen.h"
#include "workload/query_gen.h"

namespace cqp::testing {

namespace {

/// Field-for-field comparison of two full personalization results.
/// Metrics (wall times, cache hit counts) are intentionally excluded: they
/// legitimately differ across execution paths; the ANSWER must not.
std::string DiffResults(const construct::PersonalizeResult& a,
                        const construct::PersonalizeResult& b) {
  if (a.final_sql != b.final_sql) {
    return "final_sql '" + a.final_sql + "' vs '" + b.final_sql + "'";
  }
  if (a.rung != b.rung) {
    return StrFormat("rung %s vs %s", construct::FallbackRungName(a.rung),
                     construct::FallbackRungName(b.rung));
  }
  return DiffSolutions(a.solution, b.solution);
}

/// The problems the parity sweep cycles through (one per request, so all
/// constraint kinds cross every execution path).
cqp::ProblemSpec ProblemFor(size_t i) {
  switch (i % 4) {
    case 0: return cqp::ProblemSpec::Problem2(400.0);
    case 1: return cqp::ProblemSpec::Problem4(0.3);
    case 2: return cqp::ProblemSpec::Problem3(500.0, 1.0, 1e7);
    default: return cqp::ProblemSpec::Problem6(1.0, 1e6);
  }
}

}  // namespace

PipelineCheckResult RunPipelineCheck(const PipelineCheckConfig& config) {
  PipelineCheckResult result;
  CheckReport& report = result.report;

  // A small but non-trivial database: joins exist, selectivities vary.
  workload::MovieDbConfig movie_config;
  movie_config.seed = config.seed;
  movie_config.n_movies = 400;
  movie_config.n_directors = 40;
  movie_config.n_actors = 80;
  movie_config.cast_per_movie = 2;
  auto db = workload::BuildMovieDatabase(movie_config);
  if (!db.ok()) {
    report.Add("pipeline-setup", "", "BuildMovieDatabase: " +
                                         std::string(db.status().message()));
    return result;
  }

  struct User {
    std::string id;
    prefs::Profile profile;
    std::shared_ptr<prefs::PersonalizationGraph> graph;
  };
  std::vector<User> users;
  for (size_t u = 0; u < config.n_profiles; ++u) {
    workload::ProfileGenConfig profile_config;
    profile_config.seed = config.seed + 100 + u;
    auto profile = workload::GenerateProfile(profile_config, movie_config);
    if (!profile.ok()) {
      report.Add("pipeline-setup", "", "GenerateProfile: " +
                                           std::string(profile.status().message()));
      return result;
    }
    auto graph = prefs::PersonalizationGraph::Build(*profile, *db);
    if (!graph.ok()) {
      report.Add("pipeline-setup", "", "Graph build: " +
                                           std::string(graph.status().message()));
      return result;
    }
    users.push_back({"u" + std::to_string(u), *profile,
                     std::make_shared<prefs::PersonalizationGraph>(
                         *std::move(graph))});
  }

  workload::QueryGenConfig query_config;
  query_config.seed = config.seed + 200;
  query_config.n_queries = config.n_queries;
  auto queries = workload::GenerateQueries(query_config, movie_config);
  if (!queries.ok()) {
    report.Add("pipeline-setup", "", "GenerateQueries: " +
                                         std::string(queries.status().message()));
    return result;
  }

  // The reference path: one sequential Personalize() per (user, query).
  construct::Personalizer personalizer(&*db, users[0].graph.get());
  std::vector<construct::PersonalizeRequest> requests;
  std::vector<std::string> request_labels;
  for (size_t u = 0; u < users.size(); ++u) {
    for (size_t q = 0; q < queries->size(); ++q) {
      construct::PersonalizeRequest request;
      request.sql = (*queries)[q].ToSql();
      request.problem = ProblemFor(u * queries->size() + q);
      request.algorithm = "auto";
      request.space_options.max_k = config.max_k;
      request.graph = users[u].graph.get();
      requests.push_back(std::move(request));
      request_labels.push_back(users[u].id + "/q" + std::to_string(q));
    }
  }

  std::vector<construct::PersonalizeResult> reference;
  for (size_t i = 0; i < requests.size(); ++i) {
    auto r = personalizer.Personalize(requests[i]);
    if (!r.ok()) {
      report.Add("pipeline-serial", request_labels[i],
                 std::string(r.status().message()));
      return result;
    }
    reference.push_back(*std::move(r));
    ++result.requests;
  }

  // Path 2: PersonalizeBatch must be element-for-element identical.
  if (config.check_batch) {
    construct::BatchOptions batch_options;
    batch_options.num_threads = 4;
    construct::BatchResult batch =
        personalizer.PersonalizeBatch(requests, batch_options);
    if (batch.results.size() != requests.size()) {
      report.Add("batch-parity", "",
                 StrFormat("%zu results for %zu requests",
                           batch.results.size(), requests.size()));
    } else {
      for (size_t i = 0; i < requests.size(); ++i) {
        if (!batch.results[i].ok()) {
          report.Add("batch-parity", request_labels[i],
                     std::string(batch.results[i].status().message()));
          continue;
        }
        std::string diff = DiffResults(reference[i], *batch.results[i]);
        if (!diff.empty()) {
          report.Add("batch-parity", request_labels[i], diff);
        }
      }
    }
  }

  // Path 3: a shared EvalCache, cold then warm, must not change answers.
  if (config.check_shared_cache) {
    for (size_t i = 0; i < requests.size(); ++i) {
      estimation::EvalCache cache;
      construct::PersonalizeRequest request = requests[i];
      request.eval_cache = &cache;
      for (const char* phase : {"cold", "warm"}) {
        auto r = personalizer.Personalize(request);
        if (!r.ok()) {
          report.Add("cache-path-parity", request_labels[i],
                     std::string(phase) + ": " +
                         std::string(r.status().message()));
          break;
        }
        std::string diff = DiffResults(reference[i], *r);
        if (!diff.empty()) {
          report.Add("cache-path-parity", request_labels[i],
                     std::string(phase) + ": " + diff);
        }
      }
    }
  }

  // Path 4: the split pipeline. Explicit Prepare()+Solve() — cold, then
  // with the PreparedSpace served from a plan cache, then Personalize()
  // with the same cache — must all be field-for-field identical to the
  // direct Personalize() reference. This is the prepared-vs-direct parity
  // contract: one extraction, any problem, bit-identical answers.
  if (config.check_prepared) {
    construct::PlanCache plan_cache;
    for (size_t i = 0; i < requests.size(); ++i) {
      construct::PersonalizeRequest request = requests[i];
      request.plan_cache = &plan_cache;
      request.profile_id = users[i / queries->size()].id;
      request.profile_version = 1;
      bool failed = false;
      for (const char* phase : {"cold", "warm"}) {
        auto prepared = personalizer.Prepare(request);
        if (!prepared.ok()) {
          report.Add("prepared-parity", request_labels[i],
                     std::string(phase) + " Prepare: " +
                         std::string(prepared.status().message()));
          failed = true;
          break;
        }
        if ((std::string(phase) == "warm") != prepared->cache_hit) {
          report.Add("prepared-parity", request_labels[i],
                     StrFormat("%s Prepare reported cache_hit=%d", phase,
                               prepared->cache_hit));
        }
        auto solved = personalizer.Solve(*prepared, request);
        if (!solved.ok()) {
          report.Add("prepared-parity", request_labels[i],
                     std::string(phase) + " Solve: " +
                         std::string(solved.status().message()));
          failed = true;
          break;
        }
        std::string diff = DiffResults(reference[i], *solved);
        if (!diff.empty()) {
          report.Add("prepared-parity", request_labels[i],
                     std::string(phase) + ": " + diff);
        }
      }
      if (failed) continue;
      auto r = personalizer.Personalize(request);
      if (!r.ok()) {
        report.Add("prepared-parity", request_labels[i],
                   "cached Personalize: " + std::string(r.status().message()));
        continue;
      }
      if (!r->plan_cache_hit) {
        report.Add("prepared-parity", request_labels[i],
                   "cached Personalize missed the plan cache");
      }
      std::string diff = DiffResults(reference[i], *r);
      if (!diff.empty()) {
        report.Add("prepared-parity", request_labels[i], "cached: " + diff);
      }
    }
  }

  // Path 5: loopback server round trip. The wire response must reproduce
  // the direct result field for field, for every user and problem kind.
  if (config.check_server) {
    server::ProfileStore store(&*db);
    bool store_ok = true;
    for (const User& user : users) {
      Status put = store.Put(user.id, user.profile);
      if (!put.ok()) {
        report.Add("server-parity", user.id,
                   "profile Put: " + std::string(put.message()));
        store_ok = false;
      }
    }
    server::ServerOptions server_options;
    server_options.port = 0;  // ephemeral
    server::Server server(&*db, &store, server_options);
    Status started = store_ok ? server.Start() : Status::OK();
    if (!started.ok()) {
      report.Add("server-parity", "", "Start: " + std::string(started.message()));
    } else if (store_ok) {
      server::Client client;
      Status connected = client.Connect("127.0.0.1", server.port());
      if (!connected.ok()) {
        report.Add("server-parity", "",
                   "Connect: " + std::string(connected.message()));
      } else {
        for (size_t i = 0; i < requests.size(); ++i) {
          server::WireRequest wire;
          wire.op = server::RequestOp::kPersonalize;
          wire.id = request_labels[i];
          wire.personalize.sql = requests[i].sql;
          wire.personalize.profile_id = users[i / queries->size()].id;
          wire.personalize.algorithm = requests[i].algorithm;
          wire.personalize.max_k = config.max_k;
          wire.personalize.problem = requests[i].problem;
          auto response = client.Call(wire);
          if (!response.ok()) {
            report.Add("server-parity", request_labels[i],
                       "Call: " + std::string(response.status().message()));
            continue;
          }
          if (!response->ok() || !response->personalize.has_value()) {
            report.Add("server-parity", request_labels[i],
                       "error response: " + response->status.ToString());
            continue;
          }
          const server::PersonalizeResultPayload& p = *response->personalize;
          const construct::PersonalizeResult& want = reference[i];
          std::string diff;
          if (p.final_sql != want.final_sql) {
            diff = "final_sql '" + p.final_sql + "' vs '" + want.final_sql + "'";
          } else if (p.rung != construct::FallbackRungName(want.rung)) {
            diff = "rung " + p.rung;
          } else if (p.degraded != want.degraded()) {
            diff = StrFormat("degraded %d vs %d", p.degraded, want.degraded());
          } else if (p.feasible != want.solution.feasible) {
            diff = StrFormat("feasible %d vs %d", p.feasible,
                             want.solution.feasible);
          } else if (p.doi != want.solution.params.doi ||
                     p.cost_ms != want.solution.params.cost_ms ||
                     p.size != want.solution.params.size) {
            diff = StrFormat("params (%.17g %.17g %.17g) vs "
                             "(%.17g %.17g %.17g)",
                             p.doi, p.cost_ms, p.size, want.solution.params.doi,
                             want.solution.params.cost_ms,
                             want.solution.params.size);
          } else {
            std::vector<int32_t> chosen(want.solution.chosen.begin(),
                                        want.solution.chosen.end());
            if (p.chosen != chosen) diff = "chosen sets differ";
          }
          if (!diff.empty()) {
            report.Add("server-parity", request_labels[i], diff);
          }
        }
      }
    }
    server.Stop();
  }

  // Path 6: injected faults + tight expansion budgets. Every request must
  // still answer OK (the ladder's last rung always can); claimed-feasible
  // answers must verify against their bounds; non-Primary answers must be
  // tagged degraded.
  if (config.check_failpoints) {
    std::string spec = StrFormat(
        "space.extract=0.3:%llu,cqp.solve=0.3:%llu",
        static_cast<unsigned long long>(config.seed),
        static_cast<unsigned long long>(config.seed + 1));
    Status armed = failpoint::Configure(spec);
    if (!armed.ok()) {
      report.Add("failpoint-setup", "", std::string(armed.message()));
    } else {
      for (size_t i = 0; i < requests.size(); ++i) {
        construct::PersonalizeRequest request = requests[i];
        request.budget.max_expansions = 16;  // deterministic, very tight
        auto r = personalizer.Personalize(request);
        if (!r.ok()) {
          report.Add("failpoint-error", request_labels[i],
                     "fallback ladder surfaced an error: " +
                         std::string(r.status().message()));
          continue;
        }
        if (r->rung != construct::FallbackRung::kPrimary && !r->degraded()) {
          report.Add("failpoint-untagged", request_labels[i],
                     StrFormat("answered at rung %s but degraded() is false",
                               construct::FallbackRungName(r->rung)));
        }
        if (r->solution.feasible && r->space->K() > 0) {
          estimation::StateEvaluator evaluator = r->space->MakeEvaluator();
          estimation::StateParams recheck =
              evaluator.Evaluate(r->solution.chosen);
          if (!request.problem.IsFeasible(recheck)) {
            report.Add("failpoint-feasibility", request_labels[i],
                       "claimed-feasible degraded solution violates " +
                           request.problem.ToString());
          }
        }
        if (r->attempts.empty()) {
          report.Add("failpoint-trail", request_labels[i],
                     "no degradation-ladder attempts recorded");
        }
      }
    }
    failpoint::Reset();
  }

  // Path 7: the SoA/SIMD batch evaluation core. The reference results above
  // were produced with batch evaluation enabled (the default); re-solving
  // with `disable_batch_eval` forces every algorithm onto the scalar
  // StateEvaluator. Doi-maximization answers must agree field for field
  // (the batch traversals replay the scalar ones exactly — docs/simd.md).
  // Cost-minimization goes through MinCost-BB, whose batched tails preserve
  // the objective value but may break `chosen` ties differently, so those
  // are held to objective-level parity.
  if (config.check_batch_eval) {
    for (size_t i = 0; i < requests.size(); ++i) {
      construct::PersonalizeRequest request = requests[i];
      request.disable_batch_eval = true;
      auto r = personalizer.Personalize(request);
      if (!r.ok()) {
        report.Add("batch-eval-parity", request_labels[i],
                   "scalar re-solve: " + std::string(r.status().message()));
        continue;
      }
      const construct::PersonalizeResult& want = reference[i];
      std::string diff;
      if (request.problem.objective == cqp::Objective::kMinimizeCost) {
        if (r->rung != want.rung) {
          diff = StrFormat("rung %s vs %s",
                           construct::FallbackRungName(r->rung),
                           construct::FallbackRungName(want.rung));
        } else if (r->solution.feasible != want.solution.feasible) {
          diff = StrFormat("feasible %d vs %d", r->solution.feasible,
                           want.solution.feasible);
        } else if (r->solution.feasible) {
          double scalar_obj = request.problem.ObjectiveValue(r->solution.params);
          double batch_obj = request.problem.ObjectiveValue(want.solution.params);
          if (scalar_obj != batch_obj) {
            diff = StrFormat("objective %.17g vs %.17g", scalar_obj, batch_obj);
          }
        }
      } else {
        diff = DiffResults(want, *r);
      }
      if (!diff.empty()) {
        report.Add("batch-eval-parity", request_labels[i], diff);
      }
    }
  }

  // Path 8: the semantic rewrite layer (docs/rewriting.md), through the
  // rewrite campaign's emission oracle. The reference answer's OWN chosen
  // solution, re-emitted optimized and unoptimized — one branch per
  // preference and with merge_compatible — must execute to the same
  // result set; the fixed solution isolates the emission-level passes from
  // the (legitimately answer-changing) pre-search pruning. The served
  // emission, built from the prepared view's memoized analyses, must equal
  // the memo-free one byte for byte.
  if (config.check_rewrite) {
    for (size_t i = 0; i < requests.size(); ++i) {
      for (bool merge : {false, true}) {
        construct::BuildOptions options = requests[i].build_options;
        options.merge_compatible = merge;
        std::string diff = DiffEmissions(
            *db, personalizer, reference[i], options,
            merge == requests[i].build_options.merge_compatible);
        if (!diff.empty()) {
          report.Add("rewrite-parity",
                     merge ? request_labels[i] + "/merged" : request_labels[i],
                     diff);
        }
      }
    }
  }

  return result;
}

}  // namespace cqp::testing
