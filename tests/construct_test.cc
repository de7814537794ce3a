#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/budget.h"
#include "common/failpoint.h"
#include "construct/personalizer.h"
#include "estimation/eval_cache.h"
#include "construct/query_builder.h"
#include "exec/executor.h"
#include "sql/parser.h"
#include "test_util.h"
#include "workload/movie_gen.h"
#include "workload/profile_gen.h"

namespace cqp::construct {
namespace {

using catalog::CompareOp;
using catalog::Value;
using prefs::AtomicJoin;
using prefs::AtomicSelection;
using prefs::ImplicitPreference;
using sql::ParseSelect;

class QueryBuilderTest : public ::testing::Test {
 protected:
  QueryBuilderTest() : db_(::cqp::testing::MakeTinyMovieDb()) {}

  ImplicitPreference AllenPref() {
    ImplicitPreference p;
    p.joins = {AtomicJoin{"MOVIE", "did", "DIRECTOR", "did", 1.0}};
    p.selection = AtomicSelection{"DIRECTOR", "name", CompareOp::kEq,
                                  Value("W. Allen"), 0.8};
    p.doi = 0.8;
    return p;
  }

  ImplicitPreference MusicalPref() {
    ImplicitPreference p;
    p.joins = {AtomicJoin{"MOVIE", "mid", "GENRE", "mid", 0.9}};
    p.selection = AtomicSelection{"GENRE", "genre", CompareOp::kEq,
                                  Value("musical"), 0.5};
    p.doi = 0.45;
    return p;
  }

  ImplicitPreference YearPref() {
    ImplicitPreference p;
    p.selection = AtomicSelection{"MOVIE", "year", CompareOp::kGe,
                                  Value(int64_t{1970}), 0.6};
    p.doi = 0.6;
    return p;
  }

  storage::Database db_;
};

TEST_F(QueryBuilderTest, CanonicalizeQualifiesColumns) {
  auto base = *ParseSelect("SELECT title FROM MOVIE");
  auto canon = *CanonicalizeSelectList(db_, base);
  ASSERT_EQ(canon.select_list.size(), 1u);
  EXPECT_EQ(canon.select_list[0].qualifier, "MOVIE");
}

TEST_F(QueryBuilderTest, CanonicalizeExpandsStar) {
  auto base = *ParseSelect("SELECT * FROM DIRECTOR");
  auto canon = *CanonicalizeSelectList(db_, base);
  ASSERT_EQ(canon.select_list.size(), 2u);
  EXPECT_EQ(canon.select_list[0].attribute, "did");
  EXPECT_EQ(canon.select_list[1].attribute, "name");
}

TEST_F(QueryBuilderTest, CanonicalizeRejectsUnknownColumn) {
  auto base = *ParseSelect("SELECT rating FROM MOVIE");
  EXPECT_FALSE(CanonicalizeSelectList(db_, base).ok());
}

TEST_F(QueryBuilderTest, SubQueryAddsPathRelations) {
  auto base = *ParseSelect("SELECT title FROM MOVIE");
  auto sub = *BuildSubQuery(db_, base, AllenPref(), 1);
  ASSERT_EQ(sub.from.size(), 2u);
  EXPECT_EQ(sub.from[1].relation, "DIRECTOR");
  EXPECT_EQ(sub.from[1].alias, "p1_director");
  ASSERT_EQ(sub.where.size(), 2u);
  EXPECT_EQ(sub.where[0].kind, sql::Predicate::Kind::kJoin);
  EXPECT_EQ(sub.where[1].kind, sql::Predicate::Kind::kSelection);
  EXPECT_EQ(sub.where[1].literal.AsString(), "W. Allen");
}

TEST_F(QueryBuilderTest, SubQueryKeepsBaseConditions) {
  auto base = *ParseSelect("SELECT title FROM MOVIE WHERE MOVIE.year >= 1960");
  auto sub = *BuildSubQuery(db_, base, MusicalPref(), 2);
  // original selection + join + preference selection
  EXPECT_EQ(sub.where.size(), 3u);
  EXPECT_EQ(sub.from[1].alias, "p2_genre");
}

TEST_F(QueryBuilderTest, SubQueryFailsWhenAnchorMissing) {
  auto base = *ParseSelect("SELECT name FROM DIRECTOR");
  EXPECT_FALSE(BuildSubQuery(db_, base, MusicalPref(), 1).ok());
}

TEST_F(QueryBuilderTest, SubQueryIsExecutable) {
  exec::Executor executor(&db_);
  auto base = *ParseSelect("SELECT title FROM MOVIE");
  auto sub = *BuildSubQuery(db_, base, AllenPref(), 1);
  auto rows = executor.Execute(sub, nullptr);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->row_count(), 2u);  // two Allen movies
}

TEST_F(QueryBuilderTest, PersonalizedQueryMatchesPaperExample) {
  // §4.2: query on movies + Allen preference + musical preference.
  auto base = *ParseSelect("SELECT title FROM MOVIE");
  std::vector<estimation::ScoredPreference> prefs(2);
  prefs[0].pref = AllenPref();
  prefs[0].doi = 0.8;
  prefs[1].pref = MusicalPref();
  prefs[1].doi = 0.45;

  auto pq = *BuildPersonalizedQuery(db_, base, prefs, IndexSet{0, 1});
  EXPECT_EQ(pq.L(), 2u);
  std::string sql = pq.ToSql();
  EXPECT_NE(sql.find("UNION ALL"), std::string::npos);
  EXPECT_NE(sql.find("HAVING COUNT(*) = 2"), std::string::npos);
  EXPECT_NE(sql.find("GROUP BY title"), std::string::npos);
}

TEST_F(QueryBuilderTest, EmptyChoiceYieldsOriginalQuery) {
  auto base = *ParseSelect("SELECT title FROM MOVIE");
  std::vector<estimation::ScoredPreference> prefs;
  auto pq = *BuildPersonalizedQuery(db_, base, prefs, IndexSet());
  EXPECT_EQ(pq.L(), 0u);
  EXPECT_NE(pq.ToSql().find("SELECT"), std::string::npos);
  EXPECT_EQ(pq.ToSql().find("UNION"), std::string::npos);
}

TEST_F(QueryBuilderTest, MergeCompatibleCollapsesJoinFreePrefs) {
  auto base = *ParseSelect("SELECT title FROM MOVIE");
  std::vector<estimation::ScoredPreference> prefs(3);
  prefs[0].pref = YearPref();
  prefs[0].doi = 0.6;
  prefs[1].pref.selection = AtomicSelection{
      "MOVIE", "duration", CompareOp::kLe, Value(int64_t{130}), 0.3};
  prefs[1].doi = 0.3;
  prefs[2].pref = AllenPref();
  prefs[2].doi = 0.8;

  BuildOptions options;
  options.merge_compatible = true;
  auto pq = *BuildPersonalizedQuery(db_, base, prefs, IndexSet{0, 1, 2},
                                    options);
  // Allen stays alone; the two MOVIE selections merge.
  EXPECT_EQ(pq.L(), 2u);
  // Merged group doi combines both constituents.
  bool found_merged = false;
  for (size_t i = 0; i < pq.L(); ++i) {
    if (pq.subquery_prefs[i].size() == 2) {
      found_merged = true;
      EXPECT_NEAR(pq.dois[i], 1.0 - 0.4 * 0.7, 1e-12);
    }
  }
  EXPECT_TRUE(found_merged);
}

TEST_F(QueryBuilderTest, MergedExecutionEqualsUnmerged) {
  exec::Executor executor(&db_);
  auto base = *ParseSelect("SELECT title FROM MOVIE");
  std::vector<estimation::ScoredPreference> prefs(2);
  prefs[0].pref = YearPref();
  prefs[0].doi = 0.6;
  prefs[1].pref.selection = AtomicSelection{
      "MOVIE", "duration", CompareOp::kLe, Value(int64_t{130}), 0.3};
  prefs[1].doi = 0.3;

  auto plain = *BuildPersonalizedQuery(db_, base, prefs, IndexSet{0, 1});
  BuildOptions merged_opts;
  merged_opts.merge_compatible = true;
  auto merged =
      *BuildPersonalizedQuery(db_, base, prefs, IndexSet{0, 1}, merged_opts);

  auto run = [&](const PersonalizedQuery& pq) {
    auto result = *exec::ExecutePersonalized(
        executor, pq.subqueries, pq.dois, exec::CombineMode::kIntersection,
        nullptr);
    std::set<std::string> titles;
    for (const auto& row : result.rows) {
      titles.insert(row.row.at(0).AsString());
    }
    return titles;
  };
  EXPECT_EQ(run(plain), run(merged));
  EXPECT_EQ(merged.L(), 1u);
  EXPECT_EQ(plain.L(), 2u);
}

TEST_F(QueryBuilderTest, ViewAnalysesGiveTheMemoFreeEmission) {
  // The base repeats a conjunct and the year preference repeats it again,
  // so redundancy elimination drops conjuncts and the year branch is
  // subsumed by the Allen branch: both apply steps run on the view's
  // analyses, for every chosen subset.
  auto base = *ParseSelect(
      "SELECT title FROM MOVIE WHERE MOVIE.year >= 1970 AND "
      "MOVIE.year >= 1970");
  std::vector<estimation::ScoredPreference> prefs(3);
  prefs[0].pref = AllenPref();
  prefs[0].doi = 0.8;
  prefs[1].pref = YearPref();
  prefs[1].doi = 0.6;
  prefs[2].pref = MusicalPref();
  prefs[2].doi = 0.45;
  auto analysis = AnalyzeViewBranches(db_, base, prefs);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  ASSERT_EQ(analysis->branches.size(), prefs.size());
  uint64_t subsumed = 0;
  for (int mask = 1; mask < 8; ++mask) {
    std::vector<int32_t> members;
    for (int32_t i = 0; i < 3; ++i) {
      if ((mask >> i) & 1) members.push_back(i);
    }
    SCOPED_TRACE(mask);
    const IndexSet chosen = IndexSet::FromUnsorted(members);
    auto memo_free = *BuildPersonalizedQuery(db_, base, prefs, chosen);
    auto reused = *BuildPersonalizedQuery(db_, base, prefs, chosen,
                                          BuildOptions(), &*analysis);
    EXPECT_EQ(reused.ToSql(), memo_free.ToSql());
    EXPECT_EQ(reused.subquery_prefs, memo_free.subquery_prefs);
    EXPECT_EQ(reused.dois, memo_free.dois);
    EXPECT_EQ(reused.rewrite.conjuncts_dropped,
              memo_free.rewrite.conjuncts_dropped);
    EXPECT_EQ(reused.rewrite.branches_subsumed,
              memo_free.rewrite.branches_subsumed);
    EXPECT_GT(reused.rewrite.conjuncts_dropped, 0u);
    subsumed += reused.rewrite.branches_subsumed;
  }
  EXPECT_GT(subsumed, 0u);
}

TEST_F(QueryBuilderTest, ViewAnalysesServeOnlyTheirOwnQueryUnmerged) {
  // An analysis that drops each branch's first conjunct (the base's
  // year >= 1960) shows whether the builder took it.
  std::vector<estimation::ScoredPreference> prefs(1);
  prefs[0].pref = AllenPref();
  prefs[0].doi = 0.8;
  auto poisoned = [&](const sql::SelectQuery& q) {
    rewrite::ViewAnalysis analysis = *AnalyzeViewBranches(db_, q, prefs);
    for (rewrite::BranchAnalysis& branch : analysis.branches) {
      branch.dropped = {0};
    }
    return analysis;
  };
  auto emit = [&](const sql::SelectQuery& q, const BuildOptions& options,
                  const rewrite::ViewAnalysis* analysis) {
    return BuildPersonalizedQuery(db_, q, prefs, IndexSet{0}, options,
                                  analysis)
        ->ToSql();
  };
  BuildOptions unmerged;
  BuildOptions merged;
  merged.merge_compatible = true;

  auto base = *ParseSelect("SELECT title FROM MOVIE WHERE MOVIE.year >= 1960");
  const rewrite::ViewAnalysis own = poisoned(base);
  // The query it was built from takes it.
  EXPECT_EQ(emit(base, unmerged, &own).find("year >= 1960"),
            std::string::npos);
  // Another spelling of the same plan does not: its conjunct indices need
  // not line up.
  auto respelled =
      *ParseSelect("SELECT MOVIE.title FROM MOVIE WHERE year >= 1960");
  EXPECT_EQ(emit(respelled, unmerged, &own),
            emit(respelled, unmerged, nullptr));
  // A merged emission does not: the analyses are of one-preference
  // branches.
  EXPECT_EQ(emit(base, merged, &own), emit(base, merged, nullptr));
  // Nor does a query whose names could equal a fresh alias, even with the
  // analysis built from it.
  auto fresh = *ParseSelect(
      "SELECT p1_movie.title FROM MOVIE p1_movie WHERE p1_movie.year >= 1960");
  const rewrite::ViewAnalysis fresh_own = poisoned(fresh);
  EXPECT_EQ(emit(fresh, unmerged, &fresh_own),
            emit(fresh, unmerged, nullptr));
}

TEST_F(QueryBuilderTest, PersonalizedSqlRoundTripsThroughTheEngine) {
  // The printed SQL must parse back and execute to exactly the same rows
  // as the structured personalized execution.
  exec::Executor executor(&db_);
  auto base = *ParseSelect("SELECT title FROM MOVIE");
  std::vector<estimation::ScoredPreference> prefs(3);
  prefs[0].pref = AllenPref();
  prefs[0].doi = 0.8;
  prefs[1].pref = MusicalPref();
  prefs[1].doi = 0.45;
  prefs[2].pref = YearPref();
  prefs[2].doi = 0.6;

  for (const IndexSet& chosen :
       {IndexSet{0}, IndexSet{0, 1}, IndexSet{0, 2}, IndexSet{0, 1, 2}}) {
    auto pq = *BuildPersonalizedQuery(db_, base, prefs, chosen);

    // Structured execution.
    auto structured = *exec::ExecutePersonalized(
        executor, pq.subqueries, pq.dois, exec::CombineMode::kIntersection,
        nullptr);
    std::multiset<std::string> structured_rows;
    for (const auto& row : structured.rows) {
      structured_rows.insert(row.row.ToString());
    }

    // Text → parse → ExecuteUnionGroup.
    std::string sql_text = pq.ToSql();
    auto parsed = sql::ParseUnionGroup(sql_text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n"
                             << sql_text;
    EXPECT_EQ(parsed->branches.size(), pq.L());
    auto executed = executor.ExecuteUnionGroup(*parsed, nullptr);
    ASSERT_TRUE(executed.ok()) << executed.status().ToString();
    std::multiset<std::string> sql_rows;
    for (const auto& row : executed->rows()) sql_rows.insert(row.ToString());

    EXPECT_EQ(sql_rows, structured_rows) << sql_text;
  }
}

// ---------- Personalizer facade ----------

class PersonalizerTest : public ::testing::Test {
 protected:
  PersonalizerTest() : db_(::cqp::testing::MakeTinyMovieDb()) {
    auto profile = *prefs::Profile::Parse(R"(
        doi(GENRE.genre = 'musical') = 0.5
        doi(GENRE.genre = 'comedy') = 0.4
        doi(MOVIE.mid = GENRE.mid) = 0.9
        doi(MOVIE.did = DIRECTOR.did) = 1.0
        doi(DIRECTOR.name = 'W. Allen') = 0.8
        doi(MOVIE.year >= 1970) = 0.6
    )");
    graph_ = std::make_unique<prefs::PersonalizationGraph>(
        *prefs::PersonalizationGraph::Build(std::move(profile), db_));
  }

  storage::Database db_;
  std::unique_ptr<prefs::PersonalizationGraph> graph_;
};

TEST_F(PersonalizerTest, EndToEndProblem2) {
  Personalizer personalizer(&db_, graph_.get());
  PersonalizeRequest request;
  request.sql = "SELECT title FROM MOVIE";
  request.problem = cqp::ProblemSpec::Problem2(1e9);
  request.algorithm = "C-Boundaries";
  auto result = personalizer.Personalize(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->solution.feasible);
  EXPECT_GT(result->solution.chosen.size(), 0u);
  EXPECT_GT(result->space->K(), 0u);
  EXPECT_NE(result->final_sql.find("SELECT"), std::string::npos);

  exec::ExecStats stats;
  auto rows = personalizer.Execute(*result, &stats);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_GT(stats.blocks_read, 0u);
}

TEST_F(PersonalizerTest, InfeasibleFallsBackToOriginalQuery) {
  Personalizer personalizer(&db_, graph_.get());
  PersonalizeRequest request;
  request.sql = "SELECT title FROM MOVIE";
  request.problem = cqp::ProblemSpec::Problem2(1e-6);  // below cost(Q)
  auto result = personalizer.Personalize(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->solution.feasible);
  EXPECT_EQ(result->personalized.L(), 0u);
  exec::ExecStats stats;
  auto rows = personalizer.Execute(*result, &stats);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 6u);  // all movies, doi 0
}

TEST_F(PersonalizerTest, RejectsUnsupportedAlgorithmProblemPair) {
  Personalizer personalizer(&db_, graph_.get());
  PersonalizeRequest request;
  request.sql = "SELECT title FROM MOVIE";
  request.problem = cqp::ProblemSpec::Problem4(0.5);
  request.algorithm = "C-Boundaries";
  EXPECT_FALSE(personalizer.Personalize(request).ok());
}

TEST_F(PersonalizerTest, RejectsUnknownAlgorithm) {
  Personalizer personalizer(&db_, graph_.get());
  PersonalizeRequest request;
  request.sql = "SELECT title FROM MOVIE";
  request.problem = cqp::ProblemSpec::Problem2(1000);
  request.algorithm = "Quantum";
  EXPECT_FALSE(personalizer.Personalize(request).ok());
}

TEST_F(PersonalizerTest, RejectsBadSql) {
  Personalizer personalizer(&db_, graph_.get());
  PersonalizeRequest request;
  request.sql = "SELEC title FROM MOVIE";
  request.problem = cqp::ProblemSpec::Problem2(1000);
  EXPECT_FALSE(personalizer.Personalize(request).ok());
}

TEST_F(PersonalizerTest, AutoPicksExactSolverPerObjective) {
  Personalizer personalizer(&db_, graph_.get());
  PersonalizeRequest request;
  request.sql = "SELECT title FROM MOVIE";
  request.algorithm = "auto";
  request.problem = cqp::ProblemSpec::Problem2(1e9);
  auto max_doi = personalizer.Personalize(request);
  ASSERT_TRUE(max_doi.ok()) << max_doi.status().ToString();
  EXPECT_TRUE(max_doi->solution.feasible);

  request.problem = cqp::ProblemSpec::Problem4(0.5);
  auto min_cost = personalizer.Personalize(request);
  ASSERT_TRUE(min_cost.ok()) << min_cost.status().ToString();
  EXPECT_TRUE(min_cost->solution.feasible);
  EXPECT_GE(min_cost->solution.params.doi, 0.5);
}

TEST_F(PersonalizerTest, BaseLimitCapsRankedDelivery) {
  Personalizer personalizer(&db_, graph_.get());
  PersonalizeRequest request;
  request.sql = "SELECT title FROM MOVIE LIMIT 1";
  request.problem = cqp::ProblemSpec::Problem2(1e9);
  request.algorithm = "C-Boundaries";
  auto result = *personalizer.Personalize(request);
  ASSERT_TRUE(result.solution.feasible);
  // Sub-queries must not inherit the LIMIT (it would break intersection).
  for (const auto& sub : result.personalized.subqueries) {
    EXPECT_FALSE(sub.limit.has_value());
  }
  exec::ExecStats stats;
  auto rows = *personalizer.Execute(result, &stats);
  EXPECT_LE(rows.rows.size(), 1u);
}

TEST_F(PersonalizerTest, ExecutedRowsSatisfyChosenPreferences) {
  Personalizer personalizer(&db_, graph_.get());
  PersonalizeRequest request;
  request.sql = "SELECT title FROM MOVIE";
  request.problem = cqp::ProblemSpec::Problem2(1e9);
  auto result = *personalizer.Personalize(request);
  ASSERT_TRUE(result.solution.feasible);

  exec::ExecStats stats;
  auto rows = *personalizer.Execute(result, &stats);
  // Every returned row satisfies every sub-query (intersection semantics).
  for (const auto& row : rows.rows) {
    EXPECT_EQ(row.satisfied.size(), result.personalized.L());
  }
}

// ---------- batch personalization ----------

TEST_F(PersonalizerTest, BatchMatchesSequentialBitForBit) {
  Personalizer personalizer(&db_, graph_.get());
  // A mixed batch: two distinct problems so slots cannot be confused.
  std::vector<PersonalizeRequest> requests(8);
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].sql = "SELECT title FROM MOVIE";
    requests[i].problem = (i % 2 == 0) ? cqp::ProblemSpec::Problem2(1e9)
                                       : cqp::ProblemSpec::Problem2(1e-6);
    requests[i].algorithm = "C-Boundaries";
  }

  BatchOptions options;
  options.num_threads = 4;
  BatchResult batch = personalizer.PersonalizeBatch(requests, options);
  ASSERT_EQ(batch.results.size(), requests.size());
  ASSERT_EQ(batch.latencies_ms.size(), requests.size());
  EXPECT_EQ(batch.ok_count(), requests.size());
  EXPECT_GT(batch.states_examined, 0u);
  EXPECT_GE(batch.wall_ms, 0.0);

  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(batch.results[i].ok()) << i;
    auto want = personalizer.Personalize(requests[i]);
    ASSERT_TRUE(want.ok()) << i;
    const PersonalizeResult& got = *batch.results[i];
    EXPECT_EQ(got.solution.feasible, want->solution.feasible) << i;
    EXPECT_EQ(got.solution.chosen, want->solution.chosen) << i;
    EXPECT_EQ(got.solution.params.doi, want->solution.params.doi) << i;
    EXPECT_EQ(got.solution.params.cost_ms, want->solution.params.cost_ms)
        << i;
    EXPECT_EQ(got.solution.params.size, want->solution.params.size) << i;
    EXPECT_EQ(got.final_sql, want->final_sql) << i;
    EXPECT_EQ(got.rung, want->rung) << i;
  }
}

TEST_F(PersonalizerTest, BatchSharedCacheReportsHitsWithoutChangingAnswers) {
  Personalizer personalizer(&db_, graph_.get());
  auto sequential_want = [&] {
    PersonalizeRequest request;
    request.sql = "SELECT title FROM MOVIE";
    request.problem = cqp::ProblemSpec::Problem2(1e9);
    request.algorithm = "C-Boundaries";
    return *personalizer.Personalize(request);
  }();

  // All requests share one (query, profile), so sharing one memo is legal.
  estimation::EvalCache cache;
  std::vector<PersonalizeRequest> requests(6);
  for (auto& request : requests) {
    request.sql = "SELECT title FROM MOVIE";
    request.problem = cqp::ProblemSpec::Problem2(1e9);
    request.algorithm = "C-Boundaries";
    request.eval_cache = &cache;
  }
  BatchOptions options;
  options.num_threads = 3;
  BatchResult batch = personalizer.PersonalizeBatch(requests, options);
  EXPECT_EQ(batch.ok_count(), requests.size());
  EXPECT_GT(batch.eval_cache_hits + batch.eval_cache_misses, 0u);
  EXPECT_GT(batch.eval_cache_hits, 0u);  // repeats must hit the shared memo
  for (const auto& result : batch.results) {
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->solution.chosen, sequential_want.solution.chosen);
    EXPECT_EQ(result->solution.params.doi, sequential_want.solution.params.doi);
    EXPECT_EQ(result->solution.params.cost_ms,
              sequential_want.solution.params.cost_ms);
  }
}

TEST_F(PersonalizerTest, PreCancelledBatchAnswersEveryRequestViaLadder) {
  // A CancelToken cancelled before the batch starts exhausts the primary
  // rung instantly; every request must still come back OK (degraded) with
  // an executable query — never a torn or missing result.
  ::cqp::CancelToken cancel;
  cancel.Cancel();
  Personalizer personalizer(&db_, graph_.get());
  std::vector<PersonalizeRequest> requests(8);
  for (auto& request : requests) {
    request.sql = "SELECT title FROM MOVIE";
    request.problem = cqp::ProblemSpec::Problem2(1e9);
    request.algorithm = "C-Boundaries";
    request.budget.cancel = &cancel;
  }
  BatchOptions options;
  options.num_threads = 4;
  BatchResult batch = personalizer.PersonalizeBatch(requests, options);
  ASSERT_EQ(batch.results.size(), requests.size());
  EXPECT_EQ(batch.ok_count(), requests.size());
  EXPECT_EQ(batch.degraded, requests.size());
  for (const auto& result : batch.results) {
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->degraded());
    EXPECT_NE(result->final_sql.find("SELECT"), std::string::npos);
    // The answer is internally consistent: whatever rung answered, the
    // chosen set and the printed SQL agree on the number of sub-queries.
    EXPECT_EQ(result->personalized.L(), result->solution.feasible
                                            ? result->personalized.L()
                                            : 0u);
  }
}

TEST_F(PersonalizerTest, EmptyBatchIsANoOp) {
  Personalizer personalizer(&db_, graph_.get());
  BatchResult batch = personalizer.PersonalizeBatch({});
  EXPECT_TRUE(batch.results.empty());
  EXPECT_EQ(batch.ok_count(), 0u);
  EXPECT_EQ(batch.degraded, 0u);
}

// ---------- degradation ladder ----------

/// Keeps every ladder test hermetic: no armed failpoint leaks in or out.
class FallbackTest : public PersonalizerTest {
 protected:
  void SetUp() override { failpoint::Reset(); }
  void TearDown() override {
    failpoint::Reset();
    unsetenv("CQP_FAILPOINTS");
  }

  PersonalizeRequest LooseDoiRequest() const {
    PersonalizeRequest request;
    request.sql = "SELECT title FROM MOVIE";
    request.problem = cqp::ProblemSpec::Problem2(1e9);
    request.algorithm = "C-Boundaries";
    return request;
  }
};

TEST_F(FallbackTest, HealthyRequestAnswersOnPrimaryRung) {
  Personalizer personalizer(&db_, graph_.get());
  auto result = personalizer.Personalize(LooseDoiRequest());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rung, FallbackRung::kPrimary);
  EXPECT_FALSE(result->degraded());
  ASSERT_EQ(result->attempts.size(), 1u);
  EXPECT_NE(result->attempts[0].find("C-Boundaries"), std::string::npos);
}

TEST_F(FallbackTest, SolverFaultDescendsToHeuristicRung) {
  ASSERT_TRUE(failpoint::Configure("cqp.solve=1.0:1").ok());
  Personalizer personalizer(&db_, graph_.get());
  auto result = personalizer.Personalize(LooseDoiRequest());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rung, FallbackRung::kHeuristic);
  EXPECT_TRUE(result->degraded());
  EXPECT_TRUE(result->solution.feasible);
  EXPECT_TRUE(result->solution.degraded);
  ASSERT_GE(result->attempts.size(), 2u);
  EXPECT_NE(result->attempts[0].find("injected fault"), std::string::npos);
  EXPECT_NE(result->attempts[1].find("D-HeurDoi"), std::string::npos);
}

TEST_F(FallbackTest, UnavailableHeuristicDescendsToTopK) {
  ASSERT_TRUE(failpoint::Configure("cqp.solve=1.0:1").ok());
  Personalizer personalizer(&db_, graph_.get());
  PersonalizeRequest request = LooseDoiRequest();
  // A heuristic naming the primary algorithm is skipped, forcing rung 3.
  request.fallback.heuristic = "C-Boundaries";
  auto result = personalizer.Personalize(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rung, FallbackRung::kTopK);
  EXPECT_TRUE(result->degraded());
  EXPECT_TRUE(result->solution.feasible);
  ASSERT_GE(result->attempts.size(), 3u);
  EXPECT_NE(result->attempts[1].find("skipped"), std::string::npos);
}

TEST_F(FallbackTest, EveryRungExhaustedLandsOnOriginalQuery) {
  // Rung 1 faulted, rung 2 skipped, rung 3 infeasible (cmax below cost(Q)
  // rules out every non-empty prefix): the ladder bottoms out.
  ASSERT_TRUE(failpoint::Configure("cqp.solve=1.0:1").ok());
  Personalizer personalizer(&db_, graph_.get());
  PersonalizeRequest request = LooseDoiRequest();
  request.problem = cqp::ProblemSpec::Problem2(1e-6);
  request.fallback.heuristic = "C-Boundaries";
  auto result = personalizer.Personalize(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rung, FallbackRung::kOriginal);
  EXPECT_TRUE(result->degraded());
  EXPECT_FALSE(result->solution.feasible);
  ASSERT_EQ(result->attempts.size(), 4u);
  EXPECT_NE(result->attempts[3].find("original"), std::string::npos);

  // The unpersonalized query still executes.
  exec::ExecStats stats;
  auto rows = personalizer.Execute(*result, &stats);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 6u);
}

TEST_F(FallbackTest, ExtractionFaultFromEnvFallsToOriginal) {
  // The acceptance scenario: CQP_FAILPOINTS=space.extract=1.0:42 in the
  // environment must degrade to the original query, not fail.
  setenv("CQP_FAILPOINTS", "space.extract=1.0:42", 1);
  ASSERT_TRUE(failpoint::ReloadFromEnv().ok());
  Personalizer personalizer(&db_, graph_.get());
  auto result = personalizer.Personalize(LooseDoiRequest());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rung, FallbackRung::kOriginal);
  EXPECT_TRUE(result->degraded());
  EXPECT_FALSE(result->solution.feasible);
  ASSERT_GE(result->attempts.size(), 1u);
  EXPECT_NE(result->attempts[0].find("extract"), std::string::npos);
  EXPECT_NE(result->final_sql.find("SELECT"), std::string::npos);
}

TEST_F(FallbackTest, DisabledFallbackPropagatesInjectedFault) {
  ASSERT_TRUE(failpoint::Configure("space.extract=1.0:1").ok());
  Personalizer personalizer(&db_, graph_.get());
  PersonalizeRequest request = LooseDoiRequest();
  request.fallback.enabled = false;
  auto result = personalizer.Personalize(request);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST_F(FallbackTest, FaultedRetryIsDeterministic) {
  ASSERT_TRUE(failpoint::Configure("cqp.solve=1.0:9").ok());
  Personalizer personalizer(&db_, graph_.get());
  auto a = personalizer.Personalize(LooseDoiRequest());
  ASSERT_TRUE(failpoint::Configure("cqp.solve=1.0:9").ok());
  auto b = personalizer.Personalize(LooseDoiRequest());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->rung, b->rung);
  EXPECT_EQ(a->attempts, b->attempts);
  EXPECT_EQ(a->final_sql, b->final_sql);
}

TEST_F(FallbackTest, OneMillisecondDeadlineOnLargestProfileStillAnswers) {
  // The acceptance scenario: a realistic (workload-generated) database and
  // the largest profile the generator produces, personalized under a 1 ms
  // deadline, must come back OK and feasible — degraded is fine.
  workload::MovieDbConfig db_config;
  db_config.n_movies = 800;
  db_config.n_directors = 60;
  db_config.n_actors = 150;
  auto big_db = *workload::BuildMovieDatabase(db_config);

  workload::ProfileGenConfig profile_config;
  profile_config.n_genre_prefs = 24;
  profile_config.n_director_prefs = 30;
  profile_config.n_actor_prefs = 30;
  profile_config.n_year_prefs = 16;
  profile_config.n_duration_prefs = 12;
  auto profile = *workload::GenerateProfile(profile_config, db_config);
  auto graph = *prefs::PersonalizationGraph::Build(std::move(profile), big_db);

  Personalizer personalizer(&big_db, &graph);
  PersonalizeRequest request;
  request.sql = "SELECT title FROM MOVIE";
  request.problem = cqp::ProblemSpec::Problem2(1e9);
  request.algorithm = "C-Boundaries";
  request.budget = ::cqp::SearchBudget::AfterMillis(1.0);
  auto result = personalizer.Personalize(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->solution.feasible);
  // Either the primary finished inside 1 ms or the answer is flagged.
  if (result->rung != FallbackRung::kPrimary || result->solution.degraded) {
    EXPECT_TRUE(result->degraded());
  }
}

}  // namespace
}  // namespace cqp::construct
