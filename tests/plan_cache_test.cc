#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "construct/personalizer.h"
#include "construct/plan_cache.h"
#include "server/profile_store.h"
#include "space/prepared_space.h"
#include "space/preference_space.h"
#include "sql/fingerprint.h"
#include "sql/parser.h"
#include "test_util.h"

namespace cqp::construct {
namespace {

uint64_t Fp(const std::string& sql) {
  auto q = sql::ParseSelect(sql);
  CQP_CHECK(q.ok()) << q.status().ToString();
  return sql::QueryFingerprint(*q);
}

std::string Canon(const std::string& sql) {
  auto q = sql::ParseSelect(sql);
  CQP_CHECK(q.ok()) << q.status().ToString();
  return sql::CanonicalQueryText(*q);
}

// ---------- canonical query fingerprint ----------

TEST(QueryFingerprint, IgnoresWhitespaceAndCase) {
  EXPECT_EQ(Fp("SELECT title FROM MOVIE WHERE year > 1970"),
            Fp("select   title\n from movie\twhere year>1970"));
}

TEST(QueryFingerprint, IgnoresConjunctOrder) {
  EXPECT_EQ(Fp("SELECT title FROM MOVIE WHERE year > 1970 AND duration <= 120"),
            Fp("SELECT title FROM MOVIE WHERE duration <= 120 AND year > 1970"));
}

TEST(QueryFingerprint, CanonicalizesEquivalentNumericLiterals) {
  EXPECT_EQ(Fp("SELECT title FROM MOVIE WHERE year > 1970"),
            Fp("SELECT title FROM MOVIE WHERE year > 1970.0"));
}

TEST(QueryFingerprint, ResolvesUniqueAliasToRelation) {
  EXPECT_EQ(Fp("SELECT M.title FROM MOVIE M WHERE M.year > 1970"),
            Fp("SELECT MOVIE.title FROM MOVIE WHERE MOVIE.year > 1970"));
}

TEST(QueryFingerprint, OrdersJoinSidesCanonically) {
  EXPECT_EQ(Fp("SELECT title FROM MOVIE, DIRECTOR "
               "WHERE MOVIE.did = DIRECTOR.did"),
            Fp("SELECT title FROM MOVIE, DIRECTOR "
               "WHERE DIRECTOR.did = MOVIE.did"));
  // Inequality joins mirror the operator when the sides swap.
  EXPECT_EQ(Fp("SELECT title FROM MOVIE, DIRECTOR "
               "WHERE DIRECTOR.did < MOVIE.did"),
            Fp("SELECT title FROM MOVIE, DIRECTOR "
               "WHERE MOVIE.did > DIRECTOR.did"));
}

TEST(QueryFingerprint, SelfJoinKeepsAliasesButNormalizesSpelling) {
  EXPECT_EQ(Fp("SELECT a.title FROM MOVIE a, MOVIE b WHERE a.did = b.did"),
            Fp("SELECT A.title FROM MOVIE A, MOVIE B WHERE A.did = B.did"));
}

TEST(QueryFingerprint, DistinctQueriesGetDistinctFingerprints) {
  const std::vector<std::string> queries = {
      "SELECT title FROM MOVIE",
      "SELECT DISTINCT title FROM MOVIE",
      "SELECT year FROM MOVIE",
      "SELECT title FROM DIRECTOR",
      "SELECT title FROM MOVIE WHERE year > 1970",
      "SELECT title FROM MOVIE WHERE year > 1971",
      "SELECT title FROM MOVIE WHERE year >= 1970",
      "SELECT title FROM MOVIE ORDER BY title",
      "SELECT title FROM MOVIE ORDER BY title DESC",
      "SELECT title FROM MOVIE LIMIT 5",
  };
  for (size_t i = 0; i < queries.size(); ++i) {
    for (size_t j = i + 1; j < queries.size(); ++j) {
      EXPECT_NE(Fp(queries[i]), Fp(queries[j]))
          << "'" << queries[i] << "' vs '" << queries[j] << "' both canonify "
          << "to " << Canon(queries[i]);
    }
  }
}

TEST(QueryFingerprint, OrderByOrderIsSemantic) {
  // ORDER BY keys are NOT commutative — their order must survive.
  EXPECT_NE(Fp("SELECT title, year FROM MOVIE ORDER BY year, title"),
            Fp("SELECT title, year FROM MOVIE ORDER BY title, year"));
}

// ---------- PlanCache (LRU, invalidation, stats) ----------

std::shared_ptr<const space::PreparedSpace> EmptyPrepared() {
  return space::PreparedSpace::Create(space::PreferenceSpaceResult());
}

PlanCache::Key MakeKey(uint64_t fp, const std::string& profile,
                       uint64_t version = 1) {
  PlanCache::Key key;
  key.query_fingerprint = fp;
  key.profile_id = profile;
  key.profile_version = version;
  key.config = "cfg";
  return key;
}

TEST(PlanCacheTest, FindMissThenHit) {
  PlanCache cache(4);
  PlanCache::Key key = MakeKey(1, "u");
  EXPECT_EQ(cache.Find(key), nullptr);
  auto prepared = EmptyPrepared();
  cache.Insert(key, prepared);
  EXPECT_EQ(cache.Find(key), prepared);
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsed) {
  PlanCache cache(2);
  cache.Insert(MakeKey(1, "u"), EmptyPrepared());
  cache.Insert(MakeKey(2, "u"), EmptyPrepared());
  // Touch key 1 so key 2 becomes the LRU victim.
  EXPECT_NE(cache.Find(MakeKey(1, "u")), nullptr);
  cache.Insert(MakeKey(3, "u"), EmptyPrepared());
  EXPECT_NE(cache.Find(MakeKey(1, "u")), nullptr);
  EXPECT_EQ(cache.Find(MakeKey(2, "u")), nullptr);
  EXPECT_NE(cache.Find(MakeKey(3, "u")), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCacheTest, ReplacingAKeyDoesNotGrowTheCache) {
  PlanCache cache(2);
  PlanCache::Key key = MakeKey(1, "u");
  cache.Insert(key, EmptyPrepared());
  auto replacement = EmptyPrepared();
  cache.Insert(key, replacement);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Find(key), replacement);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(PlanCacheTest, VersionIsPartOfTheKey) {
  PlanCache cache(4);
  cache.Insert(MakeKey(1, "u", 1), EmptyPrepared());
  EXPECT_EQ(cache.Find(MakeKey(1, "u", 2)), nullptr);
}

TEST(PlanCacheTest, InvalidateProfileDropsOnlyThatProfile) {
  PlanCache cache(8);
  cache.Insert(MakeKey(1, "alice", 1), EmptyPrepared());
  cache.Insert(MakeKey(1, "alice", 2), EmptyPrepared());
  cache.Insert(MakeKey(1, "bob"), EmptyPrepared());
  EXPECT_EQ(cache.InvalidateProfile("alice"), 2u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.Find(MakeKey(1, "bob")), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 2u);
}

TEST(PlanCacheTest, ClearCountsAsInvalidation) {
  PlanCache cache(8);
  cache.Insert(MakeKey(1, "u"), EmptyPrepared());
  cache.Insert(MakeKey(2, "u"), EmptyPrepared());
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 2u);
}

// ---------- hot-reload invalidation through the ProfileStore ----------

TEST(ProfileStorePlans, PutInvalidatesThatProfilesPlans) {
  storage::Database db = ::cqp::testing::MakeTinyMovieDb();
  server::ProfileStore store(&db);
  auto profile = *prefs::Profile::Parse("doi(MOVIE.year >= 1970) = 0.6");
  ASSERT_TRUE(store.Put("u", profile).ok());

  store.plans_for("u").Insert(MakeKey(7, "u", store.FindSnapshot("u").version),
                       EmptyPrepared());
  store.plans_for("u").Insert(MakeKey(7, "other"), EmptyPrepared());
  ASSERT_EQ(store.plans_for("u").size(), 2u);

  // Hot reload of "u": its plans vanish, other profiles' plans survive.
  ASSERT_TRUE(store.Put("u", profile).ok());
  EXPECT_EQ(store.plans_for("u").size(), 1u);
  EXPECT_NE(store.plans_for("u").Find(MakeKey(7, "other")), nullptr);

  ASSERT_TRUE(store.Remove("u").ok());
  // Remove sweeps again (nothing left for "u" — counters still move).
  EXPECT_EQ(store.plans_for("u").size(), 1u);
}

// ---------- the prepared pipeline end to end ----------

class PreparedPipelineTest : public ::testing::Test {
 protected:
  PreparedPipelineTest()
      : db_(::cqp::testing::MakeTinyMovieDb()), estimator_(&db_) {
    auto profile = *prefs::Profile::Parse(R"(
        doi(GENRE.genre = 'musical') = 0.5
        doi(GENRE.genre = 'comedy') = 0.4
        doi(GENRE.genre = 'horror') = 0.1
        doi(MOVIE.mid = GENRE.mid) = 0.9
        doi(MOVIE.did = DIRECTOR.did) = 1.0
        doi(DIRECTOR.name = 'W. Allen') = 0.8
        doi(DIRECTOR.name = 'S. Kubrick') = 0.3
        doi(MOVIE.year >= 1970) = 0.6
        doi(MOVIE.duration <= 120) = 0.2
    )");
    graph_ = std::make_unique<prefs::PersonalizationGraph>(
        *prefs::PersonalizationGraph::Build(std::move(profile), db_));
  }

  /// Six Table-1 problems with bounds chosen from the actual extracted
  /// parameter ranges, so the cmax/smin bounds genuinely prune.
  std::vector<cqp::ProblemSpec> SixProblems(
      const space::PreferenceSpaceResult& space) {
    double max_cost = 0.0, max_size = 0.0;
    for (const auto& p : space.prefs) {
      max_cost = std::max(max_cost, p.cost_ms);
      max_size = std::max(max_size, p.size);
    }
    double cmax = max_cost * 0.99;  // prunes the most expensive pref(s)
    double smin = 1.0;
    double smax = max_size * 10.0;
    return {
        cqp::ProblemSpec::Problem1(smin, smax),
        cqp::ProblemSpec::Problem2(cmax),
        cqp::ProblemSpec::Problem3(cmax, smin, smax),
        cqp::ProblemSpec::Problem4(0.3),
        cqp::ProblemSpec::Problem5(0.3, smin, smax),
        cqp::ProblemSpec::Problem6(smin, smax),
    };
  }

  storage::Database db_;
  estimation::ParameterEstimator estimator_;
  std::unique_ptr<prefs::PersonalizationGraph> graph_;
};

TEST_F(PreparedPipelineTest, OneExtractionServesAllSixProblemClasses) {
  const std::string sql = "SELECT title FROM MOVIE";
  auto q = *sql::ParseSelect(sql);
  space::PreferenceSpaceOptions options;

  auto unpruned =
      space::ExtractPreferenceSpace(q, *graph_, estimator_, options);
  ASSERT_TRUE(unpruned.ok()) << unpruned.status().ToString();
  ASSERT_GT(unpruned->K(), 0u);
  auto prepared = space::PreparedSpace::Create(*unpruned);

  bool any_pruned = false;
  for (const cqp::ProblemSpec& problem : SixProblems(*unpruned)) {
    SCOPED_TRACE(problem.ToString());
    auto view = prepared->ForProblem(problem);
    auto legacy =
        space::ExtractPreferenceSpace(q, *graph_, estimator_, problem, options);
    ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
    ASSERT_EQ(view->K(), legacy->K());
    for (size_t i = 0; i < view->K(); ++i) {
      EXPECT_EQ(view->prefs[i].doi, legacy->prefs[i].doi);
      EXPECT_EQ(view->prefs[i].cost_ms, legacy->prefs[i].cost_ms);
      EXPECT_EQ(view->prefs[i].selectivity, legacy->prefs[i].selectivity);
      EXPECT_EQ(view->prefs[i].size, legacy->prefs[i].size);
    }
    EXPECT_EQ(view->D.size(), legacy->D.size());
    EXPECT_EQ(view->C, legacy->C);
    EXPECT_EQ(view->S, legacy->S);
    if (view->K() < prepared->K()) any_pruned = true;
  }
  // The bounds were picked to bite: at least one class saw a strict view.
  EXPECT_TRUE(any_pruned);
}

TEST_F(PreparedPipelineTest, SolveFromOnePreparedQueryMatchesPersonalize) {
  Personalizer personalizer(&db_, graph_.get());
  const std::string sql = "SELECT title FROM MOVIE";

  PersonalizeRequest prepare_request;
  prepare_request.sql = sql;
  auto prepared = personalizer.Prepare(prepare_request);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_FALSE(prepared->cache_hit);
  EXPECT_EQ(prepared->fingerprint, Fp(sql));

  for (const cqp::ProblemSpec& problem :
       SixProblems(*prepared->space->unpruned())) {
    SCOPED_TRACE(problem.ToString());
    PersonalizeRequest request;
    request.sql = sql;
    request.problem = problem;
    request.algorithm = "auto";

    auto direct = personalizer.Personalize(request);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    auto split = personalizer.Solve(*prepared, request);
    ASSERT_TRUE(split.ok()) << split.status().ToString();

    EXPECT_EQ(split->final_sql, direct->final_sql);
    EXPECT_EQ(split->rung, direct->rung);
    EXPECT_EQ(split->solution.feasible, direct->solution.feasible);
    EXPECT_EQ(split->solution.chosen, direct->solution.chosen);
    EXPECT_EQ(split->solution.params.doi, direct->solution.params.doi);
    EXPECT_EQ(split->solution.params.cost_ms, direct->solution.params.cost_ms);
    EXPECT_EQ(split->solution.params.size, direct->solution.params.size);
  }
}

TEST_F(PreparedPipelineTest, PersonalizeHitsThePlanCacheAcrossSpellings) {
  Personalizer personalizer(&db_, graph_.get());
  PlanCache cache;

  PersonalizeRequest request;
  request.sql = "SELECT title FROM MOVIE WHERE year > 1970";
  request.problem = cqp::ProblemSpec::Problem2(1e9);
  request.plan_cache = &cache;
  request.profile_id = "u";
  request.profile_version = 1;

  auto cold = personalizer.Personalize(request);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold->plan_cache_hit);

  // A different spelling of the same query still hits. The rendered SQL
  // keeps the caller's own spelling (construction works on the request's
  // parsed query); the ANSWER — chosen set and parameters — is shared.
  request.sql = "select  TITLE from movie where YEAR>1970.0";
  auto warm = personalizer.Personalize(request);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->plan_cache_hit);
  EXPECT_EQ(warm->solution.chosen, cold->solution.chosen);
  EXPECT_EQ(warm->solution.params.doi, cold->solution.params.doi);
  EXPECT_EQ(warm->solution.params.cost_ms, cold->solution.params.cost_ms);

  // A profile-version bump makes every cached plan unreachable.
  request.profile_version = 2;
  auto reloaded = personalizer.Personalize(request);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_FALSE(reloaded->plan_cache_hit);

  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST_F(PreparedPipelineTest, BatchCountsPlanCacheHits) {
  Personalizer personalizer(&db_, graph_.get());
  PlanCache cache;
  PersonalizeRequest request;
  request.sql = "SELECT title FROM MOVIE";
  request.problem = cqp::ProblemSpec::Problem2(1e9);
  request.plan_cache = &cache;
  request.profile_id = "u";
  request.profile_version = 1;
  std::vector<PersonalizeRequest> requests(6, request);

  BatchOptions options;
  options.num_threads = 3;
  BatchResult batch = personalizer.PersonalizeBatch(requests, options);
  EXPECT_EQ(batch.ok_count(), 6u);
  // At least the requests after the first finished Prepare() hit; with
  // racing workers the exact count is timing-dependent, but every result
  // must agree with the first.
  EXPECT_EQ(batch.plan_cache_hits + cache.stats().misses, 6u);
  const PersonalizeResult& first = *batch.results[0];
  for (const auto& r : batch.results) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->final_sql, first.final_sql);
    EXPECT_EQ(r->solution.chosen, first.solution.chosen);
  }
}

}  // namespace
}  // namespace cqp::construct
