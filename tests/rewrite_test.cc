#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "catalog/constraints.h"
#include "construct/personalizer.h"
#include "construct/query_builder.h"
#include "rewrite/ir.h"
#include "rewrite/passes.h"
#include "rewrite/range.h"
#include "space/preference_space.h"
#include "sql/fingerprint.h"
#include "sql/parser.h"
#include "storage/constraints.h"
#include "test_util.h"

namespace cqp::rewrite {
namespace {

using catalog::CompareOp;
using catalog::ConstraintSet;
using catalog::DomainConstraint;
using catalog::ImplicationConstraint;
using catalog::Value;
using sql::ColumnRef;
using sql::ParseSelect;
using sql::Predicate;

// ---------------------------------------------------------------------------
// ValueRange
// ---------------------------------------------------------------------------

TEST(ValueRangeTest, DisjointBoundsAreEmpty) {
  ValueRange r;
  r.Intersect(CompareOp::kGt, Value(int64_t{5}));
  r.Intersect(CompareOp::kLt, Value(int64_t{3}));
  EXPECT_TRUE(r.Empty());
}

TEST(ValueRangeTest, TouchingStrictBoundsAreEmpty) {
  ValueRange r;
  r.Intersect(CompareOp::kGe, Value(int64_t{5}));
  r.Intersect(CompareOp::kLt, Value(int64_t{5}));
  EXPECT_TRUE(r.Empty());
}

TEST(ValueRangeTest, EqualityExcludedByNe) {
  ValueRange r;
  r.Intersect(CompareOp::kEq, Value("horror"));
  EXPECT_FALSE(r.Empty());
  r.Intersect(CompareOp::kNe, Value("horror"));
  EXPECT_TRUE(r.Empty());
}

TEST(ValueRangeTest, TighterBoundImpliesLooserConjunct) {
  ValueRange r;
  r.Intersect(CompareOp::kGe, Value(int64_t{1970}));
  EXPECT_TRUE(r.Implies(CompareOp::kGe, Value(int64_t{1960})));
  EXPECT_TRUE(r.Implies(CompareOp::kGt, Value(int64_t{1969})));
  EXPECT_FALSE(r.Implies(CompareOp::kGe, Value(int64_t{1980})));
  EXPECT_FALSE(r.Implies(CompareOp::kLe, Value(int64_t{2000})));
}

TEST(ValueRangeTest, EmptyRangeImpliesVacuously) {
  ValueRange r;
  r.Intersect(CompareOp::kGt, Value(int64_t{10}));
  r.Intersect(CompareOp::kLt, Value(int64_t{0}));
  ASSERT_TRUE(r.Empty());
  EXPECT_TRUE(r.Implies(CompareOp::kEq, Value("anything")));
}

TEST(ValueRangeTest, TypeConflictPoisonsConservatively) {
  ValueRange r;
  r.Intersect(CompareOp::kGt, Value(int64_t{5}));
  r.Intersect(CompareOp::kLt, Value("abc"));
  EXPECT_TRUE(r.unusable());
  // An unusable range proves nothing in either direction.
  EXPECT_FALSE(r.Empty());
  EXPECT_FALSE(r.Implies(CompareOp::kGt, Value(int64_t{0})));
  EXPECT_TRUE(r.MayContain(Value(int64_t{42})));
}

TEST(ValueRangeTest, MayContainRespectsBoundsAndExclusions) {
  ValueRange r;
  r.Intersect(CompareOp::kGe, Value(int64_t{1960}));
  r.Intersect(CompareOp::kLe, Value(int64_t{1990}));
  r.Intersect(CompareOp::kNe, Value(int64_t{1970}));
  EXPECT_TRUE(r.MayContain(Value(int64_t{1980})));
  EXPECT_FALSE(r.MayContain(Value(int64_t{1959})));
  EXPECT_FALSE(r.MayContain(Value(int64_t{1991})));
  EXPECT_FALSE(r.MayContain(Value(int64_t{1970})));
}

// ---------------------------------------------------------------------------
// Constraint language
// ---------------------------------------------------------------------------

TEST(ConstraintSetTest, ToTextRoundTrips) {
  ConstraintSet set;
  set.AddKey({"MOVIE", {"mid"}});
  set.AddKey({"GENRE", {"mid", "genre"}});
  set.AddDomain({"MOVIE", "year", Value(int64_t{1930}), Value(int64_t{2005})});
  set.AddDomain({"GENRE", "genre", Value("comedy"), std::nullopt});
  set.AddImplication({"GENRE", "genre", Value("horror"), "rating",
                      CompareOp::kGe, Value("R")});

  auto reparsed = catalog::ParseConstraintSet(set.ToText());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->ToText(), set.ToText());
  EXPECT_EQ(reparsed->size(), set.size());
}

TEST(ConstraintSetTest, ParseRejectsCrossRelationImplication) {
  auto parsed = catalog::ParseConstraintSet(
      "imply GENRE.genre = 'horror' => MOVIE.year >= 1960");
  EXPECT_FALSE(parsed.ok());
}

TEST(ConstraintSetTest, ParseRejectsMalformedLine) {
  EXPECT_FALSE(catalog::ParseConstraintSet("domain MOVIE.year [1, 2]").ok());
  EXPECT_FALSE(catalog::ParseConstraintSet("frobnicate MOVIE").ok());
}

TEST(ConstraintSetTest, ParseAcceptsCommentsAndOpenBounds) {
  auto parsed = catalog::ParseConstraintSet(R"(
# mined 2005-01-01
domain MOVIE.year in [1930, *]

key MOVIE(mid)
)");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->domains().size(), 1u);
  EXPECT_FALSE(parsed->domains()[0].max.has_value());
  EXPECT_EQ(parsed->keys().size(), 1u);
}

TEST(ConstraintSetTest, LookupsAreCaseInsensitive) {
  ConstraintSet set;
  set.AddDomain({"MOVIE", "year", Value(int64_t{1930}), Value(int64_t{2005})});
  EXPECT_EQ(set.DomainsFor("movie", "YEAR").size(), 1u);
  EXPECT_EQ(set.DomainsFor("movie", "mid").size(), 0u);
}

// ---------------------------------------------------------------------------
// Satisfiability core
// ---------------------------------------------------------------------------

ConstraintSet HorrorConstraints() {
  ConstraintSet set;
  set.AddDomain({"MOVIE", "year", Value(int64_t{1958}), Value(int64_t{1996})});
  set.AddImplication({"GENRE", "genre", Value("horror"), "rating",
                      CompareOp::kGe, Value("R")});
  return set;
}

TEST(ConjunctsUnsatisfiableTest, DomainContradictionDetected) {
  AliasMap aliases{{"MOVIE", "MOVIE"}};
  std::vector<Predicate> conjuncts{Predicate::Selection(
      ColumnRef{"MOVIE", "year"}, CompareOp::kGe, Value(int64_t{2100}))};
  EXPECT_TRUE(ConjunctsUnsatisfiable(conjuncts, aliases, HorrorConstraints()));

  conjuncts[0] = Predicate::Selection(ColumnRef{"MOVIE", "year"},
                                      CompareOp::kGe, Value(int64_t{1970}));
  EXPECT_FALSE(ConjunctsUnsatisfiable(conjuncts, aliases, HorrorConstraints()));
}

TEST(ConjunctsUnsatisfiableTest, ImplicationContradictionDetected) {
  AliasMap aliases{{"G", "GENRE"}};
  std::vector<Predicate> conjuncts{
      Predicate::Selection(ColumnRef{"G", "genre"}, CompareOp::kEq,
                           Value("horror")),
      Predicate::Selection(ColumnRef{"G", "rating"}, CompareOp::kEq,
                           Value("G"))};
  // genre='horror' forces rating>='R', which contradicts rating='G'.
  EXPECT_TRUE(ConjunctsUnsatisfiable(conjuncts, aliases, HorrorConstraints()));

  conjuncts[1] = Predicate::Selection(ColumnRef{"G", "rating"}, CompareOp::kEq,
                                      Value("R"));
  EXPECT_FALSE(ConjunctsUnsatisfiable(conjuncts, aliases, HorrorConstraints()));
}

TEST(ConjunctsUnsatisfiableTest, SelfContradictionNeedsNoConstraints) {
  AliasMap aliases{{"MOVIE", "MOVIE"}};
  std::vector<Predicate> conjuncts{
      Predicate::Selection(ColumnRef{"MOVIE", "year"}, CompareOp::kGt,
                           Value(int64_t{1980})),
      Predicate::Selection(ColumnRef{"MOVIE", "year"}, CompareOp::kLt,
                           Value(int64_t{1970}))};
  EXPECT_TRUE(ConjunctsUnsatisfiable(conjuncts, aliases, ConstraintSet()));
}

TEST(ConjunctsUnsatisfiableTest, JoinConjunctsIgnored) {
  AliasMap aliases{{"MOVIE", "MOVIE"}, {"G", "GENRE"}};
  std::vector<Predicate> conjuncts{Predicate::Join(
      ColumnRef{"MOVIE", "mid"}, CompareOp::kEq, ColumnRef{"G", "mid"})};
  EXPECT_FALSE(ConjunctsUnsatisfiable(conjuncts, aliases, HorrorConstraints()));
}

// ---------------------------------------------------------------------------
// IR passes
// ---------------------------------------------------------------------------

BranchIR MakeBranch(const std::string& sql, std::vector<int32_t> prefs,
                    double doi) {
  BranchIR branch;
  branch.query = *ParseSelect(sql);
  branch.prefs = std::move(prefs);
  branch.doi = doi;
  return branch;
}

QueryIR MakeIR(const std::string& base_sql, std::vector<BranchIR> branches) {
  QueryIR ir;
  ir.base = *ParseSelect(base_sql);
  ir.branches = std::move(branches);
  return ir;
}

TEST(EliminateRedundantConjunctsTest, DropsDomainTautology) {
  // year >= 1900 is implied by the domain [1958, 1996]; year >= 1970 is not.
  QueryIR ir = MakeIR(
      "SELECT MOVIE.title FROM MOVIE",
      {MakeBranch("SELECT MOVIE.title FROM MOVIE WHERE MOVIE.year >= 1900 "
                  "AND MOVIE.year >= 1970",
                  {0}, 0.6)});
  RewriteStats stats;
  ir = EliminateRedundantConjuncts(std::move(ir), HorrorConstraints(), &stats);
  ASSERT_EQ(ir.branches.size(), 1u);
  ASSERT_EQ(ir.branches[0].query.where.size(), 1u);
  EXPECT_EQ(ir.branches[0].query.where[0].literal.AsInt(), 1970);
  EXPECT_EQ(stats.conjuncts_dropped, 1u);
}

TEST(EliminateRedundantConjunctsTest, DropsDuplicateAndMirroredJoin) {
  QueryIR ir = MakeIR("SELECT MOVIE.title FROM MOVIE",
                      {MakeBranch("SELECT MOVIE.title FROM MOVIE, GENRE g "
                                  "WHERE MOVIE.mid = g.mid",
                                  {0}, 0.5)});
  // Append the mirrored spelling of the same join and an exact duplicate
  // selection.
  ir.branches[0].query.where.push_back(Predicate::Join(
      ColumnRef{"g", "mid"}, CompareOp::kEq, ColumnRef{"MOVIE", "mid"}));
  ir.branches[0].query.where.push_back(Predicate::Selection(
      ColumnRef{"g", "genre"}, CompareOp::kEq, Value("horror")));
  ir.branches[0].query.where.push_back(Predicate::Selection(
      ColumnRef{"g", "genre"}, CompareOp::kEq, Value("horror")));
  RewriteStats stats;
  ir = EliminateRedundantConjuncts(std::move(ir), ConstraintSet(), &stats);
  ASSERT_EQ(ir.branches.size(), 1u);
  EXPECT_EQ(ir.branches[0].query.where.size(), 2u);
  EXPECT_EQ(stats.conjuncts_dropped, 2u);
}

TEST(EliminateRedundantConjunctsTest, DropsImplicationRedundantConjunct) {
  // genre='horror' already forces rating >= 'R' >= 'PG'.
  QueryIR ir = MakeIR(
      "SELECT MOVIE.title FROM MOVIE",
      {MakeBranch("SELECT MOVIE.title FROM MOVIE, GENRE g WHERE "
                  "g.genre = 'horror' AND g.rating >= 'PG'",
                  {0}, 0.4)});
  RewriteStats stats;
  ir = EliminateRedundantConjuncts(std::move(ir), HorrorConstraints(), &stats);
  ASSERT_EQ(ir.branches.size(), 1u);
  EXPECT_EQ(ir.branches[0].query.where.size(), 1u);
  EXPECT_EQ(stats.conjuncts_dropped, 1u);
}

TEST(MergeSubsumedBranchesTest, WeakerBranchFoldsIntoStronger) {
  // Branch 0's conjuncts are a strict subset of branch 1's, so branch 0 is
  // the weaker filter: it survives as merged preference indices and a
  // noisy-or doi on branch 1, and the HAVING count drops by one.
  QueryIR ir = MakeIR(
      "SELECT MOVIE.title FROM MOVIE",
      {MakeBranch("SELECT MOVIE.title FROM MOVIE WHERE MOVIE.year >= 1970",
                  {0}, 0.6),
       MakeBranch("SELECT MOVIE.title FROM MOVIE WHERE MOVIE.year >= 1970 "
                  "AND MOVIE.duration <= 120",
                  {1}, 0.5)});
  RewriteStats stats;
  ir = MergeSubsumedBranches(std::move(ir), &stats);
  ASSERT_EQ(ir.branches.size(), 1u);
  EXPECT_EQ(stats.branches_subsumed, 1u);
  EXPECT_EQ(ir.branches[0].query.where.size(), 2u);
  std::vector<int32_t> prefs = ir.branches[0].prefs;
  std::sort(prefs.begin(), prefs.end());
  EXPECT_EQ(prefs, (std::vector<int32_t>{0, 1}));
  EXPECT_NEAR(ir.branches[0].doi, 1.0 - (1.0 - 0.6) * (1.0 - 0.5), 1e-12);
}

TEST(MergeSubsumedBranchesTest, JoinMirroredDuplicatesKeepEarlierBranch) {
  BranchIR first = MakeBranch(
      "SELECT MOVIE.title FROM MOVIE, GENRE p1_genre WHERE "
      "MOVIE.mid = p1_genre.mid AND p1_genre.genre = 'horror'",
      {0}, 0.3);
  BranchIR second = MakeBranch(
      "SELECT MOVIE.title FROM MOVIE, GENRE p1_genre WHERE "
      "p1_genre.genre = 'horror'",
      {1}, 0.4);
  // Same join, mirrored spelling: the two branches are exact duplicates
  // modulo canonicalization.
  second.query.where.push_back(Predicate::Join(
      ColumnRef{"p1_genre", "mid"}, CompareOp::kEq, ColumnRef{"MOVIE", "mid"}));
  QueryIR ir = MakeIR("SELECT MOVIE.title FROM MOVIE", {first, second});
  RewriteStats stats;
  ir = MergeSubsumedBranches(std::move(ir), &stats);
  ASSERT_EQ(ir.branches.size(), 1u);
  EXPECT_EQ(stats.branches_subsumed, 1u);
  // The earlier branch's spelling wins.
  EXPECT_EQ(ir.branches[0].query.where[0].kind, Predicate::Kind::kJoin);
  EXPECT_EQ(ir.branches[0].query.where[0].lhs.qualifier, "MOVIE");
  EXPECT_NEAR(ir.branches[0].doi, 1.0 - (1.0 - 0.3) * (1.0 - 0.4), 1e-12);
}

TEST(MergeSubsumedBranchesTest, IncomparableBranchesUntouched) {
  QueryIR ir = MakeIR(
      "SELECT MOVIE.title FROM MOVIE",
      {MakeBranch("SELECT MOVIE.title FROM MOVIE WHERE MOVIE.year >= 1970",
                  {0}, 0.6),
       MakeBranch("SELECT MOVIE.title FROM MOVIE WHERE MOVIE.duration <= 120",
                  {1}, 0.2)});
  RewriteStats stats;
  ir = MergeSubsumedBranches(std::move(ir), &stats);
  EXPECT_EQ(ir.branches.size(), 2u);
  EXPECT_EQ(stats.branches_subsumed, 0u);
}

// ---------------------------------------------------------------------------
// Fingerprint canonicalization
// ---------------------------------------------------------------------------

TEST(UnionGroupFingerprintTest, BranchOrderInvariant) {
  sql::UnionGroupQuery a;
  a.select_list = {ColumnRef{"", "title"}};
  a.branches = {
      *ParseSelect("SELECT MOVIE.title FROM MOVIE WHERE MOVIE.year >= 1970"),
      *ParseSelect("SELECT MOVIE.title FROM MOVIE, GENRE g WHERE "
                   "MOVIE.mid = g.mid AND g.genre = 'comedy'")};
  a.having_count = 2;

  sql::UnionGroupQuery b = a;
  std::swap(b.branches[0], b.branches[1]);

  EXPECT_EQ(sql::CanonicalQueryText(a), sql::CanonicalQueryText(b));
  EXPECT_EQ(sql::QueryFingerprint(a), sql::QueryFingerprint(b));
  EXPECT_NE(a.ToSql(), b.ToSql());  // the text itself is order-sensitive

  sql::UnionGroupQuery c = a;
  c.having_count = 1;
  EXPECT_NE(sql::QueryFingerprint(a), sql::QueryFingerprint(c));
}

// ---------------------------------------------------------------------------
// Constraint mining
// ---------------------------------------------------------------------------

TEST(DeriveConstraintsTest, MinedSetHoldsOnItsOwnData) {
  storage::Database db = ::cqp::testing::MakeTinyMovieDb();
  auto derived = storage::DeriveConstraints(db);
  ASSERT_TRUE(derived.ok()) << derived.status().ToString();
  EXPECT_FALSE(derived->empty());
  EXPECT_TRUE(storage::CheckConstraints(db, *derived).ok());

  // MOVIE.mid is unique in the tiny db, so it must be mined as a key, and
  // the year domain must be the exact scan range.
  bool mid_key = false;
  for (const auto& key : derived->keys()) {
    if (key.relation == "MOVIE" && key.attributes.size() == 1 &&
        key.attributes[0] == "mid") {
      mid_key = true;
    }
  }
  EXPECT_TRUE(mid_key);
  auto year = derived->DomainsFor("MOVIE", "year");
  ASSERT_EQ(year.size(), 1u);
  EXPECT_EQ(year[0]->min->AsInt(), 1958);
  EXPECT_EQ(year[0]->max->AsInt(), 1996);
}

TEST(DeriveConstraintsTest, CheckRejectsViolatedDomain) {
  storage::Database db = ::cqp::testing::MakeTinyMovieDb();
  ConstraintSet set;
  set.AddDomain({"MOVIE", "year", Value(int64_t{1990}), std::nullopt});
  EXPECT_FALSE(storage::CheckConstraints(db, set).ok());
}

// ---------------------------------------------------------------------------
// Pipeline integration: pruning, degradation, plan-cache invalidation
// ---------------------------------------------------------------------------

class RewritePipelineTest : public ::testing::Test {
 protected:
  RewritePipelineTest() : db_(::cqp::testing::MakeTinyMovieDb()) {
    db_.SetConstraints(*storage::DeriveConstraints(db_));
  }

  std::unique_ptr<prefs::PersonalizationGraph> Graph(const std::string& text) {
    auto profile = *prefs::Profile::Parse(text);
    return std::make_unique<prefs::PersonalizationGraph>(
        *prefs::PersonalizationGraph::Build(std::move(profile), db_));
  }

  /// Executes `qx` (the base query when it has no branch) and returns its
  /// rows as sorted text.
  std::vector<std::string> Rows(const construct::PersonalizedQuery& qx) {
    auto no_profile = Graph("");
    construct::PersonalizeResult result;
    result.personalized = qx;
    exec::ExecStats stats;
    auto rows = *construct::Personalizer(&db_, no_profile.get())
                     .Execute(result, &stats);
    std::vector<std::string> out;
    for (const exec::PersonalizedRow& row : rows.rows) {
      out.push_back(row.row.ToString());
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  storage::Database db_;
};

TEST_F(RewritePipelineTest, ContradictedPreferencePrunedBeforeSearch) {
  // doi(year >= 2100) contradicts the mined domain [1958, 1996]; the valid
  // preferences must survive.
  auto graph = Graph(R"(
      doi(MOVIE.year >= 2100) = 0.7
      doi(MOVIE.year >= 1970) = 0.6
      doi(MOVIE.duration <= 120) = 0.2
  )");
  estimation::ParameterEstimator estimator(&db_);
  auto q = *ParseSelect("SELECT title FROM MOVIE");

  space::PreferenceSpaceOptions options;
  options.constraints = &db_.constraints();
  auto pruned = *space::ExtractPreferenceSpace(q, *graph, estimator, options);
  EXPECT_EQ(pruned.K(), 2u);
  EXPECT_EQ(pruned.constraint_pruned, 1u);

  options.constraint_prune = false;
  auto full = *space::ExtractPreferenceSpace(q, *graph, estimator, options);
  EXPECT_EQ(full.K(), 3u);
  EXPECT_EQ(full.constraint_pruned, 0u);
}

TEST_F(RewritePipelineTest, PreferenceContradictsQueryUsesBaseConjuncts) {
  auto q = *ParseSelect("SELECT title FROM MOVIE WHERE MOVIE.year <= 1965");
  prefs::ImplicitPreference pref;
  pref.selection = prefs::AtomicSelection{"MOVIE", "year", CompareOp::kGe,
                                          Value(int64_t{1970}), 0.6};
  // year <= 1965 (query) ∧ year >= 1970 (preference) is unsatisfiable even
  // without any constraint set.
  EXPECT_TRUE(
      space::PreferenceContradictsQuery(q, pref, catalog::ConstraintSet()));
  auto open = *ParseSelect("SELECT title FROM MOVIE");
  EXPECT_FALSE(
      space::PreferenceContradictsQuery(open, pref, db_.constraints()));
}

TEST_F(RewritePipelineTest, EmptyAfterPruningDegradesToOriginalQuery) {
  // Every profile preference is constraint-contradicted: the admitted space
  // is empty and the personalized query must BE the original query.
  auto graph = Graph("doi(MOVIE.year >= 2100) = 0.7");
  construct::Personalizer personalizer(&db_, graph.get());

  construct::PersonalizeRequest request;
  request.sql = "SELECT title FROM MOVIE";
  request.problem = cqp::ProblemSpec::Problem2(1e9);
  request.algorithm = "auto";
  auto r = personalizer.Personalize(request);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->space->K(), 0u);
  EXPECT_EQ(r->space->constraint_pruned, 1u);
  EXPECT_EQ(r->personalized.L(), 0u);

  auto canon = *construct::CanonicalizeSelectList(
      db_, *ParseSelect(request.sql));
  EXPECT_EQ(r->final_sql, canon.ToSql());
}

TEST_F(RewritePipelineTest, ConstraintRevisionInvalidatesPlanCache) {
  auto graph = Graph(R"(
      doi(MOVIE.year >= 1970) = 0.6
      doi(MOVIE.duration <= 120) = 0.2
  )");
  construct::Personalizer personalizer(&db_, graph.get());
  construct::PlanCache plan_cache;

  construct::PersonalizeRequest request;
  request.sql = "SELECT title FROM MOVIE";
  request.problem = cqp::ProblemSpec::Problem2(1e9);
  request.algorithm = "auto";
  request.plan_cache = &plan_cache;
  request.profile_id = "u1";
  request.profile_version = 1;

  auto cold = personalizer.Personalize(request);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold->plan_cache_hit);
  auto warm = personalizer.Personalize(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->plan_cache_hit);

  // A value-identical constraint swap still bumps the revision: every
  // cached plan must become unreachable, and the fresh answer must match.
  uint64_t revision = db_.constraint_revision();
  db_.SetConstraints(catalog::ConstraintSet(db_.constraints()));
  EXPECT_GT(db_.constraint_revision(), revision);

  auto fresh = personalizer.Personalize(request);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->plan_cache_hit);
  EXPECT_EQ(fresh->final_sql, warm->final_sql);

  // And the new plan is cached under the new revision.
  auto rewarm = personalizer.Personalize(request);
  ASSERT_TRUE(rewarm.ok());
  EXPECT_TRUE(rewarm->plan_cache_hit);
}

TEST_F(RewritePipelineTest, MergedContradictionKeepsItsEmptyAnswer) {
  // year >= 1990 and year <= 1960 are each satisfiable, but merged into one
  // branch (footnote 1) they contradict each other: the answer is empty,
  // optimized or not, merged or not.
  auto q = *ParseSelect("SELECT title FROM MOVIE");
  std::vector<estimation::ScoredPreference> prefs(2);
  prefs[0].pref.selection = prefs::AtomicSelection{
      "MOVIE", "year", CompareOp::kGe, Value(int64_t{1990}), 0.7};
  prefs[0].doi = 0.7;
  prefs[1].pref.selection = prefs::AtomicSelection{
      "MOVIE", "year", CompareOp::kLe, Value(int64_t{1960}), 0.6};
  prefs[1].doi = 0.6;
  const IndexSet chosen{0, 1};

  construct::BuildOptions merged;
  merged.merge_compatible = true;
  construct::BuildOptions merged_unoptimized = merged;
  merged_unoptimized.optimize = false;
  auto optimized = *construct::BuildPersonalizedQuery(db_, q, prefs, chosen,
                                                      merged);
  EXPECT_EQ(optimized.L(), 1u);
  const std::vector<std::string> rows = Rows(optimized);
  EXPECT_TRUE(rows.empty());
  EXPECT_EQ(rows, Rows(*construct::BuildPersonalizedQuery(
                      db_, q, prefs, chosen, merged_unoptimized)));
  EXPECT_EQ(rows, Rows(*construct::BuildPersonalizedQuery(db_, q, prefs,
                                                          chosen)));
}

TEST_F(RewritePipelineTest, UnprunedVacuousBranchKeepsItsEmptyAnswer) {
  // Pruning off, the search may choose doi(year >= 2100), which the mined
  // domain [1958, 1996] contradicts. Re-emitting that solution through the
  // optimizer must not turn its empty answer into rows.
  auto graph = Graph(R"(
      doi(MOVIE.year >= 2100) = 0.7
      doi(MOVIE.year >= 1970) = 0.6
  )");
  construct::Personalizer personalizer(&db_, graph.get());
  construct::PersonalizeRequest request;
  request.sql = "SELECT title FROM MOVIE";
  request.problem = cqp::ProblemSpec::Problem2(1e9);
  request.algorithm = "auto";
  request.space_options.constraint_prune = false;
  request.build_options.optimize = false;
  auto r = personalizer.Personalize(request);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->space->K(), 2u);
  ASSERT_TRUE(r->solution.chosen.Contains(0));

  auto optimized = *construct::BuildPersonalizedQuery(
      db_, r->space->query, r->space->prefs, r->solution.chosen);
  const std::vector<std::string> rows = Rows(optimized);
  EXPECT_TRUE(rows.empty());
  EXPECT_EQ(rows, Rows(r->personalized));
}

}  // namespace
}  // namespace cqp::rewrite
