#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "prefs/graph.h"
#include "prefs/profile.h"
#include "server/shard/sharded_profile_store.h"
#include "storage/constraints.h"
#include "storage/journal/file.h"
#include "storage/journal/snapshot.h"
#include "workload/movie_gen.h"
#include "workload/profile_gen.h"
#include "workload/query_gen.h"

namespace cqpbench {

namespace server = cqp::server;
using cqp::Rng;
using cqp::Status;
using cqp::StatusOr;

server::ServerOptions BenchServerOptions() {
  server::ServerOptions options;
  options.port = 0;
  options.io_threads = 1;
  options.num_threads = 4;
  return options;
}

Answer AnswerOf(const server::PersonalizeResultPayload& payload) {
  Answer a;
  a.final_sql = payload.final_sql;
  a.chosen = payload.chosen;
  a.doi = payload.doi;
  a.cost_ms = payload.cost_ms;
  a.size = payload.size;
  a.feasible = payload.feasible;
  return a;
}

Answer AnswerOf(const cqp::construct::PersonalizeResult& result) {
  Answer a;
  a.final_sql = result.final_sql;
  a.chosen.assign(result.solution.chosen.begin(), result.solution.chosen.end());
  a.doi = result.solution.params.doi;
  a.cost_ms = result.solution.params.cost_ms;
  a.size = result.solution.params.size;
  a.feasible = result.solution.feasible;
  return a;
}

StatusOr<Answer> ReferenceAnswer(const cqp::storage::Database& db,
                                 const cqp::prefs::PersonalizationGraph& graph,
                                 const std::string& sql) {
  const server::ServerOptions options = BenchServerOptions();
  cqp::construct::PersonalizeRequest request;
  request.sql = sql;
  request.problem = options.default_problem;
  request.algorithm = options.default_algorithm;
  request.space_options.max_k = options.default_max_k;
  cqp::construct::Personalizer personalizer(&db, &graph);
  CQP_ASSIGN_OR_RETURN(cqp::construct::PersonalizeResult result,
                       personalizer.Personalize(request));
  return AnswerOf(result);
}

namespace {

/// Zipf(s) over ranks [0, n): rank r is drawn with probability
/// proportional to 1/(r+1)^s, by binary search over the exact cumulative
/// weights.
class Zipf {
 public:
  Zipf(size_t n, double s) {
    cdf_.reserve(n);
    double sum = 0.0;
    for (size_t r = 0; r < n; ++r) {
      sum += std::pow(static_cast<double>(r + 1), -s);
      cdf_.push_back(sum);
    }
  }
  size_t Draw(Rng& rng) const {
    const double u = rng.NextDouble() * cdf_.back();
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(rank, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// The generator's movie database at `movies` rows, with the director and
/// actor populations scaled as in the paper's Fig. 12 setting.
cqp::workload::MovieDbConfig MovieConfig(int64_t movies) {
  cqp::workload::MovieDbConfig config;
  config.n_movies = movies;
  config.n_directors = movies / 10;
  config.n_actors = movies / 5;
  return config;
}

/// Three query shapes over MOVIE, each with a year and a duration literal:
/// a single-table range, the same range joined with DIRECTOR, and the
/// mirrored single-table range. (A join with GENRE makes search, not
/// preparation, dominate — deep_search covers that.)
std::string ShapedQuery(size_t shape, int64_t year, int64_t duration) {
  const std::string y = std::to_string(year);
  const std::string d = std::to_string(duration);
  switch (shape % 3) {
    case 0:
      return "SELECT title FROM MOVIE WHERE MOVIE.year >= " + y +
             " AND MOVIE.duration <= " + d;
    case 1:
      return "SELECT MOVIE.title, DIRECTOR.name FROM MOVIE, DIRECTOR "
             "WHERE MOVIE.did = DIRECTOR.did AND MOVIE.year >= " +
             y + " AND MOVIE.duration <= " + d;
    default:
      return "SELECT title FROM MOVIE WHERE MOVIE.year <= " + y +
             " AND MOVIE.duration >= " + d;
  }
}

std::string ProfileId(size_t u) { return "p" + std::to_string(u); }

/// Sub-streams of a run's seed besides the three phases.
enum Stream : uint64_t {
  kGridStream = 11,
  kSampleStream = 12,
  kWarmupStream = 13,
  kWriterStream = 14,
};

/// A workload over a fixed set of (profile, query) pairs served from the
/// in-memory store, each pair checked against a reference computed before
/// timing.
class PairWorkload : public Workload {
 public:
  using Workload::Workload;

  StatusOr<std::unique_ptr<server::ProfileStore>> OpenStore() override {
    auto store = std::make_unique<server::ProfileStore>(&db_);
    for (size_t u = 0; u < profiles_.size(); ++u) {
      CQP_RETURN_IF_ERROR(store->Put(ProfileId(u), profiles_[u]));
    }
    return store;
  }

  /// Every pair once, so every later request hits the plan cache.
  std::vector<Request> WarmupRequests() const override {
    std::vector<Request> requests;
    for (size_t pair = 0; pair < refs_.size(); ++pair) {
      requests.push_back(Pair(pair));
    }
    return requests;
  }

  bool Check(const Request& request, const Answer& answer, double sent_ms,
             double done_ms) override {
    (void)sent_ms;
    (void)done_ms;
    return request.key < refs_.size() && answer == refs_[request.key];
  }

 protected:
  /// Builds profiles' graphs and the reference answer of every pair; pair
  /// p is profile p % profiles, query p / profiles.
  Status BuildReferences() {
    std::vector<cqp::prefs::PersonalizationGraph> graphs;
    for (const cqp::prefs::Profile& profile : profiles_) {
      CQP_ASSIGN_OR_RETURN(
          cqp::prefs::PersonalizationGraph graph,
          cqp::prefs::PersonalizationGraph::Build(profile, db_));
      graphs.push_back(std::move(graph));
    }
    refs_.clear();
    for (size_t pair = 0; pair < profiles_.size() * queries_.size(); ++pair) {
      CQP_ASSIGN_OR_RETURN(
          Answer answer,
          ReferenceAnswer(db_, graphs[pair % profiles_.size()],
                          queries_[pair / profiles_.size()]));
      refs_.push_back(std::move(answer));
    }
    return Status::OK();
  }

  Request Pair(size_t pair) const {
    Request request;
    request.profile_id = ProfileId(pair % profiles_.size());
    request.sql = queries_[pair / profiles_.size()];
    request.key = static_cast<uint32_t>(pair);
    return request;
  }

  std::vector<cqp::prefs::Profile> profiles_;
  std::vector<std::string> queries_;
  std::vector<Answer> refs_;  ///< by pair
};

/// hot_plans: 4 profiles x 16 query texts, Zipf(1.1) over the 64 pairs,
/// all of which fit the 128-entry plan cache and are prepared during
/// set-up. Search is a small share of each request; the rest is server
/// I/O, protocol, cache keying and query construction.
class HotPlans final : public PairWorkload {
 public:
  explicit HotPlans(uint64_t seed)
      : PairWorkload("hot_plans", seed, /*rate=*/2000.0,
                     /*ladder_requests=*/1000),
        zipf_(kProfiles * kQueries, 1.1) {}

  Status Generate() override {
    const cqp::workload::MovieDbConfig db_config = MovieConfig(2000);
    CQP_ASSIGN_OR_RETURN(db_, cqp::workload::BuildMovieDatabase(db_config));
    for (size_t u = 0; u < kProfiles; ++u) {
      cqp::workload::ProfileGenConfig config;
      config.seed = 1000 + u;
      CQP_ASSIGN_OR_RETURN(cqp::prefs::Profile profile,
                           cqp::workload::GenerateProfile(config, db_config));
      profiles_.push_back(std::move(profile));
    }
    // Mostly DIRECTOR joins, whose search is a few tens of µs.
    for (size_t q = 0; q < kQueries; ++q) {
      queries_.push_back(ShapedQuery(q % 4 == 3 ? 0 : 1,
                                     1930 + 4 * static_cast<int64_t>(q),
                                     120 + 8 * static_cast<int64_t>(q)));
    }
    return BuildReferences();
  }

  Request Next(Phase phase) override {
    return Pair(zipf_.Draw(PhaseRng(phase)));
  }

 private:
  static constexpr size_t kProfiles = 4;
  static constexpr size_t kQueries = 16;
  const Zipf zipf_;
};

/// deep_search: the paper's Fig. 12 setting — 5000 movies, 5 profiles x 4
/// generated queries, K = 20, Problem 2 at cmax = 400 ms, C-Boundaries
/// (the server's auto choice). Nearly all server time is search. Requests
/// come in blocks holding every pair once, in a seeded order, so the mix
/// of pairs is the same for every seed.
class DeepSearch final : public PairWorkload {
 public:
  explicit DeepSearch(uint64_t seed)
      : PairWorkload("deep_search", seed, /*rate=*/60.0,
                     /*ladder_requests=*/100) {}

  Status Generate() override {
    const cqp::workload::MovieDbConfig db_config = MovieConfig(5000);
    CQP_ASSIGN_OR_RETURN(db_, cqp::workload::BuildMovieDatabase(db_config));
    for (size_t u = 0; u < 5; ++u) {
      cqp::workload::ProfileGenConfig config;
      config.seed = 1000 + u;
      CQP_ASSIGN_OR_RETURN(cqp::prefs::Profile profile,
                           cqp::workload::GenerateProfile(config, db_config));
      profiles_.push_back(std::move(profile));
    }
    cqp::workload::QueryGenConfig query_config;
    query_config.n_queries = 4;
    CQP_ASSIGN_OR_RETURN(
        std::vector<cqp::sql::SelectQuery> queries,
        cqp::workload::GenerateQueries(query_config, db_config));
    for (const cqp::sql::SelectQuery& query : queries) {
      queries_.push_back(query.ToSql());
    }
    blocks_.assign(3, {});
    cursors_.assign(3, 0);
    return BuildReferences();
  }

  Request Next(Phase phase) override {
    const size_t p = static_cast<size_t>(phase) - 1;
    std::vector<size_t>& block = blocks_[p];
    if (cursors_[p] == block.size()) {
      block.resize(refs_.size());
      for (size_t i = 0; i < block.size(); ++i) block[i] = i;
      PhaseRng(phase).Shuffle(block);
      cursors_[p] = 0;
    }
    return Pair(block[cursors_[p]++]);
  }

 private:
  std::vector<std::vector<size_t>> blocks_;
  std::vector<size_t> cursors_;
};

/// cold_queries: every request is a query text never seen before (year x
/// duration literals x 3 shapes, in a seeded order, under 4 profiles) on a
/// database with derived constraints, so every request pays parsing,
/// fingerprinting, extraction, constraint pruning and the IR rewrite.
/// Answers are checked on a seeded 1-in-16 sample after timing.
class ColdQueries final : public Workload {
 public:
  explicit ColdQueries(uint64_t seed)
      : Workload("cold_queries", seed, /*rate=*/1000.0,
                 /*ladder_requests=*/1000) {}

  Status Generate() override {
    const cqp::workload::MovieDbConfig db_config = MovieConfig(2000);
    CQP_ASSIGN_OR_RETURN(db_, cqp::workload::BuildMovieDatabase(db_config));
    for (size_t u = 0; u < kProfiles; ++u) {
      cqp::workload::ProfileGenConfig config;
      config.seed = 1000 + u;
      CQP_ASSIGN_OR_RETURN(cqp::prefs::Profile profile,
                           cqp::workload::GenerateProfile(config, db_config));
      CQP_ASSIGN_OR_RETURN(
          cqp::prefs::PersonalizationGraph graph,
          cqp::prefs::PersonalizationGraph::Build(profile, db_));
      profiles_.push_back(std::move(profile));
      graphs_.push_back(std::move(graph));
    }
    for (size_t shape = 0; shape < 3; ++shape) {
      for (int64_t year = db_config.min_year; year <= db_config.max_year;
           ++year) {
        for (int64_t duration = 60; duration <= 240; ++duration) {
          grid_.push_back({shape, year, duration});
        }
      }
    }
    Rng grid_rng(StreamSeed(kGridStream));
    grid_rng.Shuffle(grid_);
    cursor_ = kWarmupQueries;
    return Status::OK();
  }

  StatusOr<std::unique_ptr<server::ProfileStore>> OpenStore() override {
    CQP_ASSIGN_OR_RETURN(cqp::catalog::ConstraintSet constraints,
                         cqp::storage::DeriveConstraints(db_));
    db_.SetConstraints(std::move(constraints));
    auto store = std::make_unique<server::ProfileStore>(&db_);
    for (size_t u = 0; u < profiles_.size(); ++u) {
      CQP_RETURN_IF_ERROR(store->Put(ProfileId(u), profiles_[u]));
    }
    return store;
  }

  /// The first grid entries, which no phase stream draws.
  std::vector<Request> WarmupRequests() const override {
    std::vector<Request> requests;
    for (size_t i = 0; i < kWarmupQueries; ++i) {
      requests.push_back(At(i, i % kProfiles));
    }
    return requests;
  }

  Request Next(Phase phase) override {
    // Past the end of the grid, texts repeat; by then the 128-entry plan
    // cache has long evicted them, so they still miss.
    size_t index = cursor_++;
    if (index >= grid_.size()) {
      index = kWarmupQueries + (index - kWarmupQueries) %
                                   (grid_.size() - kWarmupQueries);
    }
    return At(index,
              static_cast<size_t>(PhaseRng(phase).Uniform(0, kProfiles - 1)));
  }

  bool Check(const Request& request, const Answer& answer, double sent_ms,
             double done_ms) override {
    (void)sent_ms;
    (void)done_ms;
    uint64_t mix = StreamSeed(kSampleStream) ^ request.key;
    Rng sample(mix);
    if (sample.Next() % 16 == 0) sampled_.push_back({request, answer});
    return true;
  }

  size_t FinishChecks() override {
    size_t wrong = 0;
    for (const auto& [request, answer] : sampled_) {
      StatusOr<Answer> want = ReferenceAnswer(
          db_, graphs_[request.key % kProfiles], request.sql);
      if (!want.ok() || !(*want == answer)) ++wrong;
    }
    std::printf("cold_queries: %zu sampled answers checked, %zu wrong\n",
                sampled_.size(), wrong);
    sampled_.clear();
    return wrong;
  }

 private:
  static constexpr size_t kProfiles = 4;
  static constexpr size_t kWarmupQueries = 64;

  struct Literals {
    size_t shape;
    int64_t year;
    int64_t duration;
  };

  /// Grid entry `index` under profile `u`; the key encodes both.
  Request At(size_t index, size_t u) const {
    const Literals& e = grid_[index];
    Request request;
    request.profile_id = ProfileId(u);
    request.sql = ShapedQuery(e.shape, e.year, e.duration);
    request.key = static_cast<uint32_t>(index * kProfiles + u);
    return request;
  }

  std::vector<cqp::prefs::Profile> profiles_;
  std::vector<cqp::prefs::PersonalizationGraph> graphs_;
  std::vector<Literals> grid_;
  size_t cursor_ = 0;
  std::vector<std::pair<Request, Answer>> sampled_;
};

/// profile_churn: 20k profiles in a 4-shard durable, demand-paged store
/// (8 MB resident budget) read with Zipf(0.9) over ids x 8 queries, while
/// a second thread Puts (fsync'd) Zipf-chosen ids at 50/s. The 160k
/// (profile, query) pairs overflow the 4 x 128 plan-cache entries, and
/// every Put invalidates the id's plans. Profiles take their text from a
/// pool of 8, so every answer has a precomputed reference.
class ProfileChurn final : public Workload {
 public:
  ProfileChurn(uint64_t seed, std::string work_dir)
      : Workload("profile_churn", seed, /*rate=*/2000.0,
                 /*ladder_requests=*/1000),
        dir_(std::move(work_dir) + "/profile_churn_store"),
        zipf_(kProfiles, 0.9) {}

  ~ProfileChurn() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  Status Generate() override {
    const cqp::workload::MovieDbConfig db_config = MovieConfig(2000);
    CQP_ASSIGN_OR_RETURN(db_, cqp::workload::BuildMovieDatabase(db_config));
    std::vector<cqp::prefs::PersonalizationGraph> graphs;
    for (size_t t = 0; t < kTexts; ++t) {
      cqp::workload::ProfileGenConfig config;
      config.seed = 50 + t;
      config.n_genre_prefs = 3;
      config.n_director_prefs = 2;
      config.n_actor_prefs = 2;
      config.n_year_prefs = 2;
      config.n_duration_prefs = 1;
      CQP_ASSIGN_OR_RETURN(cqp::prefs::Profile generated,
                           cqp::workload::GenerateProfile(config, db_config));
      texts_.push_back(generated.ToText());
      CQP_ASSIGN_OR_RETURN(cqp::prefs::Profile profile,
                           cqp::prefs::Profile::Parse(texts_.back()));
      CQP_ASSIGN_OR_RETURN(
          cqp::prefs::PersonalizationGraph graph,
          cqp::prefs::PersonalizationGraph::Build(profile, db_));
      profiles_.push_back(std::move(profile));
      graphs.push_back(std::move(graph));
    }
    for (size_t q = 0; q < kQueries; ++q) {
      queries_.push_back(ShapedQuery(q, 1940 + 7 * static_cast<int64_t>(q),
                                     100 + 15 * static_cast<int64_t>(q)));
    }
    for (size_t t = 0; t < kTexts; ++t) {
      for (size_t q = 0; q < kQueries; ++q) {
        CQP_ASSIGN_OR_RETURN(Answer answer,
                             ReferenceAnswer(db_, graphs[t], queries_[q]));
        refs_.push_back(std::move(answer));
      }
    }
    puts_by_profile_.assign(kProfiles, {});
    return WriteDirectory();
  }

  StatusOr<std::unique_ptr<server::ProfileStore>> OpenStore() override {
    server::shard::ShardedStoreOptions options;
    options.dir = dir_;
    options.num_shards = kShards;
    options.resident_budget_bytes = kResidentBudgetBytes;
    CQP_ASSIGN_OR_RETURN(
        std::unique_ptr<server::shard::ShardedProfileStore> store,
        server::shard::ShardedProfileStore::Open(&db_, options));
    return std::unique_ptr<server::ProfileStore>(std::move(store));
  }

  std::vector<Request> WarmupRequests() const override {
    Rng rng(StreamSeed(kWarmupStream));
    std::vector<Request> requests;
    for (size_t i = 0; i < 256; ++i) requests.push_back(Read(rng));
    return requests;
  }

  Request Next(Phase phase) override { return Read(PhaseRng(phase)); }

  /// The answer must match the text the id held when the request was sent,
  /// or any text a Put started writing to the id before the answer came.
  bool Check(const Request& request, const Answer& answer, double sent_ms,
             double done_ms) override {
    const size_t id = request.key / kQueries;
    const size_t q = request.key % kQueries;
    std::vector<size_t> texts = {id % kTexts};
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t put : puts_by_profile_[id]) {
        const PutRecord& record = puts_[put];
        if (record.end_ms <= sent_ms) {
          if (record.ok) texts[0] = record.text;
        } else if (record.start_ms <= done_ms) {
          texts.push_back(record.text);
        }
      }
    }
    for (size_t t : texts) {
      if (answer == refs_[t * kQueries + q]) return true;
    }
    return false;
  }

  bool WasWritten(const Request& request) const override {
    std::lock_guard<std::mutex> lock(mu_);
    return !puts_by_profile_[request.key / kQueries].empty();
  }

  bool has_writer() const override { return true; }

  /// Poisson arrivals at kPutRate; each Put moves a Zipf-chosen id to
  /// another text of the pool.
  void RunWriter(server::ProfileStore* store,
                 const std::atomic<bool>& stop) override {
    Rng rng(StreamSeed(kWriterStream));
    std::vector<uint8_t> current(kProfiles);
    for (size_t i = 0; i < kProfiles; ++i) {
      current[i] = static_cast<uint8_t>(i % kTexts);
    }
    double due_ms = NowMs();
    while (!stop.load(std::memory_order_acquire)) {
      due_ms += -std::log(1.0 - rng.NextDouble()) * 1000.0 / kPutRate;
      while (!stop.load(std::memory_order_acquire) && NowMs() < due_ms) {
        const double wait = std::min(5.0, due_ms - NowMs());
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(std::max(0.0, wait)));
      }
      if (stop.load(std::memory_order_acquire)) break;
      const size_t id = zipf_.Draw(rng);
      const uint8_t text = static_cast<uint8_t>(
          (current[id] + 1 + rng.Uniform(0, kTexts - 2)) % kTexts);
      size_t slot;
      {
        std::lock_guard<std::mutex> lock(mu_);
        slot = puts_.size();
        PutRecord record;
        record.text = text;
        record.start_ms = NowMs();
        record.end_ms = std::numeric_limits<double>::infinity();
        puts_.push_back(record);
        puts_by_profile_[id].push_back(slot);
      }
      const Status put = store->Put(Id(id), profiles_[text]);
      std::lock_guard<std::mutex> lock(mu_);
      puts_[slot].end_ms = NowMs();
      puts_[slot].ok = put.ok();
      if (put.ok()) current[id] = text;
    }
  }

  std::vector<PutRecord> Puts() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return puts_;
  }

 private:
  static constexpr size_t kProfiles = 20000;
  static constexpr size_t kTexts = 8;
  static constexpr size_t kQueries = 8;
  static constexpr size_t kShards = 4;
  static constexpr uint64_t kResidentBudgetBytes = 8ull << 20;
  static constexpr double kPutRate = 50.0;

  static std::string Id(size_t i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "u%05zu", i);
    return buf;
  }

  Request Read(Rng& rng) const {
    const size_t id = zipf_.Draw(rng);
    const size_t q = static_cast<size_t>(rng.Uniform(0, kQueries - 1));
    Request request;
    request.profile_id = Id(id);
    request.sql = queries_[q];
    request.key = static_cast<uint32_t>(id * kQueries + q);
    return request;
  }

  /// Lays down the tier without 20k journaled Puts: one Open writes the
  /// MANIFEST and shard skeletons, then each shard's snapshot is written
  /// directly (ids routed with the store's own hash) — the state a
  /// compaction would leave. Id i starts with text i % kTexts.
  Status WriteDirectory() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    {
      server::shard::ShardedStoreOptions options;
      options.dir = dir_;
      options.num_shards = kShards;
      CQP_ASSIGN_OR_RETURN(
          std::unique_ptr<server::shard::ShardedProfileStore> skeleton,
          server::shard::ShardedProfileStore::Open(&db_, options));
    }
    cqp::storage::FileSystem& fs = cqp::storage::PosixFileSystem();
    std::vector<cqp::storage::journal::SnapshotData> shards(kShards);
    for (size_t i = 0; i < kProfiles; ++i) {
      const std::string id = Id(i);
      cqp::storage::journal::SnapshotData& data =
          shards[server::shard::ShardedProfileStore::ShardIndexForId(id,
                                                                     kShards)];
      cqp::storage::journal::SnapshotEntry entry;
      entry.key = id;
      entry.version = data.next_version++;
      entry.value = texts_[i % kTexts];
      data.entries.push_back(std::move(entry));
    }
    for (size_t shard = 0; shard < kShards; ++shard) {
      CQP_RETURN_IF_ERROR(cqp::storage::journal::WriteSnapshot(
          fs,
          dir_ + "/" +
              server::shard::ShardedProfileStore::ShardDirName(shard) +
              "/snapshot",
          shards[shard]));
    }
    return Status::OK();
  }

  const std::string dir_;
  const Zipf zipf_;
  std::vector<std::string> texts_;
  std::vector<cqp::prefs::Profile> profiles_;  ///< by text
  std::vector<std::string> queries_;
  std::vector<Answer> refs_;  ///< text * kQueries + query

  mutable std::mutex mu_;  ///< guards the write log below
  std::vector<PutRecord> puts_;
  std::vector<std::vector<size_t>> puts_by_profile_;
};

}  // namespace

std::unique_ptr<Workload> Workload::Create(const std::string& name,
                                           uint64_t seed,
                                           const std::string& work_dir) {
  if (name == "hot_plans") return std::make_unique<HotPlans>(seed);
  if (name == "deep_search") return std::make_unique<DeepSearch>(seed);
  if (name == "cold_queries") return std::make_unique<ColdQueries>(seed);
  if (name == "profile_churn") {
    return std::make_unique<ProfileChurn>(seed, work_dir);
  }
  return nullptr;
}

const std::vector<std::string>& Workload::Names() {
  static const std::vector<std::string>& names = *new std::vector<std::string>{
      "hot_plans", "deep_search", "cold_queries", "profile_churn"};
  return names;
}

}  // namespace cqpbench
