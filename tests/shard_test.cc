// Tests of the profile store and its shards (src/server/profile_store.*,
// src/server/shard/): paging LRU behavior under byte pressure,
// single-flight page-ins, pinning, eviction racing hot-reloads, hash
// routing + MANIFEST guards, per-shard cache slices, the in-memory shard,
// and migration from a single-directory store.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "server/profile_journal_codec.h"
#include "server/profile_store.h"
#include "server/shard/profile_shard.h"
#include "storage/database.h"
#include "storage/journal/journal.h"
#include "storage/journal/snapshot.h"
#include "workload/movie_gen.h"
#include "workload/profile_gen.h"

namespace cqp::server::shard {
namespace {

/// RAII temp directory for the on-disk tests.
class TempDir {
 public:
  TempDir() {
    char buf[] = "/tmp/cqp_shard_test.XXXXXX";
    path_ = ::mkdtemp(buf);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

class ShardTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::MovieDbConfig movie_config;
    movie_config.n_movies = 150;
    movie_config.n_directors = 15;
    movie_config.n_actors = 30;
    auto built = workload::BuildMovieDatabase(movie_config);
    ASSERT_TRUE(built.ok());
    db_ = new storage::Database(*std::move(built));

    profiles_ = new std::vector<prefs::Profile>();
    for (uint64_t seed : {21u, 22u, 23u, 24u}) {
      workload::ProfileGenConfig config;
      config.seed = seed;
      config.n_genre_prefs = 3;
      config.n_director_prefs = 2;
      config.n_actor_prefs = 2;
      config.n_year_prefs = 2;
      config.n_duration_prefs = 1;
      auto profile = workload::GenerateProfile(config, movie_config);
      ASSERT_TRUE(profile.ok());
      profiles_->push_back(*std::move(profile));
    }
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
    delete profiles_;
    profiles_ = nullptr;
  }

  static storage::Database* db_;
  static std::vector<prefs::Profile>* profiles_;
};

storage::Database* ShardTest::db_ = nullptr;
std::vector<prefs::Profile>* ShardTest::profiles_ = nullptr;

// ------------------------------------------------------------ ProfileShard

TEST_F(ShardTest, RoundtripAndLazyReopen) {
  TempDir dir;
  ShardOptions options;
  options.dir = dir.path();
  {
    auto shard = ProfileShard::Open(db_, 0, options);
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    ASSERT_TRUE((*shard)->Put("alice", (*profiles_)[0]).ok());
    ASSERT_TRUE((*shard)->Put("bob", (*profiles_)[1]).ok());
    ASSERT_TRUE((*shard)->Put("alice", (*profiles_)[2]).ok());  // replace
    ASSERT_TRUE((*shard)->Remove("bob").ok());
    EXPECT_EQ((*shard)->Remove("bob").code(), StatusCode::kNotFound);
    ProfileStore::Snapshot found = (*shard)->Find("alice");
    ASSERT_NE(found.graph, nullptr);
    EXPECT_EQ(found.version, 3u);
    EXPECT_EQ((*shard)->Find("nobody").graph, nullptr);
  }
  auto reopened = ProfileShard::Open(db_, 0, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // Recovery indexed the journal without building any graph.
  EXPECT_EQ((*reopened)->num_profiles(), 1u);
  EXPECT_EQ((*reopened)->stats().resident_profiles, 0u);
  // The first Find pages the graph in from disk.
  ProfileStore::Snapshot found = (*reopened)->Find("alice");
  ASSERT_NE(found.graph, nullptr);
  EXPECT_EQ(found.version, 3u);
  EXPECT_EQ((*reopened)->stats().page_ins, 1u);
  // The second is a residency hit.
  EXPECT_EQ((*reopened)->Find("alice").graph, found.graph);
  EXPECT_EQ((*reopened)->stats().hits, 1u);
}

TEST_F(ShardTest, EvictionUnderBytePressure) {
  TempDir dir;
  ShardOptions options;
  options.dir = dir.path();
  options.resident_budget_bytes = 1;  // nothing stays resident once cold
  auto shard = ProfileShard::Open(db_, 0, options);
  ASSERT_TRUE(shard.ok());

  const size_t n = 8;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(
        (*shard)->Put("u" + std::to_string(i), (*profiles_)[i % 4]).ok());
  }
  ShardStats stats = (*shard)->stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.resident_bytes, options.resident_budget_bytes);
  EXPECT_EQ(stats.profiles, n);

  // Evicted profiles are still there — they page back in on demand.
  for (size_t i = 0; i < n; ++i) {
    ProfileStore::Snapshot found = (*shard)->Find("u" + std::to_string(i));
    ASSERT_NE(found.graph, nullptr) << "u" << i;
  }
  EXPECT_GT((*shard)->stats().page_ins, 0u);
}

TEST_F(ShardTest, ConcurrentColdFindsShareOnePageIn) {
  TempDir dir;
  ShardOptions options;
  options.dir = dir.path();
  {
    auto shard = ProfileShard::Open(db_, 0, options);
    ASSERT_TRUE(shard.ok());
    ASSERT_TRUE((*shard)->Put("hot", (*profiles_)[0]).ok());
  }
  auto reopened = ProfileShard::Open(db_, 0, options);
  ASSERT_TRUE(reopened.ok());
  ProfileShard& shard = **reopened;

  constexpr size_t kThreads = 8;
  std::vector<ProfileStore::Snapshot> results(kThreads);
  {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back(
          [&shard, &results, t] { results[t] = shard.Find("hot"); });
    }
    for (std::thread& thread : threads) thread.join();
  }
  // Everyone sees the same graph, and the disk was read exactly once
  // (single-flight): the non-loading threads either waited on the loader
  // or arrived late enough to hit the resident graph.
  for (const ProfileStore::Snapshot& result : results) {
    ASSERT_NE(result.graph, nullptr);
    EXPECT_EQ(result.graph, results[0].graph);
    EXPECT_EQ(result.version, 1u);
  }
  ShardStats stats = shard.stats();
  EXPECT_EQ(stats.page_ins, 1u);
  EXPECT_EQ(stats.page_in_errors, 0u);
  EXPECT_EQ(stats.hits + stats.page_in_waits, kThreads - 1);
}

TEST_F(ShardTest, PinnedGraphIsNeverEvicted) {
  TempDir dir;
  ShardOptions options;
  options.dir = dir.path();
  options.resident_budget_bytes = 1;  // every put immediately over budget
  auto shard = ProfileShard::Open(db_, 0, options);
  ASSERT_TRUE(shard.ok());

  ASSERT_TRUE((*shard)->Put("held", (*profiles_)[0]).ok());
  // This snapshot's shared_ptr pins the graph: eviction must skip it no
  // matter how hard the budget squeezes.
  ProfileStore::Snapshot pinned = (*shard)->Find("held");
  ASSERT_NE(pinned.graph, nullptr);

  for (size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        (*shard)->Put("filler" + std::to_string(i), (*profiles_)[1]).ok());
  }
  ShardStats stats = (*shard)->stats();
  EXPECT_GT(stats.pinned_skips, 0u);

  // Still resident: finding it again is a hit, not a page-in.
  uint64_t page_ins_before = stats.page_ins;
  ProfileStore::Snapshot again = (*shard)->Find("held");
  EXPECT_EQ(again.graph, pinned.graph);
  EXPECT_EQ((*shard)->stats().page_ins, page_ins_before);

  // Dropping the pin makes it evictable; the next put's eviction pass can
  // reclaim it, and a later Find pages it back in correctly.
  pinned.graph.reset();
  again.graph.reset();
  ASSERT_TRUE((*shard)->Put("filler9", (*profiles_)[2]).ok());
  ProfileStore::Snapshot back = (*shard)->Find("held");
  ASSERT_NE(back.graph, nullptr);
  EXPECT_EQ(back.version, 1u);
}

TEST_F(ShardTest, EvictionRacingHotReload) {
  TempDir dir;
  ShardOptions options;
  options.dir = dir.path();
  options.resident_budget_bytes = 1;       // evict on every mutation
  options.compact_threshold_bytes = 4096;  // compactions mid-race too
  auto opened = ProfileShard::Open(db_, 0, options);
  ASSERT_TRUE(opened.ok());
  ProfileShard& shard = **opened;

  // Two writers hot-reloading disjoint ids while readers page them in and
  // out under a 1-byte budget: every Find must observe a complete graph
  // (never a torn install), and the final versions must be the last acks.
  constexpr int kRounds = 30;
  std::atomic<bool> stop{false};
  std::atomic<int> bad_reads{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&shard, w] {
      const std::string id = "w" + std::to_string(w);
      for (int round = 0; round < kRounds; ++round) {
        EXPECT_TRUE(shard.Put(id, (*profiles_)[(w + round) % 4]).ok());
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&shard, &stop, &bad_reads, r] {
      while (!stop.load(std::memory_order_acquire)) {
        ProfileStore::Snapshot snap =
            shard.Find("w" + std::to_string(r % 2));
        // Absent is fine early on; a present graph must be fully built
        // (the generated profiles all carry selection edges).
        if (snap.graph != nullptr &&
            snap.graph->Counts().selection_edges == 0) {
          bad_reads.fetch_add(1);
        }
      }
    });
  }
  threads[0].join();
  threads[1].join();
  stop.store(true, std::memory_order_release);
  threads[2].join();
  threads[3].join();

  EXPECT_EQ(bad_reads.load(), 0);
  // Each writer acked kRounds puts; interleaving fixes each id's final
  // version only up to ordering, so check via a fresh Find against the
  // version Find reports — and that both survive a reopen identically.
  uint64_t v0 = shard.Find("w0").version;
  uint64_t v1 = shard.Find("w1").version;
  EXPECT_GE(v0 + v1, 2u * kRounds);  // 60 acked mutations in one shard
  ASSERT_TRUE(shard.Flush().ok());

  auto reopened = ProfileShard::Open(db_, 0, options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Find("w0").version, v0);
  EXPECT_EQ((*reopened)->Find("w1").version, v1);
}

// ------------------------------------------------------------ ProfileStore

TEST_F(ShardTest, RoutingIsStableAndCoversShards) {
  // The hash is pinned (FNV-1a): a layout written today must route the
  // same in every future process.
  EXPECT_EQ(ProfileStore::ShardIndexForId("alice", 4),
            ProfileStore::ShardIndexForId("alice", 4));
  EXPECT_EQ(ProfileStore::ShardDirName(7), "shard-007");
  std::vector<bool> seen(4, false);
  for (int i = 0; i < 64; ++i) {
    seen[ProfileStore::ShardIndexForId("u" + std::to_string(i), 4)] =
        true;
  }
  for (bool shard_seen : seen) EXPECT_TRUE(shard_seen);
}

TEST_F(ShardTest, ShardedRoundtripReopenAndStats) {
  TempDir dir;
  StoreOptions options;
  options.dir = dir.path();
  options.num_shards = 3;
  std::vector<std::string> ids;
  for (int i = 0; i < 12; ++i) ids.push_back("user" + std::to_string(i));
  {
    auto store = ProfileStore::Open(db_, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (size_t i = 0; i < ids.size(); ++i) {
      ASSERT_TRUE((*store)->Put(ids[i], (*profiles_)[i % 4]).ok());
    }
    ASSERT_TRUE((*store)->Remove(ids.back()).ok());
    EXPECT_EQ((*store)->size(), ids.size() - 1);
  }
  auto reopened = ProfileStore::Open(db_, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ProfileStore& store = **reopened;
  EXPECT_EQ(store.size(), ids.size() - 1);
  std::vector<std::string> expected(ids.begin(), ids.end() - 1);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(store.Ids(), expected);
  for (const std::string& id : expected) {
    ProfileStore::Snapshot found = store.FindSnapshot(id);
    ASSERT_NE(found.graph, nullptr) << id;
    // Every id lives on the shard the public router predicts.
    size_t shard = ProfileStore::ShardIndexForId(id, 3);
    EXPECT_NE(store.shard(shard).Find(id).graph, nullptr);
  }
  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.total.profiles, ids.size() - 1);
  EXPECT_EQ(stats.total.page_ins, ids.size() - 1);
  ASSERT_EQ(stats.per_shard.size(), 3u);
  size_t summed = 0;
  for (const ShardStats& s : stats.per_shard) summed += s.profiles;
  EXPECT_EQ(summed, stats.total.profiles);
}

TEST_F(ShardTest, ManifestRejectsShardCountMismatch) {
  TempDir dir;
  StoreOptions options;
  options.dir = dir.path();
  options.num_shards = 3;
  {
    auto store = ProfileStore::Open(db_, options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("alice", (*profiles_)[0]).ok());
  }
  // A different count must be a hard error — the hash routing would send
  // "alice" to the wrong shard.
  options.num_shards = 2;
  auto mismatched = ProfileStore::Open(db_, options);
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
  // 0 adopts whatever the MANIFEST says.
  options.num_shards = 0;
  auto adopted = ProfileStore::Open(db_, options);
  ASSERT_TRUE(adopted.ok());
  EXPECT_EQ((*adopted)->num_shards(), 3u);
  EXPECT_NE((*adopted)->FindSnapshot("alice").graph, nullptr);
}

TEST_F(ShardTest, CacheSlicesFollowTheRouting) {
  TempDir dir;
  StoreOptions options;
  options.dir = dir.path();
  options.num_shards = 4;
  auto store = ProfileStore::Open(db_, options);
  ASSERT_TRUE(store.ok());

  // Find two ids that live on different shards.
  std::string a = "a0";
  std::string b;
  for (int i = 0; i < 64 && b.empty(); ++i) {
    std::string candidate = "b" + std::to_string(i);
    if (ProfileStore::ShardIndexForId(candidate, 4) !=
        ProfileStore::ShardIndexForId(a, 4)) {
      b = candidate;
    }
  }
  ASSERT_FALSE(b.empty());
  // Same id → same slice (stable); different shard → different slice.
  EXPECT_EQ(&(*store)->caches_for(a), &(*store)->caches_for(a));
  EXPECT_NE(&(*store)->caches_for(a), &(*store)->caches_for(b));
  EXPECT_EQ(&(*store)->plans_for(a), &(*store)->plans_for(a));
  EXPECT_NE(&(*store)->plans_for(a), &(*store)->plans_for(b));
}

TEST_F(ShardTest, VersionsStayMonotonicPerShardAcrossReopen) {
  TempDir dir;
  StoreOptions options;
  options.dir = dir.path();
  options.num_shards = 2;
  uint64_t last = 0;
  {
    auto store = ProfileStore::Open(db_, options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("alice", (*profiles_)[0]).ok());
    ASSERT_TRUE((*store)->Put("alice", (*profiles_)[1]).ok());
    last = (*store)->FindSnapshot("alice").version;
    EXPECT_EQ(last, 2u);
  }
  auto reopened = ProfileStore::Open(db_, options);
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE((*reopened)->Put("alice", (*profiles_)[2]).ok());
  EXPECT_GT((*reopened)->FindSnapshot("alice").version, last);
}

/// Lays down a single-directory store: `journal` and `snapshot` at the
/// root, no MANIFEST. State: alice v1 (snapshot), then bob put v2 and
/// removed v3 (journal).
void WriteSingleDirectoryStore(const std::string& dir,
                               const std::vector<prefs::Profile>& profiles) {
  storage::FileSystem& fs = storage::PosixFileSystem();
  std::filesystem::create_directories(dir);
  storage::journal::SnapshotData data;
  data.next_version = 2;
  data.entries.push_back(
      storage::journal::SnapshotEntry{"alice", 1, profiles[0].ToText()});
  ASSERT_TRUE(
      storage::journal::WriteSnapshot(fs, dir + "/snapshot", data).ok());
  auto journal = storage::journal::Writer::Open(fs, dir + "/journal");
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*journal)
                  ->Append(EncodeProfileMutation(kJournalOpPut, 2, "bob",
                                                 profiles[1].ToText()))
                  .ok());
  ASSERT_TRUE(
      (*journal)
          ->Append(EncodeProfileMutation(kJournalOpRemove, 3, "bob", ""))
          .ok());
  ASSERT_TRUE((*journal)->Sync().ok());
  ASSERT_TRUE((*journal)->Close().ok());
}

TEST_F(ShardTest, SingleShardAdoptsAPr6Directory) {
  // The documented migration: a single-directory store becomes shard-000
  // of a 1-shard store (same journal + snapshot formats).
  TempDir dir;
  const std::string old_dir = dir.path() + "/old";
  ASSERT_NO_FATAL_FAILURE(WriteSingleDirectoryStore(old_dir, *profiles_));
  const std::string tier_dir = dir.path() + "/tier";
  const std::string shard_dir = tier_dir + "/" + ProfileStore::ShardDirName(0);
  std::filesystem::create_directories(shard_dir);
  for (const char* file : {"journal", "snapshot"}) {
    std::filesystem::rename(old_dir + "/" + file, shard_dir + "/" + file);
  }
  StoreOptions options;
  options.dir = tier_dir;
  options.num_shards = 1;
  auto store = ProfileStore::Open(db_, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->size(), 1u);
  ProfileStore::Snapshot found = (*store)->FindSnapshot("alice");
  ASSERT_NE(found.graph, nullptr);
  EXPECT_EQ(found.version, 1u);
  // New mutations keep versioning above the migrated history.
  ASSERT_TRUE((*store)->Put("carol", (*profiles_)[2]).ok());
  EXPECT_EQ((*store)->FindSnapshot("carol").version, 4u);
}

TEST_F(ShardTest, OpenRefusesAnUnmigratedSingleDirectory) {
  // Opening a single-directory store as a fresh tier would serve zero
  // profiles; it must fail and name the migration instead — with or
  // without an explicit shard count — and leave the directory untouched.
  TempDir dir;
  ASSERT_NO_FATAL_FAILURE(WriteSingleDirectoryStore(dir.path(), *profiles_));
  for (size_t shards : {0u, 1u}) {
    StoreOptions options;
    options.dir = dir.path();
    options.num_shards = shards;
    auto store = ProfileStore::Open(db_, options);
    ASSERT_FALSE(store.ok());
    EXPECT_EQ(store.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(store.status().message().find(
                  "mkdir shard-000 && mv journal snapshot shard-000/"),
              std::string::npos)
        << store.status().ToString();
  }
  EXPECT_FALSE(std::filesystem::exists(dir.path() + "/MANIFEST"));
  EXPECT_FALSE(std::filesystem::exists(dir.path() + "/shard-000"));
}

TEST_F(ShardTest, InMemoryStoreIsOneUnboundedShard) {
  ProfileStore store(db_);
  EXPECT_EQ(store.num_shards(), 1u);
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(store.Put("u" + std::to_string(i), (*profiles_)[i]).ok());
  }
  ASSERT_TRUE(store.Remove("u3").ok());
  EXPECT_EQ(store.Remove("u3").code(), StatusCode::kNotFound);
  ASSERT_TRUE(store.Put("u3", (*profiles_)[0]).ok());
  EXPECT_EQ(store.FindSnapshot("u3").version, 6u);  // the remove took v5
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NE(store.Find("u" + std::to_string(i)), nullptr);
  }
  EXPECT_EQ(store.Find("nobody"), nullptr);
  EXPECT_TRUE(store.Flush().ok());
  EXPECT_TRUE(store.Compact().ok());
  EXPECT_EQ(store.Contents().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(store.wedged());

  // Everything stays resident and nothing touches a journal.
  const StoreStats stats = store.stats();
  ASSERT_EQ(stats.per_shard.size(), 1u);
  EXPECT_EQ(stats.total.profiles, 4u);
  EXPECT_EQ(stats.total.resident_profiles, 4u);
  EXPECT_EQ(stats.total.resident_budget_bytes, 0u);
  EXPECT_EQ(stats.total.hits, 5u);
  EXPECT_EQ(stats.total.misses, 1u);
  EXPECT_EQ(stats.total.page_ins, 0u);
  EXPECT_EQ(stats.total.evictions, 0u);
  EXPECT_EQ(stats.total.journal.appends, 0u);
  EXPECT_EQ(stats.total.journal.fsyncs, 0u);
  EXPECT_EQ(stats.total.journal.compactions, 0u);
}

TEST_F(ShardTest, CompactionPreservesPagedOutProfiles) {
  TempDir dir;
  ShardOptions options;
  options.dir = dir.path();
  options.resident_budget_bytes = 1;  // everything pages out immediately
  auto shard = ProfileShard::Open(db_, 0, options);
  ASSERT_TRUE(shard.ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        (*shard)->Put("u" + std::to_string(i), (*profiles_)[i % 4]).ok());
  }
  // Compact rewrites the files the cold disk refs point into; every ref
  // must be rewritten to the new snapshot.
  ASSERT_TRUE((*shard)->Compact().ok());
  EXPECT_GT((*shard)->stats().journal.compactions, 0u);
  for (int i = 0; i < 6; ++i) {
    ProfileStore::Snapshot found = (*shard)->Find("u" + std::to_string(i));
    ASSERT_NE(found.graph, nullptr) << "u" << i;
  }
  EXPECT_EQ((*shard)->stats().page_in_errors, 0u);
}

}  // namespace
}  // namespace cqp::server::shard
