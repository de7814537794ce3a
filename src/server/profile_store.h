#ifndef CQP_SERVER_PROFILE_STORE_H_
#define CQP_SERVER_PROFILE_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "construct/plan_cache.h"
#include "estimation/eval_cache.h"
#include "prefs/graph.h"
#include "prefs/profile.h"
#include "storage/database.h"
#include "storage/journal/file.h"
#include "storage/journal/snapshot.h"

namespace cqp::server {

namespace shard {
class ProfileShard;
}  // namespace shard

/// Journal counters of one shard, or summed over the store. All zero for
/// an in-memory store. Served as the stats op's `journal` object.
struct JournalStats {
  uint64_t appends = 0;        ///< journal records written
  uint64_t append_bytes = 0;   ///< framed bytes appended
  uint64_t fsyncs = 0;         ///< journal fsync calls
  uint64_t compactions = 0;    ///< snapshot compactions completed
  uint64_t journal_bytes = 0;  ///< current journal length
  uint64_t snapshot_bytes = 0; ///< last written snapshot size
  bool wedged = false;         ///< journal failed; shard is read-only
  /// Recovery at Open() time:
  uint64_t recovered_profiles = 0;  ///< ids indexed (snapshot+journal)
  uint64_t replayed_records = 0;    ///< journal records applied
  uint64_t dropped_bytes = 0;       ///< torn/corrupt tail truncated
  bool torn_tail_recovered = false;
  double recovery_ms = 0.0;
};

/// Paging and journal counters of one shard, cumulative since Open. Served
/// by the stats op's `shard_tier` object.
struct ShardStats {
  size_t profiles = 0;               ///< ids the shard knows (resident or not)
  size_t resident_profiles = 0;      ///< graphs currently in memory
  uint64_t resident_bytes = 0;       ///< accounted bytes of resident graphs
  uint64_t resident_budget_bytes = 0;  ///< 0 = unbounded (in memory)
  uint64_t hits = 0;           ///< lookups served from a resident graph
  uint64_t misses = 0;         ///< lookups for an unknown id
  uint64_t page_ins = 0;       ///< cold graphs loaded from disk
  uint64_t page_in_waits = 0;  ///< lookups that waited on another page-in
  uint64_t page_in_errors = 0; ///< disk refs that failed to load
  uint64_t evictions = 0;      ///< resident graphs dropped for budget
  uint64_t pinned_skips = 0;   ///< eviction passes over an in-use graph
  JournalStats journal;        ///< this shard's journal counters
};

/// The whole store: sums over the shards (booleans OR-ed, recovery_ms the
/// wall time of Open) plus one entry per shard, indexed by shard.
struct StoreStats {
  ShardStats total;
  std::vector<ShardStats> per_shard;
};

/// Configuration for ProfileStore::Open. The residency budget is the
/// store total; each shard gets an equal slice.
struct StoreOptions {
  /// Root directory; shard `i` lives in `<dir>/shard-NNN/` and a MANIFEST
  /// file records the shard count (routing is hash(id) % N, so opening
  /// with a different N would silently lose profiles — the manifest makes
  /// that a hard error instead).
  std::string dir;
  /// Shard count when creating a fresh directory; 0 adopts the manifest
  /// (or kDefaultShards when the directory is fresh). Opening an existing
  /// store with a conflicting non-zero value is an error.
  size_t num_shards = 0;
  /// Total resident-graph budget across all shards.
  uint64_t resident_budget_bytes = 256ull << 20;
  /// Per-shard journal compaction threshold.
  uint64_t compact_threshold_bytes = 4ull << 20;
  /// File I/O goes through this filesystem; null = PosixFileSystem().
  /// Tests and the crash fuzzer pass a FaultyFileSystem.
  storage::FileSystem* fs = nullptr;
};

/// The id → user-profile store of the personalization server: N
/// shard::ProfileShards, each with its own lock, LRU working set and
/// cache slice, and — when durable — its own write-ahead journal and
/// snapshot. Profiles route to a shard by a stable hash of the id.
///
/// Two ways to get one:
///  * `ProfileStore(db)` is in memory: one shard, no directory, no
///    journal, unbounded residency (nothing is ever evicted or paged).
///  * `ProfileStore::Open(db, options)` is durable: every Put/Remove is
///    journaled and fsynced before it applies, OK means it survives a
///    crash, a journal failure wedges its shard, graphs page in on demand
///    under the resident budget (docs/durability.md, docs/server.md).
///
/// Each stored profile is a fully built PersonalizationGraph, validated
/// against the database at Put time and handed out as shared_ptr<const …>:
/// a hot-reload never invalidates the graph an in-flight request holds.
/// Every shard owns an EvalCacheRegistry and a PlanCache and invalidates a
/// profile's entries in both on Put/Remove; both caches also embed the
/// snapshot version in their keys, so invalidation reclaims memory and is
/// never a correctness dependency. Versions are monotonic per shard.
///
/// Thread safety: all methods are thread-safe.
class ProfileStore {
 public:
  static constexpr size_t kDefaultShards = 16;

  /// The in-memory store. `db` must be Analyze()d and outlive the store.
  explicit ProfileStore(const storage::Database* db);

  /// Opens (or creates) the durable store under options.dir: reads or
  /// writes the MANIFEST, then opens every shard (recovering each
  /// independently). FailedPrecondition for a single-directory store
  /// (journal/snapshot at the root, no MANIFEST) that was never migrated.
  static StatusOr<std::unique_ptr<ProfileStore>> Open(
      const storage::Database* db, StoreOptions options);

  ~ProfileStore();  ///< flushes and closes every journal

  ProfileStore(const ProfileStore&) = delete;
  ProfileStore& operator=(const ProfileStore&) = delete;

  /// The routing function: FNV-1a over the id, mod num_shards. Exposed so
  /// tools (benches laying out directories, crashfuzz oracles) can
  /// predict placement without opening a store.
  static size_t ShardIndexForId(std::string_view id, size_t num_shards);

  /// "shard-000", "shard-001", ...
  static std::string ShardDirName(size_t index);

  /// One consistent view of a stored profile: the graph plus the version
  /// stamped at Put time. The version participates in evaluation-cache
  /// keys, so a request racing a hot-reload can only ever populate (and
  /// read) a cache matching the graph it actually holds.
  struct Snapshot {
    std::shared_ptr<const prefs::PersonalizationGraph> graph;  ///< null if unknown
    uint64_t version = 0;
  };

  /// Validates `profile` against the database, builds its graph and stores
  /// it under `id` (replacing any previous version), invalidating the id's
  /// caches. In a durable store OK means journaled and fsynced.
  Status Put(const std::string& id, const prefs::Profile& profile);

  /// Removes `id` (and its caches). NotFound when absent.
  Status Remove(const std::string& id);

  /// fsyncs every journal; first error wins. Called by Server::Stop().
  Status Flush();

  /// The stored graph + version; Snapshot::graph is null when `id` is
  /// unknown. A durable store may read the disk here (cold profile).
  Snapshot FindSnapshot(const std::string& id) const;

  /// The stored graph, or nullptr when `id` is unknown.
  std::shared_ptr<const prefs::PersonalizationGraph> Find(
      const std::string& id) const;

  /// Loads every `*.profile` file in `dir` (id = file name without the
  /// extension) and remembers the directory for Reload(). Files that fail
  /// to parse or validate are reported in the returned status message but
  /// do not abort the load (the other profiles still land); the returned
  /// value is the number of profiles loaded.
  StatusOr<size_t> LoadDirectory(const std::string& dir);

  /// Re-runs LoadDirectory on the remembered directory — the hot-reload
  /// command. Profiles whose file disappeared stay in the store (serving
  /// keeps working); updated files replace their profile and invalidate
  /// its caches. FailedPrecondition when no directory was ever loaded.
  StatusOr<size_t> Reload();

  std::vector<std::string> Ids() const;  ///< merged over shards, sorted
  size_t size() const;

  /// The owning shard's cache registry / plan cache for `id`: cache
  /// traffic and invalidation never cross a shard lock.
  estimation::EvalCacheRegistry& caches_for(const std::string& id);
  construct::PlanCache& plans_for(const std::string& id);

  /// Plan-cache counters summed over every shard.
  construct::PlanCacheStats plan_stats() const;

  StoreStats stats() const;

  /// Snapshot-compacts every shard now (tests / tooling).
  Status Compact();

  /// The full durable contents as (id, version, profile text), sorted by
  /// id — the oracle view of tools/cqp_crashfuzz and the tests. Reads
  /// paged-out values back from disk, hence fallible; FailedPrecondition
  /// in memory.
  StatusOr<std::vector<storage::journal::SnapshotEntry>> Contents() const;

  bool wedged() const;  ///< true when ANY shard is wedged

  size_t num_shards() const { return shards_.size(); }
  shard::ProfileShard& shard(size_t index) { return *shards_[index]; }

 private:
  ProfileStore() = default;

  shard::ProfileShard& ShardFor(const std::string& id) const;

  std::vector<std::unique_ptr<shard::ProfileShard>> shards_;
  double open_ms_ = 0.0;  ///< wall time of Open (all shards, sequential)

  mutable std::mutex directory_mu_;
  std::string directory_;  ///< LoadDirectory's; guarded by directory_mu_
};

}  // namespace cqp::server

#endif  // CQP_SERVER_PROFILE_STORE_H_
