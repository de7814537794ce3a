#include "server/profile_store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/stopwatch.h"
#include "server/shard/profile_shard.h"

namespace cqp::server {

namespace {

constexpr char kManifestMagic[] = "cqp-shards v1";

std::string ManifestPath(const std::string& dir) { return dir + "/MANIFEST"; }

std::string EncodeManifest(size_t num_shards) {
  std::ostringstream out;
  out << kManifestMagic << "\n"
      << "shards " << num_shards << "\n";
  return out.str();
}

StatusOr<size_t> ParseManifest(const std::string& text) {
  std::istringstream in(text);
  std::string magic_line;
  if (!std::getline(in, magic_line) || magic_line != kManifestMagic) {
    return Internal("shard MANIFEST has bad magic line '" + magic_line + "'");
  }
  std::string word;
  size_t shards = 0;
  if (!(in >> word >> shards) || word != "shards" || shards == 0) {
    return Internal("shard MANIFEST has no valid 'shards N' line");
  }
  return shards;
}

/// Folds one shard's counters into the store total.
void Accumulate(const ShardStats& s, ShardStats* total) {
  total->profiles += s.profiles;
  total->resident_profiles += s.resident_profiles;
  total->resident_bytes += s.resident_bytes;
  total->resident_budget_bytes += s.resident_budget_bytes;
  total->hits += s.hits;
  total->misses += s.misses;
  total->page_ins += s.page_ins;
  total->page_in_waits += s.page_in_waits;
  total->page_in_errors += s.page_in_errors;
  total->evictions += s.evictions;
  total->pinned_skips += s.pinned_skips;
  JournalStats& j = total->journal;
  j.appends += s.journal.appends;
  j.append_bytes += s.journal.append_bytes;
  j.fsyncs += s.journal.fsyncs;
  j.compactions += s.journal.compactions;
  j.journal_bytes += s.journal.journal_bytes;
  j.snapshot_bytes += s.journal.snapshot_bytes;
  j.wedged = j.wedged || s.journal.wedged;
  j.recovered_profiles += s.journal.recovered_profiles;
  j.replayed_records += s.journal.replayed_records;
  j.dropped_bytes += s.journal.dropped_bytes;
  j.torn_tail_recovered =
      j.torn_tail_recovered || s.journal.torn_tail_recovered;
}

}  // namespace

ProfileStore::ProfileStore(const storage::Database* db) {
  shards_.push_back(
      std::make_unique<shard::ProfileShard>(db, 0, shard::ShardOptions{}));
}

ProfileStore::~ProfileStore() = default;

size_t ProfileStore::ShardIndexForId(std::string_view id, size_t num_shards) {
  // FNV-1a 64: stable across platforms and process restarts — the shard
  // layout on disk depends on it.
  uint64_t hash = 14695981039346656037ull;
  for (char c : id) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return static_cast<size_t>(hash % num_shards);
}

std::string ProfileStore::ShardDirName(size_t index) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "shard-%03zu", index);
  return buf;
}

StatusOr<std::unique_ptr<ProfileStore>> ProfileStore::Open(
    const storage::Database* db, StoreOptions options) {
  if (options.dir.empty()) {
    return InvalidArgument("StoreOptions.dir must be set");
  }
  storage::FileSystem* fs =
      options.fs != nullptr ? options.fs : &storage::PosixFileSystem();
  CQP_RETURN_IF_ERROR(fs->CreateDirs(options.dir));

  // Resolve the shard count against the MANIFEST: the hash routing bakes
  // N into the directory layout, so a mismatch must be an error, never a
  // silent remap.
  const std::string manifest_path = ManifestPath(options.dir);
  if (fs->Exists(manifest_path)) {
    CQP_ASSIGN_OR_RETURN(std::string text, fs->ReadFile(manifest_path));
    CQP_ASSIGN_OR_RETURN(size_t on_disk, ParseManifest(text));
    if (options.num_shards != 0 && options.num_shards != on_disk) {
      return InvalidArgument(
          "shard directory '" + options.dir + "' was created with " +
          std::to_string(on_disk) + " shards; refusing to open with " +
          std::to_string(options.num_shards) +
          " (profiles would route to the wrong shard)");
    }
    options.num_shards = on_disk;
  } else {
    // A single-directory store keeps its files at the root. Opening it as
    // a fresh tier would serve zero profiles, so refuse until migrated.
    if (fs->Exists(options.dir + "/journal") ||
        fs->Exists(options.dir + "/snapshot")) {
      return FailedPrecondition(
          "'" + options.dir +
          "' holds a single-directory profile store (journal/snapshot at "
          "the root, no MANIFEST); migrate it to one shard first: cd '" +
          options.dir +
          "' && mkdir shard-000 && mv journal snapshot shard-000/ "
          "(then open with --shards 1; see docs/durability.md)");
    }
    if (options.num_shards == 0) options.num_shards = kDefaultShards;
    CQP_RETURN_IF_ERROR(storage::AtomicWriteFile(
        *fs, manifest_path, EncodeManifest(options.num_shards)));
  }

  Stopwatch timer;
  std::unique_ptr<ProfileStore> store(new ProfileStore());
  store->shards_.reserve(options.num_shards);
  for (size_t i = 0; i < options.num_shards; ++i) {
    shard::ShardOptions shard_options;
    shard_options.dir = options.dir + "/" + ShardDirName(i);
    shard_options.compact_threshold_bytes = options.compact_threshold_bytes;
    shard_options.resident_budget_bytes = std::max<uint64_t>(
        1, options.resident_budget_bytes / options.num_shards);
    shard_options.fs = options.fs;
    CQP_ASSIGN_OR_RETURN(
        std::unique_ptr<shard::ProfileShard> shard,
        shard::ProfileShard::Open(db, i, std::move(shard_options)));
    store->shards_.push_back(std::move(shard));
  }
  store->open_ms_ = timer.ElapsedMillis();
  return store;
}

shard::ProfileShard& ProfileStore::ShardFor(const std::string& id) const {
  if (shards_.size() == 1) return *shards_[0];
  return *shards_[ShardIndexForId(id, shards_.size())];
}

Status ProfileStore::Put(const std::string& id, const prefs::Profile& profile) {
  if (id.empty()) return InvalidArgument("profile id must be non-empty");
  return ShardFor(id).Put(id, profile);
}

Status ProfileStore::Remove(const std::string& id) {
  return ShardFor(id).Remove(id);
}

Status ProfileStore::Flush() {
  Status first = Status::OK();
  for (const auto& shard : shards_) {
    Status flushed = shard->Flush();
    if (first.ok() && !flushed.ok()) first = flushed;
  }
  return first;
}

ProfileStore::Snapshot ProfileStore::FindSnapshot(const std::string& id) const {
  return ShardFor(id).Find(id);
}

std::shared_ptr<const prefs::PersonalizationGraph> ProfileStore::Find(
    const std::string& id) const {
  return FindSnapshot(id).graph;
}

StatusOr<size_t> ProfileStore::LoadDirectory(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return NotFound("cannot read profile directory '" + dir +
                    "': " + ec.message());
  }
  size_t loaded = 0;
  std::string problems;
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_regular_file()) continue;
    const fs::path& path = entry.path();
    if (path.extension() != ".profile") continue;
    std::ifstream in(path);
    if (!in) {
      problems += " " + path.filename().string() + ": unreadable;";
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    StatusOr<prefs::Profile> profile = prefs::Profile::Parse(buffer.str());
    if (!profile.ok()) {
      problems +=
          " " + path.filename().string() + ": " + profile.status().ToString() + ";";
      continue;
    }
    Status put = Put(path.stem().string(), *profile);
    if (!put.ok()) {
      problems += " " + path.filename().string() + ": " + put.ToString() + ";";
      continue;
    }
    ++loaded;
  }
  {
    std::lock_guard<std::mutex> lock(directory_mu_);
    directory_ = dir;
  }
  if (loaded == 0 && !problems.empty()) {
    return InvalidArgument("no profile loaded from '" + dir + "':" + problems);
  }
  if (!problems.empty()) {
    std::fprintf(stderr, "profile store: skipped files in %s:%s\n",
                 dir.c_str(), problems.c_str());
  }
  return loaded;
}

StatusOr<size_t> ProfileStore::Reload() {
  std::string dir;
  {
    std::lock_guard<std::mutex> lock(directory_mu_);
    dir = directory_;
  }
  if (dir.empty()) {
    return FailedPrecondition(
        "profile store was not loaded from a directory; nothing to reload");
  }
  return LoadDirectory(dir);
}

std::vector<std::string> ProfileStore::Ids() const {
  std::vector<std::string> all;
  for (const auto& shard : shards_) {
    std::vector<std::string> ids = shard->Ids();
    all.insert(all.end(), std::make_move_iterator(ids.begin()),
               std::make_move_iterator(ids.end()));
  }
  std::sort(all.begin(), all.end());
  return all;
}

size_t ProfileStore::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->num_profiles();
  return total;
}

estimation::EvalCacheRegistry& ProfileStore::caches_for(const std::string& id) {
  return ShardFor(id).caches();
}

construct::PlanCache& ProfileStore::plans_for(const std::string& id) {
  return ShardFor(id).plans();
}

construct::PlanCacheStats ProfileStore::plan_stats() const {
  construct::PlanCacheStats total;
  for (const auto& shard : shards_) {
    construct::PlanCacheStats s = shard->plans().stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.invalidations += s.invalidations;
    total.entries += s.entries;
  }
  return total;
}

StoreStats ProfileStore::stats() const {
  StoreStats out;
  out.per_shard.reserve(shards_.size());
  for (const auto& shard : shards_) {
    out.per_shard.push_back(shard->stats());
    Accumulate(out.per_shard.back(), &out.total);
  }
  out.total.journal.recovery_ms = open_ms_;
  return out;
}

Status ProfileStore::Compact() {
  Status first = Status::OK();
  for (const auto& shard : shards_) {
    Status compacted = shard->Compact();
    if (first.ok() && !compacted.ok()) first = compacted;
  }
  return first;
}

StatusOr<std::vector<storage::journal::SnapshotEntry>> ProfileStore::Contents()
    const {
  std::vector<storage::journal::SnapshotEntry> all;
  for (const auto& shard : shards_) {
    CQP_ASSIGN_OR_RETURN(std::vector<storage::journal::SnapshotEntry> part,
                         shard->Contents());
    all.insert(all.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  std::sort(all.begin(), all.end(),
            [](const storage::journal::SnapshotEntry& a,
               const storage::journal::SnapshotEntry& b) {
              return a.key < b.key;
            });
  return all;
}

bool ProfileStore::wedged() const {
  for (const auto& shard : shards_) {
    if (shard->wedged()) return true;
  }
  return false;
}

}  // namespace cqp::server
