// cqp_crashfuzz — fault-injected crash/recovery fuzzer for the durable
// profile store (docs/durability.md).
//
//   $ cqp_crashfuzz --campaigns 1000 --seed 7
//   1000 campaigns: 612 crashes, 389 torn tails recovered, ... OK
//
// Each campaign runs a seeded random Put/Remove/Find workload against a
// 1–4-shard ProfileStore on a FaultyFileSystem, kills the store at a
// random byte offset (or with probabilistic failpoint faults: torn
// appends, ENOSPC, fsync failures, rename failures, split writes), then
// reopens the directory and checks the recovered state against a shadow
// in-memory oracle — the same differential pattern as src/testing, aimed
// at the durability layer. Most campaigns run under a tiny resident
// budget, so paging and eviction happen inside the workload, and the
// interleaved Find()s are checked against the oracle too.
//
// The acknowledgement rule under test: if Put/Remove returned OK, the
// mutation MUST survive the crash; the one mutation in flight when the
// fault hit MAY be present (its record reached the disk) or absent (torn),
// but nothing else may change and nothing acknowledged may be lost. A
// crash lands mid-write on ONE shard, so every other shard must hold
// exactly its acknowledged state: with a single-threaded workload the
// recovered state must equal the oracle either before or after the failed
// operation — any other state is data loss or corruption and fails the
// campaign.
//
// Recovery is also re-run a second time per campaign (recovery must be
// idempotent: recovering a recovered directory changes nothing), and a
// post-recovery Put must succeed with a version above everything
// recovered on its shard (per-shard version monotonicity — the property
// that keeps version-keyed caches coherent across restarts). One shard
// covers the layout of a migrated single-directory store.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/status.h"
#include "server/profile_store.h"
#include "storage/journal/faulty_file.h"
#include "storage/journal/file.h"
#include "workload/movie_gen.h"
#include "workload/profile_gen.h"

namespace {

using cqp::Status;
using cqp::server::ProfileStore;
using cqp::server::StoreOptions;
using cqp::storage::FaultyFileSystem;

/// splitmix64: cheap deterministic per-campaign randomness.
uint64_t Mix(uint64_t& state) {
  uint64_t z = state += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct Flags {
  uint64_t campaigns = 1000;
  uint64_t seed = 1;
  bool verbose = false;
};

using EntryMap = std::map<std::string, std::pair<uint64_t, std::string>>;

std::string DescribeEntries(const EntryMap& entries) {
  std::string out = "{";
  for (const auto& [id, entry] : entries) {
    out += id + "@v" + std::to_string(entry.first) + " ";
  }
  return out + "}";
}

struct CampaignTally {
  uint64_t crashes = 0;
  uint64_t wedges = 0;
  uint64_t torn_tails = 0;
  uint64_t compactions = 0;
  uint64_t records_replayed = 0;
  uint64_t page_ins = 0;
  uint64_t evictions = 0;
  uint64_t failures = 0;
};

/// One generated profile: the object (for Put) plus its canonical text
/// (what the journal will persist — the oracle compares against this).
struct PoolEntry {
  cqp::prefs::Profile profile;
  std::string text;
};

/// The shadow oracle: id → (version, profile text), mirroring exactly
/// what an OK Put/Remove promises to persist. Versions are PER SHARD —
/// each shard persists its own counter — so the oracle routes ids exactly
/// like the store (same FNV hash) and keeps one counter per shard.
struct Oracle {
  explicit Oracle(size_t shards)
      : num_shards(shards), next_version(shards, 1) {}

  size_t ShardOf(const std::string& id) const {
    return ProfileStore::ShardIndexForId(id, num_shards);
  }
  void Put(const std::string& id, const std::string& text) {
    entries[id] = {next_version[ShardOf(id)]++, text};
  }
  void Remove(const std::string& id) {
    entries.erase(id);
    ++next_version[ShardOf(id)];
  }

  size_t num_shards;
  EntryMap entries;
  std::vector<uint64_t> next_version;
};

bool RunCampaign(uint64_t campaign, const Flags& flags,
                 const cqp::storage::Database& db,
                 const std::vector<PoolEntry>& pool,
                 const std::string& base_dir, uint64_t calibrated_bytes,
                 CampaignTally* tally) {
  uint64_t rng = flags.seed * 0x100000001b3ull + campaign * 2654435761ull;
  const std::string dir = base_dir + "/campaign" + std::to_string(campaign);
  const size_t num_shards = 1 + Mix(rng) % 4;

  FaultyFileSystem fs(cqp::storage::PosixFileSystem());
  StoreOptions options;
  options.dir = dir;
  options.num_shards = num_shards;
  options.fs = &fs;
  options.compact_threshold_bytes = 1500 + Mix(rng) % 6000;
  // Mostly tiny budgets, so page-outs and cold Find()s run INSIDE the
  // fault window; a quarter of campaigns keep everything resident as the
  // control.
  options.resident_budget_bytes =
      (Mix(rng) % 4 == 0) ? (64ull << 20) : (1 + Mix(rng) % 32768);

  const uint64_t mode = Mix(rng) % 10;
  if (mode < 6) {
    fs.CrashAfterBytes(1 + Mix(rng) % (calibrated_bytes +
                                       calibrated_bytes / 4 + 1));
  } else if (mode < 9) {
    uint64_t fp_seed = Mix(rng);
    std::string spec =
        "storage.file.append.torn=0.03:" + std::to_string(fp_seed) +
        ",storage.file.append.enospc=0.02:" + std::to_string(fp_seed + 1) +
        ",storage.file.sync.fail=0.03:" + std::to_string(fp_seed + 2) +
        ",storage.file.rename.fail=0.05:" + std::to_string(fp_seed + 3) +
        ",storage.file.append.split=0.20:" + std::to_string(fp_seed + 4);
    Status configured = cqp::failpoint::Configure(spec);
    if (!configured.ok()) {
      std::fprintf(stderr, "campaign %llu: bad failpoint spec: %s\n",
                   static_cast<unsigned long long>(campaign),
                   configured.ToString().c_str());
      return false;
    }
  }  // else: clean run

  Oracle oracle(num_shards);
  Oracle after_failed_op(num_shards);
  bool fault_hit = false;

  {
    auto opened = ProfileStore::Open(&db, options);
    if (!opened.ok()) {
      // Open writes the MANIFEST and creates N journals, so an armed fault
      // can kill setup itself. That is a legal crash point: recovery must
      // then produce an EMPTY store. A clean-mode open failure is a bug.
      if (mode >= 9) {
        std::fprintf(stderr, "campaign %llu: clean open failed: %s\n",
                     static_cast<unsigned long long>(campaign),
                     opened.status().ToString().c_str());
        cqp::failpoint::Reset();
        return false;
      }
      fault_hit = false;  // nothing was ever acknowledged
    } else {
      ProfileStore& store = **opened;
      // 8 ids over 1–4 shards: every shard sees traffic, and the same id
      // keeps revisiting its shard so versions stack up.
      const uint64_t n_ops = 10 + Mix(rng) % 40;
      for (uint64_t op = 0; op < n_ops; ++op) {
        const std::string id = "u" + std::to_string(Mix(rng) % 8);
        const uint64_t action = Mix(rng) % 10;
        // A crash can fire inside the background compaction of an ACKED
        // Put (the Put rightly returned OK; the snapshot rewrite died).
        // From that point reads fail too, so the workload is over — with
        // no operation in limbo.
        if (fs.crashed()) break;
        if (action >= 8) {
          // Read check: no fault has fired yet (the crash case broke out
          // above, failpoints only trip writes), so Find must agree with
          // the oracle exactly — paging in from disk when the id went
          // cold.
          ProfileStore::Snapshot snap = store.FindSnapshot(id);
          auto it = oracle.entries.find(id);
          if (it == oracle.entries.end()) {
            if (snap.graph != nullptr) {
              std::fprintf(stderr,
                           "campaign %llu: FAIL — Find(%s) returned a "
                           "profile the oracle does not have\n",
                           static_cast<unsigned long long>(campaign),
                           id.c_str());
              cqp::failpoint::Reset();
              return false;
            }
          } else if (snap.graph == nullptr ||
                     snap.version != it->second.first) {
            std::fprintf(stderr,
                         "campaign %llu: FAIL — Find(%s) gave v%llu/%s, "
                         "oracle has v%llu\n",
                         static_cast<unsigned long long>(campaign),
                         id.c_str(),
                         static_cast<unsigned long long>(snap.version),
                         snap.graph == nullptr ? "null" : "graph",
                         static_cast<unsigned long long>(it->second.first));
            cqp::failpoint::Reset();
            return false;
          }
          continue;
        }
        Status result;
        after_failed_op.entries = oracle.entries;
        after_failed_op.next_version = oracle.next_version;
        if (action < 6) {
          const PoolEntry& entry = pool[Mix(rng) % pool.size()];
          after_failed_op.Put(id, entry.text);
          result = store.Put(id, entry.profile);
          if (result.ok()) oracle.Put(id, entry.text);
        } else {
          after_failed_op.Remove(id);
          result = store.Remove(id);
          if (result.ok()) oracle.Remove(id);
        }
        if (result.ok()) continue;
        if (result.code() == cqp::StatusCode::kNotFound) continue;  // no-op
        fault_hit = true;
        break;
      }
      if (!fault_hit) {
        after_failed_op.entries = oracle.entries;
        after_failed_op.next_version = oracle.next_version;
      }

      if (store.wedged()) ++tally->wedges;
      const cqp::server::ShardStats total = store.stats().total;
      tally->compactions += total.journal.compactions;
      tally->page_ins += total.page_ins;
      tally->evictions += total.evictions;
    }
  }
  if (fs.crashed()) ++tally->crashes;

  // ---- "Reboot": clear the fault machinery and recover every shard. ----
  cqp::failpoint::Reset();
  fs.ClearCrash();

  auto reopened = ProfileStore::Open(&db, options);
  if (!reopened.ok()) {
    std::fprintf(stderr,
                 "campaign %llu: FAIL — recovery refused to start: %s\n",
                 static_cast<unsigned long long>(campaign),
                 reopened.status().ToString().c_str());
    return false;
  }
  ProfileStore& recovered = **reopened;
  const cqp::server::JournalStats recovery = recovered.stats().total.journal;
  if (recovery.torn_tail_recovered) ++tally->torn_tails;
  tally->records_replayed += recovery.replayed_records;

  auto contents = recovered.Contents();
  if (!contents.ok()) {
    std::fprintf(stderr,
                 "campaign %llu: FAIL — recovered contents unreadable: %s\n",
                 static_cast<unsigned long long>(campaign),
                 contents.status().ToString().c_str());
    return false;
  }
  EntryMap state;
  for (const auto& entry : *contents) {
    state[entry.key] = {entry.version, entry.value};
  }
  // A crash interrupts exactly one shard's write; every other shard must
  // hold exactly its acknowledged state, so globally the recovered map is
  // the acked oracle with or without the one in-limbo mutation.
  const bool matches_acked = state == oracle.entries;
  const bool matches_next = state == after_failed_op.entries;
  if (!matches_acked && !matches_next) {
    std::fprintf(
        stderr,
        "campaign %llu: FAIL — recovered state matches neither oracle\n"
        "  acked:     %s\n  with-last: %s\n  recovered: %s\n  dir: %s\n",
        static_cast<unsigned long long>(campaign),
        DescribeEntries(oracle.entries).c_str(),
        DescribeEntries(after_failed_op.entries).c_str(),
        DescribeEntries(state).c_str(), dir.c_str());
    return false;  // keep the directory for post-mortem
  }

  // Version monotonicity is a PER-SHARD property: a fresh Put must land
  // above everything recovered on ITS shard (other shards' counters are
  // independent and may be higher).
  const size_t post_shard =
      ProfileStore::ShardIndexForId("post", num_shards);
  uint64_t max_recovered = 0;
  for (const auto& [id, entry] : state) {
    if (ProfileStore::ShardIndexForId(id, num_shards) == post_shard) {
      max_recovered = std::max(max_recovered, entry.first);
    }
  }
  Status final_put = recovered.Put("post", pool[0].profile);
  if (!final_put.ok()) {
    std::fprintf(stderr,
                 "campaign %llu: FAIL — post-recovery Put failed: %s\n",
                 static_cast<unsigned long long>(campaign),
                 final_put.ToString().c_str());
    return false;
  }
  uint64_t post_version = recovered.FindSnapshot("post").version;
  if (post_version <= max_recovered) {
    std::fprintf(stderr,
                 "campaign %llu: FAIL — post-recovery version %llu not "
                 "above shard %zu's recovered max %llu\n",
                 static_cast<unsigned long long>(campaign),
                 static_cast<unsigned long long>(post_version), post_shard,
                 static_cast<unsigned long long>(max_recovered));
    return false;
  }

  // Recovery idempotence, shard by shard: a third open of the (now clean)
  // directory reproduces the state exactly and sees no torn tail.
  EntryMap expected_second = state;
  expected_second["post"] = {post_version, pool[0].text};
  {
    auto third = ProfileStore::Open(&db, options);
    if (!third.ok()) {
      std::fprintf(stderr,
                   "campaign %llu: FAIL — second recovery failed: %s\n",
                   static_cast<unsigned long long>(campaign),
                   third.status().ToString().c_str());
      return false;
    }
    if ((*third)->stats().total.journal.torn_tail_recovered) {
      std::fprintf(stderr,
                   "campaign %llu: FAIL — second recovery still sees a "
                   "torn tail (truncation did not stick)\n",
                   static_cast<unsigned long long>(campaign));
      return false;
    }
    auto second = (*third)->Contents();
    if (!second.ok()) {
      std::fprintf(stderr,
                   "campaign %llu: FAIL — second contents unreadable: %s\n",
                   static_cast<unsigned long long>(campaign),
                   second.status().ToString().c_str());
      return false;
    }
    EntryMap second_state;
    for (const auto& entry : *second) {
      second_state[entry.key] = {entry.version, entry.value};
    }
    if (second_state != expected_second) {
      std::fprintf(stderr,
                   "campaign %llu: FAIL — recovery not idempotent\n"
                   "  first+put: %s\n  second:    %s\n",
                   static_cast<unsigned long long>(campaign),
                   DescribeEntries(expected_second).c_str(),
                   DescribeEntries(second_state).c_str());
      return false;
    }
  }

  if (flags.verbose) {
    std::fprintf(stderr,
                 "campaign %llu ok: shards=%zu mode=%s fault=%d crash=%d\n",
                 static_cast<unsigned long long>(campaign), num_shards,
                 mode < 6 ? "crash" : (mode < 9 ? "failpoints" : "clean"),
                 fault_hit ? 1 : 0, fs.crashed() ? 1 : 0);
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--campaigns N] [--seed N] [--verbose]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--campaigns" && i + 1 < argc) {
      flags.campaigns = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seed" && i + 1 < argc) {
      flags.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--verbose") {
      flags.verbose = true;
    } else {
      return Usage(argv[0]);
    }
  }

  // A small database + tiny profiles keep one campaign in the hundreds of
  // microseconds: the adversarial coverage comes from the fault schedule,
  // not from profile size.
  cqp::workload::MovieDbConfig movie_config;
  movie_config.n_movies = 150;
  movie_config.n_directors = 15;
  movie_config.n_actors = 30;
  auto db = cqp::workload::BuildMovieDatabase(movie_config);
  if (!db.ok()) {
    std::fprintf(stderr, "movie db: %s\n", db.status().ToString().c_str());
    return 1;
  }

  std::vector<PoolEntry> pool;
  for (uint64_t i = 0; i < 6; ++i) {
    cqp::workload::ProfileGenConfig config;
    config.seed = flags.seed * 131 + i;
    config.n_genre_prefs = 2 + static_cast<int>(i % 3);
    config.n_director_prefs = 2;
    config.n_actor_prefs = 2;
    config.n_year_prefs = 1 + static_cast<int>(i % 2);
    config.n_duration_prefs = 1;
    auto profile = cqp::workload::GenerateProfile(config, movie_config);
    if (!profile.ok()) {
      std::fprintf(stderr, "profile gen: %s\n",
                   profile.status().ToString().c_str());
      return 1;
    }
    std::string text = profile->ToText();
    pool.push_back(PoolEntry{*std::move(profile), std::move(text)});
  }

  char dir_template[] = "/tmp/cqp_crashfuzz.XXXXXX";
  char* base = ::mkdtemp(dir_template);
  if (base == nullptr) {
    std::fprintf(stderr, "mkdtemp: %s\n", std::strerror(errno));
    return 1;
  }
  const std::string base_dir = base;

  // Calibration: one clean max-length workload measures how many bytes a
  // campaign writes, so crash offsets can cover the whole range (including
  // "never fires" at the top — a clean-run control).
  uint64_t calibrated_bytes = 4096;
  {
    FaultyFileSystem fs(cqp::storage::PosixFileSystem());
    StoreOptions options;
    options.dir = base_dir + "/calibrate";
    options.num_shards = 4;  // the fuzz maximum — upper-bounds the bytes
    options.fs = &fs;
    auto store = ProfileStore::Open(&*db, options);
    if (store.ok()) {
      for (int op = 0; op < 50; ++op) {
        (void)(*store)->Put("u" + std::to_string(op % 8),
                            pool[op % pool.size()].profile);
      }
      calibrated_bytes = std::max<uint64_t>(fs.bytes_written(), 4096);
    }
    std::error_code ec;
    std::filesystem::remove_all(options.dir, ec);
  }

  CampaignTally tally;
  for (uint64_t campaign = 0; campaign < flags.campaigns; ++campaign) {
    if (!RunCampaign(campaign, flags, *db, pool, base_dir, calibrated_bytes,
                     &tally)) {
      ++tally.failures;
    }
  }

  std::printf(
      "%llu campaigns: %llu crashes, %llu wedges, %llu torn tails "
      "recovered, %llu compactions, %llu records replayed, %llu page-ins, "
      "%llu evictions, %llu failures — %s\n",
      static_cast<unsigned long long>(flags.campaigns),
      static_cast<unsigned long long>(tally.crashes),
      static_cast<unsigned long long>(tally.wedges),
      static_cast<unsigned long long>(tally.torn_tails),
      static_cast<unsigned long long>(tally.compactions),
      static_cast<unsigned long long>(tally.records_replayed),
      static_cast<unsigned long long>(tally.page_ins),
      static_cast<unsigned long long>(tally.evictions),
      static_cast<unsigned long long>(tally.failures),
      tally.failures == 0 ? "OK" : "FAIL");
  if (tally.failures == 0) {
    std::error_code ec;
    std::filesystem::remove_all(base_dir, ec);
  } else {
    std::fprintf(stderr, "failing campaign dirs kept under %s\n",
                 base_dir.c_str());
  }
  return tally.failures == 0 ? 0 : 1;
}
