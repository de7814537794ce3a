// Durability bench for the crash-safe profile store (docs/durability.md):
// what does journal-before-apply + fsync-on-commit cost, how far do
// independent shard journals scale concurrent writes, and how fast is
// recovery as the journal grows?
//
// Three cell families, one BENCH_durability.json record:
//
//   mode=inline            sequential Puts into a 1-shard store, one fsync
//                          each: puts_per_sec, the put latency's median and
//                          tail (put_p50_ms, put_tail_ms at put_tail_pct,
//                          over put_n puts), fsync_per_put (~1).
//   mode=shards, threads=T T closed-loop writer threads against a T-shard
//                          store, writer t putting ids that route to
//                          shard t: puts_per_sec shows whether N journals
//                          supply the write concurrency group commit was
//                          once for.
//   mode=recovery          a 1-shard journal of N records is written, the
//                          store closed, and reopen is timed: recovery_ms
//                          and records_per_sec. Recovery builds only the
//                          id → (version, disk location) index, so this is
//                          the indexing rate, not a graph-building rate.
//
// All cells run against a real directory under /tmp (posix fsync — the
// numbers include the device), with compaction disabled so journal length
// is the controlled variable. The record carries the machine fingerprint
// (bench_record.h).
//
// Flags: --smoke    reduced grid (fewer ops, threads {1,4}, one recovery N)
//        --json P   write the record to P (default BENCH_durability.json)

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_record.h"
#include "common/stopwatch.h"
#include "server/json.h"
#include "server/profile_store.h"
#include "workload/movie_gen.h"
#include "workload/profile_gen.h"

namespace {

using namespace cqp;  // NOLINT
using server::ProfileStore;

/// Compaction would truncate the journal mid-cell; push it out of reach so
/// journal length stays the controlled variable.
constexpr uint64_t kNoCompaction = 1ull << 40;

struct PoolEntry {
  prefs::Profile profile;
  std::string text;
};

StatusOr<std::unique_ptr<ProfileStore>> OpenStore(const storage::Database& db,
                                                  const std::string& dir,
                                                  size_t shards) {
  server::StoreOptions options;
  options.dir = dir;
  options.num_shards = shards;
  options.compact_threshold_bytes = kNoCompaction;
  return ProfileStore::Open(&db, options);
}

server::JsonValue MakeCell(const char* mode) {
  server::JsonValue obj = server::JsonValue::Object();
  obj.Set("mode", server::JsonValue::Str(mode));
  return obj;
}

/// mode=inline: one writer, one fsync per Put — the strongest-semantics
/// baseline every other cell is measured against.
server::JsonValue RunInlineCell(const storage::Database& db,
                                const std::vector<PoolEntry>& pool,
                                const std::string& dir, size_t n_ops) {
  using server::JsonValue;
  JsonValue cell = MakeCell("inline");
  auto store = OpenStore(db, dir, /*shards=*/1);
  if (!store.ok()) {
    std::fprintf(stderr, "inline open: %s\n",
                 store.status().ToString().c_str());
    std::exit(1);
  }
  std::vector<double> latencies_ms;
  latencies_ms.reserve(n_ops);
  Stopwatch wall;
  for (size_t op = 0; op < n_ops; ++op) {
    const PoolEntry& entry = pool[op % pool.size()];
    Stopwatch one;
    Status put = (*store)->Put("u" + std::to_string(op % 8), entry.profile);
    latencies_ms.push_back(one.ElapsedMillis());
    if (!put.ok()) {
      std::fprintf(stderr, "inline put: %s\n", put.ToString().c_str());
      std::exit(1);
    }
  }
  const double wall_ms = wall.ElapsedMillis();
  const server::JournalStats stats = (*store)->stats().total.journal;

  cell.Set("ops", JsonValue::Number(static_cast<double>(n_ops)));
  cell.Set("puts_per_sec",
           JsonValue::Number(1000.0 * static_cast<double>(n_ops) / wall_ms));
  bench::SetLatency(cell, "put_",
                    cqpbench::Summarize(std::move(latencies_ms)));
  cell.Set("fsync_per_put",
           JsonValue::Number(static_cast<double>(stats.fsyncs) /
                             static_cast<double>(n_ops)));
  cell.Set("journal_bytes",
           JsonValue::Number(static_cast<double>(stats.journal_bytes)));
  return cell;
}

/// mode=shards: `threads` closed-loop writers against a store with one
/// shard per writer; writer t only puts ids that route to shard t, so no
/// two writers share a journal or a shard lock.
server::JsonValue RunShardsCell(const storage::Database& db,
                                const std::vector<PoolEntry>& pool,
                                const std::string& dir, size_t threads,
                                size_t ops_per_thread) {
  using server::JsonValue;
  JsonValue cell = MakeCell("shards");
  auto store = OpenStore(db, dir, /*shards=*/threads);
  if (!store.ok()) {
    std::fprintf(stderr, "shards open: %s\n",
                 store.status().ToString().c_str());
    std::exit(1);
  }
  constexpr size_t kIdsPerWriter = 4;
  std::vector<std::vector<std::string>> ids(threads);
  size_t full = 0;
  for (size_t i = 0; full < threads; ++i) {
    std::string id = "u" + std::to_string(i);
    std::vector<std::string>& mine =
        ids[ProfileStore::ShardIndexForId(id, threads)];
    if (mine.size() == kIdsPerWriter) continue;
    mine.push_back(std::move(id));
    if (mine.size() == kIdsPerWriter) ++full;
  }
  std::atomic<size_t> errors{0};
  std::vector<std::thread> writers;
  Stopwatch wall;
  for (size_t t = 0; t < threads; ++t) {
    writers.emplace_back([&, t] {
      for (size_t op = 0; op < ops_per_thread; ++op) {
        const PoolEntry& entry = pool[(t + op) % pool.size()];
        if (!(*store)->Put(ids[t][op % kIdsPerWriter], entry.profile).ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& w : writers) w.join();
  const double wall_ms = wall.ElapsedMillis();
  const size_t n_ops = threads * ops_per_thread;
  const server::JournalStats stats = (*store)->stats().total.journal;
  if (errors.load() != 0) {
    std::fprintf(stderr, "shards cell: %zu failed puts\n", errors.load());
    std::exit(1);
  }

  cell.Set("threads", JsonValue::Number(static_cast<double>(threads)));
  cell.Set("ops", JsonValue::Number(static_cast<double>(n_ops)));
  cell.Set("puts_per_sec",
           JsonValue::Number(1000.0 * static_cast<double>(n_ops) / wall_ms));
  cell.Set("fsync_per_put",
           JsonValue::Number(static_cast<double>(stats.fsyncs) /
                             static_cast<double>(n_ops)));
  return cell;
}

/// mode=recovery: journal of `n_records` mutations, close, timed reopen.
server::JsonValue RunRecoveryCell(const storage::Database& db,
                                  const std::vector<PoolEntry>& pool,
                                  const std::string& dir, size_t n_records) {
  using server::JsonValue;
  JsonValue cell = MakeCell("recovery");
  uint64_t journal_bytes = 0;
  {
    // The store is closed cleanly (destructor flushes) before the timed
    // open.
    auto store = OpenStore(db, dir, /*shards=*/1);
    if (!store.ok()) {
      std::fprintf(stderr, "recovery setup open: %s\n",
                   store.status().ToString().c_str());
      std::exit(1);
    }
    for (size_t op = 0; op < n_records; ++op) {
      const PoolEntry& entry = pool[op % pool.size()];
      Status put =
          (*store)->Put("u" + std::to_string(op % 16), entry.profile);
      if (!put.ok()) {
        std::fprintf(stderr, "recovery setup put: %s\n",
                     put.ToString().c_str());
        std::exit(1);
      }
    }
    journal_bytes = (*store)->stats().total.journal.journal_bytes;
  }

  auto reopened = OpenStore(db, dir, /*shards=*/0);
  if (!reopened.ok()) {
    std::fprintf(stderr, "recovery reopen: %s\n",
                 reopened.status().ToString().c_str());
    std::exit(1);
  }
  const server::JournalStats info = (*reopened)->stats().total.journal;
  if (info.replayed_records != n_records || info.torn_tail_recovered) {
    std::fprintf(stderr,
                 "recovery cell: replayed %llu of %zu records, torn=%d\n",
                 static_cast<unsigned long long>(info.replayed_records),
                 n_records, info.torn_tail_recovered ? 1 : 0);
    std::exit(1);
  }

  cell.Set("records", JsonValue::Number(static_cast<double>(n_records)));
  cell.Set("journal_bytes",
           JsonValue::Number(static_cast<double>(journal_bytes)));
  cell.Set("recovery_ms", JsonValue::Number(info.recovery_ms));
  cell.Set("records_per_sec",
           JsonValue::Number(info.recovery_ms > 0.0
                                 ? 1000.0 * static_cast<double>(n_records) /
                                       info.recovery_ms
                                 : 0.0));
  return cell;
}

int Run(bool smoke, const std::string& json_path) {
  workload::MovieDbConfig movie_config;
  movie_config.n_movies = 150;
  movie_config.n_directors = 15;
  movie_config.n_actors = 30;
  auto db = workload::BuildMovieDatabase(movie_config);
  if (!db.ok()) {
    std::fprintf(stderr, "movie db: %s\n", db.status().ToString().c_str());
    return 1;
  }

  std::vector<PoolEntry> pool;
  for (uint64_t i = 0; i < 8; ++i) {
    workload::ProfileGenConfig config;
    config.seed = 977 + i;
    config.n_genre_prefs = 2 + static_cast<int>(i % 3);
    config.n_director_prefs = 2;
    config.n_actor_prefs = 2;
    config.n_year_prefs = 1;
    config.n_duration_prefs = 1;
    auto profile = workload::GenerateProfile(config, movie_config);
    if (!profile.ok()) {
      std::fprintf(stderr, "profile gen: %s\n",
                   profile.status().ToString().c_str());
      return 1;
    }
    std::string text = profile->ToText();
    pool.push_back(PoolEntry{*std::move(profile), std::move(text)});
  }

  char dir_template[] = "/tmp/cqp_durability_bench.XXXXXX";
  char* base = ::mkdtemp(dir_template);
  if (base == nullptr) {
    std::fprintf(stderr, "mkdtemp: %s\n", std::strerror(errno));
    return 1;
  }
  const std::string base_dir = base;

  const size_t inline_ops = smoke ? 200 : 1000;
  const std::vector<size_t> shard_threads =
      smoke ? std::vector<size_t>{1, 4} : std::vector<size_t>{1, 4, 8};
  const size_t shard_ops_per_thread = smoke ? 100 : 400;
  const std::vector<size_t> recovery_records =
      smoke ? std::vector<size_t>{1000}
            : std::vector<size_t>{1000, 5000, 20000};

  using server::JsonValue;
  JsonValue record = JsonValue::Object();
  record.Set("bench", JsonValue::Str("durability"));
  JsonValue cells = JsonValue::Array();
  int next_dir = 0;
  auto fresh_dir = [&] {
    return base_dir + "/cell" + std::to_string(next_dir++);
  };

  cells.Append(RunInlineCell(*db, pool, fresh_dir(), inline_ops));
  for (size_t threads : shard_threads) {
    cells.Append(RunShardsCell(*db, pool, fresh_dir(), threads,
                               shard_ops_per_thread));
  }
  for (size_t records : recovery_records) {
    cells.Append(RunRecoveryCell(*db, pool, fresh_dir(), records));
  }
  record.Set("cells", std::move(cells));

  std::error_code ec;
  std::filesystem::remove_all(base_dir, ec);
  return bench::WriteRecord(std::move(record), json_path) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_durability.json";
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
  return Run(smoke, json_path);
}
