// cqp_serve — the personalization server binary.
//
//   $ cqp_serve --port 7433 --movies 5000 --profiles ./profiles
//   serving on 127.0.0.1:7433 (3 profiles)
//
// Speaks the line-delimited JSON protocol of docs/server.md. Without
// --profiles it serves one generated profile under the id "default", so a
// fresh checkout can talk to a live server in two commands. Reads stdin:
// 'stats' prints a stats snapshot, 'quit' (or EOF) shuts down gracefully.
// SIGTERM and SIGINT trigger the same graceful shutdown (drain in-flight
// requests, flush the journal), so `kill` and Ctrl-C never lose data.
//
// With --data-dir the profile store is durable (docs/durability.md):
// every Put/Remove is journaled + fsynced before it is acknowledged, and
// startup indexes each shard's snapshot + journal. --shards N picks the
// shard count of a fresh directory (an existing one keeps its MANIFEST's
// count); cold profiles page in on demand, resident graph memory bounded
// by --resident-mb (docs/server.md).

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "server/profile_store.h"
#include "server/server.h"
#include "workload/movie_gen.h"
#include "workload/profile_gen.h"
#include "workload/tourist_gen.h"

namespace {

/// Self-pipe for async-signal-safe shutdown: the handler only write()s one
/// byte; the main loop polls the read end next to stdin.
int g_signal_pipe[2] = {-1, -1};

void OnShutdownSignal(int) {
  char byte = 1;
  // The pipe is non-blocking; if it is somehow full the first byte already
  // queued a shutdown, so a failed write is fine to ignore.
  [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

bool InstallSignalHandlers() {
  if (::pipe(g_signal_pipe) != 0) return false;
  for (int fd : g_signal_pipe) {
    int fl = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
  }
  struct sigaction action {};
  action.sa_handler = OnShutdownSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  return ::sigaction(SIGTERM, &action, nullptr) == 0 &&
         ::sigaction(SIGINT, &action, nullptr) == 0;
}

struct Flags {
  int port = 7433;
  int64_t movies = 5000;
  bool tourist = false;
  std::string profiles_dir;
  size_t threads = 0;
  size_t io_threads = 0;  ///< epoll event loops; 0 = auto
  size_t write_queue_kb = 0;  ///< 0 = server default watermark
  size_t max_pending = 256;
  size_t soft_pending = 0;
  double degraded_deadline_ms = 25.0;
  double stats_interval_s = 0.0;
  double cmax_ms = 400.0;
  size_t max_k = 20;
  std::string algorithm = "auto";
  std::string data_dir;  ///< durable mode when non-empty
  double compact_mb = 4.0;
  double drain_deadline_ms = 1000.0;
  size_t shards = 0;  ///< 0 = the MANIFEST's count, or 16 when fresh
  double resident_mb = 256.0;  ///< total resident-graph budget (durable)
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--movies N | --tourist]\n"
               "          [--profiles DIR] [--threads N] [--io-threads N]\n"
               "          [--write-queue-kb N]\n"
               "          [--max-pending N] [--soft-pending N]\n"
               "          [--degraded-deadline-ms MS] [--stats-interval S]\n"
               "          [--cmax MS] [--k N] [--algorithm NAME]\n"
               "          [--data-dir DIR] [--compact-mb MB]\n"
               "          [--drain-deadline-ms MS]\n"
               "          [--shards N] [--resident-mb MB]\n",
               argv0);
  return 2;
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](double* out) {
      if (i + 1 >= argc) return false;
      char* end = nullptr;
      *out = std::strtod(argv[++i], &end);
      return end != argv[i] && *end == '\0';
    };
    double value = 0.0;
    if (arg == "--tourist") {
      flags->tourist = true;
    } else if (arg == "--profiles" && i + 1 < argc) {
      flags->profiles_dir = argv[++i];
    } else if (arg == "--algorithm" && i + 1 < argc) {
      flags->algorithm = argv[++i];
    } else if (arg == "--port" && next(&value)) {
      flags->port = static_cast<int>(value);
    } else if (arg == "--movies" && next(&value)) {
      flags->movies = static_cast<int64_t>(value);
    } else if (arg == "--threads" && next(&value)) {
      flags->threads = static_cast<size_t>(value);
    } else if (arg == "--io-threads" && next(&value)) {
      flags->io_threads = static_cast<size_t>(value);
    } else if (arg == "--write-queue-kb" && next(&value)) {
      flags->write_queue_kb = static_cast<size_t>(value);
    } else if (arg == "--max-pending" && next(&value)) {
      flags->max_pending = static_cast<size_t>(value);
    } else if (arg == "--soft-pending" && next(&value)) {
      flags->soft_pending = static_cast<size_t>(value);
    } else if (arg == "--degraded-deadline-ms" && next(&value)) {
      flags->degraded_deadline_ms = value;
    } else if (arg == "--stats-interval" && next(&value)) {
      flags->stats_interval_s = value;
    } else if (arg == "--cmax" && next(&value)) {
      flags->cmax_ms = value;
    } else if (arg == "--k" && next(&value)) {
      flags->max_k = static_cast<size_t>(value);
    } else if (arg == "--data-dir" && i + 1 < argc) {
      flags->data_dir = argv[++i];
    } else if (arg == "--compact-mb" && next(&value)) {
      flags->compact_mb = value;
    } else if (arg == "--drain-deadline-ms" && next(&value)) {
      flags->drain_deadline_ms = value;
    } else if (arg == "--shards" && next(&value)) {
      flags->shards = static_cast<size_t>(value);
    } else if (arg == "--resident-mb" && next(&value)) {
      flags->resident_mb = value;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cqp;  // NOLINT

  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return Usage(argv[0]);

  // 1. The database.
  storage::Database db;
  workload::MovieDbConfig movie_config;
  if (flags.tourist) {
    auto built = workload::BuildTouristDatabase({});
    if (!built.ok()) {
      std::fprintf(stderr, "tourist db: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    db = *std::move(built);
  } else {
    movie_config.n_movies = flags.movies;
    movie_config.n_directors = std::max<int64_t>(10, flags.movies / 10);
    movie_config.n_actors = std::max<int64_t>(20, flags.movies / 5);
    auto built = workload::BuildMovieDatabase(movie_config);
    if (!built.ok()) {
      std::fprintf(stderr, "movie db: %s\n", built.status().ToString().c_str());
      return 1;
    }
    db = *std::move(built);
  }

  // 2. The profiles: in-memory by default, journaled + snapshotted when
  // --data-dir names a directory (docs/durability.md).
  std::unique_ptr<server::ProfileStore> owned;
  if (flags.data_dir.empty()) {
    if (flags.shards > 0) {
      std::fprintf(stderr, "--shards requires --data-dir\n");
      return Usage(argv[0]);
    }
    owned = std::make_unique<server::ProfileStore>(&db);
  } else {
    server::StoreOptions store_options;
    store_options.dir = flags.data_dir;
    store_options.num_shards = flags.shards;
    store_options.resident_budget_bytes =
        static_cast<uint64_t>(flags.resident_mb * 1024.0 * 1024.0);
    store_options.compact_threshold_bytes =
        static_cast<uint64_t>(flags.compact_mb * 1024.0 * 1024.0);
    auto opened = server::ProfileStore::Open(&db, store_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "data dir %s: %s\n", flags.data_dir.c_str(),
                   opened.status().ToString().c_str());
      return 1;
    }
    const server::JournalStats recovery = (*opened)->stats().total.journal;
    std::fprintf(stderr,
                 "opened %zu shards under %s (%zu profiles indexed from %llu "
                 "journal records%s, lazily paged) in %.1f ms\n",
                 (*opened)->num_shards(), flags.data_dir.c_str(),
                 (*opened)->size(),
                 static_cast<unsigned long long>(recovery.replayed_records),
                 recovery.torn_tail_recovered ? ", torn tail truncated" : "",
                 recovery.recovery_ms);
    owned = *std::move(opened);
  }
  server::ProfileStore& profiles = *owned;
  if (!flags.profiles_dir.empty()) {
    auto loaded = profiles.LoadDirectory(flags.profiles_dir);
    if (!loaded.ok()) {
      std::fprintf(stderr, "profiles: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "loaded %zu profiles from %s\n", *loaded,
                 flags.profiles_dir.c_str());
  } else if (!flags.tourist && profiles.size() == 0) {
    auto profile = workload::GenerateProfile({}, movie_config);
    if (!profile.ok() || !profiles.Put("default", *profile).ok()) {
      std::fprintf(stderr, "cannot build the default profile\n");
      return 1;
    }
    std::fprintf(stderr, "serving one generated profile as 'default'\n");
  } else if (flags.tourist && profiles.size() == 0) {
    std::fprintf(stderr,
                 "warning: --tourist without --profiles serves no profile; "
                 "personalize requests will fail with NotFound\n");
  }

  // 3. The server.
  server::ServerOptions options;
  options.port = flags.port;
  options.num_threads = flags.threads;
  options.io_threads = flags.io_threads;
  if (flags.write_queue_kb > 0) {
    options.write_queue_watermark_bytes = flags.write_queue_kb * 1024;
    // Keep the hard cap a multiple of the watermark so shrinking one
    // shrinks the other coherently.
    options.write_queue_limit_bytes = flags.write_queue_kb * 1024 * 16;
  }
  options.admission.max_pending = flags.max_pending;
  options.admission.soft_pending = flags.soft_pending;
  options.admission.degraded_deadline_ms = flags.degraded_deadline_ms;
  options.stats_interval_s = flags.stats_interval_s;
  options.default_problem = ::cqp::cqp::ProblemSpec::Problem2(flags.cmax_ms);
  options.default_algorithm = flags.algorithm;
  options.default_max_k = flags.max_k;
  options.drain_deadline_ms = flags.drain_deadline_ms;

  server::Server server(&db, &profiles, options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("serving on 127.0.0.1:%d (%zu profiles)\n", server.port(),
              profiles.size());
  std::fflush(stdout);

  if (!InstallSignalHandlers()) {
    std::fprintf(stderr, "warning: signal handlers not installed (%s); "
                 "SIGTERM will not drain\n", std::strerror(errno));
  }

  // Wait for 'quit' on stdin, stdin EOF, or SIGTERM/SIGINT via the
  // self-pipe — whichever comes first triggers the same graceful Stop().
  bool shutdown = false;
  std::string line;
  while (!shutdown) {
    pollfd fds[2] = {{STDIN_FILENO, POLLIN, 0}, {g_signal_pipe[0], POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;  // handler ran; the pipe byte is queued
      break;
    }
    if (fds[1].revents & POLLIN) {
      std::fprintf(stderr, "shutdown signal received; draining\n");
      break;
    }
    if (fds[0].revents & (POLLIN | POLLHUP)) {
      if (!std::getline(std::cin, line)) break;  // EOF, as before
      if (line == "quit" || line == "stop" || line == "exit") shutdown = true;
      if (line == "stats") {
        std::printf("%s\n", server.StatsJson().Dump().c_str());
        std::fflush(stdout);
      }
    }
  }
  server.Stop();
  std::printf("stopped after %llu requests\n",
              static_cast<unsigned long long>(server.stats().requests_total()));
  return 0;
}
