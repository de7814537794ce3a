// Server bench for what the benchmark of record (cqpbench/) does not
// measure. Personalize latency, capacity and plan-cache hits and misses
// are cqp_bench's hot_plans and cold_queries workloads; this binary covers
// the rest of the served system on an in-process server::Server over a
// real loopback socket:
//
//   * a pipelined ping sweep: one poll()-driven driver thread keeps 8 pings
//     in flight on each of {1, 8, 32, 256, 1024} connections, so the cells
//     measure the event loops with no personalize work behind them;
//   * a held-connections phase: as many idle connections as the fd rlimit
//     allows toward 10k, and a pipelined ping probe through them;
//   * a shed probe: a server with max_pending = 1 and one worker must
//     answer every overloaded request with an explicit ResourceExhausted,
//     never a silent drop or a hang (the bench finishing IS the
//     no-hung-connections check: every client runs a blocking closed loop);
//   * a shard sweep of the demand-paged profile tier over {1k, 100k, 1M}
//     profiles (smoke: {1k, 10k}). Each count's shard directory is built by
//     writing per-shard snapshots directly (routing ids with the store's
//     own hash), opened cold, then measured with a sequential cold-Find
//     scan (the page-in path) and a multi-threaded Zipfian Find workload
//     (the steady-state mix). The cell records the accounted resident
//     bytes against the budget — the bounded-memory claim — plus VmRSS,
//     page-in/eviction counters and open time.
//
// Every latency is reported as its median and the highest percentile with
// at least ten samples beyond it (`tail_pct` names it), and both records
// carry the machine fingerprint (bench_record.h).
//
// Flags: --smoke        reduced sweeps
//        --json P       write the server record to P (BENCH_server.json)
//        --shard-json P write the shard-sweep record to P (BENCH_shard.json)

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench_record.h"
#include "common/stopwatch.h"
#include "server/client.h"
#include "server/io_util.h"
#include "server/json.h"
#include "server/protocol.h"
#include "server/profile_store.h"
#include "server/server.h"
#include "storage/journal/file.h"
#include "storage/journal/snapshot.h"
#include "workload/movie_gen.h"
#include "workload/profile_gen.h"

namespace {

using namespace cqp;  // NOLINT
using bench::SetLatency;
using cqpbench::FormatSummary;
using cqpbench::Summarize;
using cqpbench::Summary;

// ------------------------------------------------------- pipelined ping sweep

/// One multiplexed bench connection: nonblocking fd, a pipelined outbox,
/// and send timestamps for per-request latency under pipelining.
struct MuxConn {
  int fd = -1;
  std::string outbox;
  std::string inbox;
  std::deque<double> send_times;
  size_t sent = 0;
  size_t received = 0;
};

struct MuxCellResult {
  size_t connections = 0;
  size_t pipeline = 0;
  size_t requests = 0;
  size_t ok = 0;
  size_t errors = 0;  ///< typed wire errors + unparsable frames
  size_t connect_failures = 0;
  double wall_ms = 0.0;
  double qps = 0.0;
  Summary latency;
};

int ConnectLoopback(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Drives `connections` pipelined ping connections from ONE thread with
/// poll(): each keeps `pipeline` requests in flight until it has sent
/// `requests_per_conn`. This is how the sweep reaches 1024 concurrent
/// connections on a box where 1024 blocking client threads would be the
/// bottleneck, not the server. Every response is fully parsed (a real
/// client would), so driver-side parse cost is included in the clock —
/// honest, since driver and server share the host.
MuxCellResult RunMuxCell(int port, size_t connections, size_t pipeline,
                         size_t requests_per_conn) {
  MuxCellResult cell;
  cell.connections = connections;
  cell.pipeline = pipeline;

  std::vector<MuxConn> conns(connections);
  for (MuxConn& conn : conns) {
    conn.fd = ConnectLoopback(port);
    if (conn.fd < 0) {
      ++cell.connect_failures;
      continue;
    }
    server::SetNonBlocking(conn.fd, true);
  }

  std::vector<double> latencies;
  latencies.reserve(connections * requests_per_conn);
  Stopwatch wall;

  server::WireRequest ping;
  ping.op = server::RequestOp::kPing;
  const std::string ping_frame = server::SerializeRequest(ping) + "\n";
  auto enqueue = [&](MuxConn& conn) {
    conn.outbox += ping_frame;
    conn.send_times.push_back(wall.ElapsedMillis());
    ++conn.sent;
  };
  for (MuxConn& conn : conns) {
    if (conn.fd < 0) continue;
    for (size_t i = 0; i < std::min(pipeline, requests_per_conn); ++i) {
      enqueue(conn);
    }
  }

  std::vector<pollfd> pfds(connections);
  for (;;) {
    bool live = false;
    for (size_t i = 0; i < connections; ++i) {
      MuxConn& conn = conns[i];
      pfds[i].fd = conn.fd;
      pfds[i].events = 0;
      pfds[i].revents = 0;
      if (conn.fd < 0) continue;
      if (conn.received < conn.sent) pfds[i].events |= POLLIN;
      if (!conn.outbox.empty()) pfds[i].events |= POLLOUT;
      if (pfds[i].events != 0) live = true;
    }
    if (!live) break;
    if (::poll(pfds.data(), pfds.size(), 10000) <= 0) break;

    for (size_t i = 0; i < connections; ++i) {
      MuxConn& conn = conns[i];
      if (conn.fd < 0 || pfds[i].revents == 0) continue;

      if ((pfds[i].revents & POLLOUT) != 0 && !conn.outbox.empty()) {
        ssize_t n = ::send(conn.fd, conn.outbox.data(), conn.outbox.size(),
                           MSG_NOSIGNAL);
        if (n > 0) {
          conn.outbox.erase(0, static_cast<size_t>(n));
        } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
          cell.errors += conn.sent - conn.received;
          ::close(conn.fd);
          conn.fd = -1;
          continue;
        }
      }

      if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        char chunk[16384];
        ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
        if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
          cell.errors += conn.sent - conn.received;
          ::close(conn.fd);
          conn.fd = -1;
          continue;
        }
        if (n < 0) continue;
        conn.inbox.append(chunk, static_cast<size_t>(n));
        size_t nl;
        while ((nl = conn.inbox.find('\n')) != std::string::npos) {
          std::string line = conn.inbox.substr(0, nl);
          conn.inbox.erase(0, nl + 1);
          if (!conn.send_times.empty()) {
            latencies.push_back(wall.ElapsedMillis() - conn.send_times.front());
            conn.send_times.pop_front();
          }
          auto response = server::ParseResponse(line);
          if (response.ok() && response->ok()) {
            ++cell.ok;
          } else {
            ++cell.errors;
          }
          ++conn.received;
          if (conn.sent < requests_per_conn) enqueue(conn);
        }
      }
    }
  }

  cell.wall_ms = wall.ElapsedMillis();
  for (MuxConn& conn : conns) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  cell.requests = cell.ok + cell.errors;
  cell.qps = cell.wall_ms > 0.0
                 ? 1000.0 * static_cast<double>(cell.requests) / cell.wall_ms
                 : 0.0;
  cell.latency = Summarize(std::move(latencies));
  return cell;
}

server::JsonValue MuxCellToJson(const MuxCellResult& cell) {
  using server::JsonValue;
  JsonValue obj = JsonValue::Object();
  obj.Set("op", JsonValue::Str("ping"));
  obj.Set("connections",
          JsonValue::Number(static_cast<double>(cell.connections)));
  obj.Set("pipeline", JsonValue::Number(static_cast<double>(cell.pipeline)));
  obj.Set("requests", JsonValue::Number(static_cast<double>(cell.requests)));
  obj.Set("ok", JsonValue::Number(static_cast<double>(cell.ok)));
  obj.Set("errors", JsonValue::Number(static_cast<double>(cell.errors)));
  obj.Set("connect_failures",
          JsonValue::Number(static_cast<double>(cell.connect_failures)));
  obj.Set("wall_ms", JsonValue::Number(cell.wall_ms));
  obj.Set("qps", JsonValue::Number(cell.qps));
  SetLatency(obj, "", cell.latency);
  return obj;
}

/// Held-connections phase: open as many idle connections as the fd
/// rlimit allows toward `target` (client and server fds share one process
/// here, so each connection costs two), then measure ping latency through
/// the noise — the epoll loops must not degrade because thousands of
/// idle fds sit in their interest sets.
server::JsonValue RunHeldConnections(int port, size_t target) {
  using server::JsonValue;
  rlimit limit{};
  ::getrlimit(RLIMIT_NOFILE, &limit);
  // Reserve headroom for the db, journals, epoll/eventfds and the probe.
  size_t max_held = 0;
  if (limit.rlim_cur > 1024) {
    max_held = (static_cast<size_t>(limit.rlim_cur) - 1024) / 2;
  }
  const size_t goal = std::min(target, max_held);

  std::vector<int> held;
  held.reserve(goal);
  while (held.size() < goal) {
    int fd = ConnectLoopback(port);
    if (fd < 0) break;
    held.push_back(fd);
  }

  // A quick pipelined ping probe while the held fds idle in the loops.
  MuxCellResult probe = RunMuxCell(port, 32, 4, 64);

  JsonValue obj = JsonValue::Object();
  obj.Set("target", JsonValue::Number(static_cast<double>(target)));
  obj.Set("held", JsonValue::Number(static_cast<double>(held.size())));
  obj.Set("rlimit_nofile",
          JsonValue::Number(static_cast<double>(limit.rlim_cur)));
  obj.Set("rlimit_capped", JsonValue::Bool(goal < target));
  obj.Set("probe", MuxCellToJson(probe));
  std::printf(
      "held connections: %zu/%zu idle (rlimit %llu, client+server share "
      "the fd table), probe %s, %zu/%zu ok\n",
      held.size(), target, static_cast<unsigned long long>(limit.rlim_cur),
      FormatSummary(probe.latency, "ms").c_str(), probe.ok,
      probe.requests);
  for (int fd : held) ::close(fd);
  return obj;
}

/// Overload probe: a server with max_pending = 1 and one worker must
/// answer every overloaded request with an explicit ResourceExhausted —
/// ok + shed must account for every single request sent.
server::JsonValue RunShedProbe(const storage::Database& db,
                               server::ProfileStore& profiles, bool smoke) {
  server::ServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  options.admission.max_pending = 1;
  server::Server overloaded(&db, &profiles, options);
  CQP_CHECK(overloaded.Start().ok());

  const size_t clients = smoke ? 4 : 8;
  const size_t per_client = smoke ? 4 : 8;
  std::atomic<size_t> ok{0}, shed{0}, other{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      server::Client client;
      if (!client.Connect("127.0.0.1", overloaded.port()).ok()) {
        other.fetch_add(per_client);
        return;
      }
      for (size_t i = 0; i < per_client; ++i) {
        server::WireRequest request;
        request.op = server::RequestOp::kPersonalize;
        request.personalize.sql = "SELECT title FROM MOVIE";
        auto response = client.Call(request);
        if (!response.ok()) {
          other.fetch_add(1);
        } else if (response->ok()) {
          ok.fetch_add(1);
        } else if (response->status.code() == StatusCode::kResourceExhausted) {
          shed.fetch_add(1);
        } else {
          other.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  overloaded.Stop();

  const size_t total = clients * per_client;
  const bool all_accounted =
      other.load() == 0 && ok.load() + shed.load() == total;
  std::printf(
      "shed probe (max_pending=1): %zu requests -> %zu ok, %zu shed "
      "(ResourceExhausted), %zu other%s\n",
      total, ok.load(), shed.load(), other.load(),
      all_accounted ? " -- every request accounted for"
                    : "  ** UNACCOUNTED REQUESTS **");

  using server::JsonValue;
  JsonValue obj = JsonValue::Object();
  obj.Set("requests", JsonValue::Number(static_cast<double>(total)));
  obj.Set("ok", JsonValue::Number(static_cast<double>(ok.load())));
  obj.Set("shed", JsonValue::Number(static_cast<double>(shed.load())));
  obj.Set("other", JsonValue::Number(static_cast<double>(other.load())));
  obj.Set("all_accounted", JsonValue::Bool(all_accounted));
  return obj;
}

// ---------------------------------------------------------------------------
// Shard sweep: demand-paged tier over {1k, 100k, 1M} profiles.

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// `n` pool indices drawn from a Zipf(s) distribution over `pool` ranks:
/// rank r is picked with probability proportional to 1/r^s. Deterministic.
std::vector<size_t> ZipfSequence(size_t n, size_t pool, double s,
                                 uint64_t seed) {
  std::vector<double> cdf(pool);
  double sum = 0.0;
  for (size_t r = 0; r < pool; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[r] = sum;
  }
  std::vector<size_t> sequence;
  sequence.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    double u = static_cast<double>(SplitMix64(seed) >> 11) * 0x1.0p-53 * sum;
    size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    sequence.push_back(std::min(rank, pool - 1));
  }
  return sequence;
}

/// VmRSS in MB from /proc/self/status (0.0 when unavailable).
double RssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string SweepId(size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "u%07zu", i);
  return buf;
}

/// Builds a `count`-profile shard directory WITHOUT `count` journaled
/// puts: one Open() lays down the MANIFEST and the shard skeletons, then
/// each shard's snapshot is written directly (ids routed with the store's
/// own hash, versions numbered per shard — exactly the state a compaction
/// would have produced).
bool BuildShardDirectory(const storage::Database& db, const std::string& dir,
                         size_t count, size_t num_shards,
                         const std::vector<std::string>& texts) {
  {
    server::StoreOptions options;
    options.dir = dir;
    options.num_shards = num_shards;
    auto store = server::ProfileStore::Open(&db, options);
    if (!store.ok()) {
      std::fprintf(stderr, "shard skeleton: %s\n",
                   store.status().ToString().c_str());
      return false;
    }
  }
  storage::FileSystem& fs = storage::PosixFileSystem();
  for (size_t shard = 0; shard < num_shards; ++shard) {
    storage::journal::SnapshotData data;
    for (size_t i = 0; i < count; ++i) {
      const std::string id = SweepId(i);
      if (server::ProfileStore::ShardIndexForId(id, num_shards) != shard) {
        continue;
      }
      storage::journal::SnapshotEntry entry;
      entry.key = id;
      entry.version = data.next_version++;
      entry.value = texts[i % texts.size()];
      data.entries.push_back(std::move(entry));
    }
    const std::string path =
        dir + "/" + server::ProfileStore::ShardDirName(shard) + "/snapshot";
    Status written = storage::journal::WriteSnapshot(fs, path, data);
    if (!written.ok()) {
      std::fprintf(stderr, "snapshot %s: %s\n", path.c_str(),
                   written.ToString().c_str());
      return false;
    }
  }
  return true;
}

server::JsonValue RunShardSweep(const storage::Database& db,
                                const workload::MovieDbConfig& db_config,
                                bool smoke, size_t* failures) {
  using server::JsonValue;
  const std::vector<size_t> counts = smoke
                                         ? std::vector<size_t>{1000, 10000}
                                         : std::vector<size_t>{1000, 100000,
                                                               1000000};
  const size_t num_shards = smoke ? 4 : 8;
  // Full runs use a budget the Zipfian tail actually overflows (the mixed
  // phase touches ~20 MB of distinct graphs at 100k+ profiles), so the
  // checked-in record shows the LRU evicting, not just absorbing.
  const uint64_t budget_bytes = smoke ? (4ull << 20) : (16ull << 20);
  const size_t cold_finds = smoke ? 300 : 1000;
  const size_t mixed_finds = smoke ? 2000 : 20000;
  const size_t mixed_threads = 4;
  const double zipf_s = 1.1;

  // A small pool of distinct profile texts; the tier pages TEXT + graph,
  // so distinct ids sharing a text still cost full per-id residency.
  std::vector<std::string> texts;
  for (uint64_t seed = 50; seed < 58; ++seed) {
    workload::ProfileGenConfig config;
    config.seed = seed;
    config.n_genre_prefs = 3;
    config.n_director_prefs = 2;
    config.n_actor_prefs = 2;
    config.n_year_prefs = 2;
    config.n_duration_prefs = 1;
    auto profile = workload::GenerateProfile(config, db_config);
    CQP_CHECK(profile.ok());
    texts.push_back(profile->ToText());
  }

  char dir_template[] = "/tmp/cqp_shard_sweep.XXXXXX";
  char* base = ::mkdtemp(dir_template);
  CQP_CHECK(base != nullptr);
  const std::string base_dir = base;

  std::printf(
      "shard sweep: %zu shards, %.0f MB resident budget, zipf s=%.1f\n",
      num_shards, static_cast<double>(budget_bytes) / (1024.0 * 1024.0),
      zipf_s);
  std::printf("%9s %9s %9s %10s %9s %9s %10s %8s  %s\n", "profiles",
              "build_ms", "open_ms", "mixed q/s", "page_ins", "evictions",
              "resident", "rss_mb", "cold finds | mixed finds");

  JsonValue cells = JsonValue::Array();
  std::vector<Summary> colds;
  for (size_t count : counts) {
    const std::string dir = base_dir + "/n" + std::to_string(count);
    Stopwatch build_timer;
    if (!BuildShardDirectory(db, dir, count, num_shards, texts)) {
      ++*failures;
      continue;
    }
    const double build_ms = build_timer.ElapsedMillis();

    server::StoreOptions options;
    options.dir = dir;
    options.num_shards = num_shards;
    options.resident_budget_bytes = budget_bytes;
    Stopwatch open_timer;
    auto opened = server::ProfileStore::Open(&db, options);
    if (!opened.ok()) {
      std::fprintf(stderr, "sweep open: %s\n",
                   opened.status().ToString().c_str());
      ++*failures;
      continue;
    }
    const double open_ms = open_timer.ElapsedMillis();
    server::ProfileStore& store = **opened;
    CQP_CHECK(store.size() == count);

    // Cold scan: single-threaded Finds of ids never touched since Open —
    // every one is a page-in (pread + parse + graph build).
    uint64_t rng = 0x5eed0000 + count;
    std::vector<double> cold_ms;
    cold_ms.reserve(cold_finds);
    for (size_t i = 0; i < cold_finds; ++i) {
      const std::string id = SweepId(SplitMix64(rng) % count);
      Stopwatch timer;
      server::ProfileStore::Snapshot snap = store.FindSnapshot(id);
      cold_ms.push_back(timer.ElapsedMillis());
      if (snap.graph == nullptr) ++*failures;
    }
    const Summary cold = Summarize(std::move(cold_ms));
    colds.push_back(cold);

    // Zipfian mixed phase: hot ids stay resident, the tail pages in and
    // out, all under the byte budget.
    std::vector<size_t> sequence =
        ZipfSequence(mixed_finds, count, zipf_s, /*seed=*/count);
    std::atomic<size_t> null_finds{0};
    std::mutex mu;
    std::vector<double> mixed_ms;
    Stopwatch wall;
    {
      std::vector<std::thread> threads;
      const size_t per_thread = mixed_finds / mixed_threads;
      for (size_t t = 0; t < mixed_threads; ++t) {
        threads.emplace_back([&, t] {
          std::vector<double> my_ms;
          my_ms.reserve(per_thread);
          for (size_t i = t * per_thread; i < (t + 1) * per_thread; ++i) {
            // Rank r → a fixed id: the Zipf head is the same ids all day.
            uint64_t id_rng = 0xabcdef ^ sequence[i];
            const std::string id = SweepId(SplitMix64(id_rng) % count);
            Stopwatch timer;
            if (store.FindSnapshot(id).graph == nullptr) {
              null_finds.fetch_add(1);
            }
            my_ms.push_back(timer.ElapsedMillis());
          }
          std::lock_guard<std::mutex> lock(mu);
          mixed_ms.insert(mixed_ms.end(), my_ms.begin(), my_ms.end());
        });
      }
      for (std::thread& thread : threads) thread.join();
    }
    const double wall_ms = wall.ElapsedMillis();
    const double qps =
        wall_ms > 0.0
            ? 1000.0 * static_cast<double>(mixed_ms.size()) / wall_ms
            : 0.0;
    const Summary mixed = Summarize(std::move(mixed_ms));
    if (null_finds.load() > 0) {
      std::fprintf(stderr, "%zu mixed finds came back null\n",
                   null_finds.load());
      *failures += null_finds.load();
    }

    const server::ShardStats tier = store.stats().total;
    const double resident_mb =
        static_cast<double>(tier.resident_bytes) / (1024.0 * 1024.0);
    const double budget_mb =
        static_cast<double>(budget_bytes) / (1024.0 * 1024.0);
    // The bounded-memory claim, with a ±20% tolerance (pinned graphs may
    // briefly hold the total above the line).
    const bool resident_ok = resident_mb <= budget_mb * 1.2;
    if (!resident_ok) {
      std::fprintf(stderr,
                   "resident %.1f MB exceeds budget %.1f MB (+20%%)\n",
                   resident_mb, budget_mb);
      ++*failures;
    }
    if (tier.page_in_errors > 0) {
      std::fprintf(stderr, "%llu page-in errors\n",
                   static_cast<unsigned long long>(tier.page_in_errors));
      *failures += tier.page_in_errors;
    }
    const double rss_mb = RssMb();

    std::printf("%9zu %9.0f %9.0f %10.1f %9llu %9llu %7.1fMB %8.1f  %s | %s\n",
                count, build_ms, open_ms, qps,
                static_cast<unsigned long long>(tier.page_ins),
                static_cast<unsigned long long>(tier.evictions), resident_mb,
                rss_mb, FormatSummary(cold, "ms").c_str(),
                FormatSummary(mixed, "ms").c_str());

    JsonValue cell = JsonValue::Object();
    cell.Set("profiles", JsonValue::Number(static_cast<double>(count)));
    cell.Set("shards", JsonValue::Number(static_cast<double>(num_shards)));
    cell.Set("resident_budget_mb", JsonValue::Number(budget_mb));
    cell.Set("build_ms", JsonValue::Number(build_ms));
    cell.Set("open_ms", JsonValue::Number(open_ms));
    SetLatency(cell, "cold_", cold);
    cell.Set("qps", JsonValue::Number(qps));
    SetLatency(cell, "", mixed);
    cell.Set("page_ins",
             JsonValue::Number(static_cast<double>(tier.page_ins)));
    cell.Set("page_in_waits",
             JsonValue::Number(static_cast<double>(tier.page_in_waits)));
    cell.Set("evictions",
             JsonValue::Number(static_cast<double>(tier.evictions)));
    cell.Set("pinned_skips",
             JsonValue::Number(static_cast<double>(tier.pinned_skips)));
    cell.Set("resident_mb", JsonValue::Number(resident_mb));
    cell.Set("resident_within_budget", JsonValue::Bool(resident_ok));
    cell.Set("rss_mb", JsonValue::Number(rss_mb));
    cells.Append(std::move(cell));

    // Free the directory before the next (bigger) cell.
    (*opened).reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  std::error_code ec;
  std::filesystem::remove_all(base_dir, ec);

  // The "no cold cliff" number: the cold page-in tail at the largest count
  // over the smallest (same sample size, so the same percentile). Paging
  // is O(1) in directory size, so this should hover near 1 at any scale.
  const double cliff = (colds.size() >= 2 && colds.front().tail > 0.0)
                           ? colds.back().tail / colds.front().tail
                           : 0.0;
  std::printf("cold tail largest/smallest = %.2fx\n\n", cliff);

  JsonValue record = JsonValue::Object();
  record.Set("bench", JsonValue::Str("shard"));
  JsonValue workload = JsonValue::Object();
  workload.Set("shards", JsonValue::Number(static_cast<double>(num_shards)));
  workload.Set("resident_budget_mb",
               JsonValue::Number(static_cast<double>(budget_bytes) /
                                 (1024.0 * 1024.0)));
  workload.Set("zipf_s", JsonValue::Number(zipf_s));
  workload.Set("mixed_threads",
               JsonValue::Number(static_cast<double>(mixed_threads)));
  record.Set("workload", std::move(workload));
  record.Set("smoke", JsonValue::Bool(smoke));
  record.Set("cells", std::move(cells));
  record.Set("cold_tail_scale_ratio", JsonValue::Number(cliff));
  return record;
}

int Run(bool smoke, const std::string& json_path,
        const std::string& shard_json_path) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const int64_t movies = smoke ? 500 : 2000;
  std::printf("Server bench — %lld movies\n", static_cast<long long>(movies));
  std::printf("fingerprint %s\n", bench::Fingerprint().Dump().c_str());

  workload::MovieDbConfig db_config;
  db_config.n_movies = movies;
  db_config.n_directors = std::max<int64_t>(10, movies / 10);
  db_config.n_actors = std::max<int64_t>(20, movies / 5);
  auto db_or = workload::BuildMovieDatabase(db_config);
  if (!db_or.ok()) {
    std::fprintf(stderr, "db: %s\n", db_or.status().ToString().c_str());
    return 1;
  }
  storage::Database db = *std::move(db_or);
  server::ProfileStore profiles(&db);
  auto profile = workload::GenerateProfile({}, db_config);
  if (!profile.ok() || !profiles.Put("default", *profile).ok()) {
    std::fprintf(stderr, "cannot build the bench profile\n");
    return 1;
  }

  server::ServerOptions options;
  options.port = 0;
  server::Server server(&db, &profiles, options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    return 1;
  }
  const size_t io_threads = server.num_io_threads();
  std::printf("server on 127.0.0.1:%d\n\n", server.port());

  // ---- pipelined ping sweep: one driver thread, poll()-driven, pushes
  // connection counts far past what blocking client threads can.
  std::printf("pipelined ping sweep (%zu io loop%s)\n", io_threads,
              io_threads == 1 ? "" : "s");
  std::printf("%6s %5s %9s %10s %6s %6s  %s\n", "conns", "pipe", "requests",
              "q/s", "ok", "err", "latency");
  const std::vector<size_t> mux_conns =
      smoke ? std::vector<size_t>{1, 8, 64}
            : std::vector<size_t>{1, 8, 32, 256, 1024};
  const size_t pings = smoke ? 4096 : 32768;
  server::JsonValue cells = server::JsonValue::Array();
  for (size_t conns : mux_conns) {
    MuxCellResult cell = RunMuxCell(server.port(), conns, /*pipeline=*/8,
                                    std::max<size_t>(16, pings / conns));
    std::printf("%6zu %5zu %9zu %10.1f %6zu %6zu  %s\n", cell.connections,
                cell.pipeline, cell.requests, cell.qps, cell.ok, cell.errors,
                FormatSummary(cell.latency, "ms").c_str());
    cells.Append(MuxCellToJson(cell));
  }
  std::printf("\n");

  // ---- held-connections phase: thousands of idle fds must not slow the
  // loops down.
  server::JsonValue held_record =
      RunHeldConnections(server.port(), smoke ? 1000 : 10000);
  server.Stop();
  std::printf("\n");

  server::JsonValue shed_probe = RunShedProbe(db, profiles, smoke);
  std::printf("\n");

  size_t failures = 0;
  server::JsonValue shard_record =
      RunShardSweep(db, db_config, smoke, &failures);

  using server::JsonValue;
  JsonValue record = JsonValue::Object();
  record.Set("bench", JsonValue::Str("server"));
  record.Set("smoke", JsonValue::Bool(smoke));
  record.Set("io_threads", JsonValue::Number(static_cast<double>(io_threads)));
  record.Set("cells", std::move(cells));
  record.Set("held_connections", std::move(held_record));
  record.Set("shed_probe", std::move(shed_probe));

  if (!bench::WriteRecord(std::move(record), json_path)) return 1;
  if (!bench::WriteRecord(std::move(shard_record), shard_json_path)) return 1;
  if (failures > 0) {
    std::fprintf(stderr, "%zu shard-sweep failures\n", failures);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_server.json";
  std::string shard_json_path = "BENCH_shard.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--shard-json") == 0 && i + 1 < argc) {
      shard_json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--json PATH] [--shard-json PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  return Run(smoke, json_path, shard_json_path);
}
