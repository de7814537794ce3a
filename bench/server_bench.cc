// Closed-loop load bench for the personalization server: an in-process
// server::Server on a real loopback socket, hammered by closed-loop client
// threads over the full concurrency {1, 8, 32} x deadline {10 ms, 50 ms,
// inf} grid.
//
// Each cell reports throughput, client-observed p50/p99 latency, degraded
// and errored request counts. In the infinite-deadline cells every
// response is additionally compared field-for-field against a direct
// in-process Personalize() with the server's own defaults — the wire path
// must be bit-identical to the library path. A final shed probe restarts
// the server with max_pending = 1 and verifies that every overloaded
// request comes back as an explicit ResourceExhausted error, never a
// silent drop or a hang (the bench finishing IS the no-hung-connections
// check: every client runs a blocking closed loop).
//
// A second phase exercises the plan cache with a repeated-query workload:
// a cold pass where every request carries a never-seen-before query (every
// Prepare() misses), then a Zipfian-skewed warm pass over a fixed query
// pool that was prepared once beforehand (every Prepare() hits). Both
// passes run the same query shapes through the same server, so the
// qps ratio isolates what the prepared-personalization pipeline saves.
// Warm responses are compared field-for-field against direct in-process
// Personalize() answers — a cache hit must be bit-identical to a cold
// solve. The phase writes its own record (default BENCH_plan_cache.json).
//
// A third phase sweeps the sharded, demand-paged profile tier over
// profile counts {1k, 100k, 1M} (smoke: {1k, 10k}): each count's shard
// directory is built by writing per-shard snapshots directly (routing ids
// with the store's own hash), opened cold, then measured with a
// sequential cold-Find scan (p99_cold_ms — the page-in path) and a
// multi-threaded Zipfian Find workload (the steady-state mix). The cell
// records the accounted resident bytes against the budget — the bounded-
// memory claim — plus VmRSS, page-in/eviction counters and open time.
// Writes its own record (default BENCH_shard.json).
//
// Flags: --smoke        reduced grid (concurrency {1,8} x deadline {50ms, inf})
//        --json P       write the load-bench record to P (BENCH_server.json)
//        --plan-json P  write the plan-cache record to P (BENCH_plan_cache.json)
//        --shard-json P write the shard-sweep record to P (BENCH_shard.json)

#include <algorithm>
#include <cmath>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/stopwatch.h"
#include "construct/personalizer.h"
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

const std::vector<std::string>& BenchQueries() {
  static const std::vector<std::string>& queries =
      *new std::vector<std::string>{
          "SELECT title FROM MOVIE",
          "SELECT title FROM MOVIE WHERE MOVIE.year >= 1990",
          "SELECT MOVIE.title, DIRECTOR.name FROM MOVIE, DIRECTOR "
          "WHERE MOVIE.did = DIRECTOR.did",
      };
  return queries;
}

struct CellResult {
  size_t concurrency = 0;
  double deadline_ms = 0.0;  ///< 0 = unlimited
  size_t requests = 0;
  size_t ok = 0;
  size_t degraded = 0;
  size_t transport_errors = 0;  ///< broken connection / unparsable frame
  std::map<std::string, size_t> error_codes;  ///< typed wire errors
  double wall_ms = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  size_t identity_checked = 0;
  size_t identity_mismatches = 0;
};

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(values.size()));
  return values[std::min(idx, values.size() - 1)];
}

/// Direct in-process reference answers, one per query, computed with
/// exactly the server's defaults (and no plan cache).
std::vector<construct::PersonalizeResult> ReferenceResults(
    const storage::Database& db, server::ProfileStore& profiles,
    const server::ServerOptions& options,
    const std::vector<std::string>& queries) {
  auto graph = profiles.Find("default");
  CQP_CHECK(graph != nullptr);
  construct::Personalizer personalizer(&db, graph.get());
  std::vector<construct::PersonalizeResult> results;
  for (const std::string& sql : queries) {
    construct::PersonalizeRequest request;
    request.sql = sql;
    request.problem = options.default_problem;
    request.algorithm = options.default_algorithm;
    request.space_options.max_k = options.default_max_k;
    auto result = personalizer.Personalize(request);
    CQP_CHECK(result.ok());
    results.push_back(*std::move(result));
  }
  return results;
}

bool MatchesReference(const server::PersonalizeResultPayload& got,
                      const construct::PersonalizeResult& want) {
  return got.final_sql == want.final_sql &&
         got.feasible == want.solution.feasible &&
         got.chosen == std::vector<int32_t>(want.solution.chosen.begin(),
                                            want.solution.chosen.end()) &&
         got.doi == want.solution.params.doi &&
         got.cost_ms == want.solution.params.cost_ms &&
         got.size == want.solution.params.size;
}

CellResult RunCell(int port, size_t concurrency, double deadline_ms,
                   size_t requests_per_client,
                   const std::vector<construct::PersonalizeResult>* reference) {
  CellResult cell;
  cell.concurrency = concurrency;
  cell.deadline_ms = deadline_ms;
  cell.requests = concurrency * requests_per_client;

  std::mutex mu;  // guards the aggregates below
  std::vector<double> latencies;
  Stopwatch wall;
  std::vector<std::thread> clients;
  clients.reserve(concurrency);
  for (size_t c = 0; c < concurrency; ++c) {
    clients.emplace_back([&, c] {
      server::Client client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        std::lock_guard<std::mutex> lock(mu);
        cell.transport_errors += requests_per_client;
        return;
      }
      std::vector<double> my_latencies;
      size_t my_ok = 0, my_degraded = 0, my_transport = 0;
      size_t my_checked = 0, my_mismatched = 0;
      std::map<std::string, size_t> my_errors;
      for (size_t i = 0; i < requests_per_client; ++i) {
        size_t query = (c * requests_per_client + i) % BenchQueries().size();
        server::WireRequest request;
        request.op = server::RequestOp::kPersonalize;
        request.personalize.sql = BenchQueries()[query];
        request.personalize.deadline_ms = deadline_ms;
        Stopwatch timer;
        auto response = client.Call(request);
        my_latencies.push_back(timer.ElapsedMillis());
        if (!response.ok()) {
          ++my_transport;
          continue;  // connection is gone; further calls fail fast
        }
        if (!response->ok()) {
          ++my_errors[StatusCodeName(response->status.code())];
          continue;
        }
        ++my_ok;
        const server::PersonalizeResultPayload& r = *response->personalize;
        if (r.degraded) ++my_degraded;
        if (reference != nullptr) {
          ++my_checked;
          if (!MatchesReference(r, (*reference)[query])) ++my_mismatched;
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      latencies.insert(latencies.end(), my_latencies.begin(),
                       my_latencies.end());
      cell.ok += my_ok;
      cell.degraded += my_degraded;
      cell.transport_errors += my_transport;
      cell.identity_checked += my_checked;
      cell.identity_mismatches += my_mismatched;
      for (const auto& [code, n] : my_errors) cell.error_codes[code] += n;
    });
  }
  for (std::thread& t : clients) t.join();
  cell.wall_ms = wall.ElapsedMillis();
  cell.qps = cell.wall_ms > 0.0 ? 1000.0 * static_cast<double>(cell.requests) /
                                      cell.wall_ms
                                : 0.0;
  cell.p50_ms = Percentile(latencies, 0.50);
  cell.p99_ms = Percentile(latencies, 0.99);
  return cell;
}

server::JsonValue CellToJson(const CellResult& cell) {
  using server::JsonValue;
  JsonValue obj = JsonValue::Object();
  obj.Set("concurrency",
          JsonValue::Number(static_cast<double>(cell.concurrency)));
  obj.Set("deadline_ms", cell.deadline_ms > 0.0
                             ? JsonValue::Number(cell.deadline_ms)
                             : JsonValue::Null());
  obj.Set("requests", JsonValue::Number(static_cast<double>(cell.requests)));
  obj.Set("ok", JsonValue::Number(static_cast<double>(cell.ok)));
  obj.Set("degraded", JsonValue::Number(static_cast<double>(cell.degraded)));
  obj.Set("transport_errors",
          JsonValue::Number(static_cast<double>(cell.transport_errors)));
  JsonValue errors = JsonValue::Object();
  for (const auto& [code, n] : cell.error_codes) {
    errors.Set(code, JsonValue::Number(static_cast<double>(n)));
  }
  obj.Set("error_codes", std::move(errors));
  obj.Set("wall_ms", JsonValue::Number(cell.wall_ms));
  obj.Set("qps", JsonValue::Number(cell.qps));
  obj.Set("p50_ms", JsonValue::Number(cell.p50_ms));
  obj.Set("p99_ms", JsonValue::Number(cell.p99_ms));
  obj.Set("identity_checked",
          JsonValue::Number(static_cast<double>(cell.identity_checked)));
  obj.Set("identity_mismatches",
          JsonValue::Number(static_cast<double>(cell.identity_mismatches)));
  return obj;
}

// ------------------------------------------------------- multiplexed sweep

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
  double p50_ms = 0.0;
  double p99_ms = 0.0;
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

/// Drives `connections` pipelined connections from ONE thread with poll():
/// each keeps `pipeline` requests in flight until it has sent
/// `requests_per_conn`. This is how the sweep reaches 1024 concurrent
/// connections on a box where 1024 blocking client threads would be the
/// bottleneck, not the server. Every response is fully parsed (a real
/// client would), so driver-side parse cost is included in the clock —
/// honest, since driver and server share the host.
MuxCellResult RunMuxCell(int port, size_t connections, size_t pipeline,
                         size_t requests_per_conn, bool personalize) {
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

  size_t query_cursor = 0;
  auto enqueue = [&](MuxConn& conn) {
    server::WireRequest request;
    if (personalize) {
      request.op = server::RequestOp::kPersonalize;
      request.personalize.sql =
          BenchQueries()[query_cursor++ % BenchQueries().size()];
    } else {
      request.op = server::RequestOp::kPing;
    }
    conn.outbox += server::SerializeRequest(request) + "\n";
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
  cell.p50_ms = Percentile(latencies, 0.50);
  cell.p99_ms = Percentile(latencies, 0.99);
  return cell;
}

server::JsonValue MuxCellToJson(const char* op, const MuxCellResult& cell) {
  using server::JsonValue;
  JsonValue obj = JsonValue::Object();
  obj.Set("op", JsonValue::Str(op));
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
  obj.Set("p50_ms", JsonValue::Number(cell.p50_ms));
  obj.Set("p99_ms", JsonValue::Number(cell.p99_ms));
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
  MuxCellResult probe = RunMuxCell(port, 32, 4, 64, /*personalize=*/false);

  JsonValue obj = JsonValue::Object();
  obj.Set("target", JsonValue::Number(static_cast<double>(target)));
  obj.Set("held", JsonValue::Number(static_cast<double>(held.size())));
  obj.Set("rlimit_nofile",
          JsonValue::Number(static_cast<double>(limit.rlim_cur)));
  obj.Set("rlimit_capped", JsonValue::Bool(goal < target));
  obj.Set("probe", MuxCellToJson("ping", probe));
  std::printf(
      "held connections: %zu/%zu idle (rlimit %llu, client+server share "
      "the fd table), probe p50 %.2f ms p99 %.2f ms, %zu/%zu ok\n",
      held.size(), target, static_cast<unsigned long long>(limit.rlim_cur),
      probe.p50_ms, probe.p99_ms, probe.ok, probe.requests);
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
        request.personalize.sql = BenchQueries()[0];
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
  std::printf(
      "shed probe (max_pending=1): %zu requests -> %zu ok, %zu shed "
      "(ResourceExhausted), %zu other%s\n",
      total, ok.load(), shed.load(), other.load(),
      other.load() == 0 && ok.load() + shed.load() == total
          ? " -- every request accounted for"
          : "  ** UNACCOUNTED REQUESTS **");

  using server::JsonValue;
  JsonValue obj = JsonValue::Object();
  obj.Set("requests", JsonValue::Number(static_cast<double>(total)));
  obj.Set("ok", JsonValue::Number(static_cast<double>(ok.load())));
  obj.Set("shed", JsonValue::Number(static_cast<double>(shed.load())));
  obj.Set("other", JsonValue::Number(static_cast<double>(other.load())));
  obj.Set("all_accounted",
          JsonValue::Bool(other.load() == 0 && ok.load() + shed.load() == total));
  return obj;
}

// ---------------------------------------------------------------------------
// Plan-cache phase: cold (all-miss) vs Zipfian warm (all-hit) throughput.

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

/// One of three query shapes (single table, two-way join, three-way join)
/// with a caller-chosen year literal. Cold and warm passes rotate the same
/// shapes and interleave their year literals (cold odd, pool even) inside
/// the generator's year domain, so same-shape queries in the two passes
/// have near-identical selectivity and search spaces and differ only in
/// their canonical fingerprint. That keeps the passes apples-to-apples —
/// the qps gap is preparation cost, not a selectivity accident.
std::string ShapedQuery(size_t shape, int year) {
  if (shape % 3 == 2) {
    return "SELECT MOVIE.title, DIRECTOR.name FROM MOVIE, DIRECTOR "
           "WHERE MOVIE.did = DIRECTOR.did AND MOVIE.year >= " +
           std::to_string(year);
  }
  return "SELECT title FROM MOVIE WHERE MOVIE.year >= " +
         std::to_string(year);
}

/// The repeated-query pool (even years 1930, 1932, ...).
std::string PoolQuery(size_t i) {
  return ShapedQuery(i, 1930 + 2 * static_cast<int>(i));
}

/// Cold-pass queries (odd years 1931, 1933, ...): the same shape rotation,
/// but a literal no other request (and no pool entry) uses, so every
/// Prepare() is a guaranteed plan-cache miss.
std::string ColdQuery(size_t i) {
  return ShapedQuery(i, 1931 + 2 * static_cast<int>(i));
}

struct PlanPassResult {
  size_t requests = 0;
  size_t ok = 0;
  size_t errors = 0;  ///< transport + typed wire errors
  size_t plan_hits = 0;  ///< responses reporting plan_cache_hit
  size_t identity_checked = 0;
  size_t identity_mismatches = 0;
  double wall_ms = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double server_ms_total = 0.0;  ///< sum of per-response server_ms
  double search_ms_total = 0.0;  ///< sum of per-response search_wall_ms
};

/// Closed-loop pass: client c sends queries[c*per_client + i] in order.
/// `reference[j]` (when non-empty) is the direct-Personalize answer request
/// j's response must match field for field.
PlanPassResult RunPlanPass(
    int port, size_t concurrency, const std::vector<std::string>& queries,
    const std::vector<const construct::PersonalizeResult*>& reference) {
  PlanPassResult pass;
  pass.requests = queries.size();
  const size_t per_client = queries.size() / concurrency;
  std::mutex mu;  // guards the aggregates below
  std::vector<double> latencies;
  Stopwatch wall;
  std::vector<std::thread> clients;
  clients.reserve(concurrency);
  for (size_t c = 0; c < concurrency; ++c) {
    clients.emplace_back([&, c] {
      server::Client client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        std::lock_guard<std::mutex> lock(mu);
        pass.errors += per_client;
        return;
      }
      std::vector<double> my_latencies;
      size_t my_ok = 0, my_errors = 0, my_hits = 0;
      double my_server_ms = 0.0, my_search_ms = 0.0;
      size_t my_checked = 0, my_mismatched = 0;
      for (size_t i = 0; i < per_client; ++i) {
        const size_t j = c * per_client + i;
        server::WireRequest request;
        request.op = server::RequestOp::kPersonalize;
        request.personalize.sql = queries[j];
        Stopwatch timer;
        auto response = client.Call(request);
        my_latencies.push_back(timer.ElapsedMillis());
        if (!response.ok() || !response->ok()) {
          ++my_errors;
          continue;
        }
        ++my_ok;
        const server::PersonalizeResultPayload& r = *response->personalize;
        if (r.plan_cache_hit) ++my_hits;
        my_server_ms += r.server_ms;
        my_search_ms += r.search_wall_ms;
        if (!reference.empty()) {
          ++my_checked;
          if (!MatchesReference(r, *reference[j])) ++my_mismatched;
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      latencies.insert(latencies.end(), my_latencies.begin(),
                       my_latencies.end());
      pass.ok += my_ok;
      pass.errors += my_errors;
      pass.plan_hits += my_hits;
      pass.server_ms_total += my_server_ms;
      pass.search_ms_total += my_search_ms;
      pass.identity_checked += my_checked;
      pass.identity_mismatches += my_mismatched;
    });
  }
  for (std::thread& t : clients) t.join();
  pass.wall_ms = wall.ElapsedMillis();
  pass.qps = pass.wall_ms > 0.0
                 ? 1000.0 * static_cast<double>(pass.requests) / pass.wall_ms
                 : 0.0;
  pass.p50_ms = Percentile(latencies, 0.50);
  pass.p99_ms = Percentile(latencies, 0.99);
  return pass;
}

server::JsonValue PlanPassToJson(const char* name, size_t concurrency,
                                 const PlanPassResult& pass) {
  using server::JsonValue;
  JsonValue obj = JsonValue::Object();
  obj.Set("pass", JsonValue::Str(name));
  obj.Set("concurrency",
          JsonValue::Number(static_cast<double>(concurrency)));
  obj.Set("requests", JsonValue::Number(static_cast<double>(pass.requests)));
  obj.Set("ok", JsonValue::Number(static_cast<double>(pass.ok)));
  obj.Set("transport_errors",
          JsonValue::Number(static_cast<double>(pass.errors)));
  obj.Set("cache_hits",
          JsonValue::Number(static_cast<double>(pass.plan_hits)));
  obj.Set("wall_ms", JsonValue::Number(pass.wall_ms));
  obj.Set("qps", JsonValue::Number(pass.qps));
  obj.Set("p50_ms", JsonValue::Number(pass.p50_ms));
  obj.Set("p99_ms", JsonValue::Number(pass.p99_ms));
  obj.Set("server_ms_avg",
          JsonValue::Number(pass.ok > 0 ? pass.server_ms_total /
                                              static_cast<double>(pass.ok)
                                        : 0.0));
  obj.Set("search_ms_avg",
          JsonValue::Number(pass.ok > 0 ? pass.search_ms_total /
                                              static_cast<double>(pass.ok)
                                        : 0.0));
  obj.Set("identity_checked",
          JsonValue::Number(static_cast<double>(pass.identity_checked)));
  obj.Set("identity_mismatches",
          JsonValue::Number(static_cast<double>(pass.identity_mismatches)));
  return obj;
}

/// Runs the cold/warm plan-cache comparison on its own server (fresh
/// ProfileStore, so the main grid's cache traffic doesn't pollute the
/// counters) and returns the JSON record. Adds any warm-path identity
/// mismatches (and warm requests that failed to hit the cache) to
/// `*failures`.
server::JsonValue RunPlanCacheWorkload(const storage::Database& db,
                                       const prefs::Profile& profile,
                                       bool smoke, size_t* failures) {
  server::ProfileStore profiles(&db);
  CQP_CHECK(profiles.Put("default", profile).ok());
  server::ServerOptions options;
  options.port = 0;
  server::Server server(&db, &profiles, options);
  CQP_CHECK(server.Start().ok());

  // Year literals interleave cold/pool; keep cold small enough that every
  // odd year stays inside the generator's [min_year, max_year] domain.
  const size_t concurrency = smoke ? 2 : 4;
  const size_t pool = smoke ? 8 : 12;
  const size_t cold_per_client = smoke ? 12 : 8;
  const size_t warm_per_client = smoke ? 32 : 64;
  const double zipf_s = 1.1;

  // Cold: every request is a first-seen query, so every Prepare() misses.
  std::vector<std::string> cold_queries;
  for (size_t i = 0; i < concurrency * cold_per_client; ++i) {
    cold_queries.push_back(ColdQuery(i));
  }
  PlanPassResult cold = RunPlanPass(server.port(), concurrency, cold_queries,
                                    /*reference=*/{});

  // Prepare the pool once (untimed), then hammer it with a Zipfian-skewed
  // sequence: every warm request must be a plan-cache hit.
  std::vector<std::string> pool_queries;
  for (size_t i = 0; i < pool; ++i) pool_queries.push_back(PoolQuery(i));
  {
    server::Client warmup;
    CQP_CHECK(warmup.Connect("127.0.0.1", server.port()).ok());
    for (const std::string& sql : pool_queries) {
      server::WireRequest request;
      request.op = server::RequestOp::kPersonalize;
      request.personalize.sql = sql;
      auto response = warmup.Call(request);
      CQP_CHECK(response.ok() && response->ok());
    }
  }
  auto pool_reference = ReferenceResults(db, profiles, options, pool_queries);
  std::vector<size_t> sequence =
      ZipfSequence(concurrency * warm_per_client, pool, zipf_s, /*seed=*/42);
  std::vector<std::string> warm_queries;
  std::vector<const construct::PersonalizeResult*> warm_reference;
  for (size_t rank : sequence) {
    warm_queries.push_back(pool_queries[rank]);
    warm_reference.push_back(&pool_reference[rank]);
  }
  PlanPassResult warm =
      RunPlanPass(server.port(), concurrency, warm_queries, warm_reference);

  // Snapshot the server-side cache counters before shutting down.
  construct::PlanCacheStats plan_stats = profiles.plan_stats();
  server.Stop();

  const double speedup = cold.qps > 0.0 ? warm.qps / cold.qps : 0.0;
  if (cold.ok > 0 && warm.ok > 0) {
    std::printf(
        "plan cache server-side: cold %.3f ms/req (search %.3f), "
        "warm %.3f ms/req (search %.3f)\n",
        cold.server_ms_total / static_cast<double>(cold.ok),
        cold.search_ms_total / static_cast<double>(cold.ok),
        warm.server_ms_total / static_cast<double>(warm.ok),
        warm.search_ms_total / static_cast<double>(warm.ok));
  }
  std::printf(
      "plan cache: cold %.1f q/s (%zu misses), warm %.1f q/s "
      "(%zu/%zu hits, zipf s=%.1f over %zu queries) -> %.2fx%s\n",
      cold.qps, cold.requests, warm.qps, warm.plan_hits, warm.requests,
      zipf_s, pool, speedup,
      speedup >= 2.0 ? "" : "  ** below 2x target **");
  if (warm.identity_mismatches > 0) {
    std::fprintf(stderr,
                 "%zu warm responses differ from direct Personalize()\n",
                 warm.identity_mismatches);
    *failures += warm.identity_mismatches;
  }
  if (warm.plan_hits != warm.ok) {
    std::fprintf(stderr, "%zu warm responses missed the plan cache\n",
                 warm.ok - warm.plan_hits);
    *failures += warm.ok - warm.plan_hits;
  }

  using server::JsonValue;
  JsonValue record = JsonValue::Object();
  record.Set("bench", JsonValue::Str("plan_cache"));
  JsonValue workload = JsonValue::Object();
  workload.Set("pool", JsonValue::Number(static_cast<double>(pool)));
  workload.Set("zipf_s", JsonValue::Number(zipf_s));
  workload.Set("k",
               JsonValue::Number(static_cast<double>(options.default_max_k)));
  workload.Set("algorithm", JsonValue::Str(options.default_algorithm));
  record.Set("workload", std::move(workload));
  record.Set("smoke", JsonValue::Bool(smoke));
  JsonValue cells = JsonValue::Array();
  cells.Append(PlanPassToJson("cold", concurrency, cold));
  cells.Append(PlanPassToJson("warm", concurrency, warm));
  record.Set("cells", std::move(cells));
  record.Set("warm_speedup", JsonValue::Number(speedup));
  record.Set("meets_2x_target", JsonValue::Bool(speedup >= 2.0));
  JsonValue plans = JsonValue::Object();
  plans.Set("hits", JsonValue::Number(static_cast<double>(plan_stats.hits)));
  plans.Set("misses",
            JsonValue::Number(static_cast<double>(plan_stats.misses)));
  plans.Set("evictions",
            JsonValue::Number(static_cast<double>(plan_stats.evictions)));
  plans.Set("invalidations", JsonValue::Number(static_cast<double>(
                                 plan_stats.invalidations)));
  plans.Set("entries",
            JsonValue::Number(static_cast<double>(plan_stats.entries)));
  record.Set("plan_cache", std::move(plans));
  return record;
}

// ---------------------------------------------------------------------------
// Shard sweep: demand-paged tier over {1k, 100k, 1M} profiles.

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
      if (server::ProfileStore::ShardIndexForId(
              id, num_shards) != shard) {
        continue;
      }
      storage::journal::SnapshotEntry entry;
      entry.key = id;
      entry.version = data.next_version++;
      entry.value = texts[i % texts.size()];
      data.entries.push_back(std::move(entry));
    }
    const std::string path =
        dir + "/" + server::ProfileStore::ShardDirName(shard) +
        "/snapshot";
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
  std::printf("%9s %9s %9s %12s %10s %9s %9s %11s %10s %8s\n", "profiles",
              "build_ms", "open_ms", "p99_cold_ms", "q/s", "p99_ms",
              "page_ins", "evictions", "resident", "rss_mb");

  JsonValue cells = JsonValue::Array();
  std::vector<double> cold_p99s;
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
    const double p50_cold = Percentile(cold_ms, 0.50);
    const double p99_cold = Percentile(cold_ms, 0.99);
    cold_p99s.push_back(p99_cold);

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
    // The bounded-memory claim, with the issue's ±20% tolerance (pinned
    // graphs may briefly hold the total above the line).
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

    std::printf("%9zu %9.0f %9.0f %12.3f %10.1f %9.3f %9llu %11llu %7.1fMB %8.1f\n",
                count, build_ms, open_ms, p99_cold, qps,
                Percentile(mixed_ms, 0.99),
                static_cast<unsigned long long>(tier.page_ins),
                static_cast<unsigned long long>(tier.evictions),
                resident_mb, rss_mb);

    JsonValue cell = JsonValue::Object();
    cell.Set("profiles", JsonValue::Number(static_cast<double>(count)));
    cell.Set("shards", JsonValue::Number(static_cast<double>(num_shards)));
    cell.Set("resident_budget_mb", JsonValue::Number(budget_mb));
    cell.Set("build_ms", JsonValue::Number(build_ms));
    cell.Set("open_ms", JsonValue::Number(open_ms));
    cell.Set("cold_finds",
             JsonValue::Number(static_cast<double>(cold_finds)));
    cell.Set("p50_cold_ms", JsonValue::Number(p50_cold));
    cell.Set("p99_cold_ms", JsonValue::Number(p99_cold));
    cell.Set("mixed_requests",
             JsonValue::Number(static_cast<double>(mixed_ms.size())));
    cell.Set("qps", JsonValue::Number(qps));
    cell.Set("p50_ms", JsonValue::Number(Percentile(mixed_ms, 0.50)));
    cell.Set("p99_ms", JsonValue::Number(Percentile(mixed_ms, 0.99)));
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

  // The "no cold cliff" number: p99 page-in latency at the largest count
  // over the smallest. Paging is O(1) in directory size, so this should
  // hover near 1 regardless of scale.
  const double cliff = (cold_p99s.size() >= 2 && cold_p99s.front() > 0.0)
                           ? cold_p99s.back() / cold_p99s.front()
                           : 0.0;
  std::printf("cold p99 largest/smallest = %.2fx\n\n", cliff);

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
  record.Set("cold_p99_scale_ratio", JsonValue::Number(cliff));
  return record;
}

bool WriteJson(const server::JsonValue& record, const std::string& path) {
  std::string json = record.Dump();
  std::printf("%s\n", json.c_str());
  if (path.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fputs(json.c_str(), f);
  std::fputs("\n", f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

int Run(bool smoke, const std::string& json_path,
        const std::string& plan_json_path,
        const std::string& shard_json_path) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const int64_t movies = smoke ? 500 : 2000;
  std::printf("Personalization server load bench — %lld movies, %zu queries\n",
              static_cast<long long>(movies), BenchQueries().size());

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
  std::printf("server on 127.0.0.1:%d\n\n", server.port());

  auto reference = ReferenceResults(db, profiles, options, BenchQueries());

  std::vector<size_t> concurrencies =
      smoke ? std::vector<size_t>{1, 8} : std::vector<size_t>{1, 8, 32};
  std::vector<double> deadlines =
      smoke ? std::vector<double>{50.0, 0.0}
            : std::vector<double>{10.0, 50.0, 0.0};
  const size_t requests_per_client = smoke ? 4 : 16;

  std::printf("%6s %9s %9s %10s %8s %8s %6s %6s %6s %10s\n", "conc",
              "deadline", "requests", "q/s", "p50_ms", "p99_ms", "ok", "degr",
              "err", "identity");
  server::JsonValue cells = server::JsonValue::Array();
  size_t mismatches = 0;
  for (size_t concurrency : concurrencies) {
    for (double deadline_ms : deadlines) {
      // Identity is only checked where it must hold exactly: with no
      // deadline nothing can degrade, so the wire answer has to equal the
      // direct library answer bit for bit.
      const bool check = deadline_ms == 0.0;
      CellResult cell = RunCell(server.port(), concurrency, deadline_ms,
                                requests_per_client,
                                check ? &reference : nullptr);
      size_t errors = cell.transport_errors;
      for (const auto& [code, n] : cell.error_codes) errors += n;
      char deadline_buf[16];
      if (deadline_ms > 0.0) {
        std::snprintf(deadline_buf, sizeof deadline_buf, "%.0fms",
                      deadline_ms);
      } else {
        std::snprintf(deadline_buf, sizeof deadline_buf, "inf");
      }
      char identity_buf[32];
      if (check) {
        std::snprintf(identity_buf, sizeof identity_buf, "%zu/%zu ok",
                      cell.identity_checked - cell.identity_mismatches,
                      cell.identity_checked);
      } else {
        std::snprintf(identity_buf, sizeof identity_buf, "-");
      }
      std::printf("%6zu %9s %9zu %10.1f %8.2f %8.2f %6zu %6zu %6zu %10s\n",
                  cell.concurrency, deadline_buf, cell.requests, cell.qps,
                  cell.p50_ms, cell.p99_ms, cell.ok, cell.degraded, errors,
                  identity_buf);
      mismatches += cell.identity_mismatches;
      cells.Append(CellToJson(cell));
    }
  }
  // ---- multiplexed pipelined sweep: one driver thread, poll()-driven,
  // pushes connection counts far past what blocking client threads can.
  std::printf("\nmultiplexed sweep (pipelined, %zu io loop%s)\n",
              server.num_io_threads(),
              server.num_io_threads() == 1 ? "" : "s");
  std::printf("%6s %12s %5s %9s %10s %8s %8s %6s %6s\n", "conns", "op",
              "pipe", "requests", "q/s", "p50_ms", "p99_ms", "ok", "err");
  std::vector<size_t> mux_conns = smoke ? std::vector<size_t>{1, 8, 64}
                                        : std::vector<size_t>{1, 8, 32, 256,
                                                              1024};
  server::JsonValue mux_cells = server::JsonValue::Array();
  for (size_t conns : mux_conns) {
    for (bool personalize : {false, true}) {
      const size_t total = personalize ? (smoke ? 512 : 2048)
                                       : (smoke ? 4096 : 32768);
      const size_t per_conn = std::max<size_t>(personalize ? 4 : 16,
                                               total / conns);
      MuxCellResult cell = RunMuxCell(server.port(), conns,
                                      /*pipeline=*/personalize ? 4 : 8,
                                      per_conn, personalize);
      std::printf("%6zu %12s %5zu %9zu %10.1f %8.2f %8.2f %6zu %6zu\n",
                  cell.connections, personalize ? "personalize" : "ping",
                  cell.pipeline, cell.requests, cell.qps, cell.p50_ms,
                  cell.p99_ms, cell.ok, cell.errors);
      mux_cells.Append(
          MuxCellToJson(personalize ? "personalize" : "ping", cell));
    }
  }
  std::printf("\n");

  // ---- held-connections phase: thousands of idle fds must not slow the
  // loops down.
  server::JsonValue held_record =
      RunHeldConnections(server.port(), smoke ? 1000 : 10000);
  const size_t io_threads = server.num_io_threads();

  server.Stop();
  std::printf("\n");

  server::JsonValue shed_probe = RunShedProbe(db, profiles, smoke);

  size_t failures = 0;
  server::JsonValue plan_record =
      RunPlanCacheWorkload(db, *profile, smoke, &failures);
  std::printf("\n");

  server::JsonValue shard_record =
      RunShardSweep(db, db_config, smoke, &failures);

  using server::JsonValue;
  JsonValue record = JsonValue::Object();
  record.Set("bench", JsonValue::Str("server"));
  JsonValue workload = JsonValue::Object();
  workload.Set("movies", JsonValue::Number(static_cast<double>(movies)));
  workload.Set("queries",
               JsonValue::Number(static_cast<double>(BenchQueries().size())));
  workload.Set("k", JsonValue::Number(
                        static_cast<double>(options.default_max_k)));
  workload.Set("algorithm", JsonValue::Str(options.default_algorithm));
  record.Set("workload", std::move(workload));
  record.Set("hardware_threads",
             JsonValue::Number(std::thread::hardware_concurrency()));
  record.Set("smoke", JsonValue::Bool(smoke));
  record.Set("io_threads",
             JsonValue::Number(static_cast<double>(io_threads)));
  record.Set("cells", std::move(cells));
  record.Set("mux_cells", std::move(mux_cells));
  record.Set("held_connections", std::move(held_record));
  record.Set("shed_probe", std::move(shed_probe));

  if (!WriteJson(record, json_path)) return 1;
  if (!WriteJson(plan_record, plan_json_path)) return 1;
  if (!WriteJson(shard_record, shard_json_path)) return 1;
  if (mismatches > 0) {
    std::fprintf(stderr, "%zu identity mismatches vs direct Personalize()\n",
                 mismatches);
    return 1;
  }
  if (failures > 0) {
    std::fprintf(stderr, "%zu plan-cache parity failures\n", failures);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_server.json";
  std::string plan_json_path = "BENCH_plan_cache.json";
  std::string shard_json_path = "BENCH_shard.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--plan-json") == 0 && i + 1 < argc) {
      plan_json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--shard-json") == 0 && i + 1 < argc) {
      shard_json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--json PATH] [--plan-json PATH] "
                   "[--shard-json PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  return Run(smoke, json_path, plan_json_path, shard_json_path);
}
