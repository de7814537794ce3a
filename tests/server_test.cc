// End-to-end tests of the personalization server: socket round trips that
// must be bit-identical to direct Personalize() calls, admission control,
// connection-drop cancellation, hot reload, and the stats surfaces.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "construct/personalizer.h"
#include "prefs/profile.h"
#include "server/admission.h"
#include "server/client.h"
#include "server/io_util.h"
#include "server/profile_store.h"
#include "server/server.h"
#include "server/server_stats.h"
#include "test_util.h"

namespace cqp::server {
namespace {

constexpr const char* kProfileText =
    "doi(GENRE.genre = 'musical') = 0.5\n"
    "doi(MOVIE.mid = GENRE.mid) = 0.9\n"
    "doi(DIRECTOR.name = 'W. Allen') = 0.8\n"
    "doi(MOVIE.did = DIRECTOR.did) = 1.0\n"
    "doi(MOVIE.year > 1990) = 0.6\n";

constexpr const char* kQuery = "SELECT title FROM MOVIE";

prefs::Profile TestProfile() { return *prefs::Profile::Parse(kProfileText); }

/// One server over the tiny movie database, serving TestProfile() as
/// "default" on an ephemeral port.
class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : db_(::cqp::testing::MakeTinyMovieDb()) {}

  void StartServer(ServerOptions options = ServerOptions()) {
    profiles_ = std::make_unique<ProfileStore>(&db_);
    ASSERT_TRUE(profiles_->Put("default", TestProfile()).ok());
    options.port = 0;  // ephemeral
    server_ = std::make_unique<Server>(&db_, profiles_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
  }

  Client Connect() {
    Client client;
    Status status = client.Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(status.ok()) << status.ToString();
    return client;
  }

  WireRequest PersonalizeRequestFor(const std::string& sql) {
    WireRequest request;
    request.op = RequestOp::kPersonalize;
    request.personalize.sql = sql;
    return request;
  }

  /// The reference answer: a direct in-process Personalize() with exactly
  /// the server's defaults.
  construct::PersonalizeResult DirectResult(const std::string& sql) {
    auto graph = *prefs::PersonalizationGraph::Build(TestProfile(), db_);
    construct::Personalizer personalizer(&db_, &graph);
    construct::PersonalizeRequest request;
    request.sql = sql;
    request.problem = server_->options().default_problem;
    request.algorithm = server_->options().default_algorithm;
    request.space_options.max_k = server_->options().default_max_k;
    auto result = personalizer.Personalize(request);
    CQP_CHECK(result.ok());
    return *std::move(result);
  }

  storage::Database db_;
  std::unique_ptr<ProfileStore> profiles_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, PingStatsAndProfiles) {
  StartServer();
  Client client = Connect();

  WireRequest ping;
  ping.op = RequestOp::kPing;
  ping.id = "p1";
  auto pong = client.Call(ping);
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_TRUE(pong->ok());
  EXPECT_EQ(pong->id, "p1");
  EXPECT_TRUE(pong->extra.Find("pong")->bool_value());

  WireRequest profiles;
  profiles.op = RequestOp::kProfiles;
  auto listed = client.Call(profiles);
  ASSERT_TRUE(listed.ok());
  ASSERT_TRUE(listed->extra.Find("profiles")->is_array());
  ASSERT_EQ(listed->extra.Find("profiles")->array_items().size(), 1u);
  EXPECT_EQ(listed->extra.Find("profiles")->array_items()[0].string_value(),
            "default");

  WireRequest stats;
  stats.op = RequestOp::kStats;
  auto snapshot = client.Call(stats);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_TRUE(snapshot->extra.Find("requests")->is_number());
  EXPECT_TRUE(snapshot->extra.Find("admission")->Find("pending")->is_number());
  // The in-memory store reports the store objects too, journal zeroed.
  const JsonValue* journal = snapshot->extra.Find("journal");
  ASSERT_NE(journal, nullptr);
  EXPECT_EQ(journal->Find("fsyncs")->number_value(), 0.0);
  EXPECT_EQ(journal->Find("group_commits")->number_value(), 0.0);
  const JsonValue* tier = snapshot->extra.Find("shard_tier");
  ASSERT_NE(tier, nullptr);
  EXPECT_EQ(tier->Find("shards")->number_value(), 1.0);
  EXPECT_EQ(tier->Find("profiles")->number_value(), 1.0);
  EXPECT_EQ(tier->Find("page_ins")->number_value(), 0.0);
}

TEST_F(ServerTest, ResponsesAreBitIdenticalToDirectPersonalize) {
  StartServer();
  construct::PersonalizeResult expected = DirectResult(kQuery);

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kRequestsPerClient; ++i) {
        WireRequest request;
        request.op = RequestOp::kPersonalize;
        request.id = std::to_string(c) + "-" + std::to_string(i);
        request.personalize.sql = kQuery;
        auto response = client.Call(request);
        if (!response.ok() || !response->ok() ||
            !response->personalize.has_value()) {
          failures.fetch_add(1);
          continue;
        }
        const PersonalizeResultPayload& r = *response->personalize;
        // Bit-identical to the direct call: same SQL text, same chosen
        // subset, exactly equal parameter estimates.
        if (r.final_sql != expected.final_sql ||
            r.doi != expected.solution.params.doi ||
            r.cost_ms != expected.solution.params.cost_ms ||
            r.size != expected.solution.params.size ||
            r.feasible != expected.solution.feasible ||
            r.chosen != std::vector<int32_t>(expected.solution.chosen.begin(),
                                             expected.solution.chosen.end())) {
          failures.fetch_add(1);
        }
        if (response->id != request.id) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server_->stats().requests_total(),
            static_cast<uint64_t>(kClients * kRequestsPerClient));
  EXPECT_EQ(server_->stats().errors_total(), 0u);
  // All requests personalize the same (query, profile) pair, so the shared
  // registry cache must have answered some evaluations after the first.
  WireRequest stats;
  stats.op = RequestOp::kStats;
  Client client = Connect();
  auto snapshot = client.Call(stats);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_GT(snapshot->extra.Find("cache_hits")->number_value(), 0.0);
}

TEST_F(ServerTest, ShardedTierServesIdenticalAnswersAndShardStats) {
  // The sharded, demand-paged tier behind the same server: a 1-byte
  // resident budget forces a page-in on (almost) every request, and the
  // answers must still be bit-identical to the direct engine.
  namespace stdfs = std::filesystem;
  const std::string dir =
      (stdfs::path(::testing::TempDir()) / "cqp_server_test_shards").string();
  std::error_code ec;
  stdfs::remove_all(dir, ec);
  StoreOptions options;
  options.dir = dir;
  options.num_shards = 3;
  options.resident_budget_bytes = 1;
  auto store = ProfileStore::Open(&db_, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  std::vector<std::string> ids = {"default", "user0", "user1", "user2"};
  for (const std::string& id : ids) {
    ASSERT_TRUE((*store)->Put(id, TestProfile()).ok());
  }
  server_ = std::make_unique<Server>(&db_, store->get(), ServerOptions());
  ASSERT_TRUE(server_->Start().ok());
  construct::PersonalizeResult expected = DirectResult(kQuery);

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 4;
  std::atomic<int> failures{0};
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Client client;
        if (!client.Connect("127.0.0.1", server_->port()).ok()) {
          failures.fetch_add(1);
          return;
        }
        for (int i = 0; i < kRequestsPerClient; ++i) {
          WireRequest request;
          request.op = RequestOp::kPersonalize;
          request.personalize.sql = kQuery;
          // Every profile carries the same text, so every id — wherever
          // it shards — must produce the same personalized answer.
          request.personalize.profile_id = ids[(c + i) % ids.size()];
          auto response = client.Call(request);
          if (!response.ok() || !response->ok() ||
              !response->personalize.has_value() ||
              response->personalize->final_sql != expected.final_sql ||
              response->personalize->doi != expected.solution.params.doi) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  EXPECT_EQ(failures.load(), 0);

  // The stats op surfaces the tier: shard count, paging counters, and one
  // journal object per shard.
  Client client = Connect();
  WireRequest stats;
  stats.op = RequestOp::kStats;
  auto snapshot = client.Call(stats);
  ASSERT_TRUE(snapshot.ok());
  const JsonValue* tier = snapshot->extra.Find("shard_tier");
  ASSERT_NE(tier, nullptr);
  EXPECT_EQ(tier->Find("shards")->number_value(), 3.0);
  EXPECT_EQ(tier->Find("profiles")->number_value(),
            static_cast<double>(ids.size()));
  EXPECT_GT(tier->Find("page_ins")->number_value(), 0.0);
  ASSERT_TRUE(tier->Find("per_shard")->is_array());
  ASSERT_EQ(tier->Find("per_shard")->array_items().size(), 3u);
  for (const JsonValue& per_shard : tier->Find("per_shard")->array_items()) {
    EXPECT_NE(per_shard.Find("journal"), nullptr);
    EXPECT_EQ(per_shard.Find("journal")->Find("wedged")->bool_value(), false);
  }

  // The server must be stopped before the store it points into dies.
  server_->Stop();
  server_.reset();
  stdfs::remove_all(dir, ec);
}

TEST_F(ServerTest, MalformedFrameGetsTypedErrorAndConnectionSurvives) {
  StartServer();
  Client client = Connect();

  auto raw = client.CallRaw("this is not json");
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  auto parsed = ParseResponse(*raw);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->ok());
  EXPECT_EQ(parsed->status.code(), StatusCode::kInvalidArgument);

  // The same connection still answers well-formed requests.
  WireRequest ping;
  ping.op = RequestOp::kPing;
  auto pong = client.Call(ping);
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong->ok());
  EXPECT_GE(server_->stats().requests_total(), 0u);
}

TEST_F(ServerTest, UnknownProfileIsNotFound) {
  StartServer();
  Client client = Connect();
  WireRequest request = PersonalizeRequestFor(kQuery);
  request.personalize.profile_id = "nobody";
  auto response = client.Call(request);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->ok());
  EXPECT_EQ(response->status.code(), StatusCode::kNotFound);
}

TEST_F(ServerTest, ZeroCapacityShedsEveryRequestExplicitly) {
  ServerOptions options;
  options.admission.max_pending = 0;  // deterministic: everything sheds
  StartServer(options);
  Client client = Connect();
  for (int i = 0; i < 3; ++i) {
    auto response = client.Call(PersonalizeRequestFor(kQuery));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    // Shedding is a typed wire error, never a silent drop or a hang.
    EXPECT_FALSE(response->ok());
    EXPECT_EQ(response->status.code(), StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(server_->stats().shed_total(), 3u);
  EXPECT_EQ(server_->stats().requests_total(), 0u);
}

TEST_F(ServerTest, DroppedConnectionCancelsQueuedWork) {
  ServerOptions options;
  options.num_threads = 1;  // force queueing behind one worker
  StartServer(options);

  // Pipeline several personalize frames over a raw socket and close it
  // without reading a single response — a client that vanished.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string frames;
  constexpr int kFrames = 4;
  for (int i = 0; i < kFrames; ++i) {
    frames += SerializeRequest(PersonalizeRequestFor(kQuery)) + "\n";
  }
  ASSERT_EQ(::send(fd, frames.data(), frames.size(), 0),
            static_cast<ssize_t>(frames.size()));
  ::close(fd);

  // TCP delivers the buffered frames before the FIN, so the reader admits
  // all of them and then cancels the connection's token. Every admitted
  // request must drain — cancelled ones short-circuit, none may hang.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while ((server_->admission().admitted_total() <
              static_cast<uint64_t>(kFrames) ||
          server_->admission().pending() != 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server_->admission().admitted_total(),
            static_cast<uint64_t>(kFrames));
  EXPECT_EQ(server_->admission().pending(), 0u);
  server_->Stop();  // must not hang with the connection gone
  EXPECT_FALSE(server_->running());
}

TEST_F(ServerTest, HotReloadServesUpdatedProfileWithoutStaleCacheHits) {
  namespace fs = std::filesystem;
  fs::path dir =
      fs::path(::testing::TempDir()) / "cqp_server_test_profiles";
  fs::create_directories(dir);
  auto write_profile = [&](double musical_doi) {
    std::ofstream out(dir / "alice.profile");
    out << "doi(GENRE.genre = 'musical') = " << musical_doi << "\n"
        << "doi(MOVIE.mid = GENRE.mid) = 0.9\n";
  };
  write_profile(0.2);

  profiles_ = std::make_unique<ProfileStore>(&db_);
  ASSERT_TRUE(profiles_->LoadDirectory(dir.string()).ok());
  server_ = std::make_unique<Server>(&db_, profiles_.get(), ServerOptions{});
  ASSERT_TRUE(server_->Start().ok());

  Client client = Connect();
  WireRequest request = PersonalizeRequestFor(kQuery);
  request.personalize.profile_id = "alice";
  auto before = client.Call(request);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(before->ok()) << before->status.ToString();
  ASSERT_TRUE(before->personalize.has_value());

  // Update the profile on disk and hot-reload over the wire.
  write_profile(0.9);
  WireRequest reload;
  reload.op = RequestOp::kReload;
  auto reloaded = client.Call(reload);
  ASSERT_TRUE(reloaded.ok());
  ASSERT_TRUE(reloaded->ok()) << reloaded->status.ToString();
  EXPECT_DOUBLE_EQ(reloaded->extra.Find("reloaded")->number_value(), 1.0);

  // The same request must now see the new graph — and, critically, no
  // evaluation memoized under the old one (the snapshot version keys the
  // cache): the reference is a fresh direct computation on the new
  // profile, compared exactly.
  auto after = client.Call(request);
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(after->ok());
  ASSERT_TRUE(after->personalize.has_value());
  EXPECT_NE(after->personalize->doi, before->personalize->doi);

  auto new_profile = *prefs::Profile::Parse(
      "doi(GENRE.genre = 'musical') = 0.9\n"
      "doi(MOVIE.mid = GENRE.mid) = 0.9\n");
  auto graph = *prefs::PersonalizationGraph::Build(std::move(new_profile), db_);
  construct::Personalizer personalizer(&db_, &graph);
  construct::PersonalizeRequest direct;
  direct.sql = kQuery;
  direct.problem = server_->options().default_problem;
  direct.algorithm = server_->options().default_algorithm;
  direct.space_options.max_k = server_->options().default_max_k;
  auto expected = personalizer.Personalize(direct);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(after->personalize->final_sql, expected->final_sql);
  EXPECT_EQ(after->personalize->doi, expected->solution.params.doi);
}

TEST_F(ServerTest, StopDrainsInFlightRequestBeforeCancelling) {
  ServerOptions options;
  options.num_threads = 1;
  options.drain_deadline_ms = 5000.0;
  StartServer(options);

  // One request in flight while Stop() runs: the drain must let it finish
  // and answer instead of cancelling it.
  Client client = Connect();
  StatusOr<WireResponse> response = FailedPrecondition("never ran");
  std::thread caller([&] {
    response = client.Call(PersonalizeRequestFor(kQuery));
  });
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->admission().admitted_total() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server_->Stop();
  caller.join();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->ok()) << response->status.ToString();
  ASSERT_TRUE(response->personalize.has_value());
}

// ------------------------------------------------ io_util (regression)

std::atomic<int> g_usr1_count{0};
void OnUsr1(int) { g_usr1_count.fetch_add(1); }

TEST(IoUtil, SendAllSurvivesSignalsAndShortWrites) {
  // The regression this pins: a signal landing mid-send used to be able to
  // tear a frame (EINTR), and a frame larger than the socket buffer forces
  // short writes. SendAll must deliver every byte anyway.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  int small = 4096;
  ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));

  // SIGUSR1 WITHOUT SA_RESTART, so blocked sends actually return EINTR.
  struct sigaction action {};
  action.sa_handler = OnUsr1;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  struct sigaction old {};
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &old), 0);

  const std::string payload = [] {
    std::string s;
    for (int i = 0; i < 1 << 20; ++i) s.push_back(static_cast<char>('a' + i % 26));
    return s;
  }();

  std::atomic<bool> done{false};
  std::thread writer([&] {
    EXPECT_TRUE(SendAll(fds[0], payload.data(), payload.size()));
    done.store(true);
    ::shutdown(fds[0], SHUT_WR);
  });
  // Pepper the writer with signals the whole time it is sending.
  pthread_t writer_handle = writer.native_handle();
  std::thread signaler([&] {
    while (!done.load()) {
      ::pthread_kill(writer_handle, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::string received;
  char chunk[8192];
  for (;;) {
    ssize_t n = ReadSome(fds[1], chunk, sizeof(chunk));
    ASSERT_GE(n, 0) << std::strerror(errno);
    if (n == 0) break;
    received.append(chunk, static_cast<size_t>(n));
  }
  writer.join();
  signaler.join();
  ::close(fds[0]);
  ::close(fds[1]);
  ::sigaction(SIGUSR1, &old, nullptr);

  EXPECT_GT(g_usr1_count.load(), 0) << "test never actually interrupted";
  ASSERT_EQ(received.size(), payload.size());
  EXPECT_EQ(received, payload);  // intact, in order, nothing torn
}

// --------------------------------------------- client connect retries

TEST(ClientRetry, GivesUpAfterMaxAttemptsOnDeadPort) {
  // Bind (without listen) to reserve a port nothing will ever accept on,
  // yielding deterministic ECONNREFUSED.
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  int port = ntohs(addr.sin_port);
  ::close(probe);  // freed: connect() now refuses fast

  ConnectOptions options;
  options.max_attempts = 3;
  options.initial_backoff_ms = 1.0;
  options.max_backoff_ms = 4.0;
  Client client;
  Status status = client.Connect("127.0.0.1", port, options);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("attempt 3/3"), std::string::npos)
      << status.ToString();
}

TEST(ClientRetry, ConnectsOnceTheServerShowsUp) {
  // The race Connect()'s backoff exists for: the client starts before the
  // server is listening. Reserve a port, start listening only after a
  // delay, and the retried connect must land.
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  int port = ntohs(addr.sin_port);

  std::thread delayed_listen([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    ASSERT_EQ(::listen(listener, 1), 0);
  });

  ConnectOptions options;
  options.max_attempts = 10;
  options.initial_backoff_ms = 10.0;
  options.max_backoff_ms = 50.0;
  Client client;
  Status status = client.Connect("127.0.0.1", port, options);
  delayed_listen.join();
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(client.connected());
  ::close(listener);
}

TEST(ClientRetry, PermanentErrorsFailImmediately) {
  Client client;
  Status status = client.Connect("not-an-ipv4", 1);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------- admission (unit level)

TEST(Admission, SoftWatermarkDegradesHardWatermarkSheds) {
  AdmissionOptions options;
  options.max_pending = 3;
  options.soft_pending = 1;
  AdmissionController admission(options);

  AdmissionController::Ticket first = admission.TryAdmit();
  EXPECT_TRUE(first.admitted);
  EXPECT_FALSE(first.degrade);  // at the soft watermark, not above

  AdmissionController::Ticket second = admission.TryAdmit();
  EXPECT_TRUE(second.admitted);
  EXPECT_TRUE(second.degrade);  // above soft, below hard

  AdmissionController::Ticket third = admission.TryAdmit();
  EXPECT_TRUE(third.admitted);
  EXPECT_TRUE(third.degrade);

  AdmissionController::Ticket fourth = admission.TryAdmit();
  EXPECT_FALSE(fourth.admitted);  // hard watermark

  EXPECT_EQ(admission.pending(), 3u);
  EXPECT_EQ(admission.admitted_total(), 3u);
  EXPECT_EQ(admission.shed_total(), 1u);
  EXPECT_EQ(admission.degraded_total(), 2u);

  admission.Release();
  admission.Release();
  AdmissionController::Ticket fifth = admission.TryAdmit();
  EXPECT_TRUE(fifth.admitted);
  EXPECT_TRUE(fifth.degrade);  // pending back to 2 > soft watermark 1
}

// ------------------------------------------------------ stats (unit level)

TEST(ServerStatsTest, HistogramBucketsAndPercentiles) {
  LatencyHistogram histogram;
  EXPECT_DOUBLE_EQ(histogram.PercentileMillis(0.5), 0.0);
  for (int i = 0; i < 98; ++i) histogram.Record(0.003);  // 3 µs
  histogram.Record(1.5);    // 1500 µs
  histogram.Record(3000.0);  // 3 s
  EXPECT_EQ(histogram.TotalCount(), 100u);
  // p50 lands in the [2,4) µs bucket — upper bound 4 µs = 0.004 ms.
  EXPECT_DOUBLE_EQ(histogram.PercentileMillis(0.50), 0.004);
  // p99 must reach the 1.5 ms sample's bucket [1024,2048) µs.
  EXPECT_DOUBLE_EQ(histogram.PercentileMillis(0.99), 2.048);
  // The max lands in [2^21, 2^22) µs.
  EXPECT_DOUBLE_EQ(histogram.PercentileMillis(1.0), 4194.304);

  JsonValue json = histogram.ToJson();
  EXPECT_DOUBLE_EQ(json.Find("count")->number_value(), 100.0);
  EXPECT_EQ(json.Find("buckets")->array_items().size(), 3u);
}

TEST(ServerStatsTest, CountersAggregate) {
  ServerStats stats;
  stats.OnConnectionOpened();
  stats.OnAdmitted();
  stats.OnShed();
  stats.OnDegradedAdmission();
  stats.OnRequestDone(/*ok=*/true, /*degraded_answer=*/false, 1.0, 5, 2, 100);
  stats.OnRequestDone(/*ok=*/false, /*degraded_answer=*/true, 2.0, 0, 1, 50);
  EXPECT_EQ(stats.requests_total(), 2u);
  EXPECT_EQ(stats.errors_total(), 1u);
  EXPECT_EQ(stats.degraded_total(), 1u);
  EXPECT_EQ(stats.shed_total(), 1u);
  JsonValue json = stats.ToJson();
  EXPECT_DOUBLE_EQ(json.Find("cache_hits")->number_value(), 5.0);
  EXPECT_DOUBLE_EQ(json.Find("cache_misses")->number_value(), 3.0);
  EXPECT_DOUBLE_EQ(json.Find("states_examined")->number_value(), 150.0);
  EXPECT_DOUBLE_EQ(json.Find("latency")->Find("count")->number_value(), 2.0);
}

}  // namespace
}  // namespace cqp::server
