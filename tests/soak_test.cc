// Soak battery (ctest label: soak): ~1k concurrent connections multiplexed
// over the epoll server for CQP_SOAK_SECONDS (default 6, CI uses 30),
// mixing ping traffic with personalize requests against a sharded
// demand-paged profile tier whose budget is too small to keep the cold
// profiles resident. The invariant under load: every request gets exactly
// one response, in order, with the id it was sent under — zero lost, zero
// duplicated — while the tier pages graphs in and out underneath.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "server/io_util.h"
#include "server/profile_store.h"
#include "server/protocol.h"
#include "server/server.h"
#include "test_util.h"

namespace cqp::server {
namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kProfileText =
    "doi(GENRE.genre = 'musical') = 0.5\n"
    "doi(MOVIE.mid = GENRE.mid) = 0.9\n"
    "doi(DIRECTOR.name = 'W. Allen') = 0.8\n"
    "doi(MOVIE.did = DIRECTOR.did) = 1.0\n"
    "doi(MOVIE.year > 1990) = 0.6\n";

constexpr const char* kQuery = "SELECT title FROM MOVIE";

/// RAII temp directory for the sharded tier.
class TempDir {
 public:
  TempDir() {
    char buf[] = "/tmp/cqp_soak_test.XXXXXX";
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

int EnvSeconds() {
  const char* raw = std::getenv("CQP_SOAK_SECONDS");
  if (raw == nullptr) return 6;
  int parsed = std::atoi(raw);
  return parsed > 0 ? parsed : 6;
}

size_t EnvConns() {
  const char* raw = std::getenv("CQP_SOAK_CONNS");
  if (raw == nullptr) return 1000;
  long parsed = std::atol(raw);
  return parsed > 0 ? static_cast<size_t>(parsed) : 1000;
}

/// One multiplexed soak connection: nonblocking fd, an outbox awaiting
/// POLLOUT, an inbox split on '\n', and the send/receive sequence counters
/// whose equality at drain time is the zero-lost/zero-dup invariant.
struct SoakConn {
  int fd = -1;
  std::string outbox;
  std::string inbox;
  uint64_t sent = 0;
  uint64_t received = 0;
  bool personalizer = false;
  bool saw_eof = false;
};

class SoakTest : public ::testing::Test {
 protected:
  SoakTest() : db_(::cqp::testing::MakeTinyMovieDb()) {}

  void TearDown() override {
    for (SoakConn& conn : conns_) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
    if (server_ != nullptr) server_->Stop();
  }

  storage::Database db_;
  std::unique_ptr<ProfileStore> profiles_;
  std::unique_ptr<Server> server_;
  std::vector<SoakConn> conns_;
};

TEST_F(SoakTest, ThousandConnectionsMixedHotColdZeroLostZeroDup) {
  // --- the paged-out tier: a budget far below 64 resident graphs.
  TempDir dir;
  StoreOptions store_options;
  store_options.dir = dir.path();
  store_options.num_shards = 4;
  store_options.resident_budget_bytes = 64 << 10;  // forces eviction churn
  auto opened = ProfileStore::Open(&db_, store_options);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  profiles_ = *std::move(opened);

  prefs::Profile profile = *prefs::Profile::Parse(kProfileText);
  std::vector<std::string> hot_ids, cold_ids;
  for (int i = 0; i < 4; ++i) {
    hot_ids.push_back("hot-" + std::to_string(i));
    ASSERT_TRUE(profiles_->Put(hot_ids.back(), profile).ok());
  }
  for (int i = 0; i < 60; ++i) {
    cold_ids.push_back("cold-" + std::to_string(i));
    ASSERT_TRUE(profiles_->Put(cold_ids.back(), profile).ok());
  }

  // --- the server under soak: two loops, a sliced admission budget wide
  // enough that shedding is the exception, not the norm.
  ServerOptions options;
  options.port = 0;
  options.io_threads = 2;
  options.num_threads = 2;
  options.admission.max_pending = 512;
  options.admission.soft_pending = 384;
  server_ = std::make_unique<Server>(&db_, profiles_.get(), options);
  ASSERT_TRUE(server_->Start().ok());

  // --- connect the fleet (blocking connect, then nonblocking I/O).
  const size_t kConns = EnvConns();
  conns_.resize(kConns);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  for (size_t i = 0; i < kConns; ++i) {
    SoakConn& conn = conns_[i];
    conn.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(conn.fd, 0);
    int one = 1;
    ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ASSERT_EQ(
        ::connect(conn.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << "connect #" << i << ": " << std::strerror(errno);
    ASSERT_TRUE(SetNonBlocking(conn.fd, true));
    // Every 16th connection drives personalize; the rest ping. That keeps
    // ~60 personalize streams alive against 2 workers without starving
    // the ping latency floor.
    conn.personalizer = (i % 16 == 0);
  }

  uint64_t cold_cursor = 0;
  uint64_t personalize_ok = 0;
  auto enqueue_next = [&](size_t index) {
    SoakConn& conn = conns_[index];
    WireRequest request;
    request.id = "c" + std::to_string(index) + "-" + std::to_string(conn.sent);
    if (conn.personalizer) {
      request.op = RequestOp::kPersonalize;
      request.personalize.sql = kQuery;
      // Three hot hits, then one cold id round-robin: the cold set is
      // larger than the residency budget, so these personalizes force
      // page-ins and evictions while the hot set stays warm.
      if (conn.sent % 4 == 3) {
        request.personalize.profile_id = cold_ids[cold_cursor++ % cold_ids.size()];
      } else {
        request.personalize.profile_id = hot_ids[index % hot_ids.size()];
      }
    } else {
      request.op = RequestOp::kPing;
    }
    conn.outbox += SerializeRequest(request) + "\n";
    ++conn.sent;
  };

  // Prime one outstanding request per connection.
  for (size_t i = 0; i < kConns; ++i) enqueue_next(i);

  const Clock::time_point deadline =
      Clock::now() + std::chrono::seconds(EnvSeconds());
  const Clock::time_point drain_deadline =
      deadline + std::chrono::seconds(60);

  std::vector<pollfd> pfds(kConns);
  bool all_drained = false;
  while (!all_drained) {
    const bool sending = Clock::now() < deadline;
    if (!sending && Clock::now() > drain_deadline) break;

    all_drained = true;
    for (size_t i = 0; i < kConns; ++i) {
      pfds[i].fd = conns_[i].fd;
      pfds[i].events = static_cast<short>(
          POLLIN | (conns_[i].outbox.empty() ? 0 : POLLOUT));
      pfds[i].revents = 0;
      if (conns_[i].received < conns_[i].sent) all_drained = false;
    }
    if (all_drained && !sending) break;
    all_drained = false;

    int ready = ::poll(pfds.data(), pfds.size(), 100);
    ASSERT_GE(ready, 0) << std::strerror(errno);
    if (ready == 0) continue;

    for (size_t i = 0; i < kConns; ++i) {
      SoakConn& conn = conns_[i];
      if (pfds[i].revents == 0) continue;

      if ((pfds[i].revents & POLLOUT) != 0 && !conn.outbox.empty()) {
        ssize_t n = ::send(conn.fd, conn.outbox.data(), conn.outbox.size(),
                           MSG_NOSIGNAL);
        if (n > 0) conn.outbox.erase(0, static_cast<size_t>(n));
        ASSERT_FALSE(n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)
            << "send on conn " << i << ": " << std::strerror(errno);
      }

      if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        char chunk[16384];
        ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
        if (n == 0) {
          conn.saw_eof = true;
          FAIL() << "server closed conn " << i << " mid-soak (sent "
                 << conn.sent << ", received " << conn.received << ")";
        }
        if (n < 0) {
          ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK)
              << "recv on conn " << i << ": " << std::strerror(errno);
          continue;
        }
        conn.inbox.append(chunk, static_cast<size_t>(n));
        size_t nl;
        while ((nl = conn.inbox.find('\n')) != std::string::npos) {
          std::string line = conn.inbox.substr(0, nl);
          conn.inbox.erase(0, nl + 1);
          auto response = ParseResponse(line);
          ASSERT_TRUE(response.ok()) << response.status().message();
          // In-order, exactly-once: the id must be the one this
          // connection is waiting for. A lost response stalls the
          // sequence (caught at drain); a duplicate or reordered one
          // fails right here.
          const std::string expected =
              "c" + std::to_string(i) + "-" + std::to_string(conn.received);
          ASSERT_EQ(response->id, expected)
              << "conn " << i << " expected seq " << conn.received;
          if (conn.personalizer && response->status.ok()) ++personalize_ok;
          ++conn.received;
          if (Clock::now() < deadline) enqueue_next(i);
        }
      }
    }
  }

  // --- the invariant: every request answered exactly once.
  uint64_t total_sent = 0, total_received = 0;
  for (size_t i = 0; i < kConns; ++i) {
    EXPECT_FALSE(conns_[i].saw_eof) << "conn " << i;
    EXPECT_EQ(conns_[i].received, conns_[i].sent)
        << "conn " << i << " lost " << (conns_[i].sent - conns_[i].received)
        << " responses";
    total_sent += conns_[i].sent;
    total_received += conns_[i].received;
  }
  ASSERT_EQ(total_received, total_sent);
  ASSERT_GE(total_received, kConns);  // at least the primed round completed
  EXPECT_GE(personalize_ok, 1u);

  // The cold set really did churn through the paging tier.
  const ShardStats tier = profiles_->stats().total;
  EXPECT_GE(tier.page_ins, 1u);
  EXPECT_GE(tier.evictions, 1u);
}

}  // namespace
}  // namespace cqp::server
