#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <ctime>

#include "server/io_util.h"

namespace cqpbench {

namespace server = cqp::server;

namespace {

const std::chrono::steady_clock::time_point kOrigin =
    std::chrono::steady_clock::now();

}  // namespace

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - kOrigin)
      .count();
}

std::string RequestFrame(const Request& request, uint64_t wire_id) {
  server::WireRequest wire;
  wire.op = server::RequestOp::kPersonalize;
  wire.id = std::to_string(wire_id);
  wire.personalize.sql = request.sql;
  wire.personalize.profile_id = request.profile_id;
  return server::SerializeRequest(wire);
}

LoadGen::~LoadGen() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
}

cqp::Status LoadGen::Connect(int port, size_t connections) {
  for (size_t i = 0; i < connections; ++i) {
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return cqp::Internal("socket() failed");
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        !server::SetNonBlocking(fd, true)) {
      ::close(fd);
      return cqp::Internal("cannot connect to 127.0.0.1:" +
                           std::to_string(port));
    }
    conns_.push_back(Conn{});
    conns_.back().fd = fd;
  }
  return cqp::Status::OK();
}

bool LoadGen::Live() const {
  for (const Conn& conn : conns_) {
    if (conn.fd >= 0) return true;
  }
  return false;
}

size_t LoadGen::InFlight() const {
  size_t n = 0;
  for (const Conn& conn : conns_) n += conn.pending.size();
  return n;
}

void LoadGen::Send(Conn& conn, Request request, size_t index, double due_ms) {
  const uint64_t wire_id = next_wire_id_++;
  conn.outbox += RequestFrame(request, wire_id);
  conn.outbox += '\n';
  Pending pending;
  pending.request = std::move(request);
  pending.index = index;
  pending.due_ms = due_ms;
  pending.sent_ms = NowMs();
  conn.pending.emplace(wire_id, std::move(pending));
}

void LoadGen::Flush(Conn& conn, const OnOutcome& on_outcome) {
  size_t off = 0;
  while (off < conn.outbox.size()) {
    ssize_t n = ::send(conn.fd, conn.outbox.data() + off,
                       conn.outbox.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      Drop(conn, on_outcome);
      return;
    }
  }
  conn.outbox.erase(0, off);
}

void LoadGen::Drop(Conn& conn, const OnOutcome& on_outcome) {
  ::close(conn.fd);
  conn.fd = -1;
  conn.outbox.clear();
  conn.inbox.clear();
  for (auto& [id, pending] : conn.pending) {
    Outcome outcome;
    outcome.index = pending.index;
    outcome.due_ms = pending.due_ms;
    outcome.sent_ms = pending.sent_ms;
    outcome.done_ms = NowMs();
    on_outcome(pending.request, outcome);
  }
  conn.pending.clear();
}

void LoadGen::FailPending(const OnOutcome& on_outcome) {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) Drop(conn, on_outcome);
  }
}

void LoadGen::Pump(double timeout_ms, const OnOutcome& on_outcome) {
  std::vector<pollfd> pfds;
  std::vector<Conn*> live;
  for (Conn& conn : conns_) {
    if (conn.fd < 0) continue;
    pollfd p{};
    p.fd = conn.fd;
    p.events = POLLIN;
    if (!conn.outbox.empty()) p.events |= POLLOUT;
    pfds.push_back(p);
    live.push_back(&conn);
  }
  if (pfds.empty()) return;
  timeout_ms = std::max(0.0, timeout_ms);
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout_ms / 1000.0);
  ts.tv_nsec = static_cast<long>(
      std::fmod(timeout_ms, 1000.0) * 1e6);
  if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) return;

  for (size_t i = 0; i < pfds.size(); ++i) {
    Conn& conn = *live[i];
    if (conn.fd < 0 || pfds[i].revents == 0) continue;
    if ((pfds[i].revents & POLLOUT) != 0) Flush(conn, on_outcome);
    if (conn.fd < 0 ||
        (pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
      continue;
    }
    char chunk[65536];
    for (;;) {
      ssize_t n = ::recv(conn.fd, chunk, sizeof chunk, 0);
      if (n > 0) {
        conn.inbox.append(chunk, static_cast<size_t>(n));
        if (static_cast<size_t>(n) < sizeof chunk) break;
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      // Peer closed or the socket failed: every answer still owed fails.
      Drop(conn, on_outcome);
      break;
    }
    if (conn.fd < 0) continue;
    size_t start = 0;
    size_t nl;
    while ((nl = conn.inbox.find('\n', start)) != std::string::npos) {
      std::string_view line(conn.inbox.data() + start, nl - start);
      start = nl + 1;
      cqp::StatusOr<server::WireResponse> parsed =
          server::ParseResponse(line);
      const double done_ms = NowMs();
      if (!parsed.ok()) {
        ++stray_frames_;
        continue;
      }
      char* end = nullptr;
      const uint64_t wire_id = std::strtoull(parsed->id.c_str(), &end, 10);
      auto it = conn.pending.find(wire_id);
      if (parsed->id.empty() || *end != '\0' || it == conn.pending.end()) {
        ++stray_frames_;
        continue;
      }
      Outcome outcome;
      outcome.index = it->second.index;
      outcome.due_ms = it->second.due_ms;
      outcome.sent_ms = it->second.sent_ms;
      outcome.done_ms = done_ms;
      outcome.transport_ok = true;
      outcome.response = *std::move(parsed);
      on_outcome(it->second.request, outcome);
      conn.pending.erase(it);
    }
    conn.inbox.erase(0, start);
  }
}

void LoadGen::RunOpenLoop(const std::vector<Request>& requests,
                         const std::vector<double>& due_ms,
                         double deadline_ms, const OnOutcome& on_outcome) {
  size_t next = 0;
  for (;;) {
    double now = NowMs();
    // With every connection gone, the rest of the schedule fails at once.
    const double send_until =
        Live() ? now : due_ms.empty() ? 0.0 : due_ms.back();
    while (next < requests.size() && due_ms[next] <= send_until) {
      Conn* target = nullptr;
      for (size_t tries = 0; tries < conns_.size() && target == nullptr;
           ++tries) {
        Conn& candidate = conns_[round_robin_++ % conns_.size()];
        if (candidate.fd >= 0) target = &candidate;
      }
      if (target == nullptr) {
        Outcome outcome;
        outcome.index = next;
        outcome.due_ms = due_ms[next];
        outcome.sent_ms = outcome.done_ms = now;
        on_outcome(requests[next], outcome);
      } else {
        Send(*target, requests[next], next, due_ms[next]);
        Flush(*target, on_outcome);
      }
      ++next;
    }
    if (next == requests.size() && InFlight() == 0) return;
    now = NowMs();
    if (now >= deadline_ms) {
      FailPending(on_outcome);
      return;
    }
    const double wake =
        next < requests.size() ? std::min(due_ms[next], deadline_ms)
                               : deadline_ms;
    Pump(wake - now, on_outcome);
  }
}

size_t LoadGen::RunClosedLoop(
    const std::function<std::optional<Request>()>& next, size_t depth,
    double until_ms, double deadline_ms, const OnOutcome& on_outcome) {
  size_t answered = 0;
  size_t index = 0;
  bool exhausted = false;
  const OnOutcome counting = [&](const Request& request,
                                 const Outcome& outcome) {
    if (outcome.transport_ok && outcome.response.ok() &&
        outcome.done_ms <= until_ms) {
      ++answered;
    }
    on_outcome(request, outcome);
  };
  auto top_up = [&] {
    for (Conn& conn : conns_) {
      if (conn.fd < 0) continue;
      while (!exhausted && conn.pending.size() < depth) {
        std::optional<Request> request = next();
        if (!request.has_value()) {
          exhausted = true;
          break;
        }
        Send(conn, *std::move(request), index++, NowMs());
      }
      Flush(conn, counting);
    }
  };
  top_up();
  for (;;) {
    const double now = NowMs();
    const bool sending = !exhausted && now < until_ms;
    if ((!sending && InFlight() == 0) || !Live()) break;
    if (now >= deadline_ms) {
      FailPending(counting);
      break;
    }
    Pump((sending ? until_ms : deadline_ms) - now, counting);
    if (NowMs() < until_ms) top_up();
  }
  return answered;
}

}  // namespace cqpbench
