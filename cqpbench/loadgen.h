#ifndef CQPBENCH_LOADGEN_H_
#define CQPBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "server/protocol.h"

namespace cqpbench {

/// Milliseconds since a process-wide origin; every timestamp the benchmark
/// records (load generator, writer thread, ladder) is on this one clock.
double NowMs();

/// One personalize request of a workload stream. `key` is the workload's
/// handle for checking the answer (a reference index, a query index, ...).
struct Request {
  std::string profile_id;
  std::string sql;
  uint32_t key = 0;
};

/// The wire frame for `request` (without the '\n'). The server's defaults
/// fill in the problem, algorithm and K, as for any client that omits them.
std::string RequestFrame(const Request& request, uint64_t wire_id);

/// What the load generator saw for one request.
struct Outcome {
  size_t index = 0;         ///< position in the phase's request sequence
  double due_ms = 0.0;      ///< open loop: scheduled send; closed: send
  double sent_ms = 0.0;     ///< when the frame was handed to send()
  double done_ms = 0.0;     ///< when the response line was parsed
  bool transport_ok = false;  ///< false: connection lost or no answer
  cqp::server::WireResponse response;  ///< valid iff transport_ok
};

/// Called on the load-generator thread for every finished request, in
/// completion order. Keep it cheap: it runs on the generator's clock.
using OnOutcome = std::function<void(const Request&, const Outcome&)>;

/// Load generator: one thread multiplexing a few loopback connections with
/// ppoll(). Frames are pipelined; responses are matched by wire id, since a
/// connection's answers come back in completion order, not send order.
class LoadGen {
 public:
  LoadGen() = default;
  ~LoadGen();  ///< closes the connections
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  cqp::Status Connect(int port, size_t connections);

  /// Open loop: sends requests[i] at due_ms[i] (ascending, NowMs() clock)
  /// however many answers are outstanding, round-robin over the
  /// connections, then waits until `deadline_ms` for the remaining
  /// answers; requests still unanswered then fail.
  void RunOpenLoop(const std::vector<Request>& requests,
                   const std::vector<double>& due_ms, double deadline_ms,
                   const OnOutcome& on_outcome);

  /// Closed loop: keeps `depth` requests in flight on every connection,
  /// drawing them from `next` (nullopt = stream exhausted), until
  /// `until_ms`; then stops sending and waits (until `deadline_ms`) for
  /// what is in flight. Returns the number answered without error by
  /// `until_ms`.
  size_t RunClosedLoop(const std::function<std::optional<Request>()>& next,
                       size_t depth, double until_ms, double deadline_ms,
                       const OnOutcome& on_outcome);

  /// Response frames that could not be matched to a request (unparsable,
  /// or an unknown id). Each is a failure.
  uint64_t stray_frames() const { return stray_frames_; }

 private:
  struct Pending {
    Request request;
    size_t index = 0;
    double due_ms = 0.0;
    double sent_ms = 0.0;
  };
  struct Conn {
    int fd = -1;
    std::string outbox;
    std::string inbox;
    std::unordered_map<uint64_t, Pending> pending;  ///< by wire id
  };

  void Send(Conn& conn, Request request, size_t index, double due_ms);
  /// One ppoll round (at most `timeout_ms`): flush outboxes, then read and
  /// dispatch whatever answers arrived.
  void Pump(double timeout_ms, const OnOutcome& on_outcome);
  void Flush(Conn& conn, const OnOutcome& on_outcome);
  void Drop(Conn& conn, const OnOutcome& on_outcome);
  void FailPending(const OnOutcome& on_outcome);
  bool Live() const;
  size_t InFlight() const;

  std::vector<Conn> conns_;
  uint64_t next_wire_id_ = 1;
  uint64_t stray_frames_ = 0;
  size_t round_robin_ = 0;
};

}  // namespace cqpbench

#endif  // CQPBENCH_LOADGEN_H_
