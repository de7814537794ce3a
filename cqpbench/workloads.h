#ifndef CQPBENCH_WORKLOADS_H_
#define CQPBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "construct/personalizer.h"
#include "loadgen.h"
#include "server/profile_store.h"
#include "server/protocol.h"
#include "server/server.h"
#include "storage/database.h"

namespace cqpbench {

/// The settings every workload serves under: one epoll loop and four
/// workers (cqp_serve's default on a 4-core box). One loop handles far
/// more frames than any rate used here, and a single loop keeps the
/// kernel's SO_REUSEPORT hash from placing connections differently from
/// run to run. Problem, algorithm and K are the server defaults
/// (Problem 2 at cmax = 400 ms, auto, K = 20), which requests never set.
cqp::server::ServerOptions BenchServerOptions();

/// The answer fields the benchmark checks, field for field, against a
/// direct Personalize() reference.
struct Answer {
  std::string final_sql;
  std::vector<int32_t> chosen;
  double doi = 0.0;
  double cost_ms = 0.0;
  double size = 0.0;
  bool feasible = false;

  bool operator==(const Answer& other) const = default;
};

Answer AnswerOf(const cqp::server::PersonalizeResultPayload& payload);
Answer AnswerOf(const cqp::construct::PersonalizeResult& result);

/// Direct in-process Personalize() of `sql` under `graph` with the
/// server's defaults and no caches: the reference a served answer must
/// equal bit for bit.
cqp::StatusOr<Answer> ReferenceAnswer(
    const cqp::storage::Database& db,
    const cqp::prefs::PersonalizationGraph& graph, const std::string& sql);

/// Which part of a run a request is drawn for. Each phase draws from its
/// own stream, derived from the run's seed.
enum class Phase { kWarm = 1, kCapacity = 2, kRate = 3 };

/// One write of a workload with writes beside its reads (profile_churn).
struct PutRecord {
  uint32_t text = 0;     ///< profile text written
  double start_ms = 0.0;
  double end_ms = 0.0;   ///< +inf until the Put returns
  bool ok = false;
};

/// One named traffic mix: its inputs, its set-up, its request streams and
/// how its answers are checked. Every input is a function of the seed;
/// database and profile configurations are fixed, so the load level does
/// not move with the seed.
class Workload {
 public:
  /// nullptr for an unknown name. `work_dir` holds on-disk state
  /// (profile_churn's store directory).
  static std::unique_ptr<Workload> Create(const std::string& name,
                                          uint64_t seed,
                                          const std::string& work_dir);
  static const std::vector<std::string>& Names();

  virtual ~Workload() = default;

  const std::string& name() const { return name_; }
  /// Open-loop arrival rate of the rate phase, requests/s.
  double rate() const { return rate_; }
  /// Requests the traced ladder replays from the start of the rate stream.
  size_t ladder_requests() const { return ladder_requests_; }
  const cqp::storage::Database& db() const { return db_; }

  /// Untimed: database, profile texts and reference answers.
  virtual cqp::Status Generate() = 0;

  /// The timed part of set-up before the server starts: a fresh profile
  /// store with fresh caches (plus the derived constraints, for
  /// cold_queries).
  virtual cqp::StatusOr<std::unique_ptr<cqp::server::ProfileStore>>
  OpenStore() = 0;

  /// The set-up's warm-up pass: the same requests for every set-up.
  virtual std::vector<Request> WarmupRequests() const = 0;

  /// The next request of `phase`'s stream.
  virtual Request Next(Phase phase) = 0;

  /// Checks one served answer, sent and received at the given NowMs()
  /// times. False is a wrong answer.
  virtual bool Check(const Request& request, const Answer& answer,
                     double sent_ms, double done_ms) = 0;

  /// Checks deferred until timing ends; returns the number of wrong
  /// answers among them.
  virtual size_t FinishChecks() { return 0; }

  /// True when a write touched the profile `request` reads, so answers to
  /// it computed at different times may legitimately differ.
  virtual bool WasWritten(const Request& request) const {
    (void)request;
    return false;
  }

  /// Writes beside the reads, made from a second thread until `stop`.
  virtual bool has_writer() const { return false; }
  virtual void RunWriter(cqp::server::ProfileStore* store,
                         const std::atomic<bool>& stop) {
    (void)store;
    (void)stop;
  }
  /// The writes made so far (call after the writer thread has joined).
  virtual std::vector<PutRecord> Puts() const { return {}; }

 protected:
  Workload(std::string name, uint64_t seed, double rate,
           size_t ladder_requests)
      : name_(std::move(name)),
        seed_(seed),
        rate_(rate),
        ladder_requests_(ladder_requests) {
    for (Phase phase : {Phase::kWarm, Phase::kCapacity, Phase::kRate}) {
      phase_rngs_.emplace_back(StreamSeed(static_cast<uint64_t>(phase)));
    }
  }

  /// Seed of one phase's stream (or any other named sub-stream).
  uint64_t StreamSeed(uint64_t stream) const {
    return seed_ * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull;
  }

  cqp::Rng& PhaseRng(Phase phase) {
    return phase_rngs_[static_cast<size_t>(phase) - 1];
  }

  const std::string name_;
  const uint64_t seed_;
  const double rate_;
  const size_t ladder_requests_;
  std::vector<cqp::Rng> phase_rngs_;
  cqp::storage::Database db_;
};

}  // namespace cqpbench

#endif  // CQPBENCH_WORKLOADS_H_
