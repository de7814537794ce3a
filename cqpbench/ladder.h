#ifndef CQPBENCH_LADDER_H_
#define CQPBENCH_LADDER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "loadgen.h"
#include "server/json.h"
#include "server/profile_store.h"
#include "storage/database.h"
#include "workloads.h"

namespace cqpbench {

/// One timed call into a layer. Spans of one request share `request`;
/// `parent` indexes the enclosing span (-1 for the request's root).
struct Span {
  const char* name = "";
  double start_us = 0.0;  ///< NowMs() clock, in microseconds
  double end_us = 0.0;
  int32_t parent = -1;
  uint32_t request = 0;
};

/// What the traced ladder measured.
struct LadderReport {
  std::vector<Span> spans;
  std::vector<Answer> answers;  ///< one per measured request
  /// Per-layer metrics (name → value) in the units BENCHMARK.json lists.
  std::map<std::string, double> metrics;
  /// Median engine time per request (store lookup through Solve), ms: the
  /// part of the server's handle time that is not queueing.
  double engine_p50_ms = 0.0;
};

/// The serial in-process ladder: replays `requests` one at a time through
/// the server's personalize path as Server::RunPersonalize runs it, with a
/// span around each public call — ParseRequest → FindSnapshot →
/// EvalCacheRegistry::GetOrCreate (the server's key) → sql::ParseSelect →
/// Personalizer::Prepare (query pre-parsed) → Personalizer::Solve →
/// SerializeResponse → ParseResponse. `store` must be fresh; `warmup` runs
/// first, untimed, as the served run's set-up does.
cqp::StatusOr<LadderReport> RunLadder(const cqp::storage::Database& db,
                                      cqp::server::ProfileStore& store,
                                      const std::vector<Request>& warmup,
                                      const std::vector<Request>& requests);

/// [[name, start_us, end_us, parent, request], ...] for a trace file.
cqp::server::JsonValue SpansToJson(const std::vector<Span>& spans);

}  // namespace cqpbench

#endif  // CQPBENCH_LADDER_H_
