#include "ladder.h"

#include <algorithm>

#include "construct/personalizer.h"
#include "server/protocol.h"
#include "space/prepared_space.h"
#include "sql/parser.h"
#include "stats.h"

namespace cqpbench {

namespace server = cqp::server;
using cqp::Status;
using cqp::StatusOr;

namespace {

/// Records spans into a vector; Begin returns the span's index.
class Tracer {
 public:
  explicit Tracer(std::vector<Span>* spans) : spans_(spans) {}

  int32_t Begin(const char* name, int32_t parent, uint32_t request) {
    Span span;
    span.name = name;
    span.parent = parent;
    span.request = request;
    span.start_us = NowMs() * 1000.0;
    spans_->push_back(span);
    return static_cast<int32_t>(spans_->size() - 1);
  }
  void End(int32_t span) { (*spans_)[span].end_us = NowMs() * 1000.0; }

 private:
  std::vector<Span>* spans_;
};

/// One request through the copied RunPersonalize path. Search time and the
/// engine result land in the out-parameters.
StatusOr<Answer> RunOne(const cqp::storage::Database& db,
                        server::ProfileStore& store, const Request& request,
                        uint32_t number, Tracer& tracer,
                        cqp::construct::PersonalizeResult* engine_result) {
  const server::ServerOptions options = BenchServerOptions();
  const std::string frame = RequestFrame(request, number);
  const int32_t root = tracer.Begin("request", -1, number);

  int32_t span = tracer.Begin("protocol.parse_request", root, number);
  StatusOr<server::WireRequest> wire = server::ParseRequest(frame);
  tracer.End(span);
  if (!wire.ok()) return wire.status();
  const server::PersonalizePayload& payload = wire->personalize;

  span = tracer.Begin("store.find", root, number);
  server::ProfileStore::Snapshot snapshot =
      store.FindSnapshot(payload.profile_id);
  tracer.End(span);
  if (snapshot.graph == nullptr) {
    return cqp::NotFound("no profile '" + payload.profile_id + "'");
  }

  cqp::construct::PersonalizeRequest engine_request;
  engine_request.problem = options.default_problem;
  engine_request.algorithm = options.default_algorithm;
  engine_request.space_options.max_k = options.default_max_k;
  engine_request.graph = snapshot.graph.get();

  span = tracer.Begin("estimation.eval_cache", root, number);
  std::shared_ptr<cqp::estimation::EvalCache> cache =
      store.caches_for(payload.profile_id)
          .GetOrCreate(payload.profile_id,
                       std::to_string(snapshot.version) + ":" +
                           cqp::space::ProblemPruneKey(engine_request.problem) +
                           ":" + payload.sql);
  tracer.End(span);
  engine_request.eval_cache = cache.get();
  engine_request.plan_cache = &store.plans_for(payload.profile_id);
  engine_request.profile_id = payload.profile_id;
  engine_request.profile_version = snapshot.version;

  span = tracer.Begin("sql.parse", root, number);
  StatusOr<cqp::sql::SelectQuery> query = cqp::sql::ParseSelect(payload.sql);
  tracer.End(span);
  if (!query.ok()) return query.status();
  engine_request.query = *std::move(query);

  cqp::construct::Personalizer personalizer(&db, snapshot.graph.get());
  span = tracer.Begin("construct.prepare", root, number);
  StatusOr<cqp::construct::PreparedQuery> prepared =
      personalizer.Prepare(engine_request);
  tracer.End(span);
  if (!prepared.ok()) return prepared.status();

  span = tracer.Begin("construct.solve", root, number);
  StatusOr<cqp::construct::PersonalizeResult> result =
      personalizer.Solve(*prepared, engine_request);
  tracer.End(span);
  if (!result.ok()) return result.status();
  const cqp::construct::PersonalizeResult& r = *result;

  server::WireResponse response;
  response.id = wire->id;
  server::PersonalizeResultPayload out;
  out.final_sql = r.final_sql;
  out.rung = cqp::construct::FallbackRungName(r.rung);
  out.degraded = r.degraded();
  out.feasible = r.solution.feasible;
  out.chosen.assign(r.solution.chosen.begin(), r.solution.chosen.end());
  out.doi = r.solution.params.doi;
  out.cost_ms = r.solution.params.cost_ms;
  out.size = r.solution.params.size;
  out.states_examined = r.metrics.states_examined;
  out.search_wall_ms = r.metrics.wall_ms;
  out.eval_cache_hits = r.metrics.eval_cache_hits;
  out.eval_cache_misses = r.metrics.eval_cache_misses;
  out.plan_cache_hit = r.plan_cache_hit;
  out.attempts = r.attempts;
  response.personalize = std::move(out);

  span = tracer.Begin("protocol.serialize_response", root, number);
  const std::string line = server::SerializeResponse(response);
  tracer.End(span);

  span = tracer.Begin("protocol.parse_response", root, number);
  StatusOr<server::WireResponse> back = server::ParseResponse(line);
  tracer.End(span);
  tracer.End(root);
  if (!back.ok()) return back.status();
  if (!back->personalize.has_value()) return cqp::Internal("no payload");
  *engine_result = *std::move(result);
  return AnswerOf(*back->personalize);
}

}  // namespace

StatusOr<LadderReport> RunLadder(const cqp::storage::Database& db,
                                 server::ProfileStore& store,
                                 const std::vector<Request>& warmup,
                                 const std::vector<Request>& requests) {
  {
    std::vector<Span> discarded;
    Tracer tracer(&discarded);
    cqp::construct::PersonalizeResult ignored;
    for (const Request& request : warmup) {
      CQP_RETURN_IF_ERROR(
          RunOne(db, store, request, 0, tracer, &ignored).status());
    }
  }

  LadderReport report;
  Tracer tracer(&report.spans);
  std::vector<double> search_us;
  double k_sum = 0.0, pruned_sum = 0.0;
  double lanes_wasted = 0.0, lanes_used = 0.0;
  for (size_t i = 0; i < requests.size(); ++i) {
    cqp::construct::PersonalizeResult result;
    CQP_ASSIGN_OR_RETURN(Answer answer,
                         RunOne(db, store, requests[i],
                                static_cast<uint32_t>(i), tracer, &result));
    report.answers.push_back(std::move(answer));
    search_us.push_back(result.metrics.wall_ms * 1000.0);
    if (result.space != nullptr) {
      k_sum += static_cast<double>(result.space->K());
      pruned_sum += static_cast<double>(result.space->constraint_pruned);
    }
    lanes_wasted += static_cast<double>(result.metrics.frontier_lanes_wasted);
    lanes_used += static_cast<double>(result.metrics.frontier_states);
  }

  // Self time: a span's duration minus the durations of its children.
  std::vector<double> child_us(report.spans.size(), 0.0);
  for (const Span& span : report.spans) {
    if (span.parent >= 0) child_us[span.parent] += span.end_us - span.start_us;
  }
  std::map<std::string, std::vector<double>> self_us;
  std::vector<double> engine_ms(requests.size(), 0.0);
  std::vector<double> solve_self_us;
  for (size_t i = 0; i < report.spans.size(); ++i) {
    const Span& span = report.spans[i];
    const double self = span.end_us - span.start_us - child_us[i];
    self_us[span.name].push_back(self);
    const std::string name = span.name;
    if (name == "store.find" || name == "estimation.eval_cache" ||
        name == "sql.parse" || name == "construct.prepare" ||
        name == "construct.solve") {
      engine_ms[span.request] += (span.end_us - span.start_us) / 1000.0;
    }
    if (name == "construct.solve") {
      solve_self_us.push_back(self - search_us[span.request]);
    }
  }

  const double n = static_cast<double>(std::max<size_t>(1, requests.size()));
  auto& m = report.metrics;
  m["protocol.parse_request_us"] = Median(self_us["protocol.parse_request"]);
  m["protocol.serialize_response_us"] =
      Median(self_us["protocol.serialize_response"]);
  m["protocol.parse_response_us"] = Median(self_us["protocol.parse_response"]);
  const Summary find = Summarize(self_us["store.find"]);
  m["store.find_us"] = find.median;
  m["store.find_tail_us"] = find.tail;
  m["estimation.eval_cache_us"] = Median(self_us["estimation.eval_cache"]);
  m["sql.parse_us"] = Median(self_us["sql.parse"]);
  m["construct.prepare_us"] = Median(self_us["construct.prepare"]);
  m["construct.solve_self_us"] = Median(solve_self_us);
  m["space.k"] = k_sum / n;
  m["space.constraint_pruned_per_req"] = pruned_sum / n;
  m["cqp.lanes_wasted_ratio"] =
      lanes_used + lanes_wasted > 0.0
          ? lanes_wasted / (lanes_used + lanes_wasted)
          : 0.0;
  report.engine_p50_ms = Median(engine_ms);
  return report;
}

server::JsonValue SpansToJson(const std::vector<Span>& spans) {
  server::JsonValue out = server::JsonValue::Array();
  for (const Span& span : spans) {
    server::JsonValue row = server::JsonValue::Array();
    row.Append(server::JsonValue::Str(span.name));
    row.Append(server::JsonValue::Number(span.start_us));
    row.Append(server::JsonValue::Number(span.end_us));
    row.Append(server::JsonValue::Number(span.parent));
    row.Append(server::JsonValue::Number(span.request));
    out.Append(std::move(row));
  }
  return out;
}

}  // namespace cqpbench
