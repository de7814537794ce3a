#include "server/server.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "space/prepared_space.h"

namespace cqp::server {

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Serializes `response`, guaranteeing the frame fits the protocol cap
/// the peer will enforce. An engine error echoing a huge query (e.g. the
/// SQL parser's `near "…"` context on a megabyte identifier) can push a
/// response past kMaxFrameBytes — the client would reject the frame and
/// see a hang instead of its typed error. Truncate the message first;
/// if the frame is somehow still oversized, degrade to a minimal typed
/// error with the same request id.
std::string SerializeResponseBounded(WireResponse response) {
  std::string frame = SerializeResponse(response);
  if (frame.size() <= kMaxFrameBytes) return frame;
  if (!response.status.ok()) {
    std::string clipped = response.status.message().substr(0, 1024);
    response.status =
        Status(response.status.code(), clipped + " ... [truncated]");
    frame = SerializeResponse(response);
    if (frame.size() <= kMaxFrameBytes) return frame;
  }
  WireResponse fallback;
  fallback.id = response.id;
  fallback.status = Internal("response exceeded the frame cap");
  return SerializeResponse(fallback);
}

size_t ResolveIoThreads(size_t requested) {
  if (requested != 0) return requested;
  size_t n = std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  // Past a handful of loops the bottleneck is the worker pool, not I/O;
  // more loops just fragment the admission budget.
  if (n > 8) n = 8;
  return n;
}

}  // namespace

Server::Server(const storage::Database* db, ProfileStore* profiles,
               ServerOptions options)
    : db_(db), profiles_(profiles), options_(std::move(options)) {
  CQP_CHECK(db_ != nullptr);
  CQP_CHECK(profiles_ != nullptr);
}

Server::~Server() { Stop(); }

AdmissionTotals Server::admission() const {
  std::vector<const AdmissionController*> slices;
  slices.reserve(loops_.size());
  for (const auto& loop : loops_) slices.push_back(&loop->admission());
  return AdmissionTotals(std::move(slices), &options_.admission);
}

Status Server::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return FailedPrecondition("server already running");
  }
  const size_t num_loops = ResolveIoThreads(options_.io_threads);
  stats_.ConfigureLoops(num_loops);

  EventLoopOptions loop_options;
  loop_options.max_frame_bytes = kMaxFrameBytes;
  loop_options.write_queue_watermark_bytes =
      options_.write_queue_watermark_bytes;
  loop_options.write_queue_limit_bytes = options_.write_queue_limit_bytes;
  loop_options.so_sndbuf = options_.so_sndbuf;
  loop_options.admission =
      SliceAdmissionOptions(options_.admission, num_loops);

  loops_.clear();
  loops_.reserve(num_loops);
  for (size_t i = 0; i < num_loops; ++i) {
    loops_.push_back(
        std::make_unique<EventLoop>(i, loop_options, &stats_.loop(i)));
    // Loop 0 resolves an ephemeral port; the rest bind the same one via
    // SO_REUSEPORT so the kernel spreads connections across loops.
    Status listened =
        loops_[i]->Listen(options_.host, i == 0 ? options_.port : port_);
    if (!listened.ok()) {
      loops_.clear();
      return listened;
    }
    if (i == 0) port_ = loops_[0]->bound_port();
  }

  pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  running_.store(true, std::memory_order_release);

  auto on_line = [this](const std::shared_ptr<Connection>& conn,
                        std::string&& line) {
    return HandleLine(conn, line);
  };
  auto on_open = [this](const std::shared_ptr<Connection>&) {
    stats_.OnConnectionOpened();
  };
  auto on_close = [this](const std::shared_ptr<Connection>&) {
    stats_.OnConnectionClosed();
  };
  auto on_oversize = [this](size_t cap) {
    stats_.OnProtocolError();
    WireResponse response;
    response.status =
        InvalidArgument("frame exceeds " + std::to_string(cap) + " bytes");
    return SerializeResponse(response);
  };
  for (size_t i = 0; i < num_loops; ++i) {
    loops_[i]->Start(on_line, on_open, on_close, on_oversize,
                     /*id_base=*/i + 1, /*id_step=*/num_loops);
  }
  if (options_.stats_interval_s > 0.0) {
    stats_thread_ = std::thread([this] { StatsLoop(); });
  }
  return Status::OK();
}

void Server::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;

  // 1. Stop accepting; existing connections keep being served while
  // admitted work drains.
  for (auto& loop : loops_) loop->StopAccepting();
  if (stats_thread_.joinable()) stats_thread_.join();

  // 2. Drain: admitted requests get up to drain_deadline_ms to finish and
  // answer before we cancel them. Connected-but-idle clients do not hold
  // the drain open — only admitted work counts. The loops are still live
  // here, so responses posted by finishing workers flush to the wire.
  if (options_.drain_deadline_ms > 0.0) {
    Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               options_.drain_deadline_ms));
    AdmissionTotals totals = admission();
    while (totals.pending() > 0 && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  // 3. Stop the loops. Each runs its remaining posted tasks (late
  // responses get a final flush attempt), then tears every connection
  // down — cancelling its CancelToken so whatever outlived the drain
  // unwinds at the next ShouldStop() poll.
  for (auto& loop : loops_) loop->RequestStop();
  for (auto& loop : loops_) loop->Join();

  // 4. Drain the worker pool. Workers hold shared_ptr<Connection>; their
  // WriteLines fail fast (closed) or post to the stopped loops, where the
  // tasks accumulate harmlessly until the loops are destroyed.
  pool_.reset();
  loops_.clear();

  // 5. Make every acknowledged mutation durable before the process exits
  // (no-op for the in-memory store; inline-fsync durable stores have
  // nothing buffered either, but group commit may).
  Status flushed = profiles_->Flush();
  if (!flushed.ok()) {
    std::fprintf(stderr, "cqp_serve: journal flush on shutdown failed: %s\n",
                 flushed.ToString().c_str());
  }
}

bool Server::HandleLine(const std::shared_ptr<Connection>& conn,
                        const std::string& line) {
  StatusOr<WireRequest> parsed = ParseRequest(line);
  if (!parsed.ok()) {
    // Malformed frames get a typed error response but do NOT close the
    // connection: one bad request must not kill a pipelining client's
    // other requests.
    stats_.OnProtocolError();
    WireResponse response;
    response.status = parsed.status();
    return conn->WriteLine(SerializeResponseBounded(std::move(response)));
  }
  WireRequest request = *std::move(parsed);
  switch (request.op) {
    case RequestOp::kPersonalize:
      HandlePersonalize(conn, std::move(request));
      return true;
    case RequestOp::kPing: {
      WireResponse response;
      response.id = request.id;
      response.extra = JsonValue::Object();
      response.extra.Set("pong", JsonValue::Bool(true));
      return conn->WriteLine(SerializeResponseBounded(std::move(response)));
    }
    case RequestOp::kStats: {
      WireResponse response;
      response.id = request.id;
      response.extra = StatsJson();
      return conn->WriteLine(SerializeResponseBounded(std::move(response)));
    }
    case RequestOp::kProfiles: {
      WireResponse response;
      response.id = request.id;
      response.extra = JsonValue::Object();
      JsonValue ids = JsonValue::Array();
      for (const std::string& id : profiles_->Ids()) {
        ids.Append(JsonValue::Str(id));
      }
      response.extra.Set("profiles", std::move(ids));
      return conn->WriteLine(SerializeResponseBounded(std::move(response)));
    }
    case RequestOp::kReload: {
      // Reload hits disk and rebuilds graphs — far too slow for a loop
      // thread (it used to only stall one blocking reader; here it would
      // stall every connection on this loop). Run it on the pool.
      pool_->Submit([this, conn, id = request.id] {
        WireResponse response;
        response.id = id;
        StatusOr<size_t> reloaded = profiles_->Reload();
        if (reloaded.ok()) {
          response.extra = JsonValue::Object();
          response.extra.Set(
              "reloaded", JsonValue::Number(static_cast<double>(*reloaded)));
        } else {
          response.status = reloaded.status();
        }
        conn->WriteLine(SerializeResponseBounded(std::move(response)));
      });
      return true;
    }
  }
  return true;
}

JsonValue Server::StatsJson() {
  auto num = [](auto v) { return JsonValue::Number(static_cast<double>(v)); };
  JsonValue out = stats_.ToJson();

  AdmissionTotals totals = admission();
  JsonValue admission = JsonValue::Object();
  admission.Set("pending", num(totals.pending()));
  admission.Set("max_pending", num(totals.options().max_pending));
  admission.Set("soft_pending", num(totals.options().soft_pending));
  out.Set("admission", std::move(admission));
  out.Set("io_threads", num(loops_.size()));

  construct::PlanCacheStats plan_stats = profiles_->plan_stats();
  JsonValue plans = JsonValue::Object();
  plans.Set("hits", num(plan_stats.hits));
  plans.Set("misses", num(plan_stats.misses));
  plans.Set("evictions", num(plan_stats.evictions));
  plans.Set("invalidations", num(plan_stats.invalidations));
  plans.Set("entries", num(plan_stats.entries));
  out.Set("plan_cache", std::move(plans));

  // The store: journal totals and the shard tier, always present (all
  // journal and paging counters read 0 for the in-memory store).
  const StoreStats store = profiles_->stats();
  const JournalStats& js = store.total.journal;
  JsonValue journal = JsonValue::Object();
  journal.Set("appends", num(js.appends));
  journal.Set("append_bytes", num(js.append_bytes));
  journal.Set("fsyncs", num(js.fsyncs));
  // Deprecated: group commit is gone; kept at 0 for one more version.
  journal.Set("group_commits", num(0));
  journal.Set("compactions", num(js.compactions));
  journal.Set("journal_bytes", num(js.journal_bytes));
  journal.Set("snapshot_bytes", num(js.snapshot_bytes));
  journal.Set("wedged", JsonValue::Bool(js.wedged));
  journal.Set("recovered_profiles", num(js.recovered_profiles));
  journal.Set("replayed_records", num(js.replayed_records));
  journal.Set("dropped_bytes", num(js.dropped_bytes));
  journal.Set("torn_tail_recovered", JsonValue::Bool(js.torn_tail_recovered));
  journal.Set("recovery_ms", JsonValue::Number(js.recovery_ms));
  out.Set("journal", std::move(journal));

  auto paging = [&num](const ShardStats& s, JsonValue& obj) {
    obj.Set("profiles", num(s.profiles));
    obj.Set("resident_profiles", num(s.resident_profiles));
    obj.Set("resident_bytes", num(s.resident_bytes));
    obj.Set("resident_budget_bytes", num(s.resident_budget_bytes));
    obj.Set("hits", num(s.hits));
    obj.Set("misses", num(s.misses));
    obj.Set("page_ins", num(s.page_ins));
    obj.Set("page_in_waits", num(s.page_in_waits));
    obj.Set("page_in_errors", num(s.page_in_errors));
    obj.Set("evictions", num(s.evictions));
    obj.Set("pinned_skips", num(s.pinned_skips));
  };
  JsonValue shard_tier = JsonValue::Object();
  shard_tier.Set("shards", num(store.per_shard.size()));
  paging(store.total, shard_tier);
  JsonValue per_shard = JsonValue::Array();
  for (size_t i = 0; i < store.per_shard.size(); ++i) {
    const ShardStats& s = store.per_shard[i];
    JsonValue one = JsonValue::Object();
    one.Set("shard", num(i));
    paging(s, one);
    JsonValue shard_journal = JsonValue::Object();
    shard_journal.Set("appends", num(s.journal.appends));
    shard_journal.Set("fsyncs", num(s.journal.fsyncs));
    shard_journal.Set("compactions", num(s.journal.compactions));
    shard_journal.Set("journal_bytes", num(s.journal.journal_bytes));
    shard_journal.Set("snapshot_bytes", num(s.journal.snapshot_bytes));
    shard_journal.Set("wedged", JsonValue::Bool(s.journal.wedged));
    one.Set("journal", std::move(shard_journal));
    per_shard.Append(std::move(one));
  }
  shard_tier.Set("per_shard", std::move(per_shard));
  out.Set("shard_tier", std::move(shard_tier));
  return out;
}

void Server::HandlePersonalize(const std::shared_ptr<Connection>& conn,
                               WireRequest request) {
  // Admission is sliced per loop: the owning loop's controller is
  // uncontended (touched by this loop thread and this loop's workers'
  // Releases only), so admitting costs one atomic RMW, no shared gauge.
  AdmissionController& admission = conn->loop()->admission();
  AdmissionController::Ticket ticket = admission.TryAdmit();
  if (!ticket.admitted) {
    // Shedding is always explicit on the wire — never a silent drop.
    stats_.OnShed();
    WireResponse response;
    response.id = request.id;
    response.status = ResourceExhausted(
        "server overloaded: " + std::to_string(admission.pending()) +
        " requests pending on loop " +
        std::to_string(conn->loop()->index()) + " (max " +
        std::to_string(admission.options().max_pending) + ")");
    conn->WriteLine(SerializeResponseBounded(std::move(response)));
    return;
  }
  stats_.OnAdmitted();
  if (ticket.degrade) stats_.OnDegradedAdmission();
  // The deadline anchors HERE: time spent queued on the pool counts
  // against it, so backlogged requests degrade instead of stacking up.
  Clock::time_point admitted_at = Clock::now();
  bool degrade = ticket.degrade;
  pool_->Submit([this, conn, request = std::move(request), admitted_at,
                 degrade, adm = &admission] {
    RunPersonalize(conn, request, admitted_at, degrade);
    adm->Release();
  });
}

void Server::RunPersonalize(const std::shared_ptr<Connection>& conn,
                            const WireRequest& request,
                            Clock::time_point admitted_at, bool degrade) {
  const PersonalizePayload& payload = request.personalize;
  WireResponse response;
  response.id = request.id;

  if (conn->cancel_token().cancelled()) {
    // Peer vanished while we were queued: there is nobody to answer, so
    // skip the search entirely (the whole point of connection-scoped
    // cancellation). Still counted as an errored request.
    stats_.OnRequestDone(/*ok=*/false, /*degraded_answer=*/false,
                         MillisSince(admitted_at), 0, 0, 0);
    return;
  }

  ProfileStore::Snapshot snapshot = profiles_->FindSnapshot(payload.profile_id);
  if (snapshot.graph == nullptr) {
    response.status = NotFound("no profile '" + payload.profile_id + "'");
    stats_.OnRequestDone(false, false, MillisSince(admitted_at), 0, 0, 0);
    conn->WriteLine(SerializeResponseBounded(std::move(response)));
    return;
  }

  construct::PersonalizeRequest engine_request;
  engine_request.sql = payload.sql;
  engine_request.problem =
      payload.problem.has_value() ? *payload.problem : options_.default_problem;
  engine_request.algorithm = payload.algorithm.empty()
                                 ? options_.default_algorithm
                                 : payload.algorithm;
  engine_request.space_options.max_k =
      payload.max_k != 0 ? payload.max_k : options_.default_max_k;
  engine_request.graph = snapshot.graph.get();

  SearchBudget budget;
  if (payload.deadline_ms > 0.0) {
    budget.deadline =
        admitted_at + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(
                              payload.deadline_ms));
  }
  if (degrade) {
    // Above the soft watermark every request gets at most the degraded
    // deadline — this is what drives the PR 1 fallback ladder under load.
    Clock::time_point clamp =
        admitted_at +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(
                conn->loop()->admission().options().degraded_deadline_ms));
    if (!budget.deadline.has_value() || clamp < *budget.deadline) {
      budget.deadline = clamp;
    }
  }
  budget.max_expansions = payload.max_expansions;
  budget.max_memory_bytes =
      static_cast<size_t>(payload.max_memory_mb * 1024.0 * 1024.0);
  budget.cancel = &conn->cancel_token();
  engine_request.budget = budget;

  // Cross-request memoization: one EvalCache per (profile, query, problem
  // bounds) triple, keyed additionally by the profile snapshot's version
  // so a hot-reload can never serve values computed under the replaced
  // graph. The prune bounds participate because different cmax/smin yield
  // different per-problem views of the prepared space — the cache indexes
  // preferences by position in the view, so each view needs its own memo.
  std::shared_ptr<estimation::EvalCache> cache =
      profiles_->caches_for(payload.profile_id).GetOrCreate(
          payload.profile_id,
          std::to_string(snapshot.version) + ":" +
              space::ProblemPruneKey(engine_request.problem) + ":" +
              payload.sql);
  engine_request.eval_cache = cache.get();

  // The shared plan cache (this profile's shard slice when the store is
  // sharded): a repeated query skips parsing-to-extraction entirely. The
  // snapshot version in the key makes stale plans unreachable the instant
  // a profile is replaced.
  engine_request.plan_cache = &profiles_->plans_for(payload.profile_id);
  engine_request.profile_id = payload.profile_id;
  engine_request.profile_version = snapshot.version;

  construct::Personalizer personalizer(db_, snapshot.graph.get());
  StatusOr<construct::PersonalizeResult> result =
      personalizer.Personalize(engine_request);

  double latency_ms = MillisSince(admitted_at);
  if (!result.ok()) {
    response.status = result.status();
    stats_.OnRequestDone(false, false, latency_ms, 0, 0, 0);
    conn->WriteLine(SerializeResponseBounded(std::move(response)));
    return;
  }

  const construct::PersonalizeResult& r = *result;
  PersonalizeResultPayload out;
  out.final_sql = r.final_sql;
  out.rung = construct::FallbackRungName(r.rung);
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
  out.server_ms = latency_ms;
  out.attempts = r.attempts;
  response.personalize = std::move(out);

  stats_.OnPlanLookup(r.plan_cache_hit);
  stats_.OnRewrite(r.personalized.rewrite.conjuncts_dropped,
                   r.personalized.rewrite.branches_contradicted,
                   r.personalized.rewrite.branches_subsumed,
                   r.space != nullptr ? r.space->constraint_pruned : 0);
  stats_.OnRequestDone(/*ok=*/true, r.degraded(), latency_ms,
                       r.metrics.eval_cache_hits, r.metrics.eval_cache_misses,
                       r.metrics.states_examined);
  conn->WriteLine(SerializeResponseBounded(std::move(response)));
}

void Server::StatsLoop() {
  auto next = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     options_.stats_interval_s));
  while (running_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (Clock::now() < next) continue;
    next = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  options_.stats_interval_s));
    std::fprintf(stderr, "cqp_serve stats %s\n", StatsJson().Dump().c_str());
  }
}

}  // namespace cqp::server
