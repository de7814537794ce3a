// cqp_bench: the end-to-end benchmark of the served personalize path.
//
// Runs one named workload against an in-process server::Server over
// loopback TCP: set-up (repeated, median reported), then a discarded warm
// phase, an open-loop rate phase and a closed-loop capacity phase, with
// every answer checked. The last line of stdout is one JSON object:
//
//   {"correct": …, "attempted": …, "failed": …,
//    "metrics": {"<name>": {"value": …, "unit": "…"}, …}}
//
// holding the end-to-end metrics, or with --trace 1 the per-layer ones
// (see README.md for both tables and what each should move).
//
//   cqp_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--work-dir DIR] [--out-dir DIR] [--record FILE] [--git SHA]
//   cqp_bench --smoke      all four workloads, ~1 s each, every check on

#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "loadgen.h"
#include "fingerprint.h"
#include "ladder.h"
#include "server/json.h"
#include "server/server.h"
#include "stats.h"
#include "workloads.h"

namespace cqpbench {
namespace {

namespace server = cqp::server;
using server::JsonValue;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 25.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = "cqp_bench_work";
  std::string out_dir = ".";
  std::string record;  ///< JSON-lines file the full record is appended to
  std::string git = "unknown";
};

/// Shares of --seconds: a discarded closed-loop warm phase (as many
/// requests as the rate phase sends in that time), the open-loop rate
/// phase the latency percentiles come from, and the closed-loop capacity
/// phase.
constexpr double kWarmShare = 0.1;
constexpr double kCapacityShare = 0.3;
constexpr double kRateShare = 0.6;
/// Load shape: 4 connections from one load-generator thread; the capacity
/// phase keeps 8 requests pipelined on each.
constexpr size_t kConnections = 4;
constexpr size_t kCapacityDepth = 8;
/// Set-ups per run; setup_s is their median.
constexpr size_t kSetups = 5;
/// How long a phase may wait for its last answers before they fail.
constexpr double kDrainMs = 10000.0;

/// Units of every metric the benchmark reports (BENCHMARK.json lists the
/// same names).
const std::map<std::string, std::string>& Units() {
  static const std::map<std::string, std::string>& units =
      *new std::map<std::string, std::string>{
          // end to end
          {"setup_s", "s"},
          {"p50_ms", "ms"},
          {"p90_ms", "ms"},
          {"capacity_qps", "req/s"},
          {"ok_pct", "%"},
          {"rss_mb", "MB"},
          // per layer
          {"server.wire_ms", "ms"},
          {"server.handle_ms", "ms"},
          {"server.queue_ms", "ms"},
          {"server.bytes_out_per_req", "B"},
          {"server.wakeups_per_req", "count"},
          {"server.writevs_per_req", "count"},
          {"server.reads_per_req", "count"},
          {"admission.shed", "count"},
          {"protocol.parse_request_us", "us"},
          {"protocol.serialize_response_us", "us"},
          {"protocol.parse_response_us", "us"},
          {"store.find_us", "us"},
          {"store.find_tail_us", "us"},
          {"store.page_ins_per_req", "count"},
          {"store.evictions_per_req", "count"},
          {"store.resident_mb", "MB"},
          {"journal.fsyncs_per_put", "count"},
          {"journal.bytes_per_put", "B"},
          {"plan.hit_ratio", "ratio"},
          {"plan.evictions_per_req", "count"},
          {"plan.invalidations_per_put", "count"},
          {"construct.prepare_us", "us"},
          {"construct.solve_self_us", "us"},
          {"sql.parse_us", "us"},
          {"estimation.eval_cache_us", "us"},
          {"estimation.eval_cache_hit_ratio", "ratio"},
          {"space.k", "count"},
          {"space.constraint_pruned_per_req", "count"},
          {"cqp.search_ms", "ms"},
          {"cqp.states_per_req", "count"},
          {"cqp.states_per_sec", "1/s"},
          {"cqp.lanes_wasted_ratio", "ratio"},
          {"pool.parallel_efficiency", "ratio"},
          {"rewrite.conjuncts_dropped_per_req", "count"},
          {"rewrite.branches_eliminated_per_req", "count"},
          {"rewrite.prefs_pruned_per_req", "count"},
          {"loadgen.late_p99_ms", "ms"},
      };
  return units;
}

/// Poisson arrival offsets (ms from the phase start) at `rate` per second
/// over `duration_ms`.
std::vector<double> PoissonOffsets(double rate, double duration_ms,
                                   cqp::Rng& rng) {
  std::vector<double> offsets;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.NextDouble()) * 1000.0 / rate;
    if (t >= duration_ms) return offsets;
    offsets.push_back(t);
  }
}

/// Lifts the calling (load-generator) thread above the server's threads
/// for the measured phases. It shares the machine's cores with the server;
/// on a busy host a starved generator sends late and in bursts, which turns
/// the host's noise into queueing the server never caused. SCHED_FIFO
/// where permitted, else nice -10, else unchanged; returns which. Timers
/// also fire when due rather than up to 50 µs late.
const char* RaiseLoadGenPriority() {
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  sched_param param{};
  param.sched_priority = 1;
  if (::pthread_setschedparam(::pthread_self(), SCHED_FIFO, &param) == 0) {
    return "fifo";
  }
  if (::setpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()), -10) == 0) {
    return "nice-10";
  }
  return "normal";
}

/// Undoes RaiseLoadGenPriority (the traced ladder runs at normal priority).
void RestoreLoadGenPriority() {
  sched_param param{};
  ::pthread_setschedparam(::pthread_self(), SCHED_OTHER, &param);
  ::setpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()), 0);
  ::prctl(PR_SET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL);  // 0 restores the default
}

/// A number at `path` in a stats document; 0 when absent.
double Field(const JsonValue& doc, std::initializer_list<const char*> path) {
  const JsonValue* cur = &doc;
  for (const char* key : path) {
    cur = cur->Find(key);
    if (cur == nullptr) return 0.0;
  }
  return cur->is_number() ? cur->number_value() : 0.0;
}

/// A per-loop counter summed over the stats document's "loops" array.
double LoopSum(const JsonValue& doc, const char* field) {
  const JsonValue* loops = doc.Find("loops");
  if (loops == nullptr || !loops->is_array()) return 0.0;
  double sum = 0.0;
  for (const JsonValue& loop : loops->array_items()) {
    sum += Field(loop, {field});
  }
  return sum;
}

/// Request outcomes of one part of the run.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;     ///< answered, but not with the reference answer
  uint64_t shed = 0;      ///< ResourceExhausted from admission
  uint64_t errors = 0;    ///< other typed errors
  uint64_t transport = 0; ///< connection lost or no answer in time
};

/// What the rate phase's answers carried, one entry per checked answer.
struct RateSamples {
  std::vector<double> latency_ms;  ///< parsed response − scheduled send
  std::vector<double> late_ms;     ///< actual − scheduled send
  std::vector<double> wire_ms;     ///< client time − server_ms
  std::vector<double> server_ms;
  std::vector<double> search_ms;
  double states = 0.0;
  double plan_hits = 0.0;
  double eval_hits = 0.0;
  double eval_misses = 0.0;
  JsonValue rows = JsonValue::Array();  ///< per-request trace rows
};

struct Result {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;
  JsonValue info = JsonValue::Object();
};

class Run {
 public:
  Run(const Options& options, Workload& workload)
      : options_(options), w_(workload) {}

  cqp::StatusOr<Result> Execute() {
    const double S = options_.seconds * 1000.0;
    CQP_RETURN_IF_ERROR(w_.Generate());

    // The open-loop schedule is fixed before set-up, so generating it is
    // not timed.
    cqp::Rng schedule_rng(options_.seed * 0x2545f4914f6cdd1dull + 17);
    const std::vector<double> rate_offsets =
        PoissonOffsets(w_.rate(), kRateShare * S, schedule_rng);
    std::vector<Request> rate_requests;
    for (size_t i = 0; i < rate_offsets.size(); ++i) {
      rate_requests.push_back(w_.Next(Phase::kRate));
    }

    // Set-up, kSetups times on fresh stores; the last one serves the run.
    std::vector<double> setup_s;
    std::unique_ptr<server::ProfileStore> store;
    std::unique_ptr<server::Server> srv;
    std::unique_ptr<LoadGen> loadgen;
    const size_t setups = options_.smoke ? 1 : kSetups;
    for (size_t i = 0; i < setups; ++i) {
      loadgen.reset();
      srv.reset();
      store.reset();
      const double start = NowMs();
      CQP_ASSIGN_OR_RETURN(store, w_.OpenStore());
      srv = std::make_unique<server::Server>(&w_.db(), store.get(),
                                             BenchServerOptions());
      CQP_RETURN_IF_ERROR(srv->Start());
      loadgen = std::make_unique<LoadGen>();
      CQP_RETURN_IF_ERROR(loadgen->Connect(srv->port(), kConnections));
      const std::vector<Request> warmup = w_.WarmupRequests();
      size_t next = 0;
      const double deadline = NowMs() + kDrainMs;
      loadgen->RunClosedLoop(
          [&]() -> std::optional<Request> {
            if (next == warmup.size()) return std::nullopt;
            return warmup[next++];
          },
          kCapacityDepth, deadline, deadline,
          [&](const Request& r, const Outcome& o) { Classify(r, o, setup_); });
      setup_s.push_back((NowMs() - start) / 1000.0);
    }

    std::atomic<bool> stop_writer{false};
    std::thread writer;
    if (w_.has_writer()) {
      writer = std::thread([&] { w_.RunWriter(store.get(), stop_writer); });
    }
    // From here this thread outranks the server's threads (which,
    // like the writer, already exist and keep their priority).
    const char* loadgen_sched = RaiseLoadGenPriority();

    // Warm phase: a fixed number of requests, closed loop. A slow start
    // (idle vCPUs waking up) can delay answers but never overflow
    // admission, and the work done before the rate phase — which grows
    // some caches for good — is the same on every run. Checked, not timed.
    const size_t warm_n =
        static_cast<size_t>(w_.rate() * kWarmShare * S / 1000.0);
    size_t warm_sent = 0;
    const double warm_deadline = NowMs() + S + kDrainMs;
    loadgen->RunClosedLoop(
        [&]() -> std::optional<Request> {
          if (warm_sent == warm_n) return std::nullopt;
          ++warm_sent;
          return w_.Next(Phase::kWarm);
        },
        kCapacityDepth, warm_deadline, warm_deadline,
        [&](const Request& r, const Outcome& o) { Classify(r, o, warm_); });

    const JsonValue before_rate = srv->StatsJson();
    const size_t ladder_n =
        options_.trace ? std::min(options_.smoke ? size_t{50}
                                                 : w_.ladder_requests(),
                                  rate_requests.size())
                       : 0;
    std::vector<std::optional<Answer>> served(ladder_n);
    RateSamples rate;
    const double rate_start = NowMs();
    RunOpenLoop(*loadgen, rate_requests, rate_offsets,
                [&](const Request& r, const Outcome& o) {
                  const auto* p = Classify(r, o, measured_);
                  if (p == nullptr) return;
                  const double client_ms = o.done_ms - o.sent_ms;
                  rate.latency_ms.push_back(o.done_ms - o.due_ms);
                  rate.late_ms.push_back(o.sent_ms - o.due_ms);
                  rate.wire_ms.push_back(client_ms - p->server_ms);
                  rate.server_ms.push_back(p->server_ms);
                  rate.search_ms.push_back(p->search_wall_ms);
                  rate.states += static_cast<double>(p->states_examined);
                  rate.plan_hits += p->plan_cache_hit ? 1.0 : 0.0;
                  rate.eval_hits += static_cast<double>(p->eval_cache_hits);
                  rate.eval_misses +=
                      static_cast<double>(p->eval_cache_misses);
                  if (options_.trace) {
                    JsonValue row = JsonValue::Array();
                    for (double v : {static_cast<double>(o.index), o.due_ms,
                                     o.sent_ms, o.done_ms, p->server_ms,
                                     p->search_wall_ms}) {
                      row.Append(JsonValue::Number(v));
                    }
                    rate.rows.Append(std::move(row));
                  }
                  if (o.index < ladder_n) served[o.index] = AnswerOf(*p);
                });
    const double rate_end = NowMs();
    const JsonValue after_rate = srv->StatsJson();
    // Peak memory through the fixed part of the run; the capacity phase
    // serves a number of requests that varies with the machine's speed.
    const double rss_mb = PeakRssMb();

    std::vector<double> capacity_search_ms;
    const double cap_start = NowMs();
    const double cap_until = cap_start + kCapacityShare * S;
    const size_t answered = loadgen->RunClosedLoop(
        [&]() -> std::optional<Request> { return w_.Next(Phase::kCapacity); },
        kCapacityDepth, cap_until, cap_until + kDrainMs,
        [&](const Request& r, const Outcome& o) {
          if (const auto* p = Classify(r, o, measured_)) {
            capacity_search_ms.push_back(p->search_wall_ms);
          }
        });
    const double capacity_qps =
        static_cast<double>(answered) * 1000.0 / (cap_until - cap_start);
    const JsonValue after_capacity = srv->StatsJson();

    RestoreLoadGenPriority();
    stop_writer.store(true, std::memory_order_release);
    if (writer.joinable()) writer.join();
    const uint64_t stray = loadgen->stray_frames();
    loadgen.reset();
    srv.reset();
    store.reset();
    measured_.wrong += w_.FinishChecks();

    // The ladder runs last, on a process whose heap and caches are warm,
    // and its answers must equal the served ones (unless a Put may have
    // changed the served answer's profile).
    std::optional<LadderReport> ladder;
    uint64_t ladder_mismatches = 0;
    if (options_.trace) {
      const std::vector<Request> replayed(rate_requests.begin(),
                                          rate_requests.begin() + ladder_n);
      CQP_ASSIGN_OR_RETURN(ladder, RunTracedLadder(replayed));
      for (size_t i = 0; i < ladder_n; ++i) {
        if (served[i].has_value() && !(*served[i] == ladder->answers[i]) &&
            !w_.WasWritten(rate_requests[i])) {
          ++ladder_mismatches;
        }
      }
    }

    // Writes beside the reads.
    const std::vector<PutRecord> puts = w_.Puts();
    std::vector<double> put_ms;
    uint64_t put_failures = 0;
    for (const PutRecord& put : puts) {
      if (!put.ok) {
        ++put_failures;
        continue;
      }
      if (put.start_ms >= rate_start && put.start_ms < rate_end) {
        put_ms.push_back(put.end_ms - put.start_ms);
      }
    }

    Result result;
    const Tally& m = measured_;
    result.attempted = setup_.attempted + warm_.attempted + m.attempted +
                       puts.size();
    result.failed = setup_.failed + warm_.failed + m.failed + stray +
                    put_failures;
    const uint64_t wrong =
        setup_.wrong + warm_.wrong + m.wrong + ladder_mismatches;
    result.correct = wrong == 0;

    const Summary latency = Summarize(rate.latency_ms);
    const double p90_ms = QuantileSorted(Sorted(rate.latency_ms), 0.9);
    const double late_p99_ms = QuantileSorted(Sorted(rate.late_ms), 0.99);
    const Summary put_latency = Summarize(put_ms);
    const double setup_median = Median(setup_s);

    std::printf("%s seed %llu: %zu set-ups, setup_s median %.4f s\n",
                w_.name().c_str(),
                static_cast<unsigned long long>(options_.seed),
                setup_s.size(), setup_median);
    std::printf("  capacity: %zu answered in %.0f ms -> %.1f req/s\n",
                answered, cap_until - cap_start, capacity_qps);
    std::printf("  rate %.0f req/s: latency %s; sent late by p99 %.4f ms\n",
                w_.rate(), FormatSummary(latency, "ms").c_str(), late_p99_ms);
    if (!puts.empty()) {
      std::printf("  puts: %zu made, %llu failed; rate-phase put "
                  "latency %s\n",
                  puts.size(), static_cast<unsigned long long>(put_failures),
                  FormatSummary(put_latency, "ms").c_str());
    }
    std::printf(
        "  requests: %llu attempted, %llu failed (%llu wrong, %llu shed, "
        "%llu errors, %llu transport, %llu stray frames); peak RSS %.1f MB\n",
        static_cast<unsigned long long>(result.attempted),
        static_cast<unsigned long long>(result.failed),
        static_cast<unsigned long long>(wrong),
        static_cast<unsigned long long>(setup_.shed + warm_.shed + m.shed),
        static_cast<unsigned long long>(setup_.errors + warm_.errors +
                                        m.errors),
        static_cast<unsigned long long>(setup_.transport + warm_.transport +
                                        m.transport),
        static_cast<unsigned long long>(stray), rss_mb);
    if (ladder.has_value()) {
      std::printf("  ladder: %zu requests replayed, %llu differ from served\n",
                  ladder_n, static_cast<unsigned long long>(ladder_mismatches));
    }

    JsonValue& info = result.info;
    auto num = [](double v) { return JsonValue::Number(v); };
    JsonValue setups_json = JsonValue::Array();
    for (double s : setup_s) setups_json.Append(num(s));
    info.Set("setup_s_each", std::move(setups_json));
    info.Set("loadgen_sched", JsonValue::Str(loadgen_sched));
    info.Set("rate_per_s", num(w_.rate()));
    info.Set("rate_n", num(static_cast<double>(latency.n)));
    info.Set("latency_tail_pct", num(latency.tail_pct));
    info.Set("latency_tail_ms", num(latency.tail));
    info.Set("capacity_answered", num(static_cast<double>(answered)));
    info.Set("late_p99_ms", num(late_p99_ms));
    info.Set("puts", num(static_cast<double>(puts.size())));
    info.Set("put_n", num(static_cast<double>(put_latency.n)));
    info.Set("put_p50_ms", num(put_latency.median));
    info.Set("put_tail_pct", num(put_latency.tail_pct));
    info.Set("put_tail_ms", num(put_latency.tail));

    if (!options_.trace) {
      const double measured_attempts = static_cast<double>(m.attempted);
      result.metrics["setup_s"] = setup_median;
      result.metrics["p50_ms"] = latency.median;
      result.metrics["p90_ms"] = p90_ms;
      result.metrics["capacity_qps"] = capacity_qps;
      result.metrics["ok_pct"] =
          measured_attempts > 0.0
              ? 100.0 * (measured_attempts - static_cast<double>(m.failed)) /
                    measured_attempts
              : 0.0;
      result.metrics["rss_mb"] = rss_mb;
      return result;
    }

    // ---- per-layer metrics (traced run) ----
    std::map<std::string, double>& x = result.metrics;
    const double n =
        std::max<double>(1.0, static_cast<double>(rate_requests.size()));
    const double answered_rate =
        std::max<double>(1.0, static_cast<double>(rate.server_ms.size()));
    const double puts_in_rate = static_cast<double>(put_ms.size());
    auto rate_diff = [&](std::initializer_list<const char*> path) {
      return Field(after_rate, path) - Field(before_rate, path);
    };
    auto loop_diff = [&](const char* field) {
      return LoopSum(after_rate, field) - LoopSum(before_rate, field);
    };
    auto per_put = [&](double v) {
      return puts_in_rate > 0.0 ? v / puts_in_rate : 0.0;
    };
    x = ladder->metrics;
    const double handle_ms = Median(rate.server_ms);
    x["server.wire_ms"] = Median(rate.wire_ms);
    x["server.handle_ms"] = handle_ms;
    x["server.queue_ms"] = handle_ms - ladder->engine_p50_ms;
    x["server.bytes_out_per_req"] = loop_diff("write_bytes") / n;
    x["server.wakeups_per_req"] = loop_diff("wakeups") / n;
    x["server.writevs_per_req"] = loop_diff("writevs") / n;
    x["server.reads_per_req"] = loop_diff("reads") / n;
    x["admission.shed"] =
        Field(after_capacity, {"shed"}) - Field(before_rate, {"shed"});
    x["store.page_ins_per_req"] = rate_diff({"shard_tier", "page_ins"}) / n;
    x["store.evictions_per_req"] = rate_diff({"shard_tier", "evictions"}) / n;
    x["store.resident_mb"] =
        Field(after_rate, {"shard_tier", "resident_bytes"}) / (1024.0 * 1024.0);
    x["journal.fsyncs_per_put"] = per_put(rate_diff({"journal", "fsyncs"}));
    x["journal.bytes_per_put"] =
        per_put(rate_diff({"journal", "append_bytes"}));
    x["plan.hit_ratio"] = rate.plan_hits / answered_rate;
    x["plan.evictions_per_req"] = rate_diff({"plan_cache", "evictions"}) / n;
    x["plan.invalidations_per_put"] =
        per_put(rate_diff({"plan_cache", "invalidations"}));
    x["estimation.eval_cache_hit_ratio"] =
        rate.eval_hits + rate.eval_misses > 0.0
            ? rate.eval_hits / (rate.eval_hits + rate.eval_misses)
            : 0.0;
    x["cqp.search_ms"] = Median(rate.search_ms);
    x["cqp.states_per_req"] = rate.states / answered_rate;
    double search_ms_sum = 0.0;
    for (double v : rate.search_ms) search_ms_sum += v;
    x["cqp.states_per_sec"] =
        search_ms_sum > 0.0 ? rate.states * 1000.0 / search_ms_sum : 0.0;
    double capacity_search_sum = 0.0;
    for (double v : capacity_search_ms) capacity_search_sum += v;
    const double workers =
        static_cast<double>(BenchServerOptions().num_threads);
    x["pool.parallel_efficiency"] =
        capacity_search_ms.empty()
            ? 0.0
            : capacity_qps *
                  (capacity_search_sum /
                   static_cast<double>(capacity_search_ms.size())) /
                  (1000.0 * workers);
    x["rewrite.conjuncts_dropped_per_req"] =
        rate_diff({"rewrite", "conjuncts_dropped"}) / n;
    x["rewrite.branches_eliminated_per_req"] =
        (rate_diff({"rewrite", "branches_contradicted"}) +
         rate_diff({"rewrite", "branches_subsumed"})) /
        n;
    x["rewrite.prefs_pruned_per_req"] =
        rate_diff({"rewrite", "prefs_pruned"}) / n;
    x["loadgen.late_p99_ms"] = late_p99_ms;

    JsonValue trace = JsonValue::Object();
    trace.Set("workload", JsonValue::Str(w_.name()));
    trace.Set("seed", num(static_cast<double>(options_.seed)));
    trace.Set("span_fields",
              JsonValue::Str("name,start_us,end_us,parent,request"));
    trace.Set("spans", SpansToJson(ladder->spans));
    trace.Set("request_fields",
              JsonValue::Str(
                  "index,due_ms,sent_ms,done_ms,server_ms,search_ms"));
    trace.Set("requests", std::move(rate.rows));
    JsonValue stats = JsonValue::Object();
    stats.Set("before_rate", before_rate);
    stats.Set("after_rate", after_rate);
    stats.Set("after_capacity", after_capacity);
    trace.Set("stats", std::move(stats));
    const std::string path =
        options_.out_dir + "/trace_" + w_.name() + ".json";
    std::ofstream out(path);
    out << trace.Dump() << "\n";
    std::printf("  trace written to %s\n", path.c_str());
    return result;
  }

 private:
  static std::vector<double> Sorted(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v;
  }

  /// Counts one outcome; returns the payload of a correct answer, nullptr
  /// for a failure of any kind.
  const server::PersonalizeResultPayload* Classify(const Request& request,
                                                   const Outcome& outcome,
                                                   Tally& tally) {
    ++tally.attempted;
    if (!outcome.transport_ok) {
      ++tally.failed;
      ++tally.transport;
      return nullptr;
    }
    if (!outcome.response.ok() || !outcome.response.personalize.has_value()) {
      ++tally.failed;
      if (outcome.response.status.code() ==
          cqp::StatusCode::kResourceExhausted) {
        ++tally.shed;
      } else {
        ++tally.errors;
      }
      return nullptr;
    }
    const server::PersonalizeResultPayload& payload =
        *outcome.response.personalize;
    if (!w_.Check(request, AnswerOf(payload), outcome.sent_ms,
                  outcome.done_ms)) {
      ++tally.failed;
      ++tally.wrong;
      return nullptr;
    }
    return &payload;
  }

  void RunOpenLoop(LoadGen& loadgen, const std::vector<Request>& requests,
                   const std::vector<double>& offsets,
                   const OnOutcome& on_outcome) {
    const double origin = NowMs() + 1.0;
    std::vector<double> due(offsets.size());
    for (size_t i = 0; i < offsets.size(); ++i) due[i] = origin + offsets[i];
    const double last = due.empty() ? origin : due.back();
    loadgen.RunOpenLoop(requests, due, last + kDrainMs, on_outcome);
  }

  /// The ladder replays `requests` on a fresh store given the set-up's
  /// warm-up. Each answer is also checked against the workload's own
  /// reference (as of the writes the reopened store recovered).
  cqp::StatusOr<LadderReport> RunTracedLadder(
      const std::vector<Request>& requests) {
    CQP_ASSIGN_OR_RETURN(std::unique_ptr<server::ProfileStore> store,
                         w_.OpenStore());
    CQP_ASSIGN_OR_RETURN(
        LadderReport report,
        RunLadder(w_.db(), *store, w_.WarmupRequests(), requests));
    for (size_t i = 0; i < requests.size(); ++i) {
      const double now = NowMs();
      if (!w_.Check(requests[i], report.answers[i], now, now)) {
        ++measured_.wrong;
      }
    }
    return report;
  }

  const Options& options_;
  Workload& w_;
  Tally setup_, warm_, measured_;
};

JsonValue MetricsJson(const std::map<std::string, double>& metrics) {
  JsonValue out = JsonValue::Object();
  for (const auto& [name, value] : metrics) {
    JsonValue metric = JsonValue::Object();
    metric.Set("value", JsonValue::Number(value));
    auto unit = Units().find(name);
    metric.Set("unit", JsonValue::Str(unit != Units().end() ? unit->second
                                                        : "?"));
    out.Set(name, std::move(metric));
  }
  return out;
}

JsonValue ResultLine(const Result& result) {
  JsonValue line = JsonValue::Object();
  line.Set("correct", JsonValue::Bool(result.correct));
  line.Set("attempted",
           JsonValue::Number(static_cast<double>(result.attempted)));
  line.Set("failed", JsonValue::Number(static_cast<double>(result.failed)));
  line.Set("metrics", MetricsJson(result.metrics));
  return line;
}

cqp::StatusOr<Result> RunOne(const Options& options) {
  std::unique_ptr<Workload> workload =
      Workload::Create(options.workload, options.seed, options.work_dir);
  if (workload == nullptr) {
    return cqp::InvalidArgument("unknown workload '" + options.workload + "'");
  }
  Run run(options, *workload);
  return run.Execute();
}

void AppendRecord(const Options& options, const Result& result,
                  const JsonValue& fingerprint, double started_unix) {
  JsonValue record = ResultLine(result);
  record.Set("workload", JsonValue::Str(options.workload));
  record.Set("seed", JsonValue::Number(static_cast<double>(options.seed)));
  record.Set("seconds", JsonValue::Number(options.seconds));
  record.Set("trace", JsonValue::Bool(options.trace));
  record.Set("started_unix", JsonValue::Number(started_unix));
  // How the load generator was scheduled is part of the machine setting:
  // results of a SCHED_FIFO generator and a plain one are not comparable.
  JsonValue machine = fingerprint;
  if (const JsonValue* sched = result.info.Find("loadgen_sched")) {
    machine.Set("loadgen_sched", *sched);
  }
  record.Set("fingerprint", std::move(machine));
  record.Set("info", result.info);
  std::ofstream out(options.record, std::ios::app);
  out << record.Dump() << "\n";
}

int Smoke(Options options) {
  options.seconds = 1.0;
  options.trace = true;
  options.smoke = true;
  bool ok = true;
  for (const std::string& name : Workload::Names()) {
    options.workload = name;
    cqp::StatusOr<Result> result = RunOne(options);
    if (!result.ok()) {
      std::printf("smoke %s: %s\n", name.c_str(),
                  result.status().ToString().c_str());
      ok = false;
      continue;
    }
    const bool pass = result->correct && result->failed == 0 &&
                      result->attempted > 0 &&
                      result->metrics.size() + 6 == Units().size();
    std::printf("smoke %s: %s %s\n", name.c_str(), pass ? "PASS" : "FAIL",
                ResultLine(*result).Dump().c_str());
    ok = ok && pass;
  }
  return ok ? 0 : 1;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--work-dir DIR] [--out-dir DIR] "
               "[--record FILE] [--git SHA]\n"
               "       %s --smoke\n"
               "workloads: hot_plans deep_search cold_queries profile_churn\n",
               argv0, argv0);
  return 2;
}

}  // namespace
}  // namespace cqpbench

int main(int argc, char** argv) {
  using namespace cqpbench;  // NOLINT
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && (v = value())) {
      options.workload = v;
    } else if (arg == "--seed" && (v = value())) {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds" && (v = value())) {
      options.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace" && (v = value())) {
      options.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--work-dir" && (v = value())) {
      options.work_dir = v;
    } else if (arg == "--out-dir" && (v = value())) {
      options.out_dir = v;
    } else if (arg == "--record" && (v = value())) {
      options.record = v;
    } else if (arg == "--git" && (v = value())) {
      options.git = v;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!options.smoke &&
      (options.workload.empty() || !(options.seconds > 0.0))) {
    return Usage(argv[0]);
  }

  // The work directory is removed at exit only if this run created it.
  std::error_code ec;
  const bool own_work_dir = !std::filesystem::exists(options.work_dir, ec);
  std::filesystem::create_directories(options.work_dir, ec);
  std::filesystem::create_directories(options.out_dir, ec);
  const double started_unix = static_cast<double>(std::time(nullptr));
  const JsonValue fingerprint = MachineFingerprint(options.git);
  std::printf("cqp_bench fingerprint %s\n", fingerprint.Dump().c_str());

  int code = 0;
  if (options.smoke) {
    code = Smoke(options);
  } else {
    cqp::StatusOr<Result> result = RunOne(options);
    if (!result.ok()) {
      std::fprintf(stderr, "cqp_bench: %s\n",
                   result.status().ToString().c_str());
      code = 1;
    } else {
      if (!options.record.empty()) {
        AppendRecord(options, *result, fingerprint, started_unix);
      }
      std::printf("%s\n", ResultLine(*result).Dump().c_str());
      code = result->correct ? 0 : 1;
    }
  }
  if (own_work_dir) std::filesystem::remove_all(options.work_dir, ec);
  return code;
}
