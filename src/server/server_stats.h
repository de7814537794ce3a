#ifndef CQP_SERVER_SERVER_STATS_H_
#define CQP_SERVER_SERVER_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "server/json.h"

namespace cqp::server {

/// Per-event-loop counters, one instance per epoll shard. All relaxed
/// atomics: loops mutate their own instance almost exclusively, so these
/// are effectively uncontended; the stats op reads a torn-but-usable view.
struct LoopStats {
  std::atomic<uint64_t> accepts{0};       ///< connections accepted
  std::atomic<uint64_t> frames{0};        ///< complete frames decoded
  std::atomic<uint64_t> wakeups{0};       ///< epoll_wait returns
  std::atomic<uint64_t> tasks{0};         ///< posted tasks run (eventfd)
  std::atomic<uint64_t> reads{0};         ///< read() calls returning data
  std::atomic<uint64_t> read_bytes{0};
  std::atomic<uint64_t> writevs{0};       ///< batched sendmsg calls
  std::atomic<uint64_t> write_bytes{0};
  std::atomic<uint64_t> read_pauses{0};   ///< backpressure: reads paused
  std::atomic<uint64_t> backpressure_closes{0};  ///< slow readers dropped
  std::atomic<uint64_t> frame_cap_closes{0};     ///< oversized-frame closes
  std::atomic<int64_t> connections{0};    ///< live-connection gauge
};

/// Lock-free latency histogram: power-of-two buckets over microseconds.
/// Bucket i counts samples in [2^i, 2^(i+1)) µs (bucket 0 additionally
/// absorbs sub-µs samples); the top bucket absorbs everything ≥ ~1.2 h.
/// Percentiles are estimated at bucket upper bounds — within 2× of the
/// true value, which is the resolution an ops dashboard needs.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 32;

  void Record(double millis);

  uint64_t TotalCount() const;

  /// Estimated p-quantile (p in [0,1]) in milliseconds; 0 when empty.
  double PercentileMillis(double p) const;

  /// {"count": n, "p50_ms": …, "p90_ms": …, "p99_ms": …,
  ///  "buckets": [{"le_us": 2^i+1, "count": …}, …]} — zero buckets omitted.
  JsonValue ToJson() const;

  void Reset();

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
};

/// Whole-server counters, updated per request. Everything is an atomic and
/// every mutation is a single relaxed RMW, so recording never serializes
/// worker threads; Snapshot/ToJson read a (possibly slightly torn across
/// counters, individually consistent) view, which is fine for monitoring.
class ServerStats {
 public:
  void OnConnectionOpened();
  void OnConnectionClosed();
  void OnProtocolError();

  void OnAdmitted();
  void OnShed();
  void OnDegradedAdmission();

  /// One finished personalize request.
  void OnRequestDone(bool ok, bool degraded_answer, double latency_ms,
                     uint64_t cache_hits, uint64_t cache_misses,
                     uint64_t states_examined);

  /// One plan-cache lookup outcome (a request whose Prepare() was served
  /// from — or had to populate — the shared PreparedSpace cache).
  void OnPlanLookup(bool hit);

  /// Semantic-rewrite work done by one successful request (docs/
  /// rewriting.md): conjuncts dropped as constraint-redundant, union
  /// branches merged away as subsumed, and preference-space candidates
  /// pruned before the search.
  void OnRewrite(uint64_t conjuncts_dropped, uint64_t branches_subsumed,
                 uint64_t prefs_pruned);

  uint64_t requests_total() const {
    return requests_total_.load(std::memory_order_relaxed);
  }
  uint64_t shed_total() const {
    return shed_total_.load(std::memory_order_relaxed);
  }
  uint64_t errors_total() const {
    return errors_total_.load(std::memory_order_relaxed);
  }
  uint64_t degraded_total() const {
    return degraded_answers_total_.load(std::memory_order_relaxed);
  }
  uint64_t connections_opened() const {
    return connections_opened_.load(std::memory_order_relaxed);
  }

  const LatencyHistogram& latency() const { return latency_; }

  /// Allocates one LoopStats per event loop. Call before the loops spawn
  /// (not thread-safe against concurrent readers); idempotent per Start.
  void ConfigureLoops(size_t n);
  size_t num_loops() const { return loops_.size(); }
  LoopStats& loop(size_t i) { return *loops_[i]; }

  /// Full JSON snapshot (the `.stats` wire command and the periodic log
  /// line both emit exactly this object — benches scrape it).
  JsonValue ToJson() const;

 private:
  LatencyHistogram latency_;
  std::atomic<uint64_t> connections_opened_{0};
  std::atomic<uint64_t> connections_closed_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> admitted_total_{0};
  std::atomic<uint64_t> shed_total_{0};
  std::atomic<uint64_t> degraded_admissions_{0};
  std::atomic<uint64_t> requests_total_{0};
  std::atomic<uint64_t> errors_total_{0};
  std::atomic<uint64_t> degraded_answers_total_{0};
  std::atomic<uint64_t> cache_hits_total_{0};
  std::atomic<uint64_t> cache_misses_total_{0};
  std::atomic<uint64_t> plan_hits_total_{0};
  std::atomic<uint64_t> plan_misses_total_{0};
  std::atomic<uint64_t> states_total_{0};
  std::atomic<uint64_t> conjuncts_dropped_total_{0};
  std::atomic<uint64_t> branches_subsumed_total_{0};
  std::atomic<uint64_t> prefs_pruned_total_{0};
  /// unique_ptr: LoopStats holds atomics and cannot be moved on resize.
  std::vector<std::unique_ptr<LoopStats>> loops_;
};

}  // namespace cqp::server

#endif  // CQP_SERVER_SERVER_STATS_H_
