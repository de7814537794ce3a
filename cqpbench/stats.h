#ifndef CQPBENCH_STATS_H_
#define CQPBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

namespace cqpbench {

/// The p-quantile (p in [0, 1]) of an ascending sample, interpolated
/// between the two closest ranks at position p·(n+1) — the default
/// ("exclusive") rule of Python's statistics.quantiles, so for n ≥ 3 the
/// quartiles printed here match the ones compare.py computes. Positions
/// outside [1, n] clamp to the extremes (Python extrapolates there). 0 for
/// an empty sample.
inline double QuantileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  double h = p * (n + 1.0);
  if (h <= 1.0) return sorted.front();
  if (h >= n) return sorted.back();
  const size_t lo = static_cast<size_t>(std::floor(h)) - 1;
  const double frac = h - std::floor(h);
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

/// Summary of one timing sample: median, quartiles, and the highest of
/// p50/p90/p99/p99.9 that still has at least ten samples beyond it. A
/// "p99" of 16 samples is their maximum, not a percentile, so it is never
/// reported; `tail_pct` says which percentile `tail` is.
struct Summary {
  size_t n = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double tail_pct = 0.0;  ///< 50, 90, 99 or 99.9; 0 when n == 0
  double tail = 0.0;
};

/// Minimum number of samples a reported tail percentile must leave beyond
/// itself.
inline constexpr size_t kTailSamplesBeyond = 10;

/// The highest of p50/p90/p99/p99.9 with ≥ kTailSamplesBeyond samples
/// beyond it among `n`; p50 when even the median has fewer (tiny samples).
inline double TailPercentile(size_t n) {
  // In permille, so the count beyond is exact integer arithmetic.
  for (size_t permille : {999, 990, 900}) {
    if (n * (1000 - permille) >= kTailSamplesBeyond * 1000) {
      return static_cast<double>(permille) / 10.0;
    }
  }
  return n == 0 ? 0.0 : 50.0;
}

inline Summary Summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.median = QuantileSorted(values, 0.5);
  s.q1 = QuantileSorted(values, 0.25);
  s.q3 = QuantileSorted(values, 0.75);
  s.tail_pct = TailPercentile(values.size());
  s.tail = QuantileSorted(values, s.tail_pct / 100.0);
  return s;
}

inline double Median(std::vector<double> values) {
  return Summarize(std::move(values)).median;
}

/// "p50 0.812 ms p90 1.204 ms (n=3600)"-style rendering, the sample count
/// always beside the percentile it supports.
inline std::string FormatSummary(const Summary& s, const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "p50 %.4g %s, p%g %.4g %s (n=%zu)", s.median,
                unit, s.tail_pct, s.tail, unit, s.n);
  return buf;
}

}  // namespace cqpbench

#endif  // CQPBENCH_STATS_H_
