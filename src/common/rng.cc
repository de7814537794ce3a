#include "common/rng.h"

#include <cmath>

#include "common/logging.h"

namespace cqp {

uint64_t Rng::Next() {
  // splitmix64 (Steele, Lea, Flood 2014). Full-period, passes BigCrush when
  // used as a stream, and trivially portable.
  state_ += 0x9e3779b97f4a7c15ull;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int64_t Rng::Uniform(int64_t lo, int64_t hi) {
  CQP_CHECK_LE(lo, hi);
  uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<int64_t>(Next());  // full 64-bit range
  // Rejection sampling to remove modulo bias.
  uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t v = Next();
  while (v >= limit) v = Next();
  return lo + static_cast<int64_t>(v % range);
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

int64_t Rng::Zipf(int64_t n, double s) {
  CQP_CHECK_GT(n, 0);
  if (s <= 0.0) return Uniform(0, n - 1);
  // Inverse-CDF on the harmonic partial sums, computed by bisection over the
  // analytic approximation H(k) ~ (k^(1-s) - 1) / (1-s) (s != 1) or ln k.
  auto h = [s](double k) {
    if (std::abs(s - 1.0) < 1e-9) return std::log(k);
    return (std::pow(k, 1.0 - s) - 1.0) / (1.0 - s);
  };
  double total = h(static_cast<double>(n) + 0.5);
  double u = NextDouble() * total;
  double lo = 0.5, hi = static_cast<double>(n) + 0.5;
  for (int iter = 0; iter < 64 && hi - lo > 1e-9; ++iter) {
    double mid = (lo + hi) / 2.0;
    if (h(mid) < u) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  int64_t rank = static_cast<int64_t>(std::llround(lo));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  return rank - 1;
}

double Rng::Gaussian() {
  double u1 = NextDouble();
  double u2 = NextDouble();
  while (u1 <= 1e-12) u1 = NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

}  // namespace cqp
