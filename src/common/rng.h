#ifndef CQP_COMMON_RNG_H_
#define CQP_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace cqp {

/// Deterministic pseudo-random generator (splitmix64 core).
///
/// Every experiment in the repository is seeded, so figures and tests are
/// reproducible bit-for-bit across runs and platforms; std::mt19937 with
/// std::*_distribution is avoided because distribution output is not
/// specified portably.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed + 0x9e3779b97f4a7c15ull) {}

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  int64_t Uniform(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Zipf-distributed rank in [0, n-1]; skew `s` >= 0 (0 = uniform).
  /// Uses rejection-inversion-free CDF table-less approximation suitable for
  /// the modest n used by the generators.
  int64_t Zipf(int64_t n, double s);

  /// Gaussian via Box-Muller, mean 0 stddev 1.
  double Gaussian();

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(Uniform(0, static_cast<int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  uint64_t state_;
};

}  // namespace cqp

#endif  // CQP_COMMON_RNG_H_
