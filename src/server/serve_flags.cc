#include "server/serve_flags.h"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

namespace cqp::server {

namespace {

/// `value` as a T when it is a finite whole number in [lo, hi]; false
/// otherwise. The range test happens in double before the cast, so an
/// out-of-range value never reaches the (undefined) conversion.
template <typename T>
bool WholeInRange(double value, T lo, T hi, T* out) {
  if (!std::isfinite(value) || value != std::trunc(value)) return false;
  // 2^digits is the first value past T's maximum, and unlike that maximum
  // a double holds it exactly.
  const double past_max = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (value < static_cast<double>(lo) || value >= past_max) return false;
  const T whole = static_cast<T>(value);
  if (whole > hi) return false;
  *out = whole;
  return true;
}

template <typename T>
bool Whole(double value, T* out) {
  return WholeInRange(value, std::numeric_limits<T>::min(),
                      std::numeric_limits<T>::max(), out);
}

/// An MB amount the caller turns into a uint64 byte count.
bool Megabytes(double value, double* out) {
  if (!std::isfinite(value) || value < 0.0 ||
      value * 1024.0 * 1024.0 >= std::ldexp(1.0, 64)) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

bool ParseServeFlags(int argc, char** argv, ServeFlags* flags) {
  // cqp_serve sets the write-queue hard cap to 16 watermarks.
  constexpr size_t kMaxWriteQueueKb =
      std::numeric_limits<size_t>::max() / (1024 * 16);
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](double* out) {
      if (i + 1 >= argc) return false;
      char* end = nullptr;
      *out = std::strtod(argv[++i], &end);
      return end != argv[i] && *end == '\0';
    };
    double value = 0.0;
    if (arg == "--tourist") {
      flags->tourist = true;
    } else if (arg == "--profiles" && i + 1 < argc) {
      flags->profiles_dir = argv[++i];
    } else if (arg == "--algorithm" && i + 1 < argc) {
      flags->algorithm = argv[++i];
    } else if (arg == "--data-dir" && i + 1 < argc) {
      flags->data_dir = argv[++i];
    } else if (!next(&value)) {
      return false;
    } else if (arg == "--port") {
      if (!WholeInRange(value, 0, 65535, &flags->port)) return false;
    } else if (arg == "--movies") {
      if (!Whole(value, &flags->movies)) return false;
    } else if (arg == "--threads") {
      if (!Whole(value, &flags->threads)) return false;
    } else if (arg == "--io-threads") {
      if (!Whole(value, &flags->io_threads)) return false;
    } else if (arg == "--write-queue-kb") {
      if (!WholeInRange<size_t>(value, 0, kMaxWriteQueueKb,
                                &flags->write_queue_kb)) {
        return false;
      }
    } else if (arg == "--max-pending") {
      if (!Whole(value, &flags->max_pending)) return false;
    } else if (arg == "--soft-pending") {
      if (!Whole(value, &flags->soft_pending)) return false;
    } else if (arg == "--shards") {
      if (!Whole(value, &flags->shards)) return false;
    } else if (arg == "--degraded-deadline-ms") {
      flags->degraded_deadline_ms = value;
    } else if (arg == "--stats-interval") {
      flags->stats_interval_s = value;
    } else if (arg == "--cmax") {
      flags->cmax_ms = value;
    } else if (arg == "--k") {
      // Server::Start rejects a K outside [1, 63]; a value the cast cannot
      // represent (negative, huge, NaN) becomes 0 so that check reports it.
      flags->max_k = value >= 0 && value < 1e9 ? static_cast<size_t>(value) : 0;
    } else if (arg == "--compact-mb") {
      if (!Megabytes(value, &flags->compact_mb)) return false;
    } else if (arg == "--drain-deadline-ms") {
      flags->drain_deadline_ms = value;
    } else if (arg == "--resident-mb") {
      if (!Megabytes(value, &flags->resident_mb)) return false;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace cqp::server
