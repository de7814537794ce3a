#ifndef CQP_SERVER_SERVE_FLAGS_H_
#define CQP_SERVER_SERVE_FLAGS_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace cqp::server {

/// The command line of tools/cqp_serve (docs/server.md).
struct ServeFlags {
  int port = 7433;
  int64_t movies = 5000;
  bool tourist = false;
  std::string profiles_dir;
  size_t threads = 0;
  size_t io_threads = 0;      ///< epoll event loops; 0 = auto
  size_t write_queue_kb = 0;  ///< 0 = server default watermark
  size_t max_pending = 256;
  size_t soft_pending = 0;
  double degraded_deadline_ms = 25.0;
  double stats_interval_s = 0.0;
  double cmax_ms = 400.0;
  size_t max_k = 20;
  std::string algorithm = "auto";
  std::string data_dir;  ///< durable mode when non-empty
  double compact_mb = 4.0;
  double drain_deadline_ms = 1000.0;
  size_t shards = 0;  ///< 0 = the MANIFEST's count, or 16 when fresh
  double resident_mb = 256.0;  ///< total resident-graph budget (durable)
};

/// Parses argv[1..argc) into `flags`. False on an unknown flag, a missing
/// or non-numeric value, an integer flag that is not a finite whole number
/// in its field's range (--port at most 65535; --write-queue-kb small
/// enough that its byte limits fit a size_t), or an MB flag that is
/// negative, non-finite or too large for a uint64 byte count. The caller
/// prints the usage message and exits 2.
bool ParseServeFlags(int argc, char** argv, ServeFlags* flags);

}  // namespace cqp::server

#endif  // CQP_SERVER_SERVE_FLAGS_H_
