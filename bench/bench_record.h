#ifndef CQP_BENCH_BENCH_RECORD_H_
#define CQP_BENCH_BENCH_RECORD_H_

#include <string>

#include "cqpbench/stats.h"
#include "server/json.h"

namespace cqp::bench {

/// cqpbench::MachineFingerprint, its `git` field read from the source
/// checkout this binary was built from: the HEAD sha plus "+dirty" when a
/// tracked file differs ("none" outside a git checkout), as
/// cqpbench/run.py reads it. Computed once per process.
const server::JsonValue& Fingerprint();

/// Sets `<prefix>p50_ms`, `<prefix>tail_ms`, `<prefix>tail_pct` and
/// `<prefix>n` on `cell` from the cqpbench::Summarize of a sample of
/// latencies in ms: its median and the highest percentile with at least
/// ten samples beyond it.
void SetLatency(server::JsonValue& cell, const std::string& prefix,
                const cqpbench::Summary& ms);

/// Adds the fingerprint to `record`, prints it and writes it to `path`.
/// False when `path` cannot be written.
bool WriteRecord(server::JsonValue record, const std::string& path);

}  // namespace cqp::bench

#endif  // CQP_BENCH_BENCH_RECORD_H_
