#ifndef CQPBENCH_FINGERPRINT_H_
#define CQPBENCH_FINGERPRINT_H_

#include <string>

#include "server/json.h"

namespace cqpbench {

/// The machine and build a result was measured on: nproc, CPU model,
/// kernel, compiler, build type, failpoints, the SIMD kernel the batch
/// evaluator dispatches to, and `git` (sha plus a dirty flag, as the
/// caller found it). compare.py refuses to compare results whose machine
/// fields differ.
cqp::server::JsonValue MachineFingerprint(const std::string& git);

/// Peak resident set (VmHWM) of this process in MB; 0 when unreadable.
double PeakRssMb();

}  // namespace cqpbench

#endif  // CQPBENCH_FINGERPRINT_H_
