#include "fingerprint.h"

#include <sys/utsname.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <vector>

#include "estimation/batch_evaluator.h"

namespace cqpbench {

namespace server = cqp::server;

namespace {

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string Kernel() {
  utsname name{};
  if (::uname(&name) != 0) return "unknown";
  return std::string(name.sysname) + " " + name.release;
}

/// The kernel BatchEvaluator picks at construction (CPUID dispatch, or the
/// CQP_FORCE_SCALAR_EVAL override).
std::string SimdPath() {
  cqp::estimation::QueryBaseEstimate base;
  std::vector<cqp::estimation::ScoredPreference> prefs;
  cqp::estimation::BatchEvaluator evaluator(base, prefs);
  return evaluator.kernel_name();
}

}  // namespace

server::JsonValue MachineFingerprint(const std::string& git) {
  server::JsonValue out = server::JsonValue::Object();
  out.Set("nproc", server::JsonValue::Number(
                       static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN))));
  out.Set("cpu_model", server::JsonValue::Str(CpuModel()));
  out.Set("kernel", server::JsonValue::Str(Kernel()));
#if defined(__clang__)
  out.Set("compiler", server::JsonValue::Str("clang " __clang_version__));
#elif defined(__GNUC__)
  out.Set("compiler", server::JsonValue::Str("gcc " __VERSION__));
#else
  out.Set("compiler", server::JsonValue::Str("unknown"));
#endif
  out.Set("build_type", server::JsonValue::Str(CQP_BENCH_BUILD_TYPE));
  out.Set("failpoints", server::JsonValue::Bool(CQP_ENABLE_FAILPOINTS != 0));
  out.Set("simd", server::JsonValue::Str(SimdPath()));
  out.Set("git", server::JsonValue::Str(git));
  return out;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace cqpbench
