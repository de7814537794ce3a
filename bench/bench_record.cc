#include "bench_record.h"

#include <cstdio>
#include <optional>

#include "cqpbench/fingerprint.h"

namespace cqp::bench {

namespace {

/// Trimmed stdout of `command`; nullopt when it cannot run or exits
/// non-zero.
std::optional<std::string> CommandOutput(const std::string& command) {
  std::FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return std::nullopt;
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  if (::pclose(pipe) != 0) return std::nullopt;
  while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

std::string GitState() {
  const std::string git = "git -C '" CQP_SOURCE_DIR "' ";
  std::optional<std::string> sha =
      CommandOutput(git + "rev-parse HEAD 2>/dev/null");
  if (!sha.has_value()) return "none";
  std::optional<std::string> dirty = CommandOutput(
      git + "status --porcelain --untracked-files=no 2>/dev/null");
  return *sha + (dirty.has_value() && !dirty->empty() ? "+dirty" : "");
}

}  // namespace

const server::JsonValue& Fingerprint() {
  static const server::JsonValue& fingerprint =
      *new server::JsonValue(cqpbench::MachineFingerprint(GitState()));
  return fingerprint;
}

void SetLatency(server::JsonValue& cell, const std::string& prefix,
                const cqpbench::Summary& ms) {
  using server::JsonValue;
  cell.Set(prefix + "p50_ms", JsonValue::Number(ms.median));
  cell.Set(prefix + "tail_ms", JsonValue::Number(ms.tail));
  cell.Set(prefix + "tail_pct", JsonValue::Number(ms.tail_pct));
  cell.Set(prefix + "n", JsonValue::Number(static_cast<double>(ms.n)));
}

bool WriteRecord(server::JsonValue record, const std::string& path) {
  record.Set("fingerprint", Fingerprint());
  const std::string json = record.Dump() + "\n";
  std::fputs(json.c_str(), stdout);
  std::FILE* f = std::fopen(path.c_str(), "w");
  const bool written = f != nullptr && std::fputs(json.c_str(), f) >= 0;
  if (f == nullptr || std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace cqp::bench
