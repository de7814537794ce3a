// Reproduces Figure 12 of the paper: execution times of the CQP algorithms.
//
//   (a) optimization time vs K (cmax = 400 ms, the paper's default);
//   (b) preference-selection time vs K (D_PrefSelTime / C_PrefSelTime);
//   (c) optimization time vs cmax as % of Supreme Cost (K = 20);
//   (d) zoom of (c) on the fast algorithms (same data, separate table).
//
// Cells marked '*' hit the per-cell time budget and average fewer runs.

#include <cstdio>

#include "bench_record.h"
#include "bench_util.h"

namespace {

using namespace cqp::bench;  // NOLINT

constexpr double kCellBudgetSeconds = 10.0;

int Run() {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::printf("Figure 12 — execution times (mean over profile x query runs)\n");
  std::printf("fingerprint %s\n", Fingerprint().Dump().c_str());
  auto ctx_or = cqp::workload::ExperimentContext::Create(DefaultConfig());
  if (!ctx_or.ok()) {
    std::fprintf(stderr, "%s\n", ctx_or.status().ToString().c_str());
    return 1;
  }
  auto ctx = *std::move(ctx_or);

  // ---- (a) + (b): K sweep at cmax = 400 ms ----
  std::printf("\n(a) CQP optimization time [ms] vs K (cmax = 400 ms)\n");
  std::printf("%4s", "K");
  for (const auto& name : PaperAlgorithms()) std::printf(" %13s", name.c_str());
  std::printf("\n");

  std::vector<std::pair<int, std::vector<cqp::workload::Instance>>> per_k;
  for (int k : {10, 20, 30, 40}) {
    auto instances_or = cqp::workload::BuildInstances(ctx, static_cast<size_t>(k));
    if (!instances_or.ok()) {
      std::fprintf(stderr, "K=%d: %s\n", k,
                   instances_or.status().ToString().c_str());
      continue;
    }
    per_k.emplace_back(k, *std::move(instances_or));
  }

  std::vector<std::map<std::string, Cell>> k_cells;
  for (auto& [k, instances] : per_k) {
    auto problems = FixedCmaxProblems(instances, 400.0);
    std::vector<double> no_ref(instances.size(), -1.0);
    std::printf("%4d", k);
    std::map<std::string, Cell> row;
    for (const auto& name : PaperAlgorithms()) {
      Cell cell = RunCell(name, instances, problems, no_ref,
                          kCellBudgetSeconds);
      std::printf(" %s", FormatCell(cell.mean_wall_ms, cell).c_str());
      row[name] = cell;
    }
    k_cells.push_back(std::move(row));
    std::printf("\n");
  }

  // Wall time flattens once a run hits the per-run state cap, so the raw
  // driver of Fig. 12(a) — states examined — is printed alongside.
  std::printf("\n(a') mean states examined vs K (same runs as (a))\n");
  std::printf("%4s", "K");
  for (const auto& name : PaperAlgorithms()) std::printf(" %13s", name.c_str());
  std::printf("\n");
  for (size_t i = 0; i < per_k.size(); ++i) {
    std::printf("%4d", per_k[i].first);
    for (const auto& name : PaperAlgorithms()) {
      const Cell& cell = k_cells[i].at(name);
      std::printf(" %s", FormatCell(cell.mean_states, cell).c_str());
    }
    std::printf("\n");
  }

  std::printf("\n(b) Preference-selection time [ms] vs K\n");
  std::printf("%4s %14s %14s\n", "K", "D_PrefSelTime", "C_PrefSelTime");
  for (auto& [k, instances] : per_k) {
    double d_ms = 0, c_ms = 0;
    for (const auto& inst : instances) {
      d_ms += inst.d_prefsel_ms;
      c_ms += inst.c_prefsel_ms;
    }
    double n = static_cast<double>(instances.size());
    std::printf("%4d %14.4f %14.4f\n", k, d_ms / n, c_ms / n);
  }

  // ---- (c) + (d): cmax sweep at K = 20 ----
  const std::vector<cqp::workload::Instance>* k20 = nullptr;
  for (auto& [k, instances] : per_k) {
    if (k == 20) k20 = &instances;
  }
  if (k20 == nullptr) {
    std::fprintf(stderr, "no K=20 instances\n");
    return 1;
  }

  std::printf("\n(c) CQP optimization time [ms] vs cmax (%% of Supreme Cost, K=20)\n");
  std::printf("%5s", "%sup");
  for (const auto& name : PaperAlgorithms()) std::printf(" %13s", name.c_str());
  std::printf("\n");
  std::vector<std::map<std::string, Cell>> fraction_cells;
  for (int pct = 10; pct <= 100; pct += 10) {
    auto problems = FractionProblems(*k20, pct / 100.0);
    std::vector<double> no_ref(k20->size(), -1.0);
    std::printf("%5d", pct);
    std::map<std::string, Cell> row;
    for (const auto& name : PaperAlgorithms()) {
      Cell cell = RunCell(name, *k20, problems, no_ref, kCellBudgetSeconds);
      row[name] = cell;
      std::printf(" %s", FormatCell(cell.mean_wall_ms, cell).c_str());
    }
    fraction_cells.push_back(std::move(row));
    std::printf("\n");
  }

  std::printf("\n(d) zoom: fast algorithms only [ms]\n");
  std::printf("%5s %13s %13s %13s\n", "%sup", "C-Boundaries", "C-MaxBounds",
              "D-HeurDoi");
  int pct = 10;
  for (const auto& row : fraction_cells) {
    std::printf("%5d %s %s %s\n", pct,
                FormatCell(row.at("C-Boundaries").mean_wall_ms,
                           row.at("C-Boundaries"))
                    .c_str(),
                FormatCell(row.at("C-MaxBounds").mean_wall_ms,
                           row.at("C-MaxBounds"))
                    .c_str(),
                FormatCell(row.at("D-HeurDoi").mean_wall_ms,
                           row.at("D-HeurDoi"))
                    .c_str());
    pct += 10;
  }
  return 0;
}

}  // namespace

int main() { return Run(); }
