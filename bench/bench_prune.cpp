// Static-pruning payoff: full vs pruned campaign over a collections subject
// and an xml subject (fatomic::Config::prune_atomic fed from the static
// effect analysis).  For each workload the bench reports how many injector
// runs the prune set eliminates and verifies on the fly that the pruned
// campaign classifies identically to the full one — the empirical guard on
// the pruning soundness argument (DESIGN.md §7).
//
// The "pre-P4" column is what the pre-Pass-4 analysis (Pass 1 without
// context sensitivity, DESIGN.md §12) saved on the same workload, frozen
// when that analysis was retired: the engine must never save less.
//
// Exit is non-zero when a classification diverges, when a workload saves
// less than 20% of its injector runs, or when it saves fewer runs than the
// pre-Pass-4 analysis did.
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fatomic/analyze/static_report.hpp"
#include "subjects/apps/apps.hpp"

namespace analyze = fatomic::analyze;

#ifndef FATOMIC_SOURCE_DIR
#error "FATOMIC_SOURCE_DIR must point at the repository's src/ tree"
#endif

int main() {
  const std::string root = std::string(FATOMIC_SOURCE_DIR) + "/subjects";
  const analyze::StaticReport report = analyze::analyze_sources(root);
  const auto prune = report.prune_set();
  std::printf("static analysis: %zu of %zu methods proven, prune set %zu\n\n",
              report.proven_count(), report.method_count(), prune.size());
  std::printf("%-18s %10s %10s %10s %8s %6s\n", "workload", "full runs",
              "saved", "pre-P4", "saved%", "same");

  struct Workload {
    std::string name;
    std::function<void()> program;
    double min_saved_pct;  ///< acceptance floor for this workload
    std::uint64_t pre_pass4_saved;  ///< runs the pre-Pass-4 analysis saved
  };
  const std::vector<Workload> workloads = {
      {"collections", subjects::apps::run_linked_list_fixed, 20.0, 57},
      {"xml", subjects::apps::run_xml2xml1, 20.0, 201},
  };

  bool ok = true;
  bench_common::JsonArray rows;
  for (const auto& w : workloads) {
    const analyze::CrossCheck cc = analyze::cross_check(w.program, prune);
    const double total = static_cast<double>(cc.full.runs.size());
    const double saved_pct =
        total == 0 ? 0 : 100.0 * static_cast<double>(cc.runs_saved) / total;
    std::printf("%-18s %10zu %10llu %10llu %7.1f%% %6s\n", w.name.c_str(),
                cc.full.runs.size(),
                static_cast<unsigned long long>(cc.runs_saved),
                static_cast<unsigned long long>(w.pre_pass4_saved), saved_pct,
                cc.identical ? "yes" : "NO");
    if (!cc.identical) {
      std::printf("  DIVERGED at %s\n", cc.mismatch.c_str());
      ok = false;
    }
    if (saved_pct < w.min_saved_pct) {
      std::printf("  below the %.0f%% saving floor\n", w.min_saved_pct);
      ok = false;
    }
    if (cc.runs_saved < w.pre_pass4_saved) {
      std::printf("  saves fewer runs than the pre-Pass-4 analysis\n");
      ok = false;
    }
    rows.add_raw(bench_common::JsonObject{}
                     .put("workload", w.name)
                     .put("full_runs", cc.full.runs.size())
                     .put("runs_saved", cc.runs_saved)
                     .put("saved_pct", saved_pct)
                     .put("identical", cc.identical)
                     .dump());
  }
  bench_common::write_bench_json(
      "prune", bench_common::JsonObject{}
                   .put("methods_proven", report.proven_count())
                   .put("methods_total", report.method_count())
                   .put("partial_plans", report.write_sets.partial_count())
                   .put("prune_set", prune.size())
                   .put_raw("workloads", rows.dump())
                   .put("ok", ok)
                   .dump());
  return ok ? 0 : 1;
}
