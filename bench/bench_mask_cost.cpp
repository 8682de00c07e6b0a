// Checkpoint cost of the corrected program P_C: full deep-copy checkpoints
// vs the field-granular plans derived by the interprocedural write-set
// analysis (DESIGN.md §8).  One subject per family; for each the bench
//
//   1. classifies the app and builds the paper's wrap-pure mask,
//   2. times repeated Mask-mode passes with full checkpoints and again with
//      the write-set plans installed, reporting wall time and the
//      checkpoint-unit counters (snapshot nodes vs captured leaves) — once
//      for the minimal wrap-pure mask and once for a conservative mask that
//      wraps every instrumented method (the deployment mode when no
//      classification campaign has run; here the analysis' empty-capture
//      plans for read-only methods dominate the saving),
//   3. verifies equivalence: the plan-driven mask must classify identically
//      to the full-checkpoint mask under re-injection (zero non-atomic
//      methods) with the shadow completeness validator reporting zero
//      divergences.
//
// Exit is non-zero when verification fails anywhere or when the collections
// or xml family saves less than the checkpoint-unit floor under its better
// mask configuration.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fatomic/analyze/static_report.hpp"
#include "fatomic/mask/masker.hpp"
#include "fatomic/report/json.hpp"

namespace analyze = fatomic::analyze;
namespace detect = fatomic::detect;
namespace mask = fatomic::mask;
namespace weave = fatomic::weave;

#ifndef FATOMIC_SOURCE_DIR
#error "FATOMIC_SOURCE_DIR must point at the repository's src/ tree"
#endif

namespace {

using Clock = std::chrono::steady_clock;
constexpr int kReps = 50;

struct Cost {
  double ms = 0;                      ///< per program pass
  std::uint64_t full_snapshots = 0;   ///< full deep copies taken
  std::uint64_t partial_snapshots = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t units = 0;  ///< snapshot nodes + partial leaves captured
};

/// Runs the masked program kReps times under Mask mode with the given plan
/// map (null = full checkpoints) and reports per-pass averages.
Cost masked_cost(const subjects::apps::App& app,
                 const weave::Runtime::WrapPredicate& wrap,
                 std::shared_ptr<const weave::PlanMap> plans) {
  auto& rt = weave::Runtime::instance();
  mask::MaskedScope scope(wrap, std::move(plans));
  rt.stats = {};
  const auto t0 = Clock::now();
  for (int i = 0; i < kReps; ++i) app.program();
  const auto t1 = Clock::now();
  Cost c;
  c.ms = std::chrono::duration<double, std::milli>(t1 - t0).count() / kReps;
  c.full_snapshots = rt.stats.snapshots_taken / kReps;
  c.partial_snapshots = rt.stats.partial_checkpoints / kReps;
  c.fallbacks = rt.stats.partial_fallbacks / kReps;
  c.units = rt.stats.checkpoint_units / kReps;
  return c;
}

}  // namespace

int main() {
  const analyze::StaticReport sreport =
      analyze::analyze_sources(std::string(FATOMIC_SOURCE_DIR) + "/subjects");
  const auto plans = mask::make_plans(sreport);
  std::printf("write-set analysis: %zu of %zu methods with partial plans\n\n",
              sreport.write_sets.partial_count(),
              sreport.write_sets.methods.size());

  struct Family {
    std::string family;
    std::string app;
    double min_saved_pct;  ///< checkpoint-unit saving floor (acceptance)
  };
  const std::vector<Family> families = {
      {"collections", "LinkedList", 10.0},
      {"xml", "xml2xml1", 10.0},
      {"selfstar", "adaptorChain", 0.0},
      {"regexp", "RegExp", 0.0},
  };

  std::printf("%-14s %-14s | %8s %8s %7s | %8s %8s %7s | %5s\n", "family",
              "app", "pure:ful", "pure:pln", "saved%", "all:full", "all:plan",
              "saved%", "ok");

  // Conservative deployment mask: wrap every instrumented method (no
  // classification campaign needed).  Here the analysis' empty-capture plans
  // for read-only methods carry the saving.
  const weave::Runtime::WrapPredicate wrap_any =
      [](const weave::MethodInfo&) { return true; };

  auto saved_pct = [](const Cost& full, const Cost& plan) {
    return full.units == 0
               ? 0.0
               : 100.0 * (1.0 - static_cast<double>(plan.units) /
                                    static_cast<double>(full.units));
  };

  bool ok = true;
  bench_common::JsonArray rows;
  for (const Family& f : families) {
    const auto& app = subjects::apps::app(f.app);
    detect::Experiment exp(app.program);
    auto cls = detect::classify(exp.run());
    auto wrap = mask::wrap_pure(cls);

    const Cost pure_full = masked_cost(app, wrap, nullptr);
    const Cost pure_plan = masked_cost(app, wrap, plans);
    const Cost all_full = masked_cost(app, wrap_any, nullptr);
    const Cost all_plan = masked_cost(app, wrap_any, plans);
    const double pure_saved = saved_pct(pure_full, pure_plan);
    const double all_saved = saved_pct(all_full, all_plan);

    // Equivalence + completeness: the plan-driven mask must repair the app
    // exactly like the full-checkpoint mask, and the shadow validator must
    // see every partial restore reproduce the full-restore state.
    fatomic::Config config;
    config.mask(wrap);
    const auto full_v = mask::verify_masked_full(app.program, config);
    config.checkpoint_plans(plans).validate_checkpoints(true);
    const auto partial_v = mask::verify_masked_full(app.program, config);
    const bool equivalent =
        fatomic::report::classification_json(full_v.classification) ==
        fatomic::report::classification_json(partial_v.classification);
    const auto divergences = partial_v.campaign.stats.validator_divergences;
    const bool row_ok = equivalent &&
                        partial_v.classification.nonatomic_names().empty() &&
                        divergences == 0 &&
                        std::max(pure_saved, all_saved) >= f.min_saved_pct;
    ok = ok && row_ok;

    std::printf("%-14s %-14s | %8llu %8llu %6.1f%% | %8llu %8llu %6.1f%% | %5s\n",
                f.family.c_str(), f.app.c_str(),
                static_cast<unsigned long long>(pure_full.units),
                static_cast<unsigned long long>(pure_plan.units), pure_saved,
                static_cast<unsigned long long>(all_full.units),
                static_cast<unsigned long long>(all_plan.units), all_saved,
                row_ok ? "yes" : "NO");
    if (!equivalent) std::printf("  DIVERGED: plan-driven classification differs\n");
    if (!partial_v.classification.nonatomic_names().empty())
      std::printf("  NOT REPAIRED: %zu non-atomic methods remain\n",
                  partial_v.classification.nonatomic_names().size());
    if (divergences > 0)
      std::printf("  VALIDATOR: %llu partial restores diverged from the "
                  "shadow full checkpoint\n",
                  static_cast<unsigned long long>(divergences));
    if (std::max(pure_saved, all_saved) < f.min_saved_pct)
      std::printf("  below the %.0f%% checkpoint-unit saving floor\n",
                  f.min_saved_pct);

    auto mask_json = [](const Cost& full, const Cost& plan, double saved) {
      return bench_common::JsonObject{}
          .put("units_full", full.units)
          .put("units_plan", plan.units)
          .put("saved_pct", saved)
          .put("ms_full", full.ms)
          .put("ms_plan", plan.ms)
          .put("full_snapshots", full.full_snapshots)
          .put("partial_snapshots", plan.partial_snapshots)
          .put("fallbacks", plan.fallbacks)
          .dump();
    };
    rows.add_raw(
        bench_common::JsonObject{}
            .put("family", f.family)
            .put("app", f.app)
            .put_raw("wrap_pure", mask_json(pure_full, pure_plan, pure_saved))
            .put_raw("wrap_all", mask_json(all_full, all_plan, all_saved))
            .put("equivalent", equivalent)
            .put("validator_divergences", divergences)
            .put("ok", row_ok)
            .dump());
  }

  bench_common::write_bench_json(
      "mask_cost",
      bench_common::JsonObject{}
          .put("partial_plans", sreport.write_sets.partial_count())
          .put("methods_total", sreport.write_sets.methods.size())
          .put("plan_coverage",
               sreport.write_sets.methods.empty()
                   ? 0.0
                   : static_cast<double>(sreport.write_sets.partial_count()) /
                         static_cast<double>(sreport.write_sets.methods.size()))
          .put_raw("families", rows.dump())
          .put("ok", ok)
          .dump());
  return ok ? 0 : 1;
}
