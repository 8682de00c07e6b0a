// Ablation of the masking design choices called out in DESIGN.md §5:
//
//  - wrap-pure vs. wrap-all-non-atomic: the paper's Section 4.3 argues that
//    conditional failure non-atomic methods need not be wrapped once their
//    callees are; this bench quantifies the saved checkpointing (wrapped
//    calls, snapshots) and wall time while demonstrating both policies pass
//    verification;
//  - the eager wrapper's instrumentation cost: wall time of the original
//    (Direct) program vs. one Inject-mode pass with no injection, per
//    application.  The pass runs without a baseline call table, so every
//    wrapper deep-copies its receiver.  Campaigns stopped using the eager
//    wrapper with observer-set capture (DESIGN.md §15); campaign cost is
//    measured by perfbench.
#include <chrono>
#include <iostream>

#include "bench_common.hpp"
#include "fatomic/mask/masker.hpp"

namespace detect = fatomic::detect;
namespace weave = fatomic::weave;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct MaskCost {
  std::uint64_t wrapped_calls = 0;
  std::uint64_t snapshots = 0;
  double ms = 0;
  bool verified = false;
};

MaskCost masked_cost(const subjects::apps::App& app,
                     weave::Runtime::WrapPredicate wrap) {
  auto& rt = weave::Runtime::instance();
  MaskCost cost;
  {
    fatomic::mask::MaskedScope scope(wrap);
    rt.stats = {};
    const auto t0 = Clock::now();
    for (int i = 0; i < 20; ++i) app.program();
    cost.ms = ms_since(t0) / 20.0;
    cost.wrapped_calls = rt.stats.wrapped_calls / 20;
    cost.snapshots = rt.stats.snapshots_taken / 20;
  }
  fatomic::Config config;
  config.mask(wrap);
  cost.verified = fatomic::mask::verify_masked_full(app.program, config)
                      .classification.nonatomic_names()
                      .empty();
  return cost;
}

}  // namespace

int main() {
  std::cout << "Ablation 1: wrap-pure vs wrap-all-non-atomic (per run of the "
               "corrected program)\n";
  std::cout << "app\twrapped(pure)\twrapped(all)\tms(pure)\tms(all)\t"
               "both_verified\n";
  bench_common::JsonArray wrap_rows;
  for (const char* name :
       {"HashedMap", "LinkedList", "CircularList", "RBTree", "stdQ"}) {
    const auto& app = subjects::apps::app(name);
    detect::Experiment exp(app.program);
    auto cls = detect::classify(exp.run());
    MaskCost pure = masked_cost(app, fatomic::mask::wrap_pure(cls));
    MaskCost all = masked_cost(app, fatomic::mask::wrap_all_nonatomic(cls));
    std::cout << name << '\t' << pure.wrapped_calls << '\t'
              << all.wrapped_calls << '\t' << pure.ms << '\t' << all.ms
              << '\t' << (pure.verified && all.verified ? "yes" : "NO")
              << '\n';
    wrap_rows.add_raw(bench_common::JsonObject{}
                          .put("app", name)
                          .put("wrapped_pure", pure.wrapped_calls)
                          .put("wrapped_all", all.wrapped_calls)
                          .put("ms_pure", pure.ms)
                          .put("ms_all", all.ms)
                          .put("both_verified", pure.verified && all.verified)
                          .dump());
  }

  std::cout << "\nAblation 2: eager-wrapper instrumentation overhead (one "
               "program pass, no injection, every wrapper captures; campaign "
               "cost is measured by perfbench)\n";
  std::cout << "app\tdirect_ms\tinject_ms\tfactor\n";
  auto& rt = weave::Runtime::instance();
  bench_common::JsonArray overhead_rows;
  for (const auto& app : subjects::apps::all_apps()) {
    double direct_ms, inject_ms;
    {
      weave::ScopedMode m(weave::Mode::Direct);
      const auto t0 = Clock::now();
      for (int i = 0; i < 10; ++i) app.program();
      direct_ms = ms_since(t0) / 10.0;
    }
    {
      weave::ScopedMode m(weave::Mode::Inject);
      rt.begin_run(0);  // no injection, no call table: every wrapper captures
      const auto t0 = Clock::now();
      for (int i = 0; i < 10; ++i) app.program();
      inject_ms = ms_since(t0) / 10.0;
    }
    std::cout << app.name << '\t' << direct_ms << '\t' << inject_ms << '\t'
              << (direct_ms > 0 ? inject_ms / direct_ms : 0) << "x\n";
    overhead_rows.add_raw(
        bench_common::JsonObject{}
            .put("app", app.name)
            .put("direct_ms", direct_ms)
            .put("inject_ms", inject_ms)
            .put("factor", direct_ms > 0 ? inject_ms / direct_ms : 0)
            .dump());
  }
  bench_common::write_bench_json(
      "ablation", bench_common::JsonObject{}
                      .put_raw("wrap_policy", wrap_rows.dump())
                      .put_raw("instrumentation_overhead", overhead_rows.dump())
                      .dump());
  return 0;
}
