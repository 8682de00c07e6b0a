// The automated-experiment driver (Figure 1, step 3): executes the injector
// program repeatedly, incrementing the injection threshold before each run so
// every potential injection point fires exactly once across the campaign.
// The campaign terminates when a run's counter never reaches the threshold —
// all injection points of the (deterministic) program are then exhausted.
//
// A campaign owns its runtime: it sets up a fresh weave::Runtime from its
// Config alone and installs it for the Count baseline and the injector runs,
// so it never reads or writes the calling thread's runtime (DESIGN.md §6).
//
// Runs at distinct thresholds are independent re-executions of the same
// deterministic program.  One loop claims thresholds, runs them and absorbs
// each outcome in threshold order as soon as every lower threshold is in:
// the driving thread drains it at Config::jobs == 1, and that many worker
// threads, each on a runtime set up the same way, otherwise.  Every jobs
// value therefore yields the same Campaign, including the
// stop-at-first-exhausted-run cutoff.  With tracing enabled each run's event
// slice rides along and merges in the same order, so the trace stream is
// deterministic by construction (trace/trace.hpp).
#pragma once

#include <functional>

#include "fatomic/config.hpp"
#include "fatomic/detect/campaign.hpp"

namespace fatomic::detect {

class Experiment {
 public:
  /// Every knob comes from the one builder (fatomic/config.hpp); the
  /// campaign runs on its own copy.
  explicit Experiment(std::function<void()> program,
                      fatomic::Config config = {});

  /// Runs the full campaign: one Count-mode baseline run for call counts,
  /// then one injector run per injection point (parallelised over
  /// Config::jobs workers when jobs != 1).  With prune_atomic,
  /// thresholds whose injection-time call stack is entirely proven atomic
  /// are skipped and counted in Campaign::pruned_runs instead.
  Campaign run();

 private:
  std::function<void()> program_;
  fatomic::Config config_;
};

}  // namespace fatomic::detect
