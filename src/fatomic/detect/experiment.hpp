// The automated-experiment driver (Figure 1, step 3): executes the injector
// program repeatedly, incrementing the injection threshold before each run so
// every potential injection point fires exactly once across the campaign.
// The campaign terminates when a run's counter never reaches the threshold —
// all injection points of the (deterministic) program are then exhausted.
//
// A campaign runs exactly its Config: no setting comes from the calling
// thread's runtime, and production faults stay off (DESIGN.md §6).
//
// Runs at distinct thresholds are independent re-executions of the same
// deterministic program, so with Config::jobs > 1 the driver
// shards them across a worker pool of isolated thread-local runtimes and
// merges the records back in threshold order — producing exactly the
// Campaign the sequential loop would, including the
// stop-at-first-exhausted-run cutoff.  With tracing enabled each run's event
// slice rides along and merges in the same order, so the trace stream is
// deterministic by construction (trace/trace.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

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
  /// Both run the injector runs in the configuration run() installed in the
  /// calling thread's runtime (workers copy it).  `baseline` is the Count
  /// run's per-call table every injector run follows (DESIGN.md §15);
  /// workers share it read-only.  prunable[t] == true means threshold t is
  /// statically skippable; the vector is empty when pruning is off.
  void run_sequential(Campaign& campaign, const weave::CallTable& baseline,
                      const std::vector<bool>& prunable);
  void run_parallel(Campaign& campaign, unsigned jobs,
                    const weave::CallTable& baseline,
                    const std::vector<bool>& prunable);

  std::function<void()> program_;
  fatomic::Config config_;
};

}  // namespace fatomic::detect
