// Raw results of an injection campaign: one RunRecord per execution of the
// exception injector program (Figure 1, step 3), plus the Count baseline's
// per-call table, the campaign's one record of the original program.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fatomic/trace/trace.hpp"
#include "fatomic/weave/runtime.hpp"

namespace fatomic::detect {

/// Observations from one run of the injector program at a fixed threshold.
struct RunRecord {
  std::uint64_t injection_point = 0;  ///< the run's threshold
  /// Where the injection fired; null when the counter never reached the
  /// threshold.
  const weave::MethodInfo* injected_method = nullptr;
  std::string injected_exception;
  /// Atomicity marks in exception-propagation order (callee first).
  std::vector<weave::Mark> marks;
  bool escaped = false;  ///< the exception escaped the whole program
  std::string escape_what;
  /// Interned throw-site stack id of the escaping exception (provenance
  /// campaigns only; 0 otherwise).
  std::uint64_t escape_stack = 0;
};

/// Stats attributable to one campaign worker (0 = the driving thread at
/// jobs 1, 1..N for parallel workers).  Which worker executed
/// which threshold is a scheduling artifact, so per-worker rows vary between
/// executions even though their sums are deterministic — reports expose them
/// as observability metadata, never as part of the canonical result.
struct WorkerStats {
  unsigned worker = 0;
  /// Injector runs this worker contributed to the campaign (kept records
  /// plus the terminal probe; speculative runs past the cutoff are not
  /// counted, mirroring the merged stats).
  std::uint64_t runs = 0;
  weave::RuntimeStats stats;
};

struct Campaign {
  std::vector<RunRecord> runs;
  /// The Count baseline's per-call table (DESIGN.md §15): the one record of
  /// the original program, which every injector run follows and off which
  /// every call count, Table 1 count and call-graph edge is read.
  weave::CallTable calls;
  /// Snapshot/comparison/rollback/wrapped-call counters accumulated over the
  /// campaign's injector runs — aggregated across workers when the campaign
  /// ran with Config::jobs > 1, and restricted to the runs the campaign
  /// keeps, so parallel and sequential campaigns report identical totals.
  weave::RuntimeStats stats;
  /// Injector runs skipped by static pruning (prune_atomic): the thresholds
  /// whose entire injection-time call stack was statically proven failure
  /// atomic.  0 for unpruned campaigns.
  std::uint64_t pruned_runs = 0;
  /// Per-worker breakdown of `stats` — parallel campaigns previously merged
  /// worker contributions destructively; this keeps the attribution.  The
  /// entries sum to `stats` exactly.  Sorted by worker ordinal.
  std::vector<WorkerStats> worker_stats;
  /// Deterministically merged structured event stream (empty unless the
  /// campaign ran with fatomic::Config::tracing).
  trace::Trace trace;
  /// Whether this campaign ran with throw-site provenance armed — gates the
  /// "exception_provenance" report section so non-provenance campaign JSON
  /// stays byte-identical to earlier releases.
  bool provenance = false;

  /// Number of exceptions actually injected (Table 1, #Injections).
  std::uint64_t injections() const {
    std::uint64_t n = 0;
    for (const RunRecord& r : runs) n += r.injected_method != nullptr ? 1 : 0;
    return n;
  }

  /// Methods "defined and used" by the program (Table 1, #Methods).
  std::size_t distinct_methods() const;

  /// Distinct classes among the used methods (Table 1, #Classes).
  std::size_t distinct_classes() const;

  std::uint64_t total_calls() const { return calls.size(); }
};

}  // namespace fatomic::detect
