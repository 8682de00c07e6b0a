// Front end of the static analyzer: runs the source scan and the effect
// pass over a subject tree, derives the campaign prune set, and offers the
// full-vs-pruned cross-check that guards the pruning soundness argument
// empirically (DESIGN.md §7).
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>

#include "fatomic/analyze/callgraph_static.hpp"
#include "fatomic/analyze/effects.hpp"
#include "fatomic/analyze/source_model.hpp"
#include "fatomic/analyze/write_sets.hpp"
#include "fatomic/detect/classify.hpp"
#include "fatomic/detect/experiment.hpp"

namespace fatomic::analyze {

struct StaticReport {
  SourceModel model;
  EffectAnalysis effects;
  WriteSetAnalysis write_sets;
  /// Pass 4: the static call graph with context-sensitive exception flow,
  /// consumed by `--graph-check` and the static lint.
  StaticCallGraph graph;

  /// Qualified names safe to feed fatomic::Config::prune_atomic: statically
  /// proven failure atomic, with a receiver (statics have no state to
  /// protect and never produce marks), and free of catch clauses (a
  /// swallowing method may resume into divergent control flow the pruned
  /// campaign would miss — DESIGN.md §7).
  std::set<std::string> prune_set() const;

  std::size_t proven_count() const;
  std::size_t method_count() const { return effects.methods.size(); }

  /// Human-readable per-method verdict table.
  std::string to_text() const;
};

/// Scans `root` (a subject source tree) and runs the effect, write-set and
/// static-call-graph passes.  Throws std::runtime_error when root does not
/// exist.
StaticReport analyze_sources(const std::string& root);

/// Result of running the same workload twice — one full campaign, one with
/// static pruning — and comparing the classifications.
struct CrossCheck {
  detect::Campaign full;
  detect::Campaign pruned;
  /// Per-class name sets (atomic / conditional / pure) are identical.  The
  /// atomic-mark *counters* legitimately differ — pruned runs suppress
  /// atomic observations — so only the classification sets are compared.
  bool identical = false;
  std::uint64_t runs_saved = 0;  ///< Campaign::pruned_runs of the pruned run
  std::string mismatch;          ///< first differing method, for diagnostics
};

/// Runs the full and the pruned campaign over `program` and compares their
/// classification name sets.
CrossCheck cross_check(std::function<void()> program,
                       const std::set<std::string>& prune_atomic,
                       unsigned jobs = 1);

}  // namespace fatomic::analyze
