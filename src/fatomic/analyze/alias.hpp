// Pass 5 of the static analyzer: flow-insensitive, field-sensitive alias
// and escape analysis over the SourceModel.
//
// Pass 1 collapses a method's write set to ⊤ whenever a mutation flows
// through state it cannot name: a write through a local pointer, a write
// through a reference parameter, or a receiver whose `this` leaks into an
// unknown sink.  PR 8's ⊤-reason histogram shows those families dominate
// the full-checkpoint fallbacks.  This pass recovers the names: for every
// scanned function it binds each local pointer/reference to the receiver
// subtree (member-name roots) or parameter position it aliases, merging
// bindings Steensgaard-style — one union per variable, merges only ever
// move *up* the lattice
//
//     Local  ⊏  Field / Param  ⊏  ⊤
//
// and widening to ⊤ on anything the model cannot follow: const_cast /
// reinterpret_cast laundering, pointer arithmetic, or storage into an
// unmodelled sink (a call the scan has no summary for).  Interprocedural
// flow reuses the Pass 4 k=1 machinery: return-value aliases propagate
// through an optimistic fixpoint, so `MEntry* e = find_entry(key)` resolves
// to the member subtree the callee's `return` chains name, in the caller's
// frame.
//
// Soundness is validated dynamically, not assumed: `alias_check` replays a
// full campaign with mutation-footprint recording and verifies that every
// observed pre-exception write path of every narrowed method is covered by
// its static capture set and misses its prune set — the `--graph-check`
// pattern applied to write sets (exit 2 in the CLI, enforced in CI).
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "fatomic/analyze/source_model.hpp"
#include "fatomic/analyze/write_sets.hpp"
#include "fatomic/detect/campaign.hpp"

namespace fatomic::analyze {

/// What one local binding may point at.  The lattice's join is `merge`:
/// Local is bottom (freshly owned storage, writes stay in the frame), Field
/// and Param are the useful middle (a receiver subtree rooted at named
/// members / a caller object behind a parameter position), Top is escape.
struct AliasTarget {
  enum class Kind { Local, Field, Param, Top };
  Kind kind = Kind::Local;
  /// Field: member names rooting the aliased subtree.  Empty means "some
  /// unresolvable member of the receiver" — still receiver-bound, but the
  /// effect pass must treat writes through it as unnamed.
  std::set<std::string> roots;
  /// Param: parameter positions of the enclosing function the alias
  /// reaches through.  `roots` then names members *inside* the parameter's
  /// object, when known.
  std::set<std::size_t> positions;

  static AliasTarget local() { return {}; }
  static AliasTarget top() {
    AliasTarget t;
    t.kind = Kind::Top;
    return t;
  }
  static AliasTarget field(std::set<std::string> r) {
    AliasTarget t;
    t.kind = Kind::Field;
    t.roots = std::move(r);
    return t;
  }
  static AliasTarget param(std::set<std::size_t> pos,
                           std::set<std::string> r = {}) {
    AliasTarget t;
    t.kind = Kind::Param;
    t.positions = std::move(pos);
    t.roots = std::move(r);
    return t;
  }

  /// Lattice join: Local ∨ x = x; ⊤ ∨ x = ⊤; Field ∨ Field unions roots;
  /// Param ∨ Param unions positions and roots; Field ∨ Param = ⊤ (a binding
  /// that may reach both the receiver and a caller object cannot be
  /// attributed to either side).
  void merge(const AliasTarget& o);

  bool operator==(const AliasTarget& o) const {
    return kind == o.kind && roots == o.roots && positions == o.positions;
  }
};

/// Per-function alias facts, keyed like the effect pass ("Class::name" for
/// members, bare "name" for free functions).
struct FnAliasInfo {
  /// Local/parameter-shadowing bindings by name, merged over every
  /// assignment flow-insensitively.
  std::map<std::string, AliasTarget> locals;
  /// Parameter positions listed in the wrapper's FAT_INVOKE_ARGS std::tie:
  /// those arguments ride in the checkpoint root tuple, so named writes
  /// through them are restorable and need not collapse the write set.
  std::set<std::size_t> tied_positions;
  /// `this` reached a sink the per-token rules could not classify (stored,
  /// returned, compared against an unknown, ...): the receiver escapes.
  bool this_top = false;
  /// Callee simple names `this` was passed to as an argument.  The effect
  /// pass re-checks each against the interprocedural summaries: a sink that
  /// provably mutates nothing keeps the receiver un-escaped.
  std::set<std::string> this_sinks;
  /// Join over every `return <chain>;` — what a call to this function
  /// aliases in the callee frame (Field roots transfer verbatim, Param
  /// positions are re-resolved at each call site).
  AliasTarget returns;
  bool has_return = false;

  bool operator==(const FnAliasInfo&) const = default;
};

struct AliasAnalysis {
  std::map<std::string, FnAliasInfo> by_key;

  const FnAliasInfo* find(const std::string& key) const {
    auto it = by_key.find(key);
    return it == by_key.end() ? nullptr : &it->second;
  }
};

/// Runs the alias/escape pass over every scanned function definition (full
/// bodies, so the FAT_INVOKE_ARGS tie list is visible), iterating the
/// return-alias summaries to a fixpoint.
AliasAnalysis analyze_aliases(const SourceModel& model);

/// One dynamically observed write the static plan fails to cover.
struct AliasViolation {
  std::string method;  ///< qualified name of the narrowed method
  std::string path;    ///< footprint path ("root.head_->value")
  std::string reason;  ///< "write under pruned subtree" | "path outside capture set"
};

/// Result of the write-set soundness cross-check (`--alias-check`).
struct AliasCheckResult {
  std::vector<AliasViolation> violations;
  std::size_t marks_checked = 0;  ///< non-atomic marks of narrowed methods
  std::size_t paths_checked = 0;  ///< footprint paths examined
  bool ok() const { return violations.empty(); }
};

/// Validates the narrowed checkpoint plans against a campaign recorded with
/// mutation footprints (Config::record_footprints): every path the
/// object-graph diff reports at a non-atomic mark of a partial-plan method
/// must reach a captured name before leaving the plan, and must never enter
/// a pruned subtree.
AliasCheckResult alias_check(const detect::Campaign& campaign,
                             const WriteSetAnalysis& write_sets);

}  // namespace fatomic::analyze
