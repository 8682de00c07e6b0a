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
#include <utility>
#include <vector>

#include "fatomic/analyze/source_model.hpp"
#include "fatomic/analyze/write_sets.hpp"
#include "fatomic/detect/campaign.hpp"

namespace fatomic::analyze {

/// The kinds of an alias binding, bottom to top.
enum class AliasKind { Local, Field, Param, Top };

/// What one local binding may point at.  The lattice's join is `merge`:
/// Local is bottom (freshly owned storage, writes stay in the frame), Field
/// and Param are the useful middle (a receiver subtree rooted at named
/// members / a caller object behind a parameter position), Top is escape.
/// `Name` is a symbol id while the pass runs and a string in its product.
template <class Name>
struct BasicAliasTarget {
  using Kind = AliasKind;
  Kind kind = Kind::Local;
  /// Field: member names rooting the aliased subtree.  Empty means "some
  /// unresolvable member of the receiver" — still receiver-bound, but the
  /// effect pass must treat writes through it as unnamed.
  std::set<Name> roots;
  /// Param: parameter positions of the enclosing function the alias
  /// reaches through.  `roots` then names members *inside* the parameter's
  /// object, when known.
  std::set<std::size_t> positions;

  static BasicAliasTarget local() { return {}; }
  static BasicAliasTarget top() {
    BasicAliasTarget t;
    t.kind = Kind::Top;
    return t;
  }
  static BasicAliasTarget field(std::set<Name> r) {
    BasicAliasTarget t;
    t.kind = Kind::Field;
    t.roots = std::move(r);
    return t;
  }
  static BasicAliasTarget param(std::set<std::size_t> pos,
                                std::set<Name> r = {}) {
    BasicAliasTarget t;
    t.kind = Kind::Param;
    t.positions = std::move(pos);
    t.roots = std::move(r);
    return t;
  }

  /// Lattice join: Local ∨ x = x; ⊤ ∨ x = ⊤; Field ∨ Field unions roots;
  /// Param ∨ Param unions positions and roots; Field ∨ Param = ⊤ (a binding
  /// that may reach both the receiver and a caller object cannot be
  /// attributed to either side).
  void merge(const BasicAliasTarget& o) {
    if (o.kind == Kind::Local) return;
    if (kind == Kind::Local) {
      *this = o;
      return;
    }
    if (kind == Kind::Top || o.kind == Kind::Top || kind != o.kind) {
      *this = top();
      return;
    }
    // Same middle kind.  Empty roots mean "unknown member" and subsume any
    // named set; same for unknown parameter positions.
    if (roots.empty() || o.roots.empty())
      roots.clear();
    else
      roots.insert(o.roots.begin(), o.roots.end());
    if (kind == Kind::Param) {
      if (positions.empty() || o.positions.empty())
        positions.clear();
      else
        positions.insert(o.positions.begin(), o.positions.end());
    }
  }

  bool operator==(const BasicAliasTarget&) const = default;
};

using AliasTarget = BasicAliasTarget<std::string>;

/// Per-function alias facts, keyed like the effect pass ("Class::name" for
/// members, bare "name" for free functions).
template <class Name>
struct BasicFnAliasInfo {
  /// Local/parameter-shadowing bindings by name, merged over every
  /// assignment flow-insensitively.
  std::map<Name, BasicAliasTarget<Name>> locals;
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
  std::set<Name> this_sinks;
  /// Join over every `return <chain>;` — what a call to this function
  /// aliases in the callee frame (Field roots transfer verbatim, Param
  /// positions are re-resolved at each call site).
  BasicAliasTarget<Name> returns;
  bool has_return = false;

  bool operator==(const BasicFnAliasInfo&) const = default;
};

using FnAliasInfo = BasicFnAliasInfo<std::string>;

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

/// The same pass in the id world, as the effect pass consumes it: one entry
/// per definition key id (SourceModel::keys).
std::vector<BasicFnAliasInfo<Sym>> analyze_alias_ids(const SourceModel& model);

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
/// mutation footprints (Config::record_diffs): every path the
/// object-graph diff reports at a non-atomic mark of a partial-plan method
/// must reach a captured name before leaving the plan, and must never enter
/// a pruned subtree.
AliasCheckResult alias_check(const detect::Campaign& campaign,
                             const WriteSetAnalysis& write_sets);

}  // namespace fatomic::analyze
