// Pass 1 of the static analyzer: per-method effect summaries.
//
// The paper detects non-atomic exception handling dynamically, by injecting
// exceptions and diffing object graphs.  This pass complements the injector
// with a static prover: for every instrumented method it scans the wrapper
// body (the FAT_INVOKE lambda) and decides whether the method is
//
//   - read-only: no statement can mutate state reachable by a caller, or
//   - commit-point-last: every statement that can raise an exception
//     precedes every statement that can mutate such state (a method whose
//     only mutations happen after its last possible failure point is
//     trivially failure atomic — the "audit first, then splice" fix pattern
//     of Section 6.1).
//
// Either verdict proves the method failure atomic under the injector's fault
// model (exceptions originate at instrumented calls and explicit throws; see
// DESIGN.md §7 for the soundness argument and its assumptions).  Everything
// the scanner cannot prove safe counts as a mutation, and every call it
// cannot resolve counts as fallible — unknowns only ever demote a verdict.
//
// The analysis is interprocedural over the scanned sources: un-instrumented
// helpers (node_at, dispose, ...) get their own {mutates, throws} summaries,
// computed as an optimistic fixpoint so recursion and sibling calls resolve.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "fatomic/analyze/source_model.hpp"

namespace fatomic::analyze {

/// Interprocedural facts about one function, used when resolving calls to
/// it.  Computed for every scanned definition (instrumented or not) by an
/// optimistic fixpoint: bits start false and only ever flip to true.
/// `Name` is a symbol id while the pass runs and a string in its product.
template <class Name>
struct BasicFnSummary {
  /// Mutates state that outlives the call other than through its parameters
  /// (the receiver, members, anything reached from them).
  bool mutates_env = false;
  /// Mutates state reachable through its non-const reference/pointer
  /// parameters; a call site only inherits this when it passes a tracked
  /// argument.
  bool mutates_params = false;
  bool may_throw = false;
  bool catches = false;
  /// Member names the environment mutations may write (Pass 3 input).
  /// Member names live in one global namespace — conflicting declarations
  /// merged by `SourceModel::declared_types` keep this sound.  When any
  /// environment write has no resolvable member name, `writes_unknown` is
  /// set and callers must collapse to ⊤.
  std::set<Name> writes;
  bool writes_unknown = false;
  /// Same, for mutations through non-const parameters.
  std::set<Name> param_writes;
  bool param_writes_unknown = false;
  /// Which parameter positions the param mutations flow through.  A call
  /// site that knows the positions re-evaluates only those argument
  /// expressions instead of treating any tracked argument anywhere in the
  /// list as potentially written (the k=1 call-site context of Pass 4).
  /// Meaningful only while `!param_positions_unknown`.
  std::set<std::size_t> write_param_positions;
  bool param_positions_unknown = false;

  /// Lattice join: ORs every bit and unions every set.  The bottom (a
  /// default-constructed summary) is its identity.
  void join(const BasicFnSummary& o) {
    mutates_env |= o.mutates_env;
    mutates_params |= o.mutates_params;
    may_throw |= o.may_throw;
    catches |= o.catches;
    writes.insert(o.writes.begin(), o.writes.end());
    writes_unknown |= o.writes_unknown;
    param_writes.insert(o.param_writes.begin(), o.param_writes.end());
    param_writes_unknown |= o.param_writes_unknown;
    write_param_positions.insert(o.write_param_positions.begin(),
                                 o.write_param_positions.end());
    param_positions_unknown |= o.param_positions_unknown;
  }
  bool operator==(const BasicFnSummary&) const = default;
};

using FnSummary = BasicFnSummary<std::string>;

/// The static verdict for one instrumented method.
struct EffectSummary {
  std::string class_name;      ///< fully qualified, as in FAT_METHOD_INFO
  std::string method_name;
  std::string qualified_name;  ///< "Class::method", the runtime's key
  /// A body was found and analyzed.  False means "no verdict" — the method
  /// is treated as unproven everywhere.
  bool scanned = false;
  bool is_static = false;      ///< FAT_STATIC_INFO: no receiver to protect
  bool read_only = false;
  bool commit_point_last = false;
  /// The body contains a catch clause: the method may swallow an injected
  /// exception and resume, which the pruning soundness argument excludes.
  bool catches = false;
  std::size_t mutation_events = 0;
  std::size_t throw_events = 0;
  /// Member names this method may write *before* its last possible
  /// injection point (mutations strictly after the last throw event can
  /// never need rolling back).  Meaningful only when !write_top.
  std::set<std::string> write_names;
  /// The pre-injection write set could not be bounded (unresolved target,
  /// parameter-aliased write, receiver escaping via `this`): Pass 3 must
  /// fall back to a full checkpoint for this method.
  bool write_top = false;
  /// Every collapsing rule that fired, in event order — the single source
  /// of truth for ⊤ reasons.  The first entry is the headline reason the
  /// write-set report surfaces; the full list feeds the ⊤-reason histogram
  /// (`--write-sets`, write_sets JSON).
  std::vector<std::string> write_top_reasons;

  /// Statically proven failure atomic under the injector's fault model.
  bool proven_atomic() const {
    return scanned && (read_only || commit_point_last);
  }
  /// "read-only" | "commit-point-last" | "unproven" | "unscanned".
  const char* verdict() const;
};

/// All effect results for one scanned source tree.
struct EffectAnalysis {
  /// One summary per (class, instrumented method), keyed by qualified name.
  std::map<std::string, EffectSummary> methods;
  /// Helper summaries by qualified name ("Class::helper" or free "helper").
  std::map<std::string, FnSummary> helpers;

  const EffectSummary* find(const std::string& qualified_name) const {
    auto it = methods.find(qualified_name);
    return it == methods.end() ? nullptr : &it->second;
  }
};

/// Runs the effect analysis over a scanned source model.
EffectAnalysis analyze_effects(const SourceModel& model);

}  // namespace fatomic::analyze
