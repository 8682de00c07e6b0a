// The weaving runtime: global mode switch, injection-point counter, marks of
// the current run, the Count baseline's call table and the masking wrap
// predicate.
//
// The paper builds two distinct programs — an exception injector P_I and a
// corrected program P_C (Figure 1).  Our load-time substitute keeps a single
// instrumented program whose wrappers select their behaviour from the active
// Mode, which yields the same wrapper nesting and observable semantics as
// the paper's woven variants (DESIGN.md, substitution table).
//
// Each thread sees its own "current" runtime through Runtime::instance():
// by default a thread-local instance, or an explicitly installed one
// (ScopedRuntime).  A runtime itself is single-threaded — the paper's system
// "does not explicitly deal with concurrent accesses in multi-threaded
// programs" (Section 4.4) — but isolated runtimes let independent injection
// runs execute on separate threads (Config::jobs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fatomic/recovery/policy.hpp"
#include "fatomic/snapshot/arena.hpp"
#include "fatomic/snapshot/partial.hpp"
#include "fatomic/trace/trace.hpp"
#include "fatomic/weave/method_info.hpp"

namespace fatomic::weave {

/// Per-method checkpoint plans keyed by qualified method name, produced by
/// the write-set analysis (analyze::analyze_write_sets) and installed into a
/// runtime for the mask layer to consult.  Methods without an entry — and
/// entries with partial == false — use the full deep checkpoint.
using PlanMap = std::map<std::string, snapshot::CheckpointPlan>;

enum class Mode : std::uint8_t {
  Direct,  ///< call through, no instrumentation (original program P)
  Count,   ///< record the original program's calls (the baseline)
  Inject,  ///< exception injector program P_I (Listing 1) around the
           ///< atomicity wrappers the predicate selects: P_I itself with no
           ///< predicate, P_C under re-injection with one
  Mask,    ///< corrected program P_C (Listing 2)
};

/// One atomicity observation made by an injection wrapper when an exception
/// passed through it (Listing 1, lines 10-14).  Marks are appended in
/// exception-propagation order, i.e. callee before caller — the property the
/// pure/conditional classification relies on (Definition 3).
struct Mark {
  const MethodInfo* method;
  bool atomic;
  /// Wrapper nesting depth at which the mark was recorded.  Within one
  /// exception-propagation episode depths strictly decrease (callee to
  /// caller); a mark at a depth >= its predecessor's starts a new episode.
  /// The classifier uses this to apply the "first marked" rule per episode,
  /// so an unrelated earlier exception in the same run cannot demote a pure
  /// failure non-atomic method to conditional.
  int depth;
  /// One-line description of the first object-graph difference (only for
  /// non-atomic marks, and only when Runtime::record_diffs is set).
  std::string detail;
  /// Demangled type name of the exception that passed through the wrapper
  /// (injected or real); empty only for a foreign (non-C++) exception.
  /// Consumed by the exception-flow lint, which checks every observed type
  /// against the method's statically computed may-propagate set.
  std::string exception_type;
  /// Interned throw-site stack id (unwind::StackTable) of the exception this
  /// mark observed; 0 when provenance is off or no capture matched.
  std::uint64_t throw_stack = 0;
  /// Every object-graph diff path between the entry checkpoint and the
  /// post-exception state (only for non-atomic marks, and only when
  /// Runtime::record_diffs is set).  The alias soundness gate
  /// (`--alias-check`) validates these against the static write sets.
  std::vector<std::string> footprint;
};

/// Campaign counters, generated from runtime_stats.def: one std::uint64_t
/// field per FATOMIC_STAT entry, in list order.
struct RuntimeStats {
#define FATOMIC_STAT(name, block, json_key) std::uint64_t name = 0;
#include "fatomic/weave/runtime_stats.def"
};

/// The campaign-JSON object that reports a counter (runtime_stats.def).
enum class StatBlock : std::uint8_t { stats, recovery, none };

/// One RuntimeStats counter: field name, JSON placement and member.
struct StatField {
  const char* name;
  StatBlock block;
  const char* json_key;
  std::uint64_t RuntimeStats::*member;
};

/// Every RuntimeStats counter, in list order — what merges, deltas, metrics
/// and campaign JSON iterate, so none of them can miss a counter.
inline constexpr StatField kStatFields[] = {
#define FATOMIC_STAT(name, block, json_key) \
  {#name, StatBlock::block, json_key, &RuntimeStats::name},
#include "fatomic/weave/runtime_stats.def"
};

inline RuntimeStats& operator+=(RuntimeStats& a, const RuntimeStats& b) {
  for (const StatField& f : kStatFields) a.*f.member += b.*f.member;
  return a;
}

/// Counter deltas between two points of the same runtime's history
/// (`after` must be a later observation than `before`).
inline RuntimeStats operator-(RuntimeStats after, const RuntimeStats& before) {
  for (const StatField& f : kStatFields) after.*f.member -= before.*f.member;
  return after;
}

/// One instrumented call of the Count baseline, in call order: every
/// wrapper and invoke_static entry the original program makes
/// (DESIGN.md §15).  Count and Inject runs make identical call sequences up
/// to the injection, so entry k describes the k-th entry of every injector
/// run until that run leaves the baseline.
struct BaselineCall {
  /// `parent` of a call made from the program top level.
  static constexpr std::size_t kTopLevel = static_cast<std::size_t>(-1);
  /// `bound` of a call an exception crossed in the baseline.
  static constexpr std::uint64_t kAlways = static_cast<std::uint64_t>(-1);

  const MethodInfo* method = nullptr;
  /// Index of the enclosing call, or kTopLevel.
  std::size_t parent = kTopLevel;
  /// The last injection point fired inside the call's subtree, counting its
  /// own declared and runtime specs; kAlways when an exception crossed the
  /// call.  A run at threshold t > bound returns from the call before t
  /// fires, and no exception crosses it.
  std::uint64_t bound = 0;
};
using CallTable = std::vector<BaselineCall>;

class Runtime {
 public:
  /// The calling thread's current runtime: the innermost ScopedRuntime, or
  /// the thread's own default instance.  Distinct threads never share a
  /// runtime unless one is installed on both — which campaign code never
  /// does — so wrappers running on worker threads observe fully isolated
  /// injection state.
  static Runtime& instance();

  Runtime() = default;

  // A runtime is an identity (wrappers hold references to it across a run);
  // configuration moves between runtimes via adopt_config().
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // --- mode ---------------------------------------------------------------
  Mode mode() const { return mode_; }
  void set_mode(Mode m) { mode_ = m; }

  // --- injection state (Listing 1) ----------------------------------------
  std::uint64_t point = 0;            ///< global counter `Point`
  std::uint64_t injection_point = 0;  ///< run threshold `InjectionPoint`
  /// Where this run's injection fired; null until one has.
  const MethodInfo* injected_method = nullptr;
  std::string injected_exception;
  int depth = 0;  ///< current injection-wrapper nesting depth
  /// Non-zero while the engine itself is executing subject code on its own
  /// behalf (rollback replay reconstructing instrumented objects): every
  /// wrapper entered from such code must pass straight through — an
  /// injection point or production fault firing inside a restore would turn
  /// the rollback it serves into a RestoreError.
  int engine_depth = 0;
  /// When set, non-atomic marks carry the object-graph diff between entry
  /// and exception: a one-line explanation (Mark::detail) and every diff
  /// path (Mark::footprint, for the alias soundness gate).  Costs one
  /// bounded diff per non-atomic mark; off by default.
  bool record_diffs = false;
  /// When set, injection wrappers consult the unwind capture layer and
  /// attach interned throw-site stack ids to marks and throw-site trace
  /// events (unwind/provenance.hpp).  The campaign driver sets this for
  /// provenance campaigns; requires a live unwind::ScopedArm to observe
  /// anything.
  bool provenance = false;
  /// Serial of the last ThrowRecord this runtime attributed (per-thread
  /// throw ordinal).  One propagating exception passes through every nested
  /// wrapper on its way out; comparing serials lets the outer wrappers skip
  /// re-recording the throw-site event and the exceptions_thrown count the
  /// innermost wrapper already made.
  std::uint64_t last_throw_serial = 0;

  // --- observer-set capture (DESIGN.md §15) --------------------------------
  /// The campaign's Count baseline while this run still follows it: null
  /// outside campaign runs, and from the moment the run leaves the baseline
  /// (an injection fires, a masking or recovery wrapper catches an
  /// exception, or the call sequence departs from the table's).
  const CallTable* baseline = nullptr;
  /// Wrapper and invoke_static entries this run has made: the index of the
  /// next entry's row in `baseline`.
  std::uint64_t entries = 0;
  /// Set when an injection wrapper that skipped its before-snapshot caught
  /// an exception.  The run's marks are then incomplete; the campaign
  /// discards it and re-runs the threshold with every wrapper capturing.
  bool capture_missed = false;

  /// Whether this run's `entry`-th entry, a call of `mi`, can observe an
  /// exception and so needs its before-snapshot.  Off the baseline every
  /// call can; on it, only a call whose baseline subtree reaches the
  /// threshold or was crossed by an exception.  An entry that is not the
  /// table's row `entry` leaves the baseline.
  bool may_observe(std::uint64_t entry, const MethodInfo& mi) {
    if (baseline == nullptr || injected_method != nullptr) return true;
    if (entry >= baseline->size() || (*baseline)[entry].method != &mi) {
      baseline = nullptr;  // a nondeterministic program left the baseline
      return true;
    }
    return injection_point <= (*baseline)[entry].bound;
  }

  /// Resets per-run state and arms the next injection threshold.  A
  /// non-null `calls` lets the run's injection wrappers skip captures no
  /// exception can read; the caller keeps it alive for the run.
  void begin_run(std::uint64_t threshold, const CallTable* calls = nullptr);

  /// Copies the configuration — mode, wrap predicate, diff, footprint and
  /// provenance recording, checkpoint plans, recovery policies,
  /// fault_period, the validator flag and the trace's enabled state and
  /// epoch — from `src`, leaving this runtime's per-run state untouched.
  /// ScopedConfig, mask::MaskedScope's guard, saves and restores through it.
  void adopt_config(const Runtime& src);

  // --- per-run observations -------------------------------------------------
  std::vector<Mark> marks;

  // --- the Count baseline -------------------------------------------------
  /// The Count baseline's per-call table, appended in call order; `point`
  /// advances by each call's injection points as the injector's would.  A
  /// campaign keeps it as detect::Campaign::calls (DESIGN.md §7, §15).
  CallTable calls;
  /// Indices into `calls` of the active Count-mode frames (innermost last).
  std::vector<std::size_t> open_calls;
  void reset_counts() {
    calls.clear();
    open_calls.clear();
    point = 0;
  }

  // --- masking -----------------------------------------------------------------
  /// Predicate selecting the methods whose calls are replaced by atomicity
  /// wrappers (Figure 1, step 5).  Null means "wrap nothing".
  using WrapPredicate = std::function<bool(const MethodInfo&)>;
  void set_wrap_predicate(WrapPredicate p) { wrap_ = std::move(p); }
  const WrapPredicate& wrap_predicate() const { return wrap_; }
  bool should_wrap(const MethodInfo& mi) const { return wrap_ && wrap_(mi); }

  // --- checkpoint plans (write-set analysis, DESIGN.md §8) ------------------
  /// Installs the per-method checkpoint plans the atomicity wrappers consult.
  /// Null (the default) means every checkpoint is a full deep copy.
  void set_checkpoint_plans(std::shared_ptr<const PlanMap> plans) {
    plans_ = std::move(plans);
    plan_memo_.clear();
  }
  const std::shared_ptr<const PlanMap>& checkpoint_plans() const {
    return plans_;
  }
  /// The plan for `mi`, or null when none is installed / the plan is full.
  /// Memoized per MethodInfo — wrappers call this on every protected call.
  const snapshot::CheckpointPlan* checkpoint_plan(const MethodInfo& mi);

  // --- recovery policies (DESIGN.md §14) ------------------------------------
  /// Installs the per-method recovery policy table the masking wrappers
  /// consult.  A wrapped method with no entry, and every wrapped method when
  /// the table is null (the default), runs recovery::kRollbackPolicy: the
  /// paper's rollback-and-rethrow.
  void set_recovery_policies(
      std::shared_ptr<const recovery::PolicyTable> policies) {
    policies_ = std::move(policies);
    policy_memo_.clear();
  }
  const std::shared_ptr<const recovery::PolicyTable>& recovery_policies()
      const {
    return policies_;
  }
  /// The policy for `mi`, or null when no table is installed or the table
  /// has no entry for the method.  Memoized per MethodInfo — wrappers call
  /// this on every protected call.
  const recovery::RecoveryPolicy* recovery_policy(const MethodInfo& mi);

  // --- production-mode fault injection (DESIGN.md §14) ----------------------
  /// When nonzero, masking wrappers raise an InjectedRuntimeError inside the
  /// protected region on every fault_period-th wrapped attempt — the live
  /// fault source the recovery bench drives.  0 (the default) disables the
  /// injector entirely, and a campaign's runtimes keep it there.
  std::uint64_t fault_period = 0;
  /// Attempts seen by the production-fault injector.  Advances per attempt
  /// (retries included), so a retried call faces a fresh fault decision.
  /// Deliberately NOT copied by adopt_config — each runtime counts its own.
  std::uint64_t fault_counter = 0;

  /// Debug completeness validator: when set, every partial checkpoint also
  /// takes a shadow full checkpoint, and a rollback compares the restored
  /// receiver with the shadow (stats.validator_divergences counts
  /// mismatches).  Costs a full capture per partial checkpoint — off by
  /// default.
  bool validate_checkpoints = false;

  /// Capture scratch for full checkpoints (DESIGN.md §10) — slabs, address
  /// vectors and the alias map are recycled across this runtime's captures.
  snapshot::ArenaPool arena_pool;

  RuntimeStats stats;

  /// Structured event sink for this runtime's wrappers (trace/trace.hpp).
  /// Disabled by default; the campaign driver enables it on a traced
  /// campaign's runtimes and slices per-run events off them.  Runtimes are
  /// per-thread, so appends are unsynchronized.
  trace::TraceBuffer trace;

 private:
  Mode mode_ = Mode::Direct;
  WrapPredicate wrap_;
  std::shared_ptr<const PlanMap> plans_;
  std::unordered_map<const MethodInfo*, const snapshot::CheckpointPlan*>
      plan_memo_;
  std::shared_ptr<const recovery::PolicyTable> policies_;
  std::unordered_map<const MethodInfo*, const recovery::RecoveryPolicy*>
      policy_memo_;
};

/// RAII: installs a runtime as the calling thread's current one — every
/// Runtime::instance() call on this thread resolves to it until the scope
/// ends.  A campaign installs its own runtime on the driving thread and on
/// each worker, so the injector program runs against it without touching
/// any wrapper call site.
class ScopedRuntime {
 public:
  explicit ScopedRuntime(Runtime& rt);
  ~ScopedRuntime();
  ScopedRuntime(const ScopedRuntime&) = delete;
  ScopedRuntime& operator=(const ScopedRuntime&) = delete;

 private:
  Runtime* saved_;
};

/// RAII: sets the calling thread's runtime mode and restores the previous
/// mode on exit.  Saves the mode only; ScopedConfig saves everything.
class ScopedMode {
 public:
  explicit ScopedMode(Mode m);
  ~ScopedMode();
  ScopedMode(const ScopedMode&) = delete;
  ScopedMode& operator=(const ScopedMode&) = delete;

 private:
  Mode saved_;
};

/// RAII: saves the calling thread's runtime configuration (everything
/// adopt_config copies) and restores it on exit.  mask::MaskedScope's guard:
/// whatever the scope installs, fault_period included, the enclosing
/// configuration comes back intact.  A campaign needs no guard: it runs on
/// runtimes of its own (detect::Experiment::run).
class ScopedConfig {
 public:
  ScopedConfig();
  ~ScopedConfig();
  ScopedConfig(const ScopedConfig&) = delete;
  ScopedConfig& operator=(const ScopedConfig&) = delete;

 private:
  Runtime& rt_;
  Runtime saved_;
};

}  // namespace fatomic::weave
